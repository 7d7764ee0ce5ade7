//! The nightly MPJP prediction step.
//!
//! Every midnight, Maxson predicts which JSONPaths will be parsed at least
//! twice the coming day (§IV-A). This module turns a query history into
//! that prediction: it folds the trace through the JSONPath Collector,
//! builds the feature window for each path ending *today*, and asks a
//! predictor for tomorrow's label.

use maxson_predictor::crf::LstmCrf;
use maxson_predictor::features::{window_example, FeatureConfig};
use maxson_predictor::linear::{LinearConfig, LinearModel, Loss};
use maxson_predictor::lstm::{LstmConfig, LstmLabeler};
use maxson_predictor::mlp::{MlpClassifier, MlpConfig};
use maxson_predictor::{build_dataset, MpjpModel};
use maxson_trace::{JsonPathCollector, JsonPathLocation};

/// Which predictor drives MPJP selection (Table III's model axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Logistic regression baseline.
    Lr,
    /// Linear SVM baseline.
    Svm,
    /// MLP baseline.
    Mlp,
    /// Uni-LSTM baseline.
    Lstm,
    /// The paper's hybrid model.
    LstmCrf,
    /// Oracle: perfect knowledge of tomorrow (upper bound for tests).
    Oracle,
    /// History heuristic: predict MPJP if the path was an MPJP today
    /// (simple non-ML baseline).
    RepeatYesterday,
}

/// One predicted MPJP candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MpjpCandidate {
    /// The path's warehouse location.
    pub location: JsonPathLocation,
    /// The day the prediction targets (tomorrow).
    pub target_day: u32,
}

/// A trained predictor wrapped behind one dispatchable type.
pub enum TrainedPredictor {
    /// Linear model (LR or SVM).
    Linear(LinearModel),
    /// MLP.
    Mlp(MlpClassifier),
    /// Uni-LSTM.
    Lstm(LstmLabeler),
    /// Hybrid.
    LstmCrf(LstmCrf),
    /// Oracle / heuristic kinds need no training.
    Heuristic(PredictorKind),
}

impl TrainedPredictor {
    /// Train `kind` on the history in `collector` (all days up to
    /// `collector.max_day()`).
    pub fn train(
        kind: PredictorKind,
        collector: &JsonPathCollector,
        config: &FeatureConfig,
    ) -> Self {
        match kind {
            PredictorKind::Oracle | PredictorKind::RepeatYesterday => {
                TrainedPredictor::Heuristic(kind)
            }
            _ => {
                let dataset = build_dataset(collector, config.clone());
                let split = dataset.split();
                match kind {
                    PredictorKind::Lr => TrainedPredictor::Linear(LinearModel::train(
                        &split.train,
                        Loss::Logistic,
                        LinearConfig::default(),
                    )),
                    PredictorKind::Svm => TrainedPredictor::Linear(LinearModel::train(
                        &split.train,
                        Loss::Hinge,
                        LinearConfig::default(),
                    )),
                    PredictorKind::Mlp => TrainedPredictor::Mlp(MlpClassifier::train(
                        &split.train,
                        MlpConfig::default(),
                    )),
                    PredictorKind::Lstm => TrainedPredictor::Lstm(LstmLabeler::train(
                        &split.train,
                        LstmConfig::default(),
                    )),
                    PredictorKind::LstmCrf => TrainedPredictor::LstmCrf(LstmCrf::train(
                        &split.train,
                        LstmConfig::default(),
                    )),
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Predict whether `loc` will be an MPJP on `today + 1`.
    pub fn predict(
        &self,
        collector: &JsonPathCollector,
        loc: &JsonPathLocation,
        today: u32,
        config: &FeatureConfig,
    ) -> bool {
        match self {
            TrainedPredictor::Heuristic(PredictorKind::Oracle) => collector.is_mpjp(loc, today + 1),
            TrainedPredictor::Heuristic(_) => collector.is_mpjp(loc, today),
            model => {
                let ex = window_example(collector, loc, today, config);
                match model {
                    TrainedPredictor::Linear(m) => m.predict(&ex),
                    TrainedPredictor::Mlp(m) => m.predict(&ex),
                    TrainedPredictor::Lstm(m) => m.predict(&ex),
                    TrainedPredictor::LstmCrf(m) => m.predict(&ex),
                    TrainedPredictor::Heuristic(_) => unreachable!(),
                }
            }
        }
    }
}

/// Predict tomorrow's MPJPs over every path the collector has seen.
pub fn predict_mpjps(
    collector: &JsonPathCollector,
    predictor: &TrainedPredictor,
    today: u32,
    config: &FeatureConfig,
) -> Vec<MpjpCandidate> {
    collector
        .locations()
        .filter(|loc| predictor.predict(collector, loc, today, config))
        .map(|loc| MpjpCandidate {
            location: loc.clone(),
            target_day: today + 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_trace::{SynthConfig, TraceSynthesizer};

    fn collector() -> JsonPathCollector {
        let trace = TraceSynthesizer::new(SynthConfig {
            days: 30,
            tables: 8,
            users: 30,
            ..Default::default()
        })
        .generate();
        let mut c = JsonPathCollector::new();
        c.observe_all(trace.queries.iter());
        c
    }

    #[test]
    fn prediction_window_is_the_training_example_of_the_next_day() {
        // Training's example for prediction day `day` and the window the
        // nightly prediction builds on `today = day - 1` are one example.
        let c = collector();
        let config = FeatureConfig::default();
        let ds = build_dataset(&c, config.clone());
        assert!(ds.examples.len() > 100);
        for trained in &ds.examples {
            let today = trained.day - 1;
            let predicted = window_example(&c, &trained.location, today, &config);
            assert_eq!(predicted.location, trained.location);
            assert_eq!(predicted.day, today + 1);
            assert_eq!(predicted.steps, trained.steps, "{}", trained.location.key());
            assert_eq!(predicted.labels, trained.labels);
        }
    }

    /// Tomorrow's LSTM+CRF predictions on `collector()`'s trace, per
    /// source column, recorded before the LSTM trained in one reused
    /// workspace: a faster trainer must predict exactly these.
    const PINNED_LSTM_CRF: [(&str, &str, &str, &str); 8] = [
        ("db0", "table0", "json_col0", "$.f0 $.f1 $.f10 $.f11 $.f12 $.f13 $.f14 $.f15 $.f16 $.f17 $.f18 $.f19 $.f2 $.f3 $.f4 $.f5 $.f6 $.f7 $.f8 $.f9"),
        ("db0", "table5", "json_col0", "$.f0 $.f1 $.f10 $.f13 $.f16 $.f17 $.f18 $.f19 $.f3 $.f4 $.f5 $.f6 $.f8 $.f9"),
        ("db1", "table1", "json_col0", "$.f0 $.f1 $.f10 $.f11 $.f12 $.f13 $.f14 $.f15 $.f16 $.f17 $.f18 $.f19 $.f2 $.f3 $.f4 $.f5 $.f6 $.f7 $.f8 $.f9"),
        ("db1", "table6", "json_col0", "$.f10 $.f13 $.f14 $.f15 $.f17 $.f9"),
        ("db2", "table2", "json_col0", "$.f0 $.f1 $.f10 $.f11 $.f12 $.f13 $.f14 $.f15 $.f16 $.f17 $.f18 $.f19 $.f2 $.f3 $.f4 $.f5 $.f6 $.f7 $.f8 $.f9"),
        ("db2", "table7", "json_col0", "$.f0"),
        ("db3", "table3", "json_col0", "$.f1 $.f10 $.f11 $.f12 $.f13 $.f14 $.f15 $.f16 $.f18 $.f19 $.f2 $.f3 $.f4 $.f5 $.f7 $.f8 $.f9"),
        ("db4", "table4", "json_col0", "$.f11 $.f18 $.f19 $.f8"),
    ];

    #[test]
    fn lstm_crf_predictions_are_pinned() {
        let c = collector();
        let config = FeatureConfig::default();
        let model = TrainedPredictor::train(PredictorKind::LstmCrf, &c, &config);
        let predicted: Vec<String> = predict_mpjps(&c, &model, c.max_day() - 1, &config)
            .into_iter()
            .map(|m| m.location.key())
            .collect();
        let pinned: Vec<String> = PINNED_LSTM_CRF
            .iter()
            .flat_map(|&(db, table, column, paths)| {
                paths
                    .split(' ')
                    .map(move |path| JsonPathLocation::new(db, table, column, path).key())
            })
            .collect();
        assert_eq!(pinned.len(), 102);
        assert_eq!(predicted, pinned);
    }

    #[test]
    fn oracle_predicts_ground_truth() {
        let c = collector();
        let config = FeatureConfig::default();
        let oracle = TrainedPredictor::train(PredictorKind::Oracle, &c, &config);
        let today = c.max_day() - 1;
        let predicted = predict_mpjps(&c, &oracle, today, &config);
        for cand in &predicted {
            assert!(c.is_mpjp(&cand.location, today + 1));
            assert_eq!(cand.target_day, today + 1);
        }
        // And completeness: every true MPJP tomorrow is predicted.
        let truth = c.locations().filter(|l| c.is_mpjp(l, today + 1)).count();
        assert_eq!(predicted.len(), truth);
    }

    #[test]
    fn repeat_yesterday_heuristic() {
        let c = collector();
        let config = FeatureConfig::default();
        let h = TrainedPredictor::train(PredictorKind::RepeatYesterday, &c, &config);
        let today = c.max_day() - 1;
        for cand in predict_mpjps(&c, &h, today, &config) {
            assert!(c.is_mpjp(&cand.location, today));
        }
    }

    #[test]
    fn lstm_crf_predictor_beats_chance() {
        let c = collector();
        let config = FeatureConfig::default();
        let model = TrainedPredictor::train(PredictorKind::LstmCrf, &c, &config);
        let today = c.max_day() - 1;
        let predicted: std::collections::BTreeSet<String> =
            predict_mpjps(&c, &model, today, &config)
                .into_iter()
                .map(|m| m.location.key())
                .collect();
        // Measure F1 of the prediction against ground truth.
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for loc in c.locations() {
            let truth = c.is_mpjp(loc, today + 1);
            let pred = predicted.contains(&loc.key());
            match (pred, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        assert!(f1 > 0.6, "LSTM+CRF next-day F1 is only {f1}");
    }
}
