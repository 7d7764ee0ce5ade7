//! Feature pipeline (§IV-A).
//!
//! For each JSONPath and each prediction day we build a *sequence example*:
//! one feature vector per day in the history window, plus the per-day
//! labels "was this path an MPJP the following day". Features per step:
//!
//! * hashed one-hot-ish location features for database / table / column
//!   (paths in the same data source appear together in queries — the
//!   spatial signal),
//! * the *Count sequence* entry for that day (raw and log-scaled, plus the
//!   `count >= 2` indicator),
//! * the *Datediff sequence* entry: how old the observation is.

use maxson_trace::{JsonPathCollector, JsonPathLocation};

/// Feature configuration.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// History window length in days (1 week / 2 weeks / 1 month in
    /// Table IV).
    pub window: usize,
    /// Number of hash buckets per location component.
    pub location_buckets: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            window: 7,
            location_buckets: 4,
        }
    }
}

impl FeatureConfig {
    /// Dimensionality of one per-day feature vector.
    pub fn feature_dim(&self) -> usize {
        3 * self.location_buckets + 4
    }
}

/// One example: a window of per-day feature vectors with per-day labels.
#[derive(Debug, Clone)]
pub struct SequenceExample {
    /// The path this example describes.
    pub location: JsonPathLocation,
    /// The prediction day: the steps are the `window` days before it.
    pub day: u32,
    /// Per-step features, `window` long.
    pub steps: Vec<Vec<f64>>,
    /// Per-step labels: `labels[t]` = was the path an MPJP on the day after
    /// step `t` (the last one refers to `day` itself).
    pub labels: Vec<bool>,
}

impl SequenceExample {
    /// The label the evaluation cares about: the final step's.
    pub fn final_label(&self) -> bool {
        *self.labels.last().expect("non-empty window")
    }

    /// Flatten steps into one vector (gives a model the full day-by-day
    /// sequence laid out positionally).
    pub fn flattened(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.steps.len() * self.steps[0].len());
        for s in &self.steps {
            v.extend_from_slice(s);
        }
        v
    }

    /// Non-sequential features for the static baselines (LR, SVM, MLP).
    ///
    /// Table III of the paper measures "sequential features' importance":
    /// the baselines are classifiers that *cannot take into account date
    /// sequences*, so they see the location features plus order-free
    /// aggregates of the count history (latest count, mean, max, active-day
    /// fraction, MPJP-day fraction) — everything except *when* each count
    /// happened.
    pub fn static_features(&self) -> Vec<f64> {
        let last = self.steps.last().expect("non-empty window");
        if last.len() < 5 {
            // Degenerate feature layout (hand-built test fixtures): fall
            // back to the flattened sequence.
            return self.flattened();
        }
        // Location block: everything before the 4 per-day count features.
        let loc_dim = last.len() - 4;
        let mut v: Vec<f64> = last[..loc_dim].to_vec();
        // Latest day's count features.
        v.extend_from_slice(&last[loc_dim..loc_dim + 3]);
        // Order-free aggregates over the window.
        let counts: Vec<f64> = self.steps.iter().map(|s| s[loc_dim]).collect();
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let max = counts.iter().copied().fold(0.0f64, f64::max);
        let active = counts.iter().filter(|&&c| c > 0.0).count() as f64 / n;
        let mpjp_days = self.steps.iter().filter(|s| s[loc_dim + 2] > 0.5).count() as f64 / n;
        v.extend_from_slice(&[mean, max, active, mpjp_days]);
        v
    }
}

/// A labeled dataset with its 70/20/10 split (§V-A).
#[derive(Debug)]
pub struct Dataset {
    /// All examples, in deterministic order.
    pub examples: Vec<SequenceExample>,
    /// Feature configuration used.
    pub config: FeatureConfig,
}

/// Borrowed train/validation/test views.
#[derive(Debug)]
pub struct DataSplit<'a> {
    /// 70% training examples.
    pub train: Vec<&'a SequenceExample>,
    /// 20% validation examples.
    pub validation: Vec<&'a SequenceExample>,
    /// 10% test examples.
    pub test: Vec<&'a SequenceExample>,
}

/// FNV-1a based string bucket hash.
fn bucket(s: &str, buckets: usize, salt: u64) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % buckets as u64) as usize
}

/// Build per-day features for one path.
fn step_features(
    cfg: &FeatureConfig,
    loc: &JsonPathLocation,
    count: u32,
    datediff: u32,
) -> Vec<f64> {
    let mut v = vec![0.0; cfg.feature_dim()];
    v[bucket(&loc.database, cfg.location_buckets, 1)] = 1.0;
    v[cfg.location_buckets + bucket(&loc.table, cfg.location_buckets, 2)] = 1.0;
    v[2 * cfg.location_buckets + bucket(&loc.column, cfg.location_buckets, 3)] = 1.0;
    let base = 3 * cfg.location_buckets;
    v[base] = f64::from(count).min(50.0) / 50.0;
    v[base + 1] = f64::from(count).ln_1p() / 5.0;
    v[base + 2] = if count >= 2 { 1.0 } else { 0.0 };
    v[base + 3] = f64::from(datediff) / cfg.window as f64;
    v
}

/// The example for `loc` whose window ends on `last_day`: one step per
/// day of the `config.window` days up to and including it (fewer when the
/// history is shorter), predicting day `last_day + 1`. Training builds its
/// examples here, and the nightly prediction builds tomorrow's from today.
pub fn window_example(
    collector: &JsonPathCollector,
    loc: &JsonPathLocation,
    last_day: u32,
    config: &FeatureConfig,
) -> SequenceExample {
    let day = last_day + 1;
    let start = day.saturating_sub(config.window as u32);
    SequenceExample {
        location: loc.clone(),
        day,
        steps: (start..day)
            .map(|d| step_features(config, loc, collector.count_on(loc, d), day - d))
            .collect(),
        labels: (start..day)
            .map(|d| collector.is_mpjp(loc, d + 1))
            .collect(),
    }
}

/// Build the dataset: one example per (path, prediction day) over
/// `[window, max_day - 1]`, so every step has both history and a next-day
/// label.
pub fn build_dataset(collector: &JsonPathCollector, config: FeatureConfig) -> Dataset {
    let mut examples = Vec::new();
    let max_day = collector.max_day();
    let w = config.window as u32;
    if max_day < w + 1 {
        return Dataset { examples, config };
    }
    for loc in collector.locations() {
        // Prediction days stride by the window so examples don't overlap
        // too heavily (keeps the dataset size manageable while covering the
        // trace).
        let mut day = w;
        while day < max_day {
            examples.push(window_example(collector, loc, day - 1, &config));
            day += w;
        }
    }
    Dataset { examples, config }
}

impl Dataset {
    /// Deterministic 70/20/10 split by example hash.
    pub fn split(&self) -> DataSplit<'_> {
        let mut train = Vec::new();
        let mut validation = Vec::new();
        let mut test = Vec::new();
        for (i, ex) in self.examples.iter().enumerate() {
            let h = bucket(&format!("{}:{}:{i}", ex.location.key(), ex.day), 10, 7);
            match h {
                0..=6 => train.push(ex),
                7 | 8 => validation.push(ex),
                _ => test.push(ex),
            }
        }
        DataSplit {
            train,
            validation,
            test,
        }
    }

    /// Fraction of positive final labels (class balance diagnostics).
    pub fn positive_fraction(&self) -> f64 {
        if self.examples.is_empty() {
            return 0.0;
        }
        let pos = self.examples.iter().filter(|e| e.final_label()).count();
        pos as f64 / self.examples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_trace::{QueryRecord, SynthConfig, SyntheticTrace, TraceSynthesizer};

    fn collector_from(trace: &SyntheticTrace) -> JsonPathCollector {
        let mut c = JsonPathCollector::new();
        c.observe_all(trace.queries.iter());
        c
    }

    fn tiny_trace() -> SyntheticTrace {
        TraceSynthesizer::new(SynthConfig {
            days: 21,
            tables: 5,
            users: 10,
            templates_per_user: 2,
            adhoc_per_day: 3,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn examples_have_window_shape() {
        let trace = tiny_trace();
        let c = collector_from(&trace);
        let cfg = FeatureConfig::default();
        let dim = cfg.feature_dim();
        let ds = build_dataset(&c, cfg);
        assert!(!ds.examples.is_empty());
        for ex in &ds.examples {
            assert_eq!(ex.steps.len(), 7);
            assert_eq!(ex.labels.len(), 7);
            assert!(ex.steps.iter().all(|s| s.len() == dim));
            assert_eq!(ex.flattened().len(), 7 * dim);
        }
    }

    #[test]
    fn labels_match_collector_ground_truth() {
        let trace = tiny_trace();
        let c = collector_from(&trace);
        let ds = build_dataset(&c, FeatureConfig::default());
        let ex = &ds.examples[0];
        let w = 7u32;
        let start = ex.day - w;
        for (t, &label) in ex.labels.iter().enumerate() {
            assert_eq!(label, c.is_mpjp(&ex.location, start + t as u32 + 1));
        }
    }

    #[test]
    fn split_is_70_20_10ish_and_disjoint() {
        let trace = tiny_trace();
        let c = collector_from(&trace);
        let ds = build_dataset(&c, FeatureConfig::default());
        let split = ds.split();
        let total = ds.examples.len();
        assert_eq!(
            split.train.len() + split.validation.len() + split.test.len(),
            total
        );
        let tf = split.train.len() as f64 / total as f64;
        assert!(tf > 0.55 && tf < 0.85, "train fraction {tf}");
    }

    #[test]
    fn dataset_has_both_classes() {
        let trace = tiny_trace();
        let c = collector_from(&trace);
        let ds = build_dataset(&c, FeatureConfig::default());
        let pos = ds.positive_fraction();
        assert!(pos > 0.02 && pos < 0.98, "positive fraction {pos}");
    }

    #[test]
    fn short_trace_yields_empty_dataset() {
        let mut c = JsonPathCollector::new();
        c.observe(&QueryRecord {
            query_id: 0,
            user_id: 0,
            day: 2,
            hour: 0,
            recurrence: maxson_trace::model::RecurrenceClass::Daily,
            paths: vec![JsonPathLocation::new("d", "t", "c", "$.a")],
        });
        let ds = build_dataset(&c, FeatureConfig::default());
        assert!(ds.examples.is_empty());
        assert_eq!(ds.positive_fraction(), 0.0);
    }

    #[test]
    fn window_size_is_respected() {
        let trace = tiny_trace();
        let c = collector_from(&trace);
        let ds = build_dataset(
            &c,
            FeatureConfig {
                window: 14,
                ..Default::default()
            },
        );
        assert!(ds.examples.iter().all(|e| e.steps.len() == 14));
    }
}
