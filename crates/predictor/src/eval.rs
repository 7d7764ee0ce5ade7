//! Precision / recall / F1 evaluation (the columns of Tables III & IV).

use crate::features::SequenceExample;
use crate::MpjpModel;

/// Binary classification metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True negatives.
    pub tn: u64,
}

impl Metrics {
    /// Accumulate one prediction.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision = tp / (tp + fp); 1.0 when nothing was predicted positive
    /// (matching the paper's reporting of precision 1.0 for conservative
    /// models).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = tp / (tp + fn); 0.0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Evaluate a model over the final-step labels of `examples`.
pub fn evaluate<M: MpjpModel + ?Sized>(model: &M, examples: &[&SequenceExample]) -> Metrics {
    let mut m = Metrics::default();
    for ex in examples {
        m.record(model.predict(ex), ex.final_label());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_formulas() {
        let m = Metrics {
            tp: 8,
            fp: 2,
            fn_: 4,
            tn: 86,
        };
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 8.0 / 12.0).abs() < 1e-12);
        let expected_f1 = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((m.f1() - expected_f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Metrics::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 0.0);
        assert_eq!(empty.f1(), 0.0);
    }

    #[test]
    fn record_buckets() {
        let mut m = Metrics::default();
        m.record(true, true);
        m.record(true, false);
        m.record(false, true);
        m.record(false, false);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (1, 1, 1, 1));
    }
}
