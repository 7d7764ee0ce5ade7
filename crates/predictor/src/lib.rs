//! From-scratch ML substrate: the MPJP predictor and its baselines.
//!
//! The paper predicts, per JSONPath per day, whether the path will be
//! parsed at least twice tomorrow (**MPJP**). It compares four baseline
//! classifiers (LR, SVM, MLPClassifier, Uni-LSTM) against the proposed
//! hybrid **LSTM+CRF** (Tables III & IV). We implement all of them from
//! scratch on plain `Vec<f64>` math:
//!
//! * [`linear`] — logistic regression (log loss) and linear SVM (hinge
//!   loss), both via mini-batch SGD,
//! * [`mlp`] — a small feed-forward network with backprop,
//! * [`lstm`] — a single-layer LSTM sequence labeler trained with BPTT and
//!   per-step cross-entropy,
//! * [`crf`] — a binary linear-chain CRF layer: transition potentials
//!   estimated from training label sequences, Viterbi decoding over the
//!   LSTM's emission scores,
//! * [`features`] — the feature pipeline of §IV-A: location (database,
//!   table, column) hash features, *Count sequence*, and *Datediff
//!   sequence*, with 70/20/10 train/validation/test splits,
//! * [`eval`] — precision / recall / F1.

#![deny(unreachable_pub)]
pub mod crf;
pub mod eval;
pub mod features;
pub mod linalg;
pub mod linear;
pub mod lstm;
pub mod mlp;

pub use crf::{CrfLayer, LstmCrf};
pub use eval::{evaluate, Metrics};
pub use features::{
    build_dataset, window_example, DataSplit, Dataset, FeatureConfig, SequenceExample,
};
pub use linear::{LinearModel, Loss};
pub use lstm::LstmLabeler;
pub use mlp::MlpClassifier;

/// A trained model that labels the final day of a feature sequence.
pub trait MpjpModel {
    /// Predict the label for the final step of each example.
    fn predict(&self, example: &SequenceExample) -> bool;
    /// Model display name (Table III's first column).
    fn name(&self) -> &'static str;
}
