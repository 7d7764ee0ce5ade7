//! Workload-trace substrate.
//!
//! The paper's study rests on a proprietary 5-month Alibaba trace
//! (~3M queries over ~24k tables). This crate provides a synthesizer that
//! reproduces every statistic the paper reports about that trace, so the
//! predictor, scoring function, and cache policy are exercised by input
//! with the same marginals:
//!
//! * 82% of queries recur; of those ~71% daily (7% with multi-day
//!   windows) and ~17% weekly (§II-D1),
//! * JSONPath popularity follows a power law — 89% of parse traffic hits
//!   27% of the paths, averaging ~14 queries per path (§II-D2, Fig. 4),
//! * table updates cluster around mid-day and are rare at midnight
//!   (§II-B, Fig. 2),
//! * queries only touch data loaded before the current day (§II-D).
//!
//! The [`collector::JsonPathCollector`] mirrors the paper's *JSONPath
//! Collector*: it folds query records into a per-(path, date) access-count
//! statistics table — the training input of the predictor.

#![deny(unreachable_pub)]
pub mod analysis;
pub mod collector;
pub mod model;
pub mod synth;

pub use collector::JsonPathCollector;
pub use model::{JsonPathLocation, QueryRecord, TableUpdate};
pub use synth::{SynthConfig, SyntheticTrace, TraceSynthesizer};
