//! Maxson — a JSONPath-result cache that eliminates duplicate JSON parsing.
//!
//! This crate is the paper's primary contribution, rebuilt on the substrates
//! of this workspace (`maxson-engine` for SparkSQL, `maxson-storage` for
//! ORC/HDFS, `maxson-trace` for the workload, `maxson-predictor` for the
//! LSTM+CRF predictor):
//!
//! * [`mpjp`] — the nightly prediction pipeline: fold the query history
//!   through the JSONPath Collector, train/apply a predictor, and emit the
//!   *Multiple-Parsed JSONPaths* expected tomorrow.
//! * [`score`] — the scoring function of §IV-B:
//!   `Score_j = A_j · R_j · O_j` with `A_j = P_j / B_j` measured by
//!   sampling, `R_j` the MPJP fraction of the queries touching `j`, and
//!   `O_j` the number of such queries.
//! * [`cacher`] — the JSONPath Cacher of §IV-C: pre-parses the chosen
//!   MPJPs into *cache tables* stored in the same columnar format,
//!   file-aligned with the raw tables (cache file *k* is parsed from raw
//!   file *k* with identical row grouping), plus the persistent registry
//!   mapping `(db, table, column, path)` to cache fields.
//! * [`rewriter`] — Algorithm 1: a [`maxson_engine::session::TableScanRewriter`]
//!   that pattern-matches `get_json_object` calls, checks cache validity
//!   against table modification times, and swaps hits for placeholders.
//!   Algorithms 2 and 3 — the paired raw and cache readers that stitch rows
//!   positionally and share the SARG row-group skip array — belong to the
//!   scan: [`maxson_engine::scan::NorcScanProvider`].
//! * [`pipeline`] — `MaxsonPipeline`, the end-to-end "every midnight" cycle
//!   used by the examples and benchmarks.

pub mod cacher;
pub mod error;
pub mod mpjp;
pub mod pipeline;
pub mod rewriter;
pub mod score;
pub mod stats_store;

pub use cacher::{CacheRegistry, CachedEntry, JsonPathCacher};
pub use error::{MaxsonError, Result};
pub use mpjp::{predict_mpjps, MpjpCandidate, PredictorKind};
pub use pipeline::{MaxsonPipeline, PipelineConfig, ScoringStrategy};
pub use rewriter::MaxsonScanRewriter;
pub use score::{score_candidates, ScoredMpjp};
