//! Shared harness utilities for the per-figure/per-table benchmark
//! binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md`'s experiment index). They share:
//!
//! * [`workload`] — building the ten Table II tables in a reusable
//!   warehouse directory and timing query sets under different systems
//!   (Spark+Jackson, Spark+Mison, Maxson, Maxson+Mison, online LRU),
//! * [`baselines`] — the online-LRU cache and the row-number join stitch
//!   the paper compares Maxson against (Fig. 14, the combiner ablation),
//! * [`report`] — aligned text tables and a machine-readable JSON dump of
//!   every experiment's series, written under `bench-results/`.

pub mod baselines;
pub mod report;
pub mod workload;

pub use report::{Report, Series};
pub use workload::{
    bench_root, fast, fresh_session, load_tables, run_query, run_query_avg, SystemKind,
};
