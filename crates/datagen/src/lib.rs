//! Data generators for the Maxson reproduction.
//!
//! Two families of synthetic data stand in for data sets we cannot ship:
//!
//! * [`nobench`] — documents in the style of the NoBench benchmark, used by
//!   the paper's Fig. 3 parse-cost study,
//! * [`tables`] — the ten workload tables of Table II, regenerated from the
//!   published shape parameters (JSONPath count, property count, nesting
//!   level, average JSON size) together with the ten queries Q1..Q10.
//!
//! All generators are deterministic given a seed, so benchmarks and tests
//! are reproducible.

#![deny(unreachable_pub)]
pub mod nobench;
pub mod tables;

pub use nobench::NobenchGenerator;
pub use tables::{load_workload_tables, table_specs, QuerySpec, TableSpec, WorkloadConfig};
