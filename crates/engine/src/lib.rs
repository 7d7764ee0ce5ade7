//! A SparkSQL-like analytical query engine substrate.
//!
//! The paper implements Maxson *inside* SparkSQL: the plan rewriter
//! (Algorithm 1) runs while SQL is compiled to a physical plan, and the
//! value combiner (Algorithm 2) runs inside the table-scan phase. This crate
//! rebuilds exactly the engine surface those mechanisms need:
//!
//! * [`sql`] — tokenizer, AST, and a recursive-descent parser for the SQL
//!   subset the paper's workload uses (SELECT/WHERE/GROUP BY/ORDER BY/
//!   LIMIT/JOIN plus `get_json_object`),
//! * [`expr`] — a physical expression tree with SQL NULL semantics; the
//!   `get_json_object` expression is where JSON parse time is burned and
//!   metered,
//! * [`extract`] — intra-query shared-parse extraction: each JSON document
//!   is parsed once per row and all the query's paths are answered from
//!   that single parse,
//! * [`plan`] — the logical plan with a [`scan::ScanProvider`]
//!   extension point; the Norc scan, paired with a Maxson cache table, is
//!   the value combiner,
//! * [`planner`] — statement → logical plan: name resolution, the
//!   scan-rewriter contract Algorithm 1 plugs into, and the one scan
//!   builder — projections, schema and SARGs (Algorithm 3) — every Norc
//!   scan goes through,
//! * [`exec`] — volcano-style operators (scan, filter, project, hash
//!   aggregate, hash join, sort, limit) over materialized row batches,
//! * [`metrics`] — per-phase instrumentation (Read / Parse / Compute), the
//!   measurement behind the paper's Fig. 3 and Fig. 12,
//! * [`explain`] — the `EXPLAIN ANALYZE` renderer: the recorded span tree
//!   annotated with per-operator wall time, rows, and cache counters,
//! * [`config`] — the one declaration of the `MAXSON_*` knobs, resolved
//!   once per session into a [`Config`],
//! * [`session`] — the user-facing entry point: a catalog plus
//!   `execute(sql)` with pluggable plan rewriters, a per-query span tracer
//!   (`maxson-obs`), and Chrome-trace export via `MAXSON_TRACE=<path>`
//!   (`Config::trace`).
//!
//! ```no_run
//! use maxson_engine::session::Session;
//!
//! let mut session = Session::open("/tmp/warehouse").unwrap();
//! let result = session
//!     .execute("select get_json_object(logs, '$.item') as item from mydb.t limit 3")
//!     .unwrap();
//! println!("{}", result.to_display_string());
//! ```

#![deny(unreachable_pub)]
pub mod config;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod extract;
pub mod fingerprint;
pub mod metrics;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod querylog;
pub mod reuse;
pub mod scan;
pub mod session;
pub mod sql;

pub use config::Config;
pub use error::{EngineError, Result};
pub use exec::ExecOptions;
pub use expr::Expr;
pub use fingerprint::{fnv1a64, stmt_fingerprint, table_key};
pub use metrics::ExecMetrics;
pub use plan::LogicalPlan;
pub use pool::SplitScheduler;
pub use querylog::{QueryLog, QueryLogEntry};
pub use reuse::{ReuseCache, ReuseStats};
pub use session::{
    CatalogRead, CatalogWrite, JsonParserKind, QueryResult, Session, SharedResult,
    TableScanRewriter,
};
// Observability handles, re-exported so downstream crates don't need a
// direct `maxson-obs` dependency to hold or inspect a tracer or charge a
// warehouse's metric registry.
pub use maxson_obs::{
    Counter, Gauge, HistogramHandle, LatencyHistogram, OpRollup, Registry, SpanGuard, SpanId,
    TraceSnapshot, Tracer,
};
