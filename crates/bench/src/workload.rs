//! Shared workload setup for the benchmark binaries.
//!
//! All binaries share one generated warehouse under `bench-data/` (or
//! `$MAXSON_BENCH_DATA`), so the ten Table II tables are built once and
//! reused. Query timing helpers run a query under one of the compared
//! systems and report the end-to-end wall time plus phase metrics.

use std::path::PathBuf;
use std::time::Duration;

use maxson::mpjp::PredictorKind;
use maxson::{MaxsonPipeline, PipelineConfig, ScoringStrategy};
use maxson_datagen::tables::{load_workload_tables, QuerySpec, WorkloadConfig};
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::{Config, ExecMetrics};
use maxson_storage::Catalog;
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};

use crate::baselines::OnlineLruRewriter;

/// The systems compared across the evaluation figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Unmodified engine with the DOM parser (SparkSQL + Jackson).
    SparkJackson,
    /// Unmodified engine with the structural-index parser (Spark + Mison).
    SparkMison,
    /// Unmodified engine with the on-demand tape parser.
    SparkTape,
    /// Maxson cache + DOM parser for misses.
    Maxson,
    /// Maxson cache + Mison parser for misses.
    MaxsonMison,
    /// Maxson cache + on-demand tape parser for misses.
    MaxsonTape,
}

impl SystemKind {
    /// Display name used in reports (matching the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::SparkJackson => "Spark+Jackson",
            SystemKind::SparkMison => "Spark+Mison",
            SystemKind::SparkTape => "Spark+Tape",
            SystemKind::Maxson => "Maxson",
            SystemKind::MaxsonMison => "Maxson+Mison",
            SystemKind::MaxsonTape => "Maxson+Tape",
        }
    }

    /// Whether the Maxson cache is active.
    pub fn uses_cache(self) -> bool {
        matches!(
            self,
            SystemKind::Maxson | SystemKind::MaxsonMison | SystemKind::MaxsonTape
        )
    }

    /// Which JSON parser backs `get_json_object`.
    pub fn parser(self) -> JsonParserKind {
        match self {
            SystemKind::SparkJackson | SystemKind::Maxson => JsonParserKind::Jackson,
            SystemKind::SparkMison | SystemKind::MaxsonMison => JsonParserKind::Mison,
            SystemKind::SparkTape | SystemKind::MaxsonTape => JsonParserKind::Tape,
        }
    }
}

/// Root directory of the shared benchmark warehouse.
pub fn bench_root() -> PathBuf {
    std::env::var_os("MAXSON_BENCH_DATA")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench-data"))
}

/// Scale knob: rows per workload table (`MAXSON_BENCH_ROWS`, default 2000).
pub fn bench_rows() -> usize {
    std::env::var("MAXSON_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

/// Smoke mode (`MAXSON_BENCH_FAST=1`): fewer runs and smaller replays.
pub fn fast() -> bool {
    std::env::var("MAXSON_BENCH_FAST").as_deref() == Ok("1")
}

/// Build (or reuse) the ten Table II tables; returns the query specs.
pub fn load_tables() -> Vec<QuerySpec> {
    let mut catalog = Catalog::open(bench_root()).expect("open benchmark warehouse");
    let cfg = WorkloadConfig {
        rows_per_table: bench_rows(),
        ..Default::default()
    };
    load_workload_tables(&mut catalog, &cfg).expect("generate workload tables")
}

/// A fresh session over the shared warehouse.
pub fn fresh_session() -> Session {
    Session::open(bench_root()).expect("open session")
}

/// Execute `sql` once and return `(wall time, metrics)`.
pub fn run_query(session: &Session, sql: &str) -> (Duration, ExecMetrics) {
    let result = session.execute(sql).expect("query executes");
    (result.metrics.total, result.metrics.clone())
}

/// Execute `sql` `runs` times and return the mean wall time and the last
/// run's metrics (the paper averages 5 runs per query).
pub fn run_query_avg(session: &Session, sql: &str, runs: usize) -> (Duration, ExecMetrics) {
    let mut total = Duration::ZERO;
    let mut last = ExecMetrics::default();
    for _ in 0..runs.max(1) {
        let (t, m) = run_query(session, sql);
        total += t;
        last = m;
    }
    (total / runs.max(1) as u32, last)
}

/// Build the synthetic query history the predictor trains on: every query
/// of the ten-query workload recurs daily (plus a second daily submission
/// per query to make its paths MPJPs, mirroring the paper's recurring
/// users), over `days` days.
pub fn workload_history(queries: &[QuerySpec], days: u32) -> Vec<QueryRecord> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for day in 0..days {
        for (qi, q) in queries.iter().enumerate() {
            let paths: Vec<JsonPathLocation> = q
                .paths
                .iter()
                .map(|p| {
                    JsonPathLocation::new(q.database.clone(), q.table.clone(), "payload", p.clone())
                })
                .collect();
            // Two submissions per day (different "users" with spatially
            // correlated queries), so every path crosses the MPJP bar.
            for user in 0..2u32 {
                out.push(QueryRecord {
                    query_id: id,
                    user_id: qi as u32 * 2 + user,
                    day,
                    hour: 8 + user as u8,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths.clone(),
                });
                id += 1;
            }
        }
    }
    out
}

/// Set up a session for `system` with a cache populated under
/// `budget_bytes` (ignored for the non-Maxson systems). Returns the
/// session plus the set of cached path locations.
pub fn session_for(
    system: SystemKind,
    queries: &[QuerySpec],
    budget_bytes: u64,
    use_scoring: bool,
) -> (Session, Vec<JsonPathLocation>) {
    let config = Config {
        parser: system.parser(),
        ..Config::from_env()
    };
    let mut session = Session::open_with(bench_root(), config).expect("open session");
    if !system.uses_cache() {
        return (session, Vec::new());
    }
    let history = workload_history(queries, 14);
    let mut pipeline = MaxsonPipeline::new(
        bench_root(),
        PipelineConfig {
            budget_bytes,
            predictor: PredictorKind::RepeatYesterday,
            scoring: if use_scoring {
                ScoringStrategy::Full
            } else {
                ScoringStrategy::Random
            },
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let today = 13;
    let report = pipeline
        .run_midnight_cycle(&mut session, &history, today, 100)
        .expect("midnight cycle");
    (session, report.cache.cached)
}

/// How many of `query`'s JSONPaths are in the cached set.
pub fn cached_path_count(query: &QuerySpec, cached: &[JsonPathLocation]) -> usize {
    query
        .paths
        .iter()
        .filter(|p| {
            cached.iter().any(|c| {
                c.database == query.database
                    && c.table == query.table
                    && c.column == "payload"
                    && c.path == **p
            })
        })
        .count()
}

/// An online-LRU session (Fig. 14's baseline).
pub fn lru_session(budget_bytes: u64) -> Session {
    let mut session = fresh_session();
    session.set_scan_rewriter(Some(Box::new(OnlineLruRewriter::new(budget_bytes))));
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_kind_properties() {
        assert_eq!(SystemKind::SparkJackson.name(), "Spark+Jackson");
        assert!(!SystemKind::SparkJackson.uses_cache());
        assert!(SystemKind::MaxsonMison.uses_cache());
        assert_eq!(SystemKind::MaxsonMison.parser(), JsonParserKind::Mison);
        assert_eq!(SystemKind::Maxson.parser(), JsonParserKind::Jackson);
    }

    #[test]
    fn history_marks_all_paths_mpjp() {
        let queries = maxson_datagen::tables::build_queries("mydb");
        let history = workload_history(&queries, 3);
        let mut collector = maxson_trace::JsonPathCollector::new();
        collector.observe_all(history.iter());
        for loc in collector.locations() {
            assert!(collector.is_mpjp(loc, 1), "{loc} not MPJP");
        }
    }
}
