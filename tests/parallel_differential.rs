//! Split-parallel execution: the golden statements, the NoBench statements
//! and random statements over random multi-split tables return what the
//! oracle returns at every thread count, and the pool behaves at the
//! engine boundary — a poisoned split surfaces its index as an engine
//! error (not a hang, and not an unwind at one thread), and empty or
//! single-split tables never engage it.
//!
//! Thread counts are pinned with `Session::set_threads`, not the
//! `MAXSON_THREADS` env var, so parallel test binaries cannot race on
//! process-global state (ci.sh covers the env-var path).

mod support;

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{Columns, ScanProvider};
use maxson_engine::session::{ScanContext, ScanRewrite, Session, TableScanRewriter};
use maxson_storage::{Cell, ColumnType, Field, Schema};
use std::path::PathBuf;
use support::cells::{assert_agrees, property_agrees, ConfigCell};
use support::{bench_data_root, temp_root, GOLDEN_QUERIES, NOBENCH_QUERIES};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn thread_cells(counts: &[usize], rewritten: bool) -> Vec<ConfigCell> {
    counts
        .iter()
        .map(|&threads| ConfigCell {
            threads,
            rewritten,
            ..ConfigCell::default()
        })
        .collect()
}

#[test]
fn golden_queries_identical_across_thread_counts_plain() {
    assert_agrees(
        &bench_data_root(),
        &GOLDEN_QUERIES,
        &thread_cells(&THREAD_COUNTS, false),
    );
}

#[test]
fn golden_queries_identical_across_thread_counts_rewritten() {
    assert_agrees(
        &bench_data_root(),
        &GOLDEN_QUERIES,
        &thread_cells(&THREAD_COUNTS, true),
    );
}

#[test]
fn multi_split_golden_query_actually_parallelizes() {
    // The mydb tables have 2 files, so a >1-thread run must engage the pool.
    let mut session = Session::open(bench_data_root()).unwrap();
    session.set_threads(Some(4));
    let result = session.execute(GOLDEN_QUERIES[0]).unwrap();
    assert!(
        result.metrics.threads_used > 0,
        "expected a pool run: {:?}",
        result.metrics
    );
    assert_eq!(result.metrics.par_tasks, 2, "one task per split");
    assert!(result.metrics.summary().contains("threads="));
}

#[test]
fn nobench_workload_identical_across_thread_counts() {
    let root = support::nobench_table("nobench", 240, 4);
    assert_agrees(&root, &NOBENCH_QUERIES, &thread_cells(&[1, 4], false));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn property_random_tables_and_plans_parallel_equals_serial() {
    property_agrees(
        "parallel_equals_oracle",
        10,
        &thread_cells(&[2, 4, 8], false),
    );
}

// ---------------------------------------------------------------------
// Pool stress at the engine boundary
// ---------------------------------------------------------------------

/// Provider with a split that panics mid-scan (poisoned data).
#[derive(Debug)]
struct PoisonedProvider {
    schema: Schema,
    splits: usize,
    poisoned: usize,
}

impl ScanProvider for PoisonedProvider {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn split_count(&self) -> usize {
        self.splits
    }
    fn scan_split(
        &self,
        split: usize,
        _metrics: &mut ExecMetrics,
    ) -> maxson_engine::Result<Columns> {
        if split == self.poisoned {
            panic!("poisoned split payload");
        }
        Columns::from_rows(vec![vec![Cell::Int(split as i64)]], 1)
    }
    fn label(&self) -> String {
        "PoisonedProvider".into()
    }
}

/// Rewriter that swaps every scan for a [`PoisonedProvider`].
struct PoisonRewriter {
    splits: usize,
    poisoned: usize,
}

impl TableScanRewriter for PoisonRewriter {
    fn name(&self) -> &str {
        "Poison"
    }
    fn rewrite_scan(&self, _ctx: &ScanContext<'_>) -> maxson_engine::Result<Option<ScanRewrite>> {
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        Ok(Some(ScanRewrite {
            provider: Box::new(PoisonedProvider {
                schema,
                splits: self.splits,
                poisoned: self.poisoned,
            }),
            resolved_paths: Vec::new(),
        }))
    }
}

/// `db.t(id)` with no part file, or with one holding a single row.
fn id_table(name: &str, with_row: bool) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    if with_row {
        support::append(table, &[vec![Cell::Int(1)]], 1024);
    }
    drop(catalog);
    root
}

#[test]
fn poisoned_split_surfaces_split_index_as_engine_error() {
    let root = id_table("poison", true);
    let mut session = Session::open(&root).unwrap();
    session.set_scan_rewriter(Some(Box::new(PoisonRewriter {
        splits: 6,
        poisoned: 3,
    })));
    // Containment holds at every thread count: one thread runs the same
    // split tasks inline on the caller.
    for threads in THREAD_COUNTS {
        session.set_threads(Some(threads));
        let err = session.execute("select id from db.t").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("split 3") && msg.contains("poisoned split payload"),
            "{threads} threads: error must name the split: {msg}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn single_split_table_does_not_engage_the_pool() {
    let root = id_table("single", true);
    let mut session = Session::open(&root).unwrap();
    session.set_threads(Some(8));
    let result = session.execute("select id from db.t").unwrap();
    assert_eq!(result.rows, vec![vec![Cell::Int(1)]]);
    assert_eq!(
        result.metrics.threads_used, 0,
        "single-split scans stay serial: {:?}",
        result.metrics
    );
    assert_eq!(result.metrics.par_tasks, 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn empty_table_does_not_engage_the_pool() {
    let root = id_table("empty", false);
    let mut session = Session::open(&root).unwrap();
    session.set_threads(Some(8));
    let result = session.execute("select id from db.t").unwrap();
    assert!(result.rows.is_empty());
    assert_eq!(result.metrics.threads_used, 0);
    assert_eq!(result.metrics.par_tasks, 0);
    std::fs::remove_dir_all(&root).ok();
}
