//! Golden tests for `EXPLAIN ANALYZE`.
//!
//! The rendered span tree must be deterministic across thread counts: the
//! same operator lines, the same per-split rows and counter deltas, the
//! same child order. Only the `wall=` timing tokens vary run to run, so
//! they (and the warehouse path inside provider labels) are normalized
//! before comparison.

mod support;

use maxson_engine::session::Session;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use std::path::PathBuf;
use support::{bench_data_root, normalized_tree as run_explain_analyze, temp_root};

/// Two-split table with plain columns only, so the golden text is
/// independent of the JSON parser.
fn two_split_table(name: &str) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("tag", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let t = catalog.create_table("db", "t", schema, 0).unwrap();
    for f in 0..2i64 {
        let rows: Vec<Vec<Cell>> = (0..10)
            .map(|i| {
                let n = f * 10 + i;
                vec![Cell::Int(n), Cell::from(format!("g{}", n % 3))]
            })
            .collect();
        support::append(t, &rows, 5);
    }
    drop(catalog);
    root
}

const GOLDEN: &str = "\
query wall=_ rows=3
  planning wall=_
  sort wall=_ rows_in=3
    project wall=_ rows_in=3 rows_out=3
      scan_pipeline wall=_ label=NorcScan(<root>/db/t, cols=[0, 1], sarg) stages=scan+filter+agg splits=2 rows_out=3
        split wall=_ split=0 rows_scanned=5 bytes_read=50 rg_read=1 rg_skipped=1 cells_materialized=10
        split wall=_ split=1 rows_scanned=10 bytes_read=100 rg_read=2 cells_materialized=20";

#[test]
fn golden_tree_exact_at_one_and_four_threads() {
    let root = two_split_table("golden");
    let mut session = Session::open(&root).unwrap();
    let sql = "select tag, count(*) from db.t where id >= 5 group by tag order by tag";
    for threads in [1usize, 4] {
        session.set_threads(Some(threads));
        let text = run_explain_analyze(&session, sql, &root);
        assert_eq!(
            text, GOLDEN,
            "explain analyze drifted at {threads} threads:\n{text}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The Maxson path's counter semantics, pinned on a raw + cache stitch over
/// the checked-in warehouse: the raw-side SARG's keep-array is shared with
/// the cache reader (7 of 8 row groups skipped on both), and so is its row
/// selection: `id` is decoded for the kept row group's 250 rows (2,000
/// bytes), the 150 that fail `id < 100` are charged to `batch_rows_skipped`
/// by the scan, and `f0` is decoded (356 bytes) and both cells are built
/// for the 100 selected rows only. `rows_scanned` and `cache_hits` keep
/// counting the kept row group's rows. The rewriter's decision is a child
/// of `planning`, whichever way the rewriter was installed.
const MAXSON_GOLDEN: &str = "\
query wall=_ rows=100
  planning wall=_
    maxson_rewrite wall=_ table=mydb.q1 hits=1 misses=0 decision=combined
  scan_pipeline wall=_ label=MaxsonCombinedScan(raw_cols=[0], cache_cols=[1]) stages=scan+filter+project splits=2 rows_out=100
    split wall=_ split=0 rows_out=100 rows_scanned=250 bytes_read=2356 cache_hits=250 rg_read=1 rg_skipped=3 cells_materialized=200 batch_rows_skipped=150
    split wall=_ split=1 rows_out=0 rg_skipped=4";

#[test]
fn rewritten_golden_tree_exact_at_one_and_four_threads() {
    let root = bench_data_root();
    let mut session = support::rewritten_session(&root);
    let sql = "select id, get_json_object(payload, '$.f0') as f0 from mydb.q1 where id < 100";
    for threads in [1usize, 4] {
        session.set_threads(Some(threads));
        let text = run_explain_analyze(&session, sql, &root);
        assert_eq!(
            text, MAXSON_GOLDEN,
            "rewritten explain analyze drifted at {threads} threads:\n{text}"
        );
    }
}

/// The stitch statement S2's shape: a cached sort key and an uncached path
/// under `ORDER BY … LIMIT`. The pipeline and the sort run without the
/// uncached path, which the limit evaluates for the five rows it keeps, so
/// the parse is charged on the `limit` line, above the sort. Each split
/// decodes the sort key's cache column for its 1,000 rows, keeps its own
/// first five rows and decodes the two deferred raw columns (`id` and the
/// `payload` the late path parses) at those five rows alone:
/// `cells_materialized` 1,000 + 2 × 5 per split. `rows_in` on the `limit`
/// line counts every row the splits offered, `deferred_rows` the rows the
/// deferred columns were decoded at.
const LATE_GOLDEN: &str = "\
query wall=_ rows=5
  planning wall=_
    maxson_rewrite wall=_ table=mydb.q8 hits=1 misses=1 decision=combined
  limit wall=_ rows_in=2000 deferred_cols=2 deferred_rows=10 late_exprs=1 late_rows=5 rows_out=5 parse_calls=5 docs_parsed=5
    sort wall=_ rows_in=10
      scan_pipeline wall=_ label=MaxsonCombinedScan(raw_cols=[0, 2], cache_cols=[0]) stages=scan+project splits=2 rows_out=10
        split wall=_ split=0 rows_out=5 rows_scanned=1000 bytes_read=6408 cache_hits=1000 rg_read=4 cells_materialized=1010
        split wall=_ split=1 rows_out=5 rows_scanned=1000 bytes_read=6725 cache_hits=1000 rg_read=4 cells_materialized=1010";

#[test]
fn late_projection_charges_its_parse_above_the_sort() {
    let root = bench_data_root();
    let mut session = support::rewritten_session(&root);
    let sql = "select id, get_json_object(payload, '$.f1') as f1 from mydb.q8 \
               order by get_json_object(payload, '$.f0') desc limit 5";
    for threads in [1usize, 4] {
        session.set_threads(Some(threads));
        let text = run_explain_analyze(&session, sql, &root);
        assert_eq!(
            text, LATE_GOLDEN,
            "late-projection explain analyze drifted at {threads} threads:\n{text}"
        );
    }
}

/// Maxson-rewritten JSON queries over the checked-in warehouse: the
/// normalized tree must be identical at 1 and 4 threads (same shape, same
/// rows, same counter deltas, split children in split order).
#[test]
fn rewritten_queries_deterministic_across_threads() {
    let root = bench_data_root();
    for sql in &support::GOLDEN_QUERIES[..3] {
        let make = || support::rewritten_session(&root);
        let mut reference_session = make();
        reference_session.set_threads(Some(1));
        let reference = run_explain_analyze(&reference_session, sql, &root);
        assert!(
            reference.contains("scan_pipeline"),
            "no pipeline span for {sql}:\n{reference}"
        );
        assert!(
            reference.contains("split="),
            "no split spans for {sql}:\n{reference}"
        );
        let mut session = make();
        session.set_threads(Some(4));
        let parallel = run_explain_analyze(&session, sql, &root);
        assert_eq!(
            parallel, reference,
            "explain analyze differs between 1 and 4 threads for {sql}"
        );
    }
}

/// `EXPLAIN ANALYZE` prints this query's tree and nothing else. The
/// rewriter records into whichever tracer the query is planned under, so
/// turning session tracing on puts its spans into the session's buffer;
/// the rendered text must still be the same as with tracing off, on the
/// first run and on a repeat.
#[test]
fn explain_analyze_is_per_query_with_session_tracing_on_or_off() {
    let root = temp_root("perquery");
    let mut session = Session::open(&root).unwrap();
    let files: Vec<Vec<(i64, String)>> = (0..2i64)
        .map(|f| {
            (f * 10..(f + 1) * 10)
                .map(|n| (n, format!(r#"{{"a": {n}, "b": "x{n}"}}"#)))
                .collect()
        })
        .collect();
    support::json_table(&mut session, "db", "t", &files, 5);
    support::cache_paths(&mut session, &root, &[("db", "t", "$.a")]);
    // A cached path stitched with an uncached one.
    let sql = "select id, get_json_object(payload, '$.a') as a, \
               get_json_object(payload, '$.b') as b from db.t";
    let untraced: Vec<String> = (0..2)
        .map(|_| run_explain_analyze(&session, sql, &root))
        .collect();
    assert!(
        untraced[0].contains("MaxsonCombinedScan"),
        "plan not rewritten:\n{}",
        untraced[0]
    );
    session.set_trace_enabled(true);
    for _ in 0..2 {
        let traced = run_explain_analyze(&session, sql, &root);
        assert_eq!(traced, untraced[0], "traced explain analyze differs");
    }
    assert_eq!(untraced[1], untraced[0]);
    std::fs::remove_dir_all(&root).ok();
}

/// The plain `EXPLAIN` (no ANALYZE) path still renders the logical plan.
#[test]
fn plain_explain_still_renders_plan() {
    let root = two_split_table("plainexplain");
    let session = Session::open(&root).unwrap();
    let result = session.execute("explain select id from db.t").unwrap();
    assert_eq!(result.columns, vec!["plan".to_string()]);
    let text = result.to_display_string();
    assert!(text.contains("Scan"), "no scan node:\n{text}");
    assert!(!text.contains("wall="), "EXPLAIN must not execute:\n{text}");
    std::fs::remove_dir_all(&root).ok();
}
