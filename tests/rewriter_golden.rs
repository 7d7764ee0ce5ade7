//! Golden tests for the Maxson plan rewriter over the checked-in
//! `bench-data/` warehouse (read-only: nothing here mutates the data; the
//! stale-append case builds a warehouse of its own).
//!
//! The warehouse ships with a valid cache for `mydb`: every `qN` table has
//! a `__maxson_cache.mydb__qN` companion whose `cached_at` postdates the
//! table's `modified_at`. `q2` caches `$.f0`..`$.f9` while its documents
//! also carry `$.f10`..`$.f16`, which makes it the stitching case: a query
//! touching both sides must read the cache table for the cached paths and
//! fall back to raw JSON parsing for the rest.

mod support;

use maxson::MaxsonScanRewriter;
use maxson_engine::session::Session;
use maxson_storage::file::WriteOptions;
use maxson_storage::Cell;
use support::cells::assert_matches;
use support::oracle::Oracle;
use support::{bench_data_root, GOLDEN_QUERIES};

fn plain_session() -> Session {
    Session::open(bench_data_root()).unwrap()
}

fn rewriting_session() -> Session {
    support::rewritten_session(&bench_data_root())
}

/// Fully cached paths only: plan must read the cache table, not parse JSON.
const Q_FULLY_CACHED: &str = GOLDEN_QUERIES[0];

/// Mixed: `$.f0` is cached on q2, `$.f10` exists only in the raw payload.
const Q_STITCHED: &str = GOLDEN_QUERIES[1];

/// Predicate on a cached numeric path (exercises SARG pushdown to the
/// cache table, Algorithm 3).
const Q_PUSHDOWN: &str = GOLDEN_QUERIES[2];

// The fourth, `$.f12` on q2, touches only uncached paths of a cached table:
// the rewriter must still leave results intact.

#[test]
fn fully_cached_query_reads_cache_table_without_parsing() {
    let session = rewriting_session();
    let result = session.execute(Q_FULLY_CACHED).unwrap();
    assert!(
        result.plan_display.contains("MaxsonCombinedScan"),
        "plan not rewritten:\n{}",
        result.plan_display
    );
    assert!(
        result.plan_display.contains("cache-only") && result.plan_display.contains("raw_cols=[]"),
        "plan still touches the raw table:\n{}",
        result.plan_display
    );
    assert_eq!(
        result.metrics.parse_calls, 0,
        "fully cached query must not parse JSON: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.cache_hits > 0,
        "expected cache hits: {:?}",
        result.metrics
    );
    assert!(!result.rows.is_empty(), "q1 has rows");
}

#[test]
fn partially_cached_query_stitches_uncached_columns_from_raw() {
    let session = rewriting_session();
    let result = session.execute(Q_STITCHED).unwrap();
    assert!(
        result.plan_display.contains("MaxsonCombinedScan"),
        "plan not rewritten:\n{}",
        result.plan_display
    );
    assert!(
        !result.plan_display.contains("raw_cols=[]")
            && result.plan_display.contains("cache_cols=["),
        "combined scan must stitch raw and cached columns:\n{}",
        result.plan_display
    );
    assert!(
        result.metrics.cache_hits > 0,
        "cached side ($.f0) must hit the cache: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.parse_calls > 0,
        "uncached side ($.f10) must parse raw JSON: {:?}",
        result.metrics
    );
    // The stitched column carries real values, not a column of nulls.
    let f10_idx = result.columns.iter().position(|c| c == "f10").unwrap();
    assert!(
        result
            .rows
            .iter()
            .any(|r| !matches!(r[f10_idx], maxson_storage::Cell::Null)),
        "$.f10 should produce non-null values"
    );
}

#[test]
fn rewritten_results_are_byte_identical_to_unrewritten() {
    let oracle = Oracle::new(&bench_data_root());
    let plain = plain_session();
    let rewritten = rewriting_session();
    for sql in GOLDEN_QUERIES {
        assert!(
            plain.execute(sql).unwrap().metrics.parse_calls > 0,
            "unrewritten run must parse JSON for {sql}"
        );
        let result = rewritten.execute(sql).unwrap();
        assert_matches(&oracle.answer(sql).unwrap(), &result, sql);
    }
}

#[test]
fn pushdown_query_stays_rewritten_and_correct() {
    let oracle = Oracle::new(&bench_data_root());
    let result = rewriting_session().execute(Q_PUSHDOWN).unwrap();
    assert!(
        result.plan_display.contains("MaxsonCombinedScan"),
        "plan not rewritten:\n{}",
        result.plan_display
    );
    assert_matches(&oracle.answer(Q_PUSHDOWN).unwrap(), &result, Q_PUSHDOWN);
    // The filter keeps only rows with f0 > 900: a non-trivial, non-empty
    // selection.
    let table_rows = oracle.table("mydb", "q1").unwrap().rows.len();
    assert!(!result.rows.is_empty(), "some rows satisfy f0 > 900");
    assert!(
        result.rows.len() < table_rows,
        "filter must be selective: {} rows out of {table_rows}",
        result.rows.len()
    );
}

/// Rows appended to a raw table after the rewriter was installed make its
/// cache entries stale (§IV): the rewritten session must parse them, not
/// serve the cache and drop the new rows.
#[test]
fn append_after_install_parses_the_stale_calls() {
    let root = support::generated_warehouse("stale-append");
    let mut session = Session::open(&root).unwrap();
    let rewriter = MaxsonScanRewriter::open(&session).unwrap();
    session.set_scan_rewriter(Some(Box::new(rewriter)));
    // The cache was built at logical time 100; the new part lands at 200.
    let rows: Vec<Vec<Cell>> = (240..250)
        .map(|i| vec![Cell::Int(i), Cell::from(format!(r#"{{"str1": "new{i}"}}"#))])
        .collect();
    session
        .catalog_mut()
        .table_mut("nb", "docs")
        .unwrap()
        .append_file(&rows, WriteOptions::default(), 200)
        .unwrap();
    let sql = "select id, get_json_object(payload, '$.str1') as s1 from nb.docs";
    let rewritten = session.execute(sql).unwrap();
    let plain = Session::open(&root).unwrap().execute(sql).unwrap();
    assert_eq!(plain.rows.len(), 250);
    assert_eq!(rewritten.rows, plain.rows);
    let registry = session.metrics_registry();
    let stale = registry.counter_value("maxson_rewrite_paths_total", &[("outcome", "stale")]);
    assert_eq!(stale, Some(1));
    std::fs::remove_dir_all(&root).ok();
}

/// `$.a.b` and `$.a_b` both sanitize to the cache field name
/// `payload__a_b`. One midnight cycle caches both: the cache table gives
/// the second a column of its own, and each rewritten query reads its own
/// path's values, as the oracle computes them from the raw documents.
#[test]
fn colliding_cache_field_names_each_serve_their_own_path() {
    use maxson::cacher::cache_field_name;
    assert_eq!(
        cache_field_name("payload", "$.a.b"),
        cache_field_name("payload", "$.a_b")
    );
    let root = support::temp_root("collide");
    let mut session = Session::open(&root).unwrap();
    let files: Vec<Vec<(i64, String)>> = (0..2i64)
        .map(|f| {
            (f * 10..(f + 1) * 10)
                .map(|n| {
                    (
                        n,
                        format!(r#"{{"a": {{"b": "nested{n}"}}, "a_b": "flat{n}"}}"#),
                    )
                })
                .collect()
        })
        .collect();
    support::json_table(&mut session, "db", "t", &files, 5);
    support::cache_paths(
        &mut session,
        &root,
        &[("db", "t", "$.a.b"), ("db", "t", "$.a_b")],
    );
    let oracle = Oracle::new(&root);
    for sql in [
        "select id, get_json_object(payload, '$.a.b') as v from db.t",
        "select id, get_json_object(payload, '$.a_b') as v from db.t",
        "select get_json_object(payload, '$.a_b') as flat, \
         get_json_object(payload, '$.a.b') as nested from db.t where id > 3",
    ] {
        let result = session.execute(sql).unwrap();
        assert_eq!(
            result.metrics.parse_calls, 0,
            "not served from cache: {sql}"
        );
        assert!(
            result.metrics.cache_hits > 0,
            "not served from cache: {sql}"
        );
        assert_matches(&oracle.answer(sql).unwrap(), &result, sql);
    }
    std::fs::remove_dir_all(&root).ok();
}
