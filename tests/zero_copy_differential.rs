//! The zero-copy batched scan pipeline: column-major batches and late
//! materialization over shared `Arc<str>` buffers must be invisible —
//! scan-only, scan+filter and scan+agg shapes and raw + cache stitches
//! return what the oracle returns under Jackson and Mison at 1 and 4
//! threads, and so do random
//! statements over random tables with NULL and malformed documents
//! (seed-replayable via `MAXSON_TESTKIT_SEED`).

mod support;

use maxson_engine::session::JsonParserKind;
use support::cells::{assert_agrees, parser_thread_cells, property_agrees, ConfigCell};
use support::{bench_data_root, NOBENCH_QUERIES};

/// Jackson and Mison at 1 and 4 threads.
fn cells(rewritten: bool) -> Vec<ConfigCell> {
    parser_thread_cells(&[JsonParserKind::Jackson, JsonParserKind::Mison], &[1, 4])
        .into_iter()
        .map(|cell| ConfigCell { rewritten, ..cell })
        .collect()
}

/// The three scan shapes the zero-copy pipeline optimizes, plus JSON
/// predicates (late materialization under a parse-bearing filter) and a
/// projection over every column.
const WAREHOUSE_QUERIES: [&str; 6] = [
    "select id, date, payload from mydb.q1",
    "select id, payload from mydb.q1 where date <= 20190108",
    "select date, count(*) as n, sum(id) as s from mydb.q1 group by date",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select count(*) from mydb.q2 where date > 20190102 and id < 1000",
];

#[test]
fn warehouse_queries_identical_across_batching_matrix() {
    assert_agrees(&bench_data_root(), &WAREHOUSE_QUERIES, &cells(false));
}

/// The same statements with the Maxson rewriter installed, plus a raw +
/// cache stitch under a raw-side SARG: cached paths reach the pipeline as
/// stitched column chunks, which must be as invisible as the plain batches.
#[test]
fn rewritten_warehouse_queries_identical_across_batching_matrix() {
    let root = bench_data_root();
    let stitched = "select id, get_json_object(payload, '$.f0') as f0, \
                    get_json_object(payload, '$.f10') as f10 from mydb.q2 where id < 100";
    let mut queries = WAREHOUSE_QUERIES.to_vec();
    queries.push(stitched);
    assert_agrees(&root, &queries, &cells(true));
    let result = support::rewritten_session(&root).execute(stitched).unwrap();
    assert!(
        result.metrics.cache_hits > 0 && result.metrics.cells_materialized > 0,
        "stitch never reached the columnar pipeline: {:?}",
        result.metrics
    );
}

#[test]
fn nobench_workload_identical_across_batching_matrix() {
    let root = support::nobench_table("nobench", 200, 4);
    assert_agrees(&root, &NOBENCH_QUERIES, &cells(false));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn property_random_queries_identical_across_batching_matrix() {
    property_agrees("zero_copy_batching_oracle", 10, &cells(false));
}
