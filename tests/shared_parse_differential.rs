//! Intra-query shared parse: the engine parses each JSON document once per
//! row however many paths a statement evaluates, and still returns what
//! the oracle — which parses once per call — returns, under Jackson and
//! Mison at one and four threads. A Fig. 15-shaped statement reaches a
//! four-fold dedup factor.
//!
//! Parsers and thread counts are pinned per session, not through env vars,
//! so parallel test binaries cannot race on process-global state.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_storage::Cell;
use support::cells::{assert_agrees, parser_thread_cells, property_agrees, ConfigCell};
use support::{bench_data_root, GOLDEN_QUERIES, NOBENCH_QUERIES};

const PARSERS: [JsonParserKind; 2] = [JsonParserKind::Jackson, JsonParserKind::Mison];

fn cells(rewritten: bool) -> Vec<ConfigCell> {
    parser_thread_cells(&PARSERS, &[1, 4])
        .into_iter()
        .map(|cell| ConfigCell { rewritten, ..cell })
        .collect()
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_plain() {
    assert_agrees(&bench_data_root(), &GOLDEN_QUERIES, &cells(false));
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_rewritten() {
    assert_agrees(&bench_data_root(), &GOLDEN_QUERIES, &cells(true));
}

#[test]
fn nobench_workload_identical_with_and_without_shared_parse() {
    let root = support::nobench_table("nobench", 240, 4);
    assert_agrees(&root, &NOBENCH_QUERIES, &cells(false));
    std::fs::remove_dir_all(&root).ok();
}

/// A Fig. 15-shaped query — JSON predicate plus three more paths on the
/// same column — must reach a >=4x intra-query dedup factor: four
/// evaluations per row served by one parse.
#[test]
fn fig15_shape_reaches_4x_dedup_factor() {
    let root = support::temp_root("dedup4x");
    let mut session = Session::open(&root).unwrap();
    let docs: Vec<(i64, String)> = (0..120)
        .map(|i| {
            let doc = format!(
                r#"{{"a": {i}, "b": "s{i}", "c": {}, "v": {}}}"#,
                i * 2,
                i % 5
            );
            (i, doc)
        })
        .collect();
    support::json_table(&mut session, "db", "t", &[docs], 1024);

    let sql = "select get_json_object(payload, '$.a') as a, \
               get_json_object(payload, '$.b') as b, \
               get_json_object(payload, '$.c') as c from db.t \
               where get_json_object(payload, '$.v') >= 0";
    for parser in PARSERS {
        session.set_parser_kind(parser);
        session.set_threads(Some(1));
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows.len(), 120);
        assert_eq!(result.rows[7][1], Cell::from("s7"), "{parser:?}");
        assert_eq!(result.metrics.parse_calls, 480, "4 evaluations per row");
        assert_eq!(result.metrics.docs_parsed, 120, "1 parse per row");
        assert!(
            result.metrics.parse_dedup_factor() >= 4.0,
            "{parser:?}: dedup {:.2}x",
            result.metrics.parse_dedup_factor()
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn property_random_json_queries_shared_equals_naive() {
    property_agrees("one_parse_per_row_equals_oracle", 10, &cells(false));
}
