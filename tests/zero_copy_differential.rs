//! Differential tests for the zero-copy batched scan pipeline.
//!
//! The scan→execute boundary now hands column-major batches (with optional
//! prefilter selection vectors) to the pipeline, which materializes row
//! cells late — predicate columns first, the rest only for surviving rows —
//! over shared `Arc<str>` buffers. All of that must be invisible: rows,
//! rendered output, every work counter, and the `EXPLAIN ANALYZE` tree must
//! be identical to the serial reference at 1 and 4 threads, under Jackson
//! and Mison, with shared-parse off and on.
//!
//! Three layers, mirroring `shared_parse_differential.rs`:
//!
//! 1. **Golden queries** — scan-only/scan+filter/scan+agg shapes over the
//!    checked-in warehouse, plus prefilter-eligible JSON equality
//!    predicates, across every thread × parser × shared-parse combination.
//! 2. **NoBench workload** — generated documents with missing fields and
//!    malformed records, same matrix.
//! 3. **Property test** — random tables (including NULL documents and
//!    multi-row-group splits that exercise SARG skipping) and random
//!    queries; failures replay via `MAXSON_TESTKIT_SEED`.

use maxson::rewriter::MaxsonScanRewriter;
use maxson_datagen::NobenchGenerator;
use maxson_engine::metrics::ExecMetrics;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::rng::Rng;
use std::path::{Path, PathBuf};

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-zc-{}-{nanos}-{name}", std::process::id()))
}

/// Labels of the declared work counters on which a `(parser, shared)` cell
/// differs from the serial Jackson shared-off reference without that mode
/// being defined to move them: shared-parse extraction moves `docs_parsed`
/// (one parse per row instead of one per path), and Mison builds the
/// structural bitmaps the DOM parser never builds. Everything else — and
/// those three in the cells that do not cause them — must be identical.
fn unexpected_moves(
    parser: JsonParserKind,
    shared: bool,
    got: &ExecMetrics,
    reference: &ExecMetrics,
) -> Vec<&'static str> {
    got.work_counters()
        .into_iter()
        .zip(reference.work_counters())
        .filter(|(got, want)| got != want)
        .map(|((label, _), _)| label)
        .filter(|&label| match label {
            "docs_parsed" => !shared,
            "bitmap_builds" | "bitmap_bytes" => parser != JsonParserKind::Mison,
            _ => true,
        })
        .collect()
}

/// Normalize an `EXPLAIN ANALYZE` rendering: strip wall-clock tokens and
/// the table root path (same scheme as tests/explain_analyze_golden.rs),
/// plus `docs_parsed=` — the one counter shared-parse mode legitimately
/// changes (its thread-invariance is asserted separately on the metrics) —
/// and the structural-kernel attrs (`simd=`, `bitmap_*=`), which only the
/// bitmap-building parsers emit; Jackson legitimately has none
/// (tests/kernel_differential.rs pins their semantics).
fn normalized_tree(session: &Session, sql: &str, root: &Path) -> String {
    let result = session
        .execute(&format!("explain analyze {sql}"))
        .unwrap_or_else(|e| panic!("explain analyze failed for {sql}: {e}"));
    let text: String = result
        .rows
        .iter()
        .map(|r| match &r[0] {
            Cell::Str(s) => s.to_string(),
            other => panic!("explain analyze rows must be strings: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let text = text.replace(&root.display().to_string(), "<root>");
    text.lines()
        .map(|line| {
            line.split(' ')
                .filter(|tok| !tok.starts_with("simd=") && !tok.starts_with("bitmap_"))
                .map(|tok| {
                    if tok.starts_with("wall=") {
                        "wall=_"
                    } else if tok.starts_with("docs_parsed=") {
                        "docs_parsed=_"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run `sql` on the serial Jackson shared-off reference and assert rows,
/// rendered output, work counters, and the explain-analyze tree are
/// identical across threads × parsers × shared-parse.
fn assert_zero_copy_differential(
    mut make_session: impl FnMut() -> Session,
    sql: &str,
    root: &Path,
    label: &str,
) {
    let mut reference_session = make_session();
    reference_session.set_parser_kind(JsonParserKind::Jackson);
    reference_session.set_threads(Some(1));
    reference_session.set_shared_parse(Some(false));
    let reference = reference_session
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] reference run failed for {sql}: {e}"));
    let reference_tree = normalized_tree(&reference_session, sql, root);

    for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
        for shared in [false, true] {
            let mut cell = None;
            for threads in [1usize, 4] {
                let mut session = make_session();
                session.set_parser_kind(parser);
                session.set_threads(Some(threads));
                session.set_shared_parse(Some(shared));
                let result = session.execute(sql).unwrap_or_else(|e| {
                    panic!("[{label}] run failed for {sql} ({parser:?}, shared={shared}, {threads} threads): {e}")
                });
                assert_eq!(
                    result.rows, reference.rows,
                    "[{label}] rows diverged for {sql} ({parser:?}, shared={shared}, {threads} threads)"
                );
                assert_eq!(
                    result.to_display_string(),
                    reference.to_display_string(),
                    "[{label}] rendered output diverged for {sql} ({parser:?}, shared={shared}, {threads} threads)"
                );
                let moved = unexpected_moves(parser, shared, &result.metrics, &reference.metrics);
                assert!(
                    moved.is_empty(),
                    "[{label}] work counters {moved:?} diverged for {sql} ({parser:?}, shared={shared}, {threads} threads): \
                     {:?} vs reference {:?}",
                    result.metrics,
                    reference.metrics
                );
                // Within one (parser, shared) cell thread count moves no
                // work counter at all, the mode's own included.
                let cell = cell.get_or_insert_with(|| result.metrics.work_counters());
                assert_eq!(
                    &result.metrics.work_counters(),
                    cell,
                    "[{label}] work counters not thread-invariant for {sql} ({parser:?}, shared={shared})"
                );
                let tree = normalized_tree(&session, sql, root);
                assert_eq!(
                    tree, reference_tree,
                    "[{label}] explain analyze tree diverged for {sql} ({parser:?}, shared={shared}, {threads} threads)"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Golden queries over the checked-in warehouse
// ---------------------------------------------------------------------

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
    let root = bench_data_root();
    for sql in WAREHOUSE_QUERIES {
        assert_zero_copy_differential(|| Session::open(&root).unwrap(), sql, &root, "warehouse");
    }
}

/// The same statements with the Maxson rewriter installed, plus a raw +
/// cache stitch under a raw-side SARG: cached paths reach the pipeline as
/// stitched column chunks, which must be as invisible as the plain batches.
#[test]
fn rewritten_warehouse_queries_identical_across_batching_matrix() {
    let root = bench_data_root();
    let make = || {
        let mut session = Session::open(&root).unwrap();
        session.set_scan_rewriter(Some(Box::new(MaxsonScanRewriter::open(&root).unwrap())));
        session
    };
    let stitched = "select id, get_json_object(payload, '$.f0') as f0, \
                    get_json_object(payload, '$.f10') as f10 from mydb.q2 where id < 100";
    for sql in WAREHOUSE_QUERIES.into_iter().chain([stitched]) {
        assert_zero_copy_differential(make, sql, &root, "warehouse+maxson");
    }
    let result = make().execute(stitched).unwrap();
    assert!(
        result.metrics.cache_hits > 0 && result.metrics.cells_materialized > 0,
        "stitch never reached the columnar pipeline: {:?}",
        result.metrics
    );
}

/// The Sparser-style prefilter now produces a selection vector instead of
/// dropping rows one at a time; it must stay invisible in results and
/// deterministic in the counters.
#[test]
fn prefilter_selection_vector_identical_across_matrix() {
    let root = temp_root("prefilter");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("doc", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    for f in 0..3i64 {
        let rows: Vec<Vec<Cell>> = (0..40)
            .map(|i| {
                let n = f * 40 + i;
                let name = if n % 5 == 0 { "banana" } else { "apple" };
                vec![
                    Cell::Int(n),
                    Cell::from(format!(r#"{{"name": "{name}", "n": {n}}}"#)),
                ]
            })
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 8,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
    }
    drop(catalog);
    let sql = "select id from db.t where get_json_object(doc, '$.name') = 'banana'";
    let make = || {
        let mut s = Session::open(&root).unwrap();
        s.set_prefilter_enabled(true);
        s
    };
    // Sanity: the prefilter actually fires on this shape.
    let mut probe = make();
    probe.set_threads(Some(1));
    let result = probe.execute(sql).unwrap();
    assert_eq!(result.rows.len(), 24);
    assert!(
        result.metrics.prefilter_dropped > 0,
        "prefilter never fired: {:?}",
        result.metrics
    );
    assert_eq!(
        result.metrics.batch_rows_skipped, result.metrics.prefilter_dropped,
        "every prefiltered row must be skipped before materialization"
    );
    assert_zero_copy_differential(make, sql, &root, "prefilter");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// NoBench workload
// ---------------------------------------------------------------------

#[test]
fn nobench_workload_identical_across_batching_matrix() {
    let root = temp_root("nobench");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("nb", "docs", schema, 0).unwrap();
    let mut generator = NobenchGenerator::new(7);
    for f in 0..4u64 {
        let rows: Vec<Vec<Cell>> = (f * 50..(f + 1) * 50)
            .map(|i| vec![Cell::Int(i as i64), Cell::from(generator.record_text(i))])
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 16,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
    }
    drop(catalog);
    let queries = [
        // Raw-column predicate: rejected rows must not materialize payload.
        "select get_json_object(payload, '$.str1') as s1 from nb.docs where id < 60",
        // JSON predicate + projection sharing one parse.
        "select get_json_object(payload, '$.num') as num from nb.docs \
         where get_json_object(payload, '$.num') > 100",
        // Grouped aggregation: allocation-free keys must keep first-seen
        // group order at any thread count.
        "select get_json_object(payload, '$.str2') as grp, count(*), \
         sum(get_json_object(payload, '$.num')) from nb.docs \
         group by get_json_object(payload, '$.str2')",
        // Bare scan through a sort (non-segment shape above the scan).
        "select id from nb.docs order by get_json_object(payload, '$.num') limit 9",
    ];
    for sql in queries {
        assert_zero_copy_differential(|| Session::open(&root).unwrap(), sql, &root, "nobench");
    }
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Property test: random tables × random queries
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Scenario {
    table_seed: u64,
    splits: usize,
    rows_per_split: usize,
    query: usize,
    threshold: i64,
}

const NUM_QUERIES: usize = 5;

fn scenario_gen() -> Gen<Scenario> {
    let base = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::usize_in(1..=5)),
        Gen::tuple2(
            Gen::tuple2(Gen::usize_in(0..=20), Gen::usize_in(0..=NUM_QUERIES - 1)),
            Gen::i64_in(-50..=150),
        ),
    );
    base.map(
        |((table_seed, splits), ((rows_per_split, query), threshold))| Scenario {
            table_seed,
            splits,
            rows_per_split,
            query,
            threshold,
        },
    )
}

fn scenario_sql(s: &Scenario) -> String {
    let th = s.threshold;
    match s.query {
        // Raw predicate over a skippable column: SARG + late materialization.
        0 => format!("select id, doc from db.t where id >= {th}"),
        // JSON predicate: the filter column is the only one materialized
        // for rejected rows, and it carries the parse.
        1 => format!(
            "select get_json_object(doc, '$.x') as x from db.t \
             where get_json_object(doc, '$.x') < {th}"
        ),
        // Aggregation with JSON group key.
        2 => "select get_json_object(doc, '$.tag') as tag, count(*), \
              sum(get_json_object(doc, '$.x')) from db.t \
              group by get_json_object(doc, '$.tag')"
            .into(),
        // Scan-only projection.
        3 => "select doc, id from db.t".into(),
        // Raw predicate + JSON projection + distinct above the segment.
        _ => format!(
            "select distinct get_json_object(doc, '$.tag') as tag from db.t \
             where id > {th}"
        ),
    }
}

/// Random table with NULL documents, missing fields, and malformed records
/// (batch validity masks and parse-error paths all get exercised).
fn build_scenario_table(s: &Scenario, root: &PathBuf) -> Session {
    let mut session = Session::open(root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("doc", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let mut rng = Rng::seed_from_u64(s.table_seed);
    for _ in 0..s.splits {
        let rows: Vec<Vec<Cell>> = (0..s.rows_per_split)
            .map(|_| {
                let id = Cell::Int(rng.gen_range(-100..=100));
                let doc = if rng.gen_bool(0.08) {
                    Cell::Null
                } else if rng.gen_bool(0.05) {
                    Cell::from("{broken")
                } else {
                    let x = rng.gen_range(-100..=100);
                    let tag = rng.gen_range(0..=3u32);
                    if rng.gen_bool(0.1) {
                        Cell::from(format!(r#"{{"tag": "g{tag}"}}"#))
                    } else {
                        Cell::from(format!(r#"{{"x": {x}, "tag": "g{tag}"}}"#))
                    }
                };
                vec![id, doc]
            })
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 7,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
    }
    drop(catalog);
    session
}

#[test]
fn property_random_queries_identical_across_batching_matrix() {
    let cfg = Config::with_cases(16);
    check(
        "zero_copy_batching_differential",
        &cfg,
        &scenario_gen(),
        |scenario| {
            let root = temp_root(&format!("prop-{}", scenario.table_seed));
            let mut reference_session = build_scenario_table(scenario, &root);
            let sql = scenario_sql(scenario);

            reference_session.set_parser_kind(JsonParserKind::Jackson);
            reference_session.set_threads(Some(1));
            reference_session.set_shared_parse(Some(false));
            let reference = reference_session
                .execute(&sql)
                .map_err(|e| format!("reference: {e}"))?;
            let reference_tree = normalized_tree(&reference_session, &sql, &root);

            for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
                for shared in [false, true] {
                    for threads in [1usize, 4] {
                        let mut session = Session::open(&root).unwrap();
                        session.set_parser_kind(parser);
                        session.set_threads(Some(threads));
                        session.set_shared_parse(Some(shared));
                        let result = session.execute(&sql).map_err(|e| {
                            format!("{parser:?}, shared={shared}, {threads} threads: {e}")
                        })?;
                        maxson_testkit::prop_assert_eq!(&result.rows, &reference.rows);
                        maxson_testkit::prop_assert_eq!(
                            result.to_display_string(),
                            reference.to_display_string()
                        );
                        maxson_testkit::prop_assert_eq!(
                            unexpected_moves(parser, shared, &result.metrics, &reference.metrics),
                            Vec::<&str>::new()
                        );
                        maxson_testkit::prop_assert_eq!(
                            normalized_tree(&session, &sql, &root),
                            reference_tree.clone()
                        );
                    }
                }
            }
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}
