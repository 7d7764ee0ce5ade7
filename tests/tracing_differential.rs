//! Differential proof that tracing is zero-cost in the only sense that
//! matters: it never changes what a query computes.
//!
//! Three layers:
//!
//! 1. **Golden queries** — the Maxson-rewritten golden queries over the
//!    checked-in warehouse, run untraced vs traced at 1 and 4 threads with
//!    both JSON parsers; rows, rendered output, and every work counter
//!    must be identical.
//! 2. **Property test** — random tables and random JSON queries; tracing
//!    on/off never changes rows or counters. Failures replay via
//!    `MAXSON_TESTKIT_SEED`.
//! 3. **Trace export** — the Chrome trace-event file a parallel query
//!    writes is valid JSON whose spans nest (every `parent` id resolves)
//!    and whose events all sit on named per-thread tracks.

use maxson::rewriter::MaxsonScanRewriter;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_json::JsonValue;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_testkit::prop::{check, Config, Gen};
use std::path::PathBuf;

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-td-{}-{nanos}-{name}", std::process::id()))
}

fn assert_traced_equals_untraced(
    mut make_session: impl FnMut() -> Session,
    sql: &str,
    label: &str,
) {
    let untraced_session = make_session();
    let untraced = untraced_session
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] untraced run failed for {sql}: {e}"));
    let traced_session = make_session();
    traced_session.set_trace_enabled(true);
    let traced = traced_session
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] traced run failed for {sql}: {e}"));
    assert!(
        !traced_session.tracer().snapshot().spans.is_empty(),
        "[{label}] traced run recorded no spans (vacuous differential)"
    );
    assert_eq!(
        untraced.rows, traced.rows,
        "[{label}] tracing changed rows for {sql}"
    );
    assert_eq!(
        untraced.to_display_string(),
        traced.to_display_string(),
        "[{label}] tracing changed rendered output for {sql}"
    );
    assert_eq!(
        untraced.metrics.work_counters(),
        traced.metrics.work_counters(),
        "[{label}] tracing changed work counters for {sql}: \
         untraced {:?} vs traced {:?}",
        untraced.metrics,
        traced.metrics
    );
}

#[test]
fn golden_queries_unchanged_by_tracing_both_parsers_both_thread_counts() {
    let root = bench_data_root();
    let queries = [
        "select get_json_object(payload, '$.f0') as f0, \
         get_json_object(payload, '$.f1') as f1 from mydb.q1",
        "select get_json_object(payload, '$.f0') as f0, \
         get_json_object(payload, '$.f10') as f10 from mydb.q2",
        "select get_json_object(payload, '$.f0') as f0 \
         from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    ];
    for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
        for threads in [1usize, 4] {
            let make = || {
                let mut session = Session::open(&root).unwrap();
                session.set_parser_kind(parser);
                session.set_threads(Some(threads));
                let rewriter = MaxsonScanRewriter::open(&root).unwrap();
                session.set_scan_rewriter(Some(Box::new(rewriter)));
                session
            };
            for sql in queries {
                assert_traced_equals_untraced(make, sql, &format!("{parser:?}/{threads}t"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property test: random tables x random JSON queries, tracing on/off
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Scenario {
    table_seed: u64,
    splits: usize,
    rows_per_split: usize,
    query: usize,
    threads: usize,
    mison: bool,
}

const NUM_QUERIES: usize = 4;

fn scenario_gen() -> Gen<Scenario> {
    let base = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::usize_in(1..=6)),
        Gen::tuple2(
            Gen::tuple2(Gen::usize_in(1..=16), Gen::usize_in(0..=NUM_QUERIES - 1)),
            Gen::tuple2(Gen::usize_in(1..=4), Gen::usize_in(0..=1)),
        ),
    );
    base.map(
        |((table_seed, splits), ((rows_per_split, query), (threads, mison)))| Scenario {
            table_seed,
            splits,
            rows_per_split,
            query,
            threads,
            mison: mison == 1,
        },
    )
}

fn scenario_sql(s: &Scenario) -> &'static str {
    match s.query {
        0 => "select id, get_json_object(payload, '$.a') as a from db.t",
        1 => {
            "select get_json_object(payload, '$.b.c') as bc from db.t \
             where get_json_object(payload, '$.a') >= 10"
        }
        2 => {
            "select count(*), sum(get_json_object(payload, '$.a')) from db.t \
             where id < 40"
        }
        3 => {
            "select get_json_object(payload, '$.tag') as tag, count(*) from db.t \
             group by get_json_object(payload, '$.tag') \
             order by get_json_object(payload, '$.tag')"
        }
        _ => unreachable!(),
    }
}

fn build_scenario_table(s: &Scenario, root: &PathBuf) -> Session {
    let mut session = Session::open(root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let mut rng = maxson_testkit::rng::Rng::seed_from_u64(s.table_seed);
    let mut n = 0i64;
    for _ in 0..s.splits {
        let rows: Vec<Vec<Cell>> = (0..s.rows_per_split)
            .map(|_| {
                let a = rng.gen_range(0..=30);
                let c = rng.gen_range(-5..=5);
                let tag = rng.gen_range(0..=2u32);
                let row = vec![
                    Cell::Int(n),
                    Cell::from(format!(
                        r#"{{"a": {a}, "b": {{"c": {c}}}, "tag": "t{tag}"}}"#
                    )),
                ];
                n += 1;
                row
            })
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 4,
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
fn property_tracing_never_changes_rows_or_counters() {
    let cfg = Config::with_cases(24);
    check(
        "tracing_on_off_differential",
        &cfg,
        &scenario_gen(),
        |scenario| {
            let root = temp_root(&format!("prop-{}", scenario.table_seed));
            {
                let _ = build_scenario_table(scenario, &root);
            }
            let sql = scenario_sql(scenario);
            let make = || {
                let mut session = Session::open(&root).unwrap();
                session.set_threads(Some(scenario.threads));
                if scenario.mison {
                    session.set_parser_kind(JsonParserKind::Mison);
                }
                session
            };
            let untraced = make().execute(sql).map_err(|e| format!("untraced: {e}"))?;
            let traced_session = make();
            traced_session.set_trace_enabled(true);
            let traced = traced_session
                .execute(sql)
                .map_err(|e| format!("traced: {e}"))?;
            maxson_testkit::prop_assert_eq!(&traced.rows, &untraced.rows);
            maxson_testkit::prop_assert_eq!(
                traced.metrics.work_counters(),
                untraced.metrics.work_counters()
            );
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Chrome trace export: structure of the emitted file
// ---------------------------------------------------------------------

#[test]
fn chrome_export_nests_spans_on_named_thread_tracks() {
    let root = temp_root("export");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    for f in 0..4i64 {
        let rows: Vec<Vec<Cell>> = (0..12)
            .map(|i| {
                let n = f * 12 + i;
                vec![Cell::Int(n), Cell::from(format!(r#"{{"a": {n}}}"#))]
            })
            .collect();
        table
            .append_file(&rows, WriteOptions::default(), 1)
            .unwrap();
    }
    drop(catalog);
    session.set_threads(Some(4));
    let trace_path = root.join("trace.json");
    session.set_trace_path(Some(trace_path.clone()));
    session
        .execute("select id, get_json_object(payload, '$.a') as a from db.t")
        .unwrap();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = maxson_json::parse(&text).expect("export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    let mut span_ids = Vec::new();
    let mut span_tids = Vec::new();
    let mut named_tids = Vec::new();
    let mut parents = Vec::new();
    for e in events {
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                let args = e.get("args").expect("span args");
                span_ids.push(args.get("id").and_then(JsonValue::as_i64).expect("span id"));
                span_tids.push(e.get("tid").and_then(JsonValue::as_i64).expect("tid"));
                if let Some(p) = args.get("parent").and_then(JsonValue::as_i64) {
                    parents.push(p);
                }
            }
            Some("M") => {
                assert_eq!(
                    e.get("name").and_then(JsonValue::as_str),
                    Some("thread_name")
                );
                named_tids.push(e.get("tid").and_then(JsonValue::as_i64).expect("meta tid"));
            }
            _ => {}
        }
    }
    assert!(!span_ids.is_empty(), "no spans exported");
    assert!(!parents.is_empty(), "no nested spans exported");
    for p in &parents {
        assert!(span_ids.contains(p), "parent id {p} has no span event");
    }
    // Every span sits on a track that carries a thread_name metadata event,
    // and the 4-way parallel scan put spans on more than one track.
    for tid in &span_tids {
        assert!(named_tids.contains(tid), "tid {tid} has no thread_name");
    }
    let mut distinct = span_tids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() > 1,
        "parallel run exported a single track: {span_tids:?}"
    );
    // Worker tracks carry the pool's stable thread names.
    assert!(
        text.contains("maxson-pool-"),
        "no named pool worker tracks in export"
    );
    std::fs::remove_dir_all(&root).ok();
}
