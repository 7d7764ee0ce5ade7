//! Tracing is an observer, never a participant: a traced query returns
//! what the oracle returns and charges exactly the work counters the
//! untraced query charges, and the Chrome trace-event file a parallel query
//! writes is valid JSON whose spans nest under a query root on named
//! per-thread tracks, with no counter (`C`) events beside them.
//!
//! Layers:
//!
//! 1. **Golden queries** — the Maxson-rewritten golden queries over the
//!    checked-in warehouse, traced, at 1 and 4 threads with both JSON
//!    parsers.
//! 2. **Property test** — random statements over random tables; failures
//!    replay via `MAXSON_TESTKIT_SEED`.
//! 3. **Trace export** — the structure of the emitted file.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::Config as EngineConfig;
use maxson_json::JsonValue;
use maxson_testkit::prop::{check, Config, Gen};
use support::cells::assert_matches;
use support::oracle::Oracle;
use support::sqlgen::{render, Generator, Source};

/// Run `sql` untraced and traced on two sessions `make` builds: the traced
/// run records spans, returns the oracle's rows and charges the untraced
/// run's work counters.
fn assert_tracing_is_invisible(
    make: impl Fn() -> Session,
    oracle: &Oracle,
    sql: &str,
    label: &str,
) {
    let untraced = make().execute(sql).unwrap();
    let traced_session = make();
    traced_session.set_trace_enabled(true);
    let traced = traced_session.execute(sql).unwrap();
    assert!(
        !traced_session.tracer().snapshot().spans.is_empty(),
        "[{label}] traced run recorded no spans"
    );
    assert_matches(
        &oracle.answer(sql).unwrap(),
        &traced,
        &format!("[{label}] traced {sql}"),
    );
    assert_eq!(
        untraced.metrics.work_counters(),
        traced.metrics.work_counters(),
        "[{label}] tracing changed work counters for {sql}"
    );
}

#[test]
fn golden_queries_unchanged_by_tracing_both_parsers_both_thread_counts() {
    let root = support::bench_data_root();
    let oracle = Oracle::new(&root);
    for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
        for threads in [1usize, 4] {
            let make = || {
                let config = EngineConfig {
                    parser,
                    threads: Some(threads),
                    ..EngineConfig::from_env()
                };
                support::install_rewriter(Session::open_with(&root, config).unwrap())
            };
            for sql in &support::GOLDEN_QUERIES[..3] {
                assert_tracing_is_invisible(make, &oracle, sql, &format!("{parser:?}/{threads}t"));
            }
        }
    }
}

#[test]
fn property_tracing_never_changes_rows_or_counters() {
    let paths = ["$.x", "$.y", "$.tag", "$.name", "$.deep.x"];
    check(
        "tracing_on_off",
        &Config::with_cases(12),
        &Gen::u64_any(),
        |&seed| {
            let root = support::random_json_table(seed);
            let oracle = Oracle::new(&root);
            let source = Source::sample(&oracle, "db", "t", "payload", &paths, &[]);
            let sql = render(&Generator::new(seed, &[source]).statement());
            let make = || {
                let mut config = EngineConfig {
                    threads: Some(1 + seed as usize % 4),
                    ..EngineConfig::from_env()
                };
                if seed % 2 == 0 {
                    config.parser = JsonParserKind::Mison;
                }
                Session::open_with(&root, config).unwrap()
            };
            assert_tracing_is_invisible(make, &oracle, &sql, &format!("table seed {seed}"));
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Chrome trace export: structure of the emitted file
// ---------------------------------------------------------------------

/// Holds the first split task until a second thread asks for one, so a
/// parallel run puts split spans on two threads however short its tasks
/// are: the calling thread works the split cursor beside the pool workers
/// and could otherwise run every task before a worker starts.
#[derive(Debug, Default)]
struct TwoThreadsAtOnce {
    asked: std::sync::Mutex<usize>,
    second: std::sync::Condvar,
}

impl maxson_engine::SplitScheduler for TwoThreadsAtOnce {
    fn acquire(&self) {
        let mut asked = self.asked.lock().unwrap();
        *asked += 1;
        self.second.notify_all();
        let wait = std::time::Duration::from_secs(10);
        let (_asked, _) = self
            .second
            .wait_timeout_while(asked, wait, |asked| *asked < 2)
            .unwrap();
    }

    fn release(&self) {}
}

#[test]
fn chrome_export_nests_spans_on_named_thread_tracks() {
    let root = support::temp_root("export");
    let trace_path = root.join("trace.json");
    let config = EngineConfig {
        trace: Some(trace_path.clone()),
        ..EngineConfig::from_env()
    };
    let mut session = Session::open_with(&root, config).unwrap();
    let files: Vec<Vec<(i64, String)>> = (0..4i64)
        .map(|f| {
            (f * 12..(f + 1) * 12)
                .map(|n| (n, format!(r#"{{"a": {n}}}"#)))
                .collect()
        })
        .collect();
    support::json_table(&mut session, "db", "t", &files, 1024);
    session.set_threads(Some(4));
    session.set_split_scheduler(Some(std::sync::Arc::new(TwoThreadsAtOnce::default())));
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
            // The tracer records spans only; counts live in the query's
            // metrics and the registry, so no counter track is exported.
            other => panic!("unexpected trace event phase {other:?}: {e:?}"),
        }
    }
    assert!(!span_ids.is_empty(), "no spans exported");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("name").and_then(JsonValue::as_str) == Some("query")),
        "no query-root span exported"
    );
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
