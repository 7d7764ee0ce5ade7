//! The always-on telemetry subsystem is observation-only: with a query
//! log and a zero slow-query threshold installed, a query still returns
//! what the oracle returns and charges the work counters the bare query
//! charges, to its warehouse's own metric registry.
//!
//! Six layers:
//!
//! 1. **Golden queries** — Maxson-rewritten golden queries over the
//!    checked-in warehouse, across Jackson/Mison/Tape at 1 and 4 threads.
//! 2. **Synthetic warehouse** — the same matrix over a generated
//!    temp-directory table, so the invariant is not an artifact of the
//!    golden data shape.
//! 3. **Exposition determinism** — the same fixed query sequence replayed
//!    on two fresh registries yields byte-identical Prometheus text once
//!    wall-time series are filtered out.
//! 4. **Sketch fidelity** — the workload sketch's hot-path ranking equals
//!    exact per-(table, path) counts accumulated from `ExecMetrics`.
//! 5. **Settlement** — every registry series and every query-log counter
//!    key derived from the metric declaration settles exactly to the
//!    `ExecMetrics` the engine returned, and the server's STATS and
//!    METRICS opcodes read that same registry.
//! 6. **Isolation** — two warehouses in one process, each served, charge
//!    two registries: STATS and METRICS of one count its activity alone.
//! 7. **Configuration** — a session reports the `Config` it runs under,
//!    and a served connection runs, and logs, its template's.

mod support;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use maxson_engine::metrics::{ExecMetrics, Get, Merge};
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::{Config, Registry};
use maxson_server::{Client, Server, ServerConfig};
use support::cells::{assert_matches, PARSERS};
use support::oracle::Oracle;
use support::{bench_data_root, temp_root};

fn temp_log(name: &str) -> PathBuf {
    temp_root(name).with_extension("jsonl")
}

const GOLDEN_QUERIES: [&str; 3] = [
    support::GOLDEN_QUERIES[0],
    support::GOLDEN_QUERIES[1],
    support::GOLDEN_QUERIES[2],
];

/// Run `sql` bare under `config` and fully instrumented (private
/// registry, query log, zero slow threshold) on sessions `open` builds: the
/// instrumented run returns the oracle's rows and charges the bare run's
/// work counters.
fn assert_telemetry_is_observation_only(
    open: impl Fn(Config) -> Session,
    config: &Config,
    oracle: &Oracle,
    sql: &str,
    label: &str,
) {
    let bare = open(config.clone())
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] bare run failed for {sql}: {e}"));

    let log_path = temp_log(&format!("diff-{}", label.replace('/', "-")));
    let instrumented_session = open(Config {
        query_log: Some(log_path.clone()),
        slow_threshold: Duration::ZERO,
        ..config.clone()
    });
    let registry = Arc::clone(instrumented_session.metrics_registry());
    let instrumented = instrumented_session
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] instrumented run failed for {sql}: {e}"));

    assert_matches(
        &oracle.answer(sql).unwrap(),
        &instrumented,
        &format!("[{label}] instrumented {sql}"),
    );
    // Timing fields are excluded (they legitimately vary run to run).
    assert_eq!(
        bare.metrics.work_counters(),
        instrumented.metrics.work_counters(),
        "[{label}] telemetry changed work counters for {sql}"
    );
    assert_eq!(
        bare.metrics.path_extracts, instrumented.metrics.path_extracts,
        "[{label}] telemetry changed the per-path extraction ledger for {sql}"
    );

    // The instrumentation must actually have observed the query — an
    // empty registry would make this differential vacuous.
    assert_eq!(
        registry.counter_value(
            "maxson_queries_total",
            &[("parser", instrumented_session.parser_kind().name())]
        ),
        Some(1),
        "[{label}] registry did not observe the query"
    );
    let log = std::fs::read_to_string(&log_path).expect("query log written");
    assert_eq!(log.lines().count(), 1, "[{label}] one log line per query");
    let line = maxson_json::parse(log.lines().next().unwrap()).expect("log line parses");
    assert_eq!(
        line.get("slow").and_then(|s| s.as_bool()),
        Some(true),
        "[{label}] zero threshold flags every query slow"
    );
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn golden_queries_unchanged_by_telemetry_three_parsers_both_thread_counts() {
    let root = bench_data_root();
    let oracle = Oracle::new(&root);
    for parser in PARSERS {
        for threads in [1usize, 4] {
            let config = Config {
                parser,
                threads: Some(threads),
                ..Config::from_env()
            };
            let open =
                |config| support::install_rewriter(Session::open_with(&root, config).unwrap());
            for sql in GOLDEN_QUERIES {
                let label = format!("{parser:?}/{threads}t");
                assert_telemetry_is_observation_only(open, &config, &oracle, sql, &label);
            }
        }
    }
}

fn build_synthetic_table(root: &PathBuf) {
    let files: Vec<Vec<(i64, String)>> = (0..3i64)
        .map(|split| {
            (split * 40..(split + 1) * 40)
                .map(|n| {
                    let doc = format!(
                        r#"{{"a": {n}, "b": {{"c": {}}}, "tag": "t{}"}}"#,
                        n % 7,
                        n % 3
                    );
                    (n, doc)
                })
                .collect()
        })
        .collect();
    support::json_table(&mut Session::open(root).unwrap(), "db", "t", &files, 8);
}

#[test]
fn synthetic_warehouse_unchanged_by_telemetry() {
    let root = temp_root("synth");
    build_synthetic_table(&root);
    let oracle = Oracle::new(&root);
    let queries = [
        "select id, get_json_object(payload, '$.a') as a from db.t",
        "select get_json_object(payload, '$.b.c') as bc from db.t \
         where get_json_object(payload, '$.a') >= 10",
        "select get_json_object(payload, '$.tag') as tag, count(*) from db.t \
         group by get_json_object(payload, '$.tag') \
         order by get_json_object(payload, '$.tag')",
    ];
    for parser in PARSERS {
        for threads in [1usize, 4] {
            let config = Config {
                parser,
                threads: Some(threads),
                ..Config::from_env()
            };
            let open = |config| Session::open_with(&root, config).unwrap();
            for sql in queries {
                let label = format!("synth-{parser:?}/{threads}t");
                assert_telemetry_is_observation_only(open, &config, &oracle, sql, &label);
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Replay the golden query sequence against a fresh registry.
fn replay_golden(parser: JsonParserKind) -> (Arc<Registry>, Vec<ExecMetrics>) {
    let config = Config {
        parser,
        threads: Some(2),
        ..Config::from_env()
    };
    let session = Session::open_with(bench_data_root(), config).unwrap();
    let registry = Arc::clone(session.metrics_registry());
    let mut all = Vec::new();
    for sql in GOLDEN_QUERIES {
        all.push(session.execute(sql).expect("golden query").metrics);
    }
    (registry, all)
}

/// Wall-time series vary run to run; everything else must not.
fn stable_exposition(registry: &Registry) -> String {
    registry
        .expose()
        .lines()
        .filter(|l| !l.contains("seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn exposition_is_deterministic_for_a_fixed_query_sequence() {
    let (first, _) = replay_golden(JsonParserKind::Tape);
    let (second, _) = replay_golden(JsonParserKind::Tape);
    let a = stable_exposition(&first);
    assert_eq!(
        a,
        stable_exposition(&second),
        "same query sequence, different exposition"
    );
    // The filtered exposition still carries real content.
    assert!(a.contains("maxson_queries_total{parser=\"tape\"} 3"));
    assert!(a.contains("maxson_hot_path_extracts{"));
}

#[test]
fn sketch_ranking_matches_exact_counts_on_golden_workload() {
    let (registry, per_query) = replay_golden(JsonParserKind::Jackson);
    // Exact side: the golden queries each scan one table; attribute each
    // path's count the same way `Session::finish_query` does.
    let tables = ["mydb.q1", "mydb.q2", "mydb.q1"];
    let mut exact: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (metrics, table) in per_query.iter().zip(tables) {
        for (path, count) in &metrics.path_extracts {
            *exact.entry((table.to_string(), path.clone())).or_insert(0) += count;
        }
    }
    let mut truth: Vec<((String, String), u64)> = exact.into_iter().collect();
    truth.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    assert!(!truth.is_empty(), "golden workload extracted no paths");

    let hot = registry.hot_paths(truth.len());
    let got: Vec<((String, String), u64)> = hot
        .into_iter()
        .map(|(table, path, count)| ((table, path), count))
        .collect();
    assert_eq!(
        got, truth,
        "sketch ranking diverged from exact per-path counts"
    );
}

/// Telemetry loses and invents nothing: after the golden sequence, every
/// `maxson_<field>_total` series the declaration derives equals the summed
/// `ExecMetrics`, and each query-log line's `counters` object holds
/// exactly the declared summed fields of its own query.
#[test]
fn registry_and_query_log_settle_exactly_to_the_summed_exec_metrics() {
    let root = bench_data_root();
    for (parser, rewritten) in [
        (JsonParserKind::Jackson, false),
        (JsonParserKind::Mison, false),
        (JsonParserKind::Tape, true),
    ] {
        let label = format!("{parser:?}/rewritten={rewritten}");
        let log_path = temp_log(&format!("settle-{parser:?}"));
        let config = Config {
            parser,
            threads: Some(2),
            query_log: Some(log_path.clone()),
            ..Config::from_env()
        };
        let mut session = Session::open_with(&root, config).unwrap();
        if rewritten {
            session = support::install_rewriter(session);
        }
        let registry = Arc::clone(session.metrics_registry());
        let per_query: Vec<ExecMetrics> = GOLDEN_QUERIES
            .iter()
            .map(|sql| session.execute(sql).expect("golden query").metrics)
            .collect();

        let mut summed = ExecMetrics::default();
        per_query.iter().for_each(|m| summed.absorb(m));
        assert!(summed.rows_scanned > 0, "[{label}] vacuous replay");
        assert_eq!(summed.cache_hits > 0, rewritten, "[{label}] {summed:?}");
        for (series, want) in summed.counters() {
            assert_eq!(
                registry.counter_value(series, &[]),
                Some(want),
                "[{label}] {series} did not settle to the ExecMetrics sum"
            );
        }

        let log = std::fs::read_to_string(&log_path).expect("query log written");
        assert_eq!(
            log.lines().count(),
            per_query.len(),
            "[{label}] one line per query"
        );
        let summed_fields: Vec<_> = ExecMetrics::fields()
            .iter()
            .filter(|f| f.merge == Merge::Sum)
            .collect();
        for (line, metrics) in log.lines().zip(&per_query) {
            let line = maxson_json::parse(line).expect("log line parses");
            assert_eq!(line.get("slow").and_then(|s| s.as_bool()), Some(false));
            let counters = line.get("counters").expect("counters object");
            assert_eq!(
                counters.as_object().map(<[_]>::len),
                Some(summed_fields.len()),
                "[{label}] a counters key no declared field accounts for"
            );
            for f in &summed_fields {
                let (key, want) = match f.get {
                    Get::Count(get) => (f.name.to_string(), get(metrics)),
                    Get::Time(get) => (format!("{}_us", f.name), get(metrics).as_micros() as u64),
                    Get::Ratio(_) => panic!("no summed ratio is declared: {}", f.name),
                };
                assert_eq!(
                    counters.get(&key).and_then(|v| v.as_i64()),
                    Some(want as i64),
                    "[{label}] query-log counter {key}"
                );
            }
        }
        std::fs::remove_file(&log_path).ok();

        if rewritten {
            continue;
        }
        // The server's STATS work totals and METRICS text are views over
        // the same registry, and the served text is well-formed.
        let mut server = Server::serve(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.query(GOLDEN_QUERIES[0]).expect("served query");
        let stats = client.stats().unwrap();
        let total = |series| registry.counter_value(series, &[]).unwrap();
        assert_eq!(stats.queries_ok, 1);
        assert_eq!(stats.nodes_skipped, total("maxson_nodes_skipped_total"));
        assert_eq!(stats.bitmap_builds, total("maxson_bitmap_builds_total"));
        assert_eq!(
            stats.bitmap_builds > 0,
            parser != JsonParserKind::Jackson,
            "[{label}]"
        );
        assert!(!stats.simd_kernel.is_empty(), "STATS names the kernel tier");
        let served = client.metrics().unwrap();
        assert!(served.contains("maxson_server_queries_total{status=\"ok\"} 1"));
        for sample in served.lines().filter(|l| !l.starts_with("# TYPE ")) {
            let value = sample.rsplit_once(' ').map(|(_, v)| v.parse::<f64>());
            assert!(
                matches!(value, Some(Ok(v)) if v.is_finite()),
                "malformed sample: {sample:?}"
            );
        }
        drop(client);
        server.stop();
    }
}

/// `db.t(id, payload)` over `files` part files of four `{"a": n}` rows,
/// opened to run one worker thread.
fn small_warehouse(name: &str, files: i64) -> (Session, PathBuf) {
    let root = temp_root(name);
    let config = Config {
        threads: Some(1),
        ..Config::from_env()
    };
    let mut session = Session::open_with(&root, config).unwrap();
    let parts: Vec<Vec<(i64, String)>> = (0..files)
        .map(|f| {
            (f * 4..(f + 1) * 4)
                .map(|n| (n, format!(r#"{{"a": {n}}}"#)))
                .collect()
        })
        .collect();
    support::json_table(&mut session, "db", "t", &parts, 4);
    (session, root)
}

/// The value of the unlabelled or labelled series `series` in a METRICS
/// text, if present.
fn exposed(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// Two warehouses in one process. A runs one midnight cycle, is served
/// with a rewriter from `MaxsonScanRewriter::open`, and answers three
/// rewritten queries and one bad one; B, served beside it by a server of
/// its own, answers five plain queries. Each server's STATS and METRICS
/// count its own warehouse's activity alone, its STATS quantiles are its
/// registry's histogram's, and B's registry holds nothing of A's.
#[test]
fn two_served_warehouses_charge_two_registries() {
    const SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t";
    let (mut a, root_a) = small_warehouse("two-a", 2);
    let (b, root_b) = small_warehouse("two-b", 3);
    support::cache_paths(&mut a, &root_a, &[("db", "t", "$.a")]);
    let a = support::install_rewriter(a);
    let config = ServerConfig::default();
    let mut server_a = Server::serve(a.clone(), "127.0.0.1:0", config.clone()).unwrap();
    let mut server_b = Server::serve(b.clone(), "127.0.0.1:0", config).unwrap();
    let mut client_a = Client::connect(server_a.addr()).unwrap();
    let mut client_b = Client::connect(server_b.addr()).unwrap();
    for _ in 0..3 {
        let result = client_a.query(SQL).unwrap();
        assert_eq!((result.rows.len(), result.metrics.parse_calls), (8, 0));
    }
    assert!(client_a.query("select nope from db.t").is_err());
    for _ in 0..5 {
        assert_eq!(client_b.query(SQL).unwrap().rows.len(), 12);
    }

    let stats = client_a.stats().unwrap();
    let metrics = client_a.metrics().unwrap();
    let registry = a.metrics_registry();
    assert_eq!((stats.queries_ok, stats.queries_err), (3, 1));
    let wall = registry
        .histogram_snapshot("maxson_server_query_wall_seconds", &[])
        .unwrap();
    assert_eq!(wall.count(), 4);
    assert_eq!(stats.p50_us, wall.quantile(0.5).as_micros() as u64);
    assert_eq!(stats.p99_us, wall.quantile(0.99).as_micros() as u64);
    let served = |text: &str, status: &str| {
        exposed(
            text,
            &format!("maxson_server_queries_total{{status=\"{status}\"}}"),
        )
    };
    assert_eq!(served(&metrics, "ok"), Some(3));
    assert_eq!(served(&metrics, "err"), Some(1));
    assert_eq!(
        exposed(&metrics, "maxson_rewrite_paths_total{outcome=\"hit\"}"),
        Some(3)
    );
    assert_eq!(exposed(&metrics, "maxson_midnight_cycles_total"), Some(1));
    // One permit per split task: two cache files per rewritten scan.
    assert_eq!(
        exposed(&metrics, "maxson_sched_acquires_total"),
        Some(3 * 2)
    );
    assert_eq!(metrics, registry.expose(), "METRICS is A's registry");

    let stats = client_b.stats().unwrap();
    let metrics = client_b.metrics().unwrap();
    assert_eq!((stats.queries_ok, stats.queries_err), (5, 0));
    assert_eq!(served(&metrics, "ok"), Some(5));
    assert_eq!(served(&metrics, "err"), None);
    assert_eq!(
        exposed(&metrics, "maxson_sched_acquires_total"),
        Some(5 * 3)
    );
    let registry = b.metrics_registry();
    for series in ["maxson_midnight_cycles_total", "maxson_rewrite_paths_total"] {
        assert!(!metrics.contains(series), "B's METRICS shows A's {series}");
    }
    assert_eq!(
        registry.counter_value("maxson_rewrite_paths_total", &[("outcome", "hit")]),
        None
    );
    assert_eq!(
        registry.counter_value("maxson_midnight_cycles_total", &[]),
        None
    );

    server_a.stop();
    server_b.stop();
    std::fs::remove_dir_all(&root_a).ok();
    std::fs::remove_dir_all(&root_b).ok();
}

/// Every knob at a non-default value comes back from `Session::config`,
/// the two setters perfbench still calls write through to it, and a
/// served connection's query-log line reports the thread count its
/// template was opened with.
#[test]
fn a_session_runs_and_reports_the_config_it_was_opened_with() {
    let root = temp_root("config");
    let dir = root.with_extension("files");
    std::fs::create_dir_all(&dir).unwrap();
    let value = |var: &str| -> String {
        match var {
            "MAXSON_THREADS" => "3".into(),
            "MAXSON_PARSER" => "tape".into(),
            "MAXSON_META_CACHE_BYTES" => "4096".into(),
            "MAXSON_TRACE" => dir.join("trace.json").display().to_string(),
            "MAXSON_QUERY_LOG" => dir.join("q.jsonl").display().to_string(),
            "MAXSON_SLOW_MS" => "25".into(),
            "MAXSON_RESULT_CACHE_MB" => "8".into(),
            other => panic!("no case for knob {other}"),
        }
    };
    for (var, _, _) in Config::knobs() {
        let raw = value(var);
        let config = Config::from_lookup(|name| (name == var).then(|| raw.clone()));
        assert_ne!(
            config,
            Config::default(),
            "{var}={raw} is not a non-default value"
        );
        let session = Session::open_with(&root, config.clone()).unwrap();
        assert_eq!(session.config(), &config, "{var}={raw}");
        assert_eq!(
            session.clone().config(),
            &config,
            "a clone runs the same {var}"
        );
    }

    let mut session = Session::open_with(&root, Config::default()).unwrap();
    session.set_threads(Some(5));
    assert_eq!(session.config().threads, Some(5));
    session.set_result_cache(Some(4));
    assert_eq!(session.config().result_cache_mb, Some(4));
    assert_eq!(session.reuse_stats().unwrap().budget_bytes, 4 << 20);
    session.set_result_cache(None);
    assert_eq!(session.config().result_cache_mb, None);
    assert!(session.reuse_stats().is_none());
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&dir).ok();

    for threads in [1, 2] {
        let root = temp_root(&format!("served-config-{threads}"));
        let log_path = temp_log(&format!("served-config-{threads}"));
        let config = Config {
            threads: Some(threads),
            query_log: Some(log_path.clone()),
            ..Config::from_env()
        };
        let mut template = Session::open_with(&root, config).unwrap();
        let docs: Vec<(i64, String)> = (0..8).map(|n| (n, format!(r#"{{"a": {n}}}"#))).collect();
        support::json_table(&mut template, "db", "t", &[docs], 4);
        let mut server = Server::serve(template, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.query("select id from db.t").unwrap().rows.len(), 8);
        drop(client);
        server.stop();
        let log = std::fs::read_to_string(&log_path).expect("query log written");
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1, "{log}");
        let line = maxson_json::parse(lines[0]).expect("log line parses");
        assert_eq!(
            line.get("threads").and_then(|t| t.as_i64()),
            Some(threads as i64),
            "served under a template opened with {threads} threads: {log}"
        );
        std::fs::remove_file(&log_path).ok();
        std::fs::remove_dir_all(&root).ok();
    }
}
