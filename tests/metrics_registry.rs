//! Metric-registry contracts: concurrent charges settle exactly, live
//! snapshots never run backwards, and the text exposition format is
//! pinned byte-for-byte by a golden.
//!
//! The concurrency check is a seed-replayable property test (replay a
//! failure with `MAXSON_TESTKIT_SEED`): each scenario derives one
//! deterministic op stream per thread from the scenario seed, runs the
//! streams concurrently at 1, 4, and 8 threads, and asserts that every
//! counter equals the serially-replayed expectation while a sampler
//! thread observes only monotonically non-decreasing values.
//!
//! The README's per-query metric catalogue is rendered from the metric
//! declaration (`ExecMetrics::fields`); the last test fails when the two
//! differ, so a field cannot land undocumented.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use maxson_engine::Registry;
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::rng::Rng;

/// The fixed series the op streams charge.
const COUNTERS: [(&str, &[(&str, &str)]); 4] = [
    ("reg_ops_total", &[("kind", "read")]),
    ("reg_ops_total", &[("kind", "write")]),
    ("reg_bytes_total", &[]),
    ("reg_retries_total", &[("stage", "parse")]),
];

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    ops_per_thread: usize,
}

fn scenario_gen() -> Gen<Scenario> {
    Gen::tuple2(Gen::u64_any(), Gen::usize_in(40..=160)).map(|(seed, ops_per_thread)| Scenario {
        seed,
        ops_per_thread,
    })
}

/// One thread's deterministic op stream: `(counter index, amount)` pairs
/// plus histogram observations every 8th op.
fn op_stream(seed: u64, thread: u64, ops: usize) -> Vec<(usize, u64)> {
    let mut rng = Rng::seed_from_u64(seed ^ (thread.wrapping_mul(0x9E3779B97F4A7C15)));
    (0..ops)
        .map(|_| {
            (
                rng.gen_range(0..=COUNTERS.len() - 1),
                rng.gen_range(1..=5u64),
            )
        })
        .collect()
}

fn run_scenario(s: &Scenario, threads: u64) -> Result<(), String> {
    let registry = Arc::new(Registry::new());

    // Serial expectation, independent of interleaving.
    let mut expected = [0u64; COUNTERS.len()];
    let mut expected_observations = 0u64;
    for t in 0..threads {
        for (i, (idx, amount)) in op_stream(s.seed, t, s.ops_per_thread).iter().enumerate() {
            expected[*idx] += amount;
            if i % 8 == 0 {
                expected_observations += 1;
            }
        }
    }

    // Sampler thread: watches the registry while writers hammer it.
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snapshots = Vec::new();
            while !done.load(Ordering::Acquire) {
                snapshots.push(registry.sample());
                std::thread::yield_now();
            }
            snapshots.push(registry.sample());
            snapshots
        })
    };

    let writers: Vec<_> = (0..threads)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let stream = op_stream(s.seed, t, s.ops_per_thread);
            std::thread::spawn(move || {
                for (i, (idx, amount)) in stream.into_iter().enumerate() {
                    let (name, labels) = COUNTERS[idx];
                    registry.counter(name, labels).add(amount);
                    if i % 8 == 0 {
                        registry
                            .histogram("reg_wall_seconds", &[])
                            .observe(Duration::from_micros(amount * 10));
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().map_err(|_| "writer panicked".to_string())?;
    }
    done.store(true, Ordering::Release);
    let snapshots = sampler.join().map_err(|_| "sampler panicked".to_string())?;

    // Settlement: no lost updates, no phantom ones.
    for (i, (name, labels)) in COUNTERS.iter().enumerate() {
        let got = registry.counter_value(name, labels);
        if got != Some(expected[i]) {
            return Err(format!(
                "{name}{labels:?} settled at {got:?}, expected {}",
                expected[i]
            ));
        }
    }
    let hist = registry
        .histogram_snapshot("reg_wall_seconds", &[])
        .ok_or("histogram missing")?;
    if hist.count() != expected_observations {
        return Err(format!(
            "histogram count {} != expected {expected_observations}",
            hist.count()
        ));
    }

    // Monotonicity: counters and histogram counts never run backwards
    // across successive live snapshots.
    let mut last: std::collections::BTreeMap<String, u64> = Default::default();
    for (si, snap) in snapshots.iter().enumerate() {
        for (series, value) in snap {
            if let Some(prev) = last.get(series) {
                if value < prev {
                    return Err(format!(
                        "snapshot {si}: series {series} ran backwards ({prev} -> {value})"
                    ));
                }
            }
            last.insert(series.clone(), *value);
        }
    }
    Ok(())
}

#[test]
fn concurrent_charges_settle_and_snapshots_are_monotone() {
    let cfg = Config::with_cases(12);
    check(
        "metrics_registry_settlement",
        &cfg,
        &scenario_gen(),
        |scenario| {
            for threads in [1u64, 4, 8] {
                run_scenario(scenario, threads).map_err(|e| format!("{threads} threads: {e}"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn type_conflicts_yield_detached_handles_not_panics() {
    let registry = Registry::new();
    registry.counter("mixed_series", &[]).add(2);
    // Same key, different type: the handle must be detached (its charges
    // invisible) and the registered counter untouched.
    registry.gauge("mixed_series", &[]).set(99);
    registry
        .histogram("mixed_series", &[])
        .observe(Duration::from_millis(1));
    assert_eq!(registry.counter_value("mixed_series", &[]), Some(2));
    assert!(registry.expose().contains("mixed_series 2"));
}

#[test]
fn exposition_matches_golden() {
    let registry = Registry::new();
    registry
        .counter("app_requests_total", &[("route", "/q"), ("method", "GET")])
        .add(3);
    registry
        .counter("app_requests_total", &[("route", "/s")])
        .inc();
    registry.gauge("app_depth", &[]).set(7);
    let wall = registry.histogram("app_wall_seconds", &[]);
    wall.observe(Duration::from_micros(100));
    wall.observe(Duration::from_micros(1000));
    wall.observe(Duration::from_micros(1000));
    wall.observe(Duration::from_micros(5000));
    registry
        .counter("esc_total", &[("msg", "a\"b\\c\nd")])
        .inc();
    registry.record_path("db.t", "$.a", 5);
    registry.record_path("db.t", "$.b", 2);

    let golden = concat!(
        "# TYPE app_depth gauge\n",
        "app_depth 7\n",
        "# TYPE app_requests_total counter\n",
        "app_requests_total{method=\"GET\",route=\"/q\"} 3\n",
        "app_requests_total{route=\"/s\"} 1\n",
        "# TYPE app_wall_seconds histogram\n",
        "app_wall_seconds_bucket{le=\"0.000128\"} 1\n",
        "app_wall_seconds_bucket{le=\"0.001024\"} 3\n",
        "app_wall_seconds_bucket{le=\"0.008192\"} 4\n",
        "app_wall_seconds_bucket{le=\"+Inf\"} 4\n",
        "app_wall_seconds_sum 0.0071\n",
        "app_wall_seconds_count 4\n",
        "# TYPE esc_total counter\n",
        "esc_total{msg=\"a\\\"b\\\\c\\nd\"} 1\n",
        "# TYPE maxson_hot_path_extracts gauge\n",
        "maxson_hot_path_extracts{path=\"$.a\",table=\"db.t\"} 5\n",
        "maxson_hot_path_extracts{path=\"$.b\",table=\"db.t\"} 2\n",
    );
    assert_eq!(registry.expose(), golden);
}

/// A one-thread server runs its split tasks inline on the connection's
/// thread, and still brackets each with a fair-share permit: the permit
/// counter in the served exposition moves by at least the split count.
#[test]
fn one_thread_server_takes_a_scheduler_permit_per_split() {
    use maxson_engine::Session;
    use maxson_server::{Client, Server, ServerConfig};
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, ColumnType, Field, Schema};

    const FILES: u64 = 3;
    let root = support::temp_root("sched");
    let config = maxson_engine::Config {
        threads: Some(1),
        ..maxson_engine::Config::from_env()
    };
    let mut template = Session::open_with(&root, config).unwrap();
    {
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        let mut catalog = template.catalog_mut();
        let table = catalog.create_table("db", "t", schema, 0).unwrap();
        for f in 0..FILES as i64 {
            table
                .append_file(&[vec![Cell::Int(f)]], WriteOptions::default(), 1)
                .unwrap();
        }
    }
    let mut server = Server::serve(
        template,
        "127.0.0.1:0",
        ServerConfig {
            permits: Some(4),
            result_cache_mb: None,
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let acquires = |client: &mut Client| -> u64 {
        let text = client.metrics().unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix("maxson_sched_acquires_total "))
            .expect("permit counter is registered with the scheduler")
            .parse()
            .unwrap()
    };
    let before = acquires(&mut client);
    assert_eq!(
        client.query("select id from db.t").unwrap().rows.len() as u64,
        FILES
    );
    let taken = acquires(&mut client) - before;
    assert!(taken >= FILES, "{taken} permits for {FILES} splits");
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

/// The README "Observability" catalogue is the declaration, rendered. On a
/// mismatch the failure message is the block to paste between the markers.
#[test]
fn readme_metric_catalogue_matches_the_declaration() {
    use maxson_engine::metrics::{Get, Merge};
    use maxson_engine::ExecMetrics;

    let mut rendered = String::from(
        "| Field | Label | Unit | Merge | Work counter | Registry series | Help |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for f in ExecMetrics::fields() {
        let merge = match f.merge {
            Merge::Sum => "sum",
            Merge::Max => "max",
            Merge::Session => "set by session",
        };
        let unit = match f.get {
            Get::Count(_) => "count",
            Get::Time(_) => "time",
            Get::Ratio(_) => "ratio",
        };
        let series = f.series.map_or("—".to_string(), |s| format!("`{s}`"));
        rendered.push_str(&format!(
            "| `{}` | `{}` | {unit} | {merge} | {} | {series} | {} |\n",
            f.name,
            f.label,
            if f.work { "yes" } else { "" },
            f.help
        ));
    }

    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let (begin, end) = (
        "<!-- metric-catalogue:begin -->\n",
        "<!-- metric-catalogue:end -->",
    );
    let block = readme
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end))
        .map(|(block, _)| block)
        .expect("README.md has the metric-catalogue markers");
    assert!(
        block == rendered,
        "README metric catalogue is stale; replace the block between the markers with:\n{rendered}"
    );
}
