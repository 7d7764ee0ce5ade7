//! Seed-replayable stress/soak test for the query server.
//!
//! Each generated scenario is a randomized client mix — queries (valid and
//! invalid), pings, stats probes, reconnects, and rude mid-query
//! disconnects — run against one server. The invariant checker then
//! audits the shared state:
//!
//! * server counters settle to exactly the number of executed queries
//!   (client-observed outcomes plus abandoned in-flight queries);
//! * metadata-cache counters are monotone, and hits dominate after
//!   warmup (cold misses are bounded by the file count);
//! * LRU telemetry stays sane: resident files never exceed the warehouse
//!   file count, resident bytes are positive while files are resident;
//! * no query lease leaks (`active_queries` returns to zero).
//!
//! Failures replay exactly via `MAXSON_TESTKIT_SEED` (the testkit prop
//! harness prints the seed on failure).

mod support;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use support::temp_root;

use maxson_engine::Session;
use maxson_server::wire::{self, OpCode, Writer, MAGIC};
use maxson_server::{Client, Server, ServerConfig};
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::Rng;

const FILES: u64 = 3;

const QUERIES: [&str; 3] = [
    "select id, get_json_object(payload, '$.a') as a from db.t where id < 10",
    "select count(*), sum(get_json_object(payload, '$.a')) from db.t",
    "select get_json_object(payload, '$.b') as b from db.t \
     where get_json_object(payload, '$.a') > 50",
];
const BAD_QUERY: &str = "select boom from no.such_table";

/// The stress warehouse, opened to run two worker threads per query.
fn build_warehouse(name: &str) -> (Session, PathBuf) {
    let root = temp_root(name);
    let config = maxson_engine::Config {
        threads: Some(2),
        ..maxson_engine::Config::from_env()
    };
    let mut session = Session::open_with(&root, config).unwrap();
    let files: Vec<Vec<(i64, String)>> = (0..FILES as i64)
        .map(|f| {
            (f * 32..(f + 1) * 32)
                .map(|n| (n, format!(r#"{{"a": {n}, "b": "x{}"}}"#, n % 5)))
                .collect()
        })
        .collect();
    support::json_table(&mut session, "db", "t", &files, 1024);
    (session, root)
}

/// One client's tally of what it definitely made the server execute.
#[derive(Default)]
struct Tally {
    ok: u64,
    err: u64,
    /// Complete QUERY frames fired and abandoned: the server executes and
    /// counts them, but nobody reads the response.
    abandoned: u64,
}

/// Drive one client through `ops` random actions.
fn run_client(addr: std::net::SocketAddr, seed: u64, ops: u32) -> Tally {
    let mut rng = Rng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..ops {
        match rng.below(100) {
            // Mostly queries, a few of them invalid on purpose.
            0..=59 => {
                let invalid = rng.gen_bool(0.15);
                let sql = if invalid {
                    BAD_QUERY
                } else {
                    QUERIES[rng.below(QUERIES.len() as u64) as usize]
                };
                match client.query(sql) {
                    Ok(_) => tally.ok += 1,
                    Err(_) => tally.err += 1,
                }
            }
            60..=69 => client.ping().expect("ping"),
            70..=79 => {
                client.stats().expect("stats");
            }
            80..=89 => {
                // Reconnect: drop this connection between frames.
                client = Client::connect(addr).expect("reconnect");
            }
            _ => {
                // Rude client: fire a complete query frame over a raw
                // socket and hang up without reading the response.
                let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
                let mut w = Writer::new();
                w.u8(MAGIC).u8(OpCode::Query as u8).str(QUERIES[0]);
                wire::write_frame(&mut raw, &w.into_bytes()).expect("raw frame");
                drop(raw);
                tally.abandoned += 1;
            }
        }
    }
    tally
}

/// Poll `probe` until it returns true or ~2s elapse.
fn settles(mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if probe() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn randomized_client_mix_preserves_server_invariants() {
    let scenario = Gen::tuple2(
        Gen::u64_any(), // master seed for per-client rngs
        Gen::tuple2(
            Gen::usize_in(2..=5),  // concurrent clients
            Gen::usize_in(8..=24), // ops per client
        ),
    );
    check(
        "server_stress",
        &Config::with_cases(4),
        &scenario,
        |&(master, (clients, ops))| {
            let (template, root) = build_warehouse("mix");
            let admin = template.clone();
            let mut server = Server::serve(
                template,
                "127.0.0.1:0",
                ServerConfig {
                    permits: Some(4),
                    result_cache_mb: None,
                },
            )
            .map_err(|e| e.to_string())?;
            let addr = server.addr();

            // Warm the metadata cache once so hit-domination below is
            // about steady state, not the cold start.
            admin.execute(QUERIES[0]).map_err(|e| e.to_string())?;
            let meta0 = admin.catalog().meta_cache().stats();

            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let seed = master ^ (c as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    std::thread::spawn(move || run_client(addr, seed, ops as u32))
                })
                .collect();
            let mut observed = Tally::default();
            for w in workers {
                let t = w.join().map_err(|_| "client worker panicked".to_string())?;
                observed.ok += t.ok;
                observed.err += t.err;
                observed.abandoned += t.abandoned;
            }

            // Counters settle to exactly the executed-query total:
            // abandoned frames are executed (and counted) server-side even
            // though no client read the answer.
            let expected_total = observed.ok + observed.err + observed.abandoned;
            let mut last = Client::connect(addr).map_err(|e| e.to_string())?;
            let mut stats = last.stats().map_err(|e| e.to_string())?;
            let settled = settles(|| {
                stats = last.stats().expect("stats");
                stats.queries_ok + stats.queries_err == expected_total
            });
            maxson_testkit::prop_assert!(
                settled,
                "counters never settled: observed ok={} err={} abandoned={}, server {stats:?}",
                observed.ok,
                observed.err,
                observed.abandoned
            );
            maxson_testkit::prop_assert!(
                stats.queries_err >= observed.err,
                "server err counter below client-observed errors: {stats:?}"
            );
            maxson_testkit::prop_assert_eq!(
                stats.active_queries,
                0,
                "query lease leaked: {:?}",
                stats
            );

            // Metadata-cache counters: monotone, hits dominating, cold
            // misses bounded by the file count (warehouse has FILES files
            // plus its catalog-open probes, all warmed by `meta0`).
            let meta1 = admin.catalog().meta_cache().stats();
            maxson_testkit::prop_assert!(
                meta1.hits >= meta0.hits && meta1.misses >= meta0.misses,
                "meta-cache counters went backwards: {:?} -> {:?}",
                meta0,
                meta1
            );
            if observed.ok > 0 {
                maxson_testkit::prop_assert!(
                    meta1.hits > meta0.hits,
                    "queries ran but no footer hits: {:?} -> {:?}",
                    meta0,
                    meta1
                );
                maxson_testkit::prop_assert_eq!(
                    meta1.misses,
                    meta0.misses,
                    "post-warmup footer fetch missed: {:?} -> {:?}",
                    meta0,
                    meta1
                );
            }

            // LRU telemetry stays physically plausible.
            maxson_testkit::prop_assert!(
                meta1.resident_files <= FILES,
                "more resident footers than files: {:?}",
                meta1
            );
            maxson_testkit::prop_assert!(
                meta1.resident_files == 0 || meta1.resident_bytes > 0,
                "resident files with zero bytes: {:?}",
                meta1
            );

            server.stop();
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}
