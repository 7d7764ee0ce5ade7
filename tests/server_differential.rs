//! The query server returns what the oracle returns while concurrent
//! clients interleave.
//!
//! For every cell of the {1, 4 engine threads} x {Jackson, Mison, Tape}
//! matrix, 8 concurrent clients replay the golden rewriter statements
//! (bench-data warehouse) and five NoBench statements (temp warehouse)
//! against one server, each starting at a different offset so in-flight
//! queries genuinely interleave. Every served result must hold the
//! oracle's rows and render to the oracle's text.

mod support;

use std::path::Path;
use std::sync::Arc;

use maxson_engine::{Config, JsonParserKind, Session};
use maxson_server::{Client, Server, ServerConfig};
use support::cells::{assert_matches, PARSERS};
use support::oracle::{Answer, Oracle};
use support::{bench_data_root, GOLDEN_QUERIES, NOBENCH_QUERIES};

const CLIENTS: usize = 8;
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Serve `root` and have `CLIENTS` concurrent clients replay `queries`,
/// asserting every served result is the oracle's.
fn assert_served_identical(
    root: &Path,
    queries: &'static [&'static str],
    reference: &Arc<Vec<Answer>>,
    parser: JsonParserKind,
    threads: usize,
    label: &str,
) {
    let config = Config {
        parser,
        threads: Some(threads),
        ..Config::from_env()
    };
    let template = Session::open_with(root, config).unwrap();
    let mut server = Server::serve(
        template,
        "127.0.0.1:0",
        ServerConfig {
            permits: Some(4),
            result_cache_mb: None,
        },
    )
    .unwrap();
    let addr = server.addr();

    let label: Arc<str> = Arc::from(format!("{label}/{parser:?}/{threads}t"));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let reference = Arc::clone(reference);
            let label = label.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Rotate the starting query per client so different query
                // shapes overlap in flight.
                for k in 0..queries.len() {
                    let q = (c + k) % queries.len();
                    let result = client
                        .query(queries[q])
                        .unwrap_or_else(|e| panic!("[{label}] client {c} failed {q}: {e}"));
                    assert_matches(
                        &reference[q],
                        &result,
                        &format!("[{label}] client {c}, {q}"),
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client worker panicked");
    }

    // The load really went through the server, and nothing errored.
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(
        stats.queries_ok as usize,
        CLIENTS * queries.len(),
        "[{label}] lost queries: {stats:?}"
    );
    assert_eq!(stats.queries_err, 0, "[{label}] spurious errors: {stats:?}");
    server.stop();
}

/// Every cell of the matrix over `root`.
fn assert_matrix(root: &Path, queries: &'static [&'static str], label: &str) {
    let oracle = Oracle::new(root);
    let reference = Arc::new(queries.iter().map(|q| oracle.answer(q).unwrap()).collect());
    for parser in PARSERS {
        for threads in THREAD_COUNTS {
            assert_served_identical(root, queries, &reference, parser, threads, label);
        }
    }
}

#[test]
fn golden_queries_served_identical_across_matrix() {
    assert_matrix(&bench_data_root(), &GOLDEN_QUERIES, "golden");
}

#[test]
fn nobench_workload_served_identical_across_matrix() {
    let root = support::nobench_table("nobench", 240, 4);
    assert_matrix(&root, &NOBENCH_QUERIES[..5], "nobench");
    std::fs::remove_dir_all(&root).ok();
}

/// Serve `template` and assert the metadata cache carries the concurrent
/// load: once a serial pass over `queries` has warmed the footers, a storm
/// of concurrent clients adds hits only. (Cold misses are not bounded by
/// the file count — two connection threads can race on the same cold
/// footer and each record a miss — so the invariant is phrased as a delta
/// over a warmed cache.)
fn assert_steady_load_hits_footer_cache(template: Session, queries: &'static [&str], label: &str) {
    let mut server = Server::serve(template, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Serial warmup: one pass over the statements pulls every footer in.
    let mut warm = Client::connect(addr).unwrap();
    for sql in queries {
        warm.query(sql).expect("warmup query");
    }
    let before = warm.stats().unwrap();
    assert!(
        before.meta_cache_misses > 0,
        "[{label}] warmup never hit storage"
    );

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for k in 0..4 * queries.len() {
                    client
                        .query(queries[(c + k) % queries.len()])
                        .expect("query");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = warm.stats().unwrap();
    assert!(
        stats.meta_cache_hits > before.meta_cache_hits,
        "[{label}] concurrent load never touched the footer cache: {stats:?}"
    );
    assert_eq!(
        stats.meta_cache_misses, before.meta_cache_misses,
        "[{label}] footer fetched from storage after warmup: {stats:?}"
    );
    server.stop();
}

/// The shared footer cache carries a steady served phase on a plain
/// warehouse and on the committed one with the Maxson rewriter installed,
/// whose scans also open cache-table footers through it.
#[test]
fn served_load_hits_the_shared_metadata_cache() {
    let root = support::nobench_table("metacache", 120, 3);
    let plain = Session::open(&root).unwrap();
    assert_steady_load_hits_footer_cache(plain, &NOBENCH_QUERIES[1..2], "plain");
    std::fs::remove_dir_all(&root).ok();

    // Each session has its own footer cache, so the probe leaves the
    // served session's cold.
    let probe = support::rewritten_session(&bench_data_root());
    let cached = probe.execute(GOLDEN_QUERIES[0]).unwrap().metrics.cache_hits;
    assert!(cached > 0, "the rewriter did not rewrite the probe");
    let rewritten = support::rewritten_session(&bench_data_root());
    assert_steady_load_hits_footer_cache(rewritten, &GOLDEN_QUERIES, "rewritten");
}
