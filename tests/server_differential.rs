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

use maxson_engine::{JsonParserKind, Session};
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
    let mut template = Session::open(root).unwrap();
    template.set_parser_kind(parser);
    let mut server = Server::serve(
        template,
        "127.0.0.1:0",
        ServerConfig {
            threads: Some(threads),
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

/// The metadata cache actually carries the concurrent load: once one query
/// has warmed the footers, a storm of concurrent clients adds hits only.
/// (Cold misses are not bounded by the file count — two connection threads
/// can race on the same cold footer and each record a miss — so the
/// invariant is phrased as a delta over a warmed cache.)
#[test]
fn served_load_hits_the_shared_metadata_cache() {
    let root = support::nobench_table("metacache", 120, 3);
    let mut server = Server::start(&root, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Serial warmup: one pass over the table pulls every footer in.
    let mut warm = Client::connect(addr).unwrap();
    warm.query(NOBENCH_QUERIES[1]).expect("warmup query");
    let before = warm.stats().unwrap();
    assert!(before.meta_cache_misses > 0, "warmup never hit storage");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..4 {
                    client.query(NOBENCH_QUERIES[1]).expect("query");
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
        "concurrent load never touched the footer cache: {stats:?}"
    );
    assert_eq!(
        stats.meta_cache_misses, before.meta_cache_misses,
        "footer fetched from storage after warmup: {stats:?}"
    );
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}
