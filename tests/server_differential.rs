//! Differential tests proving the query server returns byte-identical
//! results to serial in-process execution.
//!
//! For every cell of the {1, 4 engine threads} x {Jackson, Mison, Tape}
//! matrix: a serial single-`Session` run of the golden rewriter queries
//! (bench-data warehouse) and a NoBench workload (temp warehouse) produces
//! the reference rendering; then 8 concurrent clients replay the same
//! query set against one server over the same warehouse, each starting at
//! a different offset so in-flight queries genuinely interleave. Every
//! served result must render byte-identically to the serial reference,
//! and row counts must match cell by cell.

use std::path::PathBuf;
use std::sync::Arc;

use maxson_datagen::NobenchGenerator;
use maxson_engine::{JsonParserKind, Session};
use maxson_server::{Client, Server, ServerConfig};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};

const CLIENTS: usize = 8;
const THREAD_COUNTS: [usize; 2] = [1, 4];
const PARSERS: [JsonParserKind; 3] = [
    JsonParserKind::Jackson,
    JsonParserKind::Mison,
    JsonParserKind::Tape,
];

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!(
        "maxson-srvdiff-{}-{nanos}-{name}",
        std::process::id()
    ))
}

/// The golden rewriter queries from PR 1 (see tests/rewriter_golden.rs).
const GOLDEN_QUERIES: [&str; 4] = [
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f10') as f10 from mydb.q2",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select get_json_object(payload, '$.f12') as f12 from mydb.q2",
];

const NOBENCH_QUERIES: [&str; 5] = [
    "select get_json_object(payload, '$.str1') as s1, \
     get_json_object(payload, '$.nested_obj.num') as nn from nb.docs",
    "select id, get_json_object(payload, '$.num') as num from nb.docs \
     where get_json_object(payload, '$.bool') = 'true' and id < 200",
    "select count(*), sum(get_json_object(payload, '$.num')), \
     avg(get_json_object(payload, '$.num')) from nb.docs",
    "select get_json_object(payload, '$.str2') as grp, count(*), \
     max(get_json_object(payload, '$.num')) from nb.docs \
     group by get_json_object(payload, '$.str2')",
    "select id from nb.docs order by id desc limit 7",
];

/// Build a NoBench table: `rows` seeded JSON documents over `files` splits.
fn nobench_table(name: &str, rows: u64, files: u64) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("nb", "docs", schema, 0).unwrap();
    let mut generator = NobenchGenerator::new(42);
    let per_file = rows / files;
    for f in 0..files {
        let rows: Vec<Vec<Cell>> = (f * per_file..(f + 1) * per_file)
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
    root
}

/// Serial reference renderings for `queries` under one parser/thread combo.
fn serial_reference(
    root: &PathBuf,
    queries: &[&str],
    parser: JsonParserKind,
    threads: usize,
) -> Vec<String> {
    let mut session = Session::open(root).unwrap();
    session.set_parser_kind(parser);
    session.set_threads(Some(threads));
    queries
        .iter()
        .map(|sql| {
            session
                .execute(sql)
                .unwrap_or_else(|e| panic!("serial reference failed for {sql}: {e}"))
                .to_display_string()
        })
        .collect()
}

/// Serve `root` and have `CLIENTS` concurrent clients replay `queries`,
/// asserting every served rendering equals the serial reference.
fn assert_served_identical(
    root: &PathBuf,
    queries: &'static [&'static str],
    parser: JsonParserKind,
    threads: usize,
    label: &str,
) {
    let reference = Arc::new(serial_reference(root, queries, parser, threads));

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
            let reference = reference.clone();
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
                    assert_eq!(
                        result.to_display_string(),
                        reference[q],
                        "[{label}] client {c} diverged from serial reference on query {q}"
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

#[test]
fn golden_queries_served_identical_across_matrix() {
    let root = bench_data_root();
    for parser in PARSERS {
        for threads in THREAD_COUNTS {
            assert_served_identical(&root, &GOLDEN_QUERIES, parser, threads, "golden");
        }
    }
}

#[test]
fn nobench_workload_served_identical_across_matrix() {
    let root = nobench_table("nobench", 240, 4);
    for parser in PARSERS {
        for threads in THREAD_COUNTS {
            assert_served_identical(&root, &NOBENCH_QUERIES, parser, threads, "nobench");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The metadata cache actually carries the concurrent load: once one query
/// has warmed the footers, a storm of concurrent clients adds hits only.
/// (Cold misses are not bounded by the file count — two connection threads
/// can race on the same cold footer and each record a miss — so the
/// invariant is phrased as a delta over a warmed cache.)
#[test]
fn served_load_hits_the_shared_metadata_cache() {
    let root = nobench_table("metacache", 120, 3);
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
