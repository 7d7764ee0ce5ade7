//! Server smoke check, run by `ci.sh`: build a throwaway warehouse, start
//! the server, hammer it with 8 concurrent clients, shut down cleanly, and
//! prove no thread leaked. Exits non-zero on any violation.

use std::sync::Arc;

use maxson_engine::Session;
use maxson_server::{Client, Server, ServerConfig, ServerError};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};

const SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t \
                   where get_json_object(payload, '$.b') = 3";

fn temp_root() -> std::path::PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-smoke-{}-{nanos}", std::process::id()))
}

/// Threads in this process right now (Linux: /proc/self/task entries).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .unwrap_or(1)
}

fn build_warehouse(root: &std::path::Path) -> Session {
    let mut session = Session::open(root).expect("open warehouse");
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .expect("schema");
    let mut catalog = session.catalog_mut();
    let table = catalog
        .create_table("db", "t", schema, 0)
        .expect("create table");
    for f in 0..4i64 {
        let rows: Vec<Vec<Cell>> = (0..32)
            .map(|i| {
                let n = f * 32 + i;
                vec![
                    Cell::Int(n),
                    Cell::from(format!(r#"{{"a": {n}, "b": {}}}"#, n % 7)),
                ]
            })
            .collect();
        table
            .append_file(&rows, WriteOptions::default(), 1)
            .expect("append");
    }
    drop(catalog);
    session
}

fn main() {
    let root = temp_root();
    std::fs::create_dir_all(&root).expect("mkdir");
    let session = build_warehouse(&root);

    let baseline_threads = thread_count();
    let mut server =
        Server::serve(session, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let addr = server.addr();
    println!("server_smoke: listening on {addr}");

    // Serial reference: one client, one session's worth of truth.
    let reference = {
        let mut c = Client::connect(addr).expect("connect reference");
        c.query(SQL).expect("reference query").to_display_string()
    };

    // 8 concurrent clients, each replaying the same query several times.
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.ping().expect("ping");
                for _ in 0..5 {
                    let got = c.query(SQL).expect("query").to_display_string();
                    assert_eq!(got, *reference, "client {i} diverged from reference");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // A statement nested past the parser's depth bound is answered ERR,
    // and the same connection serves the next query.
    let mut c = Client::connect(addr).expect("connect deep");
    let nest = "(".repeat(1_000) + "id" + &")".repeat(1_000);
    let refused = c.query(&format!("select {nest} from db.t"));
    assert!(
        matches!(refused, Err(ServerError::Remote(_))),
        "1,000 parentheses not refused"
    );
    let again = c
        .query(SQL)
        .expect("query after an ERR")
        .to_display_string();
    assert_eq!(again, *reference, "the connection diverged after an ERR");

    // Counters must reflect the load: 1 reference + 8 * 5 + 1 queries
    // served, and the refused one.
    let stats = {
        let mut c = Client::connect(addr).expect("connect stats");
        c.stats().expect("stats")
    };
    assert_eq!(stats.queries_ok, 42, "unexpected query count: {stats:?}");
    assert_eq!(stats.queries_err, 1, "unexpected errors: {stats:?}");
    let qps = (stats.queries_ok + stats.queries_err) as f64 * 1e6 / stats.uptime_us.max(1) as f64;
    println!(
        "server_smoke: {} queries ok, qps={qps:.0}, p99={}us, meta hits={} misses={}",
        stats.queries_ok, stats.p99_us, stats.meta_cache_hits, stats.meta_cache_misses
    );

    // Clean shutdown joins every thread the server spawned.
    server.stop();
    // Give the OS a beat to reap joined threads before counting.
    for _ in 0..50 {
        if thread_count() <= baseline_threads {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let after = thread_count();
    assert!(
        after <= baseline_threads,
        "leaked threads: {baseline_threads} before, {after} after"
    );

    std::fs::remove_dir_all(&root).ok();
    println!("server_smoke: clean shutdown, zero leaked threads");
}
