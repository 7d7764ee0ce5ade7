//! Failure-injection tests: corruption, truncation, and concurrent-update
//! hazards must surface as errors (or safe fallbacks), never as wrong
//! results. Malformed JSON *payloads* are data, not failures: every parser
//! mode must keep executing (`Ok`, null cells, no panic) when a document
//! is truncated or byte-mutated, and the Jackson and tape parsers return
//! what the oracle returns for malformed documents.

mod support;

use maxson::mpjp::PredictorKind;
use maxson::{CacheRegistry, MaxsonPipeline, PipelineConfig};
use maxson_datagen::tables::{query_paths, schema_paths, table_specs};
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::sql::parse_select;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Catalog, Cell, ColumnType, Field, Schema};
use maxson_testkit::corpus;
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::Rng;
use std::path::PathBuf;
use support::cells::{assert_matches, PARSERS};
use support::oracle::Oracle;
use support::sqlgen::{render, Generator, Source};
use support::{rewritten_session, temp_root};

/// `db.t(id, payload)` holding `{"a": i}` for `0..rows`, one split.
fn a_table(session: &mut Session, rows: i64, row_group_size: usize) {
    let docs: Vec<(i64, String)> = (0..rows).map(|i| (i, format!(r#"{{"a": {i}}}"#))).collect();
    support::json_table(session, "db", "t", &[docs], row_group_size);
}

fn cached_session(name: &str) -> (Session, PathBuf) {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    a_table(&mut session, 40, 10);
    support::cache_paths(&mut session, &root, &[("db", "t", "$.a")]);
    (session, root)
}

const SQL: &str = "select get_json_object(payload, '$.a') as a from db.t";

#[test]
fn corrupt_cache_file_fails_loudly_not_wrong() {
    let (session, root) = cached_session("corrupt-cache");
    // Sanity: cache serves.
    let ok = session.execute(SQL).unwrap();
    assert_eq!(ok.metrics.parse_calls, 0);

    // Flip bytes in the middle of the cache part file.
    let cache_file = root
        .join("__maxson_cache")
        .join("db__t")
        .join("part-00000.norc");
    let mut bytes = std::fs::read(&cache_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(&cache_file, &bytes).unwrap();

    // A fresh session + rewriter must surface the corruption as an error —
    // never silently return stale/garbage values.
    let s2 = rewritten_session(&root);
    let result = s2.execute(SQL);
    assert!(result.is_err(), "corrupt cache file must error");
    let msg = result.unwrap_err().to_string();
    assert!(
        msg.contains("corrupt") || msg.contains("checksum"),
        "unexpected error: {msg}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_cache_file_detected() {
    let (_, root) = cached_session("truncated-cache");
    let cache_file = root
        .join("__maxson_cache")
        .join("db__t")
        .join("part-00000.norc");
    let bytes = std::fs::read(&cache_file).unwrap();
    std::fs::write(&cache_file, &bytes[..bytes.len() / 2]).unwrap();
    let s2 = rewritten_session(&root);
    assert!(s2.execute(SQL).is_err());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_registry_is_an_error_not_a_silent_miss() {
    let (session, root) = cached_session("bad-registry");
    std::fs::write(
        root.join("__maxson_cache").join("registry.json"),
        "{not valid json",
    )
    .unwrap();
    assert!(maxson::rewriter::MaxsonScanRewriter::open(&session).is_err());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn missing_registry_means_no_rewrites() {
    let (_, root) = cached_session("no-registry");
    std::fs::remove_file(root.join("__maxson_cache").join("registry.json")).unwrap();
    let s2 = rewritten_session(&root);
    // No registry: all calls parse, results still correct.
    let result = s2.execute(SQL).unwrap();
    assert_eq!(result.rows.len(), 40);
    assert_eq!(result.metrics.parse_calls, 40);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deleted_cache_table_directory_fails_loudly() {
    let (_, root) = cached_session("deleted-dir");
    std::fs::remove_dir_all(root.join("__maxson_cache").join("db__t")).unwrap();
    let s2 = rewritten_session(&root);
    // The registry says cached, but the table is gone: must be an error.
    assert!(s2.execute(SQL).is_err());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn registry_round_trip_tolerates_empty_array() {
    let root = temp_root("empty-array");
    let catalog = Catalog::open(&root).unwrap();
    std::fs::create_dir_all(root.join("__maxson_cache")).unwrap();
    std::fs::write(root.join("__maxson_cache").join("registry.json"), "[]").unwrap();
    let reg = CacheRegistry::load(&catalog).unwrap();
    assert!(reg.is_empty());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn raw_table_shrunk_below_cache_is_misalignment_error() {
    // Simulate the forbidden case: the raw table was rewritten with fewer
    // rows than the cache file. The combiner must refuse to stitch.
    let (_, root) = cached_session("shrunk-raw");
    // Replace the raw part file with a shorter one, keeping the metadata
    // timestamp unchanged (sneaky out-of-band modification).
    let raw_dir = root.join("db").join("t");
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let short_rows: Vec<Vec<Cell>> = (0..5)
        .map(|i| vec![Cell::Int(i), Cell::from(format!(r#"{{"a": {i}}}"#))])
        .collect();
    maxson_storage::file::write_rows(
        raw_dir.join("part-00000.norc"),
        schema,
        &short_rows,
        WriteOptions::default(),
    )
    .unwrap();
    let s2 = rewritten_session(&root);
    // A cache-only read never touches the raw file, so use a query that
    // stitches raw and cached columns: the combiner must detect the
    // mismatch instead of stitching rows positionally out of step.
    let err = s2
        .execute("select id, get_json_object(payload, '$.a') as a from db.t")
        .unwrap_err()
        .to_string();
    assert!(err.contains("misalignment"), "got: {err}");
    std::fs::remove_dir_all(&root).ok();
}

/// A raw part file whose schema disagrees with its table's panics the
/// split task that reads it (a column index past the file's schema). The
/// cache build runs its `(table, split)` tasks on the engine's split pool,
/// so the panic comes back from `run_midnight_cycle` as an error naming the
/// table and the split — it used to unwind through the cycle, and through
/// a server thread that ran one — and the half-built cache table lists no
/// part file that was never written.
#[test]
fn poisoned_raw_split_fails_the_cache_build_with_table_and_split() {
    let root = temp_root("poisoned-split");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    {
        let mut catalog = session.catalog_mut();
        let t = catalog.create_table("db", "t", schema, 0).unwrap();
        for part in 0..3 {
            let rows: Vec<Vec<Cell>> = (part * 10..part * 10 + 10)
                .map(|i| vec![Cell::Int(i), Cell::from(format!(r#"{{"a": {i}}}"#))])
                .collect();
            t.append_file(&rows, WriteOptions::default(), 1).unwrap();
        }
    }
    // Out-of-band: part 1 becomes a valid Norc file without a payload column.
    maxson_storage::file::write_rows(
        root.join("db").join("t").join("part-00001.norc"),
        Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap(),
        &(10..20).map(|i| vec![Cell::Int(i)]).collect::<Vec<_>>(),
        WriteOptions::default(),
    )
    .unwrap();

    // Two daily users make `$.a` a multi-parsed JSONPath.
    let history = support::daily_history(&[("db", "t", "$.a")]);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let err = pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .expect_err("a poisoned split must fail the cycle, not unwind through it")
        .to_string();
    assert!(
        err.contains("db.t") && err.contains("split 1") && err.contains("panicked"),
        "error should name table, split and the panic: {err}"
    );

    // Whatever the other tasks wrote, nothing is registered without its file.
    let catalog = Catalog::open(&root).unwrap();
    for (db, name) in catalog.list_tables() {
        let table = catalog.table(&db, &name).unwrap();
        for file in table.files() {
            assert!(table.dir().join(file).is_file(), "{db}.{name} lists {file}");
        }
        if db == maxson::cacher::CACHE_DB {
            assert_eq!(table.file_count(), 0, "a failed build registers no part");
        }
    }
    // The session was never swapped to the failed epoch: it still answers
    // (from the column every part does have).
    assert_eq!(
        session.execute("select id from db.t").unwrap().rows.len(),
        30
    );
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Malformed payloads: data, not failures
// ---------------------------------------------------------------------

/// Build a table whose payload column holds exactly `docs`.
fn payload_table(name: &str, docs: &[String]) -> PathBuf {
    let root = temp_root(name);
    let rows: Vec<(i64, String)> = (0..).zip(docs.iter().cloned()).collect();
    support::json_table(&mut Session::open(&root).unwrap(), "db", "t", &[rows], 8);
    root
}

const MALFORMED_SQL: &str = "select get_json_object(payload, '$.id') as id, \
                             get_json_object(payload, '$.name') as name from db.t \
                             where get_json_object(payload, '$.id') >= 0";

/// Every parser mode executes queries over known-malformed documents
/// without panicking and returns `Ok`: the Jackson semantics — invalid doc
/// evaluates to null — carry over to Tape, which returns what the oracle
/// returns row for row.
#[test]
fn malformed_payload_literals_execute_in_every_parser_mode() {
    let mut docs: Vec<String> = vec![
        "{truncated".into(),
        "".into(),
        "   ".into(),
        "{\"id\": 1, \"name\": \"x\"} trailing".into(),
        "{\"id\": 2, \"name\": \"unterminated".into(),
        "{\"id\": 3, \"name\": \"bad \\q escape\"}".into(),
        "{\"id\": 04}".into(),
        "[1, 2".into(),
        format!("{}0{}", "[".repeat(150), "]".repeat(150)),
        "{\"id\": 5, \"id\"".into(),
        "not json at all".into(),
        "\u{0}\u{1}\u{2}".into(),
    ];
    docs.extend(corpus::invalid_docs(0xFA11, 60));
    let root = payload_table("malformed-literals", &docs);
    let expected = Oracle::new(&root).answer(MALFORMED_SQL).unwrap();
    assert!(
        expected.rows.is_empty(),
        "all documents are invalid, so no row passes the predicate"
    );
    for parser in PARSERS {
        let mut session = Session::open(&root).unwrap();
        session.set_parser_kind(parser);
        session.set_threads(Some(2));
        let result = session
            .execute(MALFORMED_SQL)
            .unwrap_or_else(|e| panic!("{parser:?} errored: {e}"));
        // Mison skips whole-document validation, so it may extract from
        // e.g. trailing-garbage docs; only the no-panic/Ok guarantee
        // applies to it.
        if parser != JsonParserKind::Mison {
            assert_matches(&expected, &result, &format!("{parser:?} on malformed docs"));
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Property test: byte-level mutations of valid documents — flips,
/// insertions, deletions, truncations — never panic any parser mode, and
/// Jackson and Tape return the oracle's rows whatever the mutation did.
#[test]
fn property_mutated_payloads_error_never_panic() {
    let cfg = Config::with_cases(12);
    check(
        "mutated_payloads_no_panic",
        &cfg,
        &Gen::tuple2(Gen::u64_any(), Gen::usize_in(6..=24)),
        |&(seed, rows)| {
            let mut rng = Rng::seed_from_u64(seed);
            let docs: Vec<String> = corpus::valid_docs(seed, rows)
                .iter()
                .map(|d| corpus::mutate_bytes(d, &mut rng))
                .collect();
            let root = payload_table(&format!("mut-{seed}"), &docs);
            let expected = Oracle::new(&root).answer(MALFORMED_SQL)?;
            for parser in PARSERS {
                let mut session = Session::open(&root).map_err(|e| format!("open: {e}"))?;
                session.set_parser_kind(parser);
                session.set_threads(Some(2));
                let result = session
                    .execute(MALFORMED_SQL)
                    .map_err(|e| format!("{parser:?}: {e}"))?;
                if parser != JsonParserKind::Mison {
                    assert_matches(&expected, &result, &format!("{parser:?}"));
                }
            }
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Integer overflow: Java `long` values, never a panic
// ---------------------------------------------------------------------

/// `i64::MIN % -1` is 0 and `-i64::MIN` is `i64::MIN` (`-` wraps, so SQL
/// reaches `i64::MIN` as `-9223372036854775807 - 1`): in a split task's
/// projection, and in a Filter and a Project over an aggregate, the
/// materialised stages with no pool to catch a panic.
#[test]
fn long_overflow_boundaries_wrap_in_projections_and_over_aggregates() {
    let root = temp_root("long-boundaries");
    let mut session = Session::open(&root).unwrap();
    a_table(&mut session, 6, 4);
    let min = "(-9223372036854775807 - 1)";
    let r = session
        .execute(&format!(
            "select id, {min} % -1 as m, -{min} as n from db.t where id < 2"
        ))
        .unwrap();
    for row in &r.rows {
        assert_eq!(row[1..], [Cell::Int(0), Cell::Int(i64::MIN)], "{row:?}");
    }
    assert_eq!(r.rows.len(), 2);
    let r = session
        .execute(&format!(
            "select id % 2 as g, count(*) as c, (min(id) + {min}) % -1 as m from db.t \
             group by id % 2 having {min} % -1 = 0 and -(max(id) * 0 + {min}) < 0"
        ))
        .unwrap();
    let mut groups: Vec<_> = r.rows.iter().map(|row| row.to_vec()).collect();
    groups.sort_by_key(|row| format!("{row:?}"));
    assert_eq!(
        groups,
        [
            vec![Cell::Int(0), Cell::Int(3), Cell::Int(0)],
            vec![Cell::Int(1), Cell::Int(3), Cell::Int(0)],
        ]
    );
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Mutated SQL: an error, never a panic
// ---------------------------------------------------------------------

/// Property test: byte-mutated statements — the Table II statements Q1–Q10,
/// S1, S2 and a generated statement, each put through one to three rounds
/// of `corpus::mutate_bytes` — make `parse_select` and `Session::execute`,
/// plain and rewritten, return `Ok` or `Err` and never panic. A multibyte
/// character inside the first seven bytes used to panic the `EXPLAIN`
/// prefix check.
#[test]
fn property_mutated_sql_errors_never_panic() {
    let (root, t2x) = support::t2x_warehouse("mutated-sql", 32);
    let oracle = Oracle::new(&root);
    let sources: Vec<Source> = ["q1", "q5", "q8"]
        .iter()
        .map(|&table| {
            let spec = table_specs().into_iter().find(|s| s.name == table).unwrap();
            let cached = query_paths(&spec);
            let uncached = schema_paths(&spec)
                .into_iter()
                .find(|p| !cached.contains(p));
            let paths: Vec<&str> = cached
                .iter()
                .take(3)
                .chain(&uncached)
                .map(String::as_str)
                .collect();
            Source::sample(&oracle, "mydb", table, "payload", &paths, &["id"])
        })
        .collect();
    let sessions = [Session::open(&root).unwrap(), rewritten_session(&root)];
    check(
        "mutated_sql_never_panics",
        &Config::with_cases(48),
        &Gen::u64_any(),
        |&seed| {
            let mut rng = Rng::seed_from_u64(seed);
            let generated = render(&Generator::new(seed, &sources).statement());
            for _ in 0..8 {
                let pick = rng.gen_range(0..=t2x.len());
                let mut sql = t2x.get(pick).map_or(&generated, |(_, sql)| sql).clone();
                for _ in 0..rng.gen_range(1..=3u32) {
                    sql = corpus::mutate_bytes(&sql, &mut rng);
                }
                let _ = parse_select(&sql);
                for session in &sessions {
                    let _ = session.execute(&sql);
                }
            }
            Ok(())
        },
    );
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Statement depth: no SQL text may abort the process. Parsing, planning,
// evaluating and dropping an expression each recurse once per tree level,
// so the parser refuses a tree deeper than `MAX_EXPR_DEPTH` and everything
// it accepts must fit the 2 MiB stack of a server connection thread.
// ---------------------------------------------------------------------

use maxson_engine::sql::parser::MAX_EXPR_DEPTH;

/// Run `f` on a thread with a server connection thread's 2 MiB stack.
fn on_connection_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("the statement fits a connection thread's stack")
}

/// Statements over [`a_table`]'s `db.t` whose expression tree is `depth`
/// levels deep, one per shape that deepens a tree: parentheses, `NOT`,
/// unary minus, an arithmetic chain, an `AND` chain, nested calls and
/// nested `IN` lists.
fn statements_of_depth(depth: usize) -> Vec<String> {
    let nest =
        |open: &str, close: &str, n: usize| format!("{}id{}", open.repeat(n), close.repeat(n));
    vec![
        format!("select {} as v from db.t", nest("(", ")", depth - 1)),
        format!(
            "select id from db.t where {}id < 5",
            "not ".repeat(depth - 2)
        ),
        format!("select {}id as v from db.t", "- ".repeat(depth - 1)),
        format!("select {} as v from db.t", vec!["id"; depth].join(" + ")),
        format!(
            "select id from db.t where {}",
            vec!["id >= 3"; depth - 1].join(" and ")
        ),
        format!("select {} as v from db.t", nest("upper(", ")", depth - 1)),
        format!(
            "select id from db.t where {}",
            nest("id in (", ")", depth - 1)
        ),
    ]
}

/// Every deepest accepted shape parses, plans, executes (and explains)
/// and drops on a connection thread's stack, and returns the oracle's
/// rows.
#[test]
fn deepest_accepted_statements_run_on_a_connection_stack() {
    let root = temp_root("deepest");
    let mut session = Session::open(&root).unwrap();
    a_table(&mut session, 10, 4);
    let statements = statements_of_depth(MAX_EXPR_DEPTH);
    let results = on_connection_stack({
        let statements = statements.clone();
        move || {
            let run = |sql: &str| {
                session
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{e}: {sql}"))
            };
            statements
                .iter()
                .map(|sql| {
                    run(&format!("explain analyze {sql}"));
                    run(sql)
                })
                .collect::<Vec<_>>()
        }
    });
    let oracle = Oracle::new(&root);
    for (sql, result) in statements.iter().zip(&results) {
        assert_matches(&oracle.answer(sql).unwrap(), result, sql);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn statements_past_the_depth_limit_are_errors() {
    on_connection_stack(|| {
        for sql in statements_of_depth(MAX_EXPR_DEPTH + 1) {
            assert!(parse_select(&sql).is_err(), "{sql}");
        }
        let hostile = [
            format!(
                "select {}1{} from t",
                "(".repeat(10_000),
                ")".repeat(10_000)
            ),
            format!("select 1 from t where {}true", "not ".repeat(100_000)),
            format!("select {}1 from t", "- ".repeat(100_000)),
            format!("select 1{} from t", "+1".repeat(999_999)),
        ];
        for sql in &hostile {
            let err = parse_select(sql).expect_err("too deep to accept");
            assert!(err.to_string().contains("nests deeper than"), "{err}");
        }
    });
}

#[test]
fn a_served_statement_past_the_depth_limit_is_answered_err() {
    let (mut server, root) = serve_small("deep");
    let deep = format!(
        "select {}id{} from db.t",
        "(".repeat(1_000),
        ")".repeat(1_000)
    );
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&deep) {
        Err(maxson_server::ServerError::Remote(message)) => {
            assert!(message.contains("nests deeper than"), "{message}")
        }
        other => panic!("expected an ERR answer, got {other:?}"),
    }
    assert_eq!(client.query(SERVED_SQL).unwrap().rows.len(), 5);
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.query(SERVED_SQL).unwrap().rows.len(), 5);
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Server fault injection: hostile clients and panicking queries must be
// contained at the connection boundary — the server keeps serving and
// shared warehouse state stays usable.
// ---------------------------------------------------------------------

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{Columns, ScanProvider};
use maxson_engine::session::{ScanContext, ScanRewrite, TableScanRewriter};
use maxson_server::wire::{self, OpCode, Writer, MAGIC, STATUS_ERR, STATUS_OK};
use maxson_server::{Client, Server, ServerConfig};
use std::io::Write as _;
use std::net::TcpStream;

/// Serve a small warehouse; callers get the running server and its root.
fn serve_small(name: &str) -> (Server, PathBuf) {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    a_table(&mut session, 24, 1024);
    let server = Server::serve(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, root)
}

const SERVED_SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t where id < 5";

/// Expect one frame on the raw stream and return its status byte.
fn read_status(stream: &mut TcpStream) -> maxson_server::Result<u8> {
    let payload = wire::read_frame(stream)?;
    Ok(payload.first().copied().unwrap_or(0xFF))
}

#[test]
fn server_survives_client_disconnect_mid_query() {
    let (mut server, root) = serve_small("disc");
    let addr = server.addr();
    // Fire a query and hang up without reading the response.
    for _ in 0..4 {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut w = Writer::new();
        w.u8(MAGIC).u8(OpCode::Query as u8).str(SERVED_SQL);
        wire::write_frame(&mut raw, &w.into_bytes()).unwrap();
        drop(raw); // gone before the result comes back
    }
    // Hang up mid-frame too: length prefix promising bytes that never come.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(&[MAGIC]).unwrap();
        drop(raw);
    }
    // The server is still fully functional for well-behaved clients.
    let mut client = Client::connect(addr).unwrap();
    let result = client.query(SERVED_SQL).unwrap();
    assert_eq!(result.rows.len(), 5);
    // The abandoned queries still run to completion server-side (only the
    // response write fails), so give their leases a moment to drain before
    // calling any survivor a leak.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let stats = loop {
        let stats = client.stats().unwrap();
        if stats.active_queries == 0 || std::time::Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(stats.active_queries, 0, "leaked query leases: {stats:?}");
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_frames_are_answered_and_contained() {
    let (mut server, root) = serve_small("malformed");
    let addr = server.addr();
    let hostile_frames: [&[u8]; 4] = [
        &[0x00, 0x01],                          // bad magic
        &[MAGIC, 0xEE],                         // unknown opcode
        &[MAGIC],                               // missing opcode
        &[MAGIC, 0x01, 0x00, 0x00, 0x00, 0x63], // QUERY whose string is truncated
    ];
    for frame in hostile_frames {
        let mut raw = TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut raw, frame).unwrap();
        let status = read_status(&mut raw).expect("server must answer before closing");
        assert_eq!(status, STATUS_ERR, "hostile frame {frame:?} not rejected");
        // The connection is closed after a protocol error: the next read
        // sees EOF, not a hang.
        assert!(wire::read_frame(&mut raw).is_err());
        // And the server still serves others.
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(client.query(SERVED_SQL).unwrap().rows.len(), 5);
    }
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

/// Whether a server reading `bytes` as back-to-back frames would meet a
/// well-formed SHUTDOWN request (magic, then opcode 4).
fn holds_a_shutdown(mut bytes: &[u8]) -> bool {
    while let Some((len, rest)) = bytes.split_first_chunk::<4>() {
        let Some((payload, rest)) = rest.split_at_checked(u32::from_be_bytes(*len) as usize) else {
            return false;
        };
        if payload.starts_with(&[MAGIC, OpCode::Shutdown as u8]) {
            return true;
        }
        bytes = rest;
    }
    false
}

/// Real QUERY, STATS, METRICS and PING request frames, each mutated twice
/// — its payload behind an honest length prefix, and the whole frame,
/// prefix included — and sent on a connection of its own to a live
/// server, which then sees the connection's write half close. Each is
/// answered `OK` or `ERR`, or its connection is closed; a fresh connection
/// then still answers PING and the served statement. A mutation the
/// server would read as a well-formed SHUTDOWN stops it legitimately: it
/// is skipped, not sent (the whole run shares one server). Replay a
/// failing case with `MAXSON_TESTKIT_SEED=<seed>`.
#[test]
fn property_mutated_request_frames_are_answered_or_closed() {
    let (mut server, root) = serve_small("mutated-requests");
    let addr = server.addr();
    let framed = |payload: &[u8]| {
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, payload).unwrap();
        frame
    };
    let payloads: Vec<Vec<u8>> = [OpCode::Query, OpCode::Stats, OpCode::Metrics, OpCode::Ping]
        .into_iter()
        .map(|op| {
            let mut w = Writer::new();
            w.u8(MAGIC).u8(op as u8);
            if op == OpCode::Query {
                w.str(SERVED_SQL);
            }
            w.into_bytes()
        })
        .collect();
    check(
        "mutated_request_frames",
        &Config::with_cases(16),
        &Gen::u64_any(),
        |&seed| {
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..4 {
                let mutations = payloads.iter().flat_map(|payload| {
                    let honest = framed(&corpus::mutate_byte_slice(payload, &mut rng));
                    [
                        honest,
                        corpus::mutate_byte_slice(&framed(payload), &mut rng),
                    ]
                });
                for mutated in mutations {
                    if holds_a_shutdown(&mutated) {
                        continue;
                    }
                    let mut raw = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                        .unwrap();
                    // The server may close before it has read every byte.
                    let _ = raw.write_all(&mutated);
                    let _ = raw.shutdown(std::net::Shutdown::Write);
                    match wire::read_frame(&mut raw) {
                        Ok(payload) => maxson_testkit::prop_assert!(
                            matches!(payload.first(), Some(&STATUS_OK | &STATUS_ERR)),
                            "{mutated:?} answered with status {:?}",
                            payload.first()
                        ),
                        Err(maxson_server::ServerError::Io(e)) => maxson_testkit::prop_assert!(
                            matches!(
                                e.kind(),
                                std::io::ErrorKind::UnexpectedEof
                                    | std::io::ErrorKind::ConnectionReset
                            ),
                            "{mutated:?} neither answered nor closed: {e}"
                        ),
                        Err(e) => return Err(format!("{mutated:?}: {e}")),
                    }
                }
                let mut fresh = Client::connect(addr).map_err(|e| e.to_string())?;
                fresh
                    .ping()
                    .map_err(|e| format!("PING after mutations: {e}"))?;
                let rows = fresh
                    .query(SERVED_SQL)
                    .map_err(|e| format!("served statement after mutations: {e}"))?
                    .rows
                    .len();
                maxson_testkit::prop_assert_eq!(rows, 5);
            }
            Ok(())
        },
    );
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn oversized_frame_is_rejected_without_allocation() {
    let (mut server, root) = serve_small("oversized");
    let addr = server.addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // A length prefix claiming 1 GiB. The server must refuse before
    // allocating or reading the body.
    raw.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
    raw.flush().unwrap();
    let status = read_status(&mut raw).expect("server must answer the liar");
    assert_eq!(status, STATUS_ERR);
    assert!(wire::read_frame(&mut raw).is_err(), "connection must close");
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(SERVED_SQL).unwrap().rows.len(), 5);
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

/// Provider whose splits always panic — stands in for poisoned data
/// reached through the shared rewriter.
#[derive(Debug)]
struct AlwaysPanicProvider {
    schema: Schema,
}

impl ScanProvider for AlwaysPanicProvider {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn split_count(&self) -> usize {
        4
    }
    fn scan_split(
        &self,
        _split: usize,
        _metrics: &mut ExecMetrics,
    ) -> maxson_engine::Result<Columns> {
        panic!("poisoned provider");
    }
    fn label(&self) -> String {
        "AlwaysPanicProvider".into()
    }
}

/// Rewrites scans of `db.boom` only; everything else runs normally.
struct SelectivePanicRewriter;

impl TableScanRewriter for SelectivePanicRewriter {
    fn name(&self) -> &str {
        "SelectivePanic"
    }
    fn rewrite_scan(&self, ctx: &ScanContext<'_>) -> maxson_engine::Result<Option<ScanRewrite>> {
        if ctx.table_name != "boom" {
            return Ok(None);
        }
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        Ok(Some(ScanRewrite {
            provider: Box::new(AlwaysPanicProvider { schema }),
            resolved_paths: Vec::new(),
        }))
    }
}

#[test]
fn panicking_split_task_is_contained_by_the_server() {
    // Four threads run the split tasks on pool workers, one thread inline
    // on the connection's thread: the panic is an error response on both.
    for threads in [4, 1] {
        panicking_split_is_contained_at(threads);
    }
}

fn panicking_split_is_contained_at(threads: usize) {
    let root = temp_root(&format!("panic-split-{threads}"));
    let mut template = Session::open(&root).unwrap();
    a_table(&mut template, 24, 1024);
    let boom: Vec<(i64, String)> = (0..4).map(|i| (i, format!(r#"{{"a": {i}}}"#))).collect();
    support::json_table(&mut template, "db", "boom", &[boom], 1024);
    template.set_scan_rewriter(Some(Box::new(SelectivePanicRewriter)));
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

    let mut client = Client::connect(addr).unwrap();
    for round in 0..3 {
        let err = client
            .query("select id from db.boom")
            .expect_err("panicking scan must be an error response");
        let msg = err.to_string();
        assert!(
            msg.contains("panic") || msg.contains("poisoned provider"),
            "{threads} threads, round {round}: error should surface the panic: {msg}"
        );
        // Same connection keeps working after its query panicked.
        assert_eq!(client.query(SERVED_SQL).unwrap().rows.len(), 5);
    }
    // Other connections are untouched, and no scheduler lease leaked.
    let mut other = Client::connect(addr).unwrap();
    assert_eq!(other.query(SERVED_SQL).unwrap().rows.len(), 5);
    let stats = other.stats().unwrap();
    assert_eq!(stats.active_queries, 0, "leaked query leases: {stats:?}");
    assert_eq!(stats.queries_err, 3, "panics must be counted: {stats:?}");
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Reuse-cache fault injection: a panic on the fill path must be contained
// (the query's rows are already computed and are returned unchanged), and
// the cache must take itself out of service *loudly* — a poisoned counter,
// a `reuse="poisoned"` query-log line, `disabled` thereafter — never
// silently serve from a structure a panic may have left inconsistent.
// ---------------------------------------------------------------------

const REUSE_SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t where id < 20";

fn reuse_table(name: &str) -> PathBuf {
    let docs: Vec<String> = (0..30).map(|i| format!(r#"{{"a": {i}}}"#)).collect();
    payload_table(name, &docs)
}

#[test]
fn poisoned_reuse_fill_is_contained_and_disables_the_cache_loudly() {
    let root = reuse_table("reuse-poison");
    let reference = Oracle::new(&root).answer(REUSE_SQL).unwrap();

    let mut session = Session::open(&root).unwrap();
    session.set_result_cache(Some(8));
    let log_path = temp_root("reuse-poison-log").with_extension("jsonl");
    session.set_query_log(Some(log_path.clone())).unwrap();

    let cache = session.reuse_cache().expect("cache enabled");
    cache.inject_fill_panic();

    // The fill panics inside the cache; the query must still answer with
    // the rows it already computed, byte for byte.
    let poisoned_run = session.execute(REUSE_SQL).unwrap();
    assert_matches(&reference, &poisoned_run, "the run whose fill panicked");

    // Loud, not silent: the poison is counted, logged, and latched.
    assert_eq!(
        session
            .metrics_registry()
            .counter_value("maxson_reuse_poisoned_total", &[]),
        Some(1),
        "contained fill panic must charge the poisoned counter"
    );
    assert!(cache.is_disabled(), "cache must take itself out of service");
    assert!(session.reuse_stats().unwrap().disabled);

    // Out of service means *neither* serving nor filling — and still
    // correct. The disabled state is visible per query in the log.
    let after = session.execute(REUSE_SQL).unwrap();
    assert_matches(
        &reference,
        &after,
        "the run after the cache disabled itself",
    );
    assert_eq!(after.metrics.reuse_hits, 0);
    assert_eq!(after.metrics.reuse_fills, 0);

    let log = std::fs::read_to_string(&log_path).unwrap();
    let statuses: Vec<String> = log
        .lines()
        .map(|l| {
            maxson_json::parse(l)
                .expect("log line parses")
                .get("reuse")
                .and_then(|v| v.as_str().map(str::to_owned))
                .expect("reuse field present")
        })
        .collect();
    assert_eq!(
        statuses,
        vec!["poisoned".to_string(), "disabled".to_string()],
        "query log must narrate the failure"
    );
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// A zero-byte budget rejects every entry (the oversize guard): results
/// stay byte-identical and nothing ever becomes resident.
#[test]
fn oversized_reuse_entries_are_rejected_with_identical_results() {
    let root = reuse_table("reuse-oversize");
    let reference = Oracle::new(&root).answer(REUSE_SQL).unwrap();

    let mut session = Session::open(&root).unwrap();
    session.set_result_cache(Some(0));
    for round in 0..3 {
        let run = session.execute(REUSE_SQL).unwrap();
        assert_matches(
            &reference,
            &run,
            &format!("round {round}, always-rejecting cache"),
        );
        assert_eq!(
            run.metrics.reuse_hits, 0,
            "nothing admitted, nothing served"
        );
    }
    let stats = session.reuse_stats().unwrap();
    assert_eq!(stats.fills, 0, "zero budget must admit nothing");
    assert_eq!(stats.bytes_resident, 0);
    assert_eq!(stats.misses, 3, "every probe is an honest miss");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shutdown_opcode_drains_cleanly() {
    let (mut server, root) = serve_small("shutdown-op");
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(SERVED_SQL).unwrap().rows.len(), 5);
    client.shutdown().unwrap();
    assert!(server.is_shutdown());
    // stop() joins the accept and connection threads; must not hang.
    server.stop();
    // A post-shutdown connection attempt must not be served a query.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.ping().is_err() || late.query(SERVED_SQL).is_err());
    }
    std::fs::remove_dir_all(&root).ok();
}
