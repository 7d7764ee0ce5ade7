//! Hostile bytes on both sides of the engine: Norc column chunks and
//! metadata documents read from disk, and response frames read off the
//! wire.
//!
//! Whatever bytes a chunk holds — a count rewritten to something enormous
//! behind a valid checksum, or any byte-level mutation — decoding it, whole
//! or at a row selection, ends in `Ok` or `StorageError::Corrupt`: never a
//! panic, and never a reservation sized by a number the chunk's own bytes
//! cannot back.
//!
//! The bound checked is per allocation: a chunk's row count is capped by its
//! validity bitmap (eight rows a byte) and the widest decoded value is a
//! 16-byte `Arc<str>` pointer, so no single request may exceed 128 times the
//! chunk's length (plus a page of slack for small chunks). An honest chunk —
//! one long run — really does decode to that much.
//!
//! A part file shortened after it was opened is held to the same rule: the
//! next chunk read through the open handle is a `StorageError::Io`, never a
//! signal.
//!
//! A client reading a QUERY or STATS response is held to it too: every
//! count in a frame is checked against the bytes left before anything is
//! reserved for it, so a mutated response — or a 13-byte one claiming
//! `u32::MAX` columns — is a result or an error, never a panic or an
//! allocation past 32 times the frame (a one-column row is one tag byte on
//! the wire and a 24-byte vector in memory). Hand-made frames bend the
//! last cell of the one-pass row loop — a string length one past the frame
//! or of `u32::MAX`, invalid UTF-8, an unknown tag, a block one byte
//! short — and each is an error.
//!
//! A table's `_meta.json` and the cache registry's `registry.json` are
//! held to a stricter rule: a document is refused (`Corrupt` / `Invalid`)
//! or read exactly as it spells every value. A negative or too-large
//! number, a type tag past `u8`, a part-file name that is no string, or a
//! schema or file list that is no array is an error, never a wrapped,
//! truncated or dropped value.
//!
//! A failing case prints its seed; replay it with
//! `MAXSON_TESTKIT_SEED=<seed> cargo test --test hostile_chunks`.

use maxson_engine::session::Session;
use maxson_json::value::JsonNumber;
use maxson_json::JsonValue;
use maxson_server::wire::{self, OpCode, Writer, MAGIC, STATUS_OK};
use maxson_server::{Client, Server, ServerConfig};
use maxson_storage::encoding::{read_varint, write_varint, Bitmap};
use maxson_storage::file::{write_rows, WriteOptions};
use maxson_storage::{
    Catalog, Cell, ColumnData, ColumnType, Field, NorcFile, Schema, StorageError,
};
use maxson_testkit::corpus::mutate_byte_slice;
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::{prop_assert, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

thread_local! {
    /// Largest single request this thread has made since it last reset it.
    static LARGEST: StdCell<usize> = const { StdCell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct WatchingAllocator;

fn note(size: usize) {
    // A thread being torn down has no slot left; nothing it allocates then
    // is under test.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every operation is delegated verbatim to `System`; the only
// addition is a thread-local store, which cannot affect the memory returned.
unsafe impl GlobalAlloc for WatchingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: WatchingAllocator = WatchingAllocator;

const ROWS: usize = 64;

/// One encoded chunk per shape the decoder branches on: RLE integers (runs
/// and literals), floats, bools, plain strings, dictionary strings — NULLs
/// in all of them.
fn chunks() -> Vec<(ColumnType, Vec<u8>)> {
    let cell = |ty: ColumnType, dictionary: bool, i: usize| match ty {
        _ if i % 7 == 3 => Cell::Null,
        ColumnType::Int64 => Cell::Int(if i < 40 { 20_200_101 } else { i as i64 * 977 }),
        ColumnType::Float64 => Cell::Float(i as f64 / 3.0),
        ColumnType::Bool => Cell::Bool(i.is_multiple_of(3)),
        ColumnType::Utf8 if dictionary => Cell::from(["red", "green", "blué"][i % 3]),
        ColumnType::Utf8 => Cell::from(format!("value-{i}-é")),
    };
    [
        (ColumnType::Int64, false),
        (ColumnType::Float64, false),
        (ColumnType::Bool, false),
        (ColumnType::Utf8, false),
        (ColumnType::Utf8, true),
    ]
    .into_iter()
    .map(|(ty, dictionary)| {
        let mut col = ColumnData::empty(ty);
        for i in 0..ROWS {
            col.push(&cell(ty, dictionary, i), "c").unwrap();
        }
        let mut buf = Vec::new();
        col.encode(&mut buf);
        (ty, buf)
    })
    .collect()
}

/// Decode `chunk` whole and at a selection made for `ROWS` rows, holding
/// both outcomes to the contract.
fn decode_both_ways(ty: ColumnType, chunk: &[u8]) -> Result<(), String> {
    let selections: [Option<&[u32]>; 3] = [None, Some(&[0, 5, 6, 40, 63]), Some(&[])];
    for select in selections {
        LARGEST.with(|l| l.set(0));
        let mut out = ColumnData::empty(ty);
        let outcome = out.decode_into(chunk, &mut 0, select);
        let largest = LARGEST.with(StdCell::get);
        prop_assert!(
            matches!(outcome, Ok(_) | Err(StorageError::Corrupt { .. })),
            "{ty:?} select {select:?}: {outcome:?}"
        );
        prop_assert!(
            largest <= 128 * chunk.len() + 4096,
            "{ty:?} select {select:?}: one allocation of {largest} bytes for a {}-byte chunk",
            chunk.len()
        );
        if outcome.is_ok() {
            prop_assert!(out.len() <= 8 * chunk.len());
        }
    }
    Ok(())
}

/// `chunk` with the varint at `at` replaced by `value`.
fn with_varint(chunk: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut end = at;
    read_varint(chunk, &mut end).unwrap();
    let mut out = chunk[..at].to_vec();
    write_varint(&mut out, value);
    out.extend_from_slice(&chunk[end..]);
    out
}

/// Every count a chunk declares, rewritten to values no chunk could back:
/// the validity bitmap's, the RLE total, the float and string row counts,
/// the dictionary length, a string's length.
#[test]
fn oversized_counts_are_corrupt_not_reservations() {
    for (ty, chunk) in chunks() {
        // Offsets of the count varints, in stream order.
        let mut counts = vec![0usize];
        let mut pos = 0;
        Bitmap::read(&chunk, &mut pos).unwrap();
        counts.push(pos); // RLE total, value count, or the bool bitmap's
        if ty == ColumnType::Utf8 {
            read_varint(&chunk, &mut pos).unwrap();
            pos += 1; // mode byte
            counts.push(pos); // dictionary length, or the first string's
        }
        for &at in &counts {
            for huge in [
                1 << 20,
                u64::from(u32::MAX),
                1 << 40,
                u64::MAX >> 1,
                u64::MAX,
            ] {
                let hostile = with_varint(&chunk, at, huge);
                decode_both_ways(ty, &hostile).unwrap_or_else(|e| panic!("count at {at}: {e}"));
                let mut out = ColumnData::empty(ty);
                assert!(
                    out.decode_into(&hostile, &mut 0, None).is_err(),
                    "{ty:?}: count at {at} rewritten to {huge} still decodes"
                );
            }
        }
    }
}

#[test]
fn property_mutated_chunks_error_never_panic() {
    let chunks = chunks();
    for (ty, chunk) in &chunks {
        decode_both_ways(*ty, chunk).unwrap();
    }
    check(
        "mutated_chunks_no_panic",
        &Config::with_cases(64),
        &Gen::u64_any(),
        |&seed| {
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..40 {
                for (ty, chunk) in &chunks {
                    decode_both_ways(*ty, &mutate_byte_slice(chunk, &mut rng))?;
                }
            }
            Ok(())
        },
    );
}

/// A part file of two row groups, truncated to a quarter while three
/// handles hold it open: a direct open's, the one a catalog's footer cache
/// serves and the writer's. Reading every column through each is an
/// `Io` error, and the test binary lives on to check the next one.
#[test]
fn part_file_shortened_after_open_is_an_io_error() {
    let root = std::env::temp_dir().join(format!("maxson-shortened-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut catalog = Catalog::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("doc", ColumnType::Utf8),
    ])
    .unwrap();
    let table = catalog.create_table("db", "t", schema.clone(), 1).unwrap();
    let rows: Vec<Vec<Cell>> = (0..20_000)
        .map(|i| vec![Cell::Int(i), Cell::from(format!("{{\"n\":{i}}}"))])
        .collect();
    let path = table.part_path(0);
    let written = write_rows(&path, schema, &rows, WriteOptions::default()).unwrap();
    table.register_parts(1, 2).unwrap();
    assert_eq!(written.row_group_count(), 2);
    let opened = NorcFile::open(&path).unwrap();
    let (cached, _) = catalog
        .table("db", "t")
        .unwrap()
        .open_split_cached(0)
        .unwrap();

    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len / 4).unwrap();
    for (how, handle) in [
        ("opened", &opened),
        ("cached", &*cached),
        ("written", &written),
    ] {
        let read = handle.read_columns(&[0, 1], None);
        assert!(matches!(read, Err(StorageError::Io(_))), "{how}: {read:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The QUERY and STATS response payloads a real server sends for a small
/// table of every cell type, NULLs included.
fn real_responses() -> (Vec<u8>, Vec<u8>) {
    let root = std::env::temp_dir().join(format!("maxson-hostile-wire-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("x", ColumnType::Float64),
        Field::new("flag", ColumnType::Bool),
        Field::new("doc", ColumnType::Utf8),
    ])
    .unwrap();
    let rows: Vec<Vec<Cell>> = (0..ROWS as i64)
        .map(|i| {
            let null_or = |c: Cell| if i % 7 == 3 { Cell::Null } else { c };
            vec![
                Cell::Int(i),
                null_or(Cell::Float(i as f64 / 3.0)),
                null_or(Cell::Bool(i % 2 == 0)),
                null_or(Cell::from(format!("{{\"n\": {i}, \"s\": \"é-{i}\"}}"))),
            ]
        })
        .collect();
    session
        .catalog_mut()
        .create_table("db", "t", schema, 0)
        .unwrap()
        .append_file(&rows, WriteOptions::default(), 1)
        .unwrap();
    let mut server = Server::serve(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut ask = |w: Writer| {
        wire::write_frame(&mut stream, &w.into_bytes()).unwrap();
        wire::read_frame(&mut stream).unwrap()
    };
    let mut query = Writer::new();
    query
        .u8(MAGIC)
        .u8(OpCode::Query as u8)
        .str("select id, x, flag, doc, get_json_object(doc, '$.s') as s from db.t");
    let query = ask(query);
    let mut stats = Writer::new();
    stats.u8(MAGIC).u8(OpCode::Stats as u8);
    let stats = ask(stats);
    server.stop();
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(query[0], STATUS_OK);
    assert_eq!(stats[0], STATUS_OK);
    (query, stats)
}

/// A listener that answers every request frame on one connection with
/// whatever payload `next` holds at that moment, until the client hangs up.
fn stub_server(next: Arc<Mutex<Vec<u8>>>) -> (std::net::SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while wire::read_frame(&mut stream).is_ok() {
            let payload = next.lock().unwrap().clone();
            if wire::write_frame(&mut stream, &payload).is_err() {
                break;
            }
        }
    });
    (addr, handle)
}

/// Hand `payload` to the client as the answer to a QUERY (or a STATS), and
/// hold the decode to the contract: `Ok` or `Err`, and no allocation past
/// 32 times the frame. `Ok(true)` when the client decoded it.
fn decode_response(
    client: &mut Client,
    next: &Mutex<Vec<u8>>,
    payload: &[u8],
    stats: bool,
) -> Result<bool, String> {
    *next.lock().unwrap() = payload.to_vec();
    LARGEST.with(|l| l.set(0));
    let outcome = if stats {
        client.stats().map(|s| s.hot_paths.len())
    } else {
        client.query("select 1").map(|r| r.rows.len())
    };
    let largest = LARGEST.with(StdCell::get);
    prop_assert!(
        largest <= 32 * payload.len() + 4096,
        "one allocation of {largest} bytes decoding a {}-byte response ({outcome:?})",
        payload.len()
    );
    Ok(outcome.is_ok())
}

#[test]
fn hostile_responses_are_errors_not_client_aborts() {
    let (query, stats) = real_responses();
    let next = Arc::new(Mutex::new(Vec::new()));
    // The property below is a `Fn`: it reaches the one connection through
    // a `RefCell`.
    let (addr, stub) = stub_server(Arc::clone(&next));
    let connection = std::cell::RefCell::new(Client::connect(addr).unwrap());
    let mut client = connection.borrow_mut();

    // The unmutated responses decode in full.
    assert!(decode_response(&mut client, &next, &query, false).unwrap());
    let served = client.query("select 1").unwrap();
    assert_eq!((served.columns.len(), served.rows.len()), (5, ROWS));
    *next.lock().unwrap() = stats.clone();
    assert!(!client.stats().unwrap().hot_paths.is_empty());

    // Counts no frame could back: `u32::MAX` columns in 13 bytes, rows of
    // a zero-column result, more rows than bytes, more hot paths than the
    // frame could spell.
    let frame = |ncols: u32, nrows: Option<u32>| {
        let mut w = Writer::new();
        w.u8(STATUS_OK).u64(1).u32(ncols);
        if let Some(nrows) = nrows {
            w.str("c").u32(nrows);
        }
        w.into_bytes()
    };
    let thirteen = frame(u32::MAX, None);
    assert_eq!(thirteen.len(), 13);
    let mut zero_columns = Writer::new();
    zero_columns.u8(STATUS_OK).u64(1).u32(0).u32(u32::MAX);
    let mut counted = Writer::new();
    counted.u8(STATUS_OK);
    for _ in 0..15 {
        counted.u64(0);
    }
    counted.str("avx2").u32(u32::MAX);
    for (payload, is_stats) in [
        (thirteen, false),
        (frame(1, Some(u32::MAX)), false),
        (frame(1, Some(1 << 20)), false),
        (zero_columns.into_bytes(), false),
        (counted.into_bytes(), true),
    ] {
        let decoded = decode_response(&mut client, &next, &payload, is_stats).unwrap();
        assert!(!decoded, "{payload:?} decodes");
    }

    // Hand-made frames at the edges of the one-pass row loop: a two-row
    // block whose last cell is a string, bent at that cell, then the five
    // metrics (40 bytes). `tail` is how many metric bytes follow.
    let edge = |tag: u8, len: u32, body: &[u8], tail: usize| {
        let mut w = Writer::new();
        w.u8(STATUS_OK).u64(1).u32(2).str("a").str("b").u32(2);
        w.cell(&Cell::Int(1))
            .cell(&Cell::from("é"))
            .cell(&Cell::Null);
        w.u8(tag).u32(len);
        let mut payload = w.into_bytes();
        payload.extend_from_slice(body);
        payload.resize(payload.len() + tail, 0);
        payload
    };
    assert!(decode_response(&mut client, &next, &edge(3, 4, b"last", 40), false).unwrap());
    for (edit, payload) in [
        (
            "length one past the frame",
            edge(3, 4 + 40 + 1, b"last", 40),
        ),
        ("length u32::MAX", edge(3, u32::MAX, b"last", 40)),
        ("invalid UTF-8", edge(3, 4, b"la\xFFt", 40)),
        ("unknown tag", edge(9, 4, b"last", 40)),
        ("block one byte short", edge(3, 4, b"las", 0)),
    ] {
        let decoded = decode_response(&mut client, &next, &payload, false).unwrap();
        assert!(!decoded, "last cell with {edit} decodes: {payload:?}");
    }

    drop(client);
    check(
        "mutated_responses_no_abort",
        &Config::with_cases(32),
        &Gen::u64_any(),
        |&seed| {
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..20 {
                for (payload, is_stats) in [(&query, false), (&stats, true)] {
                    let mutated = mutate_byte_slice(payload, &mut rng);
                    decode_response(&mut connection.borrow_mut(), &next, &mutated, is_stats)?;
                }
            }
            Ok(())
        },
    );
    drop(connection);
    stub.join().unwrap();
}

// ---------------------------------------------------------------------
// Metadata documents: a table's `_meta.json` and the cache registry's
// `registry.json` are refused when a value does not fit its field, never
// wrapped, truncated or dropped into one that does.
// ---------------------------------------------------------------------

/// The exact integer a JSON number spells, in a type wider than any field
/// it is decoded into, so a wrapped or saturated field shows as a mismatch.
fn spelled_int(v: Option<&JsonValue>) -> Option<i128> {
    match v? {
        JsonValue::Number(JsonNumber::Int(i)) => Some(i128::from(*i)),
        JsonValue::Number(JsonNumber::Float(f)) if f.fract() == 0.0 && f.abs() < 1e30 => {
            Some(*f as i128)
        }
        _ => None,
    }
}

/// Numbers a field might be handed: in range, negative, past `i64` as an
/// integer or as a float (2^63 exactly among them), fractional, or no
/// number at all.
const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "2",
    "257",
    "-1",
    "-9223372036854775808",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "1.5",
    "3.0",
    "1e3",
    "\"2\"",
    "null",
];

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A `_meta.json` assembled from drawn spellings, byte-mutated half the time.
fn hostile_meta(rng: &mut Rng) -> Vec<u8> {
    let field = |rng: &mut Rng, name: &str| {
        format!(r#"{{"name": "{name}", "type": {}}}"#, pick(rng, &NUMBERS))
    };
    let schema = match rng.gen_range(0u32..4) {
        0 => pick(rng, &["{}", "null", "\"id\"", "7"]).to_string(),
        _ => format!("[{}, {}]", field(rng, "id"), field(rng, "payload")),
    };
    let entries = [
        "\"part-00000.norc\"",
        "\"part-00001.norc\"",
        "7",
        "null",
        "[]",
        "{}",
    ];
    let files = match rng.gen_range(0u32..4) {
        0 => pick(rng, &["{}", "null", "\"part-00000.norc\""]).to_string(),
        _ => format!("[{}, {}]", pick(rng, &entries), pick(rng, &entries)),
    };
    let doc = format!(
        r#"{{"schema": {schema}, "modified_at": {}, "files": {files}}}"#,
        pick(rng, &NUMBERS)
    );
    if rng.gen_bool(0.5) {
        mutate_byte_slice(doc.as_bytes(), rng)
    } else {
        doc.into_bytes()
    }
}

/// Open a table over `meta`. Accepted, the table must hold exactly what
/// the document spells: every field's tag, `modified_at` and every part
/// file name, none wrapped, truncated or skipped.
fn open_meta(dir: &std::path::Path, meta: &[u8]) -> Result<bool, String> {
    std::fs::write(dir.join("_meta.json"), meta).map_err(|e| e.to_string())?;
    let table = match maxson_storage::Table::open(dir) {
        Ok(table) => table,
        Err(StorageError::Corrupt { .. }) => return Ok(false),
        Err(e) => return Err(format!("not a corrupt error: {e}")),
    };
    let text = std::str::from_utf8(meta).map_err(|e| format!("accepted non-UTF-8: {e}"))?;
    let doc = maxson_json::parse(text).map_err(|e| format!("accepted bad JSON: {e}"))?;
    let fields = doc.get("schema").and_then(JsonValue::as_array);
    let fields = fields.ok_or("accepted a schema that is not an array")?;
    prop_assert!(
        fields.len() == table.schema().fields().len(),
        "a field dropped"
    );
    for (spelled, field) in fields.iter().zip(table.schema().fields()) {
        let tag = spelled_int(spelled.get("type"));
        prop_assert!(
            tag == Some(i128::from(field.ty.tag())),
            "type {:?} read as tag {}",
            spelled.get("type"),
            field.ty.tag()
        );
    }
    prop_assert!(
        spelled_int(doc.get("modified_at")) == Some(i128::from(table.modified_at())),
        "modified_at {:?} read as {}",
        doc.get("modified_at"),
        table.modified_at()
    );
    let files = doc.get("files").and_then(JsonValue::as_array);
    let files: Vec<Option<&str>> = files
        .ok_or("accepted files that are not an array")?
        .iter()
        .map(JsonValue::as_str)
        .collect();
    let opened: Vec<Option<&str>> = table.files().iter().map(|f| Some(f.as_str())).collect();
    prop_assert!(files == opened, "files {files:?} read as {opened:?}");
    Ok(true)
}

/// A registry document of two entries over one or two locations, with
/// drawn `cached_at` and `bytes`, byte-mutated half the time.
fn hostile_registry(rng: &mut Rng) -> Vec<u8> {
    let entry = |rng: &mut Rng| {
        format!(
            r#"{{"database": "db", "table": "t", "column": "payload", "path": "{}", "cache_table": "db__t", "cache_field": "{}", "cached_at": {}, "bytes": {}}}"#,
            pick(rng, &["$.a", "$.b"]),
            pick(rng, &["c0", "c1"]),
            pick(rng, &NUMBERS),
            pick(rng, &NUMBERS)
        )
    };
    let doc = format!("[{}, {}]", entry(rng), entry(rng));
    if rng.gen_bool(0.5) {
        mutate_byte_slice(doc.as_bytes(), rng)
    } else {
        doc.into_bytes()
    }
}

/// Decode a registry document. Accepted, every entry must carry exactly
/// the numbers and names the last item for its location spells.
fn decode_registry(bytes: &[u8]) -> Result<bool, String> {
    let Ok(doc) = maxson_json::parse(&String::from_utf8_lossy(bytes)) else {
        return Ok(false);
    };
    let registry = match maxson::CacheRegistry::from_json(&doc) {
        Ok(registry) => registry,
        Err(maxson::MaxsonError::Invalid { .. }) => return Ok(false),
        Err(e) => return Err(format!("not an invalid error: {e}")),
    };
    let items = doc
        .as_array()
        .ok_or("accepted a registry that is not an array")?;
    let text =
        |item: &JsonValue, key: &str| item.get(key).and_then(JsonValue::as_str).map(String::from);
    for entry in registry.entries() {
        let loc = &entry.location;
        let item = items
            .iter()
            .rev()
            .find(|item| {
                [("database", &loc.database), ("table", &loc.table)]
                    .into_iter()
                    .chain([("column", &loc.column), ("path", &loc.path)])
                    .all(|(key, want)| text(item, key).as_ref() == Some(want))
            })
            .ok_or_else(|| format!("entry {loc:?} is in no item"))?;
        prop_assert!(text(item, "cache_table").as_ref() == Some(&entry.cache_table));
        prop_assert!(text(item, "cache_field").as_ref() == Some(&entry.cache_field));
        for (key, got) in [("cached_at", entry.cached_at), ("bytes", entry.bytes)] {
            prop_assert!(
                spelled_int(item.get(key)) == Some(i128::from(got)),
                "{key} {:?} read as {got}",
                item.get(key)
            );
        }
    }
    Ok(true)
}

/// One hand-made document per way the decoders used to reinterpret bad
/// input, each refused, beside the well-formed one, accepted.
#[test]
fn metadata_decoders_refuse_values_that_do_not_fit() {
    let dir = std::env::temp_dir().join(format!("maxson-hostile-meta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let meta = |schema: &str, modified_at: &str, files: &str| {
        format!(r#"{{"schema": {schema}, "modified_at": {modified_at}, "files": {files}}}"#)
    };
    let schema = r#"[{"name": "id", "type": 0}]"#;
    let files = r#"["part-00000.norc"]"#;
    assert_eq!(
        open_meta(&dir, meta(schema, "3", files).as_bytes()),
        Ok(true)
    );
    for (defect, doc) in [
        (
            "type 257",
            meta(r#"[{"name": "id", "type": 257}]"#, "3", files),
        ),
        (
            "type -255",
            meta(r#"[{"name": "id", "type": -255}]"#, "3", files),
        ),
        (
            "a files entry that is no string",
            meta(schema, "3", r#"["part-00000.norc", 7]"#),
        ),
        ("files that are no array", meta(schema, "3", "{}")),
        ("a schema that is no array", meta("{}", "3", files)),
        ("negative modified_at", meta(schema, "-1", files)),
        (
            "modified_at 2^63",
            meta(schema, "9223372036854775808", files),
        ),
    ] {
        assert_eq!(
            open_meta(&dir, doc.as_bytes()),
            Ok(false),
            "{defect}: {doc}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    let registry = |cached_at: &str, bytes: &str| {
        format!(
            r#"[{{"database": "db", "table": "t", "column": "payload", "path": "$.a", "cache_table": "db__t", "cache_field": "c0", "cached_at": {cached_at}, "bytes": {bytes}}}]"#
        )
    };
    assert_eq!(decode_registry(registry("3", "4096").as_bytes()), Ok(true));
    for (defect, doc) in [
        ("negative cached_at", registry("-1", "4096")),
        ("negative bytes", registry("3", "-4096")),
        ("bytes 2^63", registry("3", "9223372036854775808")),
    ] {
        assert_eq!(
            decode_registry(doc.as_bytes()),
            Ok(false),
            "{defect}: {doc}"
        );
    }
}

#[test]
fn property_mutated_metadata_is_refused_or_read_exactly() {
    let dir = std::env::temp_dir().join(format!("maxson-mutated-meta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    check(
        "mutated_metadata_refused_or_exact",
        &Config::with_cases(64),
        &Gen::u64_any(),
        |&seed| {
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..20 {
                open_meta(&dir, &hostile_meta(&mut rng))?;
                decode_registry(&hostile_registry(&mut rng))?;
            }
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}
