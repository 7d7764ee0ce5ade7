//! Hostile bytes on both sides of the engine: Norc column chunks read from
//! disk and response frames read off the wire.
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
//! the wire and a 24-byte vector in memory).
//!
//! A failing case prints its seed; replay it with
//! `MAXSON_TESTKIT_SEED=<seed> cargo test --test hostile_chunks`.

use maxson_engine::session::Session;
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
