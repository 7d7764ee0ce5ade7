//! Hostile Norc column chunks: whatever bytes a chunk holds — a count
//! rewritten to something enormous behind a valid checksum, or any byte-level
//! mutation — decoding it, whole or at a row selection, ends in `Ok` or
//! `StorageError::Corrupt`: never a panic, and never a reservation sized by
//! a number the chunk's own bytes cannot back.
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
//! A failing case prints its seed; replay it with
//! `MAXSON_TESTKIT_SEED=<seed> cargo test --test hostile_chunks`.

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
