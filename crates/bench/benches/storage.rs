//! Microbenches for the Norc storage substrate on the testkit bench
//! runner: write, full scan, SARG-pruned scan, and chunk decode by column
//! shape.
//!
//! Run with `cargo bench --bench storage`; set `MAXSON_BENCH_FAST=1` for a
//! quick smoke pass.

use maxson_bench::report::{Report, Series};
use maxson_storage::file::{write_rows, NorcFile, WriteOptions};
use maxson_storage::{Cell, CmpOp, ColumnType, Field, Schema, SearchArgument};
use maxson_testkit::bench::{bb, BenchRunner};
use std::path::PathBuf;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap()
}

fn rows(n: usize) -> Vec<Vec<Cell>> {
    (0..n)
        .map(|i| {
            vec![
                Cell::Int(i as i64),
                Cell::from(format!("{{\"a\": {i}, \"b\": \"text-{i}\"}}")),
            ]
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("maxson-bench");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.norc", std::process::id()))
}

fn bench_write(runner: &BenchRunner) -> Series {
    let mut series = Series::new("norc_write");
    for &n in &[1_000usize, 10_000] {
        let data = rows(n);
        let path = temp_path(&format!("write-{n}"));
        let stats = runner.run(&format!("norc_write/{n}"), || {
            bb(write_rows(&path, schema(), &data, WriteOptions::default()).unwrap())
        });
        series.push(format!("{n} rows"), stats.median_ns);
        std::fs::remove_file(&path).ok();
    }
    series
}

fn bench_scan(runner: &BenchRunner) -> Series {
    let n = 10_000usize;
    let path = temp_path("scan");
    write_rows(
        &path,
        schema(),
        &rows(n),
        WriteOptions {
            row_group_size: 1_000,
            ..Default::default()
        },
    )
    .unwrap();
    let file = NorcFile::open(&path).unwrap();

    let mut series = Series::new("norc_scan");
    let stats = runner.run("norc_scan/full_scan", || {
        bb(file.read_columns(&[0, 1], None).unwrap())
    });
    series.push("full_scan", stats.median_ns);
    // id >= 9000 keeps only the last of ten row groups.
    let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(9_000));
    let stats = runner.run("norc_scan/sarg_pruned_scan", || {
        let keep = sarg.keep_array(file.row_groups());
        bb(file.read_columns(&[0, 1], Some(&keep)).unwrap())
    });
    series.push("sarg_pruned_scan", stats.median_ns);
    std::fs::remove_file(&path).ok();
    series
}

/// Chunk decode on a cache-column-shaped file: 10,000 rows in one row
/// group of short extracted values — unique strings (plain stream), eight
/// distinct strings (dictionary stream), a date-like integer (RLE runs) —
/// each read alone, and the plain column again at every other row.
fn bench_decode(runner: &BenchRunner) -> Report {
    let n = 10_000usize;
    let schema = Schema::new(vec![
        Field::new("plain", ColumnType::Utf8),
        Field::new("dict", ColumnType::Utf8),
        Field::new("date", ColumnType::Int64),
    ])
    .unwrap();
    let data: Vec<Vec<Cell>> = (0..n)
        .map(|i| {
            vec![
                Cell::from(format!("value-{}", (i * 31) % 100_000)),
                Cell::from(format!("group-{}", i % 8)),
                Cell::Int(20_190_101 + (i / 400) as i64),
            ]
        })
        .collect();
    let path = temp_path("decode");
    let file = write_rows(&path, schema, &data, WriteOptions::default()).unwrap();
    let half: Vec<u32> = (0..n as u32).step_by(2).collect();

    let mut report = Report::new(
        "bench-storage-decode",
        "Norc chunk decode by column shape, 10,000-row cache-column-shaped chunk",
    );
    report.note("at the median; MB are decoded bytes (ColumnData::byte_size), values are rows out");
    let mut mb_per_s = Series::new("decode_mb_per_s");
    let mut values_per_us = Series::new("decode_values_per_us");
    let cases: [(&str, usize, Option<&[u32]>); 4] = [
        ("plain strings", 0, None),
        ("dictionary strings", 1, None),
        ("int64 rle", 2, None),
        ("plain strings, 50% selected", 0, Some(&half)),
    ];
    for (label, column, rows) in cases {
        let read = || file.read_columns_at(&[column], None, rows).unwrap();
        let (bytes, values) = (read()[0].byte_size(), read()[0].len());
        let stats = runner.run(&format!("norc_decode/{label}"), || bb(read()));
        mb_per_s.push(label, bytes as f64 / stats.median_ns * 1e3);
        values_per_us.push(label, values as f64 / stats.median_ns * 1e3);
    }
    std::fs::remove_file(&path).ok();
    report.add(mb_per_s);
    report.add(values_per_us);
    report
}

fn main() {
    let runner = BenchRunner::from_env();
    let mut report = Report::new("bench-storage", "Norc write and scan microbenches");
    report.note("median ns per operation; pruned scan keeps 1 of 10 row groups");
    report.add(bench_write(&runner));
    report.add(bench_scan(&runner));
    report.emit();
    bench_decode(&runner).emit();
}
