//! Wire microbench on the testkit bench runner: one Q1-shaped QUERY
//! response (971 rows × 12 cells, an `Int` id and eleven 13-byte strings,
//! about 3 % NULLs) encoded cell by cell as the server does and decoded
//! by the client's own decoder, each reported in ns/cell. The runner drops
//! each decoded result after its sample is taken: the decode is timed,
//! not the drop of its ten thousand strings.
//!
//! Run with `cargo bench -p maxson-bench --bench wire`; set
//! `MAXSON_BENCH_FAST=1` for a quick smoke pass.

use maxson_bench::report::{Report, Series};
use maxson_server::client::decode_query;
use maxson_server::wire::{Writer, STATUS_OK};
use maxson_storage::Cell;
use maxson_testkit::bench::{bb, BenchRunner};
use maxson_testkit::Rng;

const ROWS: usize = 971;
const COLS: usize = 12;

/// The rows of a Q1-shaped result, drawn from a fixed seed.
fn q1_rows() -> Vec<Vec<Cell>> {
    let mut rng = Rng::seed_from_u64(0x5131);
    (0..ROWS)
        .map(|i| {
            let mut row = vec![Cell::Int(i as i64)];
            row.extend((1..COLS).map(|c| {
                if rng.below(100) < 3 {
                    Cell::Null
                } else {
                    Cell::from(format!("v{c:02}-{:09x}", rng.next_u32()))
                }
            }));
            row
        })
        .collect()
}

/// A QUERY response payload in the server's layout: status, epoch, column
/// names, the row block, the five metrics.
fn encode(columns: &[String], rows: &[Vec<Cell>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(STATUS_OK).u64(1).u32(columns.len() as u32);
    for c in columns {
        w.str(c);
    }
    w.u32(rows.len() as u32);
    for cell in rows.iter().flatten() {
        w.cell(cell);
    }
    for _ in 0..5 {
        w.u64(0);
    }
    w.into_bytes()
}

fn main() {
    let runner = BenchRunner::from_env();
    let columns: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    let rows = q1_rows();
    let payload = encode(&columns, &rows);
    let decoded = decode_query(&payload).unwrap();
    assert_eq!(decoded.rows, rows);
    let cells = (ROWS * COLS) as f64;

    let mut report = Report::new("bench-wire", "QUERY response encode and decode");
    report.note(format!(
        "median ns per cell over a {ROWS} x {COLS} Q1-shaped response of {} bytes",
        payload.len()
    ));
    let mut series = Series::new("q1_response");
    let stats = runner.run("wire/encode", || encode(&columns, &rows));
    series.push("encode_ns_per_cell", stats.median_ns / cells);
    let stats = runner.run("wire/decode", || decode_query(bb(&payload)).unwrap());
    series.push("decode_ns_per_cell", stats.median_ns / cells);
    report.add(series);
    report.emit();
}
