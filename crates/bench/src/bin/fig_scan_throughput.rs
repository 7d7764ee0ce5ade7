//! fig_scan_throughput — scan-phase throughput on a dedicated wide table.
//!
//! The zero-copy scan work (shared-buffer string cells, batched column
//! reads with late materialization, allocation-free group keys) targets
//! the table-scan phase the paper's Read/Parse breakdown singles out.
//! This bench pins those wins to numbers: rows/s and MB/s for the three
//! scan shapes the pipeline optimizes —
//!
//! * `scan_only`    — full materialization of every row (id, date, payload),
//! * `scan_filter`  — a raw-column predicate keeping ~26% of rows; late
//!   materialization means rejected rows never build their wide payload
//!   cells,
//! * `scan_agg`     — grouped aggregation; the group key is hashed from
//!   cell views instead of a per-row heap string.
//!
//! Unlike the figure benches it does NOT use the tiny shared warehouse:
//! per-query fixed costs (SQL parse, planning) would drown the per-row
//! scan cost it exists to measure. It builds its own deterministic
//! `scanbench` table (40k rows of ~300-byte distinct JSON payloads in
//! full mode; 4k in `MAXSON_BENCH_FAST=1`; override with
//! `MAXSON_BENCH_SCAN_ROWS`) under the shared warehouse root, reused
//! across runs. Runs at 1 engine thread so the numbers measure per-row
//! work, not parallelism (fig_scaling covers threads). Rows are
//! sanity-checked against expected shapes before any timing is trusted.
//!
//! Two breakdown series pin the structural-kernel and mmap work:
//!
//! * `bitmap MB/s` — raw structural-bitmap construction throughput per
//!   available kernel tier (scalar / swar / sse2 / avx2), measured over
//!   the scanbench payload documents outside the engine; the dispatched
//!   tier should beat scalar here or the dispatch is mistuned,
//! * `scan_only MB/s` — the scan_only shape with part files memory-mapped
//!   vs copied (`MAXSON_MMAP`), isolating the I/O-path change.

use maxson_bench::{bench_root, run_query_avg, Report, Series};
use maxson_engine::session::Session;
use maxson_json::kernels;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use std::time::Instant;

struct Shape {
    label: &'static str,
    sql: String,
}

/// Build (or reuse) the dedicated scan table: `rows` rows over 8 files,
/// dates cycling over 31 days, ~300-byte payloads drawn from 256 distinct
/// documents — repeated event templates, the dictionary-encodable shape
/// where decode-once shared buffers pay (the old path re-allocated and
/// re-copied every row regardless of repetition).
fn scan_table(rows: usize) -> String {
    let name = format!("t{rows}");
    let mut session = Session::open(bench_root()).expect("open warehouse");
    if session.catalog_mut().table("scanbench", &name).is_ok() {
        return name;
    }
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("date", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .expect("schema");
    let mut catalog = session.catalog_mut();
    let table = catalog
        .create_table("scanbench", &name, schema, 0)
        .expect("create scanbench table");
    let files = 8usize;
    let per_file = rows.div_ceil(files);
    let mut written = 0usize;
    for _ in 0..files {
        let chunk = per_file.min(rows - written);
        if chunk == 0 {
            break;
        }
        let batch: Vec<Vec<Cell>> = (written..written + chunk)
            .map(|i| {
                let i = i as i64;
                let k = i % 256;
                vec![
                    Cell::Int(i),
                    Cell::Int(20190101 + i % 31),
                    Cell::Str(
                        format!(
                            r#"{{"event": {k}, "sku": "item-{k:06}", "qty": {}, "note": "template {k} of the scanbench wide payload column, padded to realistic document width {k:>80}"}}"#,
                            1 + k % 9,
                        )
                        .into(),
                    ),
                ]
            })
            .collect();
        table
            .append_file(&batch, WriteOptions::default(), 1)
            .expect("append scanbench file");
        written += chunk;
    }
    drop(catalog);
    name
}

fn main() {
    let fast = std::env::var("MAXSON_BENCH_FAST").as_deref() == Ok("1");
    let runs = if fast { 2 } else { 15 };
    let rows: usize = std::env::var("MAXSON_BENCH_SCAN_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 4_000 } else { 40_000 });

    let table = scan_table(rows);
    let shapes = [
        Shape {
            label: "scan_only",
            sql: format!("select id, date, payload from scanbench.{table}"),
        },
        Shape {
            label: "scan_filter",
            // Dates cycle over 31 days; keeping 8 of them passes ~26% of
            // rows, so late materialization has real rows to skip.
            sql: format!("select id, payload from scanbench.{table} where date <= 20190108"),
        },
        Shape {
            label: "scan_agg",
            sql: format!(
                "select date, count(*) as n, sum(id) as s from scanbench.{table} group by date"
            ),
        },
    ];

    let mut report = Report::new(
        "fig_scan_throughput",
        "scan-phase throughput: rows/s and MB/s for scan-only, scan+filter, scan+agg",
    );
    report.note(format!("dedicated scanbench table: {rows} rows, 8 files"));
    report.note("1 engine thread pinned: measures per-row scan cost, not parallelism");
    report.note(format!("{runs} timed runs per shape, mean wall reported"));

    let session = {
        let mut s = Session::open(bench_root()).expect("open session");
        s.set_threads(Some(1));
        s
    };

    let mut rows_series = Series::new("rows/s");
    let mut mb_series = Series::new("MB/s");
    let mut wall_series = Series::new("wall (s)");
    for shape in &shapes {
        let result = session.execute(&shape.sql).expect("shape executes");
        assert!(
            !result.rows.is_empty(),
            "{}: produced no rows — scanbench shape changed?",
            shape.label
        );
        let (wall, metrics) = run_query_avg(&session, &shape.sql, runs);
        let secs = wall.as_secs_f64().max(f64::EPSILON);
        let rows_per_s = metrics.rows_scanned as f64 / secs;
        let mb_per_s = metrics.bytes_read as f64 / 1e6 / secs;
        rows_series.push(shape.label, rows_per_s);
        mb_series.push(shape.label, mb_per_s);
        wall_series.push(shape.label, secs);
        println!(
            "{}: {:.0} rows/s, {:.2} MB/s, {:.5}s wall (rows_scanned={}, bytes_read={}, cells_out={})",
            shape.label,
            rows_per_s,
            mb_per_s,
            secs,
            metrics.rows_scanned,
            metrics.bytes_read,
            result.rows.len(),
        );
    }
    report.add(rows_series);
    report.add(mb_series);
    report.add(wall_series);

    // Structural-bitmap construction throughput per kernel tier, over the
    // same 256 distinct payload documents the table cycles through. Pure
    // kernel time — no engine, no I/O — so tiers are directly comparable.
    let payloads: Vec<String> = (0..256i64)
        .map(|k| {
            format!(
                r#"{{"event": {k}, "sku": "item-{k:06}", "qty": {}, "note": "template {k} of the scanbench wide payload column, padded to realistic document width {k:>80}"}}"#,
                1 + k % 9,
            )
        })
        .collect();
    let payload_bytes: usize = payloads.iter().map(String::len).sum();
    let reps = if fast { 50 } else { 500 };
    let mut kernel_series = Series::new("bitmap MB/s");
    for kernel in kernels::available() {
        // One untimed pass warms caches and the dispatch path.
        for p in &payloads {
            std::hint::black_box(kernels::build_bitmaps_with(kernel, p.as_bytes()));
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for p in &payloads {
                std::hint::black_box(kernels::build_bitmaps_with(kernel, p.as_bytes()));
            }
        }
        let secs = t0.elapsed().as_secs_f64().max(f64::EPSILON);
        let mb_per_s = (payload_bytes * reps) as f64 / 1e6 / secs;
        kernel_series.push(format!("bitmap_{}", kernel.name()), mb_per_s);
        println!(
            "bitmap_{}: {:.1} MB/s ({} reps x {} docs)",
            kernel.name(),
            mb_per_s,
            reps,
            payloads.len()
        );
    }
    report.add(kernel_series);
    report.note(format!(
        "dispatched kernel tier: {}",
        kernels::active().name()
    ));

    // scan_only with part files memory-mapped vs copied. MAXSON_MMAP is
    // read at each split open, so flipping it between runs is enough.
    let mut mmap_series = Series::new("scan_only MB/s");
    for (label, value) in [("mmap_on", "1"), ("mmap_off", "0")] {
        std::env::set_var("MAXSON_MMAP", value);
        let (wall, metrics) = run_query_avg(&session, &shapes[0].sql, runs);
        let secs = wall.as_secs_f64().max(f64::EPSILON);
        let mb_per_s = metrics.bytes_read as f64 / 1e6 / secs;
        mmap_series.push(label, mb_per_s);
        println!("{label}: {mb_per_s:.2} MB/s, {secs:.5}s wall");
    }
    std::env::remove_var("MAXSON_MMAP");
    report.add(mmap_series);

    report.emit();
}
