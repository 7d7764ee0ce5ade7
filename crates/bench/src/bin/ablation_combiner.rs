//! Ablation — synchronized two-reader combiner vs the naive row-number
//! join the paper dismisses in §I ("the join operations can be costly").
//!
//! Both strategies stitch the same raw/cache tables; the combiner exploits
//! positional alignment (no hash table, and SARG skips transfer across
//! readers), while the join baseline materializes everything and probes a
//! hash table per row.

use maxson_bench::baselines::{scan_rows, JoinStitchProvider};
use maxson_bench::{Report, Series};
use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{NorcScanProvider, ScanProvider};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, CmpOp, ColumnType, Field, Schema, SearchArgument, Table};

fn build_tables(rows: usize) -> (Table, Table, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "maxson-ablation-combiner-{}-{rows}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let raw_schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
    let mut raw = Table::create(root.join("raw"), raw_schema, 0).unwrap();
    let mut cache = Table::create(root.join("cache"), cache_schema, 0).unwrap();
    let opts = WriteOptions {
        row_group_size: 1_000,
        ..Default::default()
    };
    let raw_rows: Vec<Vec<Cell>> = (0..rows)
        .map(|i| {
            vec![
                Cell::Int(i as i64),
                Cell::from(format!("{{\"a\": {i}, \"pad\": \"{}\"}}", "x".repeat(64))),
            ]
        })
        .collect();
    let cache_rows: Vec<Vec<Cell>> = (0..rows).map(|i| vec![Cell::from(i.to_string())]).collect();
    raw.append_file(&raw_rows, opts, 1).unwrap();
    cache.append_file(&cache_rows, opts, 1).unwrap();
    (raw, cache, root)
}

fn out_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("va", ColumnType::Utf8),
    ])
    .unwrap()
}

fn time_scan(provider: &dyn ScanProvider, reps: usize) -> (f64, usize) {
    let mut rows = 0;
    let start = std::time::Instant::now();
    for _ in 0..reps {
        let mut m = ExecMetrics::default();
        rows = scan_rows(provider, &mut m).expect("scan").len();
    }
    (start.elapsed().as_secs_f64() / reps as f64, rows)
}

fn main() {
    let mut report = Report::new(
        "ablation_combiner",
        "Stitching strategies: synchronized readers vs row-number join (seconds per scan)",
    );
    report.note("Paper §I: joining raw and cache tables is the costly naive alternative to the value combiner.");

    let mut combiner_s = Series::new("combiner");
    let mut join_s = Series::new("row-number join");
    let mut combiner_sel = Series::new("combiner+SARG");
    let mut join_sel = Series::new("join (SARG n/a)");

    for rows in [10_000usize, 50_000] {
        let (raw, cache, root) = build_tables(rows);
        let reps = 5;
        let combiner = NorcScanProvider::new(raw.clone(), vec![0], None)
            .expect("raw scan")
            .with_cache(cache.clone(), vec![0], None)
            .expect("combined scan");
        let join =
            JoinStitchProvider::new(raw.clone(), vec![0], cache.clone(), vec![0], out_schema());
        let (tc, nc) = time_scan(&combiner, reps);
        let (tj, nj) = time_scan(&join, reps);
        assert_eq!(nc, nj, "strategies must agree");
        println!(
            "{rows} rows: combiner {tc:.5}s, join {tj:.5}s ({:.2}x)",
            tj / tc
        );
        combiner_s.push(format!("{rows} rows"), tc);
        join_s.push(format!("{rows} rows"), tj);

        // Selective case: SARG keeps ~10% of row groups. Only the combiner
        // benefits — the join baseline cannot skip, because positional
        // alignment is exactly what it does not rely on.
        let sarg =
            SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int((rows as f64 * 0.9) as i64));
        let combiner_sarg = NorcScanProvider::new(raw.clone(), vec![0], None)
            .expect("raw scan")
            .with_cache(cache.clone(), vec![0], Some(sarg))
            .expect("combined scan");
        let (ts, _) = time_scan(&combiner_sarg, reps);
        println!(
            "{rows} rows selective: combiner+SARG {ts:.5}s vs join {tj:.5}s ({:.1}x)",
            tj / ts
        );
        combiner_sel.push(format!("{rows} rows"), ts);
        join_sel.push(format!("{rows} rows"), tj);
        std::fs::remove_dir_all(&root).ok();
    }
    report.add(combiner_s);
    report.add(join_s);
    report.add(combiner_sel);
    report.add(join_sel);
    report.emit();
}
