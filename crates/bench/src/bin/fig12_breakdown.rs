//! Fig. 12 — Read/Parse/Compute breakdown and input-size reduction for Q2
//! and Q9, Spark vs Maxson.
//!
//! The paper breaks the runtime of Q2 and Q9 into Read, Parse, and Compute:
//! Maxson eliminates the Parse slice entirely by reading cached values, and
//! because both queries filter on JSON properties, its predicate pushdown
//! into the cache table also shrinks the input size.

use maxson_bench::workload::session_for;
use maxson_bench::{load_tables, run_query_avg, Report, Series, SystemKind};

fn main() {
    let queries = load_tables();
    let picks: Vec<_> = queries
        .iter()
        .filter(|q| q.name == "Q2" || q.name == "Q9")
        .collect();

    let mut report = Report::new(
        "fig12",
        "Q2/Q9 phase breakdown (seconds) and input bytes, Spark vs Maxson",
    );
    report.note("Paper: Maxson removes the Parse phase and reads far less input (JSON predicates push down into the cache table).");

    // Wall-clock gauges, not per-thread sums: under split-parallel
    // execution `read + parse` can exceed the total runtime, so the
    // breakdown uses the estimated wall share of each phase (see
    // ExecMetrics::compute_wall).
    let mut read_s = Series::new("read (wall)");
    let mut parse_s = Series::new("parse (wall)");
    let mut compute_s = Series::new("compute (wall)");
    let mut input_s = Series::new("input bytes");
    // Zero-copy pipeline work counters: how many column values were
    // materialized into row cells, and how many rows the batched scan
    // dropped (row-level SARG + filter) before full materialization.
    let mut cells_s = Series::new("cells materialized");
    let mut skipped_s = Series::new("batch rows skipped");

    let fast = maxson_bench::fast();
    let runs = if fast { 1 } else { 2 };

    for q in &picks {
        // Spark baseline.
        let spark = maxson_bench::fresh_session();
        let (_, sm) = run_query_avg(&spark, &q.sql, runs);
        // Maxson with a full-budget cache.
        let (maxson, _cached) = session_for(SystemKind::Maxson, &queries, u64::MAX, true);
        let (_, mm) = run_query_avg(&maxson, &q.sql, runs);

        for (label, m) in [
            (format!("{} Spark", q.name), &sm),
            (format!("{} Maxson", q.name), &mm),
        ] {
            read_s.push(label.clone(), m.read_wall.as_secs_f64());
            parse_s.push(label.clone(), m.parse_wall.as_secs_f64());
            compute_s.push(label.clone(), m.compute_wall().as_secs_f64());
            input_s.push(label.clone(), m.bytes_read as f64);
            cells_s.push(label.clone(), m.cells_materialized as f64);
            skipped_s.push(label, m.batch_rows_skipped as f64);
        }
        report.note_parse_dedup(&format!("{} Spark", q.name), &sm);
        report.note_parse_dedup(&format!("{} Maxson", q.name), &mm);
        // One traced (untimed) run per system for the operator rollup.
        for (label, session) in [("Spark", &spark), ("Maxson", &maxson)] {
            session.set_trace_enabled(true);
            let _ = session.execute(&q.sql);
            report.note_top_operators(&format!("{} {label}", q.name), session.tracer());
            session.set_trace_enabled(false);
        }
        println!(
            "{}: Spark parse {:.4}s / {} B input; Maxson parse {:.4}s / {} B input (rg skipped {})",
            q.name,
            sm.parse.as_secs_f64(),
            sm.bytes_read,
            mm.parse.as_secs_f64(),
            mm.bytes_read,
            mm.row_groups_skipped
        );
    }
    report.add(read_s);
    report.add(parse_s);
    report.add(compute_s);
    report.add(input_s);
    report.add(cells_s);
    report.add(skipped_s);
    report.emit();
}
