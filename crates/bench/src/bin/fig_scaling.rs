//! fig_scaling — split-parallel execution scaling for a parse-heavy query.
//!
//! Runs the workload's most parse-heavy query (Q2, ten JSONPaths per row)
//! at 1/2/4/8 engine threads and reports wall seconds plus speedup vs the
//! 1-thread serial reference, for both the plain engine and the
//! Maxson-rewritten path (where the raw and cache readers for a split stay
//! paired inside one task). Rows are asserted byte-identical to the serial
//! run at every thread count before any timing is trusted.
//!
//! Speedup is hardware-conditional: on a 1-core machine the extra threads
//! time-slice one core and the curve is flat. The report notes the
//! available core count so readers can interpret the numbers.

use std::time::Duration;

use maxson_bench::workload::session_for;
use maxson_bench::{load_tables, run_query_avg, Report, Series, SystemKind};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let queries = load_tables();
    // Q2 stitches ten cached paths with uncached ones and parses the most
    // JSON per row, so the scan+parse phase dominates and split-level
    // parallelism has the most room to help.
    let q2 = queries
        .iter()
        .find(|q| q.name == "Q2")
        .expect("Q2 in workload");

    let fast = maxson_bench::fast();
    let runs = if fast { 1 } else { 5 };

    let mut report = Report::new(
        "fig_scaling",
        "split-parallel scaling: Q2 wall seconds and speedup vs 1 thread",
    );
    report.note("speedup beyond the available core count is time-slicing, not parallelism");
    report.note("rows verified byte-identical to the 1-thread serial run at every thread count");

    let (maxson_session, _cached) = session_for(SystemKind::Maxson, &queries, u64::MAX, true);
    let systems: [(&str, maxson_engine::Session); 2] = [
        ("Spark", maxson_bench::fresh_session()),
        ("Maxson", maxson_session),
    ];

    for (name, mut session) in systems {
        let mut wall_series = Series::new(format!("{name} wall (s)"));
        let mut speedup_series = Series::new(format!("{name} speedup"));
        let mut serial_rows: Option<String> = None;
        let mut serial_wall: Option<Duration> = None;

        for threads in THREAD_COUNTS {
            session.set_threads(Some(threads));
            let rows = session
                .execute(&q2.sql)
                .expect("Q2 executes")
                .to_display_string();
            match &serial_rows {
                None => serial_rows = Some(rows),
                Some(reference) => assert_eq!(
                    &rows, reference,
                    "{name} Q2 rows diverge from serial at {threads} threads"
                ),
            }

            let (wall, metrics) = run_query_avg(&session, &q2.sql, runs);
            let base = *serial_wall.get_or_insert(wall);
            let speedup = base.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
            let label = format!("{threads} thread{}", if threads == 1 { "" } else { "s" });
            wall_series.push(label.clone(), wall.as_secs_f64());
            speedup_series.push(label, speedup);
            println!(
                "{name} Q2 @ {threads} threads: {:.4}s (speedup {:.2}x, threads_used={}, tasks={})",
                wall.as_secs_f64(),
                speedup,
                metrics.threads_used,
                metrics.par_tasks
            );
        }
        report.add(wall_series);
        report.add(speedup_series);
    }

    report.emit();
}
