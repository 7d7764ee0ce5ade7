//! An interactive warehouse shell over the Maxson stack.
//!
//! Loads (or reuses) the ten Table II workload tables, runs one Maxson
//! midnight cycle, and then reads SQL from stdin — printing results, the
//! plan, and the Read/Parse/Compute metrics for every query, so the effect
//! of the cache is visible interactively.
//!
//! Run with:
//! ```sh
//! cargo run --release --example warehouse_shell
//! ```
//!
//! Commands:
//! * any `SELECT ...;` — executed against the warehouse
//! * `\plan SELECT ...;` — show the plan without executing
//! * `\cache on` / `\cache off` — install / remove the Maxson rewriter
//! * `\tables` — list tables
//! * `\quit` — exit

use std::io::{BufRead, Write};

use maxson::mpjp::PredictorKind;
use maxson::rewriter::MaxsonScanRewriter;
use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_datagen::tables::{load_workload_tables, WorkloadConfig};
use maxson_engine::session::Session;
use maxson_storage::Catalog;
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};

fn main() {
    let root = std::env::var_os("MAXSON_BENCH_DATA")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench-data"));
    println!(
        "warehouse: {} (override with MAXSON_BENCH_DATA)",
        root.display()
    );

    // Ensure the workload tables exist.
    let queries = {
        let mut catalog = Catalog::open(&root).expect("open warehouse");
        load_workload_tables(&mut catalog, &WorkloadConfig::default()).expect("load tables")
    };
    let mut session = Session::open(&root).expect("open session");

    // Run one midnight cycle so `\cache on` has something to serve.
    let history: Vec<QueryRecord> = (0..14u32)
        .flat_map(|day| {
            queries.iter().enumerate().flat_map(move |(qi, q)| {
                let paths: Vec<JsonPathLocation> = q
                    .paths
                    .iter()
                    .map(|p| {
                        JsonPathLocation::new(
                            q.database.clone(),
                            q.table.clone(),
                            "payload",
                            p.clone(),
                        )
                    })
                    .collect();
                (0..2u32).map(move |user| QueryRecord {
                    query_id: u64::from(day) * 100 + qi as u64 * 2 + u64::from(user),
                    user_id: qi as u32 * 2 + user,
                    day,
                    hour: 9,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths.clone(),
                })
            })
        })
        .collect();
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let report = pipeline
        .run_midnight_cycle(&mut session, &history, 13, 100)
        .expect("midnight cycle");
    println!(
        "cache populated: {} paths, {} bytes. Try:\n  select id, get_json_object(payload, '$.f0') as f0 from mydb.q1 limit 5;\n  \\cache off  (then rerun and compare parse time)\n",
        report.cache.cached.len(),
        report.cache.bytes_used
    );

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print!("maxson> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        match line {
            "" => {}
            "\\quit" | "\\q" | "exit" => break,
            "\\tables" => {
                for (db, t) in session.catalog().list_tables() {
                    println!("  {db}.{t}");
                }
            }
            "\\cache on" => match MaxsonScanRewriter::open(&session) {
                Ok(rw) => {
                    session.set_scan_rewriter(Some(Box::new(rw)));
                    println!("Maxson rewriter installed");
                }
                Err(e) => println!("error: {e}"),
            },
            "\\cache off" => {
                session.set_scan_rewriter(None);
                println!("Maxson rewriter removed");
            }
            other => {
                buffer.push_str(other);
                if !buffer.trim_end().ends_with(';') {
                    buffer.push(' ');
                    print!("     -> ");
                    std::io::stdout().flush().ok();
                    continue;
                }
                let sql = buffer.trim_end().trim_end_matches(';').to_string();
                buffer.clear();
                if let Some(rest) = sql.strip_prefix("\\plan ") {
                    match session.plan(rest) {
                        Ok((plan, took, _)) => {
                            println!("{}", plan.display());
                            println!("(planned in {took:?})");
                        }
                        Err(e) => println!("error: {e}"),
                    }
                } else {
                    match session.execute(&sql) {
                        Ok(result) => {
                            let show = result.rows.len().min(20);
                            println!(
                                "{}",
                                maxson_engine::QueryResult {
                                    columns: result.columns.clone(),
                                    rows: result.rows[..show].to_vec(),
                                    metrics: result.metrics.clone(),
                                    plan_display: String::new(),
                                    epoch: result.epoch,
                                }
                                .to_display_string()
                            );
                            if result.rows.len() > show {
                                println!("... ({} rows total)", result.rows.len());
                            }
                            println!("{}", result.metrics.summary());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
        }
        print!("maxson> ");
        std::io::stdout().flush().ok();
    }
    println!("bye");
}
