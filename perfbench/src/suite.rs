//! The modes that run workloads as child processes, so peak memory and
//! caches never leak from one workload into the next: `all`, `trace`,
//! `agree` and `--check`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::report::{parse_result, MetricSpec, RunResult, Spec};
use crate::rig::{Context, Res, Workload};
use crate::stats::{median, quartile_spread};
use crate::Flags;

fn sibling(name: &str) -> Res<std::path::PathBuf> {
    let path = std::env::current_exe()
        .ctx("locate own binary")?
        .with_file_name(name);
    if !path.exists() {
        return Err(format!(
            "{} is not built: run `cargo build --release --offline --bins` in perfbench/",
            path.display()
        ));
    }
    Ok(path)
}

/// This binary's own name: the benchmark proper.
const BENCH_BINARY: &str = "perfbench";

/// One workload in a child process running `binary`. Returns its parsed
/// result and everything it printed.
pub fn child(
    flags: &Flags,
    spec: &Spec,
    workload: Workload,
    binary: &str,
) -> Res<(RunResult, String)> {
    let trace = flags.trace;
    let mut cmd = Command::new(sibling(binary)?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args([
            "--seconds",
            &flags.seconds.unwrap_or(spec.run_seconds).to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rows", &flags.rows.to_string()])
        .args(["--setups", &flags.setups.to_string()]);
    if let Some(blocks) = flags.blocks {
        cmd.args(["--blocks", &blocks.to_string()]);
    }
    if let Some(dir) = &flags.data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    if flags.check {
        cmd.arg("--check");
    }
    let output = cmd.stderr(Stdio::inherit()).output().ctx("run workload")?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}\n{stdout}",
            workload.name(),
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("workload printed nothing")?;
    let result = parse_result(line, spec.metrics(trace)).ctx(workload.name())?;
    Ok((result, stdout))
}

fn print_metrics(workload: Workload, result: &RunResult, specs: &[MetricSpec]) {
    for m in specs {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
        println!(
            "{:<16} {:<32} {:>16.4} {:<6} {} is better{bound}",
            workload.name(),
            m.name,
            result.metrics[&m.name].0,
            m.unit,
            if m.lower_is_better { "lower" } else { "higher" },
        );
    }
    println!(
        "{:<16} {:<32} {:>16.4} {:<6} ({} of {} blocks)",
        workload.name(),
        "fail_share",
        result.failed as f64 / result.attempted as f64,
        "ratio",
        result.failed,
        result.attempted
    );
}

/// One suite: the four workloads, untraced. `Ok(false)` when any failed.
fn suite(flags: &Flags, spec: &Spec, echo: bool) -> Res<(BTreeMap<&'static str, RunResult>, bool)> {
    let mut results = BTreeMap::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let (result, stdout) = child(flags, spec, workload, BENCH_BINARY)?;
        if echo {
            // The child's header: settings, scrubbed variables, resolved knobs.
            for line in stdout.lines().take(3) {
                println!("# {line}");
            }
            print_metrics(workload, &result, &spec.end_to_end);
        }
        clean &= result.correct && result.failed == 0;
        results.insert(workload.name(), result);
    }
    Ok((results, clean))
}

pub fn all(flags: &Flags) -> Res<i32> {
    let spec = Spec::load()?;
    let (results, clean) = suite(flags, &spec, true)?;
    if let Some(path) = &flags.out {
        let mut doc = String::from("{");
        for (i, (name, r)) in results.iter().enumerate() {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, (v, _))| format!("\"{k}\": {v:?}"))
                .collect();
            doc.push_str(&format!(
                "{}\n  \"{name}\": {{\"attempted\": {}, \"failed\": {}, {}}}",
                if i == 0 { "" } else { "," },
                r.attempted,
                r.failed,
                metrics.join(", ")
            ));
        }
        doc.push_str("\n}\n");
        std::fs::write(path, doc).ctx("write --out")?;
    }
    if !clean {
        eprintln!(
            "perfbench: fail_share > 0 on unchanged code is a bug in the system or the benchmark"
        );
    }
    Ok(i32::from(!clean))
}

pub fn trace(flags: &Flags, workload: Workload) -> Res<i32> {
    let spec = Spec::load()?;
    let untraced_flags = Flags {
        trace: false,
        ..flags.clone()
    };
    let traced_flags = Flags {
        trace: true,
        ..flags.clone()
    };
    let (untraced, _) = child(&untraced_flags, &spec, workload, BENCH_BINARY)?;
    let (traced, stdout) = child(&traced_flags, &spec, workload, BENCH_BINARY)?;
    // The traced child prints the layer budget and the work counters.
    let body: Vec<&str> = stdout.lines().collect();
    for line in &body[..body.len() - 1] {
        println!("{line}");
    }
    print_metrics(workload, &traced, &spec.per_layer);
    let (plain_p50, traced_p50) = (
        untraced.metrics["block_p50_ms"].0,
        traced.metrics["block_p50_traced_ms"].0,
    );
    println!(
        "{:<16} {:<32} {:>16.4} ratio  (traced {traced_p50:.3} ms over untraced {plain_p50:.3} ms block_p50)",
        workload.name(),
        "trace_overhead",
        traced_p50 / plain_p50
    );
    Ok(i32::from(!(untraced.correct && traced.correct)))
}

pub fn agree(flags: &Flags) -> Res<i32> {
    let spec = Spec::load()?;
    if flags.sets < 2 {
        return Err("--sets must be at least 2".to_string());
    }
    let mut sets = Vec::with_capacity(flags.sets);
    let mut clean = true;
    for k in 0..flags.sets {
        let (results, ok) = suite(flags, &spec, false)?;
        println!(
            "set {} of {} done{}",
            k + 1,
            flags.sets,
            if ok { "" } else { " WITH FAILED BLOCKS" }
        );
        clean &= ok;
        sets.push(results);
    }
    let mut violations = 0;
    println!(
        "{:<16} {:<16} {:>12} {:>10} {:>8} {:>8}",
        "workload", "metric", "median", "max-min", "iqr", "bound"
    );
    for workload in Workload::ALL {
        for m in &spec.end_to_end {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| s[workload.name()].metrics[&m.name].0)
                .collect();
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let range = (hi - lo) / mid;
            let bound = m.bound.unwrap_or(0.0);
            let over = range > bound;
            violations += usize::from(over);
            // Quartiles of fewer than four values say nothing.
            let iqr = if values.len() >= 4 {
                format!("{:.2}%", quartile_spread(&values) * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{:<16} {:<16} {:>12.4} {:>9.2}% {iqr:>8} {:>7.0}%{}",
                workload.name(),
                m.name,
                mid,
                range * 100.0,
                bound * 100.0,
                if over { "  VIOLATION" } else { "" }
            );
        }
    }
    Ok(i32::from(violations > 0 || !clean))
}

/// One block per workload on tiny data, untraced and traced: the output
/// schema is validated against `BENCHMARK.json` in seconds.
pub fn check(flags: &Flags) -> Res<i32> {
    let spec = Spec::load()?;
    let tiny = Flags {
        rows: 200,
        blocks: Some(1),
        setups: 1,
        check: true,
        ..flags.clone()
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (result, _) = child(
                &Flags {
                    trace,
                    ..tiny.clone()
                },
                &spec,
                workload,
                BENCH_BINARY,
            )?;
            if !result.correct {
                return Err(format!(
                    "{} (trace {}) is incorrect on tiny data",
                    workload.name(),
                    u8::from(trace)
                ));
            }
            println!(
                "ok {:<16} trace={} {} metrics match BENCHMARK.json",
                workload.name(),
                u8::from(trace),
                result.metrics.len()
            );
        }
    }
    Ok(0)
}
