//! perfbench — the repository's one benchmark.
//!
//! Four seeded workloads over a self-generated Table II warehouse, each in
//! its own process; block-level end-to-end metrics checked against a serial
//! reference; and a separate traced run that attributes a block's wall to
//! the layers (`json`, `storage`, `engine`, `engine.reuse`, `maxson`,
//! `server`) from outside the program. See `README.md` for the metric
//! tables, the pinned API surface and the A/B recipe.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result on the last line
//! perfbench all   [--seed n] [--seconds s]     the four workloads, untraced, as a table
//! perfbench trace <workload> [--seed n] [--seconds s]   untraced + traced run, layer budget, trace_overhead
//! perfbench agree [--sets k] [--seed n] [--seconds s]   k suites on the same code against the bounds
//! perfbench --check                            one block per workload on tiny data, output schema validated
//! ```

mod layers;
mod midnight;
mod plan;
mod report;
mod rig;
mod serve;
mod spans;
mod stats;
mod suite;
mod t2x;

use std::path::PathBuf;

use maxson_engine::Session;
use maxson_storage::MmapMode;

use report::{result_line, Spec};
use rig::{Config, Context, Outcome, Res, Workload, ROWS_PER_TABLE, SETUPS_PER_RUN};

/// Name of the sibling binary built with the counting allocator.
const ALLOCS_BINARY: &str = "perfbench-allocs";
/// Blocks the allocation probe counts over.
const ALLOC_PROBE_BLOCKS: usize = 2;
/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 0xCAFE;

/// Flags shared by every mode.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    blocks: Option<usize>,
    rows: usize,
    setups: usize,
    check: bool,
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    sets: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(Workload),
    All,
    Trace(Workload),
    Agree,
    Check,
}

fn parse_flags(args: &[String]) -> Res<Flags> {
    let mut flags = Flags {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        blocks: None,
        rows: ROWS_PER_TABLE,
        setups: SETUPS_PER_RUN,
        check: false,
        data_dir: None,
        out: None,
        sets: 2,
    };
    let workload =
        |name: &str| Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"));
    let mut mode = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "all" => mode = Some(Mode::All),
            "agree" => mode = Some(Mode::Agree),
            "trace" => mode = Some(Mode::Trace(workload(value()?)?)),
            "--workload" => mode = Some(Mode::Run(workload(value()?)?)),
            "--seed" => {
                let v = value()?;
                flags.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .ctx("--seed")?;
            }
            "--seconds" => flags.seconds = Some(value()?.parse().ctx("--seconds")?),
            "--trace" => flags.trace = value()? == "1",
            "--blocks" => flags.blocks = Some(value()?.parse().ctx("--blocks")?),
            "--rows" => flags.rows = value()?.parse().ctx("--rows")?,
            "--setups" => flags.setups = value()?.parse().ctx("--setups")?,
            "--sets" => flags.sets = value()?.parse().ctx("--sets")?,
            "--data-dir" => flags.data_dir = Some(PathBuf::from(value()?)),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--check" => flags.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    flags.mode = match mode {
        Some(m) => m,
        None if flags.check => Mode::Check,
        None => {
            return Err(
                "name a mode: --workload <name>, all, trace <workload>, agree or --check"
                    .to_string(),
            )
        }
    };
    Ok(flags)
}

/// Remove every `MAXSON_*` variable: the benchmark measures the system's
/// defaults, not the caller's shell. Returns the names removed.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MAXSON_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// The knobs a default session resolves to, read back from the system.
fn resolved_knobs(cfg: &Config) -> Res<String> {
    let probe = cfg.work_dir.join("knob-probe");
    let session = Session::open(&probe).ctx("open knob probe")?;
    let knobs = format!(
        "parser={} simd={} threads={} mmap={:?} shared_parse=default(on) result_cache={} predictor=default scoring=default budget=unlimited",
        session.parser_kind().name(),
        session.simd_kernel().name(),
        session.threads().map_or("default(nproc)".to_string(), |t| t.to_string()),
        MmapMode::from_env(),
        session.reuse_stats().map_or("off".to_string(), |s| format!("{} B", s.budget_bytes)),
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&probe);
    Ok(knobs)
}

/// One workload in this process; the result is the last line of stdout.
fn run_one(flags: &Flags, workload: Workload, alloc_count: Option<fn() -> u64>) -> Res<i32> {
    let spec = Spec::load()?;
    let scrubbed = scrub_environment();
    let base = flags
        .data_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(".perfbench_work"));
    let cfg = Config {
        workload,
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(spec.run_seconds),
        blocks: flags.blocks,
        // The allocation probe prints in the traced format but records no
        // span and replays no layer: it only counts.
        trace: flags.trace && alloc_count.is_none(),
        rows: flags.rows,
        setups: flags.setups,
        check: flags.check,
        work_dir: base.join(format!("{}-{}", workload.name(), std::process::id())),
        alloc_count,
    };
    std::fs::create_dir_all(&cfg.work_dir).ctx("create work directory")?;
    println!(
        "perfbench {} seed={:#x} seconds={} blocks={} trace={} rows={} setups={} nproc={} git={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.blocks.map_or("by time".to_string(), |b| b.to_string()),
        u8::from(cfg.trace),
        cfg.rows,
        cfg.setups,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_sha()
    );
    println!(
        "scrubbed: {}",
        if scrubbed.is_empty() {
            "nothing".to_string()
        } else {
            scrubbed.join(" ")
        }
    );
    println!("knobs: {}", resolved_knobs(&cfg)?);

    let outcome: Res<Outcome> = match workload {
        Workload::Plain | Workload::Maxson => t2x::run(&cfg),
        Workload::Serve => serve::run(&cfg),
        Workload::Midnight => midnight::run(&cfg),
    };
    // Warehouses go; trace files stay for whoever asked for them.
    let _ = std::fs::remove_dir_all(cfg.warehouse());
    let _ = std::fs::remove_dir(&cfg.work_dir);
    let _ = std::fs::remove_dir(&base);
    let mut outcome = outcome?;
    if cfg.trace {
        let probe = Flags {
            blocks: Some(ALLOC_PROBE_BLOCKS),
            setups: 1,
            ..flags.clone()
        };
        let (counted, _) = suite::child(&probe, &spec, workload, ALLOCS_BINARY)?;
        let name = "engine.allocs_per_row";
        outcome.set(name, counted.metrics[name].0);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let line = result_line(&outcome, spec.metrics(flags.trace), flags.trace)?;
    if let Some(path) = &flags.out {
        std::fs::write(path, format!("{line}\n")).ctx("write --out")?;
    }
    println!("{line}");
    Ok(0)
}

/// Entry point of both binaries. `alloc_count` is the counting allocator's
/// counter in the allocation probe and `None` in the benchmark proper.
pub fn main_with(alloc_count: Option<fn() -> u64>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_flags(&args).and_then(|flags| match flags.mode.clone() {
        Mode::Run(workload) => run_one(&flags, workload, alloc_count),
        Mode::All => suite::all(&flags),
        Mode::Trace(workload) => suite::trace(&flags, workload),
        Mode::Agree => suite::agree(&flags),
        Mode::Check => suite::check(&flags),
    });
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let f = parse_flags(&args(
            "--workload serve_zipf --seed 17 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.mode, Mode::Run(Workload::Serve));
        assert_eq!((f.seed, f.seconds, f.trace), (17, Some(12.0), true));
        let f = parse_flags(&args("trace midnight_cycle --seed 0xCAFE")).unwrap();
        assert_eq!((f.mode, f.seed), (Mode::Trace(Workload::Midnight), 0xCAFE));
        assert_eq!(parse_flags(&args("--check")).unwrap().mode, Mode::Check);
        assert_eq!(parse_flags(&args("agree --sets 5")).unwrap().sets, 5);
        assert!(parse_flags(&args("--workload nope")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(
            parse_flags(&args("--seed 3")).is_err(),
            "a mode is required"
        );
    }
}
