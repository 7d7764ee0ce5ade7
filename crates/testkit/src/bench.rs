//! A small wall-clock benchmark runner: warmup iterations followed by N
//! timed iterations, reporting median and p95.
//!
//! This replaces the criterion dependency for the workspace's microbenches.
//! Stats are plain data; bench binaries feed the medians into
//! `maxson_bench::report::{Report, Series}`, which renders the same aligned
//! text tables and `bench-results/<id>.json` files as every other
//! experiment binary, so downstream tooling reads one JSON schema
//! (`{id, title, notes, series: [{name, points: [{label, value}]}]}`).
//!
//! Iteration counts scale down under `MAXSON_BENCH_FAST=1` so benches can
//! double as smoke tests in CI.

use std::hint::black_box;
use std::time::Instant;

/// Re-exported so bench binaries only import from one place.
pub use std::hint::black_box as bb;

/// Runner configuration: how many warmup and timed iterations per bench.
#[derive(Debug, Clone, Copy)]
pub struct BenchRunner {
    /// Untimed warmup iterations (page in code/data, settle caches).
    pub warmup_iters: u32,
    /// Timed iterations (each contributes one sample).
    pub iters: u32,
}

impl Default for BenchRunner {
    fn default() -> Self {
        BenchRunner {
            warmup_iters: 3,
            iters: 30,
        }
    }
}

impl BenchRunner {
    /// Default runner, honoring `MAXSON_BENCH_FAST=1` (3 timed iterations —
    /// a smoke-test pass) and `MAXSON_BENCH_ITERS=<n>` overrides.
    pub fn from_env() -> Self {
        let mut runner = BenchRunner::default();
        if std::env::var_os("MAXSON_BENCH_FAST").is_some_and(|v| v == "1") {
            runner.warmup_iters = 1;
            runner.iters = 3;
        }
        if let Some(n) = std::env::var("MAXSON_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            runner.iters = n.max(1);
        }
        runner
    }

    /// Run `f` warmup+timed times and report per-iteration nanoseconds.
    /// What `f` returns is dropped after the clock stops, so a bench of a
    /// decoder times the decode and not its output's drop. Prints a
    /// one-line summary to stdout.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchStats {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters.max(1) {
            let start = Instant::now();
            let out = black_box(f());
            samples_ns.push(start.elapsed().as_nanos() as f64);
            drop(out);
        }
        let stats = BenchStats::from_samples(name, &mut samples_ns);
        println!("{stats}");
        stats
    }
}

/// Summary statistics of one bench (all values in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Bench name as passed to [`BenchRunner::run`].
    pub name: String,
    /// Number of timed samples.
    pub iters: u32,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time.
    pub p95_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
}

impl BenchStats {
    /// Build stats from raw samples (sorts `samples` in place).
    pub fn from_samples(name: &str, samples: &mut [f64]) -> Self {
        assert!(!samples.is_empty(), "bench '{name}' produced no samples");
        samples.sort_unstable_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        BenchStats {
            name: name.to_string(),
            iters: samples.len() as u32,
            median_ns: quantile(samples, 0.5),
            p95_ns: quantile(samples, 0.95),
            mean_ns: mean,
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
        }
    }

    /// Median in milliseconds (the natural unit for `Report` points).
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }

    /// p95 in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.p95_ns / 1e6
    }
}

impl std::fmt::Display for BenchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bench {:<40} median {:>12}  p95 {:>12}  ({} iters)",
            self.name,
            human_ns(self.median_ns),
            human_ns(self.p95_ns),
            self.iters
        )
    }
}

/// Interpolated quantile of an ascending-sorted sample array.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_known_samples() {
        let mut samples = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let s = BenchStats::from_samples("t", &mut samples);
        assert_eq!(s.median_ns, 30.0);
        assert_eq!(s.min_ns, 10.0);
        assert_eq!(s.max_ns, 50.0);
        assert_eq!(s.mean_ns, 30.0);
        assert!((s.p95_ns - 48.0).abs() < 1e-9, "p95 {}", s.p95_ns);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn runner_collects_requested_iterations() {
        let mut calls = 0u32;
        let runner = BenchRunner {
            warmup_iters: 2,
            iters: 5,
        };
        let stats = runner.run("counting", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 7, "2 warmup + 5 timed");
        assert_eq!(stats.iters, 5);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.median_ms() >= 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 100.0];
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.95), 95.0);
        assert_eq!(quantile(&[42.0], 0.95), 42.0);
    }

    #[test]
    fn human_units() {
        assert_eq!(human_ns(500.0), "500 ns");
        assert_eq!(human_ns(1_500.0), "1.500 us");
        assert_eq!(human_ns(2_500_000.0), "2.500 ms");
        assert_eq!(human_ns(3_000_000_000.0), "3.000 s");
    }
}
