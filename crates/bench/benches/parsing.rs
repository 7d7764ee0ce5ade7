//! Microbenches: DOM parse vs Mison structural-index projection vs a
//! Maxson-style cached read, per record size, on the testkit bench runner.
//!
//! This is the microscopic view of Fig. 15: what one `get_json_object`
//! call costs under each strategy. Run with `cargo bench --bench parsing`;
//! set `MAXSON_BENCH_FAST=1` for a quick smoke pass.

use maxson_bench::report::{Report, Series};
use maxson_json::mison::MisonProjector;
use maxson_json::JsonPath;
use maxson_testkit::bench::{bb, BenchRunner};

fn record_with_fields(n: usize) -> String {
    let mut s = String::from("{");
    for i in 0..n {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"field{i}\": \"value-{i}-0123456789\""));
    }
    s.push('}');
    s
}

fn bench_parsers(runner: &BenchRunner) -> Report {
    let mut report = Report::new("bench-parsing", "get_json_object cost per strategy");
    report.note("median ns per call; 'cached' is a string clone (the Maxson hit path)");
    let mut dom = Series::new("jackson_dom");
    let mut mison = Series::new("mison_index");
    let mut cached = Series::new("maxson_cached");
    for &fields in &[10usize, 50, 200] {
        let record = record_with_fields(fields);
        let path = JsonPath::parse("$.field3").unwrap();
        let label = format!("{fields} fields");
        let stats = runner.run(&format!("jackson_dom/{fields}"), || {
            bb(maxson_json::get_json_object(bb(&record), &path))
        });
        dom.push(&label, stats.median_ns);
        let stats = runner.run(&format!("mison_index/{fields}"), || {
            bb(MisonProjector::project_path(bb(&record), &path))
        });
        mison.push(&label, stats.median_ns);
        // The cached case: the value is already a string (clone only).
        let value = "value-3-0123456789".to_string();
        let stats = runner.run(&format!("maxson_cached/{fields}"), || bb(value.clone()));
        cached.push(&label, stats.median_ns);
    }
    report.add(dom);
    report.add(mison);
    report.add(cached);
    report
}

fn bench_structural_index_build(runner: &BenchRunner) -> Report {
    let mut report = Report::new(
        "bench-parsing-index-build",
        "Mison structural index build cost",
    );
    report.note("median ns per build");
    let mut series = Series::new("index_build");
    for &fields in &[10usize, 200] {
        let record = record_with_fields(fields);
        let stats = runner.run(&format!("index_build/{fields}"), || {
            bb(maxson_json::mison::StructuralIndex::build(bb(&record)))
        });
        series.push(format!("{fields} fields"), stats.median_ns);
    }
    report.add(series);
    report
}

/// A Table II-shaped document: a few dozen short fields, then one `_pad`
/// string carrying it to `size` bytes — where most bytes of the big
/// workload tables sit.
fn padded_record(size: usize) -> String {
    let mut s = record_with_fields(40);
    s.pop();
    let pad = size.saturating_sub(s.len() + 12);
    s.push_str(&format!(",\"_pad\": \"{}\"}}", "x".repeat(pad)));
    s
}

fn bench_tape_build(runner: &BenchRunner) -> Report {
    let mut report = Report::new(
        "bench-parsing-tape-build",
        "tape build vs DOM parse throughput on padded documents",
    );
    report.note("MB/s at the median; the tape's strings cost a word at a time, the DOM's a byte");
    let mut tape = Series::new("tape_build");
    let mut dom = Series::new("jackson_dom");
    for (label, size) in [("padded 4.8 kB", 4_800usize), ("padded 21 kB", 21_000)] {
        let record = padded_record(size);
        let mb_per_s = |median_ns: f64| record.len() as f64 / median_ns * 1e3;
        let stats = runner.run(&format!("tape_build/{size}"), || {
            bb(maxson_json::tape::TapeDoc::build(bb(&record)).map(|t| t.node_count()))
        });
        tape.push(label, mb_per_s(stats.median_ns));
        let stats = runner.run(&format!("jackson_dom/{size}"), || {
            bb(maxson_json::parse(bb(&record)))
        });
        dom.push(label, mb_per_s(stats.median_ns));
    }
    report.add(tape);
    report.add(dom);
    report
}

fn main() {
    let runner = BenchRunner::from_env();
    bench_parsers(&runner).emit();
    bench_structural_index_build(&runner).emit();
    bench_tape_build(&runner).emit();
}
