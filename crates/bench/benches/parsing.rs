//! Microbenches: DOM parse vs Mison structural-index projection vs a
//! Maxson-style cached read, per record size, on the testkit bench runner.
//!
//! This is the microscopic view of Fig. 15: what one `get_json_object`
//! call costs under each strategy, the cache build's per-document
//! projection walk, plus the structural-bitmap build per kernel tier. Run with `cargo bench --bench parsing`;
//! set `MAXSON_BENCH_FAST=1` for a quick smoke pass.

use maxson_bench::report::{Report, Series};
use maxson_json::kernels;
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

/// The projection walk over no paths, which only validates, beside the
/// DOM parse: over the padded documents (most bytes in one long string)
/// and over q6- and q3-shaped ones (short keys and values).
fn bench_tape_build(runner: &BenchRunner) -> Report {
    use maxson_json::tape::{project, PathSet, TapeStats};
    let mut report = Report::new(
        "bench-parsing-tape-build",
        "validating walk (no paths) vs DOM parse throughput",
    );
    report.note(
        "MB/s at the median; the walk moves along stage 1's token index, the DOM reads every byte",
    );
    let mut tape = Series::new("tape_build");
    let mut dom = Series::new("jackson_dom");
    let none = PathSet::new(&[]);
    let mut docs: Vec<(String, String, String)> =
        [("padded 4.8 kB", 4_800usize), ("padded 21 kB", 21_000)]
            .into_iter()
            .map(|(label, size)| (label.to_string(), size.to_string(), padded_record(size)))
            .collect();
    for table in ["q6", "q3"] {
        let (record, _) = workload_record(table);
        docs.push((
            format!("{table}: {} B", record.len()),
            table.to_string(),
            record,
        ));
    }
    for (label, id, record) in &docs {
        let mb_per_s = |median_ns: f64| record.len() as f64 / median_ns * 1e3;
        let mut skipped = TapeStats::default();
        let stats = runner.run(&format!("tape_build/{id}"), || {
            bb(project(bb(record), &none, &mut skipped, |_, _| {}))
        });
        tape.push(label, mb_per_s(stats.median_ns));
        let stats = runner.run(&format!("jackson_dom/{id}"), || {
            bb(maxson_json::parse(bb(record)))
        });
        dom.push(label, mb_per_s(stats.median_ns));
    }
    report.add(tape);
    report.add(dom);
    report
}

/// A document shaped like workload table `name`'s: its schema's leaves
/// nested as the datagen nests them (ints, quarter floats and 20-byte
/// strings in turn), padded to the table's average size, with the paths
/// its query reads.
fn workload_record(name: &str) -> (String, Vec<JsonPath>) {
    use maxson_datagen::tables::{query_paths, schema_paths, table_specs};
    use maxson_json::JsonValue;
    fn insert(obj: &mut Vec<(String, JsonValue)>, steps: &[&str], value: JsonValue) {
        let [first, rest @ ..] = steps else { return };
        if rest.is_empty() {
            obj.push((first.to_string(), value));
            return;
        }
        if let Some((_, JsonValue::Object(inner))) = obj.iter_mut().find(|(k, _)| k == first) {
            return insert(inner, rest, value);
        }
        let mut inner = Vec::new();
        insert(&mut inner, rest, value);
        obj.push((first.to_string(), JsonValue::Object(inner)));
    }
    let spec = table_specs().into_iter().find(|s| s.name == name).unwrap();
    let mut root = Vec::new();
    for (i, path) in schema_paths(&spec).iter().enumerate() {
        let steps: Vec<&str> = path[2..].split('.').collect();
        let value = match i % 4 {
            0 => JsonValue::from(i as i64 * 31),
            1 => JsonValue::from(i as f64 / 4.0),
            _ => JsonValue::from(format!("value-{i:04}-abcdefghij")),
        };
        insert(&mut root, &steps, value);
    }
    let mut text = maxson_json::to_string(&JsonValue::Object(root));
    let pad = spec.avg_size.saturating_sub(text.len() + 12);
    text.pop();
    text.push_str(&format!(",\"_pad\":\"{}\"}}", "x".repeat(pad)));
    let paths = query_paths(&spec)
        .iter()
        .map(|p| JsonPath::parse(p).unwrap())
        .collect();
    (text, paths)
}

/// What the cache build does per document — one validating walk that
/// answers every cached path — over q6- and q3-shaped documents: through
/// `tape::project_paths` (one call per document, the paths compiled each
/// time) and through a `PathSet` compiled once, as the cacher runs it.
fn bench_tape_projection(runner: &BenchRunner) -> Report {
    use maxson_json::tape::{project, project_paths, PathSet, TapeStats};
    let mut report = Report::new(
        "bench-parsing-tape-projection",
        "tape multi-path projection throughput (validation + every cached path)",
    );
    report.note("MB/s at the median, document bytes over the whole walk");
    let mut per_call = Series::new("project_paths");
    let mut compiled = Series::new("compiled_set");
    for table in ["q6", "q3"] {
        let (record, paths) = workload_record(table);
        let label = format!("{table}: {} paths, {} B", paths.len(), record.len());
        let mb_per_s = |median_ns: f64| record.len() as f64 / median_ns * 1e3;
        let mut stats = TapeStats::default();
        let run = runner.run(&format!("project_paths/{table}"), || {
            bb(project_paths(bb(&record), &paths, &mut stats))
        });
        per_call.push(&label, mb_per_s(run.median_ns));
        let set = PathSet::new(&paths);
        let run = runner.run(&format!("compiled_set/{table}"), || {
            let mut bytes = 0;
            let _ = project(bb(&record), &set, &mut stats, |_, value| {
                bytes += value.len()
            });
            bb(bytes)
        });
        compiled.push(&label, mb_per_s(run.median_ns));
    }
    report.add(per_call);
    report.add(compiled);
    report
}

/// Stage-1 build throughput of the projection walk's bitmaps (escape
/// bitmap and token index) per kernel tier the CPU runs, over the padded
/// documents into reused bitmaps: pure kernel time, so tiers compare
/// directly.
fn bench_bitmap_tiers(runner: &BenchRunner) -> Report {
    let mut report = Report::new(
        "bench-parsing-bitmap-tiers",
        "structural-bitmap build throughput per kernel tier",
    );
    report.note(format!(
        "MB/s at the median; the dispatched tier is {}",
        kernels::active().name()
    ));
    for kernel in kernels::available() {
        let mut tier = Series::new(kernel.name());
        let mut bitmaps = kernels::Bitmaps::default();
        for (label, size) in [("padded 4.8 kB", 4_800usize), ("padded 21 kB", 21_000)] {
            let record = padded_record(size);
            let stats = runner.run(&format!("bitmaps_{}/{size}", kernel.name()), || {
                kernels::build_bitmaps_into(kernel, bb(record.as_bytes()), &mut bitmaps);
                bb(&bitmaps);
            });
            tier.push(label, record.len() as f64 / stats.median_ns * 1e3);
        }
        report.add(tier);
    }
    report
}

fn main() {
    let runner = BenchRunner::from_env();
    bench_parsers(&runner).emit();
    bench_structural_index_build(&runner).emit();
    bench_tape_build(&runner).emit();
    bench_tape_projection(&runner).emit();
    bench_bitmap_tiers(&runner).emit();
}
