//! The benchmark ledger: one `BENCH_<pr>.json` at the repository root per
//! landed PR, read here with `maxson_json`.
//!
//! A file holds the PR number, its commit (`"self"`: a file cannot name the
//! commit that adds it, `git log --diff-filter=A -- BENCH_<pr>.json` does)
//! and its parent's; the host (`nproc`, CPU model); perfbench's knob line;
//! the `all` object (`bash perfbench/run.sh all --seed 7 --out …`); the
//! four traced objects (`--workload W --seed 7 --trace 1 --out …`); the A/B
//! summary, `null` when the PR ran none; and `counters_changed`, every
//! gated counter that differs from the previous file's, each with a reason.
//!
//! Two checks: every file's schema, and, between consecutive files, that a
//! gated counter changed only where `counters_changed` names it. A claim
//! may not quietly redefine what it is judged by. The gated counters are
//! the traced metrics whose unit is `count` on the three one-client
//! workloads, which a block repeats exactly; `engine.allocs_per_row` may
//! move by less than 0.001, because which per-thread buffers set-up
//! leaves grown depends on scheduling (the same code read 7.103289 and
//! 7.103311 on `tableII_maxson`). `serve_zipf` is not gated: its two wire
//! clients race, so its reuse hits and evictions, footer hits and cache
//! hits differ from run to run. Walls are printed as a trajectory
//! (`--nocapture`) and never gated: the host field says why two files'
//! walls need not compare.
//!
//! What does compare across files is each file's A/B: both sides ran in
//! one sitting on one host. So the trajectory that survives a host change
//! is the chain of A/B ratios — per workload, the product of every file's
//! `block_p50_ms` `change_median / parent_median` from `BENCH_38` on (the
//! back-filled `BENCH_30`–`35` have no A/B). It is printed with
//! `--nocapture`, and each file's `delta_pct` must be its own medians'
//! ratio, to the 0.1 it is rounded to.

use std::path::{Path, PathBuf};

use maxson_json::JsonValue;

const WORKLOADS: [&str; 4] = [
    "tableII_plain",
    "tableII_maxson",
    "serve_zipf",
    "midnight_cycle",
];

/// The workloads whose counters a block repeats exactly.
const GATED: [&str; 3] = ["tableII_plain", "tableII_maxson", "midnight_cycle"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    maxson_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every ledger file, in PR order.
fn ledger() -> Vec<(u64, JsonValue)> {
    let mut files: Vec<(u64, JsonValue)> = std::fs::read_dir(root())
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name()?.to_str()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((pr.parse().ok()?, load(&path)))
        })
        .collect();
    files.sort_by_key(|(pr, _)| *pr);
    files
}

/// `(name, unit)` of the benchmark's end-to-end and per-layer metrics.
fn declared(section: &str) -> Vec<(String, String)> {
    load(&root().join("BENCHMARK.json"))
        .get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn is_sha(s: &str) -> bool {
    (7..=40).contains(&s.len()) && s.bytes().all(|b| b.is_ascii_hexdigit())
}

fn number(doc: &JsonValue, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{key} is not a number"))
}

fn string<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("{key} is not a non-empty string"))
}

/// The traced value of `metric` on `workload`.
fn traced(doc: &JsonValue, workload: &str, metric: &str) -> Option<f64> {
    doc.get("traced")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// What is wrong with ledger file `pr`'s layout, if anything.
fn schema_errors(pr: u64, doc: &JsonValue) -> Result<(), String> {
    if number(doc, "pr")? != pr as f64 {
        return Err("pr does not match the file name".into());
    }
    let sha = string(doc, "sha")?;
    if sha != "self" && !is_sha(sha) {
        return Err(format!("sha {sha:?} is neither \"self\" nor a commit"));
    }
    if !is_sha(string(doc, "parent")?) {
        return Err("parent is not a commit".into());
    }
    let host = doc.get("host").ok_or("no host")?;
    if number(host, "nproc")? < 1.0 {
        return Err("host.nproc < 1".into());
    }
    string(host, "cpu")?;
    string(doc, "knobs")?;
    let all = doc.get("all").ok_or("no all object")?;
    let traced_runs = doc.get("traced").ok_or("no traced objects")?;
    for workload in WORKLOADS {
        let run = all.get(workload).ok_or(format!("all.{workload} missing"))?;
        if number(run, "failed")? != 0.0 || number(run, "attempted")? < 1.0 {
            return Err(format!("all.{workload}: failed blocks or none attempted"));
        }
        for (name, _) in declared("end_to_end") {
            number(run, &name).map_err(|e| format!("all.{workload}: {e}"))?;
        }
        let run = traced_runs
            .get(workload)
            .ok_or(format!("traced.{workload} missing"))?;
        if run.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("traced.{workload} is not correct"));
        }
        for (name, unit) in declared("per_layer") {
            let metric = run
                .get("metrics")
                .and_then(|m| m.get(&name))
                .ok_or(format!("traced.{workload}.{name} missing"))?;
            number(metric, "value").map_err(|e| format!("traced.{workload}.{name}: {e}"))?;
            if string(metric, "unit")? != unit {
                return Err(format!("traced.{workload}.{name} is not in {unit}"));
            }
        }
    }
    match doc.get("ab") {
        Some(JsonValue::Null) => {}
        Some(ab @ JsonValue::Object(_)) => {
            if number(ab, "pairs")? < 10.0 {
                return Err("an A/B summary needs at least ten pairs".into());
            }
            ab.get("workloads")
                .and_then(JsonValue::as_object)
                .ok_or("ab.workloads is not an object")?;
        }
        _ => return Err("ab is neither null nor an object".into()),
    }
    for changed in doc
        .get("counters_changed")
        .and_then(JsonValue::as_array)
        .ok_or("counters_changed is not an array")?
    {
        for key in ["workload", "counter", "reason"] {
            string(changed, key).map_err(|e| format!("counters_changed: {e}"))?;
        }
    }
    Ok(())
}

/// Gated counters that differ between `before` and `after` without being
/// named in `after`'s `counters_changed`, as `workload.counter`.
fn unnamed_changes(before: &JsonValue, after: &JsonValue) -> Vec<String> {
    let named: Vec<(&str, &str)> = after
        .get("counters_changed")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|c| Some((c.get("workload")?.as_str()?, c.get("counter")?.as_str()?)))
        .collect();
    let mut unnamed = Vec::new();
    for workload in GATED {
        for (counter, unit) in declared("per_layer") {
            if unit != "count" || named.contains(&(workload, counter.as_str())) {
                continue;
            }
            let changed = match (
                traced(before, workload, &counter),
                traced(after, workload, &counter),
            ) {
                (Some(a), Some(b)) if counter == "engine.allocs_per_row" => (a - b).abs() >= 1e-3,
                (a, b) => a != b,
            };
            if changed {
                unnamed.push(format!("{workload}.{counter}"));
            }
        }
    }
    unnamed
}

#[test]
fn every_ledger_file_has_the_schema() {
    let files = ledger();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for (pr, doc) in &files {
        if let Err(e) = schema_errors(*pr, doc) {
            panic!("BENCH_{pr}.json: {e}");
        }
        let walls: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                let p50 = doc
                    .get("all")
                    .and_then(|a| a.get(w))
                    .and_then(|r| r.get("block_p50_ms"));
                format!(
                    "{w} {:.2} ms",
                    p50.and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
                )
            })
            .collect();
        println!("BENCH_{pr}: block_p50 {}", walls.join(", "));
    }
}

#[test]
fn gated_counters_change_only_where_named() {
    let files = ledger();
    for pair in files.windows(2) {
        let ((from, before), (to, after)) = (&pair[0], &pair[1]);
        let unnamed = unnamed_changes(before, after);
        assert!(
            unnamed.is_empty(),
            "BENCH_{to}.json changes gated counters since BENCH_{from}.json without naming them in counters_changed: {unnamed:?}"
        );
    }
}

/// The consecutive-file check bites: a file whose gated counter moved
/// fails until `counters_changed` names it, and a moved wall never fails.
#[test]
fn an_unnamed_counter_change_is_caught() {
    // The newest file, naming no change: what it names itself must not
    // excuse the edits below.
    let (_, mut doc) = ledger().pop().expect("a ledger file");
    name_changes(&mut doc, Vec::new());
    let edit = |workload: &str, metric: &str, by: f64| -> JsonValue {
        let mut edited = doc.clone();
        let old = traced(&doc, workload, metric).unwrap();
        set_traced(&mut edited, workload, metric, old + by);
        edited
    };
    let moved = edit("midnight_cycle", "engine.docs_parsed", 1.0);
    assert_eq!(
        unnamed_changes(&doc, &moved),
        ["midnight_cycle.engine.docs_parsed"]
    );
    let mut named = moved;
    let entry = maxson_json::parse(
        r#"{"workload": "midnight_cycle", "counter": "engine.docs_parsed", "reason": "test"}"#,
    )
    .unwrap();
    name_changes(&mut named, vec![entry]);
    assert!(unnamed_changes(&doc, &named).is_empty());
    let slower = edit("midnight_cycle", "block_p50_traced_ms", 50.0);
    assert!(
        unnamed_changes(&doc, &slower).is_empty(),
        "walls are not gated"
    );
    let jitter = edit("tableII_maxson", "engine.allocs_per_row", 1e-5);
    assert!(
        unnamed_changes(&doc, &jitter).is_empty(),
        "below the resolution"
    );
    let allocs = edit("tableII_maxson", "engine.allocs_per_row", 0.01);
    assert_eq!(
        unnamed_changes(&doc, &allocs),
        ["tableII_maxson.engine.allocs_per_row"]
    );
    let raced = edit("serve_zipf", "engine.cache_hits", 100.0);
    assert!(unnamed_changes(&doc, &raced).is_empty(), "serve_zipf races");
}

/// The first file whose A/B starts the chain.
const CHAIN_FROM: u64 = 38;

/// `(parent_median, change_median, delta_pct)` of every A/B metric in `ab`,
/// as `(workload.metric, …)`.
fn ab_metrics(ab: &JsonValue) -> Vec<(String, [f64; 3])> {
    let mut out = Vec::new();
    for (workload, metrics) in ab
        .get("workloads")
        .and_then(JsonValue::as_object)
        .unwrap_or_default()
    {
        for (metric, m) in metrics.as_object().unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_f64);
            if let (Some(p), Some(c), Some(d)) = (
                field("parent_median"),
                field("change_median"),
                field("delta_pct"),
            ) {
                out.push((format!("{workload}.{metric}"), [p, c, d]));
            }
        }
    }
    out
}

/// Per workload, the product of `block_p50_ms` change/parent over the
/// ledger files from [`CHAIN_FROM`] through `upto` that carry an A/B.
fn chained(files: &[(u64, JsonValue)], upto: u64) -> Vec<(&'static str, f64)> {
    WORKLOADS
        .iter()
        .map(|&workload| {
            let product = files
                .iter()
                .filter(|(pr, _)| (CHAIN_FROM..=upto).contains(pr))
                .filter_map(|(pr, doc)| Some((pr, doc.get("ab").filter(|ab| !ab.is_null())?)))
                .map(|(pr, ab)| {
                    let medians = ab_metrics(ab)
                        .into_iter()
                        .find(|(name, _)| *name == format!("{workload}.block_p50_ms"))
                        .unwrap_or_else(|| panic!("BENCH_{pr}: no {workload} block_p50_ms A/B"))
                        .1;
                    medians[1] / medians[0]
                })
                .product();
            (workload, product)
        })
        .collect()
}

#[test]
fn chained_ab_ratios_and_each_delta_matches_its_medians() {
    let files = ledger();
    for (pr, doc) in &files {
        let Some(ab) = doc.get("ab").filter(|ab| !ab.is_null()) else {
            continue;
        };
        for (name, [parent, change, delta]) in ab_metrics(ab) {
            let ratio = (change / parent - 1.0) * 100.0;
            assert!(
                (ratio - delta).abs() <= 0.1,
                "BENCH_{pr}: {name} delta_pct {delta} but its medians give {ratio:.2} %"
            );
        }
    }
    let last = files.last().expect("a ledger file").0;
    let chain: Vec<String> = chained(&files, last)
        .into_iter()
        .map(|(w, product)| format!("{w} {:+.1} %", (product - 1.0) * 100.0))
        .collect();
    println!(
        "chained block_p50 BENCH_{CHAIN_FROM}..={last}: {}",
        chain.join(", ")
    );
    // The chain through BENCH_43, as computed by hand at the re-anchor.
    let hand = [4.1, 2.6, -34.3, -5.3];
    for ((workload, product), want) in chained(&files, 43).into_iter().zip(hand) {
        let got = (product - 1.0) * 100.0;
        assert!(
            (got - want).abs() < 0.05,
            "{workload}: chained {got:.2} %, by hand {want} %"
        );
    }
}

/// Replace `doc`'s `counters_changed` with `entries`.
fn name_changes(doc: &mut JsonValue, entries: Vec<JsonValue>) {
    let JsonValue::Object(members) = doc else {
        unreachable!("a ledger file is an object")
    };
    for (key, value) in members.iter_mut() {
        if key == "counters_changed" {
            *value = JsonValue::Array(entries.clone());
        }
    }
}

fn set_traced(doc: &mut JsonValue, workload: &str, metric: &str, to: f64) {
    let mut node = doc;
    for key in ["traced", workload, "metrics", metric, "value"] {
        let JsonValue::Object(members) = node else {
            panic!("{key}: not an object")
        };
        node = &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1;
    }
    *node = JsonValue::Number(maxson_json::value::JsonNumber::Float(to));
}
