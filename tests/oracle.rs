//! The oracle suite: in every configuration cell, the engine returns
//! exactly what the naive reference evaluator (`support::oracle`) returns —
//! the same rows and the same rendered text.
//!
//! Inputs: the twelve Table II statements (Q1–Q10 plus the stitch
//! statements S1/S2) over a temporary Table II warehouse whose query paths a
//! midnight cycle cached; the NoBench statements; statements that once
//! exposed a defect (pinned below); and statements the seeded generator
//! (`support::sqlgen`) draws over the committed `bench-data` warehouse, a
//! NoBench table and a small table of NULLs and mixed types.
//! Every statement with a pushable `WHERE` leaf also runs spelled without
//! one (`date + 0 …`).
//!
//! Cells: parser {Jackson, Mison, Tape} × threads {1, 4} × SIMD tier
//! (every tier the CPU has) × reuse cache {off, fill, hit} × plan {plain,
//! Maxson-rewritten} × {in-process, served} × part files {mapped, copied},
//! chosen by a covering array in which every pair of dimension values
//! meets for every statement. Every
//! in-process, reuse-off run also feeds the work-counter rules
//! (`cells::assert_counter_rules`), and the Table II statements'
//! `EXPLAIN ANALYZE` trees must not depend on the thread count.
//!
//! The seed picks the generated statements and breaks covering-array ties.
//! A failure prints it; `MAXSON_TESTKIT_SEED=<seed> cargo test --test
//! oracle` replays it (decimal or `0x` hex).

mod support;

use std::path::Path;

use maxson_datagen::tables::{query_paths, schema_paths, table_specs};
use maxson_engine::ExecMetrics;
use support::cells::{assert_counter_rules, check_cell, covering_array, Case, ConfigCell, PARSERS};
use support::oracle::Oracle;
use support::sqlgen::{render, Generator, Source};

const DEFAULT_SEED: u64 = 0x0A11_CE5E_ED00_0022;

/// Generated statements over the committed warehouse, whose tables are the
/// largest the suite reads, and over the temporary NoBench / mixed-type one.
const GENERATED_BENCH: usize = 4;
const GENERATED_TEMPORARY: usize = 10;

/// Statements over the committed warehouse that once exposed an engine
/// defect, kept as fixed inputs.
const PINNED: [&str; 1] = [
    // `*` under the rewriter named the cache column of `$.f0` instead of
    // `payload`.
    "select * from mydb.q1 where get_json_object(payload, '$.f0') > 900 limit 5",
];

fn seed() -> u64 {
    let Ok(raw) = std::env::var(maxson_testkit::prop::SEED_ENV) else {
        return DEFAULT_SEED;
    };
    let raw = raw.trim();
    raw.strip_prefix("0x")
        .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or_else(|| panic!("{raw} is not a seed"))
}

fn context(seed: u64) -> String {
    format!(
        "seed 0x{seed:016x}; replay with {}=0x{seed:016x} cargo test --test oracle",
        maxson_testkit::prop::SEED_ENV
    )
}

/// Run `cases` in every cell of the covering array over `root` (with the
/// work-counter families when `families`), then hold each case's
/// in-process, reuse-off runs to the work-counter rules.
fn sweep(root: &Path, cases: &[Case], seed: u64, families: bool) {
    let mut counted: Vec<Vec<(ConfigCell, ExecMetrics)>> =
        cases.iter().map(|_| Vec::new()).collect();
    for (ordinal, cell) in covering_array(seed, families).iter().enumerate() {
        let metrics = check_cell(root, cell, ordinal, cases, &context(seed));
        for (runs, m) in counted.iter_mut().zip(metrics) {
            runs.extend(m.map(|m| (*cell, m)));
        }
    }
    for (case, runs) in cases.iter().zip(&counted) {
        assert_counter_rules(&case.label, runs);
    }
}

#[test]
fn table_ii_statements_agree_with_the_oracle_in_every_cell() {
    let seed = seed();
    let (root, stmts) = support::t2x_warehouse("oracle-t2x", 96);
    let oracle = Oracle::new(&root);
    let cases: Vec<Case> = stmts
        .iter()
        .flat_map(|(name, sql)| Case::spellings(&oracle, name, sql))
        .collect();
    sweep(&root, &cases, seed, true);

    // The normalized EXPLAIN ANALYZE tree is a function of the plan and the
    // data: the same at one and four threads.
    for (i, (name, sql)) in stmts.iter().enumerate() {
        for rewritten in [false, true] {
            let trees = [1, 4].map(|threads| {
                let mut session = if rewritten {
                    support::rewritten_session(&root)
                } else {
                    maxson_engine::Session::open(&root).unwrap()
                };
                session.set_parser_kind(PARSERS[i % PARSERS.len()]);
                session.set_threads(Some(threads));
                session.set_result_cache(None);
                support::normalized_tree(&session, sql, &root)
            });
            assert_eq!(
                trees[0], trees[1],
                "{name} (rewritten={rewritten}): the tree depends on the thread count"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Paths the generator draws from for one committed Table II table: three
/// the cache holds, two it does not, and one no document has.
fn bench_source(oracle: &Oracle, table: &str) -> Source {
    let spec = table_specs().into_iter().find(|s| s.name == table).unwrap();
    let cached = query_paths(&spec);
    let mut paths: Vec<String> = cached.iter().take(3).cloned().collect();
    let uncached = schema_paths(&spec)
        .into_iter()
        .filter(|p| !cached.contains(p));
    paths.extend(uncached.take(2));
    paths.push("$.missing".to_string());
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    Source::sample(oracle, "mydb", table, "payload", &paths, &[])
}

/// `count` generated statements over `sources`, each in its spellings.
fn generated(oracle: &Oracle, sources: &[Source], seed: u64, count: usize) -> Vec<Case> {
    let mut generator = Generator::new(seed, sources);
    (0..count)
        .flat_map(|i| {
            let stmt = generator.statement();
            Case::spellings_of(oracle, &format!("generated #{i}"), &stmt, render(&stmt))
        })
        .collect()
}

#[test]
fn nobench_pinned_and_generated_statements_agree_with_the_oracle_in_every_cell() {
    let seed = seed();

    let bench = support::bench_data_root();
    let oracle = Oracle::new(&bench);
    let sources: Vec<Source> = ["q1", "q2", "q5", "q7", "q8"]
        .iter()
        .map(|t| bench_source(&oracle, t))
        .collect();
    let mut cases = generated(&oracle, &sources, seed, GENERATED_BENCH);
    for (i, sql) in PINNED.iter().enumerate() {
        cases.extend(Case::spellings(&oracle, &format!("pinned #{i}"), sql));
    }
    sweep(&bench, &cases, seed, false);

    let root = support::generated_warehouse("oracle-gen");
    let oracle = Oracle::new(&root);
    let sources = [
        Source::sample(
            &oracle,
            "nb",
            "docs",
            "payload",
            &[
                "$.str1",
                "$.num",
                "$.str2",
                "$.bool",
                "$.dyn1",
                "$.dyn2",
                "$.nested_obj.num",
                "$.nested_obj.str",
                "$.nested_arr",
                "$.nested_arr[1]",
                "$.sparse_007",
            ],
            &["id", "$.str2", "$.num"],
        ),
        Source::sample(
            &oracle,
            "db",
            "mixed",
            "payload",
            &[
                "$.k", "$.v", "$.name", "$.w", "$.obj", "$.obj.a", "$.obj.b", "$.nope",
            ],
            &["id", "date", "$.name", "$.k"],
        ),
    ];
    let mut cases: Vec<Case> = support::NOBENCH_QUERIES
        .iter()
        .enumerate()
        .flat_map(|(i, sql)| Case::spellings(&oracle, &format!("nobench #{i}"), sql))
        .collect();
    cases.extend(generated(&oracle, &sources, seed ^ 1, GENERATED_TEMPORARY));
    sweep(&root, &cases, seed, true);
    std::fs::remove_dir_all(&root).ok();
}
