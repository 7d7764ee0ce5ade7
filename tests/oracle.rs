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
//! Cells: parser {Jackson, Mison, Tape} × threads {1, 2, 4} × SIMD tier
//! (every tier the CPU has) × reuse cache {off, fill, hit} × plan {plain,
//! Maxson-rewritten} × {in-process, served} — six dimensions, chosen by a
//! covering array in which every pair of dimension values meets for every
//! statement. Every
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
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::{Config, ExecMetrics};
use maxson_storage::Cell;
use support::cells::{
    assert_agrees, assert_counter_rules, check, check_cell, covering_array, parser_thread_cells,
    property_agrees, Case, ConfigCell, PARSERS,
};
use support::oracle::Oracle;
use support::sqlgen::{render, Generator, Source};
use support::{bench_data_root, GOLDEN_QUERIES, NOBENCH_QUERIES};

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

/// Fixed statements over the temporary warehouse's `db.mixed`. A `SUM`
/// whose addends are `Int` in some groups (`round` to no digits, or a NULL
/// digit count) and `Float` in others (`round` to one digit) is a column
/// mixing `Int` and `Float` in the stages above the aggregate: the HAVING
/// filter reads it, the top-N sorts on it and keeps Ints and Floats, and
/// the NULL group is filtered out.
const PINNED_MIXED: [&str; 1] = [
    "select id % 6 as g, sum(round(score, id % 2)) as s, count(*) as n from db.mixed \
     group by id % 6 having sum(round(score, id % 2)) > 125 order by s desc limit 5",
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
                let config = Config {
                    parser: PARSERS[i % PARSERS.len()],
                    threads: Some(threads),
                    result_cache_mb: None,
                    ..Config::from_env()
                };
                let mut session = Session::open_with(&root, config).unwrap();
                if rewritten {
                    session = support::install_rewriter(session);
                }
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

/// Rows of `nb.docs` in `support::generated_warehouse`.
const NB_ROWS: u64 = 240;

/// Top-N statements over the generated warehouse, whose `$.str1`, `$.num`,
/// `$.str2` and `$.name` are cached: `ORDER BY` a cached path (or no
/// order) with an uncached path projected, and the documents each parses
/// in a rewritten cell. Where the late projection applies that is the rows
/// the `LIMIT` keeps; where it must not, what the statement parses without
/// its `LIMIT`. `None`: results only (NULL documents parse nothing).
const LATE_SLICE: [(&str, Option<u64>); 13] = [
    // `$.str2` repeats every hundred rows: ties, kept in input order. Two
    // uncached paths share one parse per kept row.
    (
        "select id, get_json_object(payload, '$.dyn1') as d, \
         get_json_object(payload, '$.nested_obj.str') as s from nb.docs \
         order by get_json_object(payload, '$.str2') limit 7",
        Some(7),
    ),
    (
        "select id, get_json_object(payload, '$.nested_obj.num') as n from nb.docs \
         order by get_json_object(payload, '$.str2') desc limit 1",
        Some(1),
    ),
    (
        "select id, get_json_object(payload, '$.nested_obj.num') as n from nb.docs \
         order by get_json_object(payload, '$.str2') desc limit 0",
        Some(0),
    ),
    (
        "select id, get_json_object(payload, '$.nested_obj.num') as n from nb.docs \
         order by get_json_object(payload, '$.str2') desc limit 1000",
        Some(NB_ROWS),
    ),
    // The key is not selected: the planner strips it above the sort.
    (
        "select id, get_json_object(payload, '$.nested_obj.str') as s from nb.docs \
         order by get_json_object(payload, '$.num') desc limit 7",
        Some(7),
    ),
    // JSON-free filters: a raw column, and a cached path ten rows pass.
    (
        "select id, get_json_object(payload, '$.dyn1') as d from nb.docs where id < 100 \
         order by get_json_object(payload, '$.str2') desc limit 7",
        Some(7),
    ),
    (
        "select id, get_json_object(payload, '$.dyn1') as d from nb.docs \
         where get_json_object(payload, '$.num') >= 230 \
         order by get_json_object(payload, '$.str2') limit 50",
        Some(10),
    ),
    // A filter on an uncached path parses every row: nothing is deferred.
    (
        "select id, get_json_object(payload, '$.dyn1') as d from nb.docs \
         where get_json_object(payload, '$.bool') = 'true' \
         order by get_json_object(payload, '$.str2') limit 7",
        Some(NB_ROWS),
    ),
    // So does a sort key on an uncached path.
    (
        "select id, get_json_object(payload, '$.dyn1') as d from nb.docs \
         order by get_json_object(payload, '$.nested_obj.num') limit 7",
        Some(NB_ROWS),
    ),
    // A rewritten self-join under the sort, its key stripped.
    (
        "select a.id, get_json_object(b.payload, '$.nested_obj.str') as s \
         from nb.docs a join nb.docs b on a.id = b.id \
         order by get_json_object(a.payload, '$.str2') desc limit 7",
        Some(7),
    ),
    // `LIMIT` with no `ORDER BY`.
    (
        "select id, get_json_object(payload, '$.nested_obj.num') as n from nb.docs limit 7",
        Some(7),
    ),
    (
        "select id, get_json_object(payload, '$.nested_obj.num') as n from nb.docs \
         where id >= 235 limit 7",
        Some(5),
    ),
    // NULL and malformed documents under a mixed-type key with ties.
    (
        "select id, get_json_object(payload, '$.w') as w, get_json_object(payload, '$.obj.a') as a \
         from db.mixed order by get_json_object(payload, '$.name') desc limit 9",
        None,
    ),
];

/// Generated top-N statements (the generator's Q8 / S2 production), half
/// of them under a `WHERE`.
const GENERATED_TOP_N: usize = 12;

/// The late-projection slice and generated top-N statements in rewritten
/// cells, every parser at one and two threads: the oracle's rows, and the
/// documents `LATE_SLICE` states.
#[test]
fn late_projection_slice_agrees_with_the_oracle_and_parses_only_kept_rows() {
    let root = support::generated_warehouse("oracle-late");
    let oracle = Oracle::new(&root);
    let mut cases: Vec<Case> = LATE_SLICE
        .iter()
        .enumerate()
        .map(|(i, (sql, _))| Case::new(&oracle, &format!("late #{i}"), sql))
        .collect();
    let sources = [
        Source::sample(
            &oracle,
            "nb",
            "docs",
            "payload",
            &["$.str1", "$.num", "$.str2", "$.dyn1", "$.nested_obj.str"],
            &[],
        )
        .uncached(&["$.dyn1", "$.nested_obj.str"]),
        Source::sample(
            &oracle,
            "db",
            "mixed",
            "payload",
            &["$.k", "$.name", "$.t", "$.w", "$.obj.a"],
            &[],
        )
        .uncached(&["$.w", "$.obj.a"]),
    ];
    let mut generator = Generator::new(seed() ^ 3, &sources);
    for i in 0..GENERATED_TOP_N {
        let stmt = generator.top_n(i % 2 == 0);
        let label = format!("generated top-N #{i}");
        cases.extend(Case::spellings_of(&oracle, &label, &stmt, render(&stmt)));
    }
    let cells = parser_thread_cells(&PARSERS, &[1, 2])
        .into_iter()
        .map(|cell| ConfigCell {
            rewritten: true,
            ..cell
        });
    for (ordinal, cell) in cells.enumerate() {
        let metrics = check_cell(&root, &cell, ordinal, &cases, "late-projection slice");
        for ((sql, docs), m) in LATE_SLICE.iter().zip(metrics) {
            if let (Some(docs), Some(m)) = (docs, m) {
                assert_eq!(m.docs_parsed, *docs, "{cell}: {sql}");
            }
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
    for (i, sql) in PINNED_MIXED.iter().enumerate() {
        let pinned = Case::spellings(&oracle, &format!("pinned mixed #{i}"), sql);
        let sums: Vec<&Cell> = pinned[0].expected.rows.iter().map(|r| &r[1]).collect();
        assert!(
            sums.iter().any(|c| matches!(c, Cell::Int(_)))
                && sums.iter().any(|c| matches!(c, Cell::Float(_))),
            "pinned mixed #{i} no longer mixes Int and Float sums: {sums:?}"
        );
        cases.extend(pinned);
    }
    cases.extend(generated(&oracle, &sources, seed ^ 1, GENERATED_TEMPORARY));
    sweep(&root, &cases, seed, true);
    std::fs::remove_dir_all(&root).ok();
}

/// Statements whose select list names one column or JSONPath twice —
/// under a `WHERE` that rejects rows and without one — and whose sort keys
/// are strings that sort as numbers (padded, `NaN`, `inf`, `-0`, an
/// exponent) or as text, JSON nulls and missing values (`db.mixed`'s
/// `$.t`, cached in rewritten cells).
const REPEATED_AND_MIXED: [&str; 13] = [
    "select id as a, id as b from db.mixed",
    "select id as a, tag, id as b from db.mixed where date <> 20190105",
    "select tag as a, tag as b from db.mixed where score > 5",
    "select date as a, id, date as b from db.mixed where date > 20190110",
    "select get_json_object(payload, '$.name') as x, get_json_object(payload, '$.name') as y \
     from db.mixed",
    "select get_json_object(payload, '$.name') as x, id, get_json_object(payload, '$.name') as y \
     from db.mixed where get_json_object(payload, '$.v') > 40",
    "select get_json_object(payload, '$.str1') as x, get_json_object(payload, '$.str1') as y, \
     get_json_object(payload, '$.dyn1') as d from nb.docs where id % 3 <> 1",
    "select id, get_json_object(payload, '$.t') as t from db.mixed \
     order by get_json_object(payload, '$.t'), id",
    "select id, get_json_object(payload, '$.t') as t from db.mixed order by t desc, id desc",
    "select get_json_object(payload, '$.t') as t, count(*) as n from db.mixed \
     group by get_json_object(payload, '$.t') order by t",
    "select tag, get_json_object(payload, '$.t') as t from db.mixed where id < 70 \
     order by get_json_object(payload, '$.t') desc limit 7",
    "select id, get_json_object(payload, '$.w') as w from db.mixed \
     order by get_json_object(payload, '$.t') limit 9",
    "select id as a, id as b, get_json_object(payload, '$.t') as t from db.mixed \
     where get_json_object(payload, '$.t') is not null order by t, id",
];

/// Generated repeated-output statements, half of them under a `WHERE`.
const GENERATED_REPEATED: usize = 12;

/// Repeated outputs and mixed sort keys in plain and rewritten cells, every
/// parser at one and four threads: the fixed statements above and
/// statements of the generator's repeated-output production.
#[test]
fn repeated_outputs_and_mixed_sort_keys_agree_with_the_oracle_plain_and_rewritten() {
    let seed = seed();
    let root = support::generated_warehouse("oracle-repeated");
    let oracle = Oracle::new(&root);
    let mut cases: Vec<Case> = REPEATED_AND_MIXED
        .iter()
        .enumerate()
        .flat_map(|(i, sql)| Case::spellings(&oracle, &format!("repeated #{i}"), sql))
        .collect();
    let sources = [
        Source::sample(
            &oracle,
            "nb",
            "docs",
            "payload",
            &["$.str1", "$.num", "$.dyn1", "$.nested_obj.str"],
            &[],
        ),
        Source::sample(
            &oracle,
            "db",
            "mixed",
            "payload",
            &["$.t", "$.name", "$.k", "$.w"],
            &[],
        ),
    ];
    let mut generator = Generator::new(seed ^ 2, &sources);
    for i in 0..GENERATED_REPEATED {
        let stmt = generator.repeated_output(i % 2 == 0);
        let label = format!("generated repeated #{i}");
        cases.extend(Case::spellings_of(&oracle, &label, &stmt, render(&stmt)));
    }
    let cells: Vec<ConfigCell> = [false, true]
        .into_iter()
        .flat_map(|rewritten| {
            parser_thread_cells(&PARSERS, &[1, 4])
                .into_iter()
                .map(move |cell| ConfigCell { rewritten, ..cell })
        })
        .collect();
    check(&root, &cells, &cases, &context(seed));
    std::fs::remove_dir_all(&root).ok();
}

// Intra-query shared parse: the engine parses each JSON document once per
// row however many paths a statement evaluates, and still returns what
// the oracle — which parses once per call — returns, under Jackson and
// Mison at one and four threads. A Fig. 15-shaped statement reaches a
// four-fold dedup factor. Parsers and thread counts are pinned per
// session, so parallel test binaries cannot race on process-global state.

const SHARED_PARSE_PARSERS: [JsonParserKind; 2] = [JsonParserKind::Jackson, JsonParserKind::Mison];

fn shared_parse_cells(rewritten: bool) -> Vec<ConfigCell> {
    parser_thread_cells(&SHARED_PARSE_PARSERS, &[1, 4])
        .into_iter()
        .map(|cell| ConfigCell { rewritten, ..cell })
        .collect()
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_plain() {
    assert_agrees(
        &bench_data_root(),
        &GOLDEN_QUERIES,
        &shared_parse_cells(false),
    );
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_rewritten() {
    assert_agrees(
        &bench_data_root(),
        &GOLDEN_QUERIES,
        &shared_parse_cells(true),
    );
}

#[test]
fn nobench_workload_identical_with_and_without_shared_parse() {
    let root = support::nobench_table("nobench", 240, 4);
    assert_agrees(&root, &NOBENCH_QUERIES, &shared_parse_cells(false));
    std::fs::remove_dir_all(&root).ok();
}

/// A Fig. 15-shaped query — JSON predicate plus three more paths on the
/// same column — must reach a >=4x intra-query dedup factor: four
/// evaluations per row served by one parse.
#[test]
fn fig15_shape_reaches_4x_dedup_factor() {
    let root = support::temp_root("dedup4x");
    let mut session = Session::open(&root).unwrap();
    let docs: Vec<(i64, String)> = (0..120)
        .map(|i| {
            let doc = format!(
                r#"{{"a": {i}, "b": "s{i}", "c": {}, "v": {}}}"#,
                i * 2,
                i % 5
            );
            (i, doc)
        })
        .collect();
    support::json_table(&mut session, "db", "t", &[docs], 1024);

    let sql = "select get_json_object(payload, '$.a') as a, \
               get_json_object(payload, '$.b') as b, \
               get_json_object(payload, '$.c') as c from db.t \
               where get_json_object(payload, '$.v') >= 0";
    for parser in SHARED_PARSE_PARSERS {
        let config = Config {
            parser,
            threads: Some(1),
            ..Config::from_env()
        };
        let result = Session::open_with(&root, config)
            .unwrap()
            .execute(sql)
            .unwrap();
        assert_eq!(result.rows.len(), 120);
        assert_eq!(result.rows[7][1], Cell::from("s7"), "{parser:?}");
        assert_eq!(result.metrics.parse_calls, 480, "4 evaluations per row");
        assert_eq!(result.metrics.docs_parsed, 120, "1 parse per row");
        assert!(
            result.metrics.parse_dedup_factor() >= 4.0,
            "{parser:?}: dedup {:.2}x",
            result.metrics.parse_dedup_factor()
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn property_random_json_queries_shared_equals_naive() {
    property_agrees(
        "one_parse_per_row_equals_oracle",
        10,
        &shared_parse_cells(false),
    );
}
