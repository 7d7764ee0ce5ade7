//! The on-demand tape parser (`JsonParserKind::Tape`) against the Jackson
//! DOM reference, with the Mison structural index as the third wheel.
//!
//! Layers:
//!
//! 1. **Statements** — the golden, NoBench and corpus statements under
//!    Jackson, Mison and Tape at 1 and 4 threads return what the oracle
//!    returns; so do random statements over random corpus tables
//!    (seed-replayable via `MAXSON_TESTKIT_SEED`).
//! 2. **Adversarial corpus at the API level** — the seed-replayable corpus
//!    from `maxson_testkit::corpus`. Valid-tier documents get full
//!    three-way identity. Invalid-tier documents pin Tape to Jackson only:
//!    Mison's index deliberately skips whole-document validation (it
//!    accepts trailing garbage and over-deep nesting), so rejection identity
//!    is a two-parser property.
//! 3. **Semantics regressions** — duplicate keys are first-wins in all
//!    three parsers; selective queries under Tape skip nodes without
//!    parsing a single extra document; a `MAXSON_PARSER` value resolves
//!    through the configuration into the session that opens with it.
//!
//! Parsers and thread counts are pinned per session, never through the
//! process environment, so parallel tests cannot race on global state.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::Config as SessionConfig;
use maxson_json::mison::MisonProjector;
use maxson_json::tape::{self, TapeStats};
use maxson_json::JsonPath;
use maxson_storage::Cell;
use maxson_testkit::corpus;
use maxson_testkit::prop::{check, Config, Gen};
use std::path::PathBuf;
use support::cells::{
    assert_agrees, assert_matches, parser_thread_cells, property_agrees, ConfigCell, PARSERS,
};
use support::oracle::Oracle;
use support::{bench_data_root, GOLDEN_QUERIES, NOBENCH_QUERIES};

/// Every parser at 1 and 4 threads.
fn cells(rewritten: bool) -> Vec<ConfigCell> {
    parser_thread_cells(&PARSERS, &[1, 4])
        .into_iter()
        .map(|cell| ConfigCell { rewritten, ..cell })
        .collect()
}

#[test]
fn golden_queries_three_way_identical_plain() {
    assert_agrees(&bench_data_root(), &GOLDEN_QUERIES, &cells(false));
}

#[test]
fn golden_queries_three_way_identical_rewritten() {
    assert_agrees(&bench_data_root(), &GOLDEN_QUERIES, &cells(true));
}

#[test]
fn nobench_workload_three_way_identical() {
    let root = support::nobench_table("nobench3", 240, 4);
    assert_agrees(&root, &NOBENCH_QUERIES, &cells(false));
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Adversarial corpus: API level
// ---------------------------------------------------------------------

fn corpus_paths() -> Vec<JsonPath> {
    corpus::query_paths()
        .iter()
        .map(|p| JsonPath::parse(p).unwrap())
        .collect()
}

/// Valid-tier corpus: all three parsers agree per path, per document, both
/// through the one-path and the shared many-path entry points.
#[test]
fn api_three_way_identical_on_valid_corpus() {
    let paths = corpus_paths();
    for doc in corpus::valid_docs(0xC0FFEE, 300) {
        let jackson: Vec<Option<String>> = paths
            .iter()
            .map(|p| maxson_json::get_json_object(&doc, p))
            .collect();
        let mison: Vec<Option<String>> = paths
            .iter()
            .map(|p| MisonProjector::project_path(&doc, p))
            .collect();
        let mut stats = TapeStats::default();
        let tape_single: Vec<Option<String>> = paths
            .iter()
            .map(|p| tape::project_path(&doc, p, &mut stats).map(|s| s.to_string()))
            .collect();
        let tape_shared: Vec<Option<String>> = tape::project_paths(&doc, &paths, &mut stats)
            .into_iter()
            .map(|v| v.map(|s| s.to_string()))
            .collect();
        assert_eq!(mison, jackson, "Mison diverged from Jackson on {doc}");
        assert_eq!(tape_single, jackson, "Tape diverged from Jackson on {doc}");
        assert_eq!(tape_shared, jackson, "shared Tape diverged on {doc}");
        // A corpus doc always has `$.id` and never `$.missing`.
        assert!(jackson[0].is_some(), "$.id missing from {doc}");
        assert!(jackson.last().unwrap().is_none(), "$.missing hit in {doc}");
    }
}

/// Invalid-tier corpus: Tape must reject exactly what Jackson rejects
/// (all-`None` projections, no panic). Mison is deliberately excluded —
/// its index skips whole-document validation by design.
#[test]
fn api_tape_matches_jackson_on_invalid_corpus() {
    let paths = corpus_paths();
    for doc in corpus::invalid_docs(0xBAD5EED, 300) {
        for p in &paths {
            let jackson = maxson_json::get_json_object(&doc, p);
            assert_eq!(jackson, None, "invalid doc parsed by Jackson: {doc:?}");
            let mut stats = TapeStats::default();
            let tape = tape::project_path(&doc, p, &mut stats).map(|s| s.to_string());
            assert_eq!(
                tape, jackson,
                "Tape accepted what Jackson rejected: {doc:?}"
            );
        }
        assert!(
            maxson_json::tape::TapeDoc::build(&doc).is_err(),
            "tape build accepted invalid doc: {doc:?}"
        );
    }
}

/// Byte-mutated valid documents: whatever Jackson decides (accept or
/// reject), Tape decides identically — and neither panics.
#[test]
fn api_tape_matches_jackson_on_mutated_corpus() {
    let paths = corpus_paths();
    let mut rng = maxson_testkit::Rng::seed_from_u64(0xF422);
    for doc in corpus::valid_docs(0xF422, 150) {
        let mutated = corpus::mutate_bytes(&doc, &mut rng);
        for p in &paths {
            let jackson = maxson_json::get_json_object(&mutated, p);
            let mut stats = TapeStats::default();
            let tape = tape::project_path(&mutated, p, &mut stats).map(|s| s.to_string());
            assert_eq!(
                tape, jackson,
                "Tape diverged from Jackson on mutated doc {mutated:?} path {p:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// String boundaries: the tape's word-at-a-time string handling
// ---------------------------------------------------------------------
//
// The tape finds a closing quote as the first clear bit of the
// string-interior bitmap (64 input bytes per word) and validates a string
// body eight bytes per step, dropping to the per-byte checker only in a
// chunk holding a control byte or a backslash. Every document below puts
// the bytes that matter on one of those boundaries.

/// `{"k": "<body>", "t": 1}` behind `pad` bytes of leading whitespace, so
/// the body starts anywhere in a bitmap word; `filler` x's inside the body
/// move what follows them through the eight lanes of a validation chunk.
fn boundary_doc(pad: usize, filler: usize, tail: &str) -> String {
    format!(
        r#"{}{{"k": "{}{tail}", "t": 1}}"#,
        " ".repeat(pad),
        "x".repeat(filler)
    )
}

/// Body tails that are legal JSON string content.
const VALID_TAILS: [&str; 8] = [
    r#"\"x"#,             // escaped quote: `\` ends a chunk, `"` starts the next
    r#"\\"#,              // escaped backslash right before the closing quote
    r#"\\\"\\"#,          // a run of three escapes
    r#"\uD83D\uDE00 ok"#, // surrogate pair, split across chunks at most fillers
    r#"\u00e9\n\t\/"#,
    "é😀é", // raw multi-byte UTF-8 never trips the word test
    "",
    "plain ascii body, longer than one chunk",
];

/// Body tails the grammar rejects, the string itself still terminated.
const INVALID_TAILS: [&str; 8] = [
    "\u{1}tail", // raw control byte: one per lane as filler moves
    "\u{1f}",
    "ok\ttab",         // a raw tab is a control byte too
    r#"\q"#,           // unknown escape
    r#"\uD83D x"#,     // high surrogate without its low half
    r#"\uD83D\u0041"#, // high surrogate followed by a non-surrogate
    r#"\uDE00"#,       // lone low surrogate
    r#"\u12G4"#,       // bad hex digit
];

/// Rejected by both, reported differently: the tape bounds an escape by the
/// closing quote it already knows (`UnexpectedEof`), Jackson reads the quote
/// as a bad hex digit.
const CUT_SHORT_TAIL: &str = r#"\uD83D\uDE0"#;

/// Build `doc` on every kernel tier; the outcome — the rendered values of
/// `$.k`, `$.t` and `$` or the build error, offsets included — must not
/// depend on the tier. Returns it.
fn tape_outcome_on_every_tier(doc: &str) -> Result<Vec<Option<String>>, maxson_json::JsonError> {
    use maxson_json::kernels;
    let paths: Vec<JsonPath> = ["$.k", "$.t", "$"]
        .iter()
        .map(|p| JsonPath::parse(p).unwrap())
        .collect();
    let mut outcomes = kernels::available().into_iter().map(|kernel| {
        assert_eq!(kernels::set_active(kernel), kernel);
        let built = tape::TapeDoc::build(doc).map(|t| {
            t.eval_paths(&paths, &mut TapeStats::default())
                .into_iter()
                .map(|v| v.map(|s| s.to_string()))
                .collect::<Vec<_>>()
        });
        (kernel, built)
    });
    let (_, reference) = outcomes.next().expect("scalar is always available");
    for (kernel, got) in outcomes {
        assert_eq!(
            got,
            reference,
            "{} diverged from scalar on {doc:?}",
            kernel.name()
        );
    }
    reference
}

/// The DOM parser's verdict on the same three paths.
fn jackson_outcome(doc: &str) -> Result<Vec<Option<String>>, maxson_json::JsonError> {
    let v = maxson_json::parse(doc)?;
    Ok(["$.k", "$.t", "$"]
        .iter()
        .map(|p| {
            JsonPath::parse(p)
                .unwrap()
                .eval(&v)
                .map(|v| v.to_hive_string())
        })
        .collect())
}

/// Process-wide kernel pinning is safe beside the other tests of this
/// binary because tiers are bit-identical (see tests/kernel_differential.rs).
struct RestoreKernel(maxson_json::kernels::Kernel);
impl Drop for RestoreKernel {
    fn drop(&mut self) {
        maxson_json::kernels::set_active(self.0);
    }
}

#[test]
fn strings_on_chunk_and_word_boundaries_match_jackson_on_every_tier() {
    let _restore = RestoreKernel(maxson_json::kernels::active());
    // 0..=17 fillers walk a tail through every lane of two chunks; the
    // pads put the body start on, just before and just after a word edge.
    for pad in [0, 1, 7, 55, 56, 57, 58, 63, 64, 65, 120] {
        for filler in 0..=17 {
            for tail in VALID_TAILS {
                let doc = boundary_doc(pad, filler, tail);
                let tape = tape_outcome_on_every_tier(&doc);
                assert!(tape.is_ok(), "tape rejected {doc:?}: {tape:?}");
                assert_eq!(tape, jackson_outcome(&doc), "{doc:?}");
            }
            for tail in INVALID_TAILS {
                let doc = boundary_doc(pad, filler, tail);
                let tape = tape_outcome_on_every_tier(&doc);
                // Same rejection, same variant, same offset.
                assert!(tape.is_err(), "tape accepted {doc:?}");
                assert_eq!(tape, jackson_outcome(&doc), "{doc:?}");
            }
            let doc = boundary_doc(pad, filler, CUT_SHORT_TAIL);
            assert!(tape_outcome_on_every_tier(&doc).is_err(), "{doc:?}");
            assert!(jackson_outcome(&doc).is_err(), "{doc:?}");
        }
    }
}

#[test]
fn unterminated_and_very_long_strings_match_jackson_on_every_tier() {
    let _restore = RestoreKernel(maxson_json::kernels::active());
    // An unterminated string ending exactly on, one before and one past a
    // bitmap word edge — with and without an escape as its last bytes.
    for len in [63usize, 64, 65, 127, 128, 129, 192] {
        for tail in ["", r#"\""#, r#"\\"#] {
            let head = r#"{"k": ""#;
            let doc = format!("{head}{}{tail}", "x".repeat(len - head.len() - tail.len()));
            assert_eq!(doc.len(), len);
            let tape = tape_outcome_on_every_tier(&doc);
            assert_eq!(
                tape,
                Err(maxson_json::JsonError::UnexpectedEof { context: "string" }),
                "{doc:?}"
            );
            assert_eq!(tape, jackson_outcome(&doc), "{doc:?}");
        }
    }
    // A 70 kB pad string: a thousand bitmap words between its quotes.
    let pad = "x".repeat(70_000);
    let doc = format!(r#"{{"a": 1, "k": "{pad}", "t": 1}}"#);
    let tape = tape_outcome_on_every_tier(&doc).unwrap();
    assert_eq!(tape[0].as_deref(), Some(pad.as_str()));
    assert_eq!(Ok(tape), jackson_outcome(&doc));
    // The same with an escape deep inside, a control byte near the end,
    // and the closing quote missing.
    let escaped = format!(r#"{{"k": "{pad}\"{pad}", "t": 1}}"#);
    assert_eq!(
        tape_outcome_on_every_tier(&escaped).unwrap()[0],
        Some(format!("{pad}\"{pad}"))
    );
    let control = format!("{{\"k\": \"{pad}\u{2}xyz\", \"t\": 1}}");
    let rejected = tape_outcome_on_every_tier(&control);
    assert_eq!(
        rejected,
        Err(maxson_json::JsonError::InvalidString {
            offset: 7 + pad.len(),
            reason: "raw control character"
        })
    );
    assert_eq!(rejected, jackson_outcome(&control));
    let open = format!(r#"{{"k": "{pad}"#);
    assert_eq!(tape_outcome_on_every_tier(&open), jackson_outcome(&open));
}

/// Seed-replayable: byte-mutate the boundary documents. Whatever the
/// mutation did, tape and Jackson agree on accept/reject and on every
/// rendered value, on every tier. (Error values are compared only above:
/// a string the mutation left unterminated *and* malformed is rejected by
/// both, but the tape reports the missing quote and Jackson the first bad
/// byte.)
#[test]
fn property_mutated_boundary_strings_match_jackson_on_every_tier() {
    let _restore = RestoreKernel(maxson_json::kernels::active());
    let tails: Vec<&'static str> = VALID_TAILS
        .into_iter()
        .chain(INVALID_TAILS)
        .chain([CUT_SHORT_TAIL])
        .collect();
    let tail_count = tails.len();
    let gen = Gen::tuple2(
        Gen::tuple2(Gen::usize_in(0..=130), Gen::usize_in(0..=40)),
        Gen::tuple2(Gen::usize_in(0..=tail_count - 1), Gen::u64_any()),
    );
    check(
        "tape_string_boundaries",
        &Config::with_cases(400),
        &gen,
        |&((pad, filler), (tail, mutation_seed))| {
            let doc = boundary_doc(pad, filler, tails[tail]);
            let mut rng = maxson_testkit::Rng::seed_from_u64(mutation_seed);
            let mutated = corpus::mutate_bytes(&doc, &mut rng);
            let tape = tape_outcome_on_every_tier(&mutated);
            let jackson = jackson_outcome(&mutated);
            maxson_testkit::prop_assert_eq!(tape.is_err(), jackson.is_err());
            if let (Ok(tape), Ok(jackson)) = (tape, jackson) {
                maxson_testkit::prop_assert_eq!(tape, jackson);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Adversarial corpus: engine level
// ---------------------------------------------------------------------

/// `adv.docs(id, payload)`: the valid-tier corpus over `splits` splits.
fn corpus_table(name: &str, seed: u64, rows: usize, splits: usize) -> PathBuf {
    let root = support::temp_root(name);
    let docs = corpus::valid_docs(seed, rows);
    let per_file = rows.div_ceil(splits.max(1)).max(1);
    let files: Vec<Vec<(i64, String)>> = docs
        .chunks(per_file)
        .enumerate()
        .map(|(f, chunk)| {
            let first = f * per_file;
            (first..)
                .zip(chunk)
                .map(|(i, d)| (i as i64, d.clone()))
                .collect()
        })
        .collect();
    support::json_table(
        &mut Session::open(&root).unwrap(),
        "adv",
        "docs",
        &files,
        16,
    );
    root
}

#[test]
fn corpus_workload_three_way_identical() {
    let root = corpus_table("corpus3", 0xADBEEF, 180, 3);
    let queries = [
        // Multi-path projection incl. an array index and a depth-2 field.
        "select get_json_object(payload, '$.name') as name, \
         get_json_object(payload, '$.num') as num, \
         get_json_object(payload, '$.arr[0]') as a0, \
         get_json_object(payload, '$.deep.x') as dx from adv.docs",
        // Selective filter on the guaranteed field.
        "select get_json_object(payload, '$.id') as id, \
         get_json_object(payload, '$.dup') as dup from adv.docs \
         where get_json_object(payload, '$.id') < 40",
        // Guaranteed-miss projection plus aggregation.
        "select count(*), count(get_json_object(payload, '$.missing')), \
         count(get_json_object(payload, '$.flag')) from adv.docs",
        // Container rendering: `$.deep` re-serializes a nested object.
        "select get_json_object(payload, '$.deep') as deep from adv.docs \
         where id < 25",
    ];
    assert_agrees(&root, &queries, &cells(false));
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Semantics regressions
// ---------------------------------------------------------------------

/// Duplicate keys are first-wins in all three parsers, at the API level
/// and through the engine.
#[test]
fn duplicate_keys_are_first_wins_in_all_parsers() {
    let doc = r#"{"dup": 1, "other": true, "dup": 2, "dup": 3, "o": {"k": "a", "k": "b"}}"#;
    let dup = JsonPath::parse("$.dup").unwrap();
    let nested = JsonPath::parse("$.o.k").unwrap();
    assert_eq!(
        maxson_json::get_json_object(doc, &dup).as_deref(),
        Some("1")
    );
    assert_eq!(
        maxson_json::get_json_object(doc, &nested).as_deref(),
        Some("a")
    );
    assert_eq!(
        MisonProjector::project_path(doc, &dup).as_deref(),
        Some("1")
    );
    assert_eq!(
        MisonProjector::project_path(doc, &nested).as_deref(),
        Some("a")
    );
    let mut stats = TapeStats::default();
    assert_eq!(
        tape::project_path(doc, &dup, &mut stats).as_deref(),
        Some("1")
    );
    assert_eq!(
        tape::project_path(doc, &nested, &mut stats).as_deref(),
        Some("a")
    );

    // Engine level: one table, one row per duplicate-key shape.
    let root = support::temp_root("firstwins");
    let mut session = Session::open(&root).unwrap();
    let docs: Vec<(i64, String)> = (0..16)
        .map(|i| {
            (
                i,
                format!(r#"{{"dup": {i}, "pad": [1, 2], "dup": {}}}"#, i + 100),
            )
        })
        .collect();
    support::json_table(&mut session, "db", "t", &[docs], 1024);
    let sql = "select get_json_object(payload, '$.dup') as dup from db.t";
    let expected = Oracle::new(&root).answer(sql).unwrap();
    for (i, row) in expected.rows.iter().enumerate() {
        assert_eq!(
            row[0],
            Cell::from(i.to_string()),
            "first occurrence must win"
        );
    }
    for parser in PARSERS {
        session.set_parser_kind(parser);
        assert_matches(
            &expected,
            &session.execute(sql).unwrap(),
            &format!("{parser:?}"),
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A selective query under Tape skips nodes without parsing any more (or
/// fewer) documents than Jackson does — laziness changes what a parse
/// materializes, never how many documents are parsed.
#[test]
fn selective_query_skips_nodes_without_extra_parses() {
    let root = corpus_table("skipcount", 0x5E1EC7, 120, 2);
    let sql = "select get_json_object(payload, '$.id') as id from adv.docs \
               where get_json_object(payload, '$.id') >= 0";
    let mut session = Session::open(&root).unwrap();
    session.set_threads(Some(1));

    session.set_parser_kind(JsonParserKind::Jackson);
    let jackson = session.execute(sql).unwrap();
    assert_eq!(jackson.metrics.nodes_skipped, 0);

    session.set_parser_kind(JsonParserKind::Tape);
    let tape_run = session.execute(sql).unwrap();
    assert_matches(&Oracle::new(&root).answer(sql).unwrap(), &tape_run, "tape");
    assert_eq!(
        tape_run.metrics.docs_parsed, jackson.metrics.docs_parsed,
        "tape must parse exactly as many documents as Jackson"
    );
    assert!(
        tape_run.metrics.nodes_skipped > 0,
        "selective query over multi-field docs must hop unqueried subtrees"
    );
    // The tape wall split is charged under the parse umbrella.
    assert!(
        tape_run.metrics.tape_build_wall > std::time::Duration::ZERO,
        "tape build wall must be charged"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A `MAXSON_PARSER` value opens a session running the parser it names
/// (any case, surrounding blanks ignored); unset or unknown opens Jackson;
/// `set_parser_kind` still overrides. Resolved through
/// `Config::from_lookup`, so every branch runs without touching the
/// process environment.
#[test]
fn session_open_resolves_parser_from_env() {
    let root = support::temp_root("envparser");
    for (value, expected) in [
        (None, JsonParserKind::Jackson),
        (Some("TAPE"), JsonParserKind::Tape),
        (Some(" mison "), JsonParserKind::Mison),
        (Some(" jackson "), JsonParserKind::Jackson),
        (Some("simdjson"), JsonParserKind::Jackson),
    ] {
        let config = SessionConfig::from_lookup(|name| {
            value
                .filter(|_| name == "MAXSON_PARSER")
                .map(str::to_string)
        });
        let mut session = Session::open_with(&root, config).unwrap();
        assert_eq!(session.parser_kind(), expected, "MAXSON_PARSER={value:?}");
        session.set_parser_kind(JsonParserKind::Mison);
        assert_eq!(session.parser_kind(), JsonParserKind::Mison);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn property_corpus_queries_three_way_identical() {
    property_agrees("tape_three_way_oracle", 10, &cells(false));
}
