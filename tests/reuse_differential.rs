//! The cross-query reuse cache is invisible to results: a filled and a
//! hit run return what the oracle returns across parser modes and thread
//! counts, repeats are served without parsing a single document,
//! trivially-equivalent plan spellings share one entry while a changed
//! literal misses, and a `LIMIT` variant reuses the unlimited result (and
//! vice versa) through the fragment key space.
//!
//! Every session pins its cache (`Session::set_result_cache`), so the
//! `MAXSON_RESULT_CACHE_MB` default of the environment changes nothing here.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_storage::file::WriteOptions;
use maxson_storage::Cell;
use std::path::PathBuf;
use support::cells::{assert_agrees, parser_thread_cells, ConfigCell, Reuse, PARSERS};

/// A table whose payload column exercises the JSON parsers: any cold run
/// must parse documents, so `docs_parsed == 0` proves a cache serve.
fn build_table(name: &str) -> PathBuf {
    let root = support::temp_root(name);
    let docs: Vec<(i64, String)> = (0..60)
        .map(|i| {
            (
                i,
                format!(r#"{{"a": {i}, "b": {}, "tag": "t{}"}}"#, i % 9, i % 4),
            )
        })
        .collect();
    support::json_table(&mut Session::open(&root).unwrap(), "db", "t", &[docs], 16);
    root
}

const QUERIES: [&str; 5] = [
    "select id, get_json_object(payload, '$.a') as a from db.t \
     where get_json_object(payload, '$.a') >= 10",
    "select get_json_object(payload, '$.tag') as tag from db.t \
     where get_json_object(payload, '$.b') < 4 and id > 5",
    "select id from db.t order by id desc limit 7",
    "select distinct get_json_object(payload, '$.tag') as tag from db.t",
    "select count(*) as n, max(get_json_object(payload, '$.a')) as hi from db.t",
];

fn open(root: &PathBuf, parser: JsonParserKind, threads: usize) -> Session {
    let mut session = Session::open(root).unwrap();
    session.set_parser_kind(parser);
    session.set_threads(Some(threads));
    session
}

/// Three parsers, one and four threads, a cold fill and — after a literal
/// variant of the statement ran — a warm hit: every result is the
/// oracle's.
#[test]
fn cache_on_off_is_byte_identical_across_parsers_and_threads() {
    let root = build_table("onoff");
    let cells: Vec<ConfigCell> = parser_thread_cells(&PARSERS, &[1, 4])
        .into_iter()
        .flat_map(|cell| [Reuse::Fill, Reuse::Hit].map(|reuse| ConfigCell { reuse, ..cell }))
        .collect();
    assert_agrees(&root, &QUERIES, &cells);
    std::fs::remove_dir_all(&root).ok();
}

/// The second run of a repeated query is a full-result hit: zero
/// documents parsed, zero parser invocations, rows unchanged.
#[test]
fn repeated_query_hits_without_parsing_any_document() {
    let root = build_table("repeat");
    let mut session = open(&root, JsonParserKind::Tape, 2);
    session.set_result_cache(Some(16));
    let sql = QUERIES[0];
    let cold = session.execute(sql).unwrap();
    assert!(cold.metrics.docs_parsed > 0, "cold run must parse");
    assert_eq!(cold.metrics.reuse_fills, 1, "cold run must fill the cache");
    let warm = session.execute(sql).unwrap();
    assert_eq!(warm.metrics.reuse_hits, 1, "second run must hit");
    assert_eq!(warm.metrics.docs_parsed, 0, "a hit parses nothing");
    assert_eq!(warm.metrics.parse_calls, 0, "a hit never calls a parser");
    assert_eq!(warm.rows, cold.rows);
    let stats = session.reuse_stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert!(stats.bytes_resident > 0);
    std::fs::remove_dir_all(&root).ok();
}

/// Trivially-equivalent spellings collide on one entry; changing a
/// literal must miss.
#[test]
fn commuted_predicates_share_an_entry_but_changed_literals_miss() {
    let root = build_table("normalize");
    let mut session = open(&root, JsonParserKind::Jackson, 1);
    session.set_result_cache(Some(16));
    let a = session
        .execute("select id from db.t where id > 5 and get_json_object(payload, '$.b') < 4")
        .unwrap();
    assert_eq!(a.metrics.reuse_fills, 1);
    // Commuted conjuncts, shuffled whitespace, different alias casing: the
    // canonical fingerprint is identical, so this is a hit, not a re-run.
    let b = session
        .execute("SELECT id FROM db.t  WHERE get_json_object(payload, '$.b') < 4   AND id > 5")
        .unwrap();
    assert_eq!(b.metrics.reuse_hits, 1, "commuted predicate must hit");
    assert_eq!(b.metrics.docs_parsed, 0);
    assert_eq!(b.rows, a.rows);
    // One changed literal is a different query: never served from cache.
    let c = session
        .execute("select id from db.t where id > 12 and get_json_object(payload, '$.b') < 4")
        .unwrap();
    assert_eq!(c.metrics.reuse_hits, 0, "changed literal must miss");
    assert_eq!(c.metrics.reuse_misses, 1);
    assert!(c.metrics.docs_parsed > 0);
    assert_ne!(c.rows, a.rows);
    std::fs::remove_dir_all(&root).ok();
}

/// An entry filled under one parser never serves another: parsers may
/// legitimately disagree on malformed documents, so the parser name is
/// folded into the reuse key.
#[test]
fn entries_are_parser_scoped() {
    let root = build_table("parser-scope");
    let mut session = open(&root, JsonParserKind::Jackson, 1);
    session.set_result_cache(Some(16));
    let sql = QUERIES[0];
    session.execute(sql).unwrap();
    session.set_parser_kind(JsonParserKind::Tape);
    let other = session.execute(sql).unwrap();
    assert_eq!(other.metrics.reuse_hits, 0, "cross-parser reuse is unsound");
    assert_eq!(other.metrics.reuse_misses, 1);
    assert!(other.metrics.docs_parsed > 0);
    std::fs::remove_dir_all(&root).ok();
}

/// The fragment key space is the full key space of the peeled statement:
/// a `LIMIT` query reuses the unlimited result as its intermediate, and
/// an unlimited query is served outright by the fragment a `LIMIT` run
/// left behind.
#[test]
fn limit_variant_and_unlimited_query_reuse_each_other() {
    let unlimited = "select id, get_json_object(payload, '$.a') as a from db.t \
                     where get_json_object(payload, '$.b') < 8";
    let limited = "select id, get_json_object(payload, '$.a') as a from db.t \
                   where get_json_object(payload, '$.b') < 8 limit 5";

    // Direction 1: unlimited first, then LIMIT rides its cached rows.
    let root = build_table("frag-fwd");
    let mut session = open(&root, JsonParserKind::Tape, 2);
    session.set_result_cache(Some(16));
    let full = session.execute(unlimited).unwrap();
    let lim = session.execute(limited).unwrap();
    assert_eq!(
        lim.metrics.reuse_fragment_hits, 1,
        "LIMIT variant must rebuild over the cached unlimited rows"
    );
    assert_eq!(lim.metrics.docs_parsed, 0, "fragment hit parses nothing");
    assert_eq!(lim.rows, full.rows[..5].to_vec());
    std::fs::remove_dir_all(&root).ok();

    // Direction 2: LIMIT first fills its peeled fragment too, which *is*
    // the unlimited query's full key — so the unlimited run is a full hit.
    let root = build_table("frag-rev");
    let mut session = open(&root, JsonParserKind::Tape, 2);
    session.set_result_cache(Some(16));
    let lim = session.execute(limited).unwrap();
    assert!(lim.metrics.docs_parsed > 0);
    let full = session.execute(unlimited).unwrap();
    assert_eq!(
        full.metrics.reuse_hits, 1,
        "unlimited query must be served by the fragment the LIMIT run filled"
    );
    assert_eq!(full.metrics.docs_parsed, 0);
    assert_eq!(full.rows[..5].to_vec(), lim.rows);
    std::fs::remove_dir_all(&root).ok();
}

/// Appending data through the catalog write guard invalidates affected
/// entries: the next run re-executes and sees the new rows.
#[test]
fn catalog_writes_invalidate_instead_of_serving_stale_rows() {
    let root = build_table("invalidate");
    let mut session = open(&root, JsonParserKind::Jackson, 1);
    session.set_result_cache(Some(16));
    let sql = "select count(*) as n from db.t";
    let before = session.execute(sql).unwrap();
    assert_eq!(before.rows, vec![vec![Cell::Int(60)]]);
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.table_mut("db", "t").unwrap();
        table
            .append_file(
                &[vec![
                    Cell::Int(60),
                    Cell::from(r#"{"a": 60, "b": 0, "tag": "t0"}"#),
                ]],
                WriteOptions::default(),
                2,
            )
            .unwrap();
    }
    let after = session.execute(sql).unwrap();
    assert_eq!(after.metrics.reuse_hits, 0, "stale entry must not serve");
    assert_eq!(after.rows, vec![vec![Cell::Int(61)]], "new row visible");
    std::fs::remove_dir_all(&root).ok();
}
