//! Allocation regression for the zero-copy scan+filter hot loop.
//!
//! The zero-copy pipeline (PR: shared-buffer `Arc<str>` cells, columnar
//! batches with late materialization, allocation-free group keys) exists to
//! take per-row heap traffic out of the scan phase. This test pins that
//! property with a counting global allocator (`maxson-testkit`'s
//! `count-alloc` feature):
//!
//! 1. the engine's scan+filter allocations-per-row must stay under a locked
//!    absolute ceiling, and
//! 2. a seed-style consumption loop — deep-copying every string cell and
//!    building one fresh `Vec<Cell>` per row before filtering, exactly what
//!    `ColumnData::get`/`scan_split` did before this change — must cost at
//!    least 5x more allocations per row than the engine's whole execution
//!    does now.
//!
//! The workload uses a dictionary-encodable payload column (few distinct
//! documents) and a selective filter, the shape where late materialization
//! and shared buffers pay: the old path paid ~3 allocations per row
//! (decode-copy, get-clone, row Vec) regardless of selectivity; the new
//! path shares one buffer per distinct document and materializes only the
//! filter column for rejected rows.

//!
//! That table never saw what a *plain*-encoded column costs: a dictionary
//! chunk decodes its eight entries once and every row clones one of them,
//! so a decoder that copied each decoded string twice (`read_str` into a
//! `String`, then into an `Arc<str>`) paid for it eight times per 4,096
//! rows. The real cache columns hold mostly unique values and stay plain;
//! the last cell below builds such a table and holds the raw + cache and
//! cache-only scans over it to one allocation per decoded string, and to
//! none for the strings of rows the scan's row selection drops.

mod support;

use maxson::mpjp::PredictorKind;
use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_engine::session::Session;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_testkit::alloc::{allocation_count, peak_bytes, reset_peak_bytes, CountingAllocator};
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};
use std::path::PathBuf;
use support::temp_root;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Locked ceiling for the engine's whole-query allocations per scanned row
/// on the scan+filter shape below (measured ~0.1–0.3 across platforms;
/// headroom for allocator/stdlib drift, still far under the seed path's
/// ~3 per row).
const ENGINE_ALLOCS_PER_ROW_CEILING: f64 = 1.0;

/// The seed-style loop must cost at least this many times the engine's
/// per-row allocations.
const MIN_IMPROVEMENT: f64 = 5.0;

const ROWS: i64 = 4096;
/// Filter keeps 64 of 4096 rows (~1.6%), the selective case late
/// materialization targets.
const KEEP_FROM: i64 = ROWS - 64;

/// A table whose payload column dictionary-encodes (8 distinct documents),
/// so decoded rows share buffers instead of copying them.
fn build_table(root: &PathBuf) -> Session {
    let mut session = Session::open(root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let rows: Vec<Vec<Cell>> = (0..ROWS)
        .map(|i| {
            vec![
                Cell::Int(i),
                Cell::from(format!(
                    r#"{{"group": {}, "name": "payload-group-{}", "weight": {}}}"#,
                    i % 8,
                    i % 8,
                    (i % 8) * 100
                )),
            ]
        })
        .collect();
    table
        .append_file(&rows, WriteOptions::default(), 1)
        .unwrap();
    drop(catalog);
    session
}

#[test]
fn scan_filter_hot_loop_allocations_per_row() {
    let root = temp_root("scanfilter");
    let mut session = build_table(&root);
    session.set_threads(Some(1));
    let sql = format!("select id, payload from db.t where id >= {KEEP_FROM}");

    // Warm up: first execution touches lazy one-time state (catalog reads,
    // file metadata) that is not per-row cost.
    let warm = session.execute(&sql).unwrap();
    assert_eq!(warm.rows.len(), (ROWS - KEEP_FROM) as usize);

    // Engine path: a whole execution, SQL parse and planning included —
    // strictly more than the hot loop, so the ceiling is conservative.
    let before = allocation_count();
    let result = session.execute(&sql).unwrap();
    let engine_allocs = allocation_count() - before;
    assert_eq!(result.rows.len(), (ROWS - KEEP_FROM) as usize);
    assert_eq!(result.metrics.rows_scanned, ROWS as u64);
    let engine_per_row = engine_allocs as f64 / ROWS as f64;

    // Seed-style consumption of the same scan: one fresh Vec<Cell> per row
    // with every string cell deep-copied (what `Cell::Str(String)` +
    // `ColumnData::get`'s clone cost before this change), filter applied
    // after materialization.
    // Scanned once outside the measured region; the seed loop below only
    // measures consumption, exactly like the engine's hot loop.
    let rows = session
        .execute("select id, payload from db.t")
        .unwrap()
        .rows;
    let before = allocation_count();
    let mut kept: Vec<Vec<Cell>> = Vec::new();
    for row in &rows {
        let materialized: Vec<Cell> = row
            .iter()
            .map(|c| match c {
                Cell::Str(s) => Cell::from(&**s), // deep copy, as the seed did
                other => other.clone(),
            })
            .collect();
        let keep = matches!(materialized[0], Cell::Int(v) if v >= KEEP_FROM);
        if keep {
            kept.push(materialized);
        }
    }
    let seed_allocs = allocation_count() - before;
    assert_eq!(kept.len(), (ROWS - KEEP_FROM) as usize);
    let seed_per_row = seed_allocs as f64 / ROWS as f64;

    eprintln!(
        "alloc_regression: engine {engine_per_row:.4} allocs/row \
         ({engine_allocs} total), seed-style {seed_per_row:.4} allocs/row \
         ({seed_allocs} total), improvement {:.1}x",
        seed_per_row / engine_per_row.max(f64::EPSILON)
    );
    assert!(
        engine_per_row <= ENGINE_ALLOCS_PER_ROW_CEILING,
        "scan+filter allocations per row regressed: {engine_per_row:.3} \
         (ceiling {ENGINE_ALLOCS_PER_ROW_CEILING}), {engine_allocs} allocs over {ROWS} rows"
    );
    assert!(
        seed_per_row >= MIN_IMPROVEMENT * engine_per_row,
        "zero-copy win eroded: seed-style loop {seed_per_row:.3} allocs/row vs \
         engine {engine_per_row:.3} allocs/row (need >= {MIN_IMPROVEMENT}x)"
    );

    assert_maxson_rewritten_allocations_per_row(&mut session, &root);
    assert_cache_build_allocations_per_row();
    assert_plain_encoded_cache_allocations_per_row();
    assert_top_n_holds_only_kept_documents();
    assert_cached_top_n_decodes_only_kept_rows();
    assert_unique_group_by_allocations_per_row();
    assert_served_results_are_not_copied();
    assert_wire_string_cells_allocate_once();
    std::fs::remove_dir_all(&root).ok();
}

/// Locked ceiling for one `JsonPathCacher::populate` over the Table II
/// warehouse, in allocations per cached row (a row carries nine cached
/// values on average, each an `Arc<str>` of its own). The row-at-a-time
/// build — a tape's vectors and five index vectors per document, a
/// `Vec<Cell>` per row — measured 43.2 here; the per-split column build
/// 20.6; the borrowed-document build, one allocation per cached value and
/// none per document, measures 11.1 (the rest is per split and per
/// column: files, footers, statistics). The ceiling is that plus 10 %.
const CACHE_BUILD_ALLOCS_PER_ROW_CEILING: f64 = 12.2;

/// The write side of the same property: building the cache must not pay
/// per-document scratch or per-row containers. Called from the one test
/// above, like the cell before it, because the counter is process-wide.
fn assert_cache_build_allocations_per_row() {
    use maxson::mpjp::MpjpCandidate;
    use maxson::{score_candidates, JsonPathCacher};
    use maxson_datagen::tables::{load_workload_tables, WorkloadConfig};
    use maxson_storage::Catalog;

    const ROWS_PER_TABLE: usize = 400;
    let root = temp_root("cachebuild");
    let mut catalog = Catalog::open(&root).unwrap();
    let config = WorkloadConfig {
        rows_per_table: ROWS_PER_TABLE,
        files_per_table: 4,
        ..Default::default()
    };
    let queries = load_workload_tables(&mut catalog, &config).unwrap();
    let locations = |q: &maxson_datagen::tables::QuerySpec| -> Vec<JsonPathLocation> {
        q.paths
            .iter()
            .map(|p| JsonPathLocation::new(q.database.clone(), q.table.clone(), "payload", p))
            .collect()
    };
    let candidates: Vec<MpjpCandidate> = queries
        .iter()
        .flat_map(locations)
        .map(|location| MpjpCandidate {
            location,
            target_day: 1,
        })
        .collect();
    let history: Vec<QueryRecord> = queries
        .iter()
        .map(|q| QueryRecord {
            query_id: 0,
            user_id: 0,
            day: 0,
            hour: 9,
            recurrence: RecurrenceClass::Daily,
            paths: locations(q),
        })
        .collect();
    let ranked = score_candidates(&catalog, &candidates, &history).unwrap();
    let cacher = JsonPathCacher::new(u64::MAX);
    // Warm up footers and per-thread scratch, as a standing process has.
    cacher.populate(&mut catalog, &ranked, 5).unwrap();

    let before = allocation_count();
    let (registry, _) = cacher.populate(&mut catalog, &ranked, 6).unwrap();
    let allocs = allocation_count() - before;
    assert_eq!(registry.len(), candidates.len(), "every path cached");
    let per_row = allocs as f64 / (ROWS_PER_TABLE * queries.len()) as f64;
    eprintln!(
        "alloc_regression: cache build {per_row:.2} allocs/cached row ({allocs} total, {} paths)",
        candidates.len()
    );
    assert!(
        per_row <= CACHE_BUILD_ALLOCS_PER_ROW_CEILING,
        "cache build allocations per cached row regressed: {per_row:.2} \
         (ceiling {CACHE_BUILD_ALLOCS_PER_ROW_CEILING})"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Whole-execution allocations per scanned row of `sql` on a warmed-up
/// serial session, which reads the cache and parses `expect_docs`
/// documents.
fn allocs_per_row(session: &Session, sql: &str, expect_rows: usize, expect_docs: u64) -> f64 {
    assert_eq!(session.execute(sql).unwrap().rows.len(), expect_rows);
    let before = allocation_count();
    let result = session.execute(sql).unwrap();
    let allocs = allocation_count() - before;
    assert_eq!(result.rows.len(), expect_rows);
    assert_eq!(result.metrics.rows_scanned, ROWS as u64);
    assert_eq!(result.metrics.docs_parsed, expect_docs);
    assert!(result.metrics.cache_hits > 0);
    allocs as f64 / ROWS as f64
}

/// The Maxson-rewritten path hands the pipeline stitched column chunks, so
/// it must meet the plain path's ceiling: a combiner that builds a row per
/// scanned row costs more than one allocation per row before the filter
/// even runs. Called from the one test above — the allocation counter is
/// process-wide, so a second `#[test]` running beside it would be counted.
fn assert_maxson_rewritten_allocations_per_row(session: &mut Session, root: &PathBuf) {
    cache_paths(session, root, &["$.group", "$.name"]);

    // Raw + cache stitch, the plain test's shape and selectivity.
    let stitched = allocs_per_row(
        session,
        &format!(
            "select id, get_json_object(payload, '$.name') as name from db.t where id >= {KEEP_FROM}"
        ),
        (ROWS - KEEP_FROM) as usize,
        0,
    );
    // Cache-only, filtering on a cached path (one row in eight survives).
    let cache_only = allocs_per_row(
        session,
        "select get_json_object(payload, '$.name') as name from db.t \
         where get_json_object(payload, '$.group') = 7",
        (ROWS / 8) as usize,
        0,
    );
    // The stitch statement S2's shape: a cached sort key, an uncached path
    // parsed for the rows the limit keeps.
    let top_n = allocs_per_row(
        session,
        "select id, get_json_object(payload, '$.name') as name, \
         get_json_object(payload, '$.weight') as weight from db.t \
         order by get_json_object(payload, '$.group') desc limit 50",
        50,
        50,
    );
    eprintln!(
        "alloc_regression: maxson raw+cache {stitched:.4} allocs/row, cache-only {cache_only:.4} \
         allocs/row, top-N stitch {top_n:.4} allocs/row"
    );
    for (shape, per_row) in [("raw+cache", stitched), ("cache-only", cache_only)] {
        assert!(
            per_row <= ENGINE_ALLOCS_PER_ROW_CEILING,
            "maxson {shape} allocations per row above the plain path's ceiling: \
             {per_row:.3} (ceiling {ENGINE_ALLOCS_PER_ROW_CEILING})"
        );
    }
    assert!(
        top_n <= TOP_N_STITCH_ALLOCS_PER_ROW_CEILING,
        "top-N stitch allocations per row regressed: {top_n:.3} \
         (ceiling {TOP_N_STITCH_ALLOCS_PER_ROW_CEILING})"
    );
}

/// Ceiling for the top-N stitch in allocations per scanned row: a
/// projected row per row, and a document parse for the fifty kept rows
/// only (measured 2.2 with a key vector per row, 1.2 with every row's keys
/// in one list). Parsing every row before the sort measured 13.1.
const TOP_N_STITCH_ALLOCS_PER_ROW_CEILING: f64 = 4.0;

/// Run one midnight cycle that caches `paths` of `db.t.payload`: two daily
/// users of each make them multi-parsed JSONPaths.
fn cache_paths(session: &mut Session, root: &PathBuf, paths: &[&str]) {
    let history: Vec<QueryRecord> = (0..20u32)
        .map(|i| QueryRecord {
            query_id: u64::from(i),
            user_id: i % 2,
            day: i / 2,
            hour: 9,
            recurrence: RecurrenceClass::Daily,
            paths: paths
                .iter()
                .map(|p| JsonPathLocation::new("db", "t", "payload", *p))
                .collect(),
        })
        .collect();
    let mut pipeline = MaxsonPipeline::new(
        root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    pipeline
        .run_midnight_cycle(session, &history, 8, 100)
        .unwrap();
}

/// Ceiling for a cache-only scan that decodes two plain-encoded columns in
/// full: two strings a row at one allocation each, plus the kept rows. The
/// two-copy decoder paid four a row.
const PLAIN_CACHE_ONLY_ALLOCS_PER_ROW_CEILING: f64 = 3.0;

/// Ceiling for the raw + cache stitch whose `id >= …` leaf selects 64 of
/// 4,096 rows before the cache column is decoded: its strings are copied
/// for the selected rows only. Decoding the column whole costs one
/// allocation a row even at one copy per string (two before that).
const PLAIN_STITCH_ALLOCS_PER_ROW_CEILING: f64 = 0.5;

/// The shape of the real cache columns: every cached value distinct, so
/// the cache table's columns are plain-encoded and each decoded value is
/// an allocation of its own. Called from the one test above, like the
/// cells before it.
fn assert_plain_encoded_cache_allocations_per_row() {
    let root = temp_root("plaincache");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "t", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..ROWS)
            .map(|i| {
                vec![
                    Cell::Int(i),
                    Cell::from(format!(
                        r#"{{"name": "unique-name-{i}", "tag": "tag-{i}"}}"#
                    )),
                ]
            })
            .collect();
        table
            .append_file(&rows, WriteOptions::default(), 1)
            .unwrap();
    }
    session.set_threads(Some(1));
    cache_paths(&mut session, &root, &["$.name", "$.tag"]);

    let stitched = allocs_per_row(
        &session,
        &format!(
            "select id, get_json_object(payload, '$.name') as name from db.t where id >= {KEEP_FROM}"
        ),
        (ROWS - KEEP_FROM) as usize,
        0,
    );
    let cache_only = allocs_per_row(
        &session,
        "select get_json_object(payload, '$.name') as name from db.t \
         where get_json_object(payload, '$.tag') = 'tag-7'",
        1,
        0,
    );
    eprintln!(
        "alloc_regression: plain-encoded cache raw+cache {stitched:.4} allocs/row, \
         cache-only {cache_only:.4} allocs/row"
    );
    assert!(
        stitched <= PLAIN_STITCH_ALLOCS_PER_ROW_CEILING,
        "raw+cache over a plain-encoded cache column copies strings of unselected rows: \
         {stitched:.3} allocs/row (ceiling {PLAIN_STITCH_ALLOCS_PER_ROW_CEILING})"
    );
    assert!(
        cache_only <= PLAIN_CACHE_ONLY_ALLOCS_PER_ROW_CEILING,
        "cache-only scan of two plain-encoded columns pays more than one allocation a string: \
         {cache_only:.3} allocs/row (ceiling {PLAIN_CACHE_ONLY_ALLOCS_PER_ROW_CEILING})"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Files of the large-document table, rows in each, and the bytes of
/// padding in each document.
const BIG_FILES: i64 = 8;
const BIG_FILE_ROWS: i64 = 256;
const BIG_DOC_PAD: usize = 2048;

/// The most of the large-document table's document bytes a top-N over it
/// may hold at once. A scan holds one file's documents (an eighth) while it
/// projects them; keeping every document until the sort holds them all.
const TOP_N_HELD_SHARE_CEILING: f64 = 0.25;

/// A late projection passes each row's raw document through the sort so
/// the rows the `LIMIT` keeps can be parsed after it. The documents of the
/// rows it drops must die with their batch: a top-N over large documents
/// holds a fraction of the table's document bytes at peak, as the parse
/// before the sort did, however many rows qualify. Called from the one
/// test above, like the cells before it — the byte peak is process-wide.
fn assert_top_n_holds_only_kept_documents() {
    let root = temp_root("bigdocs");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let pad = "x".repeat(BIG_DOC_PAD);
    let mut doc_bytes = 0;
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "t", schema, 0).unwrap();
        for file in 0..BIG_FILES {
            let rows: Vec<Vec<Cell>> = (file * BIG_FILE_ROWS..(file + 1) * BIG_FILE_ROWS)
                .map(|i| {
                    let doc = format!(
                        r#"{{"rank": {}, "tag": "tag-{}", "note": "note-{i}", "pad": "{pad}"}}"#,
                        i * 7919 % 1000,
                        i % 5
                    );
                    doc_bytes += doc.len();
                    vec![Cell::Int(i), Cell::from(doc)]
                })
                .collect();
            table
                .append_file(&rows, WriteOptions::default(), 1)
                .unwrap();
        }
    }
    session.set_threads(Some(1));
    cache_paths(&mut session, &root, &["$.rank", "$.tag"]);

    let sql = "select id, get_json_object(payload, '$.note') as note from db.t \
               order by get_json_object(payload, '$.rank') desc limit 5";
    let warm = session.execute(sql).unwrap();
    assert_eq!(warm.rows.len(), 5);
    let base = reset_peak_bytes();
    let result = session.execute(sql).unwrap();
    let held = peak_bytes() - base;
    assert_eq!(result.rows, warm.rows);
    assert_eq!(result.metrics.docs_parsed, 5, "the late projection applies");
    let share = held as f64 / doc_bytes as f64;
    eprintln!(
        "alloc_regression: top-N over {doc_bytes} document bytes held {held} bytes at peak \
         ({share:.3} of them)"
    );
    assert!(
        share <= TOP_N_HELD_SHARE_CEILING,
        "a top-N held {held} bytes at peak, {share:.3} of the table's {doc_bytes} document \
         bytes (ceiling {TOP_N_HELD_SHARE_CEILING}): dropped rows' documents outlive their batch"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Splits of the cached top-N table, the rows it keeps, and its outputs.
const TOP_N_SPLITS: u64 = 4;
const TOP_N_KEPT: u64 = 50;
const TOP_N_OUTPUTS: u64 = 5;

/// Ceiling for Q8's shape on the rewritten path, in allocations per scanned
/// row: the sort key's value and little else, since each split decodes its
/// other cached columns at the fifty rows it keeps. Decoding and building
/// every output of every row cost five allocations a row (four decoded
/// strings and the row).
const CACHED_TOP_N_ALLOCS_PER_ROW_CEILING: f64 = 2.0;

/// Table II's Q8 on the rewritten path: `id` and four cached paths, ordered
/// by one of them, `LIMIT 50`, over four splits of unique values. Each split
/// builds the sort key for every row and every other output for the rows
/// it keeps alone, so no more than `rows + splits · n · (outputs − 1)`
/// cells are materialized. Called from the one test above, like the cells
/// before it.
fn assert_cached_top_n_decodes_only_kept_rows() {
    let root = temp_root("cachedtopn");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let split_rows = ROWS / TOP_N_SPLITS as i64;
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "t", schema, 0).unwrap();
        for split in 0..TOP_N_SPLITS as i64 {
            let rows: Vec<Vec<Cell>> = (split * split_rows..(split + 1) * split_rows)
                .map(|i| {
                    let doc = format!(
                        r#"{{"rank": {}, "a": "a-{i}", "b": "b-{i}", "c": "c-{i}"}}"#,
                        i * 7919 % 1000
                    );
                    vec![Cell::Int(i), Cell::from(doc)]
                })
                .collect();
            table
                .append_file(&rows, WriteOptions::default(), 1)
                .unwrap();
        }
    }
    session.set_threads(Some(1));
    cache_paths(&mut session, &root, &["$.rank", "$.a", "$.b", "$.c"]);

    let sql = "select id, get_json_object(payload, '$.a') as a, \
               get_json_object(payload, '$.b') as b, get_json_object(payload, '$.c') as c, \
               get_json_object(payload, '$.rank') as r from db.t order by r desc limit 50";
    let per_row = allocs_per_row(&session, sql, TOP_N_KEPT as usize, 0);
    let result = session.execute(sql).unwrap();
    let cells = result.metrics.cells_materialized;
    let ceiling = ROWS as u64 + TOP_N_SPLITS * TOP_N_KEPT * (TOP_N_OUTPUTS - 1);
    eprintln!(
        "alloc_regression: cached top-N {per_row:.4} allocs/row, {cells} cells materialized \
         (ceiling {ceiling})"
    );
    assert!(
        cells <= ceiling,
        "a cached top-N materialized {cells} cells, more than the {ceiling} of its sort key's \
         rows and the kept rows' other outputs: dropped rows are decoded"
    );
    assert!(
        per_row <= CACHED_TOP_N_ALLOCS_PER_ROW_CEILING,
        "cached top-N allocations per row regressed: {per_row:.3} \
         (ceiling {CACHED_TOP_N_ALLOCS_PER_ROW_CEILING})"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Rows of the high-cardinality `GROUP BY` table, one group each.
const GROUP_ROWS: i64 = 4096;

/// Ceiling for a `GROUP BY` over unique keys with `SUM` and `COUNT`, in
/// allocations per input row: the evaluated key, the group's states, the
/// `SUM` addend list and the output row. Measured 7.05 when each group
/// cloned its key for the group map and again for the first-seen order
/// list, and grew the key into its output row; 4.05 with the evaluated key
/// owned by the group index alone, sized for the output row; 3.06 once the
/// projection above builds its rows in the aggregate's row vectors.
const UNIQUE_GROUP_BY_ALLOCS_PER_ROW_CEILING: f64 = 5.5;

/// Ceiling for what a HAVING stage that keeps all [`GROUP_ROWS`] groups
/// adds to the statement without it, in allocations: its plan, columns and
/// scratch row, and the doubling of its output vectors — 63 measured, not
/// one a row.
const HAVING_STAGE_ALLOCS_CEILING: u64 = 128;

/// A group-by whose every row opens a group pays its per-group costs once
/// a row. Called from the one test above, like the cells before it.
fn assert_unique_group_by_allocations_per_row() {
    let root = temp_root("groupby");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("v", ColumnType::Int64),
    ])
    .unwrap();
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "g", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..GROUP_ROWS)
            .map(|i| vec![Cell::Int(i), Cell::Int(i % 7)])
            .collect();
        table
            .append_file(&rows, WriteOptions::default(), 1)
            .unwrap();
    }
    session.set_threads(Some(1));
    let sql = "select id, sum(v) as s, count(*) as n from db.g group by id";
    assert_eq!(
        session.execute(sql).unwrap().rows.len(),
        GROUP_ROWS as usize
    );
    let before = allocation_count();
    let result = session.execute(sql).unwrap();
    let allocs = allocation_count() - before;
    assert_eq!(result.rows.len(), GROUP_ROWS as usize);
    let per_row = allocs as f64 / GROUP_ROWS as f64;
    eprintln!("alloc_regression: unique-key group-by {per_row:.4} allocs/row ({allocs} total)");
    assert!(
        per_row <= UNIQUE_GROUP_BY_ALLOCS_PER_ROW_CEILING,
        "unique-key group-by allocations per row regressed: {per_row:.3} \
         (ceiling {UNIQUE_GROUP_BY_ALLOCS_PER_ROW_CEILING})"
    );
    // A HAVING that keeps every group is a stage of its own over the
    // aggregate's rows: it moves their cells into columns and builds each
    // kept row in a row vector its input gave up, so it allocates per
    // column, never per row.
    let having = format!("{sql} having count(*) > 0");
    assert_eq!(
        session.execute(&having).unwrap().rows.len(),
        GROUP_ROWS as usize
    );
    let before = allocation_count();
    let result = session.execute(&having).unwrap();
    let with_having = allocation_count() - before;
    assert_eq!(result.rows.len(), GROUP_ROWS as usize);
    eprintln!("alloc_regression: the HAVING stage {with_having} - {allocs} allocations");
    assert!(
        with_having <= allocs + HAVING_STAGE_ALLOCS_CEILING,
        "a HAVING stage allocated {} more than the statement without it \
         (ceiling {HAVING_STAGE_ALLOCS_CEILING}; one a row would be {GROUP_ROWS})",
        with_having.saturating_sub(allocs)
    );
    std::fs::remove_dir_all(&root).ok();
}

/// `select id, tag from db.s where id >= {from}`: one statement shape
/// whose result size the literal alone sets.
fn served(from: i64) -> String {
    format!("select id, tag from db.s where id >= {from}")
}

/// A reuse hit through `Session::execute_shared` is a refcount bump: it
/// allocates the same number of blocks for 8 rows as for 512 (planning
/// and bookkeeping only), where the owned `execute` copies every row out
/// of the cache. With reuse off, `execute` hands over the executor's rows
/// as they are: it allocates exactly what `execute_shared` does. Called
/// from the one test above, like the cells before it.
fn assert_served_results_are_not_copied() {
    let root = temp_root("shared");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("tag", ColumnType::Utf8),
    ])
    .unwrap();
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "s", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..ROWS)
            .map(|i| vec![Cell::Int(i), Cell::from(format!("tag-{i}"))])
            .collect();
        table
            .append_file(&rows, WriteOptions::default(), 1)
            .unwrap();
    }
    session.set_threads(Some(1));

    // Reuse off: the owned result is the executor's, unwrapped for free.
    let all = served(0);
    session.execute(&all).unwrap();
    let before = allocation_count();
    let shared = session.execute_shared(&all).unwrap();
    let shared_allocs = allocation_count() - before;
    drop(shared);
    let before = allocation_count();
    let owned = session.execute(&all).unwrap();
    let owned_allocs = allocation_count() - before;
    assert_eq!(owned.rows.len(), ROWS as usize);
    assert_eq!(
        owned_allocs, shared_allocs,
        "with reuse off, execute must not copy the rows it returns"
    );

    // Reuse on: both statements are filled, then served as hits.
    session.set_result_cache(Some(16));
    let hit_allocs = |rows: i64| {
        let sql = served(ROWS - rows);
        assert_eq!(session.execute_shared(&sql).unwrap().metrics.reuse_fills, 1);
        session.execute_shared(&sql).unwrap();
        let before = allocation_count();
        let hit = session.execute_shared(&sql).unwrap();
        let shared = allocation_count() - before;
        assert_eq!(hit.metrics.reuse_hits, 1);
        assert_eq!(hit.rows.len(), rows as usize);
        let before = allocation_count();
        let owned = session.execute(&sql).unwrap();
        let copied = allocation_count() - before;
        assert_eq!(owned.rows, *hit.rows);
        (shared, copied)
    };
    let (small, small_copied) = hit_allocs(8);
    let (large, large_copied) = hit_allocs(512);
    eprintln!(
        "alloc_regression: reuse hit, shared {small} allocs (8 rows) / {large} (512 rows); \
         owned {small_copied} / {large_copied}"
    );
    assert_eq!(
        small, large,
        "a shared hit must allocate a fixed number of blocks, whatever the result size"
    );
    assert!(
        large_copied >= large + 512,
        "the owned hit copies a row vector a row: {large_copied} vs shared {large}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The client decodes a string cell into its `Arc<str>` straight from the
/// frame: one allocation each, none for the other cells. Called from the
/// one test above, like the cells before it.
fn assert_wire_string_cells_allocate_once() {
    use maxson_server::wire::{Reader, Writer};

    let cells: Vec<Cell> = (0..256)
        .map(|i| match i % 4 {
            0 => Cell::from(format!("value-{i}-é")),
            1 => Cell::Int(i),
            2 => Cell::Null,
            _ => Cell::from(""),
        })
        .collect();
    let mut w = Writer::new();
    for cell in &cells {
        w.cell(cell);
    }
    let payload = w.into_bytes();
    let strings = cells.iter().filter(|c| matches!(c, Cell::Str(_))).count() as u64;
    let mut decoded = Vec::with_capacity(cells.len());
    let mut r = Reader::new(&payload);
    let before = allocation_count();
    for _ in 0..cells.len() {
        decoded.push(r.cell().unwrap());
    }
    let allocs = allocation_count() - before;
    assert_eq!(decoded, cells);
    assert_eq!(
        allocs, strings,
        "Reader::cell must allocate exactly once per string cell"
    );
}
