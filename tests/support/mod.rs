//! Scaffolding the integration tests share: where the committed warehouse
//! lives, temporary directories, the NoBench and Table II warehouses, the
//! golden statements, and the reference oracle ([`oracle`]) with its random
//! SQL generator ([`sqlgen`]) and the configuration cells the engine is
//! compared with it in ([`cells`]).
//!
//! Each test binary compiles this module on its own and uses a different
//! part of it.
#![allow(dead_code)]

pub mod cells;
pub mod oracle;
pub mod sqlgen;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use maxson::mpjp::PredictorKind;
use maxson::rewriter::MaxsonScanRewriter;
use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_datagen::tables::{load_workload_tables, schema_paths, table_specs, WorkloadConfig};
use maxson_datagen::NobenchGenerator;
use maxson_engine::session::Session;
use maxson_engine::QueryResult;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};

/// The committed Table II warehouse: five raw tables (`mydb.q1`, `q2`,
/// `q5`, `q7`, `q8`) and a cache table for every query's paths.
pub fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

/// A fresh, not yet existing path under the system temp directory,
/// unique per process and call.
pub fn temp_root(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("maxson-test-{}-{n}-{name}", std::process::id()))
}

/// A session over `root` with the Maxson rewriter installed from the cache
/// registry on disk.
pub fn rewritten_session(root: &Path) -> Session {
    install_rewriter(Session::open(root).unwrap())
}

/// `session` with the Maxson rewriter installed from the cache registry on
/// disk, reading through the session's footer cache.
pub fn install_rewriter(mut session: Session) -> Session {
    let rewriter = MaxsonScanRewriter::open(&session).unwrap();
    session.set_scan_rewriter(Some(Box::new(rewriter)));
    session
}

/// The golden rewriter statements over the committed warehouse: fully
/// cached, stitched, pushed down to the cache, and uncached-only.
pub const GOLDEN_QUERIES: [&str; 4] = [
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f10') as f10 from mydb.q2",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select get_json_object(payload, '$.f12') as f12 from mydb.q2",
];

/// Append `rows` to `table` as one part file.
pub fn append(table: &mut maxson_storage::Table, rows: &[Vec<Cell>], row_group_size: usize) {
    let options = WriteOptions {
        row_group_size,
        ..Default::default()
    };
    table.append_file(rows, options, 1).unwrap();
}

/// Create `db.name(id, payload)` under `session` and fill it with one part
/// file per element of `files`, `(id, document)` rows each.
pub fn json_table(
    session: &mut Session,
    db: &str,
    name: &str,
    files: &[Vec<(i64, String)>],
    row_group_size: usize,
) {
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table(db, name, schema, 0).unwrap();
    for file in files {
        let rows: Vec<Vec<Cell>> = file
            .iter()
            .map(|(id, doc)| vec![Cell::Int(*id), Cell::from(doc.as_str())])
            .collect();
        append(table, &rows, row_group_size);
    }
}

/// `nb.docs(id, payload)`: `rows` seeded NoBench documents over `files`
/// splits, 16 rows per row group.
pub fn nobench_table(name: &str, rows: u64, files: u64) -> PathBuf {
    let root = temp_root(name);
    add_nobench(&mut Session::open(&root).unwrap(), rows, files);
    root
}

fn add_nobench(session: &mut Session, rows: u64, files: u64) {
    let mut generator = NobenchGenerator::new(42);
    let per_file = rows / files;
    let parts: Vec<Vec<(i64, String)>> = (0..files)
        .map(|f| {
            (f * per_file..(f + 1) * per_file)
                .map(|i| (i as i64, generator.record_text(i)))
                .collect()
        })
        .collect();
    json_table(session, "nb", "docs", &parts, 16);
}

/// Statements over `nb.docs`: projections of flat and nested paths, JSON
/// and raw predicates, global and grouped aggregates, HAVING, a sort on a
/// JSON key, and a self-join filtered above the join.
pub const NOBENCH_QUERIES: [&str; 10] = [
    "select get_json_object(payload, '$.str1') as s1, \
     get_json_object(payload, '$.nested_obj.num') as nn from nb.docs",
    "select id, get_json_object(payload, '$.num') as num from nb.docs \
     where get_json_object(payload, '$.bool') = 'true' and id < 200",
    "select count(*), sum(get_json_object(payload, '$.num')), \
     avg(get_json_object(payload, '$.num')) from nb.docs",
    "select get_json_object(payload, '$.str2') as grp, count(*), \
     max(get_json_object(payload, '$.num')) from nb.docs \
     group by get_json_object(payload, '$.str2')",
    "select id from nb.docs order by id desc limit 7",
    "select get_json_object(payload, '$.str1') as s1, \
     get_json_object(payload, '$.num') as num, \
     get_json_object(payload, '$.nested_obj.str') as ns from nb.docs \
     where get_json_object(payload, '$.bool') = 'true'",
    "select get_json_object(payload, '$.num') as num from nb.docs \
     where get_json_object(payload, '$.num') > 100",
    "select id from nb.docs order by get_json_object(payload, '$.num') limit 9",
    "select get_json_object(payload, '$.str2') as grp, count(*) as n from nb.docs \
     group by get_json_object(payload, '$.str2') having count(*) > 1",
    "select a.id, get_json_object(b.payload, '$.num') as num \
     from nb.docs a join nb.docs b on a.id = b.id \
     where get_json_object(a.payload, '$.bool') = 'true'",
];

/// `db.mixed(id, date, score, tag, payload)`: NULLs in every column, a
/// string column holding numbers, empty strings and words, and documents
/// whose `$.k` is a number, a string, a boolean, JSON null, an array or
/// missing, and whose `$.t` is a string that sorts as a number (padded,
/// `NaN`, `inf`, `-0`, an exponent) or as text, JSON null or missing —
/// plus malformed and NULL documents. Three splits.
fn add_mixed(session: &mut Session) {
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("date", ColumnType::Int64),
        Field::new("score", ColumnType::Float64),
        Field::new("tag", ColumnType::Utf8),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let tags = ["red", "12", "", "Red", "7.5", "blue"];
    let sorts = [
        "12", " 12", "NaN", "inf", "-0", "0", "abc", "7.5", "-inf", "Red", "1e3", "12.0", "",
    ];
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "mixed", schema, 0).unwrap();
    for file in 0..3i64 {
        let rows: Vec<Vec<Cell>> = (file * 30..(file + 1) * 30)
            .map(|i| {
                let k = match i % 7 {
                    0 => format!("{}", i % 11),
                    1 => format!("\"{}\"", i % 5),
                    2 => "true".to_string(),
                    3 => "null".to_string(),
                    4 => format!("[{}, \"x\"]", i % 3),
                    5 => format!("{}.25", i % 4),
                    _ => "\"word\"".to_string(),
                };
                let t = match i % 15 {
                    14 => "null".to_string(),
                    n => format!("\"{}\"", sorts[n as usize % sorts.len()]),
                };
                let payload = match i % 13 {
                    5 => Cell::Null,
                    9 => Cell::from("{broken"),
                    11 => Cell::from(format!(r#"{{"v": {i}, "name": "n{}"}}"#, i % 4)),
                    _ => Cell::from(format!(
                        r#"{{"k": {k}, "v": {i}, "name": "n{}", "w": "w-{i}", "t": {t}, "obj": {{"a": {}, "b": "s{}"}}}}"#,
                        i % 4,
                        i % 6,
                        i % 3
                    )),
                };
                vec![
                    if i % 17 == 3 { Cell::Null } else { Cell::Int(i) },
                    if i % 7 == 2 {
                        Cell::Null
                    } else {
                        Cell::Int(20_190_101 + i % 30)
                    },
                    if i % 11 == 5 {
                        Cell::Null
                    } else {
                        Cell::Float(i as f64 / 4.0)
                    },
                    if i % 9 == 4 {
                        Cell::Null
                    } else {
                        Cell::from(tags[(i % 6) as usize])
                    },
                    payload,
                ]
            })
            .collect();
        append(table, &rows, 8);
    }
}

/// `db.t(id, payload)` over one to six splits of up to sixteen rows, from
/// `seed`: NULL ids, NULL and malformed documents, adversarial corpus
/// documents, and small `{x, y, tag}` objects that sometimes lack `y`.
pub fn random_json_table(seed: u64) -> PathBuf {
    let root = temp_root(&format!("random-{seed:x}"));
    let mut rng = maxson_testkit::Rng::seed_from_u64(seed);
    let corpus = maxson_testkit::corpus::valid_docs(seed, 16);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    for _ in 0..rng.gen_range(1..=6u32) {
        let rows: Vec<Vec<Cell>> = (0..rng.gen_range(0..=16u32))
            .map(|_| {
                let id = if rng.gen_bool(0.1) {
                    Cell::Null
                } else {
                    Cell::Int(rng.gen_range(0..=100))
                };
                let (x, y, tag) = (
                    rng.gen_range(0..=100u32),
                    rng.gen_range(0..=100u32),
                    rng.gen_range(0..=3u32),
                );
                let payload = match rng.gen_range(0..20u32) {
                    0 => Cell::Null,
                    1 => Cell::from("{broken"),
                    2..=5 => Cell::from(corpus[rng.gen_range(0..16usize)].as_str()),
                    6 => Cell::from(format!(r#"{{"x": {x}, "tag": "g{tag}"}}"#)),
                    _ => Cell::from(format!(r#"{{"x": {x}, "y": {y}, "tag": "g{tag}"}}"#)),
                };
                vec![id, payload]
            })
            .collect();
        append(table, &rows, 7);
    }
    drop(catalog);
    root
}

/// A query history in which every `(db.table, path)` of `paths` recurs
/// daily (twice a day) for ten days — enough for every predictor to cache
/// them.
pub fn daily_history(paths: &[(&str, &str, &str)]) -> Vec<QueryRecord> {
    (0..20u32)
        .map(|i| QueryRecord {
            query_id: u64::from(i),
            user_id: i % 2,
            day: i / 2,
            hour: 9,
            recurrence: RecurrenceClass::Daily,
            paths: paths
                .iter()
                .map(|(db, table, path)| JsonPathLocation::new(*db, *table, "payload", *path))
                .collect(),
        })
        .collect()
}

/// Run one midnight cycle over `root` that caches exactly `paths`.
pub fn cache_paths(session: &mut Session, root: &Path, paths: &[(&str, &str, &str)]) {
    let history = daily_history(paths);
    let mut pipeline = MaxsonPipeline::new(
        root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let report = pipeline
        .run_midnight_cycle(session, &history, 8, 100)
        .unwrap();
    assert_eq!(report.cache.cached.len(), paths.len(), "{:?}", report.cache);
}

/// A temporary warehouse holding `nb.docs` (240 NoBench rows over four
/// splits) and `db.mixed`, with `$.str1`, `$.num`, `$.str2` and `$.k`,
/// `$.v`, `$.name`, `$.t` cached — every other path of theirs stitches from
/// raw.
pub fn generated_warehouse(name: &str) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    add_nobench(&mut session, 240, 4);
    add_mixed(&mut session);
    cache_paths(
        &mut session,
        &root,
        &[
            ("nb", "docs", "$.str1"),
            ("nb", "docs", "$.num"),
            ("nb", "docs", "$.str2"),
            ("db", "mixed", "$.k"),
            ("db", "mixed", "$.v"),
            ("db", "mixed", "$.name"),
            ("db", "mixed", "$.t"),
        ],
    );
    root
}

/// A temporary Table II warehouse (all ten tables, `rows` rows each over two
/// splits) after a midnight cycle that cached every path Q1–Q10 extract,
/// and the statement list T2x over it as `(name, sql)`: Q1–Q10 plus the
/// stitch statements S1 (Q5-shaped) and S2 (Q8-shaped), each projecting one
/// more path that the cache does not hold.
pub fn t2x_warehouse(name: &str, rows: usize) -> (PathBuf, Vec<(String, String)>) {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let queries = {
        let mut catalog = session.catalog_mut();
        let config = WorkloadConfig {
            rows_per_table: rows,
            row_group_size: 16,
            ..Default::default()
        };
        load_workload_tables(&mut catalog, &config).unwrap()
    };
    let cached: Vec<(&str, &str, &str)> = queries
        .iter()
        .flat_map(|q| {
            q.paths
                .iter()
                .map(|p| ("mydb", q.table.as_str(), p.as_str()))
        })
        .collect();
    cache_paths(&mut session, &root, &cached);
    let mut stmts: Vec<(String, String)> = queries
        .iter()
        .map(|q| (q.name.clone(), q.sql.clone()))
        .collect();
    for (base, name) in [(4, "S1"), (7, "S2")] {
        let q = &queries[base];
        let spec = table_specs()
            .into_iter()
            .find(|s| s.name == q.table)
            .unwrap();
        let unseen = schema_paths(&spec)
            .into_iter()
            .find(|p| !q.paths.contains(p))
            .unwrap();
        let projected = format!(", get_json_object(payload, '{unseen}') as cx from ");
        stmts.push((name.to_string(), q.sql.replacen(" from ", &projected, 1)));
    }
    (root, stmts)
}

/// Run `explain analyze <sql>` and normalize what may differ between runs
/// of one plan: `wall=` tokens, the warehouse path inside provider labels,
/// and the structural-kernel attributes (`simd=`, `bitmap_*=`) only the
/// bitmap-building parsers emit.
pub fn normalized_tree(session: &Session, sql: &str, root: &Path) -> String {
    let result: QueryResult = session
        .execute(&format!("explain analyze {sql}"))
        .unwrap_or_else(|e| panic!("explain analyze failed for {sql}: {e}"));
    assert_eq!(result.columns, vec!["explain analyze".to_string()]);
    let text = result
        .rows
        .iter()
        .map(|r| match &r[0] {
            Cell::Str(s) => s.to_string(),
            other => panic!("explain analyze rows must be strings: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
        .replace(&root.display().to_string(), "<root>");
    text.lines()
        .map(|line| {
            line.split(' ')
                .filter(|tok| !tok.starts_with("simd=") && !tok.starts_with("bitmap_"))
                .map(|tok| {
                    if tok.starts_with("wall=") {
                        "wall=_"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}
