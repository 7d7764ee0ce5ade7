//! Algorithm 3 at row granularity, end to end: a scan's row selection drops
//! only rows the `Filter` above it would drop anyway, so a predicate
//! spelled so that it *cannot* be pushed down (`date + 0 between …` has no
//! `column op literal` leaf) and the pushable spelling both return the
//! oracle's rows — on a plain session and on a Maxson-rewritten one (where
//! the selection made on the raw file is shared with the cache reader), at
//! 1 and 4 threads. A second test pins what the selection may and may not
//! move in the work counters.

mod support;

use maxson_engine::session::Session;
use maxson_engine::ExecMetrics;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use std::path::PathBuf;
use support::cells::{assert_agrees, ConfigCell};

const FILES: i64 = 3;
const ROWS_PER_FILE: i64 = 40;

/// `db.t(id, date, score, payload)` with NULLs in both filter columns, and
/// a cache of `$.k`, `$.v` and `$.name` — `$.w` stays uncached, so a
/// statement projecting it is a raw + cache stitch. Dates cycle through
/// thirty days, so with `row_group_size` 8 some row groups miss a date
/// window (the keep-array and the row selection both act) and with one row
/// group a file none does (only the row selection acts).
fn warehouse(name: &str, row_group_size: usize) -> PathBuf {
    let root = support::temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("date", ColumnType::Int64),
        Field::new("score", ColumnType::Float64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    {
        let mut catalog = session.catalog_mut();
        let table = catalog.create_table("db", "t", schema, 0).unwrap();
        for file in 0..FILES {
            let rows: Vec<Vec<Cell>> = (file * ROWS_PER_FILE..(file + 1) * ROWS_PER_FILE)
                .map(|i| {
                    vec![
                        Cell::Int(i),
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
                        Cell::from(format!(
                            r#"{{"k": {}, "v": {i}, "name": "n{}", "w": "unique-{i}"}}"#,
                            i % 5,
                            i % 9
                        )),
                    ]
                })
                .collect();
            support::append(table, &rows, row_group_size);
        }
    }
    let cached = ["$.k", "$.v", "$.name"].map(|p| ("db", "t", p));
    support::cache_paths(&mut session, &root, &cached);
    root
}

fn session(root: &PathBuf, rewritten: bool, threads: usize) -> Session {
    let mut session = if rewritten {
        support::rewritten_session(root)
    } else {
        Session::open(root).unwrap()
    };
    session.set_threads(Some(threads));
    session
}

/// `(what, predicate with leaves, the same predicate without)`; `{select}`
/// and `{from}` are filled per statement below.
const STATEMENTS: [(&str, &str, &str, &str); 5] = [
    (
        "scan + filter over cached paths",
        "select id, get_json_object(payload, '$.v') as v, get_json_object(payload, '$.name') as n from db.t",
        "date between 20190105 and 20190112",
        "date + 0 between 20190105 and 20190112",
    ),
    (
        "aliased self-join, the filter above the join (Q3)",
        "select a.id, b.id as other, get_json_object(a.payload, '$.name') as n from db.t a join db.t b \
         on get_json_object(a.payload, '$.k') = get_json_object(b.payload, '$.k')",
        "a.date = 20190103 and b.date = 20190118",
        "a.date + 0 = 20190103 and b.date + 0 = 20190118",
    ),
    (
        "raw + cache stitch with a parsed path",
        "select id, get_json_object(payload, '$.w') as w, get_json_object(payload, '$.v') as v from db.t",
        "date >= 20190120 and 20190125 > date",
        "date + 0 >= 20190120 and 20190125 > date + 0",
    ),
    (
        "float and integer leaves, <> and NULLs",
        "select id, score, get_json_object(payload, '$.k') as k from db.t",
        "score > 10.5 and date <> 20190107 and score <= 25",
        "score + 0 > 10.5 and date + 0 <> 20190107 and score + 0 <= 25",
    ),
    (
        "a JSON string equality beside a date leaf",
        "select id, date from db.t",
        "get_json_object(payload, '$.name') = 'n7' and date <= 20190110",
        "get_json_object(payload, '$.name') = 'n7' and date + 0 <= 20190110",
    ),
];

#[test]
fn pushed_down_and_evaluated_predicates_return_the_same_rows() {
    let root = warehouse("rows", 8);
    let cells: Vec<ConfigCell> = [(false, 1), (false, 4), (true, 1), (true, 4)]
        .into_iter()
        .map(|(rewritten, threads)| ConfigCell {
            threads,
            rewritten,
            ..ConfigCell::default()
        })
        .collect();
    let oracle = support::oracle::Oracle::new(&root);
    for (what, select, pushed, evaluated) in STATEMENTS {
        let sqls = [pushed, evaluated].map(|p| format!("{select} where {p}"));
        assert!(
            !oracle.answer(&sqls[0]).unwrap().rows.is_empty(),
            "{what}: the predicate keeps some rows"
        );
        assert_agrees(&root, &sqls.each_ref().map(String::as_str), &cells);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// On a scan + filter shape whose keep-array keeps every row group, the two
/// spellings differ in the row selection alone. It may not move what the
/// scan is charged for — rows of the kept row groups, cache hits, and one
/// `batch_rows_skipped` per dropped row, whoever drops it — and it must
/// lower what the dropped rows no longer cost: bytes decoded for them and
/// predicate cells built for them.
#[test]
fn row_selection_moves_only_bytes_read_and_cells_materialized() {
    let root = warehouse("counters", 64);
    let select = "select id, get_json_object(payload, '$.v') as v, \
                  get_json_object(payload, '$.name') as n from db.t";
    let run = |session: &Session, predicate: &str| -> ExecMetrics {
        let result = session
            .execute(&format!("{select} where {predicate}"))
            .unwrap();
        assert_eq!(result.rows.len(), 28, "`{predicate}`");
        result.metrics
    };
    for rewritten in [false, true] {
        for threads in [1, 4] {
            let session = session(&root, rewritten, threads);
            let pushed = run(&session, "date between 20190105 and 20190112");
            let evaluated = run(&session, "date + 0 between 20190105 and 20190112");
            let at = format!("rewritten={rewritten} threads={threads}");
            let total = (FILES * ROWS_PER_FILE) as u64;
            assert_eq!(pushed.rows_scanned, total, "{at}");
            assert_eq!(pushed.batch_rows_skipped, total - 28, "{at}");
            for ((label, a), (_, b)) in pushed
                .work_counters()
                .into_iter()
                .zip(evaluated.work_counters())
            {
                match label {
                    "bytes_read" | "cells_materialized" => {
                        assert!(a < b, "{at}: {label} {a} is not below {b}")
                    }
                    _ => assert_eq!(a, b, "{at}: {label} moved"),
                }
            }
            if rewritten {
                assert_eq!(pushed.cache_hits, 2 * total, "{at}");
                assert_eq!(pushed.parse_calls, 0, "{at}");
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
