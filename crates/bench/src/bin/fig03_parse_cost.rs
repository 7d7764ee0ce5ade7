//! Fig. 3 — Parsing vs. query-processing cost in three common query types.
//!
//! The paper runs three NoBench queries on SparkSQL and finds that JSON
//! parsing takes ≥80% of execution time for a simple SELECT (Q1), a
//! COUNT + GROUP BY (Q2), and a self-equijoin (Q3). We reproduce the
//! breakdown on our engine over NoBench-like data.

use maxson_bench::{Report, Series};
use maxson_datagen::NobenchGenerator;
use maxson_engine::session::Session;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};

fn main() {
    let root = std::env::temp_dir().join(format!("maxson-fig03-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut session = Session::open(&root).expect("open session");

    // Load NoBench-like data.
    let rows_n: u64 = std::env::var("MAXSON_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000);
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("doc", ColumnType::Utf8),
    ])
    .expect("schema");
    let mut catalog = session.catalog_mut();
    let table = catalog
        .create_table("nobench", "docs", schema, 0)
        .expect("create table");
    let mut generator = NobenchGenerator::new(99);
    let rows: Vec<Vec<Cell>> = (0..rows_n)
        .map(|i| vec![Cell::Int(i as i64), Cell::from(generator.record_text(i))])
        .collect();
    table
        .append_file(
            &rows,
            WriteOptions {
                row_group_size: 500,
                ..Default::default()
            },
            1,
        )
        .expect("append");
    drop(catalog);

    let queries = [
        (
            "Q1 (select)",
            "select get_json_object(doc, '$.str1') as s, get_json_object(doc, '$.num') as n \
             from nobench.docs",
        ),
        (
            "Q2 (count+group)",
            "select get_json_object(doc, '$.str2') as grp, count(*) as n from nobench.docs \
             group by get_json_object(doc, '$.str2')",
        ),
        (
            "Q3 (self-join)",
            "select get_json_object(a.doc, '$.str1') as s1, \
             get_json_object(b.doc, '$.nested_obj.str') as s2 \
             from nobench.docs a join nobench.docs b \
             on get_json_object(a.doc, '$.str2') = get_json_object(b.doc, '$.str2') \
             where a.id < 400 and b.id < 400",
        ),
    ];

    let mut report = Report::new(
        "fig03",
        "Parsing and query processing cost (share of runtime)",
    );
    report
        .note("Paper: parsing JSON accounts for >=80% of execution time in all three query types.");
    let mut parse_series = Series::new("parse share");
    let mut read_series = Series::new("read share");
    let mut compute_series = Series::new("compute share");
    for (name, sql) in queries {
        let result = session.execute(sql).expect("query");
        let total = result.metrics.total.as_secs_f64().max(1e-12);
        // The wall gauges, so the three shares sum to one at any thread count.
        parse_series.push(name, result.metrics.parse_fraction());
        read_series.push(name, result.metrics.read_wall.as_secs_f64() / total);
        compute_series.push(name, result.metrics.compute_wall().as_secs_f64() / total);
    }
    report.add(parse_series);
    report.add(read_series);
    report.add(compute_series);
    report.emit();
    let _ = std::fs::remove_dir_all(&root);
}
