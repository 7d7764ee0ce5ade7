//! End-to-end engine tests: SQL in, rows out, over real Norc tables.

use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::Config;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use std::path::PathBuf;

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-e2e-{}-{nanos}-{name}", std::process::id()))
}

/// Build the Fig. 1 sales table: mall_id, date, sale_logs (JSON).
fn sales_session(name: &str) -> (Session, PathBuf) {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("mall_id", ColumnType::Utf8),
        Field::new("date", ColumnType::Int64),
        Field::new("sale_logs", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("mydb", "t", schema, 0).unwrap();
    let items = [
        ("apple", 10, 20, 2),
        ("watermelon", 5, 50, 10),
        ("banana", 30, 90, 3),
        ("pear", 8, 24, 3),
        ("apple", 4, 8, 2),
        ("banana", 11, 33, 3),
    ];
    let rows: Vec<Vec<Cell>> = items
        .iter()
        .enumerate()
        .map(|(i, (name, count, turnover, price))| {
            vec![
                Cell::Str("0001".into()),
                Cell::Int(20190101 + i as i64 % 3),
                Cell::from(format!(
                    r#"{{"item_id": {i}, "item_name": "{name}", "sale_count": {count}, "turnover": {turnover}, "price": {price}}}"#
                )),
            ]
        })
        .collect();
    table
        .append_file(&rows, WriteOptions::default(), 1)
        .unwrap();
    drop(catalog);
    (session, root)
}

#[test]
fn fig1_top_turnover_query() {
    let (session, root) = sales_session("fig1");
    let sql = "select mall_id, get_json_object(sale_logs, '$.item_id') as item_id, \
               get_json_object(sale_logs, '$.item_name') as item_name, \
               get_json_object(sale_logs, '$.turnover') as turnover \
               from mydb.t where date between 20190101 and 20190103 \
               order by get_json_object(sale_logs, '$.turnover') desc limit 1";
    let result = session.execute(sql).unwrap();
    assert_eq!(
        result.columns,
        vec!["mall_id", "item_id", "item_name", "turnover"]
    );
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][2], Cell::Str("banana".into()));
    assert_eq!(result.rows[0][3], Cell::Str("90".into()));
    assert!(result.metrics.parse_calls > 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn count_group_by_json_field() {
    let (session, root) = sales_session("groupby");
    let sql = "select get_json_object(sale_logs, '$.item_name') as item, count(*) as n \
               from mydb.t group by get_json_object(sale_logs, '$.item_name') \
               order by n desc, item limit 10";
    let result = session.execute(sql).unwrap();
    assert_eq!(
        result.rows[0],
        vec![Cell::Str("apple".into()), Cell::Int(2)]
    );
    assert_eq!(
        result.rows[1],
        vec![Cell::Str("banana".into()), Cell::Int(2)]
    );
    assert_eq!(result.rows.len(), 4);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn self_join_on_json_field() {
    let (session, root) = sales_session("selfjoin");
    let sql = "select a.date, b.date from mydb.t a join mydb.t b \
               on get_json_object(a.payload_missing_guard, '$.x') = get_json_object(b.sale_logs, '$.x') \
               limit 1";
    // Unknown column must be a planning error, not a panic.
    assert!(session.execute(sql).is_err());

    let sql = "select get_json_object(a.sale_logs, '$.item_name') as item \
               from mydb.t a join mydb.t b \
               on get_json_object(a.sale_logs, '$.item_name') = get_json_object(b.sale_logs, '$.item_name') \
               order by item limit 100";
    let result = session.execute(sql).unwrap();
    // apple:2 matches -> 4 pairs; banana -> 4; watermelon, pear -> 1 each.
    assert_eq!(result.rows.len(), 10);
    assert_eq!(result.rows[0][0], Cell::Str("apple".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn arithmetic_on_json_values() {
    let (session, root) = sales_session("arith");
    let sql = "select get_json_object(sale_logs, '$.item_name') as item, \
               get_json_object(sale_logs, '$.turnover') / get_json_object(sale_logs, '$.sale_count') as unit_price \
               from mydb.t where get_json_object(sale_logs, '$.item_name') = 'banana' \
               order by item limit 10";
    let result = session.execute(sql).unwrap();
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][1], Cell::Float(3.0));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sum_avg_min_max_over_json() {
    let (session, root) = sales_session("aggs");
    let sql = "select sum(get_json_object(sale_logs, '$.sale_count')) as total, \
               min(get_json_object(sale_logs, '$.price')) as cheapest, \
               max(get_json_object(sale_logs, '$.price')) as dearest, \
               avg(get_json_object(sale_logs, '$.sale_count')) as mean \
               from mydb.t";
    let result = session.execute(sql).unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][0], Cell::Float(68.0));
    assert_eq!(result.rows[0][1], Cell::Str("2".into()));
    assert_eq!(result.rows[0][2], Cell::Str("10".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sarg_pushdown_skips_row_groups_on_raw_columns() {
    let root = temp_root("sargskip");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("v", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "big", schema, 0).unwrap();
    let rows: Vec<Vec<Cell>> = (0..100)
        .map(|i| vec![Cell::Int(i), Cell::from(format!("v{i}"))])
        .collect();
    table
        .append_file(
            &rows,
            WriteOptions {
                row_group_size: 10,
                ..Default::default()
            },
            1,
        )
        .unwrap();
    drop(catalog);
    let result = session
        .execute("select id from db.big where id >= 95")
        .unwrap();
    assert_eq!(result.rows.len(), 5);
    assert_eq!(result.metrics.row_groups_skipped, 9);
    assert_eq!(result.metrics.row_groups_read, 1);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn mison_parser_produces_same_results() {
    let (_, root) = sales_session("mison");
    let sql = "select get_json_object(sale_logs, '$.item_name') as item from mydb.t order by item";
    let expected: Vec<Vec<Cell>> = ["apple", "apple", "banana", "banana", "pear", "watermelon"]
        .iter()
        .map(|item| vec![Cell::from(*item)])
        .collect();
    for parser in [
        JsonParserKind::Jackson,
        JsonParserKind::Mison,
        JsonParserKind::Tape,
    ] {
        let config = Config {
            parser,
            ..Config::from_env()
        };
        let session = Session::open_with(&root, config).unwrap();
        assert_eq!(session.execute(sql).unwrap().rows, expected, "{parser:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn projection_pruning_reads_only_needed_columns() {
    let (session, root) = sales_session("prune");
    // Query touching only `date`: the JSON column must not be read, so
    // bytes_read stays small.
    let slim = session.execute("select date from mydb.t").unwrap();
    let fat = session
        .execute("select date, sale_logs from mydb.t")
        .unwrap();
    assert!(slim.metrics.bytes_read < fat.metrics.bytes_read / 2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn wildcard_select() {
    let (session, root) = sales_session("wild");
    let result = session.execute("select * from mydb.t limit 2").unwrap();
    assert_eq!(result.columns, vec!["mall_id", "date", "sale_logs"]);
    assert_eq!(result.rows.len(), 2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn order_by_non_projected_expression() {
    let (session, root) = sales_session("hidden");
    let result = session
        .execute(
            "select get_json_object(sale_logs, '$.item_name') as item from mydb.t \
             order by get_json_object(sale_logs, '$.turnover') desc limit 2",
        )
        .unwrap();
    assert_eq!(result.columns, vec!["item"]);
    assert_eq!(result.rows[0][0], Cell::Str("banana".into()));
    assert_eq!(result.rows[1][0], Cell::Str("watermelon".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn missing_json_path_yields_null() {
    let (session, root) = sales_session("nullpath");
    let result = session
        .execute("select get_json_object(sale_logs, '$.nonexistent') as v from mydb.t limit 3")
        .unwrap();
    assert!(result.rows.iter().all(|r| r[0].is_null()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metrics_parse_fraction_dominates_for_json_heavy_query() {
    let (session, root) = sales_session("fraction");
    let sql = "select get_json_object(sale_logs, '$.item_id') as a, \
               get_json_object(sale_logs, '$.item_name') as b, \
               get_json_object(sale_logs, '$.sale_count') as c, \
               get_json_object(sale_logs, '$.turnover') as d, \
               get_json_object(sale_logs, '$.price') as e from mydb.t";
    let result = session.execute(sql).unwrap();
    assert_eq!(result.metrics.parse_calls, 6 * 5);
    assert!(result.metrics.parse > std::time::Duration::ZERO);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn plan_display_shows_tree() {
    let (session, root) = sales_session("display");
    let result = session
        .execute("select date from mydb.t where date = 20190101 limit 1")
        .unwrap();
    assert!(result.plan_display.contains("Limit"));
    assert!(result.plan_display.contains("Scan"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn distinct_deduplicates_rows() {
    let (session, root) = sales_session("distinct");
    let result = session
        .execute("select distinct get_json_object(sale_logs, '$.item_name') as item from mydb.t order by item")
        .unwrap();
    assert_eq!(result.rows.len(), 4);
    assert_eq!(result.rows[0][0], Cell::Str("apple".into()));
    // Without DISTINCT there are 6 rows.
    let plain = session
        .execute("select get_json_object(sale_logs, '$.item_name') as item from mydb.t")
        .unwrap();
    assert_eq!(plain.rows.len(), 6);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn having_filters_groups() {
    let (session, root) = sales_session("having");
    let result = session
        .execute(
            "select get_json_object(sale_logs, '$.item_name') as item, count(*) as n \
             from mydb.t group by get_json_object(sale_logs, '$.item_name') \
             having count(*) >= 2 order by item",
        )
        .unwrap();
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][0], Cell::Str("apple".into()));
    assert_eq!(result.rows[1][0], Cell::Str("banana".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn having_without_group_by_is_an_error() {
    let (session, root) = sales_session("having-err");
    assert!(session
        .execute("select date from mydb.t having count(*) > 1")
        .is_err());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn in_list_and_not_in() {
    let (session, root) = sales_session("inlist");
    let result = session
        .execute(
            "select date from mydb.t \
             where get_json_object(sale_logs, '$.item_name') in ('apple', 'pear')",
        )
        .unwrap();
    assert_eq!(result.rows.len(), 3);
    let result = session
        .execute(
            "select date from mydb.t \
             where get_json_object(sale_logs, '$.item_name') not in ('apple', 'pear')",
        )
        .unwrap();
    assert_eq!(result.rows.len(), 3); // watermelon + 2 bananas
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn like_patterns() {
    let (session, root) = sales_session("like");
    let result = session
        .execute(
            "select distinct get_json_object(sale_logs, '$.item_name') as item \
             from mydb.t where get_json_object(sale_logs, '$.item_name') like '%an%' \
             order by item",
        )
        .unwrap();
    // banana, watermelon... 'an': banana yes, watermelon no ('an' not in it),
    // pear no, apple no.
    assert_eq!(result.rows, vec![vec![Cell::Str("banana".into())]]);
    let result = session
        .execute(
            "select distinct get_json_object(sale_logs, '$.item_name') as item \
             from mydb.t where get_json_object(sale_logs, '$.item_name') like '_ear'",
        )
        .unwrap();
    assert_eq!(result.rows, vec![vec![Cell::Str("pear".into())]]);
    let result = session
        .execute(
            "select distinct get_json_object(sale_logs, '$.item_name') as item \
             from mydb.t where get_json_object(sale_logs, '$.item_name') not like '%a%' \
             order by item",
        )
        .unwrap();
    assert_eq!(result.rows.len(), 0, "all four items contain 'a'");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn count_distinct() {
    let (session, root) = sales_session("countdistinct");
    let result = session
        .execute(
            "select count(distinct get_json_object(sale_logs, '$.item_name')) as items, \
             count(*) as total from mydb.t",
        )
        .unwrap();
    assert_eq!(result.rows[0], vec![Cell::Int(4), Cell::Int(6)]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn having_with_cached_paths_still_works() {
    // HAVING must survive the Maxson rewrite path too (the HAVING
    // expression contributes JSON calls to the scan analysis).
    let (session, root) = sales_session("having-json");
    let result = session
        .execute(
            "select get_json_object(sale_logs, '$.item_name') as item, \
             sum(get_json_object(sale_logs, '$.turnover')) as revenue \
             from mydb.t group by get_json_object(sale_logs, '$.item_name') \
             having sum(get_json_object(sale_logs, '$.turnover')) > 30 order by item",
        )
        .unwrap();
    // apple 28, banana 123, pear 24, watermelon 50 -> banana + watermelon.
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][0], Cell::Str("banana".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn count_star_without_column_references() {
    let (session, root) = sales_session("countstar");
    let result = session.execute("select count(*) as n from mydb.t").unwrap();
    assert_eq!(result.rows, vec![vec![Cell::Int(6)]]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scalar_functions_end_to_end() {
    let (session, root) = sales_session("scalars");
    let result = session
        .execute(
            "select upper(get_json_object(sale_logs, '$.item_name')) as u, \
             length(get_json_object(sale_logs, '$.item_name')) as l, \
             concat(mall_id, '-', get_json_object(sale_logs, '$.item_name')) as tag, \
             substr(get_json_object(sale_logs, '$.item_name'), 1, 3) as pre, \
             coalesce(get_json_object(sale_logs, '$.missing'), 'none') as fb, \
             round(get_json_object(sale_logs, '$.turnover') / 7, 1) as r \
             from mydb.t where get_json_object(sale_logs, '$.item_name') = 'banana' limit 1",
        )
        .unwrap();
    let row = &result.rows[0];
    assert_eq!(row[0], Cell::Str("BANANA".into()));
    assert_eq!(row[1], Cell::Int(6));
    assert_eq!(row[2], Cell::Str("0001-banana".into()));
    assert_eq!(row[3], Cell::Str("ban".into()));
    assert_eq!(row[4], Cell::Str("none".into()));
    assert_eq!(row[5], Cell::Float(12.9)); // 90/7 = 12.857 -> 12.9
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scalar_functions_null_and_error_semantics() {
    let (session, root) = sales_session("scalar-nulls");
    // concat with NULL is NULL; coalesce falls through; length of NULL is NULL.
    let result = session
        .execute(
            "select concat('a', get_json_object(sale_logs, '$.missing')) as c, \
             length(get_json_object(sale_logs, '$.missing')) as l \
             from mydb.t limit 1",
        )
        .unwrap();
    assert_eq!(result.rows[0][0], Cell::Null);
    assert_eq!(result.rows[0][1], Cell::Null);
    // Arity errors are planning/parse errors.
    assert!(session
        .execute("select substr(mall_id) from mydb.t")
        .is_err());
    assert!(session.execute("select length() from mydb.t").is_err());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scalar_functions_compose_with_aggregates_and_having() {
    let (session, root) = sales_session("scalar-agg");
    let result = session
        .execute(
            "select upper(get_json_object(sale_logs, '$.item_name')) as item, count(*) as n \
             from mydb.t group by upper(get_json_object(sale_logs, '$.item_name')) \
             having count(*) >= 2 order by item",
        )
        .unwrap();
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][0], Cell::Str("APPLE".into()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn explain_returns_plan_without_executing() {
    let (session, root) = sales_session("explain");
    let result = session
        .execute("EXPLAIN select date from mydb.t where date = 20190101 limit 2")
        .unwrap();
    assert_eq!(result.columns, vec!["plan"]);
    let text: Vec<String> = result.rows.iter().map(|r| r[0].render()).collect();
    assert!(text[0].starts_with("Limit"));
    assert!(text.iter().any(|l| l.contains("Scan")));
    // No rows were scanned.
    assert_eq!(result.metrics.rows_scanned, 0);
    std::fs::remove_dir_all(&root).ok();
}
