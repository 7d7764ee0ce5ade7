//! Cross-crate integration tests: the full Maxson stack from trace
//! synthesis through prediction, caching, plan rewriting, and execution,
//! with every result held to the oracle's.

mod support;

use maxson::mpjp::PredictorKind;
use maxson::rewriter::MaxsonScanRewriter;
use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_bench::baselines::OnlineLruRewriter;
use maxson_datagen::tables::{load_workload_tables, WorkloadConfig};
use maxson_engine::session::{JsonParserKind, Session};
use maxson_storage::{Catalog, Cell};
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};
use std::path::{Path, PathBuf};
use support::cells::assert_matches;
use support::oracle::{Answer, Oracle};
use support::temp_root;

/// The oracle's answer to each of `queries`.
fn oracle_answers(root: &Path, queries: &[maxson_datagen::QuerySpec]) -> Vec<Answer> {
    let oracle = Oracle::new(root);
    queries
        .iter()
        .map(|q| oracle.answer(&q.sql).unwrap())
        .collect()
}

/// Build the ten workload tables in a temp warehouse.
fn workload_root(name: &str) -> (PathBuf, Vec<maxson_datagen::QuerySpec>) {
    let root = temp_root(name);
    let mut catalog = Catalog::open(&root).unwrap();
    let cfg = WorkloadConfig {
        rows_per_table: 200,
        files_per_table: 2,
        row_group_size: 25,
        ..Default::default()
    };
    let queries = load_workload_tables(&mut catalog, &cfg).unwrap();
    (root, queries)
}

fn history_for(queries: &[maxson_datagen::QuerySpec], days: u32) -> Vec<QueryRecord> {
    let mut out = Vec::new();
    let mut id = 0;
    for day in 0..days {
        for (qi, q) in queries.iter().enumerate() {
            for user in 0..2u32 {
                out.push(QueryRecord {
                    query_id: id,
                    user_id: qi as u32 * 2 + user,
                    day,
                    hour: 9,
                    recurrence: RecurrenceClass::Daily,
                    paths: q
                        .paths
                        .iter()
                        .map(|p| {
                            JsonPathLocation::new(
                                q.database.clone(),
                                q.table.clone(),
                                "payload",
                                p.clone(),
                            )
                        })
                        .collect(),
                });
                id += 1;
            }
        }
    }
    out
}

#[test]
fn all_ten_workload_queries_run_uncached() {
    let (root, queries) = workload_root("uncached");
    let session = Session::open(&root).unwrap();
    for q in &queries {
        let result = session
            .execute(&q.sql)
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
        assert!(
            result.metrics.parse_calls > 0,
            "{} should parse JSON",
            q.name
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cached_results_match_uncached_results_for_every_query() {
    let (root, queries) = workload_root("equivalence");
    let reference = oracle_answers(&root, &queries);

    // Cache everything and rerun.
    let mut session = Session::open(&root).unwrap();
    let history = history_for(&queries, 10);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let report = pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .unwrap();
    assert!(
        report.cache.cached.len() >= 80,
        "expected most of the 90 paths cached, got {}",
        report.cache.cached.len()
    );
    for (q, expected) in queries.iter().zip(&reference) {
        let result = session
            .execute(&q.sql)
            .unwrap_or_else(|e| panic!("{} failed cached: {e}", q.name));
        assert_matches(expected, &result, &format!("{} with cache", q.name));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cached_results_match_under_mison_parser_too() {
    let (root, queries) = workload_root("mison-equiv");
    let mut session = Session::open(&root).unwrap();
    session.set_parser_kind(JsonParserKind::Mison);
    let reference = oracle_answers(&root, &queries[..4]);
    let history = history_for(&queries, 10);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .unwrap();
    for (q, expected) in queries.iter().take(4).zip(&reference) {
        let result = session.execute(&q.sql).unwrap();
        assert_matches(
            expected,
            &result,
            &format!("{} on Mison with cache", q.name),
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn lru_baseline_matches_maxson_results() {
    let (root, queries) = workload_root("lru-equiv");
    let reference = oracle_answers(&root, &queries[..3]);
    let mut session = Session::open(&root).unwrap();
    session.set_scan_rewriter(Some(Box::new(OnlineLruRewriter::new(u64::MAX))));
    for round in 0..2 {
        for (q, expected) in queries.iter().take(3).zip(&reference) {
            let result = session.execute(&q.sql).unwrap();
            assert_matches(expected, &result, &format!("{} round {round}", q.name));
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn budget_zero_caches_nothing_and_still_works() {
    let (root, queries) = workload_root("zerobudget");
    let mut session = Session::open(&root).unwrap();
    let history = history_for(&queries, 10);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            budget_bytes: 0,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let report = pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .unwrap();
    assert!(report.cache.cached.is_empty());
    let result = session.execute(&queries[0].sql).unwrap();
    assert!(result.metrics.parse_calls > 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn rewriter_reloads_registry_from_disk() {
    let (root, queries) = workload_root("reload");
    let mut session = Session::open(&root).unwrap();
    let history = history_for(&queries, 10);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .unwrap();
    // Simulate a new process: fresh session + rewriter loaded from disk.
    let mut session2 = Session::open(&root).unwrap();
    let rewriter = MaxsonScanRewriter::open(&session2).unwrap();
    session2.set_scan_rewriter(Some(Box::new(rewriter)));
    let q = &queries[5]; // Q6: all paths cached
    let result = session2.execute(&q.sql).unwrap();
    assert_eq!(
        result.metrics.parse_calls, 0,
        "Q6 fully cached after reload"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn repeated_cycles_are_stable() {
    let (root, queries) = workload_root("cycles");
    let mut session = Session::open(&root).unwrap();
    let history = history_for(&queries, 12);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    let mut counts = Vec::new();
    for day in 8..11 {
        let report = pipeline
            .run_midnight_cycle(&mut session, &history, day, 100 + u64::from(day))
            .unwrap();
        counts.push(report.cache.cached.len());
        // Query works after every cycle.
        let result = session.execute(&queries[2].sql).unwrap();
        assert!(!result.columns.is_empty());
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn predicate_pushdown_preserves_results_on_workload_query() {
    let (root, queries) = workload_root("pushdown-equiv");
    // Q9 filters on a cached JSONPath — the pushdown showcase.
    let q9 = queries.iter().find(|q| q.name == "Q9").unwrap();
    let expected = Oracle::new(&root).answer(&q9.sql).unwrap();

    let history = history_for(&queries, 10);
    for enable_pushdown in [true, false] {
        let mut session = Session::open(&root).unwrap();
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::RepeatYesterday,
                enable_pushdown,
                ..Default::default()
            },
        );
        pipeline.observe(history.iter());
        pipeline
            .run_midnight_cycle(&mut session, &history, 8, 100)
            .unwrap();
        let result = session.execute(&q9.sql).unwrap();
        assert_matches(
            &expected,
            &result,
            &format!("Q9 with pushdown={enable_pushdown}"),
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn mid_day_append_invalidates_until_next_cycle() {
    let (root, queries) = workload_root("midday");
    let mut session = Session::open(&root).unwrap();
    let history = history_for(&queries, 10);
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    pipeline
        .run_midnight_cycle(&mut session, &history, 8, 100)
        .unwrap();
    let q = queries.iter().find(|q| q.name == "Q4").unwrap();
    let cached_run = session.execute(&q.sql).unwrap();
    assert_eq!(cached_run.metrics.parse_calls, 0);

    // Mid-day: new data lands in q4's table (logical time 200 > cache 100).
    let payload = r#"{"f0": 1}"#;
    session
        .catalog_mut()
        .table_mut("mydb", "q4")
        .unwrap()
        .append_file(
            &[vec![
                Cell::Int(9999),
                Cell::Int(20190120),
                Cell::Str(payload.into()),
            ]],
            maxson_storage::file::WriteOptions::default(),
            200,
        )
        .unwrap();
    // A fresh rewriter (planning reads metadata) must refuse the stale cache.
    let rewriter = MaxsonScanRewriter::open(&session).unwrap();
    session.set_scan_rewriter(Some(Box::new(rewriter)));
    let stale_run = session.execute(&q.sql).unwrap();
    assert!(
        stale_run.metrics.parse_calls > 0,
        "stale cache must not serve"
    );

    // Next midnight cycle re-caches; served again.
    pipeline
        .run_midnight_cycle(&mut session, &history, 8, 300)
        .unwrap();
    let fresh_run = session.execute(&q.sql).unwrap();
    assert_eq!(fresh_run.metrics.parse_calls, 0);
    std::fs::remove_dir_all(&root).ok();
}
