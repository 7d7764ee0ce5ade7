//! The end-to-end "every midnight" cycle.
//!
//! [`MaxsonPipeline`] wires the whole system together the way the paper's
//! deployment runs it (§III-B): collect query statistics, predict
//! tomorrow's MPJPs, score them, populate the cache under the budget, and
//! install the plan rewriter on the session. Benchmarks and examples call
//! this once per simulated day.

use std::path::PathBuf;

use maxson_engine::session::Session;
use maxson_predictor::features::FeatureConfig;
use maxson_storage::Catalog;
use maxson_trace::{JsonPathCollector, QueryRecord};

use crate::cacher::{CacheReport, JsonPathCacher};
use crate::error::Result;
use crate::mpjp::{predict_mpjps, MpjpCandidate, PredictorKind, TrainedPredictor};
use crate::rewriter::MaxsonScanRewriter;
use crate::score::{score_candidates, ScoredMpjp};

/// How the ranked candidate list is ordered before greedy admission —
/// the scoring-function ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringStrategy {
    /// The paper's full product `Score = A_j · R_j · O_j`.
    #[default]
    Full,
    /// Acceleration-per-byte only (`A_j`).
    AccelerationOnly,
    /// Relevance only (`R_j`).
    RelevanceOnly,
    /// Occurrence only (`O_j`).
    OccurrenceOnly,
    /// Random order (Fig. 11's baseline).
    Random,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Cache byte budget (the Fig. 11 axis).
    pub budget_bytes: u64,
    /// Predictor kind.
    pub predictor: PredictorKind,
    /// Feature window (Table IV's axis).
    pub features: FeatureConfig,
    /// How candidates are ranked for admission.
    pub scoring: ScoringStrategy,
    /// Random selection seed (only used with [`ScoringStrategy::Random`]).
    pub random_seed: u64,
    /// Enable Algorithm 3 pushdown on the installed rewriter.
    pub enable_pushdown: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            budget_bytes: u64::MAX,
            predictor: PredictorKind::LstmCrf,
            features: FeatureConfig::default(),
            scoring: ScoringStrategy::Full,
            random_seed: 7,
            enable_pushdown: true,
        }
    }
}

/// Output of one nightly cycle.
#[derive(Debug)]
pub struct CycleReport {
    /// Predicted MPJPs for tomorrow.
    pub predicted: usize,
    /// The ranked (or shuffled) candidate list as admitted to the cacher.
    pub ranked: Vec<ScoredMpjp>,
    /// Cacher outcome.
    pub cache: CacheReport,
}

/// The orchestrator.
pub struct MaxsonPipeline {
    root: PathBuf,
    config: PipelineConfig,
    collector: JsonPathCollector,
}

impl MaxsonPipeline {
    /// Create a pipeline over the warehouse at `root`.
    pub fn new(root: impl Into<PathBuf>, config: PipelineConfig) -> Self {
        MaxsonPipeline {
            root: root.into(),
            config,
            collector: JsonPathCollector::new(),
        }
    }

    /// Feed historical query records into the collector.
    pub fn observe<'a>(&mut self, queries: impl IntoIterator<Item = &'a QueryRecord>) {
        self.collector.observe_all(queries);
    }

    /// Access the collector (for analytics).
    pub fn collector(&self) -> &JsonPathCollector {
        &self.collector
    }

    /// Run the midnight cycle for `today` (predicting day `today + 1`):
    /// predict, score, cache, and install the rewriter on `session`.
    pub fn run_midnight_cycle(
        &mut self,
        session: &mut Session,
        history: &[QueryRecord],
        today: u32,
        now: u64,
    ) -> Result<CycleReport> {
        // Stages record into the session's tracer, so the offline cycle
        // shows up in the same Chrome trace as the queries it accelerates.
        let tracer = session.tracer().clone();
        let cycle = tracer.span("midnight_cycle");
        cycle.attr("day", today);
        let telemetry = std::sync::Arc::clone(session.metrics_registry());
        let cycle_start = std::time::Instant::now();

        // 1. Predict MPJPs.
        let stage = tracer.child("predict", cycle.id());
        let predictor = TrainedPredictor::train(
            self.config.predictor,
            &self.collector,
            &self.config.features,
        );
        let candidates: Vec<MpjpCandidate> =
            predict_mpjps(&self.collector, &predictor, today, &self.config.features);
        stage.attr("candidates", candidates.len());
        drop(stage);

        // 2. Score, then order per the configured strategy.
        let stage = tracer.child("score", cycle.id());
        let mut ranked = score_candidates(&session.catalog(), &candidates, history)?;
        match self.config.scoring {
            ScoringStrategy::Full => {}
            ScoringStrategy::AccelerationOnly => {
                ranked.sort_by(|a, b| cmp_f64(b.acceleration, a.acceleration))
            }
            ScoringStrategy::RelevanceOnly => {
                ranked.sort_by(|a, b| cmp_f64(b.relevance, a.relevance))
            }
            ScoringStrategy::OccurrenceOnly => {
                ranked.sort_by_key(|s| std::cmp::Reverse(s.occurrence))
            }
            ScoringStrategy::Random => shuffle(&mut ranked, self.config.random_seed),
        }
        stage.attr("ranked", ranked.len());
        drop(stage);

        // 3. Populate the cache against a *work* catalog opened outside the
        //    session's warehouse lock: concurrent queries keep planning
        //    against the previous epoch while the cache tables build.
        let stage = tracer.child("cache_build", cycle.id());
        let cacher = JsonPathCacher::new(self.config.budget_bytes);
        // Share the warehouse's Norc footer cache so cache-table reads
        // through the installed rewriter stay in the process-wide LRU.
        let meta_cache = std::sync::Arc::clone(session.catalog().meta_cache());
        let mut work = Catalog::open_with_cache(&self.root, meta_cache)?;
        let (registry, cache_report) = cacher.populate(&mut work, &ranked, now)?;
        if stage.is_recording() {
            stage.attr("cached", cache_report.cached.len());
            stage.attr("bytes_used", cache_report.bytes_used);
            stage.attr("skipped", cache_report.skipped.len());
        }
        drop(stage);

        // 4. Install atomically: one epoch swap replaces the catalog and
        //    rewriter together, so every in-flight query sees either the
        //    old warehouse or the new one, never a mix. The work catalog
        //    already holds the fresh cache tables, so it doubles as the
        //    rewriter's read handle.
        let stage = tracer.child("install_rewriter", cycle.id());
        let mut rewriter = MaxsonScanRewriter::with_registry(work, registry);
        rewriter.enable_pushdown = self.config.enable_pushdown;
        rewriter.set_tracer(tracer.clone());
        rewriter.set_metrics_registry(std::sync::Arc::clone(&telemetry));
        let epoch = session.swap_warehouse_epoch(Some(Box::new(rewriter)))?;
        stage.attr("epoch", epoch);
        drop(stage);
        drop(cycle);
        session.flush_trace()?;

        // The cycle itself is telemetry-visible: one counter per run, the
        // standing cache footprint, and the offline build latency.
        telemetry.counter("maxson_midnight_cycles_total", &[]).inc();
        telemetry
            .counter("maxson_cache_paths_built_total", &[])
            .add(cache_report.cached.len() as u64);
        telemetry
            .gauge("maxson_cache_bytes_used", &[])
            .set(cache_report.bytes_used);
        telemetry.gauge("maxson_cache_epoch", &[]).max(epoch);
        telemetry
            .histogram("maxson_cycle_wall_seconds", &[])
            .observe(cycle_start.elapsed());

        Ok(CycleReport {
            predicted: candidates.len(),
            ranked,
            cache: cache_report,
        })
    }
}

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Deterministic Fisher-Yates with an xorshift generator (no ordering
/// bias, no dependence on `rand` here).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, ColumnType, Field, Schema};
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::JsonPathLocation;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-pipeline-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    fn setup(name: &str) -> (Session, PathBuf) {
        let root = temp_root(name);
        let mut session = Session::open(&root).unwrap();
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let mut catalog = session.catalog_mut();
        let t = catalog.create_table("db", "t", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..50)
            .map(|i| {
                vec![
                    Cell::Int(i),
                    Cell::from(format!(r#"{{"a": {i}, "b": "v{i}", "c": {}}}"#, i * 2)),
                ]
            })
            .collect();
        t.append_file(
            &rows,
            WriteOptions {
                row_group_size: 10,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        drop(catalog);
        (session, root)
    }

    fn loc(path: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "payload", path)
    }

    /// A daily history where $.a and $.b are parsed twice a day and $.c
    /// once a day.
    fn history(days: u32) -> Vec<QueryRecord> {
        let mut out = Vec::new();
        let mut id = 0;
        for day in 0..days {
            for (paths, user) in [
                (vec!["$.a", "$.b"], 1u32),
                (vec!["$.a", "$.b"], 2),
                (vec!["$.c"], 3),
            ] {
                out.push(QueryRecord {
                    query_id: id,
                    user_id: user,
                    day,
                    hour: 9,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths.iter().map(|p| loc(p)).collect(),
                });
                id += 1;
            }
        }
        out
    }

    #[test]
    fn midnight_cycle_caches_mpjps_and_accelerates() {
        let (mut session, root) = setup("cycle");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        let today = 18; // predict day 19, which exists in the history
        let report = pipeline
            .run_midnight_cycle(&mut session, &queries, today, 100)
            .unwrap();
        assert_eq!(report.predicted, 2, "only $.a and $.b are MPJPs");
        assert_eq!(report.cache.cached.len(), 2);

        // A query over the cached paths must be served without parsing.
        let sql = "select get_json_object(payload, '$.a') as a, \
                   get_json_object(payload, '$.b') as b from db.t";
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows.len(), 50);
        assert_eq!(result.rows[3][0], Cell::Str("3".into()));
        assert_eq!(result.metrics.parse_calls, 0, "all calls cached");
        assert!(result.metrics.cache_hits > 0);

        // A query over the uncached path still parses.
        let result = session
            .execute("select get_json_object(payload, '$.c') as c from db.t")
            .unwrap();
        assert!(result.metrics.parse_calls > 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cached_and_uncached_mix_in_one_query() {
        let (mut session, root) = setup("mix");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        pipeline
            .run_midnight_cycle(&mut session, &queries, 18, 100)
            .unwrap();
        let sql = "select id, get_json_object(payload, '$.a') as a, \
                   get_json_object(payload, '$.c') as c from db.t where id < 5";
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows.len(), 5);
        assert_eq!(result.rows[2][1], Cell::Str("2".into()));
        assert_eq!(result.rows[2][2], Cell::Str("4".into()));
        // $.a is cached (no parse); $.c is parsed, but only for the rows
        // surviving the filter (projection runs after the WHERE).
        assert_eq!(result.metrics.parse_calls, 5);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pushdown_on_cached_predicate_reduces_reads() {
        let (mut session, root) = setup("pushdown");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        pipeline
            .run_midnight_cycle(&mut session, &queries, 18, 100)
            .unwrap();
        let sql = "select get_json_object(payload, '$.a') as a from db.t \
                   where get_json_object(payload, '$.a') >= 45";
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows.len(), 5);
        assert!(
            result.metrics.row_groups_skipped >= 4,
            "skipped {} groups",
            result.metrics.row_groups_skipped
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pushdown_can_be_disabled() {
        let (mut session, root) = setup("nopush");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                enable_pushdown: false,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        pipeline
            .run_midnight_cycle(&mut session, &queries, 18, 100)
            .unwrap();
        let sql = "select get_json_object(payload, '$.a') as a from db.t \
                   where get_json_object(payload, '$.a') >= 45";
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows.len(), 5);
        assert_eq!(result.metrics.row_groups_skipped, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn random_strategy_caches_same_count_under_full_budget() {
        let (mut session, root) = setup("random");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                scoring: ScoringStrategy::Random,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        let report = pipeline
            .run_midnight_cycle(&mut session, &queries, 18, 100)
            .unwrap();
        // With an unlimited budget, random vs scored selects the same set
        // (Fig. 11's 400 GB point).
        assert_eq!(report.cache.cached.len(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_cache_is_not_served() {
        let (mut session, root) = setup("stale");
        let queries = history(20);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::Oracle,
                ..Default::default()
            },
        );
        pipeline.observe(queries.iter());
        pipeline
            .run_midnight_cycle(&mut session, &queries, 18, 100)
            .unwrap();
        // Mid-day update: append a row at a later logical time.
        session
            .catalog_mut()
            .table_mut("db", "t")
            .unwrap()
            .append_file(
                &[vec![Cell::Int(999), Cell::Str(r#"{"a": 999}"#.into())]],
                WriteOptions::default(),
                200,
            )
            .unwrap();
        // Reinstall the rewriter so its catalog sees the new mod time (the
        // paper's Algorithm 1 reads table metadata at planning time).
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
        let result = session
            .execute("select get_json_object(payload, '$.a') as a from db.t")
            .unwrap();
        // All 51 rows parsed (cache invalid), none served stale.
        assert_eq!(result.rows.len(), 51);
        assert_eq!(result.metrics.parse_calls, 51);
        assert_eq!(result.metrics.cache_hits, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b: Vec<u32> = (0..20).collect();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, 6);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }
}

#[cfg(test)]
mod indexed_path_tests {
    use super::*;
    use crate::mpjp::PredictorKind;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, ColumnType, Field, Schema};
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::JsonPathLocation;

    /// Array-indexed and quoted-field JSONPaths must survive the cacher's
    /// field-name sanitization and resolve back through the rewriter.
    #[test]
    fn indexed_and_quoted_paths_cache_correctly() {
        use maxson_engine::session::Session;
        let root = std::env::temp_dir().join(format!(
            "maxson-idxpath-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut session = Session::open(&root).unwrap();
        let schema = Schema::new(vec![Field::new("payload", ColumnType::Utf8)]).unwrap();
        let mut catalog = session.catalog_mut();
        let t = catalog.create_table("db", "t", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..20)
            .map(|i| {
                vec![Cell::from(format!(
                    r#"{{"tags": ["first-{i}", "second-{i}"], "odd key": {i}}}"#
                ))]
            })
            .collect();
        t.append_file(&rows, WriteOptions::default(), 1).unwrap();

        let paths = ["$.tags[0]", "$.tags[1]", "$['odd key']"];
        let history: Vec<QueryRecord> = (0..8u32)
            .flat_map(|day| {
                (0..2u32).map(move |user| QueryRecord {
                    query_id: u64::from(day * 2 + user),
                    user_id: user,
                    day,
                    hour: 9,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths
                        .iter()
                        .map(|p| JsonPathLocation::new("db", "t", "payload", *p))
                        .collect(),
                })
            })
            .collect();
        drop(catalog);
        let mut pipeline = MaxsonPipeline::new(
            &root,
            PipelineConfig {
                predictor: PredictorKind::RepeatYesterday,
                ..Default::default()
            },
        );
        pipeline.observe(history.iter());
        let report = pipeline
            .run_midnight_cycle(&mut session, &history, 6, 100)
            .unwrap();
        assert_eq!(report.cache.cached.len(), 3);

        let sql = "select get_json_object(payload, '$.tags[0]') as a, \
                   get_json_object(payload, '$.tags[1]') as b, \
                   get_json_object(payload, '$[''odd key'']') as c from db.t";
        let result = session.execute(sql).unwrap();
        assert_eq!(result.rows[5][0], Cell::Str("first-5".into()));
        assert_eq!(result.rows[5][1], Cell::Str("second-5".into()));
        assert_eq!(result.rows[5][2], Cell::Str("5".into()));
        assert_eq!(result.metrics.parse_calls, 0, "all three paths cached");
        std::fs::remove_dir_all(&root).ok();
    }
}
