//! Fig. 15 — per-query runtime of Spark+Jackson, Spark+Mison, Spark+Tape,
//! Maxson, Maxson+Mison, and Maxson+Tape over Q1..Q10.
//!
//! The paper's findings: Mison's structural index speeds up the no-cache
//! baseline substantially (especially schema-stable Q6); for queries whose
//! paths are cached, Maxson beats even Mison because it pays no per-record
//! projection cost at all; and Mison complements Maxson on uncached paths
//! (Maxson+Mison is the best of both). The tape series adds the On-Demand
//! parser class: same document counts as Jackson (one parse per doc), but
//! skip markers hop unqueried subtrees — the `nodes_skipped` counter must
//! be positive on the selective workload queries, and zero for the other
//! parsers.

use maxson::mpjp::{predict_mpjps, PredictorKind, TrainedPredictor};
use maxson::score::score_candidates;
use maxson_bench::workload::{cached_path_count, session_for, workload_history};
use maxson_bench::{load_tables, run_query_avg, Report, Series, SystemKind};
use maxson_predictor::features::FeatureConfig;
use maxson_trace::JsonPathCollector;

fn main() {
    let queries = load_tables();
    let fast = maxson_bench::fast();
    let runs = if fast { 1 } else { 2 };

    // Match the paper's setting: the 300 GB limit caches most-but-not-all
    // MPJPs. We use 75% of the full parsed-value footprint.
    let budget: u64 = {
        let session = maxson_bench::fresh_session();
        let history = workload_history(&queries, 14);
        let mut collector = JsonPathCollector::new();
        collector.observe_all(history.iter());
        let features = FeatureConfig::default();
        let predictor =
            TrainedPredictor::train(PredictorKind::RepeatYesterday, &collector, &features);
        let candidates = predict_mpjps(&collector, &predictor, 13, &features);
        let ranked =
            score_candidates(&session.catalog(), &candidates, &history).expect("score candidates");
        let full: u64 = ranked.iter().map(|s| s.estimated_bytes).sum();
        (full as f64 * 0.75) as u64
    };

    let mut report = Report::new("fig15", "Per-query runtime under six systems (seconds)");
    report.note("Paper: cache limit 300GB; Maxson beats Mison on cached queries (Q2,Q3,Q4,Q6,Q7,Q9,Q10); Mison complements Maxson on uncached paths.");

    // Per-query docs_parsed of the Jackson runs (uncached and cached),
    // the baselines the tape runs must reproduce exactly: laziness changes
    // what a parse materializes, never how many documents are parsed.
    let mut docs_baseline: std::collections::BTreeMap<(bool, String), u64> =
        std::collections::BTreeMap::new();

    for system in [
        SystemKind::SparkJackson,
        SystemKind::SparkMison,
        SystemKind::SparkTape,
        SystemKind::Maxson,
        SystemKind::MaxsonMison,
        SystemKind::MaxsonTape,
    ] {
        let (session, cached) = session_for(system, &queries, budget, true);
        let mut series = Series::new(system.name());
        for q in &queries {
            let (t, m) = run_query_avg(&session, &q.sql, runs);
            series.push(q.name.clone(), t.as_secs_f64());
            // Smoke invariant of shared-parse accounting: a document can
            // never be parsed more often than evaluations requested it.
            assert!(
                m.docs_parsed <= m.parse_calls,
                "{} {}: docs_parsed {} > parse_calls {}",
                system.name(),
                q.name,
                m.docs_parsed,
                m.parse_calls
            );
            // Smoke invariants of the tape parser: skip markers fire on
            // the selective workload queries without changing how many
            // documents are parsed, and only the tape parser skips.
            let key = (system.uses_cache(), q.name.clone());
            match system.parser() {
                maxson_engine::session::JsonParserKind::Jackson => {
                    docs_baseline.insert(key, m.docs_parsed);
                }
                maxson_engine::session::JsonParserKind::Mison => {
                    assert_eq!(
                        m.nodes_skipped,
                        0,
                        "{} {}: non-tape parser charged nodes_skipped",
                        system.name(),
                        q.name
                    );
                }
                maxson_engine::session::JsonParserKind::Tape => {
                    let baseline = docs_baseline.get(&key).copied().expect("Jackson ran first");
                    assert_eq!(
                        m.docs_parsed,
                        baseline,
                        "{} {}: tape parsed a different doc count than Jackson",
                        system.name(),
                        q.name
                    );
                    if m.docs_parsed > 0 {
                        assert!(
                            m.nodes_skipped > 0,
                            "{} {}: selective query over parsed docs skipped no nodes",
                            system.name(),
                            q.name
                        );
                    }
                }
            }
            report.note_parse_dedup(&format!("{} {}", system.name(), q.name), &m);
            if q.name == "Q6" {
                println!(
                    "{} {}: {:.4}s (parse {:.4}s, cache hits {}, dedup {:.2}x)",
                    system.name(),
                    q.name,
                    t.as_secs_f64(),
                    m.parse.as_secs_f64(),
                    m.cache_hits,
                    m.parse_dedup_factor()
                );
            }
        }
        if system.uses_cache() {
            let fully: Vec<&str> = queries
                .iter()
                .filter(|q| cached_path_count(q, &cached) == q.paths.len())
                .map(|q| q.name.as_str())
                .collect();
            println!(
                "{}: {} paths cached; fully-cached queries: {:?}",
                system.name(),
                cached.len(),
                fully
            );
        }
        // One traced (untimed) replay of Q1 for the per-operator rollup.
        session.set_trace_enabled(true);
        let _ = session.execute(&queries[0].sql);
        report.note_top_operators(system.name(), session.tracer());
        session.set_trace_enabled(false);
        report.add(series);
    }
    report.emit();
}
