//! Snapshot consistency: a midnight cycle swapping the Maxson cache tables
//! in must be atomic from every concurrent query's point of view.
//!
//! Clients hammer the server while the admin session (a clone sharing the
//! warehouse) runs `run_midnight_cycle`, which installs the freshly built
//! cache via an epoch swap. Every served result must
//!
//! * carry exactly the old or the new epoch — never anything else,
//! * render byte-identically to the oracle's answer (the cache changes
//!   where values come from, not what they are), and
//! * correlate epoch with provenance: new-epoch results are served from
//!   the cache (zero parse calls), old-epoch results from raw JSON
//!   (non-zero parse calls). A mixed-epoch read would break exactly this
//!   correlation.

mod support;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use maxson::mpjp::PredictorKind;
use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_engine::{Config, Session};
use maxson_server::{Client, Server, ServerConfig};
use maxson_trace::QueryRecord;
use support::oracle::Oracle;
use support::temp_root;

const SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t";
const CLIENTS: usize = 6;

/// Warehouse with a JSON table plus the query history that makes the
/// midnight cycle cache `$.a` — but without running the cycle yet —
/// opened to run two worker threads.
fn warehouse_with_history(name: &str) -> (Session, Vec<QueryRecord>, PathBuf) {
    let root = temp_root(name);
    let config = Config {
        threads: Some(2),
        ..Config::from_env()
    };
    let mut session = Session::open_with(&root, config).unwrap();
    let docs: Vec<(i64, String)> = (0..40).map(|i| (i, format!(r#"{{"a": {i}}}"#))).collect();
    support::json_table(&mut session, "db", "t", &[docs], 10);
    let history = support::daily_history(&[("db", "t", "$.a")]);
    (session, history, root)
}

/// One served query as a client saw it.
struct Observation {
    epoch: u64,
    parse_calls: u64,
    display: String,
}

#[test]
fn midnight_cycle_is_an_atomic_epoch_swap_under_load() {
    let (template, history, root) = warehouse_with_history("swap");
    let mut admin = template.clone();
    let e0 = admin.epoch();
    assert!(
        admin.execute(SQL).unwrap().metrics.parse_calls > 0,
        "pre-cycle queries must parse raw JSON"
    );
    let reference_display = Oracle::new(&root).answer(SQL).unwrap().display();

    let mut server = Server::serve(
        template,
        "127.0.0.1:0",
        ServerConfig {
            permits: Some(4),
            result_cache_mb: None,
        },
    )
    .unwrap();
    let addr = server.addr();

    // Clients loop until told to stop, then take two guaranteed
    // post-cycle samples each.
    let cycle_done = Arc::new(AtomicBool::new(false));
    let (answered_tx, answered_rx) = std::sync::mpsc::channel();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let cycle_done = cycle_done.clone();
            let answered_tx = answered_tx.clone();
            std::thread::spawn(move || -> Vec<Observation> {
                let mut client = Client::connect(addr).expect("connect");
                let mut seen = Vec::new();
                let mut post_cycle = 0;
                while post_cycle < 2 {
                    if cycle_done.load(Ordering::SeqCst) {
                        post_cycle += 1;
                    }
                    let result = client.query(SQL).expect("query");
                    seen.push(Observation {
                        epoch: result.epoch,
                        parse_calls: result.metrics.parse_calls,
                        display: result.to_display_string(),
                    });
                    answered_tx.send(()).ok();
                }
                seen
            })
        })
        .collect();
    // The cycle below takes milliseconds; on a busy box it can finish before
    // any client has an answer, so hold it until one pre-swap result exists.
    answered_rx.recv().expect("a client answered");
    drop(answered_rx);

    // Run the midnight cycle on the admin clone while queries are in
    // flight: builds the cache tables off to the side, then swaps them in.
    let mut pipeline = MaxsonPipeline::new(
        &root,
        PipelineConfig {
            predictor: PredictorKind::RepeatYesterday,
            ..Default::default()
        },
    );
    pipeline.observe(history.iter());
    pipeline
        .run_midnight_cycle(&mut admin, &history, 8, 100)
        .unwrap();
    let e1 = admin.epoch();
    assert_eq!(e1, e0 + 1, "one cycle, one epoch bump");
    cycle_done.store(true, Ordering::SeqCst);

    // The cache must reproduce the raw results exactly.
    let post = admin.execute(SQL).unwrap();
    assert_eq!(post.metrics.parse_calls, 0, "cache must serve the path");
    assert_eq!(post.to_display_string(), reference_display);

    let mut old_seen = 0u64;
    let mut new_seen = 0u64;
    for worker in workers {
        for obs in worker.join().expect("client worker") {
            assert!(
                obs.epoch == e0 || obs.epoch == e1,
                "impossible epoch {} (old {e0}, new {e1})",
                obs.epoch
            );
            assert_eq!(
                obs.display, reference_display,
                "results diverged at epoch {}",
                obs.epoch
            );
            // Epoch and provenance must swap together: new epoch means
            // cache-served (no parsing), old epoch means raw JSON.
            if obs.epoch == e1 {
                new_seen += 1;
                assert_eq!(
                    obs.parse_calls, 0,
                    "new-epoch result parsed raw JSON: torn snapshot"
                );
            } else {
                old_seen += 1;
                assert!(
                    obs.parse_calls > 0,
                    "old-epoch result with zero parse calls: torn snapshot"
                );
            }
        }
    }
    // The forced post-cycle samples guarantee both sides are exercised.
    assert!(old_seen > 0, "no query observed the pre-swap warehouse");
    assert!(
        new_seen >= (CLIENTS * 2) as u64,
        "post-cycle samples missing"
    );

    // New connections see the new epoch immediately.
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.epoch, e1);
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}

/// Epoch swaps with the reuse cache on, and with *detectably different*
/// data on each side of the swap: the table grows and its values change
/// before the admin bumps the epoch, so any reuse entry leaking across
/// the swap would serve a visibly wrong answer. Every new-epoch result
/// must reflect the new data, and post-swap repeats must still be served
/// from the cache (the swap invalidates, it does not disable): after a
/// second, quiet swap the first round of repeats hits nothing and the
/// second hits every statement.
#[test]
fn reuse_cache_never_serves_stale_results_across_an_epoch_swap() {
    const COUNT_SQL: &str =
        "select count(*) as n, max(get_json_object(payload, '$.v')) as vmax from db.t";
    const ROWS_SQL: &str = "select id, get_json_object(payload, '$.a') as a from db.t \
                            where get_json_object(payload, '$.v') > 1 order by id";

    let root = temp_root("reuse-swap");
    let config = Config {
        threads: Some(2),
        ..Config::from_env()
    };
    let mut admin = Session::open_with(&root, config).unwrap();
    let docs: Vec<(i64, String)> = (0..40)
        .map(|i| (i, format!(r#"{{"v": 1, "a": {i}}}"#)))
        .collect();
    support::json_table(&mut admin, "db", "t", &[docs], 10);
    let old_reference = Oracle::new(&root).answer(COUNT_SQL).unwrap().display();

    let mut server = Server::serve(
        admin.clone(),
        "127.0.0.1:0",
        ServerConfig {
            permits: Some(4),
            result_cache_mb: Some(16),
        },
    )
    .unwrap();
    let addr = server.addr();
    let e0 = admin.epoch();

    let cycle_done = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let cycle_done = cycle_done.clone();
            std::thread::spawn(move || -> Vec<(u64, String)> {
                let mut client = Client::connect(addr).expect("connect");
                let mut seen = Vec::new();
                let mut post_cycle = 0;
                while post_cycle < 2 {
                    if cycle_done.load(Ordering::SeqCst) {
                        post_cycle += 1;
                    }
                    let result = client.query(COUNT_SQL).expect("query");
                    seen.push((result.epoch, result.to_display_string()));
                }
                seen
            })
        })
        .collect();

    // Let the clients warm the cache on the old epoch first.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Change the world, then swap: more rows, different values. The swap
    // is what publishes the change — old-epoch reuse entries must die
    // with it.
    {
        let mut catalog = admin.catalog_mut();
        let t = catalog.table_mut("db", "t").unwrap();
        let rows: Vec<Vec<maxson_storage::Cell>> = (40..50)
            .map(|i| vec![i.into(), format!(r#"{{"v": 2, "a": {i}}}"#).into()])
            .collect();
        t.append_file(&rows, Default::default(), 2).unwrap();
    }
    let e1 = admin.swap_warehouse_epoch(None).unwrap();
    assert_eq!(e1, e0 + 1);
    cycle_done.store(true, Ordering::SeqCst);

    let new_reference = Oracle::new(&root).answer(COUNT_SQL).unwrap().display();
    assert_ne!(
        new_reference, old_reference,
        "the swap must be detectable, or this test proves nothing"
    );

    let mut old_seen = 0u64;
    let mut new_seen = 0u64;
    for worker in workers {
        for (epoch, display) in worker.join().expect("client worker") {
            assert!(epoch == e0 || epoch == e1, "impossible epoch {epoch}");
            if epoch == e1 {
                new_seen += 1;
                // The stale-hit smoking gun would be a new-epoch result
                // rendering the old data.
                assert_eq!(
                    display, new_reference,
                    "stale reuse entry crossed the epoch swap"
                );
            } else {
                old_seen += 1;
            }
        }
    }
    assert!(old_seen > 0, "no query observed the pre-swap warehouse");
    assert!(
        new_seen >= (CLIENTS * 2) as u64,
        "post-swap samples missing"
    );

    // Non-vacuous: post-swap repeats are still cache-served — the swap
    // invalidated the old entries without taking the cache out of service.
    let mut prober = Client::connect(addr).unwrap();
    let hits_before = prober.stats().unwrap().reuse_hits;
    for _ in 0..3 {
        let result = prober.query(COUNT_SQL).unwrap();
        assert_eq!(result.epoch, e1);
        assert_eq!(result.to_display_string(), new_reference);
    }
    let after = prober.stats().unwrap();
    assert!(
        after.reuse_hits > hits_before,
        "post-swap repeats must hit the refilled cache"
    );
    assert!(after.reuse_bytes > 0, "refilled entries must be resident");

    // A second swap with no load in flight, counted per round: the first
    // round of repeats re-executes every statement (no entry outlives the
    // swap), the second is served entirely from the refilled cache.
    let statements = [COUNT_SQL, ROWS_SQL];
    let oracle = Oracle::new(&root);
    let references: Vec<String> = statements
        .iter()
        .map(|sql| oracle.answer(sql).unwrap().display())
        .collect();
    let e2 = admin.swap_warehouse_epoch(None).unwrap();
    let round_hits: Vec<u64> = (0..2)
        .map(|_| {
            let before = prober.stats().unwrap().reuse_hits;
            for (sql, reference) in statements.iter().zip(&references) {
                let result = prober.query(sql).unwrap();
                assert_eq!(result.epoch, e2);
                assert_eq!(&result.to_display_string(), reference);
            }
            prober.stats().unwrap().reuse_hits - before
        })
        .collect();
    assert_eq!(
        round_hits,
        [0, statements.len() as u64],
        "post-swap rounds: (stale hits, hits on the refilled cache)"
    );
    server.stop();
    std::fs::remove_dir_all(&root).ok();
}
