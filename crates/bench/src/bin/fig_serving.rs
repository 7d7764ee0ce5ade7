//! fig_serving — multi-client serving throughput over one shared warehouse.
//!
//! Replays the ten-query Table II workload through the TCP query server at
//! 1, 4, and 8 concurrent clients, with the committed Maxson cache tables
//! installed through the same atomic epoch swap the midnight cycle uses.
//! Reports sustained QPS (client-side wall clock) and p99 latency
//! (server-side histogram) per client count, and checks two serving
//! claims on every run:
//!
//! * every served result is byte-identical to serial in-process
//!   execution of the same SQL (the differential suite's invariant,
//!   re-proved under benchmark load), and
//! * the shared Norc footer metadata cache carries the concurrency —
//!   hits must be positive and dominate misses, since N clients over one
//!   warehouse should fetch each footer once, not N times.
//!
//! `MAXSON_BENCH_FAST=1` shrinks the replay for smoke runs.

use std::sync::Arc;
use std::time::Instant;

use maxson::rewriter::MaxsonScanRewriter;
use maxson::CacheRegistry;
use maxson_bench::{bench_root, load_tables, Report, Series};
use maxson_engine::Session;
use maxson_server::{Client, Server, ServerConfig};
use maxson_storage::Catalog;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];

fn main() {
    let fast = maxson_bench::fast();
    let rounds = if fast { 2 } else { 12 };

    let queries = load_tables();

    // Install the committed Maxson cache tables through the same atomic
    // epoch swap the midnight cycle uses: serving measures the system as
    // deployed, cache and all, without rebuilding cache files in CI. The
    // rewriter's catalog shares the warehouse's footer cache, so every
    // cache-table read lands in the process-wide LRU.
    let template = Session::open(bench_root()).expect("open warehouse");
    let rewriter_catalog =
        Catalog::open_with_cache(bench_root(), Arc::clone(template.catalog().meta_cache()))
            .expect("open rewriter catalog");
    let registry = CacheRegistry::load(&rewriter_catalog).expect("load cache registry");
    let rewriter = MaxsonScanRewriter::with_registry(rewriter_catalog, registry);
    template
        .swap_warehouse_epoch(Some(Box::new(rewriter)))
        .expect("install rewriter");

    // Serial references: the single-session truth every served result
    // must reproduce byte for byte.
    let reference: Arc<Vec<(String, String)>> = Arc::new(
        queries
            .iter()
            .map(|q| {
                let rendered = template
                    .execute(&q.sql)
                    .unwrap_or_else(|e| panic!("{} failed serially: {e}", q.name))
                    .to_display_string();
                (q.sql.clone(), rendered)
            })
            .collect(),
    );

    let mut report = Report::new(
        "fig_serving",
        "multi-client serving: sustained QPS and p99 latency over one shared warehouse",
    );
    report.note(format!(
        "{} workload queries x {rounds} rounds per client, Maxson cache installed",
        queries.len()
    ));
    report.note("every served result verified byte-identical to serial execution");

    let mut qps_series = Series::new("QPS");
    let mut p99_series = Series::new("p99 (ms)");
    let mut hits_series = Series::new("meta cache hits");

    for &clients in &CLIENT_COUNTS {
        let mut server = Server::serve(template.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("start server");
        let addr = server.addr();

        // Footer-fetch delta over the serving phase: the reference pass
        // already warmed the shared cache, so sustained serving must be
        // all hits and zero misses.
        let meta_before = template.catalog().meta_cache().stats();
        let started = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let reference = reference.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut executed = 0u64;
                    for round in 0..rounds {
                        for k in 0..reference.len() {
                            // Rotate per client and round so different
                            // query shapes overlap in flight.
                            let (sql, expected) = &reference[(c + round + k) % reference.len()];
                            let got = client.query(sql).expect("served query").to_display_string();
                            assert_eq!(
                                &got, expected,
                                "served result diverged from serial execution"
                            );
                            executed += 1;
                        }
                    }
                    executed
                })
            })
            .collect();
        let total: u64 = workers.into_iter().map(|w| w.join().expect("client")).sum();
        let wall = started.elapsed().as_secs_f64().max(f64::EPSILON);

        let stats = Client::connect(addr)
            .expect("connect for stats")
            .stats()
            .expect("stats");
        assert_eq!(stats.queries_ok, total, "server lost queries: {stats:?}");
        assert_eq!(stats.queries_err, 0, "server errored: {stats:?}");
        let meta_after = template.catalog().meta_cache().stats();
        let hits = meta_after.hits - meta_before.hits;
        let misses = meta_after.misses - meta_before.misses;
        assert!(
            hits > 0 && misses == 0,
            "shared metadata cache not carrying the load: \
             {hits} hits / {misses} misses over the serving phase"
        );
        server.stop();

        let qps = total as f64 / wall;
        let p99_ms = stats.p99_us as f64 / 1e3;
        let label = format!("{clients} clients");
        qps_series.push(label.clone(), qps);
        p99_series.push(label.clone(), p99_ms);
        hits_series.push(label.clone(), hits as f64);
        println!(
            "{label}: {total} queries in {wall:.3}s -> {qps:.0} QPS, p99 {p99_ms:.2} ms, \
             meta hits {hits} / misses {misses} over the phase"
        );
    }

    report.add(qps_series);
    report.add(p99_series);
    report.add(hits_series);
    report.emit();
}
