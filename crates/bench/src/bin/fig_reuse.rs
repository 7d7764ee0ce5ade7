//! fig_reuse — cross-query reuse cache under three request mixes.
//!
//! Serves the Table II warehouse through the TCP server with the reuse
//! cache enabled and replays three mixes against it:
//!
//! * **repeat-heavy** — the ten workload queries looped verbatim; after
//!   the first round every request is a full-result hit. Reports the hit
//!   rate and hit-served p50/p99 against the cold p50/p99, and asserts
//!   the headline claim: hit p50 at least 5x below cold p50.
//! * **zipf** — requests drawn from a Zipf-skewed pool of literal
//!   variants, four concurrent clients; the popular head hits, the long
//!   tail misses, and every response is byte-identical to serial
//!   cache-off execution.
//! * **no-repeat** — an adversarial stream where no query ever repeats:
//!   the hit rate must be exactly zero and resident bytes must stay
//!   within budget while the cache churns.
//!
//! After the mixes, an epoch swap runs mid-stream and the replay
//! re-proves zero stale hits: the first post-swap round re-executes
//! everything (no hit served from a pre-swap entry), then repeats hit
//! again. `MAXSON_BENCH_FAST=1` shrinks the replay for smoke runs.

use std::sync::Arc;
use std::time::Instant;

use maxson_bench::{bench_root, load_tables, Report, Series};
use maxson_engine::Session;
use maxson_server::{Client, Server, ServerConfig};

const BUDGET_MB: u64 = 32;

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Deterministic LCG so the Zipf mix replays identically run to run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Sample an index in `0..n` under a Zipf(s=1.2) distribution.
fn zipf(rng: &mut Lcg, n: usize, harmonics: &[f64]) -> usize {
    let total = harmonics[n - 1];
    let u = (rng.next() % 1_000_000) as f64 / 1_000_000.0 * total;
    harmonics.partition_point(|&h| h < u).min(n - 1)
}

fn main() {
    let fast = maxson_bench::fast();
    let rounds = if fast { 3 } else { 8 };
    let zipf_requests = if fast { 60 } else { 400 };
    let no_repeat_requests = if fast { 40 } else { 200 };

    let queries = load_tables();

    // Serial cache-off references: the truth every served response must
    // reproduce byte for byte. A dedicated session keeps its own
    // warehouse instance, so the server's cache never touches these runs.
    let mut reference_session = Session::open(bench_root()).expect("open reference session");
    reference_session.set_result_cache(None);
    let reference: Arc<Vec<(String, String)>> = Arc::new(
        queries
            .iter()
            .map(|q| {
                let rendered = reference_session
                    .execute(&q.sql)
                    .unwrap_or_else(|e| panic!("{} failed serially: {e}", q.name))
                    .to_display_string();
                (q.sql.clone(), rendered)
            })
            .collect(),
    );

    let template = Session::open(bench_root()).expect("open warehouse");
    let mut server = Server::serve(
        template.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: None,
            permits: None,
            result_cache_mb: Some(BUDGET_MB),
        },
    )
    .expect("start server");
    let addr = server.addr();

    let mut report = Report::new(
        "fig_reuse",
        "cross-query reuse cache: hit rate and hit latency under three request mixes",
    );
    report.note(format!(
        "{} workload queries, {BUDGET_MB} MiB budget, {rounds} repeat rounds",
        queries.len()
    ));
    report.note("every served response verified byte-identical to serial cache-off execution");

    let mut rate_series = Series::new("hit rate");
    let mut p50_series = Series::new("p50 (us)");
    let mut p99_series = Series::new("p99 (us)");

    // ---- Mix 1: repeat-heavy -------------------------------------------
    let mut client = Client::connect(addr).expect("connect");
    let before = client.stats().expect("stats");
    let mut cold_us: Vec<f64> = Vec::new();
    let mut hit_us: Vec<f64> = Vec::new();
    for round in 0..rounds {
        for (sql, expected) in reference.iter() {
            let started = Instant::now();
            let got = client.query(sql).expect("served query");
            let wall_us = started.elapsed().as_secs_f64() * 1e6;
            assert_eq!(
                &got.to_display_string(),
                expected,
                "repeat-heavy response diverged from serial execution"
            );
            if round == 0 {
                cold_us.push(wall_us);
            } else {
                hit_us.push(wall_us);
            }
        }
    }
    let after = client.stats().expect("stats");
    let total = (rounds * reference.len()) as f64;
    let hits = (after.reuse_hits - before.reuse_hits) as f64;
    let repeat_rate = hits / total;
    assert!(
        hits >= ((rounds - 1) * reference.len()) as f64,
        "every repeat after the first round must be a hit: {hits} of {total}"
    );
    cold_us.sort_by(f64::total_cmp);
    hit_us.sort_by(f64::total_cmp);
    let (cold_p50, cold_p99) = (percentile(&cold_us, 0.5), percentile(&cold_us, 0.99));
    let (hit_p50, hit_p99) = (percentile(&hit_us, 0.5), percentile(&hit_us, 0.99));
    assert!(
        hit_p50 * 5.0 <= cold_p50,
        "headline claim failed: hit p50 {hit_p50:.0}us not 5x below cold p50 {cold_p50:.0}us"
    );
    rate_series.push("repeat-heavy", repeat_rate);
    p50_series.push("cold", cold_p50);
    p50_series.push("repeat-heavy hit", hit_p50);
    p99_series.push("cold", cold_p99);
    p99_series.push("repeat-heavy hit", hit_p99);
    println!(
        "repeat-heavy: hit rate {:.2}, cold p50/p99 {cold_p50:.0}/{cold_p99:.0} us, \
         hit p50/p99 {hit_p50:.0}/{hit_p99:.0} us ({:.1}x p50 speedup)",
        repeat_rate,
        cold_p50 / hit_p50.max(f64::EPSILON)
    );

    // ---- Mix 2: Zipf-skewed literal variants ---------------------------
    // 20 variants of one extraction query, popularity ~ 1/rank^1.2.
    let variant_sql: Vec<String> = (0..20)
        .map(|i| {
            format!(
                "select get_json_object(payload, '$.f0') as f0 from mydb.q1 \
                 where get_json_object(payload, '$.f0') > {}",
                i * 40
            )
        })
        .collect();
    let variant_ref: Arc<Vec<(String, String)>> = Arc::new(
        variant_sql
            .iter()
            .map(|sql| {
                let rendered = reference_session
                    .execute(sql)
                    .expect("variant reference")
                    .to_display_string();
                (sql.clone(), rendered)
            })
            .collect(),
    );
    let harmonics: Vec<f64> = {
        let mut acc = 0.0;
        (1..=variant_ref.len())
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(1.2);
                acc
            })
            .collect()
    };
    let before = client.stats().expect("stats");
    let workers: Vec<_> = (0..4u64)
        .map(|c| {
            let variant_ref = Arc::clone(&variant_ref);
            let harmonics = harmonics.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rng = Lcg(0x5EED_0000 + c);
                for _ in 0..zipf_requests / 4 {
                    let pick = zipf(&mut rng, variant_ref.len(), &harmonics);
                    let (sql, expected) = &variant_ref[pick];
                    let got = client.query(sql).expect("zipf query");
                    assert_eq!(
                        &got.to_display_string(),
                        expected,
                        "zipf response diverged from serial execution"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("zipf client");
    }
    let after = client.stats().expect("stats");
    let issued = (zipf_requests / 4 * 4) as f64;
    let zipf_rate = (after.reuse_hits - before.reuse_hits) as f64 / issued;
    assert!(zipf_rate > 0.0, "a skewed mix must hit on its popular head");
    rate_series.push("zipf", zipf_rate);
    println!("zipf: hit rate {zipf_rate:.2} over {issued:.0} requests (20 variants, s=1.2)");

    // ---- Mix 3: adversarial no-repeat ----------------------------------
    let before = client.stats().expect("stats");
    for i in 0..no_repeat_requests {
        // A fresh literal every time: nothing can ever hit.
        let sql = format!(
            "select get_json_object(payload, '$.f0') as f0 from mydb.q1 \
             where get_json_object(payload, '$.f0') > {}",
            10_000 + i
        );
        client.query(&sql).expect("no-repeat query");
    }
    let after = client.stats().expect("stats");
    assert_eq!(
        after.reuse_hits, before.reuse_hits,
        "a never-repeating stream must not hit"
    );
    assert!(
        after.reuse_bytes <= BUDGET_MB * 1024 * 1024,
        "resident bytes {} exceed the {BUDGET_MB} MiB budget under churn",
        after.reuse_bytes
    );
    rate_series.push("no-repeat", 0.0);
    println!(
        "no-repeat: 0 hits over {no_repeat_requests} requests, {} bytes resident (budget {})",
        after.reuse_bytes,
        BUDGET_MB * 1024 * 1024
    );

    // ---- Epoch swap: zero stale hits -----------------------------------
    // Swap the warehouse epoch on the admin handle (the midnight cycle's
    // install step). Every pre-swap entry is now unreachable: the first
    // post-swap round must re-execute all ten queries — zero hits — and
    // only then do repeats hit again.
    let before = client.stats().expect("stats");
    template.swap_warehouse_epoch(None).expect("epoch swap");
    for (sql, expected) in reference.iter() {
        let got = client.query(sql).expect("post-swap query");
        assert_eq!(
            &got.to_display_string(),
            expected,
            "post-swap response diverged from serial execution"
        );
    }
    let mid = client.stats().expect("stats");
    assert_eq!(
        mid.reuse_hits, before.reuse_hits,
        "stale reuse entries served across the epoch swap"
    );
    for (sql, _) in reference.iter() {
        client.query(sql).expect("post-swap repeat");
    }
    let after = client.stats().expect("stats");
    assert!(
        after.reuse_hits >= mid.reuse_hits + reference.len() as u64,
        "post-swap repeats must hit the refilled cache"
    );
    println!(
        "epoch swap: 0 stale hits, {} fresh hits on the second post-swap round",
        after.reuse_hits - mid.reuse_hits
    );
    report.note("epoch swap mid-stream: zero stale hits, repeats re-hit after refill");

    server.stop();

    report.add(rate_series);
    report.add(p50_series);
    report.add(p99_series);
    report.emit();
}
