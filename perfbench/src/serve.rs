//! `serve_zipf`: two wire clients replay Zipf-drawn blocks against
//! `Server::serve` with the Maxson cache installed and a reuse cache a
//! quarter the size of the pool's results, so head statements hit and the
//! tail misses and evicts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use maxson_engine::{ReuseStats, Session};
use maxson_server::{Client, Server, ServerConfig};

use crate::layers::{parallel_map, plan_and_rewrite_ns};
use crate::plan::{pool, serve_block, Stmt, Zipf, ZIPF_S};
use crate::rig::{
    end_to_end, generate, hash_result, median_block, peak_rss_mb, ratio, reference_session,
    repeat_setup, verify, write_trace, AllocProbe, BlockRun, Config, Context, Counters, Cycle,
    Outcome, Res, Sample, Timed,
};
use crate::spans::{Recorder, SpanId};
use crate::stats::median;

/// Closed-loop connections: one per core of the two-core reference box.
const CLIENTS: usize = 2;
/// Reuse-cache budget, frozen at the whole MiB nearest a quarter of what
/// the pool occupies when all of it is resident: 58.2 MiB at 2,000 rows per
/// table (310 results plus 93 LIMIT fragments; seeds move it by 0.03 %).
const RESULT_CACHE_MB: u64 = 15;
/// Untimed blocks each client replays first, so the timed window starts on
/// a full cache that is already evicting.
const FILL_BLOCKS: usize = 5;
/// Statements (from the head of the pool) the wire overhead is measured on.
const OVERHEAD_STATEMENTS: usize = 60;
/// Pings behind `server.ping_us`.
const PINGS: usize = 200;

struct Rig {
    root: PathBuf,
    pool: Vec<Stmt>,
    zipf: Zipf,
    /// Handle on the served warehouse (shares its reuse cache).
    session: Session,
    clients: Vec<Client>,
    /// Held for its `Drop`, which stops the server and joins its threads.
    /// Declared last: the connections close first.
    _server: Server,
}

fn run_block(
    client: &mut Client,
    pool: &[Stmt],
    draws: &[usize],
    rec: &mut Recorder,
    block: u32,
) -> BlockRun {
    let root = rec.open("block", SpanId::NONE, block);
    let mut run = BlockRun::default();
    for &i in draws {
        let span = rec.open("client.query", root, block);
        let sample = Sample::time(i, || client.query(&pool[i].sql));
        rec.close(span);
        run.wall_ns += sample.wall_ns;
        run.samples.push(sample);
    }
    rec.close(root);
    run
}

/// What one client thread brings back from the timed window.
struct ClientRun {
    blocks: Vec<BlockRun>,
    rec: Recorder,
}

/// Both clients replay blocks `first..` side by side: for `count` blocks
/// each, or until `seconds` have passed. Block ids interleave the clients
/// so every block of the run has its own.
fn replay_blocks(
    rig: &mut Rig,
    seed: u64,
    first: usize,
    count: Option<usize>,
    seconds: f64,
    trace: bool,
) -> (Vec<ClientRun>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let origin = Instant::now();
    let (pool, zipf) = (&rig.pool, &rig.zipf);
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = Recorder::new(trace, origin);
                    let mut blocks = Vec::new();
                    barrier.wait();
                    let begun = Instant::now();
                    loop {
                        let index = first + blocks.len();
                        let draws = serve_block(zipf, seed, c, index);
                        let id = (index * CLIENTS + c) as u32 + 1;
                        blocks.push(run_block(client, pool, &draws, &mut rec, id));
                        let done = match count {
                            Some(n) => blocks.len() >= n,
                            None => begun.elapsed().as_secs_f64() >= seconds,
                        };
                        if done {
                            break;
                        }
                    }
                    ClientRun { blocks, rec }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread must not panic"))
            .collect()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// Cumulative counts of the reuse cache (read from the shared session) and
/// of the server's fair scheduler (read over the wire from METRICS).
#[derive(Debug, Clone, Copy)]
struct Activity {
    reuse: ReuseStats,
    sched_acquires: u64,
    sched_waits: u64,
}

impl Activity {
    fn read(rig: &mut Rig) -> Res<Activity> {
        let reuse = rig
            .session
            .reuse_stats()
            .ok_or("the served warehouse has no reuse cache")?;
        let text = rig.clients[0].metrics().ctx("fetch metrics")?;
        let value = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        Ok(Activity {
            reuse,
            sched_acquires: value("maxson_sched_acquires_total"),
            sched_waits: value("maxson_sched_waits_total"),
        })
    }

    /// What happened between `earlier` and this reading (`bytes_resident`
    /// and `budget_bytes` stay as read now).
    fn since(&self, earlier: &Activity) -> Activity {
        Activity {
            reuse: ReuseStats {
                hits: self.reuse.hits - earlier.reuse.hits,
                misses: self.reuse.misses - earlier.reuse.misses,
                fills: self.reuse.fills - earlier.reuse.fills,
                evictions: self.reuse.evictions - earlier.reuse.evictions,
                ..self.reuse
            },
            sched_acquires: self.sched_acquires - earlier.sched_acquires,
            sched_waits: self.sched_waits - earlier.sched_waits,
        }
    }
}

fn setup(cfg: &Config, root: &Path) -> Res<Rig> {
    let queries = generate(root, cfg)?;
    let mut session = Session::open(root).ctx("open session")?;
    Cycle::new(root, &queries).run(&mut session, 100)?;

    let pool = pool(&queries, cfg.seed);
    let server = Server::serve(
        session.clone(),
        "127.0.0.1:0",
        ServerConfig {
            result_cache_mb: Some(RESULT_CACHE_MB),
            ..Default::default()
        },
    )
    .ctx("start server")?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).ctx("connect"))
        .collect::<Res<Vec<_>>>()?;
    let mut rig = Rig {
        root: root.to_path_buf(),
        zipf: Zipf::new(pool.len(), ZIPF_S),
        pool,
        session,
        clients,
        _server: server,
    };

    // The reuse fill, part of set-up: the timed window must start warm.
    let (fill, _) = replay_blocks(&mut rig, cfg.seed, 0, Some(FILL_BLOCKS), 0.0, false);
    if let Some(bad) = fill
        .iter()
        .flat_map(|c| &c.blocks)
        .flat_map(|b| &b.samples)
        .find(|s| s.hash.is_none())
    {
        return Err(format!(
            "{} fails during the reuse fill",
            rig.pool[bad.stmt].name
        ));
    }
    // The pool must straddle the cache: some statements hit, some miss, and
    // the cache is under pressure. This cache turns a candidate away more
    // often than it evicts for it, so pressure counts both.
    let stats = Activity::read(&mut rig)?.reuse;
    let pressure = stats.evictions + stats.misses.saturating_sub(stats.fills);
    if !cfg.check && (stats.hits == 0 || stats.misses == 0 || pressure == 0) {
        return Err(format!(
            "reuse fill shows hits {} misses {} fills {} evictions {}: the pool no longer straddles the cache",
            stats.hits, stats.misses, stats.fills, stats.evictions
        ));
    }
    Ok(rig)
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let (mut rig, setup_walls) = repeat_setup(cfg, |root| setup(cfg, root))?;
    let before = Activity::read(&mut rig)?;
    let mut allocs = AllocProbe::start(cfg);
    let (runs, window_s) = replay_blocks(
        &mut rig,
        cfg.seed,
        FILL_BLOCKS,
        cfg.blocks,
        cfg.seconds,
        cfg.trace,
    );
    allocs.stop();
    let window = Activity::read(&mut rig)?.since(&before);

    let mut rec = Recorder::new(cfg.trace, Instant::now());
    let mut timed = Timed {
        window_s,
        peak_rss_mb: peak_rss_mb()?,
        blocks: Vec::new(),
    };
    for run in runs {
        timed.blocks.extend(run.blocks);
        rec.absorb(run.rec);
    }

    // Serial reference for every statement the window issued, computed on
    // as many serial sessions as there are cores.
    let issued: Vec<usize> = timed
        .blocks
        .iter()
        .flat_map(|b| b.samples.iter().map(|s| s.stmt))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = (0..workers)
        .map(|_| reference_session(&rig.root))
        .collect::<Res<Vec<_>>>()?;
    let shards: Vec<(usize, &Session)> = sessions.iter().enumerate().collect();
    let (hashed, _) = parallel_map(&shards, workers, |(w, session)| {
        issued
            .iter()
            .skip(*w)
            .step_by(workers)
            .map(|&i| {
                let r = session.execute(&rig.pool[i].sql).ctx("reference")?;
                Ok((i, hash_result(&r)))
            })
            .collect::<Res<Vec<_>>>()
    })?;
    let reference: BTreeMap<usize, u64> = hashed.into_iter().flatten().collect();
    let good = verify(&timed, |stmt| reference.get(&stmt).copied());

    let mut out = end_to_end(&setup_walls, &timed, &good);
    // `rows_scanned` does not cross the wire: count per row returned.
    let returned = timed
        .blocks
        .iter()
        .map(|b| b.counters().rows_returned)
        .sum();
    allocs.report(returned, &mut out);
    out.notes.push(format!(
        "{CLIENTS} clients, {} distinct statements of {} issued; reuse cache {RESULT_CACHE_MB} MiB, {} bytes resident, {} hits {} misses {} fills {} evictions in the window",
        issued.len(),
        rig.pool.len(),
        window.reuse.bytes_resident,
        window.reuse.hits,
        window.reuse.misses,
        window.reuse.fills,
        window.reuse.evictions
    ));
    if cfg.trace {
        layers(&mut rig, &timed, &good, &window, &mut out)?;
        write_trace(cfg, &rec, &mut out)?;
    }
    Ok(out)
}

fn layers(
    rig: &mut Rig,
    timed: &Timed,
    good: &[bool],
    window: &Activity,
    out: &mut Outcome,
) -> Res<()> {
    let Some(mid) = median_block(timed, good) else {
        return Err("no block completed correctly: no layer budget".to_string());
    };
    let block = &timed.blocks[mid];
    let blocks = timed.blocks.len() as f64;

    // A reuse hit opens no split, so it reports no footer lookup at all.
    let is_hit = |s: &Sample| s.counters.footer_hits + s.counters.footer_misses == 0;
    let walls_us = |hit: bool| -> Vec<f64> {
        timed
            .blocks
            .iter()
            .flat_map(|b| &b.samples)
            .filter(|s| s.hash.is_some() && is_hit(s) == hit)
            .map(|s| s.wall_ns as f64 / 1e3)
            .collect()
    };

    // Wire floor.
    let client = &mut rig.clients[0];
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        client.ping().ctx("ping")?;
        pings.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    // Server overhead: the same statement, resident in the reuse cache,
    // asked over the wire and asked of the session directly.
    let mut overheads = Vec::with_capacity(OVERHEAD_STATEMENTS);
    for stmt in rig.pool.iter().take(OVERHEAD_STATEMENTS) {
        client.query(&stmt.sql).ctx("overhead warm-up")?;
        let start = Instant::now();
        rig.session.execute(&stmt.sql).ctx("overhead in-process")?;
        let direct = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        client.query(&stmt.sql).ctx("overhead over the wire")?;
        overheads.push((start.elapsed().as_nanos() as f64 - direct) / 1e3);
    }
    let overhead_us = median(&overheads);

    let plain = Session::open(&rig.root).ctx("open planning session")?;
    let (plan, rewrite) = plan_and_rewrite_ns(
        &plain,
        Some(&rig.session),
        block.samples.iter().map(|s| rig.pool[s.stmt].sql.as_str()),
    )?;
    let statements = block.samples.len() as f64;
    let server_ns = (overhead_us * 1e3 * statements) as i64;
    let exec_ns = block.wall_ns as i64 - server_ns - (plan + rewrite) as i64;

    let mut totals = Counters::default();
    for b in &timed.blocks {
        totals.add(&b.counters());
    }
    let reuse = &window.reuse;
    out.set("block_p50_traced_ms", block.wall_ns as f64 / 1e6);
    out.set("engine.plan_us", plan as f64 / 1e3 / statements);
    out.set("maxson.rewrite_us", rewrite as f64 / 1e3 / statements);
    out.set("engine.exec_ms", exec_ns as f64 / 1e6);
    out.set("engine.parse_calls", totals.parse_calls as f64 / blocks);
    out.set("engine.docs_parsed", totals.docs_parsed as f64 / blocks);
    out.set("engine.cache_hits", totals.cache_hits as f64 / blocks);
    out.set("storage.footer_hits", totals.footer_hits as f64 / blocks);
    out.set(
        "storage.footer_misses",
        totals.footer_misses as f64 / blocks,
    );
    out.set(
        "engine.reuse.hit_ratio",
        ratio(reuse.hits as f64, (reuse.hits + reuse.misses) as f64),
    );
    out.set("engine.reuse.evictions", reuse.evictions as f64 / blocks);
    out.set("engine.reuse.hit_p50_us", median(&walls_us(true)));
    out.set("engine.reuse.miss_p50_us", median(&walls_us(false)));
    out.set("server.overhead_us", overhead_us);
    out.set("server.ping_us", median(&pings));
    out.set(
        "server.sched_wait_share",
        ratio(window.sched_waits as f64, window.sched_acquires as f64),
    );

    out.budget(
        format!(
            "layer budget of the median block ({} requests, wall {:.3} ms):",
            block.samples.len(),
            block.wall_ns as f64 / 1e6
        ),
        block.wall_ns,
        &[
            ("server (wire + scheduler overhead)", server_ns),
            ("engine.plan", plan as i64),
            ("maxson.rewrite", rewrite as i64),
            ("engine.reuse + exec (residual)", exec_ns),
        ],
    );
    let stats = rig.clients[0].stats().ctx("fetch stats")?;
    out.notes.push(format!(
        "server STATS: {} ok, {} err, served p50 {} us, p99 {} us, {} active; scheduler {} acquires, {} waits",
        stats.queries_ok,
        stats.queries_err,
        stats.p50_us,
        stats.p99_us,
        stats.active_queries,
        window.sched_acquires,
        window.sched_waits
    ));
    Ok(())
}
