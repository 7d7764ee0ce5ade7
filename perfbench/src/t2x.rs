//! `tableII_plain` and `tableII_maxson`: the statement list `T2x` run back
//! to back by one in-process client, without and with the Maxson cache.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use maxson::cacher::{cache_field_name, cache_table_name, CACHE_DB};
use maxson_engine::Session;
use maxson_json::{get_json_objects, JsonPath};
use maxson_storage::{Catalog, Cell, ColumnData, Table};

use crate::layers::{footer_counts, parallel_map, plan_and_rewrite_ns, read_table, Replay};
use crate::plan::{shuffled, t2x, Stmt};
use crate::rig::{
    end_to_end, generate, median_block, reference_hashes, repeat_setup, timed_loop, verify,
    write_trace, AllocProbe, BlockRun, Config, Context, Cycle, Outcome, Res, Sample, Timed,
    Workload, DATABASE,
};
use crate::spans::{Recorder, SpanId};
use crate::stats::median;

/// Times each layer replay runs; the median is reported.
const REPLAY_REPS: usize = 3;

struct Rig {
    root: PathBuf,
    stmts: Vec<Stmt>,
    /// The session under test: plain, or with the Maxson rewriter installed.
    session: Session,
    /// Seeded order in which every block runs the statements.
    order: Vec<usize>,
}

fn run_block(rig: &Rig, rec: &mut Recorder, block: u32) -> BlockRun {
    let root = rec.open("block", SpanId::NONE, block);
    let mut run = BlockRun::default();
    for &i in &rig.order {
        let span = rec.open("statement", root, block);
        let sample = Sample::time(i, || rig.session.execute(&rig.stmts[i].sql));
        rec.close(span);
        run.wall_ns += sample.wall_ns;
        run.samples.push(sample);
    }
    rec.close(root);
    run
}

fn setup(cfg: &Config, root: &Path) -> Res<Rig> {
    let queries = generate(root, cfg)?;
    let stmts = t2x(&queries);
    let mut session = Session::open(root).ctx("open session")?;
    if cfg.workload == Workload::Maxson {
        Cycle::new(root, &queries).run(&mut session, 100)?;
    }
    let rig = Rig {
        root: root.to_path_buf(),
        order: shuffled(stmts.len(), cfg.seed),
        stmts,
        session,
    };
    // One untimed warm-up block; it also proves the workload runs the path
    // it is named after.
    let warm = run_block(&rig, &mut Recorder::new(false, Instant::now()), 0);
    for s in &warm.samples {
        let stmt = &rig.stmts[s.stmt];
        if s.hash.is_none() {
            return Err(format!("{} fails in the warm-up block", stmt.name));
        }
        if cfg.workload == Workload::Maxson {
            let parsed = s.counters.docs_parsed;
            if stmt.uncached_path.is_none() && parsed != 0 {
                return Err(format!(
                    "{} parsed {parsed} documents after the cycle",
                    stmt.name
                ));
            }
            if stmt.uncached_path.is_some() && parsed == 0 {
                return Err(format!(
                    "{} parsed no document: nothing was stitched",
                    stmt.name
                ));
            }
        }
    }
    Ok(rig)
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let (rig, setup_walls) = repeat_setup(cfg, |root| setup(cfg, root))?;
    let mut rec = Recorder::new(cfg.trace, Instant::now());
    let mut allocs = AllocProbe::start(cfg);
    let timed = timed_loop(cfg, |block| run_block(&rig, &mut rec, block))?;
    allocs.stop();

    let reference = reference_hashes(&rig.root, &rig.stmts)?;
    let good = verify(&timed, |stmt| reference.get(stmt).copied());
    let mut out = end_to_end(&setup_walls, &timed, &good);
    let scanned = timed.blocks.iter().map(|b| b.counters().rows_scanned).sum();
    allocs.report(scanned, &mut out);
    if cfg.trace {
        layers(cfg, &rig, &timed, &good, &mut out)?;
        write_trace(cfg, &rec, &mut out)?;
    }
    Ok(out)
}

/// Columns of one table that a statement reads.
#[derive(Clone)]
struct Scan {
    table: Table,
    columns: Vec<usize>,
    /// Position of the JSON column in `columns`, when the scan reads it.
    payload: Option<usize>,
}

fn scan_of(table: &Table, names: &[String]) -> Res<Scan> {
    let columns = names
        .iter()
        .map(|n| {
            table
                .schema()
                .index_of(n)
                .ok_or_else(|| format!("column {n} missing in {}", table.dir().display()))
        })
        .collect::<Res<Vec<usize>>>()?;
    Ok(Scan {
        table: table.clone(),
        payload: names.iter().position(|n| n == "payload"),
        columns,
    })
}

/// The raw and cache columns `stmt` needs on the plain or the Maxson path.
fn scans_of(catalog: &Catalog, stmt: &Stmt, maxson: bool) -> Res<Vec<Scan>> {
    let raw = catalog.table(DATABASE, &stmt.table).ctx("raw table")?;
    let mut names: Vec<String> = ["id", "date"]
        .into_iter()
        .filter(|c| stmt.sql.contains(c))
        .map(str::to_string)
        .collect();
    if !maxson || stmt.uncached_path.is_some() {
        names.push("payload".to_string());
    }
    let mut scans = vec![scan_of(raw, &names)?];
    if maxson {
        let cache = catalog
            .table(CACHE_DB, &cache_table_name(DATABASE, &stmt.table))
            .ctx("cache table")?;
        let fields: Vec<String> = stmt
            .paths
            .iter()
            .map(|p| cache_field_name("payload", p))
            .collect();
        scans.push(scan_of(cache, &fields)?);
    }
    // A self-join scans its table once per side.
    if stmt.sql.contains(" join ") {
        scans.extend(scans.clone());
    }
    Ok(scans)
}

/// Read through `TableReader` exactly the columns `stmt` needs, then replay
/// `get_json_objects` over as many payloads as the statement parsed.
fn replay(
    catalog: &Catalog,
    stmt: &Stmt,
    maxson: bool,
    docs_parsed: u64,
    workers: usize,
) -> Res<Replay> {
    let mut out = Replay::default();
    let (hits, misses) = footer_counts(catalog);
    let mut payloads: Vec<ColumnData> = Vec::new();
    for scan in scans_of(catalog, stmt, maxson)? {
        for mut split in read_table(&scan.table, &scan.columns, workers, &mut out)? {
            if let Some(p) = scan.payload {
                payloads.push(split.swap_remove(p));
            }
        }
    }
    let (hits_after, misses_after) = footer_counts(catalog);
    out.footer_hits = hits_after - hits;
    out.footer_misses = misses_after - misses;

    // On the Maxson path only the stitch path reaches a parser.
    let cached = if maxson { &[][..] } else { &stmt.paths[..] };
    let paths: Vec<JsonPath> = cached
        .iter()
        .chain(stmt.uncached_path.iter())
        .map(|p| JsonPath::parse(p).ctx("compile path"))
        .collect::<Res<_>>()?;
    let total_rows: u64 = payloads.iter().map(|c| c.len() as u64).sum();
    if docs_parsed == 0 || total_rows == 0 || paths.is_empty() {
        return Ok(out);
    }
    // Spread the documents the statement parsed over the files in
    // proportion to their rows.
    let mut shares: Vec<(&ColumnData, u64)> = payloads
        .iter()
        .map(|c| (c, docs_parsed * c.len() as u64 / total_rows))
        .collect();
    shares[0].1 += docs_parsed - shares.iter().map(|(_, docs)| docs).sum::<u64>();
    let (parsed, wall) = parallel_map(&shares, workers, |(column, docs)| {
        let (mut busy, mut bytes) = (0u64, 0u64);
        for i in 0..*docs as usize {
            if let Cell::Str(json) = column.get(i % column.len()) {
                let start = Instant::now();
                black_box(get_json_objects(black_box(&json), &paths));
                busy += start.elapsed().as_nanos() as u64;
                bytes += json.len() as u64;
            }
        }
        Ok((busy, bytes))
    })?;
    out.json_wall_ns = wall;
    out.json_docs = docs_parsed;
    for (busy, bytes) in parsed {
        out.json_busy_ns += busy;
        out.json_bytes += bytes;
    }
    Ok(out)
}

/// `replay` run `REPLAY_REPS` times: median times, last pass's counts.
fn median_replay(
    catalog: &Catalog,
    stmt: &Stmt,
    maxson: bool,
    docs: u64,
    workers: usize,
) -> Res<Replay> {
    let mut reps = Vec::with_capacity(REPLAY_REPS);
    for _ in 0..REPLAY_REPS {
        reps.push(replay(catalog, stmt, maxson, docs, workers)?);
    }
    let pick = |f: fn(&Replay) -> u64| {
        median(&reps.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) as u64
    };
    Ok(Replay {
        storage_wall_ns: pick(|r| r.storage_wall_ns),
        json_wall_ns: pick(|r| r.json_wall_ns),
        json_busy_ns: pick(|r| r.json_busy_ns),
        // Counts repeat exactly; footers are warm from the second pass on.
        ..reps[REPLAY_REPS - 1]
    })
}

/// The layer budget of the median block and the per-layer figures.
fn layers(cfg: &Config, rig: &Rig, timed: &Timed, good: &[bool], out: &mut Outcome) -> Res<()> {
    let maxson = cfg.workload == Workload::Maxson;
    let Some(mid) = median_block(timed, good) else {
        return Err("no block completed correctly: no layer budget".to_string());
    };
    let block = &timed.blocks[mid];
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let catalog = Catalog::open(&rig.root).ctx("open replay catalog")?;
    let plain = Session::open(&rig.root).ctx("open planning session")?;

    let (plan, rewrite) = plan_and_rewrite_ns(
        &plain,
        maxson.then_some(&rig.session),
        block.samples.iter().map(|s| rig.stmts[s.stmt].sql.as_str()),
    )?;
    let mut total = Replay::default();
    for s in &block.samples {
        let docs = s.counters.docs_parsed;
        total.add(&median_replay(
            &catalog,
            &rig.stmts[s.stmt],
            maxson,
            docs,
            workers,
        )?);
    }
    let exec_ns =
        block.wall_ns as i64 - (plan + rewrite + total.storage_wall_ns + total.json_wall_ns) as i64;

    let counters = block.counters();
    let repeats = timed
        .blocks
        .iter()
        .zip(good)
        .filter(|(_, ok)| **ok)
        .all(|(b, _)| b.counters() == counters);
    let statements = block.samples.len() as f64;
    total.report(out);
    out.set("block_p50_traced_ms", block.wall_ns as f64 / 1e6);
    out.set("engine.plan_us", plan as f64 / 1e3 / statements);
    out.set("maxson.rewrite_us", rewrite as f64 / 1e3 / statements);
    out.set("engine.exec_ms", exec_ns as f64 / 1e6);
    out.set("engine.rows_scanned", counters.rows_scanned as f64);
    out.set("engine.bytes_read", counters.bytes_read as f64);
    out.set("engine.parse_calls", counters.parse_calls as f64);
    out.set("engine.docs_parsed", counters.docs_parsed as f64);
    out.set("engine.cache_hits", counters.cache_hits as f64);
    out.set(
        "engine.cells_materialized",
        counters.cells_materialized as f64,
    );

    out.budget(
        format!(
            "layer budget of the median block ({} statements, wall {:.3} ms):",
            block.samples.len(),
            block.wall_ns as f64 / 1e6
        ),
        block.wall_ns,
        &[
            ("json (get_json_objects replay)", total.json_wall_ns as i64),
            ("storage (TableReader replay)", total.storage_wall_ns as i64),
            ("engine.plan", plan as i64),
            ("maxson.rewrite", rewrite as i64),
            ("engine.exec (residual)", exec_ns),
        ],
    );
    out.notes.push(format!(
        "work counters of one block (repeat exactly across blocks: {}): {counters:?}",
        if repeats { "yes" } else { "NO" }
    ));
    Ok(())
}
