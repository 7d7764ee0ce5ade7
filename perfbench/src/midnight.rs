//! `midnight_cycle`: one block is one full cycle — predict, score, cache
//! build, install — that drops and rebuilds every cached JSONPath. The
//! json and storage layers run the other way round here: bulk multi-path
//! extraction and Norc writes instead of query-time reads.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use maxson::cacher::CACHE_DB;
use maxson::mpjp::TrainedPredictor;
use maxson::{predict_mpjps, score_candidates, JsonPathCacher, MaxsonScanRewriter, PipelineConfig};
use maxson_datagen::tables::QuerySpec;
use maxson_engine::Session;
use maxson_json::tape::{project_paths, TapeStats};
use maxson_json::JsonPath;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Catalog, Cell, ColumnData, ColumnType, Field, Schema};

use crate::layers::{footer_counts, parallel_map, read_table, Replay};
use crate::plan::t2x;
use crate::rig::{
    end_to_end, generate, median_block, ratio, reference_hashes, repeat_setup, timed_loop, verify,
    write_trace, AllocProbe, BlockRun, Config, Context, Cycle, Outcome, Res, Sample, Timed,
    DATABASE, TODAY,
};
use crate::spans::{self_time_by_block, Recorder, SpanId};

struct Rig {
    root: PathBuf,
    queries: Vec<QuerySpec>,
    session: Session,
    cycle: Cycle,
}

fn setup(cfg: &Config, root: &Path) -> Res<Rig> {
    let queries = generate(root, cfg)?;
    let mut rig = Rig {
        root: root.to_path_buf(),
        session: Session::open(root).ctx("open session")?,
        cycle: Cycle::new(root, &queries),
        queries,
    };
    // Warm-up: the first cycle builds the cache the timed cycles replace.
    rig.cycle.run(&mut rig.session, 100)?;
    Ok(rig)
}

/// The cycle as deployed: one call.
fn cycle(rig: &mut Rig, block: u32) -> BlockRun {
    let start = Instant::now();
    let done = rig.cycle.run(&mut rig.session, 100 + u64::from(block));
    BlockRun {
        wall_ns: start.elapsed().as_nanos() as u64,
        failed: done.is_err(),
        ..Default::default()
    }
}

/// The same cycle as its four public stage functions called in sequence,
/// each under a span.
fn staged_cycle(rig: &Rig, rec: &mut Recorder, block: u32) -> BlockRun {
    let start = Instant::now();
    let root = rec.open("block", SpanId::NONE, block);
    let done = (|| -> Res<usize> {
        let config = PipelineConfig::default();
        let collector = rig.cycle.pipeline.collector();

        let span = rec.open("maxson.predict", root, block);
        let predictor = TrainedPredictor::train(config.predictor, collector, &config.features);
        let candidates = predict_mpjps(collector, &predictor, TODAY, &config.features);
        rec.close(span);

        let span = rec.open("maxson.score", root, block);
        let ranked = score_candidates(&rig.session.catalog(), &candidates, &rig.cycle.history)
            .ctx("score")?;
        rec.close(span);

        let span = rec.open("maxson.cache_build", root, block);
        let footers = Arc::clone(rig.session.catalog().meta_cache());
        let mut work = Catalog::open_with_cache(&rig.root, footers).ctx("open work catalog")?;
        let (registry, report) = JsonPathCacher::new(config.budget_bytes)
            .populate(&mut work, &ranked, 100 + u64::from(block))
            .ctx("populate cache")?;
        rec.close(span);

        let span = rec.open("maxson.install", root, block);
        let mut rewriter = MaxsonScanRewriter::with_registry(work, registry);
        rewriter.enable_pushdown = config.enable_pushdown;
        rig.session
            .swap_warehouse_epoch(Some(Box::new(rewriter)))
            .ctx("install rewriter")?;
        rec.close(span);
        Ok(report.cached.len())
    })();
    rec.close(root);
    BlockRun {
        wall_ns: start.elapsed().as_nanos() as u64,
        failed: done != Ok(rig.cycle.expected),
        ..Default::default()
    }
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    let (mut rig, setup_walls) = repeat_setup(cfg, |root| setup(cfg, root))?;
    let mut rec = Recorder::new(cfg.trace, Instant::now());
    let mut allocs = AllocProbe::start(cfg);
    let timed = timed_loop(cfg, |block| {
        if cfg.trace {
            staged_cycle(&rig, &mut rec, block)
        } else {
            cycle(&mut rig, block)
        }
    })?;
    allocs.stop();

    // The cache the last cycle installed must answer T2x like the serial
    // reference, parsing documents for the stitch paths only.
    let stmts = t2x(&rig.queries);
    let reference = reference_hashes(&rig.root, &stmts)?;
    let served_right = stmts.iter().enumerate().all(|(i, s)| {
        let sample = Sample::time(i, || rig.session.execute(&s.sql));
        let parsed_as_expected = (sample.counters.docs_parsed == 0) == s.uncached_path.is_none();
        sample.hash == Some(reference[i]) && parsed_as_expected
    });
    let mut good = verify(&timed, |_| None);
    if !served_right {
        // Which cycle went wrong is unknown: none of them counts.
        good.iter_mut().for_each(|ok| *ok = false);
    }
    let mut out = end_to_end(&setup_walls, &timed, &good);
    // Every cycle extracts from every row of every table.
    let rows = cfg.rows * rig.queries.len() * timed.blocks.len();
    allocs.report(rows as u64, &mut out);
    if cfg.trace {
        layers(cfg, &rig, &timed, &good, &rec, &mut out)?;
        write_trace(cfg, &rec, &mut out)?;
    }
    Ok(out)
}

/// Replay the cache build from outside: read every payload column through
/// `TableReader`, project each table's cached paths with the tape parser
/// (what the cacher calls), and write the values as a scratch Norc table.
/// One thread per split, as the cacher does.
fn replay(rig: &Rig, scratch: &Path) -> Res<Replay> {
    let mut out = Replay::default();
    let catalog = Catalog::open(&rig.root).ctx("open replay catalog")?;
    let _ = std::fs::remove_dir_all(scratch);
    let mut sink = Catalog::open(scratch).ctx("open scratch catalog")?;
    // A cycle opens its splits through the session's warm footer cache:
    // warm this one too, or the read replay pays forty file checksums.
    for q in &rig.queries {
        let table = catalog.table(DATABASE, &q.table).ctx("raw table")?;
        table
            .reader()
            .collect::<Result<Vec<_>, _>>()
            .ctx("warm footers")?;
    }
    let (hits, misses) = footer_counts(&catalog);
    for q in &rig.queries {
        let table = catalog.table(DATABASE, &q.table).ctx("raw table")?;
        let payload = table
            .schema()
            .index_of("payload")
            .ok_or("payload column missing")?;
        let paths: Vec<JsonPath> = q
            .paths
            .iter()
            .map(|p| JsonPath::parse(p).ctx("compile path"))
            .collect::<Res<_>>()?;

        let columns: Vec<ColumnData> = read_table(table, &[payload], table.file_count(), &mut out)?
            .into_iter()
            .map(|mut split| split.swap_remove(0))
            .collect();

        let (projected, wall) = parallel_map(&columns, columns.len(), |column| {
            let mut stats = TapeStats::default();
            let (mut busy, mut bytes) = (0u64, 0u64);
            let mut rows: Vec<Vec<Cell>> = Vec::with_capacity(column.len());
            for i in 0..column.len() {
                let mut row = vec![Cell::Null; paths.len()];
                if let Cell::Str(json) = column.get(i) {
                    let start = Instant::now();
                    let values = black_box(project_paths(black_box(&json), &paths, &mut stats));
                    busy += start.elapsed().as_nanos() as u64;
                    bytes += json.len() as u64;
                    for (slot, v) in row.iter_mut().zip(values) {
                        *slot = v.map_or(Cell::Null, Cell::Str);
                    }
                }
                rows.push(row);
            }
            Ok((rows, busy, bytes))
        })?;
        out.json_wall_ns += wall;

        let fields = (0..paths.len())
            .map(|i| Field::new(format!("c{i}"), ColumnType::Utf8))
            .collect();
        let schema = Schema::new(fields).ctx("scratch schema")?;
        let start = Instant::now();
        let written = sink
            .create_table("scratch", &q.table, schema, 0)
            .ctx("scratch table")?;
        for (rows, busy, bytes) in &projected {
            out.json_busy_ns += busy;
            out.json_bytes += bytes;
            out.json_docs += rows.len() as u64;
            written
                .append_file(rows, WriteOptions::default(), 1)
                .ctx("write scratch part")?;
        }
        out.write_wall_ns += start.elapsed().as_nanos() as u64;
        out.written_bytes += written.byte_size().ctx("scratch size")?;
    }
    let (hits_after, misses_after) = footer_counts(&catalog);
    out.footer_hits = hits_after - hits;
    out.footer_misses = misses_after - misses;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(out)
}

/// Bytes on disk of every table of `database`.
fn database_bytes(catalog: &Catalog, database: &str) -> Res<u64> {
    let mut total = 0;
    for (db, name) in catalog.list_tables() {
        if db == database {
            let table = catalog.table(&db, &name).ctx("table")?;
            total += table.byte_size().ctx("table size")?;
        }
    }
    Ok(total)
}

fn layers(
    cfg: &Config,
    rig: &Rig,
    timed: &Timed,
    good: &[bool],
    rec: &Recorder,
    out: &mut Outcome,
) -> Res<()> {
    let Some(mid) = median_block(timed, good) else {
        return Err("no cycle completed correctly: no layer budget".to_string());
    };
    let block = &timed.blocks[mid];
    let by_block = self_time_by_block(rec.spans());
    let rows = by_block
        .get(&(mid as u32 + 1))
        .ok_or("median block recorded no span")?;
    let stages = [
        "maxson.predict",
        "maxson.score",
        "maxson.cache_build",
        "maxson.install",
    ]
    .map(|name| (name, rows.get(name).copied().unwrap_or(0) as i64));
    let replay = replay(rig, &cfg.work_dir.join("scratch-cache"))?;
    let catalog = Catalog::open(&rig.root).ctx("open catalog")?;

    replay.report(out);
    out.set("block_p50_traced_ms", block.wall_ns as f64 / 1e6);
    for (name, ns) in stages {
        out.set(&format!("{name}_ms"), ns as f64 / 1e6);
    }
    out.set(
        "storage.cache_bytes_per_raw_byte",
        ratio(
            database_bytes(&catalog, CACHE_DB)? as f64,
            database_bytes(&catalog, DATABASE)? as f64,
        ),
    );

    let between = block.wall_ns as i64 - stages.iter().map(|(_, ns)| ns).sum::<i64>();
    let mut budget = stages.to_vec();
    budget.push(("residual (between stages)", between));
    out.budget(
        format!(
            "layer budget of the median cycle (wall {:.3} ms):",
            block.wall_ns as f64 / 1e6
        ),
        block.wall_ns,
        &budget,
    );
    out.notes.push(format!(
        "inside cache_build, replayed from outside: storage read {:.3} ms, json (tape project_paths) {:.3} ms, storage write {:.3} ms",
        replay.storage_wall_ns as f64 / 1e6,
        replay.json_wall_ns as f64 / 1e6,
        replay.write_wall_ns as f64 / 1e6
    ));
    Ok(())
}
