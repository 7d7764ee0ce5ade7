//! What every workload shares: configuration, warehouse generation, the
//! midnight cycle, result hashing, the closed timed loop and the end-to-end
//! figures computed from it.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

use maxson::{MaxsonPipeline, PipelineConfig};
use maxson_datagen::tables::{load_workload_tables, QuerySpec, WorkloadConfig};
use maxson_engine::{ExecMetrics, QueryResult, Session};
use maxson_storage::{Catalog, Cell};
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathLocation, QueryRecord};

use crate::plan::Stmt;
use crate::spans::Recorder;
use crate::stats::{median, percentile};

/// Database the Table II tables live in.
pub const DATABASE: &str = "mydb";
/// Rows per table. 2,000 keeps one set-up near 2.5 s, so the three set-ups
/// and the timed window of a run fit the driver's budget of 92 runs.
pub const ROWS_PER_TABLE: usize = 2000;
/// Part files per table: two splits per core on the two-core reference box.
pub const FILES_PER_TABLE: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;
/// Days of synthetic query history the predictor trains on.
const HISTORY_DAYS: u32 = 14;
/// The day whose midnight the cycle runs at (predicting `TODAY + 1`).
pub const TODAY: u32 = HISTORY_DAYS - 1;
/// A timed window never ends before this many blocks.
const MIN_BLOCKS: usize = 3;

pub type Res<T> = Result<T, String>;

/// `map_err` to a message that names what was being attempted.
pub trait Context<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plain,
    Maxson,
    Serve,
    Midnight,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Plain,
        Workload::Maxson,
        Workload::Serve,
        Workload::Midnight,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plain => "tableII_plain",
            Workload::Maxson => "tableII_maxson",
            Workload::Serve => "serve_zipf",
            Workload::Midnight => "midnight_cycle",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings, all recorded in its output.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Fixed block count instead of `seconds` (per client for `serve_zipf`).
    pub blocks: Option<usize>,
    pub trace: bool,
    pub rows: usize,
    pub setups: usize,
    /// Schema check on tiny data: gates that need the real data size are off.
    pub check: bool,
    /// Directory for generated warehouses and trace files.
    pub work_dir: PathBuf,
    /// The counting allocator's counter (traced binary only).
    pub alloc_count: Option<fn() -> u64>,
}

impl Config {
    /// Where the run's warehouse is generated.
    pub fn warehouse(&self) -> PathBuf {
        self.work_dir.join("warehouse")
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every metric the run measured, by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Print a layer budget: `rows` (label, nanoseconds) beside their share
    /// of the block's wall, which they sum to.
    pub fn budget(&mut self, title: String, wall_ns: u64, rows: &[(&str, i64)]) {
        debug_assert_eq!(rows.iter().map(|(_, ns)| ns).sum::<i64>(), wall_ns as i64);
        self.notes.push(title);
        for (label, ns) in rows {
            self.notes.push(format!(
                "  {label:<36} {:>10.3} ms {:>6.1} %",
                *ns as f64 / 1e6,
                100.0 * ratio(*ns as f64, wall_ns as f64)
            ));
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Megabytes per second of `bytes` moved in `ns` nanoseconds.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    ratio(bytes as f64 / 1e6, ns as f64 / 1e9)
}

/// The deterministic work counts of `QueryResult.metrics`, plus what the
/// wire ships.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub rows_scanned: u64,
    pub bytes_read: u64,
    pub parse_calls: u64,
    pub docs_parsed: u64,
    pub cache_hits: u64,
    pub cells_materialized: u64,
    pub footer_hits: u64,
    pub footer_misses: u64,
    pub rows_returned: u64,
}

impl Counters {
    pub fn of(result: &QueryResult) -> Counters {
        let m: &ExecMetrics = &result.metrics;
        Counters {
            rows_scanned: m.rows_scanned,
            bytes_read: m.bytes_read,
            parse_calls: m.parse_calls,
            docs_parsed: m.docs_parsed,
            cache_hits: m.cache_hits,
            cells_materialized: m.cells_materialized,
            footer_hits: m.meta_cache_hits,
            footer_misses: m.meta_cache_misses,
            rows_returned: result.rows.len() as u64,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_read += other.bytes_read;
        self.parse_calls += other.parse_calls;
        self.docs_parsed += other.docs_parsed;
        self.cache_hits += other.cache_hits;
        self.cells_materialized += other.cells_materialized;
        self.footer_hits += other.footer_hits;
        self.footer_misses += other.footer_misses;
        self.rows_returned += other.rows_returned;
    }
}

/// One statement of one block.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's statement list.
    pub stmt: usize,
    pub wall_ns: u64,
    /// Hash of the result, `None` when the statement errored or was refused.
    pub hash: Option<u64>,
    pub counters: Counters,
}

/// One operation: a block of statements, or one midnight cycle.
#[derive(Debug, Clone, Default)]
pub struct BlockRun {
    /// Sum of the statement walls (or the cycle's wall): what a client waits.
    pub wall_ns: u64,
    pub samples: Vec<Sample>,
    /// Set when the block itself failed (a cycle that errored or cached the
    /// wrong number of paths); statement failures are found by the hashes.
    pub failed: bool,
}

impl BlockRun {
    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for s in &self.samples {
            total.add(&s.counters);
        }
        total
    }
}

/// The timed window of a run.
#[derive(Debug, Default)]
pub struct Timed {
    pub blocks: Vec<BlockRun>,
    pub window_s: f64,
    /// `VmHWM` when the window closed: set-up and timed work, but not the
    /// reference sessions and layer replays the benchmark runs afterwards.
    pub peak_rss_mb: f64,
}

/// Word-at-a-time FNV-1a. Hashing runs between statements, outside every
/// timed span, so it is built for speed: byte-wise FNV would cost a tenth
/// of a Maxson-path block.
struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }
}

/// Hash of a result's column names and type-tagged cells.
pub fn hash_result(result: &QueryResult) -> u64 {
    let mut h = WordHasher(0xcbf2_9ce4_8422_2325);
    h.word(result.columns.len() as u64);
    for c in &result.columns {
        h.text(c);
    }
    h.word(result.rows.len() as u64);
    for row in &result.rows {
        h.word(row.len() as u64);
        for cell in row {
            match cell {
                Cell::Null => h.word(0),
                Cell::Bool(b) => h.word(1 + u64::from(*b)),
                Cell::Int(i) => {
                    h.word(4);
                    h.word(*i as u64);
                }
                Cell::Float(f) => {
                    h.word(5);
                    h.word(f.to_bits());
                }
                Cell::Str(s) => {
                    h.word(6);
                    h.text(s);
                }
            }
        }
    }
    h.0
}

impl Sample {
    /// Time `ask` (one statement through whatever front door the workload
    /// uses) and hash its result outside the timed span.
    pub fn time<E>(stmt: usize, ask: impl FnOnce() -> Result<QueryResult, E>) -> Sample {
        let start = Instant::now();
        let result = ask();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (hash, counters) = match &result {
            Ok(r) => (Some(hash_result(r)), Counters::of(r)),
            Err(_) => (None, Counters::default()),
        };
        Sample {
            stmt,
            wall_ns,
            hash,
            counters,
        }
    }
}

/// Generate the ten Table II tables under `root` from the run's seed.
pub fn generate(root: &Path, cfg: &Config) -> Res<Vec<QuerySpec>> {
    let mut catalog = Catalog::open(root).ctx("open warehouse")?;
    load_workload_tables(
        &mut catalog,
        &WorkloadConfig {
            database: DATABASE.to_string(),
            rows_per_table: cfg.rows,
            files_per_table: FILES_PER_TABLE,
            seed: cfg.seed,
            ..Default::default()
        },
    )
    .ctx("generate workload tables")
}

/// The training history: every Table II query recurs daily, submitted by
/// two users, so each of its JSONPaths is parsed more than once a day.
fn history(queries: &[QuerySpec]) -> Vec<QueryRecord> {
    let mut out = Vec::new();
    for day in 0..HISTORY_DAYS {
        for (qi, q) in queries.iter().enumerate() {
            let paths: Vec<JsonPathLocation> = q
                .paths
                .iter()
                .map(|p| JsonPathLocation::new(q.database.clone(), q.table.clone(), "payload", p))
                .collect();
            for user in 0..2u32 {
                out.push(QueryRecord {
                    query_id: out.len() as u64,
                    user_id: qi as u32 * 2 + user,
                    day,
                    hour: 8 + user as u8,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths.clone(),
                });
            }
        }
    }
    out
}

/// The midnight cycle as deployed: the default pipeline (unlimited budget,
/// default predictor and scoring) with the training history observed.
pub struct Cycle {
    pub pipeline: MaxsonPipeline,
    pub history: Vec<QueryRecord>,
    /// JSONPaths a full cycle caches: every path of every Table II query.
    pub expected: usize,
}

impl Cycle {
    pub fn new(root: &Path, queries: &[QuerySpec]) -> Cycle {
        let history = history(queries);
        let mut pipeline = MaxsonPipeline::new(root, PipelineConfig::default());
        pipeline.observe(history.iter());
        Cycle {
            pipeline,
            history,
            expected: queries.iter().map(|q| q.paths.len()).sum(),
        }
    }

    /// Run one cycle on `session` and require it to cache every path.
    pub fn run(&mut self, session: &mut Session, now: u64) -> Res<()> {
        let report = self
            .pipeline
            .run_midnight_cycle(session, &self.history, TODAY, now)
            .ctx("midnight cycle")?;
        let cached = report.cache.cached.len();
        if cached != self.expected {
            return Err(format!(
                "midnight cycle cached {cached} paths, expected {}",
                self.expected
            ));
        }
        Ok(())
    }
}

/// A serial reference session: one thread, no rewriter, reuse cache off.
pub fn reference_session(root: &Path) -> Res<Session> {
    let mut session = Session::open(root).ctx("open reference session")?;
    session.set_threads(Some(1));
    session.set_result_cache(None);
    Ok(session)
}

/// Reference hash of each statement, computed serially.
pub fn reference_hashes(root: &Path, stmts: &[Stmt]) -> Res<Vec<u64>> {
    let session = reference_session(root)?;
    stmts
        .iter()
        .map(|s| {
            session
                .execute(&s.sql)
                .map(|r| hash_result(&r))
                .ctx(&format!("reference {}", s.name))
        })
        .collect()
}

/// Build the workload `cfg.setups` times, each time from an empty
/// warehouse directory, and keep the last build. Returns it with every
/// set-up's wall in seconds.
pub fn repeat_setup<T>(cfg: &Config, mut build: impl FnMut(&Path) -> Res<T>) -> Res<(T, Vec<f64>)> {
    let root = cfg.warehouse();
    let mut walls = Vec::with_capacity(cfg.setups);
    let mut kept = None;
    for _ in 0..cfg.setups.max(1) {
        // Tear the previous build down before the clock starts.
        drop(kept.take());
        let _ = std::fs::remove_dir_all(&root);
        let start = Instant::now();
        kept = Some(build(&root)?);
        walls.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), walls))
}

/// The closed loop of one client: blocks back to back until the window
/// closes (or the fixed count is reached).
pub fn timed_loop(cfg: &Config, mut run_block: impl FnMut(u32) -> BlockRun) -> Res<Timed> {
    let start = Instant::now();
    let mut blocks = Vec::new();
    loop {
        blocks.push(run_block(blocks.len() as u32 + 1));
        let done = match cfg.blocks {
            Some(n) => blocks.len() >= n,
            None => start.elapsed().as_secs_f64() >= cfg.seconds && blocks.len() >= MIN_BLOCKS,
        };
        if done {
            break;
        }
    }
    Ok(Timed {
        blocks,
        window_s: start.elapsed().as_secs_f64(),
        peak_rss_mb: peak_rss_mb()?,
    })
}

/// `true` for each block whose every statement returned the reference hash.
pub fn verify(timed: &Timed, reference: impl Fn(usize) -> Option<u64>) -> Vec<bool> {
    timed
        .blocks
        .iter()
        .map(|b| {
            !b.failed
                && b.samples
                    .iter()
                    .all(|s| s.hash.is_some() && s.hash == reference(s.stmt))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("read /proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Walls (ms) of the blocks that completed correctly: a failed block
/// counts as missing every latency figure.
pub fn good_walls_ms(timed: &Timed, good: &[bool]) -> Vec<f64> {
    timed
        .blocks
        .iter()
        .zip(good)
        .filter(|(_, ok)| **ok)
        .map(|(b, _)| b.wall_ns as f64 / 1e6)
        .collect()
}

/// The end-to-end figures of a run.
pub fn end_to_end(setup_walls: &[f64], timed: &Timed, good: &[bool]) -> Outcome {
    let walls = good_walls_ms(timed, good);
    let mut out = Outcome {
        attempted: timed.blocks.len(),
        failed: good.iter().filter(|ok| !**ok).count(),
        ..Default::default()
    };
    out.set("setup_s", median(setup_walls));
    out.set("block_p50_ms", median(&walls));
    out.set("blocks_per_s", walls.len() as f64 / timed.window_s);
    out.set("peak_rss_mb", timed.peak_rss_mb);
    let p90 = match percentile(&walls, 0.9) {
        Some(v) => format!("{v:.3} ms"),
        None => "absent (fewer than 100 samples)".to_string(),
    };
    out.notes.push(format!(
        "blocks: {} attempted, {} failed, {} latency samples over {:.2} s; block_p90_ms: {p90}",
        out.attempted,
        out.failed,
        walls.len(),
        timed.window_s
    ));
    out.notes.push(format!(
        "setup walls (s): {}",
        setup_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// Allocations over the timed window, counted only in the allocation
/// probe binary.
pub struct AllocProbe {
    count: Option<fn() -> u64>,
    /// The counter at `start`, then the window's count after `stop`.
    reading: u64,
}

impl AllocProbe {
    pub fn start(cfg: &Config) -> Self {
        AllocProbe {
            count: cfg.alloc_count,
            reading: cfg.alloc_count.map_or(0, |count| count()),
        }
    }

    /// Call right after the timed window; `report` may come later.
    pub fn stop(&mut self) {
        self.reading = self.count.map_or(0, |count| count() - self.reading);
    }

    /// Report the allocations per row, given the `rows` the window handled.
    pub fn report(&self, rows: u64, out: &mut Outcome) {
        if self.count.is_some() {
            out.set(
                "engine.allocs_per_row",
                ratio(self.reading as f64, rows as f64),
            );
        }
    }
}

/// Write the run's spans as `trace-<workload>-<seed>.json` in the work
/// directory and say so.
pub fn write_trace(cfg: &Config, rec: &Recorder, out: &mut Outcome) -> Res<()> {
    let name = format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed);
    let path = cfg.work_dir.join(name);
    rec.write_json(&path).ctx("write trace")?;
    out.notes.push(format!(
        "spans: {} written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(())
}

/// Index of the block whose wall is the (lower) median among good blocks:
/// the block a layer budget is drawn for.
pub fn median_block(timed: &Timed, good: &[bool]) -> Option<usize> {
    let mut order: Vec<usize> = (0..timed.blocks.len()).filter(|&i| good[i]).collect();
    order.sort_by_key(|&i| timed.blocks[i].wall_ns);
    order.get(order.len().checked_sub(1)? / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rows: Vec<Vec<Cell>>) -> QueryResult {
        QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows,
            metrics: ExecMetrics::default(),
            plan_display: String::new(),
            epoch: 0,
        }
    }

    #[test]
    fn hash_tells_types_values_and_shapes_apart() {
        let base = hash_result(&result(vec![vec![Cell::Int(1), Cell::from("xy")]]));
        assert_eq!(
            base,
            hash_result(&result(vec![vec![Cell::Int(1), Cell::from("xy")]]))
        );
        for other in [
            vec![vec![Cell::Float(1.0), Cell::from("xy")]],
            vec![vec![Cell::Int(1), Cell::from("xz")]],
            vec![vec![Cell::Int(1), Cell::Null]],
            vec![vec![Cell::Int(1), Cell::from("xy")], vec![]],
            vec![vec![Cell::Int(1), Cell::from("x"), Cell::from("y")]],
            vec![vec![Cell::Int(1), Cell::from("xy\0")]],
        ] {
            assert_ne!(base, hash_result(&result(other)));
        }
    }

    #[test]
    fn failed_blocks_carry_no_latency_and_median_block_is_a_good_one() {
        let block = |wall_ns, hash| BlockRun {
            wall_ns,
            samples: vec![Sample {
                stmt: 0,
                wall_ns,
                hash,
                counters: Counters::default(),
            }],
            failed: false,
        };
        let timed = Timed {
            blocks: vec![
                block(30, Some(7)),
                block(10, Some(8)),
                block(20, Some(7)),
                block(5, None),
            ],
            window_s: 1.0,
            peak_rss_mb: 1.0,
        };
        let good = verify(&timed, |_| Some(7));
        assert_eq!(good, vec![true, false, true, false]);
        assert_eq!(good_walls_ms(&timed, &good).len(), 2);
        assert_eq!(median_block(&timed, &good), Some(2));
        assert_eq!(median_block(&timed, &[false; 4]), None);
    }
}
