//! Replaying a layer from outside the program: the storage reads, JSON
//! extraction and Norc writes a block causes, called directly through the
//! pinned public surface and timed here. Shared by the traced runs of every
//! workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use maxson_engine::Session;
use maxson_storage::{Catalog, ColumnData, NorcFile, Table};

use crate::rig::{mb_per_s, ratio, Context, Outcome, Res};
use crate::stats::median;

/// Times each statement is planned; the median is reported.
const PLAN_REPS: usize = 5;

/// What replaying the layers of a block measured. Walls are of whole
/// parallel phases (comparable with a block's wall); `json_busy_ns` is the
/// sum over worker threads of time inside the extraction call (a per-core
/// cost).
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub storage_wall_ns: u64,
    pub storage_bytes: u64,
    pub storage_rows: u64,
    pub footer_hits: u64,
    pub footer_misses: u64,
    pub json_wall_ns: u64,
    pub json_busy_ns: u64,
    pub json_docs: u64,
    pub json_bytes: u64,
    pub write_wall_ns: u64,
    pub written_bytes: u64,
}

impl Replay {
    pub fn add(&mut self, other: &Replay) {
        self.storage_wall_ns += other.storage_wall_ns;
        self.storage_bytes += other.storage_bytes;
        self.storage_rows += other.storage_rows;
        self.footer_hits += other.footer_hits;
        self.footer_misses += other.footer_misses;
        self.json_wall_ns += other.json_wall_ns;
        self.json_busy_ns += other.json_busy_ns;
        self.json_docs += other.json_docs;
        self.json_bytes += other.json_bytes;
        self.write_wall_ns += other.write_wall_ns;
        self.written_bytes += other.written_bytes;
    }

    /// The `json.*` and `storage.*` metrics of the replayed work.
    pub fn report(&self, out: &mut Outcome) {
        out.set(
            "json.extract_us_per_doc",
            ratio(self.json_busy_ns as f64 / 1e3, self.json_docs as f64),
        );
        out.set(
            "json.mb_per_s",
            mb_per_s(self.json_bytes, self.json_busy_ns),
        );
        out.set("json.docs", self.json_docs as f64);
        out.set(
            "storage.scan_mb_per_s",
            mb_per_s(self.storage_bytes, self.storage_wall_ns),
        );
        out.set("storage.rows", self.storage_rows as f64);
        out.set("storage.footer_hits", self.footer_hits as f64);
        out.set("storage.footer_misses", self.footer_misses as f64);
        out.set(
            "storage.write_mb_per_s",
            mb_per_s(self.written_bytes, self.write_wall_ns),
        );
    }
}

/// Run `work` over `items` on `workers` threads (item `i` on thread
/// `i % workers`), as the engine spreads splits over its pool. Returns the
/// results in item order and the wall of the whole phase.
pub fn parallel_map<I: Sync, O: Send>(
    items: &[I],
    workers: usize,
    work: impl Fn(&I) -> Res<O> + Sync,
) -> Res<(Vec<O>, u64)> {
    let workers = workers.clamp(1, items.len().max(1));
    let start = Instant::now();
    let mut slots: Vec<Option<Res<O>>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let work = &work;
                scope.spawn(move || {
                    (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, work(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("replay worker must not panic") {
                slots[i] = Some(r);
            }
        }
    });
    let wall = start.elapsed().as_nanos() as u64;
    let out = slots
        .into_iter()
        .map(|s| s.expect("every item was assigned to a worker"))
        .collect::<Res<Vec<O>>>()?;
    Ok((out, wall))
}

/// Read `columns` of every split of `table` through `TableReader`, one
/// split per worker at a time, charging `replay`'s storage figures.
/// Returns the decoded columns per split.
pub fn read_table(
    table: &Table,
    columns: &[usize],
    workers: usize,
    replay: &mut Replay,
) -> Res<Vec<Vec<ColumnData>>> {
    let opened = Instant::now();
    let files: Vec<Arc<NorcFile>> = table
        .reader()
        .collect::<Result<_, _>>()
        .ctx("open splits")?;
    replay.storage_wall_ns += opened.elapsed().as_nanos() as u64;
    let (splits, wall) = parallel_map(&files, workers, |file| {
        file.read_columns(columns, None).ctx("read columns")
    })?;
    replay.storage_wall_ns += wall;
    for split in &splits {
        replay.storage_rows += split.first().map_or(0, ColumnData::len) as u64;
        replay.storage_bytes += split.iter().map(|c| c.byte_size() as u64).sum::<u64>();
    }
    Ok(splits)
}

/// `(hits, misses)` of the catalog's footer cache so far; subtract two
/// readings to charge a replay its own.
pub fn footer_counts(catalog: &Catalog) -> (u64, u64) {
    let stats = catalog.meta_cache().stats();
    (stats.hits, stats.misses)
}

/// Median wall of `session.plan(sql)`, in nanoseconds.
pub fn plan_ns(session: &Session, sql: &str) -> Res<u64> {
    let mut walls = Vec::with_capacity(PLAN_REPS);
    for _ in 0..PLAN_REPS {
        let start = Instant::now();
        black_box(session.plan(sql).ctx("plan")?);
        walls.push(start.elapsed().as_nanos() as f64);
    }
    Ok(median(&walls) as u64)
}

/// `(engine.plan, maxson.rewrite)` nanoseconds summed over `statements`:
/// the plan on a plain session, and what the same call costs more on the
/// session under test (Fig. 13).
pub fn plan_and_rewrite_ns<'a>(
    plain: &Session,
    under_test: Option<&Session>,
    statements: impl Iterator<Item = &'a str>,
) -> Res<(u64, u64)> {
    let (mut plan, mut rewrite) = (0, 0);
    for sql in statements {
        let plain_ns = plan_ns(plain, sql)?;
        plan += plain_ns;
        if let Some(session) = under_test {
            rewrite += plan_ns(session, sql)?.saturating_sub(plain_ns);
        }
    }
    Ok((plan, rewrite))
}
