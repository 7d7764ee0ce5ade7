//! The query session: configuration, a handle on the shared warehouse, and
//! `execute`.
//!
//! [`Session::execute`] parses the SQL, plans it under one warehouse read
//! lock ([`crate::planner`] does the compiling; the session only attaches
//! the epoch and the reuse-cache generation the plan belongs to), releases
//! the lock, and runs the plan — through the cross-query reuse cache when
//! one is enabled — before charging the metric registry and the query log.
//! The scan-rewriter contract Maxson plugs into is defined by the planner
//! and re-exported here.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use maxson_obs::{Registry, SpanId, Tracer};
use maxson_storage::{Catalog, Cell, NorcMetaCache};

use crate::config::Config;
use crate::error::{EngineError, Result};
use crate::exec::{default_threads, execute_plan_traced, ExecOptions};
pub use crate::expr::JsonParserKind;
use crate::fingerprint::{canonical_stmt_text, reuse_key, stmt_fingerprint, table_key};
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use crate::planner::{self, Planned};
pub use crate::planner::{ScanContext, ScanRewrite, TableScanRewriter};
use crate::pool::SplitScheduler;
use crate::querylog::{QueryLog, QueryLogEntry};
use crate::reuse::{FillOutcome, ReuseCache, ReuseStats};
use crate::sql::ast::SelectStatement;
use crate::sql::parse_select;

type Rows = Vec<Vec<Cell>>;

/// Result of executing one query.
#[derive(Debug)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Cell>>,
    /// Per-phase metrics.
    pub metrics: ExecMetrics,
    /// Rendered plan (EXPLAIN-style).
    pub plan_display: String,
    /// Warehouse epoch this query planned against (bumped by every
    /// rewriter install / midnight-cycle swap). A query sees exactly one
    /// epoch end to end — never a mix of old and new cache tables.
    pub epoch: u64,
}

impl QueryResult {
    /// Render as an aligned text table.
    pub fn to_display_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.to_string();
                        if let Some(w) = widths.get_mut(i) {
                            *w = (*w).max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, name) in self.columns.iter().enumerate() {
            out.push_str(&format!("{name:<w$}  ", w = widths[i]));
        }
        out.push('\n');
        for row in rendered {
            for (i, v) in row.iter().enumerate() {
                out.push_str(&format!("{v:<w$}  ", w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Reuse probe: a hit serves the cached rows directly — no operator runs,
/// no split task is scheduled (so no fair-scheduler lease is ever taken),
/// no document is parsed.
fn probe(cache: &ReuseCache, key: u64, epoch: u64, metrics: &mut ExecMetrics) -> Option<Rows> {
    let hit = cache.lookup(key, epoch);
    match hit {
        Some(_) => metrics.reuse_hits = 1,
        None => metrics.reuse_misses = 1,
    }
    hit.map(|rows| (*rows).clone())
}

/// Offer a miss's output for admission under `key`; `start` is when the
/// query began executing, the cost the cache weighs.
/// The fill is contained: a panic inside the cache disables it loudly and
/// the already-computed rows are returned unchanged.
fn offer_for_admission(
    cache: &ReuseCache,
    key: u64,
    pq: &PlannedQuery,
    start: Instant,
    rows: Rows,
    metrics: &mut ExecMetrics,
) -> (Rows, &'static str) {
    if cache.is_disabled() {
        return (rows, "miss");
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let shared = Arc::new(rows);
    let fill = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.fill(
            key,
            Arc::clone(&shared),
            pq.epoch,
            pq.tables.clone(),
            wall_ns,
            pq.reuse_gen,
        )
    }));
    let status = match fill {
        Ok(FillOutcome::Admitted) => {
            metrics.reuse_fills = 1;
            "fill"
        }
        Ok(FillOutcome::Rejected) => "miss",
        Ok(FillOutcome::Disabled) => "disabled",
        Err(_) => {
            cache.disable();
            "poisoned"
        }
    };
    let rows = Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone());
    (rows, status)
}

/// Case-insensitively strip a leading SQL keyword (plus surrounding
/// whitespace); `None` when `text` does not start with it as a whole word.
fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let t = text.trim_start();
    // `get`, not slicing: a multibyte character may straddle the cut.
    if t.get(..keyword.len())
        .is_some_and(|p| p.eq_ignore_ascii_case(keyword))
    {
        let rest = &t[keyword.len()..];
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            return Some(rest);
        }
    }
    None
}

/// One planned query: the compiled plan plus the planning-time snapshot
/// (epoch, statement, scanned tables, reuse handle) the execution and
/// bookkeeping phases consume after the warehouse lock is released.
struct PlannedQuery {
    plan: LogicalPlan,
    planning: Duration,
    /// Output column names.
    names: Vec<String>,
    /// Warehouse epoch the plan belongs to.
    epoch: u64,
    /// Deduplicated `(db.table, jsonpath)` pairs the plan extracts (the
    /// workload-sketch attribution key).
    planned_paths: Vec<(String, String)>,
    /// `db.table` identities this query scans (reuse dependency tracking).
    tables: Vec<String>,
    /// The parsed statement — the canonical fingerprint is derived from
    /// this, not the physical plan, so rewriter installs (Maxson's cache
    /// rewrite) never change a query's identity.
    stmt: SelectStatement,
    /// The warehouse's reuse cache at planning time (`None` = off).
    reuse: Option<Arc<ReuseCache>>,
    /// The cache's write generation at planning time, captured under the
    /// same warehouse read lock that pins this plan's table snapshots. A
    /// fill is only honoured while the generation is unchanged — any
    /// invalidation in between means the executed rows came from a
    /// pre-invalidation snapshot and must not be cached.
    reuse_gen: u64,
}

/// The shared, swappable state every session cloned from one warehouse
/// points at: the catalog, the installed rewriter, and the epoch counter
/// that versions them. Guarded by one `RwLock` so a query's planning phase
/// sees catalog + rewriter + epoch as a single consistent snapshot, and the
/// midnight cycle's install replaces all three atomically.
struct Warehouse {
    catalog: Catalog,
    rewriter: Option<Arc<dyn TableScanRewriter>>,
    epoch: u64,
    /// Cross-query reuse cache shared by every session cloned from this
    /// warehouse (`None` = reuse off, the default). Lives here so the
    /// catalog write guard and the epoch swap can invalidate it.
    reuse: Option<Arc<ReuseCache>>,
}

/// Read guard over the session's catalog (derefs to [`Catalog`]). Held only
/// while planning or inspecting metadata — queries execute against cloned
/// [`maxson_storage::Table`] snapshots with the lock released.
pub struct CatalogRead<'a>(RwLockReadGuard<'a, Warehouse>);

impl Deref for CatalogRead<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0.catalog
    }
}

/// Write guard over the session's catalog (derefs to `&mut` [`Catalog`]),
/// for data loading. Blocks planning in other sessions while held.
pub struct CatalogWrite<'a>(RwLockWriteGuard<'a, Warehouse>);

impl Deref for CatalogWrite<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0.catalog
    }
}

impl DerefMut for CatalogWrite<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        &mut self.0.catalog
    }
}

impl Drop for CatalogWrite<'_> {
    fn drop(&mut self) {
        // Mutable catalog access may have changed any table's data, so the
        // reuse cache drops everything. Callers that know the single table
        // they touched can use `Session::invalidate_reuse_table` for
        // finer-grained invalidation instead of holding this guard.
        //
        // `invalidate_all` also bumps the cache's write generation, which
        // closes the fill-after-invalidate race: a query planned before
        // this write executes against its pre-write table snapshot, and
        // without the generation check it could fill the cache *after*
        // this invalidation — at the unchanged warehouse epoch — leaving a
        // persistently stale entry. Its fill carries the planning-time
        // generation and is rejected instead.
        if let Some(reuse) = &self.0.reuse {
            reuse.invalidate_all();
        }
    }
}

/// A warehouse session.
///
/// Cloning is cheap and shares the warehouse: clones see the same catalog,
/// rewriter, epoch, and Norc metadata cache, and record into the same trace
/// buffer. Per-session knobs (parser, thread count, split scheduler) stay
/// independent per clone — the serving front end gives every connection
/// its own clone over one warehouse.
#[derive(Clone)]
pub struct Session {
    warehouse: Arc<RwLock<Warehouse>>,
    /// JSON parser behind `get_json_object` (`MAXSON_PARSER`).
    parser_kind: JsonParserKind,
    /// Explicit worker-thread count (`MAXSON_THREADS`); `None` = one per
    /// available core.
    threads_override: Option<usize>,
    /// The override, or one worker per available core — resolved when the
    /// count is set, never per execute.
    threads: usize,
    /// Cooperative split scheduler consulted around every split task (the
    /// server installs its fair-share scheduler here). `None` = run freely.
    scheduler: Option<Arc<dyn SplitScheduler>>,
    /// Span recorder. One buffer for the session's lifetime:
    /// query executions, plan rewrites, and offline-pipeline stages all
    /// record into it (clones share the buffer), so a single trace file
    /// shows the daily job next to the queries it accelerated. Disabled
    /// by default — every hook is then a branch on a bool.
    tracer: Tracer,
    /// Where to write the Chrome trace-event JSON (`MAXSON_TRACE`;
    /// rewritten after every execute). `None` = no export.
    trace_path: Option<PathBuf>,
    /// Always-on metric registry charged after every execute. Defaults to
    /// the process-global [`Registry`]; tests inject fresh instances via
    /// [`Session::set_metrics_registry`] to stay isolated.
    registry: Arc<Registry>,
    /// Structured JSONL query log (`MAXSON_QUERY_LOG`); `None` = off.
    /// Clones share the handle, so one file serializes whole lines across
    /// every connection of a serving warehouse.
    query_log: Option<Arc<QueryLog>>,
    /// Queries whose wall time exceeds this get `slow=true` in the log
    /// (`MAXSON_SLOW_MS`).
    slow_threshold: Duration,
}

impl Session {
    /// Open a session over a warehouse directory under the process
    /// environment's configuration: [`Session::open_with`] over
    /// [`Config::from_env`].
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Session::open_with(root, Config::from_env())
    }

    /// Open a session over a warehouse directory under `config`. The
    /// footer cache the catalog opens part files through is created with
    /// the configured byte budget; a named trace file starts
    /// tracing enabled, and every execute rewrites it; a named query log is
    /// opened for appending; a result-cache budget enables the reuse cache.
    /// Every knob is consumed here: what the session runs under afterwards
    /// lives in the state it configures, not in a copy of `config`.
    pub fn open_with(root: impl AsRef<Path>, config: Config) -> Result<Self> {
        let Config {
            threads,
            parser,
            meta_cache_bytes,
            trace,
            query_log,
            slow_threshold,
            result_cache_mb,
        } = config;
        let tracer = Tracer::new();
        tracer.set_enabled(trace.is_some());
        let query_log = query_log
            .map(|p| QueryLog::open(p).map(Arc::new))
            .transpose()?;
        let meta_cache = Arc::new(NorcMetaCache::new(meta_cache_bytes));
        Ok(Session {
            warehouse: Arc::new(RwLock::new(Warehouse {
                catalog: Catalog::open_with_cache(root.as_ref(), meta_cache)?,
                rewriter: None,
                epoch: 0,
                reuse: result_cache_mb.map(|mb| Arc::new(ReuseCache::new(mb))),
            })),
            parser_kind: parser,
            threads_override: threads,
            threads: threads.unwrap_or_else(default_threads),
            scheduler: None,
            tracer,
            trace_path: trace,
            registry: Arc::clone(Registry::global()),
            query_log,
            slow_threshold,
        })
    }

    /// Lock helpers: a panic while a guard is held (e.g. a rewriter
    /// panicking during planning) must not poison the warehouse for every
    /// other session, so poisoned locks are recovered rather than
    /// propagated. Write guards are only held across in-memory struct
    /// updates, which either complete or leave the previous state intact.
    fn wh_read(&self) -> RwLockReadGuard<'_, Warehouse> {
        self.warehouse
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wh_write(&self) -> RwLockWriteGuard<'_, Warehouse> {
        self.warehouse
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The session's tracer. Clone it into rewriters and providers so their
    /// spans land in the same buffer; the clones follow this session's
    /// enable toggle. It records spans only: counts live in each query's
    /// `ExecMetrics` and in [`Session::metrics_registry`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Set (or clear) the Chrome trace-event export path. Setting a path
    /// enables tracing; clearing it disables tracing (use
    /// [`Session::set_trace_enabled`] for in-memory tracing without
    /// export).
    pub fn set_trace_path(&mut self, path: Option<PathBuf>) {
        self.tracer.set_enabled(path.is_some());
        self.trace_path = path;
    }

    /// Toggle in-memory tracing without touching the export path. The
    /// buffer keeps accumulating across queries; use
    /// `session.tracer().reset()` between queries for per-query rollups.
    pub fn set_trace_enabled(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The metric registry this session charges (the process-global one
    /// unless [`Session::set_metrics_registry`] injected another).
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Point this session at a different metric registry. Clones made
    /// afterwards inherit it; the serving front end passes one registry to
    /// every connection, and tests pass fresh instances for isolation.
    pub fn set_metrics_registry(&mut self, registry: Arc<Registry>) {
        self.registry = registry;
    }

    /// Open (or disable) the structured JSONL query log. Equivalent to
    /// launching with `MAXSON_QUERY_LOG=<path>`; see [`crate::querylog`]
    /// for the line schema.
    pub fn set_query_log(&mut self, path: Option<PathBuf>) -> Result<()> {
        self.query_log = path.map(QueryLog::open).transpose()?.map(Arc::new);
        Ok(())
    }

    /// Wall-time threshold past which a query is flagged `slow=true` in
    /// the query log (`MAXSON_SLOW_MS`; default 1000 ms).
    pub fn set_slow_threshold(&mut self, threshold: Duration) {
        self.slow_threshold = threshold;
    }

    /// Write the accumulated trace to the export path, if one is set.
    /// Called automatically after every `execute`.
    pub fn flush_trace(&self) -> Result<()> {
        if let Some(path) = &self.trace_path {
            self.tracer.export_chrome(path).map_err(|e| {
                EngineError::exec(format!("trace export to {}: {e}", path.display()))
            })?;
        }
        Ok(())
    }

    /// Set (or clear) the worker-thread count for split-parallel execution.
    /// `None` means one worker per available core, resolved here rather
    /// than at each `execute`; `Some(1)` has the calling thread run every
    /// split task itself.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads_override = threads;
        self.threads = threads.unwrap_or_else(default_threads);
    }

    /// The configured thread count, if any (`None` = one per core).
    pub fn threads(&self) -> Option<usize> {
        self.threads_override
    }

    /// Install (or clear) the cooperative split scheduler consulted around
    /// every split task this session executes. The serving front end points
    /// every connection's session at one shared fair-share scheduler.
    pub fn set_split_scheduler(&mut self, scheduler: Option<Arc<dyn SplitScheduler>>) {
        self.scheduler = scheduler;
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions::with_threads(self.threads).with_scheduler(self.scheduler.clone())
    }

    /// Which JSON parser `get_json_object` uses (Fig. 15's axis),
    /// overriding the configured `MAXSON_PARSER`.
    pub fn set_parser_kind(&mut self, kind: JsonParserKind) {
        self.parser_kind = kind;
    }

    /// The structural-kernel tier currently in effect: process-wide, the
    /// best available unless `maxson_json::kernels::set_active` pinned
    /// another.
    pub fn simd_kernel(&self) -> maxson_json::kernels::Kernel {
        maxson_json::kernels::active()
    }

    /// Current JSON parser kind.
    pub fn parser_kind(&self) -> JsonParserKind {
        self.parser_kind
    }

    /// Install (or clear) the scan rewriter — Maxson plugs in here. The
    /// install is atomic: it takes the warehouse write lock and bumps the
    /// epoch, so every query planned afterwards sees the new rewriter and
    /// in-flight queries finish against the snapshot they planned with.
    pub fn set_scan_rewriter(&mut self, rewriter: Option<Box<dyn TableScanRewriter>>) {
        let mut wh = self.wh_write();
        wh.rewriter = rewriter.map(Arc::from);
        wh.epoch += 1;
        // Old-epoch entries would miss the generation check anyway; clear
        // eagerly so their memory is released now.
        if let Some(reuse) = &wh.reuse {
            reuse.invalidate_all();
        }
    }

    /// Enable (or disable, with `None`) the cross-query reuse cache, with
    /// a byte budget of `budget_mb` MiB. Equivalent to launching with
    /// `MAXSON_RESULT_CACHE_MB=<mb>`. The cache is warehouse-shared: every
    /// session cloned from this one probes and fills the same cache (the
    /// serving front end enables it once and all connections benefit).
    pub fn set_result_cache(&mut self, budget_mb: Option<u64>) {
        let mut wh = self.wh_write();
        wh.reuse = budget_mb.map(|mb| Arc::new(ReuseCache::new(mb)));
    }

    /// Handle on the active reuse cache, if enabled (tests use this to arm
    /// failure-injection hooks and inspect stats).
    pub fn reuse_cache(&self) -> Option<Arc<ReuseCache>> {
        self.wh_read().reuse.clone()
    }

    /// Point-in-time reuse-cache statistics (`None` when reuse is off).
    pub fn reuse_stats(&self) -> Option<ReuseStats> {
        self.wh_read().reuse.as_ref().map(|c| c.stats())
    }

    /// Drop every reuse entry computed from `database.table` — the
    /// finer-grained alternative to the coarse invalidate-everything the
    /// catalog write guard performs, for callers that appended to exactly
    /// one table. Also bumps the cache's write generation, so queries
    /// already executing against the pre-append snapshot cannot fill the
    /// cache with stale rows afterwards.
    pub fn invalidate_reuse_table(&self, database: &str, table: &str) {
        if let Some(reuse) = &self.wh_read().reuse {
            reuse.invalidate_table(&table_key(database, table));
        }
    }

    /// Atomically swap the whole warehouse view: re-open the catalog from
    /// disk (keeping the warm Norc metadata cache), install `rewriter`, and
    /// bump the epoch — all under one write lock. This is the midnight
    /// cycle's install step: queries planned before the swap keep reading
    /// the old cache-table snapshot; queries planned after see only the new
    /// one. Returns the new epoch.
    pub fn swap_warehouse_epoch(
        &self,
        rewriter: Option<Box<dyn TableScanRewriter>>,
    ) -> Result<u64> {
        // Build the fresh catalog view before taking the write lock, so
        // concurrent planners are only blocked for the pointer swap.
        let (root, meta_cache) = {
            let wh = self.wh_read();
            (
                wh.catalog.root().to_path_buf(),
                Arc::clone(wh.catalog.meta_cache()),
            )
        };
        let catalog = Catalog::open_with_cache(root, meta_cache)?;
        let mut wh = self.wh_write();
        wh.catalog = catalog;
        wh.rewriter = rewriter.map(Arc::from);
        wh.epoch += 1;
        // Epoch-anchored reuse correctness: entries filled before (or by
        // in-flight queries racing) the swap carry the old epoch and can
        // never match a post-swap probe — the generation check is the real
        // guard. The eager clear just releases their memory now.
        if let Some(reuse) = &wh.reuse {
            reuse.invalidate_all();
        }
        Ok(wh.epoch)
    }

    /// The current warehouse epoch (bumped by every rewriter install).
    pub fn epoch(&self) -> u64 {
        self.wh_read().epoch
    }

    /// The underlying catalog (read guard; derefs to [`Catalog`]).
    pub fn catalog(&self) -> CatalogRead<'_> {
        CatalogRead(self.wh_read())
    }

    /// Mutable catalog access for data loading (write guard). Planning in
    /// every session sharing this warehouse blocks while the guard is held,
    /// so keep its scope tight.
    pub fn catalog_mut(&mut self) -> CatalogWrite<'_> {
        CatalogWrite(self.wh_write())
    }

    /// Compile SQL into a plan without executing. Returns the plan and the
    /// planning time — the measurement behind Fig. 13.
    pub fn plan(&self, sql: &str) -> Result<(LogicalPlan, std::time::Duration, Vec<String>)> {
        let pq = self.plan_snapshot(sql)?;
        Ok((pq.plan, pq.planning, pq.names))
    }

    /// Plan under one warehouse read lock. The returned plan holds cloned
    /// `Table` handles, so the lock is released when this returns and
    /// execution proceeds against an immutable snapshot; everything the
    /// post-execution bookkeeping needs (epoch, fingerprint identity,
    /// scanned tables, reuse handle) rides along in the same snapshot.
    fn plan_snapshot(&self, sql: &str) -> Result<PlannedQuery> {
        let start = Instant::now();
        let stmt = parse_select(sql)?;
        let wh = self.wh_read();
        let Planned { plan, names, paths } =
            planner::plan(&wh.catalog, wh.rewriter.as_deref(), &stmt)?;
        // `db.table` identities this query reads, for reuse-cache
        // dependency tracking (shared identity with the workload sketch).
        let mut tables = vec![table_key(&stmt.from.database, &stmt.from.table)];
        if let Some(join) = &stmt.join {
            let key = table_key(&join.table.database, &join.table.table);
            if !tables.contains(&key) {
                tables.push(key);
            }
        }
        Ok(PlannedQuery {
            plan,
            planning: start.elapsed(),
            names,
            epoch: wh.epoch,
            planned_paths: paths,
            tables,
            stmt,
            reuse_gen: wh.reuse.as_ref().map_or(0, |c| c.generation()),
            reuse: wh.reuse.clone(),
        })
    }

    /// Execute a SELECT statement. A leading `EXPLAIN` keyword returns the
    /// plan tree (one row per line) instead of executing; `EXPLAIN
    /// ANALYZE` executes the query under a tracer and returns the recorded
    /// span tree annotated with per-operator wall time, rows, and cache
    /// counters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        if let Some(rest) = strip_keyword(sql, "explain") {
            if let Some(inner) = strip_keyword(rest, "analyze") {
                return self.explain_analyze(inner);
            }
            let pq = self.plan_snapshot(rest)?;
            let metrics = ExecMetrics {
                planning: pq.planning,
                ..Default::default()
            };
            let display = pq.plan.display();
            return Ok(QueryResult {
                columns: vec!["plan".to_string()],
                rows: display.lines().map(|l| vec![Cell::from(l)]).collect(),
                metrics,
                plan_display: display,
                epoch: pq.epoch,
            });
        }
        let (result, _) = self.execute_traced(sql, &self.tracer)?;
        self.flush_trace()?;
        Ok(result)
    }

    /// Plan and run `sql` under `tracer`, recording a query-root span (with
    /// a `planning` child covering compile + rewrite) over the whole
    /// operator tree. Returns the root span id for rendering.
    fn execute_traced(&self, sql: &str, tracer: &Tracer) -> Result<(QueryResult, Option<SpanId>)> {
        let root = tracer.span("query");
        let root_id = root.id();
        if root.is_recording() {
            root.attr("sql", sql.trim());
        }
        let pq = {
            let _planning_span = tracer.child("planning", root_id);
            self.plan_snapshot(sql)?
        };
        let mut metrics = ExecMetrics {
            planning: pq.planning,
            ..Default::default()
        };
        let parser = self.parser_kind.name();
        // Identity is derived from the *statement*, never the physical
        // plan, so a Maxson cache-rewritten plan fingerprints identically
        // to its logical source.
        let fingerprint = stmt_fingerprint(&pq.stmt);
        let plan_display = pq.plan.display();
        let run = |plan: &LogicalPlan, metrics: &mut ExecMetrics| {
            let opts = self.exec_options();
            execute_plan_traced(plan, self.parser_kind, metrics, &opts, tracer, root_id)
        };
        let start = Instant::now();
        let (rows, reuse_status) = match pq.reuse.as_deref() {
            None => (run(&pq.plan, &mut metrics)?, "off"),
            Some(cache) if cache.is_disabled() => (run(&pq.plan, &mut metrics)?, "disabled"),
            Some(cache) => {
                let key = reuse_key(parser, &canonical_stmt_text(&pq.stmt));
                match probe(cache, key, pq.epoch, &mut metrics) {
                    Some(rows) => (rows, "hit"),
                    None => {
                        let rows = run(&pq.plan, &mut metrics)?;
                        offer_for_admission(cache, key, &pq, start, rows, &mut metrics)
                    }
                }
            }
        };
        metrics.total = start.elapsed();
        root.attr("rows", rows.len());
        if pq.reuse.is_some() {
            // Only when reuse is enabled, so cache-off EXPLAIN ANALYZE
            // output (and its goldens) is unchanged.
            root.attr("reuse", reuse_status);
        }
        if metrics.bitmap_builds > 0 {
            // Which structural-kernel tier built the bitmaps and how long
            // it spent — the tentpole numbers `EXPLAIN ANALYZE` surfaces.
            let kernel = maxson_json::kernels::Kernel::from_id(metrics.simd_kernel as u8)
                .map_or("unknown", |k| k.name());
            root.attr("simd", kernel);
            root.attr("bitmap_wall", format!("{:?}", metrics.bitmap_build_wall));
        }
        drop(root);
        self.finish_query(sql, fingerprint, reuse_status, &pq, &metrics, rows.len())?;
        Ok((
            QueryResult {
                columns: pq.names,
                rows,
                metrics,
                plan_display,
                epoch: pq.epoch,
            },
            root_id,
        ))
    }

    /// Post-execution telemetry: charge the process-wide registry, feed the
    /// workload sketch, and append the query-log line. Pure observation —
    /// reads `metrics`, never mutates it — so results and work counters are
    /// byte-identical with or without a query log installed.
    fn finish_query(
        &self,
        sql: &str,
        fingerprint: u64,
        reuse_status: &str,
        pq: &PlannedQuery,
        metrics: &ExecMetrics,
        rows: usize,
    ) -> Result<()> {
        let parser = self.parser_kind.name();
        let labels = [("parser", parser)];
        let r = &self.registry;
        r.counter("maxson_queries_total", &labels).inc();
        r.histogram("maxson_query_wall_seconds", &labels)
            .observe(metrics.total);
        // Every summed `u64` field of the declaration, as `maxson_<field>_total`.
        for (series, value) in metrics.counters() {
            r.counter(series, &[]).add(value);
        }
        if metrics.bitmap_builds > 0 {
            r.histogram("maxson_bitmap_build_wall_seconds", &[])
                .observe(metrics.bitmap_build_wall);
            r.gauge("maxson_simd_kernel", &[]).max(metrics.simd_kernel);
        }
        r.gauge("maxson_epoch", &[]).max(pq.epoch);
        if let Some(cache) = &pq.reuse {
            // Reuse exposition beyond the per-query counters: cumulative
            // cache-wide state as gauges, and the hit-serving wall (the
            // latency a hit actually cost the client) as a histogram.
            let stats = cache.stats();
            r.gauge("maxson_reuse_evictions", &[]).max(stats.evictions);
            r.gauge("maxson_reuse_stale_rejects", &[])
                .max(stats.stale_rejects);
            r.gauge("maxson_reuse_bytes_resident", &[])
                .set(stats.bytes_resident);
            if metrics.reuse_hits > 0 {
                r.histogram("maxson_reuse_hit_wall_seconds", &[])
                    .observe(metrics.total);
            }
            if reuse_status == "poisoned" {
                r.counter("maxson_reuse_poisoned_total", &[]).inc();
            }
        }
        let slow = metrics.total > self.slow_threshold;
        if slow {
            r.counter("maxson_slow_queries_total", &labels).inc();
        }

        // Workload sketch: attribute each extracted path's evaluation count
        // to the table(s) whose scan planned it. A path text shared by two
        // scanned tables charges both (over-attribution is bounded by the
        // rarity of cross-table path collisions and documented in DESIGN).
        for (path, count) in &metrics.path_extracts {
            for (table, planned) in &pq.planned_paths {
                if planned == path {
                    r.record_path(table, path, *count);
                }
            }
        }

        if let Some(log) = &self.query_log {
            let entry = QueryLogEntry {
                fingerprint,
                sql: sql.trim(),
                parser,
                simd: maxson_json::kernels::active().name(),
                threads: self.threads as u64,
                epoch: pq.epoch,
                reuse: reuse_status,
                rows: rows as u64,
                wall: metrics.total,
                slow_threshold: self.slow_threshold,
            };
            log.record(&entry, metrics)?;
        }
        Ok(())
    }

    /// `EXPLAIN ANALYZE <query>`: run the query traced and render the span
    /// tree. Uses the session tracer when it is already enabled (so the
    /// analyzed run also lands in the `MAXSON_TRACE` export); otherwise a
    /// temporary tracer scoped to this call.
    fn explain_analyze(&self, sql: &str) -> Result<QueryResult> {
        let local;
        let tracer = if self.tracer.is_enabled() {
            &self.tracer
        } else {
            local = Tracer::enabled();
            &local
        };
        let (result, root) = self.execute_traced(sql, tracer)?;
        self.flush_trace()?;
        let root = root.expect("tracer is enabled");
        let text = crate::explain::render_analyze(&tracer.snapshot(), root.0);
        Ok(QueryResult {
            columns: vec!["explain analyze".to_string()],
            rows: text.lines().map(|l| vec![Cell::from(l)]).collect(),
            metrics: result.metrics,
            plan_display: result.plan_display,
            epoch: result.epoch,
        })
    }
}
