//! The query session: catalog + planner + executor.
//!
//! [`Session::execute`] compiles SQL to a resolved plan and runs it. The
//! compile step exposes the hook the paper's Algorithm 1 needs:
//! a [`TableScanRewriter`] observes every table scan being planned —
//! together with the `get_json_object` calls that will run over it and the
//! query predicate — and may substitute its own [`ScanProvider`] whose
//! output schema carries extra pre-parsed columns. JSONPath calls the
//! rewriter claims are compiled to plain column references (the paper's
//! *placeholders*) instead of parse expressions.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use maxson_json::JsonPath;
use maxson_obs::{Registry, SpanId, Tracer};
use maxson_storage::{Catalog, Cell, CmpOp, ColumnType, Field, MmapMode, Schema, SearchArgument};

use crate::error::{EngineError, Result};
use crate::exec::{execute_plan_traced, ExecOptions};
use crate::expr::Expr;
pub use crate::expr::JsonParserKind;
use crate::fingerprint::{
    canonical_fragment_text, canonical_stmt_text, reuse_key, stmt_fingerprint, table_key,
};
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use crate::pool::SplitScheduler;
use crate::querylog::{QueryLog, QueryLogEntry};
use crate::reuse::{CachedEntry, CachedRowsProvider, FillOutcome, ReuseCache, ReuseStats};
use crate::scan::{NorcScanProvider, ScanProvider};
use crate::sql::ast::{AggFunc, BinaryOp, SelectItem, SelectStatement, SqlExpr, TableRef};
use crate::sql::parse_select;

/// Everything a [`TableScanRewriter`] gets to see about a scan being
/// planned.
#[derive(Debug)]
pub struct ScanContext<'a> {
    /// Database of the scanned table.
    pub database: &'a str,
    /// Name of the scanned table.
    pub table: &'a str,
    /// The raw table schema.
    pub table_schema: &'a Schema,
    /// Raw columns referenced as plain columns (must appear in the output).
    pub raw_columns: &'a [String],
    /// Deduplicated `get_json_object` calls over this table:
    /// `(column_name, jsonpath_text)`.
    pub json_calls: &'a [(String, String)],
    /// The WHERE clause, for predicate-pushdown decisions.
    pub predicate: Option<&'a SqlExpr>,
}

/// The rewriter's answer: a replacement provider plus the JSONPath calls it
/// resolved to provider output columns.
pub struct ScanRewrite {
    /// The provider to scan instead of the default Norc reader. Its schema
    /// must contain every `raw_column`, the JSON column of every call *not*
    /// in `resolved_paths`, and one column per resolved path.
    pub provider: Box<dyn ScanProvider>,
    /// `(column_name, path_text) -> provider output column` for calls served
    /// without parsing.
    pub resolved_paths: Vec<((String, String), String)>,
}

/// Hook invoked for every table scan during planning (Algorithm 1's entry
/// point). Returning `None` keeps the default scan.
///
/// `Send + Sync` because installed rewriters live in the shared warehouse
/// state behind an `Arc`, consulted concurrently by every cloned session.
pub trait TableScanRewriter: Send + Sync {
    /// Human-readable name for plan display.
    fn name(&self) -> &str;
    /// Inspect the scan and optionally take it over.
    fn rewrite_scan(&self, ctx: &ScanContext<'_>) -> Result<Option<ScanRewrite>>;
}

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

/// Split `LIMIT`/`DISTINCT` off the top of a physical plan — the operators
/// the reuse cache peels. Both run *after* their input is fully
/// materialized in this engine (`Limit` truncates, `Distinct` dedups), so
/// executing the peeled fragment costs exactly what the full plan's input
/// cost and replaying the uppers over its rows is byte-identical.
fn peel_uppers(plan: LogicalPlan) -> LogicalPlan {
    let plan = match plan {
        LogicalPlan::Limit { input, .. } => *input,
        p => p,
    };
    match plan {
        LogicalPlan::Distinct { input } => *input,
        p => p,
    }
}

/// Rebuild the peeled uppers from the statement over `input` (a cached-
/// rows scan), in the same order `plan_statement` stacks them: `Distinct`
/// below `Limit`.
fn rebuild_uppers(input: LogicalPlan, stmt: &SelectStatement) -> LogicalPlan {
    let mut plan = input;
    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    plan
}

/// Schema of a query's visible output columns (the engine is value-typed
/// at runtime, so every output column is `Utf8` — mirroring the projection
/// schemas `plan_statement` builds). `None` if the names collide, which
/// the planner rejects earlier; the caller skips caching in that case.
fn output_schema(names: &[String]) -> Option<Schema> {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(n.clone(), ColumnType::Utf8))
            .collect(),
    )
    .ok()
}

/// Case-insensitively strip a leading SQL keyword (plus surrounding
/// whitespace); `None` when `text` does not start with it as a whole word.
fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let t = text.trim_start();
    if t.len() >= keyword.len() && t[..keyword.len()].eq_ignore_ascii_case(keyword) {
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
/// buffer. Per-session knobs (parser, thread count, shared-parse, prefilter,
/// split scheduler) stay independent per clone — the serving front end gives
/// every connection its own clone over one warehouse.
#[derive(Clone)]
pub struct Session {
    warehouse: Arc<RwLock<Warehouse>>,
    parser_kind: JsonParserKind,
    /// Sparser-style raw prefiltering on JSON equality predicates.
    prefilter_enabled: bool,
    /// Explicit worker-thread override. `None` defers to `MAXSON_THREADS`
    /// (default: available cores); `Some(1)` runs split tasks inline.
    threads: Option<usize>,
    /// Explicit shared-parse override. `None` defers to
    /// `MAXSON_SHARED_PARSE` (default: on).
    shared_parse: Option<bool>,
    /// Cooperative split scheduler consulted around every split task (the
    /// server installs its fair-share scheduler here). `None` = run freely.
    scheduler: Option<Arc<dyn SplitScheduler>>,
    /// Span/counter collector. One buffer for the session's lifetime:
    /// query executions, plan rewrites, and offline-pipeline stages all
    /// record into it (clones share the buffer), so a single trace file
    /// shows the daily job next to the queries it accelerated. Disabled
    /// by default — every hook is then a branch on a bool.
    tracer: Tracer,
    /// Where to write the Chrome trace-event JSON (rewritten after every
    /// execute). `None` = no export.
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
    /// (`MAXSON_SLOW_MS`, default 1000 ms).
    slow_threshold: Duration,
}

impl Session {
    /// Open a session over a warehouse directory. When the `MAXSON_TRACE`
    /// environment variable names a file, tracing starts enabled and every
    /// execute rewrites that file with the accumulated Chrome trace. The
    /// `MAXSON_PARSER` environment variable (`jackson` / `mison` / `tape`,
    /// case-insensitive) selects the default JSON parser; unrecognized
    /// values keep the Jackson default, and [`Session::set_parser`]
    /// overrides either way. The structural-kernel tier resolves lazily
    /// from `MAXSON_SIMD` on first bitmap build (see
    /// [`Session::set_simd`]), and Norc file mapping from `MAXSON_MMAP`
    /// at each split open.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let trace_path = std::env::var_os("MAXSON_TRACE")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let parser_kind = std::env::var("MAXSON_PARSER")
            .ok()
            .and_then(|v| JsonParserKind::from_name(&v))
            .unwrap_or_default();
        let tracer = Tracer::new();
        tracer.set_enabled(trace_path.is_some());
        let query_log = std::env::var_os("MAXSON_QUERY_LOG")
            .filter(|v| !v.is_empty())
            .map(|p| QueryLog::open(PathBuf::from(p)).map(Arc::new))
            .transpose()?;
        let slow_threshold = std::env::var("MAXSON_SLOW_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(1000));
        // Cross-query result reuse (off by default): `MAXSON_RESULT_CACHE`
        // switches it on, `MAXSON_RESULT_CACHE_MB` sizes the byte budget.
        let reuse = std::env::var("MAXSON_RESULT_CACHE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                !v.is_empty() && v != "0" && v != "false" && v != "off"
            })
            .unwrap_or(false)
            .then(|| {
                let mb = std::env::var("MAXSON_RESULT_CACHE_MB")
                    .ok()
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(64);
                Arc::new(ReuseCache::new(mb))
            });
        Ok(Session {
            warehouse: Arc::new(RwLock::new(Warehouse {
                catalog: Catalog::open(root.as_ref())?,
                rewriter: None,
                epoch: 0,
                reuse,
            })),
            parser_kind,
            prefilter_enabled: false,
            threads: None,
            shared_parse: None,
            scheduler: None,
            tracer,
            trace_path,
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

    /// The session's tracer. Clone it into rewriters/providers so their
    /// spans and counters land in the same buffer; the clones follow this
    /// session's enable toggle.
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

    /// Path of the active query log, if logging is on.
    pub fn query_log_path(&self) -> Option<&Path> {
        self.query_log.as_deref().map(QueryLog::path)
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
    /// `None` resolves from the environment at each `execute` call
    /// (`MAXSON_THREADS`, defaulting to available cores); `Some(1)` runs the
    /// split tasks inline on the calling thread. Tests prefer this over the env var to avoid
    /// process-global races.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// Current explicit thread override, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Set (or clear) intra-query shared-parse extraction. `None` resolves
    /// from `MAXSON_SHARED_PARSE` at each `execute` call (default: on);
    /// `Some(false)` pins the naive parse-per-call reference path. Tests
    /// prefer this over the env var to avoid process-global races.
    pub fn set_shared_parse(&mut self, shared_parse: Option<bool>) {
        self.shared_parse = shared_parse;
    }

    /// Current explicit shared-parse override, if any.
    pub fn shared_parse(&self) -> Option<bool> {
        self.shared_parse
    }

    /// Install (or clear) the cooperative split scheduler consulted around
    /// every split task this session executes. The serving front end points
    /// every connection's session at one shared fair-share scheduler.
    pub fn set_split_scheduler(&mut self, scheduler: Option<Arc<dyn SplitScheduler>>) {
        self.scheduler = scheduler;
    }

    fn exec_options(&self) -> ExecOptions {
        let opts = match self.threads {
            Some(n) => ExecOptions::with_threads(n),
            None => ExecOptions::from_env(),
        };
        let opts = match self.shared_parse {
            Some(on) => opts.with_shared_parse(on),
            None => opts,
        };
        opts.with_scheduler(self.scheduler.clone())
    }

    /// Enable/disable the Sparser-style raw prefilter: when a predicate
    /// requires `get_json_object(col, path) = 'literal'`, records whose raw
    /// bytes cannot contain the literal are dropped before parsing.
    pub fn set_prefilter_enabled(&mut self, enabled: bool) {
        self.prefilter_enabled = enabled;
    }

    /// Which JSON parser `get_json_object` uses (Fig. 15's axis).
    pub fn set_parser_kind(&mut self, kind: JsonParserKind) {
        self.parser_kind = kind;
    }

    /// Alias for [`Session::set_parser_kind`]: pin the parser mode,
    /// overriding the `MAXSON_PARSER` environment default.
    pub fn set_parser(&mut self, kind: JsonParserKind) {
        self.set_parser_kind(kind);
    }

    /// Pin the structural-kernel tier used for bitmap construction and
    /// prefilter needle search, overriding the `MAXSON_SIMD` environment
    /// default (`auto` / `avx2` / `sse2` / `swar` / `scalar`). Returns the
    /// tier that actually took effect — a request for a tier the CPU lacks
    /// clamps to the best available one.
    ///
    /// The kernel dispatch is **process-wide** (results are bit-identical
    /// across tiers, so this only affects speed, never answers): setting it
    /// on one session changes every session in the process, mirroring how
    /// the env var behaves.
    pub fn set_simd(
        &mut self,
        kernel: maxson_json::kernels::Kernel,
    ) -> maxson_json::kernels::Kernel {
        maxson_json::kernels::set_active(kernel)
    }

    /// The structural-kernel tier currently in effect (resolving
    /// `MAXSON_SIMD` on first use).
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
    /// `MAXSON_RESULT_CACHE=1 MAXSON_RESULT_CACHE_MB=<mb>`. The cache is
    /// warehouse-shared: every session cloned from this one probes and
    /// fills the same cache (the serving front end enables it once and all
    /// connections benefit).
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
        let mut planned_paths = Vec::new();
        let (plan, names) = self.plan_statement(&wh, &stmt, &mut planned_paths)?;
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
            planned_paths,
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
        if root.is_recording() {
            root.attr("sql", sql.trim());
        }
        let PlannedQuery {
            plan,
            planning,
            names,
            epoch,
            planned_paths,
            tables,
            stmt,
            reuse,
            reuse_gen,
        } = {
            let _planning_span = tracer.child("planning", root.id());
            self.plan_snapshot(sql)?
        };
        let mut metrics = ExecMetrics {
            planning,
            ..Default::default()
        };
        let parser = self.parser_kind.name();
        // Identity is derived from the *statement*, never the physical
        // plan, so a Maxson cache-rewritten plan fingerprints identically
        // to its logical source.
        let fingerprint = stmt_fingerprint(&stmt);
        let full_key = reuse
            .as_ref()
            .map(|_| reuse_key(parser, &canonical_stmt_text(&stmt)));
        let plan_display = plan.display();
        let mut reuse_status: &'static str = if reuse.is_some() { "miss" } else { "off" };
        let start = Instant::now();

        // 1. Full-result probe: a hit serves the cached rows directly —
        //    no operator runs, no split task is scheduled (so no fair-
        //    scheduler lease is ever taken), no document is parsed.
        let mut served: Option<Vec<Vec<Cell>>> = None;
        if let (Some(cache), Some(key)) = (&reuse, full_key) {
            if cache.is_disabled() {
                reuse_status = "disabled";
            } else if let Some(entry) = cache.lookup(key, epoch, false) {
                metrics.reuse_hits = 1;
                reuse_status = "hit";
                served = Some((*entry.rows).clone());
            } else {
                metrics.reuse_misses = 1;
            }
        }

        let rows = match served {
            Some(rows) => rows,
            None => {
                // 2. Fragment probe: the peeled statement's key (LIMIT/
                //    DISTINCT cleared) — equal, by construction, to the
                //    full key of the statement without those uppers.
                let frag_key = match (&reuse, reuse_status) {
                    (Some(_), "miss") => {
                        canonical_fragment_text(&stmt).map(|t| reuse_key(parser, &t))
                    }
                    _ => None,
                };
                let frag_entry = match (&reuse, frag_key) {
                    (Some(cache), Some(k)) => cache.lookup(k, epoch, true),
                    _ => None,
                };
                if let Some(entry) = frag_entry {
                    // Replay cached intermediate rows under rebuilt uppers.
                    metrics.reuse_fragment_hits = 1;
                    reuse_status = "fragment";
                    let rebuilt = rebuild_uppers(
                        LogicalPlan::Scan {
                            provider: Box::new(CachedRowsProvider::new(entry)),
                        },
                        &stmt,
                    );
                    execute_plan_traced(
                        &rebuilt,
                        self.parser_kind,
                        &mut metrics,
                        &self.exec_options(),
                        tracer,
                        root.id(),
                    )?
                } else {
                    // 3. Execute, then offer the result(s) for admission.
                    //    With peelable uppers the fragment runs first and
                    //    the uppers replay over its rows — LIMIT and
                    //    DISTINCT both run after full materialization in
                    //    this engine, so the split adds no work and the
                    //    output is byte-identical to the unsplit plan.
                    let mut frag_fill: Option<(u64, Arc<Vec<Vec<Cell>>>, Schema)> = None;
                    let exec_rows = match frag_key {
                        Some(fkey) => {
                            let frag_plan = peel_uppers(plan);
                            let frag_schema = frag_plan.schema().clone();
                            let frag_rows = Arc::new(execute_plan_traced(
                                &frag_plan,
                                self.parser_kind,
                                &mut metrics,
                                &self.exec_options(),
                                tracer,
                                root.id(),
                            )?);
                            let rebuilt = rebuild_uppers(
                                LogicalPlan::Scan {
                                    provider: Box::new(CachedRowsProvider::new(CachedEntry {
                                        rows: Arc::clone(&frag_rows),
                                        schema: frag_schema.clone(),
                                    })),
                                },
                                &stmt,
                            );
                            let out = execute_plan_traced(
                                &rebuilt,
                                self.parser_kind,
                                &mut metrics,
                                &self.exec_options(),
                                tracer,
                                root.id(),
                            )?;
                            frag_fill = Some((fkey, frag_rows, frag_schema));
                            out
                        }
                        None => execute_plan_traced(
                            &plan,
                            self.parser_kind,
                            &mut metrics,
                            &self.exec_options(),
                            tracer,
                            root.id(),
                        )?,
                    };
                    if let (Some(cache), Some(key)) = (&reuse, full_key) {
                        if !cache.is_disabled() {
                            let wall_ns = start.elapsed().as_nanos() as u64;
                            let shared = Arc::new(exec_rows);
                            // The fill is contained: a panic inside the
                            // cache disables it loudly and the already-
                            // computed rows are returned unchanged.
                            let fill =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if let Some((fkey, frows, fschema)) = &frag_fill {
                                        cache.fill(
                                            *fkey,
                                            Arc::clone(frows),
                                            fschema.clone(),
                                            epoch,
                                            tables.clone(),
                                            wall_ns,
                                            reuse_gen,
                                        );
                                    }
                                    let out_schema = match output_schema(&names) {
                                        Some(s) => s,
                                        None => return FillOutcome::Rejected,
                                    };
                                    cache.fill(
                                        key,
                                        Arc::clone(&shared),
                                        out_schema,
                                        epoch,
                                        tables.clone(),
                                        wall_ns,
                                        reuse_gen,
                                    )
                                }));
                            match fill {
                                Ok(FillOutcome::Admitted) => {
                                    metrics.reuse_fills = 1;
                                    reuse_status = "fill";
                                }
                                Ok(FillOutcome::Rejected) => {}
                                Ok(FillOutcome::Disabled) => reuse_status = "disabled",
                                Err(_) => {
                                    cache.disable();
                                    reuse_status = "poisoned";
                                }
                            }
                            match Arc::try_unwrap(shared) {
                                Ok(rows) => rows,
                                Err(shared) => (*shared).clone(),
                            }
                        } else {
                            exec_rows
                        }
                    } else {
                        exec_rows
                    }
                }
            }
        };
        metrics.total = start.elapsed();
        tracer.observe("query_exec_us", metrics.total);
        root.attr("rows", rows.len());
        if reuse.is_some() {
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
        let root_id = root.id();
        drop(root);
        self.finish_query(
            sql,
            fingerprint,
            reuse_status,
            reuse.as_deref(),
            &metrics,
            &planned_paths,
            epoch,
            rows.len(),
        )?;
        Ok((
            QueryResult {
                columns: names,
                rows,
                metrics,
                plan_display,
                epoch,
            },
            root_id,
        ))
    }

    /// Post-execution telemetry: charge the process-wide registry, feed the
    /// workload sketch, and append the query-log line. Pure observation —
    /// reads `metrics`, never mutates it — so results and work counters are
    /// byte-identical with or without a query log installed.
    #[allow(clippy::too_many_arguments)]
    fn finish_query(
        &self,
        sql: &str,
        fingerprint: u64,
        reuse_status: &str,
        reuse: Option<&ReuseCache>,
        metrics: &ExecMetrics,
        planned_paths: &[(String, String)],
        epoch: u64,
        rows: usize,
    ) -> Result<()> {
        let parser = self.parser_kind.name();
        let labels = [("parser", parser)];
        let r = &self.registry;
        r.counter("maxson_queries_total", &labels).inc();
        r.histogram("maxson_query_wall_seconds", &labels)
            .observe(metrics.total);
        r.counter("maxson_rows_scanned_total", &[])
            .add(metrics.rows_scanned);
        r.counter("maxson_bytes_read_total", &[])
            .add(metrics.bytes_read);
        r.counter("maxson_parse_calls_total", &[])
            .add(metrics.parse_calls);
        r.counter("maxson_docs_parsed_total", &[])
            .add(metrics.docs_parsed);
        r.counter("maxson_cache_hits_total", &[])
            .add(metrics.cache_hits);
        r.counter("maxson_lru_hits_total", &[])
            .add(metrics.lru_hits);
        r.counter("maxson_lru_misses_total", &[])
            .add(metrics.lru_misses);
        r.counter("maxson_nodes_skipped_total", &[])
            .add(metrics.nodes_skipped);
        r.counter("maxson_bitmap_builds_total", &[])
            .add(metrics.bitmap_builds);
        r.counter("maxson_bitmap_bytes_total", &[])
            .add(metrics.bitmap_bytes);
        if metrics.bitmap_builds > 0 {
            r.histogram("maxson_bitmap_build_wall_seconds", &[])
                .observe(metrics.bitmap_build_wall);
            r.gauge("maxson_simd_kernel", &[]).max(metrics.simd_kernel);
        }
        r.gauge("maxson_epoch", &[]).max(epoch);
        if let Some(cache) = reuse {
            // Reuse exposition: per-query deltas as counters, cumulative
            // cache-wide state as gauges, and the hit-serving wall (the
            // latency a hit actually cost the client) as a histogram.
            r.counter("maxson_reuse_hits_total", &[])
                .add(metrics.reuse_hits);
            r.counter("maxson_reuse_misses_total", &[])
                .add(metrics.reuse_misses);
            r.counter("maxson_reuse_fragment_hits_total", &[])
                .add(metrics.reuse_fragment_hits);
            r.counter("maxson_reuse_fills_total", &[])
                .add(metrics.reuse_fills);
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
            for (table, planned) in planned_paths {
                if planned == path {
                    r.record_path(table, path, *count);
                }
            }
        }

        if let Some(log) = &self.query_log {
            let opts = self.exec_options();
            let entry = QueryLogEntry {
                fingerprint,
                sql: sql.trim(),
                parser,
                simd: maxson_json::kernels::active().name(),
                mmap: matches!(MmapMode::from_env(), MmapMode::Enabled),
                threads: opts.threads as u64,
                shared_parse: opts.shared_parse,
                epoch,
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

    // ------------------------------------------------------------------
    // Planning
    // ------------------------------------------------------------------

    fn plan_statement(
        &self,
        wh: &Warehouse,
        stmt: &SelectStatement,
        planned_paths: &mut Vec<(String, String)>,
    ) -> Result<(LogicalPlan, Vec<String>)> {
        // 1. Gather every expression in the query (for column analysis).
        let mut all_exprs: Vec<&SqlExpr> = Vec::new();
        let has_wildcard = stmt.items.iter().any(|i| matches!(i, SelectItem::Wildcard));
        for item in &stmt.items {
            if let SelectItem::Expr { expr, .. } = item {
                all_exprs.push(expr);
            }
        }
        if let Some(w) = &stmt.where_clause {
            all_exprs.push(w);
        }
        if let Some(h) = &stmt.having {
            all_exprs.push(h);
        }
        all_exprs.extend(stmt.group_by.iter());
        all_exprs.extend(stmt.order_by.iter().map(|o| &o.expr));
        if let Some(j) = &stmt.join {
            all_exprs.push(&j.on_left);
            all_exprs.push(&j.on_right);
        }

        // 2. Build the input plan (scan or join of two scans).
        let (input, resolver) = match &stmt.join {
            None => {
                let (plan, res) = self.plan_table_scan(
                    wh,
                    &stmt.from,
                    &all_exprs,
                    stmt.where_clause.as_ref(),
                    None,
                    has_wildcard,
                    planned_paths,
                )?;
                (plan, res)
            }
            Some(join) => {
                let left_alias = stmt.from.alias.clone();
                let right_alias = join.table.alias.clone();
                let (lplan, lres) = self.plan_table_scan(
                    wh,
                    &stmt.from,
                    &all_exprs,
                    stmt.where_clause.as_ref(),
                    left_alias.as_deref(),
                    has_wildcard,
                    planned_paths,
                )?;
                let (rplan, rres) = self.plan_table_scan(
                    wh,
                    &join.table,
                    &all_exprs,
                    stmt.where_clause.as_ref(),
                    right_alias.as_deref(),
                    has_wildcard,
                    planned_paths,
                )?;
                let resolver = lres.join(rres)?;
                let left_key = resolver.compile(&join.on_left)?;
                let right_shift = resolver.left_width();
                // Right key compiles against the combined schema, then we
                // shift it back to right-side indexes.
                let right_key_combined = resolver.compile(&join.on_right)?;
                let right_key = shift_columns(right_key_combined, right_shift)?;
                let schema = resolver.schema.clone();
                (
                    LogicalPlan::Join {
                        left: Box::new(lplan),
                        right: Box::new(rplan),
                        left_key,
                        right_key,
                        schema,
                    },
                    resolver,
                )
            }
        };

        // 3. WHERE.
        let mut plan = input;
        if let Some(w) = &stmt.where_clause {
            let predicate = resolver.compile(w)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 4. Expand select items.
        let mut select_exprs: Vec<(SqlExpr, String)> = Vec::new();
        for (pos, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for f in resolver.schema.fields() {
                        select_exprs.push((
                            SqlExpr::Column {
                                qualifier: None,
                                name: f.name.clone(),
                            },
                            f.name.clone(),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| expr.default_name(pos));
                    select_exprs.push((expr.clone(), name));
                }
            }
        }

        // 5. ORDER BY items that don't match an output alias become hidden
        //    projected columns.
        let mut order_keys: Vec<(usize, bool)> = Vec::new();
        let mut hidden = 0usize;
        for item in &stmt.order_by {
            // By alias or identical expression.
            let found = select_exprs.iter().position(|(e, name)| {
                e == &item.expr
                    || matches!(
                        &item.expr,
                        SqlExpr::Column { qualifier: None, name: n } if n == name
                    )
            });
            let idx = match found {
                Some(i) => i,
                None => {
                    select_exprs.push((item.expr.clone(), format!("__order{hidden}")));
                    hidden += 1;
                    select_exprs.len() - 1
                }
            };
            order_keys.push((idx, item.asc));
        }
        let visible = select_exprs.len() - hidden;

        let has_aggs = !stmt.group_by.is_empty()
            || select_exprs.iter().any(|(e, _)| e.contains_aggregate())
            || stmt.having.is_some();
        if stmt.having.is_some() && stmt.group_by.is_empty() {
            return Err(EngineError::plan("HAVING requires GROUP BY".to_string()));
        }

        // 6. Aggregate + project, or plain project.
        let out_names: Vec<String> = select_exprs[..visible]
            .iter()
            .map(|(_, n)| n.clone())
            .collect();
        if has_aggs {
            // Group keys.
            let group_compiled: Vec<Expr> = stmt
                .group_by
                .iter()
                .map(|g| resolver.compile(g))
                .collect::<Result<_>>()?;
            // Collect aggregate calls across all select expressions (and
            // HAVING, which may use aggregates not in the SELECT list).
            let mut agg_calls: Vec<(AggFunc, Option<SqlExpr>)> = Vec::new();
            for (e, _) in &select_exprs {
                collect_aggs(e, &mut agg_calls);
            }
            if let Some(h) = &stmt.having {
                collect_aggs(h, &mut agg_calls);
            }
            let compiled_aggs: Vec<(AggFunc, Option<Expr>)> = agg_calls
                .iter()
                .map(|(f, arg)| Ok((*f, arg.as_ref().map(|a| resolver.compile(a)).transpose()?)))
                .collect::<Result<_>>()?;
            // Aggregate output schema: keys then aggs (all dynamically typed
            // as strings — the engine is value-typed at runtime).
            let mut agg_fields: Vec<Field> = Vec::new();
            for (i, _) in stmt.group_by.iter().enumerate() {
                agg_fields.push(Field::new(format!("__key{i}"), ColumnType::Utf8));
            }
            for (i, _) in agg_calls.iter().enumerate() {
                agg_fields.push(Field::new(format!("__agg{i}"), ColumnType::Utf8));
            }
            let agg_schema =
                Schema::new(agg_fields).map_err(|e| EngineError::plan(e.to_string()))?;
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: group_compiled,
                aggs: compiled_aggs,
                schema: agg_schema.clone(),
            };
            // HAVING filters the aggregate output (keys then agg columns).
            if let Some(h) = &stmt.having {
                let predicate = compile_post_agg(
                    h,
                    &stmt.group_by,
                    &agg_calls,
                    nkeys_of(&stmt.group_by),
                    &resolver,
                )?;
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate,
                };
            }
            // Post-aggregate projection: rewrite each select expression in
            // terms of group keys / aggregate outputs.
            let nkeys = stmt.group_by.len();
            let mut post_exprs: Vec<(Expr, String)> = Vec::new();
            for (e, name) in &select_exprs {
                let compiled = compile_post_agg(e, &stmt.group_by, &agg_calls, nkeys, &resolver)?;
                post_exprs.push((compiled, name.clone()));
            }
            let post_schema = Schema::new(
                post_exprs
                    .iter()
                    .map(|(_, n)| Field::new(n.clone(), ColumnType::Utf8))
                    .collect(),
            )
            .map_err(|e| EngineError::plan(e.to_string()))?;
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs: post_exprs,
                schema: post_schema,
            };
        } else {
            let compiled: Vec<(Expr, String)> = select_exprs
                .iter()
                .map(|(e, n)| Ok((resolver.compile(e)?, n.clone())))
                .collect::<Result<_>>()?;
            let schema = Schema::new(
                compiled
                    .iter()
                    .map(|(_, n)| Field::new(n.clone(), ColumnType::Utf8))
                    .collect(),
            )
            .map_err(|e| EngineError::plan(e.to_string()))?;
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs: compiled,
                schema,
            };
        }

        // 7. Sort over the projected output.
        if !order_keys.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: order_keys
                    .iter()
                    .map(|&(i, asc)| (Expr::Column(i), asc))
                    .collect(),
            };
        }

        // 8. Strip hidden order-by columns.
        if hidden > 0 {
            let exprs: Vec<(Expr, String)> = out_names
                .iter()
                .enumerate()
                .map(|(i, n)| (Expr::Column(i), n.clone()))
                .collect();
            let schema = Schema::new(
                out_names
                    .iter()
                    .map(|n| Field::new(n.clone(), ColumnType::Utf8))
                    .collect(),
            )
            .map_err(|e| EngineError::plan(e.to_string()))?;
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema,
            };
        }

        // 9. DISTINCT deduplicates the visible output columns.
        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 10. LIMIT.
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok((plan, out_names))
    }

    /// Plan the scan of one table: analyse referenced columns and JSON
    /// calls, offer the scan to the rewriter, otherwise build the default
    /// Norc provider with SARG pushdown on raw columns.
    #[allow(clippy::too_many_arguments)]
    fn plan_table_scan(
        &self,
        wh: &Warehouse,
        table_ref: &TableRef,
        all_exprs: &[&SqlExpr],
        predicate: Option<&SqlExpr>,
        alias: Option<&str>,
        include_all_columns: bool,
        planned_paths: &mut Vec<(String, String)>,
    ) -> Result<(LogicalPlan, Resolver)> {
        let table = wh.catalog.table(&table_ref.database, &table_ref.table)?;
        let schema = table.schema().clone();

        // Which expressions belong to this table? With an alias, qualified
        // references must match it; unqualified ones match if the column
        // exists in this table.
        let belongs = |qualifier: &Option<String>, name: &str| -> bool {
            match (qualifier, alias) {
                (Some(q), Some(a)) => q == a,
                (Some(_), None) => false,
                (None, _) => schema.index_of(name).is_some(),
            }
        };

        let mut raw_columns: Vec<String> = Vec::new();
        let mut json_calls: Vec<(String, String)> = Vec::new();
        if include_all_columns {
            // SELECT * — every table column is part of the output.
            raw_columns.extend(schema.fields().iter().map(|f| f.name.clone()));
        }
        for e in all_exprs {
            e.walk(&mut |node| match node {
                SqlExpr::Column { qualifier, name }
                    if belongs(qualifier, name) && !raw_columns.contains(name) =>
                {
                    raw_columns.push(name.clone());
                }
                SqlExpr::GetJsonObject { column, path } => {
                    if let SqlExpr::Column { qualifier, name } = column.as_ref() {
                        if belongs(qualifier, name) {
                            let call = (name.clone(), path.clone());
                            if !json_calls.contains(&call) {
                                json_calls.push(call);
                            }
                        }
                    }
                }
                _ => {}
            });
        }
        // A column referenced only inside get_json_object is not a raw
        // output column... unless no rewriter resolves its calls. We first
        // remove JSON-only columns, then add back the ones with unresolved
        // calls after consulting the rewriter.
        let json_only: Vec<String> = json_calls
            .iter()
            .map(|(c, _)| c.clone())
            .filter(|c| !is_plain_column_ref(all_exprs, c, alias, &schema))
            .collect();
        raw_columns.retain(|c| !json_only.contains(c));

        // Record the `(db.table, path)` pairs this scan will evaluate, for
        // workload-sketch attribution at query end.
        let qualified = table_key(&table_ref.database, &table_ref.table);
        for (_, path) in &json_calls {
            let pair = (qualified.clone(), path.clone());
            if !planned_paths.contains(&pair) {
                planned_paths.push(pair);
            }
        }

        // Offer to the rewriter.
        if let Some(rw) = &wh.rewriter {
            let ctx = ScanContext {
                database: &table_ref.database,
                table: &table_ref.table,
                table_schema: &schema,
                raw_columns: &raw_columns,
                json_calls: &json_calls,
                predicate,
            };
            if let Some(rewrite) = rw.rewrite_scan(&ctx)? {
                let out_schema = rewrite.provider.schema().clone();
                let resolver = Resolver {
                    schema: out_schema,
                    alias: alias.map(str::to_string),
                    resolved_paths: rewrite.resolved_paths,
                    left_fields: 0,
                };
                let plan = LogicalPlan::Scan {
                    provider: rewrite.provider,
                };
                return Ok((plan, resolver));
            }
        }

        // Default scan: raw columns plus JSON columns for every call.
        let mut scan_columns = raw_columns.clone();
        for (c, _) in &json_calls {
            if !scan_columns.contains(c) {
                scan_columns.push(c.clone());
            }
        }
        // A query referencing no columns at all (e.g. `select count(*)`)
        // still needs the row count: scan the narrowest column.
        if scan_columns.is_empty() {
            if let Some(f) = schema.fields().first() {
                scan_columns.push(f.name.clone());
            }
        }
        // Stable order: table schema order keeps plans deterministic.
        scan_columns.sort_by_key(|c| schema.index_of(c));
        let projection: Vec<usize> = scan_columns
            .iter()
            .map(|c| {
                schema.index_of(c).ok_or_else(|| {
                    EngineError::plan(format!(
                        "column '{c}' not found in {}.{}",
                        table_ref.database, table_ref.table
                    ))
                })
            })
            .collect::<Result<_>>()?;
        let sarg = predicate.and_then(|p| extract_sarg(p, &schema, alias));
        let mut provider = NorcScanProvider::new(table.clone(), projection, sarg)?;
        if self.prefilter_enabled {
            if let Some(p) = predicate {
                // One filter per JSON column of this scan.
                for (ci, field) in provider.schema().fields().iter().enumerate() {
                    let needles = equality_needles(p, &field.name, alias);
                    if !needles.is_empty() {
                        provider =
                            provider.with_prefilter(ci, maxson_json::RawFilter::new(needles));
                        break; // one prefilter column is enough in practice
                    }
                }
            }
        }
        let out_schema = provider.schema().clone();
        Ok((
            LogicalPlan::Scan {
                provider: Box::new(provider),
            },
            Resolver {
                schema: out_schema,
                alias: alias.map(str::to_string),
                resolved_paths: Vec::new(),
                left_fields: 0,
            },
        ))
    }
}

/// `true` when `column` appears as a plain (non-JSON-call) reference.
fn is_plain_column_ref(
    all_exprs: &[&SqlExpr],
    column: &str,
    alias: Option<&str>,
    schema: &Schema,
) -> bool {
    let mut found = false;
    for e in all_exprs {
        walk_skipping_json_args(e, &mut |node| {
            if let SqlExpr::Column { qualifier, name } = node {
                let matches_alias = match (qualifier, alias) {
                    (Some(q), Some(a)) => q == a,
                    (Some(_), None) => false,
                    (None, _) => schema.index_of(name).is_some(),
                };
                if matches_alias && name == column {
                    found = true;
                }
            }
        });
    }
    found
}

/// Walk an expression but do not descend into `get_json_object` column
/// arguments (those are not raw column outputs).
fn walk_skipping_json_args<'a>(e: &'a SqlExpr, f: &mut impl FnMut(&'a SqlExpr)) {
    f(e);
    match e {
        SqlExpr::GetJsonObject { .. } => {}
        SqlExpr::Binary { left, right, .. } => {
            walk_skipping_json_args(left, f);
            walk_skipping_json_args(right, f);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => walk_skipping_json_args(x, f),
        SqlExpr::IsNull { expr, .. } => walk_skipping_json_args(expr, f),
        SqlExpr::Between { expr, low, high } => {
            walk_skipping_json_args(expr, f);
            walk_skipping_json_args(low, f);
            walk_skipping_json_args(high, f);
        }
        SqlExpr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                walk_skipping_json_args(a, f);
            }
        }
        SqlExpr::InList { expr, items, .. } => {
            walk_skipping_json_args(expr, f);
            for i in items {
                walk_skipping_json_args(i, f);
            }
        }
        SqlExpr::Like { expr, .. } => walk_skipping_json_args(expr, f),
        SqlExpr::Function { args, .. } => {
            for a in args {
                walk_skipping_json_args(a, f);
            }
        }
        SqlExpr::Column { .. } | SqlExpr::Literal(_) => {}
    }
}

/// Collect Sparser needles: string literals that the predicate's top-level
/// AND-conjuncts require to appear in `json_column`'s raw text
/// (`get_json_object(json_column, path) = 'literal'`).
fn equality_needles(predicate: &SqlExpr, json_column: &str, alias: Option<&str>) -> Vec<String> {
    fn walk_conjuncts<'a>(e: &'a SqlExpr, f: &mut impl FnMut(&'a SqlExpr)) {
        if let SqlExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } = e
        {
            walk_conjuncts(left, f);
            walk_conjuncts(right, f);
        } else {
            f(e);
        }
    }
    let mut needles = Vec::new();
    walk_conjuncts(predicate, &mut |conjunct| {
        if let SqlExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        {
            let pairs = [(left, right), (right, left)];
            for (call, lit) in pairs {
                if let (SqlExpr::GetJsonObject { column, .. }, SqlExpr::Literal(Cell::Str(value))) =
                    (call.as_ref(), lit.as_ref())
                {
                    if let SqlExpr::Column { qualifier, name } = column.as_ref() {
                        if name == json_column && qualifier_matches(qualifier, alias) {
                            if let Some(n) = maxson_json::RawFilter::equality_needle(value) {
                                needles.push(n);
                            }
                        }
                    }
                }
            }
        }
    });
    needles
}

/// Extract a conjunction of `column op literal` leaves usable as a SARG on
/// the raw table (JSON calls are *not* extracted here — that is Maxson's
/// cache-side pushdown).
fn extract_sarg(
    predicate: &SqlExpr,
    schema: &Schema,
    alias: Option<&str>,
) -> Option<SearchArgument> {
    let mut sarg = SearchArgument::new();
    collect_sarg_conjuncts(predicate, schema, alias, &mut sarg);
    if sarg.is_empty() {
        None
    } else {
        Some(sarg)
    }
}

fn collect_sarg_conjuncts(
    e: &SqlExpr,
    schema: &Schema,
    alias: Option<&str>,
    sarg: &mut SearchArgument,
) {
    match e {
        SqlExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            collect_sarg_conjuncts(left, schema, alias, sarg);
            collect_sarg_conjuncts(right, schema, alias, sarg);
        }
        SqlExpr::Binary { left, op, right } => {
            let cmp = match op {
                BinaryOp::Eq => CmpOp::Eq,
                BinaryOp::NotEq => CmpOp::NotEq,
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::LtEq => CmpOp::LtEq,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::GtEq => CmpOp::GtEq,
                _ => return,
            };
            match (left.as_ref(), right.as_ref()) {
                (SqlExpr::Column { qualifier, name }, SqlExpr::Literal(lit))
                    if qualifier_matches(qualifier, alias) =>
                {
                    if let Some(idx) = schema.index_of(name) {
                        *sarg = std::mem::take(sarg).with(idx, cmp, lit.clone());
                    }
                }
                (SqlExpr::Literal(lit), SqlExpr::Column { qualifier, name })
                    if qualifier_matches(qualifier, alias) =>
                {
                    if let Some(idx) = schema.index_of(name) {
                        let flipped = match cmp {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::LtEq => CmpOp::GtEq,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::GtEq => CmpOp::LtEq,
                            other => other,
                        };
                        *sarg = std::mem::take(sarg).with(idx, flipped, lit.clone());
                    }
                }
                _ => {}
            }
        }
        SqlExpr::Between { expr, low, high } => {
            if let (
                SqlExpr::Column { qualifier, name },
                SqlExpr::Literal(lo),
                SqlExpr::Literal(hi),
            ) = (expr.as_ref(), low.as_ref(), high.as_ref())
            {
                if qualifier_matches(qualifier, alias) {
                    if let Some(idx) = schema.index_of(name) {
                        *sarg = std::mem::take(sarg)
                            .with(idx, CmpOp::GtEq, lo.clone())
                            .with(idx, CmpOp::LtEq, hi.clone());
                    }
                }
            }
        }
        _ => {}
    }
}

fn qualifier_matches(qualifier: &Option<String>, alias: Option<&str>) -> bool {
    match (qualifier, alias) {
        (None, _) => true,
        (Some(q), Some(a)) => q == a,
        (Some(_), None) => false,
    }
}

/// Resolves SQL names to physical column indexes over a scan (or join)
/// output schema, honouring rewriter-resolved JSONPath placeholders.
#[derive(Debug)]
struct Resolver {
    schema: Schema,
    alias: Option<String>,
    /// `(column, path) -> output column name` from the scan rewrite.
    resolved_paths: Vec<((String, String), String)>,
    /// For joins: number of fields contributed by the left side.
    left_fields: usize,
}

impl Resolver {
    fn left_width(&self) -> usize {
        if self.left_fields > 0 {
            self.left_fields
        } else {
            self.schema.len()
        }
    }

    /// Merge two single-table resolvers into a join resolver.
    fn join(self, right: Resolver) -> Result<Resolver> {
        let mut fields = Vec::new();
        let prefix_l = self.alias.clone().unwrap_or_else(|| "l".into());
        let prefix_r = right.alias.clone().unwrap_or_else(|| "r".into());
        for f in self.schema.fields() {
            fields.push(Field::new(format!("{prefix_l}.{}", f.name), f.ty));
        }
        for f in right.schema.fields() {
            fields.push(Field::new(format!("{prefix_r}.{}", f.name), f.ty));
        }
        let left_fields = self.schema.len();
        let mut resolved = Vec::new();
        for ((c, p), out) in self.resolved_paths {
            resolved.push(((format!("{prefix_l}.{c}"), p), format!("{prefix_l}.{out}")));
        }
        for ((c, p), out) in right.resolved_paths {
            resolved.push(((format!("{prefix_r}.{c}"), p), format!("{prefix_r}.{out}")));
        }
        Ok(Resolver {
            schema: Schema::new(fields).map_err(|e| EngineError::plan(e.to_string()))?,
            alias: None,
            resolved_paths: resolved,
            left_fields,
        })
    }

    /// Index of `[qualifier.]name` in the resolver's schema.
    fn resolve_column(&self, qualifier: &Option<String>, name: &str) -> Result<usize> {
        if self.left_fields > 0 {
            // Join schema: names are "alias.column".
            if let Some(q) = qualifier {
                let qualified = format!("{q}.{name}");
                return self
                    .schema
                    .index_of(&qualified)
                    .ok_or_else(|| EngineError::plan(format!("unknown column '{qualified}'")));
            }
            // Unqualified in a join: unique suffix match.
            let matches: Vec<usize> = self
                .schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.name.ends_with(&format!(".{name}")))
                .map(|(i, _)| i)
                .collect();
            return match matches.as_slice() {
                [one] => Ok(*one),
                [] => Err(EngineError::plan(format!("unknown column '{name}'"))),
                _ => Err(EngineError::plan(format!("ambiguous column '{name}'"))),
            };
        }
        if let Some(q) = qualifier {
            if self.alias.as_deref() != Some(q.as_str()) {
                return Err(EngineError::plan(format!("unknown table qualifier '{q}'")));
            }
        }
        self.schema
            .index_of(name)
            .ok_or_else(|| EngineError::plan(format!("unknown column '{name}'")))
    }

    /// Look up a rewriter-resolved JSONPath placeholder column.
    fn resolve_path(&self, qualifier: &Option<String>, column: &str, path: &str) -> Option<usize> {
        let key_column = if self.left_fields > 0 {
            let q = qualifier.as_deref()?;
            format!("{q}.{column}")
        } else {
            column.to_string()
        };
        self.resolved_paths
            .iter()
            .find(|((c, p), _)| *c == key_column && p == path)
            .and_then(|(_, out)| self.schema.index_of(out))
    }

    /// Compile an AST expression to a physical expression over this schema.
    fn compile(&self, e: &SqlExpr) -> Result<Expr> {
        Ok(match e {
            SqlExpr::Column { qualifier, name } => {
                Expr::Column(self.resolve_column(qualifier, name)?)
            }
            SqlExpr::Literal(c) => Expr::Literal(c.clone()),
            SqlExpr::GetJsonObject { column, path } => {
                let SqlExpr::Column { qualifier, name } = column.as_ref() else {
                    return Err(EngineError::plan(
                        "get_json_object requires a column argument".to_string(),
                    ));
                };
                // Algorithm 1, line 15: cache hit -> placeholder (a plain
                // column reference into the combined scan output).
                if let Some(idx) = self.resolve_path(qualifier, name, path) {
                    return Ok(Expr::Column(idx));
                }
                let compiled_path = JsonPath::parse(path)
                    .map_err(|err| EngineError::plan(format!("bad JSONPath '{path}': {err}")))?;
                Expr::GetJsonObject {
                    column: self.resolve_column(qualifier, name)?,
                    path: compiled_path,
                }
            }
            SqlExpr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.compile(left)?),
                op: *op,
                right: Box::new(self.compile(right)?),
            },
            SqlExpr::Not(x) => Expr::Not(Box::new(self.compile(x)?)),
            SqlExpr::Neg(x) => Expr::Neg(Box::new(self.compile(x)?)),
            SqlExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.compile(expr)?),
                negated: *negated,
            },
            SqlExpr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(self.compile(expr)?),
                low: Box::new(self.compile(low)?),
                high: Box::new(self.compile(high)?),
            },
            SqlExpr::InList {
                expr,
                items,
                negated,
            } => Expr::InList {
                expr: Box::new(self.compile(expr)?),
                items: items
                    .iter()
                    .map(|i| self.compile(i))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(self.compile(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            SqlExpr::Function { func, args } => Expr::Function {
                func: *func,
                args: args
                    .iter()
                    .map(|a| self.compile(a))
                    .collect::<Result<_>>()?,
            },
            SqlExpr::Aggregate { .. } => {
                return Err(EngineError::plan(
                    "aggregate call in a non-aggregate position".to_string(),
                ))
            }
        })
    }
}

/// Shift all column references in an expression down by `offset` (used to
/// re-base the join's right key from the combined schema to the right-side
/// row).
fn shift_columns(e: Expr, offset: usize) -> Result<Expr> {
    let mut failed = false;
    let shifted = e.rewrite(&mut |node| match node {
        Expr::Column(i) => {
            if i < offset {
                failed = true;
                Expr::Column(i)
            } else {
                Expr::Column(i - offset)
            }
        }
        Expr::GetJsonObject { column, path } => {
            if column < offset {
                failed = true;
                Expr::GetJsonObject { column, path }
            } else {
                Expr::GetJsonObject {
                    column: column - offset,
                    path,
                }
            }
        }
        other => other,
    });
    if failed {
        Err(EngineError::plan(
            "join ON right side references left table columns".to_string(),
        ))
    } else {
        Ok(shifted)
    }
}

fn nkeys_of(group_by: &[SqlExpr]) -> usize {
    group_by.len()
}

/// Collect aggregate calls left-to-right (deduplicated structurally).
fn collect_aggs(e: &SqlExpr, out: &mut Vec<(AggFunc, Option<SqlExpr>)>) {
    e.walk(&mut |node| {
        if let SqlExpr::Aggregate { func, arg } = node {
            let call = (*func, arg.as_ref().map(|a| a.as_ref().clone()));
            if !out.contains(&call) {
                out.push(call);
            }
        }
    });
}

/// Compile a select expression in the post-aggregate space: group-by
/// expressions become key columns, aggregate calls become agg columns, and
/// scalar operations compose on top.
#[allow(clippy::only_used_in_recursion)]
fn compile_post_agg(
    e: &SqlExpr,
    group_by: &[SqlExpr],
    agg_calls: &[(AggFunc, Option<SqlExpr>)],
    nkeys: usize,
    resolver: &Resolver,
) -> Result<Expr> {
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Ok(Expr::Column(i));
    }
    if let SqlExpr::Aggregate { func, arg } = e {
        let call = (*func, arg.as_ref().map(|a| a.as_ref().clone()));
        if let Some(j) = agg_calls.iter().position(|c| *c == call) {
            return Ok(Expr::Column(nkeys + j));
        }
    }
    match e {
        SqlExpr::Binary { left, op, right } => Ok(Expr::Binary {
            left: Box::new(compile_post_agg(
                left, group_by, agg_calls, nkeys, resolver,
            )?),
            op: *op,
            right: Box::new(compile_post_agg(
                right, group_by, agg_calls, nkeys, resolver,
            )?),
        }),
        SqlExpr::Not(x) => Ok(Expr::Not(Box::new(compile_post_agg(
            x, group_by, agg_calls, nkeys, resolver,
        )?))),
        SqlExpr::Neg(x) => Ok(Expr::Neg(Box::new(compile_post_agg(
            x, group_by, agg_calls, nkeys, resolver,
        )?))),
        SqlExpr::Literal(c) => Ok(Expr::Literal(c.clone())),
        SqlExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(compile_post_agg(
                expr, group_by, agg_calls, nkeys, resolver,
            )?),
            negated: *negated,
        }),
        SqlExpr::Between { expr, low, high } => Ok(Expr::Between {
            expr: Box::new(compile_post_agg(
                expr, group_by, agg_calls, nkeys, resolver,
            )?),
            low: Box::new(compile_post_agg(low, group_by, agg_calls, nkeys, resolver)?),
            high: Box::new(compile_post_agg(
                high, group_by, agg_calls, nkeys, resolver,
            )?),
        }),
        SqlExpr::InList {
            expr,
            items,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(compile_post_agg(
                expr, group_by, agg_calls, nkeys, resolver,
            )?),
            items: items
                .iter()
                .map(|i| compile_post_agg(i, group_by, agg_calls, nkeys, resolver))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(compile_post_agg(
                expr, group_by, agg_calls, nkeys, resolver,
            )?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        SqlExpr::Function { func, args } => Ok(Expr::Function {
            func: *func,
            args: args
                .iter()
                .map(|a| compile_post_agg(a, group_by, agg_calls, nkeys, resolver))
                .collect::<Result<_>>()?,
        }),
        other => Err(EngineError::plan(format!(
            "expression {other:?} must appear in GROUP BY or inside an aggregate"
        ))),
    }
}
