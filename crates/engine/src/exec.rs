//! Volcano-style (materialized) plan execution around one row loop.
//!
//! ## One row loop
//!
//! Filter, Project and Aggregate are evaluated in exactly one place,
//! `PipelineSegment::run`: it takes a [`Batch`], applies the segment's
//! filter, and feeds every surviving row to a `Sink` — the output row
//! vector (projected or not) or an aggregate partial. Two things produce
//! batches:
//!
//! * **scans** — `Scan`, `Filter(Scan)`, `Project([Filter](Scan))` and
//!   `Aggregate([Filter](Scan))` are fused into one segment whose batches
//!   come from `provider.scan_split(i)`, one task per split
//!   (`run_pipeline`);
//! * **materialised inputs** — a Filter / Project / Aggregate over a join,
//!   aggregate (HAVING, the post-aggregate projection), sort, limit or
//!   distinct runs the same loop over `Batch::from_rows(child_rows)`, one
//!   stage per operator (stages over a materialised input are not fused,
//!   so each keeps its own shared-parse extractor and span).
//!
//! Join, sort, limit and distinct are blocking operators, not row loops,
//! and keep arms of their own in [`execute_plan_traced`]. The limit arm
//! runs a top-N whose projection reads JSON as a late projection
//! ([`LateProjection`]): the projection's `get_json_object` work waits for
//! the rows the limit keeps.
//!
//! ## Split tasks
//!
//! `run_pipeline` hands the splits to [`crate::pool::run_split_tasks`] at
//! every thread count and split count. The pool runs them inline on the
//! caller's thread, in split order, when `threads <= 1` or the table has at
//! most one split, and on scoped worker threads otherwise; either way each
//! task runs inside the scheduler's acquire/release bracket and a panic
//! comes back as an error naming the split. Each task charges its own
//! zero-based [`ExecMetrics`] and fills its own sink; the barrier absorbs
//! task metrics and concatenates rows (or merges aggregate partials) **in
//! split order**, which makes the output independent of the thread count:
//!
//! * row pipelines: concatenating per-split outputs in index order is the
//!   table's row order;
//! * aggregates: partial states merge in split order. `SUM`/`AVG` over
//!   floats defer their addends and fold them at finish time in input
//!   order, so the float additions happen in exactly the sequence one
//!   accumulator over the whole input would use (float addition is not
//!   associative — summing per-split subtotals would *not* be
//!   bit-identical). Integer sums use wrapping i64 arithmetic, which is
//!   associative. Grouped output keeps first-seen group order because
//!   split 0's groups are merged first.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use maxson_obs::{SpanGuard, SpanId, Tracer};
use maxson_storage::{Cell, CellKey, RowKey, RowKeySlice};

use crate::error::Result;
use crate::expr::{truthy, Expr, JsonParserKind};
use crate::extract::{JsonExtractor, RowSlots};
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use crate::pool;
use crate::scan::{Batch, BatchData, ScanProvider};
use crate::sql::ast::AggFunc;

/// Knobs controlling one plan execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Maximum worker threads for split tasks. At `1` the pool runs every
    /// task inline on the calling thread, in split order.
    pub threads: usize,
    /// Cooperative split scheduler: when set, every split task (inline or
    /// pooled) runs inside an acquire/release bracket so a query server can
    /// time-slice split execution fairly across concurrent queries.
    pub scheduler: Option<std::sync::Arc<dyn pool::SplitScheduler>>,
}

impl ExecOptions {
    /// One thread: split tasks run inline on the calling thread.
    pub fn serial() -> Self {
        ExecOptions::with_threads(1)
    }

    /// Explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
            scheduler: None,
        }
    }

    /// Attach (or clear) a cooperative split scheduler (builder style).
    pub fn with_scheduler(
        mut self,
        scheduler: Option<std::sync::Arc<dyn pool::SplitScheduler>>,
    ) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Available hardware parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Execute a plan to completion, recording one span per operator (and per
/// split, inside scan pipelines) under `parent`. With a disabled tracer
/// every hook is a branch on a bool — rows and metrics are identical to
/// the untraced path (see `tests/tracing_differential.rs`).
pub fn execute_plan_traced(
    plan: &LogicalPlan,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    match plan {
        LogicalPlan::Scan { .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::Project { .. }
        | LogicalPlan::Aggregate { .. } => {
            let (segment, source) = PipelineSegment::extract(plan);
            run_segment(&segment, source, parser, metrics, opts, tracer, parent)
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let span = tracer.child("hash_join", parent);
            let left_rows = execute_plan_traced(left, parser, metrics, opts, tracer, span.id())?;
            let right_rows = execute_plan_traced(right, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_left", left_rows.len());
            span.attr("rows_right", right_rows.len());
            let before = counters_before(tracer, metrics);
            let out = hash_join(left_rows, right_rows, left_key, right_key, parser, metrics)?;
            span.attr("rows_out", out.len());
            attr_counter_deltas(&span, before.as_ref(), metrics);
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let span = tracer.child("sort", parent);
            let rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            sort_stage(rows, keys, &span, parser, metrics, tracer)
        }
        LogicalPlan::Limit { input, n } => {
            let span = tracer.child("limit", parent);
            if let Some(late) = LateProjection::of(input) {
                return late.run(*n, parser, metrics, opts, tracer, &span);
            }
            let mut rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_in", rows.len());
            rows.truncate(*n);
            span.attr("rows_out", rows.len());
            Ok(rows)
        }
        LogicalPlan::Distinct { input } => {
            let span = tracer.child("distinct", parent);
            let rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_in", rows.len());
            let mut seen: std::collections::HashSet<RowKey> = std::collections::HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                // Probe with the borrowed row; own a key (cheap cell
                // clones, no string build) only for first-seen rows.
                if !seen.contains(RowKeySlice::new(&row)) {
                    seen.insert(RowKey(row.clone()));
                    out.push(row);
                }
            }
            span.attr("rows_out", out.len());
            Ok(out)
        }
    }
}

/// Run `segment` over `source`: through the split pool when `source` is a
/// scan, otherwise as one stage over the materialised input's rows.
fn run_segment(
    segment: &PipelineSegment<'_>,
    source: &LogicalPlan,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    if let LogicalPlan::Scan { provider } = source {
        return run_pipeline(
            segment,
            provider.as_ref(),
            parser,
            metrics,
            opts,
            tracer,
            parent,
        );
    }
    // A materialised input: one stage, the same row loop, the child's rows
    // handed over as one owned row-major batch.
    let span = tracer.child(segment.stage_name(), parent);
    let rows = execute_plan_traced(source, parser, metrics, opts, tracer, span.id())?;
    span.attr("rows_in", rows.len());
    let before = counters_before(tracer, metrics);
    let mut sink = segment.new_sink();
    segment.run(Batch::from_rows(rows), &mut sink, parser, metrics)?;
    let out = sink.finish();
    span.attr("rows_out", out.len());
    attr_counter_deltas(&span, before.as_ref(), metrics);
    Ok(out)
}

/// The sort operator over its input's `rows`, charged to its `span`.
fn sort_stage(
    rows: Vec<Vec<Cell>>,
    keys: &[(Expr, bool)],
    span: &SpanGuard<'_>,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    tracer: &Tracer,
) -> Result<Vec<Vec<Cell>>> {
    span.attr("rows_in", rows.len());
    let before = counters_before(tracer, metrics);
    let out = sort_rows(rows, keys, parser, metrics)?;
    attr_counter_deltas(span, before.as_ref(), metrics);
    Ok(out)
}

/// Snapshot the counters an operator span will diff against — only when
/// tracing, so the untraced path never clones.
fn counters_before(tracer: &Tracer, metrics: &ExecMetrics) -> Option<ExecMetrics> {
    tracer.is_enabled().then(|| metrics.clone())
}

/// Annotate a span with the integer-counter deltas an operator charged
/// (zero deltas are omitted, keeping rendered plans compact and
/// deterministic across thread counts).
fn attr_counter_deltas(span: &SpanGuard<'_>, before: Option<&ExecMetrics>, after: &ExecMetrics) {
    let Some(b) = before else { return };
    for ((label, now), (_, was)) in after.work_counters().into_iter().zip(b.work_counters()) {
        if now > was {
            span.attr(label, now - was);
        }
    }
    // Kernel attribution rides along only when this operator actually built
    // structural bitmaps, so Jackson-mode span trees are unchanged.
    if after.bitmap_builds > b.bitmap_builds {
        let wall_us =
            (after.bitmap_build_wall.saturating_sub(b.bitmap_build_wall)).as_micros() as u64;
        if wall_us > 0 {
            span.attr("bitmap_wall_us", wall_us);
        }
        span.attr("simd", maxson_json::kernels::active().name());
    }
}

// ----------------------------------------------------------------------
// The row loop
// ----------------------------------------------------------------------

/// Where a segment's surviving rows go: the output row vector, or an
/// aggregate partial. One per split task (or per materialised input),
/// merged in split order.
#[derive(Debug)]
enum Sink {
    Rows(Vec<Vec<Cell>>),
    Agg(AggPartial),
}

impl Sink {
    /// Append a later split's sink: rows concatenate, partials merge.
    fn merge(&mut self, later: Sink) {
        match (self, later) {
            (Sink::Rows(rows), Sink::Rows(more)) => rows.extend(more),
            (Sink::Agg(partial), Sink::Agg(more)) => partial.merge(more),
            _ => unreachable!("merging sinks of different segments"),
        }
    }

    fn finish(self) -> Vec<Vec<Cell>> {
        match self {
            Sink::Rows(rows) => rows,
            Sink::Agg(partial) => finish_aggregate(partial),
        }
    }
}

/// An aggregation stage: group-by keys and aggregate calls.
type AggStage<'a> = (&'a [Expr], &'a [(AggFunc, Option<Expr>)]);

/// The stages one pass of the row loop evaluates: an optional filter, then
/// either a projection or an aggregation (never both — the planner puts the
/// post-aggregate projection above the Aggregate node, where it is a
/// segment of its own over the aggregate's rows).
struct PipelineSegment<'a> {
    filter: Option<&'a Expr>,
    project: Option<&'a [(Expr, String)]>,
    agg: Option<AggStage<'a>>,
    /// Shared-parse extraction sites across the *whole* segment (filter
    /// plus projection or aggregation), so one row-parse serves every
    /// stage. `None` when no stage touches JSON. Read-only, hence safely
    /// shared across split tasks.
    extractor: Option<JsonExtractor>,
    /// Input-schema columns the filter reads (ascending). For columnar
    /// batches only these are materialized before the filter runs.
    filter_cols: Vec<usize>,
    /// The complement of `filter_cols` over the input schema (ascending):
    /// materialized only for rows the filter keeps.
    rest_cols: Vec<usize>,
    /// A late projection's cut of each sink's rows (see [`TopN`]).
    top_n: Option<&'a TopN<'a>>,
}

impl<'a> PipelineSegment<'a> {
    /// The segment rooted at `plan` (a Scan, Filter, Project or Aggregate)
    /// and the plan that produces its input. A Project or Aggregate takes
    /// the Filter below it into the same segment only when that Filter sits
    /// directly on a Scan; over any other input every operator is a segment
    /// of its own.
    fn extract(plan: &'a LogicalPlan) -> (Self, &'a LogicalPlan) {
        let mut segment = PipelineSegment {
            filter: None,
            project: None,
            agg: None,
            extractor: None,
            filter_cols: Vec::new(),
            rest_cols: Vec::new(),
            top_n: None,
        };
        let mut source = plan;
        match plan {
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                segment.agg = Some((group_by, aggs));
                source = input;
            }
            LogicalPlan::Project { input, exprs, .. } => {
                segment.project = Some(exprs);
                source = input;
            }
            _ => {}
        }
        if let LogicalPlan::Filter { input, predicate } = source {
            if std::ptr::eq(source, plan) || matches!(**input, LogicalPlan::Scan { .. }) {
                segment.filter = Some(predicate);
                source = input;
            }
        }
        segment.extractor = segment.shared_extractor();
        if let Some(predicate) = segment.filter {
            let mut referenced = std::collections::BTreeSet::new();
            predicate.collect_columns(&mut referenced);
            let width = source.schema().fields().len();
            // Out-of-range references (a planner bug) are left out so the
            // filter's own eval reports the error instead of an index panic.
            segment.filter_cols = referenced.iter().copied().filter(|&c| c < width).collect();
            segment.rest_cols = (0..width).filter(|c| !referenced.contains(c)).collect();
        }
        (segment, source)
    }

    /// The shared-parse extraction sites of every stage of the segment.
    fn shared_extractor(&self) -> Option<JsonExtractor> {
        let mut exprs: Vec<&Expr> = Vec::new();
        exprs.extend(self.filter);
        if let Some(list) = self.project {
            exprs.extend(list.iter().map(|(e, _)| e));
        }
        if let Some((group_by, aggs)) = self.agg {
            exprs.extend(group_by.iter());
            exprs.extend(aggs.iter().filter_map(|(_, a)| a.as_ref()));
        }
        JsonExtractor::from_exprs(exprs)
    }

    /// This projection segment evaluating `exprs` instead of its own list,
    /// each sink's rows cut by `top_n`.
    fn late_eager(self, exprs: &'a [(Expr, String)], top_n: &'a TopN<'a>) -> Self {
        let mut segment = PipelineSegment {
            project: Some(exprs),
            top_n: Some(top_n),
            ..self
        };
        segment.extractor = segment.shared_extractor();
        segment
    }

    /// Span name of this segment when it runs over a materialised input.
    fn stage_name(&self) -> &'static str {
        if self.agg.is_some() {
            "hash_agg"
        } else if self.project.is_some() {
            "project"
        } else {
            "filter"
        }
    }

    /// An empty sink of the kind this segment fills.
    fn new_sink(&self) -> Sink {
        match self.agg {
            Some((group_by, aggs)) => Sink::Agg(AggPartial::new(group_by, aggs)),
            None => Sink::Rows(Vec::new()),
        }
    }

    /// Materialize columnar row `i` into `scratch` with the filter applied
    /// lazily: only the predicate's columns are built before it runs; the
    /// rest are built only when the row survives. Returns `false` (and
    /// charges `batch_rows_skipped`) for rejected rows — their non-predicate
    /// slots then hold stale cells nothing reads.
    fn fill_row(
        &self,
        cols: &[maxson_storage::ColumnData],
        i: usize,
        scratch: &mut [Cell],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<bool> {
        match self.filter {
            Some(predicate) => {
                for &c in &self.filter_cols {
                    scratch[c] = cols[c].get(i);
                }
                metrics.cells_materialized += self.filter_cols.len() as u64;
                if !truthy(&predicate.eval_with(scratch, parser, metrics, slots)?) {
                    metrics.batch_rows_skipped += 1;
                    return Ok(false);
                }
                for &c in &self.rest_cols {
                    scratch[c] = cols[c].get(i);
                }
                metrics.cells_materialized += self.rest_cols.len() as u64;
            }
            None => {
                for (c, col) in cols.iter().enumerate() {
                    scratch[c] = col.get(i);
                }
                metrics.cells_materialized += cols.len() as u64;
            }
        }
        Ok(true)
    }

    /// The row loop: every row of `batch` that survives its selection
    /// vector and the segment's filter is projected into, copied into, or
    /// folded into `sink`, all under one [`RowSlots`] — so the projection
    /// or aggregation reuses the filter's parse. Columnar batches reuse one
    /// scratch row and materialize cells late
    /// ([`PipelineSegment::fill_row`]); row-major batches already own their
    /// cells and give each surviving row away. A bounded segment cuts the
    /// sink's rows to its [`TopN`] after the batch, so the batch's cells
    /// outlive it only in the kept rows.
    fn run(
        &self,
        batch: Batch,
        sink: &mut Sink,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        let (mut data, indexes) = batch.into_selected(metrics);
        let mut scratch = match &data {
            BatchData::Columns(cols) => vec![Cell::Null; cols.len()],
            BatchData::Rows(_) => Vec::new(),
        };
        for i in indexes {
            let i = i as usize;
            let slots = self.extractor.as_ref().map(RowSlots::new);
            let slots = slots.as_ref();
            let row = match &mut data {
                BatchData::Rows(rows) => {
                    if let Some(predicate) = self.filter {
                        if !truthy(&predicate.eval_with(&rows[i], parser, metrics, slots)?) {
                            continue;
                        }
                    }
                    Cow::Owned(std::mem::take(&mut rows[i]))
                }
                BatchData::Columns(cols) => {
                    if !self.fill_row(cols, i, &mut scratch, parser, metrics, slots)? {
                        continue;
                    }
                    Cow::Borrowed(scratch.as_slice())
                }
            };
            match sink {
                Sink::Rows(out) => out.push(match self.project {
                    Some(exprs) => {
                        let mut projected = Vec::with_capacity(exprs.len());
                        for (e, _) in exprs {
                            projected.push(e.eval_with(&row, parser, metrics, slots)?);
                        }
                        projected
                    }
                    // A scratch-row copy is cheap: cell clones are refcount
                    // bumps on shared buffers.
                    None => row.into_owned(),
                }),
                Sink::Agg(partial) => {
                    let (group_by, aggs) = self.agg.expect("an Agg sink comes from an agg segment");
                    partial.update(&row, group_by, aggs, parser, metrics, slots)?;
                }
            }
        }
        if let (Some(top_n), Sink::Rows(rows)) = (self.top_n, sink) {
            top_n.cut(rows, parser, metrics)?;
        }
        Ok(())
    }
}

/// The barrier of a pool run whose tasks return `(output, task metrics)`:
/// records the run's shape when it spawned threads, and yields the outputs
/// in task order as it absorbs each task's metrics into `metrics`, wall
/// gauges scaled to the workers that overlapped.
fn absorb_pool_run<'m, T: 'm>(
    metrics: &'m mut ExecMetrics,
    run: pool::PoolRun<(T, ExecMetrics)>,
) -> impl Iterator<Item = T> + 'm {
    if run.threads_spawned > 0 {
        let (p50, p95, skew) = pool::wall_stats(&run.task_walls);
        metrics.absorb(&ExecMetrics {
            threads_used: run.threads_spawned as u64,
            par_tasks: run.task_walls.len() as u64,
            task_wall_p50: p50,
            task_wall_p95: p95,
            task_skew: skew,
            ..Default::default()
        });
    }
    let workers = run.threads_spawned.max(1) as u32;
    run.results.into_iter().map(move |(out, mut task_metrics)| {
        scale_wall_gauges(&mut task_metrics, workers);
        metrics.absorb(&task_metrics);
        out
    })
}

/// Run a scan-rooted segment: one pool task per split, each scanning its
/// split into a batch and running the row loop over it against its own
/// zero-based metrics and sink; the barrier absorbs the metrics and merges
/// the sinks in split order. The pool decides where tasks run (inline on
/// this thread for one thread or at most one split); the pool gauges are
/// charged only when it spawned threads.
fn run_pipeline(
    segment: &PipelineSegment<'_>,
    provider: &dyn ScanProvider,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    let splits = provider.split_count();
    let span = tracer.child("scan_pipeline", parent);
    if span.is_recording() {
        span.attr("label", provider.label());
        let mut stages = String::from("scan");
        if segment.filter.is_some() {
            stages.push_str("+filter");
        }
        if segment.project.is_some() {
            stages.push_str("+project");
        }
        if segment.agg.is_some() {
            stages.push_str("+agg");
        }
        span.attr("stages", stages);
        span.attr("splits", splits);
    }
    // Tasks parent their per-split spans on the pipeline span even when
    // they record from pool threads — the guard id is Copy and the tracer
    // is Sync, so each split lands on its own thread track.
    let pipe_id = span.id();
    let run = pool::run_split_tasks(splits, opts.threads, opts.scheduler.as_deref(), |split| {
        let mut task_metrics = ExecMetrics::default();
        let split_span = tracer.child("split", pipe_id);
        split_span.attr("split", split);
        let zero = counters_before(tracer, &task_metrics);
        let mut sink = segment.new_sink();
        let batch = provider.scan_split(split, &mut task_metrics)?;
        segment.run(batch, &mut sink, parser, &mut task_metrics)?;
        if let Sink::Rows(rows) = &sink {
            split_span.attr("rows_out", rows.len());
        }
        attr_counter_deltas(&split_span, zero.as_ref(), &task_metrics);
        Ok((sink, task_metrics))
    })?;
    let merged = absorb_pool_run(metrics, run).reduce(|mut merged, later| {
        merged.merge(later);
        merged
    });
    // An empty table has no task to build a sink.
    let out = merged.unwrap_or_else(|| segment.new_sink()).finish();
    span.attr("rows_out", out.len());
    Ok(out)
}

/// Turn a pool task's serially-charged wall gauges into this run's
/// wall-clock estimate: `workers` tasks overlap, so each one contributes
/// roughly `1/workers` of elapsed time. Applied before the barrier absorbs
/// task metrics (division distributes over the per-task sum, so absorb
/// stays order-insensitive).
fn scale_wall_gauges(m: &mut ExecMetrics, workers: u32) {
    m.read_wall /= workers;
    m.parse_wall /= workers;
}

// ----------------------------------------------------------------------
// Late projection for top-N
// ----------------------------------------------------------------------

/// A `LIMIT` whose row `Project` defers its `get_json_object` work to the
/// rows the limit keeps. The plan is `Limit → [strip Project →] Sort →
/// Project` (the strip being the planner's hidden-order-column `Project`)
/// or `Limit → Project`, and applies only when nothing below the row
/// `Project` and no sort key reads JSON, while some projected expression
/// does. The projection then runs with each JSON-reading expression
/// replaced by a NULL placeholder, each task keeps its first `n` rows
/// ([`TopN`]), the rows sort and truncate as before, and the deferred
/// expressions run over the survivors alone.
///
/// The rows are exactly the full plan's: a projection is one row in, one
/// row out; `eval_with` fails only on an out-of-range column (a planner
/// bug); and the sort keys read only eager columns, so the stable order is
/// the same. The plan tree is untouched — the reuse cache executes its
/// peeled, limitless fragment as it always did.
struct LateProjection<'a> {
    /// The strip above the sort; it reads no JSON.
    strip: Option<&'a [(Expr, String)]>,
    /// Sort keys over the projection's output; `None` for `Limit → Project`.
    keys: Option<&'a [(Expr, bool)]>,
    /// The row `Project`.
    project: &'a LogicalPlan,
    /// The projection with a placeholder in place of each deferred
    /// expression, then one pass-through `Column` per input column the
    /// deferred expressions read (a `Cell::Str` clone is a refcount bump).
    eager: Vec<(Expr, String)>,
    /// Each deferred expression's output position and the expression over
    /// the eager row's pass-through columns.
    deferred: Vec<(usize, Expr)>,
    /// The projection's width; eager rows are truncated back to it.
    width: usize,
}

impl<'a> LateProjection<'a> {
    /// The late path for a `Limit` over `input`, when it applies.
    fn of(input: &'a LogicalPlan) -> Option<Self> {
        let (strip, below) = match input {
            LogicalPlan::Project { input, exprs, .. }
                if matches!(**input, LogicalPlan::Sort { .. }) =>
            {
                (Some(exprs.as_slice()), input.as_ref())
            }
            other => (None, other),
        };
        let (keys, project) = match below {
            LogicalPlan::Sort { input, keys } => (Some(keys.as_slice()), input.as_ref()),
            other => (None, other),
        };
        let LogicalPlan::Project {
            input: source,
            exprs,
            ..
        } = project
        else {
            return None;
        };
        let reads_json = |e: &Expr| e.json_parse_count() > 0;
        let late: Vec<usize> = (0..exprs.len())
            .filter(|&i| reads_json(&exprs[i].0))
            .collect();
        let eager_keys = keys.unwrap_or_default().iter().all(|(key, _)| {
            !reads_json(key) && key.referenced_columns().iter().all(|c| !late.contains(c))
        });
        if late.is_empty()
            || !eager_keys
            || source.json_parse_expr_count() > 0
            || strip.is_some_and(|s| s.iter().any(|(e, _)| reads_json(e)))
        {
            return None;
        }
        let mut passed: Vec<usize> = late
            .iter()
            .flat_map(|&i| exprs[i].0.referenced_columns())
            .collect();
        passed.sort_unstable();
        passed.dedup();
        let width = exprs.len();
        let at = |c: usize| width + passed.binary_search(&c).expect("a collected column");
        let deferred = late
            .iter()
            .map(|&i| {
                let e = exprs[i].0.clone().rewrite(&mut |node| match node {
                    Expr::Column(c) => Expr::Column(at(c)),
                    Expr::GetJsonObject { column, path } => Expr::GetJsonObject {
                        column: at(column),
                        path,
                    },
                    other => other,
                });
                (i, e)
            })
            .collect();
        let eager = (0..width)
            .map(|i| {
                let e = if late.contains(&i) {
                    Expr::Literal(Cell::Null)
                } else {
                    exprs[i].0.clone()
                };
                (e, String::new())
            })
            .chain(passed.iter().map(|&c| (Expr::Column(c), String::new())))
            .collect();
        Some(LateProjection {
            strip,
            keys,
            project,
            eager,
            deferred,
            width,
        })
    }

    /// Run the eager projection (and sort) under the `limit` span, keep the
    /// first `n` rows and evaluate the deferred expressions over them.
    fn run(
        &self,
        n: usize,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        opts: &ExecOptions,
        tracer: &Tracer,
        span: &SpanGuard<'_>,
    ) -> Result<Vec<Vec<Cell>>> {
        let top_n = TopN {
            keys: self.keys,
            n,
            offered: AtomicUsize::new(0),
        };
        let (segment, source) = PipelineSegment::extract(self.project);
        let segment = segment.late_eager(&self.eager, &top_n);
        let mut rows = match self.keys {
            Some(keys) => {
                let sort = tracer.child("sort", span.id());
                let rows = run_segment(&segment, source, parser, metrics, opts, tracer, sort.id())?;
                sort_stage(rows, keys, &sort, parser, metrics, tracer)?
            }
            None => run_segment(&segment, source, parser, metrics, opts, tracer, span.id())?,
        };
        let eager_rows = top_n.offered.load(Ordering::Relaxed);
        span.attr("rows_in", eager_rows);
        rows.truncate(n);
        let survivors = rows.len();
        span.attr("late_exprs", self.deferred.len());
        span.attr("late_rows", survivors);
        let before = counters_before(tracer, metrics);
        // One task unless nearly every row survives: finishing those in one
        // task would serialise parses the eager run could have split, so
        // they go to the pool in contiguous chunks, concatenated in order.
        let chunks = if survivors * opts.threads <= eager_rows {
            1
        } else {
            opts.threads
        };
        let parts: Vec<&[Vec<Cell>]> = rows.chunks(survivors.div_ceil(chunks).max(1)).collect();
        let run =
            pool::run_split_tasks(parts.len(), opts.threads, opts.scheduler.as_deref(), |i| {
                let mut task_metrics = ExecMetrics::default();
                let out = self.finish_rows(parts[i], parser, &mut task_metrics)?;
                Ok((out, task_metrics))
            })?;
        let out: Vec<Vec<Cell>> = absorb_pool_run(metrics, run).flatten().collect();
        span.attr("rows_out", out.len());
        attr_counter_deltas(span, before.as_ref(), metrics);
        Ok(out)
    }

    /// The output rows of the eager `rows`: the deferred expressions
    /// evaluated (one shared parse per row), the pass-through columns
    /// dropped and the strip applied.
    fn finish_rows(
        &self,
        rows: &[Vec<Cell>],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<Vec<Cell>>> {
        let extractor = JsonExtractor::from_exprs(self.deferred.iter().map(|(_, e)| e));
        rows.iter()
            .map(|eager| {
                let slots = extractor.as_ref().map(RowSlots::new);
                let mut row = eager[..self.width].to_vec();
                for (i, e) in &self.deferred {
                    row[*i] = e.eval_with(eager, parser, metrics, slots.as_ref())?;
                }
                match self.strip {
                    Some(strip) => strip
                        .iter()
                        .map(|(e, _)| e.eval_with(&row, parser, metrics, None))
                        .collect(),
                    None => Ok(row),
                }
            })
            .collect()
    }
}

/// The bound on a late projection's eager rows: each sink keeps only its
/// first `n` rows in `keys` order (stable; input order without keys). The
/// `n` rows a stable sort of every sink's rows, concatenated in split
/// order, keeps are among them — fewer than `n` rows precede such a row
/// overall, so fewer do within its sink — and their order is unchanged,
/// since ties keep split order and then input order. A pass-through
/// document therefore outlives its batch only in a kept row: the eager
/// rows hold at most `n` documents per split, not one per qualifying row.
struct TopN<'a> {
    keys: Option<&'a [(Expr, bool)]>,
    n: usize,
    /// Rows offered to every sink before the cut: the eager row count.
    offered: AtomicUsize,
}

impl TopN<'_> {
    /// Cut one sink's `rows` (filled by one batch) to the first `n`.
    fn cut(
        &self,
        rows: &mut Vec<Vec<Cell>>,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        self.offered.fetch_add(rows.len(), Ordering::Relaxed);
        if rows.len() > self.n {
            if let Some(keys) = self.keys {
                *rows = sort_rows(std::mem::take(rows), keys, parser, metrics)?;
            }
            rows.truncate(self.n);
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------

/// Running state of one aggregate call.
///
/// `Sum` and `Avg` **defer** their float addends instead of accumulating a
/// running `f64`: float addition is not associative, so the only way
/// parallel partials can finish to the exact bits of the serial result is
/// to replay the additions in serial input order at `finish` time. Partial
/// merge is then just addend concatenation (split order = input order).
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    CountDistinct(std::collections::HashSet<CellKey>),
    Sum {
        /// Coerced float value of every non-null input, in input order.
        addends: Vec<f64>,
        all_int: bool,
        isum: i64,
    },
    Min(Option<Cell>),
    Max(Option<Cell>),
    Avg {
        addends: Vec<f64>,
    },
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(std::collections::HashSet::new()),
            AggFunc::Sum => AggState::Sum {
                addends: Vec::new(),
                all_int: true,
                isum: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg {
                addends: Vec::new(),
            },
        }
    }

    fn update(&mut self, value: Option<&Cell>) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts every row (value None); COUNT(expr) skips NULL.
                match value {
                    None => *n += 1,
                    Some(c) if !c.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(c) = value {
                    if !c.is_null() {
                        set.insert(CellKey(c.clone()));
                    }
                }
            }
            AggState::Sum {
                addends,
                all_int,
                isum,
            } => {
                if let Some(c) = value {
                    if let Some(f) = c.coerce_f64() {
                        addends.push(f);
                        match c {
                            Cell::Int(i) => *isum = isum.wrapping_add(*i),
                            _ => *all_int = false,
                        }
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(c) = value {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(c.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(c) = value {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(c.clone());
                    }
                }
            }
            AggState::Avg { addends } => {
                if let Some(c) = value {
                    if let Some(f) = c.coerce_f64() {
                        addends.push(f);
                    }
                }
            }
        }
    }

    /// Merge a later split's state into this one. `other` must come from
    /// the same aggregate call (same variant), built over rows that follow
    /// this state's rows in input order.
    ///
    /// Every operation here is exact: counters add, sets union, addend
    /// lists concatenate (float folding is deferred to [`AggState::finish`]
    /// so it happens in global input order), and MIN/MAX treat the other
    /// side's extremum as one more update candidate. The single caveat is
    /// `sql_cmp` returning `None` for incomparable mixed-type pairs, where
    /// MIN/MAX keep the incumbent exactly like the serial fold does when it
    /// meets the same pair in the same order.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b),
            (
                AggState::Sum {
                    addends,
                    all_int,
                    isum,
                },
                AggState::Sum {
                    addends: other_addends,
                    all_int: other_all_int,
                    isum: other_isum,
                },
            ) => {
                addends.extend(other_addends);
                *all_int &= other_all_int;
                *isum = isum.wrapping_add(other_isum);
            }
            (AggState::Min(cur), AggState::Min(candidate)) => {
                if let Some(c) = candidate {
                    if cur
                        .as_ref()
                        .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(c);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(candidate)) => {
                if let Some(c) = candidate {
                    if cur
                        .as_ref()
                        .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(c);
                    }
                }
            }
            (
                AggState::Avg { addends },
                AggState::Avg {
                    addends: other_addends,
                },
            ) => addends.extend(other_addends),
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    fn finish(self) -> Cell {
        match self {
            AggState::Count(n) => Cell::Int(n),
            AggState::CountDistinct(set) => Cell::Int(set.len() as i64),
            AggState::Sum {
                addends,
                all_int,
                isum,
            } => {
                if addends.is_empty() {
                    Cell::Null
                } else if all_int {
                    Cell::Int(isum)
                } else {
                    // Left fold from 0.0 in input order: bit-identical to the
                    // incremental serial accumulator.
                    Cell::Float(addends.iter().fold(0.0, |acc, &x| acc + x))
                }
            }
            AggState::Min(c) | AggState::Max(c) => c.unwrap_or(Cell::Null),
            AggState::Avg { addends } => {
                if addends.is_empty() {
                    Cell::Null
                } else {
                    let sum = addends.iter().fold(0.0, |acc, &x| acc + x);
                    Cell::Float(sum / addends.len() as f64)
                }
            }
        }
    }
}

/// Aggregate state over one slice of input rows, mergeable across splits.
#[derive(Debug)]
enum AggPartial {
    Global(Vec<AggState>),
    Grouped {
        /// Group keys in first-seen order. The key cells double as the
        /// output key columns, so no separate per-group row is stored.
        order: Vec<RowKey>,
        groups: HashMap<RowKey, Vec<AggState>>,
    },
}

impl AggPartial {
    /// Empty partial of the right shape for `group_by` / `aggs`.
    fn new(group_by: &[Expr], aggs: &[(AggFunc, Option<Expr>)]) -> AggPartial {
        if group_by.is_empty() {
            AggPartial::Global(aggs.iter().map(|(f, _)| AggState::new(*f)).collect())
        } else {
            AggPartial::Grouped {
                order: Vec::new(),
                groups: HashMap::new(),
            }
        }
    }

    /// Fold one input row into this partial. `slots` (when present) shares
    /// the row's JSON parse across group keys, aggregate arguments, and the
    /// caller's already-evaluated filter.
    fn update(
        &mut self,
        row: &[Cell],
        group_by: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<()> {
        let states = match self {
            AggPartial::Global(states) => states,
            AggPartial::Grouped { order, groups } => {
                let mut keys = Vec::with_capacity(group_by.len());
                for g in group_by {
                    keys.push(g.eval_with(row, parser, metrics, slots)?);
                }
                // Probe with the evaluated cells directly — no per-row key
                // string. Only a first-seen group owns its key (cheap cell
                // clones).
                if !groups.contains_key(RowKeySlice::new(&keys)) {
                    let key = RowKey(keys.clone());
                    order.push(key.clone());
                    groups.insert(key, aggs.iter().map(|(f, _)| AggState::new(*f)).collect());
                }
                groups
                    .get_mut(RowKeySlice::new(&keys))
                    .expect("group inserted above")
            }
        };
        for (state, (_, arg)) in states.iter_mut().zip(aggs) {
            match arg {
                None => state.update(None),
                Some(e) => {
                    let v = e.eval_with(row, parser, metrics, slots)?;
                    state.update(Some(&v));
                }
            }
        }
        Ok(())
    }

    /// Merge a later split's partial into this one, preserving this side's
    /// first-seen group order and appending the other side's new groups in
    /// their own first-seen order — exactly the order a serial pass over
    /// the concatenated input would have discovered them in.
    fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Global(states), AggPartial::Global(other_states)) => {
                for (state, other_state) in states.iter_mut().zip(other_states) {
                    state.merge(other_state);
                }
            }
            (
                AggPartial::Grouped { order, groups },
                AggPartial::Grouped {
                    order: other_order,
                    groups: mut other_groups,
                },
            ) => {
                for key in other_order {
                    let states = other_groups
                        .remove(&key)
                        .expect("group key recorded in order list");
                    match groups.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            for (state, other_state) in e.get_mut().iter_mut().zip(states) {
                                state.merge(other_state);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            order.push(e.key().clone());
                            e.insert(states);
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate partials"),
        }
    }
}

/// Finish a (possibly merged) partial into output rows.
fn finish_aggregate(partial: AggPartial) -> Vec<Vec<Cell>> {
    match partial {
        AggPartial::Global(states) => {
            vec![states.into_iter().map(AggState::finish).collect()]
        }
        AggPartial::Grouped { order, mut groups } => {
            let mut out = Vec::with_capacity(order.len());
            for key in order {
                let states = groups
                    .remove(&key)
                    .expect("group key recorded in order list");
                let mut row = key.into_cells();
                row.extend(states.into_iter().map(AggState::finish));
                out.push(row);
            }
            out
        }
    }
}

fn hash_join(
    left_rows: Vec<Vec<Cell>>,
    right_rows: Vec<Vec<Cell>>,
    left_key: &Expr,
    right_key: &Expr,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
) -> Result<Vec<Vec<Cell>>> {
    // Each side keys on one expression over its own rows, so the shared
    // extractor covers that single expression (still worthwhile: a path
    // repeated inside one key expression parses once).
    let right_extractor = JsonExtractor::from_exprs([right_key]);
    let left_extractor = JsonExtractor::from_exprs([left_key]);
    // Build on the right side.
    let mut table: HashMap<CellKey, Vec<usize>> = HashMap::new();
    let mut right_keys = Vec::with_capacity(right_rows.len());
    for (i, row) in right_rows.iter().enumerate() {
        let slots = right_extractor.as_ref().map(RowSlots::new);
        let k = right_key.eval_with(row, parser, metrics, slots.as_ref())?;
        if !k.is_null() {
            table.entry(CellKey(k.clone())).or_default().push(i);
        }
        right_keys.push(k);
    }
    let mut out = Vec::new();
    for lrow in &left_rows {
        let slots = left_extractor.as_ref().map(RowSlots::new);
        let k = left_key.eval_with(lrow, parser, metrics, slots.as_ref())?;
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&CellKey(k.clone())) {
            for &ri in matches {
                let mut combined = lrow.clone();
                combined.extend(right_rows[ri].iter().cloned());
                out.push(combined);
            }
        }
    }
    Ok(out)
}

fn sort_rows(
    rows: Vec<Vec<Cell>>,
    keys: &[(Expr, bool)],
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
) -> Result<Vec<Vec<Cell>>> {
    let extractor = JsonExtractor::from_exprs(keys.iter().map(|(e, _)| e));
    // Precompute sort keys once per row (get_json_object keys are costly).
    let mut keyed: Vec<(Vec<Cell>, Vec<Cell>)> = Vec::with_capacity(rows.len());
    for row in rows {
        let slots = extractor.as_ref().map(RowSlots::new);
        let mut ks = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            ks.push(e.eval_with(&row, parser, metrics, slots.as_ref())?);
        }
        keyed.push((ks, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(keys) {
            let ord = a.total_cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use maxson_storage::{ColumnType, Field, Schema};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn rows3() -> Vec<Vec<Cell>> {
        vec![
            vec![Cell::Str("a".into()), Cell::Int(1)],
            vec![Cell::Str("b".into()), Cell::Int(2)],
            vec![Cell::Str("a".into()), Cell::Int(3)],
            vec![Cell::Str("c".into()), Cell::Null],
        ]
    }

    fn m() -> ExecMetrics {
        ExecMetrics::default()
    }

    /// Execute a plan to completion with explicit options (untraced).
    fn execute_plan_with(
        plan: &LogicalPlan,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        opts: ExecOptions,
    ) -> Result<Vec<Vec<Cell>>> {
        execute_plan_traced(plan, parser, metrics, &opts, &Tracer::disabled(), None)
    }

    /// Test provider with an explicit split structure.
    #[derive(Debug)]
    struct SplitFixed {
        schema: Schema,
        splits: Vec<Vec<Vec<Cell>>>,
        /// Index of a split whose scan should panic (poisoned data).
        poisoned: Option<usize>,
    }

    impl SplitFixed {
        fn new(splits: Vec<Vec<Vec<Cell>>>) -> Self {
            SplitFixed {
                schema: Schema::new(vec![
                    Field::new("tag", ColumnType::Utf8),
                    Field::new("v", ColumnType::Int64),
                ])
                .unwrap(),
                splits,
                poisoned: None,
            }
        }
    }

    impl ScanProvider for SplitFixed {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn split_count(&self) -> usize {
            self.splits.len()
        }
        fn scan_split(&self, split: usize, m: &mut ExecMetrics) -> crate::error::Result<Batch> {
            if self.poisoned == Some(split) {
                panic!("corrupt split body");
            }
            let rows = self.splits[split].clone();
            m.rows_scanned += rows.len() as u64;
            Ok(Batch::from_rows(rows))
        }
        fn label(&self) -> String {
            "SplitFixed".into()
        }
    }

    fn ten_split_plan(poisoned: Option<usize>) -> LogicalPlan {
        // 10 splits x 8 rows with cycling tags and float-ish values.
        let splits: Vec<Vec<Vec<Cell>>> = (0..10)
            .map(|s| {
                (0..8)
                    .map(|i| {
                        let n = (s * 8 + i) as i64;
                        vec![Cell::from(format!("g{}", n % 3)), Cell::Int(n)]
                    })
                    .collect()
            })
            .collect();
        let mut provider = SplitFixed::new(splits);
        provider.poisoned = poisoned;
        LogicalPlan::Scan {
            provider: Box::new(provider),
        }
    }

    /// One split of five rows, all tagged `g0`.
    fn single_split_plan(poisoned: Option<usize>) -> LogicalPlan {
        let splits = vec![(0..5)
            .map(|i| vec![Cell::Str("g0".into()), Cell::Int(i)])
            .collect()];
        let mut provider = SplitFixed::new(splits);
        provider.poisoned = poisoned;
        LogicalPlan::Scan {
            provider: Box::new(provider),
        }
    }

    /// Aggregate through the one entry point: every element of `splits` is
    /// one batch with its own partial, merged in order. One split is the
    /// no-merge reference.
    fn aggregate(
        splits: Vec<Vec<Vec<Cell>>>,
        group_by: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
    ) -> Vec<Vec<Cell>> {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                provider: Box::new(SplitFixed::new(splits)),
            }),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            schema: Schema::new(vec![Field::new("g", ColumnType::Utf8)]).unwrap(),
        };
        execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut m(),
            ExecOptions::serial(),
        )
        .unwrap()
    }

    #[test]
    fn global_aggregates() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some(Expr::Column(1))),
            (AggFunc::Sum, Some(Expr::Column(1))),
            (AggFunc::Min, Some(Expr::Column(1))),
            (AggFunc::Max, Some(Expr::Column(1))),
            (AggFunc::Avg, Some(Expr::Column(1))),
        ];
        let out = aggregate(vec![rows3()], &[], &aggs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Cell::Int(4)); // COUNT(*)
        assert_eq!(out[0][1], Cell::Int(3)); // COUNT(v) skips null
        assert_eq!(out[0][2], Cell::Int(6)); // SUM
        assert_eq!(out[0][3], Cell::Int(1)); // MIN
        assert_eq!(out[0][4], Cell::Int(3)); // MAX
        assert_eq!(out[0][5], Cell::Float(2.0)); // AVG
    }

    #[test]
    fn empty_input_aggregates() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(0))),
            (AggFunc::Avg, Some(Expr::Column(0))),
            (AggFunc::Min, Some(Expr::Column(0))),
        ];
        // No split at all, and one split with no row.
        for splits in [vec![], vec![vec![]]] {
            let out = aggregate(splits, &[], &aggs);
            assert_eq!(
                out[0],
                vec![Cell::Int(0), Cell::Null, Cell::Null, Cell::Null]
            );
        }
    }

    #[test]
    fn grouped_aggregates_preserve_first_seen_order() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(1))),
        ];
        let out = aggregate(vec![rows3()], &[Expr::Column(0)], &aggs);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            vec![Cell::Str("a".into()), Cell::Int(2), Cell::Int(4)]
        );
        assert_eq!(
            out[1],
            vec![Cell::Str("b".into()), Cell::Int(1), Cell::Int(2)]
        );
        assert_eq!(
            out[2],
            vec![Cell::Str("c".into()), Cell::Int(1), Cell::Null]
        );
    }

    /// Float SUM/AVG must be bitwise identical however the input is split
    /// into merged partials — the property the whole deferred-addend design
    /// exists for (0.1 + 0.2 + 0.3 famously re-associates differently).
    #[test]
    fn float_sum_is_bitwise_identical_across_split_boundaries() {
        let values: Vec<f64> = (1..=23).map(|i| 0.1 * i as f64).collect();
        let rows: Vec<Vec<Cell>> = values.iter().map(|&v| vec![Cell::Float(v)]).collect();
        let aggs = vec![
            (AggFunc::Sum, Some(Expr::Column(0))),
            (AggFunc::Avg, Some(Expr::Column(0))),
        ];
        let serial = aggregate(vec![rows.clone()], &[], &aggs);
        for cut1 in 0..rows.len() {
            for cut2 in cut1..rows.len() {
                let splits = vec![
                    rows[..cut1].to_vec(),
                    rows[cut1..cut2].to_vec(),
                    rows[cut2..].to_vec(),
                ];
                let merged = aggregate(splits, &[], &aggs);
                // Compare exact bits, not approximate equality.
                let (Cell::Float(a), Cell::Float(b)) = (&serial[0][0], &merged[0][0]) else {
                    panic!("expected float sums");
                };
                assert_eq!(a.to_bits(), b.to_bits(), "cut at {cut1}/{cut2}");
                assert_eq!(serial[0], merged[0]);
            }
        }
    }

    #[test]
    fn grouped_merge_preserves_global_first_seen_order() {
        let rows = rows3();
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(1))),
        ];
        let group = vec![Expr::Column(0)];
        let serial = aggregate(vec![rows.clone()], &group, &aggs);
        for cut in 0..=rows.len() {
            let splits = vec![rows[..cut].to_vec(), rows[cut..].to_vec()];
            assert_eq!(aggregate(splits, &group, &aggs), serial, "cut at {cut}");
        }
    }

    #[test]
    fn count_distinct_merges_as_set_union() {
        let rows = rows3();
        let aggs = vec![(AggFunc::CountDistinct, Some(Expr::Column(0)))];
        let serial = aggregate(vec![rows.clone()], &[], &aggs);
        let splits = vec![rows[..2].to_vec(), rows[2..].to_vec()];
        assert_eq!(aggregate(splits, &[], &aggs), serial);
        assert_eq!(serial[0][0], Cell::Int(3));
    }

    #[test]
    fn join_matches_and_skips_nulls() {
        let left = vec![
            vec![Cell::Int(1), Cell::Str("l1".into())],
            vec![Cell::Int(2), Cell::Str("l2".into())],
            vec![Cell::Null, Cell::Str("ln".into())],
        ];
        let right = vec![
            vec![Cell::Int(2), Cell::Str("r2".into())],
            vec![Cell::Int(2), Cell::Str("r2b".into())],
            vec![Cell::Int(3), Cell::Str("r3".into())],
            vec![Cell::Null, Cell::Str("rn".into())],
        ];
        let out = hash_join(
            left,
            right,
            &Expr::Column(0),
            &Expr::Column(0),
            JsonParserKind::Jackson,
            &mut m(),
        )
        .unwrap();
        // Only key 2 matches, twice.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 4);
        assert_eq!(out[0][1], Cell::Str("l2".into()));
        assert_eq!(out[1][3], Cell::Str("r2b".into()));
    }

    #[test]
    fn join_keys_compare_numerically_across_types() {
        let left = vec![vec![Cell::Int(2)]];
        let right = vec![vec![Cell::Float(2.0)]];
        let out = hash_join(
            left,
            right,
            &Expr::Column(0),
            &Expr::Column(0),
            JsonParserKind::Jackson,
            &mut m(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sort_multi_key_with_direction() {
        let rows = vec![
            vec![Cell::Str("b".into()), Cell::Int(1)],
            vec![Cell::Str("a".into()), Cell::Int(2)],
            vec![Cell::Str("a".into()), Cell::Int(1)],
        ];
        let keys = vec![(Expr::Column(0), true), (Expr::Column(1), false)];
        let out = sort_rows(rows, &keys, JsonParserKind::Jackson, &mut m()).unwrap();
        assert_eq!(out[0], vec![Cell::Str("a".into()), Cell::Int(2)]);
        assert_eq!(out[1], vec![Cell::Str("a".into()), Cell::Int(1)]);
        assert_eq!(out[2], vec![Cell::Str("b".into()), Cell::Int(1)]);
    }

    #[test]
    fn sort_nulls_first() {
        let rows = vec![vec![Cell::Int(5)], vec![Cell::Null], vec![Cell::Int(1)]];
        let out = sort_rows(
            rows,
            &[(Expr::Column(0), true)],
            JsonParserKind::Jackson,
            &mut m(),
        )
        .unwrap();
        assert_eq!(out[0][0], Cell::Null);
        assert_eq!(out[1][0], Cell::Int(1));
    }

    #[test]
    fn sum_mixed_int_float_is_float() {
        let rows = vec![vec![Cell::Int(1)], vec![Cell::Float(2.5)]];
        let aggs = vec![(AggFunc::Sum, Some(Expr::Column(0)))];
        let out = aggregate(vec![rows], &[], &aggs);
        assert_eq!(out[0][0], Cell::Float(3.5));
    }

    #[test]
    fn sum_of_numeric_strings_coerces() {
        // JSON-extracted values arrive as strings; SUM must still work.
        let rows = vec![vec![Cell::Str("10".into())], vec![Cell::Str("5".into())]];
        let aggs = vec![(AggFunc::Sum, Some(Expr::Column(0)))];
        let out = aggregate(vec![rows], &[], &aggs);
        assert_eq!(out[0][0], Cell::Float(15.0));
    }

    #[test]
    fn filter_and_limit_via_execute_plan_with() {
        // Build a plan over a fake provider.
        #[derive(Debug)]
        struct Fixed(Schema, Vec<Vec<Cell>>);
        impl ScanProvider for Fixed {
            fn schema(&self) -> &Schema {
                &self.0
            }
            fn scan_split(
                &self,
                _split: usize,
                _m: &mut ExecMetrics,
            ) -> crate::error::Result<Batch> {
                Ok(Batch::from_rows(self.1.clone()))
            }
            fn label(&self) -> String {
                "Fixed".into()
            }
        }
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap();
        let rows: Vec<Vec<Cell>> = (0..10).map(|i| vec![Cell::Int(i)]).collect();
        let plan = LogicalPlan::Limit {
            n: 3,
            input: Box::new(LogicalPlan::Filter {
                predicate: Expr::Binary {
                    left: Box::new(Expr::Column(0)),
                    op: BinaryOp::GtEq,
                    right: Box::new(Expr::Literal(Cell::Int(4))),
                },
                input: Box::new(LogicalPlan::Scan {
                    provider: Box::new(Fixed(schema, rows)),
                }),
            }),
        };
        let out = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut m(),
            ExecOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(
            out,
            vec![vec![Cell::Int(4)], vec![Cell::Int(5)], vec![Cell::Int(6)]]
        );
    }

    #[test]
    fn exec_options_resolution() {
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(0).threads, 1);
        assert_eq!(ExecOptions::with_threads(7).threads, 7);
        assert!(default_threads() >= 1);
    }

    /// The same multi-split plan at 1/2/4/8 threads: identical rows and
    /// identical absorbed counters, with pool gauges set only when threads
    /// were actually used.
    #[test]
    fn parallel_scan_filter_matches_serial_exactly() {
        let predicate = Expr::Binary {
            left: Box::new(Expr::Column(1)),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(13))),
        };
        let plan = LogicalPlan::Filter {
            predicate,
            input: Box::new(ten_split_plan(None)),
        };
        let mut serial_m = m();
        let serial = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut serial_m,
            ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(serial_m.threads_used, 0, "one thread never spawns a worker");
        for threads in [2, 4, 8] {
            let mut par_m = m();
            let parallel = execute_plan_with(
                &plan,
                JsonParserKind::Jackson,
                &mut par_m,
                ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(parallel, serial, "{threads} threads");
            assert_eq!(par_m.rows_scanned, serial_m.rows_scanned);
            assert_eq!(par_m.threads_used, threads as u64);
            assert_eq!(par_m.par_tasks, 10);
            assert!(par_m.task_skew >= 1.0);
        }
    }

    #[test]
    fn parallel_grouped_aggregate_matches_serial_exactly() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(ten_split_plan(None)),
            group_by: vec![Expr::Column(0)],
            aggs: vec![
                (AggFunc::Count, None),
                (AggFunc::Sum, Some(Expr::Column(1))),
                (AggFunc::Min, Some(Expr::Column(1))),
                (AggFunc::Max, Some(Expr::Column(1))),
                (AggFunc::Avg, Some(Expr::Column(1))),
            ],
            schema: Schema::new(vec![Field::new("g", ColumnType::Utf8)]).unwrap(),
        };
        let mut serial_m = m();
        let serial = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut serial_m,
            ExecOptions::serial(),
        )
        .unwrap();
        let mut par_m = m();
        let parallel = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut par_m,
            ExecOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(par_m.rows_scanned, serial_m.rows_scanned);
    }

    #[test]
    fn poisoned_split_propagates_error_with_split_index() {
        for (plan, opts, split) in [
            (ten_split_plan(Some(7)), ExecOptions::with_threads(4), 7),
            (ten_split_plan(Some(7)), ExecOptions::serial(), 7),
            (single_split_plan(Some(0)), ExecOptions::with_threads(4), 0),
        ] {
            let threads = opts.threads;
            let err =
                execute_plan_with(&plan, JsonParserKind::Jackson, &mut m(), opts).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("split {split}")),
                "error must name the split at {threads} threads: {msg}"
            );
            assert!(msg.contains("corrupt split body"), "{msg}");
        }
    }

    #[derive(Debug, Default)]
    struct CountingScheduler {
        acquires: AtomicUsize,
        releases: AtomicUsize,
    }

    impl pool::SplitScheduler for CountingScheduler {
        fn acquire(&self) {
            self.acquires.fetch_add(1, Ordering::SeqCst);
        }
        fn release(&self) {
            self.releases.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One acquire/release pair per split task, whether the pool runs the
    /// tasks inline (one thread, or a single split) or on workers.
    #[test]
    fn every_split_task_runs_inside_a_scheduler_permit() {
        let ten_split_aggregate = || LogicalPlan::Aggregate {
            input: Box::new(ten_split_plan(None)),
            group_by: vec![Expr::Column(0)],
            aggs: vec![(AggFunc::Count, None)],
            schema: Schema::new(vec![Field::new("g", ColumnType::Utf8)]).unwrap(),
        };
        for threads in [1, 4] {
            for (plan, splits) in [
                (ten_split_plan(None), 10),
                (ten_split_aggregate(), 10),
                (single_split_plan(None), 1),
            ] {
                let scheduler = Arc::new(CountingScheduler::default());
                let opts = ExecOptions::with_threads(threads)
                    .with_scheduler(Some(scheduler.clone() as Arc<_>));
                execute_plan_with(&plan, JsonParserKind::Jackson, &mut m(), opts).unwrap();
                assert_eq!(
                    (
                        scheduler.acquires.load(Ordering::SeqCst),
                        scheduler.releases.load(Ordering::SeqCst)
                    ),
                    (splits, splits),
                    "{threads} threads, {splits} splits"
                );
            }
        }
    }

    #[test]
    fn single_split_scan_stays_serial_even_with_many_threads() {
        let plan = single_split_plan(None);
        let mut metrics = m();
        let rows = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::with_threads(8),
        )
        .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(metrics.threads_used, 0, "single split must not use pool");
        assert_eq!(metrics.par_tasks, 0);
    }

    #[test]
    fn empty_table_stays_serial() {
        let plan = LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(Vec::new())),
        };
        let mut metrics = m();
        let rows = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::with_threads(8),
        )
        .unwrap();
        assert!(rows.is_empty());
        assert_eq!(metrics.threads_used, 0);
    }

    fn jp(column: usize, path: &str) -> Expr {
        Expr::GetJsonObject {
            column,
            path: maxson_json::JsonPath::parse(path).unwrap(),
        }
    }

    /// 2 splits x 4 rows; col 0 is a JSON document, col 1 a raw int.
    fn json_split_plan() -> LogicalPlan {
        let splits: Vec<Vec<Vec<Cell>>> = (0..2)
            .map(|s| {
                (0..4)
                    .map(|i| {
                        let n = s * 4 + i;
                        vec![
                            Cell::from(format!(r#"{{"a": {n}, "b": "t{n}", "v": {}}}"#, n % 3)),
                            Cell::Int(n as i64),
                        ]
                    })
                    .collect()
            })
            .collect();
        LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(splits)),
        }
    }

    fn json_project(input: LogicalPlan, filter: Expr) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                predicate: filter,
                input: Box::new(input),
            }),
            exprs: vec![
                (jp(0, "$.a"), "a".into()),
                (jp(0, "$.b"), "b".into()),
                (jp(0, "$.v"), "v".into()),
            ],
            schema: Schema::new(vec![
                Field::new("a", ColumnType::Utf8),
                Field::new("b", ColumnType::Utf8),
                Field::new("v", ColumnType::Utf8),
            ])
            .unwrap(),
        }
    }

    fn strs(cells: &[&str]) -> Vec<Cell> {
        cells.iter().map(|c| Cell::from(*c)).collect()
    }

    /// The filter *and* the projection above it are answered from one
    /// parse per row: every path evaluation is still a `parse_call`, but
    /// only the eight rows are parsed, at any thread count.
    #[test]
    fn pipeline_parses_each_row_once_across_filter_and_projection() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.v")),
            op: BinaryOp::Gt,
            right: Box::new(Expr::Literal(Cell::Int(0))),
        };
        let plan = json_project(json_split_plan(), filter);
        // Rows whose `$.v = n % 3` is 1 or 2.
        let expected: Vec<Vec<Cell>> = [1, 2, 4, 5, 7]
            .iter()
            .map(|n| strs(&[&n.to_string(), &format!("t{n}"), &(n % 3).to_string()]))
            .collect();
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            for threads in [1, 4] {
                let mut metrics = m();
                let rows = execute_plan_with(
                    &plan,
                    parser,
                    &mut metrics,
                    ExecOptions::with_threads(threads),
                )
                .unwrap();
                assert_eq!(rows, expected, "{parser:?} at {threads} threads");
                // 8 filter evals + 3 projected paths x 5 passing rows.
                assert_eq!(metrics.parse_calls, 23);
                assert_eq!(metrics.docs_parsed, 8, "one parse per row");
            }
        }
    }

    /// Rows rejected by a raw-column predicate must not parse at all:
    /// slots fill on first JSON access, which never happens for them.
    #[test]
    fn rows_rejected_by_a_raw_predicate_parse_nothing() {
        let filter = Expr::Binary {
            left: Box::new(Expr::Column(1)),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(6))),
        };
        let plan = json_project(json_split_plan(), filter);
        let mut metrics = m();
        let rows = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(rows, vec![strs(&["6", "t6", "0"]), strs(&["7", "t7", "1"])]);
        assert_eq!(metrics.parse_calls, 6, "3 paths x 2 passing rows");
        assert_eq!(metrics.docs_parsed, 2, "skipped rows parse nothing");
    }

    /// A top-N over a raw sort key parses only the rows the limit keeps —
    /// in one task, or split over the pool when nearly every row survives —
    /// and returns the first `n` rows of the unlimited plan, also when the
    /// key's ties span both splits and each split cuts its own rows first.
    #[test]
    fn late_projection_parses_only_the_kept_rows() {
        let distinct = Expr::Column(0);
        // `n % 3`: three ties, each spanning both splits.
        let tied = Expr::Binary {
            left: Box::new(Expr::Column(0)),
            op: BinaryOp::Mod,
            right: Box::new(Expr::Literal(Cell::Int(3))),
        };
        for key in [distinct, tied] {
            late_projection_case(key);
        }
    }

    fn late_projection_case(key: Expr) {
        let top = |n: Option<usize>| {
            let project = LogicalPlan::Project {
                input: Box::new(json_split_plan()),
                exprs: vec![
                    (Expr::Column(1), "n".into()),
                    (jp(0, "$.b"), "b".into()),
                    (jp(0, "$.a"), "a".into()),
                ],
                schema: Schema::new(vec![
                    Field::new("n", ColumnType::Int64),
                    Field::new("b", ColumnType::Utf8),
                    Field::new("a", ColumnType::Utf8),
                ])
                .unwrap(),
            };
            let sort = LogicalPlan::Sort {
                input: Box::new(project),
                keys: vec![(key.clone(), false)],
            };
            match n {
                Some(n) => LogicalPlan::Limit {
                    input: Box::new(sort),
                    n,
                },
                None => sort,
            }
        };
        let full = execute_plan_with(
            &top(None),
            JsonParserKind::Jackson,
            &mut m(),
            ExecOptions::serial(),
        )
        .unwrap();
        for parser in [JsonParserKind::Jackson, JsonParserKind::Tape] {
            for threads in [1, 4] {
                for n in [0, 3, 8, 20] {
                    let mut metrics = m();
                    let rows = execute_plan_with(
                        &top(Some(n)),
                        parser,
                        &mut metrics,
                        ExecOptions::with_threads(threads),
                    )
                    .unwrap();
                    let kept = n.min(full.len());
                    let case = format!("{key:?}, {parser:?}, {threads} threads, limit {n}");
                    assert_eq!(rows, full[..kept], "{case}");
                    assert_eq!(metrics.docs_parsed, kept as u64, "{case}");
                    assert_eq!(metrics.parse_calls, 2 * kept as u64, "{case}");
                    // Pool tasks: the scan's two splits, then one per chunk
                    // of the kept rows when kept × threads > eager rows.
                    let tasks = if threads == 1 {
                        0
                    } else if kept * threads <= full.len() {
                        2
                    } else {
                        2 + kept.div_ceil(kept.div_ceil(threads))
                    };
                    assert_eq!(metrics.par_tasks, tasks as u64, "{case}");
                }
            }
        }
    }

    /// Aggregation over JSON group keys and arguments shares the filter's
    /// parse too: filter, group key and SUM argument cost one parse per row.
    #[test]
    fn aggregate_shares_the_filter_parse() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.v")),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(0))),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                predicate: filter,
                input: Box::new(json_split_plan()),
            }),
            group_by: vec![jp(0, "$.v")],
            aggs: vec![(AggFunc::Count, None), (AggFunc::Sum, Some(jp(0, "$.a")))],
            schema: Schema::new(vec![Field::new("v", ColumnType::Utf8)]).unwrap(),
        };
        // Groups in first-seen order; extracted values are strings, so SUM
        // folds them as floats.
        let expected = vec![
            vec![Cell::from("0"), Cell::Int(3), Cell::Float(9.0)],
            vec![Cell::from("1"), Cell::Int(3), Cell::Float(12.0)],
            vec![Cell::from("2"), Cell::Int(2), Cell::Float(7.0)],
        ];
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            for threads in [1, 4] {
                let mut metrics = m();
                let rows = execute_plan_with(
                    &plan,
                    parser,
                    &mut metrics,
                    ExecOptions::with_threads(threads),
                )
                .unwrap();
                assert_eq!(rows, expected, "{parser:?} at {threads} threads");
                assert_eq!(metrics.parse_calls, 24);
                assert_eq!(metrics.docs_parsed, 8);
            }
        }
    }
}
