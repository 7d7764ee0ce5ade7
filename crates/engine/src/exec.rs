//! Volcano-style (materialized) plan execution around one row loop.
//!
//! ## One row loop
//!
//! Filter, Project and Aggregate are evaluated in exactly one place,
//! `PipelineSegment::run`: it takes one batch layout, [`Columns`], applies
//! the segment's filter, and feeds every surviving row to a `Sink` — the
//! output row vector (projected or not) or an aggregate partial. Two
//! things produce batches:
//!
//! * **scans** — `Scan`, `Filter(Scan)`, `Project([Filter](Scan))` and
//!   `Aggregate([Filter](Scan))` are fused into one segment whose batches
//!   come from `provider.scan_split(i)`, one task per split
//!   (`run_pipeline`);
//! * **materialised inputs** — a Filter / Project / Aggregate over a join,
//!   aggregate (HAVING, the post-aggregate projection), sort, limit or
//!   distinct runs the same loop over `Columns::from_rows(child_rows)`,
//!   each cell moved into a column of cells, one stage per operator
//!   (stages over a materialised input are not fused, so each keeps its
//!   own shared-parse extractor and span).
//!
//! Output rows are built by the segment's `RowShape`: a bare `Column`
//! output is handed over, not evaluated — moved out of the batch for the
//! rows the filter keeps — so each cell reaches the result once. The batch
//! decides what a cell costs: one built from a column is charged to
//! `cells_materialized`, one moved out of a column of cells is not.
//!
//! Join, sort, limit and distinct are blocking operators, not row loops,
//! and keep arms of their own in [`execute_plan_traced`]. A limit over a
//! row projection runs as a top-N (`TopN`): each split task keeps its
//! first `n` rows and decodes the columns only they need at those rows
//! alone, and JSON work the sort does not need waits for the rows the
//! limit keeps.
//!
//! ## Split tasks
//!
//! `run_pipeline` hands the splits to [`crate::pool::run_split_tasks`] at
//! every thread count and split count. The caller and up to `threads - 1`
//! scoped worker threads share one split cursor (none are spawned when
//! `threads <= 1` or the table has at most one split, and the caller runs
//! the splits in order); each task runs inside the scheduler's
//! acquire/release bracket and a panic comes back as an error naming the
//! split. Each task charges its own
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use maxson_obs::{SpanGuard, SpanId, Tracer};
use maxson_storage::{Cell, CellKey, RowKey, RowKeySlice};

use crate::error::{EngineError, Result};
use crate::expr::{truthy, Expr, JsonParserKind};
use crate::extract::{JsonExtractor, RowSlots};
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use crate::pool;
use crate::scan::{Columns, ScanProvider};
use crate::sql::ast::AggFunc;

/// Knobs controlling one plan execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Maximum worker threads for split tasks, the calling thread
    /// included. At `1` the calling thread runs every task, in split order.
    pub threads: usize,
    /// Cooperative split scheduler: when set, every split task, on whichever
    /// thread, runs inside an acquire/release bracket so a query server can
    /// time-slice split execution fairly across concurrent queries.
    pub scheduler: Option<std::sync::Arc<dyn pool::SplitScheduler>>,
}

impl ExecOptions {
    /// One thread: the calling thread runs every split task.
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
            if let Some(top_n) = TopN::of(input) {
                return top_n.run(*n, parser, metrics, opts, tracer, &span);
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
    // moved into one batch of cells.
    let span = tracer.child(segment.stage_name(), parent);
    let rows = execute_plan_traced(source, parser, metrics, opts, tracer, span.id())?;
    span.attr("rows_in", rows.len());
    let before = counters_before(tracer, metrics);
    let mut sink = segment.new_sink();
    let batch = Columns::from_rows(rows, segment.width)?;
    segment.run(batch, &mut sink, parser, metrics)?;
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
    /// Width of the input schema.
    width: usize,
    /// Input-schema columns the filter reads (ascending): only these are
    /// materialized before the filter runs.
    filter_cols: Vec<usize>,
    /// The complement of `filter_cols` over the input schema (ascending):
    /// what an aggregation materializes for rows the filter keeps.
    rest_cols: Vec<usize>,
    /// How a row segment (no aggregation) builds its output rows.
    shape: Option<RowShape<'a>>,
    /// A top-N's share of each batch's rows (see [`Bound`]).
    bound: Option<&'a Bound<'a>>,
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
            width: 0,
            filter_cols: Vec::new(),
            rest_cols: Vec::new(),
            shape: None,
            bound: None,
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
        let mut referenced = std::collections::BTreeSet::new();
        if let Some(predicate) = segment.filter {
            predicate.collect_columns(&mut referenced);
        }
        let width = source.schema().fields().len();
        // Out-of-range references (a planner bug) are left out so the
        // filter's own eval reports the error instead of an index panic.
        segment.width = width;
        segment.filter_cols = referenced.iter().copied().filter(|&c| c < width).collect();
        segment.rest_cols = (0..width).filter(|c| !referenced.contains(c)).collect();
        segment.derive();
        (segment, source)
    }

    /// Recompute what follows from the stages: the shared extractor and
    /// the row shape.
    fn derive(&mut self) {
        self.extractor = self.shared_extractor();
        let mut keyed = std::collections::BTreeSet::new();
        for (key, _) in self.bound.and_then(|b| b.keys).unwrap_or_default() {
            key.collect_columns(&mut keyed);
        }
        self.shape = self
            .agg
            .is_none()
            .then(|| RowShape::new(self.project, self.width, &self.filter_cols, &keyed));
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
    /// each batch's rows cut to `bound`.
    fn bounded(self, exprs: &'a [(Expr, String)], bound: &'a Bound<'a>) -> Self {
        let mut segment = PipelineSegment {
            project: Some(exprs),
            bound: Some(bound),
            ..self
        };
        segment.derive();
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

    /// Run the segment's filter over batch row `i`, materializing only the
    /// predicate's columns into `scratch` first. Returns `false` for a
    /// rejected row, which the batch charges.
    fn keep_row(
        &self,
        cols: &mut Columns,
        i: usize,
        scratch: &mut [Cell],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<bool> {
        let Some(predicate) = self.filter else {
            return Ok(true);
        };
        cols.fill(&self.filter_cols, i, scratch, metrics);
        if !truthy(&predicate.eval_with(scratch, parser, metrics, slots)?) {
            cols.reject(metrics);
            return Ok(false);
        }
        Ok(true)
    }

    /// The row loop: every row of `batch` that survives the segment's
    /// filter is projected into, copied into, or folded into `sink`, all
    /// under one [`RowSlots`] — so the projection or aggregation reuses
    /// the filter's parse.
    fn run(
        &self,
        batch: Columns,
        sink: &mut Sink,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        match sink {
            Sink::Rows(out) => {
                let rows = self.project_rows(batch, parser, metrics)?;
                if out.is_empty() {
                    *out = rows;
                } else {
                    out.extend(rows);
                }
            }
            Sink::Agg(partial) => self.fold_rows(batch, partial, parser, metrics)?,
        }
        Ok(())
    }

    /// The row loop into output rows, built by the segment's [`RowShape`].
    /// It decodes the filter's columns and those the evaluated outputs
    /// read, and reuses one scratch row for them; every other bare column's
    /// values for the kept rows are moved out of the batch after the loop.
    /// A bounded segment keeps only its [`Bound`]'s rows, and decodes those
    /// other columns at them alone.
    fn project_rows(
        &self,
        mut cols: Columns,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<Vec<Cell>>> {
        let shape = self
            .shape
            .as_ref()
            .expect("a Rows sink comes from a row segment");
        let mut out = OutRows::new(self.bound, cols.spare_rows());
        cols.decode(&self.filter_cols, metrics)?;
        cols.decode(&shape.eval_cols, metrics)?;
        let moved: Vec<usize> = shape.moved.iter().map(|(c, _)| *c).collect();
        if self.bound.is_none() {
            cols.decode(&moved, metrics)?;
        }
        let mut scratch = vec![Cell::Null; cols.width()];
        for i in 0..cols.len() {
            let slots = self.extractor.as_ref().map(RowSlots::new);
            let slots = slots.as_ref();
            if !self.keep_row(&mut cols, i, &mut scratch, parser, metrics, slots)? {
                continue;
            }
            cols.fill(&shape.eval_cols, i, &mut scratch, metrics);
            let spare = out.spare();
            let built = shape.build(spare, &mut scratch, parser, metrics, slots)?;
            out.push(built, i, parser, metrics)?;
        }
        let (mut rows, kept) = out.finish();
        if let Some(bound) = self.bound.filter(|_| !cols.of_cells()) {
            bound.deferred(moved.len(), kept.len());
        }
        // Each moved column's values for the kept rows, in order.
        let values = cols.take(&moved, &kept, metrics)?;
        for ((_, positions), cells) in shape.moved.iter().zip(values) {
            let (&last, copies) = positions.split_last().expect("a moved column is output");
            for (row, cell) in rows.iter_mut().zip(cells) {
                for &p in copies {
                    row[p] = cell.clone();
                }
                row[last] = cell;
            }
        }
        Ok(rows)
    }

    /// The row loop into an aggregate partial: the filter's columns first,
    /// the rest only for rows it keeps.
    fn fold_rows(
        &self,
        mut cols: Columns,
        partial: &mut AggPartial,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        let (group_by, aggs) = self.agg.expect("an Agg sink comes from an agg segment");
        cols.decode_all(metrics)?;
        let mut scratch = vec![Cell::Null; cols.width()];
        for i in 0..cols.len() {
            let slots = self.extractor.as_ref().map(RowSlots::new);
            let slots = slots.as_ref();
            if !self.keep_row(&mut cols, i, &mut scratch, parser, metrics, slots)? {
                continue;
            }
            cols.fill(&self.rest_cols, i, &mut scratch, metrics);
            partial.update(&scratch, group_by, aggs, parser, metrics, slots)?;
        }
        Ok(())
    }
}

/// One bare `Column` output: the input column, the output position, and
/// whether this is the column's last bare output (which takes the cell
/// instead of cloning it).
#[derive(Debug, Clone, Copy)]
struct Bare {
    column: usize,
    position: usize,
    last: bool,
}

/// How a row segment builds each output row. An evaluated output runs
/// `eval_with` over the scratch row; a bare `Column` output is handed over
/// instead — taken from the scratch row, or moved out of the batch — so
/// each of its cells is converted once and never cloned on the way. No
/// projection is the identity: every input column is a bare output. A bare
/// output a sort key reads goes through the scratch row, so a bounded
/// segment has it before it cuts.
struct RowShape<'a> {
    /// Each output's expression; `None` for a bare column, filled after.
    exprs: Vec<Option<&'a Expr>>,
    /// The bare outputs whose column the scratch row holds (the filter or
    /// an evaluated output reads it).
    scratch_bare: Vec<Bare>,
    /// Every other bare column with its output positions, moved out of the
    /// batch for the kept rows after the row loop.
    moved: Vec<(usize, Vec<usize>)>,
    /// The columns outside the filter's that evaluated outputs and sort
    /// keys read, materialized into the scratch row for kept rows.
    eval_cols: Vec<usize>,
}

impl<'a> RowShape<'a> {
    /// The shape of `project` over an input of `width` columns, whose
    /// filter reads `filter_cols`; sort keys read the outputs `keyed`.
    fn new(
        project: Option<&'a [(Expr, String)]>,
        width: usize,
        filter_cols: &[usize],
        keyed: &std::collections::BTreeSet<usize>,
    ) -> Self {
        // Each bare output as `(column, position)`. An out-of-range column
        // (a planner bug) is evaluated, so its eval reports the error.
        let mut exprs: Vec<Option<&Expr>> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        match project {
            Some(list) => {
                for (position, (e, _)) in list.iter().enumerate() {
                    match e {
                        Expr::Column(c) if *c < width => {
                            exprs.push(None);
                            pairs.push((*c, position));
                        }
                        e => exprs.push(Some(e)),
                    }
                }
            }
            None => {
                exprs = vec![None; width];
                pairs = (0..width).map(|c| (c, c)).collect();
            }
        }
        let bare: Vec<Bare> = pairs
            .iter()
            .enumerate()
            .map(|(k, &(column, position))| Bare {
                column,
                position,
                last: pairs[k + 1..].iter().all(|&(c, _)| c != column),
            })
            .collect();
        let mut read = std::collections::BTreeSet::new();
        for e in exprs.iter().flatten() {
            e.collect_columns(&mut read);
        }
        read.extend(
            pairs
                .iter()
                .filter(|(_, position)| keyed.contains(position))
                .map(|&(column, _)| column),
        );
        let eval_cols: Vec<usize> = read
            .into_iter()
            .filter(|c| *c < width && !filter_cols.contains(c))
            .collect();
        let in_scratch = |c: usize| filter_cols.contains(&c) || eval_cols.contains(&c);
        let scratch_bare = bare
            .iter()
            .copied()
            .filter(|b| in_scratch(b.column))
            .collect();
        let mut moved: Vec<(usize, Vec<usize>)> = Vec::new();
        for b in bare.iter().filter(|b| !in_scratch(b.column)) {
            match moved.iter_mut().find(|(c, _)| *c == b.column) {
                Some((_, positions)) => positions.push(b.position),
                None => moved.push((b.column, vec![b.position])),
            }
        }
        RowShape {
            exprs,
            scratch_bare,
            moved,
            eval_cols,
        }
    }

    /// One output row over the scratch `row`, built in `out` (empty, its
    /// capacity reused): the evaluated outputs first, then the bare outputs
    /// the scratch row holds (a moved column's positions stay NULL until
    /// the caller moves it in).
    fn build(
        &self,
        mut out: Vec<Cell>,
        row: &mut [Cell],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<Vec<Cell>> {
        out.reserve_exact(self.exprs.len());
        for e in &self.exprs {
            out.push(match e {
                Some(e) => e.eval_with(row, parser, metrics, slots)?,
                None => Cell::Null,
            });
        }
        for b in &self.scratch_bare {
            let cell = row.get_mut(b.column).ok_or_else(|| {
                EngineError::exec(format!("column index {} out of range", b.column))
            })?;
            out[b.position] = if b.last {
                std::mem::replace(cell, Cell::Null)
            } else {
                cell.clone()
            };
        }
        Ok(out)
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
    if run.threads_used > 0 {
        let (p50, p95, skew) = pool::wall_stats(&run.task_walls);
        metrics.absorb(&ExecMetrics {
            threads_used: run.threads_used as u64,
            par_tasks: run.task_walls.len() as u64,
            task_wall_p50: p50,
            task_wall_p95: p95,
            task_skew: skew,
            ..Default::default()
        });
    }
    let workers = run.threads_used.max(1) as u32;
    run.results.into_iter().map(move |(out, mut task_metrics)| {
        scale_wall_gauges(&mut task_metrics, workers);
        metrics.absorb(&task_metrics);
        out
    })
}

/// Run a scan-rooted segment: one pool task per split, each scanning its
/// split into a batch and running the row loop over it against its own
/// zero-based metrics and sink; the barrier absorbs the metrics and merges
/// the sinks in split order. The pool decides where tasks run (this thread
/// alone for one thread or at most one split); the pool gauges are charged
/// only when it spawned threads.
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
// Top-N: deferred decode and late projection
// ----------------------------------------------------------------------

/// A `LIMIT` over a row `Project`: `Limit → [strip Project →] Sort →
/// Project` (the strip being the planner's hidden-order-column `Project`)
/// or `Limit → Project`. The projection runs as a bounded segment: each
/// split task decodes what it needs to choose rows — the filter's columns,
/// the sort keys' columns and the columns its evaluated outputs read (the
/// JSON column whose parse they share among them) — keeps its first `n`
/// rows by (key, position) ([`Bound`]) and decodes every other projected
/// column at those rows alone. The rows then sort and truncate as before.
///
/// When nothing below the row `Project`, no sort key and no strip reads
/// JSON while some projected expression does, those expressions are also
/// late: the projection runs with a NULL placeholder in their place and one
/// pass-through `Column` per input column they read — a deferred column
/// like any other — and they run over the rows the limit keeps alone.
///
/// The rows are exactly the full plan's: a projection is one row in, one
/// row out; `eval_with` fails only on an out-of-range column (a planner
/// bug); and the sort keys read only eager outputs, so the stable order is
/// the same. The plan tree is untouched: the rows a reuse-cache miss
/// offers for admission are the top-N's output.
struct TopN<'a> {
    /// The strip above the sort; it reads no JSON when anything is late.
    strip: Option<&'a [(Expr, String)]>,
    /// Sort keys over the projection's output; `None` for `Limit → Project`.
    keys: Option<&'a [(Expr, bool)]>,
    /// The row `Project`.
    project: &'a LogicalPlan,
    /// The projection with a placeholder in place of each late expression,
    /// then one pass-through `Column` per input column the late expressions
    /// read.
    eager: Vec<(Expr, String)>,
    /// Each late expression's output position and the expression over the
    /// eager row's pass-through columns.
    late: Vec<(usize, Expr)>,
    /// The projection's width; eager rows are truncated back to it.
    width: usize,
}

impl<'a> TopN<'a> {
    /// The top-N for a `Limit` over `input`, when `input` is a row
    /// projection (under a sort and its strip).
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
        let mut late: Vec<usize> = (0..exprs.len())
            .filter(|&i| reads_json(&exprs[i].0))
            .collect();
        let eager_keys = keys.unwrap_or_default().iter().all(|(key, _)| {
            !reads_json(key) && key.referenced_columns().iter().all(|c| !late.contains(c))
        });
        if !eager_keys
            || source.json_parse_expr_count() > 0
            || strip.is_some_and(|s| s.iter().any(|(e, _)| reads_json(e)))
        {
            late.clear();
        }
        let mut passed: Vec<usize> = late
            .iter()
            .flat_map(|&i| exprs[i].0.referenced_columns())
            .collect();
        passed.sort_unstable();
        passed.dedup();
        let width = exprs.len();
        let at = |c: usize| width + passed.binary_search(&c).expect("a collected column");
        let late_exprs = late
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
        Some(TopN {
            strip,
            keys,
            project,
            eager,
            late: late_exprs,
            width,
        })
    }

    /// Run the bounded projection (and sort) under the `limit` span, keep
    /// the first `n` rows and evaluate the late expressions over them.
    fn run(
        &self,
        n: usize,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        opts: &ExecOptions,
        tracer: &Tracer,
        span: &SpanGuard<'_>,
    ) -> Result<Vec<Vec<Cell>>> {
        let bound = Bound {
            keys: self.keys,
            n,
            offered: AtomicUsize::new(0),
            deferred_cols: AtomicUsize::new(0),
            deferred_rows: AtomicUsize::new(0),
        };
        let (segment, source) = PipelineSegment::extract(self.project);
        let segment = segment.bounded(&self.eager, &bound);
        let mut rows = match self.keys {
            Some(keys) => {
                let sort = tracer.child("sort", span.id());
                let rows = run_segment(&segment, source, parser, metrics, opts, tracer, sort.id())?;
                sort_stage(rows, keys, &sort, parser, metrics, tracer)?
            }
            None => run_segment(&segment, source, parser, metrics, opts, tracer, span.id())?,
        };
        let eager_rows = bound.offered.load(Ordering::Relaxed);
        span.attr("rows_in", eager_rows);
        span.attr("deferred_cols", bound.deferred_cols.load(Ordering::Relaxed));
        span.attr("deferred_rows", bound.deferred_rows.load(Ordering::Relaxed));
        rows.truncate(n);
        let survivors = rows.len();
        span.attr("late_exprs", self.late.len());
        span.attr(
            "late_rows",
            if self.late.is_empty() { 0 } else { survivors },
        );
        let before = counters_before(tracer, metrics);
        let out = if self.late.is_empty() && self.strip.is_none() {
            rows
        } else if self.late.is_empty() {
            self.finish_rows(&rows, parser, metrics)?
        } else {
            // One task unless nearly every row survives: finishing those in
            // one task would serialise parses the eager run could have
            // split, so they go to the pool in contiguous chunks,
            // concatenated in order.
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
            absorb_pool_run(metrics, run).flatten().collect()
        };
        span.attr("rows_out", out.len());
        attr_counter_deltas(span, before.as_ref(), metrics);
        Ok(out)
    }

    /// The output rows of the eager `rows`: the late expressions evaluated
    /// (one shared parse per row), the pass-through columns dropped and the
    /// strip applied.
    fn finish_rows(
        &self,
        rows: &[Vec<Cell>],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<Vec<Cell>>> {
        let extractor = JsonExtractor::from_exprs(self.late.iter().map(|(_, e)| e));
        rows.iter()
            .map(|eager| {
                let slots = extractor.as_ref().map(RowSlots::new);
                let mut row = eager[..self.width].to_vec();
                for (i, e) in &self.late {
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

/// A top-N's share of one batch: its first `n` rows by `keys` (stable;
/// position order without keys). The `n` rows a stable sort of every
/// batch's rows, concatenated in split order, keeps are among them — fewer
/// than `n` rows precede such a row overall, so fewer do within its batch —
/// and their order is unchanged, since the kept rows stay in position
/// order and ties keep split order and then position order. So a deferred
/// column is decoded at no more than `n` rows of a split, and a
/// pass-through document outlives its batch only in a kept row.
struct Bound<'a> {
    keys: Option<&'a [(Expr, bool)]>,
    n: usize,
    /// Rows offered to every cut: the eager row count.
    offered: AtomicUsize,
    /// Columns a scan's batch decodes at its kept rows alone, and the rows
    /// it decodes them at, over every batch (a batch of cells decodes
    /// nothing).
    deferred_cols: AtomicUsize,
    deferred_rows: AtomicUsize,
}

impl Bound<'_> {
    /// Record that a batch decoded `cols` columns at its `rows` kept rows.
    fn deferred(&self, cols: usize, rows: usize) {
        self.deferred_cols.store(cols, Ordering::Relaxed);
        self.deferred_rows.fetch_add(rows, Ordering::Relaxed);
    }
}

/// Rows held at least before a bounded batch cuts its rows back to `n`.
const CUT_AT_LEAST: usize = 64;

/// One batch's output rows as the row loop builds them, with the batch
/// position of each, each built in a spare vector when there is one: a
/// batch built from rows hands over its emptied row vectors. Under a
/// [`Bound`], each time twice `n` rows (and at least [`CUT_AT_LEAST`]) are
/// held they are cut back to the first `n` by (keys, position) — each
/// row's keys evaluated once, when it is built — and the vectors of the
/// rows cut away are reused for the rows built next, so a batch holds and
/// allocates a few more than `n` rows, however many it builds.
struct OutRows<'b> {
    bound: Option<&'b Bound<'b>>,
    extractor: Option<JsonExtractor>,
    rows: Vec<Vec<Cell>>,
    positions: Vec<u32>,
    /// The held rows' sort keys, one run of `keys.len()` per row.
    keys: Vec<SortKey>,
    spare: Vec<Vec<Cell>>,
    order: Vec<usize>,
    offered: usize,
}

impl<'b> OutRows<'b> {
    fn new(bound: Option<&'b Bound<'b>>, spare: Vec<Vec<Cell>>) -> Self {
        let keys = bound.and_then(|b| b.keys).unwrap_or_default();
        OutRows {
            bound,
            extractor: JsonExtractor::from_exprs(keys.iter().map(|(e, _)| e)),
            rows: Vec::new(),
            positions: Vec::new(),
            keys: Vec::new(),
            spare,
            order: Vec::new(),
            offered: 0,
        }
    }

    /// An empty vector to build the next row in.
    fn spare(&mut self) -> Vec<Cell> {
        self.spare.pop().unwrap_or_default()
    }

    /// Hold `row`, built from batch row `position`.
    fn push(
        &mut self,
        row: Vec<Cell>,
        position: usize,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        if let Some(keys) = self.bound.and_then(|b| b.keys) {
            let slots = self.extractor.as_ref().map(RowSlots::new);
            for (e, _) in keys {
                let key = e.eval_with(&row, parser, metrics, slots.as_ref())?;
                self.keys.push(SortKey::new(key));
            }
        }
        self.rows.push(row);
        self.positions.push(position as u32);
        self.offered += 1;
        if let Some(bound) = self.bound {
            if self.rows.len() >= bound.n.saturating_mul(2).max(CUT_AT_LEAST) {
                self.cut(bound);
            }
        }
        Ok(())
    }

    /// Cut the held rows to the first `n` by (keys, position), in position
    /// order; the vectors of the others become spares.
    fn cut(&mut self, bound: &Bound<'_>) {
        let n = bound.n;
        if self.rows.len() <= n {
            return;
        }
        let width = bound.keys.map_or(0, <[_]>::len);
        self.order.clear();
        self.order.extend(0..self.rows.len());
        if let Some(keys) = bound.keys {
            let row_keys = |i: usize| &self.keys[i * width..(i + 1) * width];
            self.order.select_nth_unstable_by(n, |&a, &b| {
                cmp_keys(row_keys(a), row_keys(b), keys).then(a.cmp(&b))
            });
            self.order[..n].sort_unstable();
        }
        // Kept indexes ascend, and the `w`-th is at least `w`: swapping
        // each into place never moves a row already placed.
        for (w, &i) in self.order[..n].iter().enumerate() {
            self.rows.swap(w, i);
            self.positions.swap(w, i);
            for j in 0..width {
                self.keys.swap(w * width + j, i * width + j);
            }
        }
        self.positions.truncate(n);
        self.keys.truncate(n * width);
        for mut row in self.rows.drain(n..) {
            row.clear();
            self.spare.push(row);
        }
    }

    /// The rows held, and their batch positions, after the last cut.
    fn finish(mut self) -> (Vec<Vec<Cell>>, Vec<u32>) {
        if let Some(bound) = self.bound {
            self.cut(bound);
            bound.offered.fetch_add(self.offered, Ordering::Relaxed);
        }
        (self.rows, self.positions)
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
        /// Each group's key and its first-seen index. The key cells double
        /// as the output key columns, so no separate per-group row is
        /// stored.
        index: HashMap<RowKey, usize>,
        /// Each group's states, in first-seen order.
        states: Vec<Vec<AggState>>,
    },
}

impl AggPartial {
    /// Empty partial of the right shape for `group_by` / `aggs`.
    fn new(group_by: &[Expr], aggs: &[(AggFunc, Option<Expr>)]) -> AggPartial {
        if group_by.is_empty() {
            AggPartial::Global(aggs.iter().map(|(f, _)| AggState::new(*f)).collect())
        } else {
            AggPartial::Grouped {
                index: HashMap::new(),
                states: Vec::new(),
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
            AggPartial::Grouped { index, states } => {
                // Room for the aggregate columns too: a first-seen group's
                // key becomes its output row without growing.
                let mut key = Vec::with_capacity(group_by.len() + aggs.len());
                for g in group_by {
                    key.push(g.eval_with(row, parser, metrics, slots)?);
                }
                // One probe: a first-seen group keeps the evaluated key.
                let next = states.len();
                let at = *index.entry(RowKey(key)).or_insert(next);
                if at == next {
                    states.push(aggs.iter().map(|(f, _)| AggState::new(*f)).collect());
                }
                &mut states[at]
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
    /// the concatenated input would have discovered them in. Each of the
    /// other side's groups is hashed once.
    fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Global(states), AggPartial::Global(other_states)) => {
                for (state, other_state) in states.iter_mut().zip(other_states) {
                    state.merge(other_state);
                }
            }
            (
                AggPartial::Grouped { index, states },
                AggPartial::Grouped {
                    index: other_index,
                    states: other_states,
                },
            ) => {
                for (key, other_states) in in_index_order(other_index).zip(other_states) {
                    let next = states.len();
                    let at = *index.entry(key).or_insert(next);
                    if at == next {
                        states.push(other_states);
                    } else {
                        for (state, other_state) in states[at].iter_mut().zip(other_states) {
                            state.merge(other_state);
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate partials"),
        }
    }
}

/// A grouped partial's keys in first-seen order, placed by their index
/// without hashing them again.
fn in_index_order(index: HashMap<RowKey, usize>) -> impl Iterator<Item = RowKey> {
    let mut keys: Vec<Option<RowKey>> = std::iter::repeat_with(|| None).take(index.len()).collect();
    for (key, at) in index {
        keys[at] = Some(key);
    }
    keys.into_iter()
        .map(|key| key.expect("every group index has a key"))
}

/// Finish a (possibly merged) partial into output rows.
fn finish_aggregate(partial: AggPartial) -> Vec<Vec<Cell>> {
    match partial {
        AggPartial::Global(states) => {
            vec![states.into_iter().map(AggState::finish).collect()]
        }
        AggPartial::Grouped { index, states } => in_index_order(index)
            .zip(states)
            .map(|(key, states)| {
                let mut row = key.into_cells();
                row.extend(states.into_iter().map(AggState::finish));
                row
            })
            .collect(),
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

/// One evaluated sort key and, for a string, its numeric parse — computed
/// once per row instead of on both sides of every comparison.
#[derive(Debug, Clone)]
struct SortKey {
    cell: Cell,
    number: Option<f64>,
}

impl SortKey {
    fn new(cell: Cell) -> Self {
        let number = match &cell {
            Cell::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        };
        SortKey { cell, number }
    }

    /// Exactly [`Cell::total_cmp`] of the two cells: two strings compare by
    /// their parses (numeric before non-numeric) and otherwise by bytes;
    /// every other pair goes to `total_cmp` itself.
    fn cmp(&self, other: &SortKey) -> std::cmp::Ordering {
        use std::cmp::Ordering::{Greater, Less};
        match (&self.cell, &other.cell) {
            (Cell::Str(a), Cell::Str(b)) => match (self.number, other.number) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => Less,
                (None, Some(_)) => Greater,
                (None, None) => a.as_ref().cmp(b.as_ref()),
            },
            (a, b) => a.total_cmp(b),
        }
    }
}

/// The order of two rows' sort keys under `keys`' directions.
fn cmp_keys(a: &[SortKey], b: &[SortKey], keys: &[(Expr, bool)]) -> std::cmp::Ordering {
    for ((x, y), (_, asc)) in a.iter().zip(b).zip(keys) {
        let ord = x.cmp(y);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Stable sort of `rows` by `keys`: each row's keys are evaluated and
/// parsed once, then a permutation sorts over them.
fn sort_rows(
    mut rows: Vec<Vec<Cell>>,
    keys: &[(Expr, bool)],
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
) -> Result<Vec<Vec<Cell>>> {
    let extractor = JsonExtractor::from_exprs(keys.iter().map(|(e, _)| e));
    let width = keys.len();
    let mut sort_keys: Vec<SortKey> = Vec::with_capacity(rows.len() * width);
    for row in &rows {
        let slots = extractor.as_ref().map(RowSlots::new);
        for (e, _) in keys {
            sort_keys.push(SortKey::new(e.eval_with(
                row,
                parser,
                metrics,
                slots.as_ref(),
            )?));
        }
    }
    let row_keys = |i: usize| &sort_keys[i * width..(i + 1) * width];
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| cmp_keys(row_keys(a), row_keys(b), keys));
    Ok(order
        .into_iter()
        .map(|i| std::mem::take(&mut rows[i]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use maxson_storage::{ColumnData, ColumnType, Field, Schema};
    use maxson_testkit::prop::{self, Gen};
    use maxson_testkit::prop_assert_eq;
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

    /// Test provider with an explicit split structure, handing each split
    /// out as a batch of cells.
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
        fn scan_split(&self, split: usize, m: &mut ExecMetrics) -> crate::error::Result<Columns> {
            if self.poisoned == Some(split) {
                panic!("corrupt split body");
            }
            let rows = self.splits[split].clone();
            m.rows_scanned += rows.len() as u64;
            Columns::from_rows(rows, self.schema.fields().len())
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
        let width = splits.iter().flatten().next().map_or(1, Vec::len);
        let mut provider = SplitFixed::new(splits);
        provider.schema = Schema::new(
            (0..width)
                .map(|c| Field::new(format!("c{c}"), ColumnType::Utf8))
                .collect(),
        )
        .unwrap();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                provider: Box::new(provider),
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

    /// Cells of all five variants, with strings that parse (padded,
    /// signed, `NaN`, `inf`, `-0`, exponent), strings that do not, and
    /// numbers that tie across variants.
    fn cell_gen() -> Gen<Cell> {
        const STRS: [&str; 15] = [
            "12", " 12", "12.0", "-0", "0", "NaN", "inf", "-inf", "1e3", "abc", "", "Red", "7.5",
            "x1", " ",
        ];
        let floats = Gen::one_of(vec![
            Gen::f64_in(-20.0, 20.0),
            Gen::just(f64::NAN),
            Gen::just(-0.0),
            Gen::just(f64::INFINITY),
            Gen::just(12.0),
        ]);
        let strings = Gen::one_of(vec![
            Gen::usize_in(0..=STRS.len() - 1).map(|i| STRS[i].to_string()),
            Gen::i64_in(-50..=50).map(|i| i.to_string()),
            Gen::printable(4),
        ]);
        Gen::one_of(vec![
            Gen::just(Cell::Null),
            Gen::bool_any().map(Cell::Bool),
            Gen::i64_in(-3..=12).map(Cell::Int),
            floats.map(Cell::Float),
            strings.map(Cell::from),
        ])
    }

    /// The pre-parsed sort-key comparison is `Cell::total_cmp`, both ways
    /// round, on every pair of variants.
    #[test]
    fn sort_key_comparison_is_cell_total_cmp() {
        let pairs = Gen::tuple2(cell_gen(), cell_gen());
        prop::check(
            "sort_key_comparison_is_cell_total_cmp",
            &prop::Config::with_cases(4000),
            &pairs,
            |(a, b)| {
                let (ka, kb) = (SortKey::new(a.clone()), SortKey::new(b.clone()));
                prop_assert_eq!(ka.cmp(&kb), a.total_cmp(b));
                prop_assert_eq!(kb.cmp(&ka), b.total_cmp(a));
                Ok(())
            },
        );
    }

    /// Rows whose keys tie keep their input order, in either direction and
    /// under a second key that ties too.
    #[test]
    fn sort_keeps_input_order_on_ties() {
        // Numerically equal keys spelled differently, and a NULL pair.
        let keys = ["12", " 12", "12.0", "abc", "12", "abc"];
        let mut rows: Vec<Vec<Cell>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![Cell::from(*k), Cell::Int(i as i64 % 2), Cell::Int(i as i64)])
            .collect();
        rows.push(vec![Cell::Null, Cell::Int(0), Cell::Int(6)]);
        rows.push(vec![Cell::Null, Cell::Int(0), Cell::Int(7)]);
        let order = |keys: &[(Expr, bool)]| -> Vec<i64> {
            sort_rows(rows.clone(), keys, JsonParserKind::Jackson, &mut m())
                .unwrap()
                .iter()
                .map(|r| r[2].coerce_i64().unwrap())
                .collect()
        };
        assert_eq!(order(&[(Expr::Column(0), true)]), [6, 7, 0, 1, 2, 4, 3, 5]);
        assert_eq!(order(&[(Expr::Column(0), false)]), [3, 5, 0, 1, 2, 4, 6, 7]);
        assert_eq!(
            order(&[(Expr::Column(0), true), (Expr::Column(1), true)]),
            [6, 7, 0, 2, 4, 1, 3, 5]
        );
    }

    /// Bare columns handed to the output — named twice, read by the filter,
    /// read by an evaluated output, or read by nothing else — give the rows
    /// and the conversion count of evaluating every output, at one and four
    /// threads.
    #[test]
    fn bare_columns_are_handed_over_once() {
        let schema = Schema::new(vec![
            Field::new("a", ColumnType::Int64),
            Field::new("b", ColumnType::Utf8),
            Field::new("c", ColumnType::Utf8),
        ])
        .unwrap();
        let rows: Vec<Vec<Cell>> = (0..10)
            .map(|i| {
                vec![
                    Cell::Int(i),
                    if i % 4 == 1 {
                        Cell::Null
                    } else {
                        Cell::from(format!("b{i}"))
                    },
                    Cell::from(format!("c{}", i % 3)),
                ]
            })
            .collect();
        let plus_one = Expr::Binary {
            left: Box::new(Expr::Column(0)),
            op: BinaryOp::Add,
            right: Box::new(Expr::Literal(Cell::Int(1))),
        };
        let exprs: Vec<(Expr, String)> = [
            Expr::Column(1),
            Expr::Column(0),
            Expr::Column(1),
            plus_one,
            Expr::Column(2),
            Expr::Column(0),
        ]
        .into_iter()
        .map(|e| (e, String::new()))
        .collect();
        let predicate = Expr::Binary {
            left: Box::new(Expr::Column(2)),
            op: BinaryOp::NotEq,
            right: Box::new(Expr::Literal(Cell::from("c1"))),
        };
        let expected: Vec<Vec<Cell>> = rows
            .iter()
            .filter(|r| r[2] != Cell::from("c1"))
            .map(|r| {
                let a = r[0].coerce_i64().unwrap();
                vec![
                    r[1].clone(),
                    r[0].clone(),
                    r[1].clone(),
                    Cell::Int(a + 1),
                    r[2].clone(),
                    r[0].clone(),
                ]
            })
            .collect();
        for threads in [1, 4] {
            let provider = Stub {
                schema: schema.clone(),
                splits: vec![rows[..6].to_vec(), rows[6..].to_vec()],
            };
            let plan = LogicalPlan::Project {
                input: Box::new(LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: Box::new(LogicalPlan::Scan {
                        provider: Box::new(provider),
                    }),
                }),
                exprs: exprs.clone(),
                schema: schema.clone(),
            };
            let mut metrics = m();
            let out = execute_plan_with(
                &plan,
                JsonParserKind::Jackson,
                &mut metrics,
                ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(out, expected, "threads={threads}");
            // The filter's column for all ten rows, then `a` and `b` once
            // each for the seven kept rows.
            assert_eq!(metrics.cells_materialized, 10 + 2 * 7);
        }
    }

    /// The counting rule of a batch of cells: a materialised Filter and
    /// Project above an Aggregate and above a Sort, and a bounded top-N
    /// over a join, charge no `cells_materialized` and no
    /// `batch_rows_skipped` — a cell moved out of a materialised input was
    /// built already, and its rows are no scan's. Only the scans below
    /// them charge: every decoded cell they hand over.
    #[test]
    fn materialised_stages_charge_no_cells_and_skip_no_batch_rows() {
        let schema = Schema::new(vec![
            Field::new("g", ColumnType::Utf8),
            Field::new("v", ColumnType::Int64),
        ])
        .unwrap();
        let rows: Vec<Vec<Cell>> = (0..10)
            .map(|i| vec![Cell::from(format!("g{}", i % 3)), Cell::Int(i)])
            .collect();
        let scan = || LogicalPlan::Scan {
            provider: Box::new(Stub {
                schema: schema.clone(),
                splits: vec![rows[..6].to_vec(), rows[6..].to_vec()],
            }),
        };
        let col = |c: usize| Box::new(Expr::Column(c));
        let int = |i: i64| Box::new(Expr::Literal(Cell::Int(i)));
        let bin = |left, op, right| Expr::Binary { left, op, right };
        let named = |exprs: Vec<Expr>| -> Vec<(Expr, String)> {
            exprs.into_iter().map(|e| (e, String::new())).collect()
        };
        // HAVING sum > 12, then a projection, over the groups' sums g0 18,
        // g1 12, g2 15.
        let over_aggregate = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(scan()),
                    group_by: vec![Expr::Column(0)],
                    aggs: vec![(AggFunc::Sum, Some(Expr::Column(1)))],
                    schema: schema.clone(),
                }),
                predicate: bin(col(1), BinaryOp::Gt, int(12)),
            }),
            exprs: named(vec![
                Expr::Column(1),
                Expr::Column(0),
                bin(col(1), BinaryOp::Add, int(1)),
            ]),
            schema: schema.clone(),
        };
        // Even values, sorted descending.
        let over_sort = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Sort {
                    input: Box::new(scan()),
                    keys: vec![(Expr::Column(1), false)],
                }),
                predicate: bin(
                    Box::new(bin(col(1), BinaryOp::Mod, int(2))),
                    BinaryOp::Eq,
                    int(0),
                ),
            }),
            exprs: named(vec![Expr::Column(1), Expr::Column(0)]),
            schema: schema.clone(),
        };
        // The first three join rows by the left value, descending: the left
        // row (g0, 9) meets g0's four right rows, values 0, 3, 6 and 9.
        let top_n_over_join = LogicalPlan::Limit {
            n: 3,
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(LogicalPlan::Join {
                        left: Box::new(scan()),
                        right: Box::new(scan()),
                        left_key: Expr::Column(0),
                        right_key: Expr::Column(0),
                        schema: Schema::new(
                            ["g", "v", "rg", "rv"]
                                .map(|n| Field::new(n, ColumnType::Utf8))
                                .to_vec(),
                        )
                        .unwrap(),
                    }),
                    exprs: named(vec![Expr::Column(1), Expr::Column(3)]),
                    schema: schema.clone(),
                }),
                keys: vec![(Expr::Column(0), false)],
            }),
        };
        let ints = |pairs: &[[i64; 2]]| -> Vec<Vec<Cell>> {
            pairs.iter().map(|p| p.map(Cell::Int).to_vec()).collect()
        };
        let g = |n: i64, text: &str| vec![Cell::Int(n), Cell::from(text)];
        let cases = [
            (
                over_aggregate,
                vec![
                    vec![Cell::Int(18), Cell::from("g0"), Cell::Int(19)],
                    vec![Cell::Int(15), Cell::from("g2"), Cell::Int(16)],
                ],
                20,
            ),
            (
                over_sort,
                vec![g(8, "g2"), g(6, "g0"), g(4, "g1"), g(2, "g2"), g(0, "g0")],
                20,
            ),
            (top_n_over_join, ints(&[[9, 0], [9, 3], [9, 6]]), 40),
        ];
        for (plan, expected, scanned_cells) in &cases {
            for threads in [1, 4] {
                let mut metrics = m();
                let out = execute_plan_with(
                    plan,
                    JsonParserKind::Jackson,
                    &mut metrics,
                    ExecOptions::with_threads(threads),
                )
                .unwrap();
                assert_eq!(&out, expected, "{threads} threads");
                // Each scan hands over its ten rows' two decoded columns.
                assert_eq!(metrics.cells_materialized, *scanned_cells, "{expected:?}");
                assert_eq!(metrics.batch_rows_skipped, 0, "{expected:?}");
            }
        }
    }

    /// A provider handing out its splits as decoded columns.
    #[derive(Debug)]
    struct Stub {
        schema: Schema,
        splits: Vec<Vec<Vec<Cell>>>,
    }

    impl ScanProvider for Stub {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn split_count(&self) -> usize {
            self.splits.len()
        }
        fn scan_split(&self, split: usize, _m: &mut ExecMetrics) -> crate::error::Result<Columns> {
            let rows = &self.splits[split];
            let cols = self
                .schema
                .fields()
                .iter()
                .enumerate()
                .map(|(c, f)| {
                    let mut col = ColumnData::empty(f.ty);
                    for row in rows {
                        col.push(&row[c], &f.name).unwrap();
                    }
                    col
                })
                .collect();
            Ok(Columns::decoded(cols))
        }
        fn label(&self) -> String {
            "Stub".into()
        }
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
            ) -> crate::error::Result<Columns> {
                Columns::from_rows(self.1.clone(), 1)
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

    /// One acquire/release pair per split task, whether the calling thread
    /// runs the tasks alone (one thread, or a single split) or beside workers.
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

    /// 2 splits x 4 rows; col 0 is a JSON document (all of one length),
    /// col 1 a raw int.
    fn json_splits() -> Vec<Vec<Vec<Cell>>> {
        (0..2)
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
            .collect()
    }

    fn json_split_plan() -> LogicalPlan {
        LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(json_splits())),
        }
    }

    /// [`json_splits`] as a Norc table, one part file per split.
    fn json_split_table(name: &str) -> maxson_storage::Table {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let dir =
            std::env::temp_dir().join(format!("maxson-exec-{}-{nanos}-{name}", std::process::id()));
        let schema = Schema::new(vec![
            Field::new("doc", ColumnType::Utf8),
            Field::new("n", ColumnType::Int64),
        ])
        .unwrap();
        let mut table = maxson_storage::Table::create(dir, schema, 0).unwrap();
        for rows in json_splits() {
            table
                .append_file(&rows, maxson_storage::file::WriteOptions::default(), 1)
                .unwrap();
        }
        table
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
    /// Over a Norc table the documents, a deferred column, are decoded at
    /// no more than `n` rows of each split.
    #[test]
    fn late_projection_parses_only_the_kept_rows() {
        let distinct = Expr::Column(0);
        // `n % 3`: three ties, each spanning both splits.
        let tied = Expr::Binary {
            left: Box::new(Expr::Column(0)),
            op: BinaryOp::Mod,
            right: Box::new(Expr::Literal(Cell::Int(3))),
        };
        let table = json_split_table("late");
        for key in [distinct, tied] {
            late_projection_case(key, &table);
        }
        table.drop_table().unwrap();
    }

    fn late_projection_case(key: Expr, table: &maxson_storage::Table) {
        let top = |n: Option<usize>, norc: bool| {
            let source = match norc {
                true => LogicalPlan::Scan {
                    provider: Box::new(
                        crate::scan::NorcScanProvider::new(table.clone(), vec![0, 1], None)
                            .unwrap(),
                    ),
                },
                false => json_split_plan(),
            };
            let project = LogicalPlan::Project {
                input: Box::new(source),
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
            &top(None, false),
            JsonParserKind::Jackson,
            &mut m(),
            ExecOptions::serial(),
        )
        .unwrap();
        let doc_bytes = json_splits()[0][0][0].byte_size() as u64;
        for parser in [JsonParserKind::Jackson, JsonParserKind::Tape] {
            for threads in [1, 2, 4] {
                for n in [0, 3, 8, 20, usize::MAX] {
                    for norc in [false, true] {
                        let mut metrics = m();
                        let rows = execute_plan_with(
                            &top(Some(n), norc),
                            parser,
                            &mut metrics,
                            ExecOptions::with_threads(threads),
                        )
                        .unwrap();
                        let kept = n.min(full.len());
                        let case = format!(
                            "{key:?}, {parser:?}, {threads} threads, limit {n}, norc {norc}"
                        );
                        assert_eq!(rows, full[..kept], "{case}");
                        assert_eq!(metrics.docs_parsed, kept as u64, "{case}");
                        assert_eq!(metrics.parse_calls, 2 * kept as u64, "{case}");
                        // Pool tasks: the scan's two splits, then one per
                        // chunk of the kept rows when kept × threads > eager
                        // rows.
                        let tasks = if threads == 1 {
                            0
                        } else if kept * threads <= full.len() {
                            2
                        } else {
                            2 + kept.div_ceil(kept.div_ceil(threads))
                        };
                        assert_eq!(metrics.par_tasks, tasks as u64, "{case}");
                        if norc {
                            // The key's ints at every row; the documents at
                            // each split's first `n` rows alone.
                            let deferred = 2 * n.min(4) as u64;
                            assert_eq!(metrics.cells_materialized, 8 + deferred, "{case}");
                            assert_eq!(metrics.bytes_read, 8 * 8 + deferred * doc_bytes, "{case}");
                        }
                    }
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
