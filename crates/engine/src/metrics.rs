//! Per-phase execution metrics.
//!
//! The paper's Fig. 3 and Fig. 12 break query time into **Read** (pulling
//! bytes out of storage), **Parse** (JSON parsing inside
//! `get_json_object`), and **Compute** (everything else). The executor
//! threads one [`ExecMetrics`] through a query; the scan operator charges
//! read time and bytes, the JSON expression charges parse time, and compute
//! is derived as `total - read_wall - parse_wall`.
//!
//! Under split-parallel execution each worker task accumulates into its own
//! `ExecMetrics` instance; the barrier merges them into the query's metrics
//! via [`ExecMetrics::absorb`], so `absorb` must be commutative and
//! associative over every field it touches (counters sum, gauges max —
//! both orders are order-insensitive; see the shuffled-order test below).
//!
//! The field list is declared once, in the `exec_metrics!` table below.
//! Everything that used to repeat it — `absorb`, the EXPLAIN ANALYZE
//! deltas, the query log's `counters` object, the registry series charged
//! at query end, the README catalogue, the tests' work-counter lists — is
//! generated from that table or loops over [`ExecMetrics::fields`]. Adding
//! a metric is one row plus the site that charges it.

use std::time::Duration;

/// How [`ExecMetrics::absorb`] combines a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Work and phase times: the merged value is the sum.
    Sum,
    /// Gauges: the merged value is the larger side.
    Max,
    /// Whole-query wall clocks the session sets; `absorb` leaves them alone.
    Session,
}

/// Typed read access to one declared field; the variant is the field's type.
#[derive(Clone, Copy)]
pub enum Get {
    /// A `u64` field.
    Count(fn(&ExecMetrics) -> u64),
    /// A `Duration` field.
    Time(fn(&ExecMetrics) -> Duration),
    /// An `f64` field.
    Ratio(fn(&ExecMetrics) -> f64),
}

/// One row of the metric declaration (see [`ExecMetrics::fields`]).
pub struct MetricField {
    /// The struct field's name — also the query-log key and the stem of
    /// the registry series.
    pub name: &'static str,
    /// The short label `EXPLAIN ANALYZE` and [`ExecMetrics::summary`] print.
    pub label: &'static str,
    /// How `absorb` combines it.
    pub merge: Merge,
    /// Whether it is a deterministic work counter: a pure function of plan
    /// and data, identical across thread counts and with any observer on.
    pub work: bool,
    /// One line of help text.
    pub help: &'static str,
    /// Reads the field.
    pub get: Get,
    /// The registry series a summed `u64` field is charged to at query
    /// end: `maxson_<field>_total`. Every other field has none.
    pub series: Option<&'static str>,
}

impl MetricField {
    /// The field's value as `summary()` prints it; `None` when zero.
    fn render(&self, m: &ExecMetrics) -> Option<String> {
        match self.get {
            Get::Count(get) => Some(get(m)).filter(|v| *v != 0).map(|v| v.to_string()),
            Get::Time(get) => Some(get(m))
                .filter(|d| !d.is_zero())
                .map(|d| format!("{d:?}")),
            Get::Ratio(get) => Some(get(m))
                .filter(|r| *r != 0.0)
                .map(|r| format!("{r:.2}")),
        }
    }
}

/// The one declaration of the per-query metric list. Each row is
/// `field: type, merge rule, label, work counter?, help;` and may carry
/// further doc lines above it (rustdoc shows them after the help). The
/// struct, `absorb`, the [`MetricField`] table and the test generator all
/// expand from these rows; EXPLAIN deltas, the query log, registry
/// charging and the README catalogue loop over the table. The work
/// counters stand in the order `EXPLAIN ANALYZE` prints them.
macro_rules! exec_metrics {
    (@get u64 $name:ident) => { Get::Count(|m| m.$name) };
    (@get Duration $name:ident) => { Get::Time(|m| m.$name) };
    (@get f64 $name:ident) => { Get::Ratio(|m| m.$name) };

    (@series Sum u64 $name:ident) => { Some(concat!("maxson_", stringify!($name), "_total")) };
    (@series $merge:ident $ty:ident $name:ident) => { None };

    (@absorb Sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@absorb Max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@absorb Session $mine:expr, $theirs:expr) => {};

    // Session-owned fields stay zero so equality of merged structs is
    // meaningful; everything `absorb` touches gets a pseudo-random value.
    (@arb Session $ty:ident $next:ident) => { <$ty>::default() };
    (@arb $merge:ident u64 $next:ident) => { $next() % 100_000 };
    (@arb $merge:ident Duration $next:ident) => { Duration::from_micros($next() % 10_000) };
    (@arb $merge:ident f64 $next:ident) => { 1.0 + ($next() % 1000) as f64 / 250.0 };

    ($($(#[$doc:meta])* $name:ident: $ty:ident, $merge:ident, $label:literal, $work:literal, $help:literal;)*) => {
        /// Counters accumulated during one query execution.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct ExecMetrics {
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $name: $ty,
            )*
            /// Per-JSONPath evaluation counts for this query, `(path text, count)`
            /// **kept sorted by path** so `absorb` is order-insensitive. Charged
            /// wherever `parse_calls` is charged (one entry bump per evaluation);
            /// the session drains this into the process-wide workload sketch at
            /// query end, attributed to the scanned table. A query touches a
            /// handful of distinct paths, so the sorted-Vec lookup is a short
            /// binary search with no per-row allocation after first touch.
            pub path_extracts: Vec<(String, u64)>,
        }

        const FIELDS: &[MetricField] = &[
            $(MetricField {
                name: stringify!($name),
                label: $label,
                merge: Merge::$merge,
                work: $work,
                help: $help,
                get: exec_metrics!(@get $ty $name),
                series: exec_metrics!(@series $merge $ty $name),
            },)*
        ];

        impl ExecMetrics {
            /// Merge counters from another execution (both sides of a join, or one
            /// worker task's metrics at the parallel barrier).
            ///
            /// Every field combines by its declared rule — `+` for counters and
            /// phase times, `max` for gauges, both commutative and associative —
            /// so the merged result does not depend on the order tasks finish
            /// in. `total` and `planning` are deliberately untouched: they are
            /// whole-query wall clocks owned by the session, not per-task work.
            pub fn absorb(&mut self, other: &ExecMetrics) {
                $(exec_metrics!(@absorb $merge self.$name, other.$name);)*
                for (path, n) in &other.path_extracts {
                    self.charge_path_extracts(path, *n);
                }
            }

            /// One deterministic pseudo-random instance drawn from `next`,
            /// filling every declared field `absorb` touches.
            #[cfg(test)]
            fn arb(next: &mut impl FnMut() -> u64) -> ExecMetrics {
                ExecMetrics {
                    $($name: exec_metrics!(@arb $merge $ty next),)*
                    path_extracts: {
                        // A few overlapping keys so merges both sum and insert.
                        let mut v = vec![
                            (format!("$.f{}", next() % 3), 1 + next() % 50),
                            ("$.shared".to_string(), 1 + next() % 50),
                        ];
                        v.sort();
                        v
                    },
                }
            }
        }
    };
}

exec_metrics! {
    // field: type, merge, label, work counter?, help;
    total: Duration, Session, "total", false,
        "Wall-clock for the whole execution (set by the session).";
    planning: Duration, Session, "planning", false,
        "Time spent generating/rewriting the plan (set by the session).";
    /// Under parallel execution this is the *sum across tasks*, so it can
    /// exceed wall-clock time.
    read: Duration, Sum, "read", false,
        "Time spent reading/decoding storage, summed across tasks.";
    parse: Duration, Sum, "parse", false,
        "Time spent parsing JSON inside `get_json_object`, summed across tasks.";
    /// Serial execution charges this in lockstep with `read`; the parallel
    /// barrier divides each task's contribution by the number of pool
    /// workers before absorbing it (tasks overlap, so summed CPU time
    /// overstates elapsed time by about that factor). Unlike `read`, this
    /// stays comparable to `total`.
    read_wall: Duration, Sum, "read_wall", false,
        "Wall-clock estimate of the read phase.";
    parse_wall: Duration, Sum, "parse_wall", false,
        "Wall-clock estimate of the parse phase (same convention as `read_wall`).";
    rows_scanned: u64, Sum, "rows_scanned", true,
        "Rows scanned out of storage (after row-group skipping).";
    bytes_read: u64, Sum, "bytes_read", true,
        "Bytes of storage input actually decoded.";
    /// Identical whether shared-parse extraction is on or off — it counts
    /// path *evaluations*, not parses.
    parse_calls: u64, Sum, "parse_calls", true,
        "`get_json_object` evaluations that reached a parser (the input cell held a JSON string).";
    /// With shared-parse extraction a row is parsed once per JSON column
    /// however many paths the query needs, so `parse_calls / docs_parsed`
    /// is the intra-query dedup factor; naively the two counters are equal.
    docs_parsed: u64, Sum, "docs_parsed", true,
        "Documents actually parsed (DOM builds in Jackson mode, structural-index builds in Mison and tape modes).";
    cache_hits: u64, Sum, "cache_hits", true,
        "JSON evaluations answered from a cache (Maxson hits).";
    row_groups_read: u64, Sum, "rg_read", true,
        "Row groups read.";
    row_groups_skipped: u64, Sum, "rg_skipped", true,
        "Row groups skipped via SARG pushdown.";
    prefilter_dropped: u64, Sum, "prefilter_dropped", true,
        "Rows rejected by the Sparser-style raw prefilter before parsing.";
    /// Late materialization keeps this below `rows × columns` whenever a
    /// filter rejects rows: rejected rows only materialize the predicate's
    /// columns. Zero for providers that produce rows directly.
    cells_materialized: u64, Sum, "cells_materialized", true,
        "Cells converted out of columnar batches into row `Cell`s.";
    batch_rows_skipped: u64, Sum, "batch_rows_skipped", true,
        "Rows of a columnar batch dropped before full-row materialization, by the prefilter's selection vector, by the filter after only its predicate columns were materialized, or by the scan's row-level SARG before their other columns were decoded.";
    lru_hits: u64, Sum, "lru_hits", true,
        "Online-LRU cache: per-path-per-scan lookups answered from the cache.";
    lru_misses: u64, Sum, "lru_misses", true,
        "Online-LRU cache: lookups that had to parse and fill.";
    lru_evictions: u64, Sum, "lru_evictions", true,
        "Online-LRU cache: entries evicted to make room during this query.";
    /// Zero in Jackson and Mison modes — those parsers have no tape to skip.
    nodes_skipped: u64, Sum, "nodes_skipped", true,
        "Tape mode: tape entries navigation hopped over via skip markers without visiting (unqueried sibling subtrees).";
    /// Zero in Jackson mode — the DOM parser builds no bitmaps.
    bitmap_builds: u64, Sum, "bitmap_builds", true,
        "Structural-bitmap constructions (one per record indexed by the Mison or tape parser).";
    bitmap_bytes: u64, Sum, "bitmap_bytes", true,
        "Input bytes classified by the structural kernels.";
    lru_resident_bytes: u64, Max, "lru_bytes", false,
        "Online-LRU cache: resident bytes after the largest fill this query observed.";
    meta_cache_hits: u64, Sum, "meta_hits", false,
        "Norc metadata cache: split opens whose decoded footer/index was served from the shared cache.";
    meta_cache_misses: u64, Sum, "meta_misses", false,
        "Norc metadata cache: split opens that had to read and decode the part file (cache absent, cold, or invalidated).";
    threads_used: u64, Max, "threads", false,
        "Worker threads used by the widest parallel pool run (0 = serial).";
    par_tasks: u64, Sum, "tasks", false,
        "Split tasks executed by parallel pool runs.";
    task_wall_p50: Duration, Max, "task_p50", false,
        "Median per-task wall time of the slowest-skewed pool run.";
    task_wall_p95: Duration, Max, "task_p95", false,
        "95th-percentile per-task wall time of the slowest-skewed pool run.";
    task_skew: f64, Max, "skew", false,
        "Task skew: max task wall over mean task wall (1.0 = perfectly even, 0.0 = no parallel run happened).";
    tape_build_wall: Duration, Sum, "tape_build", false,
        "Tape mode: wall time spent building tapes (structural index + typed tape), summed across tasks.";
    tape_nav_wall: Duration, Sum, "tape_nav", false,
        "Tape mode: wall time spent navigating built tapes and rendering the queried spans, summed across tasks.";
    bitmap_build_wall: Duration, Sum, "bitmap_wall", false,
        "Wall time inside structural-bitmap construction (classification + string-mask resolve, not the colon/bracket walk), summed across tasks.";
    /// The tier is process-wide, so concurrent tasks always agree.
    simd_kernel: u64, Max, "simd_kernel", false,
        "Which structural-kernel tier ran (`maxson_json::kernels::Kernel` id: 1 scalar, 2 swar, 4 avx2 (3 retired); 0 = no bitmap work observed).";
    reuse_hits: u64, Sum, "reuse_hits", false,
        "Cross-query reuse cache: full-result probe hits (the query was served entirely from cache; every execution counter stays zero).";
    reuse_misses: u64, Sum, "reuse_misses", false,
        "Cross-query reuse cache: probes that found nothing usable.";
    reuse_fragment_hits: u64, Sum, "reuse_frag", false,
        "Cross-query reuse cache: fragment hits (the result was rebuilt by replaying cached intermediate rows under `LIMIT`/`DISTINCT`).";
    reuse_fills: u64, Sum, "reuse_fills", false,
        "Cross-query reuse cache: entries this query filled (admitted).";
}

impl ExecMetrics {
    /// The metric declaration, one descriptor per field in declaration
    /// order (`path_extracts`, a keyed ledger, is not in the table).
    pub fn fields() -> &'static [MetricField] {
        FIELDS
    }

    /// `(label, value)` of every deterministic work counter, in the order
    /// `EXPLAIN ANALYZE` prints them.
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        FIELDS
            .iter()
            .filter(|f| f.work)
            .filter_map(|f| match f.get {
                Get::Count(get) => Some((f.label, get(self))),
                _ => None,
            })
            .collect()
    }

    /// `(series, value)` of every field the registry exports (see
    /// [`MetricField::series`]), in declaration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        FIELDS.iter().filter_map(move |f| match (f.series, f.get) {
            (Some(series), Get::Count(get)) => Some((series, get(self))),
            _ => None,
        })
    }

    /// Compute phase: total minus `read_wall` and `parse_wall` (clamped at
    /// zero). The wall gauges, not the cross-task `read`/`parse` sums,
    /// which exceed elapsed time as soon as two workers overlap.
    pub fn compute_wall(&self) -> Duration {
        self.total
            .saturating_sub(self.read_wall)
            .saturating_sub(self.parse_wall)
    }

    /// Fraction of total time spent parsing, by the wall gauge (0 when
    /// total is zero).
    pub fn parse_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.parse_wall.as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Bump the per-query evaluation count of one JSONPath. Kept sorted so
    /// merges stay order-insensitive; allocates only on the first sighting
    /// of a path within this instance.
    pub fn charge_path_extract(&mut self, path: &str) {
        self.charge_path_extracts(path, 1);
    }

    /// Bulk form of [`ExecMetrics::charge_path_extract`] for column-at-a-
    /// time providers (LRU fills, cache-table scans) that answer `n`
    /// evaluations of one path at once.
    pub fn charge_path_extracts(&mut self, path: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self
            .path_extracts
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
        {
            Ok(i) => self.path_extracts[i].1 += n,
            Err(i) => self.path_extracts.insert(i, (path.to_string(), n)),
        }
    }

    /// Charge structural-kernel work performed since `before` (a snapshot
    /// of [`maxson_json::kernels::thread_build_stats`] taken just before
    /// the parse work). Records which kernel tier ran the moment any build
    /// is observed; Jackson-mode parses charge nothing because the DOM
    /// parser never builds bitmaps.
    pub fn charge_bitmap_builds(&mut self, before: maxson_json::kernels::BuildStats) {
        let d = maxson_json::kernels::thread_build_stats().delta_since(before);
        if d.builds > 0 {
            self.bitmap_builds += d.builds;
            self.bitmap_bytes += d.bytes;
            self.bitmap_build_wall += Duration::from_nanos(d.nanos);
            self.simd_kernel = self
                .simd_kernel
                .max(maxson_json::kernels::active().id() as u64);
        }
    }

    /// Online-LRU hit ratio over this query's lookups (0 when the LRU
    /// never ran).
    pub fn lru_hit_ratio(&self) -> f64 {
        let lookups = self.lru_hits + self.lru_misses;
        if lookups == 0 {
            0.0
        } else {
            self.lru_hits as f64 / lookups as f64
        }
    }

    /// Intra-query parse dedup factor: `parse_calls / docs_parsed`. 1.0
    /// means every evaluation parsed its own document (the naive path);
    /// K means K path evaluations were answered per parse. Returns 1.0
    /// when nothing was parsed.
    pub fn parse_dedup_factor(&self) -> f64 {
        if self.docs_parsed == 0 {
            1.0
        } else {
            self.parse_calls as f64 / self.docs_parsed as f64
        }
    }

    /// One-line human-readable summary: every non-zero field as
    /// `label=value` in declaration order, then the derived values
    /// (`compute=`, `dedup=`, `lru_ratio=`, and the kernel tier by name).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        // The kernel tier is printed by name at the end, not as its raw id.
        for f in FIELDS.iter().filter(|f| f.name != "simd_kernel") {
            if let Some(v) = f.render(self) {
                s.push_str(&format!("{}={v} ", f.label));
            }
        }
        s.push_str(&format!(
            "compute={:?} dedup={:.2}x",
            self.compute_wall(),
            self.parse_dedup_factor()
        ));
        if self.lru_hits + self.lru_misses > 0 {
            s.push_str(&format!(" lru_ratio={:.2}", self.lru_hit_ratio()));
        }
        if self.bitmap_builds > 0 {
            // Structural-kernel modes (Mison/tape) only: which tier ran.
            let kernel = maxson_json::kernels::Kernel::from_id(self.simd_kernel as u8)
                .map_or("unknown", |k| k.name());
            s.push_str(&format!(" simd={kernel}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_wall_is_the_wall_residual() {
        let m = ExecMetrics {
            total: Duration::from_millis(100),
            read_wall: Duration::from_millis(30),
            parse_wall: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(m.compute_wall(), Duration::from_millis(20));
        assert!((m.parse_fraction() - 0.5).abs() < 1e-9);
        // Parallel runs: the cross-task sums exceed total, the residual and
        // the fraction follow the wall gauges and stay within it.
        let p = ExecMetrics {
            read: Duration::from_millis(240),
            parse: Duration::from_millis(160),
            threads_used: 4,
            ..m.clone()
        };
        assert_eq!(p.compute_wall(), Duration::from_millis(20));
        assert!(p.parse_fraction() <= 1.0);
    }

    #[test]
    fn compute_wall_clamps_at_zero() {
        let m = ExecMetrics {
            total: Duration::from_millis(10),
            read_wall: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(m.compute_wall(), Duration::ZERO);
        assert_eq!(ExecMetrics::default().parse_fraction(), 0.0);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = ExecMetrics {
            rows_scanned: 5,
            parse_calls: 2,
            ..Default::default()
        };
        let b = ExecMetrics {
            rows_scanned: 7,
            cache_hits: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rows_scanned, 12);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.parse_calls, 2);
    }

    #[test]
    fn absorb_sums_docs_parsed() {
        let mut a = ExecMetrics {
            parse_calls: 12,
            docs_parsed: 4,
            ..Default::default()
        };
        let b = ExecMetrics {
            parse_calls: 9,
            docs_parsed: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.docs_parsed, 7);
        assert!((a.parse_dedup_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_extracts_stay_sorted_and_merge_by_key() {
        let mut a = ExecMetrics::default();
        a.charge_path_extract("$.b");
        a.charge_path_extract("$.a");
        a.charge_path_extract("$.b");
        assert_eq!(
            a.path_extracts,
            vec![("$.a".to_string(), 1), ("$.b".to_string(), 2)]
        );
        let mut b = ExecMetrics::default();
        b.charge_path_extract("$.c");
        b.charge_path_extract("$.b");
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.path_extracts, ba.path_extracts);
        assert_eq!(
            ab.path_extracts,
            vec![
                ("$.a".to_string(), 1),
                ("$.b".to_string(), 3),
                ("$.c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn dedup_factor_defaults_to_one_without_parses() {
        assert_eq!(ExecMetrics::default().parse_dedup_factor(), 1.0);
    }

    #[test]
    fn absorb_maxes_pool_gauges() {
        let mut a = ExecMetrics {
            threads_used: 4,
            par_tasks: 4,
            task_wall_p50: Duration::from_millis(3),
            task_skew: 1.5,
            ..Default::default()
        };
        let b = ExecMetrics {
            threads_used: 2,
            par_tasks: 2,
            task_wall_p50: Duration::from_millis(9),
            task_skew: 1.1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.threads_used, 4);
        assert_eq!(a.par_tasks, 6);
        assert_eq!(a.task_wall_p50, Duration::from_millis(9));
        assert!((a.task_skew - 1.5).abs() < 1e-12);
    }

    /// One deterministic pseudo-random metrics instance per seed, filled
    /// from the declaration (so it covers every field by construction).
    fn arb_metrics(seed: u64) -> ExecMetrics {
        // splitmix64: cheap, deterministic, good dispersion.
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        ExecMetrics::arb(&mut || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        })
    }

    fn absorb_all(parts: &[ExecMetrics]) -> ExecMetrics {
        let mut acc = ExecMetrics::default();
        for p in parts {
            acc.absorb(p);
        }
        acc
    }

    /// The parallel barrier absorbs task metrics in whatever order is
    /// convenient; the result must not depend on it.
    #[test]
    fn absorb_is_commutative_and_associative_under_shuffles() {
        let parts: Vec<ExecMetrics> = (0..8).map(arb_metrics).collect();
        let reference = absorb_all(&parts);
        // The generator reaches every absorbed field: none is left at its
        // default in the merged reference.
        for f in ExecMetrics::fields() {
            assert_eq!(
                f.render(&reference).is_some(),
                f.merge != Merge::Session,
                "{} not exercised",
                f.name
            );
        }

        // A handful of deterministic shuffles (rotations + reversal +
        // interleavings) covers both pairwise swaps and regroupings.
        for rot in 0..parts.len() {
            let mut shuffled = parts.clone();
            shuffled.rotate_left(rot);
            assert_eq!(absorb_all(&shuffled), reference, "rotation {rot}");
            shuffled.reverse();
            assert_eq!(absorb_all(&shuffled), reference, "reversed rotation {rot}");
        }

        // Associativity: fold pairs first, then absorb the pair-sums.
        let mut pairs: Vec<ExecMetrics> = Vec::new();
        for chunk in parts.chunks(2) {
            pairs.push(absorb_all(chunk));
        }
        assert_eq!(absorb_all(&pairs), reference, "pairwise regrouping");

        // Tree-shaped merge (as a work-stealing barrier might do it).
        let left = absorb_all(&parts[..3]);
        let right = absorb_all(&parts[3..]);
        let mut tree = ExecMetrics::default();
        tree.absorb(&right);
        tree.absorb(&left);
        assert_eq!(tree, reference, "tree merge");
    }

    #[test]
    fn every_declared_field_has_a_unique_name_and_label_and_help() {
        let fields = ExecMetrics::fields();
        for (i, f) in fields.iter().enumerate() {
            assert!(!f.label.is_empty(), "{} has no label", f.name);
            assert!(!f.help.trim().is_empty(), "{} has no help", f.name);
            assert!(
                !f.work || (f.merge == Merge::Sum && matches!(f.get, Get::Count(_))),
                "work counter {} must be a summed u64",
                f.name
            );
            // The query log writes summed fields as integers.
            assert!(
                f.merge != Merge::Sum || !matches!(f.get, Get::Ratio(_)),
                "{} is a summed ratio",
                f.name
            );
            for g in &fields[..i] {
                assert_ne!(f.name, g.name, "duplicate field");
                assert_ne!(f.label, g.label, "{} and {} share a label", f.name, g.name);
            }
        }
    }

    /// The `maxson_<field>_total` rule reproduces the fourteen series the
    /// hand-written charging exported and adds the nine it had left out.
    #[test]
    fn series_rule_yields_the_existing_names_plus_nine() {
        let mut derived: Vec<&str> = ExecMetrics::default()
            .counters()
            .map(|(series, _)| series)
            .collect();
        let summed_counts = ExecMetrics::fields()
            .iter()
            .filter(|f| f.merge == Merge::Sum && matches!(f.get, Get::Count(_)));
        assert!(summed_counts
            .map(|f| f.series.expect("a summed u64 field has a series"))
            .eq(derived.iter().copied()));
        let existing = [
            "maxson_rows_scanned_total",
            "maxson_bytes_read_total",
            "maxson_parse_calls_total",
            "maxson_docs_parsed_total",
            "maxson_cache_hits_total",
            "maxson_lru_hits_total",
            "maxson_lru_misses_total",
            "maxson_nodes_skipped_total",
            "maxson_bitmap_builds_total",
            "maxson_bitmap_bytes_total",
            "maxson_reuse_hits_total",
            "maxson_reuse_misses_total",
            "maxson_reuse_fragment_hits_total",
            "maxson_reuse_fills_total",
        ];
        for name in existing {
            let at = derived.iter().position(|d| *d == name);
            derived.remove(at.unwrap_or_else(|| panic!("{name} no longer derived")));
        }
        assert_eq!(
            derived,
            [
                "maxson_row_groups_read_total",
                "maxson_row_groups_skipped_total",
                "maxson_prefilter_dropped_total",
                "maxson_cells_materialized_total",
                "maxson_batch_rows_skipped_total",
                "maxson_lru_evictions_total",
                "maxson_meta_cache_hits_total",
                "maxson_meta_cache_misses_total",
                "maxson_par_tasks_total",
            ]
        );
    }

    #[test]
    fn work_counters_follow_explain_order() {
        let labels: Vec<&str> = ExecMetrics::default()
            .work_counters()
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        assert_eq!(
            labels,
            [
                "rows_scanned",
                "bytes_read",
                "parse_calls",
                "docs_parsed",
                "cache_hits",
                "rg_read",
                "rg_skipped",
                "prefilter_dropped",
                "cells_materialized",
                "batch_rows_skipped",
                "lru_hits",
                "lru_misses",
                "lru_evictions",
                "nodes_skipped",
                "bitmap_builds",
                "bitmap_bytes",
            ]
        );
    }

    #[test]
    fn summary_prints_nonzero_fields_and_derived_values() {
        let m = ExecMetrics {
            rows_scanned: 42,
            ..Default::default()
        };
        assert_eq!(m.summary(), "rows_scanned=42 compute=0ns dedup=1.00x");
        let p = ExecMetrics {
            threads_used: 4,
            par_tasks: 8,
            row_groups_skipped: 2,
            ..Default::default()
        };
        assert!(p.summary().contains("threads=4 tasks=8"));
        assert!(p.summary().contains("rg_skipped=2"));
        let l = ExecMetrics {
            lru_hits: 3,
            lru_misses: 1,
            lru_resident_bytes: 640,
            ..Default::default()
        };
        assert!(l
            .summary()
            .contains("lru_hits=3 lru_misses=1 lru_bytes=640"));
        assert!(l.summary().contains("lru_ratio=0.75"));
        let t = ExecMetrics {
            nodes_skipped: 7,
            tape_build_wall: Duration::from_micros(10),
            ..Default::default()
        };
        assert!(t.summary().contains("nodes_skipped=7 tape_build=10µs"));
        assert!(!m.summary().contains("simd="), "no bitmap work, no tier");
        let k = ExecMetrics {
            bitmap_builds: 4,
            bitmap_bytes: 1200,
            simd_kernel: maxson_json::kernels::Kernel::Swar.id() as u64,
            ..Default::default()
        };
        assert!(k.summary().contains("bitmap_builds=4 bitmap_bytes=1200"));
        assert!(k.summary().ends_with("simd=swar"));
        assert!(!k.summary().contains("simd_kernel="), "tier printed once");
    }

    #[test]
    fn lru_hit_ratio_handles_empty_and_mixed() {
        assert_eq!(ExecMetrics::default().lru_hit_ratio(), 0.0);
        let m = ExecMetrics {
            lru_hits: 9,
            lru_misses: 3,
            ..Default::default()
        };
        assert!((m.lru_hit_ratio() - 0.75).abs() < 1e-12);
    }
}
