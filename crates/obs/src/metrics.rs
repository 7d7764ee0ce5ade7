//! Process-wide metric registry with Prometheus-style text exposition.
//!
//! The registry hands out cheap, lock-free *handles* — [`Counter`] and
//! [`Gauge`] wrap an `Arc<AtomicU64>`, [`HistogramHandle`] wraps the
//! log-bucketed [`LatencyHistogram`] behind a mutex — keyed by metric name
//! plus a sorted label set (`query_wall{parser="tape"}`). Charging a
//! metric on the hot path is one relaxed atomic op; registration (the
//! only locking operation) happens once per call site, so callers hoist
//! handles out of loops.
//!
//! ## Type discipline
//!
//! The first registration of a name fixes its type. Re-requesting the
//! same key with a different type returns a *detached* handle: it works
//! (callers never panic, telemetry must not take the process down) but is
//! not linked to the registry and never appears in the exposition. The
//! mismatch is counted in `maxson_registry_type_conflicts_total` so it is
//! visible rather than silent.
//!
//! ## Exposition
//!
//! [`Registry::expose`] renders the classic Prometheus text format with
//! fully deterministic ordering: series live in a `BTreeMap` keyed by
//! `(name, labels)`, so equal registry contents always render equal
//! bytes. Histograms emit cumulative `_bucket{le="…"}` lines (seconds,
//! derived from the log-bucket upper bounds in µs) plus `_sum`/`_count`.
//!
//! ## Workload sketch
//!
//! The registry embeds one deterministic [`SpaceSaving`] sketch of
//! per-`(table, JSONPath)` extraction frequencies — the streaming
//! workload signal the continuous-caching roadmap item consumes. Keys
//! are `table\tpath` (tab cannot appear in either part).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::hist::LatencyHistogram;
use crate::sketch::SpaceSaving;

/// Tracked (table, JSONPath) keys in the workload sketch.
const PATH_SKETCH_CAPACITY: usize = 128;

/// A metric series identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        labels.dedup_by(|a, b| a.0 == b.0);
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// One registered series.
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<LatencyHistogram>>),
}

impl Slot {
    fn type_name(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// Monotonically increasing counter handle. Clone freely; all clones
/// charge the same series.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

impl Counter {
    /// A handle not linked to any registry (its charges go nowhere
    /// visible). Used as the fallback on type conflicts and handy as a
    /// null object in tests.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

impl Gauge {
    /// A handle not linked to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to at least `v` (high-watermark).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram handle over the shared log-bucketed latency histogram.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<LatencyHistogram>>);

impl HistogramHandle {
    /// A handle not linked to any registry.
    pub fn detached() -> Self {
        HistogramHandle(Arc::new(Mutex::new(LatencyHistogram::new())))
    }

    /// Record one duration.
    pub fn observe(&self, d: Duration) {
        self.0.lock().expect("histogram poisoned").record(d);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

/// Thread-safe metric registry. See the module docs.
pub struct Registry {
    slots: Mutex<BTreeMap<MetricKey, Slot>>,
    type_conflicts: AtomicU64,
    paths: Mutex<SpaceSaving>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Mutex::new(BTreeMap::new()),
            type_conflicts: AtomicU64::new(0),
            paths: Mutex::new(SpaceSaving::new(PATH_SKETCH_CAPACITY)),
        }
    }

    /// The process-global registry (created on first use).
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Registry::new()))
    }

    /// Counter handle for `name{labels}` (registering it on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => {
                self.type_conflicts.fetch_add(1, Ordering::Relaxed);
                Counter::detached()
            }
        }
    }

    /// Gauge handle for `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => {
                self.type_conflicts.fetch_add(1, Ordering::Relaxed);
                Gauge::detached()
            }
        }
    }

    /// Histogram handle for `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Arc::new(Mutex::new(LatencyHistogram::new()))))
        {
            Slot::Histogram(h) => HistogramHandle(Arc::clone(h)),
            _ => {
                self.type_conflicts.fetch_add(1, Ordering::Relaxed);
                HistogramHandle::detached()
            }
        }
    }

    /// Number of handle requests refused for requesting the wrong type.
    pub fn type_conflicts(&self) -> u64 {
        self.type_conflicts.load(Ordering::Relaxed)
    }

    /// Record `weight` extractions of `path` against `table` in the
    /// workload sketch.
    pub fn record_path(&self, table: &str, path: &str, weight: u64) {
        if weight == 0 {
            return;
        }
        let key = format!("{table}\t{path}");
        self.paths
            .lock()
            .expect("path sketch poisoned")
            .record(&key, weight);
    }

    /// Top-`k` `(table, path, estimated_count)` triples from the workload
    /// sketch, hottest first (count desc, key asc — deterministic).
    pub fn hot_paths(&self, k: usize) -> Vec<(String, String, u64)> {
        self.paths
            .lock()
            .expect("path sketch poisoned")
            .top(k)
            .into_iter()
            .map(|e| {
                let (table, path) = e.key.split_once('\t').unwrap_or(("", e.key.as_str()));
                (table.to_string(), path.to_string(), e.count)
            })
            .collect()
    }

    /// Current value of a counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        match self.slots.lock().expect("registry poisoned").get(&key) {
            Some(Slot::Counter(c)) => Some(c.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Snapshot of a histogram series, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<LatencyHistogram> {
        let key = MetricKey::new(name, labels);
        match self.slots.lock().expect("registry poisoned").get(&key) {
            Some(Slot::Histogram(h)) => Some(h.lock().expect("histogram poisoned").clone()),
            _ => None,
        }
    }

    /// Every counter and gauge series as `(rendered_id, value)` pairs in
    /// exposition order, plus histogram series as `(id_count, count)`.
    /// A cheap monotonicity probe for tests.
    pub fn sample(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().expect("registry poisoned");
        let mut out = Vec::with_capacity(slots.len());
        for (key, slot) in slots.iter() {
            let id = render_series(&key.name, &key.labels, None);
            match slot {
                Slot::Counter(c) => out.push((id, c.load(Ordering::Relaxed))),
                Slot::Gauge(g) => out.push((id, g.load(Ordering::Relaxed))),
                Slot::Histogram(h) => {
                    let count = h.lock().expect("histogram poisoned").count();
                    out.push((format!("{id}#count"), count));
                }
            }
        }
        out
    }

    /// Prometheus-style text exposition. Deterministic: equal registry
    /// contents render equal bytes. `# TYPE` comments are emitted once
    /// per metric name; histogram buckets are cumulative with `le` in
    /// seconds.
    pub fn expose(&self) -> String {
        let slots = self.slots.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, slot) in slots.iter() {
            if last_name != Some(key.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&key.name);
                out.push(' ');
                out.push_str(slot.type_name());
                out.push('\n');
                last_name = Some(key.name.as_str());
            }
            match slot {
                Slot::Counter(c) => {
                    out.push_str(&render_series(&key.name, &key.labels, None));
                    out.push(' ');
                    out.push_str(&c.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                Slot::Gauge(g) => {
                    out.push_str(&render_series(&key.name, &key.labels, None));
                    out.push(' ');
                    out.push_str(&g.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                Slot::Histogram(h) => {
                    let h = h.lock().expect("histogram poisoned").clone();
                    let mut cumulative = 0u64;
                    for (_, upper_us, n) in h.nonzero_buckets() {
                        cumulative += n;
                        let le = format_seconds(upper_us);
                        let bucket = format!("{}_bucket", key.name);
                        out.push_str(&render_series(&bucket, &key.labels, Some(("le", &le))));
                        out.push(' ');
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    let bucket = format!("{}_bucket", key.name);
                    out.push_str(&render_series(&bucket, &key.labels, Some(("le", "+Inf"))));
                    out.push(' ');
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                    out.push_str(&render_series(
                        &format!("{}_sum", key.name),
                        &key.labels,
                        None,
                    ));
                    out.push(' ');
                    out.push_str(&format_seconds(h.total().as_micros() as u64));
                    out.push('\n');
                    out.push_str(&render_series(
                        &format!("{}_count", key.name),
                        &key.labels,
                        None,
                    ));
                    out.push(' ');
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                }
            }
        }
        // Workload sketch rides along as an info-style gauge family.
        let hot = self.hot_paths(PATH_SKETCH_CAPACITY);
        if !hot.is_empty() {
            out.push_str("# TYPE maxson_hot_path_extracts gauge\n");
            for (table, path, count) in hot {
                out.push_str(&render_series(
                    "maxson_hot_path_extracts",
                    &[("path".to_string(), path), ("table".to_string(), table)],
                    None,
                ));
                out.push(' ');
                out.push_str(&count.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Render `name{k="v",…}` with an optional extra label (used for `le`).
fn render_series(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut all: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    if let Some((k, v)) = extra {
        all.push((k, v));
        all.sort();
    }
    if all.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Render a µs count as seconds with no trailing-zero noise (Rust f64
/// Display is shortest-roundtrip, hence deterministic across platforms).
fn format_seconds(us: u64) -> String {
    let secs = us as f64 / 1e6;
    format!("{secs}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_a_series_and_labels_are_order_insensitive() {
        let r = Registry::new();
        let a = r.counter("q_total", &[("parser", "tape"), ("mode", "shared")]);
        let b = r.counter("q_total", &[("mode", "shared"), ("parser", "tape")]);
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(
            r.counter_value("q_total", &[("parser", "tape"), ("mode", "shared")]),
            Some(4)
        );
    }

    #[test]
    fn type_conflict_returns_detached_handle() {
        let r = Registry::new();
        let c = r.counter("x", &[]);
        c.inc();
        let g = r.gauge("x", &[]);
        g.set(99);
        assert_eq!(r.counter_value("x", &[]), Some(1), "registry unchanged");
        assert_eq!(r.type_conflicts(), 1);
        assert!(!r.expose().contains("99"));
    }

    #[test]
    fn exposition_is_deterministic_and_ordered() {
        let build = || {
            let r = Registry::new();
            r.counter("zeta_total", &[]).add(7);
            r.counter("alpha_total", &[("p", "b")]).add(1);
            r.counter("alpha_total", &[("p", "a")]).add(2);
            r.gauge("mid_gauge", &[]).set(5);
            r.record_path("db.t", "$.a", 10);
            r.record_path("db.t", "$.b", 4);
            r.expose()
        };
        let text = build();
        assert_eq!(text, build());
        let alpha = text.find("alpha_total{p=\"a\"} 2").unwrap();
        let alpha_b = text.find("alpha_total{p=\"b\"} 1").unwrap();
        let zeta = text.find("zeta_total 7").unwrap();
        assert!(
            alpha < alpha_b && alpha_b < zeta,
            "sorted by (name, labels)"
        );
        assert!(text.contains("# TYPE alpha_total counter"));
        assert!(text.contains("# TYPE mid_gauge gauge"));
        assert!(text.contains("maxson_hot_path_extracts{path=\"$.a\",table=\"db.t\"} 10"));
    }

    #[test]
    fn histogram_exposition_has_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("wall_seconds", &[("op", "q")]);
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(900));
        let text = r.expose();
        assert!(text.contains("# TYPE wall_seconds histogram"));
        // [2,4)µs bucket → le=4e-6 s, two samples.
        assert!(
            text.contains("wall_seconds_bucket{le=\"0.000004\",op=\"q\"} 2"),
            "{text}"
        );
        // [512,1024)µs bucket → cumulative 3.
        assert!(
            text.contains("wall_seconds_bucket{le=\"0.001024\",op=\"q\"} 3"),
            "{text}"
        );
        assert!(text.contains("wall_seconds_bucket{le=\"+Inf\",op=\"q\"} 3"));
        assert!(text.contains("wall_seconds_count{op=\"q\"} 3"));
        assert!(text.contains("wall_seconds_sum{op=\"q\"} 0.000906"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("esc_total", &[("v", "a\"b\\c\nd")]).inc();
        let text = r.expose();
        assert!(text.contains(r#"esc_total{v="a\"b\\c\nd"} 1"#), "{text}");
    }

    #[test]
    fn sample_tracks_histogram_counts() {
        let r = Registry::new();
        r.counter("c_total", &[]).add(2);
        let h = r.histogram("h_seconds", &[]);
        h.observe(Duration::from_micros(5));
        let s = r.sample();
        assert!(s.contains(&("c_total".to_string(), 2)));
        assert!(s.contains(&("h_seconds#count".to_string(), 1)));
    }
}
