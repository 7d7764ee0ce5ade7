//! The span collector: [`Tracer`], [`SpanGuard`], and trace snapshots.

use std::fmt::Display;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Opaque handle to a recorded span, used to parent child spans — including
/// spans recorded on *other* threads (a pool worker attaches its per-split
/// span to the pipeline span opened on the coordinating thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// One recorded span interval.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Identifier; equals this record's index in the trace buffer.
    pub id: u64,
    /// Parent span, when one was supplied.
    pub parent: Option<u64>,
    /// Operator / stage name ("scan_pipeline", "hash_join", ...).
    pub name: String,
    /// Index into [`TraceSnapshot::threads`] — the track this span runs on.
    pub track: usize,
    /// Start offset from the tracer origin, microseconds.
    pub start_us: u64,
    /// End offset from the tracer origin, microseconds (>= `start_us`).
    pub end_us: u64,
    /// Ordered key/value annotations (rows, counters, labels).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall time of the span.
    pub fn wall(&self) -> Duration {
        Duration::from_micros(self.end_us - self.start_us)
    }

    /// Value of an attribute, if recorded.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRecord>,
    /// OS-thread → track index registry, in first-seen order. Track 0 is
    /// whichever thread records first (normally the session thread).
    threads: Vec<(ThreadId, String)>,
}

impl State {
    fn track_index(&mut self) -> usize {
        let current = std::thread::current();
        if let Some(i) = self.threads.iter().position(|(t, _)| *t == current.id()) {
            return i;
        }
        let name = current
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{}", self.threads.len()));
        self.threads.push((current.id(), name));
        self.threads.len() - 1
    }
}

struct Inner {
    enabled: AtomicBool,
    origin: Instant,
    state: Mutex<State>,
}

/// A thread-safe span recorder.
///
/// Cloning is cheap and shares the buffer: hand clones to providers,
/// rewriters, and worker tasks, and every event lands in one trace.
/// See the crate docs for the zero-cost-when-disabled contract.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A toggleable tracer, initially disabled. All clones share the buffer
    /// and the enable flag, so a handle distributed at construction time
    /// starts recording the moment [`Tracer::set_enabled`] flips on.
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                enabled: AtomicBool::new(false),
                origin: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A tracer that is recording from the start.
    pub fn enabled() -> Self {
        let t = Tracer::new();
        t.set_enabled(true);
        t
    }

    /// A permanently-off tracer (no buffer at all). Same as `default()`.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether hooks currently record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.enabled.load(Ordering::Relaxed),
        }
    }

    /// Flip recording on or off. No-op on a permanently-off tracer.
    pub fn set_enabled(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Clear the trace buffer (spans and the thread registry). Do not call while spans are open — their guards would
    /// write end timestamps into the fresh buffer.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            *inner.state.lock().unwrap() = State::default();
        }
    }

    /// Open a root span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.child(name, None)
    }

    /// Open a span under `parent` (pass a [`SpanGuard::id`] — possibly one
    /// captured on another thread).
    pub fn child(&self, name: &str, parent: Option<SpanId>) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let inner = self.inner.as_ref().expect("enabled implies buffer");
        let now = inner.origin.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        let track = st.track_index();
        let id = st.spans.len() as u64;
        st.spans.push(SpanRecord {
            id,
            parent: parent.map(|p| p.0),
            name: name.to_string(),
            track,
            start_us: now,
            end_us: now,
            attrs: Vec::new(),
        });
        SpanGuard {
            tracer: self,
            id: Some(SpanId(id)),
        }
    }

    /// Snapshot the whole trace buffer.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let st = inner.state.lock().unwrap();
        TraceSnapshot {
            spans: st.spans.clone(),
            threads: st.threads.iter().map(|(_, n)| n.clone()).collect(),
        }
    }

    /// Per-span-name wall-time rollup, sorted by total wall descending
    /// (ties broken by name so the order is deterministic).
    pub fn rollup(&self) -> Vec<OpRollup> {
        self.snapshot().rollup()
    }

    /// Render the buffer as Chrome trace-event JSON (see `chrome.rs`).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(&self.snapshot())
    }

    /// Write the Chrome trace-event JSON to `path`.
    pub fn export_chrome(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    fn finish_span(&self, id: SpanId) {
        let Some(inner) = &self.inner else { return };
        let now = inner.origin.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        if let Some(rec) = st.spans.get_mut(id.0 as usize) {
            rec.end_us = now.max(rec.start_us);
        }
    }

    fn push_attr(&self, id: SpanId, key: &str, value: String) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        if let Some(rec) = st.spans.get_mut(id.0 as usize) {
            rec.attrs.push((key.to_string(), value));
        }
    }
}

/// RAII handle for an open span; records the end timestamp on drop.
#[must_use = "dropping the guard ends the span"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// The recorded span's id — `None` when the tracer is disabled. Pass to
    /// [`Tracer::child`] to parent further spans (any thread).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.id.is_some()
    }

    /// Annotate the span. The value is only formatted when recording, so a
    /// disabled tracer pays one branch and nothing else.
    pub fn attr<V: Display>(&self, key: &str, value: V) {
        if let Some(id) = self.id {
            self.tracer.push_attr(id, key, value.to_string());
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.finish_span(id);
        }
    }
}

/// A point-in-time copy of a tracer's buffer.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All spans recorded so far (open spans have `end_us == start_us`).
    pub spans: Vec<SpanRecord>,
    /// Track names, indexed by [`SpanRecord::track`].
    pub threads: Vec<String>,
}

impl TraceSnapshot {
    /// The span with the given id, if present.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Children of `parent` in a deterministic order: spans carrying a
    /// numeric `split` attribute sort by split index (parallel workers
    /// finish — and hence record — in scheduling order, which must not leak
    /// into rendered output); everything else keeps recording order.
    pub fn children_of(&self, parent: u64) -> Vec<&SpanRecord> {
        let mut kids: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect();
        kids.sort_by_key(|s| {
            s.attr("split")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });
        kids
    }

    /// Per-span-name wall-time rollup, sorted by total wall descending
    /// (ties by name).
    pub fn rollup(&self) -> Vec<OpRollup> {
        let mut by_name: Vec<OpRollup> = Vec::new();
        for span in &self.spans {
            match by_name.iter_mut().find(|r| r.name == span.name) {
                Some(r) => {
                    r.count += 1;
                    r.total += span.wall();
                }
                None => by_name.push(OpRollup {
                    name: span.name.clone(),
                    count: 1,
                    total: span.wall(),
                }),
            }
        }
        by_name.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
        by_name
    }
}

/// Aggregate wall time of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRollup {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Sum of span wall times.
    pub total: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tracer_is_inert() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        let g = t.span("noop");
        assert!(!g.is_recording());
        g.attr("k", "v");
        drop(g);
        assert!(t.snapshot().spans.is_empty());
        // set_enabled on a bufferless tracer stays off.
        t.set_enabled(true);
        assert!(!t.is_enabled());
    }

    #[test]
    fn toggle_gates_recording() {
        let t = Tracer::new();
        assert!(!t.is_enabled());
        drop(t.span("before"));
        t.set_enabled(true);
        drop(t.span("during"));
        t.set_enabled(false);
        drop(t.span("after"));
        let spans = t.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "during");
    }

    #[test]
    fn spans_nest_and_record_attrs() {
        let t = Tracer::enabled();
        let root = t.span("query");
        root.attr("sql", "select 1");
        {
            let child = t.child("scan", root.id());
            child.attr("rows", 42u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(root);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let root_rec = &snap.spans[0];
        let child_rec = &snap.spans[1];
        assert_eq!(root_rec.name, "query");
        assert_eq!(root_rec.attr("sql"), Some("select 1"));
        assert_eq!(child_rec.parent, Some(root_rec.id));
        assert_eq!(child_rec.attr("rows"), Some("42"));
        // Child interval nests inside the parent's.
        assert!(child_rec.start_us >= root_rec.start_us);
        assert!(child_rec.end_us <= root_rec.end_us);
        assert!(child_rec.wall() >= Duration::from_millis(2));
        assert_eq!(snap.children_of(root_rec.id).len(), 1);
    }

    #[test]
    fn cross_thread_spans_get_their_own_track() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let parent = root.id();
        std::thread::scope(|scope| {
            for i in 0..2 {
                let t = &t;
                scope.spawn(move || {
                    let g = t.child("task", parent);
                    g.attr("split", i);
                });
            }
        });
        drop(root);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        // Two worker tracks plus the root's track.
        assert_eq!(snap.threads.len(), 3);
        let kids = snap.children_of(0);
        assert_eq!(kids.len(), 2);
        // Deterministic split order regardless of completion order.
        assert_eq!(kids[0].attr("split"), Some("0"));
        assert_eq!(kids[1].attr("split"), Some("1"));
        assert_ne!(kids[0].track, 0);
        assert_ne!(kids[1].track, 0);
    }

    #[test]
    fn rollup_aggregates_by_name() {
        let t = Tracer::enabled();
        drop(t.span("a"));
        drop(t.span("a"));
        drop(t.span("b"));
        let roll = t.rollup();
        assert_eq!(roll.len(), 2);
        let a = roll.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.count, 2);
    }

    #[test]
    fn reset_clears_the_buffer() {
        let t = Tracer::enabled();
        drop(t.span("x"));
        t.reset();
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.threads.is_empty());
        assert!(t.is_enabled(), "reset keeps the enable flag");
    }
}
