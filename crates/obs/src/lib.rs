//! Observability spine: a thread-safe span tracer with Chrome trace-event
//! export, and the metric registry (counters, gauges, log-bucketed latency
//! histograms) every count is charged to.
//!
//! ## Span model
//!
//! A [`Tracer`] owns one trace buffer. Callers open spans with
//! [`Tracer::span`] (roots) or [`Tracer::child`] (explicit parent, so a
//! worker thread can attach its spans to a span opened on the coordinating
//! thread); the returned [`SpanGuard`] records the end timestamp on drop.
//! Timestamps come from one [`std::time::Instant`] origin fixed when the tracer is
//! created, so intervals are monotonic and comparable across threads.
//! Every span remembers which OS thread recorded it — the Chrome export
//! turns that into one track per worker thread.
//!
//! The tracer records spans and nothing else: a count belongs in the
//! engine's `ExecMetrics` (per query) or a [`Registry`] (per warehouse),
//! never in a third ledger beside them.
//!
//! ## Overhead contract
//!
//! Tracing is pay-for-what-you-use. A default tracer carries no buffer at
//! all ([`Tracer::default`] is `inner: None` — no allocation, ever), and a
//! toggleable tracer ([`Tracer::new`]) gates every hook on one relaxed
//! atomic load. When disabled, `span`/`child` return an inert guard,
//! `attr` never formats its value (the generic parameter is only rendered
//! after the enabled check): branch-on-a-bool, no allocation, no lock.

#![deny(unreachable_pub)]
mod chrome;
mod hist;
mod metrics;
mod sketch;
mod tracer;

pub use hist::LatencyHistogram;
pub use metrics::{Counter, Gauge, HistogramHandle, Registry};
pub use sketch::{SketchEntry, SpaceSaving};
pub use tracer::{OpRollup, SpanGuard, SpanId, SpanRecord, TraceSnapshot, Tracer};
