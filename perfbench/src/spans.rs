//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written as one JSON file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one block share this identifier.
    pub block: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::open`]; `None` inside when recording is
/// off, so the untraced run pays one branch per call site.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

/// In-memory span store of one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// `origin` is shared by all recorders of a run so their spans merge
    /// onto one clock.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, block: u32) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            block,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON document: an array of span objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"block\":{}}}",
                s.name, s.start_ns, s.end_ns, s.block
            )
            .expect("write to String");
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per block, the self time of every span name: the rows of a budget whose
/// sum is exactly the block's root span.
pub fn self_time_by_block(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.block).or_default().entry(s.name).or_default() += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            block: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("block", 0, 100, None),
            // adjacent children: [10,40) and [40,70)
            span("stmt", 10, 40, Some(0)),
            span("stmt", 40, 70, Some(0)),
            // nested grandchild inside the first statement
            span("parse", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        let by_block = self_time_by_block(&spans);
        let rows = &by_block[&0];
        assert_eq!(rows["block"], 40);
        assert_eq!(rows["stmt"], 50);
        assert_eq!(rows["parse"], 10);
        // The rows of a block sum to its root span.
        assert_eq!(rows.values().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 30, Some(0)), // overhangs the start: clipped to [10,30)
            span("b", 20, 45, Some(0)), // overlaps a: adds only [30,45)
            span("c", 60, 70, Some(0)), // outside the parent: ignored
        ];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut off = Recorder::new(false, origin);
        let id = off.open("x", SpanId::NONE, 1);
        off.close(id);
        assert!(off.spans().is_empty());

        let mut a = Recorder::new(true, origin);
        let root = a.open("root", SpanId::NONE, 1);
        a.close(root);
        let mut b = Recorder::new(true, origin);
        let root_b = b.open("root", SpanId::NONE, 2);
        let kid = b.open("kid", root_b, 2);
        b.close(kid);
        b.close(root_b);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.spans()[2].end_ns >= a.spans()[2].start_ns);
    }
}
