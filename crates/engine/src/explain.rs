//! `EXPLAIN ANALYZE` rendering: the span tree a traced execution recorded,
//! printed as an indented operator tree with per-operator wall time, row
//! counts, and the counter deltas each operator charged (parse calls,
//! dedup, cache hits, ...). Everything it prints is this query's: the
//! tree is the subtree under this execution's root span.
//!
//! The tree shape, rows, and counters are deterministic across thread
//! counts: per-split spans exist at one thread too, child order sorts
//! by split index (not completion order), and zero-valued counter deltas
//! are never emitted. Only the `wall=` annotations vary run to run —
//! golden tests normalize exactly those tokens.

use maxson_obs::{SpanRecord, TraceSnapshot};

/// Render the subtree rooted at span `root` (a query-root span).
pub fn render_analyze(snap: &TraceSnapshot, root: u64) -> String {
    let mut out = String::new();
    match snap.span(root) {
        Some(span) => render_node(snap, span, 0, &mut out),
        None => out.push_str("(no spans recorded)\n"),
    }
    out
}

fn render_node(snap: &TraceSnapshot, span: &SpanRecord, indent: usize, out: &mut String) {
    out.push_str(&"  ".repeat(indent));
    out.push_str(&span.name);
    out.push_str(&format!(" wall={:?}", span.wall()));
    for (k, v) in &span.attrs {
        // The root span repeats the SQL text; the header line is enough.
        if k == "sql" {
            continue;
        }
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');
    for child in snap.children_of(span.id) {
        render_node(snap, child, indent + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_obs::Tracer;

    #[test]
    fn renders_tree_with_attrs_in_split_order() {
        let t = Tracer::enabled();
        let root_id;
        {
            let root = t.span("query");
            root.attr("sql", "select 1");
            root.attr("rows", 1u64);
            root_id = root.id().unwrap().0;
            let pipe = t.child("scan_pipeline", root.id());
            pipe.attr("splits", 2u64);
            for s in [1usize, 0] {
                let split = t.child("split", pipe.id());
                split.attr("split", s);
            }
        }
        let text = render_analyze(&t.snapshot(), root_id);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("query wall="));
        assert!(lines[0].contains("rows=1"));
        assert!(!lines[0].contains("sql="), "sql attr is suppressed");
        assert!(lines[1].starts_with("  scan_pipeline wall="));
        // Split children render in split order despite reversed recording.
        assert!(lines[2].contains("split=0"));
        assert!(lines[3].contains("split=1"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn missing_root_is_reported() {
        let t = Tracer::new();
        let text = render_analyze(&t.snapshot(), 0);
        assert!(text.contains("no spans recorded"));
    }
}
