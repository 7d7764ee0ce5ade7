//! Chrome trace-event export.
//!
//! Renders a [`TraceSnapshot`] as the Trace Event Format JSON that
//! `chrome://tracing` and Perfetto load: one `"X"` (complete) event per
//! span with microsecond `ts`/`dur` and one `"M"` `thread_name` metadata
//! event per recorded thread (so every worker gets its own track). Span
//! args carry the span id, parent id, and all attributes, so nesting can
//! be checked programmatically even across tracks.

use maxson_json::value::JsonNumber;
use maxson_json::JsonValue;

use crate::tracer::TraceSnapshot;

fn num(n: u64) -> JsonValue {
    JsonValue::Number(JsonNumber::Int(n as i64))
}

fn s(v: &str) -> JsonValue {
    JsonValue::String(v.to_string())
}

/// Render `snap` as a Trace Event Format document.
pub(crate) fn to_chrome_json(snap: &TraceSnapshot) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    for (track, name) in snap.threads.iter().enumerate() {
        events.push(JsonValue::object(vec![
            ("ph".into(), s("M")),
            ("pid".into(), num(1)),
            ("tid".into(), num(track as u64)),
            ("name".into(), s("thread_name")),
            (
                "args".into(),
                JsonValue::object(vec![("name".into(), s(name))]),
            ),
        ]));
    }
    for span in &snap.spans {
        let mut args: Vec<(String, JsonValue)> = vec![("id".into(), num(span.id))];
        if let Some(p) = span.parent {
            args.push(("parent".into(), num(p)));
        }
        for (k, v) in &span.attrs {
            args.push((k.clone(), s(v)));
        }
        events.push(JsonValue::object(vec![
            ("ph".into(), s("X")),
            ("pid".into(), num(1)),
            ("tid".into(), num(span.track as u64)),
            ("ts".into(), num(span.start_us)),
            ("dur".into(), num(span.end_us - span.start_us)),
            ("name".into(), s(&span.name)),
            ("args".into(), JsonValue::Object(args)),
        ]));
    }
    let doc = JsonValue::object(vec![
        ("traceEvents".into(), JsonValue::Array(events)),
        ("displayTimeUnit".into(), s("ms")),
    ]);
    maxson_json::to_string(&doc)
}

#[cfg(test)]
mod tests {
    use crate::Tracer;

    #[test]
    fn export_round_trips_through_the_parser() {
        let t = Tracer::enabled();
        {
            let root = t.span("query");
            root.attr("sql", "select \"x\" from t");
            let _child = t.child("scan", root.id());
        }
        let text = t.to_chrome_json();
        let doc = maxson_json::parse(&text).expect("well-formed JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        let phase =
            |e: &maxson_json::JsonValue| e.get("ph").and_then(|p| p.as_str().map(str::to_string));
        let xs: Vec<_> = events
            .iter()
            .filter(|e| phase(e).as_deref() == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        let ms: Vec<_> = events
            .iter()
            .filter(|e| phase(e).as_deref() == Some("M"))
            .collect();
        assert_eq!(ms.len(), 1, "one thread -> one thread_name event");
        assert_eq!(xs.len() + ms.len(), events.len(), "spans and tracks only");
        // The child event names its parent in args.
        let child = xs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("scan"))
            .expect("scan event");
        assert!(child.get("args").and_then(|a| a.get("parent")).is_some());
    }

    #[test]
    fn empty_tracer_exports_empty_event_list() {
        let t = Tracer::new();
        let doc = maxson_json::parse(&t.to_chrome_json()).expect("well-formed");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(0)
        );
    }
}
