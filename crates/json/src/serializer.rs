//! Compact and pretty JSON writers for [`JsonValue`].

use crate::value::{JsonNumber, JsonValue};
use std::fmt::Write as _;

/// Serialize compactly (no whitespace). Round-trips through
/// [`crate::parse`].
pub fn to_string(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Serialize with two-space indentation, for human consumption (benchmark
/// reports, examples).
pub fn to_string_pretty(v: &JsonValue) -> String {
    let mut out = String::new();
    write_pretty(&mut out, v, 0);
    out
}

pub(crate) fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(n) => write_number(out, *n),
        JsonValue::String(s) => write_escaped(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &JsonValue, indent: usize) {
    match v {
        JsonValue::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        JsonValue::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: JsonNumber) {
    match n {
        JsonNumber::Int(i) => {
            let _ = write!(out, "{i}");
        }
        JsonNumber::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{:.1}", f);
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                // JSON has no Inf/NaN; Hive renders them as null.
                out.push_str("null");
            }
        }
    }
}

/// Escape a string per RFC 8259 and append it, quoted.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_round_trip() {
        let src = r#"{"a":[1,2.5,null,true],"b":{"c":"x\ny"}}"#;
        let v = parse(src).unwrap();
        let re = to_string(&v);
        assert_eq!(parse(&re).unwrap(), v);
    }

    #[test]
    fn escapes_are_emitted() {
        let v = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(to_string(&v), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn float_formatting_keeps_type() {
        let v = parse("[2.0, 2.5]").unwrap();
        assert_eq!(to_string(&v), "[2.0,2.5]");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let v = JsonValue::from(f64::INFINITY);
        assert_eq!(to_string(&v), "null");
        let v = JsonValue::from(f64::NAN);
        assert_eq!(to_string(&v), "null");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"a":[1,{"b":2}],"c":[]}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
        // Empty containers stay on one line.
        assert!(pretty.contains("[]"));
    }
}
