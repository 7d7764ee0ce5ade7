//! A recursive-descent JSON DOM parser.
//!
//! This is the "Jackson" stand-in: the full document is tokenized,
//! unescaped, and materialized into a [`JsonValue`] tree. Every call to
//! `get_json_object` in the unmodified engine pays this cost once per record
//! per expression — the duplicate work Maxson's cache eliminates.

use crate::error::{JsonError, Result};
use crate::value::{JsonNumber, JsonValue};

/// Maximum nesting depth accepted by [`parse`]. Deep enough for any
/// realistic warehouse payload while keeping recursion bounded.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing whitespace is allowed; any other
/// trailing bytes are an error.
pub fn parse(input: &str) -> Result<JsonValue> {
    let mut p = Parser::new(input);
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(JsonError::TrailingData { offset: p.pos });
    }
    Ok(v)
}

/// Streaming-ish cursor over the input bytes. Exposed so callers (e.g. the
/// Mison fallback path) can parse a value starting mid-buffer.
pub struct Parser<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    /// Create a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, expected: &'static str) -> Result<()> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            found => Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found,
                expected,
            }),
        }
    }

    /// Parse one JSON value at the current position.
    pub fn parse_value(&mut self, depth: usize) -> Result<JsonValue> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH });
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            found => Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found,
                expected: "a JSON value",
            }),
        }
    }

    fn parse_keyword(&mut self, kw: &'static str, v: JsonValue) -> Result<JsonValue> {
        let end = self.pos + kw.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == kw.as_bytes() {
            self.pos = end;
            Ok(v)
        } else {
            Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found: self.peek(),
                expected: "a JSON keyword (true/false/null)",
            })
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue> {
        self.expect(b'{', "'{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                found => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found,
                        expected: "',' or '}'",
                    })
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue> {
        self.expect(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            let value = self.parse_value(depth + 1)?;
            items.push(value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                found => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found,
                        expected: "',' or ']'",
                    })
                }
            }
        }
    }

    pub(crate) fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"', "'\"'")?;
        // Fast path: a string with no escape is one copy of its span.
        let end = self.run_end();
        if self.bytes.get(end) == Some(&b'"') {
            // Safety of from_utf8: input came from &str and contains no
            // escape, so the slice is valid UTF-8 on char boundaries.
            let s = std::str::from_utf8(&self.bytes[self.pos..end])
                .expect("slice of valid UTF-8 input");
            self.pos = end + 1;
            return Ok(s.to_string());
        }
        let mut out = String::new();
        self.string_body(&mut out)?;
        Ok(out)
    }

    /// Parse one string token, appending its unescaped text to `out`.
    pub(crate) fn parse_string_into(&mut self, out: &mut String) -> Result<()> {
        self.expect(b'"', "'\"'")?;
        self.string_body(out)
    }

    /// Where the run of bytes from `pos` that holds no quote, backslash or
    /// control byte ends.
    fn run_end(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .map_or(self.bytes.len(), |n| self.pos + n)
    }

    /// Append the text of the string whose opening quote is behind `pos`
    /// to `out`, unescaped, and step past its closing quote.
    fn string_body(&mut self, out: &mut String) -> Result<()> {
        loop {
            // A run free of quotes, escapes and control bytes is copied
            // whole: it starts and ends at ASCII bytes of valid UTF-8.
            let run = self.run_end();
            out.push_str(
                std::str::from_utf8(&self.bytes[self.pos..run])
                    .expect("slice of valid UTF-8 input"),
            );
            self.pos = run;
            match self.peek() {
                None => return Err(JsonError::UnexpectedEof { context: "string" }),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError::UnexpectedEof {
                        context: "string escape",
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: must be followed by \uXXXX low surrogate.
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(JsonError::InvalidString {
                                            offset: self.pos,
                                            reason: "unpaired surrogate",
                                        });
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(char::from_u32(c).ok_or(
                                        JsonError::InvalidString {
                                            offset: self.pos,
                                            reason: "invalid surrogate pair",
                                        },
                                    )?);
                                } else {
                                    return Err(JsonError::InvalidString {
                                        offset: self.pos,
                                        reason: "unpaired surrogate",
                                    });
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(JsonError::InvalidString {
                                    offset: self.pos,
                                    reason: "unpaired low surrogate",
                                });
                            } else {
                                out.push(char::from_u32(cp).ok_or(JsonError::InvalidString {
                                    offset: self.pos,
                                    reason: "invalid code point",
                                })?);
                            }
                        }
                        _ => {
                            return Err(JsonError::InvalidString {
                                offset: self.pos - 1,
                                reason: "unknown escape",
                            })
                        }
                    }
                }
                Some(_) => {
                    return Err(JsonError::InvalidString {
                        offset: self.pos,
                        reason: "raw control character",
                    })
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::UnexpectedEof {
                context: "unicode escape",
            });
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => {
                    return Err(JsonError::InvalidString {
                        offset: self.pos,
                        reason: "bad hex digit in unicode escape",
                    })
                }
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    pub(crate) fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::InvalidNumber { offset: start }),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number literal is ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Number(JsonNumber::Int(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| JsonValue::Number(JsonNumber::Float(f)))
            .map_err(|_| JsonError::InvalidNumber { offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-1.25e-2").unwrap().as_f64(), Some(-0.0125));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#" { "a" : [1, {"b": null}, "s"] , "c": {} } "#).unwrap();
        assert_eq!(v.get("a").unwrap().len(), 3);
        assert!(v
            .get("a")
            .unwrap()
            .index(1)
            .unwrap()
            .get("b")
            .unwrap()
            .is_null());
        assert_eq!(v.get("c").unwrap().len(), 0);
    }

    #[test]
    fn escapes_are_decoded() {
        let v = parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn unpaired_surrogate_is_error() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"abc",
            "{\"a\":1} x",
            "nul",
            "+1",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "expected error for {bad:?}");
        }
        // Raw control char inside string.
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn large_integers_fall_back_to_float() {
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MAX));
        let v = parse("92233720368547758080").unwrap();
        assert!(matches!(v, JsonValue::Number(JsonNumber::Float(_))));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(
            parse(&deep).unwrap_err(),
            JsonError::TooDeep { limit: MAX_DEPTH }
        );
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_preserved_in_order() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(v.get("k").unwrap().as_i64(), Some(1));
    }

    /// The text after an escape is copied run by run: a long string with
    /// an escape near its start parses in time linear in its length (a
    /// walk that re-validated the rest of the input for every character
    /// took seconds here).
    #[test]
    fn escaped_long_string_parses_in_linear_time() {
        let body = "é-".repeat(32 * 1024);
        let doc = format!(r#"{{"s":"\n{body}\t","t":"\u00e9{body}"}}"#);
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), format!("\n{body}\t"));
        assert_eq!(v.get("t").unwrap().as_str().unwrap(), format!("é{body}"));
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse(" \t\r\n{ \"a\" : [ 1 , 2 ] }\n ").unwrap();
        assert_eq!(v.get("a").unwrap().len(), 2);
    }
}
