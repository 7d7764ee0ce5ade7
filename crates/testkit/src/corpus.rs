//! Adversarial JSON corpus generation for parser differential testing.
//!
//! The three parser classes in `maxson-json` (Jackson-style DOM, Mison
//! structural index, On-Demand tape) must agree byte-for-byte on every
//! document they all accept, and must all *reject* — with an error, never a
//! panic — every document outside the grammar. Hand-written fixtures cover
//! the shapes someone thought of; this module generates the rest from a
//! seed, so a differential failure is replayable from one printed number.
//!
//! Two tiers:
//!
//! * [`valid_docs`] — grammar-valid documents stressing the areas where
//!   parsers historically diverge: deep nesting, escape- and
//!   unicode-heavy strings, huge/tiny/subnormal numbers, integer-boundary
//!   values, duplicate keys (first-wins semantics), empty containers, and
//!   wide arrays. Every document is a top-level object with a stable `id`
//!   field plus a randomized feature mix keyed by [`query_paths`], so
//!   engine-level tests can issue selective queries that sometimes match
//!   and sometimes miss.
//! * [`invalid_docs`] — documents every conforming parser must reject:
//!   truncations, trailing garbage, bad escapes, lone surrogates, raw
//!   control characters, leading zeros, bare keywords, unbalanced
//!   brackets, and nesting beyond the depth limit.
//!
//! [`mutate_bytes`] turns any document into a byte-level fuzz case
//! (flips, insertions, deletions, truncation), for property tests that
//! assert "malformed input returns an error, never a panic";
//! [`mutate_byte_slice`] is the same step over binary input.
//!
//! This module deliberately does **not** depend on `maxson-json`: it
//! produces strings only, and the parser crates' own tests decide what the
//! strings mean. That keeps the dependency arrow pointing one way.

use crate::rng::{Rng, SliceRandom};

/// JSONPaths engine-level differential tests can query against
/// [`valid_docs`] output: each targets a field the generator sometimes
/// emits (so results mix hits and misses), plus one guaranteed miss.
pub fn query_paths() -> &'static [&'static str] {
    &[
        "$.id",
        "$.name",
        "$.num",
        "$.arr[0]",
        "$.arr[2]",
        "$.deep.x",
        "$.dup",
        "$.flag",
        "$.missing",
    ]
}

/// Generate `count` grammar-valid adversarial documents. Deterministic in
/// `seed`; document `i` always carries `"id": i` as its first field.
pub fn valid_docs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count).map(|i| valid_doc(&mut rng, i)).collect()
}

fn valid_doc(rng: &mut Rng, id: usize) -> String {
    let mut doc = format!("{{\"id\": {id}");
    // Independent coin flips per feature: docs differ in which query paths
    // hit, and most docs carry several adversarial shapes at once.
    if rng.gen_bool(0.7) {
        doc.push_str(&format!(", \"name\": {}", adversarial_string(rng)));
    }
    if rng.gen_bool(0.7) {
        doc.push_str(&format!(", \"num\": {}", adversarial_number(rng)));
    }
    if rng.gen_bool(0.6) {
        doc.push_str(&format!(", \"arr\": {}", adversarial_array(rng)));
    }
    if rng.gen_bool(0.6) {
        // `$.deep.x` stays at depth 2 while the sibling under "noise"
        // nests deeply — exactly the shape a skipping parser should hop.
        let x = rng.gen_range(-1000i64..1000);
        let depth = rng.gen_range(3usize..=40);
        doc.push_str(&format!(
            ", \"deep\": {{\"x\": {x}, \"noise\": {}}}",
            nested_value(rng, depth)
        ));
    }
    if rng.gen_bool(0.4) {
        // Duplicate key: first occurrence must win in every parser.
        let first = rng.gen_range(0i64..100);
        let second = first + 1000;
        doc.push_str(&format!(", \"dup\": {first}, \"dup\": {second}"));
    }
    if rng.gen_bool(0.5) {
        let lit = *["true", "false", "null"].choose(rng).unwrap();
        doc.push_str(&format!(", \"flag\": {lit}"));
    }
    if rng.gen_bool(0.4) {
        doc.push_str(", \"empty_obj\": {}, \"empty_arr\": []");
    }
    if rng.gen_bool(0.3) {
        // Unqueried bulk the lazy parser should never materialize.
        doc.push_str(&format!(", \"padding\": {}", adversarial_array(rng)));
    }
    doc.push('}');
    doc
}

/// A quoted JSON string exercising escapes, unicode, and length extremes.
fn adversarial_string(rng: &mut Rng) -> String {
    match rng.gen_range(0u32..6) {
        0 => "\"\"".to_string(),
        1 => {
            // Escape soup: every single-character escape the grammar has.
            let escapes = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
            let mut s = String::from("\"");
            for _ in 0..rng.gen_range(1usize..=8) {
                s.push_str(escapes.choose(rng).unwrap());
                s.push(char::from(rng.gen_range(b'a'..=b'z')));
            }
            s.push('"');
            s
        }
        2 => {
            // \u escapes incl. a surrogate pair (🂡) and NUL.
            let units = ["\\u0041", "\\u00e9", "\\u2603", "\\u0000", "\\uD83C\\uDCA1"];
            let mut s = String::from("\"");
            for _ in 0..rng.gen_range(1usize..=5) {
                s.push_str(units.choose(rng).unwrap());
            }
            s.push('"');
            s
        }
        3 => {
            // Raw multi-byte UTF-8 straddling SWAR word boundaries.
            let runes = ["é", "☃", "日本語", "🂡", "ß"];
            let mut s = String::from("\"");
            for _ in 0..rng.gen_range(1usize..=12) {
                s.push_str(runes.choose(rng).unwrap());
            }
            s.push('"');
            s
        }
        4 => {
            // Long plain string crossing several 64-byte index words.
            let len = rng.gen_range(64usize..=256);
            let mut s = String::with_capacity(len + 2);
            s.push('"');
            for _ in 0..len {
                s.push(char::from(rng.gen_range(b' '..=b'~').clamp(b' ', b'~')));
            }
            // The printable range includes '"' and '\\'; neuter them.
            let inner: String = s[1..]
                .chars()
                .map(|c| if c == '"' || c == '\\' { 'x' } else { c })
                .collect();
            format!("\"{inner}\"")
        }
        _ => {
            // A string that *looks* like structure: braces, colons, commas.
            "\"{\\\"fake\\\": [1, 2], \\\"t\\\": true}\"".to_string()
        }
    }
}

/// A number exercising magnitude, precision, and representation edges.
fn adversarial_number(rng: &mut Rng) -> String {
    let fixed = [
        "0",
        "-0",
        "0.0",
        "-0.0",
        "9223372036854775807",  // i64::MAX
        "-9223372036854775808", // i64::MIN
        "9223372036854775808",  // i64::MAX + 1 → f64
        "-9223372036854775809", // i64::MIN - 1 → f64
        "1e308",                // near f64::MAX
        "-1e308",
        "5e-324",                  // smallest subnormal
        "2.2250738585072014e-308", // smallest normal
        "1e400",                   // overflows to inf-territory input text
        "1E+10",
        "2e-3",
        "0.1",
        "3.141592653589793",
        "123456789.123456789",
    ];
    match rng.gen_range(0u32..4) {
        0 => fixed.choose(rng).unwrap().to_string(),
        1 => format!("{}", rng.gen_range(i64::MIN..=i64::MAX)),
        2 => format!(
            "{}.{}",
            rng.gen_range(-1000i64..1000),
            rng.gen_range(0u32..u32::MAX)
        ),
        _ => format!(
            "{}{}e{}{}",
            if rng.gen_bool(0.5) { "-" } else { "" },
            rng.gen_range(1u64..10_000),
            if rng.gen_bool(0.5) { "+" } else { "-" },
            rng.gen_range(0u32..30)
        ),
    }
}

/// An array mixing scalars, nested containers, and empties.
fn adversarial_array(rng: &mut Rng) -> String {
    let n = rng.gen_range(0usize..=8);
    let items: Vec<String> = (0..n)
        .map(|_| match rng.gen_range(0u32..5) {
            0 => adversarial_number(rng),
            1 => adversarial_string(rng),
            2 => (*["true", "false", "null"].choose(rng).unwrap()).to_string(),
            3 => format!("[{}]", rng.gen_range(0i64..100)),
            _ => format!("{{\"k\": {}}}", rng.gen_range(0i64..100)),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// A value nested `depth` levels deep, alternating objects and arrays.
fn nested_value(rng: &mut Rng, depth: usize) -> String {
    let mut s = String::new();
    let mut closers = String::new();
    for level in 0..depth {
        if level % 2 == 0 {
            s.push_str("{\"n\": ");
            closers.insert(0, '}');
        } else {
            s.push('[');
            closers.insert(0, ']');
        }
    }
    s.push_str(&format!("{}", rng.gen_range(0i64..100)));
    s.push_str(&closers);
    s
}

/// Generate `count` documents that every parser must reject with an error
/// (never a panic). Deterministic in `seed`. Covers truncation, trailing
/// garbage, escape and literal malformations, structural imbalance, and
/// nesting past the depth limit.
pub fn invalid_docs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1BAD_D0C5);
    (0..count).map(|i| invalid_doc(&mut rng, i)).collect()
}

fn invalid_doc(rng: &mut Rng, i: usize) -> String {
    match rng.gen_range(0u32..12) {
        0 => {
            // Truncate a valid doc at a random byte (≥1 so it's non-empty
            // garbage, < len so it's actually cut).
            let doc = valid_doc(rng, i);
            let cut = rng.gen_range(1usize..doc.len());
            let mut bytes = doc.into_bytes();
            bytes.truncate(cut);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            // Trailing garbage after a complete document.
            let doc = valid_doc(rng, i);
            let tail = ["x", "}", "]", ", 1", " {\"b\": 2}", "\u{0}", "tru"];
            format!("{doc}{}", tail.choose(rng).unwrap())
        }
        2 => format!("{{\"a\": 0{}}}", rng.gen_range(10u32..100)), // leading zero
        3 => {
            let bad = ["tru", "fals", "nul", "truee", "nan", "inf", "None"];
            format!("{{\"a\": {}}}", bad.choose(rng).unwrap())
        }
        4 => format!("{{\"a\": \"unterminated {i}"),
        5 => format!("{{\"a\": \"bad \\q escape {i}\"}}"),
        6 => format!("{{\"a\": \"lone \\uD800 surrogate {i}\"}}"),
        7 => format!("{{\"a\": \"ctrl \u{1} char {i}\"}}"),
        8 => {
            // Nesting beyond MAX_DEPTH (128).
            let depth = rng.gen_range(130usize..=200);
            format!("{}{}{}", "[".repeat(depth), i, "]".repeat(depth))
        }
        9 => {
            let bad = [
                "{\"a\": 1,}",
                "{\"a\" 1}",
                "{\"a\": }",
                "{,}",
                "[1,,2]",
                "[1 2]",
                "{\"a\": 1",
                "[1, 2",
                "}",
                "]",
                "{\"a\": 1]",
                "[1, 2}",
            ];
            (*bad.choose(rng).unwrap()).to_string()
        }
        10 => {
            let ws = ["", " ", "\t\n", "  \r\n  "];
            (*ws.choose(rng).unwrap()).to_string()
        }
        _ => format!("{{\"a\": .5, \"b\": {i}}}"), // bare leading dot
    }
}

/// Apply 1–4 random byte-level mutations (flip, insert, delete, truncate,
/// splice) to `bytes`: the fuzz step for binary inputs (encoded Norc
/// chunks), and what [`mutate_bytes`] does to a document's bytes.
pub fn mutate_byte_slice(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for _ in 0..rng.gen_range(1usize..=4) {
        if bytes.is_empty() {
            bytes.push(rng.gen_range(0u8..=255));
            continue;
        }
        let pos = rng.gen_range(0usize..bytes.len());
        match rng.gen_range(0u32..5) {
            0 => bytes[pos] = rng.gen_range(0u8..=255),
            1 => bytes.insert(pos, rng.gen_range(0u8..=255)),
            2 => {
                bytes.remove(pos);
            }
            3 => bytes.truncate(pos),
            _ => {
                // Splice a short window from elsewhere in the input.
                let src = rng.gen_range(0usize..bytes.len());
                let len = rng.gen_range(1usize..=8).min(bytes.len() - src);
                let window: Vec<u8> = bytes[src..src + len].to_vec();
                let at = pos.min(bytes.len());
                bytes.splice(at..at, window);
            }
        }
    }
    bytes
}

/// [`mutate_byte_slice`] over `doc`, returning the result re-interpreted as
/// UTF-8 (lossy, so parsers always receive a `&str` — invalid sequences
/// become U+FFFD). The output may still be valid JSON; callers asserting
/// rejection should pair it with a parse check, and callers asserting "no
/// panic" need nothing else.
pub fn mutate_bytes(doc: &str, rng: &mut Rng) -> String {
    String::from_utf8_lossy(&mutate_byte_slice(doc.as_bytes(), rng)).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_in_seed() {
        assert_eq!(valid_docs(42, 50), valid_docs(42, 50));
        assert_eq!(invalid_docs(42, 50), invalid_docs(42, 50));
        assert_ne!(valid_docs(42, 50), valid_docs(43, 50));
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let doc = &valid_docs(1, 1)[0];
        assert_eq!(mutate_bytes(doc, &mut a), mutate_bytes(doc, &mut b));
    }

    #[test]
    fn valid_docs_have_stable_ids_and_adversarial_features() {
        let docs = valid_docs(7, 200);
        assert_eq!(docs.len(), 200);
        for (i, d) in docs.iter().enumerate() {
            assert!(
                d.starts_with(&format!("{{\"id\": {i}")),
                "doc {i} starts with its id: {d}"
            );
            assert!(d.ends_with('}'));
        }
        // Feature coverage: over 200 docs every generator arm fires.
        let all = docs.join("\n");
        for needle in [
            "\\u",      // unicode escapes
            "\\n",      // simple escapes
            "\"dup\":", // duplicate keys
            "\"empty_obj\": {}",
            "\"deep\":",
            "5e-324", // only from the fixed adversarial-number pool
            "☃",
        ] {
            assert!(all.contains(needle), "corpus never produced {needle:?}");
        }
        // Deep nesting actually nests: some doc has a long bracket run.
        assert!(
            docs.iter().any(|d| d.contains("{\"n\": [{\"n\": ")),
            "nested_value alternation missing"
        );
    }

    #[test]
    fn duplicate_keys_keep_distinct_values() {
        // The first-wins regression needs first != second occurrence.
        let docs = valid_docs(11, 100);
        let with_dup: Vec<&String> = docs.iter().filter(|d| d.contains("\"dup\":")).collect();
        assert!(!with_dup.is_empty());
        for d in with_dup {
            let count = d.matches("\"dup\":").count();
            assert_eq!(count, 2, "dup key appears exactly twice in {d}");
        }
    }

    #[test]
    fn invalid_docs_cover_the_rejection_classes() {
        let docs = invalid_docs(3, 300);
        assert_eq!(docs.len(), 300);
        let has = |f: &dyn Fn(&str) -> bool| docs.iter().any(|d| f(d));
        assert!(has(&|d| d.contains("\\q")), "bad escape");
        assert!(has(&|d| d.contains("\\uD800")), "lone surrogate");
        assert!(has(&|d| d.starts_with("[[[[")), "deep nesting");
        assert!(has(&|d| d.trim().is_empty()), "empty/whitespace");
        assert!(has(&|d| d.contains(": 0")
            && !d.contains(": 0}")
            && d.chars().filter(|c| c.is_ascii_digit()).count() > 2));
    }

    #[test]
    fn mutate_bytes_always_yields_utf8_and_often_changes_input() {
        let mut rng = Rng::seed_from_u64(5);
        let docs = valid_docs(9, 20);
        let mut changed = 0;
        for d in &docs {
            for _ in 0..10 {
                let m = mutate_bytes(d, &mut rng);
                // from_utf8_lossy guarantees valid UTF-8; assert it anyway.
                assert!(std::str::from_utf8(m.as_bytes()).is_ok());
                if &m != d {
                    changed += 1;
                }
            }
        }
        assert!(changed > 150, "mutations mostly change the doc: {changed}");
    }
}
