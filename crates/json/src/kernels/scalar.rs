//! The portable reference tier: the original byte-at-a-time state machine
//! from `StructuralIndex::build` pass 1, fused with structural-byte
//! collection. Every other tier must reproduce its output bit for bit.

use super::Bitmaps;

/// Fill `out`'s escapes and tokens with `INDEX`, else its interiors and
/// structurals (those two pre-zeroed, `bytes.len().div_ceil(64)` words
/// each), by walking the input one byte at a time.
pub(super) fn build_bitmaps<const INDEX: bool>(bytes: &[u8], out: &mut Bitmaps) {
    let mut inside = false;
    let mut escaped = false;
    // The byte before belongs to a run of other bytes.
    let mut in_run = false;
    for (i, &b) in bytes.iter().enumerate() {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let (mut token, mut escape, mut other) = (true, false, false);
        let (mut interior, mut structural) = (false, false);
        if inside {
            // The byte is interior unless it is the closing quote.
            if b == b'"' && !escaped {
                inside = false;
            } else {
                interior = true;
                (token, escape) = (false, b < 0x20 || b == b'\\');
            }
            escaped = b == b'\\' && !escaped;
        } else if b == b'"' {
            inside = true;
            escaped = false;
        } else if matches!(b, b'{' | b'}' | b'[' | b']' | b':') {
            structural = true;
        } else if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            token = false;
        } else if b != b',' {
            other = true;
            token = !in_run;
        }
        in_run = other;
        if INDEX {
            if token {
                out.tokens[w] |= bit;
            }
            if escape {
                out.escapes[w] |= bit;
            }
        } else {
            if interior {
                out.in_string[w] |= bit;
            }
            if structural {
                out.structural[w] |= bit;
            }
        }
    }
}
