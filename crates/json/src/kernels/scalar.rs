//! The portable reference tier: the original byte-at-a-time state machine
//! from `StructuralIndex::build` pass 1, fused with structural-byte
//! collection. Every other tier must reproduce its output bit for bit.

/// Fill `in_string` / `structural` (pre-zeroed, `bytes.len().div_ceil(64)`
/// words each) by walking the input one byte at a time.
pub(super) fn build_bitmaps(bytes: &[u8], in_string: &mut [u64], structural: &mut [u64]) {
    let mut inside = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if inside {
            // The byte is interior unless it is the closing quote.
            if b == b'"' && !escaped {
                inside = false;
            } else {
                in_string[i / 64] |= 1u64 << (i % 64);
            }
            escaped = b == b'\\' && !escaped;
        } else if b == b'"' {
            inside = true;
            escaped = false;
        } else if matches!(b, b'{' | b'}' | b'[' | b']' | b':') {
            structural[i / 64] |= 1u64 << (i % 64);
        }
    }
}
