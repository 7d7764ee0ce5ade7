//! The 64-bit SWAR tier: classifies 64-byte blocks into bit masks with the
//! packed zero-byte trick (eight 8-byte words per block, no intrinsics),
//! then feeds the shared carry-propagated resolver. Portable to any 64-bit
//! target.

use super::Carry;

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// 8-bit mask (in the low byte) of which bytes of `w` equal `b`.
///
/// `x | ((x | HI) - LO)` has bit 7 of a byte clear iff that byte of `x` is
/// zero: pre-setting bit 7 makes every per-byte subtraction borrow-free, so
/// the test is exact for all byte values (the classic `(x - LO) & !x & HI`
/// form false-positives after a matching byte). The multiply then gathers
/// the eight bit-7s into the top byte (all partial products hit distinct
/// bit positions, so no carries).
#[inline]
fn eq_mask(w: u64, b: u8) -> u64 {
    let x = w ^ LO.wrapping_mul(u64::from(b));
    let zero = HI & !(x | (x | HI).wrapping_sub(LO));
    (zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// `true` when any of the eight bytes of `w` is below 0x20 or a backslash
/// — the only bytes of a JSON string body the grammar has something to say
/// about, so the tape builder validates a clean word without looking at its
/// bytes. Both halves are the exact "has a byte less than n" / "has a zero
/// byte" word tests: as *any*-tests they have no false positives (the
/// borrow that makes [`eq_mask`] take the long way only smears a true hit
/// upwards), and bytes ≥ 0x80, UTF-8 continuation included, never trip.
#[inline]
pub(crate) fn has_control_or_backslash(w: u64) -> bool {
    let control = w.wrapping_sub(LO * 0x20) & !w;
    let x = w ^ (LO * b'\\' as u64);
    let backslash = x.wrapping_sub(LO) & !x;
    (control | backslash) & HI != 0
}

/// Classify one 64-byte block into (backslash, quote, structural) masks.
#[inline]
fn classify(block: &[u8; 64]) -> (u64, u64, u64) {
    let mut bs = 0u64;
    let mut qt = 0u64;
    let mut st = 0u64;
    for k in 0..8 {
        let w = u64::from_le_bytes(block[k * 8..k * 8 + 8].try_into().unwrap());
        bs |= eq_mask(w, b'\\') << (k * 8);
        qt |= eq_mask(w, b'"') << (k * 8);
        st |= (eq_mask(w, b'{')
            | eq_mask(w, b'}')
            | eq_mask(w, b'[')
            | eq_mask(w, b']')
            | eq_mask(w, b':'))
            << (k * 8);
    }
    (bs, qt, st)
}

pub(super) fn build_bitmaps(bytes: &[u8], in_string: &mut [u64], structural: &mut [u64]) {
    let mut carry = Carry::default();
    let mut chunks = bytes.chunks_exact(64);
    let mut w = 0usize;
    for block in &mut chunks {
        let (bs, qt, st) = classify(block.try_into().unwrap());
        let (ins, st_out) = super::resolve_word(bs, qt, st, &mut carry);
        in_string[w] = ins;
        structural[w] = st_out;
        w += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // Zero-pad the tail block: NUL matches no class, and resolver bits
        // past the input (an unterminated string) are masked off.
        let mut buf = [0u8; 64];
        buf[..rem.len()].copy_from_slice(rem);
        let (bs, qt, st) = classify(&buf);
        let (ins, st_out) = super::resolve_word(bs, qt, st, &mut carry);
        let mask = (1u64 << rem.len()) - 1;
        in_string[w] = ins & mask;
        structural[w] = st_out & mask;
    }
}
