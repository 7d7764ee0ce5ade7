//! The 64-bit SWAR tier: classifies 64-byte blocks into bit masks with the
//! packed zero-byte trick (eight 8-byte words per block, no intrinsics),
//! then feeds the shared carry-propagated resolver. Portable to any 64-bit
//! target.

use super::{Bitmaps, Classes};

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Bit 7 set in each byte of `w` that equals `b`.
///
/// `x | ((x | HI) - LO)` has bit 7 of a byte clear iff that byte of `x` is
/// zero: pre-setting bit 7 makes every per-byte subtraction borrow-free, so
/// the test is exact for all byte values (the classic `(x - LO) & !x & HI`
/// form false-positives after a matching byte).
#[inline]
fn eq(w: u64, b: u8) -> u64 {
    let x = w ^ LO.wrapping_mul(u64::from(b));
    HI & !(x | (x | HI).wrapping_sub(LO))
}

/// 8-bit mask (in the low byte) of the bytes whose bit 7 `hits` sets: the
/// multiply gathers the eight bit-7s into the top byte (all partial
/// products hit distinct bit positions, so no carries).
#[inline]
fn gather(hits: u64) -> u64 {
    (hits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Classify one 64-byte block; commas, whitespace and the escape class
/// only with `INDEX`.
#[inline]
fn classify<const INDEX: bool>(block: &[u8; 64]) -> Classes {
    let mut c = Classes::default();
    for k in 0..8 {
        let w = u64::from_le_bytes(block[k * 8..k * 8 + 8].try_into().unwrap());
        let shift = k * 8;
        let bs = eq(w, b'\\');
        c.backslash |= gather(bs) << shift;
        c.quote |= gather(eq(w, b'"')) << shift;
        let st = eq(w, b'{') | eq(w, b'}') | eq(w, b'[') | eq(w, b']') | eq(w, b':');
        c.structural |= gather(st) << shift;
        if INDEX {
            c.comma |= gather(eq(w, b',')) << shift;
            let ws = eq(w, b' ') | eq(w, b'\t') | eq(w, b'\n') | eq(w, b'\r');
            c.whitespace |= gather(ws) << shift;
            // A byte below 0x20 is one whose top three bits are clear.
            c.escape |= gather(eq(w & (LO * 0xE0), 0) | bs) << shift;
        }
    }
    c
}

pub(super) fn build_bitmaps<const INDEX: bool>(bytes: &[u8], out: &mut Bitmaps) {
    super::resolve_blocks::<INDEX>(bytes, out, classify::<INDEX>);
}
