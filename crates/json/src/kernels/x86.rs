//! The AVX2 tier: `std::arch` byte-equality classification (`cmpeq` +
//! `movemask`, 32 bytes per instruction) feeding the same shared word
//! resolver as the SWAR tier. Compiled only on x86-64; callers verify
//! feature presence with `is_x86_feature_detected!` before entering.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::{Bitmaps, Classes};

/// The compared byte values, broadcast once per build.
struct Needles256 {
    bs: __m256i,
    qt: __m256i,
    ob: __m256i,
    cb: __m256i,
    os: __m256i,
    cs: __m256i,
    co: __m256i,
    cm: __m256i,
    /// Space, tab, LF and CR at their low nibbles, -1 elsewhere.
    ws: __m256i,
    /// 0x1F: a byte is below 0x20 when `max(byte, 0x1F)` is 0x1F.
    ctl: __m256i,
}

#[target_feature(enable = "avx2")]
unsafe fn needles256() -> Needles256 {
    Needles256 {
        bs: _mm256_set1_epi8(b'\\' as i8),
        qt: _mm256_set1_epi8(b'"' as i8),
        ob: _mm256_set1_epi8(b'{' as i8),
        cb: _mm256_set1_epi8(b'}' as i8),
        os: _mm256_set1_epi8(b'[' as i8),
        cs: _mm256_set1_epi8(b']' as i8),
        co: _mm256_set1_epi8(b':' as i8),
        cm: _mm256_set1_epi8(b',' as i8),
        ws: _mm256_setr_epi8(
            0x20, -1, -1, -1, -1, -1, -1, -1, -1, 0x09, 0x0A, -1, -1, 0x0D, -1, -1, //
            0x20, -1, -1, -1, -1, -1, -1, -1, -1, 0x09, 0x0A, -1, -1, 0x0D, -1, -1,
        ),
        ctl: _mm256_set1_epi8(0x1F),
    }
}

/// Classify one 64-byte block (2 × 32) at `ptr`; commas, whitespace and
/// the escape class only with `INDEX`.
#[target_feature(enable = "avx2")]
unsafe fn classify_avx2<const INDEX: bool>(ptr: *const u8, n: &Needles256) -> Classes {
    let mut c = Classes::default();
    for k in 0..2 {
        let v = _mm256_loadu_si256(ptr.add(k * 32).cast());
        // movemask returns i32 with bit 31 live: go through u32 to avoid
        // sign extension smearing the high half.
        let m = |x: __m256i| u64::from(_mm256_movemask_epi8(x) as u32) << (k * 32);
        let bs = _mm256_cmpeq_epi8(v, n.bs);
        c.backslash |= m(bs);
        c.quote |= m(_mm256_cmpeq_epi8(v, n.qt));
        let s = _mm256_or_si256(
            _mm256_or_si256(_mm256_cmpeq_epi8(v, n.ob), _mm256_cmpeq_epi8(v, n.cb)),
            _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(v, n.os), _mm256_cmpeq_epi8(v, n.cs)),
                _mm256_cmpeq_epi8(v, n.co),
            ),
        );
        c.structural |= m(s);
        if INDEX {
            c.comma |= m(_mm256_cmpeq_epi8(v, n.cm));
            // Each whitespace byte has its own low nibble: it is whitespace
            // when the table's entry at its low nibble is the byte itself
            // (a byte ≥ 0x80 looks up 0).
            c.whitespace |= m(_mm256_cmpeq_epi8(_mm256_shuffle_epi8(n.ws, v), v));
            let ctl = _mm256_cmpeq_epi8(_mm256_max_epu8(v, n.ctl), n.ctl);
            c.escape |= m(_mm256_or_si256(ctl, bs));
        }
    }
    // Opaque to LLVM from here on: it otherwise rewrites the resolver's
    // word arithmetic over these masks into per-bit vector inserts
    // (`vpinsrb` chains), which made the build 2-3x slower. The asm emits
    // no instruction and touches nothing but the register it is handed.
    for mask in [
        &mut c.backslash,
        &mut c.quote,
        &mut c.structural,
        &mut c.comma,
        &mut c.whitespace,
        &mut c.escape,
    ] {
        std::arch::asm!(
            "/* {0} */",
            inout(reg) * mask,
            options(pure, nomem, nostack)
        );
    }
    c
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn build_bitmaps_avx2<const INDEX: bool>(bytes: &[u8], out: &mut Bitmaps) {
    let n = needles256();
    // SAFETY: the caller verified AVX2; `block` is 64 readable bytes.
    super::resolve_blocks::<INDEX>(bytes, out, |block| unsafe {
        classify_avx2::<INDEX>(block.as_ptr(), &n)
    });
}
