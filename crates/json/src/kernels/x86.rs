//! The AVX2 tier: `std::arch` byte-equality classification (`cmpeq` +
//! `movemask`, 32 bytes per instruction) feeding the same shared word
//! resolver as the SWAR tier. Compiled only on x86-64; callers verify
//! feature presence with `is_x86_feature_detected!` before entering.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::Carry;

/// The seven compared byte values, broadcast once per build.
struct Needles256 {
    bs: __m256i,
    qt: __m256i,
    ob: __m256i,
    cb: __m256i,
    os: __m256i,
    cs: __m256i,
    co: __m256i,
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
    }
}

/// Classify one 64-byte block (2 × 32) at `ptr`.
#[target_feature(enable = "avx2")]
unsafe fn classify_avx2(ptr: *const u8, n: &Needles256) -> (u64, u64, u64) {
    let mut bs = 0u64;
    let mut qt = 0u64;
    let mut st = 0u64;
    for k in 0..2 {
        let v = _mm256_loadu_si256(ptr.add(k * 32).cast());
        // movemask returns i32 with bit 31 live: go through u32 to avoid
        // sign extension smearing the high half.
        let m = |x: __m256i| u64::from(_mm256_movemask_epi8(x) as u32) << (k * 32);
        bs |= m(_mm256_cmpeq_epi8(v, n.bs));
        qt |= m(_mm256_cmpeq_epi8(v, n.qt));
        let s = _mm256_or_si256(
            _mm256_or_si256(_mm256_cmpeq_epi8(v, n.ob), _mm256_cmpeq_epi8(v, n.cb)),
            _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(v, n.os), _mm256_cmpeq_epi8(v, n.cs)),
                _mm256_cmpeq_epi8(v, n.co),
            ),
        );
        st |= m(s);
    }
    (bs, qt, st)
}

#[target_feature(enable = "avx2")]
pub(super) unsafe fn build_bitmaps_avx2(
    bytes: &[u8],
    in_string: &mut [u64],
    structural: &mut [u64],
) {
    let n = needles256();
    let mut carry = Carry::default();
    let full = bytes.len() / 64;
    for w in 0..full {
        let (bs, qt, st) = classify_avx2(bytes.as_ptr().add(w * 64), &n);
        let (ins, st_out) = super::resolve_word(bs, qt, st, &mut carry);
        in_string[w] = ins;
        structural[w] = st_out;
    }
    let rem = &bytes[full * 64..];
    if !rem.is_empty() {
        let mut buf = [0u8; 64];
        buf[..rem.len()].copy_from_slice(rem);
        let (bs, qt, st) = classify_avx2(buf.as_ptr(), &n);
        let (ins, st_out) = super::resolve_word(bs, qt, st, &mut carry);
        let mask = (1u64 << rem.len()) - 1;
        in_string[full] = ins & mask;
        structural[full] = st_out & mask;
    }
}
