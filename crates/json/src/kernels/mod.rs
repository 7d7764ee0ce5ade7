//! Vectorized structural kernels with runtime CPU dispatch.
//!
//! Everything that scans raw JSON bytes on the hot path funnels through
//! this module: structural-bitmap construction for the Mison index (and
//! therefore the tape parser and cache population, which build on it).
//! Three tiers implement that one primitive:
//!
//! * `scalar` — the original byte-at-a-time state machine; the portable
//!   reference whose semantics every other tier must reproduce bit for bit.
//! * `swar` — 64-bit SWAR: byte classification via the packed zero-byte
//!   trick, carry-propagated odd-backslash-run escape detection and a
//!   prefix-XOR string mask (à la simdjson, "Parsing Gigabytes of JSON per
//!   Second"), one 64-byte block per iteration.
//! * `avx2` — `std::arch` intrinsics (`_mm256_cmpeq_epi8` + movemask)
//!   doing the classification 32 bytes at a time, feeding the same
//!   word-level resolver as the SWAR tier.
//!
//! Dispatch is AVX2 where `is_x86_feature_detected!` reports it, else
//! SWAR; scalar runs only when pinned, as the reference the kernel tests
//! compare against. The active tier is detected once per process and
//! [`set_active`] pins another (clamped to what the CPU runs).
//! [`build_bitmaps_with`] drives a tier explicitly for differential tests
//! and benches.
//!
//! # Bit-identity across tiers
//!
//! The SWAR/SIMD tiers classify bytes into per-word backslash / quote /
//! structural masks and hand them to one shared word-sequential resolver
//! (`resolve_word`), so the only per-tier code is trivially verifiable
//! byte classification — the string-mask derivation is common by
//! construction. The resolver reproduces the scalar state machine exactly,
//! including on malformed input: globally "escaped" quotes *outside* a
//! string (e.g. `\"a"` at top level — impossible in well-formed JSON
//! because backslash runs cannot cross a string boundary) are promoted to
//! string-openers by a lowest-bit-first fix-up loop that runs zero
//! iterations on well-formed documents. See DESIGN.md §12 for the
//! equivalence argument.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;
mod swar;
pub(crate) use swar::has_control_or_backslash;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One structural-kernel tier. Ordered weakest to strongest. The ids are
/// stable (they are logged as `simd_kernel`); id 3 is retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Kernel {
    /// Byte-at-a-time reference state machine.
    Scalar = 1,
    /// 64-bit SWAR block kernel (portable).
    Swar = 2,
    /// AVX2 intrinsics (runtime-detected).
    Avx2 = 4,
}

impl Kernel {
    /// Stable lowercase name (`EXPLAIN ANALYZE`, the query log, STATS).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Numeric id for metrics plumbing (0 is reserved for "unset").
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Kernel::id`].
    pub fn from_id(id: u8) -> Option<Kernel> {
        match id {
            1 => Some(Kernel::Scalar),
            2 => Some(Kernel::Swar),
            4 => Some(Kernel::Avx2),
            _ => None,
        }
    }

    /// Can this tier run on the current CPU?
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Swar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
        }
    }
}

/// Every tier the current CPU can run, weakest first.
pub fn available() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Swar, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// The strongest tier the current CPU can run.
pub fn best_available() -> Kernel {
    *available().last().expect("scalar is always available")
}

/// Process-wide active kernel id; 0 = not yet detected.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The process-wide active kernel: the best available tier unless
/// [`set_active`] pinned another.
pub fn active() -> Kernel {
    match Kernel::from_id(ACTIVE.load(Ordering::Relaxed)) {
        Some(k) => k,
        None => {
            let k = best_available();
            ACTIVE.store(k.id(), Ordering::Relaxed);
            k
        }
    }
}

/// Install `kernel` as the process-wide active tier (clamped to what the
/// CPU supports); returns what was actually installed. Parsing happens in
/// shared code paths below any one session, so this is process-wide state,
/// not a session setting.
pub fn set_active(kernel: Kernel) -> Kernel {
    let k = if kernel.is_available() {
        kernel
    } else {
        best_available()
    };
    ACTIVE.store(k.id(), Ordering::Relaxed);
    k
}

/// Structural bitmaps over one record: one bit per input byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmaps {
    /// Bytes strictly inside string literals (between unescaped quotes;
    /// escaped quotes are interior, the delimiting quotes are not).
    pub in_string: Vec<u64>,
    /// Structural `{` `}` `[` `]` `:` bytes outside strings.
    pub structural: Vec<u64>,
}

/// Monotonic per-thread bitmap-build counters; snapshot-and-subtract to
/// charge a region (see `delta_since`). `nanos` is wall time inside
/// [`build_bitmaps_with`] only — classification + resolve, not the colon /
/// bracket walk layered on top.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Bitmap constructions (one per record indexed).
    pub builds: u64,
    /// Input bytes classified.
    pub bytes: u64,
    /// Wall nanoseconds spent building.
    pub nanos: u64,
}

impl BuildStats {
    /// Counter deltas accumulated since the `earlier` snapshot.
    pub fn delta_since(self, earlier: BuildStats) -> BuildStats {
        BuildStats {
            builds: self.builds - earlier.builds,
            bytes: self.bytes - earlier.bytes,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

thread_local! {
    static BUILD_STATS: Cell<BuildStats> = const {
        Cell::new(BuildStats { builds: 0, bytes: 0, nanos: 0 })
    };
}

/// Snapshot this thread's monotonic build counters.
pub fn thread_build_stats() -> BuildStats {
    BUILD_STATS.with(Cell::get)
}

/// Build structural bitmaps with the process-wide active kernel.
pub fn build_bitmaps(bytes: &[u8]) -> Bitmaps {
    build_bitmaps_with(active(), bytes)
}

/// Build structural bitmaps with an explicit tier (clamped to what the CPU
/// supports). All tiers produce bit-identical output for any byte string.
pub fn build_bitmaps_with(kernel: Kernel, bytes: &[u8]) -> Bitmaps {
    let mut out = Bitmaps::default();
    build_bitmaps_into(kernel, bytes, &mut out);
    out
}

/// [`build_bitmaps_with`] into caller-owned bitmaps, so a worker indexing
/// many records reuses two vectors instead of allocating two per record.
/// Whatever `out` held is overwritten.
pub fn build_bitmaps_into(kernel: Kernel, bytes: &[u8], out: &mut Bitmaps) {
    let kernel = if kernel.is_available() {
        kernel
    } else {
        best_available()
    };
    let t0 = std::time::Instant::now();
    let words = bytes.len().div_ceil(64);
    let Bitmaps {
        in_string,
        structural,
    } = out;
    for bitmap in [&mut *in_string, &mut *structural] {
        bitmap.clear();
        bitmap.resize(words, 0);
    }
    match kernel {
        Kernel::Scalar => scalar::build_bitmaps(bytes, in_string, structural),
        Kernel::Swar => swar::build_bitmaps(bytes, in_string, structural),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_available` above verified the feature via
        // `is_x86_feature_detected!` (unavailable tiers were clamped away).
        Kernel::Avx2 => unsafe { x86::build_bitmaps_avx2(bytes, in_string, structural) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("clamped to available tiers"),
    }
    BUILD_STATS.with(|c| {
        let mut s = c.get();
        s.builds += 1;
        s.bytes += bytes.len() as u64;
        s.nanos += t0.elapsed().as_nanos() as u64;
        c.set(s);
    });
}

const EVEN_BITS: u64 = 0x5555_5555_5555_5555;
const ODD_BITS: u64 = !EVEN_BITS;

/// Carry state threaded across 64-byte blocks by [`resolve_word`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Carry {
    /// 1 when the previous block ended in an odd-length backslash run.
    ends_odd_backslash: u64,
    /// 1 when the scalar state machine is inside a string entering the
    /// next block.
    inside: u64,
}

/// Prefix XOR: bit `i` of the result is the parity of bits `0..=i` of `x`.
/// The shift-XOR cascade is the carry-less-multiply-free form of
/// simdjson's quote-mask spread.
#[inline]
fn prefix_xor(x: u64) -> u64 {
    let mut x = x;
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// Resolve one 64-byte block of classification masks (`bs` backslashes,
/// `quote` quotes, `structural` raw `{}[]:` positions) into the
/// string-interior mask and the masked structural bits, reproducing the
/// scalar state machine exactly. Shared by every non-scalar tier.
#[inline]
pub(crate) fn resolve_word(bs: u64, quote: u64, structural: u64, carry: &mut Carry) -> (u64, u64) {
    // Escaped positions: characters preceded by an odd-length backslash
    // run, run parity carried across blocks (simdjson Fig. 3, "odd ends").
    let escaped = {
        let start_edges = bs & !(bs << 1);
        let even_start_mask = EVEN_BITS ^ carry.ends_odd_backslash;
        let even_starts = start_edges & even_start_mask;
        let odd_starts = start_edges & !even_start_mask;
        let even_carries = bs.wrapping_add(even_starts);
        let (odd_carries, ends_odd) = bs.overflowing_add(odd_starts);
        let odd_carries = odd_carries | carry.ends_odd_backslash;
        carry.ends_odd_backslash = ends_odd as u64;
        let even_carry_ends = even_carries & !bs;
        let odd_carry_ends = odd_carries & !bs;
        (even_carry_ends & ODD_BITS) | (odd_carry_ends & EVEN_BITS)
    };

    // Quotes that flip the in-string state. Every unescaped quote flips
    // (opener or closer). Escaped quotes agree with the scalar machine
    // inside strings (interior, no flip) because a backslash run can never
    // cross a string boundary; *outside* a string the scalar machine opens
    // unconditionally, so promote such quotes to flippers lowest-first.
    // Zero fix-up rounds on well-formed input, ≤ popcount(disputed) rounds
    // ever.
    let mut flips = quote & !escaped;
    let disputed = quote & escaped;
    let inside_all = 0u64.wrapping_sub(carry.inside);
    let mut interior = (prefix_xor(flips) ^ inside_all) & !flips;
    if disputed != 0 {
        loop {
            let misfits = disputed & !flips & !interior;
            if misfits == 0 {
                break;
            }
            flips |= misfits & misfits.wrapping_neg();
            interior = (prefix_xor(flips) ^ inside_all) & !flips;
        }
    }
    carry.inside ^= u64::from(flips.count_ones()) & 1;
    (interior, structural & !interior)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic PRNG (xorshift64*) for in-crate fuzzing; the
    /// cross-crate corpus fuzz lives in tests/kernel_differential.rs.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn assert_all_tiers_match(bytes: &[u8]) {
        let reference = build_bitmaps_with(Kernel::Scalar, bytes);
        for k in available() {
            let got = build_bitmaps_with(k, bytes);
            assert_eq!(
                got,
                reference,
                "tier {} diverged from scalar on {:?}",
                k.name(),
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn tiers_match_on_wellformed_documents() {
        for doc in [
            r#"{}"#,
            r#"{"a":1}"#,
            r#"{"k":"a,b:{c}"}"#,
            r#"{"we\"ird": "va\\l", "x": [1, {"y": null}], "z": "\\\""}"#,
            r#"[",",":","{","}","[","]","\\","\""]"#,
            "",
            " ",
            r#"{"empty":"","esc":"\u0041\n\t"}"#,
        ] {
            assert_all_tiers_match(doc.as_bytes());
        }
    }

    #[test]
    fn tiers_match_on_malformed_escape_abuse() {
        // Globally-escaped quotes outside strings: the fix-up path.
        for doc in [
            r#"\"a""#,
            r#"\""#,
            r#"\\\"ab\"x""#,
            r#"}\"{::\"["#,
            r#""unterminated \"#,
            r#"\\\\\\\""#,
            "\\\"\\\"\\\"",
            r#"{"a\"#,
        ] {
            assert_all_tiers_match(doc.as_bytes());
        }
    }

    #[test]
    fn tiers_match_on_block_boundaries() {
        // Backslash runs and quotes straddling 64-byte block boundaries.
        for pad in 56..72usize {
            for run in 0..6 {
                let mut s = " ".repeat(pad);
                s.push('"');
                s.push_str(&"x".repeat(8));
                s.push_str(&"\\".repeat(run));
                s.push('"');
                s.push_str(r#" : {"tail": [1]}"#);
                assert_all_tiers_match(s.as_bytes());
            }
        }
    }

    #[test]
    fn tiers_match_on_random_bytes() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let alphabet: &[u8] = br#""\{}[]:,ab 01"#;
        for round in 0..400 {
            let len = (rng.next() % 200) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                // Half the rounds draw from a hostile alphabet dense in
                // quotes/backslashes, half from arbitrary bytes.
                let b = if round % 2 == 0 {
                    alphabet[(rng.next() % alphabet.len() as u64) as usize]
                } else {
                    (rng.next() % 256) as u8
                };
                bytes.push(b);
            }
            assert_all_tiers_match(&bytes);
        }
    }

    #[test]
    fn id_round_trip() {
        for k in [Kernel::Scalar, Kernel::Swar, Kernel::Avx2] {
            assert_eq!(Kernel::from_id(k.id()), Some(k));
        }
        assert_eq!(Kernel::Avx2.id(), 4, "logged ids keep their meaning");
        assert_eq!(Kernel::from_id(0), None);
        assert_eq!(Kernel::from_id(3), None, "id 3 is retired");
    }

    #[test]
    fn set_active_clamps_to_available() {
        let prev = active();
        let got = set_active(Kernel::Avx2);
        assert!(got.is_available());
        assert_eq!(active(), got);
        set_active(prev);
    }

    #[test]
    fn build_stats_accumulate() {
        let before = thread_build_stats();
        build_bitmaps(br#"{"a":1}"#);
        let delta = thread_build_stats().delta_since(before);
        assert_eq!(delta.builds, 1);
        assert_eq!(delta.bytes, 7);
    }
}
