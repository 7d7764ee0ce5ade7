//! Vectorized structural kernels with runtime CPU dispatch: stage 1 of
//! both bitmap-indexed parsers.
//!
//! Everything that scans raw JSON bytes on the hot path funnels through
//! this module. A build yields two of four bitmaps, one bit per input byte
//! ([`Bitmaps`]), the two its consumer reads: [`build_structural_with`]
//! the string interiors and the `{}[]:` structurals outside strings, from
//! which the Mison index derives its leveled colons; [`build_bitmaps_into`]
//! the token index and the in-string escape bytes, which the projection
//! walk ([`crate::tape`]) moves along instead of reading bytes. Three tiers
//! implement both builds:
//!
//! * `scalar` — a byte-at-a-time state machine; the portable reference
//!   whose output every other tier must reproduce bit for bit.
//! * `swar` — 64-bit SWAR: byte classification via the packed zero-byte
//!   trick, one 64-byte block per iteration.
//! * `avx2` — `std::arch` intrinsics (`cmpeq` / `max` / `shuffle` +
//!   movemask) doing the classification 32 bytes at a time.
//!
//! Dispatch is AVX2 where `is_x86_feature_detected!` reports it, else
//! SWAR; scalar runs only when pinned, as the reference the kernel tests
//! compare against. The active tier is detected once per process and
//! [`set_active`] pins another (clamped to what the CPU runs). Both builds
//! take the tier explicitly, so differential tests and benches drive each
//! one.
//!
//! # Bit-identity across tiers
//!
//! The SWAR/SIMD tiers only classify each 64-byte block's bytes (backslash,
//! quote, structural, comma, whitespace, escape class: `Classes`) and
//! hand the masks to one shared word-sequential resolver
//! (`resolve_word`), so the only per-tier code is trivially verifiable
//! byte classification — the string mask, carry-propagated odd-backslash
//! runs and a prefix-XOR (à la simdjson, "Parsing Gigabytes of JSON per
//! Second"), and the token index derived from it are common by
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

/// Structural bitmaps over one record: one bit per input byte. A build
/// fills one pair and leaves the other empty: [`build_structural_with`]
/// `in_string` and `structural`, [`build_bitmaps_into`] `escapes` and
/// `tokens`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmaps {
    /// Bytes strictly inside string literals (between unescaped quotes;
    /// escaped quotes are interior, the delimiting quotes are not).
    pub in_string: Vec<u64>,
    /// Structural `{` `}` `[` `]` `:` bytes outside strings.
    pub structural: Vec<u64>,
    /// Bytes inside strings that are below 0x20 or a backslash: the only
    /// bytes of a string body the grammar has something to say about.
    pub escapes: Vec<u64>,
    /// Where a token starts: every `{` `}` `[` `]` `:` `,` and every
    /// string-delimiting quote (opening and closing) outside strings, and
    /// the first byte of every run of other bytes (a scalar, or garbage)
    /// outside strings, a run being ended by whitespace or by one of the
    /// former. What lies between two such positions is whitespace, a
    /// string's body, or the rest of a scalar's run.
    pub tokens: Vec<u64>,
}

/// Monotonic per-thread bitmap-build counters; snapshot-and-subtract to
/// charge a region (see `delta_since`). `nanos` is wall time inside the
/// builds only — classification + resolve, not the colon / bracket walk
/// or the projection walk layered on top.
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

/// Build what the projection walk reads, the escape bitmap and the token
/// index, with an explicit tier (clamped to what the CPU supports), into
/// caller-owned bitmaps, so a worker indexing many records reuses two
/// vectors instead of allocating two per record. Whatever `out` held is
/// overwritten; `in_string` and `structural` are left empty. All tiers
/// produce bit-identical output for any byte string.
pub fn build_bitmaps_into(kernel: Kernel, bytes: &[u8], out: &mut Bitmaps) {
    build::<true>(kernel, bytes, out);
}

/// Build what the Mison index reads, string interiors and structurals,
/// with an explicit tier; `escapes` and `tokens` stay empty, and the
/// classification only they need is not paid for. All tiers produce
/// bit-identical output for any byte string.
pub fn build_structural_with(kernel: Kernel, bytes: &[u8]) -> Bitmaps {
    let mut out = Bitmaps::default();
    build::<false>(kernel, bytes, &mut out);
    out
}

/// Fill `out`'s escape and token bitmaps with `INDEX`, else its
/// string-interior and structural bitmaps, and empty the other pair.
fn build<const INDEX: bool>(kernel: Kernel, bytes: &[u8], out: &mut Bitmaps) {
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
        escapes,
        tokens,
    } = out;
    let (filled, emptied) = match INDEX {
        true => ([escapes, tokens], [in_string, structural]),
        false => ([in_string, structural], [escapes, tokens]),
    };
    for bitmap in filled {
        bitmap.clear();
        bitmap.resize(words, 0);
    }
    for bitmap in emptied {
        bitmap.clear();
    }
    match kernel {
        Kernel::Scalar => scalar::build_bitmaps::<INDEX>(bytes, out),
        Kernel::Swar => swar::build_bitmaps::<INDEX>(bytes, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_available` above verified the feature via
        // `is_x86_feature_detected!` (unavailable tiers were clamped away).
        Kernel::Avx2 => unsafe { x86::build_bitmaps_avx2::<INDEX>(bytes, out) },
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

/// One 64-byte block's byte classes, one bit per byte: all a non-scalar
/// tier computes itself.
#[derive(Debug, Default, Clone, Copy)]
struct Classes {
    backslash: u64,
    quote: u64,
    /// `{` `}` `[` `]` `:`.
    structural: u64,
    comma: u64,
    /// Space, tab, LF, CR: what the grammar skips between tokens.
    whitespace: u64,
    /// Bytes below 0x20 and backslashes.
    escape: u64,
}

/// Carry state threaded across 64-byte blocks by [`resolve_word`].
#[derive(Debug, Default, Clone, Copy)]
struct Carry {
    /// 1 when the previous block ended in an odd-length backslash run.
    ends_odd_backslash: u64,
    /// 1 when the scalar state machine is inside a string entering the
    /// next block.
    inside: u64,
    /// 1 when the previous block's last byte belongs to a run of other
    /// bytes (see [`Bitmaps::tokens`]).
    in_run: u64,
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

/// Resolve block `w`'s byte classes into its words of `out` (escapes and
/// tokens with `INDEX`, else interiors and structurals), reproducing the
/// scalar state machine exactly; bits outside `valid` (past the input) are
/// cleared. Shared by every non-scalar tier.
#[inline(always)]
fn resolve_word<const INDEX: bool>(
    c: Classes,
    carry: &mut Carry,
    out: &mut Bitmaps,
    w: usize,
    valid: u64,
) {
    let (bs, quote) = (c.backslash, c.quote);
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

    if !INDEX {
        out.in_string[w] = interior & valid;
        out.structural[w] = c.structural & !interior & valid;
    } else {
        // A quote that is not interior delimits a string. A run of other
        // bytes starts where the byte before is not one of them.
        let delimiters = c.structural | c.comma | quote;
        let other = !(interior | delimiters | c.whitespace);
        let run_starts = other & !(other << 1 | carry.in_run);
        carry.in_run = other >> 63;
        out.escapes[w] = c.escape & interior & valid;
        out.tokens[w] = (delimiters & !interior | run_starts) & valid;
    }
}

/// Resolve every block of `bytes`, each classified by `classify` (handed
/// 64 bytes; the tail block is zero-padded, and a NUL pad byte's bits are
/// cleared with the rest past the input).
#[inline(always)]
fn resolve_blocks<const INDEX: bool>(
    bytes: &[u8],
    out: &mut Bitmaps,
    mut classify: impl FnMut(&[u8; 64]) -> Classes,
) {
    let mut carry = Carry::default();
    let mut chunks = bytes.chunks_exact(64);
    for (w, block) in (&mut chunks).enumerate() {
        let c = classify(block.try_into().expect("64-byte chunk"));
        resolve_word::<INDEX>(c, &mut carry, out, w, u64::MAX);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 64];
        buf[..rem.len()].copy_from_slice(rem);
        let valid = (1u64 << rem.len()) - 1;
        resolve_word::<INDEX>(classify(&buf), &mut carry, out, bytes.len() / 64, valid);
    }
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

    /// The escape bitmap and token index tier `k` builds over `bytes`.
    fn index(k: Kernel, bytes: &[u8]) -> Bitmaps {
        let mut out = Bitmaps::default();
        build_bitmaps_into(k, bytes, &mut out);
        out
    }

    /// Every tier builds the scalar tier's bitmaps in both modes, each mode
    /// fills its own pair only, and a reused `Bitmaps` keeps nothing of
    /// the other mode's build.
    fn assert_all_tiers_match(bytes: &[u8]) {
        let words = bytes.len().div_ceil(64);
        let structural = build_structural_with(Kernel::Scalar, bytes);
        let tokens = index(Kernel::Scalar, bytes);
        assert_eq!(
            [structural.in_string.len(), structural.structural.len()],
            [words; 2]
        );
        assert!(structural.escapes.is_empty() && structural.tokens.is_empty());
        assert_eq!([tokens.escapes.len(), tokens.tokens.len()], [words; 2]);
        assert!(tokens.in_string.is_empty() && tokens.structural.is_empty());
        for k in available() {
            let doc = String::from_utf8_lossy(bytes);
            let got = build_structural_with(k, bytes);
            assert_eq!(got, structural, "{} diverged on {doc:?}", k.name());
            let mut reused = got;
            build_bitmaps_into(k, bytes, &mut reused);
            assert_eq!(reused, tokens, "{} index diverged on {doc:?}", k.name());
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
    fn tiers_match_on_every_byte_value() {
        // Each byte value outside a string, inside one, after a backslash,
        // beside whitespace and inside a scalar's run.
        let all: Vec<u8> = (0..=255u8).collect();
        let mut doc = all.clone();
        for &b in &all {
            doc.extend_from_slice(&[b'"', b, b'\\', b, b'"', b' ', b, b'1', b, b',']);
        }
        assert_all_tiers_match(&doc);
        for b in all {
            assert_all_tiers_match(&[b]);
            assert_all_tiers_match(&[b'"', b, b'"', b]);
        }
    }

    /// Bit `i` set for each `i` of `at`, over `len` bytes.
    fn bits(len: usize, at: &[usize]) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for &i in at {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    #[test]
    fn token_index_and_escapes_mark_what_the_walk_reads() {
        // 0         1         2         3
        // 012345678901234567890123456789012
        // {"a\"b": [true ,-1.5e3],"k":"x?"}    (? is byte 0x01)
        let doc = "{\"a\\\"b\": [true ,-1.5e3],\"k\":\"x\u{1}\"}";
        let b = index(Kernel::Scalar, doc.as_bytes());
        // Quotes at 1 and 6 (the one at 4 is escaped), `:` at 7, `[` at 9,
        // `true` at 10, `-1.5e3` at 16, then `]` `,` `"k"` `:` `"x.."` `}`.
        let tokens = [0, 1, 6, 7, 9, 10, 15, 16, 22, 23, 24, 26, 27, 28, 31, 32];
        assert_eq!(b.tokens, bits(doc.len(), &tokens), "{doc:?}");
        // The backslash at 3 (not the escaped quote after it) and the
        // control byte at 30.
        assert_eq!(b.escapes, bits(doc.len(), &[3, 30]));
        assert_all_tiers_match(doc.as_bytes());
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
        build_structural_with(active(), br#"{"a":1}"#);
        let delta = thread_build_stats().delta_since(before);
        assert_eq!(delta.builds, 1);
        assert_eq!(delta.bytes, 7);
    }
}
