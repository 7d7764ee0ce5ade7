//! Differential tests for the structural-kernel tiers and mmap'd Norc I/O.
//!
//! Two process-global fast paths ride the scan hot loop: the dispatched
//! SIMD/SWAR structural kernels (`maxson_json::kernels`) and memory-mapped
//! part-file reads (`MAXSON_MMAP`). Both are pure accelerations — they must
//! never change an answer — so every layer is pinned differentially:
//!
//! 1. **Bitmap bit-identity** — every available kernel tier must produce
//!    bitmaps identical to the scalar reference over the adversarial
//!    corpus (`maxson_testkit::corpus`): valid documents, invalid
//!    documents, and byte-level mutations of both. Same for the prefilter
//!    needle search against `str::contains`.
//! 2. **Query identity across tiers** — the golden rewriter queries run
//!    under every available tier × the bitmap-consuming parsers
//!    (Mison, Tape); rows, rendered output, and work counters must match
//!    the scalar-tier Jackson-free reference exactly.
//! 3. **mmap vs `fs::read`** — the same golden queries with mapped and
//!    copied part files must agree on rows *and* on `bytes_read` (the
//!    accounting is decode-driven, not I/O-driven, so mapping must not
//!    change it).
//! 4. **Failure injection** — truncated and bit-flipped part files must be
//!    rejected at open in both modes: the checksum is verified against the
//!    mapped bytes exactly as against the copied ones.
//!
//! Kernel selection is process-wide (`kernels::set_active`); that is safe
//! to exercise from a multi-threaded test binary precisely because tiers
//! are bit-identical — a concurrent test can never observe which tier ran.

use maxson::rewriter::MaxsonScanRewriter;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_json::kernels::{self, Kernel};
use maxson_storage::file::MmapMode;
use maxson_storage::NorcFile;
use maxson_testkit::corpus;
use maxson_testkit::rng::Rng;
use std::path::{Path, PathBuf};

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_dir(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir =
        std::env::temp_dir().join(format!("maxson-kern-{}-{nanos}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The golden rewriter queries (see tests/rewriter_golden.rs), exercising
/// projection, filtering on an extracted field, and a sparse field.
const GOLDEN_QUERIES: [&str; 4] = [
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f10') as f10 from mydb.q2",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select get_json_object(payload, '$.f12') as f12 from mydb.q2",
];

/// The corpus both bitmap tests walk: valid documents, invalid documents,
/// and byte-level mutations of both (seed-replayable).
fn differential_corpus() -> Vec<String> {
    let mut docs = corpus::valid_docs(0xD1FF, 120);
    docs.extend(corpus::invalid_docs(0xD1FF, 80));
    let mut rng = Rng::seed_from_u64(0xD1FF);
    let mutated: Vec<String> = docs
        .iter()
        .map(|d| corpus::mutate_bytes(d, &mut rng))
        .collect();
    docs.extend(mutated);
    docs
}

#[test]
fn all_tiers_build_identical_bitmaps_over_corpus() {
    let docs = differential_corpus();
    for doc in &docs {
        let bytes = doc.as_bytes();
        let reference = kernels::build_bitmaps_with(Kernel::Scalar, bytes);
        for kernel in kernels::available() {
            let got = kernels::build_bitmaps_with(kernel, bytes);
            assert_eq!(
                got.in_string,
                reference.in_string,
                "{} in_string bitmap diverged from scalar on {doc:?}",
                kernel.name()
            );
            assert_eq!(
                got.structural,
                reference.structural,
                "{} structural bitmap diverged from scalar on {doc:?}",
                kernel.name()
            );
        }
    }
}

#[test]
fn all_tiers_agree_with_std_contains_over_corpus() {
    let docs = differential_corpus();
    // Needles of every length class the prefilter emits: single byte,
    // short, and long (longer than one SIMD block step), plus guaranteed
    // misses and full-document self-matches.
    for doc in docs.iter().take(150) {
        let bytes = doc.as_bytes();
        let mut needles: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"\"".to_vec(),
            b"id".to_vec(),
            "\u{1F6} definitely not in the corpus \u{1F6}"
                .as_bytes()
                .to_vec(),
            bytes.to_vec(),
        ];
        if bytes.len() >= 40 {
            needles.push(bytes[7..39].to_vec());
        }
        for needle in &needles {
            let expected = doc
                .as_bytes()
                .windows(needle.len().max(1))
                .any(|w| w == &needle[..])
                || needle.is_empty();
            for kernel in kernels::available() {
                assert_eq!(
                    kernels::contains_with(kernel, bytes, needle),
                    expected,
                    "{} contains diverged on doc {doc:?} needle {needle:?}",
                    kernel.name()
                );
            }
        }
    }
}

/// Run the golden queries under one configuration and collect rows +
/// rendered output + the deterministic work counters.
fn run_golden(root: &Path, parser: JsonParserKind, rewritten: bool) -> Vec<(String, [u64; 6])> {
    let mut session = Session::open(root).unwrap();
    session.set_parser_kind(parser);
    session.set_threads(Some(1));
    if rewritten {
        let rewriter = MaxsonScanRewriter::open(root).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
    }
    GOLDEN_QUERIES
        .iter()
        .map(|sql| {
            let r = session
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql} failed: {e}"));
            let m = &r.metrics;
            (
                r.to_display_string(),
                [
                    m.rows_scanned,
                    m.bytes_read,
                    m.parse_calls,
                    m.docs_parsed,
                    m.row_groups_read,
                    m.cache_hits,
                ],
            )
        })
        .collect()
}

#[test]
fn golden_queries_identical_across_kernel_tiers() {
    let root = bench_data_root();
    let initial = kernels::active();
    let reference = {
        kernels::set_active(Kernel::Scalar);
        run_golden(&root, JsonParserKind::Mison, false)
    };
    for kernel in kernels::available() {
        let took = kernels::set_active(kernel);
        assert_eq!(took, kernel, "available tier must not clamp");
        for parser in [JsonParserKind::Mison, JsonParserKind::Tape] {
            for rewritten in [false, true] {
                let got = run_golden(&root, parser, rewritten);
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(
                        g.0,
                        r.0,
                        "rows diverged under {} / {parser:?} / rewritten={rewritten}",
                        kernel.name()
                    );
                    if parser == JsonParserKind::Mison && !rewritten {
                        assert_eq!(g.1, r.1, "work counters diverged under {}", kernel.name());
                    }
                }
            }
        }
    }
    kernels::set_active(initial);
}

#[test]
fn kernel_metrics_surface_in_query_metrics() {
    let mut session = Session::open(bench_data_root()).unwrap();
    session.set_parser_kind(JsonParserKind::Mison);
    session.set_threads(Some(1));
    let r = session.execute(GOLDEN_QUERIES[0]).unwrap();
    let m = &r.metrics;
    assert!(m.bitmap_builds > 0, "Mison parse must build bitmaps: {m:?}");
    assert!(m.bitmap_bytes > 0);
    assert_eq!(
        m.simd_kernel,
        kernels::active().id() as u64,
        "metrics must record the active tier"
    );
    assert!(m.summary().contains("simd="), "summary: {}", m.summary());

    // Jackson parses a DOM: no bitmaps, no kernel recorded.
    session.set_parser_kind(JsonParserKind::Jackson);
    let r = session.execute(GOLDEN_QUERIES[0]).unwrap();
    assert_eq!(r.metrics.bitmap_builds, 0, "{:?}", r.metrics);
    assert_eq!(r.metrics.simd_kernel, 0);
}

/// Golden queries must agree between mapped and copied part files on rows
/// and on `bytes_read` — mapping changes how bytes arrive, never how many
/// are decoded.
#[test]
fn golden_queries_identical_mmap_on_and_off() {
    let root = bench_data_root();
    for parser in [
        JsonParserKind::Jackson,
        JsonParserKind::Mison,
        JsonParserKind::Tape,
    ] {
        // MAXSON_MMAP is read at each split open inside execute; flipping
        // it around whole query runs is the honest engine-level toggle.
        std::env::set_var("MAXSON_MMAP", "0");
        let copied = run_golden(&root, parser, false);
        std::env::set_var("MAXSON_MMAP", "1");
        let mapped = run_golden(&root, parser, false);
        std::env::remove_var("MAXSON_MMAP");
        assert_eq!(copied, mapped, "mmap on/off diverged under {parser:?}");
    }
}

/// A part file opens mapped by default on unix and reads back the same
/// chunk bytes in both modes.
#[test]
fn part_file_chunks_identical_mapped_and_copied() {
    let root = bench_data_root();
    let part = root.join("mydb/q1/part-00000.norc");
    let mapped = NorcFile::open_with(&part, MmapMode::Enabled).unwrap();
    let copied = NorcFile::open_with(&part, MmapMode::Disabled).unwrap();
    assert!(
        cfg!(not(unix)) || mapped.is_mapped(),
        "unix default is mapped"
    );
    assert!(!copied.is_mapped());
    assert_eq!(mapped.num_rows(), copied.num_rows());
    assert_eq!(mapped.byte_size(), copied.byte_size());
    let cols: Vec<usize> = (0..mapped.schema().fields().len()).collect();
    assert_eq!(
        mapped.read_columns(&cols, None).unwrap(),
        copied.read_columns(&cols, None).unwrap()
    );
}

/// Truncated and corrupted part files must fail at open in both modes —
/// the checksum is validated over the mapped bytes too.
#[test]
fn truncated_and_corrupt_files_rejected_in_both_modes() {
    let root = bench_data_root();
    let part = root.join("mydb/q1/part-00000.norc");
    let bytes = std::fs::read(&part).unwrap();
    let dir = temp_dir("inject");

    // Truncations: mid-footer, mid-stripe, below any plausible header, and
    // a partial-page cut (len deliberately not sector-aligned).
    for (i, cut) in [
        bytes.len() - 1,
        bytes.len() - 9,
        bytes.len() / 2,
        4097.min(bytes.len() - 2),
        3,
    ]
    .into_iter()
    .enumerate()
    {
        let p = dir.join(format!("trunc-{i}.norc"));
        std::fs::write(&p, &bytes[..cut]).unwrap();
        for mode in [MmapMode::Enabled, MmapMode::Disabled] {
            assert!(
                NorcFile::open_with(&p, mode).is_err(),
                "truncation at {cut} must fail to open (mode {mode:?})"
            );
        }
    }

    // Bit flips in the body must trip the checksum identically.
    for (i, pos) in [8usize, bytes.len() / 3, bytes.len() - 20]
        .into_iter()
        .enumerate()
    {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        let p = dir.join(format!("flip-{i}.norc"));
        std::fs::write(&p, &corrupt).unwrap();
        for mode in [MmapMode::Enabled, MmapMode::Disabled] {
            assert!(
                NorcFile::open_with(&p, mode).is_err(),
                "bit flip at {pos} must fail to open (mode {mode:?})"
            );
        }
    }

    // An empty file (the degenerate zero-length mapping) is rejected too.
    let p = dir.join("empty.norc");
    std::fs::write(&p, b"").unwrap();
    for mode in [MmapMode::Enabled, MmapMode::Disabled] {
        assert!(NorcFile::open_with(&p, mode).is_err());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `MAXSON_SIMD` name resolution: every tier name round-trips, unknown
/// names fall back to best-available, and `set_active` clamps requests the
/// CPU cannot serve.
#[test]
fn kernel_name_resolution_and_clamping() {
    for kernel in kernels::available() {
        assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        assert_eq!(kernels::set_active(kernel), kernel);
    }
    assert_eq!(Kernel::from_name("not-a-kernel"), None);
    // Scalar and SWAR are always available; the session surface reports
    // whatever dispatch settled on.
    let mut session = Session::open(bench_data_root()).unwrap();
    let took = session.set_simd(Kernel::Swar);
    assert_eq!(took, Kernel::Swar);
    assert_eq!(session.simd_kernel(), Kernel::Swar);
    session.set_simd(kernels::best_available());
}
