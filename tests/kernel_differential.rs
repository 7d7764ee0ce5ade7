//! Differential tests for the structural-kernel tiers, and the open-time
//! checks of Norc part files.
//!
//! The process-wide dispatched SIMD/SWAR structural kernels
//! (`maxson_json::kernels`) ride the scan hot loop. They are pure
//! accelerations — they must never change an answer — so every layer is
//! pinned differentially:
//!
//! 1. **Bitmap bit-identity** — every available kernel tier must produce
//!    bitmaps identical to the scalar reference over the adversarial
//!    corpus (`maxson_testkit::corpus`): valid documents, invalid
//!    documents, and byte-level mutations of both.
//! 2. **Statements on every tier** — the golden rewriter queries under
//!    every available tier × the bitmap-consuming parsers (Mison, Tape),
//!    plain and rewritten, return what the oracle returns.
//! 3. **Failure injection** — truncated and bit-flipped part files must be
//!    rejected at open: the checksum streamed over the file at open covers
//!    every byte a later chunk read can reach.
//!
//! Kernel selection is process-wide (`kernels::set_active`); that is safe
//! to exercise from a multi-threaded test binary precisely because tiers
//! are bit-identical — a concurrent test can never observe which tier ran.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_json::kernels::{self, Kernel};
use maxson_storage::NorcFile;
use maxson_testkit::corpus;
use maxson_testkit::rng::Rng;
use support::cells::{assert_agrees, ConfigCell};
use support::{bench_data_root, GOLDEN_QUERIES};

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
fn golden_queries_identical_across_kernel_tiers() {
    let cells: Vec<ConfigCell> = kernels::available()
        .into_iter()
        .flat_map(|simd| {
            [(JsonParserKind::Mison, false), (JsonParserKind::Tape, true)].map(
                |(parser, rewritten)| ConfigCell {
                    parser,
                    simd,
                    rewritten,
                    ..ConfigCell::default()
                },
            )
        })
        .collect();
    assert_agrees(&bench_data_root(), &GOLDEN_QUERIES, &cells);
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

/// Truncated and corrupted part files must fail at open: the checksum is
/// verified over every byte before it, streamed through the descriptor
/// that later chunk reads use.
#[test]
fn truncated_and_corrupt_files_rejected_in_both_modes() {
    let root = bench_data_root();
    let part = root.join("mydb/q1/part-00000.norc");
    let bytes = std::fs::read(&part).unwrap();
    let dir = support::temp_root("inject");
    std::fs::create_dir_all(&dir).unwrap();

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
        assert!(
            NorcFile::open(&p).is_err(),
            "truncation at {cut} must fail to open"
        );
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
        assert!(
            NorcFile::open(&p).is_err(),
            "bit flip at {pos} must fail to open"
        );
    }

    // An empty file is rejected too.
    let p = dir.join("empty.norc");
    std::fs::write(&p, b"").unwrap();
    assert!(NorcFile::open(&p).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// Every available tier has its own name and pins through `set_active`,
/// which the session surface reports; requests the CPU cannot serve clamp.
#[test]
fn kernel_name_resolution_and_clamping() {
    let tiers = kernels::available();
    let names: std::collections::BTreeSet<&str> = tiers.iter().map(|k| k.name()).collect();
    assert_eq!(names.len(), tiers.len(), "{names:?}");
    for kernel in tiers {
        assert_eq!(kernels::set_active(kernel), kernel);
    }
    assert!(kernels::set_active(Kernel::Avx2).is_available());
    // Scalar and SWAR are always available; the session surface reports
    // whatever dispatch settled on.
    let session = Session::open(bench_data_root()).unwrap();
    assert_eq!(kernels::set_active(Kernel::Swar), Kernel::Swar);
    assert_eq!(session.simd_kernel(), Kernel::Swar);
    kernels::set_active(kernels::best_available());
}
