//! Differential tests for the structural-kernel tiers and mmap'd Norc I/O.
//!
//! Two fast paths ride the scan hot loop: the process-wide dispatched
//! SIMD/SWAR structural kernels (`maxson_json::kernels`) and memory-mapped
//! part-file reads (the mode of a session's footer cache, `MAXSON_MMAP`).
//! Both are pure accelerations — they must never change an answer — so
//! every layer is pinned differentially:
//!
//! 1. **Bitmap bit-identity** — every available kernel tier must produce
//!    bitmaps identical to the scalar reference over the adversarial
//!    corpus (`maxson_testkit::corpus`): valid documents, invalid
//!    documents, and byte-level mutations of both.
//! 2. **Statements on every tier** — the golden rewriter queries under
//!    every available tier × the bitmap-consuming parsers (Mison, Tape),
//!    plain and rewritten, return what the oracle returns.
//! 3. **mmap vs `fs::read`** — the same golden queries, rewritten, in a
//!    session whose footer cache maps part files and in one whose cache
//!    copies them read every raw and cache part file that way, return what
//!    the oracle returns, and agree on every work counter,
//!    `bytes_read` included (the accounting is decode-driven, not
//!    I/O-driven, so mapping must not change it).
//! 4. **Failure injection** — truncated and bit-flipped part files must be
//!    rejected at open in both modes: the checksum is verified against the
//!    mapped bytes exactly as against the copied ones.
//!
//! Kernel selection is process-wide (`kernels::set_active`); that is safe
//! to exercise from a multi-threaded test binary precisely because tiers
//! are bit-identical — a concurrent test can never observe which tier ran.

mod support;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::Config;
use maxson_json::kernels::{self, Kernel};
use maxson_storage::file::MmapMode;
use maxson_storage::NorcFile;
use maxson_testkit::corpus;
use maxson_testkit::rng::Rng;
use support::cells::{assert_agrees, assert_matches, ConfigCell};
use support::oracle::Oracle;
use support::{bench_data_root, install_rewriter, GOLDEN_QUERIES};

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

/// Golden queries, rewritten, return the oracle's rows in a session that
/// maps part files and in one that copies them, and decode the same bytes —
/// mapping changes how bytes arrive, never how many are decoded. Every part
/// file the queries read, raw and cache table alike, must sit in the
/// session's footer cache read the session's way: the mode is a property of
/// the cache, and the rewriter reads through it too. The query log reports
/// that mode.
#[test]
fn golden_queries_identical_mmap_on_and_off() {
    let root = bench_data_root();
    let oracle = Oracle::new(&root);
    for parser in support::cells::PARSERS {
        let counters = [MmapMode::Enabled, MmapMode::Disabled].map(|mmap| {
            let log = support::temp_root(&format!("mmap-{parser:?}-{mmap:?}.jsonl"));
            let config = Config {
                parser,
                threads: Some(1),
                mmap,
                query_log: Some(log.clone()),
                ..Config::default()
            };
            let session = install_rewriter(Session::open_with(&root, config).unwrap());
            let counters: Vec<_> = GOLDEN_QUERIES
                .iter()
                .map(|sql| {
                    let got = session.execute(sql).unwrap();
                    let what = format!("{parser:?} {mmap:?}: {sql}");
                    assert_matches(&oracle.answer(sql).unwrap(), &got, &what);
                    got.metrics.work_counters()
                })
                .collect();
            // The tables the golden queries read: the raw `mydb.q2` (the
            // `mydb.q1` statements are served from the cache alone) and
            // both cache tables. A hit means a query put the file there.
            let catalog = session.catalog();
            for (db, name) in [
                ("mydb", "q2"),
                ("__maxson_cache", "mydb__q1"),
                ("__maxson_cache", "mydb__q2"),
            ] {
                let table = catalog.table(db, name).unwrap();
                for split in 0..table.file_count() {
                    let (file, hit) = table.open_split_cached(split).unwrap();
                    let what = format!("{parser:?} {mmap:?}: {}", file.path().display());
                    assert!(hit, "{what} was not read by the golden queries");
                    assert_eq!(
                        file.is_mapped(),
                        cfg!(unix) && mmap == MmapMode::Enabled,
                        "{what}"
                    );
                }
            }
            let lines = std::fs::read_to_string(&log).unwrap();
            assert_eq!(lines.lines().count(), GOLDEN_QUERIES.len());
            for line in lines.lines() {
                let line = maxson_json::parse(line).unwrap();
                let mapped = line.get("mmap").and_then(|m| m.as_bool());
                assert_eq!(
                    mapped,
                    Some(mmap == MmapMode::Enabled),
                    "{parser:?} {mmap:?}"
                );
            }
            std::fs::remove_file(&log).ok();
            counters
        });
        assert_eq!(counters[0], counters[1], "{parser:?}");
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
