//! The Value Combiner (Algorithm 2) and shared predicate pushdown
//! (Algorithm 3).
//!
//! When a query touches both cached and uncached data, two readers run per
//! split: the **PrimaryReader** over the raw table file and the
//! **CacheReader** over the cache table file with the same index. The
//! cacher guarantees the two files have the same row count and row-group
//! boundaries, so rows are stitched positionally — no join.
//!
//! When the predicate constrains a cached JSONPath, the SARG is evaluated
//! against the cache file's row-group statistics; the resulting keep/skip
//! array is *shared* with the PrimaryReader so the raw file skips the same
//! row groups. As in the paper, the optimization only applies when both
//! files hold a single stripe.
//!
//! Composition with shared-parse execution is automatic: cached paths were compiled down to plain column references
//! against this provider's output schema, so only the *residual* uncached
//! `get_json_object` calls reach the executor's per-row extractor — the
//! combiner removes cross-query duplicate parsing, shared-parse dedupes
//! whatever parsing remains within the query.

use std::time::Instant;

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{
    charge_row_groups, open_split, read_chunks, sarg_keep, Batch, ScanProvider,
};
use maxson_storage::{Schema, SearchArgument, Table};

/// Scan provider combining a raw table with its cache table. It counts
/// only into the `ExecMetrics` each split is handed: `rows_scanned` is the
/// stitched (or cache-only) row count, `cache_hits` the cached cells served.
#[derive(Debug)]
pub struct CombinedScanProvider {
    /// The raw data table (PrimaryReader side). `None` for cache-only
    /// reads, which skip raw I/O entirely (§IV-B's relevance rationale).
    raw: Option<Table>,
    /// Raw column indexes to read, in output order.
    raw_projection: Vec<usize>,
    /// The cache table (CacheReader side).
    cache: Table,
    /// Cache column indexes to read, in output order (placed after the raw
    /// columns in the output schema).
    cache_projection: Vec<usize>,
    /// Output schema: raw columns then cache columns.
    out_schema: Schema,
    /// SARG over raw table columns (ordinary pushdown).
    raw_sarg: Option<SearchArgument>,
    /// SARG over cache table columns (Algorithm 3).
    cache_sarg: Option<SearchArgument>,
}

impl CombinedScanProvider {
    /// Build a combined provider. `out_schema` must list the raw projection
    /// fields followed by the cache projection fields.
    pub fn new(
        raw: Option<Table>,
        raw_projection: Vec<usize>,
        cache: Table,
        cache_projection: Vec<usize>,
        out_schema: Schema,
        raw_sarg: Option<SearchArgument>,
        cache_sarg: Option<SearchArgument>,
    ) -> Self {
        CombinedScanProvider {
            raw,
            raw_projection,
            cache,
            cache_projection,
            out_schema,
            raw_sarg,
            cache_sarg,
        }
    }

    /// Whether this scan reads only the cache table.
    pub fn is_cache_only(&self) -> bool {
        self.raw.is_none() || self.raw_projection.is_empty()
    }
}

impl ScanProvider for CombinedScanProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn split_count(&self) -> usize {
        // Cache files are written one per raw file, so the cache file count
        // IS the split count (and covers cache-only scans too).
        self.cache.file_count()
    }

    /// One split = the raw file and cache file with the same index, read by
    /// the paired PrimaryReader/CacheReader. Keeping the pair inside a
    /// single split task is what lets the split-parallel executor fan scans
    /// out without touching Algorithm 2 (positional stitch) or Algorithm 3
    /// (shared SARG skips): both stay split-local.
    fn scan_split(&self, split: usize, metrics: &mut ExecMetrics) -> maxson_engine::Result<Batch> {
        let start = Instant::now();
        let cache_file = open_split(&self.cache, split, metrics)?;

        // Algorithm 3: evaluate the cache-side SARG against the cache
        // file's row-group stats (single-stripe files only).
        let cache_keep = self.cache_sarg.as_ref().map(|s| sarg_keep(s, &cache_file));

        let (cols, kept_rows) = if self.is_cache_only() {
            let kept_rows = charge_row_groups(metrics, cache_keep.as_deref(), &cache_file);
            let cols = read_chunks(
                cache_file,
                &self.cache_projection,
                cache_keep,
                self.cache_sarg.as_ref(),
                metrics,
            )?;
            (cols, kept_rows)
        } else {
            let raw_table = self.raw.as_ref().expect("raw table present");
            let raw_file = open_split(raw_table, split, metrics)?;

            // The alignment invariant of §IV-C. If it does not hold (e.g.
            // the raw table changed underneath us) fail loudly rather than
            // stitch misaligned rows.
            if raw_file.num_rows() != cache_file.num_rows() {
                return Err(maxson_engine::EngineError::exec(format!(
                    "cache misalignment on split {split}: raw has {} rows, cache has {}",
                    raw_file.num_rows(),
                    cache_file.num_rows()
                )));
            }

            // Combine keep arrays. Sharing requires identical row-group
            // boundaries; otherwise fall back to reading everything.
            let aligned_groups = raw_file.row_group_count() == cache_file.row_group_count()
                && raw_file.stripe_count() <= 1
                && cache_file.stripe_count() <= 1;
            let raw_keep = self.raw_sarg.as_ref().map(|s| sarg_keep(s, &raw_file));
            let shared_keep: Option<Vec<bool>> = if aligned_groups {
                match (raw_keep, cache_keep) {
                    (Some(r), Some(c)) => Some(r.iter().zip(&c).map(|(a, b)| *a && *b).collect()),
                    (r, c) => r.or(c),
                }
            } else {
                // Cannot share: only the raw-side SARG can be applied, and
                // only consistently on both readers, so read everything.
                None
            };
            let kept_rows = charge_row_groups(metrics, shared_keep.as_deref(), &cache_file);

            // Algorithm 2: the two readers cover the same rows of the same
            // kept row groups — the PrimaryReader selects them with the raw
            // SARG's row-testable leaves and the CacheReader shares that
            // selection as it shares the keep-array — so the positional
            // stitch into the output schema (raw fields then cache fields)
            // is the two column lists end to end, and a batch row decoded
            // later is the same row in both files. The cache SARG's leaves
            // sit on string columns and select no rows of their own.
            let mut cols = read_chunks(
                raw_file,
                &self.raw_projection,
                shared_keep,
                self.raw_sarg.as_ref(),
                metrics,
            )?;
            cols.pair(cache_file, &self.cache_projection);
            (cols, kept_rows)
        };
        let n = kept_rows as u64;
        metrics.cache_hits += n * self.cache_projection.len() as u64;
        metrics.rows_scanned += n;
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(Batch::Columns(cols))
    }

    fn label(&self) -> String {
        format!(
            "MaxsonCombinedScan(raw_cols={:?}, cache_cols={:?}{}{})",
            self.raw_projection,
            self.cache_projection,
            if self.cache_sarg.as_ref().is_some_and(|s| !s.is_empty()) {
                ", cache_sarg"
            } else {
                ""
            },
            if self.is_cache_only() {
                ", cache-only"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_engine::scan::scan_rows;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, CmpOp, ColumnType, Field};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-combiner-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    /// Raw table: (id, payload); cache table: (va,) where va = id * 10 as
    /// string. Two files of 20 rows each, row groups of 5.
    fn setup(name: &str) -> (Table, Table, PathBuf, PathBuf) {
        let raw_schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let raw_dir = temp_dir(&format!("{name}-raw"));
        let cache_dir = temp_dir(&format!("{name}-cache"));
        let mut raw = Table::create(&raw_dir, raw_schema, 0).unwrap();
        let mut cache = Table::create(&cache_dir, cache_schema, 0).unwrap();
        let opts = WriteOptions {
            row_group_size: 5,
            ..Default::default()
        };
        for f in 0..2i64 {
            let raw_rows: Vec<Vec<Cell>> = (0..20)
                .map(|i| {
                    let n = f * 20 + i;
                    vec![Cell::Int(n), Cell::from(format!("{{\"a\":{}}}", n * 10))]
                })
                .collect();
            let cache_rows: Vec<Vec<Cell>> = (0..20)
                .map(|i| {
                    let n = f * 20 + i;
                    vec![Cell::from(format!("{}", n * 10))]
                })
                .collect();
            raw.append_file(&raw_rows, opts, 1).unwrap();
            cache.append_file(&cache_rows, opts, 1).unwrap();
        }
        (raw, cache, raw_dir, cache_dir)
    }

    fn out_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn stitches_rows_positionally() {
        let (raw, cache, rd, cd) = setup("stitch");
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], cache, vec![0], out_schema(), None, None);
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 40);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Cell::Int(i as i64));
            assert_eq!(row[1], Cell::from(format!("{}", i * 10)));
        }
        assert_eq!(m.cache_hits, 40);
        assert_eq!(m.rows_scanned, 40);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn cache_sarg_skip_is_shared_with_primary_reader() {
        let (raw, cache, rd, cd) = setup("share");
        // va >= "350" numerically -> only rows 35..39 (last row group of
        // file 1) qualify.
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(350));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            None,
            Some(sarg),
        );
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // Row group size 5, 4 groups per file, 2 files = 8 shared groups.
        // Only file 1's last group ([35..39], va 350..390) survives.
        assert_eq!(m.row_groups_read, 1);
        assert_eq!(m.row_groups_skipped, 7);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Cell::Int(35));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn raw_and_cache_sargs_combine() {
        let (raw, cache, rd, cd) = setup("combine");
        let raw_sarg = SearchArgument::new().with(0, CmpOp::Lt, Cell::Int(10));
        let cache_sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(50));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            Some(raw_sarg),
            Some(cache_sarg),
        );
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // id < 10 AND va >= 50 -> ids 5..9 (row group [5..9]).
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Cell::Int(5));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    /// The stitch is columnar: no cell exists until the consumer builds
    /// one, bytes are charged per decoded chunk, and the shared keep-array
    /// prunes the raw and the cache columns to the same length.
    #[test]
    fn split_batch_is_columnar_and_pruned_on_both_sides() {
        let (raw, cache, rd, cd) = setup("columnar");
        // Only file 1's last row group (va 350..390) survives.
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(350));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0, 1],
            cache,
            vec![0],
            Schema::new(vec![
                Field::new("id", ColumnType::Int64),
                Field::new("payload", ColumnType::Utf8),
                Field::new("va", ColumnType::Utf8),
            ])
            .unwrap(),
            None,
            Some(sarg),
        );
        let mut m = ExecMetrics::default();
        assert!(p.scan_split(0, &mut m).unwrap().is_empty());
        let batch = p.scan_split(1, &mut m).unwrap();
        let Batch::Columns(mut cols) = batch else {
            panic!("combiner must hand over columns");
        };
        assert_eq!(cols.width(), 3);
        assert_eq!(cols.len(), 5, "raw and cache pruned alike");
        assert_eq!(m.cells_materialized, 0, "no cell before consumption");
        assert_eq!(m.bytes_read, 0, "no decode before consumption");
        assert_eq!(m.rows_scanned, 5);
        assert_eq!(m.cache_hits, 5);
        cols.decode(&[0, 1, 2], &mut m).unwrap();
        assert!((0..3).all(|c| cols.column(c).len() == 5));
        let chunk_bytes: usize = (0..3).map(|c| cols.column(c).byte_size()).sum();
        assert_eq!(m.bytes_read, chunk_bytes as u64);
        let rows = Batch::Columns(cols).into_rows(&mut m).unwrap();
        assert_eq!(m.cells_materialized, 15);
        assert_eq!(rows[0][0], Cell::Int(35));
        assert_eq!(rows[0][2], Cell::from("350"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    /// Algorithm 3 at row granularity: the rows the raw SARG's `id` leaf
    /// selects are the rows the cache reader decodes, so the stitch stays
    /// positional; the scan is still charged for the kept row group.
    #[test]
    fn raw_row_selection_is_shared_with_the_cache_reader() {
        for raw_projection in [vec![0], vec![1]] {
            let (raw, cache, rd, cd) = setup("rowsel");
            // Row groups of 5: only [35..39] may hold id >= 37.
            let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(37));
            let raw_field = ["id", "payload"][raw_projection[0]];
            let raw_type = [ColumnType::Int64, ColumnType::Utf8][raw_projection[0]];
            let p = CombinedScanProvider::new(
                Some(raw),
                raw_projection.clone(),
                cache,
                vec![0],
                Schema::new(vec![
                    Field::new(raw_field, raw_type),
                    Field::new("va", ColumnType::Utf8),
                ])
                .unwrap(),
                Some(sarg),
                None,
            );
            let mut m = ExecMetrics::default();
            let batch = p.scan_split(1, &mut m).unwrap();
            assert_eq!(batch.len(), 3, "the batch is dense");
            assert_eq!(m.rows_scanned, 5);
            assert_eq!(m.cache_hits, 5);
            assert_eq!(m.batch_rows_skipped, 2);
            let rows = batch.into_rows(&mut m).unwrap();
            let va: Vec<Cell> = rows.iter().map(|r| r[1].clone()).collect();
            assert_eq!(va, ["370", "380", "390"].map(Cell::from));
            if raw_projection == [0] {
                assert_eq!(rows[0][0], Cell::Int(37));
                // `id` for the kept group, `va` at the three selected rows.
                assert_eq!(m.bytes_read, 5 * 8 + 3 * 3);
            } else {
                assert_eq!(rows[2][0], Cell::from("{\"a\":390}"));
            }
            assert_eq!(m.cells_materialized, 6);
            std::fs::remove_dir_all(rd).ok();
            std::fs::remove_dir_all(cd).ok();
        }
    }

    #[test]
    fn cache_only_scan_never_opens_raw() {
        let (_raw, cache, rd, cd) = setup("cacheonly");
        let schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let p = CombinedScanProvider::new(None, vec![], cache, vec![0], schema, None, None);
        assert!(p.is_cache_only());
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(m.cache_hits, 40);
        assert_eq!(
            m.meta_cache_hits + m.meta_cache_misses,
            2,
            "cache files only"
        );
        assert!(p.label().contains("cache-only"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn split_scan_concatenation_matches_whole_scan() {
        let (raw, cache, rd, cd) = setup("splitpair");
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(150));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            None,
            Some(sarg),
        );
        assert_eq!(p.split_count(), 2);
        let mut whole_m = ExecMetrics::default();
        let whole = scan_rows(&p, &mut whole_m).unwrap();
        let mut split_m = ExecMetrics::default();
        let mut stitched = Vec::new();
        for s in 0..p.split_count() {
            stitched.extend(
                p.scan_split(s, &mut split_m)
                    .unwrap()
                    .into_rows(&mut split_m)
                    .unwrap(),
            );
        }
        assert_eq!(stitched, whole);
        assert_eq!(split_m.rows_scanned, whole_m.rows_scanned);
        assert_eq!(split_m.row_groups_skipped, whole_m.row_groups_skipped);
        assert_eq!(split_m.row_groups_read, whole_m.row_groups_read);
        assert_eq!(split_m.cache_hits, whole_m.cache_hits);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn misaligned_split_is_detected() {
        let (raw, _cache, rd, cd) = setup("misaligned");
        // Build a cache table with a different row count.
        let bad_dir = temp_dir("misaligned-bad");
        let schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let mut bad = Table::create(&bad_dir, schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..7).map(|i| vec![Cell::from(format!("{i}"))]).collect();
        bad.append_file(&rows, WriteOptions::default(), 1).unwrap();
        bad.append_file(&rows, WriteOptions::default(), 1).unwrap();
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], bad, vec![0], out_schema(), None, None);
        let mut m = ExecMetrics::default();
        let err = scan_rows(&p, &mut m).unwrap_err();
        assert!(err.to_string().contains("misalignment"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
        std::fs::remove_dir_all(bad_dir).ok();
    }

    #[test]
    fn multi_stripe_cache_file_disables_sharing() {
        // Cache file written with multiple stripes: SARG must not skip.
        let raw_schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let rd = temp_dir("multistripe-raw");
        let cd = temp_dir("multistripe-cache");
        let mut raw = Table::create(&rd, raw_schema, 0).unwrap();
        let mut cache = Table::create(&cd, cache_schema, 0).unwrap();
        let raw_rows: Vec<Vec<Cell>> = (0..20).map(|i| vec![Cell::Int(i)]).collect();
        let cache_rows: Vec<Vec<Cell>> =
            (0..20).map(|i| vec![Cell::from(format!("{i}"))]).collect();
        raw.append_file(
            &raw_rows,
            WriteOptions {
                row_group_size: 5,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        cache
            .append_file(
                &cache_rows,
                WriteOptions {
                    row_group_size: 5,
                    row_groups_per_stripe: 1,
                },
                1,
            )
            .unwrap();
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(100));
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap();
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], cache, vec![0], schema, None, Some(sarg));
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 20, "no skipping on multi-stripe files");
        assert_eq!(m.row_groups_skipped, 0);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }
}
