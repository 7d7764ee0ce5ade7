//! The naive cached/uncached stitching baseline: a row-number join.
//!
//! §I of the paper: "The naive method is to join the raw data table and
//! cache table to find the complete record, but the join operations can be
//! costly." This provider implements exactly that baseline so the ablation
//! benchmark can quantify what the synchronized two-reader combiner saves:
//! both tables are materialized in full, keyed by their global row number,
//! and hash-joined back together.
//!
//! Differences from the value combiner,
//! [`maxson_engine::scan::NorcScanProvider`] paired with a cache table:
//!
//! * every row of both tables is read (no shared row-group skipping — a
//!   SARG on the cache table cannot restrict the raw side, because rows
//!   are matched by key lookup, not position),
//! * a hash table of `rows` entries is built and probed,
//! * output order follows the raw table (as the combiner's does), so the
//!   two strategies stay result-equivalent.

use std::collections::HashMap;
use std::time::Instant;

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{
    charge_row_groups, open_split, read_chunks_at, Batch, Columns, ScanProvider,
};
use maxson_storage::{Cell, Schema, Table};

/// Join-based stitching provider (ablation baseline).
#[derive(Debug)]
pub struct JoinStitchProvider {
    raw: Table,
    raw_projection: Vec<usize>,
    cache: Table,
    cache_projection: Vec<usize>,
    out_schema: Schema,
}

impl JoinStitchProvider {
    /// Build the provider. `out_schema` lists the raw projection fields
    /// followed by the cache projection fields (same contract as the
    /// combiner).
    pub fn new(
        raw: Table,
        raw_projection: Vec<usize>,
        cache: Table,
        cache_projection: Vec<usize>,
        out_schema: Schema,
    ) -> Self {
        JoinStitchProvider {
            raw,
            raw_projection,
            cache,
            cache_projection,
            out_schema,
        }
    }
}

/// Materialize every row of `table`'s `projection`, split by split.
fn read_all(
    table: &Table,
    projection: &[usize],
    metrics: &mut ExecMetrics,
) -> maxson_engine::Result<Vec<Vec<Cell>>> {
    let mut rows = Vec::new();
    for split in 0..table.file_count() {
        let file = open_split(table, split, metrics)?;
        charge_row_groups(metrics, None, &file);
        let cols = read_chunks_at(&file, projection, None, None, metrics)?;
        rows.extend(Batch::Columns(Columns::decoded(cols)).into_rows(metrics)?);
    }
    Ok(rows)
}

impl ScanProvider for JoinStitchProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    /// The join needs both tables whole, so the provider is one split.
    fn scan_split(&self, _split: usize, metrics: &mut ExecMetrics) -> maxson_engine::Result<Batch> {
        let start = Instant::now();
        // Materialize both sides in full.
        let raw_rows = read_all(&self.raw, &self.raw_projection, metrics)?;
        let cache_rows = read_all(&self.cache, &self.cache_projection, metrics)?;
        if raw_rows.len() != cache_rows.len() {
            return Err(maxson_engine::EngineError::exec(format!(
                "join stitch: raw has {} rows, cache has {}",
                raw_rows.len(),
                cache_rows.len()
            )));
        }
        // Build: cache side keyed by global row number.
        let mut build: HashMap<u64, &Vec<Cell>> = HashMap::with_capacity(cache_rows.len());
        for (i, row) in cache_rows.iter().enumerate() {
            build.insert(i as u64, row);
        }
        // Probe: raw side in order.
        let mut out = Vec::with_capacity(raw_rows.len());
        for (i, raw_row) in raw_rows.into_iter().enumerate() {
            let cache_row = build
                .get(&(i as u64))
                .ok_or_else(|| maxson_engine::EngineError::exec("row key missing".to_string()))?;
            let mut combined = raw_row;
            combined.extend((*cache_row).iter().cloned());
            metrics.cache_hits += self.cache_projection.len() as u64;
            out.push(combined);
        }
        metrics.rows_scanned += out.len() as u64;
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(Batch::Rows(out))
    }

    fn label(&self) -> String {
        format!(
            "JoinStitchScan(raw_cols={:?}, cache_cols={:?})",
            self.raw_projection, self.cache_projection
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_engine::scan::{scan_rows, NorcScanProvider};
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{ColumnType, Field};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-js-{}-{nanos}-{name}", std::process::id()))
    }

    fn tables(name: &str) -> (Table, Table, PathBuf, PathBuf) {
        let raw_schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let rd = temp_dir(&format!("{name}-raw"));
        let cd = temp_dir(&format!("{name}-cache"));
        let mut raw = Table::create(&rd, raw_schema, 0).unwrap();
        let mut cache = Table::create(&cd, cache_schema, 0).unwrap();
        let opts = WriteOptions {
            row_group_size: 7,
            ..Default::default()
        };
        for f in 0..3i64 {
            let raw_rows: Vec<Vec<Cell>> = (0..15)
                .map(|i| {
                    let n = f * 15 + i;
                    vec![Cell::Int(n), Cell::from(format!("{{\"a\":{n}}}"))]
                })
                .collect();
            let cache_rows: Vec<Vec<Cell>> = (0..15)
                .map(|i| vec![Cell::from(format!("{}", f * 15 + i))])
                .collect();
            raw.append_file(&raw_rows, opts, 1).unwrap();
            cache.append_file(&cache_rows, opts, 1).unwrap();
        }
        (raw, cache, rd, cd)
    }

    fn out_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn join_stitch_produces_same_rows_as_combiner() {
        let (raw, cache, rd, cd) = tables("equiv");
        let combiner = NorcScanProvider::new(raw.clone(), vec![0], None)
            .unwrap()
            .with_cache(cache.clone(), vec![0], None)
            .unwrap();
        let join = JoinStitchProvider::new(raw, vec![0], cache, vec![0], out_schema());
        let mut m1 = ExecMetrics::default();
        let mut m2 = ExecMetrics::default();
        let a = scan_rows(&combiner, &mut m1).unwrap();
        let b = scan_rows(&join, &mut m2).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.len(), 45);
        assert_eq!(b[44], vec![Cell::Int(44), Cell::Str("44".into())]);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn join_stitch_detects_row_count_mismatch() {
        let (raw, _cache, rd, cd) = tables("mismatch");
        let bad_dir = temp_dir("mismatch-bad");
        let schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let mut bad = Table::create(&bad_dir, schema, 0).unwrap();
        bad.append_file(&[vec![Cell::Str("x".into())]], WriteOptions::default(), 1)
            .unwrap();
        let join = JoinStitchProvider::new(raw, vec![0], bad, vec![0], out_schema());
        let mut m = ExecMetrics::default();
        assert!(scan_rows(&join, &mut m).is_err());
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
        std::fs::remove_dir_all(bad_dir).ok();
    }

    #[test]
    fn label_mentions_strategy() {
        let (raw, cache, rd, cd) = tables("label");
        let join = JoinStitchProvider::new(raw, vec![0], cache, vec![0], out_schema());
        assert!(join.label().contains("JoinStitch"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }
}
