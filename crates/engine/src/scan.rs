//! Table scanning with a pluggable provider.
//!
//! [`ScanProvider`] is the engine's extension point for the table-reading
//! phase: a provider names its splits and reads one split as a [`Batch`].
//! The default [`NorcScanProvider`] reads a Norc table split by split,
//! applying SARG row-group skipping. Maxson's value combiner installs its
//! own provider that stitches the raw table's and the cache table's decoded
//! columns side by side.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

use maxson_storage::{Cell, ColumnData, NorcFile, Schema, SearchArgument, Table};

use crate::error::Result;
use crate::metrics::ExecMetrics;

/// One split's worth of scanned data.
#[derive(Debug)]
pub enum Batch {
    /// Row-major: providers that already hold cells (the online LRU, the
    /// join-stitch baseline, materialised inputs, test stubs).
    Rows(Vec<Vec<Cell>>),
    /// Column-major: a split's columns, each decoded when its consumer
    /// first reads it. Cells are built lazily by the consumer.
    Columns(Columns),
}

impl Batch {
    /// Number of rows held.
    pub fn len(&self) -> usize {
        match self {
            Batch::Rows(rows) => rows.len(),
            Batch::Columns(cols) => cols.len(),
        }
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the rows, decoding every column still in its file and
    /// charging `cells_materialized` for every column→cell conversion.
    /// Row-major batches charge nothing (their cells were already built by
    /// the provider).
    pub fn into_rows(self, metrics: &mut ExecMetrics) -> Result<Vec<Vec<Cell>>> {
        let n = self.len();
        match self {
            Batch::Rows(rows) => Ok(rows),
            Batch::Columns(mut cols) => {
                cols.decode_all(metrics)?;
                metrics.cells_materialized += (n * cols.width()) as u64;
                Ok((0..n)
                    .map(|i| (0..cols.width()).map(|c| cols.column(c).get(i)).collect())
                    .collect())
            }
        }
    }
}

/// The columns of one split. Each is decoded already or still in one of
/// the split's files; the consumer decodes what it reads at every row with
/// [`Columns::decode`] and the rest at the rows it keeps with
/// [`Columns::read_at`], so a value nothing reads is never built. A batch
/// row is a position in the rows the SARG's row selection kept within the
/// kept row groups, and it maps through both to the same row of every file
/// the batch reads: the raw file and an aligned cache file alike
/// (Algorithm 2's synchronized readers).
#[derive(Debug)]
pub struct Columns {
    len: usize,
    slots: Vec<Slot>,
    files: Vec<Arc<NorcFile>>,
    /// The row-group keep-array every file shares (`None` = every group).
    keep: Option<Vec<bool>>,
    /// The batch's rows as positions in the kept row groups (`None` = all).
    selection: Option<Vec<u32>>,
}

#[derive(Debug)]
enum Slot {
    Decoded(ColumnData),
    /// Column `column` of `files[file]`, not decoded yet.
    InFile {
        file: usize,
        column: usize,
    },
}

impl Columns {
    /// A batch of columns decoded already (in-memory providers, tests).
    pub fn decoded(cols: Vec<ColumnData>) -> Self {
        Columns {
            len: cols.first().map_or(0, ColumnData::len),
            slots: cols.into_iter().map(Slot::Decoded).collect(),
            files: Vec::new(),
            keep: None,
            selection: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Append `projection` of `file`, a file aligned with the batch's first
    /// (the same rows in the same row groups): its columns stay in the file
    /// and share the batch's keep-array and row selection.
    pub fn pair(&mut self, file: Arc<NorcFile>, projection: &[usize]) {
        let at = self.files.len();
        self.files.push(file);
        self.slots.extend(
            projection
                .iter()
                .map(|&column| Slot::InFile { file: at, column }),
        );
    }

    /// Decode `columns` at every row of the batch, those not decoded yet,
    /// charging `bytes_read` and read time.
    pub fn decode(&mut self, columns: &[usize], metrics: &mut ExecMetrics) -> Result<()> {
        let pending: Vec<usize> = columns
            .iter()
            .copied()
            .filter(|&c| matches!(self.slots[c], Slot::InFile { .. }))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let cols = self.read(&pending, self.selection.as_deref(), metrics)?;
        for (c, col) in pending.into_iter().zip(cols) {
            self.slots[c] = Slot::Decoded(col);
        }
        Ok(())
    }

    /// Decode every column at every row of the batch.
    pub fn decode_all(&mut self, metrics: &mut ExecMetrics) -> Result<()> {
        self.decode(&(0..self.width()).collect::<Vec<_>>(), metrics)
    }

    /// Column `c`. A consumer decodes every column it reads before reading
    /// it; reading one still in its file is a bug, and panics.
    pub fn column(&self, c: usize) -> &ColumnData {
        match &self.slots[c] {
            Slot::Decoded(col) => col,
            Slot::InFile { .. } => panic!("column {c} read before it was decoded"),
        }
    }

    /// Column `c`, mutably (see [`Columns::column`]).
    pub fn column_mut(&mut self, c: usize) -> &mut ColumnData {
        match &mut self.slots[c] {
            Slot::Decoded(col) => col,
            Slot::InFile { .. } => panic!("column {c} read before it was decoded"),
        }
    }

    /// `columns` at the batch rows `rows` (ascending) alone: a decoded
    /// column is gathered, one still in its file is decoded at those rows
    /// only, charging `bytes_read` for them.
    pub fn read_at(
        &self,
        columns: &[usize],
        rows: &[u32],
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<ColumnData>> {
        let in_file: Vec<usize> = columns
            .iter()
            .copied()
            .filter(|&c| matches!(self.slots[c], Slot::InFile { .. }))
            .collect();
        let at: Vec<u32> = match &self.selection {
            Some(selection) => rows.iter().map(|&r| selection[r as usize]).collect(),
            None => rows.to_vec(),
        };
        let mut read = self.read(&in_file, Some(&at), metrics)?.into_iter();
        Ok(columns
            .iter()
            .map(|&c| match &self.slots[c] {
                Slot::Decoded(col) => col.gather(rows),
                Slot::InFile { .. } => read.next().expect("one read column per column in a file"),
            })
            .collect())
    }

    /// Decode `columns`, all still in their files, at `rows` (positions in
    /// the kept row groups; `None` = every row): one read per file, the
    /// result in `columns` order.
    fn read(
        &self,
        columns: &[usize],
        rows: Option<&[u32]>,
        metrics: &mut ExecMetrics,
    ) -> Result<Vec<ColumnData>> {
        let start = Instant::now();
        let mut out: Vec<Option<ColumnData>> = columns.iter().map(|_| None).collect();
        for (at, file) in self.files.iter().enumerate() {
            let (positions, projection): (Vec<usize>, Vec<usize>) = columns
                .iter()
                .enumerate()
                .filter_map(|(k, &c)| match self.slots[c] {
                    Slot::InFile { file, column } if file == at => Some((k, column)),
                    _ => None,
                })
                .unzip();
            if projection.is_empty() {
                continue;
            }
            let cols = read_chunks_at(file, &projection, self.keep.as_deref(), rows, metrics)?;
            for (k, col) in positions.into_iter().zip(cols) {
                out[k] = Some(col);
            }
        }
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(out
            .into_iter()
            .map(|col| col.expect("every column read is in a file"))
            .collect())
    }
}

/// Supplies rows for a scan node, one split at a time.
///
/// `Send + Sync` is a supertrait because the split-parallel executor shares
/// one provider across scoped worker threads, each calling
/// [`ScanProvider::scan_split`] for a different split.
pub trait ScanProvider: Debug + Send + Sync {
    /// Output schema of the scan (what downstream expressions resolve
    /// against).
    fn schema(&self) -> &Schema;

    /// Number of independently scannable splits. The default of 1 is for
    /// providers that produce their whole output in one piece; zero means
    /// an empty table.
    fn split_count(&self) -> usize {
        1
    }

    /// Read one split (`0 <= split < split_count()`), charging that split's
    /// read time/bytes to `metrics`. The table is the rows of every split
    /// concatenated in index order.
    fn scan_split(&self, split: usize, metrics: &mut ExecMetrics) -> Result<Batch>;

    /// Short label for plan display.
    fn label(&self) -> String;
}

/// Read a provider's whole table as rows: every split in index order,
/// materialized. The executor never does this (it consumes batches); tests
/// and the combiner ablation do.
pub fn scan_rows(provider: &dyn ScanProvider, metrics: &mut ExecMetrics) -> Result<Vec<Vec<Cell>>> {
    let mut rows = Vec::new();
    for split in 0..provider.split_count() {
        rows.extend(provider.scan_split(split, metrics)?.into_rows(metrics)?);
    }
    Ok(rows)
}

/// Open one split of `table` through the shared footer cache, charging the
/// hit or miss.
pub fn open_split(table: &Table, split: usize, metrics: &mut ExecMetrics) -> Result<Arc<NorcFile>> {
    let (file, hit) = table.open_split_cached(split)?;
    if hit {
        metrics.meta_cache_hits += 1;
    } else {
        metrics.meta_cache_misses += 1;
    }
    Ok(file)
}

/// Evaluate `sarg` against `file`'s row-group statistics. Match ORC: only
/// single-stripe files support skipping, mirroring the restriction the
/// paper inherits (§IV-F); a multi-stripe file keeps every row group.
pub fn sarg_keep(sarg: &SearchArgument, file: &NorcFile) -> Vec<bool> {
    if file.stripe_count() <= 1 {
        sarg.keep_array(file.row_groups())
    } else {
        vec![true; file.row_group_count()]
    }
}

/// Charge the row groups of `file` a keep-array reads and skips (`None`
/// reads all) and return the rows the read groups hold — what
/// `rows_scanned` and `cache_hits` count, whatever a row selection drops
/// afterwards.
pub fn charge_row_groups(
    metrics: &mut ExecMetrics,
    keep: Option<&[bool]>,
    file: &NorcFile,
) -> usize {
    let mut kept_rows = 0;
    for (rgi, rg) in file.row_groups().enumerate() {
        if keep.is_none_or(|keep| keep[rgi]) {
            metrics.row_groups_read += 1;
            kept_rows += rg.row_count;
        } else {
            metrics.row_groups_skipped += 1;
        }
    }
    kept_rows
}

/// Decode `projection` from `file` under an optional row-group keep-array,
/// at `rows` only (positions in the kept row groups; `None` = every row),
/// charging `bytes_read` once per decoded column — not per materialized
/// row, which would walk every cell on the hot path.
pub fn read_chunks_at(
    file: &NorcFile,
    projection: &[usize],
    keep: Option<&[bool]>,
    rows: Option<&[u32]>,
    metrics: &mut ExecMetrics,
) -> Result<Vec<ColumnData>> {
    let cols = file.read_columns_at(projection, keep, rows)?;
    metrics.bytes_read += cols.iter().map(|c| c.byte_size() as u64).sum::<u64>();
    Ok(cols)
}

/// Algorithm 3 at row granularity, the one read every file-backed provider
/// goes through: decode the columns `sarg` can test row by row under the
/// keep-array and select the rows they pass. The batch holds the tested
/// columns of `projection` at the selected rows and leaves every other one
/// in `file`, to be decoded at those rows (or at the ones its consumer
/// keeps) when it is read; a paired reader over an aligned file adds its
/// columns with [`Columns::pair`], sharing the keep-array and the
/// selection. Rows the selection drops are charged to `batch_rows_skipped`
/// here; the `Filter` above still runs.
pub fn read_chunks(
    file: Arc<NorcFile>,
    projection: &[usize],
    keep: Option<Vec<bool>>,
    sarg: Option<&SearchArgument>,
    metrics: &mut ExecMetrics,
) -> Result<Columns> {
    let tested = sarg.map_or_else(Vec::new, |s| s.row_test_columns(file.schema()));
    let decoded = if tested.is_empty() {
        Vec::new()
    } else {
        read_chunks_at(&file, &tested, keep.as_deref(), None, metrics)?
    };
    let selection = sarg.and_then(|s| s.select_rows(&tested, &decoded));
    let len = match (&selection, decoded.first()) {
        (Some(rows), Some(col)) => {
            metrics.batch_rows_skipped += (col.len() - rows.len()) as u64;
            rows.len()
        }
        (_, Some(col)) => col.len(),
        (_, None) => file
            .row_groups()
            .enumerate()
            .filter(|(rgi, _)| keep.as_ref().is_none_or(|keep| keep[*rgi]))
            .map(|(_, rg)| rg.row_count)
            .sum(),
    };
    let slots = projection
        .iter()
        .map(|&c| match tested.iter().position(|&t| t == c) {
            Some(at) => Slot::Decoded(match &selection {
                Some(rows) => decoded[at].gather(rows),
                None => decoded[at].clone(),
            }),
            None => Slot::InFile { file: 0, column: c },
        })
        .collect();
    Ok(Columns {
        len,
        slots,
        files: vec![file],
        keep,
        selection,
    })
}

/// The default provider: scan a Norc table directory.
#[derive(Debug)]
pub struct NorcScanProvider {
    table: Table,
    /// Column indexes to materialize, in output order.
    projection: Vec<usize>,
    /// Projected schema.
    out_schema: Schema,
    /// Optional SARG used to skip row groups (on raw columns).
    sarg: Option<SearchArgument>,
}

impl NorcScanProvider {
    /// Create a provider over `table`, materializing `projection` columns.
    /// `sarg` column indexes refer to the *table* schema.
    pub fn new(table: Table, projection: Vec<usize>, sarg: Option<SearchArgument>) -> Result<Self> {
        let names: Vec<&str> = projection
            .iter()
            .map(|&i| table.schema().fields()[i].name.as_str())
            .collect();
        let out_schema = table.schema().project(&names)?;
        Ok(NorcScanProvider {
            table,
            projection,
            out_schema,
            sarg,
        })
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }
}

impl ScanProvider for NorcScanProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn split_count(&self) -> usize {
        self.table.file_count()
    }

    fn scan_split(&self, split: usize, metrics: &mut ExecMetrics) -> Result<Batch> {
        let start = Instant::now();
        let file = open_split(&self.table, split, metrics)?;
        let keep = self.sarg.as_ref().map(|s| sarg_keep(s, &file));
        let kept_rows = charge_row_groups(metrics, keep.as_deref(), &file);
        let cols = read_chunks(file, &self.projection, keep, self.sarg.as_ref(), metrics)?;
        metrics.rows_scanned += kept_rows as u64;
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(Batch::Columns(cols))
    }

    fn label(&self) -> String {
        format!(
            "NorcScan({}, cols={:?}{})",
            self.table.dir().display(),
            self.projection,
            if self.sarg.as_ref().is_some_and(|s| !s.is_empty()) {
                ", sarg"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{CmpOp, ColumnType, Field};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-scan-{}-{nanos}-{name}", std::process::id()))
    }

    fn make_table(name: &str, rows_per_file: &[i64], rg_size: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("tag", ColumnType::Utf8),
        ])
        .unwrap();
        let mut t = Table::create(temp_dir(name), schema, 0).unwrap();
        let mut next = 0i64;
        for &n in rows_per_file {
            let rows: Vec<Vec<Cell>> = (next..next + n)
                .map(|i| vec![Cell::Int(i), Cell::from(format!("t{i}"))])
                .collect();
            next += n;
            t.append_file(
                &rows,
                WriteOptions {
                    row_group_size: rg_size,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn scans_all_rows_in_order() {
        let t = make_table("all", &[10, 5], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[0][0], Cell::Int(0));
        assert_eq!(rows[14][0], Cell::Int(14));
        assert_eq!(m.rows_scanned, 15);
        assert!(m.bytes_read > 0);
        assert!(m.read > std::time::Duration::ZERO);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn projection_subsets_columns() {
        let t = make_table("proj", &[6], 10);
        let p = NorcScanProvider::new(t, vec![1], None).unwrap();
        assert_eq!(p.schema().fields()[0].name, "tag");
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows[3], vec![Cell::Str("t3".into())]);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn sarg_skips_row_groups() {
        // 20 rows in row groups of 5: ids 0-4,5-9,10-14,15-19.
        let t = make_table("sarg", &[20], 5);
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(12));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // Groups 0-4 and 5-9 skipped; group 10-14 kept (contains 12+), and
        // its rows 10 and 11 dropped by the row selection.
        assert_eq!(m.row_groups_skipped, 2);
        assert_eq!(m.row_groups_read, 2);
        assert_eq!(m.rows_scanned, 10, "rows of the kept row groups");
        assert_eq!(m.batch_rows_skipped, 2);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0][0], Cell::Int(12));
        p.table.drop_table().unwrap();
    }

    #[test]
    fn multi_stripe_files_disable_skipping() {
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        let mut t = Table::create(temp_dir("multistripe"), schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..20).map(|i| vec![Cell::Int(i)]).collect();
        t.append_file(
            &rows,
            WriteOptions {
                row_group_size: 5,
                row_groups_per_stripe: 1, // 4 stripes
            },
            1,
        )
        .unwrap();
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(100));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(m.row_groups_skipped, 0, "multi-stripe file must not skip");
        assert_eq!(m.rows_scanned, 20);
        // Row selection reads values, not statistics, so it still applies.
        assert_eq!(m.batch_rows_skipped, 20);
        assert!(rows.is_empty());
        p.table.drop_table().unwrap();
    }

    #[test]
    fn split_scan_concatenation_matches_whole_scan() {
        let t = make_table("splits", &[7, 5, 9], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        assert_eq!(p.split_count(), 3);
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
        assert_eq!(split_m.bytes_read, whole_m.bytes_read);
        assert_eq!(split_m.row_groups_read, whole_m.row_groups_read);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn batch_scan_is_columnar_and_charges_bytes_per_chunk() {
        let t = make_table("batch", &[8], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        let mut bm = ExecMetrics::default();
        let batch = p.scan_split(0, &mut bm).unwrap();
        assert!(matches!(batch, Batch::Columns(_)));
        assert_eq!(batch.len(), 8);
        // Nothing is decoded until the consumer reads a column; bytes are
        // charged at decode time.
        assert_eq!(bm.bytes_read, 0);
        assert_eq!(bm.cells_materialized, 0);
        assert_eq!(bm.rows_scanned, 8);
        let rows = batch.into_rows(&mut bm).unwrap();
        assert!(bm.bytes_read > 0);
        assert_eq!(bm.cells_materialized, 16);
        assert_eq!(bm.batch_rows_skipped, 0);
        // The whole-table row read is the batch API plus materialization.
        let mut rm = ExecMetrics::default();
        let via_rows = scan_rows(&p, &mut rm).unwrap();
        assert_eq!(rows, via_rows);
        assert_eq!(rm.bytes_read, bm.bytes_read);
        assert_eq!(rm.cells_materialized, 16);
        p.table.drop_table().unwrap();
    }

    /// The SARG's row selection runs over a column the scan does not even
    /// project, and the projected column is decoded at the selected rows
    /// only.
    #[test]
    fn row_selection_decodes_the_rest_at_selected_rows() {
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("doc", ColumnType::Utf8),
        ])
        .unwrap();
        let mut t = Table::create(temp_dir("rowsel-rest"), schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..6i64)
            .map(|i| {
                let name = if i % 3 == 0 { "banana" } else { "apple" };
                vec![Cell::Int(i), Cell::from(format!(r#"{{"name": "{name}"}}"#))]
            })
            .collect();
        t.append_file(&rows, WriteOptions::default(), 1).unwrap();
        let doc_bytes = rows[0][1].byte_size() as u64 + 3 * rows[1][1].byte_size() as u64;
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(2));
        let p = NorcScanProvider::new(t, vec![1], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let batch = p.scan_split(0, &mut m).unwrap();
        // Rows 2..=5 are decoded densely.
        assert_eq!(batch.len(), 4);
        assert_eq!(
            m.batch_rows_skipped, 2,
            "the selection's drops, charged once"
        );
        assert_eq!(m.rows_scanned, 6, "rows of the kept row groups");
        assert_eq!(m.bytes_read, 6 * 8, "ids whole, documents not yet");
        let out = batch.into_rows(&mut m).unwrap();
        assert_eq!(m.bytes_read, 6 * 8 + doc_bytes, "documents at 4 rows");
        let expect: Vec<Vec<Cell>> = rows[2..].iter().map(|r| vec![r[1].clone()]).collect();
        assert_eq!(out, expect);
        assert_eq!(m.batch_rows_skipped, 2);
        p.table.drop_table().unwrap();
    }

    /// A column left in its file is decoded at the batch rows a consumer
    /// asks for alone, mapped through the SARG's row selection; a decoded
    /// one is gathered at the same rows.
    #[test]
    fn read_at_decodes_only_the_asked_rows_through_the_selection() {
        let t = make_table("readat", &[10], 4);
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(3));
        let p = NorcScanProvider::new(t, vec![1, 0], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let Batch::Columns(cols) = p.scan_split(0, &mut m).unwrap() else {
            panic!("a Norc scan is columnar");
        };
        // Rows 3..=9 are the batch; the tested `id` is decoded already.
        assert_eq!(cols.len(), 7);
        let before = m.bytes_read;
        let read = cols.read_at(&[0, 1], &[1, 4, 6], &mut m).unwrap();
        let tags = ["t4", "t7", "t9"];
        let want: Vec<Cell> = tags.iter().map(|&t| Cell::from(t)).collect();
        assert_eq!((0..3).map(|i| read[0].get(i)).collect::<Vec<_>>(), want);
        let ids: Vec<Cell> = [4, 7, 9].map(Cell::Int).to_vec();
        assert_eq!((0..3).map(|i| read[1].get(i)).collect::<Vec<_>>(), ids);
        assert_eq!(
            m.bytes_read - before,
            6,
            "three two-byte tags, nothing else"
        );
        p.table.drop_table().unwrap();
    }

    #[test]
    fn label_mentions_sarg() {
        let t = make_table("label", &[1], 10);
        let sarg = SearchArgument::new().with(0, CmpOp::Eq, Cell::Int(0));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        assert!(p.label().contains("sarg"));
        p.table.drop_table().unwrap();
    }
}
