//! The Norc file format: writer, reader, and row-group statistics.
//!
//! Layout of a `.norc` file:
//!
//! ```text
//! +---------+-------------------------------+-----------+----------+-------+
//! | "NORC2" | body: encoded column chunks   | footer    | f.len u64| chksum|
//! +---------+-------------------------------+-----------+----------+-------+
//! ```
//!
//! The body is a concatenation of encoded column chunks, one per
//! (stripe, row group, column). The footer records the schema, the stripe
//! directory, and per-(row group, column) offsets, lengths, and min/max
//! statistics. The trailing FNV-1a checksum covers everything before it, so
//! truncation or bit rot is detected on open.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::cell::Cell;
use crate::column::ColumnData;
use crate::encoding::{
    fnv1a, fnv1a_extend, read_f64, read_str, read_varint, write_f64, write_str, write_varint,
    FNV1A_EMPTY,
};
use crate::error::{Result, StorageError};
use crate::schema::{ColumnType, Schema};

/// Magic bytes at the start of every Norc file. The trailing digit is the
/// format version; v2 added dictionary-encoded string streams.
pub const MAGIC: &[u8; 5] = b"NORC2";

/// Rows per row group, matching ORC's default of 10,000 (§IV-F).
pub const DEFAULT_ROW_GROUP_SIZE: usize = 10_000;

/// Tuning knobs for [`NorcWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Rows per row group.
    pub row_group_size: usize,
    /// Row groups per stripe. The paper's pushdown-sharing optimization only
    /// applies to single-stripe files; multi-stripe files exist to test that
    /// restriction.
    pub row_groups_per_stripe: usize,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            row_group_size: DEFAULT_ROW_GROUP_SIZE,
            row_groups_per_stripe: usize::MAX,
        }
    }
}

/// Min/max/null statistics for one column within one row group.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnStats {
    /// Integer column stats.
    Int {
        /// Minimum non-null value, if any value is non-null.
        min: Option<i64>,
        /// Maximum non-null value.
        max: Option<i64>,
        /// Number of NULL rows.
        nulls: u64,
    },
    /// Float column stats.
    Float {
        /// Minimum non-null value.
        min: Option<f64>,
        /// Maximum non-null value.
        max: Option<f64>,
        /// Number of NULL rows.
        nulls: u64,
    },
    /// String column stats (lexicographic min/max, plus numeric min/max over
    /// the values that parse as numbers — needed because JSON-extracted
    /// values are stored as strings but filtered numerically).
    Utf8 {
        /// Lexicographic minimum.
        min: Option<String>,
        /// Lexicographic maximum.
        max: Option<String>,
        /// Numeric minimum over values parsing as f64.
        num_min: Option<f64>,
        /// Numeric maximum over values parsing as f64.
        num_max: Option<f64>,
        /// `true` when every non-null value parsed as a number.
        all_numeric: bool,
        /// Number of NULL rows.
        nulls: u64,
    },
    /// Bool column stats.
    Bool {
        /// Count of `true` rows.
        true_count: u64,
        /// Count of `false` rows.
        false_count: u64,
        /// Number of NULL rows.
        nulls: u64,
    },
}

impl ColumnStats {
    /// Statistics of one row group's column, folded in row order.
    fn of(col: &ColumnData) -> Self {
        fn nulls(valid: &[bool]) -> u64 {
            valid.iter().filter(|v| !**v).count() as u64
        }
        fn present<'c, T>(valid: &'c [bool], values: &'c [T]) -> impl Iterator<Item = &'c T> {
            valid
                .iter()
                .zip(values)
                .filter(|(v, _)| **v)
                .map(|(_, x)| x)
        }
        match col {
            ColumnData::Int64 { valid, values } => ColumnStats::Int {
                min: present(valid, values).copied().min(),
                max: present(valid, values).copied().max(),
                nulls: nulls(valid),
            },
            ColumnData::Float64 { valid, values } => {
                let (mut min, mut max) = (None::<f64>, None::<f64>);
                for &v in present(valid, values) {
                    min = Some(min.map_or(v, |m| m.min(v)));
                    max = Some(max.map_or(v, |m| m.max(v)));
                }
                ColumnStats::Float {
                    min,
                    max,
                    nulls: nulls(valid),
                }
            }
            ColumnData::Utf8 { valid, values } => {
                let (mut min, mut max) = (None::<&str>, None::<&str>);
                let (mut num_min, mut num_max) = (None::<f64>, None::<f64>);
                let mut all_numeric = true;
                for s in present(valid, values) {
                    let s: &str = s;
                    if min.is_none_or(|m| s < m) {
                        min = Some(s);
                    }
                    if max.is_none_or(|m| s > m) {
                        max = Some(s);
                    }
                    match s.trim().parse::<f64>() {
                        Ok(v) => {
                            num_min = Some(num_min.map_or(v, |m| m.min(v)));
                            num_max = Some(num_max.map_or(v, |m| m.max(v)));
                        }
                        Err(_) => all_numeric = false,
                    }
                }
                ColumnStats::Utf8 {
                    min: min.map(str::to_string),
                    max: max.map(str::to_string),
                    num_min,
                    num_max,
                    all_numeric,
                    nulls: nulls(valid),
                }
            }
            ColumnData::Bool { valid, values } => {
                let true_count = present(valid, values).filter(|b| **b).count() as u64;
                let nulls = nulls(valid);
                ColumnStats::Bool {
                    true_count,
                    false_count: valid.len() as u64 - nulls - true_count,
                    nulls,
                }
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        fn write_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
            match v {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    write_varint(out, crate::encoding::zigzag(v));
                }
            }
        }
        fn write_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
            match v {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    write_f64(out, v);
                }
            }
        }
        fn write_opt_str(out: &mut Vec<u8>, v: &Option<String>) {
            match v {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    write_str(out, v);
                }
            }
        }
        match self {
            ColumnStats::Int { min, max, nulls } => {
                out.push(0);
                write_opt_i64(out, *min);
                write_opt_i64(out, *max);
                write_varint(out, *nulls);
            }
            ColumnStats::Float { min, max, nulls } => {
                out.push(1);
                write_opt_f64(out, *min);
                write_opt_f64(out, *max);
                write_varint(out, *nulls);
            }
            ColumnStats::Utf8 {
                min,
                max,
                num_min,
                num_max,
                all_numeric,
                nulls,
            } => {
                out.push(2);
                write_opt_str(out, min);
                write_opt_str(out, max);
                write_opt_f64(out, *num_min);
                write_opt_f64(out, *num_max);
                out.push(u8::from(*all_numeric));
                write_varint(out, *nulls);
            }
            ColumnStats::Bool {
                true_count,
                false_count,
                nulls,
            } => {
                out.push(3);
                write_varint(out, *true_count);
                write_varint(out, *false_count);
                write_varint(out, *nulls);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| StorageError::corrupt("stats truncated"))?;
            *pos += 1;
            Ok(b)
        }
        fn read_opt_i64(buf: &[u8], pos: &mut usize) -> Result<Option<i64>> {
            Ok(if read_u8(buf, pos)? == 1 {
                Some(crate::encoding::unzigzag(read_varint(buf, pos)?))
            } else {
                None
            })
        }
        fn read_opt_f64(buf: &[u8], pos: &mut usize) -> Result<Option<f64>> {
            Ok(if read_u8(buf, pos)? == 1 {
                Some(read_f64(buf, pos)?)
            } else {
                None
            })
        }
        fn read_opt_str(buf: &[u8], pos: &mut usize) -> Result<Option<String>> {
            Ok(if read_u8(buf, pos)? == 1 {
                Some(read_str(buf, pos)?.to_string())
            } else {
                None
            })
        }
        match read_u8(buf, pos)? {
            0 => Ok(ColumnStats::Int {
                min: read_opt_i64(buf, pos)?,
                max: read_opt_i64(buf, pos)?,
                nulls: read_varint(buf, pos)?,
            }),
            1 => Ok(ColumnStats::Float {
                min: read_opt_f64(buf, pos)?,
                max: read_opt_f64(buf, pos)?,
                nulls: read_varint(buf, pos)?,
            }),
            2 => Ok(ColumnStats::Utf8 {
                min: read_opt_str(buf, pos)?,
                max: read_opt_str(buf, pos)?,
                num_min: read_opt_f64(buf, pos)?,
                num_max: read_opt_f64(buf, pos)?,
                all_numeric: read_u8(buf, pos)? == 1,
                nulls: read_varint(buf, pos)?,
            }),
            3 => Ok(ColumnStats::Bool {
                true_count: read_varint(buf, pos)?,
                false_count: read_varint(buf, pos)?,
                nulls: read_varint(buf, pos)?,
            }),
            t => Err(StorageError::corrupt(format!("unknown stats tag {t}"))),
        }
    }
}

/// Statistics and chunk locations for one row group.
#[derive(Debug, Clone)]
pub struct RowGroupStats {
    /// Rows in this group.
    pub row_count: usize,
    /// Per-column (body offset, encoded length).
    pub chunks: Vec<(u64, u64)>,
    /// Per-column min/max statistics.
    pub columns: Vec<ColumnStats>,
}

/// Directory entry for one stripe.
#[derive(Debug, Clone)]
pub struct StripeInfo {
    /// Row groups in this stripe.
    pub row_groups: Vec<RowGroupStats>,
}

impl StripeInfo {
    /// Total rows in the stripe.
    pub fn row_count(&self) -> usize {
        self.row_groups.iter().map(|rg| rg.row_count).sum()
    }
}

/// Streaming writer that buffers a row group at a time and produces a Norc
/// file on [`NorcWriter::finish`]. Rows arrive a row at a time
/// ([`NorcWriter::append_row`]) or a column chunk at a time
/// ([`NorcWriter::append_columns`]); either way they land in the pending
/// row group's column vectors, and a full group is summarised and encoded
/// in one place, so the two entrances cannot produce different bytes.
pub struct NorcWriter {
    path: PathBuf,
    schema: Schema,
    options: WriteOptions,
    body: Vec<u8>,
    stripes: Vec<StripeInfo>,
    current_stripe: Vec<RowGroupStats>,
    pending_cols: Vec<ColumnData>,
    pending_rows: usize,
}

impl NorcWriter {
    /// Start writing a new file at `path` (parent directory must exist).
    pub fn create(path: impl Into<PathBuf>, schema: Schema, options: WriteOptions) -> Result<Self> {
        if options.row_group_size == 0 || options.row_groups_per_stripe == 0 {
            return Err(StorageError::InvalidOperation {
                detail: "row_group_size and row_groups_per_stripe must be positive".into(),
            });
        }
        let pending_cols = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.ty))
            .collect();
        Ok(NorcWriter {
            path: path.into(),
            schema,
            options,
            body: Vec::new(),
            stripes: Vec::new(),
            current_stripe: Vec::new(),
            pending_cols,
            pending_rows: 0,
        })
    }

    /// Append one row. Cells must match the schema positionally.
    pub fn append_row(&mut self, row: &[Cell]) -> Result<()> {
        self.check_width(row.len(), "row", "cells")?;
        for (col, (cell, field)) in self
            .pending_cols
            .iter_mut()
            .zip(row.iter().zip(self.schema.fields()))
        {
            col.push(cell, &field.name)?;
        }
        self.rows_added(1);
        Ok(())
    }

    /// Append a chunk of rows held column-wise: one [`ColumnData`] per
    /// schema column, of the column's type, all of one length. The chunk
    /// may be any length; row groups still close every `row_group_size`
    /// rows, so the file is the one the same rows would give through
    /// [`NorcWriter::append_row`].
    pub fn append_columns(&mut self, columns: &[ColumnData]) -> Result<()> {
        self.check_width(columns.len(), "chunk", "columns")?;
        let rows = columns.first().map_or(0, ColumnData::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(StorageError::ShapeMismatch {
                detail: "column chunk has columns of different lengths".into(),
            });
        }
        for (chunk, field) in columns.iter().zip(self.schema.fields()) {
            if chunk.column_type() != field.ty {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.ty.name(),
                    found: format!("a {} column chunk", chunk.column_type().name()),
                });
            }
        }
        let mut done = 0;
        while done < rows {
            let take = (self.options.row_group_size - self.pending_rows).min(rows - done);
            for (pending, chunk) in self.pending_cols.iter_mut().zip(columns) {
                pending.extend_from(chunk, done..done + take);
            }
            done += take;
            self.rows_added(take);
        }
        Ok(())
    }

    fn check_width(&self, got: usize, what: &str, unit: &str) -> Result<()> {
        if got == self.schema.len() {
            return Ok(());
        }
        Err(StorageError::ShapeMismatch {
            detail: format!(
                "{what} has {got} {unit}, schema has {} columns",
                self.schema.len()
            ),
        })
    }

    fn rows_added(&mut self, rows: usize) {
        self.pending_rows += rows;
        if self.pending_rows >= self.options.row_group_size {
            self.flush_row_group();
        }
    }

    /// Close the pending row group: statistics and encoding of every column
    /// happen here and nowhere else.
    fn flush_row_group(&mut self) {
        if self.pending_rows == 0 {
            return;
        }
        let mut chunks = Vec::with_capacity(self.pending_cols.len());
        let mut columns = Vec::with_capacity(self.pending_cols.len());
        for (col, field) in self.pending_cols.iter_mut().zip(self.schema.fields()) {
            let start = self.body.len() as u64;
            col.encode(&mut self.body);
            chunks.push((start, self.body.len() as u64 - start));
            columns.push(ColumnStats::of(col));
            *col = ColumnData::empty(field.ty);
        }
        let row_count = std::mem::take(&mut self.pending_rows);
        self.current_stripe.push(RowGroupStats {
            row_count,
            chunks,
            columns,
        });
        if self.current_stripe.len() >= self.options.row_groups_per_stripe {
            self.stripes.push(StripeInfo {
                row_groups: std::mem::take(&mut self.current_stripe),
            });
        }
    }

    /// Flush pending data, write the footer and checksum, and return the
    /// written file, which reads through the handle that wrote it.
    pub fn finish(mut self) -> Result<NorcFile> {
        self.flush_row_group();
        if !self.current_stripe.is_empty() {
            self.stripes.push(StripeInfo {
                row_groups: std::mem::take(&mut self.current_stripe),
            });
        }
        let mut out = Vec::with_capacity(self.body.len() + 1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.body);

        let mut footer = Vec::new();
        // Schema.
        write_varint(&mut footer, self.schema.len() as u64);
        for f in self.schema.fields() {
            write_str(&mut footer, &f.name);
            footer.push(f.ty.tag());
        }
        // Stripes.
        write_varint(&mut footer, self.stripes.len() as u64);
        for stripe in &self.stripes {
            write_varint(&mut footer, stripe.row_groups.len() as u64);
            for rg in &stripe.row_groups {
                write_varint(&mut footer, rg.row_count as u64);
                for &(off, len) in &rg.chunks {
                    write_varint(&mut footer, off);
                    write_varint(&mut footer, len);
                }
                for cs in &rg.columns {
                    cs.encode(&mut footer);
                }
            }
        }
        let footer_len = footer.len() as u64;
        out.extend_from_slice(&footer);
        out.extend_from_slice(&footer_len.to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.path)?;
        file.write_all(&out)?;
        Ok(NorcFile {
            path: self.path,
            schema: self.schema,
            stripes: self.stripes,
            file,
            len: out.len() as u64,
        })
    }
}

/// The two values of the `MAXSON_MMAP` variable, which no longer selects
/// anything: Norc reads part files one way. The type, [`MmapMode::parse`]
/// and [`MmapMode::from_env`] exist only for the benchmark harness's knob
/// line, which prints them, until ROADMAP item 1(b) deletes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmapMode {
    /// The variable is unset or names no off spelling.
    Enabled,
    /// The variable is `0`, `false` or `off`.
    Disabled,
}

impl MmapMode {
    /// Parse a `MAXSON_MMAP` value: `0`/`false`/`off` are
    /// [`MmapMode::Disabled`], anything else [`MmapMode::Enabled`].
    pub fn parse(value: &str) -> MmapMode {
        match value.trim() {
            "0" | "false" | "off" => MmapMode::Disabled,
            _ => MmapMode::Enabled,
        }
    }

    /// [`MmapMode::parse`] over the process environment's `MAXSON_MMAP`
    /// (unset = enabled).
    pub fn from_env() -> MmapMode {
        MmapMode::parse(&std::env::var("MAXSON_MMAP").unwrap_or_default())
    }
}

/// Bytes per read while [`NorcFile::open`] streams a file through the
/// checksum.
const OPEN_BUFFER_BYTES: usize = 64 * 1024;

thread_local! {
    /// The buffer this thread's chunk reads land in, grown to the largest
    /// chunk read so far and reused by every later read.
    static CHUNK_BUFFER: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Fill `buf` with the bytes of `file` at `offset`. A file that ends first
/// is an `UnexpectedEof` error.
fn read_at(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    return std::os::unix::fs::FileExt::read_exact_at(file, buf, offset);
    #[cfg(not(unix))]
    {
        // No portable positioned read: seek the handle's shared cursor,
        // one reader at a time.
        use std::io::{Read, Seek, SeekFrom};
        static CURSOR: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = CURSOR.lock().unwrap_or_else(|e| e.into_inner());
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// An opened Norc file: the decoded footer, plus the descriptor it was
/// opened through, which every chunk read goes to.
#[derive(Debug)]
pub struct NorcFile {
    path: PathBuf,
    schema: Schema,
    stripes: Vec<StripeInfo>,
    file: fs::File,
    len: u64,
}

impl NorcFile {
    /// Open and validate a Norc file. The size, the magic and the checksum
    /// over every byte before it are checked by streaming the file through
    /// one fixed buffer; the footer is then read with one positioned read
    /// of the tail and decoded. The descriptor stays open for the file's
    /// life, so every chunk read goes to the inode whose checksum was
    /// verified here, even after the path is renamed over.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = fs::File::open(&path)?;
        let len = file.metadata()?.len();
        if len < (MAGIC.len() + 16) as u64 {
            return Err(StorageError::corrupt("file too short"));
        }
        let cksum_start = len - 8;
        let mut buf = vec![0u8; OPEN_BUFFER_BYTES];
        let mut hash = FNV1A_EMPTY;
        let mut at = 0u64;
        while at < cksum_start {
            let n = (cksum_start - at).min(OPEN_BUFFER_BYTES as u64) as usize;
            read_at(&file, &mut buf[..n], at)?;
            // The first read is at least as long as the magic.
            if at == 0 && &buf[..MAGIC.len()] != MAGIC {
                return Err(StorageError::corrupt("bad magic"));
            }
            hash = fnv1a_extend(hash, &buf[..n]);
            at += n as u64;
        }
        let mut trailer = [0u8; 16];
        read_at(&file, &mut trailer, len - 16)?;
        let [footer_len, stored] = [&trailer[..8], &trailer[8..]]
            .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")));
        if hash != stored {
            return Err(StorageError::corrupt("checksum mismatch"));
        }
        let out_of_range = || StorageError::corrupt("footer length out of range");
        let footer_start = (len - 16)
            .checked_sub(footer_len)
            .filter(|&start| start >= MAGIC.len() as u64)
            .ok_or_else(out_of_range)?;
        let mut footer = vec![0u8; usize::try_from(footer_len).map_err(|_| out_of_range())?];
        read_at(&file, &mut footer, footer_start)?;
        let (schema, stripes) = decode_footer(&footer, footer_start - MAGIC.len() as u64)?;
        Ok(NorcFile {
            path,
            schema,
            stripes,
            file,
            len,
        })
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Path this file was opened from / written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stripe directory.
    pub fn stripes(&self) -> &[StripeInfo] {
        &self.stripes
    }

    /// Number of stripes (the pushdown-sharing restriction checks `== 1`).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.stripes.iter().map(StripeInfo::row_count).sum()
    }

    /// All row groups across stripes, in row order.
    pub fn row_groups(&self) -> impl Iterator<Item = &RowGroupStats> {
        self.stripes.iter().flat_map(|s| s.row_groups.iter())
    }

    /// Total number of row groups.
    pub fn row_group_count(&self) -> usize {
        self.stripes.iter().map(|s| s.row_groups.len()).sum()
    }

    /// Size on disk in bytes.
    pub fn byte_size(&self) -> usize {
        self.len as usize
    }

    /// Read the requested columns for the row groups where `keep` is true
    /// (or all row groups when `keep` is `None`). Returns one concatenated
    /// [`ColumnData`] per requested column, in request order.
    pub fn read_columns(
        &self,
        columns: &[usize],
        keep: Option<&[bool]>,
    ) -> Result<Vec<ColumnData>> {
        self.read_columns_at(columns, keep, None)
    }

    /// [`NorcFile::read_columns`] restricted to `rows`: ascending positions
    /// in the concatenation of the kept row groups (`None` = every row).
    /// Each kept chunk is read with one positioned read into this thread's
    /// reused buffer and decoded once, straight into the output column; a
    /// row group none of whose rows is wanted is not read at all. A file
    /// shortened since it was opened is an [`StorageError::Io`].
    pub fn read_columns_at(
        &self,
        columns: &[usize],
        keep: Option<&[bool]>,
        rows: Option<&[u32]>,
    ) -> Result<Vec<ColumnData>> {
        if let Some(keep) = keep {
            if keep.len() != self.row_group_count() {
                return Err(StorageError::ShapeMismatch {
                    detail: format!(
                        "keep array has {} entries, file has {} row groups",
                        keep.len(),
                        self.row_group_count()
                    ),
                });
            }
        }
        let kept = || {
            self.row_groups()
                .enumerate()
                .filter(|(rgi, _)| keep.is_none_or(|keep| keep[*rgi]))
                .map(|(_, rg)| rg)
        };
        let kept_rows: usize = kept().map(|rg| rg.row_count).sum();
        if rows.is_some_and(|rows| {
            rows.last().is_some_and(|&r| r as usize >= kept_rows)
                || rows.windows(2).any(|pair| pair[0] >= pair[1])
        }) {
            return Err(StorageError::ShapeMismatch {
                detail: format!("row selection is not ascending within the {kept_rows} kept rows"),
            });
        }
        let mut out: Vec<ColumnData> = columns
            .iter()
            .map(|&c| ColumnData::empty(self.schema.fields()[c].ty))
            .collect();
        for col in &mut out {
            col.reserve(rows.map_or(kept_rows, <[u32]>::len));
        }
        // Taken, not borrowed: an error drops it, and the next read grows a
        // fresh one.
        let mut chunk = CHUNK_BUFFER.take();
        // Unvisited tail of `rows`, and the chunk-local indexes of the rows
        // that fall into the current row group.
        let mut ahead = rows;
        let mut local: Vec<u32> = Vec::new();
        let mut base = 0usize;
        for rg in kept() {
            let end = base + rg.row_count;
            let select = ahead.as_mut().map(|ahead| {
                let here = ahead.partition_point(|&r| (r as usize) < end);
                local.clear();
                local.extend(ahead[..here].iter().map(|&r| r - base as u32));
                *ahead = &ahead[here..];
                local.as_slice()
            });
            base = end;
            if select.is_some_and(<[u32]>::is_empty) {
                continue;
            }
            for (col, &c) in out.iter_mut().zip(columns) {
                // `open` checked every chunk against the body's length.
                let (off, len) = rg.chunks[c];
                let len = len as usize;
                if chunk.len() < len {
                    chunk.resize(len, 0);
                }
                read_at(&self.file, &mut chunk[..len], MAGIC.len() as u64 + off)?;
                if col.decode_into(&chunk[..len], &mut 0, select)? != rg.row_count {
                    return Err(StorageError::corrupt("chunk row count mismatch"));
                }
            }
        }
        CHUNK_BUFFER.set(chunk);
        Ok(out)
    }

    /// Materialize full rows (all columns), mostly for tests and examples.
    pub fn read_all_rows(&self) -> Result<Vec<Vec<Cell>>> {
        let cols: Vec<usize> = (0..self.schema.len()).collect();
        let data = self.read_columns(&cols, None)?;
        let n = data.first().map_or(0, ColumnData::len);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(data.iter().map(|c| c.get(i)).collect());
        }
        Ok(rows)
    }
}

/// Decode a footer whose file's body (the chunks, after the magic) is
/// `body_len` bytes. Every chunk must lie inside the body and hold the
/// validity bits of its row group's rows.
fn decode_footer(footer: &[u8], body_len: u64) -> Result<(Schema, Vec<StripeInfo>)> {
    let mut pos = 0usize;
    // Schema.
    let ncols = read_varint(footer, &mut pos)? as usize;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = read_str(footer, &mut pos)?;
        let tag = *footer
            .get(pos)
            .ok_or_else(|| StorageError::corrupt("schema truncated"))?;
        pos += 1;
        fields.push(crate::schema::Field::new(name, ColumnType::from_tag(tag)?));
    }
    let schema = Schema::new(fields).map_err(|e| StorageError::corrupt(e.to_string()))?;
    // Stripes.
    let nstripes = read_varint(footer, &mut pos)? as usize;
    let mut stripes = Vec::with_capacity(nstripes);
    for _ in 0..nstripes {
        let nrg = read_varint(footer, &mut pos)? as usize;
        let mut row_groups = Vec::with_capacity(nrg);
        for _ in 0..nrg {
            let row_count = read_varint(footer, &mut pos)?;
            let mut chunks = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let off = read_varint(footer, &mut pos)?;
                let len = read_varint(footer, &mut pos)?;
                if off.checked_add(len).is_none_or(|end| end > body_len) {
                    return Err(StorageError::corrupt("chunk out of range"));
                }
                // A chunk opens with one validity bit per row, so its
                // bytes bound the row count readers reserve for.
                if row_count.div_ceil(8) > len {
                    return Err(StorageError::corrupt(
                        "row group declares more rows than its chunks hold",
                    ));
                }
                chunks.push((off, len));
            }
            let row_count = row_count as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(ColumnStats::decode(footer, &mut pos)?);
            }
            row_groups.push(RowGroupStats {
                row_count,
                chunks,
                columns,
            });
        }
        stripes.push(StripeInfo { row_groups });
    }
    Ok((schema, stripes))
}

/// Convenience: write `rows` to `path` in one call.
pub fn write_rows(
    path: impl Into<PathBuf>,
    schema: Schema,
    rows: &[Vec<Cell>],
    options: WriteOptions,
) -> Result<NorcFile> {
    let mut w = NorcWriter::create(path, schema, options)?;
    for row in rows {
        w.append_row(row)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("maxson-storage-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.norc", std::process::id()))
    }

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("name", ColumnType::Utf8),
            Field::new("score", ColumnType::Float64),
        ])
        .unwrap()
    }

    fn sample_rows(n: usize) -> Vec<Vec<Cell>> {
        (0..n)
            .map(|i| {
                vec![
                    Cell::Int(i as i64),
                    if i % 7 == 0 {
                        Cell::Null
                    } else {
                        Cell::from(format!("name-{i}"))
                    },
                    Cell::Float(i as f64 / 2.0),
                ]
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let path = temp_path("round-trip");
        let rows = sample_rows(25);
        let opts = WriteOptions {
            row_group_size: 10,
            ..Default::default()
        };
        write_rows(&path, sample_schema(), &rows, opts).unwrap();
        let f = NorcFile::open(&path).unwrap();
        assert_eq!(f.num_rows(), 25);
        assert_eq!(f.row_group_count(), 3);
        assert_eq!(f.stripe_count(), 1);
        assert_eq!(f.read_all_rows().unwrap(), rows);
    }

    #[test]
    fn stripe_splitting() {
        let path = temp_path("stripes");
        let opts = WriteOptions {
            row_group_size: 5,
            row_groups_per_stripe: 2,
        };
        write_rows(&path, sample_schema(), &sample_rows(23), opts).unwrap();
        let f = NorcFile::open(&path).unwrap();
        // 5 row groups of (5,5,5,5,3) -> stripes of 2,2,1 row groups.
        assert_eq!(f.row_group_count(), 5);
        assert_eq!(f.stripe_count(), 3);
        assert_eq!(f.num_rows(), 23);
    }

    #[test]
    fn row_group_stats_are_correct() {
        let path = temp_path("stats");
        let opts = WriteOptions {
            row_group_size: 10,
            ..Default::default()
        };
        write_rows(&path, sample_schema(), &sample_rows(20), opts).unwrap();
        let f = NorcFile::open(&path).unwrap();
        let rgs: Vec<_> = f.row_groups().collect();
        match &rgs[1].columns[0] {
            ColumnStats::Int { min, max, nulls } => {
                assert_eq!(*min, Some(10));
                assert_eq!(*max, Some(19));
                assert_eq!(*nulls, 0);
            }
            other => panic!("unexpected stats {other:?}"),
        }
        match &rgs[0].columns[1] {
            ColumnStats::Utf8 {
                nulls, all_numeric, ..
            } => {
                assert_eq!(*nulls, 2); // rows 0 and 7
                assert!(!all_numeric);
            }
            other => panic!("unexpected stats {other:?}"),
        }
    }

    #[test]
    fn numeric_string_stats_tracked() {
        let path = temp_path("numstats");
        let schema = Schema::new(vec![Field::new("v", ColumnType::Utf8)]).unwrap();
        let rows: Vec<Vec<Cell>> = [("5"), ("40"), ("12")]
            .iter()
            .map(|s| vec![Cell::from(*s)])
            .collect();
        write_rows(&path, schema, &rows, WriteOptions::default()).unwrap();
        let f = NorcFile::open(&path).unwrap();
        let rg = f.row_groups().next().unwrap();
        match &rg.columns[0] {
            ColumnStats::Utf8 {
                num_min,
                num_max,
                all_numeric,
                ..
            } => {
                assert_eq!(*num_min, Some(5.0));
                assert_eq!(*num_max, Some(40.0));
                assert!(all_numeric);
            }
            other => panic!("unexpected stats {other:?}"),
        }
    }

    #[test]
    fn selective_column_and_row_group_reads() {
        let path = temp_path("selective");
        let opts = WriteOptions {
            row_group_size: 10,
            ..Default::default()
        };
        write_rows(&path, sample_schema(), &sample_rows(30), opts).unwrap();
        let f = NorcFile::open(&path).unwrap();
        let keep = vec![false, true, false];
        let cols = f.read_columns(&[0], Some(&keep)).unwrap();
        assert_eq!(cols[0].len(), 10);
        assert_eq!(cols[0].get(0), Cell::Int(10));
        assert_eq!(cols[0].get(9), Cell::Int(19));
    }

    #[test]
    fn row_selection_reads_across_row_groups() {
        let path = temp_path("selected");
        let opts = WriteOptions {
            row_group_size: 10,
            ..Default::default()
        };
        let rows = sample_rows(35);
        let f = write_rows(&path, sample_schema(), &rows, opts).unwrap();
        // Kept groups hold rows 0..10 and 20..35; positions count within them.
        let keep = [true, false, true, true];
        let at = [0u32, 9, 10, 11, 24];
        let cols = f.read_columns_at(&[1, 0], Some(&keep), Some(&at)).unwrap();
        let ids: Vec<Cell> = (0..at.len()).map(|i| cols[1].get(i)).collect();
        assert_eq!(ids, [0, 9, 20, 21, 34].map(Cell::Int));
        assert_eq!(cols[0].get(0), Cell::Null);
        assert_eq!(cols[0].get(4), Cell::from("name-34"));
        // Nothing selected decodes nothing; the shape stays.
        let none = f.read_columns_at(&[0, 1], None, Some(&[])).unwrap();
        assert!(none.iter().all(ColumnData::is_empty) && none.len() == 2);
        for bad in [&[25u32][..], &[3, 3], &[4, 2]] {
            assert!(matches!(
                f.read_columns_at(&[0], Some(&keep), Some(bad)),
                Err(StorageError::ShapeMismatch { .. })
            ));
        }
    }

    /// A footer with a valid checksum whose row count no chunk could hold
    /// is refused at open, before any reader reserves for it.
    #[test]
    fn hostile_footer_row_count_rejected_at_open() {
        let path = temp_path("hostile-footer");
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap();
        let rows: Vec<Vec<Cell>> = (0..5).map(|i| vec![Cell::Int(i)]).collect();
        write_rows(&path, schema, &rows, WriteOptions::default()).unwrap();
        let bytes = fs::read(&path).unwrap();
        let footer_len =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        let footer_start = bytes.len() - 16 - footer_len as usize;
        // ncols, name, type tag, stripe count, row-group count, row count.
        let at = footer_start + 6;
        assert_eq!(bytes[at], 5);
        for huge in [u64::from(u32::MAX), u64::MAX] {
            let mut hostile = bytes[..at].to_vec();
            write_varint(&mut hostile, huge);
            hostile.extend_from_slice(&bytes[at + 1..bytes.len() - 16]);
            let footer_len = (hostile.len() - footer_start) as u64;
            hostile.extend_from_slice(&footer_len.to_le_bytes());
            let checksum = fnv1a(&hostile);
            hostile.extend_from_slice(&checksum.to_le_bytes());
            fs::write(&path, &hostile).unwrap();
            assert!(matches!(
                NorcFile::open(&path),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    /// A footer-length field with a valid checksum that no file could hold
    /// is refused at open; the tail read's bound cannot overflow on it.
    #[test]
    fn hostile_footer_length_rejected_at_open() {
        let path = temp_path("hostile-footer-len");
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap();
        let rows: Vec<Vec<Cell>> = (0..5).map(|i| vec![Cell::Int(i)]).collect();
        write_rows(&path, schema, &rows, WriteOptions::default()).unwrap();
        let bytes = fs::read(&path).unwrap();
        for footer_len in [u64::MAX, u64::MAX - 20] {
            let mut hostile = bytes[..bytes.len() - 16].to_vec();
            hostile.extend_from_slice(&footer_len.to_le_bytes());
            let checksum = fnv1a(&hostile);
            hostile.extend_from_slice(&checksum.to_le_bytes());
            fs::write(&path, &hostile).unwrap();
            assert!(matches!(
                NorcFile::open(&path),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn keep_array_shape_checked() {
        let path = temp_path("keepshape");
        write_rows(
            &path,
            sample_schema(),
            &sample_rows(5),
            WriteOptions::default(),
        )
        .unwrap();
        let f = NorcFile::open(&path).unwrap();
        assert!(f.read_columns(&[0], Some(&[true, false])).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let path = temp_path("corrupt");
        write_rows(
            &path,
            sample_schema(),
            &sample_rows(10),
            WriteOptions::default(),
        )
        .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            NorcFile::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let path = temp_path("truncated");
        write_rows(
            &path,
            sample_schema(),
            &sample_rows(10),
            WriteOptions::default(),
        )
        .unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(NorcFile::open(&path).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("badmagic");
        fs::write(&path, b"NOTNORC-file-content-that-is-long-enough").unwrap();
        assert!(NorcFile::open(&path).is_err());
    }

    #[test]
    fn empty_file_round_trips() {
        let path = temp_path("empty");
        write_rows(&path, sample_schema(), &[], WriteOptions::default()).unwrap();
        let f = NorcFile::open(&path).unwrap();
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.row_group_count(), 0);
        assert!(f.read_all_rows().unwrap().is_empty());
    }

    /// `rows` as one column chunk per schema column.
    fn to_columns(schema: &Schema, rows: &[Vec<Cell>]) -> Vec<ColumnData> {
        let mut cols: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.ty))
            .collect();
        for row in rows {
            for ((col, cell), field) in cols.iter_mut().zip(row).zip(schema.fields()) {
                col.push(cell, &field.name).unwrap();
            }
        }
        cols
    }

    /// Rows that exercise every stats and encoding branch: nulls, a
    /// dictionary-worthy string column, a numeric-string column, bools.
    fn mixed_rows(n: usize) -> (Schema, Vec<Vec<Cell>>) {
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("name", ColumnType::Utf8),
            Field::new("score", ColumnType::Float64),
            Field::new("tag", ColumnType::Utf8),
            Field::new("num", ColumnType::Utf8),
            Field::new("flag", ColumnType::Bool),
        ])
        .unwrap();
        let rows = (0..n)
            .map(|i| {
                vec![
                    Cell::Int(i as i64 * 3 - 40),
                    if i % 7 == 0 {
                        Cell::Null
                    } else {
                        Cell::from(format!("name-{i}"))
                    },
                    if i % 11 == 3 {
                        Cell::Null
                    } else {
                        Cell::Float(i as f64 / 2.0)
                    },
                    Cell::from(["red", "green", "blue"][i % 3]),
                    if i % 5 == 4 {
                        Cell::Null
                    } else {
                        Cell::from(format!("{}", (i * 37) % 101))
                    },
                    if i % 13 == 0 {
                        Cell::Null
                    } else {
                        Cell::Bool(i % 2 == 0)
                    },
                ]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn column_chunks_round_trip_across_row_group_boundaries() {
        let path = temp_path("col-round-trip");
        let (schema, rows) = mixed_rows(103);
        let opts = WriteOptions {
            row_group_size: 10,
            row_groups_per_stripe: 3,
        };
        let mut w = NorcWriter::create(&path, schema.clone(), opts).unwrap();
        // Chunk lengths that neither divide nor align with the row group:
        // one inside a group, one spanning four, a one-row chunk, the rest.
        let mut at = 0;
        for len in [7, 36, 1, 0, 59] {
            w.append_columns(&to_columns(&schema, &rows[at..at + len]))
                .unwrap();
            at += len;
        }
        assert_eq!(at, rows.len());
        let f = w.finish().unwrap();
        assert_eq!(f.row_group_count(), 11);
        assert_eq!(f.stripe_count(), 4);
        assert!(f.row_groups().take(10).all(|rg| rg.row_count == 10));
        assert_eq!(
            NorcFile::open(&path).unwrap().read_all_rows().unwrap(),
            rows
        );
    }

    #[test]
    fn rows_and_column_chunks_write_identical_bytes() {
        let (schema, rows) = mixed_rows(257);
        for (row_group_size, chunk) in [(10, 7), (64, 257), (1000, 100), (1, 3)] {
            let opts = WriteOptions {
                row_group_size,
                row_groups_per_stripe: 4,
            };
            let by_rows = temp_path("ident-rows");
            write_rows(&by_rows, schema.clone(), &rows, opts).unwrap();
            let by_cols = temp_path("ident-cols");
            let mut w = NorcWriter::create(&by_cols, schema.clone(), opts).unwrap();
            for part in rows.chunks(chunk) {
                w.append_columns(&to_columns(&schema, part)).unwrap();
            }
            w.finish().unwrap();
            // Stats, dictionary/plain choice, footer and checksum included.
            assert_eq!(
                fs::read(&by_rows).unwrap(),
                fs::read(&by_cols).unwrap(),
                "row_group_size {row_group_size}, chunks of {chunk}"
            );
            // The two entrances mix freely, too.
            let mixed = temp_path("ident-mixed");
            let mut w = NorcWriter::create(&mixed, schema.clone(), opts).unwrap();
            w.append_row(&rows[0]).unwrap();
            w.append_columns(&to_columns(&schema, &rows[1..200]))
                .unwrap();
            for row in &rows[200..] {
                w.append_row(row).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(fs::read(&by_rows).unwrap(), fs::read(&mixed).unwrap());
        }
    }

    #[test]
    fn malformed_column_chunks_rejected() {
        let path = temp_path("col-shape");
        let schema = sample_schema();
        let mut w = NorcWriter::create(&path, schema.clone(), WriteOptions::default()).unwrap();
        let mut cols = to_columns(&schema, &sample_rows(4));
        // Wrong arity.
        assert!(matches!(
            w.append_columns(&cols[..2]),
            Err(StorageError::ShapeMismatch { .. })
        ));
        // Ragged lengths.
        cols[2] = to_columns(&schema, &sample_rows(3)).swap_remove(2);
        assert!(matches!(
            w.append_columns(&cols),
            Err(StorageError::ShapeMismatch { .. })
        ));
        // A chunk of the wrong type names the column.
        cols[2] = ColumnData::Utf8 {
            valid: vec![true; 4],
            values: vec!["x".into(); 4],
        };
        let err = w.append_columns(&cols).unwrap_err();
        assert!(err.to_string().contains("score"), "{err}");
    }

    #[test]
    fn wrong_arity_row_rejected() {
        let path = temp_path("arity");
        let mut w = NorcWriter::create(&path, sample_schema(), WriteOptions::default()).unwrap();
        assert!(w.append_row(&[Cell::Int(1)]).is_err());
    }
}
