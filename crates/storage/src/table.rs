//! Tables as directories of immutable Norc files.
//!
//! A table mirrors the paper's Hive-on-HDFS layout: an ordered list of
//! part files plus a metadata document. Appends add whole files and bump the
//! table's logical modification time; existing files are never rewritten
//! (§II-B: the warehouse is append-only, and appended data is almost never
//! modified).
//!
//! File index = split index: Maxson's cacher writes cache file *k* from raw
//! file *k*, so positional row alignment holds per split (§IV-C).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use maxson_json::{parse as json_parse, to_string_pretty, JsonValue};

use crate::cell::Cell;
use crate::error::{Result, StorageError};
use crate::file::{write_rows, NorcFile, WriteOptions};
use crate::metacache::NorcMetaCache;
use crate::schema::{ColumnType, Field, Schema};

/// Name of the metadata document inside a table directory.
const META_FILE: &str = "_meta.json";

/// Name of part file `index`.
fn part_name(index: usize) -> String {
    format!("part-{index:05}.norc")
}

/// A table on disk: directory + metadata.
#[derive(Debug, Clone)]
pub struct Table {
    dir: PathBuf,
    schema: Schema,
    /// Logical modification timestamp (simulation clock ticks).
    modified_at: u64,
    /// Ordered part-file names.
    files: Vec<String>,
    /// Shared footer/index cache splits are opened through (attached by the
    /// owning [`crate::Catalog`]; clones keep the same cache).
    meta_cache: Option<Arc<NorcMetaCache>>,
}

impl Table {
    /// Create a new empty table directory. Fails if it already exists.
    pub fn create(dir: impl Into<PathBuf>, schema: Schema, now: u64) -> Result<Self> {
        let dir = dir.into();
        if dir.exists() {
            return Err(StorageError::InvalidOperation {
                detail: format!("table directory {} already exists", dir.display()),
            });
        }
        fs::create_dir_all(&dir)?;
        let table = Table {
            dir,
            schema,
            modified_at: now,
            files: Vec::new(),
            meta_cache: None,
        };
        table.write_meta()?;
        Ok(table)
    }

    /// Open an existing table directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let meta_path = dir.join(META_FILE);
        let bytes = fs::read(&meta_path).map_err(|_| StorageError::NotFound {
            what: format!("table metadata {}", meta_path.display()),
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| StorageError::corrupt("table metadata is not UTF-8"))?;
        let doc = json_parse(&text).map_err(|e| StorageError::corrupt(e.to_string()))?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| StorageError::corrupt(format!("meta {key} is not an array")))
        };
        let mut fields = Vec::new();
        for item in array("schema")? {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| StorageError::corrupt("field missing name"))?;
            let ty = item
                .get("type")
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| StorageError::corrupt("field missing type"))?;
            let tag = u8::try_from(ty)
                .map_err(|_| StorageError::corrupt(format!("unknown column type tag {ty}")))?;
            fields.push(Field::new(name, ColumnType::from_tag(tag)?));
        }
        let schema = Schema::new(fields).map_err(|e| StorageError::corrupt(e.to_string()))?;
        let modified_at = doc
            .get("modified_at")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| StorageError::corrupt("meta missing modified_at"))?;
        let modified_at = u64::try_from(modified_at)
            .map_err(|_| StorageError::corrupt(format!("negative modified_at {modified_at}")))?;
        let files = array("files")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| StorageError::corrupt("a files entry is not a string"))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            dir,
            schema,
            modified_at,
            files,
            meta_cache: None,
        })
    }

    /// Attach (or detach) the shared footer/index cache used by
    /// [`Table::open_split`].
    pub fn set_meta_cache(&mut self, cache: Option<Arc<NorcMetaCache>>) {
        self.meta_cache = cache;
    }

    /// The attached footer/index cache, if any.
    pub fn meta_cache(&self) -> Option<&Arc<NorcMetaCache>> {
        self.meta_cache.as_ref()
    }

    fn write_meta(&self) -> Result<()> {
        let schema_json = JsonValue::Array(
            self.schema
                .fields()
                .iter()
                .map(|f| {
                    JsonValue::Object(vec![
                        ("name".to_string(), JsonValue::from(f.name.as_str())),
                        ("type".to_string(), JsonValue::from(i64::from(f.ty.tag()))),
                    ])
                })
                .collect(),
        );
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), schema_json),
            (
                "modified_at".to_string(),
                JsonValue::from(self.modified_at as i64),
            ),
            (
                "files".to_string(),
                JsonValue::Array(
                    self.files
                        .iter()
                        .map(|f| JsonValue::from(f.as_str()))
                        .collect(),
                ),
            ),
        ]);
        fs::write(self.dir.join(META_FILE), to_string_pretty(&doc))?;
        Ok(())
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Logical timestamp of the last modification (append).
    pub fn modified_at(&self) -> u64 {
        self.modified_at
    }

    /// Number of part files (= number of splits).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Ordered part-file names.
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Append `rows` as a new part file and bump the modification time.
    pub fn append_file(
        &mut self,
        rows: &[Vec<Cell>],
        options: WriteOptions,
        now: u64,
    ) -> Result<PathBuf> {
        let path = self.part_path(self.files.len());
        write_rows(&path, self.schema.clone(), rows, options)?;
        self.register_parts(1, now)?;
        Ok(path)
    }

    /// Where part file `index` lives. Writers that build several parts of
    /// one table at once write them here and then call
    /// [`Table::register_parts`].
    pub fn part_path(&self, index: usize) -> PathBuf {
        self.dir.join(part_name(index))
    }

    /// Make the next `count` part files — already written at their
    /// [`Table::part_path`]s — part of the table: one metadata write for
    /// all of them, and the modification time bumped. A missing file is an
    /// error and registers nothing.
    pub fn register_parts(&mut self, count: usize, now: u64) -> Result<()> {
        let first = self.files.len();
        if let Some(missing) = (first..first + count).find(|&i| !self.part_path(i).is_file()) {
            return Err(StorageError::NotFound {
                what: format!("part file {}", self.part_path(missing).display()),
            });
        }
        self.files.extend((first..first + count).map(part_name));
        self.modified_at = self.modified_at.max(now);
        self.write_meta()
    }

    /// Touch the modification timestamp without changing data — used by
    /// failure-injection tests to invalidate caches.
    pub fn touch(&mut self, now: u64) -> Result<()> {
        self.modified_at = self.modified_at.max(now);
        self.write_meta()
    }

    /// Open split `index` (one file = one split).
    pub fn open_split(&self, index: usize) -> Result<Arc<NorcFile>> {
        self.open_split_cached(index).map(|(file, _)| file)
    }

    /// Open split `index`, reporting whether the decoded footer/index came
    /// from the shared metadata cache (`true`) or a fresh disk read.
    pub fn open_split_cached(&self, index: usize) -> Result<(Arc<NorcFile>, bool)> {
        let name = self
            .files
            .get(index)
            .ok_or_else(|| StorageError::NotFound {
                what: format!("split {index} of table {}", self.dir.display()),
            })?;
        let path = self.dir.join(name);
        match &self.meta_cache {
            Some(cache) => cache.open(&path),
            None => Ok((Arc::new(NorcFile::open(path)?), false)),
        }
    }

    /// A reader positioned over all splits.
    pub fn reader(&self) -> TableReader<'_> {
        TableReader {
            table: self,
            split: 0,
        }
    }

    /// Total rows across all splits (opens every file).
    pub fn num_rows(&self) -> Result<usize> {
        let mut n = 0;
        for i in 0..self.files.len() {
            n += self.open_split(i)?.num_rows();
        }
        Ok(n)
    }

    /// Total bytes on disk across part files.
    pub fn byte_size(&self) -> Result<u64> {
        let mut total = 0;
        for name in &self.files {
            total += fs::metadata(self.dir.join(name))?.len();
        }
        Ok(total)
    }

    /// Delete the table directory entirely.
    pub fn drop_table(self) -> Result<()> {
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// Sequential split-by-split reader over a table.
#[derive(Debug)]
pub struct TableReader<'t> {
    table: &'t Table,
    split: usize,
}

impl Iterator for TableReader<'_> {
    type Item = Result<Arc<NorcFile>>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.split >= self.table.file_count() {
            return None;
        }
        let f = self.table.open_split(self.split);
        self.split += 1;
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maxson-table-{}-{}-{name}",
            std::process::id(),
            rand_suffix()
        ));
        dir
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos() as u64
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap()
    }

    fn rows(from: i64, n: i64) -> Vec<Vec<Cell>> {
        (from..from + n)
            .map(|i| vec![Cell::Int(i), Cell::from(format!("{{\"v\":{i}}}"))])
            .collect()
    }

    #[test]
    fn create_append_reopen() {
        let dir = temp_dir("car");
        let mut t = Table::create(&dir, schema(), 100).unwrap();
        t.append_file(&rows(0, 10), WriteOptions::default(), 101)
            .unwrap();
        t.append_file(&rows(10, 5), WriteOptions::default(), 102)
            .unwrap();
        assert_eq!(t.file_count(), 2);
        assert_eq!(t.modified_at(), 102);
        assert_eq!(t.num_rows().unwrap(), 15);

        let t2 = Table::open(&dir).unwrap();
        assert_eq!(t2.schema(), t.schema());
        assert_eq!(t2.modified_at(), 102);
        assert_eq!(t2.files(), t.files());
        let split = t2.open_split(1).unwrap();
        assert_eq!(split.num_rows(), 5);
        assert_eq!(split.read_all_rows().unwrap()[0][0], Cell::Int(10));
        t.drop_table().unwrap();
    }

    #[test]
    fn create_twice_fails() {
        let dir = temp_dir("dup");
        let t = Table::create(&dir, schema(), 0).unwrap();
        assert!(Table::create(&dir, schema(), 0).is_err());
        t.drop_table().unwrap();
    }

    #[test]
    fn open_missing_fails() {
        assert!(Table::open(temp_dir("missing")).is_err());
    }

    #[test]
    fn reader_iterates_splits_in_order() {
        let dir = temp_dir("iter");
        let mut t = Table::create(&dir, schema(), 0).unwrap();
        for k in 0..3 {
            t.append_file(&rows(k * 10, 10), WriteOptions::default(), k as u64)
                .unwrap();
        }
        let firsts: Vec<Cell> = t
            .reader()
            .map(|f| f.unwrap().read_all_rows().unwrap()[0][0].clone())
            .collect();
        assert_eq!(firsts, vec![Cell::Int(0), Cell::Int(10), Cell::Int(20)]);
        t.drop_table().unwrap();
    }

    #[test]
    fn parts_written_elsewhere_register_with_one_meta_write() {
        let dir = temp_dir("register");
        let mut t = Table::create(&dir, schema(), 0).unwrap();
        t.append_file(&rows(0, 4), WriteOptions::default(), 1)
            .unwrap();
        // Parts 1 and 2 are written by someone else, out of order.
        for (k, from) in [(2, 8), (1, 4)] {
            write_rows(
                t.part_path(k),
                schema(),
                &rows(from, 4),
                WriteOptions::default(),
            )
            .unwrap();
        }
        // Part 3 was never written: nothing is registered.
        assert!(matches!(
            t.register_parts(3, 5),
            Err(StorageError::NotFound { .. })
        ));
        assert_eq!((t.file_count(), t.modified_at()), (1, 1));
        t.register_parts(2, 5).unwrap();
        assert_eq!((t.file_count(), t.modified_at()), (3, 5));
        let reopened = Table::open(&dir).unwrap();
        assert_eq!(reopened.files(), t.files());
        let firsts: Vec<Cell> = reopened
            .reader()
            .map(|f| f.unwrap().read_all_rows().unwrap()[0][0].clone())
            .collect();
        assert_eq!(firsts, vec![Cell::Int(0), Cell::Int(4), Cell::Int(8)]);
        t.drop_table().unwrap();
    }

    #[test]
    fn touch_bumps_mod_time_monotonically() {
        let dir = temp_dir("touch");
        let mut t = Table::create(&dir, schema(), 10).unwrap();
        t.touch(50).unwrap();
        assert_eq!(t.modified_at(), 50);
        t.touch(20).unwrap(); // never goes backwards
        assert_eq!(t.modified_at(), 50);
        t.drop_table().unwrap();
    }

    #[test]
    fn out_of_range_split_errors() {
        let dir = temp_dir("oor");
        let t = Table::create(&dir, schema(), 0).unwrap();
        assert!(t.open_split(0).is_err());
        t.drop_table().unwrap();
    }

    #[test]
    fn byte_size_counts_part_files() {
        let dir = temp_dir("bytes");
        let mut t = Table::create(&dir, schema(), 0).unwrap();
        assert_eq!(t.byte_size().unwrap(), 0);
        t.append_file(&rows(0, 100), WriteOptions::default(), 1)
            .unwrap();
        assert!(t.byte_size().unwrap() > 0);
        t.drop_table().unwrap();
    }
}
