//! A catalog of databases and tables rooted in one directory.
//!
//! Mirrors the warehouse naming scheme of the paper: values are addressed by
//! (database name, table name, column name, JSONPath). The catalog owns the
//! directory layout `<root>/<db>/<table>/` and exposes table metadata —
//! including modification times, which the Maxson plan rewriter compares
//! against cache times (Algorithm 1, lines 16-19).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::metacache::{NorcMetaCache, DEFAULT_META_CACHE_BYTES};
use crate::schema::Schema;
use crate::table::Table;

/// Directory-backed catalog. Tables are kept open in memory; the on-disk
/// metadata stays the source of truth between processes.
#[derive(Debug)]
pub struct Catalog {
    root: PathBuf,
    tables: BTreeMap<(String, String), Table>,
    /// Shared footer/index cache, attached to every table in the catalog.
    meta_cache: Arc<NorcMetaCache>,
}

impl Catalog {
    /// Open (or initialize) a catalog rooted at `root`, loading any tables
    /// already present on disk. A fresh metadata cache with the default
    /// budget is created for it; a session passes the cache its
    /// configuration asks for through [`Catalog::open_with_cache`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let cache = NorcMetaCache::new(DEFAULT_META_CACHE_BYTES);
        Catalog::open_with_cache(root, Arc::new(cache))
    }

    /// Open a catalog that shares an existing metadata cache — used when a
    /// new catalog view replaces an old one over the same warehouse (the
    /// midnight-cycle epoch swap) so warm footers survive the swap.
    pub fn open_with_cache(
        root: impl Into<PathBuf>,
        meta_cache: Arc<NorcMetaCache>,
    ) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut tables = BTreeMap::new();
        for db_entry in fs::read_dir(&root)? {
            let db_entry = db_entry?;
            if !db_entry.file_type()?.is_dir() {
                continue;
            }
            let db = db_entry.file_name().to_string_lossy().to_string();
            for t_entry in fs::read_dir(db_entry.path())? {
                let t_entry = t_entry?;
                if !t_entry.file_type()?.is_dir() {
                    continue;
                }
                let name = t_entry.file_name().to_string_lossy().to_string();
                if let Ok(mut table) = Table::open(t_entry.path()) {
                    table.set_meta_cache(Some(Arc::clone(&meta_cache)));
                    tables.insert((db.clone(), name), table);
                }
            }
        }
        Ok(Catalog {
            root,
            tables,
            meta_cache,
        })
    }

    /// The catalog's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared footer/index cache attached to this catalog's tables.
    pub fn meta_cache(&self) -> &Arc<NorcMetaCache> {
        &self.meta_cache
    }

    /// Create a table, creating the database directory if needed.
    pub fn create_table(
        &mut self,
        database: &str,
        table: &str,
        schema: Schema,
        now: u64,
    ) -> Result<&mut Table> {
        let key = (database.to_string(), table.to_string());
        if self.tables.contains_key(&key) {
            return Err(StorageError::InvalidOperation {
                detail: format!("table {database}.{table} already exists"),
            });
        }
        let dir = self.root.join(database).join(table);
        let mut t = Table::create(dir, schema, now)?;
        t.set_meta_cache(Some(Arc::clone(&self.meta_cache)));
        Ok(self.tables.entry(key).or_insert(t))
    }

    /// Borrow a table.
    pub fn table(&self, database: &str, table: &str) -> Result<&Table> {
        self.tables
            .get(&(database.to_string(), table.to_string()))
            .ok_or_else(|| StorageError::NotFound {
                what: format!("table {database}.{table}"),
            })
    }

    /// Mutably borrow a table (for appends).
    pub fn table_mut(&mut self, database: &str, table: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&(database.to_string(), table.to_string()))
            .ok_or_else(|| StorageError::NotFound {
                what: format!("table {database}.{table}"),
            })
    }

    /// `true` when the table exists.
    pub fn has_table(&self, database: &str, table: &str) -> bool {
        self.tables
            .contains_key(&(database.to_string(), table.to_string()))
    }

    /// Drop a table and delete its directory.
    pub fn drop_table(&mut self, database: &str, table: &str) -> Result<()> {
        let t = self
            .tables
            .remove(&(database.to_string(), table.to_string()))
            .ok_or_else(|| StorageError::NotFound {
                what: format!("table {database}.{table}"),
            })?;
        t.drop_table()
    }

    /// List `(database, table)` pairs in name order.
    pub fn list_tables(&self) -> Vec<(String, String)> {
        self.tables.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::file::WriteOptions;
    use crate::schema::{ColumnType, Field};

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-catalog-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let root = temp_root("cld");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_table("mydb", "t", schema(), 1).unwrap();
        assert!(cat.has_table("mydb", "t"));
        assert!(!cat.has_table("mydb", "x"));
        assert!(cat.create_table("mydb", "t", schema(), 1).is_err());

        let t = cat.table("mydb", "t").unwrap();
        assert_eq!(t.modified_at(), 1);
        assert_eq!(t.file_count(), 0);

        cat.drop_table("mydb", "t").unwrap();
        assert!(!cat.has_table("mydb", "t"));
        assert!(cat.drop_table("mydb", "t").is_err());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_discovers_tables() {
        let root = temp_root("reopen");
        {
            let mut cat = Catalog::open(&root).unwrap();
            let t = cat.create_table("db1", "sales", schema(), 5).unwrap();
            t.append_file(&[vec![Cell::Int(9)]], WriteOptions::default(), 6)
                .unwrap();
            cat.create_table("db2", "logs", schema(), 7).unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(
            cat.list_tables(),
            vec![
                ("db1".to_string(), "sales".to_string()),
                ("db2".to_string(), "logs".to_string()),
            ]
        );
        assert_eq!(cat.table("db1", "sales").unwrap().modified_at(), 6);
        assert_eq!(cat.table("db1", "sales").unwrap().num_rows().unwrap(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_table_errors() {
        let root = temp_root("missing");
        let cat = Catalog::open(&root).unwrap();
        assert!(cat.table("no", "table").is_err());
        fs::remove_dir_all(&root).ok();
    }
}
