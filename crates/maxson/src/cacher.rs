//! The JSONPath Cacher (§IV-C).
//!
//! At cache-population time (midnight in the paper), the cacher receives
//! the score-ranked MPJP list and materializes their parsed values into
//! *cache tables* until the byte budget runs out:
//!
//! * All cached paths of one raw table share one cache table, stored in the
//!   reserved database [`CACHE_DB`]. The cache table is named after the raw
//!   table (`<db>__<table>`) and each field after its column and JSONPath —
//!   mirroring the paper's naming scheme for remembering the mapping.
//! * Cache file *k* is parsed from raw file *k*, with the same row count
//!   and the same row-group boundaries, so the two readers of the value
//!   combiner stay positionally aligned and row-group skipping transfers.
//! * A registry document records `(db, table, column, path) → (cache
//!   table, field, cache time)`. Entries whose cache time precedes the raw
//!   table's modification time are invalid; invalid cache tables are
//!   dropped at the next population cycle (Algorithm 1, line 19).

use std::collections::BTreeMap;

use maxson_json::{parse as json_parse, JsonPath, JsonValue};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Catalog, Cell, ColumnType, Field, Schema};
use maxson_trace::JsonPathLocation;

use crate::error::{MaxsonError, Result};
use crate::score::ScoredMpjp;

/// The reserved database holding all cache tables.
pub const CACHE_DB: &str = "__maxson_cache";

/// One registry entry: a cached JSONPath value column.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEntry {
    /// The cached path's warehouse location.
    pub location: JsonPathLocation,
    /// Cache table name inside [`CACHE_DB`].
    pub cache_table: String,
    /// Field name inside the cache table.
    pub cache_field: String,
    /// Logical time the cache was populated.
    pub cached_at: u64,
    /// Bytes this entry contributed to the budget.
    pub bytes: u64,
}

/// The in-memory registry of cached paths, persisted as JSON inside the
/// cache database directory.
#[derive(Debug, Default)]
pub struct CacheRegistry {
    entries: BTreeMap<String, CachedEntry>,
}

impl CacheRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the entry for a location.
    pub fn get(&self, loc: &JsonPathLocation) -> Option<&CachedEntry> {
        self.entries.get(&loc.key())
    }

    /// Iterate all entries.
    pub fn entries(&self) -> impl Iterator<Item = &CachedEntry> {
        self.entries.values()
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Insert an entry.
    pub fn insert(&mut self, entry: CachedEntry) {
        self.entries.insert(entry.location.key(), entry);
    }

    /// Remove every entry of one cache table; returns how many were
    /// removed.
    pub fn remove_table(&mut self, cache_table: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.cache_table != cache_table);
        before - self.entries.len()
    }

    /// Serialize to a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.entries
                .values()
                .map(|e| {
                    JsonValue::Object(vec![
                        (
                            "database".into(),
                            JsonValue::from(e.location.database.as_str()),
                        ),
                        ("table".into(), JsonValue::from(e.location.table.as_str())),
                        ("column".into(), JsonValue::from(e.location.column.as_str())),
                        ("path".into(), JsonValue::from(e.location.path.as_str())),
                        (
                            "cache_table".into(),
                            JsonValue::from(e.cache_table.as_str()),
                        ),
                        (
                            "cache_field".into(),
                            JsonValue::from(e.cache_field.as_str()),
                        ),
                        ("cached_at".into(), JsonValue::from(e.cached_at as i64)),
                        ("bytes".into(), JsonValue::from(e.bytes as i64)),
                    ])
                })
                .collect(),
        )
    }

    /// Parse from the JSON document produced by [`CacheRegistry::to_json`].
    pub fn from_json(doc: &JsonValue) -> Result<Self> {
        let mut reg = CacheRegistry::new();
        let items = doc
            .as_array()
            .ok_or_else(|| MaxsonError::invalid("registry document is not an array"))?;
        for item in items {
            let get = |k: &str| -> Result<String> {
                item.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| MaxsonError::invalid(format!("registry entry missing {k}")))
            };
            let geti = |k: &str| -> Result<u64> {
                item.get(k)
                    .and_then(JsonValue::as_i64)
                    .map(|v| v as u64)
                    .ok_or_else(|| MaxsonError::invalid(format!("registry entry missing {k}")))
            };
            reg.insert(CachedEntry {
                location: JsonPathLocation::new(
                    get("database")?,
                    get("table")?,
                    get("column")?,
                    get("path")?,
                ),
                cache_table: get("cache_table")?,
                cache_field: get("cache_field")?,
                cached_at: geti("cached_at")?,
                bytes: geti("bytes")?,
            });
        }
        Ok(reg)
    }

    /// Persist to `<catalog root>/<CACHE_DB>/registry.json`.
    pub fn save(&self, catalog: &Catalog) -> Result<()> {
        let dir = catalog.root().join(CACHE_DB);
        std::fs::create_dir_all(&dir).map_err(maxson_storage::StorageError::Io)?;
        std::fs::write(
            dir.join("registry.json"),
            maxson_json::to_string_pretty(&self.to_json()),
        )
        .map_err(maxson_storage::StorageError::Io)?;
        Ok(())
    }

    /// Load from disk; an absent file yields an empty registry.
    pub fn load(catalog: &Catalog) -> Result<Self> {
        let path = catalog.root().join(CACHE_DB).join("registry.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let doc = json_parse(&text)
                    .map_err(|e| MaxsonError::invalid(format!("corrupt registry: {e}")))?;
                Self::from_json(&doc)
            }
            Err(_) => Ok(CacheRegistry::new()),
        }
    }
}

/// Name of the cache table serving `(db, table)`.
pub fn cache_table_name(database: &str, table: &str) -> String {
    format!("{database}__{table}")
}

/// Field name for a cached `(column, path)` value; the path is sanitized
/// into identifier characters.
pub fn cache_field_name(column: &str, path: &str) -> String {
    let sanitized: String = path
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{column}{sanitized}")
}

/// The cacher: materializes ranked MPJPs into cache tables.
#[derive(Debug)]
pub struct JsonPathCacher {
    /// Byte budget for the whole cache (the 100–400 GB axis of Fig. 11,
    /// scaled).
    pub budget_bytes: u64,
}

/// Outcome of one population run.
#[derive(Debug, Default)]
pub struct CacheReport {
    /// Paths cached this run.
    pub cached: Vec<JsonPathLocation>,
    /// Paths skipped because the budget was exhausted.
    pub skipped: Vec<JsonPathLocation>,
    /// Bytes written.
    pub bytes_used: u64,
    /// Stale cache tables dropped before population.
    pub dropped_tables: Vec<String>,
    /// Wall-clock seconds spent parsing and writing.
    pub population_seconds: f64,
}

impl JsonPathCacher {
    /// Create a cacher with a byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        JsonPathCacher { budget_bytes }
    }

    /// Populate the cache from a ranked candidate list. Drops every
    /// existing cache table first (the paper empties and repopulates the
    /// cache at every midnight cycle), greedily admits candidates in score
    /// order while the budget allows, and returns the updated registry.
    pub fn populate(
        &self,
        catalog: &mut Catalog,
        ranked: &[ScoredMpjp],
        now: u64,
    ) -> Result<(CacheRegistry, CacheReport)> {
        let start = std::time::Instant::now();
        let mut report = CacheReport::default();
        // 1. Drop all existing cache tables.
        let stale: Vec<(String, String)> = catalog
            .list_tables()
            .into_iter()
            .filter(|(db, _)| db == CACHE_DB)
            .collect();
        for (db, t) in stale {
            catalog.drop_table(&db, &t)?;
            report.dropped_tables.push(t);
        }
        let mut registry = CacheRegistry::new();

        // 2. Greedy admission by score order under the budget.
        let mut admitted: Vec<&ScoredMpjp> = Vec::new();
        let mut used = 0u64;
        for cand in ranked {
            if used + cand.estimated_bytes <= self.budget_bytes {
                used += cand.estimated_bytes;
                admitted.push(cand);
            } else {
                report.skipped.push(cand.location.clone());
            }
        }

        // 3. Group by raw table and materialize one cache table each.
        let mut by_table: BTreeMap<(String, String), Vec<&ScoredMpjp>> = BTreeMap::new();
        for cand in &admitted {
            by_table
                .entry((cand.location.database.clone(), cand.location.table.clone()))
                .or_default()
                .push(cand);
        }
        for ((db, table_name), cands) in by_table {
            let bytes =
                self.materialize_table(catalog, &db, &table_name, &cands, now, &mut registry)?;
            report.bytes_used += bytes;
            report
                .cached
                .extend(cands.iter().map(|c| c.location.clone()));
        }
        registry.save(catalog)?;
        report.population_seconds = start.elapsed().as_secs_f64();
        Ok((registry, report))
    }

    /// Build one cache table for `cands` (all on the same raw table).
    fn materialize_table(
        &self,
        catalog: &mut Catalog,
        database: &str,
        table_name: &str,
        cands: &[&ScoredMpjp],
        now: u64,
        registry: &mut CacheRegistry,
    ) -> Result<u64> {
        // Compile paths and build the cache schema.
        let mut fields = Vec::with_capacity(cands.len());
        let mut compiled: Vec<(usize, JsonPath, String)> = Vec::with_capacity(cands.len());
        let raw = catalog.table(database, table_name)?.clone();
        for cand in cands {
            let field_name = cache_field_name(&cand.location.column, &cand.location.path);
            let col_idx = raw
                .schema()
                .index_of(&cand.location.column)
                .ok_or_else(|| {
                    MaxsonError::invalid(format!(
                        "column {} missing in {database}.{table_name}",
                        cand.location.column
                    ))
                })?;
            let path = JsonPath::parse(&cand.location.path)
                .map_err(|e| MaxsonError::invalid(format!("bad path: {e}")))?;
            fields.push(Field::new(field_name.clone(), ColumnType::Utf8));
            compiled.push((col_idx, path, field_name));
        }
        let cache_schema = Schema::new(fields).map_err(MaxsonError::Storage)?;
        let ct_name = cache_table_name(database, table_name);
        catalog.create_table(CACHE_DB, &ct_name, cache_schema, now)?;

        // Parse file by file so cache file k aligns with raw file k. The
        // per-split parses are independent, so they run on worker threads
        // (the paper's population step is "done in a scalable way using
        // Spark"); the appends stay sequential to preserve file order.
        let needed: Vec<usize> = {
            let mut v: Vec<usize> = compiled.iter().map(|(c, _, _)| *c).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let split_results: Vec<Result<ParsedSplit>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..raw.file_count())
                .map(|split| {
                    let raw = &raw;
                    let compiled = &compiled;
                    let needed = &needed;
                    scope.spawn(move || parse_split(raw, split, compiled, needed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parse worker must not panic"))
                .collect()
        });
        let mut total_bytes = 0u64;
        for result in split_results {
            let (rows, rg_size, bytes) = result?;
            total_bytes += bytes;
            catalog.table_mut(CACHE_DB, &ct_name)?.append_file(
                &rows,
                WriteOptions {
                    row_group_size: rg_size,
                    ..Default::default()
                },
                now,
            )?;
        }
        for cand in cands {
            registry.insert(CachedEntry {
                location: cand.location.clone(),
                cache_table: ct_name.clone(),
                cache_field: cache_field_name(&cand.location.column, &cand.location.path),
                cached_at: now,
                bytes: cand.estimated_bytes,
            });
        }
        Ok(total_bytes)
    }
}

/// One parsed raw split: `(rows, row_group_size, bytes)`.
type ParsedSplit = (Vec<Vec<Cell>>, usize, u64);

/// The cached paths of one source column, grouped so cache population
/// builds exactly one tape per raw JSON document no matter how many paths
/// it caches from it — the combiner-side mirror of the engine's
/// shared-parse slots.
struct ColumnPaths {
    /// Raw-table column index holding the JSON string.
    col: usize,
    /// Cache-row slot each path fills, in `paths` order.
    slots: Vec<usize>,
    /// The cached paths over this column.
    paths: Vec<JsonPath>,
}

/// Group `(column, path)` cache fields by column, remembering each field's
/// cache-row slot.
fn group_by_column<'a>(pairs: impl Iterator<Item = (usize, &'a JsonPath)>) -> Vec<ColumnPaths> {
    let mut groups: Vec<ColumnPaths> = Vec::new();
    for (slot, (col, path)) in pairs.enumerate() {
        match groups.iter_mut().find(|g| g.col == col) {
            Some(g) => {
                g.slots.push(slot);
                g.paths.push(path.clone());
            }
            None => groups.push(ColumnPaths {
                col,
                slots: vec![slot],
                paths: vec![path.clone()],
            }),
        }
    }
    groups
}

/// Fill cache row `i` from the raw columns: one tape per JSON document
/// answers every cached path over it. Non-string and invalid documents
/// leave their slots `Null`, exactly as the per-path DOM parse would.
fn extract_cache_row(
    groups: &[ColumnPaths],
    cols: &[maxson_storage::ColumnData],
    col_of: impl Fn(usize) -> usize,
    i: usize,
    width: usize,
) -> Vec<Cell> {
    let mut row = vec![Cell::Null; width];
    let mut stats = maxson_json::tape::TapeStats::default();
    for g in groups {
        if let Cell::Str(json) = cols[col_of(g.col)].get(i) {
            let values = maxson_json::tape::project_paths(&json, &g.paths, &mut stats);
            for (&slot, value) in g.slots.iter().zip(values) {
                row[slot] = value.map_or(Cell::Null, Cell::from);
            }
        }
    }
    row
}

/// Parse one raw split into cache rows.
fn parse_split(
    raw: &maxson_storage::Table,
    split: usize,
    compiled: &[(usize, JsonPath, String)],
    needed: &[usize],
) -> Result<ParsedSplit> {
    let file = raw.open_split(split)?;
    // Reconstruct the raw file's row-group size so boundaries match.
    let rg_size = file
        .row_groups()
        .map(|rg| rg.row_count)
        .max()
        .unwrap_or(maxson_storage::DEFAULT_ROW_GROUP_SIZE);
    let cols = file.read_columns(needed, None)?;
    let n = cols.first().map_or(0, |c| c.len());
    let col_of = |idx: usize| -> usize {
        needed
            .iter()
            .position(|&c| c == idx)
            .expect("requested column")
    };
    let groups = group_by_column(compiled.iter().map(|(c, p, _)| (*c, p)));
    let mut bytes = 0u64;
    let mut rows: Vec<Vec<Cell>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = extract_cache_row(&groups, &cols, col_of, i, compiled.len());
        for value in &row {
            bytes += value.byte_size() as u64;
        }
        rows.push(row);
    }
    Ok((rows, rg_size, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpjp::MpjpCandidate;
    use crate::score::score_candidates;
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::QueryRecord;
    use std::path::PathBuf;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-cacher-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    fn loc(path: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "payload", path)
    }

    fn setup(name: &str) -> (Catalog, PathBuf) {
        let root = temp_root(name);
        let mut cat = Catalog::open(&root).unwrap();
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let t = cat.create_table("db", "t", schema, 0).unwrap();
        for f in 0..2 {
            let rows: Vec<Vec<Cell>> = (0..20)
                .map(|i| {
                    let n = f * 20 + i;
                    vec![
                        Cell::Int(n),
                        Cell::from(format!(r#"{{"a": {n}, "b": "s{n}"}}"#)),
                    ]
                })
                .collect();
            t.append_file(
                &rows,
                WriteOptions {
                    row_group_size: 8,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
        }
        (cat, root)
    }

    fn ranked(cat: &Catalog, paths: &[&str]) -> Vec<ScoredMpjp> {
        let cands: Vec<MpjpCandidate> = paths
            .iter()
            .map(|p| MpjpCandidate {
                location: loc(p),
                target_day: 1,
            })
            .collect();
        let history: Vec<QueryRecord> = paths
            .iter()
            .map(|p| QueryRecord {
                query_id: 0,
                user_id: 0,
                day: 0,
                hour: 0,
                recurrence: RecurrenceClass::Daily,
                paths: vec![loc(p)],
            })
            .collect();
        score_candidates(cat, &cands, &history).unwrap()
    }

    #[test]
    fn populate_creates_aligned_cache_tables() {
        let (mut cat, root) = setup("aligned");
        let ranked = ranked(&cat, &["$.a", "$.b"]);
        let cacher = JsonPathCacher::new(u64::MAX);
        let (registry, report) = cacher.populate(&mut cat, &ranked, 5).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(report.cached.len(), 2);
        assert!(report.skipped.is_empty());

        let ct = cat.table(CACHE_DB, "db__t").unwrap();
        assert_eq!(ct.file_count(), 2, "one cache file per raw file");
        let raw = cat.table("db", "t").unwrap();
        for split in 0..2 {
            let rf = raw.open_split(split).unwrap();
            let cf = ct.open_split(split).unwrap();
            assert_eq!(rf.num_rows(), cf.num_rows());
            assert_eq!(rf.row_group_count(), cf.row_group_count());
            // Values parsed correctly.
            let rows = cf.read_all_rows().unwrap();
            let a_field = ct
                .schema()
                .index_of(&cache_field_name("payload", "$.a"))
                .unwrap();
            assert_eq!(rows[0][a_field], Cell::from(format!("{}", split * 20)));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn budget_limits_admission_by_rank() {
        let (mut cat, root) = setup("budget");
        let ranked = ranked(&cat, &["$.a", "$.b"]);
        // Budget fits only the top-ranked candidate.
        let budget = ranked[0].estimated_bytes;
        let cacher = JsonPathCacher::new(budget);
        let (registry, report) = cacher.populate(&mut cat, &ranked, 5).unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(
            registry.entries().next().unwrap().location,
            ranked[0].location
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn repopulation_drops_previous_cache_tables() {
        let (mut cat, root) = setup("repop");
        let ranked = ranked(&cat, &["$.a"]);
        let cacher = JsonPathCacher::new(u64::MAX);
        cacher.populate(&mut cat, &ranked, 5).unwrap();
        assert!(cat.has_table(CACHE_DB, "db__t"));
        let (_, report) = cacher.populate(&mut cat, &ranked, 6).unwrap();
        assert_eq!(report.dropped_tables, vec!["db__t".to_string()]);
        assert!(cat.has_table(CACHE_DB, "db__t"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn registry_round_trips_through_disk() {
        let (mut cat, root) = setup("registry");
        let ranked = ranked(&cat, &["$.a", "$.b"]);
        let cacher = JsonPathCacher::new(u64::MAX);
        let (registry, _) = cacher.populate(&mut cat, &ranked, 9).unwrap();
        let loaded = CacheRegistry::load(&cat).unwrap();
        assert_eq!(loaded.len(), registry.len());
        let e = loaded.get(&loc("$.a")).unwrap();
        assert_eq!(e.cached_at, 9);
        assert_eq!(e.cache_table, "db__t");
        assert_eq!(e.cache_field, cache_field_name("payload", "$.a"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn registry_load_missing_is_empty() {
        let root = temp_root("emptyreg");
        let cat = Catalog::open(&root).unwrap();
        let reg = CacheRegistry::load(&cat).unwrap();
        assert!(reg.is_empty());
        assert_eq!(reg.total_bytes(), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn field_names_are_sanitized_and_distinct() {
        let a = cache_field_name("payload", "$.a.b[0]");
        let b = cache_field_name("payload", "$.a.b[1]");
        assert_ne!(a, b);
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    }

    #[test]
    fn missing_json_values_cache_as_null() {
        let (mut cat, root) = setup("nulls");
        let ranked = ranked(&cat, &["$.nonexistent"]);
        let cacher = JsonPathCacher::new(u64::MAX);
        cacher.populate(&mut cat, &ranked, 5).unwrap();
        let ct = cat.table(CACHE_DB, "db__t").unwrap();
        let rows = ct.open_split(0).unwrap().read_all_rows().unwrap();
        assert!(rows.iter().all(|r| r[0].is_null()));
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Outcome of an incremental refresh.
#[derive(Debug, Default)]
pub struct RefreshReport {
    /// New raw files parsed and appended per cache table.
    pub appended_files: usize,
    /// Paths whose cache entries were revalidated (cached_at bumped).
    pub refreshed_paths: usize,
    /// Raw tables that changed in a way incremental refresh cannot handle
    /// (in-place modification): these need a full repopulation.
    pub needs_full: Vec<(String, String)>,
}

impl JsonPathCacher {
    /// Incrementally refresh stale cache entries.
    ///
    /// The warehouse is append-only (§II-B: appended data is almost never
    /// modified), so when a raw table's only change since the last
    /// population is new part files, the cacher can parse *just those
    /// files* and append them to the existing cache table — file alignment
    /// is preserved by construction — instead of re-parsing everything at
    /// midnight. Tables whose file count did not grow but whose
    /// modification time advanced were modified in place (the rare 2% case
    /// in the paper's study); those are reported in
    /// [`RefreshReport::needs_full`] and left untouched for the next full
    /// cycle.
    pub fn refresh_incremental(
        &self,
        catalog: &mut Catalog,
        registry: &mut CacheRegistry,
        now: u64,
    ) -> Result<RefreshReport> {
        let mut report = RefreshReport::default();
        // Group entries per (raw db, raw table).
        let mut by_table: BTreeMap<(String, String), Vec<CachedEntry>> = BTreeMap::new();
        for e in registry.entries() {
            by_table
                .entry((e.location.database.clone(), e.location.table.clone()))
                .or_default()
                .push(e.clone());
        }
        for ((db, table_name), entries) in by_table {
            let raw = catalog.table(&db, &table_name)?.clone();
            let stale = entries.iter().any(|e| raw.modified_at() > e.cached_at);
            if !stale {
                continue;
            }
            let ct_name = entries[0].cache_table.clone();
            let cache_files = catalog.table(CACHE_DB, &ct_name)?.file_count();
            if raw.file_count() <= cache_files {
                // Modified without growing: in-place change, cannot refresh
                // incrementally.
                report.needs_full.push((db, table_name));
                continue;
            }
            // Compile the cached paths of this table in cache-schema order.
            let cache_schema = catalog.table(CACHE_DB, &ct_name)?.schema().clone();
            let mut compiled: Vec<(usize, JsonPath)> = Vec::new();
            for field in cache_schema.fields() {
                let entry = entries
                    .iter()
                    .find(|e| e.cache_field == field.name)
                    .ok_or_else(|| {
                        MaxsonError::invalid(format!(
                            "cache field {} has no registry entry",
                            field.name
                        ))
                    })?;
                let col_idx = raw
                    .schema()
                    .index_of(&entry.location.column)
                    .ok_or_else(|| {
                        MaxsonError::invalid(format!(
                            "column {} missing in {db}.{table_name}",
                            entry.location.column
                        ))
                    })?;
                let path = JsonPath::parse(&entry.location.path)
                    .map_err(|e| MaxsonError::invalid(format!("bad path: {e}")))?;
                compiled.push((col_idx, path));
            }
            // Parse only the new splits.
            for split in cache_files..raw.file_count() {
                let file = raw.open_split(split)?;
                let rg_size = file
                    .row_groups()
                    .map(|rg| rg.row_count)
                    .max()
                    .unwrap_or(maxson_storage::DEFAULT_ROW_GROUP_SIZE);
                let needed: Vec<usize> = {
                    let mut v: Vec<usize> = compiled.iter().map(|(c, _)| *c).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let cols = file.read_columns(&needed, None)?;
                let n = cols.first().map_or(0, |c| c.len());
                let col_of = |idx: usize| -> usize {
                    needed
                        .iter()
                        .position(|&c| c == idx)
                        .expect("requested column")
                };
                let groups = group_by_column(compiled.iter().map(|(c, p)| (*c, p)));
                let mut rows: Vec<Vec<Cell>> = Vec::with_capacity(n);
                for i in 0..n {
                    rows.push(extract_cache_row(&groups, &cols, col_of, i, compiled.len()));
                }
                catalog.table_mut(CACHE_DB, &ct_name)?.append_file(
                    &rows,
                    WriteOptions {
                        row_group_size: rg_size,
                        ..Default::default()
                    },
                    now,
                )?;
                report.appended_files += 1;
            }
            // Revalidate the entries.
            for e in &entries {
                let mut updated = e.clone();
                updated.cached_at = now;
                registry.insert(updated);
                report.refreshed_paths += 1;
            }
        }
        registry.save(catalog)?;
        Ok(report)
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::mpjp::MpjpCandidate;
    use crate::score::score_candidates;
    use maxson_engine::session::Session;
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::QueryRecord;
    use std::path::PathBuf;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-incr-{}-{nanos}-{name}", std::process::id()))
    }

    fn loc(path: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "payload", path)
    }

    fn rows(from: i64, n: i64) -> Vec<Vec<Cell>> {
        (from..from + n)
            .map(|i| vec![Cell::Int(i), Cell::from(format!(r#"{{"a": {i}}}"#))])
            .collect()
    }

    fn setup(name: &str) -> (Catalog, CacheRegistry, PathBuf) {
        let root = temp_root(name);
        let mut catalog = Catalog::open(&root).unwrap();
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let t = catalog.create_table("db", "t", schema, 0).unwrap();
        t.append_file(
            &rows(0, 20),
            WriteOptions {
                row_group_size: 5,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let cands = vec![MpjpCandidate {
            location: loc("$.a"),
            target_day: 1,
        }];
        let history = vec![QueryRecord {
            query_id: 0,
            user_id: 0,
            day: 0,
            hour: 0,
            recurrence: RecurrenceClass::Daily,
            paths: vec![loc("$.a")],
        }];
        let ranked = score_candidates(&catalog, &cands, &history).unwrap();
        let cacher = JsonPathCacher::new(u64::MAX);
        let (registry, _) = cacher.populate(&mut catalog, &ranked, 100).unwrap();
        (catalog, registry, root)
    }

    #[test]
    fn appended_files_are_parsed_incrementally() {
        let (mut catalog, mut registry, root) = setup("append");
        // Two new part files land at time 200.
        catalog
            .table_mut("db", "t")
            .unwrap()
            .append_file(
                &rows(20, 20),
                WriteOptions {
                    row_group_size: 5,
                    ..Default::default()
                },
                200,
            )
            .unwrap();
        catalog
            .table_mut("db", "t")
            .unwrap()
            .append_file(
                &rows(40, 10),
                WriteOptions {
                    row_group_size: 5,
                    ..Default::default()
                },
                201,
            )
            .unwrap();
        let cacher = JsonPathCacher::new(u64::MAX);
        let report = cacher
            .refresh_incremental(&mut catalog, &mut registry, 300)
            .unwrap();
        assert_eq!(report.appended_files, 2);
        assert_eq!(report.refreshed_paths, 1);
        assert!(report.needs_full.is_empty());
        // Cache is aligned with the grown raw table and revalidated.
        let ct = catalog.table(CACHE_DB, "db__t").unwrap();
        assert_eq!(ct.file_count(), 3);
        assert_eq!(ct.num_rows().unwrap(), 50);
        assert_eq!(registry.get(&loc("$.a")).unwrap().cached_at, 300);

        // End to end: a fresh session over the refreshed cache serves all
        // 50 rows without parsing.
        let mut session = Session::open(&root).unwrap();
        let rewriter = crate::rewriter::MaxsonScanRewriter::open(&root).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
        let result = session
            .execute("select get_json_object(payload, '$.a') as a from db.t")
            .unwrap();
        assert_eq!(result.rows.len(), 50);
        assert_eq!(result.rows[45][0], Cell::Str("45".into()));
        assert_eq!(result.metrics.parse_calls, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn in_place_modification_demands_full_repopulation() {
        let (mut catalog, mut registry, root) = setup("inplace");
        // Touch without appending: simulates in-place modification.
        catalog.table_mut("db", "t").unwrap().touch(500).unwrap();
        let cacher = JsonPathCacher::new(u64::MAX);
        let report = cacher
            .refresh_incremental(&mut catalog, &mut registry, 600)
            .unwrap();
        assert_eq!(report.appended_files, 0);
        assert_eq!(report.refreshed_paths, 0);
        assert_eq!(report.needs_full, vec![("db".to_string(), "t".to_string())]);
        // Entry stays stale: the rewriter will keep refusing it.
        assert_eq!(registry.get(&loc("$.a")).unwrap().cached_at, 100);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fresh_cache_is_left_alone() {
        let (mut catalog, mut registry, root) = setup("fresh");
        let cacher = JsonPathCacher::new(u64::MAX);
        let report = cacher
            .refresh_incremental(&mut catalog, &mut registry, 700)
            .unwrap();
        assert_eq!(report.appended_files, 0);
        assert_eq!(report.refreshed_paths, 0);
        assert!(report.needs_full.is_empty());
        std::fs::remove_dir_all(&root).ok();
    }
}
