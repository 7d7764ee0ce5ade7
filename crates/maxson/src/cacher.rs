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
//!
//! # Task model
//!
//! One build — a full [`JsonPathCacher::populate`] or a
//! [`JsonPathCacher::refresh_incremental`] — is one flat list of
//! `(cache table, split)` tasks on the engine's split pool (`MAXSON_THREADS`
//! workers, default one per core), the paper's "scalable way using Spark".
//! A task reads its raw split, projects every cached path of the table off
//! one tape per document straight into per-path string columns, and encodes
//! and writes its own `part-0000k.norc`; tasks share nothing, so at most
//! *workers* splits are in memory. The calling thread registers the parts
//! in split order, one `_meta.json` write per table, and only once every
//! task succeeded: a failed or panicking task is an error naming its table
//! and split, and leaves no part listed that was not written.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use maxson_engine::exec::default_threads;
use maxson_engine::{pool, Config, EngineError};
use maxson_json::tape::{project_paths, TapeStats};
use maxson_json::{parse as json_parse, JsonPath, JsonValue};
use maxson_storage::file::{NorcWriter, WriteOptions};
use maxson_storage::{Catalog, ColumnData, ColumnType, Field, Schema, Table};
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

    /// Insert an entry.
    pub fn insert(&mut self, entry: CachedEntry) {
        self.entries.insert(entry.location.key(), entry);
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

        // 3. Group by raw table, create one cache table each, and build
        //    every split of every table as one flat task list.
        let mut by_table: BTreeMap<(String, String), Vec<&ScoredMpjp>> = BTreeMap::new();
        for cand in &admitted {
            by_table
                .entry((cand.location.database.clone(), cand.location.table.clone()))
                .or_default()
                .push(cand);
        }
        let mut builds = Vec::with_capacity(by_table.len());
        for ((db, table_name), cands) in &by_table {
            let fields: Vec<(&str, &str)> = cands
                .iter()
                .map(|c| (c.location.column.as_str(), c.location.path.as_str()))
                .collect();
            let cache_schema = Schema::new(
                fields
                    .iter()
                    .map(|(column, path)| {
                        Field::new(cache_field_name(column, path), ColumnType::Utf8)
                    })
                    .collect(),
            )
            .map_err(MaxsonError::Storage)?;
            let ct_name = cache_table_name(db, table_name);
            catalog.create_table(CACHE_DB, &ct_name, cache_schema, now)?;
            let build = TableBuild::new(catalog, db, table_name, ct_name, &fields)?;
            let splits = 0..build.raw.file_count();
            builds.push((build, splits));
        }
        report.bytes_used = build_and_register(catalog, &builds, now)?;
        for cand in by_table.values().flatten() {
            registry.insert(CachedEntry {
                location: cand.location.clone(),
                cache_table: cache_table_name(&cand.location.database, &cand.location.table),
                cache_field: cache_field_name(&cand.location.column, &cand.location.path),
                cached_at: now,
                bytes: cand.estimated_bytes,
            });
            report.cached.push(cand.location.clone());
        }
        registry.save(catalog)?;
        report.population_seconds = start.elapsed().as_secs_f64();
        Ok((registry, report))
    }
}

/// The cached paths of one source column, grouped so cache population
/// builds exactly one tape per raw JSON document no matter how many paths
/// it caches from it — the combiner-side mirror of the engine's
/// shared-parse slots.
struct ColumnPaths {
    /// Raw-table column index holding the JSON string.
    col: usize,
    /// Cache-table column each path fills, in `paths` order.
    slots: Vec<usize>,
    /// The cached paths over this column.
    paths: Vec<JsonPath>,
}

/// What the split tasks of one cache table share: where to read, what to
/// extract, where to write.
struct TableBuild {
    /// `db.table` of the raw table, for error messages.
    source: String,
    raw: Table,
    cache_table: String,
    cache: Table,
    groups: Vec<ColumnPaths>,
}

impl TableBuild {
    /// Compile `fields` — the `(raw column, JSONPath)` of every column of
    /// `cache_table`, in cache-schema order — against raw table
    /// `database.table`.
    fn new(
        catalog: &Catalog,
        database: &str,
        table: &str,
        cache_table: String,
        fields: &[(&str, &str)],
    ) -> Result<Self> {
        let source = format!("{database}.{table}");
        let raw = catalog.table(database, table)?.clone();
        let cache = catalog.table(CACHE_DB, &cache_table)?.clone();
        let mut groups: Vec<ColumnPaths> = Vec::new();
        for (slot, (column, path)) in fields.iter().enumerate() {
            let col = raw.schema().index_of(column).ok_or_else(|| {
                MaxsonError::invalid(format!("column {column} missing in {source}"))
            })?;
            let path = JsonPath::parse(path)
                .map_err(|e| MaxsonError::invalid(format!("bad path: {e}")))?;
            let at = groups.iter().position(|g| g.col == col).unwrap_or_else(|| {
                groups.push(ColumnPaths {
                    col,
                    slots: Vec::new(),
                    paths: Vec::new(),
                });
                groups.len() - 1
            });
            groups[at].slots.push(slot);
            groups[at].paths.push(path);
        }
        Ok(TableBuild {
            source,
            raw,
            cache_table,
            cache,
            groups,
        })
    }

    /// Build cache part `split` from raw part `split`: same row count, same
    /// row-group boundaries. One tape per JSON document answers every
    /// cached path over it; non-string and invalid documents leave their
    /// values NULL, exactly as a per-path DOM parse would. Returns the
    /// decoded bytes of the values written.
    fn build_split(&self, split: usize) -> Result<u64> {
        let file = self.raw.open_split(split)?;
        // Reconstruct the raw file's row-group size so boundaries match.
        let row_group_size = file
            .row_groups()
            .map(|rg| rg.row_count)
            .max()
            .unwrap_or(maxson_storage::DEFAULT_ROW_GROUP_SIZE);
        let needed: Vec<usize> = self.groups.iter().map(|g| g.col).collect();
        let raw_cols = file.read_columns(&needed, None)?;
        let rows = file.num_rows();
        let width = self.cache.schema().len();
        let mut valid = vec![vec![false; rows]; width];
        let null: Arc<str> = Arc::from("");
        let mut values = vec![vec![null; rows]; width];
        let mut bytes = 0u64;
        let mut stats = TapeStats::default();
        for (g, raw_col) in self.groups.iter().zip(&raw_cols) {
            let ColumnData::Utf8 {
                valid: present,
                values: docs,
            } = raw_col
            else {
                continue;
            };
            for (row, json) in docs.iter().enumerate().filter(|(row, _)| present[*row]) {
                for (&slot, value) in g
                    .slots
                    .iter()
                    .zip(project_paths(json, &g.paths, &mut stats))
                {
                    if let Some(value) = value {
                        bytes += value.len() as u64;
                        valid[slot][row] = true;
                        values[slot][row] = value;
                    }
                }
            }
        }
        // A NULL costs the marker byte of `Cell::Null.byte_size()`.
        bytes += valid.iter().flatten().filter(|v| !**v).count() as u64;
        let columns: Vec<ColumnData> = valid
            .into_iter()
            .zip(values)
            .map(|(valid, values)| ColumnData::Utf8 { valid, values })
            .collect();
        let mut writer = NorcWriter::create(
            self.cache.part_path(split),
            self.cache.schema().clone(),
            WriteOptions {
                row_group_size,
                ..Default::default()
            },
        )?;
        writer.append_columns(&columns)?;
        writer.finish()?;
        Ok(bytes)
    }
}

/// Run every `(table, split)` of `builds` as one flat task list on the
/// engine's split pool, then register each table's new parts in split
/// order with one metadata write. A failing or panicking task fails the
/// whole build with an error naming its table and split; nothing is
/// registered then. Returns the decoded bytes of all values written.
fn build_and_register(
    catalog: &mut Catalog,
    builds: &[(TableBuild, std::ops::Range<usize>)],
    now: u64,
) -> Result<u64> {
    let tasks: Vec<(&TableBuild, usize)> = builds
        .iter()
        .flat_map(|(build, splits)| splits.clone().map(move |split| (build, split)))
        .collect();
    let threads = Config::from_env().threads.unwrap_or_else(default_threads);
    let run = pool::run_split_tasks(tasks.len(), threads, None, |i| {
        let (build, split) = tasks[i];
        // The pool would name a panic by flat task index; catch it here,
        // where table and split are known.
        catch_unwind(AssertUnwindSafe(|| build.build_split(split)))
            .map_err(|p| format!("task panicked: {}", pool::panic_message(p.as_ref())))
            .and_then(|built| built.map_err(|e| e.to_string()))
            .map_err(|e| {
                let source = &build.source;
                EngineError::exec(format!("cache build of {source} split {split} failed: {e}"))
            })
    })?;
    for (build, splits) in builds {
        catalog
            .table_mut(CACHE_DB, &build.cache_table)?
            .register_parts(splits.len(), now)?;
    }
    Ok(run.results.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpjp::MpjpCandidate;
    use crate::score::score_candidates;
    use maxson_storage::Cell;
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
        let mut builds = Vec::new();
        let mut refreshed: Vec<CachedEntry> = Vec::new();
        for ((db, table_name), entries) in by_table {
            let raw = catalog.table(&db, &table_name)?;
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
            // The cached paths of this table in cache-schema order.
            let cache_schema = catalog.table(CACHE_DB, &ct_name)?.schema();
            let mut fields: Vec<(&str, &str)> = Vec::new();
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
                fields.push((&entry.location.column, &entry.location.path));
            }
            // Build only the new splits.
            let new_splits = cache_files..raw.file_count();
            report.appended_files += new_splits.len();
            let build = TableBuild::new(catalog, &db, &table_name, ct_name, &fields)?;
            builds.push((build, new_splits));
            refreshed.extend(entries);
        }
        build_and_register(catalog, &builds, now)?;
        // Revalidate the entries.
        for mut e in refreshed {
            e.cached_at = now;
            registry.insert(e);
            report.refreshed_paths += 1;
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
    use maxson_storage::Cell;
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
        let rewriter = crate::rewriter::MaxsonScanRewriter::open(&session).unwrap();
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
