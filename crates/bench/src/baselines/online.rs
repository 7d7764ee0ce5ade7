//! The online-caching baseline with LRU replacement (Fig. 14).
//!
//! This is the conventional design the paper argues against (§III-A):
//! values are cached *when first accessed*, so the first query over a
//! JSONPath always pays the parse cost, and an LRU policy evicts under the
//! byte budget. Implemented as a [`TableScanRewriter`] whose provider
//! serves cached columns from memory, parses misses on the spot (charging
//! parse time), and inserts them into the LRU. Hits, misses and evictions
//! are counted in the query's `ExecMetrics` (`lru_hits`, `lru_misses`,
//! `lru_evictions`) and nowhere else.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{open_split, Batch, ScanProvider};
use maxson_engine::session::{ScanContext, ScanRewrite, TableScanRewriter};
use maxson_engine::EngineError;
use maxson_json::JsonPath;
use maxson_obs::Tracer;
use maxson_storage::{Cell, Field, Schema, Table};
use maxson_trace::JsonPathLocation;

/// One cached value column.
#[derive(Debug)]
struct LruEntry {
    values: Arc<Vec<Cell>>,
    bytes: u64,
    /// Raw table modification time at insert (for invalidation).
    table_version: u64,
    /// LRU clock at last touch.
    last_used: u64,
}

/// Shared LRU state.
#[derive(Debug, Default)]
struct LruState {
    entries: HashMap<String, LruEntry>,
    clock: u64,
    used_bytes: u64,
}

/// The online LRU rewriter/baseline.
pub struct OnlineLruRewriter {
    budget_bytes: u64,
    state: Arc<Mutex<LruState>>,
    tracer: Tracer,
    /// Process-wide metric registry the resident-bytes gauge lands in.
    metrics: Arc<maxson_obs::Registry>,
}

impl OnlineLruRewriter {
    /// A rewriter with an empty cache of `budget_bytes`. Each scan reads the
    /// table the planner hands it, through the session's footer cache.
    pub fn new(budget_bytes: u64) -> Self {
        OnlineLruRewriter {
            budget_bytes,
            state: Arc::new(Mutex::new(LruState::default())),
            tracer: Tracer::disabled(),
            metrics: Arc::clone(maxson_obs::Registry::global()),
        }
    }

    /// Record an `lru_scan` span per scan into `tracer` (normally a clone
    /// of the session's, so LRU activity shows up in the same trace file as
    /// the queries that caused it).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Replace the metric registry (tests inject a fresh one; the default
    /// is the process-wide [`maxson_obs::Registry::global`]).
    pub fn set_metrics_registry(&mut self, registry: Arc<maxson_obs::Registry>) {
        self.metrics = registry;
    }
}

impl TableScanRewriter for OnlineLruRewriter {
    fn name(&self) -> &str {
        "OnlineLRU"
    }

    fn rewrite_scan(&self, ctx: &ScanContext<'_>) -> maxson_engine::Result<Option<ScanRewrite>> {
        if ctx.json_calls.is_empty() {
            return Ok(None);
        }
        let table = ctx.table.clone();
        let schema = table.schema();
        // Output schema: raw columns then one pseudo-column per call.
        let mut raw_names: Vec<String> = ctx.raw_columns.to_vec();
        // The JSON columns themselves are read by the provider to parse
        // misses, but are only part of the *output* if referenced raw.
        raw_names.sort_by_key(|c| schema.index_of(c));
        let raw_projection: Vec<usize> = raw_names
            .iter()
            .filter_map(|c| schema.index_of(c))
            .collect();
        let mut out_fields: Vec<Field> = raw_projection
            .iter()
            .map(|&i| schema.fields()[i].clone())
            .collect();
        let mut resolved = Vec::new();
        let mut call_fields = Vec::new();
        for (i, (column, path)) in ctx.json_calls.iter().enumerate() {
            let field = format!("__lru{i}");
            out_fields.push(Field::new(field.clone(), maxson_storage::ColumnType::Utf8));
            resolved.push(((column.clone(), path.clone()), field.clone()));
            call_fields.push((column.clone(), path.clone()));
        }
        let out_schema = Schema::new(out_fields).map_err(EngineError::Storage)?;
        let provider = LruBackedProvider {
            database: ctx.database.to_string(),
            table_name: ctx.table_name.to_string(),
            table,
            raw_projection,
            calls: call_fields,
            out_schema,
            state: Arc::clone(&self.state),
            budget_bytes: self.budget_bytes,
            tracer: self.tracer.clone(),
            metrics: Arc::clone(&self.metrics),
        };
        Ok(Some(ScanRewrite {
            provider: Box::new(provider),
            resolved_paths: resolved,
        }))
    }
}

/// Provider that serves JSON calls from the LRU, parsing on miss.
struct LruBackedProvider {
    table: Table,
    database: String,
    table_name: String,
    raw_projection: Vec<usize>,
    calls: Vec<(String, String)>,
    out_schema: Schema,
    state: Arc<Mutex<LruState>>,
    budget_bytes: u64,
    tracer: Tracer,
    metrics: Arc<maxson_obs::Registry>,
}

impl std::fmt::Debug for LruBackedProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LruBackedProvider({}.{})",
            self.database, self.table_name
        )
    }
}

impl ScanProvider for LruBackedProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Cached columns span the whole table, so the provider is one split.
    fn scan_split(&self, _split: usize, metrics: &mut ExecMetrics) -> maxson_engine::Result<Batch> {
        let span = self.tracer.span("lru_scan");
        span.attr("table", format!("{}.{}", self.database, self.table_name));
        let read_start = Instant::now();
        // Read raw output columns.
        let mut raw_cols = Vec::new();
        for split in 0..self.table.file_count() {
            let file = open_split(&self.table, split, metrics)?;
            raw_cols.push(file.read_columns(&self.raw_projection, None)?);
        }
        let read_spent = read_start.elapsed();
        metrics.read += read_spent;
        metrics.read_wall += read_spent;

        // Resolve every call: hit -> cached column; miss -> parse now.
        let version = self.table.modified_at();
        let mut call_columns: Vec<Arc<Vec<Cell>>> = Vec::with_capacity(self.calls.len());
        for (column, path) in &self.calls {
            let loc = JsonPathLocation::new(
                self.database.clone(),
                self.table_name.clone(),
                column.clone(),
                path.clone(),
            );
            let key = loc.key();
            let hit = {
                let mut st = self.state.lock().expect("lru state lock");
                st.clock += 1;
                let clock = st.clock;
                match st.entries.get_mut(&key) {
                    Some(e) if e.table_version == version => {
                        e.last_used = clock;
                        Some(Arc::clone(&e.values))
                    }
                    _ => None,
                }
            };
            if let Some(values) = hit {
                metrics.cache_hits += values.len() as u64;
                metrics.lru_hits += 1;
                metrics.charge_path_extracts(path, values.len() as u64);
                call_columns.push(values);
                continue;
            }
            // Miss: parse the whole column (the first query pays, §III-A).
            metrics.lru_misses += 1;
            let col_idx = self
                .table
                .schema()
                .index_of(column)
                .ok_or_else(|| EngineError::plan(format!("column '{column}' missing")))?;
            let compiled = JsonPath::parse(path)
                .map_err(|e| EngineError::plan(format!("bad path '{path}': {e}")))?;
            let mut values = Vec::new();
            let mut bytes = 0u64;
            for split in 0..self.table.file_count() {
                let file = open_split(&self.table, split, metrics)?;
                let cols = file.read_columns(&[col_idx], None)?;
                let kernels_before = maxson_json::kernels::thread_build_stats();
                let parse_start = Instant::now();
                let mut stats = maxson_json::tape::TapeStats::default();
                for i in 0..cols[0].len() {
                    let v = match cols[0].get(i) {
                        Cell::Str(json) => {
                            maxson_json::tape::project_path(&json, &compiled, &mut stats)
                                .map_or(Cell::Null, Cell::from)
                        }
                        _ => Cell::Null,
                    };
                    bytes += v.byte_size() as u64;
                    values.push(v);
                    metrics.parse_calls += 1;
                    // One real parse per value: the LRU fills one path at a
                    // time, so there is no intra-column sharing here.
                    metrics.docs_parsed += 1;
                }
                let parse_spent = parse_start.elapsed();
                metrics.parse += parse_spent;
                metrics.parse_wall += parse_spent;
                metrics.nodes_skipped += stats.nodes_skipped;
                metrics.charge_bitmap_builds(kernels_before);
                metrics.charge_path_extracts(path, cols[0].len() as u64);
            }
            let values = Arc::new(values);
            // Insert with LRU eviction.
            {
                let mut st = self.state.lock().expect("lru state lock");
                st.clock += 1;
                let clock = st.clock;
                while st.used_bytes + bytes > self.budget_bytes && !st.entries.is_empty() {
                    let victim = st
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("non-empty");
                    if let Some(e) = st.entries.remove(&victim) {
                        st.used_bytes -= e.bytes;
                        metrics.lru_evictions += 1;
                    }
                }
                if bytes <= self.budget_bytes {
                    st.used_bytes += bytes;
                    st.entries.insert(
                        key,
                        LruEntry {
                            values: Arc::clone(&values),
                            bytes,
                            table_version: version,
                            last_used: clock,
                        },
                    );
                }
                metrics.lru_resident_bytes = metrics.lru_resident_bytes.max(st.used_bytes);
                self.metrics
                    .gauge("maxson_lru_resident_bytes", &[])
                    .set(st.used_bytes);
            }
            call_columns.push(values);
        }

        // Stitch rows: raw columns then call columns, split by split.
        let mut rows = Vec::new();
        let mut offset = 0usize;
        for cols in &raw_cols {
            let n = if cols.is_empty() {
                // No raw output columns: derive length from call columns.
                call_columns.first().map(|c| c.len() - offset).unwrap_or(0)
            } else {
                cols[0].len()
            };
            for i in 0..n {
                let mut row: Vec<Cell> = cols.iter().map(|c| c.get(i)).collect();
                for cc in &call_columns {
                    row.push(cc[offset + i].clone());
                }
                metrics.bytes_read += row.iter().map(Cell::byte_size).sum::<usize>() as u64;
                rows.push(row);
            }
            offset += n;
            if cols.is_empty() {
                break;
            }
        }
        metrics.rows_scanned += rows.len() as u64;
        span.attr("rows_out", rows.len());
        Ok(Batch::Rows(rows))
    }

    fn label(&self) -> String {
        format!("OnlineLruScan({}.{})", self.database, self.table_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_engine::session::Session;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::ColumnType;
    use std::path::PathBuf;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-lru-{}-{nanos}-{name}", std::process::id()))
    }

    fn setup(name: &str) -> (Session, PathBuf) {
        let root = temp_root(name);
        let mut session = Session::open(&root).unwrap();
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let mut catalog = session.catalog_mut();
        let t = catalog.create_table("db", "t", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..30)
            .map(|i| {
                vec![
                    Cell::Int(i),
                    Cell::from(format!(r#"{{"a": {i}, "b": "x{i}"}}"#)),
                ]
            })
            .collect();
        t.append_file(&rows, WriteOptions::default(), 1).unwrap();
        drop(catalog);
        (session, root)
    }

    /// `(lru_hits, lru_misses, lru_evictions)` of one execution.
    fn lru_events(session: &Session, sql: &str) -> (u64, u64, u64) {
        let m = session.execute(sql).unwrap().metrics;
        (m.lru_hits, m.lru_misses, m.lru_evictions)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let (mut session, root) = setup("hits");
        let lru = OnlineLruRewriter::new(u64::MAX);
        session.set_scan_rewriter(Some(Box::new(lru)));
        let sql = "select get_json_object(payload, '$.a') as a from db.t";
        let expected: Vec<Vec<Cell>> = (0..30).map(|i| vec![Cell::from(i.to_string())]).collect();
        let r1 = session.execute(sql).unwrap();
        assert_eq!(r1.rows, expected);
        assert_eq!((r1.metrics.lru_hits, r1.metrics.lru_misses), (0, 1));
        let r2 = session.execute(sql).unwrap();
        assert_eq!(r2.rows, expected);
        assert_eq!((r2.metrics.lru_hits, r2.metrics.lru_misses), (1, 0));
        // The hit run performs no parsing.
        assert_eq!(r2.metrics.parse_calls, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The miss fill parses through the tape projector, which builds one
    /// set of structural bitmaps per document: that kernel work is charged
    /// like any other parse's.
    #[test]
    fn miss_fill_charges_structural_kernel_work() {
        let (mut session, root) = setup("bitmaps");
        let lru = OnlineLruRewriter::new(u64::MAX);
        session.set_scan_rewriter(Some(Box::new(lru)));
        let m = session
            .execute(
                "select get_json_object(payload, '$.a') as a, \
                 get_json_object(payload, '$.b') as b from db.t",
            )
            .unwrap()
            .metrics;
        assert_eq!(m.lru_misses, 2);
        assert_eq!(m.docs_parsed, 60);
        assert_eq!(m.bitmap_builds, m.docs_parsed);
        assert!(m.bitmap_bytes > 0);
        assert_ne!(m.simd_kernel, 0, "the tier that ran is recorded");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn eviction_under_small_budget() {
        let (mut session, root) = setup("evict");
        // Budget fits roughly one column of small values.
        let lru = OnlineLruRewriter::new(80);
        let state = Arc::clone(&lru.state);
        session.set_scan_rewriter(Some(Box::new(lru)));
        let a = "select get_json_object(payload, '$.a') as a from db.t";
        assert_eq!(lru_events(&session, a), (0, 1, 0));
        let b = "select get_json_object(payload, '$.b') as b from db.t";
        let (_, misses, evictions) = lru_events(&session, b);
        assert_eq!((misses, evictions), (1, 1), "budget forces eviction");
        {
            let st = state.lock().unwrap();
            assert!(st.entries.len() <= 1);
            assert!(st.used_bytes <= 80);
        }
        // $.a was evicted: next access misses again.
        assert_eq!(lru_events(&session, a).1, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn table_update_invalidates_entries() {
        let (mut session, root) = setup("invalidate");
        session.set_scan_rewriter(Some(Box::new(OnlineLruRewriter::new(u64::MAX))));
        let sql = "select get_json_object(payload, '$.a') as a from db.t";
        assert_eq!(lru_events(&session, sql), (0, 1, 0));
        // Append new data: version bump.
        session
            .catalog_mut()
            .table_mut("db", "t")
            .unwrap()
            .append_file(
                &[vec![Cell::Int(99), Cell::Str(r#"{"a": 99}"#.into())]],
                WriteOptions::default(),
                7,
            )
            .unwrap();
        // The planner hands the rewriter the appended table: the cached
        // column's version no longer matches it.
        let r = session.execute(sql).unwrap();
        assert_eq!(r.rows.len(), 31);
        assert_eq!(
            (r.metrics.lru_hits, r.metrics.lru_misses),
            (0, 1),
            "stale entry must not be served"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
