//! The Maxson parser / plan rewriter (Algorithm 1).
//!
//! Implemented as a [`TableScanRewriter`]: while the engine compiles SQL to
//! a plan, every table scan is offered to Maxson together with its
//! `get_json_object` calls and the query predicate. For each call the
//! rewriter pattern-matches the `(database, table, column, path)` key
//! against the cache registry; a hit whose cache time is at or after the
//! raw table's last modification time becomes a *placeholder* — a plain
//! column reference into the combined scan output — while a stale entry is
//! passed over (the next population cycle rebuilds it) and the call keeps
//! paying the parse cost.
//!
//! Every decision is counted once, in the registry the planner lends
//! ([`ScanContext::metrics`]): `maxson_rewrite_paths_total{outcome="hit"|"miss"|"stale"}`
//! per call and
//! `maxson_scan_rewrites_total{decision="cache_only"|"combined"|"no_rewrite"}`
//! per scan. The lent tracer only records a `maxson_rewrite` span per scan,
//! below the query's `planning` span.
//!
//! The rewriter decides nothing about what the scan reads: it names the
//! cache table and the resolved fields, and the engine's one scan builder,
//! [`ScanContext::build_scan`], derives the raw and cache projections, the
//! output schema and the two SARGs (Algorithm 3) from them. Staleness is
//! judged against [`ScanContext::table`], the snapshot of the raw table the
//! scan reads, so rows appended after the rewriter was installed are never
//! dropped by a cache that predates them.

use std::sync::Arc;

use maxson_engine::planner::CacheSide;
use maxson_engine::session::{ScanContext, ScanRewrite, Session, TableScanRewriter};
use maxson_engine::EngineError;
use maxson_storage::Catalog;
use maxson_trace::JsonPathLocation;

use crate::cacher::{CacheRegistry, CACHE_DB};

/// The rewriter. Holds its own read-only catalog handle for the cache
/// tables (opened over the session's warehouse root and footer cache) plus
/// the cache registry; the raw table comes with each scan's context. It
/// keeps no tally and no observer of its own: every decision is charged to
/// the registry the scan's context lends, so planning a scan takes no lock
/// of the rewriter's.
pub struct MaxsonScanRewriter {
    catalog: Catalog,
    registry: CacheRegistry,
    /// Enable Algorithm 3 pushdown (ablation switch).
    pub enable_pushdown: bool,
}

impl MaxsonScanRewriter {
    /// Open a rewriter over `session`'s warehouse, loading the registry
    /// from disk. Its catalog reads part files through the session's footer
    /// cache, so rewritten scans share its resident footers and open files.
    pub fn open(session: &Session) -> crate::Result<Self> {
        let catalog = {
            let current = session.catalog();
            Catalog::open_with_cache(current.root(), Arc::clone(current.meta_cache()))?
        };
        let registry = CacheRegistry::load(&catalog)?;
        Ok(Self::with_registry(catalog, registry))
    }

    /// Build from parts (used by the pipeline right after population).
    pub fn with_registry(catalog: Catalog, registry: CacheRegistry) -> Self {
        MaxsonScanRewriter {
            catalog,
            registry,
            enable_pushdown: true,
        }
    }
}

impl TableScanRewriter for MaxsonScanRewriter {
    fn name(&self) -> &str {
        "Maxson"
    }

    fn rewrite_scan(&self, ctx: &ScanContext<'_>) -> maxson_engine::Result<Option<ScanRewrite>> {
        if ctx.json_calls.is_empty() || ctx.database == CACHE_DB {
            return Ok(None);
        }
        let span = ctx.tracer.child("maxson_rewrite", ctx.planning);
        span.attr("table", format!("{}.{}", ctx.database, ctx.table_name));

        // Classify each call: valid hit, stale, or miss (Alg. 1 lines 14-23).
        let (mut misses, mut stale) = (0u64, 0u64);
        let mut resolved: Vec<((String, String), String)> = Vec::new();
        let mut cache_table_name: Option<&str> = None;
        for (column, path) in ctx.json_calls {
            let loc =
                JsonPathLocation::new(ctx.database, ctx.table_name, column.clone(), path.clone());
            match self.registry.get(&loc) {
                // Stale: the table changed after caching; fall back to parsing.
                Some(entry) if ctx.table.modified_at() > entry.cached_at => stale += 1,
                Some(entry) => {
                    cache_table_name = Some(&entry.cache_table);
                    resolved.push(((column.clone(), path.clone()), entry.cache_field.clone()));
                }
                None => misses += 1,
            }
        }
        let outcome = |o: &str| {
            ctx.metrics
                .counter("maxson_rewrite_paths_total", &[("outcome", o)])
        };
        // `miss` counts never-cached paths only; stale entries get their
        // own outcome so cache churn is visible separately.
        outcome("hit").add(resolved.len() as u64);
        outcome("miss").add(misses);
        outcome("stale").add(stale);
        if span.is_recording() {
            span.attr("hits", resolved.len());
            span.attr("misses", misses + stale);
        }
        let decide = |decision: &str| {
            span.attr("decision", decision);
            ctx.metrics
                .counter("maxson_scan_rewrites_total", &[("decision", decision)])
                .inc();
        };
        let Some(cache_table_name) = cache_table_name else {
            decide("no_rewrite");
            return Ok(None); // No valid hits: keep the default scan.
        };
        let cache_table = self
            .catalog
            .table(CACHE_DB, cache_table_name)
            .map_err(EngineError::Storage)?;
        let provider = ctx.build_scan(Some(CacheSide {
            table: cache_table,
            resolved: &resolved,
            pushdown: self.enable_pushdown,
        }))?;
        decide(if provider.is_cache_only() {
            "cache_only"
        } else {
            "combined"
        });
        Ok(Some(ScanRewrite {
            provider: Box::new(provider),
            resolved_paths: resolved,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cacher::{cache_field_name, cache_table_name, CachedEntry};
    use crate::mpjp::MpjpCandidate;
    use crate::score::score_candidates;
    use maxson_engine::session::Session;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, ColumnType, Field, Schema};
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::QueryRecord;
    use std::path::PathBuf;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-rw-{}-{nanos}-{name}", std::process::id()))
    }

    fn loc(path: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "payload", path)
    }

    /// A warehouse with one table and a populated cache over `$.a`.
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
        t.append_file(
            &rows,
            WriteOptions {
                row_group_size: 10,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        drop(catalog);
        // Populate a cache for $.a only.
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
        let ranked = score_candidates(&session.catalog(), &cands, &history).unwrap();
        let cacher = crate::cacher::JsonPathCacher::new(u64::MAX);
        cacher
            .populate(&mut session.catalog_mut(), &ranked, 100)
            .unwrap();
        (session, root)
    }

    /// A scan context over `db.t` planned outside a traced query, lending
    /// `session`'s registry.
    fn context<'a>(
        session: &'a Session,
        table: &'a maxson_storage::Table,
        raw_columns: &'a [String],
        json_calls: &'a [(String, String)],
    ) -> ScanContext<'a> {
        ScanContext {
            database: "db",
            table_name: "t",
            table,
            alias: None,
            raw_columns,
            json_calls,
            predicate: None,
            tracer: session.tracer(),
            planning: None,
            metrics: session.metrics_registry(),
        }
    }

    /// `[hit, miss, stale]` path outcomes and `[cache_only, combined,
    /// no_rewrite]` scan decisions charged to `registry`.
    fn outcomes(registry: &maxson_obs::Registry) -> ([u64; 3], [u64; 3]) {
        let count = |name: &str, label: &str, value: &str| {
            registry.counter_value(name, &[(label, value)]).unwrap_or(0)
        };
        (
            ["hit", "miss", "stale"].map(|o| count("maxson_rewrite_paths_total", "outcome", o)),
            ["cache_only", "combined", "no_rewrite"]
                .map(|d| count("maxson_scan_rewrites_total", "decision", d)),
        )
    }

    #[test]
    fn registry_counts_hits_misses_and_scan_decisions() {
        let (mut session, root) = setup("stats");
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
        let registry = Arc::clone(session.metrics_registry());
        // $.a hits (cache-only: no raw columns needed).
        session
            .execute("select get_json_object(payload, '$.a') as a from db.t")
            .unwrap();
        assert_eq!(outcomes(&registry), ([1, 0, 0], [1, 0, 0]));
        // $.a hits + $.b misses (combined scan).
        session
            .execute(
                "select get_json_object(payload, '$.a') as a, \
                 get_json_object(payload, '$.b') as b from db.t",
            )
            .unwrap();
        assert_eq!(outcomes(&registry), ([2, 1, 0], [1, 1, 0]));
        // $.b alone misses: no valid hit, so the default scan parses it.
        let res = session
            .execute("select get_json_object(payload, '$.b') as b from db.t")
            .unwrap();
        assert!(res.metrics.parse_calls > 0, "$.b is not cached");
        assert_eq!(outcomes(&registry), ([2, 2, 0], [1, 1, 1]));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rewriter_ignores_cache_db_scans() {
        let (_, root) = setup("cachedb");
        let session = Session::open(&root).unwrap();
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        // Query the cache table directly: the rewriter must not recurse.
        let mut s2 = session;
        s2.set_scan_rewriter(Some(Box::new(rewriter)));
        let field = cache_field_name("payload", "$.a");
        let result = s2
            .execute(&format!(
                "select {field} from {CACHE_DB}.{}",
                cache_table_name("db", "t")
            ))
            .unwrap();
        assert_eq!(result.rows.len(), 30);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_entry_is_counted_stale_not_miss() {
        let (mut session, root) = setup("stale");
        // Touch the raw table after caching (logical time 200 > 100).
        session
            .catalog_mut()
            .table_mut("db", "t")
            .unwrap()
            .touch(200)
            .unwrap();
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        let catalog = session.catalog();
        let calls = vec![
            ("payload".to_string(), "$.a".to_string()),
            ("payload".to_string(), "$.b".to_string()),
        ];
        let table = catalog.table("db", "t").unwrap();
        let ctx = context(&session, table, &[], &calls);
        let rewrite = rewriter.rewrite_scan(&ctx).unwrap();
        assert!(rewrite.is_none(), "stale cache must not rewrite");
        // Both calls parse, but only never-cached `$.b` is a miss: stale
        // `$.a` is counted apart from it.
        assert_eq!(outcomes(session.metrics_registry()), ([0, 1, 1], [0, 0, 1]));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rewrite_scan_resolves_hit_and_keeps_miss() {
        let (session, root) = setup("mixed");
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        let catalog = session.catalog();
        let calls = vec![
            ("payload".to_string(), "$.a".to_string()),
            ("payload".to_string(), "$.b".to_string()),
        ];
        let raw_cols = vec!["id".to_string()];
        let table = catalog.table("db", "t").unwrap();
        let ctx = context(&session, table, &raw_cols, &calls);
        let rewrite = rewriter.rewrite_scan(&ctx).unwrap().expect("hit rewrites");
        assert_eq!(rewrite.resolved_paths.len(), 1);
        assert_eq!(
            rewrite.resolved_paths[0].0,
            ("payload".to_string(), "$.a".to_string())
        );
        // Output schema: id + payload (for the $.b miss) + cache field.
        let names: Vec<&str> = rewrite
            .provider
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert!(names.contains(&"id"));
        assert!(names.contains(&"payload"));
        assert!(names.contains(&cache_field_name("payload", "$.a").as_str()));
        assert_eq!(outcomes(session.metrics_registry()), ([1, 1, 0], [0, 1, 0]));
        std::fs::remove_dir_all(&root).ok();
    }

    /// The planner hands the two sides of a join their aliases; the
    /// rewriter passes them to the shared SARG translator, so a qualified
    /// raw column and a qualified call over a cached path are pushed
    /// exactly as the unqualified forms are.
    #[test]
    fn aliased_join_sides_keep_raw_and_cache_pushdown() {
        let (plain, root) = setup("alias");
        let mut rewritten = Session::open(&root).unwrap();
        let rewriter = MaxsonScanRewriter::open(&rewritten).unwrap();
        rewritten.set_scan_rewriter(Some(Box::new(rewriter)));
        let select = "select a.id, get_json_object(a.payload, '$.a') \
                      from db.t a join db.t b on a.id = b.id";
        let run = |predicate: &str, ids: std::ops::Range<i64>| {
            let sql = format!("{select} where {predicate}");
            let expected: Vec<Vec<Cell>> = ids
                .map(|i| vec![Cell::Int(i), Cell::from(i.to_string())])
                .collect();
            let reference = plain.execute(&sql).unwrap();
            let result = rewritten.execute(&sql).unwrap();
            assert!(
                result.plan_display.contains("MaxsonCombinedScan"),
                "plan not rewritten:\n{}",
                result.plan_display
            );
            assert_eq!(reference.rows, expected, "plain: {predicate}");
            assert_eq!(result.rows, expected, "rewritten: {predicate}");
            (reference.metrics, result.metrics)
        };
        // `id` clusters the raw row groups (three groups of ten rows).
        let (reference, result) = run("a.id < 10 and b.id < 10", 0..10);
        assert!(result.row_groups_skipped > 0, "{result:?}");
        assert_eq!(result.row_groups_skipped, reference.row_groups_skipped);
        // `$.a` clusters the cache table's the same way; only the rewritten
        // plan can skip on it.
        let (reference, result) = run(
            "get_json_object(a.payload, '$.a') > 19 and get_json_object(b.payload, '$.a') > 19",
            20..30,
        );
        assert_eq!(reference.row_groups_skipped, 0);
        assert!(result.row_groups_skipped > 0, "{result:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn no_json_calls_keeps_default_scan() {
        let (session, root) = setup("nocalls");
        let rewriter = MaxsonScanRewriter::open(&session).unwrap();
        let catalog = session.catalog();
        let raw_cols = vec!["id".to_string()];
        let ctx = context(&session, catalog.table("db", "t").unwrap(), &raw_cols, &[]);
        assert!(rewriter.rewrite_scan(&ctx).unwrap().is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn registry_entry_shape() {
        let e = CachedEntry {
            location: loc("$.a"),
            cache_table: cache_table_name("db", "t"),
            cache_field: cache_field_name("payload", "$.a"),
            cached_at: 5,
            bytes: 10,
        };
        assert_eq!(e.cache_table, "db__t");
        assert!(e.cache_field.starts_with("payload"));
    }
}
