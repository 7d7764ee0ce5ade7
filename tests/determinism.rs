//! Determinism pins for everything built on the testkit PRNG: the same
//! seed must yield byte-identical output across runs, or replayable
//! failure seeds and the regenerable `bench-data/` warehouse stop meaning
//! anything.

mod support;

use maxson::cacher::{cache_table_name, CACHE_DB};
use maxson::{CacheRegistry, JsonPathCacher, ScoredMpjp};
use maxson_datagen::tables::{load_workload_tables, WorkloadConfig};
use maxson_datagen::NobenchGenerator;
use maxson_json::JsonPath;
use maxson_storage::{Catalog, Cell};
use maxson_trace::{JsonPathLocation, SynthConfig, TraceSynthesizer};
use std::path::PathBuf;
use support::temp_root;

#[test]
fn trace_synthesis_is_deterministic_per_seed() {
    let cfg = SynthConfig {
        days: 10,
        users: 20,
        ..Default::default()
    };
    let a = TraceSynthesizer::new(cfg.clone()).generate();
    let b = TraceSynthesizer::new(cfg.clone()).generate();
    assert_eq!(a.queries, b.queries, "query stream diverged");
    assert_eq!(a.updates, b.updates, "update stream diverged");
    assert_eq!(a.universe, b.universe, "path universe diverged");

    // A different seed must actually change the stream.
    let c = TraceSynthesizer::new(SynthConfig {
        seed: cfg.seed + 1,
        ..cfg
    })
    .generate();
    assert_ne!(a.queries, c.queries, "seed has no effect on the trace");
}

#[test]
fn nobench_generation_is_deterministic_per_seed() {
    let a = NobenchGenerator::new(7).records(200);
    let b = NobenchGenerator::new(7).records(200);
    assert_eq!(a, b, "nobench records diverged for the same seed");

    let c = NobenchGenerator::new(8).records(200);
    assert_ne!(a, c, "seed has no effect on nobench records");
}

#[test]
fn workload_tables_are_deterministic_per_seed() {
    let cfg = WorkloadConfig {
        rows_per_table: 60,
        files_per_table: 2,
        row_group_size: 10,
        ..Default::default()
    };
    let mut snapshots: Vec<Vec<(String, Vec<Vec<maxson_storage::Cell>>)>> = Vec::new();
    for run in 0..2 {
        let root = temp_root(&format!("workload-{run}"));
        let mut catalog = Catalog::open(&root).unwrap();
        load_workload_tables(&mut catalog, &cfg).unwrap();
        let mut tables = Vec::new();
        for spec in maxson_datagen::table_specs() {
            let table = catalog.table(&cfg.database, spec.name).unwrap();
            let mut rows = Vec::new();
            for split in 0..table.file_count() {
                rows.extend(table.open_split(split).unwrap().read_all_rows().unwrap());
            }
            tables.push((spec.name.to_string(), rows));
        }
        snapshots.push(tables);
        std::fs::remove_dir_all(&root).ok();
    }
    let second = snapshots.pop().unwrap();
    let first = snapshots.pop().unwrap();
    for ((name_a, rows_a), (name_b, rows_b)) in first.iter().zip(&second) {
        assert_eq!(name_a, name_b);
        assert_eq!(rows_a, rows_b, "table {name_a} diverged between runs");
    }
}

/// The cache tables `bench-data/` commits are what the cacher builds today
/// from the raw tables committed beside them: same part-file bytes (values,
/// row-group statistics, dictionary/plain choice, footer, checksum), same
/// `_meta.json`, same registry entries. The worker count comes from
/// `MAXSON_THREADS` (ci.sh runs this at 1 and 4), so the bytes cannot depend
/// on it either. A deliberate format change regenerates `bench-data/` (see
/// ROADMAP's standing policies) and this pin moves with it.
#[test]
fn cache_build_reproduces_the_committed_cache_tables() {
    // The raw tables small enough to be committed (.gitignore).
    const SHIPPED: [&str; 5] = ["q1", "q2", "q5", "q7", "q8"];
    let committed = support::bench_data_root();
    let root = temp_root("committed-cache");
    for table in SHIPPED {
        let to = root.join("mydb").join(table);
        std::fs::create_dir_all(&to).unwrap();
        for entry in std::fs::read_dir(committed.join("mydb").join(table)).unwrap() {
            let from = entry.unwrap().path();
            std::fs::copy(&from, to.join(from.file_name().unwrap())).unwrap();
        }
    }

    // The committed admission, in the committed cache-schema order.
    let reference = Catalog::open(&committed).unwrap();
    let registry = CacheRegistry::load(&reference).unwrap();
    let mut ranked: Vec<ScoredMpjp> = Vec::new();
    for table in SHIPPED {
        let cache = reference
            .table(CACHE_DB, &format!("mydb__{table}"))
            .unwrap();
        for field in cache.schema().fields() {
            let entry = registry
                .entries()
                .find(|e| e.location.table == table && e.cache_field == field.name)
                .unwrap();
            ranked.push(ScoredMpjp {
                location: entry.location.clone(),
                parse_time: 0.0,
                value_size: 0.0,
                acceleration: 0.0,
                relevance: 0.0,
                occurrence: 0,
                score: 0.0,
                estimated_bytes: entry.bytes,
            });
        }
    }

    let mut catalog = Catalog::open(&root).unwrap();
    let (built, _) = JsonPathCacher::new(u64::MAX)
        .populate(&mut catalog, &ranked, 100)
        .unwrap();
    for table in SHIPPED {
        let name = format!("mydb__{table}");
        let files = reference.table(CACHE_DB, &name).unwrap().files().to_vec();
        assert_eq!(catalog.table(CACHE_DB, &name).unwrap().files(), files);
        for file in files.iter().map(String::as_str).chain(["_meta.json"]) {
            let at = |base: &PathBuf| std::fs::read(base.join(CACHE_DB).join(&name).join(file));
            assert!(
                at(&root).unwrap() == at(&committed).unwrap(),
                "{name}/{file} differs from the committed bytes"
            );
        }
    }
    assert_eq!(built.len(), ranked.len());
    for entry in built.entries() {
        assert_eq!(registry.get(&entry.location), Some(entry));
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The cache the cacher builds over all ten generated tables — the nested
/// (q3, q4), wide (q6) and 21 kB (q9, q10) documents the committed pin
/// above does not ship, schema-variance rows (dropped and renamed fields)
/// included — holds, cell for cell, what `get_json_objects` answers on the
/// cell's raw document, and is aligned with the raw parts row for row.
#[test]
fn cache_build_values_match_the_dom_on_all_ten_tables() {
    let root = temp_root("all-ten-cache");
    let mut catalog = Catalog::open(&root).unwrap();
    let config = WorkloadConfig {
        rows_per_table: 90,
        files_per_table: 2,
        row_group_size: 20,
        ..Default::default()
    };
    let queries = load_workload_tables(&mut catalog, &config).unwrap();
    assert_eq!(queries.len(), 10);
    let ranked: Vec<ScoredMpjp> = queries
        .iter()
        .flat_map(|q| {
            q.paths.iter().map(|path| ScoredMpjp {
                location: JsonPathLocation::new(&q.database, &q.table, "payload", path),
                parse_time: 0.0,
                value_size: 0.0,
                acceleration: 0.0,
                relevance: 0.0,
                occurrence: 0,
                score: 0.0,
                estimated_bytes: 0,
            })
        })
        .collect();
    let (registry, _) = JsonPathCacher::new(u64::MAX)
        .populate(&mut catalog, &ranked, 100)
        .unwrap();
    let (mut cells, mut nulls) = (0usize, 0usize);
    for q in &queries {
        let raw = catalog.table(&q.database, &q.table).unwrap();
        let cache = catalog
            .table(CACHE_DB, &cache_table_name(&q.database, &q.table))
            .unwrap();
        let paths: Vec<JsonPath> = q
            .paths
            .iter()
            .map(|p| JsonPath::parse(p).unwrap())
            .collect();
        let fields: Vec<usize> = q
            .paths
            .iter()
            .map(|path| {
                let location = JsonPathLocation::new(&q.database, &q.table, "payload", path);
                let entry = registry.get(&location).unwrap();
                cache.schema().index_of(&entry.cache_field).unwrap()
            })
            .collect();
        let payload = raw.schema().index_of("payload").unwrap();
        assert_eq!(cache.file_count(), raw.file_count());
        for split in 0..raw.file_count() {
            let (raw_file, cache_file) = (
                raw.open_split(split).unwrap(),
                cache.open_split(split).unwrap(),
            );
            let docs = raw_file
                .read_columns(&[payload], None)
                .unwrap()
                .swap_remove(0);
            let cached = cache_file.read_columns(&fields, None).unwrap();
            let row_groups = |f: &maxson_storage::NorcFile| -> Vec<usize> {
                f.row_groups().map(|rg| rg.row_count).collect()
            };
            assert_eq!(
                row_groups(&cache_file),
                row_groups(&raw_file),
                "{} split {split}",
                q.table
            );
            for row in 0..docs.len() {
                let Cell::Str(doc) = docs.get(row) else {
                    panic!("{} row {row}: a NULL document", q.table);
                };
                let expected = maxson_json::get_json_objects(&doc, &paths);
                for (i, want) in expected.iter().enumerate() {
                    let got = match cached[i].get(row) {
                        Cell::Null => None,
                        Cell::Str(s) => Some(s.to_string()),
                        other => panic!("a cache cell is a string: {other:?}"),
                    };
                    assert_eq!(
                        &got, want,
                        "{} split {split} row {row} {}",
                        q.table, paths[i]
                    );
                    cells += 1;
                    nulls += usize::from(got.is_none());
                }
            }
        }
    }
    assert_eq!(cells, 90 * ranked.len());
    // Schema variance drops and renames fields: some paths miss.
    assert!(nulls > 0, "no schema-variance row reached the cache");
    std::fs::remove_dir_all(&root).ok();
}

/// `NorcFile::read_columns` over every committed part file — the five
/// shipped raw tables and all cache tables, every column, every row —
/// folded into one FNV-1a digest of the rendered cells. The constant was
/// taken with the decoder this repository had before chunks were decoded in
/// place (one `ColumnData::decode` per chunk, concatenated a `get` + `push`
/// at a time), so the single-copy decoder reads the warehouse as that one
/// did.
#[test]
fn read_columns_of_the_committed_warehouse_is_pinned() {
    const SHIPPED: [&str; 5] = ["q1", "q2", "q5", "q7", "q8"];
    let catalog = Catalog::open(support::bench_data_root()).unwrap();
    let mut tables: Vec<(String, String)> = catalog
        .list_tables()
        .into_iter()
        .filter(|(db, name)| db == CACHE_DB || SHIPPED.contains(&name.as_str()))
        .collect();
    tables.sort();
    let (mut digest, mut cells) = (0xcbf2_9ce4_8422_2325u64, 0u64);
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    };
    for (db, name) in &tables {
        let table = catalog.table(db, name).unwrap();
        let columns: Vec<usize> = (0..table.schema().len()).collect();
        for split in 0..table.file_count() {
            let file = table.open_split(split).unwrap();
            for column in file.read_columns(&columns, None).unwrap() {
                for row in 0..column.len() {
                    let cell = column.get(row);
                    fold(&[u8::from(cell.is_null())]);
                    fold(cell.render().as_bytes());
                    fold(&[0xff]);
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(tables.len(), 15, "five raw tables and ten cache tables");
    assert_eq!((cells, digest), (210_000, 8_884_663_090_766_363_383));
}
