//! The scoring function of §IV-B.
//!
//! `Score_j = A_j · R_j · O_j` where
//!
//! * `A_j = P_j / B_j` — *acceleration per byte*: average parse cost of the
//!   path over average parsed-value size, measured by sampling rows from
//!   the raw table. `P_j` is a deterministic bytes-parsed proxy (mean raw
//!   document length): a full parse touches every input byte, so cost is
//!   proportional to document size, and using bytes instead of a wall
//!   clock keeps scores — and the cache tables built from them —
//!   reproducible across runs and machine load,
//! * `R_j` — *relevance*: over the queries that access `j`, the fraction of
//!   their JSONPaths that are MPJPs (`ΣM_i / ΣN_i`); caching high-relevance
//!   paths makes whole queries cache-only,
//! * `O_j` — *occurrence*: the number of queries that access `j`.

use std::collections::{BTreeMap, BTreeSet};

use maxson_engine::pool;
use maxson_json::tape::{self, PathSet, TapeStats};
use maxson_json::JsonPath;
use maxson_storage::{Catalog, ColumnType, Table};
use maxson_trace::{JsonPathLocation, QueryRecord};

use crate::cacher::pool_threads;
use crate::error::{MaxsonError, Result};
use crate::mpjp::MpjpCandidate;

/// A candidate with its measured/derived scoring factors.
#[derive(Debug, Clone)]
pub struct ScoredMpjp {
    /// The path.
    pub location: JsonPathLocation,
    /// Deterministic parse-cost proxy per record (`P_j`): mean raw document
    /// bytes parsed. A full parse touches every byte, so cost is linear in
    /// document length; counting bytes instead of timing keeps scoring
    /// independent of machine load.
    pub parse_time: f64,
    /// Average parsed-value size in bytes (`B_j`).
    pub value_size: f64,
    /// Acceleration per byte (`A_j = P_j / B_j`).
    pub acceleration: f64,
    /// Relevance (`R_j`).
    pub relevance: f64,
    /// Occurrence count (`O_j`).
    pub occurrence: u64,
    /// Final score.
    pub score: f64,
    /// Estimated total cache footprint in bytes (`B_j × rows`).
    pub estimated_bytes: u64,
}

/// How many rows to sample per table when measuring `P_j` and `B_j`.
const SAMPLE_ROWS: usize = 64;

/// `O_j` and the two sums behind `R_j` of one candidate.
#[derive(Debug, Default)]
struct Tally {
    occurrence: u64,
    relevance_num: u64,
    relevance_den: u64,
}

/// Measure `P_j`/`B_j` for every candidate and combine with `R_j`/`O_j`
/// from the recent query history. Returns candidates sorted by descending
/// score (the order the cacher consumes). The tables are sampled in
/// parallel on the split pool the cache build runs on.
pub fn score_candidates(
    catalog: &Catalog,
    candidates: &[MpjpCandidate],
    history: &[QueryRecord],
) -> Result<Vec<ScoredMpjp>> {
    score_candidates_on(catalog, candidates, history, pool_threads())
}

/// [`score_candidates`] sampling the source tables as tasks on at most
/// `threads` workers. Results come back in task order, so every score is
/// the same at any thread count.
fn score_candidates_on(
    catalog: &Catalog,
    candidates: &[MpjpCandidate],
    history: &[QueryRecord],
    threads: usize,
) -> Result<Vec<ScoredMpjp>> {
    // Per-query M_i (MPJPs among its paths) and N_i (paths), and O_j per
    // MPJP, with each path's key built once per query.
    let mut tallies: BTreeMap<String, Tally> = candidates
        .iter()
        .map(|c| (c.location.key(), Tally::default()))
        .collect();
    let mut keys = Vec::new();
    for q in history {
        let n_i = q.paths.len() as u64;
        if n_i == 0 {
            continue;
        }
        keys.clear();
        keys.extend(q.paths.iter().map(JsonPathLocation::key));
        let m_i = keys.iter().filter(|k| tallies.contains_key(*k)).count() as u64;
        let mut seen = BTreeSet::new();
        for key in &keys {
            if let Some(tally) = tallies.get_mut(key) {
                if seen.insert(key) {
                    tally.occurrence += 1;
                    tally.relevance_num += m_i;
                    tally.relevance_den += n_i;
                }
            }
        }
    }

    // Group candidates per (db, table, column) so each table is sampled
    // once.
    let mut by_source: BTreeMap<(&str, &str, &str), Vec<&MpjpCandidate>> = BTreeMap::new();
    for c in candidates {
        let l = &c.location;
        by_source
            .entry((&l.database, &l.table, &l.column))
            .or_default()
            .push(c);
    }
    let sources: Vec<_> = by_source.into_iter().collect();
    // A source's error is the task's value, not the pool's: the first one
    // in source order is returned, as a serial loop would.
    let run = pool::run_split_tasks(sources.len(), threads, None, |i| {
        let ((db, table, column), cands) = &sources[i];
        Ok(measure_source(catalog, db, table, column, cands))
    })?;

    let mut scored = Vec::with_capacity(candidates.len());
    for ((_, cands), measured) in sources.iter().zip(run.results) {
        let (total_rows, measured) = measured?;
        for (cand, (parse_time, value_size)) in cands.iter().zip(measured) {
            let acceleration = if value_size > 0.0 {
                parse_time / value_size
            } else {
                0.0
            };
            let tally = &tallies[&cand.location.key()];
            let relevance = if tally.relevance_den > 0 {
                tally.relevance_num as f64 / tally.relevance_den as f64
            } else {
                0.0
            };
            let score = acceleration * relevance * tally.occurrence as f64;
            scored.push(ScoredMpjp {
                location: cand.location.clone(),
                parse_time,
                value_size,
                acceleration,
                relevance,
                occurrence: tally.occurrence,
                score,
                estimated_bytes: (value_size.max(1.0) as u64) * total_rows,
            });
        }
    }
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.location.cmp(&b.location))
    });
    Ok(scored)
}

/// The row count of `db.table` and the sampled `(P_j, B_j)` of each of
/// `cands`, all on `column`.
fn measure_source(
    catalog: &Catalog,
    db: &str,
    table_name: &str,
    column: &str,
    cands: &[&MpjpCandidate],
) -> Result<(u64, Vec<(f64, f64)>)> {
    let table = catalog.table(db, table_name)?;
    let col_idx = table.schema().index_of(column).ok_or_else(|| {
        MaxsonError::invalid(format!("column {column} missing in {db}.{table_name}"))
    })?;
    let total_rows = table.num_rows()? as u64;
    let paths = cands
        .iter()
        .map(|c| {
            JsonPath::parse(&c.location.path)
                .map_err(|e| MaxsonError::invalid(format!("bad path: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((total_rows, measure_sample(table, col_idx, &paths)?))
}

/// Average (parse-cost proxy, value bytes) of each of `paths` over the
/// first [`SAMPLE_ROWS`] documents of the table's first split: only those
/// rows are read, each borrowed from the read buffer, and every path is
/// answered by **one validating walk per sampled document** — the cache
/// build's [`tape::project`] over a compiled [`PathSet`]. The cost proxy is the mean raw document length in
/// bytes: evaluating a path through a full parse reads every input byte, so
/// the cost ratio between two paths on the same column equals their
/// document ratio — exactly what `A_j` divides away — while staying
/// bit-identical across runs (a wall clock here made the scores, and
/// therefore which cache tables get built, depend on machine load).
fn measure_sample(table: &Table, column: usize, paths: &[JsonPath]) -> Result<Vec<(f64, f64)>> {
    let mut docs = 0usize;
    let mut doc_bytes = 0usize;
    let mut value_bytes = vec![0usize; paths.len()];
    let file = match table.file_count() {
        0 => None,
        _ => Some(table.open_split(0)?),
    };
    if let Some(file) = file.filter(|f| f.schema().fields()[column].ty == ColumnType::Utf8) {
        let rows: Vec<u32> = (0..file.num_rows().min(SAMPLE_ROWS) as u32).collect();
        let set = PathSet::new(paths);
        let mut stats = TapeStats::default();
        file.visit_strs(column, Some(&rows), |json| {
            let Some(json) = json else { return };
            docs += 1;
            doc_bytes += json.len();
            // Every path is charged the NULL marker byte of
            // `Cell::Null.byte_size()` first; a path with a value trades it
            // for the value's length.
            value_bytes.iter_mut().for_each(|sum| *sum += 1);
            // A malformed document emits nothing.
            let _ = tape::project(json, &set, &mut stats, |i, value| {
                value_bytes[i] = value_bytes[i] - 1 + value.len();
            });
        })?;
    }
    if docs == 0 {
        return Ok(vec![(0.0, 1.0); paths.len()]);
    }
    let n = docs as f64;
    Ok(value_bytes
        .into_iter()
        .map(|bytes| (doc_bytes as f64 / n, bytes as f64 / n))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, ColumnType, Field, Schema};
    use maxson_trace::model::RecurrenceClass;
    use std::path::PathBuf;

    fn temp_root(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-score-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    fn loc(path: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "payload", path)
    }

    fn catalog_with_table(name: &str) -> (Catalog, PathBuf) {
        let root = temp_root(name);
        let mut cat = Catalog::open(&root).unwrap();
        let schema = Schema::new(vec![Field::new("payload", ColumnType::Utf8)]).unwrap();
        let t = cat.create_table("db", "t", schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..100)
            .map(|i| {
                vec![Cell::from(format!(
                    r#"{{"small": {i}, "big": "{}", "deep": {{"x": {{"y": {i}}}}}}}"#,
                    "z".repeat(200)
                ))]
            })
            .collect();
        t.append_file(&rows, WriteOptions::default(), 1).unwrap();
        (cat, root)
    }

    fn query(paths: &[&str]) -> QueryRecord {
        QueryRecord {
            query_id: 0,
            user_id: 0,
            day: 0,
            hour: 0,
            recurrence: RecurrenceClass::Daily,
            paths: paths.iter().map(|p| loc(p)).collect(),
        }
    }

    fn cand(path: &str) -> MpjpCandidate {
        MpjpCandidate {
            location: loc(path),
            target_day: 1,
        }
    }

    #[test]
    fn acceleration_prefers_small_values() {
        let (cat, root) = catalog_with_table("accel");
        let cands = vec![cand("$.small"), cand("$.big")];
        let history = vec![query(&["$.small"]), query(&["$.big"])];
        let scored = score_candidates(&cat, &cands, &history).unwrap();
        let small = scored
            .iter()
            .find(|s| s.location.path == "$.small")
            .unwrap();
        let big = scored.iter().find(|s| s.location.path == "$.big").unwrap();
        // Same parse cost regime but far smaller value => higher A_j.
        assert!(small.acceleration > big.acceleration);
        assert!(big.value_size > 100.0);
        assert!(small.estimated_bytes < big.estimated_bytes);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn relevance_and_occurrence_math() {
        let (cat, root) = catalog_with_table("relv");
        // $.small is MPJP; $.big is not. Query1 = {small} (M=1,N=1),
        // Query2 = {small, big} (M=1,N=2), Query3 = {big}.
        let cands = vec![cand("$.small")];
        let history = vec![
            query(&["$.small"]),
            query(&["$.small", "$.big"]),
            query(&["$.big"]),
        ];
        let scored = score_candidates(&cat, &cands, &history).unwrap();
        let s = &scored[0];
        assert_eq!(s.occurrence, 2);
        // R = (1 + 1) / (1 + 2) = 2/3.
        assert!((s.relevance - 2.0 / 3.0).abs() < 1e-9);
        assert!(s.score > 0.0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreferenced_candidate_scores_zero() {
        let (cat, root) = catalog_with_table("zero");
        let cands = vec![cand("$.small")];
        let history = vec![query(&["$.big"])];
        let scored = score_candidates(&cat, &cands, &history).unwrap();
        assert_eq!(scored[0].occurrence, 0);
        assert_eq!(scored[0].score, 0.0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sorted_descending_by_score() {
        let (cat, root) = catalog_with_table("sort");
        let cands = vec![cand("$.small"), cand("$.big"), cand("$.deep.x.y")];
        let history = vec![
            query(&["$.small", "$.deep.x.y"]),
            query(&["$.small"]),
            query(&["$.big"]),
        ];
        let scored = score_candidates(&cat, &cands, &history).unwrap();
        for w in scored.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// What `measure_sample` replaces, kept as the oracle: one full DOM parse per
    /// (sampled document, path) through `get_json_object`.
    fn measure_per_path(sample: &[String], path: &JsonPath) -> (f64, f64) {
        if sample.is_empty() {
            return (0.0, 1.0);
        }
        let mut doc_bytes = 0usize;
        let mut value_bytes = 0usize;
        for json in sample {
            doc_bytes += json.len();
            value_bytes += maxson_json::get_json_object(json, path).map_or(1, |v| v.len());
        }
        let n = sample.len() as f64;
        (doc_bytes as f64 / n, value_bytes as f64 / n)
    }

    /// Scores, order and footprints are bit-identical to the per-path
    /// measurement — with the sample inside one row group, spread over
    /// several, shorter than `SAMPLE_ROWS`, and holding NULL, malformed and
    /// escaped documents.
    #[test]
    fn scores_are_bit_identical_to_the_per_path_measurement() {
        let paths = [
            "$.small",
            "$.big",
            "$.deep.x.y",
            "$.deep",
            "$.arr[1]",
            "$.nope",
        ];
        for (name, rows, row_group_size) in [
            ("one-group", 100usize, 10_000usize),
            ("many-groups", 100, 10),
            ("ragged-groups", 100, 48),
            ("short", 23, 7),
        ] {
            let root = temp_root(&format!("golden-{name}"));
            let mut cat = Catalog::open(&root).unwrap();
            let schema = Schema::new(vec![Field::new("payload", ColumnType::Utf8)]).unwrap();
            let t = cat.create_table("db", "t", schema, 0).unwrap();
            let docs: Vec<Cell> = (0..rows)
                .map(|i| match i % 9 {
                    3 => Cell::Null,
                    5 => Cell::from(r#"{"small": 1, "big": "unterminated"#),
                    _ => Cell::from(format!(
                        r#"{{"small": {i}.50, "big": "q"{}é", "deep": {{"x": {{"y": {i}}}}}, "arr": [{i}, "{}"]}}"#,
                        "z".repeat(i * 3),
                        "w".repeat(i % 13),
                    )),
                })
                .collect();
            let rows_of_cells: Vec<Vec<Cell>> = docs.iter().map(|d| vec![d.clone()]).collect();
            // Two files: only the first is ever sampled.
            for part in rows_of_cells.chunks(rows.div_ceil(2)) {
                let opts = WriteOptions {
                    row_group_size,
                    ..Default::default()
                };
                t.append_file(part, opts, 1).unwrap();
            }
            let first_file = rows.div_ceil(2);
            let sample: Vec<String> = docs[..first_file.min(SAMPLE_ROWS)]
                .iter()
                .filter_map(|d| match d {
                    Cell::Str(s) => Some(s.to_string()),
                    _ => None,
                })
                .collect();

            let cands: Vec<MpjpCandidate> = paths.iter().map(|p| cand(p)).collect();
            let history = vec![query(&paths[..3]), query(&paths[2..]), query(&["$.small"])];
            let scored = score_candidates(&cat, &cands, &history).unwrap();
            assert_eq!(scored.len(), paths.len());
            for w in scored.windows(2) {
                assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].location < w[1].location),
                    "{name}: order"
                );
            }
            for s in &scored {
                let path = JsonPath::parse(&s.location.path).unwrap();
                let (parse_time, value_size) = measure_per_path(&sample, &path);
                let acceleration = parse_time / value_size;
                let expected = [
                    ("parse_time", parse_time, s.parse_time),
                    ("value_size", value_size, s.value_size),
                    ("acceleration", acceleration, s.acceleration),
                    (
                        "score",
                        acceleration * s.relevance * s.occurrence as f64,
                        s.score,
                    ),
                ];
                for (field, want, got) in expected {
                    assert_eq!(
                        want.to_bits(),
                        got.to_bits(),
                        "{name}: {field} of {}",
                        s.location.path
                    );
                }
                assert_eq!(
                    s.estimated_bytes,
                    (value_size.max(1.0) as u64) * rows as u64,
                    "{name}: estimated_bytes of {}",
                    s.location.path
                );
                assert!(s.occurrence > 0 && s.relevance > 0.0);
            }
            std::fs::remove_dir_all(&root).ok();
        }
    }

    /// Every field of every ranked candidate, as bits.
    fn ranking_bits(scored: &[ScoredMpjp]) -> Vec<(String, [u64; 7])> {
        scored
            .iter()
            .map(|s| {
                let fields = [
                    s.parse_time.to_bits(),
                    s.value_size.to_bits(),
                    s.acceleration.to_bits(),
                    s.relevance.to_bits(),
                    s.occurrence,
                    s.score.to_bits(),
                    s.estimated_bytes,
                ];
                (s.location.key(), fields)
            })
            .collect()
    }

    #[test]
    fn ranking_is_the_same_at_one_and_four_threads() {
        let root = temp_root("threads");
        let mut cat = Catalog::open(&root).unwrap();
        let schema = Schema::new(vec![Field::new("payload", ColumnType::Utf8)]).unwrap();
        let paths = ["$.small", "$.big", "$.deep.x.y", "$.nope"];
        let mut cands = Vec::new();
        let mut history = Vec::new();
        for t in 0..5usize {
            let name = format!("t{t}");
            let table = cat.create_table("db", &name, schema.clone(), 0).unwrap();
            let rows: Vec<Vec<Cell>> = (0..40 + 30 * t)
                .map(|i| {
                    vec![Cell::from(format!(
                        r#"{{"small": {i}, "big": "{}", "deep": {{"x": {{"y": {}}}}}}}"#,
                        "z".repeat((i * 7 + t * 50) % 300),
                        i * t
                    ))]
                })
                .collect();
            let opts = WriteOptions {
                row_group_size: 16 + 8 * t,
                ..Default::default()
            };
            table.append_file(&rows, opts, 1).unwrap();
            let at = |p: &str| JsonPathLocation::new("db", name.as_str(), "payload", p);
            cands.extend(paths[..2 + t % 3].iter().map(|p| MpjpCandidate {
                location: at(p),
                target_day: 1,
            }));
            for q in 0..=t {
                let mut record = query(&[]);
                record.paths = paths[q % 4..].iter().map(|p| at(p)).collect();
                history.push(record);
            }
        }
        let serial = score_candidates_on(&cat, &cands, &history, 1).unwrap();
        assert_eq!(serial.len(), cands.len());
        assert!(serial.iter().any(|s| s.score > 0.0));
        let parallel = score_candidates_on(&cat, &cands, &history, 4).unwrap();
        assert_eq!(ranking_bits(&parallel), ranking_bits(&serial));
        let default = score_candidates(&cat, &cands, &history).unwrap();
        assert_eq!(ranking_bits(&default), ranking_bits(&serial));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_table_is_an_error() {
        let root = temp_root("mt");
        let cat = Catalog::open(&root).unwrap();
        let err = score_candidates(&cat, &[cand("$.x")], &[]).unwrap_err();
        assert!(err.to_string().contains("not found"));
        std::fs::remove_dir_all(&root).ok();
    }
}
