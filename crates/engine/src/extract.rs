//! Intra-query shared-parse extraction.
//!
//! Maxson's cache removes *cross-query* duplicate parsing, but a single
//! uncached query still re-parses: naive evaluation runs one full parse per
//! `get_json_object` call, so a query with a JSON predicate plus K
//! projected paths parses each row K+1 times. This module dedupes that
//! work *within* one query: a [`JsonExtractor`] is built once per operator
//! (or pipeline segment) from the compiled expressions, grouping every
//! distinct `(column, path)` pair by JSON column; a per-row [`RowSlots`]
//! then parses each document **at most once per column** — one shared DOM
//! walk in Jackson mode ([`maxson_json::get_json_objects`]), one shared
//! structural index in Mison mode
//! ([`MisonProjector::project_paths`]), one validating projection walk in
//! Tape mode, which answers all the group's paths while it checks the
//! document ([`maxson_json::tape::project`] over a compiled
//! [`maxson_json::tape::PathSet`]) — and answers every later path
//! evaluation from the filled slots. Slots hold `Arc<str>` values, so a
//! path evaluated in both the filter and the projection clones a refcount,
//! not the text.
//!
//! Laziness is preserved: slots fill on the *first* path access for a row,
//! so rows skipped by SARG/row-group pruning never parse, and a predicate
//! that decides a row without touching any JSON path (short-circuit on a
//! raw column) parses nothing. Results equal one parse per call (the
//! reference oracle's evaluation) because the shared evaluators run the
//! same per-path machinery over one parse. These slots are the only place
//! the engine parses at query time: a call they do not cover is an error
//! in [`Expr::eval_with`], not a parse of its own.
//!
//! Accounting: every evaluation still charges
//! [`ExecMetrics::parse_calls`]; the actual parse charges
//! [`ExecMetrics::docs_parsed`] (and parse wall time) once. The ratio of
//! the two counters is the intra-query dedup factor surfaced by
//! `ExecMetrics::summary` and the bench reports.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use maxson_json::mison::MisonProjector;
use maxson_json::tape::{self, PathSet, TapeStats};
use maxson_json::JsonPath;

use crate::expr::{Expr, JsonParserKind};
use crate::metrics::ExecMetrics;

/// All paths a query needs from one JSON column, in first-seen plan order.
#[derive(Debug)]
struct ColumnGroup {
    /// Input column index holding the JSON string.
    column: usize,
    /// Distinct compiled paths over that column.
    paths: Vec<JsonPath>,
    /// The same paths as one trie, for Tape mode's one-pass projection.
    set: PathSet,
}

/// The deduplicated `(column, path)` extraction sites of one operator (or
/// scan-pipeline segment). Shared across all rows — and, being read-only,
/// across all split tasks — while each row gets its own [`RowSlots`].
#[derive(Debug)]
pub struct JsonExtractor {
    groups: Vec<ColumnGroup>,
}

impl JsonExtractor {
    /// Collect every distinct `(column, path)` pair from the given compiled
    /// expression trees. Returns `None` when the expressions contain no
    /// `GetJsonObject` at all (evaluation then skips slot management
    /// entirely). Note that Maxson-cached paths were already compiled to
    /// plain `Column` placeholders, so only *residual* uncached paths
    /// arrive here — composition with the combiner is automatic.
    pub fn from_exprs<'a>(exprs: impl IntoIterator<Item = &'a Expr>) -> Option<JsonExtractor> {
        let mut columns: Vec<(usize, Vec<JsonPath>)> = Vec::new();
        for e in exprs {
            e.walk(&mut |node| {
                if let Expr::GetJsonObject { column, path } = node {
                    match columns.iter_mut().find(|(c, _)| c == column) {
                        Some((_, paths)) => {
                            if !paths.contains(path) {
                                paths.push(path.clone());
                            }
                        }
                        None => columns.push((*column, vec![path.clone()])),
                    }
                }
            });
        }
        if columns.is_empty() {
            return None;
        }
        let groups = columns
            .into_iter()
            .map(|(column, paths)| ColumnGroup {
                column,
                set: PathSet::new(&paths),
                paths,
            })
            .collect();
        Some(JsonExtractor { groups })
    }

    /// Total distinct `(column, path)` pairs covered.
    pub fn path_count(&self) -> usize {
        self.groups.iter().map(|g| g.paths.len()).sum()
    }

    /// Locate a `(column, path)` pair: `(group index, path index)`.
    fn lookup(&self, column: usize, path: &JsonPath) -> Option<(usize, usize)> {
        let gi = self.groups.iter().position(|g| g.column == column)?;
        let pi = self.groups[gi].paths.iter().position(|p| p == path)?;
        Some((gi, pi))
    }

    /// Parse `json` once and evaluate every path of group `gi` against it.
    /// Tape mode charges its `nodes_skipped` to `metrics` (the other modes
    /// have no such counter).
    fn extract_group(
        &self,
        gi: usize,
        json: &str,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Vec<Option<Arc<str>>> {
        let paths = &self.groups[gi].paths;
        match parser {
            JsonParserKind::Jackson => maxson_json::get_json_objects(json, paths)
                .into_iter()
                .map(|v| v.map(Arc::from))
                .collect(),
            JsonParserKind::Mison => MisonProjector::project_paths(json, paths)
                .into_iter()
                .map(|v| v.map(Arc::from))
                .collect(),
            JsonParserKind::Tape => {
                let mut stats = TapeStats::default();
                let mut values = vec![None; paths.len()];
                // A malformed document emits nothing: every path stays `None`.
                let _ = tape::project(json, &self.groups[gi].set, &mut stats, |i, value| {
                    values[i] = Some(Arc::from(value));
                });
                metrics.nodes_skipped += stats.nodes_skipped;
                values
            }
        }
    }
}

/// One column group's extracted values for a row, one per path.
type GroupValues = Vec<Option<Arc<str>>>;

/// Per-row lazily-filled extraction slots over a shared [`JsonExtractor`].
///
/// Created fresh for each row; interior mutability keeps the evaluator
/// signature by-shared-reference so `Option<&RowSlots>` threads through
/// expression recursion without borrow gymnastics.
pub struct RowSlots<'e> {
    extractor: &'e JsonExtractor,
    /// One entry per column group; `None` until the first path access for
    /// this row triggers the (single) parse.
    filled: RefCell<Vec<Option<GroupValues>>>,
}

impl<'e> RowSlots<'e> {
    /// Empty slots for one row.
    pub fn new(extractor: &'e JsonExtractor) -> Self {
        RowSlots {
            extractor,
            filled: RefCell::new(vec![None; extractor.groups.len()]),
        }
    }

    /// Answer one `(column, path)` evaluation over this row's `json`
    /// document. Returns `None` when the pair is not covered by the
    /// extractor (the caller reports the call as an error); otherwise the
    /// inner `Option<Arc<str>>` is the extraction result, exactly as one
    /// parse of `json` for `path` alone would produce it (shared, not
    /// copied, on every subsequent access).
    ///
    /// The first covered access parses the document and charges
    /// `docs_parsed` + parse wall time; every access (hit or fill) charges
    /// `parse_calls`, so that counter stays one per evaluated call.
    pub fn get(
        &self,
        json: &str,
        column: usize,
        path: &JsonPath,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Option<Option<Arc<str>>> {
        let (gi, pi) = self.extractor.lookup(column, path)?;
        let mut filled = self.filled.borrow_mut();
        if filled[gi].is_none() {
            let kernels_before = maxson_json::kernels::thread_build_stats();
            let start = Instant::now();
            let values = self.extractor.extract_group(gi, json, parser, metrics);
            let spent = start.elapsed();
            metrics.parse += spent;
            metrics.parse_wall += spent;
            metrics.docs_parsed += 1;
            metrics.charge_bitmap_builds(kernels_before);
            filled[gi] = Some(values);
        }
        metrics.parse_calls += 1;
        metrics.charge_path_extract(path.text());
        Some(filled[gi].as_ref().expect("slot group just filled")[pi].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use maxson_storage::Cell;

    fn jp(column: usize, path: &str) -> Expr {
        Expr::GetJsonObject {
            column,
            path: JsonPath::parse(path).unwrap(),
        }
    }

    #[test]
    fn collector_dedupes_pairs_and_groups_by_column() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.a")),
            op: BinaryOp::Gt,
            right: Box::new(Expr::Literal(Cell::Int(1))),
        };
        let select = [jp(0, "$.a"), jp(0, "$.b"), jp(2, "$.a")];
        let ex = JsonExtractor::from_exprs(std::iter::once(&filter).chain(select.iter())).unwrap();
        assert_eq!(ex.path_count(), 3, "repeated $.a on column 0 deduped");
        assert!(ex.lookup(0, &JsonPath::parse("$.b").unwrap()).is_some());
        assert!(ex.lookup(2, &JsonPath::parse("$.a").unwrap()).is_some());
        assert!(ex.lookup(2, &JsonPath::parse("$.b").unwrap()).is_none());
    }

    #[test]
    fn no_json_paths_yields_no_extractor() {
        let e = Expr::Column(3);
        assert!(JsonExtractor::from_exprs([&e]).is_none());
    }

    #[test]
    fn slots_parse_once_per_row_and_answer_all_paths() {
        let exprs = [jp(0, "$.a"), jp(0, "$.b"), jp(0, "$.missing")];
        let ex = JsonExtractor::from_exprs(exprs.iter()).unwrap();
        let json = r#"{"a": 1, "b": "x"}"#;
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            let mut m = ExecMetrics::default();
            let slots = RowSlots::new(&ex);
            let a = slots.get(json, 0, &JsonPath::parse("$.a").unwrap(), parser, &mut m);
            let b = slots.get(json, 0, &JsonPath::parse("$.b").unwrap(), parser, &mut m);
            let miss = slots.get(
                json,
                0,
                &JsonPath::parse("$.missing").unwrap(),
                parser,
                &mut m,
            );
            assert_eq!(a, Some(Some("1".into())));
            assert_eq!(b, Some(Some("x".into())));
            assert_eq!(miss, Some(None));
            assert_eq!(m.docs_parsed, 1, "one parse for three evaluations");
            assert_eq!(m.parse_calls, 3);
            // Uncovered pairs are left to the caller (an error there).
            assert!(slots
                .get(json, 1, &JsonPath::parse("$.a").unwrap(), parser, &mut m)
                .is_none());
        }
    }

    #[test]
    fn slots_stay_lazy_until_first_access() {
        let exprs = [jp(0, "$.a")];
        let ex = JsonExtractor::from_exprs(exprs.iter()).unwrap();
        let m = ExecMetrics::default();
        let _slots = RowSlots::new(&ex);
        assert_eq!(m.docs_parsed, 0, "constructing slots must not parse");
        drop(_slots);
        assert_eq!(m.parse_calls, 0);
    }
}
