//! Configuration cells and the one comparison every test of results makes:
//! a statement run in a cell returns exactly the rows, and renders exactly
//! the text, the [`Oracle`] computes for it.
//!
//! A cell fixes the JSON parser, the thread count, the SIMD tier, how the
//! reuse cache takes part (off; on, so the run fills it; on, run after a
//! literal variant and then again, so it may hit), whether the Maxson
//! rewriter is installed, and whether the statement goes over the wire to a
//! server or runs in-process. [`covering_array`] picks cells so that every
//! pair of values of any two dimensions meets.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::sql::ast::SelectStatement;
use maxson_engine::sql::parse_select;
use maxson_engine::{Config, ExecMetrics, QueryResult};
use maxson_json::kernels::{self, Kernel};
use maxson_server::{Client, Server, ServerConfig};
use maxson_storage::Cell;
use maxson_testkit::rng::Rng;

use super::oracle::{Answer, Oracle};
use super::sqlgen::{literal_variant, render, unpushable, Generator, Source};

pub const PARSERS: [JsonParserKind; 3] = [
    JsonParserKind::Jackson,
    JsonParserKind::Mison,
    JsonParserKind::Tape,
];

/// How the cross-query reuse cache takes part in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// No reuse cache.
    Off,
    /// A reuse cache; each statement runs once (a miss that fills it).
    Fill,
    /// A reuse cache; each statement runs after a literal variant of it,
    /// then once more (the second run is served from the cache).
    Hit,
}

/// One configuration the engine is compared with the oracle in.
#[derive(Debug, Clone, Copy)]
pub struct ConfigCell {
    pub parser: JsonParserKind,
    pub threads: usize,
    pub simd: Kernel,
    pub reuse: Reuse,
    pub rewritten: bool,
    pub served: bool,
}

impl Default for ConfigCell {
    /// Jackson, one thread, the best tier, no reuse cache, plain,
    /// in-process.
    fn default() -> Self {
        ConfigCell {
            parser: JsonParserKind::Jackson,
            threads: 1,
            simd: kernels::best_available(),
            reuse: Reuse::Off,
            rewritten: false,
            served: false,
        }
    }
}

impl fmt::Display for ConfigCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parser={} threads={} simd={} reuse={:?} plan={} via={}",
            self.parser.name(),
            self.threads,
            self.simd.name(),
            self.reuse,
            if self.rewritten { "rewritten" } else { "plain" },
            if self.served { "server" } else { "in-process" },
        )
    }
}

/// Cells over the parsers and thread counts, everything else default.
pub fn parser_thread_cells(parsers: &[JsonParserKind], threads: &[usize]) -> Vec<ConfigCell> {
    parsers
        .iter()
        .flat_map(|&parser| {
            threads.iter().map(move |&threads| ConfigCell {
                parser,
                threads,
                ..ConfigCell::default()
            })
        })
        .collect()
}

/// Thread counts the covering array draws from: one thread, four, and two
/// (the caller and one pool worker, the benchmark box's shape).
const THREADS: [usize; 3] = [1, 4, 2];

/// A pairwise covering array over the six dimensions: every pair of values
/// of any two dimensions appears in some cell. With `families`, it starts
/// from an in-process, reuse-off cell at one thread on the first tier and
/// one at four threads on the last tier for every (parser, plan) — what
/// the work-counter rules compare — and completes the pairs those leave
/// uncovered greedily; `seed` breaks ties.
pub fn covering_array(seed: u64, families: bool) -> Vec<ConfigCell> {
    let tiers = kernels::available();
    let dims = [PARSERS.len(), THREADS.len(), tiers.len(), 3, 2, 2];
    let mut rows: Vec<[usize; 6]> = Vec::new();
    if families {
        for parser in 0..PARSERS.len() {
            for plan in 0..2 {
                rows.push([parser, 0, 0, 0, plan, 0]);
                rows.push([parser, 1, tiers.len() - 1, 0, plan, 0]);
            }
        }
    }
    let mut uncovered = BTreeSet::new();
    for i in 0..dims.len() {
        for j in i + 1..dims.len() {
            for a in 0..dims[i] {
                for b in 0..dims[j] {
                    uncovered.insert((i, a, j, b));
                }
            }
        }
    }
    let cover = |uncovered: &mut BTreeSet<_>, row: &[usize; 6]| {
        for i in 0..dims.len() {
            for j in i + 1..dims.len() {
                uncovered.remove(&(i, row[i], j, row[j]));
            }
        }
    };
    rows.iter().for_each(|row| cover(&mut uncovered, row));
    let mut rng = Rng::seed_from_u64(seed);
    while let Some(&(i, a, j, b)) = uncovered.iter().next() {
        let mut row = [usize::MAX; 6];
        row[i] = a;
        row[j] = b;
        for d in 0..dims.len() {
            if row[d] != usize::MAX {
                continue;
            }
            // The value that covers the most open pairs with the values
            // already chosen; ties broken by the seed.
            let gain = |v: usize| {
                (0..dims.len())
                    .filter(|&e| row[e] != usize::MAX)
                    .filter(|&e| {
                        let pair = if d < e {
                            (d, v, e, row[e])
                        } else {
                            (e, row[e], d, v)
                        };
                        uncovered.contains(&pair)
                    })
                    .count()
            };
            let best = (0..dims[d]).map(gain).max().unwrap_or(0);
            let ties: Vec<usize> = (0..dims[d]).filter(|&v| gain(v) == best).collect();
            row[d] = ties[rng.below(ties.len() as u64) as usize];
        }
        cover(&mut uncovered, &row);
        rows.push(row);
    }
    let reuse = [Reuse::Off, Reuse::Fill, Reuse::Hit];
    rows.into_iter()
        .map(|r| ConfigCell {
            parser: PARSERS[r[0]],
            threads: THREADS[r[1]],
            simd: tiers[r[2]],
            reuse: reuse[r[3]],
            rewritten: r[4] == 1,
            served: r[5] == 1,
        })
        .collect()
}

/// One statement the engine must answer like the oracle.
pub struct Case {
    pub label: String,
    pub sql: String,
    pub expected: Answer,
    /// The statement with one literal changed, one per literal; a reuse-hit
    /// cell runs one of them first.
    pub variants: Vec<String>,
}

impl Case {
    /// `sql` as written and the oracle's answer to it.
    pub fn new(oracle: &Oracle, label: &str, sql: &str) -> Case {
        let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{label}: {e}: {sql}"));
        Self::of(oracle, label, sql.to_string(), &stmt)
    }

    fn of(oracle: &Oracle, label: &str, sql: String, stmt: &SelectStatement) -> Case {
        let expected = oracle
            .evaluate(stmt)
            .unwrap_or_else(|e| panic!("the oracle rejects {label}: {e}: {sql}"));
        let variants = (0..)
            .map_while(|k| literal_variant(stmt, k))
            .map(|v| render(&v))
            .take(8)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Case {
            label: label.to_string(),
            sql,
            expected,
            variants,
        }
    }

    /// `sql`, and — when its `WHERE` has a pushable leaf — the same
    /// statement spelled without one, which must return the same answer.
    /// Also checks that the renderer spells the statement back exactly.
    pub fn spellings(oracle: &Oracle, label: &str, sql: &str) -> Vec<Case> {
        let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{label}: {e}: {sql}"));
        Self::spellings_of(oracle, label, &stmt, sql.to_string())
    }

    /// [`Case::spellings`] of a statement built as a syntax tree.
    pub fn spellings_of(
        oracle: &Oracle,
        label: &str,
        stmt: &SelectStatement,
        sql: String,
    ) -> Vec<Case> {
        let rendered = render(stmt);
        let reparsed =
            parse_select(&rendered).unwrap_or_else(|e| panic!("{label}: {e}: {rendered}"));
        assert_eq!(
            &reparsed, stmt,
            "{label}: the renderer changed the statement: {rendered}"
        );
        let first = Self::of(oracle, label, sql, stmt);
        let Some(hidden) = unpushable(stmt) else {
            return vec![first];
        };
        let second = Self::of(
            oracle,
            &format!("{label} unpushed"),
            render(&hidden),
            &hidden,
        );
        assert!(
            same_rows(&second.expected.rows, &first.expected.rows),
            "{label}: the unpushable spelling changes the answer: {}",
            second.sql
        );
        vec![first, second]
    }
}

/// Tier switches are process-wide: one cell runs at a time.
static TIER: Mutex<()> = Mutex::new(());

/// Where a cell sends its statements.
enum Runner {
    InProcess(Session),
    Served(Server, Client),
}

impl Runner {
    fn open(root: &Path, cell: &ConfigCell) -> Runner {
        let config = Config {
            parser: cell.parser,
            threads: Some(cell.threads),
            result_cache_mb: match cell.reuse {
                Reuse::Off => None,
                Reuse::Fill | Reuse::Hit => Some(16),
            },
            ..Config::default()
        };
        let mut session = Session::open_with(root, config).unwrap();
        if cell.rewritten {
            session = super::install_rewriter(session);
        }
        if !cell.served {
            return Runner::InProcess(session);
        }
        let config = ServerConfig {
            permits: Some(2),
            result_cache_mb: None,
        };
        let server = Server::serve(session, "127.0.0.1:0", config).unwrap();
        let client = Client::connect(server.addr()).unwrap();
        Runner::Served(server, client)
    }

    fn run(&mut self, sql: &str) -> Result<QueryResult, String> {
        match self {
            Runner::InProcess(session) => session.execute(sql).map_err(|e| e.to_string()),
            Runner::Served(_, client) => client.query(sql).map_err(|e| e.to_string()),
        }
    }
}

/// Row equality with floats compared bit for bit (so NaN equals NaN and
/// `-0.0` does not equal `0.0`).
pub fn same_rows(a: &[Vec<Cell>], b: &[Vec<Cell>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_row(x, y))
}

fn same_row(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Cell::Float(x), Cell::Float(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Assert that `got` — `what` produced it — holds the oracle's rows and
/// renders to the oracle's text.
pub fn assert_matches(expected: &Answer, got: &QueryResult, what: &str) {
    if !same_rows(&got.rows, &expected.rows) || got.to_display_string() != expected.display() {
        panic!(
            "engine and oracle disagree\n  {what}\n  {}",
            first_difference(expected, got)
        );
    }
}

/// The first difference between two row lists, for a failure message.
fn first_difference(expected: &Answer, got: &QueryResult) -> String {
    if expected.columns != got.columns {
        return format!("columns {:?}, expected {:?}", got.columns, expected.columns);
    }
    let at = expected
        .rows
        .iter()
        .zip(&got.rows)
        .position(|(a, b)| !same_row(a, b))
        .unwrap_or(expected.rows.len().min(got.rows.len()));
    format!(
        "{} rows, expected {}; first difference at row {at}: got {:?}, expected {:?}",
        got.rows.len(),
        expected.rows.len(),
        got.rows.get(at),
        expected.rows.get(at)
    )
}

/// Run every case in `cell` over the warehouse at `root` and assert each
/// run agrees with the oracle; `context` (the seed, typically) is printed
/// with any disagreement. Returns each case's metrics for in-process,
/// reuse-off cells (the runs the work-counter rules compare).
pub fn check_cell(
    root: &Path,
    cell: &ConfigCell,
    ordinal: usize,
    cases: &[Case],
    context: &str,
) -> Vec<Option<ExecMetrics>> {
    let _tier = TIER.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(kernels::set_active(cell.simd), cell.simd);
    let mut runner = Runner::open(root, cell);
    let mut metrics = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let runs = match cell.reuse {
            Reuse::Off | Reuse::Fill => 1,
            Reuse::Hit => {
                // The variant only seeds the cache; changing one copy of a
                // literal the statement repeats may make it invalid.
                if !case.variants.is_empty() {
                    let _ = runner.run(&case.variants[(ordinal + i) % case.variants.len()]);
                }
                2
            }
        };
        let mut last = None;
        for run in 1..=runs {
            let got = runner.run(&case.sql).unwrap_or_else(|e| {
                panic!(
                    "{context}\n  {cell}\n  {} failed: {e}\n  {}",
                    case.label, case.sql
                )
            });
            let what = format!(
                "{context}\n  cell: {cell} (run {run} of {runs})\n  statement {}: {}",
                case.label, case.sql
            );
            assert_matches(&case.expected, &got, &what);
            last = Some(got.metrics);
        }
        let counted = cell.reuse == Reuse::Off && !cell.served;
        metrics.push(last.filter(|_| counted));
    }
    metrics
}

/// Run every case in every cell; see [`check_cell`].
pub fn check(root: &Path, cells: &[ConfigCell], cases: &[Case], context: &str) {
    for (ordinal, cell) in cells.iter().enumerate() {
        check_cell(root, cell, ordinal, cases, context);
    }
}

/// `sqls` as written, in every cell of `cells`, against the oracle.
pub fn assert_agrees(root: &Path, sqls: &[&str], cells: &[ConfigCell]) {
    let oracle = Oracle::new(root);
    let cases: Vec<Case> = sqls
        .iter()
        .map(|sql| Case::new(&oracle, sql, sql))
        .collect();
    check(root, cells, &cases, "fixed statements");
}

/// JSONPaths a [`super::random_json_table`] statement draws from.
const RANDOM_TABLE_PATHS: [&str; 9] = [
    "$.x",
    "$.y",
    "$.tag",
    "$.id",
    "$.name",
    "$.num",
    "$.arr[0]",
    "$.deep.x",
    "$.missing",
];

/// Seed-replayable property: each case builds a small random table
/// ([`super::random_json_table`]), draws one statement over it and runs
/// the statement in every cell of `cells` against the oracle.
pub fn property_agrees(name: &str, cases: u32, cells: &[ConfigCell]) {
    use maxson_testkit::prop::{Config, Gen};
    maxson_testkit::prop::check(name, &Config::with_cases(cases), &Gen::u64_any(), |&seed| {
        let root = super::random_json_table(seed);
        let oracle = Oracle::new(&root);
        let keys = ["id", "$.tag"];
        let source = Source::sample(&oracle, "db", "t", "payload", &RANDOM_TABLE_PATHS, &keys);
        let stmt = Generator::new(seed, &[source]).statement();
        let sql = render(&stmt);
        let case = Case::of(&oracle, "random statement", sql, &stmt);
        check(&root, cells, &[case], &format!("table seed {seed}"));
        std::fs::remove_dir_all(&root).ok();
        Ok(())
    });
}

/// The work-counter rules over one statement's in-process, reuse-off runs:
/// within a (parser, plan) family every counter is identical across
/// thread counts and SIMD tiers; across parsers of one plan only
/// `bitmap_*` (which Jackson never charges) and `nodes_skipped` (which only
/// Tape charges) may differ.
pub fn assert_counter_rules(label: &str, runs: &[(ConfigCell, ExecMetrics)]) {
    let parser_owned = |l: &str| matches!(l, "bitmap_builds" | "bitmap_bytes" | "nodes_skipped");
    for (cell, m) in runs {
        for (l, v) in m.work_counters() {
            let never = match cell.parser {
                JsonParserKind::Jackson => parser_owned(l),
                JsonParserKind::Mison => l == "nodes_skipped",
                JsonParserKind::Tape => false,
            };
            assert!(!never || v == 0, "{label}: {cell} charged {l}={v}");
        }
    }
    for (a, ma) in runs {
        for (b, mb) in runs.iter().filter(|(b, _)| b.rewritten == a.rewritten) {
            for ((l, x), (_, y)) in ma.work_counters().into_iter().zip(mb.work_counters()) {
                if a.parser == b.parser || !parser_owned(l) {
                    assert_eq!(x, y, "{label}: {l} differs between {a} and {b}");
                }
            }
        }
    }
}
