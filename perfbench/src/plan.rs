//! What the workloads run: the statement list `T2x`, the Zipf pool of
//! literal variants, and the seeded construction of blocks.
//!
//! The PRNG and the sampler live here, not in testkit, so a change to the
//! repository's test RNG cannot silently change the benchmark's inputs.

use maxson_datagen::tables::{schema_paths, table_specs, QuerySpec};

/// Statements per `serve_zipf` block.
pub const SERVE_BLOCK_LEN: usize = 40;
/// Zipf exponent of the serving mix.
pub const ZIPF_S: f64 = 1.1;
/// Literal variants per query shape; ten shapes give a pool of 310.
pub const VARIANTS_PER_SHAPE: usize = 31;

/// One SQL statement a workload can issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// `Q1`..`Q10`, `S1`, `S2`, or `Q3#17` for pool variant 17 of shape Q3.
    pub name: String,
    pub sql: String,
    /// Raw table the statement scans.
    pub table: String,
    /// JSONPaths that the training history contains (cached after a cycle).
    pub paths: Vec<String>,
    /// The one JSONPath the history never saw (stitch statements only).
    pub uncached_path: Option<String>,
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The first schema path of `query`'s table that the query does not
/// extract — a path the training history never contains.
fn unseen_path(query: &QuerySpec) -> String {
    let spec = table_specs()
        .into_iter()
        .find(|s| s.name == query.table)
        .expect("query table is a Table II table");
    schema_paths(&spec)
        .into_iter()
        .find(|p| !query.paths.contains(p))
        .expect("table has more properties than the query extracts")
}

fn stmt_of(query: &QuerySpec) -> Stmt {
    Stmt {
        name: query.name.clone(),
        sql: query.sql.clone(),
        table: query.table.clone(),
        paths: query.paths.clone(),
        uncached_path: None,
    }
}

/// `query` with one more projected JSONPath that is never cached, so the
/// Maxson combiner must stitch cache columns with a raw parse.
fn stitch(query: &QuerySpec, name: &str) -> Stmt {
    let extra = unseen_path(query);
    let projected = format!(", get_json_object(payload, '{extra}') as cx from ");
    let sql = query.sql.replacen(" from ", &projected, 1);
    assert_ne!(sql, query.sql, "{name}: no FROM to extend");
    Stmt {
        name: name.to_string(),
        sql,
        uncached_path: Some(extra),
        ..stmt_of(query)
    }
}

/// Table II's Q1–Q10 plus the stitch statements S1 (Q5-shaped) and S2
/// (Q8-shaped).
pub fn t2x(queries: &[QuerySpec]) -> Vec<Stmt> {
    assert_eq!(queries.len(), 10, "Table II has ten queries");
    let mut out: Vec<Stmt> = queries.iter().map(stmt_of).collect();
    out.push(stitch(&queries[4], "S1"));
    out.push(stitch(&queries[7], "S2"));
    out
}

fn replaced(sql: &str, from: &str, to: &str, count: usize) -> String {
    assert_eq!(
        sql.matches(from).count(),
        count,
        "expected {count}x {from:?} in {sql}"
    );
    sql.replace(from, to)
}

/// Variant `k` (`0..VARIANTS_PER_SHAPE`) of shape `shape` (`0..10`): the
/// shipped statement with its date or threshold literal changed. The
/// variants of a shape return results of about the same size, so which
/// literal a seed puts at the head of the pool barely moves a block's cost.
fn variant(query: &QuerySpec, shape: usize, k: usize) -> String {
    let sql = &query.sql;
    // A 15- or 14-day window that slides over January: 31 distinct windows.
    let (start, width) = if k < 17 { (k, 14) } else { (k - 17, 13) };
    let window = format!("{} and {}", 20190101 + start, 20190101 + start + width);
    match shape {
        // Q2: threshold on a float field whose values lie in [0, 250).
        1 => replaced(sql, "> 500", &format!("> {}", 100 + 4 * k), 1),
        // Q3: both sides of the self-join pinned to one day.
        2 => replaced(sql, "20190101", &(20190101 + k).to_string(), 2),
        // Q7, Q8: no literal of their own; give them the sliding window.
        6 => replaced(
            sql,
            " group by",
            &format!(" where date between {window} group by"),
            1,
        ),
        7 => replaced(
            sql,
            " order by",
            &format!(" where date between {window} order by"),
            1,
        ),
        // Q9: threshold on an int field; at 2,000 rows the shipped 50000
        // keeps 387 rows and 53000 still keeps 290.
        8 => replaced(sql, "> 50000", &format!("> {}", 50000 + 100 * k), 1),
        // Q1, Q4, Q5, Q6, Q10: the shipped window, sliding.
        _ => replaced(sql, "20190101 and 20190115", &window, 1),
    }
}

/// The serving pool in popularity order: rank `r` is shape `r % 10`,
/// variant `r / 10`, so every band of ten ranks holds all ten shapes and
/// the share of traffic per shape does not depend on the seed. The seed
/// picks which literal each variant slot gets.
pub fn pool(queries: &[QuerySpec], seed: u64) -> Vec<Stmt> {
    assert_eq!(queries.len(), 10, "Table II has ten queries");
    let literal_order: Vec<Vec<usize>> = (0..10)
        .map(|shape| shuffled(VARIANTS_PER_SHAPE, seed ^ (0xA11CE + shape as u64)))
        .collect();
    let stmts: Vec<Stmt> = (0..10 * VARIANTS_PER_SHAPE)
        .map(|rank| {
            let (shape, slot) = (rank % 10, rank / 10);
            let k = literal_order[shape][slot];
            Stmt {
                name: format!("{}#{k}", queries[shape].name),
                sql: variant(&queries[shape], shape, k),
                ..stmt_of(&queries[shape])
            }
        })
        .collect();
    let mut distinct: Vec<&str> = stmts.iter().map(|s| s.sql.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), stmts.len(), "pool statements must differ");
    stmts
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("non-empty pool");
        let u = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Block `index` of client `client`: a pure function of the seed, so both
/// sides of a comparison replay the same statements however long they run.
pub fn serve_block(zipf: &Zipf, seed: u64, client: usize, index: usize) -> Vec<usize> {
    let stream = seed
        ^ (client as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (index as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut rng = SplitMix64::new(stream);
    (0..SERVE_BLOCK_LEN)
        .map(|_| zipf.sample(&mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_datagen::tables::build_queries;

    #[test]
    fn shuffles_repeat_for_equal_seeds_and_differ_otherwise() {
        assert_eq!(shuffled(12, 7), shuffled(12, 7));
        assert_ne!(shuffled(12, 7), shuffled(12, 8));
        let mut sorted = shuffled(12, 7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(310, ZIPF_S);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0usize; 310];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Rank 1 carries 1/H(310, 1.1) of the mass: about 21 %.
        let head = counts[0] as f64 / 20_000.0;
        assert!((0.18..0.23).contains(&head), "head share {head}");
        assert!(counts[200..].iter().sum::<usize>() > 0, "tail is reachable");
    }

    #[test]
    fn serve_blocks_repeat_for_equal_seeds_and_differ_otherwise() {
        let zipf = Zipf::new(310, ZIPF_S);
        let a = serve_block(&zipf, 42, 0, 3);
        assert_eq!(a.len(), SERVE_BLOCK_LEN);
        assert_eq!(a, serve_block(&zipf, 42, 0, 3));
        assert_ne!(a, serve_block(&zipf, 43, 0, 3));
        assert_ne!(a, serve_block(&zipf, 42, 1, 3));
        assert_ne!(a, serve_block(&zipf, 42, 0, 4));
    }

    #[test]
    fn t2x_adds_two_stitch_statements_with_unseen_paths() {
        let queries = build_queries("mydb");
        let stmts = t2x(&queries);
        assert_eq!(stmts.len(), 12);
        for (s, base) in [(&stmts[10], &queries[4]), (&stmts[11], &queries[7])] {
            let extra = s.uncached_path.as_ref().expect("stitch path");
            assert!(!base.paths.contains(extra));
            assert!(s.sql.contains(extra.as_str()));
            assert_eq!(s.table, base.table);
        }
        assert!(stmts[..10].iter().all(|s| s.uncached_path.is_none()));
    }

    #[test]
    fn pool_has_310_distinct_statements_and_is_seeded() {
        let queries = build_queries("mydb");
        let a = pool(&queries, 5);
        assert_eq!(a.len(), 310);
        assert_eq!(a, pool(&queries, 5));
        assert_ne!(a, pool(&queries, 6));
        // Popularity layout does not depend on the seed: rank r is shape r % 10.
        for (rank, s) in pool(&queries, 6).iter().enumerate() {
            assert_eq!(s.table, queries[rank % 10].table);
        }
    }
}
