//! Cross-query result reuse cache.
//!
//! Maxson's JSONPath cache removes duplicate *parsing*; this cache removes
//! duplicate *execution* one level up the stack. It is a process-wide,
//! thread-safe store of full query results, keyed on the canonical
//! normalized fingerprint from [`crate::fingerprint`] plus the active JSON
//! parser (parsers may legitimately diverge on malformed documents, so
//! cross-parser reuse is unsound).
//!
//! **Admission** is cost-modelled, not blind (after "Revisiting Reuse in
//! Main Memory Database Systems"): the cache keeps an EWMA of each
//! fingerprint's observed recompute wall from `ExecMetrics` history, and
//! an entry is admitted only when small or when its estimated recompute
//! cost per resident byte clears a floor. Oversized entries (more than a
//! quarter of the budget) are always rejected.
//!
//! **Eviction** is LRU-with-frequency under a byte budget
//! (`MAXSON_RESULT_CACHE_MB` / `Session::set_result_cache`): victims are
//! chosen by least (frequency, recency), but a victim whose
//! benefit-per-byte score exceeds the incoming entry's is never displaced
//! for it — the candidate is rejected instead (the budget-constrained
//! scoring of the multi-query-optimization line of work).
//!
//! **Correctness is epoch-anchored**: every entry records the warehouse
//! epoch at fill time and a probe only matches entries from the probing
//! plan's epoch, so the midnight-cycle atomic epoch swap invalidates the
//! whole cache in O(1) by generation check (plus an eager clear to release
//! memory). Per-table dependency tracking invalidates finer-grained when
//! a single table is rewritten through the catalog write lock.
//!
//! Data writes do **not** bump the epoch, so epoch matching alone cannot
//! stop a fill that races a catalog write: a query planned before the
//! write executes against its pre-write table snapshot and would fill
//! *after* the writer's invalidation, at the unchanged epoch, leaving a
//! persistently stale entry. Every invalidation therefore also bumps a
//! *write generation*; callers capture [`ReuseCache::generation`] at
//! planning time (under the same warehouse read lock that pins their
//! table snapshot) and [`ReuseCache::fill`] rejects any offer whose
//! planning-time generation is no longer current.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use maxson_storage::Cell;

/// Entries at or below this size are admitted without consulting the cost
/// model — the bookkeeping outweighs any misjudgement.
const SMALL_ENTRY_BYTES: u64 = 64 * 1024;

/// Cost-model floor: estimated recompute nanoseconds per resident byte.
/// Entries cheaper than ~1 ns/byte to rebuild are not worth holding.
const MIN_NS_PER_BYTE: f64 = 1.0;

/// A cached result's rows, shared: serving a hit or admitting a fill is a
/// refcount bump.
pub type CachedRows = Arc<Vec<Vec<Cell>>>;

/// What a fill attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// Entry admitted and resident.
    Admitted,
    /// Rejected by the cost model or the oversize guard.
    Rejected,
    /// The cache is disabled (poisoned or switched off).
    Disabled,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReuseStats {
    /// Probe hits.
    pub hits: u64,
    /// Probe misses (including epoch-mismatch bypasses).
    pub misses: u64,
    /// Entries admitted.
    pub fills: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Fill offers rejected because an invalidation ran between the
    /// offering query's planning and its fill (the stale-fill guard).
    pub stale_rejects: u64,
    /// Resident entry bytes.
    pub bytes_resident: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// `true` once the cache has disabled itself after a contained
    /// fill-path panic.
    pub disabled: bool,
}

#[derive(Debug)]
struct Entry {
    rows: CachedRows,
    /// Warehouse epoch at fill time; probes from other epochs miss.
    epoch: u64,
    /// `db.table` identities this entry was computed from.
    tables: Vec<String>,
    bytes: u64,
    /// Times this entry served a hit (+1 at fill).
    freq: u64,
    /// Logical clock of the last touch (for LRU ordering).
    last_used: u64,
    /// EWMA recompute wall, nanoseconds (benefit side of the score).
    est_wall_ns: u64,
}

impl Entry {
    /// Benefit-per-byte score used to protect valuable residents.
    fn score(&self) -> f64 {
        (self.freq as f64) * (self.est_wall_ns as f64) / (self.bytes.max(1) as f64)
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Logical clock; bumped on every touch.
    clock: u64,
    /// Resident bytes across all entries.
    bytes: u64,
    /// EWMA recompute wall per fingerprint, kept even for keys that were
    /// never admitted (history informs the *next* admission decision).
    cost: HashMap<u64, u64>,
    /// Write generation: bumped by every invalidation. A fill whose
    /// planning-time generation no longer matches raced a catalog write —
    /// its rows come from a pre-write snapshot and must not be admitted.
    write_gen: u64,
}

/// The process-wide reuse cache. See the module docs for policy details.
#[derive(Debug)]
pub struct ReuseCache {
    inner: Mutex<Inner>,
    budget_bytes: AtomicU64,
    /// Set after a contained fill-path panic: the cache stops serving and
    /// stops filling, loudly (callers surface `reuse=disabled`).
    disabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
    stale_rejects: AtomicU64,
    /// Test hook: the next fill panics inside the cache, exercising the
    /// containment path end to end.
    inject_fill_panic: AtomicBool,
}

impl ReuseCache {
    /// A cache with a byte budget of `budget_mb` MiB.
    pub fn new(budget_mb: u64) -> Self {
        ReuseCache {
            inner: Mutex::new(Inner::default()),
            budget_bytes: AtomicU64::new(budget_mb.saturating_mul(1024 * 1024)),
            disabled: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            inject_fill_panic: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned inner lock means a fill panicked mid-update; the
        // cache has already disabled itself, and the map is only ever in
        // a consistent state between entry operations, so recover.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Probe for `key` at `epoch`. A hit bumps `hits`; entries from other
    /// epochs are removed and count as misses.
    pub fn lookup(&self, key: u64, epoch: u64) -> Option<CachedRows> {
        if self.disabled.load(Ordering::Relaxed) {
            return None;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&key) {
            Some(e) if e.epoch == epoch => {
                e.freq += 1;
                e.last_used = clock;
                let found = Arc::clone(&e.rows);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            Some(_) => {
                // Stale epoch: never serve, drop eagerly.
                let e = inner.map.remove(&key).expect("entry just matched");
                inner.bytes -= e.bytes;
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The current write generation. Capture it at planning time, under
    /// the same warehouse read lock that pins the plan's table snapshots,
    /// and hand it back to [`ReuseCache::fill`] — any invalidation in
    /// between makes the fill a stale offer and it is rejected.
    pub fn generation(&self) -> u64 {
        self.lock().write_gen
    }

    /// Offer an entry for admission. The caller has already executed the
    /// query; `rows` is the finished output (shared, so admission never
    /// copies it). `planned_gen` is the [`ReuseCache::generation`]
    /// observed when the query planned: a mismatch means an invalidation
    /// (catalog write, table append, epoch swap) ran while the query was
    /// executing, so its rows come from a pre-invalidation snapshot and
    /// admitting them would serve stale results persistently.
    pub fn fill(
        &self,
        key: u64,
        rows: CachedRows,
        epoch: u64,
        tables: Vec<String>,
        wall_ns: u64,
        planned_gen: u64,
    ) -> FillOutcome {
        if self.disabled.load(Ordering::Relaxed) {
            return FillOutcome::Disabled;
        }
        if self.inject_fill_panic.swap(false, Ordering::SeqCst) {
            panic!("reuse: injected fill-path panic");
        }
        let bytes = rows_bytes(&rows);
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        let mut inner = self.lock();
        if inner.write_gen != planned_gen {
            // Stale-fill guard: the snapshot these rows were computed
            // from has been invalidated since planning.
            drop(inner);
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            return FillOutcome::Rejected;
        }
        // Cost history accumulates before any admission decision, so even
        // keys rejected today inform tomorrow's estimate.
        let slot = inner.cost.entry(key).or_insert(wall_ns);
        *slot = (*slot + wall_ns) / 2;
        let est_wall_ns = *slot;
        if bytes > budget / 4 {
            return FillOutcome::Rejected;
        }
        if bytes > SMALL_ENTRY_BYTES
            && (est_wall_ns as f64) / (bytes.max(1) as f64) < MIN_NS_PER_BYTE
        {
            return FillOutcome::Rejected;
        }
        // Replace any stale entry under the same key first.
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        let candidate_score = (est_wall_ns as f64) / (bytes.max(1) as f64);
        // Choose victims by least (freq, last_used) until the candidate
        // fits, but commit nothing until admission is certain: meeting a
        // resident worth more per byte than the candidate rejects the
        // candidate with every resident intact (evict-then-reject would
        // lose entries without gaining one).
        let mut victims: Vec<u64> = Vec::new();
        let mut evicted = 0u64;
        if inner.bytes + bytes > budget {
            let mut order: Vec<(u64, u64, u64, f64, u64)> = inner
                .map
                .iter()
                .map(|(k, e)| (e.freq, e.last_used, *k, e.score(), e.bytes))
                .collect();
            order.sort_unstable_by_key(|&(freq, last_used, ..)| (freq, last_used));
            let mut freed = 0u64;
            for (_, _, vkey, vscore, vbytes) in order {
                if inner.bytes - freed + bytes <= budget {
                    break;
                }
                // Never displace a resident worth more per byte than the
                // candidate — reject the candidate instead.
                if vscore > candidate_score {
                    return FillOutcome::Rejected;
                }
                victims.push(vkey);
                freed += vbytes;
            }
            if inner.bytes - freed + bytes > budget {
                // Even a full sweep cannot make room.
                return FillOutcome::Rejected;
            }
            for vkey in victims {
                let e = inner.map.remove(&vkey).expect("victim present");
                inner.bytes -= e.bytes;
                evicted += 1;
            }
        }
        inner.clock += 1;
        let last_used = inner.clock;
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                rows,
                epoch,
                tables,
                bytes,
                freq: 1,
                last_used,
                est_wall_ns,
            },
        );
        drop(inner);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.fills.fetch_add(1, Ordering::Relaxed);
        FillOutcome::Admitted
    }

    /// Drop every entry that depends on `table` (`db.table` identity from
    /// [`crate::fingerprint::table_key`]).
    pub fn invalidate_table(&self, table: &str) {
        let mut inner = self.lock();
        let dead: Vec<u64> = inner
            .map
            .iter()
            .filter(|(_, e)| e.tables.iter().any(|t| t == table))
            .map(|(k, _)| *k)
            .collect();
        for k in dead {
            let e = inner.map.remove(&k).expect("key listed");
            inner.bytes -= e.bytes;
        }
        // Kill in-flight fills too: a query planned before this table was
        // appended to must not install its pre-append rows afterwards.
        // (Conservative for queries over unrelated tables — they re-offer
        // on their next execution.)
        inner.write_gen += 1;
    }

    /// Drop every entry (catalog-wide change or epoch swap). Cost history
    /// survives — recompute estimates stay useful across generations.
    pub fn invalidate_all(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
        // In-flight fills were planned against pre-invalidation snapshots;
        // the generation bump makes their offers dead on arrival.
        inner.write_gen += 1;
    }

    /// Disable the cache after a contained failure. It stops serving and
    /// filling until the process restarts (loud by design: callers report
    /// `reuse=disabled` and charge a counter).
    pub fn disable(&self) {
        self.disabled.store(true, Ordering::SeqCst);
    }

    /// `true` once [`ReuseCache::disable`] has run.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// Arm the fill-path panic test hook (next fill panics once).
    pub fn inject_fill_panic(&self) {
        self.inject_fill_panic.store(true, Ordering::SeqCst);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ReuseStats {
        let inner = self.lock();
        ReuseStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            bytes_resident: inner.bytes,
            budget_bytes: self.budget_bytes.load(Ordering::Relaxed),
            disabled: self.disabled.load(Ordering::Relaxed),
        }
    }
}

/// Estimated resident size of a row set: container overhead plus
/// per-cell payloads (strings by length; scalars by 16 bytes of enum).
fn rows_bytes(rows: &[Vec<Cell>]) -> u64 {
    let mut bytes = std::mem::size_of::<Vec<Vec<Cell>>>() as u64;
    for row in rows {
        bytes += std::mem::size_of::<Vec<Cell>>() as u64;
        for cell in row {
            bytes += 16;
            if let Cell::Str(s) = cell {
                bytes += s.len() as u64;
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> CachedRows {
        Arc::new((0..n).map(|i| vec![Cell::Int(i as i64)]).collect())
    }

    /// A wall estimate big enough that the ns/byte floor never interferes
    /// with the policy under test.
    const EXPENSIVE: u64 = u64::MAX / 4;

    #[test]
    fn hit_after_fill_and_miss_on_other_key() {
        let c = ReuseCache::new(16);
        assert!(c.lookup(1, 0).is_none());
        assert_eq!(
            c.fill(
                1,
                rows(4),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation()
            ),
            FillOutcome::Admitted
        );
        let hit = c.lookup(1, 0).expect("filled key hits");
        assert_eq!(hit.len(), 4);
        assert!(c.lookup(2, 0).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 2, 1));
    }

    #[test]
    fn epoch_mismatch_never_serves_and_drops_the_entry() {
        let c = ReuseCache::new(16);
        c.fill(
            1,
            rows(4),
            7,
            vec!["db.t".into()],
            EXPENSIVE,
            c.generation(),
        );
        assert!(c.lookup(1, 8).is_none(), "stale epoch must miss");
        assert_eq!(c.stats().bytes_resident, 0, "stale entry dropped eagerly");
        assert!(c.lookup(1, 7).is_none(), "entry is gone for good");
    }

    #[test]
    fn table_invalidation_is_selective() {
        let c = ReuseCache::new(16);
        c.fill(
            1,
            rows(2),
            0,
            vec!["db.a".into()],
            EXPENSIVE,
            c.generation(),
        );
        c.fill(
            2,
            rows(2),
            0,
            vec!["db.b".into()],
            EXPENSIVE,
            c.generation(),
        );
        c.invalidate_table("db.a");
        assert!(c.lookup(1, 0).is_none());
        assert!(c.lookup(2, 0).is_some());
    }

    #[test]
    fn invalidate_all_empties_but_keeps_cost_history() {
        let c = ReuseCache::new(16);
        c.fill(
            1,
            rows(2),
            0,
            vec!["db.t".into()],
            EXPENSIVE,
            c.generation(),
        );
        c.invalidate_all();
        assert!(c.lookup(1, 0).is_none());
        assert_eq!(c.stats().bytes_resident, 0);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let c = ReuseCache::new(1); // 1 MiB budget -> 256 KiB oversize line
        let big: CachedRows = Arc::new(
            (0..5000)
                .map(|_| vec![Cell::Str(Arc::from("x".repeat(100)))])
                .collect(),
        );
        assert_eq!(
            c.fill(1, big, 0, vec!["db.t".into()], EXPENSIVE, c.generation()),
            FillOutcome::Rejected
        );
        assert_eq!(c.stats().bytes_resident, 0);
    }

    #[test]
    fn cheap_large_entries_fail_the_cost_model() {
        let c = ReuseCache::new(64);
        let large: CachedRows = Arc::new(
            (0..2000)
                .map(|_| vec![Cell::Str(Arc::from("y".repeat(64)))])
                .collect(),
        );
        // ~160 KB entry, 1000 ns to recompute: far below 1 ns/byte.
        assert_eq!(
            c.fill(1, large, 0, vec!["db.t".into()], 1000, c.generation()),
            FillOutcome::Rejected
        );
        // Small entries skip the cost model entirely.
        assert_eq!(
            c.fill(2, rows(1), 0, vec!["db.t".into()], 1, c.generation()),
            FillOutcome::Admitted
        );
    }

    #[test]
    fn eviction_respects_budget_and_prefers_cold_entries() {
        let c = ReuseCache::new(1);
        // ~50 KiB each; 1 MiB budget holds ~20.
        let make = || -> CachedRows {
            Arc::new(
                (0..500)
                    .map(|_| vec![Cell::Str(Arc::from("z".repeat(80)))])
                    .collect(),
            )
        };
        for key in 0..30u64 {
            c.fill(
                key,
                make(),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation(),
            );
        }
        let s = c.stats();
        assert!(s.evictions > 0, "filling past budget must evict");
        assert!(
            s.bytes_resident <= s.budget_bytes,
            "resident {} exceeds budget {}",
            s.bytes_resident,
            s.budget_bytes
        );
    }

    #[test]
    fn resident_bytes_never_exceed_budget_under_churn() {
        let c = ReuseCache::new(1);
        for key in 0..200u64 {
            let n = 50 + (key as usize % 300);
            c.fill(
                key,
                rows(n),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation(),
            );
            if key % 3 == 0 {
                c.lookup(key / 2, 0);
            }
            let s = c.stats();
            assert!(s.bytes_resident <= s.budget_bytes);
        }
    }

    #[test]
    fn disabled_cache_neither_serves_nor_fills() {
        let c = ReuseCache::new(16);
        c.fill(
            1,
            rows(2),
            0,
            vec!["db.t".into()],
            EXPENSIVE,
            c.generation(),
        );
        c.disable();
        assert!(c.lookup(1, 0).is_none());
        assert_eq!(
            c.fill(
                2,
                rows(2),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation()
            ),
            FillOutcome::Disabled
        );
        assert!(c.stats().disabled);
    }

    #[test]
    fn injected_fill_panic_fires_once() {
        let c = ReuseCache::new(16);
        c.inject_fill_panic();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.fill(
                1,
                rows(2),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation(),
            )
        }));
        assert!(r.is_err(), "armed hook must panic");
        // Hook disarms itself; the next fill succeeds.
        assert_eq!(
            c.fill(
                1,
                rows(2),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation()
            ),
            FillOutcome::Admitted
        );
    }

    #[test]
    fn fill_racing_an_invalidation_is_rejected() {
        let c = ReuseCache::new(16);
        // "Plan" before the write...
        let planned_gen = c.generation();
        // ...a concurrent writer invalidates (catalog write / append)...
        c.invalidate_table("db.t");
        // ...and the in-flight query's fill arrives late: dead on arrival,
        // because its rows were computed from the pre-write snapshot.
        assert_eq!(
            c.fill(1, rows(4), 0, vec!["db.t".into()], EXPENSIVE, planned_gen),
            FillOutcome::Rejected
        );
        assert!(c.lookup(1, 0).is_none(), "stale rows must not be admitted");
        assert_eq!(c.stats().stale_rejects, 1);
        // A fill planned after the invalidation is admitted normally.
        assert_eq!(
            c.fill(
                1,
                rows(4),
                0,
                vec!["db.t".into()],
                EXPENSIVE,
                c.generation()
            ),
            FillOutcome::Admitted
        );
    }

    #[test]
    fn every_invalidation_path_bumps_the_write_generation() {
        let c = ReuseCache::new(16);
        let g0 = c.generation();
        c.invalidate_table("db.t");
        let g1 = c.generation();
        assert!(g1 > g0, "table invalidation must bump the generation");
        c.invalidate_all();
        assert!(c.generation() > g1, "full invalidation must bump it too");
    }

    #[test]
    fn protected_victim_rejects_candidate_without_collateral_evictions() {
        let c = ReuseCache::new(1); // 1 MiB budget
        let gen = c.generation();
        let strs = |n: usize| -> CachedRows {
            Arc::new(
                (0..n)
                    .map(|_| vec![Cell::Str(Arc::from("x".repeat(100)))])
                    .collect(),
            )
        };
        // ~140 bytes per row. Fill order fixes the (freq, last_used) scan
        // order: a tiny, cheap entry first (the evictable head of the
        // victim scan)...
        c.fill(1, strs(70), 0, vec!["db.t".into()], 1_000, gen);
        // ...then a same-freq but high-value resident the policy protects...
        c.fill(2, strs(1800), 0, vec!["db.t".into()], EXPENSIVE, gen);
        // ...then hotter residents that fill the budget.
        for key in 3..6u64 {
            c.fill(key, strs(1800), 0, vec!["db.t".into()], EXPENSIVE, gen);
            c.lookup(key, 0);
            c.lookup(key, 0);
        }
        let before = c.stats();
        // Candidate (~98 KiB, mid score): evicting key 1 is not enough
        // room, and the next victim in scan order — key 2 — scores higher
        // than the candidate, so the offer must be rejected with *nothing*
        // displaced (not evict-key-1-then-reject).
        assert_eq!(
            c.fill(9, strs(700), 0, vec!["db.t".into()], 1_000_000_000, gen),
            FillOutcome::Rejected
        );
        let after = c.stats();
        assert_eq!(
            after.bytes_resident, before.bytes_resident,
            "a rejected candidate must not cost residents"
        );
        assert_eq!(after.evictions, before.evictions);
        assert!(
            c.lookup(1, 0).is_some(),
            "the low-score resident survives the rejected offer"
        );
    }
}
