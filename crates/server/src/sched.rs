//! Fair split-level time-slicing across concurrent queries.
//!
//! [`FairScheduler`] owns a fixed pool of split permits (normally the
//! machine's core count). Each in-flight query registers on entry and
//! acquires one permit per split task through the engine's
//! [`SplitScheduler`] hook. Admission is *fair-share*: a query may take a
//! permit only while it holds fewer than `max(1, permits / active)` — its
//! floor share — or when permits would otherwise sit idle (work-conserving:
//! a lone query still gets the whole pool).
//!
//! Deadlock-freedom: suppose permits are available but nobody may take one.
//! Then every active query holds at least its share, so the sum held is at
//! least `active * max(1, permits/active) >= permits` — contradicting
//! availability. Hence whenever a permit is free, some query is eligible,
//! and release wakes all waiters.
//! Permits and waits are charged to the registry [`FairScheduler::new`]
//! is given, the served warehouse's.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

use maxson_engine::SplitScheduler;
use maxson_obs::{Counter, Registry};

/// Shared fair-share permit pool. One instance per server; every session
/// clone installs a [`QueryLease`]-scoped handle around each query.
#[derive(Debug)]
pub struct FairScheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
    permits: usize,
    /// Split permits handed out over the scheduler's lifetime.
    acquires: Counter,
    /// Acquires that had to wait at least once before a permit freed up —
    /// the saturation signal behind the `maxson_sched_waits_total` series.
    waits: Counter,
}

#[derive(Debug)]
struct Inner {
    /// Permits currently handed out.
    in_use: usize,
    /// Permits held per registered (active) query.
    held: HashMap<u64, usize>,
    /// Next query registration id.
    next_id: u64,
}

impl FairScheduler {
    /// A scheduler with `permits` split slots (clamped to at least 1),
    /// charging its permit counters to `registry`.
    pub fn new(permits: usize, registry: &Registry) -> Self {
        FairScheduler {
            inner: Mutex::new(Inner {
                in_use: 0,
                held: HashMap::new(),
                next_id: 0,
            }),
            cv: Condvar::new(),
            permits: permits.max(1),
            acquires: registry.counter("maxson_sched_acquires_total", &[]),
            waits: registry.counter("maxson_sched_waits_total", &[]),
        }
    }

    /// Total permits in the pool.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Queries currently registered (admitted and not yet finished).
    pub fn active_queries(&self) -> usize {
        self.lock().held.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic inside a split task never happens while this lock is
        // held (acquire/release only touch counters), but recover anyway
        // so one poisoned scheduler cannot wedge the whole server.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register a query; the returned id keys its held-permit count.
    fn register(&self) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.held.insert(id, 0);
        id
    }

    /// Deregister a query, releasing any permits it still holds (a panicked
    /// pool task has already released via its RAII permit; this is the
    /// belt-and-suspenders path for leases dropped mid-acquire).
    fn deregister(&self, id: u64) {
        let mut inner = self.lock();
        if let Some(held) = inner.held.remove(&id) {
            inner.in_use -= held;
        }
        // Shares grew for everyone else; wake all waiters to re-evaluate.
        self.cv.notify_all();
    }

    /// Per-query floor share under the current active count.
    fn share(&self, active: usize) -> usize {
        (self.permits / active.max(1)).max(1)
    }

    fn acquire_for(&self, id: u64) {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            let active = inner.held.len().max(1);
            let share = self.share(active);
            let held = inner.held.get(&id).copied().unwrap_or(0);
            let available = self.permits.saturating_sub(inner.in_use);
            // Eligible below the floor share, or work-conserving when the
            // pool would otherwise idle (more free permits than queries
            // still below their share could claim).
            if available > 0 && (held < share || available > active.saturating_mul(share)) {
                inner.in_use += 1;
                *inner.held.entry(id).or_insert(0) += 1;
                drop(inner);
                self.acquires.inc();
                if waited {
                    self.waits.inc();
                }
                return;
            }
            waited = true;
            inner = self
                .cv
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn release_for(&self, id: u64) {
        let mut inner = self.lock();
        inner.in_use = inner.in_use.saturating_sub(1);
        if let Some(held) = inner.held.get_mut(&id) {
            *held = held.saturating_sub(1);
        }
        drop(inner);
        self.cv.notify_all();
    }
}

/// One query's scoped registration with the scheduler. Install it on the
/// connection's session for the duration of one query; dropping it (even
/// during unwind) deregisters and releases any leaked permits.
///
/// Registration is **lazy**: the query joins the active set on its first
/// permit acquire, not at lease construction. A query that never runs a
/// split task — a reuse-cache full-result hit is served without touching
/// the executor — therefore never registers, never shrinks the other
/// queries' fair shares, and costs the scheduler nothing.
#[derive(Debug)]
pub struct QueryLease {
    scheduler: std::sync::Arc<FairScheduler>,
    id: std::sync::OnceLock<u64>,
}

impl QueryLease {
    pub fn new(scheduler: std::sync::Arc<FairScheduler>) -> Self {
        QueryLease {
            scheduler,
            id: std::sync::OnceLock::new(),
        }
    }
}

impl Drop for QueryLease {
    fn drop(&mut self) {
        // Only ever registered if a split task actually ran.
        if let Some(id) = self.id.get() {
            self.scheduler.deregister(*id);
        }
    }
}

impl SplitScheduler for QueryLease {
    fn acquire(&self) {
        let id = *self.id.get_or_init(|| self.scheduler.register());
        self.scheduler.acquire_for(id);
    }
    fn release(&self) {
        if let Some(id) = self.id.get() {
            self.scheduler.release_for(*id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lone_query_gets_the_whole_pool() {
        let sched = Arc::new(FairScheduler::new(4, &Registry::new()));
        let lease = QueryLease::new(sched.clone());
        for _ in 0..4 {
            lease.acquire();
        }
        assert_eq!(sched.lock().in_use, 4);
        for _ in 0..4 {
            lease.release();
        }
        assert_eq!(sched.lock().in_use, 0);
    }

    #[test]
    fn dropping_a_lease_frees_its_permits() {
        let sched = Arc::new(FairScheduler::new(2, &Registry::new()));
        let a = QueryLease::new(sched.clone());
        a.acquire();
        a.acquire();
        drop(a); // released implicitly by deregistration
        assert_eq!(sched.lock().in_use, 0);
        assert_eq!(sched.active_queries(), 0);
    }

    #[test]
    fn two_queries_split_the_pool_fairly() {
        // 2 permits, 2 queries: each query's floor share is 1, so neither
        // can starve the other even if one is split-hungry.
        let sched = Arc::new(FairScheduler::new(2, &Registry::new()));
        let greedy = QueryLease::new(sched.clone());
        let meek = QueryLease::new(sched.clone());
        greedy.acquire(); // holds 1 of share 1
        meek.acquire(); // must still get its share immediately
        assert_eq!(sched.lock().in_use, 2);
        greedy.release();
        meek.release();
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let sched = Arc::new(FairScheduler::new(1, &Registry::new()));
        let a = QueryLease::new(sched.clone());
        a.acquire();
        let sched2 = sched.clone();
        let progressed = Arc::new(AtomicUsize::new(0));
        let progressed2 = progressed.clone();
        let t = std::thread::spawn(move || {
            let b = QueryLease::new(sched2);
            b.acquire(); // blocks until `a` releases
            progressed2.store(1, Ordering::SeqCst);
            b.release();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(progressed.load(Ordering::SeqCst), 0, "must block");
        a.release();
        t.join().unwrap();
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
        drop(a);
        assert_eq!(sched.lock().in_use, 0);
    }

    #[test]
    fn an_unacquired_lease_never_registers() {
        // Reuse-hit-served queries drop their lease without acquiring; they
        // must not have counted against anyone's fair share.
        let sched = Arc::new(FairScheduler::new(2, &Registry::new()));
        let idle = QueryLease::new(sched.clone());
        assert_eq!(
            sched.active_queries(),
            0,
            "no registration before first acquire"
        );
        let busy = QueryLease::new(sched.clone());
        busy.acquire();
        assert_eq!(
            sched.active_queries(),
            1,
            "only the acquiring query is active"
        );
        busy.release();
        drop(idle);
        drop(busy);
        assert_eq!(sched.active_queries(), 0);
        assert_eq!(sched.lock().in_use, 0);
    }

    /// Stochastic fairness check: many queries hammering a small pool all
    /// finish, and the pool never over-commits.
    #[test]
    fn pool_never_overcommits_under_contention() {
        let sched = Arc::new(FairScheduler::new(3, &Registry::new()));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sched = sched.clone();
                let peak = peak.clone();
                std::thread::spawn(move || {
                    let lease = QueryLease::new(sched.clone());
                    for _ in 0..50 {
                        lease.acquire();
                        let now = sched.lock().in_use;
                        peak.fetch_max(now, Ordering::SeqCst);
                        lease.release();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "pool overcommitted");
        assert_eq!(sched.lock().in_use, 0);
        assert_eq!(sched.active_queries(), 0);
    }
}
