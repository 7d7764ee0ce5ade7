//! A scoped-thread worker pool for split-level parallelism.
//!
//! The executor fans the scan+filter+project phase out one task per Norc
//! split (morsel-style). This module owns the threading mechanics: a shared
//! atomic cursor hands out split indexes, each worker — the calling thread
//! is one of them — runs tasks until the cursor is exhausted, and results
//! land in per-task slots so the caller reassembles them **in split
//! order** — the property the differential tests lean on for
//! byte-identical output.
//!
//! Built on `std::thread::scope` only (hermetic policy: no crates-io
//! dependencies). Panics inside a task are caught and surfaced as
//! [`EngineError`]s naming the split, never as a hang or a poisoned lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};

/// Cooperative split-level scheduling hook. The pool brackets every split
/// task with `acquire`/`release`, whichever thread runs it, so an
/// external scheduler — the query server's fair-share admission controller —
/// can time-slice split execution across many in-flight queries. `acquire`
/// may block; `release` is guaranteed to run even when the task panics.
pub trait SplitScheduler: std::fmt::Debug + Send + Sync {
    /// Block until the caller may run one split task.
    fn acquire(&self);
    /// Return the permit taken by the matching [`SplitScheduler::acquire`].
    fn release(&self);
}

/// RAII permit: releases on drop, including during a panic unwind.
struct SchedulerPermit<'a>(Option<&'a dyn SplitScheduler>);

impl<'a> SchedulerPermit<'a> {
    fn acquire(scheduler: Option<&'a dyn SplitScheduler>) -> Self {
        if let Some(s) = scheduler {
            s.acquire();
        }
        SchedulerPermit(scheduler)
    }
}

impl Drop for SchedulerPermit<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.0 {
            s.release();
        }
    }
}

/// Outcome of one pool run.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Per-task results, indexed by task (= split) index.
    pub results: Vec<T>,
    /// Threads the run put on its tasks, the caller included (0 when the
    /// caller ran them alone). A worker that starts after the others have
    /// taken every task runs none.
    pub threads_used: usize,
    /// Wall time of each task, indexed like `results`.
    pub task_walls: Vec<Duration>,
}

/// Run `tasks` closures, at most `max_threads` at a time, returning their
/// results in task order.
///
/// * `min(max_threads, tasks)` workers share the cursor: the caller and
///   `min(max_threads, tasks) - 1` spawned threads, so the caller works
///   instead of waiting for the others to start. At one worker
///   (`max_threads <= 1` or a single task) the caller runs every task, in
///   task order, and no thread is spawned. The executor has no serial path
///   of its own: this is it.
/// * A task returning `Err` or panicking aborts the run; the error for the
///   **lowest failing task index** is returned so failure is deterministic
///   regardless of scheduling. Once a failure is recorded, queued tasks
///   above its index are skipped; those below it still run.
/// * When `scheduler` is set, every task, on whichever thread, runs inside an
///   acquire/release bracket, letting a server time-slice splits fairly
///   across concurrent queries.
pub fn run_split_tasks<T, F>(
    tasks: usize,
    max_threads: usize,
    scheduler: Option<&dyn SplitScheduler>,
    task: F,
) -> Result<PoolRun<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if tasks == 0 {
        return Ok(PoolRun {
            results: Vec::new(),
            threads_used: 0,
            task_walls: Vec::new(),
        });
    }
    let workers = max_threads.clamp(1, tasks);
    let cursor = AtomicUsize::new(0);
    // One slot per task; a Mutex around the whole vector keeps this simple
    // (contention is negligible: one lock per task completion).
    type Slot<T> = Option<Result<(T, Duration)>>;
    let slots: Mutex<Vec<Slot<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
    // The lowest index that failed so far: tasks above it are skipped, tasks
    // below it still run, so the lowest failing index is found whichever
    // worker fails first.
    let failed_at = AtomicUsize::new(usize::MAX);

    // One worker's loop; the spawned threads and the caller all run it.
    // The caller does not wait for the others to start: when the tasks
    // are short it may run all of them before a worker asks for one.
    let body = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tasks || i > failed_at.load(Ordering::Relaxed) {
            break;
        }
        // Acquire before timing: fairness wait is queueing delay, not task
        // work, and must not inflate the skew gauges.
        let permit = SchedulerPermit::acquire(scheduler);
        let start = Instant::now();
        let outcome = run_one(&task, permit, i);
        if outcome.is_err() {
            failed_at.fetch_min(i, Ordering::Relaxed);
        }
        let wall = start.elapsed();
        slots.lock().expect("pool slots lock")[i] = Some(outcome.map(|t| (t, wall)));
    };
    std::thread::scope(|scope| {
        for w in 0..workers - 1 {
            // Named threads so trace exports get stable per-worker track
            // names; fall back to an anonymous thread if the OS refuses.
            if std::thread::Builder::new()
                .name(format!("maxson-pool-{w}"))
                .spawn_scoped(scope, body)
                .is_err()
            {
                scope.spawn(body);
            }
        }
        body();
    });

    let slots = slots.into_inner().expect("pool slots lock");
    let mut results = Vec::with_capacity(tasks);
    let mut task_walls = Vec::with_capacity(tasks);
    for slot in slots {
        match slot {
            Some(Ok((value, wall))) => {
                results.push(value);
                task_walls.push(wall);
            }
            // Lowest failing index wins: slots are visited in task order.
            Some(Err(e)) => return Err(e),
            // Skipped after a failure elsewhere; keep scanning for the error.
            None => {}
        }
    }
    debug_assert_eq!(results.len(), tasks, "no failure implies every slot ran");
    Ok(PoolRun {
        results,
        threads_used: if workers > 1 { workers } else { 0 },
        task_walls,
    })
}

/// One task under panic containment, on the caller or a worker. The permit
/// moves into the unwind scope so a panicking task still releases its
/// scheduler slot.
fn run_one<T>(
    task: &(impl Fn(usize) -> Result<T> + Sync),
    permit: SchedulerPermit<'_>,
    i: usize,
) -> Result<T> {
    catch_unwind(AssertUnwindSafe(|| {
        let _permit = permit;
        task(i)
    }))
    .unwrap_or_else(|payload| Err(panic_error(i, payload.as_ref())))
}

fn panic_error(split: usize, payload: &(dyn std::any::Any + Send)) -> EngineError {
    let message = panic_message(payload);
    EngineError::exec(format!("task for split {split} panicked: {message}"))
}

/// The text of a caught panic's payload. For callers that catch their own
/// panics: the cacher, whose task index is not a split index, and the query
/// server, which answers a panicking query with an error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Percentiles and skew over the per-task wall times of one pool run
/// (nearest-rank; skew = max/mean). Returns `(p50, p95, skew)`.
pub fn wall_stats(walls: &[Duration]) -> (Duration, Duration, f64) {
    if walls.is_empty() {
        return (Duration::ZERO, Duration::ZERO, 0.0);
    }
    let mut sorted = walls.to_vec();
    sorted.sort();
    // Classic nearest-rank: the ceil(n*q)-th smallest value.
    let rank = |q: f64| {
        let idx = (sorted.len() as f64 * q).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };
    let total: Duration = sorted.iter().sum();
    let mean = total.as_secs_f64() / sorted.len() as f64;
    let max = sorted.last().expect("non-empty").as_secs_f64();
    let skew = if mean > 0.0 { max / mean } else { 1.0 };
    (rank(0.5), rank(0.95), skew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        let run = run_split_tasks(16, 4, None, |i| {
            // Stagger completion so out-of-order finishes are likely.
            std::thread::sleep(Duration::from_micros(((16 - i) * 50) as u64));
            Ok(i * 10)
        })
        .unwrap();
        assert_eq!(run.results, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(run.threads_used, 4);
        assert_eq!(run.task_walls.len(), 16);
    }

    #[test]
    fn single_task_runs_inline_without_spawning() {
        let run = run_split_tasks(1, 8, None, Ok).unwrap();
        assert_eq!(run.results, vec![0]);
        assert_eq!(run.threads_used, 0, "one task must not spawn threads");
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let run = run_split_tasks(0, 8, None, |_| -> Result<()> {
            panic!("no task should run for an empty table");
        })
        .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.threads_used, 0);
    }

    #[test]
    fn one_thread_runs_inline_on_caller() {
        let caller = std::thread::current().id();
        let run = run_split_tasks(4, 1, None, |i| {
            assert_eq!(std::thread::current().id(), caller);
            Ok(i)
        })
        .unwrap();
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(run.threads_used, 0);
    }

    #[test]
    fn workers_capped_by_task_count() {
        let run = run_split_tasks(2, 16, None, Ok).unwrap();
        assert_eq!(run.threads_used, 2);
    }

    #[test]
    fn task_panic_becomes_error_naming_the_split() {
        let err = run_split_tasks(8, 4, None, |i| -> Result<usize> {
            if i == 5 {
                panic!("poisoned split data");
            }
            Ok(i)
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("split 5"), "error must name the split: {msg}");
        assert!(msg.contains("poisoned split data"), "{msg}");
    }

    #[test]
    fn inline_panic_becomes_error_too() {
        let err = run_split_tasks(1, 8, None, |_| -> Result<usize> { panic!("inline boom") })
            .unwrap_err();
        assert!(err.to_string().contains("split 0"), "{err}");
    }

    #[test]
    fn task_error_aborts_with_lowest_failing_index() {
        // Every task fails; the reported index must be deterministic.
        for _ in 0..8 {
            let err = run_split_tasks(6, 3, None, |i| -> Result<usize> {
                Err(EngineError::exec(format!("bad split {i}")))
            })
            .unwrap_err();
            assert!(err.to_string().contains("bad split 0"), "{err}");
        }
    }

    #[test]
    fn failure_skips_remaining_queued_tasks() {
        let ran = AtomicUsize::new(0);
        let _ = run_split_tasks(1000, 2, None, |i| -> Result<usize> {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                return Err(EngineError::exec("early failure"));
            }
            // Sleeping yields the CPU, so the failing task gets scheduled
            // promptly even on a single-core machine.
            std::thread::sleep(Duration::from_millis(1));
            Ok(i)
        });
        // Not all 1000 tasks should have run after the failure flag flipped.
        assert!(
            ran.load(Ordering::Relaxed) < 1000,
            "failure must short-circuit"
        );
    }

    /// Counts permits taken and returned.
    #[derive(Debug, Default)]
    struct Permits {
        acquired: AtomicUsize,
        released: AtomicUsize,
    }

    impl SplitScheduler for Permits {
        fn acquire(&self) {
            self.acquired.fetch_add(1, Ordering::SeqCst);
        }
        fn release(&self) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// At two threads the caller works the cursor beside one spawned
    /// worker: the two tasks, each held until both have started, run on
    /// two threads, one of them the caller.
    #[test]
    fn two_threads_are_the_caller_and_one_spawned_worker() {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let run = run_split_tasks(2, 2, None, |i| {
            both.wait();
            let me = std::thread::current();
            Ok((i, me.id(), me.name().map(str::to_string)))
        })
        .unwrap();
        assert_eq!(run.threads_used, 2);
        let ids: Vec<_> = run.results.iter().map(|(_, id, _)| *id).collect();
        assert_ne!(ids[0], ids[1], "the two tasks share a thread");
        assert!(ids.contains(&caller), "the caller ran no task");
        let spawned = run.results.iter().find(|(_, id, _)| *id != caller);
        assert_eq!(spawned.unwrap().2.as_deref(), Some("maxson-pool-0"));
        assert_eq!(run.results.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1]);
    }

    /// A task that panics on the caller still returns its permit, and the
    /// lowest failing index is the error, whichever thread ran it. Both
    /// tasks start before either fails (a task above a recorded failure
    /// would be skipped).
    #[test]
    fn a_panic_on_the_caller_releases_its_permit_and_the_lowest_error_wins() {
        let caller = std::thread::current().id();
        let permits = Permits::default();
        let both = std::sync::Barrier::new(2);
        let err = run_split_tasks(2, 2, Some(&permits), |i| -> Result<usize> {
            both.wait();
            if std::thread::current().id() == caller {
                panic!("caller task {i} poisoned");
            }
            Err(EngineError::exec(format!("worker task {i} failed")))
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("split 0 panicked: caller task 0") || msg.contains("worker task 0"),
            "the error is not task 0's: {msg}"
        );
        assert_eq!(permits.acquired.load(Ordering::SeqCst), 2);
        assert_eq!(permits.released.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wall_stats_quantiles_and_skew() {
        let walls: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let (p50, p95, skew) = wall_stats(&walls);
        assert_eq!(p50, Duration::from_millis(5));
        assert_eq!(p95, Duration::from_millis(10));
        // mean = 5.5ms, max = 10ms.
        assert!((skew - 10.0 / 5.5).abs() < 1e-9);
        assert_eq!(wall_stats(&[]), (Duration::ZERO, Duration::ZERO, 0.0));
        let (p50, _, skew) = wall_stats(&[Duration::from_millis(7)]);
        assert_eq!(p50, Duration::from_millis(7));
        assert!((skew - 1.0).abs() < 1e-9);
    }
}
