//! A counting global allocator for allocation-regression tests.
//!
//! Feature-gated (`count-alloc`) and hermetic: wraps [`std::alloc::System`]
//! and counts every `alloc`/`realloc` call in a process-wide atomic. A test
//! binary opts in by declaring it as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: maxson_testkit::alloc::CountingAllocator =
//!     maxson_testkit::alloc::CountingAllocator;
//! ```
//!
//! and then brackets the region under test with [`allocation_count`]
//! snapshots. Only *counts* are tracked (not bytes): the zero-copy scan
//! regression cares about allocations-per-row on the hot loop, which is
//! robust to allocator size classes and fragmentation, where byte totals
//! are not.
//!
//! The counter is monotonic and never reset — concurrent tests in the same
//! binary can't corrupt each other's deltas, but single-threaded measurement
//! is still required for a meaningful per-loop attribution (run the hot
//! loop on one thread, as the regression test does).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// Number of heap allocations performed by the process so far (monotonic).
/// Subtract two snapshots to attribute allocations to a code region.
pub fn allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

/// System allocator wrapper that counts `alloc`/`realloc` calls.
pub struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the only added
// behavior is a relaxed atomic increment, which cannot affect the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed globally in this crate's own tests,
    // so only the counter plumbing is checkable here; the end-to-end
    // behavior is exercised by the workspace's alloc_regression test,
    // which does install it.
    // One test, not two: both read exact deltas of the process-wide
    // counter, so run in parallel they count each other.
    #[test]
    fn counter_is_monotonic_and_delegates_to_system() {
        let a = allocation_count();
        ALLOCATION_COUNT.fetch_add(3, Ordering::Relaxed);
        let b = allocation_count();
        assert_eq!(b - a, 3);
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let before = allocation_count();
            let p = CountingAllocator.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(allocation_count() - before, 1);
            CountingAllocator.dealloc(p, layout);
            assert_eq!(allocation_count() - before, 1, "dealloc not counted");
        }
    }
}
