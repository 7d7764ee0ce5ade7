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
//! snapshots. Counts are the regression signal: the zero-copy scan
//! regression cares about allocations-per-row on the hot loop, which is
//! robust to allocator size classes and fragmentation, where byte totals
//! are not. Requested bytes are tracked beside them only as a high-water
//! mark ([`reset_peak_bytes`], [`peak_bytes`]) for coarse retention bounds
//! — "this query never holds the table's documents at once" — that sit
//! far from any size-class effect.
//!
//! The counters are process-wide — concurrent tests in the same binary
//! can't corrupt each other's allocation deltas, but single-threaded
//! measurement is still required for a meaningful per-loop attribution
//! (run the hot loop on one thread, as the regression test does), and a
//! peak is only the region's own when nothing else runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Number of heap allocations performed by the process so far (monotonic).
/// Subtract two snapshots to attribute allocations to a code region.
pub fn allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the bytes live now, and return them.
pub fn reset_peak_bytes() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// The most requested bytes live at once since [`reset_peak_bytes`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// System allocator wrapper that counts `alloc`/`realloc` calls and
/// tracks live requested bytes.
pub struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the only added
// behavior is relaxed atomic bookkeeping, which cannot affect the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
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
        let live = reset_peak_bytes();
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let before = allocation_count();
            let p = CountingAllocator.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(allocation_count() - before, 1);
            let p = CountingAllocator.realloc(p, layout, 256);
            assert!(!p.is_null());
            assert_eq!(allocation_count() - before, 2);
            CountingAllocator.dealloc(p, Layout::from_size_align(256, 8).unwrap());
            assert_eq!(allocation_count() - before, 2, "dealloc not counted");
        }
        assert_eq!(peak_bytes() - live, 256, "the realloc's size is the peak");
        assert_eq!(LIVE_BYTES.load(Ordering::Relaxed), live, "everything freed");
    }
}
