//! The allocation probe: the same harness under testkit's counting
//! allocator. A traced run spawns it for a few blocks to fill in
//! `engine.allocs_per_row`. No timing ever comes from this binary — every
//! allocation here pays a contended atomic increment, which stretched a
//! `tableII_plain` block by 40 % when the whole traced run used it.

use maxson_testkit::alloc::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    std::process::exit(perfbench::main_with(Some(allocation_count)));
}
