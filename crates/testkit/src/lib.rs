//! Hermetic test substrate for the Maxson workspace.
//!
//! Three pieces, zero external dependencies:
//!
//! * [`rng`] — a deterministic PRNG (SplitMix64-seeded xoshiro256++) with
//!   the `rand`-style surface the workspace uses: `seed_from_u64`,
//!   `gen_range`, `gen_bool`, `gen::<T>()`, slice `shuffle`/`choose`.
//! * [`prop`] — a property-testing harness: composable generators,
//!   configurable case counts, greedy shrinking, and failure seeds
//!   replayable via the `MAXSON_TESTKIT_SEED` environment variable.
//! * [`corpus`] — a seed-replayable adversarial JSON corpus (valid and
//!   invalid tiers plus byte-level mutation) for parser differential and
//!   failure-injection tests.
//! * [`mod@bench`] — a wall-clock bench runner (warmup + N timed iterations,
//!   median/p95) whose stats feed the workspace's `Report` JSON format.
//! * `alloc` (feature `count-alloc`) — a counting global allocator for
//!   allocation-per-row regression tests on the zero-copy scan path.
//!
//! The workspace builds and tests fully offline (`cargo test -q
//! --offline`); see README.md's hermetic-build policy. Everything is
//! deterministic by construction so behavior is pinned by seeds, not by
//! whichever registry version resolution happens to pick.

#![deny(unreachable_pub)]
#[cfg(feature = "count-alloc")]
pub mod alloc;
pub mod bench;
pub mod corpus;
pub mod prop;
pub mod rng;

pub use bench::{BenchRunner, BenchStats};
pub use prop::{check, Config, Gen};
pub use rng::{Random, Rng, SliceRandom};
