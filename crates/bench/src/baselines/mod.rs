//! The two designs the paper measures Maxson against. Neither is part of
//! the mechanism (§IV), so they live beside the binaries that run them:
//!
//! * [`online`] — online caching with LRU replacement (§III-A, Fig. 14):
//!   `fig14_online_lru` via [`crate::workload::lru_session`].
//! * [`join_stitch`] — the row-number join §I dismisses as the naive way
//!   to stitch cached and uncached columns: `ablation_combiner`.

pub mod join_stitch;
pub mod online;

pub use join_stitch::JoinStitchProvider;
pub use online::OnlineLruRewriter;
