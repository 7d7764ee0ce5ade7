//! Log-bucketed latency histogram.
//!
//! Bucket `i` holds samples whose microsecond value has `i` significant
//! bits, i.e. durations in `[2^(i-1), 2^i)` µs (bucket 0 is exactly 0 µs).
//! That gives ~2x resolution from microseconds to hours in a fixed 64-slot
//! array — no allocation on the record path, and merging two histograms is
//! element-wise addition, so parallel collection stays commutative.

use std::time::Duration;

/// Number of buckets: one per possible bit-length of a `u64` µs count.
const BUCKETS: usize = 64;

/// A fixed-size logarithmic histogram of durations.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("total_us", &self.total_us)
            .field("max_us", &self.max_us)
            .finish()
    }
}

/// Bucket index for a microsecond value: its bit length.
fn bucket_of(us: u64) -> usize {
    (u64::BITS - us.leading_zeros()) as usize
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        // bucket_of(0) == 0, bucket_of(u64::MAX) == 64; clamp into range.
        self.buckets[bucket_of(us).min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations.
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_us)
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.total_us.checked_div(self.count).unwrap_or(0))
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (nearest-rank over buckets; `q` clamped to `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i) µs; report the upper bound,
                // capped by the observed max so p100 is exact-ish.
                let upper = if i == 0 { 0 } else { 1u64 << i };
                return Duration::from_micros(upper.min(self.max_us));
            }
        }
        Duration::from_micros(self.max_us)
    }

    /// Fold another histogram into this one (element-wise; commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Non-empty buckets as `(lower_us, upper_us, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i <= 1 { 0 } else { 1u64 << (i - 1) };
                let upper = if i == 0 { 0 } else { 1u64 << i };
                (lower, upper, n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.total(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn buckets_are_log_spaced() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.total(), Duration::from_micros(101_106));
        // Median lands in the bucket holding 3µs: [2,4) → upper bound 4µs.
        assert_eq!(h.quantile(0.5), Duration::from_micros(4));
        // The top quantile is capped at the observed max.
        assert_eq!(h.quantile(1.0), Duration::from_micros(100_000));
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for us in [5u64, 50, 500] {
            a.record(Duration::from_micros(us));
            both.record(Duration::from_micros(us));
        }
        for us in [7u64, 70, 7_000_000] {
            b.record(Duration::from_micros(us));
            both.record(Duration::from_micros(us));
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.total(), both.total());
        assert_eq!(a.quantile(1.0), both.quantile(1.0));
        assert_eq!(a.nonzero_buckets(), both.nonzero_buckets());
    }

    #[test]
    fn huge_durations_saturate() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) >= Duration::from_secs(1 << 40));
    }
}
