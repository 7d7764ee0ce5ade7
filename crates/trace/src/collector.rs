//! The JSONPath Collector: per-(path, date) access statistics.
//!
//! Mirrors the paper's component of the same name (§III-B): it collects
//! historical user queries and, for each JSONPath, extracts its location
//! (database, table, column) and daily access counts into a statistics
//! table partitioned by date. The predictor trains on exactly this table.

use std::collections::BTreeMap;

use crate::model::{JsonPathLocation, QueryRecord};

/// Per-path, per-day access statistics.
#[derive(Debug, Default)]
pub struct JsonPathCollector {
    /// path key -> (location, day -> count)
    stats: BTreeMap<String, (JsonPathLocation, BTreeMap<u32, u32>)>,
    /// Highest day observed.
    max_day: u32,
}

impl JsonPathCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one query into the statistics table.
    pub fn observe(&mut self, query: &QueryRecord) {
        for path in &query.paths {
            let entry = self
                .stats
                .entry(path.key())
                .or_insert_with(|| (path.clone(), BTreeMap::new()));
            *entry.1.entry(query.day).or_insert(0) += 1;
        }
        self.max_day = self.max_day.max(query.day);
    }

    /// Fold a whole trace.
    pub fn observe_all<'a>(&mut self, queries: impl IntoIterator<Item = &'a QueryRecord>) {
        for q in queries {
            self.observe(q);
        }
    }

    /// Record a raw `(location, day, count)` statistic directly — the entry
    /// point used when reloading a persisted statistics table.
    pub fn record(&mut self, location: &JsonPathLocation, day: u32, count: u32) {
        if count == 0 {
            return;
        }
        let entry = self
            .stats
            .entry(location.key())
            .or_insert_with(|| (location.clone(), BTreeMap::new()));
        *entry.1.entry(day).or_insert(0) += count;
        self.max_day = self.max_day.max(day);
    }

    /// Number of distinct paths seen.
    pub fn path_count(&self) -> usize {
        self.stats.len()
    }

    /// Highest day index observed.
    pub fn max_day(&self) -> u32 {
        self.max_day
    }

    /// All locations seen, in key order.
    pub fn locations(&self) -> impl Iterator<Item = &JsonPathLocation> {
        self.stats.values().map(|(loc, _)| loc)
    }

    /// Access count of `loc` on `day`.
    pub fn count_on(&self, loc: &JsonPathLocation, day: u32) -> u32 {
        self.stats
            .get(&loc.key())
            .and_then(|(_, days)| days.get(&day).copied())
            .unwrap_or(0)
    }

    /// `true` when the path was parsed at least twice on `day` — the MPJP
    /// ground-truth label.
    pub fn is_mpjp(&self, loc: &JsonPathLocation, day: u32) -> bool {
        self.count_on(loc, day) >= 2
    }

    /// All paths with counts on `day`, as `(location, count)`.
    pub fn day_partition(&self, day: u32) -> Vec<(&JsonPathLocation, u32)> {
        self.stats
            .values()
            .filter_map(|(loc, days)| days.get(&day).map(|&c| (loc, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RecurrenceClass;

    fn loc(p: &str) -> JsonPathLocation {
        JsonPathLocation::new("db", "t", "c", p)
    }

    fn query(day: u32, paths: &[&str]) -> QueryRecord {
        QueryRecord {
            query_id: 0,
            user_id: 0,
            day,
            hour: 9,
            recurrence: RecurrenceClass::Daily,
            paths: paths.iter().map(|p| loc(p)).collect(),
        }
    }

    #[test]
    fn counts_accumulate_per_day() {
        let mut c = JsonPathCollector::new();
        c.observe(&query(0, &["$.a", "$.b"]));
        c.observe(&query(0, &["$.a"]));
        c.observe(&query(1, &["$.a"]));
        assert_eq!(c.count_on(&loc("$.a"), 0), 2);
        assert_eq!(c.count_on(&loc("$.b"), 0), 1);
        assert_eq!(c.count_on(&loc("$.a"), 1), 1);
        assert_eq!(c.count_on(&loc("$.zzz"), 0), 0);
        assert_eq!(c.path_count(), 2);
        assert_eq!(c.max_day(), 1);
    }

    #[test]
    fn mpjp_label_is_count_ge_2() {
        let mut c = JsonPathCollector::new();
        c.observe(&query(0, &["$.a"]));
        assert!(!c.is_mpjp(&loc("$.a"), 0));
        c.observe(&query(0, &["$.a"]));
        assert!(c.is_mpjp(&loc("$.a"), 0));
    }

    #[test]
    fn days_without_access_count_zero() {
        let mut c = JsonPathCollector::new();
        c.observe(&query(1, &["$.a"]));
        c.observe(&query(3, &["$.a"]));
        let counts: Vec<u32> = (0..5).map(|d| c.count_on(&loc("$.a"), d)).collect();
        assert_eq!(counts, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn day_partition_lists_the_days_paths() {
        let mut c = JsonPathCollector::new();
        c.observe(&query(0, &["$.a", "$.b"]));
        c.observe(&query(0, &["$.a"]));
        let part = c.day_partition(0);
        assert_eq!(part.len(), 2);
    }
}
