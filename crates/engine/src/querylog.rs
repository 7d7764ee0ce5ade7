//! Structured JSONL query log.
//!
//! One line per executed query, written append-only to the path named by
//! `MAXSON_QUERY_LOG` (`Config::query_log`).
//! Each line is a self-contained JSON object with a stable field order;
//! `parser`, `threads` and the slow threshold are the session's resolved
//! values, `simd` the active kernel tier:
//!
//! ```json
//! {"fingerprint":"9f86d081884c7d65","sql":"select ...","parser":"tape",
//!  "simd":"avx2","threads":4,"epoch":2,
//!  "reuse":"miss","rows":100,"wall_us":1234,"planning_us":88,"slow":false,
//!  "counters":{"read_us":310,"parse_us":640,...,"rows_scanned":100,
//!   "bytes_read":5120,"parse_calls":300,"docs_parsed":100,"cache_hits":0,
//!   ...,"nodes_skipped":40,"bitmap_builds":100,...,"meta_cache_hits":1,
//!   "meta_cache_misses":0,...,"bitmap_build_wall_us":52,...}}
//! ```
//!
//! `counters` is not a hand-kept list: it holds every summed field of the
//! [`ExecMetrics`] declaration, in declaration order — a `u64` field under
//! its own name, a `Duration` field as `<name>_us`. The `_us` rule exists
//! only so that `bitmap_build_wall_us`, a key the log has always carried,
//! needs no special case; the other summed times ride along under it.
//!
//! The `fingerprint` is [`crate::fingerprint::stmt_fingerprint`]: FNV-1a
//! over the canonical normalized statement text (alias/whitespace
//! insensitive, commutative predicates sorted), so equivalent queries
//! collide across machines and sessions — the same identity the reuse
//! cache and the workload sketch key on. The `reuse` field records how
//! the reuse cache participated (`off`/`hit`/`fill`/`miss`/`disabled`/
//! `poisoned`). The `slow` flag trips when wall time exceeds
//! the session's threshold (`MAXSON_SLOW_MS`, default 1000).
//!
//! Writes happen after the result is materialized, serialized under one
//! mutex per log (sessions cloned from one `Session` share the handle),
//! so concurrent queries interleave whole lines, never bytes. A write
//! failure is reported as an error by `execute` — telemetry must be
//! trustworthy or loud, never silently partial.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use maxson_json::value::JsonNumber;
use maxson_json::JsonValue;

use crate::error::{EngineError, Result};
use crate::metrics::{ExecMetrics, Get, Merge};

/// Everything one query-log line records besides the counters.
pub struct QueryLogEntry<'a> {
    /// Normalized-plan FNV-1a fingerprint.
    pub fingerprint: u64,
    /// The SQL text as submitted (trimmed).
    pub sql: &'a str,
    /// Parser mode name (`jackson` / `mison` / `tape`).
    pub parser: &'a str,
    /// Structural-kernel tier name (`avx2` / `swar` / `scalar`).
    pub simd: &'a str,
    /// The session's worker threads (resolved; 1 = serial).
    pub threads: u64,
    /// Warehouse epoch the query planned against.
    pub epoch: u64,
    /// Reuse-cache participation (`off` / `hit` / `fill` / `miss` /
    /// `disabled` / `poisoned`).
    pub reuse: &'a str,
    /// Output row count.
    pub rows: u64,
    /// Whole-query wall time.
    pub wall: Duration,
    /// Slow-query threshold in effect.
    pub slow_threshold: Duration,
}

/// An append-only JSONL query log.
pub struct QueryLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl std::fmt::Debug for QueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryLog({})", self.path.display())
    }
}

impl QueryLog {
    /// Open (creating or appending to) the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| EngineError::exec(format!("query log {}: {e}", path.display())))?;
        Ok(QueryLog {
            path,
            file: Mutex::new(file),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one line for a finished query.
    pub fn record(&self, entry: &QueryLogEntry<'_>, metrics: &ExecMetrics) -> Result<()> {
        let n = |v: u64| JsonValue::Number(JsonNumber::Int(v as i64));
        // Every summed field of the declaration: counts under the field's
        // name, times as `<name>_us`.
        let counters = JsonValue::object(
            ExecMetrics::fields()
                .iter()
                .filter(|f| f.merge == Merge::Sum)
                .map(|f| match f.get {
                    Get::Count(get) => (f.name.to_string(), n(get(metrics))),
                    Get::Time(get) => {
                        (format!("{}_us", f.name), n(get(metrics).as_micros() as u64))
                    }
                    Get::Ratio(_) => unreachable!("no summed ratio is declared: {}", f.name),
                })
                .collect(),
        );
        let line = JsonValue::object(vec![
            (
                "fingerprint".into(),
                JsonValue::String(format!("{:016x}", entry.fingerprint)),
            ),
            ("sql".into(), JsonValue::String(entry.sql.to_string())),
            ("parser".into(), JsonValue::String(entry.parser.to_string())),
            ("simd".into(), JsonValue::String(entry.simd.to_string())),
            ("threads".into(), n(entry.threads)),
            ("epoch".into(), n(entry.epoch)),
            ("reuse".into(), JsonValue::String(entry.reuse.to_string())),
            ("rows".into(), n(entry.rows)),
            ("wall_us".into(), n(entry.wall.as_micros() as u64)),
            ("planning_us".into(), n(metrics.planning.as_micros() as u64)),
            (
                "slow".into(),
                JsonValue::Bool(entry.wall > entry.slow_threshold),
            ),
            ("counters".into(), counters),
        ]);
        let mut text = maxson_json::to_string(&line);
        text.push('\n');
        let mut file = self.file.lock().expect("query log poisoned");
        file.write_all(text.as_bytes())
            .map_err(|e| EngineError::exec(format!("query log {}: {e}", self.path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fnv1a64;

    #[test]
    fn record_appends_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "maxson-qlog-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let log = QueryLog::open(&path).unwrap();
        let metrics = ExecMetrics {
            rows_scanned: 10,
            parse_calls: 30,
            docs_parsed: 10,
            ..Default::default()
        };
        for i in 0..3u64 {
            let entry = QueryLogEntry {
                fingerprint: fnv1a64(b"plan"),
                sql: "select 1 from db.t",
                parser: "tape",
                simd: "scalar",
                threads: i + 1,
                epoch: 7,
                reuse: "miss",
                rows: 10,
                wall: Duration::from_millis(2),
                slow_threshold: Duration::from_millis(1000),
            };
            log.record(&entry, &metrics).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = maxson_json::parse(line).unwrap();
            assert_eq!(v.get("parser").and_then(|p| p.as_str()), Some("tape"));
            assert_eq!(v.get("reuse").and_then(|r| r.as_str()), Some("miss"));
            assert_eq!(v.get("slow").and_then(|s| s.as_bool()), Some(false));
            assert_eq!(
                v.get("counters")
                    .and_then(|c| c.get("parse_calls"))
                    .and_then(|x| x.as_i64()),
                Some(30)
            );
            assert_eq!(
                v.get("fingerprint").and_then(|f| f.as_str()),
                Some(format!("{:016x}", fnv1a64(b"plan")).as_str())
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slow_flag_trips_past_threshold() {
        let path = std::env::temp_dir().join(format!(
            "maxson-qlog-slow-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let log = QueryLog::open(&path).unwrap();
        let entry = QueryLogEntry {
            fingerprint: 0,
            sql: "q",
            parser: "jackson",
            simd: "scalar",
            threads: 1,
            epoch: 0,
            reuse: "off",
            rows: 0,
            wall: Duration::from_millis(5),
            slow_threshold: Duration::from_millis(2),
        };
        log.record(&entry, &ExecMetrics::default()).unwrap();
        let v = maxson_json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
        assert_eq!(v.get("slow").and_then(|s| s.as_bool()), Some(true));
        std::fs::remove_file(&path).ok();
    }
}
