//! Minimal blocking client for the maxson wire protocol.
//!
//! Rebuilds full [`QueryResult`] values (columns, rows, epoch, and the
//! parse/cache metric subset the server ships), so callers can reuse
//! `QueryResult::to_display_string` — the differential test suite compares
//! served results byte for byte against serial in-process execution.

use std::net::{TcpStream, ToSocketAddrs};

use maxson_engine::{ExecMetrics, QueryResult};
use maxson_storage::Cell;

use crate::server::StatsSnapshot;
use crate::wire::{self, OpCode, Writer, MAGIC, STATUS_OK};
use crate::{Result, ServerError};

/// One blocking connection to a maxson server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    fn request(&mut self, frame: Writer) -> Result<Vec<u8>> {
        frame.send(&mut self.stream)?;
        wire::read_frame(&mut self.stream)
    }

    fn op_frame(op: OpCode) -> Writer {
        let mut w = Writer::new();
        w.u8(MAGIC).u8(op as u8);
        w
    }

    /// Check the payload's status byte, surfacing server errors.
    fn checked<'a>(payload: &'a [u8]) -> Result<wire::Reader<'a>> {
        let mut r = wire::Reader::new(payload);
        match r.u8()? {
            STATUS_OK => Ok(r),
            _ => Err(ServerError::Remote(r.str()?)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        let response = self.request(Self::op_frame(OpCode::Ping))?;
        Self::checked(&response)?;
        Ok(())
    }

    /// Ask the server to shut down (all connections drain, threads join).
    pub fn shutdown(&mut self) -> Result<()> {
        let response = self.request(Self::op_frame(OpCode::Shutdown))?;
        Self::checked(&response)?;
        Ok(())
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let response = self.request(Self::op_frame(OpCode::Stats))?;
        let mut r = Self::checked(&response)?;
        Ok(StatsSnapshot {
            queries_ok: r.u64()?,
            queries_err: r.u64()?,
            uptime_us: r.u64()?,
            p50_us: r.u64()?,
            p99_us: r.u64()?,
            meta_cache_hits: r.u64()?,
            meta_cache_misses: r.u64()?,
            active_queries: r.u64()?,
            epoch: r.u64()?,
            nodes_skipped: r.u64()?,
            bitmap_builds: r.u64()?,
            reuse_hits: r.u64()?,
            reuse_misses: r.u64()?,
            reuse_fills: r.u64()?,
            reuse_bytes: r.u64()?,
            simd_kernel: r.str()?,
            hot_paths: {
                // Two strings and a u64: at least 16 bytes a path.
                let n = r.count(16)?;
                let mut paths = Vec::with_capacity(n);
                for _ in 0..n {
                    let table = r.str()?;
                    let path = r.str()?;
                    paths.push((table, path, r.u64()?));
                }
                paths
            },
        })
    }

    /// The served warehouse's metric registry, rendered as Prometheus
    /// text exposition.
    pub fn metrics(&mut self) -> Result<String> {
        let response = self.request(Self::op_frame(OpCode::Metrics))?;
        let mut r = Self::checked(&response)?;
        r.str()
    }

    /// Execute `sql` on the server and decode the full result.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        let mut w = Writer::new();
        w.u8(MAGIC).u8(OpCode::Query as u8).str(sql);
        let response = self.request(w)?;
        let mut r = Self::checked(&response)?;
        let epoch = r.u64()?;
        // Every count is checked against the bytes left before anything is
        // reserved for it: a column name takes at least its 4-byte length,
        // a row at least one tag byte a column.
        let ncols = r.count(4)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            columns.push(r.str()?);
        }
        let nrows = r.count(ncols)?;
        let mut rows: Vec<Vec<Cell>> = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(r.cell()?);
            }
            rows.push(row);
        }
        let metrics = ExecMetrics {
            parse_calls: r.u64()?,
            docs_parsed: r.u64()?,
            cache_hits: r.u64()?,
            meta_cache_hits: r.u64()?,
            meta_cache_misses: r.u64()?,
            ..Default::default()
        };
        Ok(QueryResult {
            columns,
            rows,
            metrics,
            plan_display: String::new(),
            epoch,
        })
    }
}
