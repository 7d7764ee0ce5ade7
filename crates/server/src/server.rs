//! The concurrent query server.
//!
//! Thread-per-connection over [`std::net::TcpListener`]; every connection
//! gets its own cheap [`Session`] clone sharing one warehouse (catalog,
//! rewriter, epoch, Norc metadata cache, trace buffer). Split execution is
//! time-sliced across in-flight queries by the [`FairScheduler`]: each
//! query registers a [`QueryLease`] for its duration and acquires one
//! permit per split task, so a 40-split scan cannot starve a 2-split
//! point query.
//!
//! The server keeps no ledger: each QUERY charges the served warehouse's
//! registry (`maxson_server_queries_total{status}`,
//! `maxson_server_query_wall_seconds`), STATS is rendered from it and
//! METRICS exposes it, so the two agree.
//!
//! Containment invariants, exercised by `tests/failure_injection.rs`:
//! * a client disconnecting mid-query only ends its own connection;
//! * malformed frames, bad magic, and oversized payloads get an error
//!   response (when the connection is still writable) and a close — the
//!   accept loop never sees them;
//! * a panic anywhere in query handling is caught at the connection
//!   boundary; shared warehouse state recovers poisoned locks, so other
//!   sessions keep answering.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maxson_engine::{pool, Session, SharedResult};

use crate::sched::{FairScheduler, QueryLease};
use crate::wire::{self, OpCode, Writer, MAGIC, STATUS_ERR, STATUS_OK};
use crate::{Result, ServerError};

/// The server's own settings for [`Server::serve`]. Everything else a
/// connection runs under is the served session's configuration
/// ([`Session::config`]): every connection is a clone of that session.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Split permits in the fair scheduler. `None` = available cores.
    pub permits: Option<usize>,
    /// Enable the cross-query reuse cache with this byte budget (MiB) on
    /// the served warehouse; every connection shares one cache. `None`
    /// keeps the served session's own setting (its configured
    /// `MAXSON_RESULT_CACHE_MB`, else off).
    pub result_cache_mb: Option<u64>,
}

/// Point-in-time server counters, as returned by the STATS opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Successfully answered queries (`maxson_server_queries_total{status="ok"}`).
    pub queries_ok: u64,
    /// Queries answered with an error response (`status="err"`).
    pub queries_err: u64,
    /// Microseconds since the server started.
    pub uptime_us: u64,
    /// Query latency p50 (µs, log-bucket upper bound) of
    /// `maxson_server_query_wall_seconds`.
    pub p50_us: u64,
    /// Query latency p99 (µs, log-bucket upper bound), same histogram.
    pub p99_us: u64,
    /// Norc metadata cache hits across the warehouse.
    pub meta_cache_hits: u64,
    /// Norc metadata cache misses across the warehouse.
    pub meta_cache_misses: u64,
    /// Queries registered with the scheduler right now.
    pub active_queries: u64,
    /// Current warehouse epoch.
    pub epoch: u64,
    /// Tape mode's per-path hop count (`TapeStats::nodes_skipped`): the session registry's
    /// `maxson_nodes_skipped_total`, so registry-wide (every session that
    /// charges that registry, served or not), like `hot_paths`.
    pub nodes_skipped: u64,
    /// Structural bitmap builds: `maxson_bitmap_builds_total`, registry-wide
    /// likewise.
    pub bitmap_builds: u64,
    /// Reuse-cache full-result hits (0 when the cache is off).
    pub reuse_hits: u64,
    /// Reuse-cache misses (0 when the cache is off).
    pub reuse_misses: u64,
    /// Reuse-cache fills admitted (0 when the cache is off).
    pub reuse_fills: u64,
    /// Bytes currently resident in the reuse cache (0 when off).
    pub reuse_bytes: u64,
    /// Active SIMD structural-kernel tier (`avx2`/`swar`/`scalar`).
    pub simd_kernel: String,
    /// Hottest `(table, path, estimated extracts)` from the workload
    /// sketch, heaviest first.
    pub hot_paths: Vec<(String, String, u64)>,
}

/// What the server's threads share besides the warehouse.
#[derive(Debug)]
struct ServerState {
    started: Instant,
    next_client_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A running query server. Dropping (or calling [`Server::stop`]) shuts it
/// down and joins every thread it spawned — the process never leaks a
/// connection or acceptor thread past the handle's lifetime.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Open the warehouse at `root` and serve it on `addr` (use port 0 for
    /// an OS-assigned port; the bound address is [`Server::addr`]).
    pub fn start(root: impl AsRef<Path>, addr: &str, config: ServerConfig) -> Result<Server> {
        let template = Session::open(root.as_ref()).map_err(ServerError::Engine)?;
        Self::serve(template, addr, config)
    }

    /// Serve an existing session's warehouse: connections share its
    /// catalog, rewriter, epoch, metadata cache, and trace buffer. The
    /// caller keeps its handle — e.g. to run midnight cycles concurrently.
    pub fn serve(mut template: Session, addr: &str, config: ServerConfig) -> Result<Server> {
        if let Some(mb) = config.result_cache_mb {
            // Warehouse-shared: every connection cloned from the template
            // probes and fills this one cache.
            template.set_result_cache(Some(mb));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let permits = config
            .permits
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let scheduler = Arc::new(FairScheduler::new(permits, template.metrics_registry()));
        let state = Arc::new(ServerState {
            started: Instant::now(),
            next_client_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });

        let accept_state = state.clone();
        let accept_handle = std::thread::Builder::new()
            .name("maxson-accept".into())
            .spawn(move || {
                accept_loop(listener, template, scheduler, accept_state);
            })
            .map_err(ServerError::Io)?;

        Ok(Server {
            addr: local,
            state,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a shutdown has been requested (by [`Server::stop`] or a
    /// SHUTDOWN frame).
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown and join every server thread. Idempotent.
    pub fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor: it blocks in `accept`, so poke it with a
        // throwaway connection (errors ignored — it may already be gone).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    template: Session,
    scheduler: Arc<FairScheduler>,
    state: Arc<ServerState>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // Reap finished connection threads so a long-lived server does not
        // accumulate handles.
        connections.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let client_id = state.next_client_id.fetch_add(1, Ordering::Relaxed);
                let session = template.clone();
                let scheduler = scheduler.clone();
                let state = state.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("maxson-conn-{client_id}"))
                    .spawn(move || {
                        serve_connection(stream, session, scheduler, state, client_id);
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(_) => continue, // refused a thread; drop the conn
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Joining here (not in `stop`) keeps the guarantee one-sided: once the
    // acceptor thread is joined, every connection thread is joined too.
    for handle in connections {
        let _ = handle.join();
    }
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts so the loop
/// can notice a server shutdown between (but not within) partial reads.
/// Returns `Ok(false)` on clean EOF at offset 0 (client hung up between
/// frames) and on shutdown before any byte arrived.
fn read_exact_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "client closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve_connection(
    mut stream: TcpStream,
    mut session: Session,
    scheduler: Arc<FairScheduler>,
    state: Arc<ServerState>,
    client_id: u64,
) {
    // Short read timeout so an idle connection notices server shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut request_id = 0u64;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Frame header.
        let mut len_buf = [0u8; 4];
        match read_exact_interruptible(&mut stream, &mut len_buf, &state.shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let len = u32::from_be_bytes(len_buf);
        if len > wire::MAX_FRAME_BYTES {
            // Framing is unrecoverable after a lying length prefix: answer
            // once, then close.
            let _ = send_err(
                &mut stream,
                &format!(
                    "frame of {len} bytes exceeds the {}-byte limit",
                    wire::MAX_FRAME_BYTES
                ),
            );
            return;
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_interruptible(&mut stream, &mut payload, &state.shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        request_id += 1;
        match handle_frame(
            &payload,
            &mut stream,
            &mut session,
            &scheduler,
            &state,
            client_id,
            request_id,
        ) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
    }
}

/// Handle one request frame. `Ok(true)` keeps the connection open.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    payload: &[u8],
    stream: &mut TcpStream,
    session: &mut Session,
    scheduler: &Arc<FairScheduler>,
    state: &Arc<ServerState>,
    client_id: u64,
    request_id: u64,
) -> Result<bool> {
    let mut r = wire::Reader::new(payload);
    let Ok(magic) = r.u8() else {
        send_err(stream, "empty frame")?;
        return Ok(false);
    };
    if magic != MAGIC {
        send_err(stream, "bad magic byte: not a maxson client")?;
        return Ok(false);
    }
    let Ok(opcode) = r.u8() else {
        send_err(stream, "missing opcode")?;
        return Ok(false);
    };
    let Some(op) = OpCode::from_u8(opcode) else {
        send_err(stream, &format!("unknown opcode {opcode}"))?;
        return Ok(false);
    };
    match op {
        OpCode::Ping => {
            let mut w = Writer::new();
            w.u8(STATUS_OK);
            w.send(stream)?;
            Ok(true)
        }
        OpCode::Stats => {
            let snapshot = snapshot_stats(session, scheduler, state);
            let mut w = Writer::new();
            w.u8(STATUS_OK)
                .u64(snapshot.queries_ok)
                .u64(snapshot.queries_err)
                .u64(snapshot.uptime_us)
                .u64(snapshot.p50_us)
                .u64(snapshot.p99_us)
                .u64(snapshot.meta_cache_hits)
                .u64(snapshot.meta_cache_misses)
                .u64(snapshot.active_queries)
                .u64(snapshot.epoch)
                .u64(snapshot.nodes_skipped)
                .u64(snapshot.bitmap_builds)
                .u64(snapshot.reuse_hits)
                .u64(snapshot.reuse_misses)
                .u64(snapshot.reuse_fills)
                .u64(snapshot.reuse_bytes);
            w.str(&snapshot.simd_kernel);
            w.u32(snapshot.hot_paths.len() as u32);
            for (table, path, count) in &snapshot.hot_paths {
                w.str(table).str(path).u64(*count);
            }
            w.send(stream)?;
            Ok(true)
        }
        OpCode::Metrics => {
            let mut w = Writer::new();
            w.u8(STATUS_OK).str(&session.metrics_registry().expose());
            w.send(stream)?;
            Ok(true)
        }
        OpCode::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            let mut w = Writer::new();
            w.u8(STATUS_OK);
            w.send(stream)?;
            Ok(false)
        }
        OpCode::Query => {
            let sql = match r.str_ref() {
                Ok(s) => s,
                Err(e) => {
                    send_err(stream, &format!("malformed query frame: {e}"))?;
                    return Ok(false);
                }
            };
            let started = Instant::now();
            let outcome = run_query(session, scheduler, sql, client_id, request_id);
            let registry = session.metrics_registry();
            registry
                .histogram("maxson_server_query_wall_seconds", &[])
                .observe(started.elapsed());
            let status = if outcome.is_ok() { "ok" } else { "err" };
            registry
                .counter("maxson_server_queries_total", &[("status", status)])
                .inc();
            match outcome {
                Ok(result) => encode_result(&result).send(stream)?,
                // Query errors are recoverable: the connection lives on.
                Err(message) => send_err(stream, &message)?,
            }
            Ok(true)
        }
    }
}

/// Execute one query under a scheduler lease, catching panics so a
/// poisoned rewriter or corrupt split takes down the request, not the
/// connection (let alone the server).
fn run_query(
    session: &mut Session,
    scheduler: &Arc<FairScheduler>,
    sql: &str,
    client_id: u64,
    request_id: u64,
) -> std::result::Result<SharedResult, String> {
    let lease: Arc<QueryLease> = Arc::new(QueryLease::new(scheduler.clone()));
    session.set_split_scheduler(Some(lease.clone()));
    let outcome = {
        let span = session.tracer().span("server_query");
        span.attr("client", client_id);
        span.attr("request", request_id);
        let outcome = catch_unwind(AssertUnwindSafe(|| session.execute_shared(sql)));
        if let Ok(Ok(result)) = &outcome {
            span.attr("rows", result.rows.len());
            span.attr("epoch", result.epoch);
        }
        outcome
    };
    session.set_split_scheduler(None);
    drop(lease); // deregister: everyone else's fair share grows back
    match outcome {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!(
            "query panicked: {}",
            pool::panic_message(payload.as_ref())
        )),
    }
}

/// A QUERY response, encoded straight from the shared rows — the reuse
/// cache's own on a hit — into one buffer sized before the first byte is
/// written, behind the length prefix it reserves.
fn encode_result(result: &SharedResult) -> Writer {
    let names: usize = result.columns.iter().map(|c| 4 + c.len()).sum();
    let cells: usize = result.rows.iter().flatten().map(wire::cell_len).sum();
    // Status, epoch, two counts and the five metrics around them.
    let mut w = Writer::with_capacity(1 + 8 + 4 + names + 4 + cells + 5 * 8);
    w.u8(STATUS_OK).u64(result.epoch);
    w.u32(result.columns.len() as u32);
    for c in &result.columns {
        w.str(c);
    }
    w.u32(result.rows.len() as u32);
    for cell in result.rows.iter().flatten() {
        w.cell(cell);
    }
    let m = &result.metrics;
    w.u64(m.parse_calls)
        .u64(m.docs_parsed)
        .u64(m.cache_hits)
        .u64(m.meta_cache_hits)
        .u64(m.meta_cache_misses);
    w
}

fn snapshot_stats(
    session: &Session,
    scheduler: &Arc<FairScheduler>,
    state: &Arc<ServerState>,
) -> StatsSnapshot {
    let meta = session.catalog().meta_cache().stats();
    let registry = session.metrics_registry();
    let total = |series: &str| registry.counter_value(series, &[]).unwrap_or(0);
    let served = |status: &str| {
        registry
            .counter_value("maxson_server_queries_total", &[("status", status)])
            .unwrap_or(0)
    };
    let wall = registry
        .histogram_snapshot("maxson_server_query_wall_seconds", &[])
        .unwrap_or_default();
    let reuse = session.reuse_stats();
    StatsSnapshot {
        queries_ok: served("ok"),
        queries_err: served("err"),
        uptime_us: state.started.elapsed().as_micros() as u64,
        p50_us: wall.quantile(0.5).as_micros() as u64,
        p99_us: wall.quantile(0.99).as_micros() as u64,
        meta_cache_hits: meta.hits,
        meta_cache_misses: meta.misses,
        active_queries: scheduler.active_queries() as u64,
        epoch: session.epoch(),
        nodes_skipped: total("maxson_nodes_skipped_total"),
        bitmap_builds: total("maxson_bitmap_builds_total"),
        reuse_hits: reuse.as_ref().map_or(0, |r| r.hits),
        reuse_misses: reuse.as_ref().map_or(0, |r| r.misses),
        reuse_fills: reuse.as_ref().map_or(0, |r| r.fills),
        reuse_bytes: reuse.as_ref().map_or(0, |r| r.bytes_resident),
        simd_kernel: session.simd_kernel().name().to_string(),
        hot_paths: registry.hot_paths(10),
    }
}

fn send_err(stream: &mut TcpStream, message: &str) -> Result<()> {
    let mut w = Writer::new();
    w.u8(STATUS_ERR).str(message);
    w.send(stream)
}
