//! `maxson-server`: a hermetic concurrent query server over one shared
//! warehouse.
//!
//! Many TCP clients execute SQL against a single [`maxson_engine::Session`]
//! warehouse: the catalog, installed Maxson rewriter, warehouse epoch,
//! Norc metadata cache and metric registry are shared by every
//! connection, and every connection's session clone runs under the served
//! session's configuration. A fair-share split
//! scheduler time-slices the engine's split-level parallelism across
//! in-flight queries, and the midnight cycle's epoch swap stays atomic
//! under concurrent load — every query sees exactly one epoch.
//!
//! Built entirely on `std::net` + `std::thread` (hermetic policy: no
//! crates-io dependencies). See `DESIGN.md` §11 for the wire protocol and
//! scheduling model, and `tests/server_differential.rs` for the proof that
//! served results are byte-identical to serial in-process execution.

#![deny(unreachable_pub)]
pub mod client;
pub mod sched;
pub mod server;
pub mod wire;

pub use client::Client;
pub use sched::{FairScheduler, QueryLease};
pub use server::{Server, ServerConfig, StatsSnapshot};

/// Server-side error type.
#[derive(Debug)]
pub enum ServerError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Malformed frame or protocol violation.
    Protocol(String),
    /// Engine failure while opening or querying the warehouse.
    Engine(maxson_engine::EngineError),
    /// The server answered with an error response.
    Remote(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
            ServerError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<maxson_engine::EngineError> for ServerError {
    fn from(e: maxson_engine::EngineError) -> Self {
        ServerError::Engine(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServerError>;
