//! Norc — an ORC-like columnar storage substrate.
//!
//! The paper stores both raw tables and Maxson cache tables in ORC on HDFS.
//! Norc reproduces the structural properties Maxson depends on:
//!
//! * A **table** is a directory of immutable files plus a metadata document
//!   (schema, modification time). Appends add whole files, mirroring the
//!   append-only distributed file system of the paper (§II-B).
//! * A **file** holds one or more **stripes**; a stripe holds column streams
//!   split into **row groups** (10,000 rows each, like ORC). Each row group
//!   records per-column min/max statistics and null counts.
//! * **SARGs** (Search ARGuments, [`sarg::SearchArgument`]) are simplified
//!   predicates evaluated against row-group statistics to produce a
//!   keep/skip array — the array Maxson *shares* between the cache-table
//!   reader and the raw-table reader (Algorithm 3).
//! * Readers expose split-level access: one file = one split, which is what
//!   guarantees positional alignment between a raw file and the cache file
//!   with the same index (§IV-C).
//!
//! Encodings are real (varint + zigzag + RLE for integers, length-prefixed
//! UTF-8 for strings, raw little-endian for doubles, bitmap nulls) and every
//! file carries a checksum, so corruption is detected rather than silently
//! mis-read.

#![deny(unsafe_code)]

pub mod catalog;
pub mod cell;
pub mod column;
pub mod encoding;
pub mod error;
pub mod file;
pub mod metacache;
pub mod sarg;
pub mod schema;
pub mod table;

pub use catalog::{Catalog, TableMeta};
pub use cell::{Cell, CellKey, RowKey, RowKeySlice};
pub use column::ColumnData;
pub use error::{Result, StorageError};
pub use file::{MmapMode, NorcFile, RowGroupStats, DEFAULT_ROW_GROUP_SIZE};
pub use metacache::{MetaCacheStats, NorcMetaCache};
pub use sarg::{CmpOp, SearchArgument};
pub use schema::{ColumnType, Field, Schema};
pub use table::{Table, TableReader};
