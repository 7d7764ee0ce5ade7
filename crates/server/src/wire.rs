//! Length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! [u32 BE payload length][payload bytes]
//! ```
//!
//! The first payload byte is an opcode (requests) or a status (responses);
//! the rest is opcode-specific. Integers are big-endian, strings are
//! `u32`-length-prefixed UTF-8, cells are one type tag byte followed by the
//! value. The protocol is deliberately tiny — hermetic policy rules out
//! serde — and versioned by a magic byte so a stray HTTP client gets a
//! clean error instead of a hang.
//!
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected before any
//! allocation, so a malicious length prefix cannot OOM the server.

use std::io::{Read, Write};

use maxson_storage::Cell;

use crate::{Result, ServerError};

/// Protocol magic: first byte of every request payload. Doubles as the
/// protocol version — it is bumped whenever any frame layout changes, so
/// a mismatched client/server pair fails with a clean "bad magic" error
/// instead of misparsing mid-frame. History: `0xA7` = initial protocol;
/// `0xA8` = STATS response gained the four reuse-cache fields.
pub const MAGIC: u8 = 0xA8;

/// Hard cap on one frame's payload (16 MiB). Query text going up and
/// result sets coming back both fit comfortably; anything bigger is a
/// protocol violation.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Request opcodes (first payload byte after the magic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// Execute the SQL string that follows.
    Query = 1,
    /// Liveness check; responds with an empty OK.
    Ping = 2,
    /// Server counters (QPS, latency quantiles, cache stats).
    Stats = 3,
    /// Orderly shutdown of the whole server.
    Shutdown = 4,
    /// Process-wide metric registry, Prometheus text exposition.
    Metrics = 5,
}

impl OpCode {
    pub fn from_u8(b: u8) -> Option<OpCode> {
        match b {
            1 => Some(OpCode::Query),
            2 => Some(OpCode::Ping),
            3 => Some(OpCode::Stats),
            4 => Some(OpCode::Shutdown),
            5 => Some(OpCode::Metrics),
            _ => None,
        }
    }
}

/// Response status byte.
pub const STATUS_OK: u8 = 0;
pub const STATUS_ERR: u8 = 1;

// Cell type tags.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Read one frame's payload from `r`.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ServerError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write one frame containing `payload` to `w`: a copy of `payload` behind
/// its length prefix, sent in one call. For a payload built elsewhere; a
/// [`Writer`] sends its own frame without the copy.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    check_frame_len(payload.len())?;
    let mut frame = Writer::with_capacity(payload.len());
    frame.buf.extend_from_slice(payload);
    frame.send(w)
}

fn check_frame_len(len: usize) -> Result<()> {
    if len as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(ServerError::Protocol(format!(
            "response of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    Ok(())
}

/// Cursor over a frame payload with checked reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(ServerError::Protocol(format!(
                "truncated frame: wanted {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` count of items that take at least `min_bytes` bytes each,
    /// checked against what the rest of the frame can hold: a count no
    /// frame could back — or any nonzero count of zero-byte items — is a
    /// protocol error, never a reservation.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > 0 && (min_bytes == 0 || n.saturating_mul(min_bytes) > self.remaining()) {
            return Err(ServerError::Protocol(format!(
                "count of {n} items of at least {min_bytes} bytes each, with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A string field, validated in place and borrowed from the frame.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| ServerError::Protocol("string field is not UTF-8".into()))
    }

    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// One cell; a string cell is one allocation, its `Arc<str>` built
    /// straight from the frame's bytes.
    pub fn cell(&mut self) -> Result<Cell> {
        match self.u8()? {
            TAG_NULL => Ok(Cell::Null),
            TAG_INT => Ok(Cell::Int(self.i64()?)),
            TAG_FLOAT => Ok(Cell::Float(self.f64()?)),
            TAG_STR => Ok(Cell::from(self.str_ref()?)),
            TAG_BOOL => Ok(Cell::Bool(self.u8()? != 0)),
            tag => Err(ServerError::Protocol(format!("unknown cell tag {tag}"))),
        }
    }
}

/// Bytes [`Writer::cell`] writes for `c`.
pub(crate) fn cell_len(c: &Cell) -> usize {
    1 + match c {
        Cell::Null => 0,
        Cell::Int(_) | Cell::Float(_) => 8,
        Cell::Str(s) => 4 + s.len(),
        Cell::Bool(_) => 1,
    }
}

/// Length of the prefix a frame's payload follows.
const PREFIX: usize = 4;

/// Frame builder. The payload's 4-byte length prefix is reserved at the
/// head of the buffer, so a finished frame goes out in one `write_all` and
/// the payload is never copied to prepend it.
pub struct Writer {
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Writer::with_capacity(0)
    }
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    /// A builder that holds a `payload`-byte payload without growing.
    pub(crate) fn with_capacity(payload: usize) -> Self {
        let mut buf = Vec::with_capacity(PREFIX + payload);
        buf.extend_from_slice(&[0; PREFIX]);
        Writer { buf }
    }

    /// The payload written so far, without the reserved prefix.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..PREFIX);
        self.buf
    }

    /// Fill in the length prefix and write the frame with one `write_all`.
    pub(crate) fn send(mut self, w: &mut impl Write) -> Result<()> {
        let len = self.buf.len() - PREFIX;
        check_frame_len(len)?;
        self.buf[..PREFIX].copy_from_slice(&(len as u32).to_be_bytes());
        w.write_all(&self.buf)?;
        w.flush()?;
        Ok(())
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    pub fn cell(&mut self, c: &Cell) -> &mut Self {
        match c {
            Cell::Null => self.u8(TAG_NULL),
            Cell::Int(i) => {
                self.u8(TAG_INT);
                self.i64(*i)
            }
            Cell::Float(f) => {
                self.u8(TAG_FLOAT);
                self.f64(*f)
            }
            Cell::Str(s) => {
                self.u8(TAG_STR);
                self.str(s)
            }
            Cell::Bool(b) => {
                self.u8(TAG_BOOL);
                self.u8(u8::from(*b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // promised 8, delivered 3
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn cell_roundtrip_all_tags() {
        let cells = [
            Cell::Null,
            Cell::Int(-42),
            Cell::Float(1.5),
            Cell::Float(f64::NAN),
            Cell::from("héllo"),
        ];
        let mut w = Writer::new();
        for c in &cells {
            w.cell(c);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.cell().unwrap(), Cell::Null);
        assert_eq!(r.cell().unwrap(), Cell::Int(-42));
        assert_eq!(r.cell().unwrap(), Cell::Float(1.5));
        // NaN: compare bit patterns, not values.
        match r.cell().unwrap() {
            Cell::Float(f) => assert_eq!(f.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(r.cell().unwrap(), Cell::from("héllo"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncated_string() {
        let mut w = Writer::new();
        w.str("hello world");
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let mut r = Reader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn unknown_cell_tag_is_a_protocol_error() {
        let mut r = Reader::new(&[9u8]);
        let err = r.cell().unwrap_err();
        assert!(err.to_string().contains("unknown cell tag"), "{err}");
    }
}
