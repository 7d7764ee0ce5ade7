//! Byte-level encodings used inside Norc column streams.
//!
//! * unsigned LEB128 **varints** for lengths and counts,
//! * **zigzag** mapping so signed deltas encode compactly,
//! * a simple **RLE** for integer runs (like ORC's RLEv1: literal spans and
//!   runs of a repeated value),
//! * length-prefixed UTF-8 for strings,
//! * raw little-endian `f64`,
//! * a one-bit-per-row **null bitmap**,
//! * FNV-1a 64-bit checksums for corruption detection.

use crate::error::{Result, StorageError};

/// Append an unsigned varint (LEB128).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned varint, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::corrupt("varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StorageError::corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encode a signed integer.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// RLE-encode a slice of i64. The stream is a sequence of spans:
/// `varint(header)` where `header = (len << 1) | is_run`, followed by either
/// one zigzag varint (run) or `len` zigzag varints (literals).
pub fn rle_encode_i64(values: &[i64], out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    let mut i = 0usize;
    while i < values.len() {
        // Measure the run starting at i.
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        if run >= 3 {
            write_varint(out, ((run as u64) << 1) | 1);
            write_varint(out, zigzag(values[i]));
            i += run;
        } else {
            // Literal span: extend until the next run of >=3 begins.
            let start = i;
            i += run;
            while i < values.len() {
                let mut r = 1usize;
                while i + r < values.len() && values[i + r] == values[i] {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                i += r;
            }
            let len = i - start;
            write_varint(out, (len as u64) << 1);
            for &v in &values[start..i] {
                write_varint(out, zigzag(v));
            }
        }
    }
}

/// Walk a stream produced by [`rle_encode_i64`] that must hold exactly
/// `rows` values, handing `emit` every value in order, or — with `select`,
/// an ascending list of positions below `rows` — only the values at those
/// positions. The whole stream is consumed either way, so `pos` ends past
/// it. `rows` is the caller's bound (a chunk's row count, itself bounded by
/// the bytes of its validity bitmap): the declared total is checked against
/// it before anything is emitted, so a hostile total cannot size a buffer.
pub fn rle_decode_i64_with(
    buf: &[u8],
    pos: &mut usize,
    rows: usize,
    select: Option<&[u32]>,
    mut emit: impl FnMut(i64) -> Result<()>,
) -> Result<()> {
    if read_varint(buf, pos)? != rows as u64 {
        return Err(StorageError::corrupt(
            "RLE stream length disagrees with the row count",
        ));
    }
    let mut done = 0usize;
    // Index of the next wanted position in `select`.
    let mut next = 0usize;
    while done < rows {
        let header = read_varint(buf, pos)?;
        let end = usize::try_from(header >> 1)
            .ok()
            .filter(|&len| len != 0 && len <= rows - done)
            .map(|len| done + len)
            .ok_or_else(|| StorageError::corrupt("RLE span overruns declared length"))?;
        let is_run = header & 1 == 1;
        match select {
            None if is_run => {
                let v = unzigzag(read_varint(buf, pos)?);
                for _ in done..end {
                    emit(v)?;
                }
            }
            None => {
                for _ in done..end {
                    emit(unzigzag(read_varint(buf, pos)?))?;
                }
            }
            Some(select) if is_run => {
                let v = unzigzag(read_varint(buf, pos)?);
                while select.get(next).is_some_and(|&r| (r as usize) < end) {
                    emit(v)?;
                    next += 1;
                }
            }
            Some(select) => {
                for i in done..end {
                    let raw = read_varint(buf, pos)?;
                    if select.get(next).is_some_and(|&r| r as usize == i) {
                        emit(unzigzag(raw))?;
                        next += 1;
                    }
                }
            }
        }
        done = end;
    }
    Ok(())
}

/// Append a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The bytes of a length-prefixed string, advancing `pos` past them.
fn str_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = usize::try_from(read_varint(buf, pos)?)
        .map_err(|_| StorageError::corrupt("string length overflow"))?;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| StorageError::corrupt("string truncated"))?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

/// Read a length-prefixed UTF-8 string, borrowed from `buf`.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    std::str::from_utf8(str_bytes(buf, pos)?)
        .map_err(|_| StorageError::corrupt("string is not UTF-8"))
}

/// Step over a length-prefixed string without validating its bytes.
pub fn skip_str(buf: &[u8], pos: &mut usize) -> Result<()> {
    str_bytes(buf, pos).map(|_| ())
}

/// Append an `f64` in little-endian.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read an `f64` in little-endian.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let bytes = pos
        .checked_add(8)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| StorageError::corrupt("f64 truncated"))?;
    *pos += 8;
    Ok(f64::from_le_bytes(
        bytes.try_into().expect("the slice is eight bytes long"),
    ))
}

/// Pack a slice of booleans into a bitmap (LSB-first within each byte),
/// preceded by a varint count.
pub fn write_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    write_varint(out, bits.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// A bitmap written by [`write_bitmap`], borrowed from its buffer. Its bit
/// count is bounded by the bytes it occupies (eight bits a byte), which is
/// what lets a chunk decoder reserve for that many rows.
#[derive(Debug, Clone, Copy)]
pub struct Bitmap<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl<'a> Bitmap<'a> {
    /// Borrow the bitmap at `pos`, advancing past it.
    pub fn read(buf: &'a [u8], pos: &mut usize) -> Result<Self> {
        let len = usize::try_from(read_varint(buf, pos)?)
            .map_err(|_| StorageError::corrupt("bitmap length overflow"))?;
        let bytes = pos
            .checked_add(len.div_ceil(8))
            .and_then(|end| buf.get(*pos..end))
            .ok_or_else(|| StorageError::corrupt("bitmap truncated"))?;
        *pos += bytes.len();
        Ok(Bitmap { bytes, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (`i < len`).
    pub fn get(&self, i: usize) -> bool {
        self.bytes[i / 8] >> (i % 8) & 1 == 1
    }

    /// Append every bit to `out`, or with `select` (positions below `len`)
    /// only the bits at those positions.
    pub fn append_to(&self, out: &mut Vec<bool>, select: Option<&[u32]>) {
        match select {
            Some(select) => out.extend(select.iter().map(|&i| self.get(i as usize))),
            None => {
                out.reserve(self.len);
                for (&byte, at) in self.bytes.iter().zip((0..self.len).step_by(8)) {
                    let bits: [bool; 8] = std::array::from_fn(|k| byte >> k & 1 == 1);
                    out.extend_from_slice(&bits[..(self.len - at).min(8)]);
                }
            }
        }
    }
}

/// FNV-1a 64-bit hash, used as the file checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_EMPTY, bytes)
}

/// FNV-1a of no bytes: the state a streamed hash starts from.
pub(crate) const FNV1A_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Carry the FNV-1a state `h` over `bytes`, so a file hashed a buffer at a
/// time ends at [`fnv1a`] of its whole contents.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value of an RLE stream, decoded the way a chunk reader does.
    fn rle_decode_i64(buf: &[u8], pos: &mut usize, rows: usize) -> Result<Vec<i64>> {
        let mut out = Vec::new();
        rle_decode_i64_with(buf, pos, rows, None, |v| {
            out.push(v);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn rle_round_trip_mixed() {
        let values: Vec<i64> = vec![5, 5, 5, 5, 1, 2, 3, -9, -9, -9, 0, 0, 7];
        let mut buf = Vec::new();
        rle_encode_i64(&values, &mut buf);
        let mut pos = 0;
        assert_eq!(
            rle_decode_i64(&buf, &mut pos, values.len()).unwrap(),
            values
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn rle_runs_compress() {
        let values = vec![42i64; 10_000];
        let mut buf = Vec::new();
        rle_encode_i64(&values, &mut buf);
        assert!(
            buf.len() < 16,
            "run of 10k identical should be tiny, got {}",
            buf.len()
        );
    }

    #[test]
    fn rle_empty_and_single() {
        for values in [vec![], vec![7i64]] {
            let mut buf = Vec::new();
            rle_encode_i64(&values, &mut buf);
            let mut pos = 0;
            assert_eq!(
                rle_decode_i64(&buf, &mut pos, values.len()).unwrap(),
                values
            );
        }
    }

    #[test]
    fn rle_selected_positions_match_the_full_decode() {
        let values: Vec<i64> = vec![5, 5, 5, 5, 1, 2, 3, -9, -9, -9, 0, 0, 7];
        let mut buf = Vec::new();
        rle_encode_i64(&values, &mut buf);
        for select in [vec![], vec![0], vec![3, 4, 6, 9, 12], (0..13).collect()] {
            let (mut pos, mut got) = (0, Vec::new());
            rle_decode_i64_with(&buf, &mut pos, values.len(), Some(&select), |v| {
                got.push(v);
                Ok(())
            })
            .unwrap();
            let want: Vec<i64> = select.iter().map(|&i| values[i as usize]).collect();
            assert_eq!(got, want, "select {select:?}");
            assert_eq!(pos, buf.len(), "the whole stream is consumed");
        }
    }

    #[test]
    fn rle_total_is_checked_against_the_row_count_before_reserving() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        write_varint(&mut buf, (u64::MAX << 1) | 1);
        write_varint(&mut buf, zigzag(1));
        assert!(rle_decode_i64(&buf, &mut 0, 4).is_err());
    }

    #[test]
    fn rle_corruption_detected() {
        let mut buf = Vec::new();
        rle_encode_i64(&[1, 2, 3, 4, 5], &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(rle_decode_i64(&buf, &mut pos, 5).is_err());
    }

    #[test]
    fn string_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo \"world\"");
        write_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "héllo \"world\"");
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "");
    }

    #[test]
    fn skipped_strings_are_stepped_over_unvalidated() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        write_str(&mut buf, "next");
        let mut pos = 0;
        skip_str(&buf, &mut pos).unwrap();
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "next");
        // A length reaching past the buffer is still an error.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert!(skip_str(&buf, &mut 0).is_err());
    }

    #[test]
    fn string_invalid_utf8_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut pos = 0;
        assert!(read_str(&buf, &mut pos).is_err());
    }

    #[test]
    fn f64_round_trip() {
        let mut buf = Vec::new();
        for v in [0.0f64, -2.5, f64::MAX, f64::MIN_POSITIVE] {
            write_f64(&mut buf, v);
        }
        let mut pos = 0;
        for v in [0.0f64, -2.5, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(read_f64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn bitmap_round_trip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            write_bitmap(&mut buf, &bits);
            let (mut pos, mut got) = (0, Vec::new());
            Bitmap::read(&buf, &mut pos)
                .unwrap()
                .append_to(&mut got, None);
            assert_eq!(got, bits);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn bitmap_selected_bits_and_hostile_counts() {
        let bits: Vec<bool> = (0..21).map(|i| i % 3 == 0).collect();
        let mut buf = Vec::new();
        write_bitmap(&mut buf, &bits);
        let bitmap = Bitmap::read(&buf, &mut 0).unwrap();
        assert_eq!(bitmap.len(), 21);
        let mut out = vec![true];
        bitmap.append_to(&mut out, Some(&[0, 7, 8, 20]));
        assert_eq!(out, [true, true, false, false, false]);
        for huge in [1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, huge);
            buf.push(0xff);
            assert!(Bitmap::read(&buf, &mut 0).is_err());
        }
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a(b"hello");
        assert_eq!(a, fnv1a(b"hello"));
        assert_ne!(a, fnv1a(b"hellp"));
        assert_ne!(fnv1a(b""), 0);
        let streamed = [&b"he"[..], b"", b"llo"]
            .iter()
            .fold(FNV1A_EMPTY, |h, piece| fnv1a_extend(h, piece));
        assert_eq!(streamed, a);
    }
}
