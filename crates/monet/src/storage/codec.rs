//! Little-endian binary codec shared by every durable structure.
//!
//! All on-disk formats in the storage tier (pages, WAL records, manifest
//! entries, persisted columns, the higher layers' index and vocabulary
//! blobs) are written through [`ByteWriter`] and read back through
//! [`ByteReader`]. The writer is infallible (it appends to memory); the
//! reader validates every length before touching the buffer and returns
//! [`MonetError::Corrupt`] instead of panicking, which is what lets torn
//! or bit-flipped bytes surface as typed errors all the way up the stack.
//!
//! Byte order is little-endian *by definition*: a big-endian writer would
//! be rejected by the endianness sentinel each file format embeds (see
//! [`ENDIAN_SENTINEL`]), not decoded into garbage.

use crate::column::{Column, StrCol};
use crate::error::{MonetError, Result};
use crate::fxhash::FxHasher;
use crate::strdict::StrDictBuilder;
use std::hash::Hasher;

/// The value every format writes (as `u16`) right after its magic; a
/// reader on a platform or build that disagrees about byte order would
/// see `0xFFFE` and reject the file instead of misreading every integer.
pub const ENDIAN_SENTINEL: u16 = 0xFEFF;

/// 64-bit content checksum used by pages and WAL records (Fx hash — fast,
/// non-cryptographic; we defend against torn writes and bit rot, not
/// adversaries). It is the hasher's unfolded state, so every stored
/// checksum keeps its value.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.state()
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact roundtrip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Append a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

/// A validating little-endian byte cursor over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being decoded — included in every error message.
    what: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Create a reader over `buf`; `what` names the structure being
    /// decoded for error messages ("page payload", "WAL record" …).
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: impl Into<String>) -> MonetError {
        MonetError::Corrupt { what: self.what.to_string(), detail: detail.into() }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a `u64` and convert it to `usize`, rejecting values that a
    /// hostile or corrupt length field could use to force an allocation.
    pub fn len64(&mut self, bound: usize) -> Result<usize> {
        let v = self.u64()?;
        if v > bound as u64 {
            return Err(self.corrupt(format!("length {v} exceeds bound {bound}")));
        }
        Ok(v as usize)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.corrupt(format!("string length {n} exceeds remaining bytes")));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
    }

    /// Read a length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.corrupt(format!("blob length {n} exceeds remaining bytes")));
        }
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Bitpacking — fixed-width packing of u32 values into u64 words, the
// primitive under compressed posting blocks (`ir::postings`) and the
// dictionary codes of the on-disk string columns below. Values are laid
// out LSB-first; a width of 0 encodes a run of zeros in zero words.
// ---------------------------------------------------------------------------

/// Number of bits needed to represent `max` (0 for `max == 0`).
#[inline]
pub const fn bits_for(max: u32) -> u32 {
    32 - max.leading_zeros()
}

/// Number of `u64` words holding `n` values of `width` bits each.
#[inline]
pub const fn packed_words(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(64)
}

/// Append `values` to `words`, `width` bits each, starting at a fresh word
/// boundary. Values must fit in `width` bits (debug-asserted).
pub fn pack_u32s(words: &mut Vec<u64>, values: &[u32], width: u32) {
    if width == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let base = words.len();
    words.resize(base + packed_words(values.len(), width), 0);
    let mut bit = 0usize;
    for &v in values {
        debug_assert!(width == 32 || u64::from(v) < (1u64 << width), "{v} overflows {width} bits");
        let w = base + (bit >> 6);
        let s = (bit & 63) as u32;
        words[w] |= (v as u64) << s;
        if s + width > 64 {
            words[w + 1] |= (v as u64) >> (64 - s);
        }
        bit += width as usize;
    }
}

/// Decode `n` values of `width` bits each from `words[start..]` (packed by
/// [`pack_u32s`]) into `out`, which is cleared first. The inner loop is
/// branch-light: one shift, one conditional spill-word OR, one mask.
pub fn unpack_u32s(words: &[u64], start: usize, n: usize, width: u32, out: &mut Vec<u32>) {
    out.clear();
    if width == 0 {
        out.resize(n, 0);
        return;
    }
    out.reserve(n);
    let mask = if width == 32 { u64::MAX >> 32 } else { (1u64 << width) - 1 };
    let mut bit = 0usize;
    for _ in 0..n {
        let w = start + (bit >> 6);
        let s = (bit & 63) as u32;
        let lo = words[w] >> s;
        let v = if s + width > 64 { lo | (words[w + 1] << (64 - s)) } else { lo };
        out.push((v & mask) as u32);
        bit += width as usize;
    }
}

/// Decode the single value at index `i` of a [`pack_u32s`] run.
#[inline]
pub fn unpack_u32_at(words: &[u64], start: usize, i: usize, width: u32) -> u32 {
    if width == 0 {
        return 0;
    }
    let mask = if width == 32 { u64::MAX >> 32 } else { (1u64 << width) - 1 };
    let bit = i * width as usize;
    let w = start + (bit >> 6);
    let s = (bit & 63) as u32;
    let lo = words[w] >> s;
    let v = if s + width > 64 { lo | (words[w + 1] << (64 - s)) } else { lo };
    (v & mask) as u32
}

// ---------------------------------------------------------------------------
// Column codec — the single serialisation of kernel columns, used by every
// layer that persists columns. String columns stay dictionary-encoded on
// disk — and the codes themselves are bitpacked to the dictionary's width —
// with the deduplicated heap after the codes (`crate::strdict`).
// ---------------------------------------------------------------------------

/// Column type tags of the on-disk format.
mod tag {
    pub const VOID: u8 = 0;
    pub const OID: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
}

/// Serialise one column.
pub fn write_column(w: &mut ByteWriter, c: &Column) {
    match c {
        Column::Void { start, len } => {
            w.u8(tag::VOID);
            w.u32(*start);
            w.u64(*len as u64);
        }
        Column::Oid(v) => {
            w.u8(tag::OID);
            w.u64(v.len() as u64);
            for x in v {
                w.u32(*x);
            }
        }
        Column::Int(v) => {
            w.u8(tag::INT);
            w.u64(v.len() as u64);
            for x in v {
                w.u64(*x as u64);
            }
        }
        Column::Float(v) => {
            w.u8(tag::FLOAT);
            w.u64(v.len() as u64);
            for x in v {
                w.f64(*x);
            }
        }
        Column::Str(s) => {
            w.u8(tag::STR);
            w.u64(s.codes.len() as u64);
            let width = if s.dict.len() <= 1 { 0 } else { bits_for(s.dict.len() as u32 - 1) };
            w.u8(width as u8);
            let mut words = Vec::new();
            pack_u32s(&mut words, &s.codes, width);
            for word in &words {
                w.u64(*word);
            }
            w.u64(s.dict.len() as u64);
            for (_, st) in s.dict.iter() {
                w.str(st);
            }
        }
    }
}

/// Deserialise one column, validating lengths and dictionary codes.
pub fn read_column(r: &mut ByteReader<'_>) -> Result<Column> {
    let tag_byte = r.u8()?;
    Ok(match tag_byte {
        tag::VOID => {
            let start = r.u32()?;
            let len = r.len64(u32::MAX as usize)?;
            Column::Void { start, len }
        }
        tag::OID => {
            let n = r.len64(r.remaining() / 4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Column::Oid(v)
        }
        tag::INT => {
            let n = r.len64(r.remaining() / 8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64()? as i64);
            }
            Column::Int(v)
        }
        tag::FLOAT => {
            let n = r.len64(r.remaining() / 8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            Column::Float(v)
        }
        tag::STR => {
            // codes are bitpacked: with width ≥ 1 a code is at least one bit,
            // and the width-0 (single-entry dictionary) case is still bounded
            // proportionally to the file size rather than by the claim alone
            let n = r.len64(r.remaining().saturating_mul(64))?;
            let width = r.u8()? as u32;
            if width > 32 {
                return Err(MonetError::Corrupt {
                    what: "string column".to_string(),
                    detail: format!("code width {width} exceeds 32 bits"),
                });
            }
            let n_words = packed_words(n, width);
            if n_words.saturating_mul(8) > r.remaining() {
                return Err(MonetError::Corrupt {
                    what: "string column".to_string(),
                    detail: format!("{n_words} packed code words exceed remaining bytes"),
                });
            }
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.u64()?);
            }
            let mut codes = Vec::new();
            unpack_u32s(&words, 0, n, width, &mut codes);
            let dict_len = r.len64(r.remaining())?;
            let mut builder = StrDictBuilder::new();
            for _ in 0..dict_len {
                builder.intern(&r.str()?);
            }
            // a corrupt code that escapes the dictionary would panic at
            // resolve time deep inside the kernel — reject it here
            if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict_len) {
                return Err(MonetError::Corrupt {
                    what: "string column".to_string(),
                    detail: format!("code {bad} outside dictionary of {dict_len} entries"),
                });
            }
            Column::Str(StrCol { codes, dict: builder.freeze() })
        }
        other => {
            return Err(MonetError::Corrupt {
                what: "column".to_string(),
                detail: format!("unknown column tag {other}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(ENDIAN_SENTINEL);
        w.u32(123_456);
        w.u64(u64::MAX - 5);
        w.f64(-0.125);
        w.str("héllo");
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), ENDIAN_SENTINEL);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.blob().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes, "frag");
        assert!(matches!(r.u64(), Err(MonetError::Corrupt { what, .. }) if what == "frag"));
    }

    #[test]
    fn oversized_length_is_rejected_not_allocated() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // ludicrous element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "len");
        assert!(r.len64(1024).is_err());
    }

    #[test]
    fn column_roundtrip_all_types() {
        let mut dict = StrDictBuilder::new();
        let codes = vec![dict.intern("a"), dict.intern("b"), dict.intern("a")];
        let cols = vec![
            Column::Void { start: 7, len: 3 },
            Column::Oid(vec![1, 5, 9]),
            Column::Int(vec![-3, 0, i64::MAX]),
            Column::Float(vec![0.5, -2.25, f64::MIN_POSITIVE]),
            Column::Str(StrCol { codes, dict: dict.freeze() }),
        ];
        for col in &cols {
            let mut w = ByteWriter::new();
            write_column(&mut w, col);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes, "column");
            let back = read_column(&mut r).unwrap();
            assert!(r.is_exhausted());
            match (col, &back) {
                (Column::Str(a), Column::Str(b)) => {
                    assert_eq!(a.codes, b.codes);
                    assert_eq!(a.dict.len(), b.dict.len());
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }

    #[test]
    fn string_codes_outside_dictionary_are_corrupt() {
        let mut w = ByteWriter::new();
        w.u8(4); // STR tag
        w.u64(1); // one code
        w.u8(4); // packed at 4 bits
        w.u64(9); // … pointing outside the dictionary
        w.u64(1); // one dict entry
        w.str("only");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "col");
        assert!(matches!(read_column(&mut r), Err(MonetError::Corrupt { .. })));
    }

    #[test]
    fn bitpack_roundtrip_every_width() {
        for width in 0u32..=32 {
            let max = if width == 0 { 0 } else { u32::MAX >> (32 - width) };
            let values: Vec<u32> = (0..97u32)
                .map(|i| if width == 0 { 0 } else { (i.wrapping_mul(2654435761)) % (max / 2 + 1) })
                .chain([0, max])
                .collect();
            assert!(values.iter().all(|&v| u64::from(v) <= u64::from(max)));
            let mut words = Vec::new();
            pack_u32s(&mut words, &values, width);
            assert_eq!(words.len(), packed_words(values.len(), width));
            let mut back = Vec::new();
            unpack_u32s(&words, 0, values.len(), width, &mut back);
            assert_eq!(back, values, "width {width}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(unpack_u32_at(&words, 0, i, width), v, "width {width} idx {i}");
            }
        }
    }

    #[test]
    fn bitpack_runs_start_on_word_boundaries() {
        // two runs appended back to back stay independently addressable
        let a = [1u32, 2, 3];
        let b = [7u32, 0, 7, 7];
        let mut words = Vec::new();
        pack_u32s(&mut words, &a, 2);
        let b_start = words.len();
        pack_u32s(&mut words, &b, 3);
        let mut out = Vec::new();
        unpack_u32s(&words, 0, a.len(), 2, &mut out);
        assert_eq!(out, a);
        unpack_u32s(&words, b_start, b.len(), 3, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    fn bits_for_matches_definition() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(127), 7);
        assert_eq!(bits_for(128), 8);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum64(b"hello world");
        assert_eq!(a, checksum64(b"hello world"));
        assert_ne!(a, checksum64(b"hello worle"));
        assert_ne!(a, checksum64(b"hello worl"));
    }

    #[test]
    fn checksum_keeps_its_stored_values() {
        // every page and WAL record on disk carries these: a change here
        // makes every existing store read as corrupt
        assert_eq!(checksum64(b""), 0);
        assert_eq!(checksum64(b"hello world"), 0xe108_30d4_9dab_61ef);
        let long = b"mirror page checksum golden value 0123456789";
        assert_eq!(checksum64(long), 0x4251_bf35_fba0_d66f);
    }
}
