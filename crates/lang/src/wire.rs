//! Binary payload codec: the byte-level encoding of [`Invocation`] and
//! [`Response`] values used by the network wire format.
//!
//! [`crate::frame`] frames an [`crate::EventBatch`] as integer rows plus a
//! *dictionary* of the distinct payloads the rows reference; this module is
//! the codec for those dictionary entries (and the primitive scalars the
//! frame layer shares).  Everything frame-shaped (magic, kinds, CRC, length
//! prefixes) is [`crate::frame`]'s.
//!
//! ## Hardening contract
//!
//! Decoding is driven by a bounds-checked [`Reader`]: every take checks the
//! remaining input first, every length field is validated against the bytes
//! actually present *before* any allocation is sized from it, and every
//! failure is a typed [`CodecError`] — malformed input can neither panic nor
//! over-allocate.  `crates/net/tests/wire_fuzz.rs` enforces this over seeded
//! corruption.
//!
//! All scalars are little-endian.  Collections are length-prefixed with
//! `u32` counts.

use crate::intern::{inline_fields, Interner, InvocationId, ResponseId, UNIT};
use crate::symbol::{Invocation, Response};
use std::fmt;

/// Why a payload (or scalar) failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte outside the known range.
    BadTag {
        /// What the tag selects.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix claims more entries than the remaining input could
    /// possibly hold (the over-allocation guard).
    LengthOverflow {
        /// What was being counted.
        what: &'static str,
        /// The claimed count.
        claimed: u64,
        /// Upper bound the remaining input admits.
        admissible: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// What the string names.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                what,
                needed,
                remaining,
            } => write!(f, "truncated {what}: needed {needed} bytes, {remaining} remain"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::LengthOverflow {
                what,
                claimed,
                admissible,
            } => write!(f, "{what} count {claimed} exceeds the admissible {admissible}"),
            CodecError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an input buffer; the only way bytes leave a
/// frame payload during decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated {
                what,
                needed: len,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Takes a `u32` count and validates it against the remaining input:
    /// each counted entry occupies at least `min_entry_bytes`, so a count
    /// claiming more than `remaining / min_entry_bytes` entries is rejected
    /// *before* anything is allocated from it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the count itself is cut off;
    /// [`CodecError::LengthOverflow`] when the count cannot fit.
    pub fn count(
        &mut self,
        min_entry_bytes: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let claimed = self.u32(what)?;
        let admissible = (self.remaining() / min_entry_bytes.max(1)) as u64;
        if u64::from(claimed) > admissible {
            return Err(CodecError::LengthOverflow {
                what,
                claimed: u64::from(claimed),
                admissible,
            });
        }
        Ok(claimed as usize)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Propagates the length/byte errors; [`CodecError::BadUtf8`] when the
    /// bytes are not UTF-8.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { what })
    }

    /// Takes a length-prefixed sequence of `u64`s.
    ///
    /// # Errors
    ///
    /// Propagates the length/byte errors of the prefix and entries.
    pub fn u64_seq(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let len = self.count(8, what)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.u64(what)?);
        }
        Ok(values)
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
///
/// # Panics
///
/// Panics when the string is 4 GiB or longer (no such payload exists in
/// practice; the wire format caps frames far below this).
pub fn put_string(buf: &mut Vec<u8>, value: &str) {
    put_u32(buf, u32::try_from(value.len()).expect("string < 4 GiB"));
    buf.extend_from_slice(value.as_bytes());
}

/// Appends a length-prefixed `u64` sequence.
///
/// # Panics
///
/// Panics on 2^32 or more entries.
pub fn put_u64_seq(buf: &mut Vec<u8>, values: &[u64]) {
    put_u32(buf, u32::try_from(values.len()).expect("sequence < 2^32 entries"));
    for &value in values {
        put_u64(buf, value);
    }
}

// Invocation tags.  Stable wire contract: never renumber, only append.
const INV_WRITE: u8 = 0;
const INV_READ: u8 = 1;
const INV_INC: u8 = 2;
const INV_APPEND: u8 = 3;
const INV_GET: u8 = 4;
const INV_ENQUEUE: u8 = 5;
const INV_DEQUEUE: u8 = 6;
const INV_PUSH: u8 = 7;
const INV_POP: u8 = 8;
const INV_CUSTOM: u8 = 9;

// Response tags.
const RESP_ACK: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_SEQUENCE: u8 = 2;
const RESP_SOME: u8 = 3;
const RESP_NONE: u8 = 4;
const RESP_CUSTOM: u8 = 5;

/// Appends the encoding of an invocation payload.
pub fn put_invocation(buf: &mut Vec<u8>, invocation: &Invocation) {
    match invocation {
        Invocation::Write(x) => {
            buf.push(INV_WRITE);
            put_u64(buf, *x);
        }
        Invocation::Read => buf.push(INV_READ),
        Invocation::Inc => buf.push(INV_INC),
        Invocation::Append(r) => {
            buf.push(INV_APPEND);
            put_u64(buf, *r);
        }
        Invocation::Get => buf.push(INV_GET),
        Invocation::Enqueue(x) => {
            buf.push(INV_ENQUEUE);
            put_u64(buf, *x);
        }
        Invocation::Dequeue => buf.push(INV_DEQUEUE),
        Invocation::Push(x) => {
            buf.push(INV_PUSH);
            put_u64(buf, *x);
        }
        Invocation::Pop => buf.push(INV_POP),
        Invocation::Custom(name, arg) => {
            buf.push(INV_CUSTOM);
            put_string(buf, name);
            put_u64(buf, *arg);
        }
    }
}

/// Decodes one invocation payload.
///
/// # Errors
///
/// Any [`CodecError`] of the tag or its fields.
pub fn take_invocation(reader: &mut Reader<'_>) -> Result<Invocation, CodecError> {
    let tag = reader.u8("invocation tag")?;
    Ok(match tag {
        INV_WRITE => Invocation::Write(reader.u64("write value")?),
        INV_READ => Invocation::Read,
        INV_INC => Invocation::Inc,
        INV_APPEND => Invocation::Append(reader.u64("append record")?),
        INV_GET => Invocation::Get,
        INV_ENQUEUE => Invocation::Enqueue(reader.u64("enqueue value")?),
        INV_DEQUEUE => Invocation::Dequeue,
        INV_PUSH => Invocation::Push(reader.u64("push value")?),
        INV_POP => Invocation::Pop,
        INV_CUSTOM => {
            let name = reader.string("custom invocation name")?;
            Invocation::Custom(name, reader.u64("custom invocation arg")?)
        }
        tag => return Err(CodecError::BadTag { what: "invocation", tag }),
    })
}

/// Appends the encoding of a response payload.
pub fn put_response(buf: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Ack => buf.push(RESP_ACK),
        Response::Value(v) => {
            buf.push(RESP_VALUE);
            put_u64(buf, *v);
        }
        Response::Sequence(s) => {
            buf.push(RESP_SEQUENCE);
            put_u64_seq(buf, s);
        }
        Response::MaybeValue(Some(v)) => {
            buf.push(RESP_SOME);
            put_u64(buf, *v);
        }
        Response::MaybeValue(None) => buf.push(RESP_NONE),
        Response::Custom(name, v) => {
            buf.push(RESP_CUSTOM);
            put_string(buf, name);
            put_u64(buf, *v);
        }
    }
}

/// The longest entry [`put_invocation_id`] and [`put_response_id`] build
/// on the stack: a head and a tag and a `u64`.
const ENTRY_BYTES: usize = 24;

/// The wire tags of inline ids (`crate::intern`'s layout): the valued
/// variants by inline tag, the unit variants by value.
const INV_VALUED: [u8; 3] = [INV_WRITE, INV_ENQUEUE, INV_PUSH];
const INV_UNITS: [u8; 5] = [INV_READ, INV_INC, INV_GET, INV_DEQUEUE, INV_POP];
const RESP_VALUED: [u8; 2] = [RESP_VALUE, RESP_SOME];
const RESP_UNITS: [u8; 2] = [RESP_ACK, RESP_NONE];

/// Appends `head`, a fixed-size entry's leading fields, then the payload
/// encoding of the inline id `(tag, value)`: its wire tag from `valued` or
/// `units`, and the value unless it is a unit variant.  The entry is built
/// on the stack and appended in one fixed-size copy, then cut to its length
/// (a copy of varying length compiles to a `memcpy` call, which costs more
/// than the entry).  `None`, and nothing appended, for an id no payload
/// maps to.
#[inline]
fn put_inline<const H: usize>(
    buf: &mut Vec<u8>,
    head: [u8; H],
    (tag, value): (u32, u64),
    valued: &[u8],
    units: &[u8],
) -> Option<()> {
    const { assert!(H + 9 <= ENTRY_BYTES) };
    let (wire, len) = if tag == UNIT {
        (*units.get(value as usize)?, H + 1)
    } else {
        (*valued.get(tag as usize)?, H + 9)
    };
    let mut entry = [0u8; ENTRY_BYTES];
    entry[..H].copy_from_slice(&head);
    entry[H] = wire;
    entry[H + 1..H + 9].copy_from_slice(&value.to_le_bytes());
    let len = buf.len() + len;
    buf.extend_from_slice(&entry[..H + 9]);
    buf.truncate(len);
    Some(())
}

/// Appends `head`, then [`put_invocation`]'s encoding of the payload `id`
/// names in `interner`.  An inline id's tag and value are taken from the id,
/// in one fixed-size append, without building the payload; an arena slot is
/// resolved and put.
///
/// # Panics
///
/// Panics on an inline id no payload maps to.
#[inline]
pub fn put_invocation_id<const H: usize>(
    buf: &mut Vec<u8>,
    head: [u8; H],
    id: InvocationId,
    interner: &Interner,
) {
    match inline_fields(id.0) {
        Some(fields) => put_inline(buf, head, fields, &INV_VALUED, &INV_UNITS)
            .unwrap_or_else(|| panic!("{:#x} is no invocation id", id.0)),
        None => {
            buf.extend_from_slice(&head);
            put_invocation(buf, &interner.resolve_invocation(id));
        }
    }
}

/// Appends `head`, then [`put_response`]'s encoding of the payload `id`
/// names in `interner`: inline ids as [`put_invocation_id`] writes them.
///
/// # Panics
///
/// Panics on an inline id no payload maps to.
#[inline]
pub fn put_response_id<const H: usize>(
    buf: &mut Vec<u8>,
    head: [u8; H],
    id: ResponseId,
    interner: &Interner,
) {
    match inline_fields(id.0) {
        Some(fields) => put_inline(buf, head, fields, &RESP_VALUED, &RESP_UNITS)
            .unwrap_or_else(|| panic!("{:#x} is no response id", id.0)),
        None => {
            buf.extend_from_slice(&head);
            put_response(buf, &interner.resolve_response(id));
        }
    }
}

/// Decodes one response payload.
///
/// # Errors
///
/// Any [`CodecError`] of the tag or its fields.
pub fn take_response(reader: &mut Reader<'_>) -> Result<Response, CodecError> {
    let tag = reader.u8("response tag")?;
    Ok(match tag {
        RESP_ACK => Response::Ack,
        RESP_VALUE => Response::Value(reader.u64("response value")?),
        RESP_SEQUENCE => Response::Sequence(reader.u64_seq("response sequence")?),
        RESP_SOME => Response::MaybeValue(Some(reader.u64("response value")?)),
        RESP_NONE => Response::MaybeValue(None),
        RESP_CUSTOM => {
            let name = reader.string("custom response name")?;
            Response::Custom(name, reader.u64("custom response value")?)
        }
        tag => return Err(CodecError::BadTag { what: "response", tag }),
    })
}

#[cfg(test)]
mod tests;
