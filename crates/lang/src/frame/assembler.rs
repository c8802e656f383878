//! Incremental reassembly of frames from partial nonblocking reads: the
//! read half of a socket reactor's contract, with no socket in it.

use super::{parse_header, WireError, HEADER_LEN};

/// Incremental frame reassembly for nonblocking reads.
///
/// Feed raw socket bytes with [`FrameAssembler::feed`]; pull complete
/// frames with [`FrameAssembler::next_frame`].  The 16-byte header is
/// validated the moment it is complete, so a bad magic, unknown kind or
/// oversized length claim is a typed [`WireError`] before a single payload
/// byte is buffered — and the internal buffer is only ever sized by bytes
/// *actually received*, never by a length field (the no
/// input-driven-over-allocation contract, fuzzed in
/// `drv-net`'s `tests/wire_fuzz.rs`).
///
/// ```
/// use drv_lang::frame::{encode_shutdown, FrameAssembler};
///
/// let frame = encode_shutdown();
/// let mut assembler = FrameAssembler::new();
/// // Byte-at-a-time delivery: no frame until the last byte lands.
/// for byte in &frame[..frame.len() - 1] {
///     assembler.feed(std::slice::from_ref(byte));
///     assert!(assembler.next_frame().expect("valid prefix").is_none());
/// }
/// assembler.feed(&frame[frame.len() - 1..]);
/// assert_eq!(assembler.next_frame().expect("valid frame"), Some(frame.as_slice()));
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of the unconsumed region of `buf`.
    pos: usize,
    /// Total frame length (header + payload) once the header validated.
    need: Option<usize>,
    /// Feeds so far (the reassembly clock for the spread metric).
    feeds: u64,
    /// The feed count when the current frame's first byte became visible.
    frame_start: Option<u64>,
    last_spread: u64,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact consumed space before growing: steady state keeps the
        // buffer at roughly one frame plus one read chunk.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.feeds += 1;
    }

    /// The next complete frame, if one is buffered: `Ok(Some(frame))`
    /// borrows the raw header+payload bytes (decode before the next call),
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// The header's [`WireError`] — the stream is unframeable from here on
    /// (resynchronising on a byte stream is guessing), so the caller should
    /// tear the connection down.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let available = self.buf.len() - self.pos;
        if self.frame_start.is_none() && available > 0 {
            self.frame_start = Some(self.feeds);
        }
        if self.need.is_none() {
            if available < HEADER_LEN {
                return Ok(None);
            }
            let header_bytes: &[u8; HEADER_LEN] = self.buf[self.pos..self.pos + HEADER_LEN]
                .try_into()
                .expect("length checked");
            let header = parse_header(header_bytes)?;
            self.need = Some(HEADER_LEN + header.len as usize);
        }
        let need = self.need.expect("just ensured");
        if available < need {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += need;
        self.need = None;
        self.last_spread = self
            .feeds
            .saturating_sub(self.frame_start.take().unwrap_or(self.feeds))
            + 1;
        Ok(Some(&self.buf[start..start + need]))
    }

    /// How many `feed` calls the most recent frame spanned (1 = it arrived
    /// whole) — the partial-read reassembly spread, exported as the
    /// `net_reactor_reassembly_reads` histogram.
    #[must_use]
    pub fn last_spread(&self) -> u64 {
        self.last_spread
    }

    /// Bytes currently buffered and not yet consumed as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The buffer's allocated capacity — exposed so the fuzz suite can
    /// assert allocation tracks *received* bytes, never claimed lengths.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}
