//! The frame layer: length-prefixed, CRC-checked binary frames carrying
//! [`EventBatch`](crate::EventBatch)es, credits, verdicts, stats and shutdowns over a byte
//! stream.
//!
//! `drv-net` speaks it over sockets (as `drv_net::wire`) and `drv-store`
//! writes it as its journal: the log a client sends and the log that is
//! stored are one format.  The payload codec it frames is [`crate::wire`].
//!
//! ## Frame layout
//!
//! ```text
//!  ┌──────────── header, 16 bytes ────────────┐┌── payload ──┐
//!  │ magic  version kind  reserved  len   crc ││ kind-specific│
//!  │ u32    u8      u8    u16       u32   u32 ││ bytes        │
//!  └──────────────────────────────────────────┘└──────────────┘
//! ```
//!
//! * `magic` = [`MAGIC`] — rejects non-protocol peers immediately.
//! * `version` = [`VERSION`] — incompatible peers are told apart from
//!   corrupted ones.
//! * `kind` — one [`FrameKind`] discriminant.  Tag 4 is retired (it was
//!   the per-row verdict frame): it decodes as [`WireError::UnknownKind`]
//!   and must not be reassigned.  [`VERSION`] did not move with it — the
//!   journal shares this header, and no journal ever held a tag-4 frame.
//! * `len` — payload length in bytes, capped at [`MAX_PAYLOAD`]; the cap is
//!   enforced *before* any buffer is sized from the field, so a corrupted
//!   length cannot trigger a multi-gigabyte allocation.
//! * `crc` — CRC-32 (IEEE) over the payload bytes; a frame whose payload was
//!   damaged in transit decodes to [`WireError::CrcMismatch`], never to a
//!   wrong batch.
//!
//! ## Sealing
//!
//! Every frame is written once.  An encoder starts from a [`frame_buffer`]
//! — [`HEADER_LEN`] reserved bytes — appends its payload behind them, and
//! [`seal_frame`] then writes the header, length and [`crc32`] of the
//! payload included, into the reserved bytes in place.  That is the one
//! header writer, for every encoder here and for the journal's checkpoint
//! records in `drv-store`; no payload is assembled in one buffer and then
//! copied behind a header in another.
//!
//! ## Batch payload and the arena-interning rule
//!
//! A [`FrameKind::Batch`] payload is the struct-of-arrays rows of an
//! [`EventBatch`](crate::EventBatch) plus a *dictionary* of the distinct invocation/response
//! payloads the rows reference:
//!
//! ```text
//!  batch_id  u64
//!  row_count u32   (up front, so size caps apply before anything interns)
//!  inv_dict  u32 count, then count encoded Invocations (drv_lang::wire)
//!  resp_dict u32 count, then count encoded Responses
//!  rows      row_count × (object u64, proc u32, tag u8, dict u32),
//!            proc < MAX_PROCESSES (1 024)
//!  [ext]     OLD BYTES ONLY: tag u8 = EXT_TRACE_CONTEXT, len u8 ≥ 16,
//!            then len bytes
//! ```
//!
//! The trailing `[ext]` block is what earlier encoders appended to a batch
//! stamped for sampled tracing, and journals they wrote can hold such
//! frames.  No encoder writes it any more; the decoder reads a well-formed
//! block and discards it, so an old stamped frame decodes to the same rows
//! as its unstamped twin.  Anything else after the rows — an unknown tag,
//! a length below 16, a block cut short — is a typed [`WireError`]
//! ([`WireError::BadExtension`] or [`WireError::Payload`]), raised before
//! anything is interned.
//!
//! Rows reference payloads by dictionary index, so a batch of 10 000 events
//! over 12 distinct payloads carries 12 encoded payloads.  Decoding interns
//! each dictionary entry **once** into the supplied [`SharedInterner`] —
//! when that interner is the engine's arena (`MonitoringEngine::interner`
//! in `drv-engine`), the decoded batch is directly submittable: one intern
//! per distinct payload, not per event.
//!
//! Because the arena is append-only, decode refuses to intern anything
//! from a frame that fails the structural caps: `row_count` is validated
//! against the caller's limit ([`decode_frame_capped`] — servers pass
//! their credit window) and a dictionary larger than the row count (every
//! legitimate entry is referenced by at least one row) is rejected as
//! [`WireError::DictOverflow`] *before* the first intern, so a peer
//! cannot grow server memory with dictionary-only frames; a row naming a
//! process past [`MAX_PROCESSES`] is refused the same way.
//!
//! ## Verdict batch payload
//!
//! The return leg mirrors the batch leg: a [`FrameKind::VerdictBatch`]
//! payload run-compresses a span of the verdict stream —
//!
//! ```text
//!  run_count u32   row_count u32
//!  runs  run_count × (object u64, base_seq u64, len u32)
//!  rows  row_count × (tag u8, index u32)
//! ```
//!
//! Consecutive verdicts of one object share a run-table entry, so the
//! 16-byte `(object, seq)` pair is paid once per run; each row is 5 bytes
//! and `seq` reconstructs as `base_seq + offset`.  Decode enforces the same
//! discipline as batch decode: counts validated against the remaining
//! payload before any allocation, a run table larger than the row count
//! rejected as [`WireError::DictOverflow`], lengths that do not sum to the
//! row count rejected as [`WireError::BadRunTable`] — all before a single
//! event is surfaced.
//!
//! ## Stats payload
//!
//! An empty [`FrameKind::Stats`] payload is a request.  The reply is the
//! serving process's telemetry registry snapshot and nothing else:
//!
//! ```text
//!  version   u8 = STATS_VERSION (3)
//!  counters  u32 count, then count × (name string, value u64)
//!  gauges    u32 count, then count × (name string, value i64 as u64)
//!  hists     u32 count, then count × (name string, buckets u64 seq, sum u64)
//! ```
//!
//! Strings and sequences are `u32`-length-prefixed; a histogram carries
//! exactly [`BUCKETS`] buckets and its count is re-derived from them.  A
//! reply decodes to a [`Snapshot`], so two replies subtract with
//! [`Snapshot::delta`].
//!
//! Every decode error is a typed [`WireError`]; malformed, truncated or
//! oversized input can neither panic nor over-allocate (`drv-net`'s
//! `tests/wire_fuzz.rs`).

mod assembler;
mod batch;
mod stats;
mod verdict;

pub use assembler::FrameAssembler;
pub use batch::{FrameEncoder, WireBatch, EXT_TRACE_CONTEXT, MAX_PROCESSES};
pub use stats::{encode_stats, encode_stats_request, STATS_VERSION};
pub use verdict::encode_verdict_batch;

use self::batch::decode_batch;
use self::stats::decode_stats_reply;
use self::verdict::decode_verdict_batch;
use crate::wire::{put_u64, CodecError, Reader};
use crate::{ObjectId, SharedInterner, VerdictEvent};
use drv_telemetry::metrics::BUCKETS;
use drv_telemetry::Snapshot;
use std::fmt;

/// Frame magic: `"DRVF"` little-endian.
pub const MAGIC: u32 = 0x4656_5244;
/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Hard cap on a frame's payload length (16 MiB): the over-allocation guard
/// for the length field itself.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The discriminant of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: an [`EventBatch`](crate::EventBatch) of monitored traffic.
    Batch = 1,
    /// Server → client: a credit grant (flow control, counted in events).
    Credit = 2,
    /// Server → client: a batch was rejected (and dropped) — resend after
    /// the condition clears.
    Nack = 3,
    /// Empty payload: a stats request (client → server).  Non-empty: the
    /// snapshot reply (server → client).
    Stats = 5,
    /// Clean end-of-stream (either direction).
    Shutdown = 6,
    /// A journal record: the object was retired (evicted) at this point of
    /// the durable stream.  `drv-store` writes these; the TCP
    /// server treats one arriving over a connection as a protocol error.
    Evict = 7,
    /// A journal record: an opaque per-object checker checkpoint
    /// (`drv-store` owns the inner layout).  Like [`FrameKind::Evict`],
    /// never valid over a live connection.
    Checkpoint = 8,
    /// Server → client: a run-compressed batch of decided verdicts (run
    /// table + 5-byte rows; see the module docs) — the one verdict frame.
    VerdictBatch = 9,
}

impl FrameKind {
    fn from_u8(value: u8) -> Option<FrameKind> {
        Some(match value {
            1 => FrameKind::Batch,
            2 => FrameKind::Credit,
            3 => FrameKind::Nack,
            // 4 is reserved: the retired per-row verdict frame.  Never
            // reassign it — an old peer's tag-4 frame must stay an
            // `UnknownKind`, not decode as something else.
            5 => FrameKind::Stats,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Evict,
            8 => FrameKind::Checkpoint,
            9 => FrameKind::VerdictBatch,
            _ => return None,
        })
    }
}

/// Why a server refused a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NackReason {
    /// The batch exceeded the connection's remaining credit (a protocol
    /// violation: wait for [`FrameKind::Credit`] before sending).
    CreditExceeded = 1,
    /// The batch alone is larger than the connection's whole credit window
    /// and could never be accepted — split it.
    BatchTooLarge = 2,
}

impl NackReason {
    fn from_u8(value: u8) -> Option<NackReason> {
        Some(match value {
            1 => NackReason::CreditExceeded,
            2 => NackReason::BatchTooLarge,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A batch of monitored traffic.
    Batch(WireBatch),
    /// A credit grant: `grant` fresh events of budget; `window` restates the
    /// connection's total window so clients can reject oversized batches
    /// locally.
    Credit {
        /// Newly granted events.
        grant: u64,
        /// The connection's total credit window.
        window: u64,
    },
    /// A refused batch.
    Nack {
        /// The refused batch's id.
        batch_id: u64,
        /// Why it was refused.
        reason: NackReason,
        /// Reason-specific detail (the violated bound, in events).
        detail: u64,
    },
    /// A run-compressed verdict batch ([`FrameKind::VerdictBatch`]),
    /// decoded back to the flat triples, per-object in `seq` order.
    VerdictBatch(Vec<VerdictEvent>),
    /// A stats request (empty [`FrameKind::Stats`] payload).
    StatsRequest,
    /// A stats reply: the serving process's telemetry registry snapshot.
    Stats(Box<Snapshot>),
    /// Clean end-of-stream.
    Shutdown,
    /// A journal retirement record (see [`FrameKind::Evict`]).
    Evict {
        /// The retired object.
        object: ObjectId,
    },
    /// A journal checkpoint record: the CRC-validated inner payload,
    /// decoded by `drv-store`.
    Checkpoint(Vec<u8>),
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first 4 bytes are not [`MAGIC`]: not this protocol.
    BadMagic(u32),
    /// A protocol version this implementation does not speak.
    BadVersion(u8),
    /// An unknown [`FrameKind`] discriminant.
    UnknownKind(u8),
    /// The header's payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The input ended inside the header.
    TruncatedHeader {
        /// Bytes present (always < [`HEADER_LEN`]).
        have: usize,
    },
    /// The input ended inside the payload.
    TruncatedPayload {
        /// The header's claimed payload length.
        need: u32,
        /// Payload bytes actually present.
        have: usize,
    },
    /// The payload's CRC-32 does not match the header's.
    CrcMismatch {
        /// CRC the header declared.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// A payload field failed to decode.
    Payload(CodecError),
    /// A batch row references a dictionary index that does not exist.
    BadDictIndex {
        /// The offending index.
        index: u32,
        /// Entries the dictionary has.
        len: u32,
    },
    /// A batch row names a process id at or above [`MAX_PROCESSES`];
    /// nothing of the frame was interned.
    BadProcess {
        /// The offending process id.
        proc: u32,
        /// The cap, [`MAX_PROCESSES`].
        limit: u32,
    },
    /// A batch declares more rows than the decoder's cap (a server's
    /// credit window) admits; nothing of the frame was interned.
    TooManyRows {
        /// The batch's id (for the NACK reply).
        batch_id: u64,
        /// Rows the frame declared.
        rows: u32,
        /// The decoder's cap.
        limit: u32,
    },
    /// A batch's dictionaries hold more entries than it has rows — a
    /// legitimate encoder emits only referenced payloads, so this is a
    /// memory-growth probe; nothing was interned.  (A `VerdictBatch` whose
    /// run table holds more runs than rows is the same probe: every run
    /// covers at least one row.)
    DictOverflow {
        /// Total dictionary entries declared.
        entries: u64,
        /// Rows the frame declared.
        rows: u32,
    },
    /// A `VerdictBatch` run table whose lengths do not sum to the frame's
    /// declared row count — the frame is internally inconsistent and
    /// nothing of it was surfaced.
    BadRunTable {
        /// Rows the frame declared.
        declared_rows: u32,
        /// What the run lengths actually sum to.
        summed: u64,
    },
    /// A non-empty [`FrameKind::Stats`] payload led with a version byte
    /// this implementation does not speak (see [`STATS_VERSION`]).
    BadStatsVersion(u8),
    /// A stats reply's histogram declared a bucket-array length other than
    /// the fixed [`BUCKETS`] the log₂ layout mandates.
    BadStatsHistogram {
        /// Buckets the reply declared.
        buckets: u64,
    },
    /// Bytes after a batch's rows that do not open an
    /// [`EXT_TRACE_CONTEXT`] block: an unknown tag or a length below 16 (a
    /// block cut short is a [`WireError::Payload`] error).  Nothing of the
    /// frame was interned.
    BadExtension {
        /// What exactly was wrong.
        what: &'static str,
    },
    /// Bytes remained after the payload's last field.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// A deadline elapsed before the peer produced the awaited bytes — a
    /// hung or wedged endpoint, surfaced typed instead of blocking forever
    /// (see `drv-net`'s `ClientConfig`).
    Timeout {
        /// How long the caller waited, in milliseconds.
        millis: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(magic) => write!(f, "bad frame magic {magic:#010x}"),
            WireError::BadVersion(version) => write!(f, "unsupported wire version {version}"),
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::TruncatedHeader { have } => {
                write!(f, "truncated header: {have} of {HEADER_LEN} bytes")
            }
            WireError::TruncatedPayload { need, have } => {
                write!(f, "truncated payload: {have} of {need} bytes")
            }
            WireError::CrcMismatch { declared, computed } => {
                write!(f, "payload CRC mismatch: declared {declared:#010x}, computed {computed:#010x}")
            }
            WireError::Payload(err) => write!(f, "payload decode: {err}"),
            WireError::BadDictIndex { index, len } => {
                write!(f, "row references dictionary entry {index} of {len}")
            }
            WireError::BadProcess { proc, limit } => {
                write!(f, "row names process {proc}, the cap is {limit} processes")
            }
            WireError::TooManyRows { batch_id, rows, limit } => {
                write!(f, "batch {batch_id} declares {rows} rows over the {limit}-row cap")
            }
            WireError::DictOverflow { entries, rows } => {
                write!(f, "{entries} dictionary entries for {rows} rows")
            }
            WireError::BadRunTable { declared_rows, summed } => {
                write!(f, "verdict run table sums {summed} rows, frame declares {declared_rows}")
            }
            WireError::BadStatsVersion(version) => {
                write!(f, "unsupported stats payload version {version} (expected {STATS_VERSION})")
            }
            WireError::BadStatsHistogram { buckets } => {
                write!(f, "stats histogram declares {buckets} buckets (expected {BUCKETS})")
            }
            WireError::BadExtension { what } => {
                write!(f, "malformed trace-context extension: {what}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the payload's last field")
            }
            WireError::Timeout { millis } => {
                write!(f, "peer produced nothing for {millis} ms")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(err: CodecError) -> Self {
        WireError::Payload(err)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), sliced by 16.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes (16 × 256
/// `u32`, 16 KiB, built at compile time).  A 16-byte block is folded in
/// one step: the running CRC is XORed into its first four bytes and the 16
/// lookups, one per byte into the table of its distance from the block's
/// end, are XORed together.  Those lookups do not depend on each other, so
/// they overlap, where the byte loop chained one dependent lookup per
/// byte; fewer than 16 trailing bytes still take the byte-at-a-time step.
/// Every frame on the wire and in the journal goes through this function,
/// checkpoint records of long histories (hundreds of KB each) included,
/// and the byte loop (≈ 2.7 ns/B against ≈ 0.5 ns/B sliced, `cargo bench
/// -p drv-bench --bench crc32`) was the durable path's largest cost.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 16] {
        let mut tables = [[0u32; 256]; 16];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 16 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    }
    static TABLES: [[u32; 256]; 16] = tables();
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut block: [u8; 16] = block.try_into().expect("16-byte chunk");
        for (byte, crc_byte) in block.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= crc_byte;
        }
        crc = 0;
        for (distance, &byte) in block.iter().rev().enumerate() {
            crc ^= TABLES[distance][usize::from(byte)];
        }
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ byte)];
    }
    !crc
}

/// A frame buffer with [`HEADER_LEN`] bytes reserved for [`seal_frame`]
/// and room for `payload_capacity` payload bytes after them: encoders
/// append the payload straight behind the header, so no frame is copied.
#[must_use]
pub fn frame_buffer(payload_capacity: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_capacity);
    frame.resize(HEADER_LEN, 0);
    frame
}

/// Seals `frame` under `kind` in place: everything after the first
/// [`HEADER_LEN`] bytes is the payload, and the header (magic, version,
/// kind, length, CRC) is written into those reserved bytes — the one
/// header writer of every encoder here and of the journal's checkpoint
/// records.
///
/// # Panics
///
/// Panics when `frame` is shorter than [`HEADER_LEN`], or its payload
/// exceeds [`MAX_PAYLOAD`] — encoders size batches far below the cap.
pub fn seal_frame(kind: FrameKind, frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("payload < 4 GiB");
    assert!(len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = VERSION;
    header[5] = kind as u8;
    header[6..8].fill(0); // reserved
    header[8..12].copy_from_slice(&len.to_le_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// A sealed frame of `kind` whose payload `write` appends to a
/// [`frame_buffer`] of `payload_capacity`.
fn encode_with(
    kind: FrameKind,
    payload_capacity: usize,
    write: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut frame = frame_buffer(payload_capacity);
    write(&mut frame);
    seal_frame(kind, &mut frame);
    frame
}

/// Encodes a credit grant.
#[must_use]
pub fn encode_credit(grant: u64, window: u64) -> Vec<u8> {
    encode_with(FrameKind::Credit, 16, |frame| {
        put_u64(frame, grant);
        put_u64(frame, window);
    })
}

/// Encodes a batch refusal.
#[must_use]
pub fn encode_nack(batch_id: u64, reason: NackReason, detail: u64) -> Vec<u8> {
    encode_with(FrameKind::Nack, 17, |frame| {
        put_u64(frame, batch_id);
        frame.push(reason as u8);
        put_u64(frame, detail);
    })
}

/// Encodes a shutdown notice.
#[must_use]
pub fn encode_shutdown() -> Vec<u8> {
    encode_with(FrameKind::Shutdown, 0, |_| {})
}

/// Encodes a journal retirement record (see [`FrameKind::Evict`]).
#[must_use]
pub fn encode_evict(object: ObjectId) -> Vec<u8> {
    encode_with(FrameKind::Evict, 8, |frame| put_u64(frame, object.0))
}

/// A validated frame header.
struct Header {
    kind: FrameKind,
    len: u32,
    crc: u32,
}

/// Validates the fixed-size header — the ONE copy of the header contract,
/// shared by the buffer decoder and the [`FrameAssembler`].
fn parse_header(bytes: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
    let mut header = Reader::new(bytes);
    let magic = header.u32("magic").expect("fixed-size header");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header.u8("version").expect("fixed-size header");
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind_byte = header.u8("kind").expect("fixed-size header");
    let kind = FrameKind::from_u8(kind_byte).ok_or(WireError::UnknownKind(kind_byte))?;
    let _reserved = header.take(2, "reserved").expect("fixed-size header");
    let len = header.u32("payload length").expect("fixed-size header");
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let crc = header.u32("crc").expect("fixed-size header");
    Ok(Header { kind, len, crc })
}

/// Decodes one frame from the front of `bytes`, interning batch payloads
/// into `arena`.  Returns the frame and the bytes it consumed.
///
/// # Errors
///
/// A typed [`WireError`] on any malformed, truncated, corrupted or
/// oversized input — never a panic, never an allocation sized by
/// unvalidated input.
pub fn decode_frame(bytes: &[u8], arena: &SharedInterner) -> Result<(Frame, usize), WireError> {
    decode_frame_capped(bytes, arena, u32::MAX)
}

/// [`decode_frame`] with a row cap: a batch declaring more than `max_rows`
/// rows is rejected as [`WireError::TooManyRows`] **before anything is
/// interned into `arena`** — servers pass their credit window, so a peer
/// cannot grow the engine arena beyond what its credit admits.
///
/// # Errors
///
/// Like [`decode_frame`], plus [`WireError::TooManyRows`].
pub fn decode_frame_capped(
    bytes: &[u8],
    arena: &SharedInterner,
    max_rows: u32,
) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TruncatedHeader { have: bytes.len() });
    }
    let header = parse_header(bytes[..HEADER_LEN].try_into().expect("length checked"))?;
    let available = bytes.len() - HEADER_LEN;
    if available < header.len as usize {
        return Err(WireError::TruncatedPayload { need: header.len, have: available });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + header.len as usize];
    let computed = crc32(payload);
    if computed != header.crc {
        return Err(WireError::CrcMismatch { declared: header.crc, computed });
    }
    let frame = decode_payload(header.kind, payload, arena, max_rows)?;
    Ok((frame, HEADER_LEN + header.len as usize))
}

fn decode_payload(
    kind: FrameKind,
    payload: &[u8],
    arena: &SharedInterner,
    max_rows: u32,
) -> Result<Frame, WireError> {
    let mut reader = Reader::new(payload);
    let frame = match kind {
        FrameKind::Batch => Frame::Batch(decode_batch(&mut reader, arena, max_rows)?),
        FrameKind::Credit => Frame::Credit {
            grant: reader.u64("credit grant")?,
            window: reader.u64("credit window")?,
        },
        FrameKind::Nack => {
            let batch_id = reader.u64("nack batch id")?;
            let reason_byte = reader.u8("nack reason")?;
            let reason = NackReason::from_u8(reason_byte).ok_or(WireError::Payload(
                CodecError::BadTag { what: "nack reason", tag: reason_byte },
            ))?;
            Frame::Nack { batch_id, reason, detail: reader.u64("nack detail")? }
        }
        FrameKind::VerdictBatch => Frame::VerdictBatch(decode_verdict_batch(&mut reader)?),
        FrameKind::Stats if payload.is_empty() => Frame::StatsRequest,
        FrameKind::Stats => Frame::Stats(Box::new(decode_stats_reply(&mut reader)?)),
        FrameKind::Shutdown => Frame::Shutdown,
        FrameKind::Evict => Frame::Evict { object: ObjectId(reader.u64("evicted object")?) },
        FrameKind::Checkpoint => {
            // Opaque to this layer: hand the whole (length- and
            // CRC-validated) payload to the store's decoder.
            let len = reader.remaining();
            Frame::Checkpoint(reader.take(len, "checkpoint payload")?.to_vec())
        }
    };
    if !reader.is_empty() {
        return Err(WireError::TrailingBytes { extra: reader.remaining() });
    }
    Ok(frame)
}
