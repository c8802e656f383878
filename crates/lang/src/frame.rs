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

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// Two kernels compute the same value, chosen per call:
///
/// * **Carry-less multiplication**, on x86_64 when the CPU reports
///   PCLMULQDQ and SSE4.1 and the input is at least 64 bytes: four
///   128-bit lanes fold 64-byte blocks with `_mm_clmulepi64_si128`, the
///   lanes fold into one and then over the 16-byte chunks left, the 128-bit
///   remainder reduces to 64 and then 32 bits, and a Barrett reduction
///   yields the register; the last < 16 bytes go through the table
///   kernel.  The constants K1–K5, μ and P′ are those of Gopal et al.,
///   *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
///   Instruction* (Intel, 2009), for the reflected polynomial, as in
///   Linux's `crc32-pclmul`.
/// * **Sliced by 16** (`crc32_tables`) everywhere else: other
///   architectures, CPUs without PCLMULQDQ, and inputs under 64 bytes —
///   every 1-event frame.  The length test comes first, so a short frame
///   pays no feature detection.
///
/// Every frame on the wire and in the journal goes through this function,
/// checkpoint records of long histories (hundreds of KB each) included.
/// `cargo bench -p drv-bench --bench crc32` on one Intel Xeon core
/// (PCLMULQDQ, AVX-512) reads 0.63–0.66 ns/B for the table kernel and
/// 0.056–0.069 ns/B for the carry-less kernel at 1 300, 5 120 and
/// 600 000 B, and 0.37 against 0.19 ns/B at 64 B; the bit-at-a-time loop
/// the table kernel replaced read ≈ 2.7 ns/B.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `crc32_clmul` is compiled for PCLMULQDQ and SSE4.1, and
        // the CPU has just reported both; the kernel itself indexes only
        // through bounds-checked slices.
        #[allow(unsafe_code)]
        let register = unsafe { clmul::crc32_clmul(!0, bytes) };
        return !register;
    }
    !crc32_tables(!0, bytes)
}

/// The table kernel: `register` (the CRC before its final inversion) run
/// over `bytes`, sliced by 16.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes (16 × 256
/// `u32`, 16 KiB, built at compile time).  A 16-byte block is folded in
/// one step: the running CRC is XORed into its first four bytes and the 16
/// lookups, one per byte into the table of its distance from the block's
/// end, are XORed together.  Those lookups do not depend on each other, so
/// they overlap, where the byte loop chained one dependent lookup per
/// byte; fewer than 16 trailing bytes still take the byte-at-a-time step.
#[inline]
pub(crate) fn crc32_tables(register: u32, bytes: &[u8]) -> u32 {
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
    let mut crc = register;
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
    crc
}

/// The carry-less-multiplication kernel (x86_64 only).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input the kernel takes: one 64-byte block, the four
    /// lanes' first load.
    pub(super) const MIN_LEN: usize = 64;

    // Each fold constant is `rev64(x^n mod P << 32) << 1`, with P the
    // unreflected polynomial 0x1_04C1_1DB7 (Gopal et al.'s form for a
    // reflected CRC).
    /// n = 4·128 + 32 and 4·128 − 32: one lane across a 64-byte block.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// n = 128 + 32 and 128 − 32: one lane onto the next 16 bytes.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// n = 64: the 96 → 64-bit step.
    const K5: i64 = 0x1_63CD_6124;
    /// P′, P reflected over its 33 bits.
    const P_PRIME: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P⌋ reflected over its 33 bits: Barrett's quotient.
    const MU: i64 = 0x1_F701_1641;

    /// `register` run over `bytes` (at least 64 of them).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_clmul(register: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN);
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        let mut lanes =
            [load(&first[..16]), load(&first[16..32]), load(&first[32..48]), load(&first[48..])];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(register as i32));

        // Fold by four: each lane moves 512 bits forward onto the next block.
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold(*lane, load(chunk), k1k2);
            }
        }

        // Four lanes into one, then fold by one over the remaining 16-byte
        // chunks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for chunk in &mut rest {
            x = fold(x, load(chunk), k3k4);
        }

        // 128 → 96 → 64 bits.
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 → 32 bits: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P′, and the register is (R ⊕ T2)'s upper half.
        let pu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let register = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::crc32_tables(register, rest.remainder())
    }

    /// `lane` carried 128·k bits forward (the constants `keys` pick k) and
    /// XORed onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let high = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// Sixteen bytes, little-endian, as one 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(chunk: &[u8]) -> __m128i {
        let (low, high) = chunk.split_at(8);
        let low = u64::from_le_bytes(low.try_into().expect("8 bytes"));
        let high = u64::from_le_bytes(high.try_into().expect("8 bytes"));
        _mm_set_epi64x(high as i64, low as i64)
    }
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
