//! The batch leg: [`FrameEncoder`] and the arena-interning decoder.

use super::{frame_buffer, seal_frame, FrameKind, WireError};
use crate::wire::{put_invocation, put_response, put_u32, put_u64, take_invocation, take_response};
use crate::wire::{CodecError, Reader};
use crate::{
    EventAction, EventBatch, EventRecord, InvocationId, ObjectId, ProcId, ResponseId,
    SharedInterner,
};

/// Bound on a batch row's process id (`proc < MAX_PROCESSES`): a checker
/// sizes dense per-process tables (40 B a slot) by the largest id it is fed,
/// so one event can cost an object at most 40 KiB.
pub const MAX_PROCESSES: u32 = 1024;
/// Tag of the trace-context block earlier encoders appended to a stamped
/// batch (one length byte of at least 16, then that many bytes).  Read and
/// discarded when decoding old bytes; never written.
pub const EXT_TRACE_CONTEXT: u8 = 1;

/// A decoded batch frame: the id echoes back in acknowledgements/NACKs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBatch {
    /// Sender-chosen id (monotone per connection in the provided client).
    pub batch_id: u64,
    /// The events, payload ids interned into the decode-time arena.
    pub events: EventBatch,
}

/// A reusable batch-frame encoder: keeps the dictionary tables warm across
/// frames.  Each side numbers its ids — arena slots and inline ids (the
/// payload itself, see [`crate::intern`]) alike — in an open-addressing
/// table keyed by the raw id, epoch-stamped so starting a frame is O(1).
#[derive(Debug, Default)]
pub struct FrameEncoder {
    inv_index: DictIndex,
    resp_index: DictIndex,
    /// Each row's dictionary index, numbered by pass 1 for pass 2.
    row_index: Vec<u32>,
    epoch: u64,
}

/// One frame's ids and their dictionary indices: linear probing over a
/// power-of-two table at most half full, entries valid in their epoch.
#[derive(Debug, Default)]
struct DictIndex {
    /// `(id, (epoch, dict index))`.
    slots: Vec<(u32, (u64, u32))>,
}

impl DictIndex {
    /// Makes room for `rows` distinct ids; call before a frame's first
    /// [`DictIndex::entry`].  Growing drops nothing the frame needs: every
    /// entry stamped before the frame began is stale.
    fn reserve(&mut self, rows: usize) {
        let slots = (2 * rows).next_power_of_two().max(16);
        if self.slots.len() < slots {
            self.slots = vec![(0, (0, 0)); slots];
        }
    }

    /// The entry of `id` in frame `epoch`: its own slot, or the free slot it
    /// takes (stamped with an older epoch).
    fn entry(&mut self, id: u32, epoch: u64) -> &mut (u64, u32) {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's top bits, as many as the table
        // has slots.
        let bits = self.slots.len().trailing_zeros();
        let mut slot = (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        while self.slots[slot].1 .0 == epoch && self.slots[slot].0 != id {
            slot = (slot + 1) & mask;
        }
        self.slots[slot].0 = id;
        &mut self.slots[slot].1
    }
}

impl FrameEncoder {
    /// A fresh encoder.
    #[must_use]
    pub fn new() -> Self {
        FrameEncoder::default()
    }

    /// Encodes `batch` (whose payload ids live in `arena`) as one sealed
    /// [`FrameKind::Batch`] frame: rows by dictionary index, each distinct
    /// payload encoded once.
    ///
    /// # Panics
    ///
    /// Panics when a payload id is unknown to `arena` (the batch was built
    /// against a different interner), a row's process id is not below
    /// [`MAX_PROCESSES`], or the encoded frame would exceed [`MAX_PAYLOAD`](super::MAX_PAYLOAD).
    #[must_use]
    pub fn encode_batch(
        &mut self,
        batch_id: u64,
        batch: &EventBatch,
        arena: &SharedInterner,
    ) -> Vec<u8> {
        self.epoch += 1;
        let epoch = self.epoch;
        self.inv_index.reserve(batch.len());
        self.resp_index.reserve(batch.len());
        self.row_index.clear();
        // Pass 1 numbers the distinct payloads in first-use order and notes
        // each row's number: the dictionaries precede the rows in the
        // payload, so pass 2 can then write every row straight into the
        // frame.
        let mut inv_payloads: Vec<InvocationId> = Vec::new();
        let mut resp_payloads: Vec<ResponseId> = Vec::new();
        for action in batch.actions() {
            let index = match *action {
                EventAction::Invoke(id) => {
                    let entry = self.inv_index.entry(id.0, epoch);
                    if entry.0 != epoch {
                        *entry =
                            (epoch, u32::try_from(inv_payloads.len()).expect("dict fits u32"));
                        inv_payloads.push(id);
                    }
                    entry.1
                }
                EventAction::Respond(id) => {
                    let entry = self.resp_index.entry(id.0, epoch);
                    if entry.0 != epoch {
                        *entry =
                            (epoch, u32::try_from(resp_payloads.len()).expect("dict fits u32"));
                        resp_payloads.push(id);
                    }
                    entry.1
                }
            };
            self.row_index.push(index);
        }
        // Dictionary entries are a few bytes each; the rows are exact.
        let dict_estimate = 8 + 16 * (inv_payloads.len() + resp_payloads.len());
        let mut frame = frame_buffer(12 + dict_estimate + batch.len() * 17);
        put_u64(&mut frame, batch_id);
        put_u32(&mut frame, u32::try_from(batch.len()).expect("< 2^32 events"));
        // Only an arena slot needs the arena's lock.
        let mut guard = None;
        put_u32(&mut frame, u32::try_from(inv_payloads.len()).expect("dict fits u32"));
        for id in &inv_payloads {
            match id.inline_payload() {
                Some(payload) => put_invocation(&mut frame, &payload),
                None => put_invocation(
                    &mut frame,
                    &guard.get_or_insert_with(|| arena.read()).resolve_invocation(*id),
                ),
            }
        }
        put_u32(&mut frame, u32::try_from(resp_payloads.len()).expect("dict fits u32"));
        for id in &resp_payloads {
            match id.inline_payload() {
                Some(payload) => put_response(&mut frame, &payload),
                None => put_response(
                    &mut frame,
                    &guard.get_or_insert_with(|| arena.read()).resolve_response(*id),
                ),
            }
        }
        drop(guard);
        frame.reserve(batch.len() * 17);
        let mut row = [0u8; 17];
        for (record, index) in batch.iter().zip(&self.row_index) {
            row[0..8].copy_from_slice(&record.object.0.to_le_bytes());
            let proc = record.proc.0;
            assert!(proc < MAX_PROCESSES as usize, "process id {proc} is not below MAX_PROCESSES");
            row[8..12].copy_from_slice(&(proc as u32).to_le_bytes());
            row[12] = match record.action {
                EventAction::Invoke(_) => 0,
                EventAction::Respond(_) => 1,
            };
            row[13..17].copy_from_slice(&index.to_le_bytes());
            frame.extend_from_slice(&row);
        }
        seal_frame(FrameKind::Batch, &mut frame);
        frame
    }
}

/// Decodes a batch payload, interning each dictionary entry once into
/// `arena` (the arena-interning rule of the module docs), both dictionaries
/// under one read lock and, if some entry is new, one write lock
/// ([`SharedInterner::intern_dictionaries`]).  The structural
/// caps — row count vs `max_rows`, dictionary entries vs rows — are
/// enforced **before** the first intern, so a refused frame leaves the
/// (append-only) arena untouched.
pub(super) fn decode_batch(
    reader: &mut Reader<'_>,
    arena: &SharedInterner,
    max_rows: u32,
) -> Result<WireBatch, WireError> {
    let batch_id = reader.u64("batch id")?;
    // Each row is 8 + 4 + 1 + 4 = 17 bytes; the declared count can never
    // exceed remaining/17 in a valid frame (the dictionaries only add).
    let rows = reader.count(17, "batch rows")?;
    if rows as u64 > u64::from(max_rows) {
        return Err(WireError::TooManyRows {
            batch_id,
            rows: rows as u32,
            limit: max_rows,
        });
    }
    // Every encoded invocation/response is ≥ 1 byte.  Both dictionaries
    // are PARSED (into locals) before anything is interned: the arena is
    // append-only, so a frame refused by any later check — the combined
    // DictOverflow below, a truncated entry, a bad row — must leave it
    // untouched, or refusals would still grow server memory.
    let inv_count = reader.count(1, "invocation dictionary")?;
    if inv_count > rows {
        return Err(WireError::DictOverflow { entries: inv_count as u64, rows: rows as u32 });
    }
    let mut invocations = Vec::with_capacity(inv_count);
    for _ in 0..inv_count {
        invocations.push(take_invocation(reader)?);
    }
    let resp_count = reader.count(1, "response dictionary")?;
    if inv_count + resp_count > rows {
        return Err(WireError::DictOverflow {
            entries: (inv_count + resp_count) as u64,
            rows: rows as u32,
        });
    }
    let mut responses = Vec::with_capacity(resp_count);
    for _ in 0..resp_count {
        responses.push(take_response(reader)?);
    }
    // All row bytes in one bounds check (rows*17 cannot overflow: rows was
    // validated against remaining/17), then two passes: validate every
    // process id, tag and dictionary index FIRST, intern only once the whole
    // frame is known-good, then build.
    let row_bytes = reader.take(rows * 17, "batch rows")?;
    for chunk in row_bytes.chunks_exact(17) {
        let proc = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
        if proc >= MAX_PROCESSES {
            return Err(WireError::BadProcess { proc, limit: MAX_PROCESSES });
        }
        let index = u32::from_le_bytes(chunk[13..17].try_into().expect("4 bytes"));
        let len = match chunk[12] {
            0 => inv_count,
            1 => resp_count,
            tag => {
                return Err(WireError::Payload(CodecError::BadTag { what: "row action", tag }))
            }
        };
        if index as usize >= len {
            return Err(WireError::BadDictIndex { index, len: len as u32 });
        }
    }
    // Old stamped batches carry a trace-context block after the rows:
    // consume a well-formed one and discard it, still before the intern
    // step below, so any other trailing bytes refuse the frame without
    // growing the arena.
    if !reader.is_empty() {
        if reader.u8("extension tag")? != EXT_TRACE_CONTEXT {
            return Err(WireError::BadExtension {
                what: "unknown extension tag",
            });
        }
        let len = reader.u8("extension length")? as usize;
        if len < 16 {
            return Err(WireError::BadExtension {
                what: "extension shorter than a context",
            });
        }
        reader.take(len, "trace context")?;
    }
    let (inv_ids, resp_ids) = arena.intern_dictionaries(&invocations, &responses);
    let mut events = EventBatch::with_capacity(rows);
    for chunk in row_bytes.chunks_exact(17) {
        let object = ObjectId(u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes")));
        let proc = ProcId(u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes")) as usize);
        let index = u32::from_le_bytes(chunk[13..17].try_into().expect("4 bytes")) as usize;
        let action = match chunk[12] {
            0 => EventAction::Invoke(inv_ids[index]),
            _ => EventAction::Respond(resp_ids[index]),
        };
        events.push(EventRecord { object, proc, action });
    }
    Ok(WireBatch { batch_id, events })
}
