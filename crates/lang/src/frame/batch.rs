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

/// A reusable batch-frame encoder: keeps the dictionary maps warm across
/// frames.  Dictionary lookups are dense `Vec`s indexed by the arena id
/// (epoch-stamped so `clear` is O(1)), not hash maps — the per-row cost is
/// an array index.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    /// `inv_dict[id] = (epoch, dict index)`; valid when epoch matches.
    inv_dict: Vec<(u64, u32)>,
    resp_dict: Vec<(u64, u32)>,
    epoch: u64,
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
        // Pass 1 numbers the distinct payloads in first-use order: the
        // dictionaries precede the rows in the payload, so pass 2 can then
        // write every row straight into the frame.
        let mut inv_payloads: Vec<InvocationId> = Vec::new();
        let mut resp_payloads: Vec<ResponseId> = Vec::new();
        for action in batch.actions() {
            match *action {
                EventAction::Invoke(id) => {
                    let slot = id.0 as usize;
                    if self.inv_dict.len() <= slot {
                        self.inv_dict.resize(slot + 1, (0, 0));
                    }
                    let entry = &mut self.inv_dict[slot];
                    if entry.0 != epoch {
                        *entry =
                            (epoch, u32::try_from(inv_payloads.len()).expect("dict fits u32"));
                        inv_payloads.push(id);
                    }
                }
                EventAction::Respond(id) => {
                    let slot = id.0 as usize;
                    if self.resp_dict.len() <= slot {
                        self.resp_dict.resize(slot + 1, (0, 0));
                    }
                    let entry = &mut self.resp_dict[slot];
                    if entry.0 != epoch {
                        *entry =
                            (epoch, u32::try_from(resp_payloads.len()).expect("dict fits u32"));
                        resp_payloads.push(id);
                    }
                }
            }
        }
        // Dictionary entries are a few bytes each; the rows are exact.
        let dict_estimate = 8 + 16 * (inv_payloads.len() + resp_payloads.len());
        let mut frame = frame_buffer(12 + dict_estimate + batch.len() * 17);
        put_u64(&mut frame, batch_id);
        put_u32(&mut frame, u32::try_from(batch.len()).expect("< 2^32 events"));
        let interner = arena.read();
        put_u32(&mut frame, u32::try_from(inv_payloads.len()).expect("dict fits u32"));
        for id in &inv_payloads {
            put_invocation(&mut frame, interner.resolve_invocation(*id));
        }
        put_u32(&mut frame, u32::try_from(resp_payloads.len()).expect("dict fits u32"));
        for id in &resp_payloads {
            put_response(&mut frame, interner.resolve_response(*id));
        }
        drop(interner);
        frame.reserve(batch.len() * 17);
        let mut row = [0u8; 17];
        for record in batch.iter() {
            row[0..8].copy_from_slice(&record.object.0.to_le_bytes());
            let proc = record.proc.0;
            assert!(proc < MAX_PROCESSES as usize, "process id {proc} is not below MAX_PROCESSES");
            row[8..12].copy_from_slice(&(proc as u32).to_le_bytes());
            let (tag, index) = match record.action {
                EventAction::Invoke(id) => (0u8, self.inv_dict[id.0 as usize].1),
                EventAction::Respond(id) => (1u8, self.resp_dict[id.0 as usize].1),
            };
            row[12] = tag;
            row[13..17].copy_from_slice(&index.to_le_bytes());
            frame.extend_from_slice(&row);
        }
        seal_frame(FrameKind::Batch, &mut frame);
        frame
    }
}

/// Decodes a batch payload, interning each dictionary entry once into
/// `arena` (the arena-interning rule of the module docs).  The structural
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
    let inv_ids: Vec<InvocationId> =
        invocations.iter().map(|invocation| arena.invocation(invocation)).collect();
    let resp_ids: Vec<ResponseId> =
        responses.iter().map(|response| arena.response(response)).collect();
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
