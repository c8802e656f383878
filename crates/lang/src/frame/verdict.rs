//! The verdict leg: run-compressed [`FrameKind::VerdictBatch`] frames.

use super::{encode_with, FrameKind, WireError};
use crate::wire::{put_u32, put_u64, CodecError, Reader};
use crate::{ObjectId, Verdict, VerdictEvent};

/// Encodes a run-compressed [`FrameKind::VerdictBatch`] frame:
///
/// ```text
///  run_count u32   row_count u32
///  runs  run_count × (object u64, base_seq u64, len u32)
///  rows  row_count × (tag u8, index u32)
/// ```
///
/// The encoder splits `events` into maximal runs of same-object,
/// consecutive-`seq` verdicts, so the 16 bytes of `(object, seq)` are paid
/// once per run and a row costs 5 bytes.  Splitting is lossless:
/// any input (object changes, seq gaps, even out-of-order seqs) round-trips
/// to exactly the same event sequence.
///
/// # Panics
///
/// Panics on 2^32 or more events per frame (senders chunk far below).
#[must_use]
pub fn encode_verdict_batch(events: &[VerdictEvent]) -> Vec<u8> {
    let mut runs: Vec<(ObjectId, u64, u32)> = Vec::new();
    for event in events {
        match runs.last_mut() {
            Some((object, base, len))
                if *object == event.object
                    && *len < u32::MAX
                    && event.seq == base.wrapping_add(u64::from(*len)) =>
            {
                *len += 1;
            }
            _ => runs.push((event.object, event.seq, 1)),
        }
    }
    encode_with(FrameKind::VerdictBatch, 8 + runs.len() * 20 + events.len() * 5, |frame| {
        put_u32(frame, u32::try_from(runs.len()).expect("< 2^32 runs"));
        put_u32(frame, u32::try_from(events.len()).expect("< 2^32 verdicts"));
        for (object, base, len) in &runs {
            put_u64(frame, object.0);
            put_u64(frame, *base);
            put_u32(frame, *len);
        }
        let mut row = [0u8; 5];
        for event in events {
            let (tag, index) = match event.verdict {
                Verdict::Yes => (0u8, 0u32),
                Verdict::No => (1, 0),
                Verdict::Maybe(i) => (2, i),
            };
            row[0] = tag;
            row[1..5].copy_from_slice(&index.to_le_bytes());
            frame.extend_from_slice(&row);
        }
    })
}

/// Decodes a [`FrameKind::VerdictBatch`] payload back to the flat triples,
/// validating the whole run table and every tag before surfacing an event.
pub(super) fn decode_verdict_batch(reader: &mut Reader<'_>) -> Result<Vec<VerdictEvent>, WireError> {
    // Size caps first, exactly like batch decode: the run count is
    // bounded by remaining/20, the row count by remaining/5, and
    // every allocation below is sized only after the backing bytes
    // were actually taken off the payload.
    let runs = reader.count(20, "verdict runs")?;
    let rows = reader.count(5, "verdict batch rows")?;
    if runs > rows {
        // Every legitimate run covers ≥ 1 row — a fatter run table
        // is the same memory-growth probe as a dictionary overflow.
        return Err(WireError::DictOverflow { entries: runs as u64, rows: rows as u32 });
    }
    let run_bytes = reader.take(runs * 20, "verdict run table")?;
    let mut table: Vec<(ObjectId, u64, u32)> = Vec::with_capacity(runs);
    let mut summed = 0u64;
    for chunk in run_bytes.chunks_exact(20) {
        let object =
            ObjectId(u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes")));
        let base = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(chunk[16..20].try_into().expect("4 bytes"));
        summed += u64::from(len);
        table.push((object, base, len));
    }
    if summed != rows as u64 {
        return Err(WireError::BadRunTable { declared_rows: rows as u32, summed });
    }
    let row_bytes = reader.take(rows * 5, "verdict batch rows")?;
    // Validate every tag before surfacing anything.
    for chunk in row_bytes.chunks_exact(5) {
        if chunk[0] > 2 {
            return Err(WireError::Payload(CodecError::BadTag {
                what: "verdict",
                tag: chunk[0],
            }));
        }
    }
    let mut events = Vec::with_capacity(rows);
    let mut cursor = row_bytes.chunks_exact(5);
    for (object, base, len) in table {
        for offset in 0..u64::from(len) {
            let chunk = cursor.next().expect("lengths sum to the row count");
            let index = u32::from_le_bytes(chunk[1..5].try_into().expect("4 bytes"));
            let verdict = match chunk[0] {
                0 => Verdict::Yes,
                1 => Verdict::No,
                _ => Verdict::Maybe(index),
            };
            // Wrapping: a hostile base near u64::MAX yields odd
            // seqs, never a panic.
            events.push(VerdictEvent { object, seq: base.wrapping_add(offset), verdict });
        }
    }
    Ok(events)
}
