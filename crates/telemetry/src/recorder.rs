//! The pipeline flight recorder: a lock-free ring of the last N events.
//!
//! ## Record layout
//!
//! A [`FlightEvent`] is a 32-byte `Copy` record — four 64-bit words:
//!
//! ```text
//! word 0   ts_ns    monotonic nanoseconds (Telemetry clock)
//! word 1   object   the ObjectId (or connection id) the event concerns
//! word 2   detail   stage-specific payload (run length, bytes, seq, …)
//! word 3   stage (u16) | worker (u16) | aux (u32)   packed little-end up
//! ```
//!
//! ## Concurrency
//!
//! Writers claim a slot with one `fetch_add` on the head and publish the
//! four words with relaxed stores, sealed by a per-slot sequence stamp
//! (`claim + 1`, release-stored last).  The ring never blocks and never
//! allocates; a writer lapping the ring simply overwrites the oldest
//! slot.  [`FlightRecorder::dump`] — the cold postmortem path — reads
//! each slot's stamp before and after copying the words and drops the
//! slot if a concurrent writer moved it, so a dump is always a *bounded,
//! consistent* set of records, sorted by timestamp.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where in the pipeline a flight event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum Stage {
    /// A batch (or single event) accepted by a submit entry point.
    Submit = 1,
    /// A run of events enqueued onto a shard queue.
    Enqueue = 2,
    /// A run of one object's events fed through its monitor.
    Check = 3,
    /// A verdict chunk routed to a subscription or connection.
    VerdictRoute = 4,
    /// A batch appended to the durable journal.
    JournalAppend = 5,
    /// A checkpoint written (or skipped oversized) for an object.
    Checkpoint = 6,
    /// An object's monitor retired at its eviction marker.
    Evict = 7,
    /// A NACK sent to a client (aux carries the reason code).
    Nack = 8,
    /// A connection torn down (stall, protocol error, goodbye).
    Disconnect = 9,
    /// A worker panicked; the postmortem trigger.
    Panic = 10,
    /// Recorded with an unknown stage tag (decoding future records).
    Unknown = 0,
}

impl Stage {
    /// Round-trips the packed `u16` tag.
    #[must_use]
    pub fn from_tag(tag: u16) -> Stage {
        match tag {
            1 => Stage::Submit,
            2 => Stage::Enqueue,
            3 => Stage::Check,
            4 => Stage::VerdictRoute,
            5 => Stage::JournalAppend,
            6 => Stage::Checkpoint,
            7 => Stage::Evict,
            8 => Stage::Nack,
            9 => Stage::Disconnect,
            10 => Stage::Panic,
            _ => Stage::Unknown,
        }
    }

    /// Stable lowercase name (dump + exposition format).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::Enqueue => "enqueue",
            Stage::Check => "check",
            Stage::VerdictRoute => "verdict_route",
            Stage::JournalAppend => "journal_append",
            Stage::Checkpoint => "checkpoint",
            Stage::Evict => "evict",
            Stage::Nack => "nack",
            Stage::Disconnect => "disconnect",
            Stage::Panic => "panic",
            Stage::Unknown => "unknown",
        }
    }
}

/// One recorded pipeline event — 32 bytes, `Copy` (see the module docs
/// for the packed word layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic nanoseconds (the owning [`crate::Telemetry`]'s clock).
    pub ts_ns: u64,
    /// The object (or connection) id the event concerns.
    pub object: u64,
    /// Stage-specific payload: run length, byte count, verdict seq, …
    pub detail: u64,
    /// The pipeline stage.
    pub stage: Stage,
    /// The worker (or connection slot) that recorded it.
    pub worker: u16,
    /// Secondary stage-specific payload (e.g. NACK reason code).
    pub aux: u32,
}

impl FlightEvent {
    fn pack_meta(&self) -> u64 {
        u64::from(self.stage as u16) | u64::from(self.worker) << 16 | u64::from(self.aux) << 32
    }

    fn unpack(words: [u64; 4]) -> FlightEvent {
        FlightEvent {
            ts_ns: words[0],
            object: words[1],
            detail: words[2],
            stage: Stage::from_tag((words[3] & 0xFFFF) as u16),
            worker: ((words[3] >> 16) & 0xFFFF) as u16,
            aux: (words[3] >> 32) as u32,
        }
    }
}

/// One ring slot: the four record words plus the sequence stamp that
/// seals them (`claim + 1`; `0` = never written).
#[derive(Default)]
struct Slot {
    words: [AtomicU64; 4],
    seq: AtomicU64,
}

/// The lock-free flight ring.  Capacity is rounded up to a power of two;
/// zero capacity disables recording entirely (every call is a branch).
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: usize,
    head: AtomicU64,
}

impl FlightRecorder {
    /// A ring of (at least) `capacity` slots; `0` disables the recorder.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mask: cap.saturating_sub(1),
            head: AtomicU64::new(0),
        }
    }

    /// Whether recording does anything (capacity > 0).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == 0
    }

    /// The ring capacity (0 when disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event: one `fetch_add` claim + five relaxed/release
    /// stores.  Never blocks, never allocates; laps overwrite the oldest.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        if self.slots.is_empty() {
            return;
        }
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim as usize) & self.mask];
        // Unseal (a dump racing this write rejects the slot), write the
        // words, then seal with the claim stamp.
        slot.seq.store(0, Ordering::Release);
        slot.words[0].store(event.ts_ns, Ordering::Relaxed);
        slot.words[1].store(event.object, Ordering::Relaxed);
        slot.words[2].store(event.detail, Ordering::Relaxed);
        slot.words[3].store(event.pack_meta(), Ordering::Relaxed);
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Copies the ring out: up to `capacity` consistent records, sorted by
    /// timestamp (ties by claim order).  Slots a concurrent writer is
    /// moving are skipped, so the dump never tears a record.  This is the
    /// cold path — it allocates and takes no locks.
    #[must_use]
    pub fn dump(&self) -> Vec<FlightEvent> {
        if self.slots.is_empty() {
            return Vec::new();
        }
        let head = self.head.load(Ordering::Acquire);
        let live = head.min(self.slots.len() as u64);
        let mut events = Vec::with_capacity(live as usize);
        for claim in head.saturating_sub(live)..head {
            let slot = &self.slots[(claim as usize) & self.mask];
            let before = slot.seq.load(Ordering::Acquire);
            if before != claim + 1 {
                // Overwritten (or mid-write) since the head read.
                continue;
            }
            let words = [
                slot.words[0].load(Ordering::Relaxed),
                slot.words[1].load(Ordering::Relaxed),
                slot.words[2].load(Ordering::Relaxed),
                slot.words[3].load(Ordering::Relaxed),
            ];
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            events.push(FlightEvent::unpack(words));
        }
        events.sort_by_key(|event| event.ts_ns);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> FlightEvent {
        FlightEvent {
            ts_ns: ts,
            object: ts * 2,
            detail: ts * 3,
            stage: Stage::Check,
            worker: 1,
            aux: 42,
        }
    }

    #[test]
    fn record_layout_is_32_bytes_and_round_trips() {
        assert_eq!(std::mem::size_of::<FlightEvent>(), 32);
        let event = FlightEvent {
            ts_ns: 7,
            object: 8,
            detail: 9,
            stage: Stage::Nack,
            worker: 513,
            aux: 0xDEAD_BEEF,
        };
        let words = [event.ts_ns, event.object, event.detail, event.pack_meta()];
        assert_eq!(FlightEvent::unpack(words), event);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let ring = FlightRecorder::new(4);
        for ts in 1..=10 {
            ring.record(ev(ts));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 4, "bounded at capacity");
        let stamps: Vec<u64> = dump.iter().map(|e| e.ts_ns).collect();
        assert_eq!(stamps, vec![7, 8, 9, 10], "the newest, time-ordered");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let ring = FlightRecorder::new(0);
        assert!(!ring.is_enabled());
        ring.record(ev(1));
        assert!(ring.dump().is_empty());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FlightRecorder::new(3).capacity(), 4);
        assert_eq!(FlightRecorder::new(4).capacity(), 4);
        assert_eq!(FlightRecorder::new(5).capacity(), 8);
    }

    #[test]
    fn concurrent_recording_never_tears() {
        use std::sync::Arc;
        let ring = Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        ring.record(FlightEvent {
                            ts_ns: i,
                            object: u64::from(w) * 1_000_000 + i,
                            detail: i,
                            stage: Stage::Enqueue,
                            worker: w,
                            aux: w.into(),
                        });
                    }
                })
            })
            .collect();
        // Dump concurrently with the writers: every record that comes out
        // must be internally consistent (object encodes worker + detail).
        for _ in 0..50 {
            for event in ring.dump() {
                let w = u64::from(event.worker);
                assert_eq!(event.object, w * 1_000_000 + event.detail);
                assert_eq!(u64::from(event.aux), w);
            }
        }
        for handle in writers {
            handle.join().unwrap();
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 64);
    }
}
