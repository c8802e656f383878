//! The engine ⇄ durability boundary: a write-ahead [`JournalSink`] tap on
//! the accepted-event path and the [`RecoveredObject`] seeds a store hands
//! back to [`MonitoringEngine::with_recovered`](crate::MonitoringEngine::with_recovered).
//!
//! The engine knows nothing about files, fsync or frames — `drv-store`
//! implements the sink against its on-disk journal.  The contract between
//! the two layers:
//!
//! * **Write-ahead, one record per accepted batch.**  A batch record is
//!   appended after a submission clears the backpressure bound (so refused
//!   work is never journaled) and *before* it is enqueued — a crash
//!   between the append and the enqueue replays the events, which is
//!   exactly the at-least-once side replay-identical recovery needs (the
//!   monitor has not seen them yet).  It arrives by one of two doors:
//!   - `append_frame` — a served batch, handed over as the sealed batch
//!     frame the client sent and the reactor decoded
//!     ([`MonitoringEngine::try_submit_frame`](crate::MonitoringEngine::try_submit_frame)).
//!     The sink writes those bytes as they are: the batch is not encoded
//!     again, and the client's batch id (and an old client's trace stamp)
//!     stays in the record, where recovery ignores it.
//!   - `append_batch` — an in-process batch (`submit`, `submit_batch`,
//!     `submit_stream`, `try_submit_batch`; a single `submit` is a batch
//!     of one), which the sink encodes once, into the same frame format.
//! * **Checkpoints trail processing.**  `checkpoint` is called from the
//!   worker *after* the covered events were fed, so by file order a
//!   checkpoint claiming `fed` events is always preceded by at least that
//!   many journaled events of the object — a torn journal tail can
//!   truncate events, never a checkpoint's coverage.
//! * **Checkpoints form a chain.**  Each carries only what changed since
//!   the object's previous one: the verdicts of the events fed since, and
//!   the monitor's [`ObjectMonitor::checkpoint`] delta.  It extends the
//!   checkpoint that ended at `fed − verdicts.len()`; one with no
//!   predecessor (a new object, or the first after a recovery that could
//!   not seed the object) starts at 0 and carries everything.
//! * **Tombstones on retirement.**  `tombstone` is called whenever a
//!   monitor is retired mid-run, which only its eviction marker does,
//!   marking the spot in the stream so recovery retires the object at the
//!   same position instead of resurrecting it from a stale checkpoint.
//!   A tombstone ends the object's checkpoint chain for good: the monitors
//!   later traffic installs are never checkpointed.  `finish()` retires
//!   nothing and writes none.
//! * **Sinks are infallible here.**  I/O failure handling (latching the
//!   error, degrading to no-op) lives behind the trait; the submit path
//!   stays non-fallible.
//!
//! Per-object replay identity additionally requires what the engine
//! already requires everywhere else: one producer per object (the net
//! server's ownership rule), and no same-object traffic racing the
//! object's own eviction.

use drv_consistency::ObjectMonitor;
use drv_lang::{EventBatch, ObjectId, SharedInterner, Verdict};

/// A durability tap for everything the engine accepts; see the module docs
/// for the exact call-site contract.
pub trait JournalSink: Send + Sync {
    /// Appends one accepted in-process [`EventBatch`] (payload ids live in
    /// `arena`, the engine's own interner) ahead of its enqueue, encoded
    /// as a batch frame.
    fn append_batch(&self, batch: &EventBatch, arena: &SharedInterner);

    /// Appends one accepted served batch ahead of its enqueue: `frame` is
    /// the sealed, CRC-checked batch frame it was decoded from, journaled
    /// byte for byte.
    fn append_frame(&self, frame: &[u8]);

    /// How many fed events of one object between two of its checkpoints.
    /// Returning `u64::MAX` disables checkpointing (journal-only mode).
    fn checkpoint_interval(&self) -> u64;

    /// Persists a checkpoint of `object` after `fed` events: `verdicts` are
    /// the verdicts of the last `verdicts.len()` of them, those fed since
    /// the object's previous checkpoint (all `fed` for its first), and
    /// `state` is the monitor's [`ObjectMonitor::checkpoint`] delta over
    /// the same events.
    fn checkpoint(&self, object: ObjectId, fed: u64, verdicts: &[Verdict], state: &[u8]);

    /// Records that `object`'s monitor was retired at this point of the
    /// accepted stream (its eviction marker was processed).
    fn tombstone(&self, object: ObjectId);
}

/// One object's state handed back by a store's recovery scan, seeding
/// [`MonitoringEngine::with_recovered`](crate::MonitoringEngine::with_recovered):
/// the engine installs the monitor and pre-fills the verdict stream (so
/// `seq` numbering and the final report continue where the crash cut off).
/// The object's first `verdicts.len()` journaled events are covered: the
/// store does not submit them again, and the monitor is fed from the next
/// one on.
pub struct RecoveredObject {
    /// The object the seed belongs to.
    pub object: ObjectId,
    /// A monitor the factory created on the recovered engine's arena
    /// (`ObjectMonitorFactory::create_in`), its checkpoint chain restored.
    pub monitor: Box<dyn ObjectMonitor>,
    /// The object's verdict stream up to the chain's last checkpoint, in
    /// `seq` order from 0.
    pub verdicts: Vec<Verdict>,
}

impl std::fmt::Debug for RecoveredObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveredObject")
            .field("object", &self.object)
            .field("verdicts", &self.verdicts.len())
            .finish()
    }
}
