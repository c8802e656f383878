//! Arena-backed event batches: the one interchange type of the event path.
//!
//! The codebase grew three parallel encodings of "a stream of invocation /
//! response events" — [`Symbol`]s inside a [`crate::Word`], the incremental
//! checker's interned operation deltas, and (formerly) a private
//! `InternedEvent` inside the engine.  [`EventBatch`] unifies them: a
//! struct-of-arrays batch of `(object, proc, action, payload-ref)` events
//! whose rows are the `Copy`-able [`EventRecord`].  Payloads (the heap data
//! inside [`crate::Invocation`] / [`crate::Response`]) are interned exactly
//! once into a [`SharedInterner`] arena when the batch is built; afterwards
//! every layer — submission routing, shard queues, the checker's history —
//! moves 24-byte integer records around.
//!
//! The batch is deliberately *order-preserving*: iterating a batch yields the
//! events in the order they were pushed, which is the per-object FIFO order
//! every consumer (engine shards, checkers) relies on.  [`EventBatch::runs`]
//! exposes the maximal runs of consecutive same-object events, the unit that
//! batched consumers (`ObjectMonitor::on_records`, `IncrementalChecker::
//! feed_records`) process with one monitor lookup instead of one per event.
//!
//! ```
//! use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response,
//!     SharedInterner, Symbol};
//!
//! let arena = SharedInterner::new();
//! let mut batch = EventBatch::new();
//! batch.push_symbol(ObjectId(7), &Symbol::invoke(ProcId(0), Invocation::Write(1)), &arena);
//! batch.push_symbol(ObjectId(7), &Symbol::respond(ProcId(0), Response::Ack), &arena);
//! batch.push_symbol(ObjectId(9), &Symbol::invoke(ProcId(1), Invocation::Read), &arena);
//! assert_eq!(batch.len(), 3);
//! let runs: Vec<_> = batch.runs().collect();
//! assert_eq!(runs[0], (ObjectId(7), 0..2));
//! assert_eq!(runs[1], (ObjectId(9), 2..3));
//! ```

use crate::intern::{Interner, InvocationId, ResponseId, SharedInterner};
use crate::symbol::{Action, ObjectId, ProcId, Symbol};
use std::ops::Range;

/// The action half of an [`EventRecord`]: an interned invocation or response
/// payload reference into the batch's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventAction {
    /// An invocation event (payload id from the shared arena).
    Invoke(InvocationId),
    /// A response event.
    Respond(ResponseId),
}

impl EventAction {
    /// Interns `action`'s payload into `arena` and returns the reference.
    #[must_use]
    pub fn intern(action: &Action, arena: &SharedInterner) -> EventAction {
        match action {
            Action::Invoke(invocation) => EventAction::Invoke(arena.invocation(invocation)),
            Action::Respond(response) => EventAction::Respond(arena.response(response)),
        }
    }

    /// Clones the payload back out of the arena the id came from (e.g.
    /// under one [`SharedInterner::read`] guard for a whole run).
    ///
    /// # Panics
    ///
    /// Panics when the id came from a different arena.
    #[must_use]
    pub fn resolve(self, arena: &Interner) -> Action {
        match self {
            EventAction::Invoke(id) => Action::Invoke(arena.resolve_invocation(id).into_owned()),
            EventAction::Respond(id) => Action::Respond(arena.resolve_response(id).into_owned()),
        }
    }
}

/// One event of a batch: 24 bytes, `Copy`, no heap payloads — the row view
/// of [`EventBatch`] and the queue record of the engine's shard queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The object stream the event belongs to.
    pub object: ObjectId,
    /// The process that issued it.
    pub proc: ProcId,
    /// The interned invocation or response.
    pub action: EventAction,
}

impl EventRecord {
    /// Interns one symbol of `object`'s stream into `arena`.
    #[must_use]
    pub fn intern(object: ObjectId, symbol: &Symbol, arena: &SharedInterner) -> EventRecord {
        EventRecord {
            object,
            proc: symbol.proc,
            action: EventAction::intern(&symbol.action, arena),
        }
    }

    /// Resolves the record back into a payload-carrying [`Symbol`].
    ///
    /// # Panics
    ///
    /// Panics when the payload id came from a different arena.
    #[must_use]
    pub fn resolve(self, arena: &Interner) -> Symbol {
        Symbol {
            proc: self.proc,
            action: self.action.resolve(arena),
        }
    }
}

/// A struct-of-arrays batch of events: parallel `objects` / `procs` /
/// `actions` columns, one entry per event, in submission order.
///
/// See the module docs for the role this type plays; see
/// [`EventBatch::runs`] for the grouped consumption pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    objects: Vec<ObjectId>,
    procs: Vec<ProcId>,
    actions: Vec<EventAction>,
}

impl EventBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// An empty batch with room for `capacity` events per column.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventBatch {
            objects: Vec::with_capacity(capacity),
            procs: Vec::with_capacity(capacity),
            actions: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch from a `(object, symbol)` stream, interning every
    /// payload into `arena`.
    #[must_use]
    pub fn from_stream(events: &[(ObjectId, Symbol)], arena: &SharedInterner) -> EventBatch {
        let mut batch = EventBatch::with_capacity(events.len());
        for (object, symbol) in events {
            batch.push_symbol(*object, symbol, arena);
        }
        batch
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Empties the batch, keeping the column allocations (the reuse pattern
    /// of a producer loop: fill, submit, clear).
    pub fn clear(&mut self) {
        self.objects.clear();
        self.procs.clear();
        self.actions.clear();
    }

    /// Appends an already-interned record.
    pub fn push(&mut self, record: EventRecord) {
        self.objects.push(record.object);
        self.procs.push(record.proc);
        self.actions.push(record.action);
    }

    /// Interns one symbol of `object`'s stream into `arena` and appends it.
    pub fn push_symbol(&mut self, object: ObjectId, symbol: &Symbol, arena: &SharedInterner) {
        self.push(EventRecord::intern(object, symbol, arena));
    }

    /// The record at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> EventRecord {
        EventRecord {
            object: self.objects[index],
            proc: self.procs[index],
            action: self.actions[index],
        }
    }

    /// The object column (one entry per event, in submission order).
    #[must_use]
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// The process column.
    #[must_use]
    pub fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// The action column.
    #[must_use]
    pub fn actions(&self) -> &[EventAction] {
        &self.actions
    }

    /// Iterates the rows in submission order.
    pub fn iter(&self) -> impl Iterator<Item = EventRecord> + '_ {
        (0..self.len()).map(|index| self.get(index))
    }

    /// Iterates the maximal runs of consecutive same-object events as
    /// `(object, index range)` pairs — the unit batched consumers process
    /// with one per-object decision (the engine routes one *run*, not one
    /// event, per shard lookup).
    pub fn runs(&self) -> impl Iterator<Item = (ObjectId, Range<usize>)> + '_ {
        self.runs_between(0, self.len())
    }

    /// [`EventBatch::runs`] restricted to the events in `start..end` (runs
    /// straddling a boundary are clipped) — for consumers that ingest a
    /// batch in chunks.
    ///
    /// # Panics
    ///
    /// Panics when `start > end` or `end > len()`.
    pub fn runs_between(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = (ObjectId, Range<usize>)> + '_ {
        assert!(start <= end && end <= self.len());
        let mut cursor = start;
        std::iter::from_fn(move || {
            if cursor >= end {
                return None;
            }
            let object = self.objects[cursor];
            let mut run_end = cursor + 1;
            while run_end < end && self.objects[run_end] == object {
                run_end += 1;
            }
            let run = (object, cursor..run_end);
            cursor = run_end;
            Some(run)
        })
    }
}

/// A struct-of-arrays batch of verdicts: parallel `objects` / `seqs` /
/// `verdicts` columns, one entry per delivered verdict, in delivery order —
/// the return half of the pipeline, mirroring [`EventBatch`] on the
/// ingestion half.
///
/// The verdict type is generic (`V: Copy`): the pipeline instantiates it
/// with [`Verdict`](crate::Verdict), and a consumer with a verdict of its own
/// (any `Copy` type) reuses the same columns.  Like [`EventBatch`], the
/// container is order-preserving and reusable: a consumer loop drains a
/// subscription into the same batch (`clear` keeps the column allocations),
/// then walks [`VerdictBatch::runs`] to process maximal same-object spans
/// with one lookup each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictBatch<V: Copy> {
    objects: Vec<ObjectId>,
    seqs: Vec<u64>,
    verdicts: Vec<V>,
}

impl<V: Copy> Default for VerdictBatch<V> {
    fn default() -> Self {
        VerdictBatch {
            objects: Vec::new(),
            seqs: Vec::new(),
            verdicts: Vec::new(),
        }
    }
}

impl<V: Copy> VerdictBatch<V> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        VerdictBatch::default()
    }

    /// An empty batch with room for `capacity` verdicts per column.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        VerdictBatch {
            objects: Vec::with_capacity(capacity),
            seqs: Vec::with_capacity(capacity),
            verdicts: Vec::with_capacity(capacity),
        }
    }

    /// Number of verdicts in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the batch holds no verdicts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Empties the batch, keeping the column allocations (the reuse pattern
    /// of a consumer loop: drain, process, clear).
    pub fn clear(&mut self) {
        self.objects.clear();
        self.seqs.clear();
        self.verdicts.clear();
    }

    /// Appends one `(object, seq, verdict)` row.
    pub fn push(&mut self, object: ObjectId, seq: u64, verdict: V) {
        self.objects.push(object);
        self.seqs.push(seq);
        self.verdicts.push(verdict);
    }

    /// The row at `index` as an `(object, seq, verdict)` triple.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> (ObjectId, u64, V) {
        (self.objects[index], self.seqs[index], self.verdicts[index])
    }

    /// The object column (one entry per verdict, in delivery order).
    #[must_use]
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// The per-object sequence-number column.
    #[must_use]
    pub fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    /// The verdict column.
    #[must_use]
    pub fn verdicts(&self) -> &[V] {
        &self.verdicts
    }

    /// Iterates the rows in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, u64, V)> + '_ {
        (0..self.len()).map(|index| self.get(index))
    }

    /// Iterates the maximal runs of consecutive same-object verdicts as
    /// `(object, index range)` pairs — the grouped-consumption unit, exactly
    /// like [`EventBatch::runs`].
    pub fn runs(&self) -> impl Iterator<Item = (ObjectId, Range<usize>)> + '_ {
        let mut cursor = 0;
        std::iter::from_fn(move || {
            if cursor >= self.len() {
                return None;
            }
            let object = self.objects[cursor];
            let mut run_end = cursor + 1;
            while run_end < self.len() && self.objects[run_end] == object {
                run_end += 1;
            }
            let run = (object, cursor..run_end);
            cursor = run_end;
            Some(run)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Invocation, Response};

    fn sample() -> (EventBatch, SharedInterner) {
        let arena = SharedInterner::new();
        let mut batch = EventBatch::new();
        batch.push_symbol(
            ObjectId(1),
            &Symbol::invoke(ProcId(0), Invocation::Write(7)),
            &arena,
        );
        batch.push_symbol(
            ObjectId(1),
            &Symbol::respond(ProcId(0), Response::Ack),
            &arena,
        );
        batch.push_symbol(
            ObjectId(2),
            &Symbol::invoke(ProcId(1), Invocation::Read),
            &arena,
        );
        batch.push_symbol(
            ObjectId(1),
            &Symbol::invoke(ProcId(1), Invocation::Read),
            &arena,
        );
        (batch, arena)
    }

    #[test]
    fn records_are_small_and_copy() {
        assert!(std::mem::size_of::<EventRecord>() <= 24);
        let (batch, _) = sample();
        let record = batch.get(0);
        let copy = record;
        assert_eq!(copy, record);
    }

    #[test]
    fn round_trips_through_the_arena() {
        let (batch, arena) = sample();
        let interner = arena.read();
        let symbols: Vec<Symbol> = batch.iter().map(|record| record.resolve(&interner)).collect();
        assert_eq!(symbols[0], Symbol::invoke(ProcId(0), Invocation::Write(7)));
        assert_eq!(symbols[1], Symbol::respond(ProcId(0), Response::Ack));
        assert_eq!(symbols[2], Symbol::invoke(ProcId(1), Invocation::Read));
        // Identical payloads share one arena entry.
        assert_eq!(batch.actions()[2], batch.actions()[3]);
    }

    #[test]
    fn runs_group_consecutive_same_object_events() {
        let (batch, _) = sample();
        let runs: Vec<_> = batch.runs().collect();
        assert_eq!(
            runs,
            vec![
                (ObjectId(1), 0..2),
                (ObjectId(2), 2..3),
                (ObjectId(1), 3..4),
            ]
        );
        assert!(EventBatch::new().runs().next().is_none());
        // A chunk boundary clips the straddling run.
        let clipped: Vec<_> = batch.runs_between(1, 4).collect();
        assert_eq!(
            clipped,
            vec![
                (ObjectId(1), 1..2),
                (ObjectId(2), 2..3),
                (ObjectId(1), 3..4),
            ]
        );
        assert!(batch.runs_between(2, 2).next().is_none());
    }

    #[test]
    fn clear_keeps_capacity_and_from_stream_matches_pushes() {
        let (mut batch, arena) = sample();
        let events: Vec<(ObjectId, Symbol)> = {
            let interner = arena.read();
            batch
                .iter()
                .map(|record| (record.object, record.resolve(&interner)))
                .collect()
        };
        let rebuilt = EventBatch::from_stream(&events, &arena);
        assert_eq!(rebuilt, batch);
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.objects.capacity() >= 4);
    }

    #[test]
    fn verdict_batch_preserves_order_and_groups_runs() {
        let mut batch: VerdictBatch<u8> = VerdictBatch::new();
        batch.push(ObjectId(1), 0, 10);
        batch.push(ObjectId(1), 1, 11);
        batch.push(ObjectId(2), 5, 20);
        batch.push(ObjectId(1), 2, 12);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.get(2), (ObjectId(2), 5, 20));
        assert_eq!(
            batch.iter().collect::<Vec<_>>(),
            vec![
                (ObjectId(1), 0, 10),
                (ObjectId(1), 1, 11),
                (ObjectId(2), 5, 20),
                (ObjectId(1), 2, 12),
            ]
        );
        assert_eq!(
            batch.runs().collect::<Vec<_>>(),
            vec![
                (ObjectId(1), 0..2),
                (ObjectId(2), 2..3),
                (ObjectId(1), 3..4),
            ]
        );
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.objects.capacity() >= 4);
        assert!(VerdictBatch::<u8>::with_capacity(8).is_empty());
    }
}
