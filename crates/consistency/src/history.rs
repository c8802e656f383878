//! Concurrent histories: the operation-level view of a word used by the
//! consistency checkers.
//!
//! Two representations live here:
//!
//! * [`ConcurrentHistory`] — the original, payload-carrying view built in one
//!   shot from a word; used by the from-scratch [`crate::check_history`],
//! * [`InternedHistory`] — an append-only, interned view (operations are
//!   `Copy` [`OpRecord`]s, payloads live in an arena outside the history,
//!   shared by every checker of an engine) fed symbol by symbol; the
//!   representation of the [`crate::IncrementalChecker`], and the only copy
//!   it keeps of the word it has read.

use drv_lang::{
    EventAction, Interner, InternerReadGuard, Invocation, InvocationId, OpId, OpRecord, Operation,
    ProcId, Response, ResponseId, SharedInterner, Word,
};

/// A concurrent history extracted from a finite word: the matched operations,
/// organized per process, with real-time precedence helpers.
///
/// Operation ids are indices into [`ConcurrentHistory::ops`], assigned in
/// invocation order, exactly as in [`drv_lang::operations`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentHistory {
    ops: Vec<Operation>,
    per_proc: Vec<Vec<OpId>>,
    n: usize,
}

impl ConcurrentHistory {
    /// Builds the history of a finite word for `n` processes.  Processes with
    /// ids `≥ n` found in the word extend `n` automatically.
    #[must_use]
    pub fn from_word(word: &Word, n: usize) -> Self {
        let ops = word.operations();
        let max_proc = ops.iter().map(|o| o.proc.0 + 1).max().unwrap_or(0);
        let n = n.max(max_proc);
        let mut per_proc: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for op in &ops {
            per_proc[op.proc.0].push(op.id);
        }
        ConcurrentHistory { ops, per_proc, n }
    }

    /// Number of processes of the history.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// All operations, in invocation order.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the history has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this history.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0]
    }

    /// The operations of `proc` in program order.
    #[must_use]
    pub fn ops_of(&self, proc: ProcId) -> &[OpId] {
        &self.per_proc[proc.0]
    }

    /// Number of *complete* operations.
    #[must_use]
    pub fn complete_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_complete()).count()
    }

    /// Number of *pending* operations.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_pending()).count()
    }

    /// Given the per-process progress `counts` (number of already-linearized
    /// operations of each process), returns the candidate operation of `proc`
    /// (its next unlinearized operation), if any.
    #[must_use]
    pub fn next_of(&self, proc: ProcId, counts: &[usize]) -> Option<&Operation> {
        self.per_proc[proc.0]
            .get(counts[proc.0])
            .map(|id| self.op(*id))
    }

    /// Returns `true` when `candidate` may be linearized next given the
    /// per-process progress `counts`, i.e. no *unlinearized* operation
    /// precedes it in real time.
    ///
    /// Only the first unlinearized operation of each process needs checking:
    /// if it does not precede `candidate`, no later operation of the same
    /// process does either.
    #[must_use]
    pub fn respects_real_time(&self, candidate: &Operation, counts: &[usize]) -> bool {
        for (per, &count) in self.per_proc.iter().zip(counts) {
            if let Some(id) = per.get(count) {
                let first_unlinearized = self.op(*id);
                if first_unlinearized.id != candidate.id && first_unlinearized.precedes(candidate) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every process has been fully linearized or only its
    /// trailing pending operation remains (both criteria may drop it).
    #[must_use]
    pub fn is_done(&self, counts: &[usize]) -> bool {
        for (per, &count) in self.per_proc.iter().zip(counts) {
            let remaining = &per[count..];
            match remaining {
                [] => {}
                [single] if self.op(*single).is_pending() => {}
                _ => return false,
            }
        }
        true
    }
}

/// What [`InternedHistory::push`] did with a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryDelta {
    /// The symbol opened a new (pending) operation.
    Invoked(OpId),
    /// The symbol completed the given operation.
    Completed(OpId),
    /// The symbol was ill-formed at this point (orphan response, invocation
    /// while pending) and was skipped, exactly as [`drv_lang::operations`]
    /// skips it.
    Skipped,
}

/// A symbol the history skipped: part of the word, of no operation.
#[derive(Debug, Clone, Copy)]
struct SkippedSymbol {
    position: u32,
    proc: ProcId,
    action: EventAction,
}

/// One run's access to a payload arena shared with other checkers and, in an
/// engine, with the producers interning into it, possibly on other threads:
/// a read guard taken at the first use and held to the end of the run, so
/// resolving a payload is an index, not a lock.
///
/// A thread that holds the guard must not intern: a writer queued behind the
/// guard blocks new readers and the thread would wait on itself.  So a
/// payload is probed under the guard, and only one the arena has never seen
/// costs a release, the write, and a fresh guard at the next use.  A scalar
/// payload is its own id ([`InvocationId::inline`]) and is interned without
/// the guard; a run that resolves a payload for its specification still
/// takes it, once.
pub(crate) struct ArenaRead<'a> {
    handle: &'a SharedInterner,
    guard: Option<InternerReadGuard<'a>>,
}

impl<'a> ArenaRead<'a> {
    /// Takes no lock yet: a run that never touches a payload never does.
    pub(crate) fn new(handle: &'a SharedInterner) -> Self {
        ArenaRead {
            handle,
            guard: None,
        }
    }

    /// The arena, under this run's guard.
    pub(crate) fn interner(&mut self) -> &Interner {
        self.guard.get_or_insert_with(|| self.handle.read())
    }

    /// Gives the guard up and returns the handle, for interning.
    pub(crate) fn release(&mut self) -> &'a SharedInterner {
        self.guard = None;
        self.handle
    }

    /// The id of `invocation`, interned on first sight.
    pub(crate) fn invocation(&mut self, invocation: &Invocation) -> InvocationId {
        if let Some(id) = InvocationId::inline(invocation) {
            return id;
        }
        match self.interner().lookup_invocation(invocation) {
            Some(id) => id,
            None => self.release().invocation(invocation),
        }
    }

    /// The id of `response`, interned on first sight.
    pub(crate) fn response(&mut self, response: &Response) -> ResponseId {
        if let Some(id) = ResponseId::inline(response) {
            return id;
        }
        match self.interner().lookup_response(response) {
            Some(id) => id,
            None => self.release().response(response),
        }
    }
}

/// An append-only concurrent history over interned operations.
///
/// Grown one symbol at a time by [`InternedHistory::push`].  The history
/// holds ids only: the payloads live in an arena the caller owns (the
/// [`crate::IncrementalChecker`]'s [`SharedInterner`], one per engine), and
/// the per-operation view is the `Copy`-able [`OpRecord`].  It is also the
/// only copy of the word: a well-formed symbol is the invocation or response
/// side of a record, a skipped one is kept on the side, and together they
/// give back every consumed symbol with its position.  Mirrors the query
/// surface of [`ConcurrentHistory`] (`next_of`, `respects_real_time`,
/// `is_done`) so the Wing–Gong search runs unchanged on either
/// representation.
#[derive(Debug, Clone, Default)]
pub struct InternedHistory {
    records: Vec<OpRecord>,
    per_proc: Vec<Vec<OpId>>,
    /// Per-process index into `records` of the currently open operation.
    open: Vec<Option<usize>>,
    /// The ill-formed symbols, in position order (rare).
    skipped: Vec<SkippedSymbol>,
    /// Number of symbols consumed so far (= next symbol position).
    symbols: usize,
    n: usize,
}

impl InternedHistory {
    /// Creates an empty history for (at least) `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        InternedHistory {
            records: Vec::new(),
            per_proc: vec![Vec::new(); n],
            open: vec![None; n],
            skipped: Vec::new(),
            symbols: 0,
            n,
        }
    }

    /// Clears the history but keeps its allocations.
    pub fn reset(&mut self) {
        self.records.clear();
        for per in &mut self.per_proc {
            per.clear();
        }
        for slot in &mut self.open {
            *slot = None;
        }
        self.skipped.clear();
        self.symbols = 0;
    }

    /// Grows the history to (at least) `n` processes.
    pub(crate) fn adopt_processes(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
            self.per_proc.resize_with(n, Vec::new);
            self.open.resize(n, None);
        }
    }

    /// Consumes the next symbol, `proc`'s interned invocation or response.
    pub fn push(&mut self, proc: ProcId, action: EventAction) -> HistoryDelta {
        self.adopt_processes(proc.0 + 1);
        let position = u32::try_from(self.symbols).expect("< 2^32 symbols");
        self.symbols += 1;
        let p = proc.0;
        match (action, self.open[p]) {
            (EventAction::Invoke(invocation), None) => {
                let id = OpId(self.records.len());
                let local_index = u32::try_from(self.per_proc[p].len()).expect("< 2^32 ops");
                self.open[p] = Some(self.records.len());
                self.per_proc[p].push(id);
                self.records.push(OpRecord {
                    id,
                    proc,
                    invocation,
                    response: None,
                    inv_pos: position,
                    resp_pos: None,
                    local_index,
                });
                HistoryDelta::Invoked(id)
            }
            (EventAction::Respond(response), Some(index)) => {
                self.open[p] = None;
                let record = &mut self.records[index];
                record.response = Some(response);
                record.resp_pos = Some(position);
                HistoryDelta::Completed(record.id)
            }
            _ => {
                self.skipped.push(SkippedSymbol {
                    position,
                    proc,
                    action,
                });
                HistoryDelta::Skipped
            }
        }
    }

    /// The consumed word, symbol by symbol in position order, rebuilt from
    /// the records and the skipped symbols in one pass over both.
    pub(crate) fn word(&self) -> impl Iterator<Item = (ProcId, EventAction)> + '_ {
        self.word_from(0)
    }

    /// The consumed word from position `from` on: what a checkpoint taken
    /// after `from` symbols adds to one taken there.  Costs the symbols it
    /// yields plus a binary search per process, never the prefix.
    pub(crate) fn word_from(
        &self,
        from: usize,
    ) -> impl Iterator<Item = (ProcId, EventAction)> + '_ {
        let from = u32::try_from(from.min(self.symbols)).expect("< 2^32 symbols");
        // Records are in invocation order and skipped symbols in position
        // order, so the next invocation and the next skipped symbol are at
        // two cursors; a position that is neither is the response of an
        // operation invoked earlier and not answered yet — at most one per
        // process, kept in `awaiting`.  At `from` those are the operations
        // invoked before it and answered at or after it: of each process
        // only the last one it invoked before `from` can be.
        let mut next_record = self.records.partition_point(|record| record.inv_pos < from);
        let mut next_skipped = self
            .skipped
            .partition_point(|skipped| skipped.position < from);
        let mut awaiting: Vec<usize> = self
            .per_proc
            .iter()
            .filter_map(|ops| {
                let before = ops.partition_point(|id| self.records[id.0].inv_pos < from);
                let last = self.records[ops[..before].last()?.0];
                last.resp_pos
                    .is_some_and(|at| at >= from)
                    .then_some(last.id.0)
            })
            .collect();
        let mut positions = from..u32::try_from(self.symbols).expect("< 2^32 symbols");
        std::iter::from_fn(move || {
            let position = positions.next()?;
            if let Some(record) = self.records.get(next_record) {
                if record.inv_pos == position {
                    if record.is_complete() {
                        awaiting.push(next_record);
                    }
                    next_record += 1;
                    return Some((record.proc, EventAction::Invoke(record.invocation)));
                }
            }
            if let Some(skipped) = self.skipped.get(next_skipped) {
                if skipped.position == position {
                    next_skipped += 1;
                    return Some((skipped.proc, skipped.action));
                }
            }
            let answered = awaiting
                .iter()
                .position(|&index| self.records[index].resp_pos == Some(position))
                .expect("a position is an invocation, a skipped symbol or a response");
            let record = &self.records[awaiting.swap_remove(answered)];
            let response = record.response.expect("a complete record has a response");
            Some((record.proc, EventAction::Respond(response)))
        })
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no operations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of symbols consumed so far, skipped ones included.
    #[must_use]
    pub fn symbols_consumed(&self) -> usize {
        self.symbols
    }

    /// The record of an operation (a cheap copy).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this history.
    #[must_use]
    pub fn record(&self, id: OpId) -> OpRecord {
        self.records[id.0]
    }

    /// All records, in invocation order.
    #[must_use]
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The operations of `proc` in program order.
    #[must_use]
    pub fn ops_of(&self, proc: ProcId) -> &[OpId] {
        &self.per_proc[proc.0]
    }

    /// The candidate operation of `proc` given per-process progress `counts`.
    #[must_use]
    pub fn next_of(&self, proc: ProcId, counts: &[u32]) -> Option<OpRecord> {
        self.per_proc[proc.0]
            .get(counts[proc.0] as usize)
            .map(|id| self.records[id.0])
    }

    /// The currently open (pending) operation of each process, in process
    /// order.
    #[must_use]
    pub fn open_ops(&self) -> Vec<OpId> {
        self.open
            .iter()
            .filter_map(|slot| slot.map(|index| self.records[index].id))
            .collect()
    }

    /// The id of `proc`'s `local_index`-th operation, if it exists.
    ///
    /// `(proc, local_index)` identifies an operation across *rebuilds* of a
    /// history (word-position-based [`OpId`]s do not survive them), which is
    /// what lets the incremental checker carry its search frontier over to a
    /// reconstructed history.
    #[must_use]
    pub fn op_at(&self, proc: ProcId, local_index: u32) -> Option<OpId> {
        self.per_proc
            .get(proc.0)?
            .get(local_index as usize)
            .copied()
    }

    /// Returns `true` when `candidate` may be linearized next: no
    /// unlinearized operation precedes it in real time (cf.
    /// [`ConcurrentHistory::respects_real_time`]).
    #[must_use]
    pub fn respects_real_time(&self, candidate: OpRecord, counts: &[u32]) -> bool {
        for (per, &count) in self.per_proc.iter().zip(counts) {
            if let Some(id) = per.get(count as usize) {
                let first = self.records[id.0];
                if first.id != candidate.id && first.precedes(&candidate) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when every process is fully linearized, up to trailing
    /// droppable pending operations (cf. [`ConcurrentHistory::is_done`]).
    #[must_use]
    pub fn is_done(&self, counts: &[u32]) -> bool {
        for (per, &count) in self.per_proc.iter().zip(counts) {
            let remaining = &per[count as usize..];
            match remaining {
                [] => {}
                [single] if self.records[single.0].is_pending() => {}
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::WordBuilder;

    fn history() -> ConcurrentHistory {
        // p1: |-w(1)-|      |--w(2)--|
        // p2:    |-----r:1-----|
        let w = WordBuilder::new()
            .invoke(ProcId(0), Invocation::Write(1))
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(0), Response::Ack)
            .respond(ProcId(1), Response::Value(1))
            .invoke(ProcId(0), Invocation::Write(2))
            .respond(ProcId(0), Response::Ack)
            .build();
        ConcurrentHistory::from_word(&w, 2)
    }

    #[test]
    fn construction_counts() {
        let h = history();
        assert_eq!(h.process_count(), 2);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.complete_count(), 3);
        assert_eq!(h.pending_count(), 0);
        assert_eq!(h.ops_of(ProcId(0)).len(), 2);
        assert_eq!(h.ops_of(ProcId(1)).len(), 1);
    }

    #[test]
    fn process_count_extends_to_cover_word() {
        let w = WordBuilder::new()
            .op(ProcId(4), Invocation::Read, Response::Value(0))
            .build();
        let h = ConcurrentHistory::from_word(&w, 2);
        assert_eq!(h.process_count(), 5);
    }

    #[test]
    fn next_of_tracks_progress() {
        let h = history();
        let counts = vec![0, 0];
        let first_p0 = h.next_of(ProcId(0), &counts).unwrap();
        assert_eq!(first_p0.invocation, Invocation::Write(1));
        let counts = vec![1, 0];
        let second_p0 = h.next_of(ProcId(0), &counts).unwrap();
        assert_eq!(second_p0.invocation, Invocation::Write(2));
        let counts = vec![2, 1];
        assert!(h.next_of(ProcId(0), &counts).is_none());
    }

    #[test]
    fn real_time_blocking() {
        let h = history();
        // write(2) cannot be linearized before write(1) and read are done.
        let write2 = h.op(OpId(2));
        assert!(!h.respects_real_time(write2, &[0, 0]));
        assert!(!h.respects_real_time(write2, &[1, 0]));
        assert!(h.respects_real_time(write2, &[1, 1]));
        // write(1) and read are mutually concurrent: both can go first.
        assert!(h.respects_real_time(h.op(OpId(0)), &[0, 0]));
        assert!(h.respects_real_time(h.op(OpId(1)), &[0, 0]));
    }

    #[test]
    fn is_done_handles_pending() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .invoke(ProcId(1), Invocation::Read)
            .build();
        let h = ConcurrentHistory::from_word(&w, 2);
        assert_eq!(h.pending_count(), 1);
        assert!(!h.is_done(&[0, 0]));
        assert!(h.is_done(&[1, 0]));
        assert!(h.is_done(&[1, 1]));
    }
}
