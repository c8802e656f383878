//! Witness maintenance: the moves that keep a linearization alive as
//! operations complete, so that most checks need no search.
//!
//! **Cost.**  A monitor owes a verdict after every symbol for as long as the
//! object lives, so no maintenance move may cost the length of the history
//! `m`.  The witness keeps a position index over the dense `OpId`s (is this
//! operation in the order, and where) next to the order and the state path;
//! with `c` the operations concurrent with the completed one (the entries a
//! backward scan passes before one that must precede it) and `s` the length
//! of a replayed suffix, a completed operation touches:
//!
//! | move                         | witness entries and states touched          |
//! |------------------------------|---------------------------------------------|
//! | assumed response confirmed   | 1 (index lookup)                            |
//! | append splice                | `c` scanned, 1 state pushed                 |
//! | mid-order splice at `i`      | `c` scanned, `s = m − i` replayed and re-indexed per attempt, ≤ 16 attempts |
//! | excision                     | `s` replayed in place; an illegal replay discards the witness |
//! | pending rescue               | one index lookup per open operation, 2 states pushed |
//! | witness discarded            | `m` ids copied into the stored frontier, then the DFS |
//! | DFS fallback                 | ≥ `m` nodes on an explicit heap stack (`search.rs`); without a witness and without an orphan, under LIN once (the NO latches), under SC at each mutator invocation of a process a refuted configuration could complete (the NO stands in between), after `Unknown` at every symbol |
//! | orphan check (R4)            | none while a witness is alive; without one, a completion looks its producer up in a set of the history's invocation ids (built in one pass at the first such completion, caught up with the records appended since at each one after); an invocation looks its id up among the orphans' producers (and is compared with each orphan whose producer the arena had never seen, if it is an arena slot); a restore makes one pass over the records |
//!
//! [`IncrementalChecker::maintenance_steps`](super::IncrementalChecker::maintenance_steps)
//! counts the first six rows, so tests can assert the bound without a clock.  What still grows with `m`
//! is memory, not time per event: one record, one per-process list entry and
//! one witness entry (order, state, position index) per operation — ids and
//! positions only.  A checkpoint does not:
//! [`IncrementalChecker::checkpoint_delta`](super::IncrementalChecker::checkpoint_delta)
//! writes the symbols read since the previous one and the witness from the
//! first entry any move above touched since (a watermark the moves lower),
//! so it costs the interval plus the witness churn.  Only the full form,
//! and a frontier stored while no witness is alive, are written whole.

use super::Core;
use crate::history::ArenaRead;
use drv_lang::{Interner, OpId, ResponseId};
use drv_spec::SequentialSpec;

/// How many suffix replays a splice scan may attempt before the
/// frontier-guided DFS takes over (see `incorporate_completion`).
const MAX_SPLICE_REPLAYS: usize = 16;

/// Marks an operation the witness does not contain in
/// [`WitnessPath::position`].
const ABSENT: u32 = u32::MAX;

pub(super) struct WitnessPath<S: SequentialSpec> {
    /// Linearization order with interned responses.
    pub(super) order: Vec<(OpId, ResponseId)>,
    /// `states[i]` is the sequential state after the first `i` operations;
    /// `states[0]` is the initial state (so `states.len() == order.len()+1`).
    pub(super) states: Vec<S::State>,
    /// `position[op.0]` is the index of `op` in `order`, or [`ABSENT`];
    /// operations past the end of the table are absent too.  Kept in step
    /// with `order` by every method that changes it.
    position: Vec<u32>,
    /// `order[..clean]` is what it was at the last checkpoint delta: every
    /// method that changes an entry lowers it to that entry's index, and
    /// the delta writes only `order[clean..]`.
    pub(super) clean: usize,
}

impl<S: SequentialSpec> WitnessPath<S> {
    /// The empty order, at `initial`.
    pub(super) fn new(initial: S::State) -> Self {
        WitnessPath {
            order: Vec::new(),
            states: vec![initial],
            position: Vec::new(),
            clean: 0,
        }
    }

    /// Replaces the `removed` entries from `index` on with `entries`;
    /// `states` holds the state after each operation the order then has
    /// from `index` on, the shifted ones included.  The one edit of every
    /// move: an insert removes none, a removal inserts none.
    pub(super) fn splice(
        &mut self,
        index: usize,
        removed: usize,
        entries: &[(OpId, ResponseId)],
        states: impl IntoIterator<Item = S::State>,
    ) {
        for (id, _) in &self.order[index..index + removed] {
            self.position[id.0] = ABSENT;
        }
        self.order
            .splice(index..index + removed, entries.iter().copied());
        self.states.truncate(index + 1);
        self.states.extend(states);
        debug_assert_eq!(self.states.len(), self.order.len() + 1);
        self.reindex_from(index);
        self.clean = self.clean.min(index);
    }

    /// Where `op` sits in the order, if the witness contains it.
    fn position_of(&self, op: OpId) -> Option<usize> {
        match self.position.get(op.0) {
            Some(&index) if index != ABSENT => Some(index as usize),
            _ => None,
        }
    }

    /// The linearization order without the responses: what the search
    /// frontier is while this witness is alive.
    pub(super) fn ids(&self) -> Vec<OpId> {
        self.order.iter().map(|(id, _)| *id).collect()
    }

    /// Re-records the positions of `order[from..]` (everything an insert or
    /// a removal at `from` shifted).
    fn reindex_from(&mut self, from: usize) {
        for (index, (id, _)) in self.order.iter().enumerate().skip(from) {
            if self.position.len() <= id.0 {
                self.position.resize(id.0 + 1, ABSENT);
            }
            self.position[id.0] = u32::try_from(index).expect("< 2^32 ops");
        }
    }
}

impl<S: SequentialSpec> Core<S> {
    /// Gives up on `witness`: its order becomes the stored search frontier.
    pub(super) fn discard(&mut self, witness: &WitnessPath<S>) {
        self.maintenance_steps += witness.order.len() as u64;
        self.frontier = witness.ids();
    }

    /// Greedy witness maintenance for a newly completed operation.
    pub(super) fn incorporate_completion(&mut self, arena: &mut ArenaRead<'_>, op: OpId) {
        let Some(mut witness) = self.witness.take() else {
            return;
        };
        let record = self.history.record(op);
        let observed = record.response.expect("completed op has a response");

        // Case 1: the operation is already in the witness — the previous
        // search completed it as a pending op with the specification
        // response.  If that response is what actually came back, the
        // witness (orders and legality untouched by the completion — the new
        // response position creates no constraint *on* ops already ordered
        // before it) survives unchanged.
        if let Some(position) = witness.position_of(op) {
            if witness.order[position].1 == observed {
                self.stats.splices += 1;
                self.witness = Some(witness);
                return;
            }
            // The assumed response was wrong: excise the operation and fall
            // through to re-splicing it afresh at a position where the actual
            // response is legal (under a deterministic specification it is
            // never legal where the assumed one stood).
            if !self.remove_at(arena.interner(), &mut witness, position) {
                self.discard(&witness);
                return;
            }
        }

        // Case 2: splice the operation into the order.  It must come after
        // all earlier operations of its process (program order) and — for
        // linearizability — after every operation that precedes it in real
        // time.  Nothing is forced *after* it: its response is the latest
        // symbol, so it precedes no operation yet.  The last such entry is
        // found from the back: everything the scan passes over is an
        // operation the new one may still be ordered before.
        let m = witness.order.len();
        let mut lo = 0usize;
        for (i, (id, _)) in witness.order.iter().enumerate().rev() {
            self.maintenance_steps += 1;
            let q = self.history.record(*id);
            let program_order = q.proc == record.proc && q.local_index < record.local_index;
            let real_time = self.config.respect_real_time && q.precedes(&record);
            if program_order || real_time {
                lo = i + 1;
                break;
            }
        }
        // Deepest-first, with a replay budget: without real-time pruning
        // (sequential consistency) `lo` can be far from `m`, and replaying
        // the suffix at every candidate position would cost O(m²) — past the
        // budget the frontier-guided DFS is the cheaper fallback.
        let mut replays = 0usize;
        let interner = arena.interner();
        for i in (lo..=m).rev() {
            self.maintenance_steps += 1;
            let Some(state) = self.step(interner, &witness.states[i], (op, observed)) else {
                continue;
            };
            if replays >= MAX_SPLICE_REPLAYS {
                break;
            }
            replays += 1;
            // Replay the suffix on the shifted state.
            let mut replayed = 0;
            let suffix = self.replay(interner, &state, &witness.order[i..], &mut replayed);
            self.maintenance_steps += replayed;
            let Ok(suffix) = suffix else {
                continue;
            };
            witness.splice(
                i,
                0,
                &[(op, observed)],
                std::iter::once(state).chain(suffix),
            );
            self.stats.splices += 1;
            self.witness = Some(witness);
            return;
        }
        // Pending rescue: the append can fail because the new operation
        // observed the effect of an operation that is still pending — its
        // view ran ahead of its acknowledgement, the signature pattern of
        // the Figure 8 sketches.  Linearize one such open operation at the
        // end (with its specification response, exactly as the search
        // would), then append the new operation after it.
        for q in self.history.open_ops() {
            if witness.position_of(q).is_some() {
                continue;
            }
            let q_record = self.history.record(q);
            let interner = arena.interner();
            let Some((mid_state, q_response)) = self.spec.apply(
                &witness.states[m],
                &interner.resolve_invocation(q_record.invocation),
            ) else {
                continue;
            };
            let Some(final_state) = self.step(interner, &mid_state, (op, observed)) else {
                continue;
            };
            let assumed = arena.response(&q_response);
            witness.splice(
                m,
                0,
                &[(q, assumed), (op, observed)],
                [mid_state, final_state],
            );
            self.stats.splices += 1;
            self.witness = Some(witness);
            return;
        }

        // No legal splice: keep the old order as the search frontier.
        self.discard(&witness);
    }

    /// The state after `op` answers `response` at `state`, if the
    /// specification allows that step: the one legality test of every move.
    fn step(
        &self,
        interner: &Interner,
        state: &S::State,
        (op, response): (OpId, ResponseId),
    ) -> Option<S::State> {
        let record = self.history.record(op);
        self.spec.step_if_legal(
            state,
            &interner.resolve_invocation(record.invocation),
            &interner.resolve_response(response),
        )
    }

    /// Replays `entries` from `start`: the state after each of them, or the
    /// index in `entries` of the first whose step is illegal.  Adds the
    /// steps it takes to `replayed`.
    pub(super) fn replay(
        &self,
        interner: &Interner,
        start: &S::State,
        entries: &[(OpId, ResponseId)],
        replayed: &mut u64,
    ) -> Result<Vec<S::State>, usize> {
        let mut states: Vec<S::State> = Vec::with_capacity(entries.len());
        for (index, &entry) in entries.iter().enumerate() {
            *replayed += 1;
            let next = self
                .step(interner, states.last().unwrap_or(start), entry)
                .ok_or(index)?;
            states.push(next);
        }
        Ok(states)
    }

    /// Removes the operation at `position` and replays the suffix; `false`,
    /// with the witness untouched, when the suffix is illegal without it.
    fn remove_at(
        &mut self,
        interner: &Interner,
        witness: &mut WitnessPath<S>,
        position: usize,
    ) -> bool {
        let mut replayed = 0;
        let suffix = self.replay(
            interner,
            &witness.states[position],
            &witness.order[position + 1..],
            &mut replayed,
        );
        self.maintenance_steps += replayed;
        let Ok(suffix) = suffix else {
            return false;
        };
        witness.splice(position, 1, &[], suffix);
        true
    }

    /// Installs a search-produced linearization as the maintained witness,
    /// rebuilding the state path once (outside the search, and uncounted).
    pub(super) fn install_witness(
        &mut self,
        arena: &mut ArenaRead<'_>,
        order: Vec<(OpId, ResponseId)>,
    ) {
        let mut witness = WitnessPath::new(self.spec.initial());
        let states = self
            .replay(arena.interner(), &witness.states[0], &order, &mut 0)
            .expect("witness found by the search replays legally");
        witness.splice(0, 0, &order, states);
        self.witness = Some(witness);
    }
}
