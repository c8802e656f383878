//! The rules that answer NO without a search, or keep a NO standing.
//!
//! **A sequential-consistency NO stands until a process that is not blocked
//! invokes a mutator.**  After a search has refuted the history, the next
//! symbol cannot create a witness when it is (R0) ill-formed and skipped:
//! the history is the same; (R1) a response: the operation was pending in
//! the refuted history, a witness of the longer word linearizes it where
//! the specification produces exactly the observed response, and is
//! therefore a witness of the refuted word too; (R2) the invocation of an
//! observer (`!Invocation::is_mutator()`): deleting a state-preserving
//! operation from a witness leaves a witness; (R3) the invocation of a
//! mutator by a *blocked* process.  The refuting search records, per
//! process `p`, whether any configuration it entered had all of `p`'s
//! operations placed (linearized or dropped); `p` is blocked when none did.
//! A witness of the longer word must place the new operation (dropping it
//! would leave a witness of the refuted word), and with it every earlier
//! operation of `p`, which takes a configuration of the refuted word's own
//! search with all of them placed.  The set stays valid across R0–R3 (R1
//! relies on [`SequentialSpec::step_if_legal`] reaching the state `apply`
//! gives, so the longer word's configurations are among the refuted one's),
//! and a checkpoint carries it.  Only the invocation of a mutator by
//! another process searches again — from the same stored frontier, so with
//! the nodes, outcome and witness a per-symbol search would have had there
//! — and a search that refutes again records the set afresh.  `Unknown` is
//! not knowledge and never stands.
//!
//! **A response no invocation of the history can produce is a NO without
//! a search** (R4).  [`SequentialSpec::producer`] names, for some steps,
//! an invocation that every legal sequential word taking the step invokes
//! before it: a register's read of `v` other than the initial value needs
//! `write(v)`, a dequeue or pop of `x` needs `enqueue(x)` or `push(x)`.  A
//! complete operation whose producer no operation of the history invokes,
//! pending or complete, of any process, is an *orphan*.  A witness places
//! every complete operation, so it would place the orphan, and some
//! operation before it would invoke the producer: there is no witness,
//! under either criterion.  This is the first clause of Golab, Li &
//! Shah's zone test ("no read precedes its write", PODC 2011) where the
//! write does not exist at all, for every specification that names
//! producers.  The engine looks for orphans only where one can be: a
//! witness proves the history has none, so only a completion that leaves
//! the checker without a witness is checked, and the orphans found are
//! kept, keyed by their producer's id, until an invocation of it drops
//! them: an invocation costs one lookup however many orphans stand.  A
//! check without a witness answers from them before any search.  Under
//! linearizability the NO latches.  Under sequential consistency it stands,
//! with the orphans' owners as the blocked set: no configuration of any
//! search of this history places all of an owner's operations, so the set
//! is a subset of the one a refuting search records, and R3's proof holds
//! for it as it stands.  Where R3 would end a standing NO at a mutator of
//! a process that is not blocked and an orphan is left, the NO stays, and
//! the blocked set becomes the owners of the orphans left.  A restore
//! rebuilds the orphans with one pass over the history, so a restored
//! checker holds what the live one does; a checkpoint carries nothing new.

use super::{CheckOutcome, Core};
use crate::history::ArenaRead;
use drv_lang::{hash, Interner, Invocation, InvocationId, OpId, OpRecord, ProcId};
use drv_spec::SequentialSpec;

/// The ids the history's first `covered` records invoke (R4's producer
/// probe).  Records are only ever appended, so catching up is a pass over
/// the ones since.
#[derive(Default)]
pub(super) struct InvokedIds {
    ids: hash::HashSet<InvocationId>,
    covered: usize,
}

/// R4's orphans, keyed by the producer each needs, so that an invocation
/// costs one lookup, not a comparison with each orphan.  A producer the
/// arena holds is keyed by its id (every scalar payload is its own id, so
/// it always is); one the arena had never interned when the orphan was
/// noted is kept by payload, since its first invocation interns it into a
/// slot of its own.
#[derive(Default)]
pub(super) struct Orphans {
    /// The owners of the orphans waiting on each producer id.
    pub(super) by_id: hash::HashMap<InvocationId, Vec<ProcId>>,
    /// Orphans whose producer the arena had never seen: the owner, and the
    /// invocation it needs.
    pub(super) unseen: Vec<(ProcId, Invocation)>,
}

impl Orphans {
    pub(super) fn is_empty(&self) -> bool {
        self.by_id.is_empty() && self.unseen.is_empty()
    }

    pub(super) fn clear(&mut self) {
        self.by_id.clear();
        self.unseen.clear();
    }

    /// Records `owner`'s orphan, which needs `needs`, an invocation no
    /// operation of the history invokes; `id` is its id in the arena, if
    /// the arena holds it.
    fn insert(&mut self, id: Option<InvocationId>, owner: ProcId, needs: Invocation) {
        match id {
            Some(id) => self.by_id.entry(id).or_default().push(owner),
            None => self.unseen.push((owner, needs)),
        }
    }

    /// Drops the orphans an invocation of `id` produces for.  Only an
    /// orphan kept by payload takes the arena's guard.
    pub(super) fn invoked(&mut self, arena: &mut ArenaRead<'_>, id: InvocationId) {
        self.by_id.remove(&id);
        // A payload the arena had never seen is interned into a slot.
        if !self.unseen.is_empty() && !id.is_inline() {
            let invocation = arena.interner().resolve_invocation(id);
            self.unseen.retain(|(_, needs)| *needs != *invocation);
        }
    }
}

impl<S: SequentialSpec> Core<S> {
    /// Records the complete operation `op` as an orphan when its response
    /// needs a producer that no operation of the history invokes (R4).
    pub(super) fn note_orphan(&mut self, arena: &mut ArenaRead<'_>, op: OpId) {
        let record = self.history.record(op);
        let interner = arena.interner();
        let Some(needs) = self.producer_of(interner, &record) else {
            return;
        };
        let records = self.history.records();
        let invoked = self.invoked.get_or_insert_with(Box::default);
        invoked
            .ids
            .extend(records[invoked.covered..].iter().map(|q| q.invocation));
        invoked.covered = records.len();
        // A payload the arena has never seen is invoked nowhere.
        let id = interner.lookup_invocation(&needs);
        if !id.is_some_and(|id| invoked.ids.contains(&id)) {
            self.orphans.insert(id, record.proc, needs);
        }
    }

    /// The orphans of the whole history, found in one pass over it (R4):
    /// what a checker that read the history symbol by symbol holds.
    pub(super) fn rebuild_orphans(&mut self, arena: &mut ArenaRead<'_>) {
        self.orphans.clear();
        self.invoked = None;
        if self.latched_inconsistent || self.witness.is_some() {
            return;
        }
        // The first probe that needs the invoked ids takes all of them.
        for op in 0..self.history.records().len() {
            self.note_orphan(arena, OpId(op));
        }
    }

    /// The producer `record`'s response needs, if it is complete and needs
    /// one ([`SequentialSpec::producer`]).
    fn producer_of(&self, interner: &Interner, record: &OpRecord) -> Option<Invocation> {
        self.spec.producer(
            &interner.resolve_invocation(record.invocation),
            &interner.resolve_response(record.response?),
        )
    }

    /// A definite NO: final under linearizability, which is prefix-closed
    /// (the NO holds for every extension of this word, and no orphan needs
    /// keeping), and standing under sequential consistency with `blocked`.
    pub(super) fn refuted(&mut self, blocked: Vec<bool>) -> CheckOutcome {
        if self.config.respect_real_time {
            self.latched_inconsistent = true;
            self.orphans.clear();
        } else {
            self.standing_no = Some(blocked);
        }
        CheckOutcome::Inconsistent
    }

    /// The orphans' owners, as a blocked set: no configuration of any search
    /// could place all of an owner's operations (R4).
    pub(super) fn orphan_owners(&self) -> Vec<bool> {
        let mut blocked = vec![false; self.history.process_count()];
        let Orphans { by_id, unseen } = &self.orphans;
        for owner in by_id
            .values()
            .flatten()
            .chain(unseen.iter().map(|(owner, _)| owner))
        {
            blocked[owner.0] = true;
        }
        blocked
    }
}
