//! The generic consistency checker: a Wing–Gong style depth-first search over
//! linearization orders, with memoization, used for both linearizability
//! (real-time respecting) and sequential consistency (program-order only).
//!
//! The checker works on a [`ConcurrentHistory`] and a [`SequentialSpec`]:
//!
//! * it searches for a total order of the operations that is legal for the
//!   sequential object,
//! * respecting program order always, and real-time order when
//!   [`CheckerConfig::respect_real_time`] is set,
//! * completing or dropping *pending* operations (the definitions of both
//!   linearizability and sequential consistency allow appending responses to
//!   pending operations and removing the rest).
//!
//! Memoization key: the per-process progress vector plus the sequential state.
//! Because program order is always respected, the set of linearized
//! operations is fully described by how many operations of each process have
//! been linearized, which keeps the memo table small.

use crate::history::ConcurrentHistory;
use drv_lang::{OpId, ProcId, Response, Word};
use drv_spec::SequentialSpec;
use std::collections::HashSet;

/// A sequential witness produced by the checker: the linearization order with
/// the response assigned to each operation (observed responses for complete
/// operations, specification responses for completed-pending ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    /// Operations in linearization order, with their responses.
    pub order: Vec<(OpId, Response)>,
}

impl Witness {
    /// The operation ids in linearization order.
    #[must_use]
    pub fn op_order(&self) -> Vec<OpId> {
        self.order.iter().map(|(id, _)| *id).collect()
    }
}

/// Result of a consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyResult {
    /// The history is consistent; a witness order is attached.
    Consistent(Witness),
    /// The history is not consistent: no legal order exists.
    Inconsistent,
    /// The search budget was exhausted before an answer was found.
    Unknown,
}

impl ConsistencyResult {
    /// Returns `true` for [`ConsistencyResult::Consistent`].
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        matches!(self, ConsistencyResult::Consistent(_))
    }

    /// Extracts the witness, if the history was found consistent.
    #[must_use]
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            ConsistencyResult::Consistent(w) => Some(w),
            _ => None,
        }
    }
}

/// Configuration of the consistency checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// When `true`, the produced order must respect the real-time precedence
    /// relation of the history (linearizability); when `false`, only program
    /// order is respected (sequential consistency).
    pub respect_real_time: bool,
    /// Maximum number of DFS nodes to explore before giving up with
    /// [`ConsistencyResult::Unknown`].
    pub max_states: usize,
}

impl CheckerConfig {
    /// Configuration for linearizability checks.
    #[must_use]
    pub fn linearizability() -> Self {
        CheckerConfig {
            respect_real_time: true,
            max_states: 1_000_000,
        }
    }

    /// Configuration for sequential-consistency checks.
    #[must_use]
    pub fn sequential_consistency() -> Self {
        CheckerConfig {
            respect_real_time: false,
            max_states: 1_000_000,
        }
    }

    /// Overrides the node budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig::linearizability()
    }
}

struct Dfs<'a, S: SequentialSpec> {
    spec: &'a S,
    history: &'a ConcurrentHistory,
    config: &'a CheckerConfig,
    visited: HashSet<(Vec<usize>, S::State)>,
    explored: usize,
    witness: Vec<(OpId, Response)>,
}

enum DfsOutcome {
    Found,
    NotFound,
    Budget,
}

impl<'a, S: SequentialSpec> Dfs<'a, S> {
    fn run(&mut self, counts: &mut Vec<usize>, state: S::State) -> DfsOutcome {
        if self.history.is_done(counts) {
            return DfsOutcome::Found;
        }
        if self.explored >= self.config.max_states {
            return DfsOutcome::Budget;
        }
        self.explored += 1;
        if !self.visited.insert((counts.clone(), state.clone())) {
            return DfsOutcome::NotFound;
        }

        let n = self.history.process_count();
        for p in 0..n {
            let Some(op) = self.history.next_of(ProcId(p), counts) else {
                continue;
            };
            if self.config.respect_real_time && !self.history.respects_real_time(op, counts) {
                continue;
            }
            // Choice 1: linearize the operation.
            let stepped = match &op.response {
                Some(observed) => self.spec.step_if_legal(&state, &op.invocation, observed),
                None => self
                    .spec
                    .apply(&state, &op.invocation)
                    .map(|(next, _resp)| next),
            };
            if let Some(next_state) = stepped {
                let assigned_response = match &op.response {
                    Some(observed) => observed.clone(),
                    None => self
                        .spec
                        .apply(&state, &op.invocation)
                        .map(|(_, r)| r)
                        .unwrap_or(Response::Ack),
                };
                counts[p] += 1;
                self.witness.push((op.id, assigned_response));
                match self.run(counts, next_state) {
                    DfsOutcome::Found => return DfsOutcome::Found,
                    DfsOutcome::Budget => return DfsOutcome::Budget,
                    DfsOutcome::NotFound => {}
                }
                self.witness.pop();
                counts[p] -= 1;
            }
            // Choice 2: drop a pending operation (only ever the last op of its
            // process, so dropping it simply finishes that process).
            if op.is_pending() {
                counts[p] += 1;
                match self.run(counts, state.clone()) {
                    DfsOutcome::Found => return DfsOutcome::Found,
                    DfsOutcome::Budget => return DfsOutcome::Budget,
                    DfsOutcome::NotFound => {}
                }
                counts[p] -= 1;
            }
        }
        DfsOutcome::NotFound
    }
}

/// Checks a concurrent history against a sequential specification.
#[must_use]
pub fn check_history<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory,
    config: &CheckerConfig,
) -> ConsistencyResult {
    let mut dfs = Dfs {
        spec,
        history,
        config,
        visited: HashSet::new(),
        explored: 0,
        witness: Vec::new(),
    };
    let mut counts = vec![0usize; history.process_count()];
    match dfs.run(&mut counts, spec.initial()) {
        DfsOutcome::Found => ConsistencyResult::Consistent(Witness { order: dfs.witness }),
        DfsOutcome::NotFound => ConsistencyResult::Inconsistent,
        DfsOutcome::Budget => ConsistencyResult::Unknown,
    }
}

/// Checks a finite word for linearizability with respect to `spec`
/// (Definition 2.4 instantiated with the given object).
#[must_use]
pub fn check_linearizable<S: SequentialSpec>(spec: &S, word: &Word, n: usize) -> ConsistencyResult {
    let history = ConcurrentHistory::from_word(word, n);
    check_history(spec, &history, &CheckerConfig::linearizability())
}

/// Convenience predicate: `true` when the word is linearizable.
///
/// A budget-exhausted check counts as *not* linearizable; use
/// [`check_linearizable`] to distinguish the three outcomes.
#[must_use]
pub fn is_linearizable<S: SequentialSpec>(spec: &S, word: &Word, n: usize) -> bool {
    check_linearizable(spec, word, n).is_consistent()
}

/// Checks a finite word for sequential consistency with respect to `spec`
/// (Definition 2.3 instantiated with the given object).
#[must_use]
pub fn check_sequentially_consistent<S: SequentialSpec>(
    spec: &S,
    word: &Word,
    n: usize,
) -> ConsistencyResult {
    let history = ConcurrentHistory::from_word(word, n);
    check_history(spec, &history, &CheckerConfig::sequential_consistency())
}

/// Convenience predicate: `true` when the word is sequentially consistent.
#[must_use]
pub fn is_sequentially_consistent<S: SequentialSpec>(spec: &S, word: &Word, n: usize) -> bool {
    check_sequentially_consistent(spec, word, n).is_consistent()
}

/// Validates a witness against the history it was produced from: program
/// order (and real-time order, when requested) must be respected and the
/// responses must replay legally on the specification.
#[must_use]
pub fn validate_witness<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory,
    witness: &Witness,
    respect_real_time: bool,
) -> bool {
    // Replay on the spec.
    let mut state = spec.initial();
    for (id, response) in &witness.order {
        let op = history.op(*id);
        match spec.step_if_legal(&state, &op.invocation, response) {
            Some(next) => state = next,
            None => return false,
        }
    }
    // Order constraints.
    let position: std::collections::HashMap<OpId, usize> = witness
        .order
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (*id, i))
        .collect();
    for a in history.ops() {
        for b in history.ops() {
            if a.id == b.id {
                continue;
            }
            let program_order = a.proc == b.proc && a.local_index < b.local_index;
            let real_time = respect_real_time && a.precedes(b);
            if program_order || real_time {
                if let (Some(pa), Some(pb)) = (position.get(&a.id), position.get(&b.id)) {
                    if pa >= pb {
                        return false;
                    }
                }
            }
        }
    }
    // Every complete operation must appear in the witness.
    for op in history.ops() {
        if op.is_complete() && !position.contains_key(&op.id) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{Invocation, ProcId, Response, WordBuilder};
    use drv_spec::{Queue, Register};

    const N: usize = 2;

    fn p(i: usize) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn sequential_register_history_is_linearizable() {
        let w = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        assert!(is_linearizable(&Register::new(), &w, N));
        assert!(is_sequentially_consistent(&Register::new(), &w, N));
    }

    #[test]
    fn stale_read_is_not_linearizable() {
        // write(1) completes strictly before read, yet read returns 0.
        let w = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        assert!(!is_linearizable(&Register::new(), &w, N));
        // But it *is* sequentially consistent: order read before write.
        assert!(is_sequentially_consistent(&Register::new(), &w, N));
    }

    #[test]
    fn read_of_never_written_value_is_not_sc() {
        let w = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(9))
            .build();
        assert!(!is_linearizable(&Register::new(), &w, N));
        assert!(!is_sequentially_consistent(&Register::new(), &w, N));
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        // p1: |---write(1)---|
        // p2:    |--read----|   (overlapping) -> 0 and 1 both linearizable
        let build = |value: u64| {
            WordBuilder::new()
                .invoke(p(0), Invocation::Write(1))
                .invoke(p(1), Invocation::Read)
                .respond(p(1), Response::Value(value))
                .respond(p(0), Response::Ack)
                .build()
        };
        assert!(is_linearizable(&Register::new(), &build(0), N));
        assert!(is_linearizable(&Register::new(), &build(1), N));
        assert!(!is_linearizable(&Register::new(), &build(7), N));
    }

    #[test]
    fn pending_write_can_justify_read() {
        // p1 invokes write(5) but never gets a response; p2 reads 5.
        let w = WordBuilder::new()
            .invoke(p(0), Invocation::Write(5))
            .op(p(1), Invocation::Read, Response::Value(5))
            .build();
        assert!(is_linearizable(&Register::new(), &w, N));
    }

    #[test]
    fn pending_op_can_be_dropped() {
        // p1's pending write(5) is never observed; history is linearizable by
        // dropping it.
        let w = WordBuilder::new()
            .op(p(1), Invocation::Read, Response::Value(0))
            .invoke(p(0), Invocation::Write(5))
            .build();
        assert!(is_linearizable(&Register::new(), &w, N));
    }

    #[test]
    fn real_time_order_of_writes_constrains_reads() {
        // w(1) ≺ w(2) ≺ read, read must not return 1.
        let good = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(2))
            .build();
        let bad = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        assert!(is_linearizable(&Register::new(), &good, N));
        assert!(!is_linearizable(&Register::new(), &bad, N));
        // Sequential consistency tolerates the stale read (no real-time
        // constraint across processes).
        assert!(is_sequentially_consistent(&Register::new(), &bad, N));
    }

    #[test]
    fn program_order_still_constrains_sequential_consistency() {
        // The same process writes 1 then 2 and then reads 1: illegal even
        // under sequential consistency.
        let w = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(0), Invocation::Read, Response::Value(1))
            .build();
        assert!(!is_sequentially_consistent(&Register::new(), &w, N));
    }

    #[test]
    fn queue_linearizability() {
        // Classic: two concurrent enqueues, then dequeues must not duplicate.
        let good = WordBuilder::new()
            .invoke(p(0), Invocation::Enqueue(1))
            .invoke(p(1), Invocation::Enqueue(2))
            .respond(p(0), Response::Ack)
            .respond(p(1), Response::Ack)
            .op(p(0), Invocation::Dequeue, Response::MaybeValue(Some(1)))
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(2)))
            .build();
        assert!(is_linearizable(&Queue::new(), &good, N));
        let duplicated = WordBuilder::new()
            .invoke(p(0), Invocation::Enqueue(1))
            .invoke(p(1), Invocation::Enqueue(2))
            .respond(p(0), Response::Ack)
            .respond(p(1), Response::Ack)
            .op(p(0), Invocation::Dequeue, Response::MaybeValue(Some(1)))
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(1)))
            .build();
        assert!(!is_linearizable(&Queue::new(), &duplicated, N));
    }

    #[test]
    fn empty_history_is_trivially_consistent() {
        let w = WordBuilder::new().build();
        assert!(is_linearizable(&Register::new(), &w, N));
        assert!(is_sequentially_consistent(&Register::new(), &w, N));
    }

    #[test]
    fn witness_is_valid() {
        let w = WordBuilder::new()
            .invoke(p(0), Invocation::Write(1))
            .invoke(p(1), Invocation::Read)
            .respond(p(1), Response::Value(1))
            .respond(p(0), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        let history = ConcurrentHistory::from_word(&w, N);
        let result = check_history(
            &Register::new(),
            &history,
            &CheckerConfig::linearizability(),
        );
        let witness = result.witness().expect("linearizable").clone();
        assert!(validate_witness(&Register::new(), &history, &witness, true));
        assert_eq!(witness.op_order().len(), 3);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut builder = WordBuilder::new();
        // Six complete, pairwise-concurrent writes: the search space is large
        // enough that a budget of 1 node cannot resolve it.
        for i in 0..6 {
            builder = builder.invoke(ProcId(i), Invocation::Write(i as u64));
        }
        for i in 0..6 {
            builder = builder.respond(ProcId(i), Response::Ack);
        }
        let w = builder.build();
        let history = ConcurrentHistory::from_word(&w, 6);
        let result = check_history(
            &Register::new(),
            &history,
            &CheckerConfig::linearizability().with_max_states(1),
        );
        assert_eq!(result, ConsistencyResult::Unknown);
        assert!(!result.is_consistent());
        assert!(result.witness().is_none());
    }

    #[test]
    fn a_pending_read_may_be_dropped() {
        // p1's read is still pending: a linearization may leave it out.
        let w = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .invoke(p(1), Invocation::Read)
            .build();
        let history = ConcurrentHistory::from_word(&w, N);
        let drop_ok = check_history(
            &Register::new(),
            &history,
            &CheckerConfig::linearizability(),
        );
        assert!(drop_ok.is_consistent());
    }
}
