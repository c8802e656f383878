//! Operations (matched invocation/response pairs) and the real-time order.
//!
//! Given a well-formed word `x`, every invocation symbol of a process is
//! matched with the next response symbol of the same process (if any).  The
//! pair is an *operation*; operations are ordered by the real-time precedence
//! relation `op ≺ₓ op'` (the response of `op` appears before the invocation of
//! `op'`), and two operations are *concurrent* when neither precedes the other.

use crate::symbol::{Invocation, ProcId, Response};
use crate::word::Word;
use std::fmt;

/// Identifier of an operation inside an [`OperationSet`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A matched invocation/response pair of one process.
///
/// `resp`/`resp_pos` are `None` for operations that are *pending* in the word
/// (their invocation appears but the response does not).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    /// The identifier of this operation within its [`OperationSet`].
    pub id: OpId,
    /// The invoking process.
    pub proc: ProcId,
    /// The invocation payload.
    pub invocation: Invocation,
    /// The response payload, if the operation is complete.
    pub response: Option<Response>,
    /// Position of the invocation symbol in the word.
    pub inv_pos: usize,
    /// Position of the response symbol in the word, if complete.
    pub resp_pos: Option<usize>,
    /// 0-based sequence number of this operation among the operations of the
    /// same process (i.e. its index in the local word `x|ᵢ` divided by two).
    pub local_index: usize,
}

impl Operation {
    /// Returns `true` when the operation has both its invocation and response
    /// in the word.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.resp_pos.is_some()
    }

    /// Returns `true` when the operation is pending (its response has not yet
    /// appeared).
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.resp_pos.is_none()
    }

    /// Returns `true` when `self` precedes `other` in real time
    /// (`self ≺ₓ other`): the response of `self` appears before the
    /// invocation of `other`.
    #[must_use]
    pub fn precedes(&self, other: &Operation) -> bool {
        match self.resp_pos {
            Some(r) => r < other.inv_pos,
            None => false,
        }
    }

    /// Returns `true` when `self` and `other` are concurrent (`self ‖ₓ other`):
    /// neither precedes the other.
    #[must_use]
    pub fn concurrent_with(&self, other: &Operation) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.response {
            Some(resp) => write!(f, "{}:{}→{}", self.proc, self.invocation, resp),
            None => write!(f, "{}:{}→⟂", self.proc, self.invocation),
        }
    }
}

/// Relation between two operations under the real-time order of a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// The first operation precedes the second.
    Precedes,
    /// The second operation precedes the first.
    Follows,
    /// The operations are concurrent.
    Concurrent,
}

/// The set of operations extracted from a word, with helpers for the
/// real-time precedence relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperationSet {
    ops: Vec<Operation>,
}

impl OperationSet {
    /// Extracts the operations of a word.  See [`operations`].
    #[must_use]
    pub fn from_word(word: &Word) -> Self {
        OperationSet {
            ops: operations(word),
        }
    }

    /// The operations, ordered by invocation position.
    #[must_use]
    pub fn all(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when there are no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns the operation with the given id.
    #[must_use]
    pub fn get(&self, id: OpId) -> Option<&Operation> {
        self.ops.get(id.0)
    }

    /// The complete operations.
    pub fn complete(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// The pending operations.
    pub fn pending(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().filter(|o| o.is_pending())
    }

    /// The operations of one process, in program order.
    pub fn of_proc(&self, proc: ProcId) -> impl Iterator<Item = &Operation> {
        self.ops.iter().filter(move |o| o.proc == proc)
    }

    /// The real-time relation between two operations.
    #[must_use]
    pub fn ordering(&self, a: OpId, b: OpId) -> Option<Ordering> {
        let (a, b) = (self.get(a)?, self.get(b)?);
        Some(if a.precedes(b) {
            Ordering::Precedes
        } else if b.precedes(a) {
            Ordering::Follows
        } else {
            Ordering::Concurrent
        })
    }

    /// Number of precedence edges `a ≺ b` (used to compare histories and to
    /// validate that sketches only *add* precedence).
    #[must_use]
    pub fn precedence_edges(&self) -> Vec<(OpId, OpId)> {
        let mut edges = Vec::new();
        for a in &self.ops {
            for b in &self.ops {
                if a.id != b.id && a.precedes(b) {
                    edges.push((a.id, b.id));
                }
            }
        }
        edges
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }
}

impl<'a> IntoIterator for &'a OperationSet {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// Pairs the invocation and response symbols of a word into operations.
///
/// Symbols of each process are matched in order: an invocation opens an
/// operation, the next response symbol of the same process closes it.  The
/// word is assumed well-formed as a prefix (see
/// [`Word::check_well_formed_prefix`]); unmatched response symbols are
/// ignored.
#[must_use]
pub fn operations(word: &Word) -> Vec<Operation> {
    use std::collections::HashMap;
    let mut ops: Vec<Operation> = Vec::new();
    // Index of the currently-open operation per process.
    let mut open: HashMap<ProcId, usize> = HashMap::new();
    let mut local_counts: HashMap<ProcId, usize> = HashMap::new();

    for (pos, symbol) in word.symbols().iter().enumerate() {
        match (&symbol.action, open.get(&symbol.proc).copied()) {
            (crate::symbol::Action::Invoke(inv), None) => {
                let local_index = *local_counts.entry(symbol.proc).or_insert(0);
                *local_counts.get_mut(&symbol.proc).expect("just inserted") += 1;
                let id = OpId(ops.len());
                open.insert(symbol.proc, ops.len());
                ops.push(Operation {
                    id,
                    proc: symbol.proc,
                    invocation: inv.clone(),
                    response: None,
                    inv_pos: pos,
                    resp_pos: None,
                    local_index,
                });
            }
            (crate::symbol::Action::Invoke(_), Some(_)) => {
                // Ill-formed: invocation while pending; skip (checked elsewhere).
            }
            (crate::symbol::Action::Respond(resp), Some(idx)) => {
                ops[idx].response = Some(resp.clone());
                ops[idx].resp_pos = Some(pos);
                open.remove(&symbol.proc);
            }
            (crate::symbol::Action::Respond(_), None) => {
                // Ill-formed: orphan response; skip (checked elsewhere).
            }
        }
    }
    ops
}

impl Word {
    /// Extracts the matched invocation/response pairs of the word.
    ///
    /// Convenience wrapper around [`operations`].
    #[must_use]
    pub fn operations(&self) -> Vec<Operation> {
        operations(self)
    }

    /// Extracts the operations of the word together with the real-time
    /// precedence helpers of [`OperationSet`].
    #[must_use]
    pub fn operation_set(&self) -> OperationSet {
        OperationSet::from_word(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::WordBuilder;

    fn word_with_concurrency() -> Word {
        // p1: |--write(1)--|        |--write(2)--|
        // p2:        |------read:1------|
        WordBuilder::new()
            .invoke(ProcId(0), Invocation::Write(1))
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(0), Response::Ack)
            .respond(ProcId(1), Response::Value(1))
            .invoke(ProcId(0), Invocation::Write(2))
            .respond(ProcId(0), Response::Ack)
            .build()
    }

    #[test]
    fn operations_are_paired_in_order() {
        let ops = operations(&word_with_concurrency());
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].proc, ProcId(0));
        assert_eq!(ops[0].invocation, Invocation::Write(1));
        assert_eq!(ops[0].response, Some(Response::Ack));
        assert_eq!(ops[0].local_index, 0);
        assert_eq!(ops[1].proc, ProcId(1));
        assert_eq!(ops[1].local_index, 0);
        assert_eq!(ops[2].invocation, Invocation::Write(2));
        assert_eq!(ops[2].local_index, 1);
        assert!(ops.iter().all(Operation::is_complete));
    }

    #[test]
    fn pending_operations_have_no_response() {
        let w = WordBuilder::new()
            .invoke(ProcId(0), Invocation::Write(1))
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(0), Response::Ack)
            .build();
        let set = OperationSet::from_word(&w);
        assert_eq!(set.len(), 2);
        assert_eq!(set.complete().count(), 1);
        assert_eq!(set.pending().count(), 1);
        let pending = set.pending().next().expect("one pending op");
        assert!(pending.is_pending());
        assert_eq!(pending.proc, ProcId(1));
    }

    #[test]
    fn precedence_and_concurrency() {
        let set = OperationSet::from_word(&word_with_concurrency());
        let ops = set.all();
        // write(1) is concurrent with read (their intervals overlap).
        assert!(ops[0].concurrent_with(&ops[1]));
        assert_eq!(set.ordering(OpId(0), OpId(1)), Some(Ordering::Concurrent));
        // write(1) precedes write(2).
        assert!(ops[0].precedes(&ops[2]));
        assert_eq!(set.ordering(OpId(0), OpId(2)), Some(Ordering::Precedes));
        assert_eq!(set.ordering(OpId(2), OpId(0)), Some(Ordering::Follows));
        // read precedes write(2).
        assert!(ops[1].precedes(&ops[2]));
        assert_eq!(set.ordering(OpId(0), OpId(9)), None);
    }

    #[test]
    fn pending_operation_precedes_nothing() {
        let w = WordBuilder::new()
            .invoke(ProcId(0), Invocation::Read)
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(1), Response::Value(0))
            .build();
        let set = OperationSet::from_word(&w);
        let p0 = &set.all()[0];
        let p1 = &set.all()[1];
        assert!(!p0.precedes(p1));
        assert!(p1.concurrent_with(p0));
    }

    #[test]
    fn precedence_edges_counts_pairs() {
        let set = OperationSet::from_word(&word_with_concurrency());
        let edges = set.precedence_edges();
        assert_eq!(edges.len(), 2); // write(1)≺write(2), read≺write(2)
        assert!(edges.contains(&(OpId(0), OpId(2))));
        assert!(edges.contains(&(OpId(1), OpId(2))));
    }

    #[test]
    fn of_proc_filters_by_process() {
        let set = OperationSet::from_word(&word_with_concurrency());
        assert_eq!(set.of_proc(ProcId(0)).count(), 2);
        assert_eq!(set.of_proc(ProcId(1)).count(), 1);
        assert_eq!(set.of_proc(ProcId(5)).count(), 0);
    }

    #[test]
    fn ill_formed_symbols_are_skipped() {
        let w = WordBuilder::new()
            .respond(ProcId(0), Response::Ack)
            .invoke(ProcId(0), Invocation::Read)
            .invoke(ProcId(0), Invocation::Read)
            .build();
        let ops = operations(&w);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn display_formats() {
        let set = OperationSet::from_word(&word_with_concurrency());
        assert!(set.all()[0].to_string().contains("write(1)"));
        assert_eq!(OpId(3).to_string(), "op3");
        let w = WordBuilder::new().invoke(ProcId(0), Invocation::Read).build();
        let pending = operations(&w);
        assert!(pending[0].to_string().ends_with('⟂'));
    }

    #[test]
    fn iteration() {
        let set = OperationSet::from_word(&word_with_concurrency());
        assert_eq!(set.iter().count(), 3);
        assert_eq!((&set).into_iter().count(), 3);
        assert!(!set.is_empty());
        assert!(OperationSet::default().is_empty());
    }
}
