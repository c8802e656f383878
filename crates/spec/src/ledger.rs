//! The ledger object of Examples 2 and 4, after Fernández Anta et al. \[3\].

use crate::sequential::SequentialSpec;
use drv_lang::{Invocation, ObjectKind, Record, Response};

/// A sequential ledger: an append-only list of records.
///
/// Operations: `append(r)` appends record `r` and returns [`Response::Ack`];
/// `get()` returns the whole list as [`Response::Sequence`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger;

impl Ledger {
    /// Creates a ledger with the empty initial list.
    #[must_use]
    pub fn new() -> Self {
        Ledger
    }
}

impl SequentialSpec for Ledger {
    type State = Vec<Record>;

    fn name(&self) -> String {
        "ledger".into()
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Ledger
    }

    fn initial(&self) -> Vec<Record> {
        Vec::new()
    }

    fn apply(
        &self,
        state: &Vec<Record>,
        invocation: &Invocation,
    ) -> Option<(Vec<Record>, Response)> {
        match invocation {
            Invocation::Append(r) => {
                let mut next = state.clone();
                next.push(*r);
                Some((next, Response::Ack))
            }
            Invocation::Get => Some((state.clone(), Response::Sequence(state.clone()))),
            _ => None,
        }
    }

    /// None: a `get` needs one `append` per record it returns, in that
    /// order, which one invocation cannot name.  Naming the first record's
    /// append would be sound but would refute only the gets whose first
    /// record nobody appended.
    fn producer(&self, _invocation: &Invocation, _response: &Response) -> Option<Invocation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::run_invocations;

    #[test]
    fn appends_preserve_order() {
        let responses = run_invocations(
            &Ledger::new(),
            &[
                Invocation::Get,
                Invocation::Append(5),
                Invocation::Append(6),
                Invocation::Get,
            ],
        )
        .unwrap();
        assert_eq!(responses[0], Response::Sequence(vec![]));
        assert_eq!(responses[3], Response::Sequence(vec![5, 6]));
    }

    #[test]
    fn duplicate_records_are_allowed_sequentially() {
        let responses = run_invocations(
            &Ledger::new(),
            &[Invocation::Append(1), Invocation::Append(1), Invocation::Get],
        )
        .unwrap();
        assert_eq!(responses[2], Response::Sequence(vec![1, 1]));
    }

    #[test]
    fn foreign_invocations_are_rejected() {
        assert!(Ledger::new().apply(&vec![], &Invocation::Read).is_none());
    }

    #[test]
    fn metadata() {
        assert_eq!(Ledger::new().name(), "ledger");
        assert_eq!(Ledger::new().kind(), ObjectKind::Ledger);
        assert!(Ledger::new().initial().is_empty());
    }
}
