//! The counter object of Example 3.

use crate::sequential::SequentialSpec;
use drv_lang::{Invocation, ObjectKind, Response};

/// A sequential counter with initial value `0`.
///
/// Operations: `inc()` increments the counter and returns [`Response::Ack`];
/// `read()` returns the current value as [`Response::Value`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter;

impl Counter {
    /// Creates a counter with initial value `0`.
    #[must_use]
    pub fn new() -> Self {
        Counter
    }
}

impl SequentialSpec for Counter {
    type State = u64;

    fn name(&self) -> String {
        "counter".into()
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Counter
    }

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, invocation: &Invocation) -> Option<(u64, Response)> {
        match invocation {
            Invocation::Inc => Some((state + 1, Response::Ack)),
            Invocation::Read => Some((*state, Response::Value(*state))),
            _ => None,
        }
    }

    /// None: a read of `v` needs `v` increments, a count that one invocation
    /// cannot name, and every increment is the same `inc()`, so the first
    /// one would meet every read's need at once.
    fn producer(&self, _invocation: &Invocation, _response: &Response) -> Option<Invocation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::run_invocations;

    #[test]
    fn increments_accumulate() {
        let responses = run_invocations(
            &Counter::new(),
            &[
                Invocation::Read,
                Invocation::Inc,
                Invocation::Inc,
                Invocation::Read,
            ],
        )
        .unwrap();
        assert_eq!(responses[0], Response::Value(0));
        assert_eq!(responses[3], Response::Value(2));
    }

    #[test]
    fn foreign_invocations_are_rejected() {
        assert!(Counter::new().apply(&0, &Invocation::Write(1)).is_none());
    }

    #[test]
    fn metadata() {
        assert_eq!(Counter::new().name(), "counter");
        assert_eq!(Counter::new().kind(), ObjectKind::Counter);
        assert_eq!(Counter::new().initial(), 0);
    }
}
