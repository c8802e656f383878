//! A LIFO stack object (one of the objects for which [17] proved the original
//! sound-and-complete impossibility).

use crate::sequential::SequentialSpec;
use drv_lang::{Invocation, ObjectKind, Response};

/// A sequential LIFO stack.
///
/// Operations: `push(x)` returns [`Response::Ack`]; `pop()` returns the newest
/// element as [`Response::MaybeValue`] (`None` when empty).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stack;

impl Stack {
    /// Creates an empty stack specification.
    #[must_use]
    pub fn new() -> Self {
        Stack
    }
}

impl SequentialSpec for Stack {
    type State = Vec<u64>;

    fn name(&self) -> String {
        "stack".into()
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Stack
    }

    fn initial(&self) -> Vec<u64> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<u64>, invocation: &Invocation) -> Option<(Vec<u64>, Response)> {
        match invocation {
            Invocation::Push(x) => {
                let mut next = state.clone();
                next.push(*x);
                Some((next, Response::Ack))
            }
            Invocation::Pop => {
                let mut next = state.clone();
                let top = next.pop();
                Some((next, Response::MaybeValue(top)))
            }
            _ => None,
        }
    }

    /// A pop that returns `x` needs `push(x)`: an element leaves only
    /// after it entered.
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        match (invocation, response) {
            (Invocation::Pop, Response::MaybeValue(Some(x))) => Some(Invocation::Push(*x)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::run_invocations;

    #[test]
    fn lifo_order() {
        let responses = run_invocations(
            &Stack::new(),
            &[
                Invocation::Push(1),
                Invocation::Push(2),
                Invocation::Pop,
                Invocation::Pop,
                Invocation::Pop,
            ],
        )
        .unwrap();
        assert_eq!(responses[2], Response::MaybeValue(Some(2)));
        assert_eq!(responses[3], Response::MaybeValue(Some(1)));
        assert_eq!(responses[4], Response::MaybeValue(None));
    }

    #[test]
    fn foreign_invocations_are_rejected() {
        assert!(Stack::new().apply(&vec![], &Invocation::Dequeue).is_none());
    }

    #[test]
    fn a_popped_element_needs_its_push() {
        let spec = Stack::new();
        assert_eq!(
            spec.producer(&Invocation::Pop, &Response::MaybeValue(Some(4))),
            Some(Invocation::Push(4))
        );
        assert_eq!(spec.producer(&Invocation::Pop, &Response::MaybeValue(None)), None);
        assert_eq!(spec.producer(&Invocation::Push(4), &Response::Ack), None);
    }

    #[test]
    fn metadata() {
        assert_eq!(Stack::new().name(), "stack");
        assert_eq!(Stack::new().kind(), ObjectKind::Stack);
    }
}
