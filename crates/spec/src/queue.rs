//! A FIFO queue object (one of the objects for which [17] proved the original
//! sound-and-complete impossibility).

use crate::sequential::SequentialSpec;
use drv_lang::{Invocation, ObjectKind, Response};
use std::collections::VecDeque;

/// A sequential FIFO queue.
///
/// Operations: `enqueue(x)` returns [`Response::Ack`]; `dequeue()` returns the
/// oldest element as [`Response::MaybeValue`] (`None` when empty).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Queue;

impl Queue {
    /// Creates an empty queue specification.
    #[must_use]
    pub fn new() -> Self {
        Queue
    }
}

impl SequentialSpec for Queue {
    type State = VecDeque<u64>;

    fn name(&self) -> String {
        "queue".into()
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Queue
    }

    fn initial(&self) -> VecDeque<u64> {
        VecDeque::new()
    }

    fn apply(
        &self,
        state: &VecDeque<u64>,
        invocation: &Invocation,
    ) -> Option<(VecDeque<u64>, Response)> {
        match invocation {
            Invocation::Enqueue(x) => {
                let mut next = state.clone();
                next.push_back(*x);
                Some((next, Response::Ack))
            }
            Invocation::Dequeue => {
                let mut next = state.clone();
                let head = next.pop_front();
                Some((next, Response::MaybeValue(head)))
            }
            _ => None,
        }
    }

    /// A dequeue that returns `x` needs `enqueue(x)`: an element leaves only
    /// after it entered.
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        match (invocation, response) {
            (Invocation::Dequeue, Response::MaybeValue(Some(x))) => Some(Invocation::Enqueue(*x)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::run_invocations;

    #[test]
    fn fifo_order() {
        let responses = run_invocations(
            &Queue::new(),
            &[
                Invocation::Enqueue(1),
                Invocation::Enqueue(2),
                Invocation::Dequeue,
                Invocation::Dequeue,
                Invocation::Dequeue,
            ],
        )
        .unwrap();
        assert_eq!(responses[2], Response::MaybeValue(Some(1)));
        assert_eq!(responses[3], Response::MaybeValue(Some(2)));
        assert_eq!(responses[4], Response::MaybeValue(None));
    }

    #[test]
    fn foreign_invocations_are_rejected() {
        assert!(Queue::new()
            .apply(&VecDeque::new(), &Invocation::Pop)
            .is_none());
    }

    #[test]
    fn a_dequeued_element_needs_its_enqueue() {
        let spec = Queue::new();
        assert_eq!(
            spec.producer(&Invocation::Dequeue, &Response::MaybeValue(Some(4))),
            Some(Invocation::Enqueue(4))
        );
        assert_eq!(spec.producer(&Invocation::Dequeue, &Response::MaybeValue(None)), None);
        assert_eq!(spec.producer(&Invocation::Enqueue(4), &Response::Ack), None);
    }

    #[test]
    fn metadata() {
        assert_eq!(Queue::new().name(), "queue");
        assert_eq!(Queue::new().kind(), ObjectKind::Queue);
    }
}
