//! The read/write register of Example 1.

use crate::sequential::SequentialSpec;
use drv_lang::{Invocation, ObjectKind, Response};

/// A sequential read/write register with initial value `0`.
///
/// Operations: `write(x)` stores `x` and returns [`Response::Ack`];
/// `read()` returns the current value as [`Response::Value`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Register {
    initial: u64,
}

impl Register {
    /// Creates a register with initial value `0` (the paper's convention).
    #[must_use]
    pub fn new() -> Self {
        Register { initial: 0 }
    }

    /// Creates a register with the given initial value.
    #[must_use]
    pub fn with_initial(initial: u64) -> Self {
        Register { initial }
    }
}

impl SequentialSpec for Register {
    type State = u64;

    fn name(&self) -> String {
        "register".into()
    }

    fn kind(&self) -> ObjectKind {
        ObjectKind::Register
    }

    fn initial(&self) -> u64 {
        self.initial
    }

    fn apply(&self, state: &u64, invocation: &Invocation) -> Option<(u64, Response)> {
        match invocation {
            Invocation::Write(x) => Some((*x, Response::Ack)),
            Invocation::Read => Some((*state, Response::Value(*state))),
            _ => None,
        }
    }

    /// A read of `v` other than the initial value needs `write(v)`: the
    /// state is `v` only after a write of `v`.
    fn producer(&self, invocation: &Invocation, response: &Response) -> Option<Invocation> {
        match (invocation, response) {
            (Invocation::Read, Response::Value(v)) if *v != self.initial => {
                Some(Invocation::Write(*v))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_return_last_written_value() {
        let reg = Register::new();
        let s0 = reg.initial();
        assert_eq!(s0, 0);
        let (s1, r) = reg.apply(&s0, &Invocation::Write(42)).unwrap();
        assert_eq!(r, Response::Ack);
        let (s2, r) = reg.apply(&s1, &Invocation::Read).unwrap();
        assert_eq!(r, Response::Value(42));
        assert_eq!(s2, 42);
    }

    #[test]
    fn initial_value_is_configurable() {
        let reg = Register::with_initial(7);
        let (_, r) = reg.apply(&reg.initial(), &Invocation::Read).unwrap();
        assert_eq!(r, Response::Value(7));
    }

    #[test]
    fn foreign_invocations_are_rejected() {
        let reg = Register::new();
        assert!(reg.apply(&0, &Invocation::Inc).is_none());
        assert!(reg.apply(&0, &Invocation::Get).is_none());
    }

    #[test]
    fn a_read_of_a_written_value_needs_its_write() {
        let reg = Register::with_initial(7);
        let read = |v| reg.producer(&Invocation::Read, &Response::Value(v));
        assert_eq!(read(3), Some(Invocation::Write(3)));
        assert_eq!(read(7), None, "the initial value needs no write");
        assert_eq!(reg.producer(&Invocation::Write(3), &Response::Ack), None);
    }

    #[test]
    fn metadata() {
        assert_eq!(Register::new().name(), "register");
        assert_eq!(Register::new().kind(), ObjectKind::Register);
    }
}
