//! Object alphabets: which invocations belong to which kind of object.
//!
//! In the paper's model (Figure 1, line 01) each process *non-deterministically
//! picks* an invocation symbol from its local invocation alphabet Σ<ᵢ; an
//! [`ObjectKind`] names that alphabet (`drv-core`'s `SymbolSampler` draws
//! from it).

use crate::symbol::Invocation;
use std::fmt;

/// The kind of sequential object whose alphabet a process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Read/write register (Example 1).
    Register,
    /// Counter with `inc()`/`read()` (Example 3).
    Counter,
    /// Ledger with `append(r)`/`get()` (Example 2 and 4).
    Ledger,
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
}

impl ObjectKind {
    /// All object kinds, in a fixed order.
    pub const ALL: [ObjectKind; 5] = [
        ObjectKind::Register,
        ObjectKind::Counter,
        ObjectKind::Ledger,
        ObjectKind::Queue,
        ObjectKind::Stack,
    ];

    /// Returns `true` when `invocation` belongs to this object's invocation
    /// alphabet.
    #[must_use]
    pub fn contains(&self, invocation: &Invocation) -> bool {
        matches!(
            (self, invocation),
            (ObjectKind::Register, Invocation::Write(_))
                | (ObjectKind::Register, Invocation::Read)
                | (ObjectKind::Counter, Invocation::Inc)
                | (ObjectKind::Counter, Invocation::Read)
                | (ObjectKind::Ledger, Invocation::Append(_))
                | (ObjectKind::Ledger, Invocation::Get)
                | (ObjectKind::Queue, Invocation::Enqueue(_))
                | (ObjectKind::Queue, Invocation::Dequeue)
                | (ObjectKind::Stack, Invocation::Push(_))
                | (ObjectKind::Stack, Invocation::Pop)
        )
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObjectKind::Register => "register",
            ObjectKind::Counter => "counter",
            ObjectKind::Ledger => "ledger",
            ObjectKind::Queue => "queue",
            ObjectKind::Stack => "stack",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_classifies_invocations() {
        assert!(ObjectKind::Register.contains(&Invocation::Write(1)));
        assert!(ObjectKind::Register.contains(&Invocation::Read));
        assert!(!ObjectKind::Register.contains(&Invocation::Inc));
        assert!(ObjectKind::Counter.contains(&Invocation::Inc));
        assert!(ObjectKind::Counter.contains(&Invocation::Read));
        assert!(ObjectKind::Ledger.contains(&Invocation::Append(1)));
        assert!(ObjectKind::Ledger.contains(&Invocation::Get));
        assert!(!ObjectKind::Ledger.contains(&Invocation::Read));
        assert!(ObjectKind::Queue.contains(&Invocation::Enqueue(1)));
        assert!(ObjectKind::Queue.contains(&Invocation::Dequeue));
        assert!(ObjectKind::Stack.contains(&Invocation::Push(1)));
        assert!(ObjectKind::Stack.contains(&Invocation::Pop));
    }

    #[test]
    fn display_names() {
        assert_eq!(ObjectKind::Register.to_string(), "register");
        assert_eq!(ObjectKind::Ledger.to_string(), "ledger");
    }
}
