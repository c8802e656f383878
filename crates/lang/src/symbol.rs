//! Symbols of the distributed alphabet: process identifiers, invocations,
//! responses and the combined [`Symbol`] type.
//!
//! The paper keeps local alphabets abstract; this crate fixes a concrete,
//! object-oriented alphabet that covers every object used in the paper
//! (register, counter, ledger — Examples 1–4) plus the queue and stack objects
//! mentioned in the related-work discussion, and an escape hatch
//! ([`Invocation::Custom`] / [`Response::Custom`]) for user-defined objects.

use std::fmt;

/// Identifier of a monitor process `pᵢ` (0-based).
///
/// The paper indexes processes `p₁ … pₙ`; we use 0-based indices internally
/// and format them 1-based in `Display` to match the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl ProcId {
    /// Returns the underlying 0-based index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Returns an iterator over the process ids `p₀ … p_{n-1}`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcId> {
        (0..n).map(ProcId)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0 + 1)
    }
}

impl From<usize> for ProcId {
    fn from(value: usize) -> Self {
        ProcId(value)
    }
}

/// Identifier of one monitored *object stream*.
///
/// The paper's monitors decide a language per object; a multi-object service
/// produces one independent stream of symbols per object, and an engine
/// ingesting the merged traffic tags every symbol with the object it belongs
/// to.  Object ids carry no locality meaning — engines route them to shards
/// by hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Returns the underlying raw id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(value: u64) -> Self {
        ObjectId(value)
    }
}

/// A record appended to a ledger (the universe `U` of the paper, Example 2).
pub type Record = u64;

/// An invocation symbol (an element of Σ<ᵢ for the issuing process).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invocation {
    /// `write(x)` on a register (Example 1).
    Write(u64),
    /// `read()` on a register or a counter (Examples 1 and 3).
    Read,
    /// `inc()` on a counter (Example 3).
    Inc,
    /// `append(r)` on a ledger (Example 2).
    Append(Record),
    /// `get()` on a ledger (Example 2).
    Get,
    /// `enqueue(x)` on a queue.
    Enqueue(u64),
    /// `dequeue()` on a queue.
    Dequeue,
    /// `push(x)` on a stack.
    Push(u64),
    /// `pop()` on a stack.
    Pop,
    /// A user-defined invocation, identified by an operation name and argument.
    Custom(String, u64),
}

impl Invocation {
    /// Returns `true` when the invocation is a mutator (potentially changes
    /// object state), `false` when it is a pure observer (`read`/`get`).
    #[must_use]
    pub fn is_mutator(&self) -> bool {
        !matches!(self, Invocation::Read | Invocation::Get)
    }

    /// Returns `true` if this is a register/counter `read()`.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, Invocation::Read)
    }

    /// Returns `true` if this is a counter `inc()`.
    #[must_use]
    pub fn is_inc(&self) -> bool {
        matches!(self, Invocation::Inc)
    }

    /// Returns `true` if this is a ledger `get()`.
    #[must_use]
    pub fn is_get(&self) -> bool {
        matches!(self, Invocation::Get)
    }

    /// Returns `true` if this is a ledger `append(_)`.
    #[must_use]
    pub fn is_append(&self) -> bool {
        matches!(self, Invocation::Append(_))
    }
}

impl fmt::Display for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Invocation::Write(x) => write!(f, "write({x})"),
            Invocation::Read => write!(f, "read()"),
            Invocation::Inc => write!(f, "inc()"),
            Invocation::Append(r) => write!(f, "append({r})"),
            Invocation::Get => write!(f, "get()"),
            Invocation::Enqueue(x) => write!(f, "enqueue({x})"),
            Invocation::Dequeue => write!(f, "dequeue()"),
            Invocation::Push(x) => write!(f, "push({x})"),
            Invocation::Pop => write!(f, "pop()"),
            Invocation::Custom(name, arg) => write!(f, "{name}({arg})"),
        }
    }
}

/// A response symbol (an element of Σ>ᵢ for the issuing process).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Response {
    /// Response carrying no value (`write`, `inc`, `append`, `enqueue`, `push`).
    Ack,
    /// Response carrying a single value (`read` of register or counter).
    Value(u64),
    /// Response carrying a sequence of records (`get` of a ledger).
    Sequence(Vec<Record>),
    /// Response carrying an optional value (`dequeue`/`pop`, `None` = empty).
    MaybeValue(Option<u64>),
    /// A user-defined response.
    Custom(String, u64),
}

impl Response {
    /// Extracts the numeric value of a `Value` response.
    #[must_use]
    pub fn as_value(&self) -> Option<u64> {
        match self {
            Response::Value(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the record sequence of a `Sequence` response.
    #[must_use]
    pub fn as_sequence(&self) -> Option<&[Record]> {
        match self {
            Response::Sequence(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ack => write!(f, "ok"),
            Response::Value(v) => write!(f, "{v}"),
            Response::Sequence(s) => {
                write!(f, "[")?;
                for (i, r) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "]")
            }
            Response::MaybeValue(Some(v)) => write!(f, "{v}"),
            Response::MaybeValue(None) => write!(f, "empty"),
            Response::Custom(name, v) => write!(f, "{name}:{v}"),
        }
    }
}

/// Whether a symbol is an invocation or a response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// An invocation sent by the process to the service under inspection.
    Invoke(Invocation),
    /// A response received by the process from the service under inspection.
    Respond(Response),
}

impl Action {
    /// Returns `true` when this action is an invocation.
    #[must_use]
    pub fn is_invocation(&self) -> bool {
        matches!(self, Action::Invoke(_))
    }

    /// Returns `true` when this action is a response.
    #[must_use]
    pub fn is_response(&self) -> bool {
        matches!(self, Action::Respond(_))
    }
}

/// A symbol of the distributed alphabet: an invocation or a response tagged
/// with the process it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Symbol {
    /// The process whose local alphabet the symbol belongs to.
    pub proc: ProcId,
    /// The invocation or response payload.
    pub action: Action,
}

impl Symbol {
    /// Creates an invocation symbol for process `proc`.
    #[must_use]
    pub fn invoke(proc: ProcId, invocation: Invocation) -> Self {
        Symbol {
            proc,
            action: Action::Invoke(invocation),
        }
    }

    /// Creates a response symbol for process `proc`.
    #[must_use]
    pub fn respond(proc: ProcId, response: Response) -> Self {
        Symbol {
            proc,
            action: Action::Respond(response),
        }
    }

    /// Returns `true` when the symbol is an invocation symbol.
    #[must_use]
    pub fn is_invocation(&self) -> bool {
        self.action.is_invocation()
    }

    /// Returns `true` when the symbol is a response symbol.
    #[must_use]
    pub fn is_response(&self) -> bool {
        self.action.is_response()
    }

    /// Returns the invocation payload, if this is an invocation symbol.
    #[must_use]
    pub fn invocation(&self) -> Option<&Invocation> {
        match &self.action {
            Action::Invoke(inv) => Some(inv),
            Action::Respond(_) => None,
        }
    }

    /// Returns the response payload, if this is a response symbol.
    #[must_use]
    pub fn response(&self) -> Option<&Response> {
        match &self.action {
            Action::Respond(resp) => Some(resp),
            Action::Invoke(_) => None,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            Action::Invoke(inv) => write!(f, "<{} {}", self.proc, inv),
            Action::Respond(resp) => write!(f, ">{} {}", self.proc, resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_display_is_one_based() {
        assert_eq!(ProcId(0).to_string(), "p1");
        assert_eq!(ProcId(3).to_string(), "p4");
    }

    #[test]
    fn proc_id_all_enumerates() {
        let ids: Vec<ProcId> = ProcId::all(3).collect();
        assert_eq!(ids, vec![ProcId(0), ProcId(1), ProcId(2)]);
    }

    #[test]
    fn invocation_classification() {
        assert!(Invocation::Read.is_read());
        assert!(!Invocation::Write(1).is_read());
        assert!(Invocation::Inc.is_inc());
        assert!(Invocation::Get.is_get());
        assert!(Invocation::Append(9).is_append());
    }

    #[test]
    fn response_extractors() {
        assert_eq!(Response::Value(5).as_value(), Some(5));
        assert_eq!(Response::Ack.as_value(), None);
        assert_eq!(
            Response::Sequence(vec![1, 2]).as_sequence(),
            Some(&[1u64, 2][..])
        );
        assert_eq!(Response::Ack.as_sequence(), None);
    }

    #[test]
    fn symbol_constructors_and_accessors() {
        let s = Symbol::invoke(ProcId(1), Invocation::Write(3));
        assert!(s.is_invocation());
        assert!(!s.is_response());
        assert_eq!(s.invocation(), Some(&Invocation::Write(3)));
        assert_eq!(s.response(), None);

        let r = Symbol::respond(ProcId(1), Response::Ack);
        assert!(r.is_response());
        assert_eq!(r.response(), Some(&Response::Ack));
        assert_eq!(r.invocation(), None);
    }

    #[test]
    fn display_round_trip_is_informative() {
        let s = Symbol::invoke(ProcId(0), Invocation::Append(42));
        assert_eq!(s.to_string(), "<p1 append(42)");
        let r = Symbol::respond(ProcId(2), Response::Sequence(vec![1, 2, 3]));
        assert_eq!(r.to_string(), ">p3 [1,2,3]");
        assert_eq!(
            Symbol::respond(ProcId(0), Response::MaybeValue(None)).to_string(),
            ">p1 empty"
        );
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", ProcId(0)).is_empty());
        assert!(!format!("{:?}", Invocation::Read).is_empty());
        assert!(!format!("{:?}", Response::Ack).is_empty());
    }
}
