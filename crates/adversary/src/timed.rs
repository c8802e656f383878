//! The timed adversary Aτ (Figure 6): wrapping A with announce/view code.
//!
//! The transformation of Section 6 wraps the black-box adversary A in simple
//! read/write wait-free code: before forwarding an invocation to A, the
//! process announces it in a shared array `M[i]` (the running set of all its
//! invocations so far); after receiving A's response, the process snapshots
//! `M` and returns the union of all entries as the operation's *view*.  Views
//! play the role of timestamps: the view of an operation contains the
//! invocation of every operation that precedes it and of some operations
//! concurrent with it (Theorem 6.1).
//!
//! [`TimedAdversary`] implements the wrapper.  Its four methods correspond to
//! the four groups of lines of Figure 6 and are meant to be scheduled as
//! separate events by the `drv-core` runtime:
//!
//! | Figure 6 lines | method |
//! |---|---|
//! | 01–02 (record + write `M[i]`) | [`TimedAdversary::announce`] |
//! | 03 (send to A)                | [`TimedAdversary::forward_invoke`] |
//! | 04 (receive from A)           | [`TimedAdversary::forward_respond`] |
//! | 05–07 (snapshot `M`, build and return the view) | [`TimedAdversary::snapshot_view`] |

use crate::behavior::Behavior;
use drv_lang::{Invocation, ProcId, Response};
use std::collections::BTreeMap;
use std::fmt;

/// Unique identity of an invocation event: the issuing process and the
/// 0-based index of the operation among that process's operations.
///
/// The paper assumes every invocation symbol is sent at most once (or marked
/// with its position to make it unique); the key is that marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationKey {
    /// The issuing process.
    pub proc: ProcId,
    /// The operation's index among the process's operations.
    pub seq: u64,
}

impl fmt::Display for InvocationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.proc, self.seq)
    }
}

/// The view attached by Aτ to a response: the set of invocations announced in
/// `M` at the time of the snapshot, together with their payloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct View {
    invocations: BTreeMap<InvocationKey, Invocation>,
}

impl View {
    /// The empty view.
    #[must_use]
    pub fn new() -> Self {
        View::default()
    }

    /// Number of invocations in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Returns `true` when the view contains no invocation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Returns `true` when the view contains the invocation identified by
    /// `key`.
    #[must_use]
    pub fn contains(&self, key: &InvocationKey) -> bool {
        self.invocations.contains_key(key)
    }

    /// Inserts an invocation into the view.
    pub fn insert(&mut self, key: InvocationKey, invocation: Invocation) {
        self.invocations.insert(key, invocation);
    }

    /// Iterates over the invocations in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&InvocationKey, &Invocation)> {
        self.invocations.iter()
    }

    /// Number of invocations in the view that satisfy `pred`.
    #[must_use]
    pub fn count_matching(&self, mut pred: impl FnMut(&Invocation) -> bool) -> usize {
        self.invocations.values().filter(|inv| pred(inv)).count()
    }

    /// Set-union of two views.
    #[must_use]
    pub fn union(&self, other: &View) -> View {
        let mut out = self.clone();
        for (k, v) in &other.invocations {
            out.invocations.insert(*k, v.clone());
        }
        out
    }

    /// Returns `true` when `self ⊆ other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &View) -> bool {
        self.invocations
            .keys()
            .all(|k| other.invocations.contains_key(k))
    }

    /// Returns `true` when the views are comparable by containment (the key
    /// property guaranteed by the snapshot in Aτ).
    #[must_use]
    pub fn comparable(&self, other: &View) -> bool {
        self.is_subset_of(other) || other.is_subset_of(self)
    }

    /// The keys of the view, in order.
    #[must_use]
    pub fn keys(&self) -> Vec<InvocationKey> {
        self.invocations.keys().copied().collect()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, inv)) in self.invocations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}:{inv}")?;
        }
        write!(f, "}}")
    }
}

/// A response of the timed adversary: the inner response plus the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedResponse {
    /// The response of the wrapped adversary A.
    pub response: Response,
    /// The view computed from the snapshot of the announce array.
    pub view: View,
}

/// The Figure 6 wrapper turning any [`Behavior`] A into the timed adversary
/// Aτ.
///
/// The shared announce array `M` is modelled as a vector of per-process
/// invocation sets; `announce` and `snapshot_view` are the two shared-memory
/// events of the wrapper and are scheduled as separate atomic steps by the
/// runtime, exactly as the write and snapshot of Figure 6.
#[derive(Debug)]
pub struct TimedAdversary<B> {
    inner: B,
    announce_array: Vec<View>,
    next_seq: Vec<u64>,
}

impl<B: Behavior> TimedAdversary<B> {
    /// Wraps `inner` for a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, inner: B) -> Self {
        assert!(n > 0, "the timed adversary needs at least one process");
        TimedAdversary {
            inner,
            announce_array: vec![View::new(); n],
            next_seq: vec![0; n],
        }
    }

    /// Name of the wrapped behaviour, marked as timed.
    #[must_use]
    pub fn name(&self) -> String {
        format!("Aτ[{}]", self.inner.name())
    }

    /// Access to the wrapped behaviour.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped behaviour (used by the runtime to query
    /// [`Behavior::next_invocation`] and [`Behavior::response_ready`]).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Figure 6, lines 01–02: assigns the invocation its unique key and
    /// writes the process's accumulated invocation set to `M[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of bounds.
    pub fn announce(&mut self, proc: ProcId, invocation: &Invocation) -> InvocationKey {
        let idx = proc.index();
        assert!(idx < self.announce_array.len(), "process index out of bounds");
        let key = InvocationKey {
            proc,
            seq: self.next_seq[idx],
        };
        self.next_seq[idx] += 1;
        self.announce_array[idx].insert(key, invocation.clone());
        key
    }

    /// Figure 6, line 03: forwards the invocation to the wrapped adversary.
    pub fn forward_invoke(&mut self, proc: ProcId, invocation: &Invocation) {
        self.inner.on_invoke(proc, invocation);
    }

    /// Figure 6, line 04: obtains the wrapped adversary's response.
    pub fn forward_respond(&mut self, proc: ProcId) -> Response {
        self.inner.on_respond(proc)
    }

    /// Figure 6, lines 05–07: snapshots `M` and returns the union of its
    /// entries as the view.
    #[must_use]
    pub fn snapshot_view(&self, _proc: ProcId) -> View {
        self.announce_array
            .iter()
            .fold(View::new(), |acc, entry| acc.union(entry))
    }

    /// Convenience: the full wrapped exchange (announce, forward, respond,
    /// view) as a single atomic block.  Executions built this way are *tight*
    /// in the sense of \[17\]: their sketch equals their input word.  Used by
    /// the impossibility constructions of Lemmas 6.2 and 6.5.
    pub fn tight_exchange(&mut self, proc: ProcId, invocation: &Invocation) -> (InvocationKey, TimedResponse) {
        let key = self.announce(proc, invocation);
        self.forward_invoke(proc, invocation);
        let response = self.forward_respond(proc);
        let view = self.snapshot_view(proc);
        (key, TimedResponse { response, view })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::AtomicObject;
    use drv_spec::Register;

    #[test]
    fn views_contain_all_preceding_invocations() {
        let mut timed = TimedAdversary::new(2, AtomicObject::new(Register::new()));
        let w = Invocation::Write(4);
        let key0 = timed.announce(ProcId(0), &w);
        timed.forward_invoke(ProcId(0), &w);
        assert_eq!(timed.forward_respond(ProcId(0)), Response::Ack);
        let view0 = timed.snapshot_view(ProcId(0));
        assert!(view0.contains(&key0));
        assert_eq!(view0.len(), 1);

        let r = Invocation::Read;
        let key1 = timed.announce(ProcId(1), &r);
        timed.forward_invoke(ProcId(1), &r);
        assert_eq!(timed.forward_respond(ProcId(1)), Response::Value(4));
        let view1 = timed.snapshot_view(ProcId(1));
        // The read's view contains both the preceding write and itself.
        assert!(view1.contains(&key0));
        assert!(view1.contains(&key1));
        assert!(view0.is_subset_of(&view1));
        assert!(view0.comparable(&view1));
    }

    #[test]
    fn views_of_concurrent_operations_are_comparable() {
        let mut timed = TimedAdversary::new(3, AtomicObject::new(Register::new()));
        // Announce three concurrent operations before any snapshot.
        let k0 = timed.announce(ProcId(0), &Invocation::Write(1));
        let k1 = timed.announce(ProcId(1), &Invocation::Write(2));
        let k2 = timed.announce(ProcId(2), &Invocation::Read);
        timed.forward_invoke(ProcId(0), &Invocation::Write(1));
        timed.forward_invoke(ProcId(1), &Invocation::Write(2));
        timed.forward_invoke(ProcId(2), &Invocation::Read);
        let _ = timed.forward_respond(ProcId(0));
        let _ = timed.forward_respond(ProcId(1));
        let _ = timed.forward_respond(ProcId(2));
        let v0 = timed.snapshot_view(ProcId(0));
        let v1 = timed.snapshot_view(ProcId(1));
        let v2 = timed.snapshot_view(ProcId(2));
        for (a, b) in [(&v0, &v1), (&v0, &v2), (&v1, &v2)] {
            assert!(a.comparable(b));
        }
        for v in [&v0, &v1, &v2] {
            assert!(v.contains(&k0) && v.contains(&k1) && v.contains(&k2));
        }
    }

    #[test]
    fn tight_exchanges_have_self_contained_views() {
        let mut timed = TimedAdversary::new(2, AtomicObject::new(Register::new()));
        let (key, timed_response) = timed.tight_exchange(ProcId(0), &Invocation::Write(9));
        assert_eq!(timed_response.response, Response::Ack);
        assert!(timed_response.view.contains(&key));
        let (key2, timed_response2) = timed.tight_exchange(ProcId(1), &Invocation::Read);
        assert_eq!(timed_response2.response, Response::Value(9));
        assert!(timed_response2.view.contains(&key));
        assert!(timed_response2.view.contains(&key2));
        assert_eq!(timed.name(), "Aτ[atomic register]");
    }

    #[test]
    fn view_set_operations() {
        let mut a = View::new();
        let mut b = View::new();
        let k0 = InvocationKey { proc: ProcId(0), seq: 0 };
        let k1 = InvocationKey { proc: ProcId(1), seq: 0 };
        a.insert(k0, Invocation::Inc);
        b.insert(k0, Invocation::Inc);
        b.insert(k1, Invocation::Read);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.comparable(&b));
        assert_eq!(a.union(&b).len(), 2);
        assert_eq!(b.count_matching(Invocation::is_inc), 1);
        assert_eq!(b.keys(), vec![k0, k1]);
        assert!(!View::new().contains(&k0));
        assert!(View::new().is_empty());
        assert!(format!("{b}").contains("inc"));
        assert_eq!(format!("{k1}"), "p2#0");
    }

    #[test]
    fn incomparable_views_are_detected() {
        let mut a = View::new();
        let mut b = View::new();
        a.insert(InvocationKey { proc: ProcId(0), seq: 0 }, Invocation::Inc);
        b.insert(InvocationKey { proc: ProcId(1), seq: 0 }, Invocation::Inc);
        assert!(!a.comparable(&b));
    }

    #[test]
    fn inner_access_and_sequencing() {
        let mut timed = TimedAdversary::new(2, AtomicObject::new(Register::new()));
        assert_eq!(timed.inner().name(), "atomic register");
        assert!(timed.inner_mut().response_ready(ProcId(0)));
        let k_first = timed.announce(ProcId(0), &Invocation::Read);
        let k_second = timed.announce(ProcId(0), &Invocation::Read);
        assert_eq!(k_first.seq, 0);
        assert_eq!(k_second.seq, 1);
    }
}
