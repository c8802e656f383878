//! Interned, `Copy`-able representations of invocations, responses and
//! operations.
//!
//! The consistency checkers spend their inner loop comparing and hashing
//! operations.  With the plain [`Invocation`] / [`Response`] enums that means
//! cloning and hashing heap data (ledger sequences, `Custom` strings) once
//! per DFS node.  An [`Interner`] assigns each distinct payload a dense `u32`
//! arena id exactly once; afterwards operations are [`OpRecord`]s — small,
//! `Copy`, compared and hashed as integers — and the payloads are resolved
//! back only at the edges (calling into a sequential specification,
//! materializing a witness).
//!
//! Ids are only meaningful relative to the interner that produced them;
//! nothing enforces this at the type level, so know which arena an id came
//! from.  A serving process has **one arena per engine**, a
//! [`SharedInterner`] owned by the `MonitoringEngine`: the wire decoder,
//! `submit_batch` and journal recovery intern into it, and the engine
//! creates every object's monitor on it (`ObjectMonitorFactory::create_in`),
//! so an event's ids go from the decoded frame into the checker's history
//! unchanged — no payload is hashed or cloned between decode and verdict.
//! A `CheckerMonitorFactory` used on its own (`create`, the sequential
//! reference) has an arena of its own, shared by its checkers, and a checker
//! built on its own makes a private one.
//!
//! Arenas only ever grow: an entry is never removed, so an id stays valid
//! for the arena's lifetime and evicting an object does not return the
//! payloads it brought, in exchange for one copy of each payload per fleet
//! instead of one per object.
//!
//! ## One lock per frame
//!
//! A decoded batch frame interns its two dictionaries through
//! [`SharedInterner::intern_dictionaries`]: every entry is probed under one
//! read guard, and the misses, if any, are interned under one write lock in
//! dictionary order, so the ids are those that interning entry by entry
//! would give.  A miss is hashed twice in all, once by the probe and once by
//! the insertion ([`Interner::invocation`] goes through the map's entry API).
//! The maps hash with [`crate::hash`]'s keyed fold: their keys are payloads a
//! client chose.

use crate::hash::HashMap;
use crate::operation::OpId;
use crate::symbol::{Invocation, ProcId, Response};
use std::collections::hash_map::Entry;
use std::fmt;

/// Dense arena id of an interned [`Invocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u32);

/// Dense arena id of an interned [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResponseId(pub u32);

impl fmt::Display for InvocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv#{}", self.0)
    }
}

impl fmt::Display for ResponseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resp#{}", self.0)
    }
}

/// Two-sided arena mapping invocations and responses to dense `u32` ids.
///
/// Each distinct payload (including the strings inside
/// [`Invocation::Custom`] / [`Response::Custom`] and the record sequences
/// inside [`Response::Sequence`]) is cloned and hashed exactly once, on first
/// sight; every later occurrence costs one hash-map probe and yields a `Copy`
/// id.  Interning itself hashes once, and clones the payload for the map's
/// key before it knows whether the payload is new: it is the write half of
/// [`SharedInterner`], whose callers probe first.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    invocations: Vec<Invocation>,
    responses: Vec<Response>,
    invocation_ids: HashMap<Invocation, InvocationId>,
    response_ids: HashMap<Response, ResponseId>,
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns an invocation, returning its id (stable across repeats).
    pub fn invocation(&mut self, invocation: &Invocation) -> InvocationId {
        match self.invocation_ids.entry(invocation.clone()) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = InvocationId(
                    u32::try_from(self.invocations.len()).expect("< 2^32 invocations"),
                );
                self.invocations.push(invocation.clone());
                *entry.insert(id)
            }
        }
    }

    /// Interns a response, returning its id (stable across repeats).
    pub fn response(&mut self, response: &Response) -> ResponseId {
        match self.response_ids.entry(response.clone()) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = ResponseId(u32::try_from(self.responses.len()).expect("< 2^32 responses"));
                self.responses.push(response.clone());
                *entry.insert(id)
            }
        }
    }

    /// The invocation behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different interner.
    #[must_use]
    pub fn resolve_invocation(&self, id: InvocationId) -> &Invocation {
        &self.invocations[id.0 as usize]
    }

    /// The response behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different interner.
    #[must_use]
    pub fn resolve_response(&self, id: ResponseId) -> &Response {
        &self.responses[id.0 as usize]
    }

    /// Number of distinct invocations interned so far.
    #[must_use]
    pub fn invocation_count(&self) -> usize {
        self.invocations.len()
    }

    /// Number of distinct responses interned so far.
    #[must_use]
    pub fn response_count(&self) -> usize {
        self.responses.len()
    }

    /// The id of an already-interned invocation, without interning.
    #[must_use]
    pub fn lookup_invocation(&self, invocation: &Invocation) -> Option<InvocationId> {
        self.invocation_ids.get(invocation).copied()
    }

    /// The id of an already-interned response, without interning.
    #[must_use]
    pub fn lookup_response(&self, response: &Response) -> Option<ResponseId> {
        self.response_ids.get(response).copied()
    }
}

/// A thread-safe interner shared by producers, engine workers and checkers;
/// clones are handles onto the same arena.
///
/// Interning takes a read lock for the (overwhelmingly common) already-known
/// probe and upgrades to a write lock only on first sight of a payload, so
/// concurrent threads interleave freely.  Payloads are resolved under a
/// [`SharedInterner::read`] guard, any number per acquisition.
///
/// ```
/// use drv_lang::{Invocation, SharedInterner};
///
/// let shared = SharedInterner::new();
/// let id = shared.invocation(&Invocation::Write(7));
/// assert_eq!(shared.read().resolve_invocation(id), &Invocation::Write(7));
/// assert!(SharedInterner::ptr_eq(&shared, &shared.clone()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedInterner {
    inner: std::sync::Arc<parking_lot::RwLock<Interner>>,
}

impl SharedInterner {
    /// Creates an empty shared interner.
    #[must_use]
    pub fn new() -> Self {
        SharedInterner::default()
    }

    /// Interns an invocation (read-probe fast path, write lock on first
    /// sight), returning its id.
    pub fn invocation(&self, invocation: &Invocation) -> InvocationId {
        if let Some(id) = self.inner.read().lookup_invocation(invocation) {
            return id;
        }
        self.inner.write().invocation(invocation)
    }

    /// Interns a response, returning its id.
    pub fn response(&self, response: &Response) -> ResponseId {
        if let Some(id) = self.inner.read().lookup_response(response) {
            return id;
        }
        self.inner.write().response(response)
    }

    /// Interns a frame's dictionaries, returning their ids in entry order:
    /// the ids interning the entries one by one would give, for one read
    /// lock and, only if some entry is new, one write lock.
    pub fn intern_dictionaries(
        &self,
        invocations: &[Invocation],
        responses: &[Response],
    ) -> (Vec<InvocationId>, Vec<ResponseId>) {
        let (mut inv_ids, mut resp_ids): (Vec<_>, Vec<_>) = {
            let arena = self.inner.read();
            (
                invocations.iter().map(|entry| arena.lookup_invocation(entry)).collect(),
                responses.iter().map(|entry| arena.lookup_response(entry)).collect(),
            )
        };
        if inv_ids.contains(&None) || resp_ids.contains(&None) {
            let mut arena = self.inner.write();
            for (id, entry) in inv_ids.iter_mut().zip(invocations) {
                id.get_or_insert_with(|| arena.invocation(entry));
            }
            for (id, entry) in resp_ids.iter_mut().zip(responses) {
                id.get_or_insert_with(|| arena.response(entry));
            }
        }
        (
            inv_ids.into_iter().map(|id| id.expect("interned above")).collect(),
            resp_ids.into_iter().map(|id| id.expect("interned above")).collect(),
        )
    }

    /// The arena lengths `(invocations, responses)`: how many distinct
    /// payloads of each kind it holds.
    #[must_use]
    pub fn versions(&self) -> (usize, usize) {
        let guard = self.inner.read();
        (guard.invocation_count(), guard.response_count())
    }

    /// Whether two handles are the same arena (so an id from one is an id
    /// of the other), as [`std::sync::Arc::ptr_eq`].
    #[must_use]
    pub fn ptr_eq(a: &SharedInterner, b: &SharedInterner) -> bool {
        std::sync::Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// Locks the arenas for reading: resolve and probe any number of ids
    /// through one acquisition, without cloning a payload out.
    ///
    /// The calling thread must not intern through this handle (or take a
    /// second guard) while it holds the guard: a writer queued in between
    /// blocks new readers, and the thread would wait on itself.  Probe with
    /// [`Interner::lookup_invocation`] / [`Interner::lookup_response`] under
    /// the guard and, on a miss, drop it before interning.
    #[must_use]
    pub fn read(&self) -> InternerReadGuard<'_> {
        InternerReadGuard {
            guard: self.inner.read(),
        }
    }
}

/// Shared read access to a [`SharedInterner`]'s arenas, from
/// [`SharedInterner::read`]; dereferences to the [`Interner`].
pub struct InternerReadGuard<'a> {
    guard: parking_lot::RwLockReadGuard<'a, Interner>,
}

impl std::ops::Deref for InternerReadGuard<'_> {
    type Target = Interner;

    fn deref(&self) -> &Interner {
        &self.guard
    }
}

/// A matched invocation/response pair in interned form: 32 bytes, `Copy`,
/// integer-compared — the operation representation of the incremental
/// checking engine (the heavyweight sibling is [`crate::Operation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRecord {
    /// Identifier of this operation (its index in the history).
    pub id: OpId,
    /// The invoking process.
    pub proc: ProcId,
    /// Interned invocation payload.
    pub invocation: InvocationId,
    /// Interned response payload, if the operation is complete.
    pub response: Option<ResponseId>,
    /// Position of the invocation symbol in the word.
    pub inv_pos: u32,
    /// Position of the response symbol in the word, if complete.
    pub resp_pos: Option<u32>,
    /// 0-based sequence number among the operations of the same process.
    pub local_index: u32,
}

impl OpRecord {
    /// Returns `true` when the operation has a response.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.resp_pos.is_some()
    }

    /// Returns `true` when the operation is pending.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.resp_pos.is_none()
    }

    /// Returns `true` when `self` precedes `other` in real time.
    #[must_use]
    pub fn precedes(&self, other: &OpRecord) -> bool {
        match self.resp_pos {
            Some(r) => r < other.inv_pos,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_interner_is_idempotent_across_threads() {
        let shared = SharedInterner::new();
        let ids: Vec<InvocationId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let shared = shared.clone();
                    scope.spawn(move || shared.invocation(&Invocation::Write(42)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shared.versions().0, 1);
        assert_eq!(shared.read().resolve_invocation(ids[0]), &Invocation::Write(42));
    }

    #[test]
    fn a_read_guard_resolves_and_probes_without_cloning() {
        let shared = SharedInterner::new();
        let write = shared.invocation(&Invocation::Custom("cas".into(), 3));
        let ack = shared.response(&Response::Ack);
        let guard = shared.read();
        assert_eq!(
            guard.resolve_invocation(write),
            &Invocation::Custom("cas".into(), 3)
        );
        assert_eq!(guard.lookup_response(&Response::Ack), Some(ack));
        assert_eq!(guard.lookup_invocation(&Invocation::Read), None);
        // Shared with other readers, as the per-call accessors are.
        assert_eq!(shared.read().invocation_count(), 1);
    }

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let mut interner = Interner::new();
        let w1 = interner.invocation(&Invocation::Write(1));
        let w1_again = interner.invocation(&Invocation::Write(1));
        let w2 = interner.invocation(&Invocation::Write(2));
        assert_eq!(w1, w1_again);
        assert_ne!(w1, w2);
        assert_eq!(interner.resolve_invocation(w1), &Invocation::Write(1));
        assert_eq!(interner.invocation_count(), 2);

        let ack = interner.response(&Response::Ack);
        let seq = interner.response(&Response::Sequence(vec![1, 2]));
        assert_eq!(interner.response(&Response::Ack), ack);
        assert_eq!(
            interner.resolve_response(seq),
            &Response::Sequence(vec![1, 2])
        );
        assert_eq!(interner.response_count(), 2);
    }

    #[test]
    fn custom_strings_are_interned_once() {
        let mut interner = Interner::new();
        let a = interner.invocation(&Invocation::Custom("cas".into(), 1));
        let b = interner.invocation(&Invocation::Custom("cas".into(), 1));
        let c = interner.invocation(&Invocation::Custom("cas".into(), 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.invocation_count(), 2);
    }

    #[test]
    fn op_record_is_small_and_copy() {
        // The whole point of the record: pass-by-value in the inner loop.
        assert!(std::mem::size_of::<OpRecord>() <= 48);
        let record = OpRecord {
            id: OpId(0),
            proc: ProcId(1),
            invocation: InvocationId(0),
            response: Some(ResponseId(0)),
            inv_pos: 0,
            resp_pos: Some(3),
            local_index: 0,
        };
        let copy = record;
        assert_eq!(copy, record);
        assert!(record.is_complete());
        assert!(!record.is_pending());
    }

    #[test]
    fn op_record_precedence_matches_operation_semantics() {
        let a = OpRecord {
            id: OpId(0),
            proc: ProcId(0),
            invocation: InvocationId(0),
            response: Some(ResponseId(0)),
            inv_pos: 0,
            resp_pos: Some(1),
            local_index: 0,
        };
        let b = OpRecord {
            id: OpId(1),
            proc: ProcId(1),
            invocation: InvocationId(1),
            response: None,
            inv_pos: 2,
            resp_pos: None,
            local_index: 0,
        };
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
    }
}
