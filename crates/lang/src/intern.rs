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
//! from.  Two arenas exist in a serving process, both [`SharedInterner`]s:
//!
//! * **the engine's** — owned by the `MonitoringEngine`, filled by the wire
//!   decoder and `submit_batch`, read by the workers through their
//!   [`InternerMirror`]s; it lives as long as the engine;
//! * **the factory's** — owned by a `CheckerMonitorFactory` and handed, as a
//!   clone of the handle, to every incremental checker the factory creates
//!   (a checker built on its own makes a private one); it lives as long as
//!   the factory or its last checker, whichever goes later.
//!
//! Both only ever grow: an entry is never removed, so an id stays valid for
//! the arena's lifetime and evicting an object does not return the payloads
//! it brought.  That has always been true of the engine's arena; the
//! factory's extends the same property to the checkers, in exchange for one
//! copy of each payload per fleet instead of one per object.

use crate::operation::OpId;
use crate::symbol::{Invocation, ProcId, Response};
use std::collections::HashMap;
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
/// id.
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
        if let Some(id) = self.invocation_ids.get(invocation) {
            return *id;
        }
        let id = InvocationId(u32::try_from(self.invocations.len()).expect("< 2^32 invocations"));
        self.invocations.push(invocation.clone());
        self.invocation_ids.insert(invocation.clone(), id);
        id
    }

    /// Interns a response, returning its id (stable across repeats).
    pub fn response(&mut self, response: &Response) -> ResponseId {
        if let Some(id) = self.response_ids.get(response) {
            return *id;
        }
        let id = ResponseId(u32::try_from(self.responses.len()).expect("< 2^32 responses"));
        self.responses.push(response.clone());
        self.response_ids.insert(response.clone(), id);
        id
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

    /// The invocation arena entries appended since `from` (ids `from..`).
    #[must_use]
    pub fn invocations_since(&self, from: usize) -> &[Invocation] {
        &self.invocations[from.min(self.invocations.len())..]
    }

    /// The response arena entries appended since `from` (ids `from..`).
    #[must_use]
    pub fn responses_since(&self, from: usize) -> &[Response] {
        &self.responses[from.min(self.responses.len())..]
    }
}

/// A thread-safe interner shared by many engine shards.
///
/// The same versioned pattern as `drv_shmem::SharedArray`: the arenas only
/// ever *grow*, so a reader that remembers the arena lengths it has already
/// seen (its *version vector*) can refresh a lock-free local
/// [`InternerMirror`] by copying just the tail entries appended since —
/// resolving an id then never takes the lock on the hot path.
///
/// Interning takes a read lock for the (overwhelmingly common) already-known
/// probe and upgrades to a write lock only on first sight of a payload, so
/// concurrent shards interleave freely.
///
/// ```
/// use drv_lang::{Invocation, InternerMirror, SharedInterner};
///
/// let shared = SharedInterner::new();
/// let id = shared.invocation(&Invocation::Write(7));
/// let mut mirror = InternerMirror::new();
/// mirror.sync(&shared);
/// assert_eq!(mirror.resolve_invocation(id), &Invocation::Write(7));
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

    /// The arena lengths `(invocations, responses)` — the version vector of
    /// the mirror pattern.
    #[must_use]
    pub fn versions(&self) -> (usize, usize) {
        let guard = self.inner.read();
        (guard.invocation_count(), guard.response_count())
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

    /// Clones the invocation behind an id out of the arena (mirror-free
    /// slow path; use [`SharedInterner::read`] or an [`InternerMirror`] in
    /// loops).
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different interner.
    #[must_use]
    pub fn resolve_invocation(&self, id: InvocationId) -> Invocation {
        self.inner.read().resolve_invocation(id).clone()
    }

    /// Clones the response behind an id out of the arena.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different interner.
    #[must_use]
    pub fn resolve_response(&self, id: ResponseId) -> Response {
        self.inner.read().resolve_response(id).clone()
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

/// A reader's lock-free local copy of a [`SharedInterner`]'s arenas, grown
/// by version deltas: [`InternerMirror::sync`] copies only the entries
/// appended since the previous sync.
#[derive(Debug, Clone, Default)]
pub struct InternerMirror {
    invocations: Vec<Invocation>,
    responses: Vec<Response>,
}

impl InternerMirror {
    /// Creates an empty mirror (version vector `(0, 0)`).
    #[must_use]
    pub fn new() -> Self {
        InternerMirror::default()
    }

    /// Refreshes the mirror: copies the arena entries appended since the
    /// last sync and returns how many `(invocations, responses)` arrived.
    pub fn sync(&mut self, shared: &SharedInterner) -> (usize, usize) {
        let guard = shared.inner.read();
        let new_invocations = guard.invocations_since(self.invocations.len());
        let new_responses = guard.responses_since(self.responses.len());
        let delta = (new_invocations.len(), new_responses.len());
        self.invocations.extend_from_slice(new_invocations);
        self.responses.extend_from_slice(new_responses);
        delta
    }

    /// The invocation behind an id, without locking.
    ///
    /// # Panics
    ///
    /// Panics when the id is newer than the last [`InternerMirror::sync`]
    /// (or came from a different interner).
    #[must_use]
    pub fn resolve_invocation(&self, id: InvocationId) -> &Invocation {
        &self.invocations[id.0 as usize]
    }

    /// The response behind an id, without locking.
    ///
    /// # Panics
    ///
    /// Panics when the id is newer than the last sync.
    #[must_use]
    pub fn resolve_response(&self, id: ResponseId) -> &Response {
        &self.responses[id.0 as usize]
    }

    /// The mirror's version vector (how much of the arenas it has copied).
    #[must_use]
    pub fn versions(&self) -> (usize, usize) {
        (self.invocations.len(), self.responses.len())
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
        assert_eq!(shared.resolve_invocation(ids[0]), Invocation::Write(42));
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
    fn mirror_syncs_only_deltas() {
        let shared = SharedInterner::new();
        let w = shared.invocation(&Invocation::Write(1));
        let ack = shared.response(&Response::Ack);
        let mut mirror = InternerMirror::new();
        assert_eq!(mirror.sync(&shared), (1, 1));
        assert_eq!(mirror.resolve_invocation(w), &Invocation::Write(1));
        assert_eq!(mirror.resolve_response(ack), &Response::Ack);
        // No growth → empty delta.
        assert_eq!(mirror.sync(&shared), (0, 0));
        let r = shared.invocation(&Invocation::Read);
        assert_eq!(mirror.sync(&shared), (1, 0));
        assert_eq!(mirror.resolve_invocation(r), &Invocation::Read);
        assert_eq!(mirror.versions(), shared.versions());
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
