//! Interned, `Copy`-able representations of invocations, responses and
//! operations.
//!
//! The consistency checkers spend their inner loop comparing and hashing
//! operations.  With the plain [`Invocation`] / [`Response`] enums that means
//! cloning and hashing heap data (ledger sequences, `Custom` strings) once
//! per DFS node.  An [`Interner`] gives each distinct payload one `u32` id;
//! afterwards operations are [`OpRecord`]s — small, `Copy`, compared and
//! hashed as integers — and the payloads are resolved back only at the edges
//! (calling into a sequential specification, materializing a witness).
//!
//! ## The id layout
//!
//! An id is one of two kinds, told apart by its top bit:
//!
//! * **Inline** (bit 31 set): the id *is* a scalar payload.  Bits 29–30 hold
//!   the variant and bits 0–28 the value.  `Write`, `Enqueue` and `Push(v)`
//!   and the responses `Value(v)` and `MaybeValue(Some(v))` are inline when
//!   `v` < [`INLINE_VALUE_LIMIT`] (2²⁹); the unit payloads — `Read`, `Inc`,
//!   `Get`, `Dequeue`, `Pop`, `Ack` and `MaybeValue(None)` — always are.
//!   Interning one takes no lock, no hash and no arena slot.  (A checker
//!   run that resolves payloads to step its specification still takes the
//!   arena's read guard, once per run.)
//! * **Arena slot** (bit 31 clear): a dense index into the interner's arena,
//!   assigned on first sight.  `Append`, `Sequence`, `Custom` and the
//!   scalar variants with a value from 2²⁹ up take one.
//!
//! Which kind a payload gets is a pure function of the payload
//! ([`InvocationId::inline`], [`ResponseId::inline`]), so a payload still has
//! exactly one id in an arena — the invariant the checkers' integer
//! comparisons rely on — and an inline id means the same payload in every
//! arena.
//!
//! An arena-slot id is only meaningful relative to the interner that
//! produced it; nothing enforces this at the type level, so know which arena
//! an id came from.  A serving process has **one arena per engine**, a
//! [`SharedInterner`] owned by the `MonitoringEngine`: the wire decoder,
//! `submit_batch` and journal recovery intern into it, and the engine
//! creates every object's monitor on it (`ObjectMonitorFactory::create_in`),
//! so an event's ids go from the decoded frame into the checker's history
//! unchanged — no payload is hashed or cloned between decode and verdict.
//! A `CheckerMonitorFactory` used on its own (`create`, the sequential
//! reference) has an arena of its own, shared by its checkers, and a checker
//! built on its own makes a private one.
//!
//! Arenas only ever grow, but only non-scalar payloads (and scalars past the
//! inline bound) enter one: an entry is never removed, so an id stays valid
//! for the arena's lifetime and evicting an object does not return the
//! payloads it brought, in exchange for one copy of each payload per fleet
//! instead of one per object.  A register, counter, queue or stack fleet
//! whose values stay below 2²⁹ leaves its arena empty however many values
//! it writes.
//!
//! ## One lock per frame
//!
//! A decoded batch frame interns its two dictionaries through
//! [`SharedInterner::intern_dictionaries`]: inline entries are answered
//! first, and only if some entry is not inline are the rest probed under one
//! read guard, and the misses, if any, interned under one write lock in
//! dictionary order, so the ids are those that interning entry by entry
//! would give.  A miss is hashed twice in all, once by the probe and once by
//! the insertion ([`Interner::invocation`] goes through the map's entry API).
//! The maps hash with [`crate::hash`]'s keyed fold: their keys are payloads a
//! client chose.

use crate::hash::HashMap;
use crate::operation::OpId;
use crate::symbol::{Invocation, ProcId, Response};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;

/// Payload id of an [`Invocation`]: inline or an arena slot (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u32);

/// Payload id of a [`Response`]: inline or an arena slot (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResponseId(pub u32);

/// Bit 31 of an id: the id is the payload itself, not an arena slot.
const INLINE: u32 = 1 << 31;
/// An inline id's variant tag sits in bits 29–30, its value below them.
const TAG_SHIFT: u32 = 29;
/// The tag of the unit variants, whose value bits number the variant.
pub(crate) const UNIT: u32 = 3;

/// Scalar payloads carrying a value below this bound are inline ids; from
/// here up they take an arena slot like any other payload.
pub const INLINE_VALUE_LIMIT: u64 = 1 << TAG_SHIFT;

/// The inline id of variant `tag` carrying `value`, if the value fits.
#[inline]
fn inline_bits(tag: u32, value: u64) -> Option<u32> {
    (value < INLINE_VALUE_LIMIT).then_some(INLINE | tag << TAG_SHIFT | value as u32)
}

/// The `(tag, value)` of an inline id, or `None` for an arena slot.
#[inline]
pub(crate) fn inline_fields(id: u32) -> Option<(u32, u64)> {
    (id & INLINE != 0).then(|| {
        (
            (id >> TAG_SHIFT) & 3,
            u64::from(id & (INLINE_VALUE_LIMIT as u32 - 1)),
        )
    })
}

/// The id of an arena's next slot, `len`.
fn arena_slot(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|slot| slot & INLINE == 0)
        .expect("< 2^31 arena slots")
}

impl InvocationId {
    /// The inline id of `invocation`, or `None` when it takes an arena slot
    /// (module docs).
    #[inline]
    #[must_use]
    pub fn inline(invocation: &Invocation) -> Option<InvocationId> {
        let (tag, value) = match *invocation {
            Invocation::Write(value) => (0, value),
            Invocation::Enqueue(value) => (1, value),
            Invocation::Push(value) => (2, value),
            Invocation::Read => (UNIT, 0),
            Invocation::Inc => (UNIT, 1),
            Invocation::Get => (UNIT, 2),
            Invocation::Dequeue => (UNIT, 3),
            Invocation::Pop => (UNIT, 4),
            Invocation::Append(_) | Invocation::Custom(..) => return None,
        };
        inline_bits(tag, value).map(InvocationId)
    }

    /// Whether the id is the payload itself rather than an arena slot.
    #[inline]
    #[must_use]
    pub fn is_inline(self) -> bool {
        self.0 & INLINE != 0
    }

    /// The payload of an inline id; `None` for an arena slot.
    ///
    /// # Panics
    ///
    /// Panics on an inline id no payload maps to.
    #[inline]
    #[must_use]
    pub fn inline_payload(self) -> Option<Invocation> {
        let (tag, value) = inline_fields(self.0)?;
        Some(match (tag, value) {
            (0, value) => Invocation::Write(value),
            (1, value) => Invocation::Enqueue(value),
            (2, value) => Invocation::Push(value),
            (_, 0) => Invocation::Read,
            (_, 1) => Invocation::Inc,
            (_, 2) => Invocation::Get,
            (_, 3) => Invocation::Dequeue,
            (_, 4) => Invocation::Pop,
            _ => panic!("{:#x} is no invocation id", self.0),
        })
    }
}

impl ResponseId {
    /// The inline id of `response`, or `None` when it takes an arena slot
    /// (module docs).
    #[inline]
    #[must_use]
    pub fn inline(response: &Response) -> Option<ResponseId> {
        let (tag, value) = match *response {
            Response::Value(value) => (0, value),
            Response::MaybeValue(Some(value)) => (1, value),
            Response::Ack => (UNIT, 0),
            Response::MaybeValue(None) => (UNIT, 1),
            Response::Sequence(_) | Response::Custom(..) => return None,
        };
        inline_bits(tag, value).map(ResponseId)
    }

    /// Whether the id is the payload itself rather than an arena slot.
    #[inline]
    #[must_use]
    pub fn is_inline(self) -> bool {
        self.0 & INLINE != 0
    }

    /// The payload of an inline id; `None` for an arena slot.
    ///
    /// # Panics
    ///
    /// Panics on an inline id no payload maps to.
    #[inline]
    #[must_use]
    pub fn inline_payload(self) -> Option<Response> {
        let (tag, value) = inline_fields(self.0)?;
        Some(match (tag, value) {
            (0, value) => Response::Value(value),
            (1, value) => Response::MaybeValue(Some(value)),
            (UNIT, 0) => Response::Ack,
            (UNIT, 1) => Response::MaybeValue(None),
            _ => panic!("{:#x} is no response id", self.0),
        })
    }
}

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

/// Two-sided arena mapping invocations and responses to `u32` ids.
///
/// A scalar payload is its own id and never touches the arena (module docs).
/// Each other distinct payload (including the strings inside
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
        if let Some(id) = InvocationId::inline(invocation) {
            return id;
        }
        match self.invocation_ids.entry(invocation.clone()) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = InvocationId(arena_slot(self.invocations.len()));
                self.invocations.push(invocation.clone());
                *entry.insert(id)
            }
        }
    }

    /// Interns a response, returning its id (stable across repeats).
    pub fn response(&mut self, response: &Response) -> ResponseId {
        if let Some(id) = ResponseId::inline(response) {
            return id;
        }
        match self.response_ids.entry(response.clone()) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = ResponseId(arena_slot(self.responses.len()));
                self.responses.push(response.clone());
                *entry.insert(id)
            }
        }
    }

    /// The invocation behind an id: built from an inline id, borrowed from
    /// the arena for a slot.
    ///
    /// # Panics
    ///
    /// Panics if a slot id came from a different interner.
    #[inline]
    #[must_use]
    pub fn resolve_invocation(&self, id: InvocationId) -> Cow<'_, Invocation> {
        match id.inline_payload() {
            Some(payload) => Cow::Owned(payload),
            None => Cow::Borrowed(&self.invocations[id.0 as usize]),
        }
    }

    /// The response behind an id: built from an inline id, borrowed from the
    /// arena for a slot.
    ///
    /// # Panics
    ///
    /// Panics if a slot id came from a different interner.
    #[inline]
    #[must_use]
    pub fn resolve_response(&self, id: ResponseId) -> Cow<'_, Response> {
        match id.inline_payload() {
            Some(payload) => Cow::Owned(payload),
            None => Cow::Borrowed(&self.responses[id.0 as usize]),
        }
    }

    /// Number of arena slots the invocations hold: the distinct invocations
    /// interned so far that are not inline.
    #[must_use]
    pub fn invocation_count(&self) -> usize {
        self.invocations.len()
    }

    /// Number of arena slots the responses hold: the distinct responses
    /// interned so far that are not inline.
    #[must_use]
    pub fn response_count(&self) -> usize {
        self.responses.len()
    }

    /// The id of an inline or already-interned invocation, without
    /// interning.
    #[inline]
    #[must_use]
    pub fn lookup_invocation(&self, invocation: &Invocation) -> Option<InvocationId> {
        InvocationId::inline(invocation).or_else(|| self.invocation_ids.get(invocation).copied())
    }

    /// The id of an inline or already-interned response, without interning.
    #[inline]
    #[must_use]
    pub fn lookup_response(&self, response: &Response) -> Option<ResponseId> {
        ResponseId::inline(response).or_else(|| self.response_ids.get(response).copied())
    }
}

/// A thread-safe interner shared by producers, engine workers and checkers;
/// clones are handles onto the same arena.
///
/// Interning a scalar payload takes no lock at all (module docs).  Any other
/// takes a read lock for the (overwhelmingly common) already-known probe and
/// upgrades to a write lock only on first sight of a payload, so concurrent
/// threads interleave freely.  Payloads are resolved under a
/// [`SharedInterner::read`] guard, any number per acquisition.
///
/// ```
/// use drv_lang::{Invocation, SharedInterner};
///
/// let shared = SharedInterner::new();
/// let cas = Invocation::Custom("cas".into(), 7);
/// let id = shared.invocation(&cas);
/// assert_eq!(*shared.read().resolve_invocation(id), cas);
/// assert_eq!(shared.versions(), (1, 0));
/// // A scalar payload is its own id: no arena slot, the same in any arena.
/// let write = shared.invocation(&Invocation::Write(7));
/// assert_eq!(*shared.read().resolve_invocation(write), Invocation::Write(7));
/// assert_eq!(SharedInterner::new().invocation(&Invocation::Write(7)), write);
/// assert_eq!(shared.versions(), (1, 0));
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

    /// Interns an invocation (inline without a lock, else read-probe fast
    /// path, write lock on first sight), returning its id.
    pub fn invocation(&self, invocation: &Invocation) -> InvocationId {
        if let Some(id) = InvocationId::inline(invocation) {
            return id;
        }
        if let Some(id) = self.inner.read().invocation_ids.get(invocation).copied() {
            return id;
        }
        self.inner.write().invocation(invocation)
    }

    /// Interns a response, returning its id.
    pub fn response(&self, response: &Response) -> ResponseId {
        if let Some(id) = ResponseId::inline(response) {
            return id;
        }
        if let Some(id) = self.inner.read().response_ids.get(response).copied() {
            return id;
        }
        self.inner.write().response(response)
    }

    /// Interns a frame's dictionaries, returning their ids in entry order:
    /// the ids interning the entries one by one would give, for no lock if
    /// every entry is inline, else one read lock and, only if some entry is
    /// new, one write lock.
    pub fn intern_dictionaries(
        &self,
        invocations: &[Invocation],
        responses: &[Response],
    ) -> (Vec<InvocationId>, Vec<ResponseId>) {
        let mut inv_ids: Vec<_> = invocations.iter().map(InvocationId::inline).collect();
        let mut resp_ids: Vec<_> = responses.iter().map(ResponseId::inline).collect();
        if inv_ids.contains(&None) || resp_ids.contains(&None) {
            let arena = self.inner.read();
            for (id, entry) in inv_ids.iter_mut().zip(invocations) {
                *id = id.or_else(|| arena.invocation_ids.get(entry).copied());
            }
            for (id, entry) in resp_ids.iter_mut().zip(responses) {
                *id = id.or_else(|| arena.response_ids.get(entry).copied());
            }
        }
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
    /// payloads of each kind hold a slot.  Inline payloads take none, so a
    /// stream of scalar payloads leaves this at `(0, 0)`.
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
        let cas = Invocation::Custom("cas".into(), 42);
        let ids: Vec<(InvocationId, InvocationId)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (shared, cas) = (shared.clone(), &cas);
                    scope.spawn(move || {
                        (shared.invocation(&Invocation::Write(42)), shared.invocation(cas))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        let (write, custom) = ids[0];
        assert!(write.is_inline() && !custom.is_inline());
        // One slot, the `Custom` payload's: the scalar write takes none.
        assert_eq!(shared.versions(), (1, 0));
        assert_eq!(*shared.read().resolve_invocation(write), Invocation::Write(42));
        assert_eq!(*shared.read().resolve_invocation(custom), cas);
    }

    #[test]
    fn a_read_guard_resolves_and_probes_without_cloning() {
        let shared = SharedInterner::new();
        let cas = shared.invocation(&Invocation::Custom("cas".into(), 3));
        let sequence = shared.response(&Response::Sequence(vec![3]));
        let ack = shared.response(&Response::Ack);
        let guard = shared.read();
        // A slot resolves to a borrow of the arena's copy.
        assert!(matches!(
            guard.resolve_invocation(cas),
            Cow::Borrowed(Invocation::Custom(name, 3)) if name == "cas"
        ));
        assert_eq!(guard.lookup_response(&Response::Sequence(vec![3])), Some(sequence));
        assert_eq!(guard.lookup_response(&Response::Ack), Some(ack));
        assert_eq!(guard.lookup_invocation(&Invocation::Custom("swap".into(), 3)), None);
        // A scalar payload needs no interning to be found.
        assert_eq!(
            guard.lookup_invocation(&Invocation::Read),
            InvocationId::inline(&Invocation::Read)
        );
        // Shared with other readers, as the per-call accessors are.
        assert_eq!(shared.read().invocation_count(), 1);
        assert_eq!(shared.read().response_count(), 1);
    }

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let mut interner = Interner::new();
        let w1 = interner.invocation(&Invocation::Write(1));
        let w1_again = interner.invocation(&Invocation::Write(1));
        let w2 = interner.invocation(&Invocation::Write(2));
        let big = interner.invocation(&Invocation::Write(INLINE_VALUE_LIMIT));
        let big_again = interner.invocation(&Invocation::Write(INLINE_VALUE_LIMIT));
        let max = interner.invocation(&Invocation::Write(u64::MAX));
        assert_eq!(w1, w1_again);
        assert_eq!(big, big_again);
        assert_ne!(w1, w2);
        assert_ne!(big, max);
        assert_eq!(*interner.resolve_invocation(w1), Invocation::Write(1));
        assert_eq!(*interner.resolve_invocation(big), Invocation::Write(INLINE_VALUE_LIMIT));
        assert_eq!(*interner.resolve_invocation(max), Invocation::Write(u64::MAX));
        // The two writes past the inline bound hold slots; 1 and 2 do not.
        assert_eq!(interner.invocation_count(), 2);

        let ack = interner.response(&Response::Ack);
        let seq = interner.response(&Response::Sequence(vec![1, 2]));
        assert_eq!(interner.response(&Response::Ack), ack);
        assert_eq!(*interner.resolve_response(seq), Response::Sequence(vec![1, 2]));
        assert_eq!(*interner.resolve_response(ack), Response::Ack);
        assert_eq!(interner.response_count(), 1);
    }

    /// Every scalar variant at the inline boundary: `(payload, inline)`.
    fn boundary_invocations() -> Vec<(Invocation, bool)> {
        let mut table = Vec::new();
        for make in [Invocation::Write, Invocation::Enqueue, Invocation::Push] {
            for (value, inline) in [
                (0, true),
                (1, true),
                (INLINE_VALUE_LIMIT - 1, true),
                (INLINE_VALUE_LIMIT, false),
                (u64::MAX, false),
            ] {
                table.push((make(value), inline));
            }
        }
        for unit in [
            Invocation::Read,
            Invocation::Inc,
            Invocation::Get,
            Invocation::Dequeue,
            Invocation::Pop,
        ] {
            table.push((unit, true));
        }
        table.push((Invocation::Append(0), false));
        table.push((Invocation::Custom("cas".into(), 0), false));
        table
    }

    /// The responses' boundary table, as [`boundary_invocations`].
    fn boundary_responses() -> Vec<(Response, bool)> {
        let mut table = Vec::new();
        for (value, inline) in [
            (0, true),
            (1, true),
            (INLINE_VALUE_LIMIT - 1, true),
            (INLINE_VALUE_LIMIT, false),
            (u64::MAX, false),
        ] {
            table.push((Response::Value(value), inline));
            table.push((Response::MaybeValue(Some(value)), inline));
        }
        table.push((Response::Ack, true));
        table.push((Response::MaybeValue(None), true));
        table.push((Response::Sequence(vec![0]), false));
        table.push((Response::Custom("cas".into(), 0), false));
        table
    }

    #[test]
    fn a_scalar_payload_below_the_bound_is_its_own_id_through_every_entry_point() {
        let (invocations, responses) = (boundary_invocations(), boundary_responses());
        let inv_payloads: Vec<Invocation> = invocations.iter().map(|(p, _)| p.clone()).collect();
        let resp_payloads: Vec<Response> = responses.iter().map(|(p, _)| p.clone()).collect();
        // An arena whose first slots are taken by something else, and an
        // unrelated empty one.
        let seeded = SharedInterner::new();
        seeded.invocation(&Invocation::Custom("other".into(), 1));
        seeded.response(&Response::Custom("other".into(), 1));
        // Three arenas fed the same payloads in the same order, one per
        // entry point, so their slots agree as well.
        let mut plain = Interner::new();
        let shared = SharedInterner::new();
        let (dict_inv, dict_resp) = SharedInterner::new().intern_dictionaries(
            &inv_payloads,
            &resp_payloads,
        );
        for (index, (payload, inline)) in invocations.iter().enumerate() {
            let id = plain.invocation(payload);
            assert_eq!(id.is_inline(), *inline, "{payload}");
            assert_eq!(InvocationId::inline(payload).is_some(), *inline, "{payload}");
            assert_eq!(*plain.resolve_invocation(id), *payload, "{payload} round-trips");
            assert_eq!(plain.lookup_invocation(payload), Some(id), "{payload}");
            assert_eq!(shared.invocation(payload), id, "{payload}: SharedInterner");
            assert_eq!(dict_inv[index], id, "{payload}: intern_dictionaries");
            let other = seeded.invocation(payload);
            assert_eq!(other == id, *inline, "{payload}: inline ids agree across arenas");
            assert_eq!(*seeded.read().resolve_invocation(other), *payload, "{payload}");
        }
        for (index, (payload, inline)) in responses.iter().enumerate() {
            let id = plain.response(payload);
            assert_eq!(id.is_inline(), *inline, "{payload}");
            assert_eq!(*plain.resolve_response(id), *payload, "{payload} round-trips");
            assert_eq!(plain.lookup_response(payload), Some(id), "{payload}");
            assert_eq!(shared.response(payload), id, "{payload}: SharedInterner");
            assert_eq!(dict_resp[index], id, "{payload}: intern_dictionaries");
            let other = seeded.response(payload);
            assert_eq!(other == id, *inline, "{payload}: inline ids agree across arenas");
            assert_eq!(*seeded.read().resolve_response(other), *payload, "{payload}");
        }
        // Exactly the payloads the tables mark as not inline hold slots.
        fn slots<P>(table: &[(P, bool)]) -> usize {
            table.iter().filter(|(_, inline)| !inline).count()
        }
        assert_eq!(plain.invocation_count(), slots(&invocations));
        assert_eq!(plain.response_count(), slots(&responses));
        assert_eq!(seeded.versions(), (slots(&invocations) + 1, slots(&responses) + 1));
        // A frame of inline entries only leaves a fresh arena empty.
        let scalar = SharedInterner::new();
        let inline_inv: Vec<Invocation> =
            invocations.into_iter().filter(|(_, inline)| *inline).map(|(p, _)| p).collect();
        let inline_resp: Vec<Response> =
            responses.into_iter().filter(|(_, inline)| *inline).map(|(p, _)| p).collect();
        let (inv_ids, resp_ids) = scalar.intern_dictionaries(&inline_inv, &inline_resp);
        assert!(inv_ids.iter().all(|id| id.is_inline()) && resp_ids.iter().all(|id| id.is_inline()));
        assert_eq!(scalar.versions(), (0, 0));
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
