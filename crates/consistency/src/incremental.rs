//! The incremental consistency-checking engine.
//!
//! The Figure 8 monitor re-checks its reconstructed history every loop
//! iteration; done naively (rebuild the history, run the Wing–Gong DFS from
//! the root) a run of `k` iterations costs Θ(k × full-DFS).  This engine
//! makes the per-iteration cost amortized O(delta) in the common case by
//! persisting two things across calls:
//!
//! 1. **The last witness.**  When the previous check found a linearization,
//!    a newly completed operation is first *greedily spliced* into it: try
//!    every legal suffix position of the previous order, deepest first (the
//!    append-at-the-end case is O(1); position `i` costs a replay of the
//!    suffix, and a budget caps the replays so the scan never degenerates
//!    to O(m²)).  Two further maintenance moves run before the search
//!    fallback: *excision* — an operation the search had completed with an
//!    assumed specification response and that came back differently leaves
//!    the order and is re-spliced (every specification shipped in
//!    `drv-spec` has one legal response per step, so a different response
//!    never fits where the assumed one stood) — and *pending rescue* — when
//!    the new operation observed the effect of an operation that is still
//!    pending (its view ran ahead of its acknowledgement, the signature
//!    pattern of the Figure 8 sketches), that open operation is linearized
//!    at the end first.  Only when all of these fail does the
//!    engine fall back to search.  A new *pending* invocation is free: both
//!    criteria allow dropping pending operations, so the old witness stays
//!    valid untouched.
//! 2. **The search frontier.**  The DFS fallback never explores blindly from
//!    the root: at every depth it first tries the operation the previous
//!    witness chose there (the preserved frontier), so the search walks
//!    straight back to the old linearization and only branches where the new
//!    operation actually forces a difference.  Invariant: *witness alive ⇒
//!    frontier ≡ the witness order's ids*, so the frontier is stored only
//!    while no witness is — it is copied out of a witness at the points one
//!    is discarded, and a checkpoint writes whichever of the two exists.
//!
//! Besides those two the engine keeps the history itself and nothing of the
//! input: no copy of the symbols it was fed (the [`InternedHistory`] records
//! every well-formed symbol as one side of an operation and keeps the rare
//! skipped ones beside them, which is enough to rebuild the word exactly —
//! checkpoints and [`IncrementalChecker::check_word`]'s extension test do)
//! and no payloads (they live in a [`SharedInterner`] outside the engine:
//! the serving engine's or a factory's, shared by its checkers, or a
//! private one after [`IncrementalChecker::new`]; either way the same
//! type, behind one read guard per run).
//!
//! Nothing else outlives a search.  Dead configurations are keyed by a
//! compact progress vector (counts packed exactly into a `u128` whenever
//! they fit) plus a 128-bit FNV-1a hash of the sequential state — no state
//! clones, no re-hashing of heap payloads in the inner loop — and growing
//! the history changes which configurations are dead (a fresh operation can
//! resurrect an old dead end), so the table is scoped to one run: it lives,
//! with the progress vector and the order under construction, in a
//! per-thread scratch (`search.rs`) that each run empties and reuses,
//! whichever checker the thread is serving.
//!
//! Three further structural facts are exploited:
//!
//! * **Linearizability is prefix-closed** (Herlihy & Wing): once a word
//!   prefix is non-linearizable, every extension is too, so a definite NO
//!   latches and later checks are O(1).  Sequential consistency is *not*
//!   closed under extension (a later write by another process can legalize
//!   an earlier wild read), so the SC engine never latches.
//! * **A sequential-consistency NO stands until a process that is not
//!   blocked invokes a mutator.**
//!   After a search has refuted the history, the next symbol cannot create a
//!   witness when it is (R0) ill-formed and skipped: the history is the same;
//!   (R1) a response: the operation was pending in the refuted history, a
//!   witness of the longer word linearizes it where the specification
//!   produces exactly the observed response, and is therefore a witness of
//!   the refuted word too; (R2) the invocation of an observer
//!   (`!Invocation::is_mutator()`): deleting a state-preserving operation
//!   from a witness leaves a witness; (R3) the invocation of a mutator by a
//!   *blocked* process.  The refuting search records, per process `p`,
//!   whether any configuration it entered had all of `p`'s operations placed
//!   (linearized or dropped); `p` is blocked when none did.  A witness of
//!   the longer word must place the new operation (dropping it would leave a
//!   witness of the refuted word), and with it every earlier operation of
//!   `p`, which takes a configuration of the refuted word's own search with
//!   all of them placed.  The set stays valid across R0–R3 (R1 relies on
//!   [`SequentialSpec::step_if_legal`] reaching the state `apply` gives, so
//!   the longer word's configurations are among the refuted one's), and a
//!   checkpoint carries it.  Only the invocation of a mutator by another
//!   process searches again — from the same stored frontier, so with the
//!   nodes, outcome and witness a per-symbol search would have had there —
//!   and a search that refutes again records the set afresh.  `Unknown` is
//!   not knowledge and never stands.
//! * **A response no invocation of the history can produce is a NO without
//!   a search** (R4).  [`SequentialSpec::producer`] names, for some steps,
//!   an invocation that every legal sequential word taking the step invokes
//!   before it: a register's read of `v` other than the initial value needs
//!   `write(v)`, a dequeue or pop of `x` needs `enqueue(x)` or `push(x)`.  A
//!   complete operation whose producer no operation of the history invokes,
//!   pending or complete, of any process, is an *orphan*.  A witness places
//!   every complete operation, so it would place the orphan, and some
//!   operation before it would invoke the producer: there is no witness,
//!   under either criterion.  This is the first clause of Golab, Li &
//!   Shah's zone test ("no read precedes its write", PODC 2011) where the
//!   write does not exist at all, for every specification that names
//!   producers.  The engine looks for orphans only where one can be: a
//!   witness proves the history has none, so only a completion that leaves
//!   the checker without a witness is checked, and the orphans found are
//!   kept, keyed by their producer's id, until an invocation of it drops
//!   them: an invocation costs one lookup however many orphans stand.  A
//!   check without a witness answers from them before any search.  Under
//!   linearizability the NO latches.  Under sequential consistency it stands,
//!   with the orphans' owners as the blocked set: no configuration of any
//!   search of this history places all of an owner's operations, so the set
//!   is a subset of the one a refuting search records, and R3's proof holds
//!   for it as it stands.  Where R3 would end a standing NO at a mutator of
//!   a process that is not blocked and an orphan is left, the NO stays, and
//!   the blocked set becomes the owners of the orphans left.  A restore
//!   rebuilds the orphans with one pass over the history, so a restored
//!   checker holds what the live one does; a checkpoint carries nothing new.
//! * Histories are interned ([`InternedHistory`]): operations are `Copy`
//!   records, payload comparisons happen once at intern time, and a fleet of
//!   checkers on one arena stores each distinct payload once.
//!
//! **Cost.**  A monitor owes a verdict after every symbol for as long as the
//! object lives, so no maintenance move may cost the length of the history
//! `m`.  The witness keeps a position index over the dense `OpId`s (is this
//! operation in the order, and where) next to the order and the state path;
//! with `c` the operations concurrent with the completed one (the entries a
//! backward scan passes before one that must precede it) and `s` the length
//! of a replayed suffix, a completed operation touches:
//!
//! | move                         | witness entries and states touched          |
//! |------------------------------|---------------------------------------------|
//! | assumed response confirmed   | 1 (index lookup)                            |
//! | append splice                | `c` scanned, 1 state pushed                 |
//! | mid-order splice at `i`      | `c` scanned, `s = m − i` replayed and re-indexed per attempt, ≤ 16 attempts |
//! | excision                     | `s` replayed in place; an illegal replay discards the witness |
//! | pending rescue               | one index lookup per open operation, 2 states pushed |
//! | witness discarded            | `m` ids copied into the stored frontier, then the DFS |
//! | DFS fallback                 | ≥ `m` nodes on an explicit heap stack (`search.rs`); without a witness and without an orphan, under LIN once (the NO latches), under SC at each mutator invocation of a process a refuted configuration could complete (the NO stands in between), after `Unknown` at every symbol |
//! | orphan check (R4)            | none while a witness is alive; without one, a completion looks its producer up in a set of the history's invocation ids (built in one pass at the first such completion, caught up with the records appended since at each one after); an invocation looks its id up among the orphans' producers (and is compared with each orphan whose producer the arena had never seen, if it is an arena slot); a restore makes one pass over the records |
//!
//! [`IncrementalChecker::maintenance_steps`] counts the first six rows, so
//! tests can assert the bound without a clock.  What still grows with `m`
//! is memory, not time per event: one record, one per-process list entry and
//! one witness entry (order, state, position index) per operation — ids and
//! positions only.  A checkpoint does not: [`IncrementalChecker::checkpoint_delta`]
//! writes the symbols read since the previous one and the witness from the
//! first entry any move above touched since (a watermark the moves lower),
//! so it costs the interval plus the witness churn.  Only the full form,
//! and a frontier stored while no witness is alive, are written whole.
//!
//! **Exactness.**  For definite verdicts the engine agrees with
//! [`check_history`](crate::check_history) bit for bit: a witness is only
//! ever accepted after explicit legality + order validation, and the
//! fallback search is the same complete Wing–Gong enumeration.  The two
//! ways the engines can differ are (a) `Unknown`: search order differs, so
//! one engine may exhaust its node budget where the other does not —
//! `Unknown` is only ever refined into a definite verdict, never
//! contradicted; R4 is such a refinement, a NO found without the search
//! that may run out of nodes, and it never flips a verdict — and (b) a
//! 2⁻¹²⁸-probability state hash collision, which would prune a live branch
//! (the from-scratch checker keys its memo on full states and has no such
//! term).  The property tests in `tests/incremental_vs_scratch.rs` check
//! exact agreement on thousands of seeded histories.

use crate::checker::{CheckerConfig, ConsistencyResult, Witness};
use crate::history::{ArenaRead, HistoryDelta, InternedHistory};
use crate::search::{wing_gong, with_scratch, SearchContext, SearchOutcome};
use drv_lang::wire::{
    put_invocation, put_response, put_u32, put_u64, take_invocation, take_response, Reader,
};
use drv_lang::{
    hash, Action, CodecError, EventAction, EventRecord, Interner, Invocation, InvocationId, OpId,
    OpRecord, ProcId, ResponseId, SharedInterner, Symbol, Word,
};
use drv_spec::SequentialSpec;
use std::hash::{Hash, Hasher};

/// 128-bit FNV-1a, fed through the standard `Hash` machinery so any
/// `Hash`-implementing sequential state can be fingerprinted without cloning.
struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

impl Fnv128 {
    fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    fn finish128(&self) -> u128 {
        self.state
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state as u64
    }
}

pub(crate) fn hash_state<T: Hash>(value: &T) -> u128 {
    let mut hasher = Fnv128::new();
    value.hash(&mut hasher);
    hasher.finish128()
}

/// Packs the progress vector exactly into a `u128` when every count fits in
/// `128 / n` bits (it essentially always does: six processes leave 21 bits —
/// two million operations — per process); otherwise falls back to hashing
/// the counts.  The packed and hashed key kinds share one `u128` namespace
/// with no disambiguation — a cross-kind collision is as unlikely as any
/// other 128-bit collision, and the memo already tolerates that probability
/// for the state fingerprint.
pub(crate) fn pack_counts(counts: &[u32]) -> u128 {
    let n = counts.len().max(1);
    // Cap at 32: counts are u32, so 32 bits are always lossless, and the cap
    // keeps every shift amount < 128 (with n = 1 the uncapped width would be
    // the full 128 and the shift would overflow).
    let bits = (128 / n).min(32);
    if bits >= 32 || counts.iter().all(|&c| u64::from(c) < (1u64 << bits)) {
        let mut packed: u128 = 0;
        for &c in counts {
            packed = (packed << bits) | u128::from(c);
        }
        packed
    } else {
        let mut hasher = Fnv128::new();
        counts.hash(&mut hasher);
        hasher.finish128()
    }
}

/// Counters describing how the engine resolved its checks; exposed so
/// benches and tests can assert the fast paths actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Calls to [`IncrementalChecker::check_word`] / `check`.
    pub checks: u64,
    /// Checks answered without any search: untouched witness, successful
    /// splice, latched, standing or orphan NO, or cached verdict.
    pub fast_path: u64,
    /// Successful greedy splices of a completed operation into the witness.
    pub splices: u64,
    /// Fallback DFS runs.
    pub dfs_runs: u64,
    /// Total DFS nodes explored across all fallback runs.
    pub dfs_nodes: u64,
    /// Full resets because the fed word was not an extension of the
    /// previous one.
    pub rebuilds: u64,
    /// Checks answered Inconsistent without a search: the NO is final under
    /// linearizability (prefix-closed, latched) and stands under sequential
    /// consistency until a mutator is invoked by a process that is not
    /// blocked (module docs, R3).  A NO refuted by an orphan, a response no
    /// invocation of the history produces (R4), counts here too, also the
    /// first time, and never in `dfs_runs`.
    pub latched: u64,
    /// Checks answered Unknown: a search ran out of
    /// [`CheckerConfig::max_states`], or a check repeated such an answer from
    /// the cache.  Checkpoints do not carry it (their eight counter slots
    /// are the fields above), so a restored checker counts from 0.
    pub unknown: u64,
}

/// A witness-free verdict: what per-iteration callers (the Figure 8
/// monitor) need, without cloning the linearization out of the engine on
/// every check.  [`IncrementalChecker::check`] upgrades it to a full
/// [`ConsistencyResult`] by materializing the maintained witness on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The history is consistent (a witness is held by the engine).
    Consistent,
    /// The history is definitely not consistent.
    Inconsistent,
    /// The node budget was exhausted before a definite verdict.
    Unknown,
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Consistent`].
    #[must_use]
    pub fn is_consistent(self) -> bool {
        self == CheckOutcome::Consistent
    }
}

/// How many suffix replays a splice scan may attempt before the
/// frontier-guided DFS takes over (see `incorporate_completion`).
const MAX_SPLICE_REPLAYS: usize = 16;

/// Marks an operation the witness does not contain in
/// [`WitnessPath::position`].
const ABSENT: u32 = u32::MAX;

struct WitnessPath<S: SequentialSpec> {
    /// Linearization order with interned responses.
    order: Vec<(OpId, ResponseId)>,
    /// `states[i]` is the sequential state after the first `i` operations;
    /// `states[0]` is the initial state (so `states.len() == order.len()+1`).
    states: Vec<S::State>,
    /// `position[op.0]` is the index of `op` in `order`, or [`ABSENT`];
    /// operations past the end of the table are absent too.  Kept in step
    /// with `order` by every method that changes it.
    position: Vec<u32>,
    /// `order[..clean]` is what it was at the last checkpoint delta: every
    /// method that changes an entry lowers it to that entry's index, and
    /// the delta writes only `order[clean..]`.
    clean: usize,
}

impl<S: SequentialSpec> WitnessPath<S> {
    /// The empty order, at `initial`.
    fn new(initial: S::State) -> Self {
        WitnessPath {
            order: Vec::new(),
            states: vec![initial],
            position: Vec::new(),
            clean: 0,
        }
    }

    /// Appends `entry`; `state` is the state right after it.
    fn push(&mut self, entry: (OpId, ResponseId), state: S::State) {
        self.order.push(entry);
        self.states.push(state);
        self.reindex_from(self.order.len() - 1);
    }

    /// Drops `order[keep..]` and the states after it.
    fn truncate(&mut self, keep: usize) {
        for (id, _) in &self.order[keep..] {
            self.position[id.0] = ABSENT;
        }
        self.order.truncate(keep);
        self.states.truncate(keep + 1);
        self.clean = self.clean.min(keep);
    }

    /// Where `op` sits in the order, if the witness contains it.
    fn position_of(&self, op: OpId) -> Option<usize> {
        match self.position.get(op.0) {
            Some(&index) if index != ABSENT => Some(index as usize),
            _ => None,
        }
    }

    /// The linearization order without the responses: what the search
    /// frontier is while this witness is alive.
    fn ids(&self) -> Vec<OpId> {
        self.order.iter().map(|(id, _)| *id).collect()
    }

    /// Re-records the positions of `order[from..]` (everything an insert or
    /// a removal at `from` shifted).
    fn reindex_from(&mut self, from: usize) {
        for (index, (id, _)) in self.order.iter().enumerate().skip(from) {
            if self.position.len() <= id.0 {
                self.position.resize(id.0 + 1, ABSENT);
            }
            self.position[id.0] = u32::try_from(index).expect("< 2^32 ops");
        }
    }

    /// Replaces the states after the first `prefix` operations.
    fn set_states_after(&mut self, prefix: usize, states: impl IntoIterator<Item = S::State>) {
        self.states.truncate(prefix + 1);
        self.states.extend(states);
        debug_assert_eq!(self.states.len(), self.order.len() + 1);
    }

    /// Inserts `entry` at `index`; `state` is the state right after it and
    /// `suffix` the replayed states after each shifted operation.
    fn insert(
        &mut self,
        index: usize,
        entry: (OpId, ResponseId),
        state: S::State,
        suffix: Vec<S::State>,
    ) {
        self.order.insert(index, entry);
        self.set_states_after(index, std::iter::once(state).chain(suffix));
        self.reindex_from(index);
        self.clean = self.clean.min(index);
    }

    /// Removes the operation at `index`; `suffix` holds the replayed states
    /// after each operation that followed it.
    fn remove(&mut self, index: usize, suffix: Vec<S::State>) {
        let (id, _) = self.order.remove(index);
        self.position[id.0] = ABSENT;
        self.set_states_after(index, suffix);
        self.reindex_from(index);
        self.clean = self.clean.min(index);
    }
}

/// Format version of the checkpoint payload.  Bump when the layout changes;
/// restore rejects versions it does not know and still reads version 1.
const CHECKPOINT_VERSION: u8 = 2;

/// Why a serialized checker checkpoint could not be restored.
///
/// Restoration is defensive by design: checkpoints cross a crash boundary,
/// so every structural claim in the payload is re-validated against the
/// re-fed history and the sequential specification before it is trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload bytes were malformed: truncated, a bad tag, an inflated
    /// count, or non-UTF-8 text.
    Codec(CodecError),
    /// The checkpoint was written by an incompatible format version.
    BadVersion(u8),
    /// The flags byte carries bits this version does not define.
    BadFlags(u8),
    /// The witness or frontier references an operation the serialized
    /// history does not contain.
    UnknownOp {
        /// Process of the dangling reference.
        proc: usize,
        /// Per-process operation index of the dangling reference.
        local_index: u32,
    },
    /// The serialized witness does not replay legally on the specification
    /// (the checkpoint belongs to a different spec or config).
    IllegalWitness {
        /// Linearization position at which the replay became illegal.
        position: usize,
    },
    /// The blocked set names a process the history does not have, or is not
    /// in ascending order.
    BadProcess {
        /// The offending process.
        proc: usize,
    },
    /// Bytes remained after the checkpoint decoded completely.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A delta extends a checker that has read `base` symbols, and this one
    /// has read another number: it belongs after a checkpoint that was not
    /// restored (or not the last one).
    BaseMismatch {
        /// Symbols the delta's base state had read.
        base: usize,
        /// Symbols the receiving checker has read.
        consumed: usize,
    },
}

impl From<CodecError> for CheckpointError {
    fn from(err: CodecError) -> Self {
        CheckpointError::Codec(err)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Codec(err) => write!(f, "malformed checkpoint: {err}"),
            CheckpointError::BadVersion(version) => {
                write!(f, "unsupported checkpoint version {version}")
            }
            CheckpointError::BadFlags(flags) => {
                write!(f, "undefined checkpoint flag bits {flags:#04x}")
            }
            CheckpointError::UnknownOp { proc, local_index } => write!(
                f,
                "checkpoint references unknown operation (proc {proc}, index {local_index})"
            ),
            CheckpointError::IllegalWitness { position } => write!(
                f,
                "checkpoint witness replays illegally at position {position}"
            ),
            CheckpointError::BadProcess { proc } => {
                write!(f, "checkpoint blocks process {proc} out of range or order")
            }
            CheckpointError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after checkpoint")
            }
            CheckpointError::BaseMismatch { base, consumed } => write!(
                f,
                "checkpoint delta extends {base} symbols, the checker has read {consumed}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(err) => Some(err),
            _ => None,
        }
    }
}

/// A resumable Wing–Gong checker: feed the history symbol by symbol (or word
/// snapshot by word snapshot) and ask for the verdict after each step.
///
/// See the module docs for the persistence and exactness story.  Typical
/// driver loop:
///
/// ```
/// use drv_consistency::{CheckerConfig, IncrementalChecker};
/// use drv_lang::{Invocation, ProcId, Response, WordBuilder};
/// use drv_spec::Register;
///
/// let mut checker =
///     IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 2);
/// let word = WordBuilder::new()
///     .op(ProcId(0), Invocation::Write(1), Response::Ack)
///     .op(ProcId(1), Invocation::Read, Response::Value(1))
///     .build();
/// // Monitors feed the latest reconstructed history; the engine reuses
/// // everything it can from the previous call.
/// assert!(checker.check_word(&word).is_consistent());
/// assert_eq!(checker.stats().checks, 1);
/// ```
pub struct IncrementalChecker<S: SequentialSpec> {
    /// The payload arena every id in `core` refers to: an engine's or a
    /// factory's, shared with other checkers, or a private one.
    arena: SharedInterner,
    core: Core<S>,
}

/// The ids the history's first `covered` records invoke (R4's producer
/// probe).  Records are only ever appended, so catching up is a pass over
/// the ones since.
#[derive(Default)]
struct InvokedIds {
    ids: hash::HashSet<InvocationId>,
    covered: usize,
}

/// R4's orphans, keyed by the producer each needs, so that an invocation
/// costs one lookup, not a comparison with each orphan.  A producer the
/// arena holds is keyed by its id (every scalar payload is its own id, so
/// it always is); one the arena had never interned when the orphan was
/// noted is kept by payload, since its first invocation interns it into a
/// slot of its own.
#[derive(Default)]
struct Orphans {
    /// The owners of the orphans waiting on each producer id.
    by_id: hash::HashMap<InvocationId, Vec<ProcId>>,
    /// Orphans whose producer the arena had never seen: the owner, and the
    /// invocation it needs.
    unseen: Vec<(ProcId, Invocation)>,
}

impl Orphans {
    fn is_empty(&self) -> bool {
        self.by_id.is_empty() && self.unseen.is_empty()
    }

    fn clear(&mut self) {
        self.by_id.clear();
        self.unseen.clear();
    }

    /// Records `owner`'s orphan, which needs `needs`, an invocation no
    /// operation of the history invokes; `id` is its id in the arena, if
    /// the arena holds it.
    fn insert(&mut self, id: Option<InvocationId>, owner: ProcId, needs: Invocation) {
        match id {
            Some(id) => self.by_id.entry(id).or_default().push(owner),
            None => self.unseen.push((owner, needs)),
        }
    }

    /// Drops the orphans an invocation of `id` produces for.  Only an
    /// orphan kept by payload takes the arena's guard.
    fn invoked(&mut self, arena: &mut ArenaRead<'_>, id: InvocationId) {
        self.by_id.remove(&id);
        // A payload the arena had never seen is interned into a slot.
        if !self.unseen.is_empty() && !id.is_inline() {
            let invocation = arena.interner().resolve_invocation(id);
            self.unseen.retain(|(_, needs)| *needs != *invocation);
        }
    }

    /// The orphans' owners, each once per orphan.
    fn owners(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.by_id.values().flatten().copied().chain(self.unseen.iter().map(|(owner, _)| *owner))
    }
}

/// Everything of an [`IncrementalChecker`] but its arena handle, and every
/// move it makes.  Each public entry point opens one [`ArenaRead`] on the
/// handle and passes it down, which only works while the handle sits beside
/// what the moves mutate, not inside it.
struct Core<S: SequentialSpec> {
    spec: S,
    config: CheckerConfig,
    /// The operations read so far, and with the skipped symbols it keeps the
    /// only copy of the word (extension detection in
    /// [`IncrementalChecker::check_word`] and checkpoints rebuild it).
    history: InternedHistory,
    witness: Option<WitnessPath<S>>,
    /// The last successful linearization order, the move-ordering hint —
    /// the preserved frontier — of the fallback DFS.  While a witness is
    /// alive the frontier *is* the witness order and this stays empty; the
    /// order is copied here at the points a witness is discarded.
    frontier: Vec<OpId>,
    latched_inconsistent: bool,
    /// `Some(blocked)`: a search refuted the history under a criterion whose
    /// NO is not final, and no symbol since could have created a witness
    /// (module docs, R0–R3), so the NO stands without a search until a
    /// process that is not blocked invokes a mutator.  `blocked[p]`: no
    /// configuration of the refuting search had all of process `p`'s
    /// operations placed (R3); processes past its end are not blocked.
    standing_no: Option<Vec<bool>>,
    /// The complete operations whose response needs a producer that no
    /// operation of the history invokes (R4), keyed by that producer.
    /// Unless the NO is latched these are exactly the history's; while a
    /// witness is alive there are none.
    orphans: Orphans,
    /// The ids of the history's invocations, for R4's producer probe, so a
    /// completion without a witness costs one lookup, not a scan of the
    /// records.  Built by the first probe (or a restore's rebuild) and
    /// caught up with the records at each probe after, so no invocation
    /// pays for it.  `None` until a probe needs it: an object that keeps its
    /// witness never builds it.
    invoked: Option<Box<InvokedIds>>,
    /// Cached verdict for the current history, cleared on every new symbol.
    cached: Option<CheckOutcome>,
    /// Symbols read at the last checkpoint delta or restore: where the next
    /// delta starts (0 after a reset, so the next one is the full form —
    /// a witness of a checker at mark 0 was built since, and its `clean`
    /// watermark is 0 too).
    mark: usize,
    stats: CheckerStats,
    /// See [`IncrementalChecker::maintenance_steps`].
    maintenance_steps: u64,
}

impl<S: SequentialSpec> std::fmt::Debug for IncrementalChecker<S> {
    // `S::State` need not be `Debug` and witness paths can be large; show
    // the engine's progress summary instead.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = &self.core;
        f.debug_struct("IncrementalChecker")
            .field("config", &core.config)
            .field("symbols", &core.history.symbols_consumed())
            .field("has_witness", &core.witness.is_some())
            .field("latched_inconsistent", &core.latched_inconsistent)
            .field("standing_no", &core.standing_no)
            .field("stats", &core.stats)
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> IncrementalChecker<S> {
    /// Creates an engine for `n` processes (more are adopted on sight) with
    /// a payload arena of its own.
    #[must_use]
    pub fn new(spec: S, config: CheckerConfig, n: usize) -> Self {
        Self::with_arena(spec, config, n, SharedInterner::new())
    }

    /// [`IncrementalChecker::new`] on a payload arena shared with other
    /// checkers: each distinct payload is stored once for all of them, and
    /// what a checker keeps per symbol is ids.  Any number of threads may
    /// drive checkers of one arena at the same time.
    #[must_use]
    pub fn with_arena(spec: S, config: CheckerConfig, n: usize, arena: SharedInterner) -> Self {
        IncrementalChecker {
            arena,
            core: Core {
                spec,
                config,
                history: InternedHistory::new(n),
                witness: None,
                frontier: Vec::new(),
                latched_inconsistent: false,
                standing_no: None,
                orphans: Orphans::default(),
                invoked: None,
                cached: None,
                mark: 0,
                stats: CheckerStats::default(),
                maintenance_steps: 0,
            },
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &CheckerConfig {
        &self.core.config
    }

    /// The fast-path/fallback counters.
    #[must_use]
    pub fn stats(&self) -> CheckerStats {
        self.core.stats
    }

    /// The work witness maintenance has done over this engine's lifetime:
    /// witness entries visited plus sequential states replayed while
    /// incorporating completed operations (splice scans, suffix replays,
    /// excisions, and copying the order out when a witness is discarded).
    ///
    /// A deterministic stand-in for time: a stream that stays on the fast
    /// path costs a bounded number of steps per operation however long the
    /// history already is.  Not part of [`CheckerStats`] and not
    /// checkpointed.
    #[must_use]
    pub fn maintenance_steps(&self) -> u64 {
        self.core.maintenance_steps
    }

    /// Number of symbols currently incorporated, skipped ones included.
    #[must_use]
    pub fn symbols_consumed(&self) -> usize {
        self.core.history.symbols_consumed()
    }

    /// Drops all history state (the arena keeps its payloads), ready for an
    /// unrelated word.
    pub fn reset(&mut self) {
        self.core.reset();
    }

    /// Feeds one more symbol of the (extending) history.
    pub fn push_symbol(&mut self, symbol: &Symbol) {
        self.core
            .push_symbol(&mut ArenaRead::new(&self.arena), symbol);
    }

    /// Feeds a run of symbols of the (extending) history and records the
    /// verdict after each one ([`ObjectMonitor::on_batch`] lands here; the
    /// engine's event path is [`IncrementalChecker::feed_records`]).
    ///
    /// [`ObjectMonitor::on_batch`]: crate::ObjectMonitor::on_batch
    ///
    /// The appended outcomes are bit-identical to calling
    /// [`IncrementalChecker::push_symbol`] +
    /// [`IncrementalChecker::check_outcome`] once per symbol: witness
    /// maintenance (splice / excision / pending rescue) still runs per
    /// completed operation, because the intermediate verdicts are part of
    /// the contract.  What the batch amortizes is everything *around* the
    /// maintenance — one call, one read guard on the payload arena, one
    /// reservation of the output buffer, and (in the engine) one monitor
    /// lookup and one queue drain per run instead of per event.
    pub fn feed_batch(&mut self, symbols: &[Symbol], outcomes: &mut Vec<CheckOutcome>) {
        let arena = &mut ArenaRead::new(&self.arena);
        outcomes.reserve(symbols.len());
        for symbol in symbols {
            self.core.push_symbol(arena, symbol);
            outcomes.push(self.core.check_outcome(arena));
        }
    }

    /// [`IncrementalChecker::feed_batch`] for one object's run of events
    /// interned in `arena`.  When that is this checker's arena the ids go
    /// into the history as they are — no payload hashed, cloned or resolved
    /// — and the answer is `true`; otherwise nothing is fed and it is
    /// `false` (the caller resolves the run and feeds symbols).
    pub fn feed_records(
        &mut self,
        records: &[EventRecord],
        arena: &SharedInterner,
        outcomes: &mut Vec<CheckOutcome>,
    ) -> bool {
        if !SharedInterner::ptr_eq(arena, &self.arena) {
            return false;
        }
        let arena = &mut ArenaRead::new(&self.arena);
        outcomes.reserve(records.len());
        for record in records {
            self.core.push_event(arena, record.proc, record.action);
            outcomes.push(self.core.check_outcome(arena));
        }
        true
    }

    /// Checks the history consisting of all symbols fed so far.
    pub fn check(&mut self) -> ConsistencyResult {
        self.core.check(&mut ArenaRead::new(&self.arena))
    }

    /// Checks the history fed so far, returning only the verdict: no
    /// witness is cloned out of the engine, which makes this the right call
    /// in per-iteration loops that only branch on consistency.
    pub fn check_outcome(&mut self) -> CheckOutcome {
        self.core.check_outcome(&mut ArenaRead::new(&self.arena))
    }

    /// Checks a word snapshot: when `word` extends the previously checked
    /// word only the delta is processed; otherwise the engine resets and
    /// re-feeds (counted in [`CheckerStats::rebuilds`]).
    ///
    /// A rebuild is *not* a from-scratch search: the previous linearization
    /// is translated across the reset by `(process, local index)` — the
    /// operation identity that survives reconstruction — and seeds the
    /// fallback DFS's move ordering, so the search walks straight back along
    /// the old witness and only branches where the reshuffled word forces it
    /// to.
    pub fn check_word(&mut self, word: &Word) -> ConsistencyResult {
        let arena = &mut ArenaRead::new(&self.arena);
        self.core.feed_word(arena, word);
        self.core.check(arena)
    }

    /// [`IncrementalChecker::check_word`] without the witness: the
    /// per-iteration monitor call.
    pub fn check_word_outcome(&mut self, word: &Word) -> CheckOutcome {
        let arena = &mut ArenaRead::new(&self.arena);
        self.core.feed_word(arena, word);
        self.core.check_outcome(arena)
    }

    /// [`IncrementalChecker::check_word_outcome`] for callers that *know*
    /// `word` extends the previously fed word — e.g. they grew it
    /// append-only themselves, as the Figure 8 monitor's incremental sketch
    /// does.  Skips the O(history) prefix comparison and feeds only the
    /// delta, making the engine entry point O(delta) too.
    ///
    /// The promise is checked in debug builds; a `word` *shorter* than what
    /// was already consumed falls back to the checked path (which detects
    /// the non-extension and rebuilds).
    pub fn check_word_extension_outcome(&mut self, word: &Word) -> CheckOutcome {
        let arena = &mut ArenaRead::new(&self.arena);
        self.core.feed_extension(arena, word);
        self.core.check_outcome(arena)
    }

    /// Serializes the engine's resumable state into a self-contained byte
    /// payload: the consumed symbols (rebuilt from the history, payloads
    /// resolved — a checkpoint does not depend on the arena that wrote it),
    /// the maintained witness (as `(process, local index, response)`
    /// triples — the operation identity that survives reconstruction), the
    /// search frontier while no witness is alive (with one, the frontier is
    /// its order), the latch, the standing NO with its blocked processes, and
    /// the stats counters.
    ///
    /// What is *not* serialized: dead configurations (they are scoped to a
    /// single DFS run, so prior contents can never influence a verdict) and
    /// the witness state path (recomputed by replay on restore, which
    /// doubles as validation).  A checker restored from this
    /// payload therefore produces **bit-identical** verdicts to the
    /// original on any symbol suffix.
    ///
    /// This is the full form, the delta from nothing; it leaves the mark
    /// of [`IncrementalChecker::checkpoint_delta`] where it is.  Layout
    /// (version 2; integers little-endian):
    ///
    /// ```text
    /// version u8 = 2 |
    /// flags u8 (1 latched, 2 witness, 4 standing NO, 8 blocked set) |
    /// checks, fast_path, splices, 0, dfs_runs, dfs_nodes, rebuilds,
    /// latched: u64 each | processes u32 | base u32 |
    /// count u32 | count × (proc u32, tag u8 (1 invoke, 2 respond), payload) |
    /// flags & 2:  keep u32 | count u32 | count × (proc u32, index u32, response)
    /// otherwise:  count u32 | count × (proc u32, index u32)      — the frontier
    /// flags & 8:  count u32 | count × proc u32            — blocked, ascending
    /// ```
    ///
    /// `base` is the number of symbols the payload's symbols follow and
    /// `keep` the number of witness entries it leaves to the checker it
    /// extends; both are 0 here.  Flag 8 is set with every standing NO,
    /// also when no process is blocked, and never without one; bytes with
    /// flag 4 and not 8 were written before the blocked set was, and their
    /// restore derives it with one search that no counter sees.  The fourth
    /// counter slot is unused: written 0, ignored on restore, so bytes that
    /// held a count there still restore.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.core.encode(&mut ArenaRead::new(&self.arena), 0, 0)
    }

    /// The checkpoint payload of [`IncrementalChecker::checkpoint_bytes`],
    /// relative to this checker's last delta or restore (the *mark*): the
    /// symbols read since, the witness from the first entry that changed
    /// since, the frontier if no witness is alive, the flags and the
    /// counters.  Then the mark moves here.  Its size is what the interval
    /// added, not the history; before any delta or restore, and after a
    /// reset, it is the full form.
    ///
    /// Restoring a checker's deltas in order, the first into a fresh
    /// checker, gives the state restoring its full form would.
    #[must_use]
    pub fn checkpoint_delta(&mut self) -> Vec<u8> {
        self.core.checkpoint_delta(&mut ArenaRead::new(&self.arena))
    }

    /// Restores a checkpoint payload into this engine.  A payload with base
    /// 0 (every full form, and version 1's, which an earlier build wrote)
    /// replaces whatever the checker held; one with another base extends
    /// it and must follow exactly the symbols this checker has read.  The
    /// receiving checker must have been built with the same spec and config
    /// as the serialized one (the factory that created the original
    /// recreates it); the witness replay validates that claim and rejects
    /// mismatches.  The mark of [`IncrementalChecker::checkpoint_delta`]
    /// moves to the restored state.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: malformed bytes, a version or flag this
    /// build does not know, a delta for another base, dangling operation or
    /// process references, an illegal witness replay, or trailing bytes.  On
    /// error the checker is left safe but unspecified — discard it.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.core
            .restore_bytes(&mut ArenaRead::new(&self.arena), bytes)
    }
}

impl<S: SequentialSpec> Core<S> {
    fn reset(&mut self) {
        self.history.reset();
        self.witness = None;
        self.frontier.clear();
        self.latched_inconsistent = false;
        self.standing_no = None;
        self.orphans.clear();
        self.invoked = None;
        self.cached = None;
        self.mark = 0;
    }

    fn push_symbol(&mut self, arena: &mut ArenaRead<'_>, symbol: &Symbol) {
        let action = match &symbol.action {
            Action::Invoke(invocation) => EventAction::Invoke(arena.invocation(invocation)),
            Action::Respond(response) => EventAction::Respond(arena.response(response)),
        };
        self.push_event(arena, symbol.proc, action);
    }

    fn push_event(&mut self, arena: &mut ArenaRead<'_>, proc: ProcId, action: EventAction) {
        let delta = self.history.push(proc, action);
        self.cached = None;
        if self.latched_inconsistent {
            // Prefix-closure: nothing to maintain, the NO is final.
            return;
        }
        match delta {
            HistoryDelta::Skipped => {}
            HistoryDelta::Invoked(op) => {
                let record = self.history.record(op);
                // A producer, once invoked, no longer leaves an orphan (R4).
                if !self.orphans.is_empty() {
                    self.orphans.invoked(arena, record.invocation);
                }
                // Only a pending mutator of a process that is not blocked can
                // rescue a standing NO (R2, R3): the next check searches
                // again, from the frontier it kept — unless an orphan is
                // left, which keeps the NO and blocks its owner (R4).
                let p = record.proc.0;
                if self.standing_no.as_ref().is_some_and(|blocked| blocked.get(p) != Some(&true))
                    && arena.interner().resolve_invocation(record.invocation).is_mutator()
                {
                    self.standing_no = (!self.orphans.is_empty()).then(|| self.orphan_owners());
                }
                // A fresh pending operation can always be dropped (both
                // criteria), so an existing witness stays valid as-is.
            }
            HistoryDelta::Completed(op) => {
                self.incorporate_completion(arena, op);
                // A witness that took the operation in proves it no orphan;
                // before it lost one, the history had none (R4).
                if self.witness.is_none() {
                    self.note_orphan(arena, op);
                }
            }
        }
    }

    /// Records the complete operation `op` as an orphan when its response
    /// needs a producer that no operation of the history invokes (R4).
    fn note_orphan(&mut self, arena: &mut ArenaRead<'_>, op: OpId) {
        let record = self.history.record(op);
        let interner = arena.interner();
        let Some(needs) = self.producer_of(interner, &record) else {
            return;
        };
        let records = self.history.records();
        let invoked = self.invoked.get_or_insert_with(Box::default);
        invoked.ids.extend(records[invoked.covered..].iter().map(|q| q.invocation));
        invoked.covered = records.len();
        // A payload the arena has never seen is invoked nowhere.
        let id = interner.lookup_invocation(&needs);
        if !id.is_some_and(|id| invoked.ids.contains(&id)) {
            self.orphans.insert(id, record.proc, needs);
        }
    }

    /// The orphans of the whole history, found in one pass over it (R4):
    /// what a checker that read the history symbol by symbol holds.
    fn rebuild_orphans(&mut self, arena: &mut ArenaRead<'_>) {
        self.orphans.clear();
        self.invoked = None;
        if self.latched_inconsistent || self.witness.is_some() {
            return;
        }
        let interner = arena.interner();
        let records = self.history.records();
        let invoked = InvokedIds {
            ids: records.iter().map(|q| q.invocation).collect(),
            covered: records.len(),
        };
        for record in records {
            if let Some(needs) = self.producer_of(interner, record) {
                let id = interner.lookup_invocation(&needs);
                if !id.is_some_and(|id| invoked.ids.contains(&id)) {
                    self.orphans.insert(id, record.proc, needs);
                }
            }
        }
        self.invoked = Some(Box::new(invoked));
    }

    /// The producer `record`'s response needs, if it is complete and needs
    /// one ([`SequentialSpec::producer`]).
    fn producer_of(&self, interner: &Interner, record: &OpRecord) -> Option<Invocation> {
        self.spec.producer(
            &interner.resolve_invocation(record.invocation),
            &interner.resolve_response(record.response?),
        )
    }

    /// The orphans' owners, as a blocked set: no configuration of any search
    /// could place all of an owner's operations (R4).
    fn orphan_owners(&self) -> Vec<bool> {
        let mut blocked = vec![false; self.history.process_count()];
        for owner in self.orphans.owners() {
            blocked[owner.0] = true;
        }
        blocked
    }

    fn check(&mut self, arena: &mut ArenaRead<'_>) -> ConsistencyResult {
        match self.check_outcome(arena) {
            CheckOutcome::Consistent => {
                let witness = match &self.witness {
                    Some(witness) => {
                        let interner = arena.interner();
                        Witness {
                            order: witness
                                .order
                                .iter()
                                .map(|(id, resp)| (*id, interner.resolve_response(*resp).into_owned()))
                                .collect(),
                        }
                    }
                    // Only the empty history is consistent without a search
                    // having built a witness path.
                    None => Witness { order: Vec::new() },
                };
                ConsistencyResult::Consistent(witness)
            }
            CheckOutcome::Inconsistent => ConsistencyResult::Inconsistent,
            CheckOutcome::Unknown => ConsistencyResult::Unknown,
        }
    }

    fn check_outcome(&mut self, arena: &mut ArenaRead<'_>) -> CheckOutcome {
        self.stats.checks += 1;
        let outcome = if let Some(cached) = self.cached {
            self.stats.fast_path += 1;
            cached
        } else {
            let outcome = self.evaluate(arena);
            self.cached = Some(outcome);
            outcome
        };
        if outcome == CheckOutcome::Unknown {
            self.stats.unknown += 1;
        }
        outcome
    }

    /// Whether `symbols` starts with the word consumed so far: the same
    /// process and payload at every position, skipped symbols included.
    fn extends_to(&self, arena: &mut ArenaRead<'_>, symbols: &[Symbol]) -> bool {
        if symbols.len() < self.history.symbols_consumed() {
            return false;
        }
        let interner = arena.interner();
        self.history
            .word()
            .zip(symbols)
            .all(|((proc, action), symbol)| {
                symbol.proc == proc
                    && match (&symbol.action, action) {
                        (Action::Invoke(invocation), EventAction::Invoke(id)) => {
                            *interner.resolve_invocation(id) == *invocation
                        }
                        (Action::Respond(response), EventAction::Respond(id)) => {
                            *interner.resolve_response(id) == *response
                        }
                        _ => false,
                    }
            })
    }

    /// Feeds what `word` adds to the word consumed so far, taking the
    /// caller's word for it that it is an extension.
    fn feed_extension(&mut self, arena: &mut ArenaRead<'_>, word: &Word) {
        let symbols = word.symbols();
        let consumed = self.history.symbols_consumed();
        if symbols.len() < consumed {
            return self.feed_word(arena, word);
        }
        debug_assert!(
            self.extends_to(arena, symbols),
            "caller promised an extension of the previously fed word"
        );
        for symbol in &symbols[consumed..] {
            self.push_symbol(arena, symbol);
        }
    }

    fn feed_word(&mut self, arena: &mut ArenaRead<'_>, word: &Word) {
        let symbols = word.symbols();
        let mut carried: Vec<(ProcId, u32)> = Vec::new();
        if !self.extends_to(arena, symbols) {
            self.stats.rebuilds += 1;
            let order: Vec<OpId> = match &self.witness {
                Some(witness) => witness.ids(),
                None => self.frontier.clone(),
            };
            carried = order
                .iter()
                .map(|id| {
                    let record = self.history.record(*id);
                    (record.proc, record.local_index)
                })
                .collect();
            self.reset();
        }
        for symbol in &symbols[self.history.symbols_consumed()..] {
            self.push_symbol(arena, symbol);
        }
        if !carried.is_empty() {
            self.frontier = carried
                .iter()
                .filter_map(|(proc, local_index)| self.history.op_at(*proc, *local_index))
                .collect();
        }
    }

    /// Gives up on `witness`: its order becomes the stored search frontier.
    fn discard(&mut self, witness: &WitnessPath<S>) {
        self.maintenance_steps += witness.order.len() as u64;
        self.frontier = witness.ids();
    }

    /// Greedy witness maintenance for a newly completed operation.
    fn incorporate_completion(&mut self, arena: &mut ArenaRead<'_>, op: OpId) {
        let Some(mut witness) = self.witness.take() else {
            return;
        };
        let record = self.history.record(op);
        let observed = record.response.expect("completed op has a response");

        // Case 1: the operation is already in the witness — the previous
        // search completed it as a pending op with the specification
        // response.  If that response is what actually came back, the
        // witness (orders and legality untouched by the completion — the new
        // response position creates no constraint *on* ops already ordered
        // before it) survives unchanged.
        if let Some(position) = witness.position_of(op) {
            if witness.order[position].1 == observed {
                self.stats.splices += 1;
                self.witness = Some(witness);
                return;
            }
            // The assumed response was wrong: excise the operation and fall
            // through to re-splicing it afresh at a position where the actual
            // response is legal (under a deterministic specification it is
            // never legal where the assumed one stood).
            if !self.remove_at(arena, &mut witness, position) {
                self.discard(&witness);
                return;
            }
        }

        // Case 2: splice the operation into the order.  It must come after
        // all earlier operations of its process (program order) and — for
        // linearizability — after every operation that precedes it in real
        // time.  Nothing is forced *after* it: its response is the latest
        // symbol, so it precedes no operation yet.  The last such entry is
        // found from the back: everything the scan passes over is an
        // operation the new one may still be ordered before.
        let m = witness.order.len();
        let mut lo = 0usize;
        for (i, (id, _)) in witness.order.iter().enumerate().rev() {
            self.maintenance_steps += 1;
            let q = self.history.record(*id);
            let program_order = q.proc == record.proc && q.local_index < record.local_index;
            let real_time = self.config.respect_real_time && q.precedes(&record);
            if program_order || real_time {
                lo = i + 1;
                break;
            }
        }
        // Deepest-first, with a replay budget: without real-time pruning
        // (sequential consistency) `lo` can be far from `m`, and replaying
        // the suffix at every candidate position would cost O(m²) — past the
        // budget the frontier-guided DFS is the cheaper fallback.
        let mut replays = 0usize;
        for i in (lo..=m).rev() {
            self.maintenance_steps += 1;
            let interner = arena.interner();
            let Some(state) = self.spec.step_if_legal(
                &witness.states[i],
                &interner.resolve_invocation(record.invocation),
                &interner.resolve_response(observed),
            ) else {
                continue;
            };
            if replays >= MAX_SPLICE_REPLAYS {
                break;
            }
            replays += 1;
            // Replay the suffix on the shifted state.
            let Some(suffix) = self.replay(arena, &state, &witness.order[i..]) else {
                continue;
            };
            witness.insert(i, (op, observed), state, suffix);
            self.stats.splices += 1;
            self.witness = Some(witness);
            return;
        }
        // Pending rescue: the append can fail because the new operation
        // observed the effect of an operation that is still pending — its
        // view ran ahead of its acknowledgement, the signature pattern of
        // the Figure 8 sketches.  Linearize one such open operation at the
        // end (with its specification response, exactly as the search
        // would), then append the new operation after it.
        for q in self.history.open_ops() {
            if witness.position_of(q).is_some() {
                continue;
            }
            let q_record = self.history.record(q);
            let interner = arena.interner();
            let Some((mid_state, q_response)) = self.spec.apply(
                &witness.states[m],
                &interner.resolve_invocation(q_record.invocation),
            ) else {
                continue;
            };
            let Some(final_state) = self.spec.step_if_legal(
                &mid_state,
                &interner.resolve_invocation(record.invocation),
                &interner.resolve_response(observed),
            ) else {
                continue;
            };
            let assumed = arena.response(&q_response);
            witness.insert(m, (q, assumed), mid_state, Vec::new());
            witness.insert(m + 1, (op, observed), final_state, Vec::new());
            self.stats.splices += 1;
            self.witness = Some(witness);
            return;
        }

        // No legal splice: keep the old order as the search frontier.
        self.discard(&witness);
    }

    /// Replays `entries` from `start`: the state after each of them, or
    /// `None` when one of the steps is illegal.
    fn replay(
        &mut self,
        arena: &mut ArenaRead<'_>,
        start: &S::State,
        entries: &[(OpId, ResponseId)],
    ) -> Option<Vec<S::State>> {
        let interner = arena.interner();
        let mut states: Vec<S::State> = Vec::with_capacity(entries.len());
        for (id, resp) in entries {
            self.maintenance_steps += 1;
            let q = self.history.record(*id);
            let next = self.spec.step_if_legal(
                states.last().unwrap_or(start),
                &interner.resolve_invocation(q.invocation),
                &interner.resolve_response(*resp),
            )?;
            states.push(next);
        }
        Some(states)
    }

    /// Removes the operation at `position` and replays the suffix; `false`,
    /// with the witness untouched, when the suffix is illegal without it.
    fn remove_at(
        &mut self,
        arena: &mut ArenaRead<'_>,
        witness: &mut WitnessPath<S>,
        position: usize,
    ) -> bool {
        let Some(suffix) = self.replay(
            arena,
            &witness.states[position],
            &witness.order[position + 1..],
        ) else {
            return false;
        };
        witness.remove(position, suffix);
        true
    }

    fn evaluate(&mut self, arena: &mut ArenaRead<'_>) -> CheckOutcome {
        if self.latched_inconsistent || self.standing_no.is_some() {
            self.stats.fast_path += 1;
            self.stats.latched += 1;
            return CheckOutcome::Inconsistent;
        }
        if self.witness.is_some() {
            self.stats.fast_path += 1;
            return CheckOutcome::Consistent;
        }
        if !self.orphans.is_empty() {
            // R4: no witness can place an orphan, so there is none, and the
            // NO latches or stands exactly as a refuting search's would.
            self.stats.fast_path += 1;
            self.stats.latched += 1;
            if self.config.respect_real_time {
                self.latched_inconsistent = true;
                self.orphans.clear();
            } else {
                self.standing_no = Some(self.orphan_owners());
            }
            return CheckOutcome::Inconsistent;
        }
        self.run_dfs(arena)
    }

    /// The fallback search from the root, guided by the stored frontier.
    fn run_dfs(&mut self, arena: &mut ArenaRead<'_>) -> CheckOutcome {
        self.stats.dfs_runs += 1;
        let hint = std::mem::take(&mut self.frontier);
        let mut explored = 0usize;
        let outcome = self.search(arena, &hint, &mut explored);
        self.stats.dfs_nodes += explored as u64;
        match outcome {
            SearchOutcome::Found(order) => {
                // The witness order is the frontier from here on; the old
                // hint is dropped.
                self.install_witness(arena, order);
                CheckOutcome::Consistent
            }
            SearchOutcome::NotFound { blocked } => {
                self.frontier = hint;
                if self.config.respect_real_time {
                    // Linearizability is prefix-closed: the NO is final for
                    // every extension of this word.
                    self.latched_inconsistent = true;
                } else {
                    self.standing_no = Some(blocked);
                }
                CheckOutcome::Inconsistent
            }
            SearchOutcome::Budget => {
                self.frontier = hint;
                CheckOutcome::Unknown
            }
        }
    }

    /// The search on the calling thread, on that thread's scratch; adds the
    /// nodes it visits to `explored`.
    fn search(
        &self,
        arena: &mut ArenaRead<'_>,
        hint: &[OpId],
        explored: &mut usize,
    ) -> SearchOutcome {
        let ctx = SearchContext {
            spec: &self.spec,
            config: &self.config,
            hint,
        };
        let history = &self.history;
        with_scratch(history.process_count(), |scratch| {
            wing_gong(&ctx, history, arena, scratch, explored)
        })
    }

    /// Installs a search-produced linearization as the maintained witness,
    /// rebuilding the state path once (outside the search).
    fn install_witness(&mut self, arena: &mut ArenaRead<'_>, order: Vec<(OpId, ResponseId)>) {
        let mut witness = WitnessPath::new(self.spec.initial());
        self.extend_witness(arena, &mut witness, &order)
            .expect("witness found by the search replays legally");
        self.witness = Some(witness);
    }

    /// Appends `entries` to `witness`, replaying the state after each, or
    /// returns the position at which the replay is illegal.
    fn extend_witness(
        &self,
        arena: &mut ArenaRead<'_>,
        witness: &mut WitnessPath<S>,
        entries: &[(OpId, ResponseId)],
    ) -> Result<(), usize> {
        let interner = arena.interner();
        witness.order.reserve(entries.len());
        witness.states.reserve(entries.len());
        for &(id, resp) in entries {
            let q = self.history.record(id);
            let next = self
                .spec
                .step_if_legal(
                    witness.states.last().expect("the path starts at the initial state"),
                    &interner.resolve_invocation(q.invocation),
                    &interner.resolve_response(resp),
                )
                .ok_or(witness.order.len())?;
            witness.push((id, resp), next);
        }
        Ok(())
    }

    /// The one checkpoint encoder (layout in the docs of
    /// [`IncrementalChecker::checkpoint_bytes`]): the symbols from position
    /// `base` on and the witness from entry `keep` on, both relative to a
    /// checker that has read `base` symbols and holds this witness's first
    /// `keep` entries.  `(0, 0)` is the full form.
    fn encode(&self, arena: &mut ArenaRead<'_>, base: usize, keep: usize) -> Vec<u8> {
        let interner = arena.interner();
        let symbols = self.history.symbols_consumed() - base;
        // Sized for register traffic (a symbol is 6 or 14 bytes, a witness
        // entry 9 or 17, a frontier entry 8) so that a long history is
        // written without regrowing the buffer a dozen times.
        let (witness_len, frontier_len) = match &self.witness {
            Some(witness) => (witness.order.len() - keep, 0),
            None => (0, self.frontier.len()),
        };
        let blocked_len = self.standing_no.as_ref().map_or(0, Vec::len);
        let mut buf = Vec::with_capacity(
            96 + 10 * symbols + 13 * witness_len + 8 * frontier_len + 4 * blocked_len,
        );
        buf.push(CHECKPOINT_VERSION);
        let mut flags = 0u8;
        if self.latched_inconsistent {
            flags |= 1;
        }
        if self.witness.is_some() {
            flags |= 2;
        }
        if self.standing_no.is_some() {
            flags |= 4 | 8;
        }
        buf.push(flags);
        for value in [
            self.stats.checks,
            self.stats.fast_path,
            self.stats.splices,
            0,
            self.stats.dfs_runs,
            self.stats.dfs_nodes,
            self.stats.rebuilds,
            self.stats.latched,
        ] {
            put_u64(&mut buf, value);
        }
        put_u32(&mut buf, self.history.process_count() as u32);
        put_u32(&mut buf, base as u32);
        put_u32(&mut buf, symbols as u32);
        for (proc, action) in self.history.word_from(base) {
            put_u32(&mut buf, proc.0 as u32);
            match action {
                EventAction::Invoke(id) => {
                    buf.push(1);
                    put_invocation(&mut buf, &interner.resolve_invocation(id));
                }
                EventAction::Respond(id) => {
                    buf.push(2);
                    put_response(&mut buf, &interner.resolve_response(id));
                }
            }
        }
        match &self.witness {
            Some(witness) => {
                put_u32(&mut buf, keep as u32);
                put_u32(&mut buf, witness_len as u32);
                for (id, resp) in &witness.order[keep..] {
                    let record = self.history.record(*id);
                    put_u32(&mut buf, record.proc.0 as u32);
                    put_u32(&mut buf, record.local_index);
                    put_response(&mut buf, &interner.resolve_response(*resp));
                }
            }
            // While a witness is alive the frontier is its order; only the
            // stored copy is ever written.
            None => {
                put_u32(&mut buf, frontier_len as u32);
                for id in &self.frontier {
                    let record = self.history.record(*id);
                    put_u32(&mut buf, record.proc.0 as u32);
                    put_u32(&mut buf, record.local_index);
                }
            }
        }
        if let Some(blocked) = &self.standing_no {
            put_u32(&mut buf, blocked.iter().filter(|b| **b).count() as u32);
            for (proc, _) in blocked.iter().enumerate().filter(|(_, b)| **b) {
                put_u32(&mut buf, proc as u32);
            }
        }
        buf
    }

    /// The delta since the mark, which then moves here.
    fn checkpoint_delta(&mut self, arena: &mut ArenaRead<'_>) -> Vec<u8> {
        let base = self.mark;
        let keep = self.witness.as_ref().map_or(0, |witness| witness.clean);
        let bytes = self.encode(arena, base, keep);
        self.mark = self.history.symbols_consumed();
        if let Some(witness) = &mut self.witness {
            witness.clean = witness.order.len();
        }
        bytes
    }

    fn restore_bytes(
        &mut self,
        arena: &mut ArenaRead<'_>,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        let mut reader = Reader::new(bytes);
        let version = reader.u8("checkpoint version")?;
        // Version 1 is the full form an earlier build wrote, with three
        // fields version 2 dropped: read and skipped.
        let v1 = match version {
            1 => true,
            CHECKPOINT_VERSION => false,
            _ => return Err(CheckpointError::BadVersion(version)),
        };
        let flags = reader.u8("checkpoint flags")?;
        // The blocked set belongs to a standing NO.
        if flags & !15 != 0 || flags & 12 == 8 {
            return Err(CheckpointError::BadFlags(flags));
        }
        if v1 {
            reader.u32("checkpoint epoch")?;
        }
        let mut counters = [0u64; 8];
        for (slot, counter) in counters.iter_mut().enumerate() {
            if v1 && slot == 5 {
                // A stats slot version 1 wrote as 0.
                reader.u64("checkpoint stats")?;
            }
            *counter = reader.u64("checkpoint stats")?;
        }
        let processes = reader.u32("checkpoint processes")? as usize;
        let base = if v1 {
            0
        } else {
            reader.u32("checkpoint base")? as usize
        };
        // Base 0 replaces the state; any other base must be exactly what
        // this checker has read, and the payload extends it.
        let consumed = self.history.symbols_consumed();
        let held = if base == 0 {
            self.history = InternedHistory::new(processes);
            None
        } else if base == consumed {
            self.history.adopt_processes(processes);
            self.witness.take()
        } else {
            return Err(CheckpointError::BaseMismatch { base, consumed });
        };
        self.witness = None;
        self.invoked = None;
        self.frontier = Vec::new();
        // Each symbol costs at least proc (4) + tag (1) + one payload byte.
        let symbol_count = reader.count(6, "checkpoint symbols")?;
        // Re-feed the history directly, bypassing witness maintenance: the
        // serialized witness and frontier already encode its outcome.
        for _ in 0..symbol_count {
            let proc = ProcId(reader.u32("checkpoint symbol proc")? as usize);
            let action = match reader.u8("checkpoint symbol tag")? {
                1 => EventAction::Invoke(arena.invocation(&take_invocation(&mut reader)?)),
                2 => EventAction::Respond(arena.response(&take_response(&mut reader)?)),
                tag => {
                    return Err(CheckpointError::Codec(CodecError::BadTag {
                        what: "checkpoint symbol tag",
                        tag,
                    }))
                }
            };
            self.history.push(proc, action);
        }
        if flags & 2 != 0 {
            // The entries the payload leaves to the held witness.
            let keep = if v1 {
                0
            } else {
                reader.u32("checkpoint witness keep")? as usize
            };
            let held_len = held.as_ref().map_or(0, |witness| witness.order.len());
            if keep > held_len {
                return Err(CheckpointError::Codec(CodecError::LengthOverflow {
                    what: "checkpoint witness keep",
                    claimed: keep as u64,
                    admissible: held_len as u64,
                }));
            }
            // Each witness entry: proc (4) + index (4) + one response byte.
            let entries = reader.count(9, "checkpoint witness")?;
            let mut order = Vec::with_capacity(entries);
            for _ in 0..entries {
                let proc = ProcId(reader.u32("checkpoint witness proc")? as usize);
                let local_index = reader.u32("checkpoint witness index")?;
                let response = take_response(&mut reader)?;
                let op = self.history.op_at(proc, local_index).ok_or(
                    CheckpointError::UnknownOp {
                        proc: proc.0,
                        local_index,
                    },
                )?;
                order.push((op, arena.response(&response)));
            }
            // Recompute the states after the kept entries by replay: a
            // crossed checkpoint (wrong spec, wrong config) must surface as
            // an error, not a panic.
            let mut witness = held.unwrap_or_else(|| WitnessPath::new(self.spec.initial()));
            witness.truncate(keep);
            self.extend_witness(arena, &mut witness, &order)
                .map_err(|position| CheckpointError::IllegalWitness { position })?;
            witness.clean = witness.order.len();
            self.witness = Some(witness);
        }
        // Version 2 writes the frontier only while no witness is alive;
        // version 1 also wrote a live witness's order as one, which is
        // validated and not kept.
        let stored = self.witness.is_none();
        if v1 || stored {
            let frontier_entries = reader.count(8, "checkpoint frontier")?;
            let mut frontier = Vec::with_capacity(if stored { frontier_entries } else { 0 });
            for _ in 0..frontier_entries {
                let proc = ProcId(reader.u32("checkpoint frontier proc")? as usize);
                let local_index = reader.u32("checkpoint frontier index")?;
                let op = self
                    .history
                    .op_at(proc, local_index)
                    .ok_or(CheckpointError::UnknownOp {
                        proc: proc.0,
                        local_index,
                    })?;
                if stored {
                    frontier.push(op);
                }
            }
            self.frontier = frontier;
        }
        let mut blocked = Vec::new();
        if flags & 8 != 0 {
            let processes = self.history.process_count();
            blocked = vec![false; processes];
            let entries = reader.count(4, "checkpoint blocked processes")?;
            let mut previous = None;
            for _ in 0..entries {
                let proc = reader.u32("checkpoint blocked process")? as usize;
                if proc >= processes || previous.is_some_and(|previous| proc <= previous) {
                    return Err(CheckpointError::BadProcess { proc });
                }
                blocked[proc] = true;
                previous = Some(proc);
            }
        }
        if !reader.is_empty() {
            return Err(CheckpointError::TrailingBytes {
                remaining: reader.remaining(),
            });
        }
        self.latched_inconsistent = flags & 1 != 0;
        if flags & 12 == 4 {
            // A standing NO written before the blocked set was: the search
            // that refutes the history derives it.  Like the witness replay
            // above, it is not counted.
            if let SearchOutcome::NotFound { blocked: derived } =
                self.search(arena, &self.frontier, &mut 0)
            {
                blocked = derived;
            }
        }
        self.standing_no = (flags & 4 != 0).then_some(blocked);
        self.rebuild_orphans(arena);
        self.cached = None;
        self.mark = self.history.symbols_consumed();
        let [checks, fast_path, splices, _retired, dfs_runs, dfs_nodes, rebuilds, latched] =
            counters;
        self.stats = CheckerStats {
            checks,
            fast_path,
            splices,
            dfs_runs,
            dfs_nodes,
            rebuilds,
            latched,
            unknown: 0,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_history, validate_witness};
    use crate::history::ConcurrentHistory;
    use drv_lang::{Invocation, Response, WordBuilder};
    use drv_spec::{Queue, Register};

    fn p(i: usize) -> ProcId {
        ProcId(i)
    }

    fn lin<S: SequentialSpec>(spec: S) -> IncrementalChecker<S> {
        IncrementalChecker::new(spec, CheckerConfig::linearizability(), 2)
    }

    #[test]
    fn empty_history_is_consistent() {
        let mut checker = lin(Register::new());
        assert!(checker.check().is_consistent());
    }

    #[test]
    fn symbol_by_symbol_register_run_uses_fast_paths() {
        let mut checker = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(2))
            .build();
        for symbol in word.symbols() {
            checker.push_symbol(symbol);
            assert!(checker.check().is_consistent());
        }
        let stats = checker.stats();
        // One DFS to seed the witness (first check); everything after is
        // witness maintenance.
        assert!(stats.dfs_runs <= 1, "{stats:?}");
        assert!(stats.splices >= 3, "{stats:?}");
    }

    #[test]
    fn stale_read_is_flagged_and_latched() {
        let mut checker = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        assert_eq!(checker.check_word(&word), ConsistencyResult::Inconsistent);
        // Extensions stay inconsistent without any further search.
        let extended = {
            let mut w = word.clone();
            w.op(p(0), Invocation::Write(2), Response::Ack);
            w
        };
        let dfs_before = checker.stats().dfs_runs;
        assert_eq!(checker.check_word(&extended), ConsistencyResult::Inconsistent);
        assert_eq!(checker.stats().dfs_runs, dfs_before);
        assert!(checker.stats().latched >= 1);
    }

    #[test]
    fn sc_does_not_latch_and_can_recover() {
        // Not SC as long as nobody wrote 2 — but the later write legalizes
        // the read, so the verdict must flip back to consistent.
        let mut checker = IncrementalChecker::new(
            Register::new(),
            CheckerConfig::sequential_consistency(),
            2,
        );
        let bad = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(2))
            .build();
        assert_eq!(checker.check_word(&bad), ConsistencyResult::Inconsistent);
        let recovered = {
            let mut w = bad.clone();
            w.op(p(0), Invocation::Write(2), Response::Ack);
            w
        };
        assert!(checker.check_word(&recovered).is_consistent());
    }

    #[test]
    fn verdicts_match_scratch_on_interleaved_queue() {
        let interleaved = WordBuilder::new()
            .invoke(p(0), Invocation::Enqueue(1))
            .invoke(p(1), Invocation::Enqueue(2))
            .respond(p(0), Response::Ack)
            .respond(p(1), Response::Ack)
            .op(p(0), Invocation::Dequeue, Response::MaybeValue(Some(2)))
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(1)))
            .build();
        // A dequeue left pending while another one completes: the search
        // both completes and drops the open operation.
        let pending = WordBuilder::new()
            .invoke(p(0), Invocation::Enqueue(1))
            .invoke(p(1), Invocation::Enqueue(2))
            .respond(p(0), Response::Ack)
            .respond(p(1), Response::Ack)
            .invoke(p(0), Invocation::Dequeue)
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(2)))
            .build();
        for word in [interleaved, pending] {
            let mut checker = IncrementalChecker::new(
                Queue::new(),
                CheckerConfig::linearizability(),
                2,
            );
            for len in 0..=word.len() {
                let prefix = word.prefix(len);
                let scratch = check_history(
                    &Queue::new(),
                    &ConcurrentHistory::from_word(&prefix, 2),
                    &CheckerConfig::linearizability(),
                );
                let incremental = checker.check_word(&prefix);
                assert_eq!(
                    incremental.is_consistent(),
                    scratch.is_consistent(),
                    "{word}, prefix length {len}"
                );
                assert_eq!(
                    matches!(incremental, ConsistencyResult::Inconsistent),
                    matches!(scratch, ConsistencyResult::Inconsistent),
                    "{word}, prefix length {len}"
                );
                // Fresh engines search from the root every time.
                let fresh = IncrementalChecker::new(
                    Queue::new(),
                    CheckerConfig::linearizability(),
                    2,
                )
                .check_word_outcome(&prefix);
                assert_eq!(fresh, checker.check_outcome(), "{word}, prefix length {len}");
            }
        }
    }

    #[test]
    fn produced_witnesses_validate() {
        let word = WordBuilder::new()
            .invoke(p(0), Invocation::Write(1))
            .invoke(p(1), Invocation::Read)
            .respond(p(1), Response::Value(1))
            .respond(p(0), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        let mut checker = lin(Register::new());
        let result = checker.check_word(&word);
        let witness = result.witness().expect("linearizable").clone();
        let history = ConcurrentHistory::from_word(&word, 2);
        assert!(validate_witness(&Register::new(), &history, &witness, true));
    }

    #[test]
    fn non_extension_words_trigger_rebuild() {
        let mut checker = lin(Register::new());
        let first = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .build();
        let other = WordBuilder::new()
            .op(p(0), Invocation::Write(7), Response::Ack)
            .build();
        assert!(checker.check_word(&first).is_consistent());
        assert!(checker.check_word(&other).is_consistent());
        assert_eq!(checker.stats().rebuilds, 1);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut builder = WordBuilder::new();
        for i in 0..6 {
            builder = builder.invoke(ProcId(i), Invocation::Write(i as u64));
        }
        for i in 0..6 {
            builder = builder.respond(ProcId(i), Response::Ack);
        }
        let word = builder.build();
        let mut checker = IncrementalChecker::new(
            Register::new(),
            CheckerConfig::linearizability().with_max_states(1),
            6,
        );
        assert_eq!(checker.check_word(&word), ConsistencyResult::Unknown);
        // Unknown does not latch: a bigger budget resolves it.
        let mut roomy = IncrementalChecker::new(
            Register::new(),
            CheckerConfig::linearizability(),
            6,
        );
        assert!(roomy.check_word(&word).is_consistent());
    }

    #[test]
    fn pending_rescue_keeps_the_witness_alive() {
        // A read observes a write that is still pending: appending the read
        // alone is illegal, but linearizing the open write first rescues
        // the witness without a search.
        let mut checker = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .build();
        assert!(checker.check_word(&word).is_consistent());
        let extended = {
            let mut w = word.clone();
            w.invoke(p(0), Invocation::Write(2)); // still pending
            w.invoke(p(1), Invocation::Read);
            w.respond(p(1), Response::Value(2)); // observed the pending write
            w
        };
        let dfs_before = checker.stats().dfs_runs;
        assert!(checker.check_word(&extended).is_consistent());
        let stats = checker.stats();
        assert_eq!(stats.dfs_runs, dfs_before, "rescue must avoid the search: {stats:?}");
        assert!(stats.splices >= 1, "{stats:?}");
        // When the pending write finally acks, the assumed response matches
        // and the witness survives again.
        let completed = {
            let mut w = extended.clone();
            w.respond(p(0), Response::Ack);
            w
        };
        assert!(checker.check_word(&completed).is_consistent());
        assert_eq!(checker.stats().dfs_runs, dfs_before, "{:?}", checker.stats());
    }

    #[test]
    fn a_wrong_assumed_response_is_excised_and_respliced() {
        // The first check comes late, so the search linearizes the still
        // pending read first, with the response the specification gives it
        // there: [r→0, w1].  The read then answers 1: it cannot stay where
        // it is, leaves the order, and is spliced back in after the write —
        // all without a second search.
        let mut checker = lin(Register::new());
        for symbol in [
            Symbol::invoke(p(0), Invocation::Read),
            Symbol::invoke(p(1), Invocation::Write(1)),
            Symbol::respond(p(1), Response::Ack),
        ] {
            checker.push_symbol(&symbol);
        }
        let assumed = checker.check();
        let order = &assumed.witness().expect("linearizable").order;
        assert_eq!(order[0], (OpId(0), Response::Value(0)), "{order:?}");
        checker.push_symbol(&Symbol::respond(p(0), Response::Value(1)));
        let repaired = checker.check();
        let order = &repaired.witness().expect("linearizable").order;
        assert_eq!(order[..], [(OpId(1), Response::Ack), (OpId(0), Response::Value(1))]);
        let stats = checker.stats();
        assert_eq!((stats.dfs_runs, stats.splices), (1, 1), "{stats:?}");
    }

    #[test]
    fn outcome_api_agrees_with_full_results() {
        let mut with_witness = lin(Register::new());
        let mut outcome_only = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        for len in 0..=word.len() {
            let prefix = word.prefix(len);
            let full = with_witness.check_word(&prefix);
            let outcome = outcome_only.check_word_outcome(&prefix);
            assert_eq!(full.is_consistent(), outcome.is_consistent(), "prefix {len}");
            assert_eq!(
                matches!(full, ConsistencyResult::Unknown),
                outcome == CheckOutcome::Unknown,
                "prefix {len}"
            );
        }
    }

    #[test]
    fn pack_counts_is_injective_in_range() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for a in 0..6u32 {
            for b in 0..6u32 {
                for c in 0..6u32 {
                    assert!(seen.insert(pack_counts(&[a, b, c])));
                }
            }
        }
    }

    #[test]
    fn pack_counts_handles_tiny_and_wide_vectors() {
        // One process: the uncapped per-count width would be 128 bits and
        // the shift would overflow.
        assert_ne!(pack_counts(&[0]), pack_counts(&[u32::MAX]));
        assert_eq!(pack_counts(&[7]), 7);
        // Single-process engines reach this through the DFS as well.
        let mut checker = IncrementalChecker::new(
            Register::new(),
            CheckerConfig::linearizability(),
            1,
        );
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(0), Invocation::Read, Response::Value(1))
            .build();
        assert!(checker.check_word(&word).is_consistent());
    }

    #[test]
    fn fnv128_distinguishes_small_perturbations() {
        assert_ne!(hash_state(&vec![1u64, 2]), hash_state(&vec![2u64, 1]));
        assert_ne!(hash_state(&0u64), hash_state(&1u64));
    }

    #[test]
    fn checker_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<IncrementalChecker<Register>>();
        assert_send::<IncrementalChecker<Queue>>();
    }

    #[test]
    fn feed_batch_outcomes_match_per_symbol_feeding() {
        // Mixed traffic with a concurrency window and a stale read so the
        // batch crosses fast-path, splice and DFS territory; the recorded
        // outcome stream (and the stats) must be bit-identical to the
        // symbol-by-symbol loop, for both criteria and any batch split.
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .invoke(p(0), Invocation::Write(2))
            .invoke(p(1), Invocation::Read)
            .respond(p(1), Response::Value(2))
            .respond(p(0), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        for config in [
            CheckerConfig::linearizability(),
            CheckerConfig::sequential_consistency(),
        ] {
            let mut reference = IncrementalChecker::new(Register::new(), config, 2);
            let expected: Vec<CheckOutcome> = word
                .symbols()
                .iter()
                .map(|symbol| {
                    reference.push_symbol(symbol);
                    reference.check_outcome()
                })
                .collect();
            for split in 0..=word.len() {
                let mut batched = IncrementalChecker::new(Register::new(), config, 2);
                let mut outcomes = Vec::new();
                batched.feed_batch(&word.symbols()[..split], &mut outcomes);
                batched.feed_batch(&word.symbols()[split..], &mut outcomes);
                assert_eq!(outcomes, expected, "split {split}, {config:?}");
                if split == 0 {
                    assert_eq!(batched.stats(), reference.stats(), "{config:?}");
                }
                // The same run as records of the checker's own arena.
                let arena = SharedInterner::new();
                let records: Vec<EventRecord> = word
                    .symbols()
                    .iter()
                    .map(|symbol| EventRecord::intern(drv_lang::ObjectId(0), symbol, &arena))
                    .collect();
                let mut by_id = IncrementalChecker::with_arena(Register::new(), config, 2, arena);
                let mut outcomes = Vec::new();
                let foreign = SharedInterner::new();
                assert!(!by_id.feed_records(&records, &foreign, &mut outcomes));
                assert_eq!((outcomes.len(), by_id.symbols_consumed()), (0, 0));
                let arena = by_id.arena.clone();
                assert!(by_id.feed_records(&records[..split], &arena, &mut outcomes));
                assert!(by_id.feed_records(&records[split..], &arena, &mut outcomes));
                assert_eq!(outcomes, expected, "records, split {split}, {config:?}");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        // A checker restored from a checkpoint taken at *every* prefix
        // length must agree with the uninterrupted one on the entire
        // suffix — clean streams, SC-recoverable dips and latched
        // violations alike, under both criteria.
        let clean = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(2))
            .build();
        let stale = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(0), Invocation::Write(2), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .op(p(1), Invocation::Read, Response::Value(2))
            .build();
        let latched = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(7))
            .op(p(0), Invocation::Write(2), Response::Ack)
            .build();
        for config in [CheckerConfig::linearizability(), CheckerConfig::sequential_consistency()] {
            for word in [&clean, &stale, &latched] {
                let symbols = word.symbols();
                // Restored into again and again after it has read the whole
                // word: a restore replaces everything a checker held.
                let mut reused = IncrementalChecker::new(Register::new(), config, 2);
                reused.check_word(word);
                for split in 0..=symbols.len() {
                    let mut live = IncrementalChecker::new(Register::new(), config, 2);
                    for symbol in &symbols[..split] {
                        live.push_symbol(symbol);
                        live.check();
                    }
                    let bytes = live.checkpoint_bytes();
                    let mut restored = IncrementalChecker::new(Register::new(), config, 2);
                    restored.restore_bytes(&bytes).expect("a checkpoint we wrote restores");
                    reused.restore_bytes(&bytes).expect("a checkpoint we wrote restores");
                    for symbol in &symbols[split..] {
                        live.push_symbol(symbol);
                        restored.push_symbol(symbol);
                        reused.push_symbol(symbol);
                        let expected = live.check();
                        assert_eq!(
                            restored.check(),
                            expected,
                            "split {split}: the restored checker diverged"
                        );
                        assert_eq!(
                            reused.check(),
                            expected,
                            "split {split}: the checker restored into diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_checker_and_its_restore_give_a_scalar_payload_its_inline_id() {
        use drv_lang::INLINE_VALUE_LIMIT;
        // Every scalar variant at the inline boundary, one operation each,
        // and two payloads that always take a slot.
        let mut word = WordBuilder::new();
        for value in [0, 1, INLINE_VALUE_LIMIT - 1, INLINE_VALUE_LIMIT, u64::MAX] {
            word = word
                .op(p(0), Invocation::Write(value), Response::Ack)
                .op(p(1), Invocation::Read, Response::Value(value))
                .op(p(0), Invocation::Enqueue(value), Response::MaybeValue(None))
                .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(value)))
                .op(p(0), Invocation::Push(value), Response::Ack)
                .op(p(1), Invocation::Pop, Response::Ack);
        }
        let word = word
            .op(p(0), Invocation::Inc, Response::Ack)
            .op(p(1), Invocation::Get, Response::Sequence(vec![1]))
            .op(p(0), Invocation::Custom("cas".into(), 1), Response::Custom("ok".into(), 0))
            .build();
        let mut reference = Interner::new();
        for config in [CheckerConfig::linearizability(), CheckerConfig::sequential_consistency()] {
            let mut fed = IncrementalChecker::new(Register::new(), config, 2);
            fed.check_word(&word);
            // Restored on an arena whose first slots hold something else.
            let seeded = SharedInterner::new();
            seeded.invocation(&Invocation::Custom("other".into(), 0));
            seeded.response(&Response::Custom("other".into(), 0));
            let mut restored = IncrementalChecker::with_arena(Register::new(), config, 2, seeded);
            restored.restore_bytes(&fed.checkpoint_bytes()).expect("a checkpoint we wrote");
            let (fed_records, restored_records) =
                (fed.core.history.records(), restored.core.history.records());
            assert_eq!(fed_records.len(), word.operations().len());
            assert_eq!(restored_records.len(), fed_records.len());
            for ((record, again), operation) in
                fed_records.iter().zip(restored_records).zip(word.operations())
            {
                let (invocation, response) = (&operation.invocation, operation.response.as_ref());
                let response = response.expect("every operation completes");
                let inline = |value: u64| value < INLINE_VALUE_LIMIT;
                let expect_inline = match invocation {
                    Invocation::Write(v) | Invocation::Enqueue(v) | Invocation::Push(v) => {
                        inline(*v)
                    }
                    Invocation::Custom(..) => false,
                    _ => true,
                };
                assert_eq!(record.invocation.is_inline(), expect_inline, "{invocation}");
                assert_eq!(record.invocation, reference.invocation(invocation), "{invocation}");
                let id = record.response.expect("complete");
                assert_eq!(id, reference.response(response), "{response}");
                // The same inline ids on the other arena; slots resolve to
                // the same payloads there.
                assert_eq!(again.invocation == record.invocation, expect_inline, "{invocation}");
                if id.is_inline() {
                    assert_eq!(again.response, Some(id), "{response}");
                }
                let read = restored.arena.read();
                assert_eq!(*read.resolve_invocation(again.invocation), *invocation);
                assert_eq!(*read.resolve_response(again.response.expect("complete")), *response);
            }
            // Write, enqueue and push of the two values past the bound, and
            // the `Custom` invocation; the two values as `Value` and as
            // `MaybeValue`, the sequence and the `Custom` response.
            assert_eq!(fed.arena.versions(), (7, 6));
            assert_eq!(restored.arena.versions(), (8, 7));
        }
    }

    #[test]
    fn orphans_are_keyed_by_their_producer_and_dropped_by_its_invocation() {
        use drv_lang::INLINE_VALUE_LIMIT;
        // Three thin-air reads: of an inline value, of a value past the
        // bound that another checker put in the shared arena, and of one the
        // arena has never seen.
        let (inline, seen, unseen) = (5, u64::MAX, INLINE_VALUE_LIMIT + 1);
        let arena = SharedInterner::new();
        arena.invocation(&Invocation::Write(seen));
        let config = CheckerConfig::sequential_consistency();
        let mut checker = IncrementalChecker::with_arena(Register::new(), config, 2, arena.clone());
        for value in [inline, seen, unseen] {
            checker.push_symbol(&Symbol::invoke(p(1), Invocation::Read));
            checker.push_symbol(&Symbol::respond(p(1), Response::Value(value)));
            assert_eq!(checker.check_outcome(), CheckOutcome::Inconsistent);
        }
        let keyed = |checker: &IncrementalChecker<Register>| {
            let orphans = &checker.core.orphans;
            (orphans.by_id.len(), orphans.unseen.len(), checker.core.orphan_owners())
        };
        assert_eq!(keyed(&checker), (2, 1, vec![false, true]));
        assert_eq!(checker.stats().dfs_runs, 0);
        // A restore rebuilds the same orphans.
        let mut restored = IncrementalChecker::with_arena(Register::new(), config, 2, arena);
        restored.restore_bytes(&checker.checkpoint_bytes()).expect("a checkpoint we wrote");
        assert_eq!(keyed(&restored), keyed(&checker));
        // Each write drops its own orphans, and only those; the last one
        // interns a payload the arena had never seen.
        let left = [(1, 1), (0, 1), (0, 0)];
        for (value, left) in [inline, seen, unseen].into_iter().zip(left) {
            for checker in [&mut checker, &mut restored] {
                checker.push_symbol(&Symbol::invoke(p(0), Invocation::Write(value)));
                let orphans = &checker.core.orphans;
                assert_eq!((orphans.by_id.len(), orphans.unseen.len()), left, "write {value}");
                checker.push_symbol(&Symbol::respond(p(0), Response::Ack));
            }
        }
        assert_eq!(checker.check_outcome(), CheckOutcome::Consistent);
        assert_eq!(restored.check_outcome(), CheckOutcome::Consistent);
    }

    #[test]
    fn restore_rejects_malformed_checkpoints() {
        let mut checker = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        assert!(checker.check_word(&word).is_consistent());
        let bytes = checker.checkpoint_bytes();
        // Every strict prefix misses a required field.
        for cut in 0..bytes.len() {
            let mut fresh = lin(Register::new());
            assert!(
                fresh.restore_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix restored"
            );
        }
        // An unknown format version is refused before anything decodes.
        let mut versioned = bytes.clone();
        versioned[0] = 9;
        assert!(matches!(
            lin(Register::new()).restore_bytes(&versioned),
            Err(CheckpointError::BadVersion(9))
        ));
        // Undefined flag bits are refused.
        let mut flagged = bytes.clone();
        flagged[1] |= 0x80;
        assert!(matches!(
            lin(Register::new()).restore_bytes(&flagged),
            Err(CheckpointError::BadFlags(_))
        ));
        // Trailing bytes are refused (a checkpoint is exactly its payload).
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            lin(Register::new()).restore_bytes(&padded),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        ));
        // The uncorrupted payload still restores after all that.
        lin(Register::new()).restore_bytes(&bytes).expect("pristine payload restores");
    }

    /// A counter whose increment may answer `Ack` (what `apply` gives) or
    /// the value it replaced: two legal responses for one step, both
    /// leading to the state `apply` gives, as `step_if_legal` must.
    #[derive(Debug, Clone)]
    struct TwoFacedCounter;

    impl SequentialSpec for TwoFacedCounter {
        type State = u64;

        fn name(&self) -> String {
            "two-faced counter".into()
        }

        fn kind(&self) -> drv_lang::ObjectKind {
            drv_lang::ObjectKind::Counter
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

        fn step_if_legal(
            &self,
            state: &u64,
            invocation: &Invocation,
            response: &Response,
        ) -> Option<u64> {
            match (invocation, response) {
                (Invocation::Inc, Response::Value(old)) if old == state => Some(state + 1),
                _ => {
                    let (next, expected) = self.apply(state, invocation)?;
                    (expected == *response).then_some(next)
                }
            }
        }
    }

    /// Feeds `before` and checks, takes a delta, feeds `after` (which
    /// changes a witness entry below the first delta's end) and checks,
    /// takes another, and checks that the two restored in order give the
    /// live state.
    fn chain_across<S: SequentialSpec + Clone>(
        spec: S,
        before: &[Symbol],
        after: &[Symbol],
    ) -> CheckerStats {
        let mut live = lin(spec.clone());
        let mut feed = |symbols: &[Symbol]| {
            symbols.iter().for_each(|symbol| live.push_symbol(symbol));
            assert!(live.check_outcome().is_consistent());
            live.checkpoint_delta()
        };
        let first = feed(before);
        let second = feed(after);
        let mut restored = lin(spec);
        restored.restore_bytes(&first).expect("the full form restores");
        restored.restore_bytes(&second).expect("the delta extends it");
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
        live.stats()
    }

    #[test]
    fn witness_entries_changed_in_place_reach_the_next_delta() {
        // Two legal responses: the first search linearizes the pending
        // increment the read observed with the `Ack` the specification gives
        // it; it answers with the old value instead.  Excised, it leaves the
        // read illegal, so the witness goes, and a second search from the old
        // order finds the same order with the observed response.
        let two_faced = chain_across(
            TwoFacedCounter,
            &[
                Symbol::invoke(p(0), Invocation::Inc),
                Symbol::invoke(p(1), Invocation::Read),
                Symbol::respond(p(1), Response::Value(1)),
            ],
            &[Symbol::respond(p(0), Response::Value(0))],
        );
        assert_eq!((two_faced.dfs_runs, two_faced.splices), (2, 0), "{two_faced:?}");
        // Excision: the search orders the pending read first, answering 0;
        // it answers 1, leaves the order's head and is spliced in behind
        // the write.
        let excised = chain_across(
            Register::new(),
            &[
                Symbol::invoke(p(0), Invocation::Read),
                Symbol::invoke(p(1), Invocation::Write(1)),
                Symbol::respond(p(1), Response::Ack),
            ],
            &[Symbol::respond(p(0), Response::Value(1))],
        );
        assert_eq!((excised.dfs_runs, excised.splices), (1, 1), "{excised:?}");
    }

    #[test]
    fn a_delta_may_keep_only_the_witness_entries_held() {
        let mut live = lin(Register::new());
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        assert!(live.check_word(&word).is_consistent());
        let full = live.checkpoint_delta();
        // Nothing happened since: no symbol, and both witness entries kept.
        let empty = live.checkpoint_delta();
        // Version, flags, eight counters, processes, base and the symbol
        // count come before the witness's `keep`.
        let keep_at = 1 + 1 + 8 * 8 + 4 + 4 + 4;
        assert_eq!(empty.len(), keep_at + 8);
        assert_eq!(empty[keep_at..], [2, 0, 0, 0, 0, 0, 0, 0]);
        let mut restored = lin(Register::new());
        restored.restore_bytes(&full).expect("the full form restores");
        restored.restore_bytes(&empty).expect("an empty delta extends it");
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
        let mut inflated = empty.clone();
        inflated[keep_at] = 3;
        assert!(matches!(
            restored.restore_bytes(&inflated),
            Err(CheckpointError::Codec(CodecError::LengthOverflow { claimed: 3, .. }))
        ));
    }
}
