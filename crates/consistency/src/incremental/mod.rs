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
//!    valid untouched.  `witness.rs` tabulates what each move costs.
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
//! * **A refuted history stays refuted until something can rescue it.**
//!   Under sequential consistency a NO stands until a process that the
//!   refuting search did not find blocked invokes a mutator (R0–R3), and a
//!   response that no invocation of the history can produce is a NO under
//!   either criterion without a search (R4).  `refute.rs` states the rules
//!   and proves them.
//! * Histories are interned ([`InternedHistory`]): operations are `Copy`
//!   records, payload comparisons happen once at intern time, and a fleet of
//!   checkers on one arena stores each distinct payload once.
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
use drv_lang::{Action, EventAction, EventRecord, OpId, ProcId, SharedInterner, Symbol, Word};
use drv_spec::SequentialSpec;

mod checkpoint;
mod refute;
mod witness;

pub use checkpoint::CheckpointError;
use refute::{InvokedIds, Orphans};
use witness::WitnessPath;

/// Counters describing how the engine resolved its checks; exposed so
/// benches and tests can assert the fast paths actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Verdicts asked for: one per [`IncrementalChecker::check`],
    /// [`IncrementalChecker::check_outcome`] and `check_word*` call, and one
    /// per outcome [`IncrementalChecker::feed_batch`] and
    /// [`IncrementalChecker::feed_records`] append.
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
    /// blocked (`refute.rs`, R3).  A NO refuted by an orphan, a response no
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

/// A resumable Wing–Gong checker: feed the history symbol by symbol (or word
/// snapshot by word snapshot) and ask for the verdict after each step.
///
/// See the module docs for the persistence and exactness story.  Typical
/// monitor loop:
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
    /// (`refute.rs`, R0–R3), so the NO stands without a search until a
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
                if self
                    .standing_no
                    .as_ref()
                    .is_some_and(|blocked| blocked.get(p) != Some(&true))
                    && arena
                        .interner()
                        .resolve_invocation(record.invocation)
                        .is_mutator()
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

    fn check(&mut self, arena: &mut ArenaRead<'_>) -> ConsistencyResult {
        match self.check_outcome(arena) {
            CheckOutcome::Consistent => {
                // Only the empty history is consistent without a search
                // having built a witness path.
                let order = self.witness.as_ref().map_or(&[][..], |w| &w.order);
                let interner = arena.interner();
                let order = order
                    .iter()
                    .map(|(id, resp)| (*id, interner.resolve_response(*resp).into_owned()))
                    .collect();
                ConsistencyResult::Consistent(Witness { order })
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
            return self.refuted(self.orphan_owners());
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
                self.refuted(blocked)
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
}

#[cfg(test)]
mod tests;
