//! The Wing–Gong fallback search, as an explicit-stack loop.
//!
//! The fallback of [`crate::IncrementalChecker`] runs on the calling
//! thread, on that thread's [`Scratch`].  The search descends one level per
//! linearized or dropped operation, so its depth is the length of the
//! history.  Recursion would put that depth on the thread's call stack, and
//! engine workers run on the default 2 MiB: a stale read after some ten
//! thousand operations would overflow it, which aborts the process instead
//! of panicking.  Here a level is a heap-allocated [`Frame`]; nodes are
//! visited in the order of the recursive formulation (per process:
//! linearize, then drop), which is what node counts and the witness found
//! depend on.

use crate::checker::CheckerConfig;
use crate::history::{ArenaRead, InternedHistory};
use crate::incremental::{hash_state, pack_counts};
use drv_lang::{OpId, OpRecord, ProcId, ResponseId};
use drv_spec::SequentialSpec;
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a dead-configuration key by folding its two `u128`s, 64 bits at a
/// time, through a multiply.  The state half is already an FNV-1a
/// fingerprint; the progress half is packed small integers, which the
/// multiply spreads and `finish` brings down to the bits the table indexes
/// by.  The keys are fingerprints computed by this crate, not bytes chosen
/// by a client, and a node of the search is little more than one insert:
/// no flood resistance is worth its cost here.
///
/// It stays apart from [`drv_lang::hash`], the keyed hasher of the maps the
/// served path keys by client-chosen object ids and payloads.  That one
/// draws a key per map so that colliding keys cannot be precomputed; this
/// one needs no key, costs no per-table draw (the table is cleared and
/// reused by every search on the thread), and hashes the same way in every
/// process.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

const FOLD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(FOLD_MULTIPLIER);
    }

    fn write_u128(&mut self, value: u128) {
        self.write_u64(value as u64);
        self.write_u64((value >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

/// What a search run needs besides its frame stack, kept per thread and
/// reused by every run on it: the dead configurations, the progress vector,
/// the order under construction and which processes it has completed.  A
/// checker visited round-robin among thousands finds these hot in the cache
/// of the thread that last searched — for any object — where a table of its
/// own would be cold, and a run that ends after four nodes allocates nothing.
///
/// The frame stack is not here: its element holds an `S::State`, which need
/// not be `'static`, so it cannot sit in a thread-local; it starts empty and
/// grows with the depth actually reached.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Configurations claimed by the current run.  Growing the history
    /// changes which configurations are dead, so nothing carries over.
    pub dead: HashSet<(u128, u128), BuildHasherDefault<FoldHasher>>,
    /// `counts[p]`: operations of process `p` linearized or dropped.
    pub counts: Vec<u32>,
    pub order: Vec<(OpId, ResponseId)>,
    /// `complete[p]`: some configuration the current run entered had every
    /// operation of process `p` linearized or dropped.
    pub complete: Vec<bool>,
}

/// Clearing a table costs its capacity, so one huge refutation must not tax
/// every later four-node run on the thread: past this many entries the
/// table is given back.
const RETAINED_DEAD_ENTRIES: usize = 1 << 14;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Runs `search` on the calling thread's scratch, emptied for a history of
/// `processes` processes.  The scratch is moved out for the duration, so a
/// search started from inside `search` gets an empty one instead of a panic.
pub(crate) fn with_scratch<R>(processes: usize, search: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|slot| {
        let mut scratch = slot.take();
        scratch.dead.clear();
        scratch.dead.shrink_to(RETAINED_DEAD_ENTRIES);
        scratch.counts.clear();
        scratch.counts.resize(processes, 0);
        scratch.order.clear();
        scratch.complete.clear();
        let result = search(&mut scratch);
        slot.set(scratch);
        result
    })
}

/// How a search ended.
pub(crate) enum SearchOutcome {
    /// Every operation is linearized (or legitimately dropped), in this
    /// order: the witness.
    Found(Vec<(OpId, ResponseId)>),
    /// The history was exhaustively refuted.  `blocked[p]`: no configuration
    /// the search entered had every operation of process `p` placed — so no
    /// witness of a longer history places an operation `p` invokes next.
    NotFound { blocked: Vec<bool> },
    /// The node budget ran out first.
    Budget,
}

/// The read-only context of one search.
pub(crate) struct SearchContext<'a, S: SequentialSpec> {
    pub spec: &'a S,
    pub config: &'a CheckerConfig,
    /// The preserved frontier: at depth `d` of an on-hint path, the process
    /// of `hint[d]` is tried first.
    pub hint: &'a [OpId],
}

/// The linearize choice for `op` from `state`: the successor state and the
/// response the operation takes in the witness — the observed one, or for a
/// pending operation the specification's (interned on sight; idempotent, so
/// the arena stays small, and the one point at which a search may have to
/// give up its read guard).
fn linearize<S: SequentialSpec>(
    spec: &S,
    arena: &mut ArenaRead<'_>,
    state: &S::State,
    op: &OpRecord,
) -> Option<(S::State, ResponseId)> {
    let interner = arena.interner();
    let invocation = interner.resolve_invocation(op.invocation);
    match op.response {
        Some(observed) => spec
            .step_if_legal(state, &invocation, &interner.resolve_response(observed))
            .map(|next| (next, observed)),
        None => {
            let (next, response) = spec.apply(state, &invocation)?;
            Some((next, arena.response(&response)))
        }
    }
}

/// The child a frame descended into: still applied to `counts` and `order`
/// when the frame resumes, and undone from this record.
#[derive(Clone, Copy)]
enum Child {
    /// "Linearize the process's candidate", which is complete.
    Linearized,
    /// "Linearize the process's candidate", which is pending: the same
    /// process's drop choice is owed next.
    LinearizedPending,
    /// "Drop the process's pending candidate".
    Dropped,
}

/// One level of the search: a claimed configuration whose children are
/// being enumerated.  `counts` and `order` are shared across levels and
/// undone on the way back up, exactly as in the recursive formulation.
///
/// Frames stay in place at the top of the stack and are read and written
/// one scalar field at a time.  Formulations that moved whole frames in and
/// out of the `Vec`, or re-dispatched on the child record once per process
/// slot, measured 48–50 ns per node on search-bound register streams where
/// this one reads 42.5 and the recursion it replaces 40.5.
struct Frame<State> {
    state: State,
    /// The process the preserved frontier linearized at this depth while
    /// the path so far has followed the frontier; `NO_HINT` otherwise.
    hint_proc: usize,
    /// Next slot of the process order to try: slot 0 is `hint_proc` (skipped
    /// from the start when there is none), slot `p + 1` is process `p`
    /// unless the hint already covered it.
    cursor: usize,
    /// Meaningless until the frame first descends.
    child: Child,
    /// The process `child` is about.
    child_proc: usize,
}

const NO_HINT: usize = usize::MAX;

/// Searches for a linearization of `history` from the specification's
/// initial state, on a scratch emptied by [`with_scratch`], and adds the
/// nodes it visits to `explored`.  The scratch is left unspecified.
pub(crate) fn wing_gong<S: SequentialSpec>(
    ctx: &SearchContext<'_, S>,
    history: &InternedHistory,
    arena: &mut ArenaRead<'_>,
    scratch: &mut Scratch,
    explored: &mut usize,
) -> SearchOutcome {
    let SearchContext { spec, config, hint } = *ctx;
    let Scratch {
        dead,
        counts,
        order,
        complete,
    } = scratch;
    let counts = counts.as_mut_slice();
    let n = history.process_count();
    // Every descent enters a configuration; the one that places a process's
    // last operation marks it complete, and the root those with none.
    let ops_of = |p: usize| history.ops_of(ProcId(p)).len();
    complete.extend((0..n).map(|p| ops_of(p) == 0));
    // The top of `stack` is the node whose children are being enumerated,
    // below it its ancestors, each with the child it descended into.  It
    // grows with the depth reached, not with the history: most runs end a
    // few levels in.
    let mut stack: Vec<Frame<S::State>> = Vec::new();
    let (mut state, mut on_hint) = (spec.initial(), true);
    'enter: loop {
        // Enter the node `(state, on_hint)`.
        if history.is_done(counts) {
            return SearchOutcome::Found(order.clone());
        }
        if *explored >= config.max_states {
            return SearchOutcome::Budget;
        }
        *explored += 1;
        // A claimed node gets a frame and its children are enumerated; a
        // known dead end makes its parent resume, as after any refuted
        // child.
        let mut resumed = !dead.insert((pack_counts(counts), hash_state(&state)));
        if !resumed {
            // Preserved-frontier move ordering: at this depth, try the
            // process the previous witness linearized here first, so the
            // search descends along the old linearization and only branches
            // where the extension forces it to.
            let hint_proc = match hint.get(order.len()) {
                Some(id) if on_hint => history.record(*id).proc.0,
                _ => NO_HINT,
            };
            stack.push(Frame {
                state,
                hint_proc,
                cursor: usize::from(hint_proc == NO_HINT),
                // Placeholders: not read before the first descent sets them.
                child: Child::Dropped,
                child_proc: 0,
            });
        }
        loop {
            let Some(frame) = stack.last_mut() else {
                let blocked = complete.iter().map(|done| !done).collect();
                return SearchOutcome::NotFound { blocked };
            };
            if resumed {
                // Undo the refuted child; after a linearize child the same
                // process's drop choice is still owed.
                let p = frame.child_proc;
                match frame.child {
                    Child::Linearized => {
                        order.pop();
                        counts[p] -= 1;
                    }
                    Child::LinearizedPending => {
                        // The drop replaces the linearization: the count
                        // stays as it is.
                        order.pop();
                        frame.child = Child::Dropped;
                        state = frame.state.clone();
                        on_hint = false;
                        continue 'enter;
                    }
                    Child::Dropped => counts[p] -= 1,
                }
            }
            resumed = true;
            // The remaining slots of the process order: each process's
            // candidate, if real time allows it, and its choices.
            while frame.cursor <= n {
                let slot = frame.cursor;
                frame.cursor += 1;
                let p = if slot == 0 { frame.hint_proc } else { slot - 1 };
                if slot != 0 && p == frame.hint_proc {
                    continue;
                }
                let Some(op) = history.next_of(ProcId(p), counts) else {
                    continue;
                };
                if config.respect_real_time && !history.respects_real_time(op, counts) {
                    continue;
                }
                frame.child_proc = p;
                if let Some((next, assigned)) = linearize(spec, arena, &frame.state, &op) {
                    counts[p] += 1;
                    complete[p] |= counts[p] as usize == ops_of(p);
                    order.push((op.id, assigned));
                    frame.child = if op.is_pending() {
                        Child::LinearizedPending
                    } else {
                        Child::Linearized
                    };
                    on_hint = p == frame.hint_proc;
                    state = next;
                    continue 'enter;
                }
                if op.is_pending() {
                    // A pending operation is its process's last.
                    counts[p] += 1;
                    complete[p] = true;
                    frame.child = Child::Dropped;
                    state = frame.state.clone();
                    on_hint = false;
                    continue 'enter;
                }
            }
            stack.pop();
        }
    }
}
