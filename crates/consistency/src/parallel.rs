//! The parallel Wing–Gong fallback: the incremental engine's DFS, fanned out
//! across the root's first-branch processes on scoped threads, with a shared
//! epoch-tagged memo behind sharded locks.
//!
//! The sequential fallback of [`crate::IncrementalChecker`] explores the
//! linearization tree one subtree at a time; on a *hard* re-check (deep
//! witness invalidation, adversarial interleavings) that single search can
//! stall a whole monitoring shard.  The tree's root has at most `n + p`
//! children — linearize the next operation of one of the `n` processes, or
//! drop one of the `p` pending ones — and those subtrees are independent
//! except for the dead-configuration memo.  This module explores them
//! concurrently:
//!
//! * **Sharded memo.**  The same `(packed progress vector, FNV-128 state
//!   fingerprint) → epoch` table as the sequential engine, split over `2^k`
//!   stripe locks ([`SharedMemo`]).  A configuration is *claimed* on first
//!   visit; any branch reaching a claimed configuration prunes it.  Claims
//!   double as dead-marks: the claiming branch fully explores the subtree,
//!   so a pruned duplicate can only lose redundant work, never an answer —
//!   except when the claimer ran out of budget, which the verdict
//!   combination below accounts for.
//! * **Verdict combination.**  `Found` anywhere ⇒ consistent (the shared
//!   `stop` flag interrupts the remaining branches).  Otherwise `Budget`
//!   anywhere ⇒ unknown: some claimed subtree may be unproven, so the
//!   `NotFound`s of other branches are not trusted as a global refutation.
//!   Otherwise every subtree was exhaustively refuted ⇒ inconsistent.  This
//!   makes every *definite* verdict bit-identical to the sequential
//!   fallback's; only `Unknown` (budget exhaustion, per-branch here instead
//!   of global) can resolve differently, the same caveat the sequential
//!   engine already carries relative to the from-scratch checker.
//! * **One history, one arena.**  The history holds ids only and the search
//!   never changes it, so every branch reads the owning checker's
//!   [`InternedHistory`] in place.  The specification responses the search
//!   interns for completed-pending operations go into the checker's shared
//!   arena, so a found witness comes back as the ids it already is.  Each
//!   branch takes its own read guard on that arena, and the calling thread
//!   gives its own up for the duration: a branch that has to intern would
//!   otherwise wait on the guard of the thread that is joining it.

use crate::checker::CheckerConfig;
use crate::history::{ArenaRead, InternedHistory};
use crate::incremental::{hash_state, pack_counts};
use crate::search::{linearize, wing_gong, with_scratch, SearchContext, SearchOutcome};
use drv_lang::{OpId, ProcId, ResponseId, SharedInterner};
use drv_spec::SequentialSpec;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// The concurrent dead-configuration memo: the incremental engine's
/// `(u128, u128) → epoch` fingerprint table, sharded over stripe locks so
/// parallel branches claim configurations without a global bottleneck.
///
/// Entries are epoch-tagged exactly like the sequential memo: a claim is
/// only honoured when its epoch matches the current search's, so growing the
/// history invalidates the table by bumping the epoch instead of clearing.
#[derive(Debug, Default)]
pub struct SharedMemo {
    shards: Vec<Mutex<HashMap<(u128, u128), u32>>>,
}

impl SharedMemo {
    /// Creates a memo striped over at least `shards` locks (rounded up to a
    /// power of two so the stripe index is a mask).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        SharedMemo {
            shards: (0..count).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn stripe(&self, key: (u128, u128)) -> &Mutex<HashMap<(u128, u128), u32>> {
        // Fold both fingerprints to a stripe index; the mask is valid because
        // the stripe count is a power of two.
        let folded = (key.0 ^ key.0 >> 64 ^ key.1 ^ key.1 >> 64) as usize;
        &self.shards[folded & (self.shards.len() - 1)]
    }

    /// Claims a configuration for `epoch`; `true` when this caller is the
    /// first to visit it this epoch.
    pub fn claim(&self, key: (u128, u128), epoch: u32) -> bool {
        self.stripe(key).lock().insert(key, epoch) != Some(epoch)
    }

    /// Number of entries across all stripes (stale epochs included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// `true` when no configuration has ever been claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (used on epoch wrap-around, where stale tags could
    /// otherwise be trusted).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// One root choice of the linearization tree.
#[derive(Debug, Clone, Copy)]
struct RootBranch {
    proc: usize,
    /// `false`: linearize the process's candidate; `true`: drop it (pending
    /// operations only).
    drop: bool,
    /// Whether this branch starts on the preserved frontier.
    on_hint: bool,
}

/// A branch's result slot: its outcome plus, for `Found`, the witness order.
type BranchResult = (SearchOutcome, Vec<(OpId, ResponseId)>);

/// Runs the fallback search with its root fanned out over at most `threads`
/// scoped worker threads.  Returns the combined outcome (never
/// [`SearchOutcome::Interrupted`]), for `Found` the linearization, and the
/// total number of nodes explored across all branches.  The caller must not
/// hold a read guard on `arena`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel_dfs<S: SequentialSpec>(
    spec: &S,
    history: &InternedHistory,
    arena: &SharedInterner,
    config: &CheckerConfig,
    memo: &SharedMemo,
    epoch: u32,
    hint: &[OpId],
    threads: usize,
) -> (SearchOutcome, Vec<(OpId, ResponseId)>, u64) {
    let n = history.process_count();
    let root_counts = vec![0u32; n];
    if history.is_done(&root_counts, config.allow_drop_pending) {
        return (SearchOutcome::Found, Vec::new(), 0);
    }
    // The root configuration itself: one node, claimed exactly as the
    // sequential search would.
    memo.claim((pack_counts(&root_counts), hash_state(&spec.initial())), epoch);

    // Enumerate the root branches in the sequential search's order — the
    // frontier hint's process first — so the first `Found` in branch order
    // is biased toward the witness the sequential fallback would rebuild.
    let hint_proc = hint.first().map(|id| history.record(*id).proc.0);
    let process_order = hint_proc.into_iter().chain((0..n).filter(|p| Some(*p) != hint_proc));
    let mut branches: Vec<RootBranch> = Vec::new();
    for p in process_order {
        let Some(op) = history.next_of(ProcId(p), &root_counts) else {
            continue;
        };
        if config.respect_real_time && !history.respects_real_time(op, &root_counts) {
            continue;
        }
        branches.push(RootBranch {
            proc: p,
            drop: false,
            on_hint: Some(p) == hint_proc,
        });
        if op.is_pending() && config.allow_drop_pending {
            branches.push(RootBranch {
                proc: p,
                drop: true,
                on_hint: false,
            });
        }
    }
    if branches.is_empty() {
        // Not done, yet no process can move: a real-time-blocked dead end.
        return (SearchOutcome::NotFound, Vec::new(), 1);
    }

    let stop = AtomicBool::new(false);
    let workers = threads.min(branches.len()).max(1);
    // results[branch index] — each slot written by exactly one worker; the
    // workers hand their slots back through the scoped join handles.
    let (results, total_nodes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let branches = &branches;
                let stop = &stop;
                scope.spawn(move || {
                    let mut slots: Vec<(usize, BranchResult)> = Vec::new();
                    let mut explored_total = 0u64;
                    // Deterministic round-robin assignment of branches.
                    for (index, branch) in branches.iter().enumerate() {
                        if index % workers != worker {
                            continue;
                        }
                        if stop.load(Ordering::Relaxed) {
                            slots.push((index, (SearchOutcome::Interrupted, Vec::new())));
                            continue;
                        }
                        let mut explored = 0usize;
                        // This worker's own scratch: dead configurations go
                        // through the shared memo instead of its table.
                        let result = with_scratch(n, |scratch| {
                            let outcome = run_branch(
                                spec,
                                history,
                                &mut ArenaRead::new(arena),
                                config,
                                memo,
                                epoch,
                                stop,
                                hint,
                                *branch,
                                &mut scratch.counts,
                                &mut scratch.order,
                                &mut explored,
                            );
                            let witness = if matches!(outcome, SearchOutcome::Found) {
                                stop.store(true, Ordering::Relaxed);
                                scratch.order.clone()
                            } else {
                                Vec::new()
                            };
                            (outcome, witness)
                        });
                        explored_total += explored as u64;
                        slots.push((index, result));
                    }
                    (slots, explored_total)
                })
            })
            .collect();
        let mut results: Vec<Option<BranchResult>> = branches.iter().map(|_| None).collect();
        let mut total_nodes = 1u64;
        for handle in handles {
            let (slots, explored) = handle.join().expect("parallel DFS branch worker panicked");
            for (index, result) in slots {
                results[index] = Some(result);
            }
            total_nodes += explored;
        }
        (results, total_nodes)
    });

    let mut saw_budget = false;
    let mut found: Option<Vec<(OpId, ResponseId)>> = None;
    for slot in results {
        match slot {
            Some((SearchOutcome::Found, order)) => {
                // First Found in deterministic branch order wins.
                found = Some(order);
                break;
            }
            Some((SearchOutcome::Budget, _)) => saw_budget = true,
            Some((SearchOutcome::Interrupted, _)) | None => {
                // Interrupted (or never-run) branches carry no evidence; they
                // only occur when some branch found a witness, handled above
                // or on a later slot.
            }
            Some((SearchOutcome::NotFound, _)) => {}
        }
    }
    match found {
        Some(order) => (SearchOutcome::Found, order, total_nodes),
        None if saw_budget => (SearchOutcome::Budget, Vec::new(), total_nodes),
        None => (SearchOutcome::NotFound, Vec::new(), total_nodes),
    }
}

/// Applies one root choice, then descends via [`wing_gong`] with the memo
/// claim going through [`SharedMemo`] and the stop flag polled per node.
#[allow(clippy::too_many_arguments)]
fn run_branch<S: SequentialSpec>(
    spec: &S,
    history: &InternedHistory,
    arena: &mut ArenaRead<'_>,
    config: &CheckerConfig,
    memo: &SharedMemo,
    epoch: u32,
    stop: &AtomicBool,
    hint: &[OpId],
    branch: RootBranch,
    counts: &mut [u32],
    order: &mut Vec<(OpId, ResponseId)>,
    explored: &mut usize,
) -> SearchOutcome {
    let state = spec.initial();
    let op = history
        .next_of(ProcId(branch.proc), counts)
        .expect("root branch has a candidate");
    let (state, on_hint) = if branch.drop {
        (state, false)
    } else {
        let Some((next_state, assigned)) = linearize(spec, arena, &state, &op) else {
            return SearchOutcome::NotFound;
        };
        order.push((op.id, assigned));
        (next_state, branch.on_hint)
    };
    counts[branch.proc] += 1;
    wing_gong(
        &SearchContext { spec, config, hint },
        history,
        arena,
        |key| memo.claim(key, epoch),
        || stop.load(Ordering::Relaxed),
        counts,
        state,
        on_hint,
        order,
        explored,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_memo_claims_once_per_epoch() {
        let memo = SharedMemo::new(4);
        assert!(memo.is_empty());
        let key = (42u128, 7u128);
        assert!(memo.claim(key, 1));
        assert!(!memo.claim(key, 1), "second claim of the same epoch");
        assert!(memo.claim(key, 2), "a new epoch invalidates the claim");
        assert!(memo.claim((42, 8), 2), "distinct keys are independent");
        assert_eq!(memo.len(), 2);
        memo.clear();
        assert!(memo.is_empty());
        assert!(memo.claim(key, 2));
    }

    #[test]
    fn shared_memo_stripe_count_rounds_up() {
        assert_eq!(SharedMemo::new(0).shards.len(), 1);
        assert_eq!(SharedMemo::new(3).shards.len(), 4);
        assert_eq!(SharedMemo::new(16).shards.len(), 16);
    }

    #[test]
    fn shared_memo_is_consistent_under_contention() {
        let memo = SharedMemo::new(8);
        let winners: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let memo = &memo;
                    scope.spawn(move || {
                        (0..256)
                            .filter(|i| memo.claim((u128::from(*i as u64), 0), 9))
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // Each of the 256 keys is claimed by exactly one thread.
        assert_eq!(winners, 256);
    }
}
