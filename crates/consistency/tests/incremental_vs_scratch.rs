//! Property tests: the incremental engine is extensionally identical to the
//! from-scratch Wing–Gong checker.
//!
//! For every seeded random well-formed history, the history is fed to an
//! [`IncrementalChecker`] symbol by symbol, and after *every* symbol the
//! verdict is compared against [`check_history`] run from scratch on the
//! same prefix — both criteria, witnesses validated.  Seeds are fixed, so a
//! failure reproduces exactly from the printed case context.
//!
//! The same sweeps pin two things a verdict comparison cannot see.  The
//! search frontier only steers the fallback's move ordering, so a wrong one
//! keeps every verdict and silently changes how much the search explores:
//! each sweep asserts the exact totals of the engine's path counters.  And
//! at every 7th prefix the checker is checkpointed and restored: the copy
//! must write the same bytes back and answer the rest of the word alike.

use drv_consistency::{
    check_history, validate_witness, CheckOutcome, CheckerConfig, CheckerStats,
    ConcurrentHistory, ConsistencyResult, IncrementalChecker,
};
use drv_lang::{Invocation, ProcId, Response, Symbol, Word};
use drv_spec::{Counter, Queue, Register, SequentialSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Object {
    Register,
    Counter,
    Queue,
}

/// Generates a random well-formed word: random interleaving, random
/// (plausible but not always legal) responses, possibly trailing pending
/// operations — the full input space of the checkers.
fn random_word(rng: &mut StdRng, object: Object, n: usize, max_ops: usize) -> Word {
    let mut word = Word::new();
    let mut pending: Vec<Option<Invocation>> = vec![None; n];
    let mut invoked = 0usize;
    let mut steps = 0usize;
    while steps < max_ops * 4 {
        steps += 1;
        let p = rng.gen_range(0..n);
        match pending[p].clone() {
            Some(invocation) => {
                // Mostly respond; sometimes leave pending a while longer.
                if rng.gen_bool(0.8) {
                    let response = random_response(rng, object, &invocation);
                    word.respond(ProcId(p), response);
                    pending[p] = None;
                }
            }
            None => {
                if invoked >= max_ops {
                    break;
                }
                let invocation = random_invocation(rng, object);
                word.invoke(ProcId(p), invocation.clone());
                pending[p] = Some(invocation);
                invoked += 1;
            }
        }
    }
    word
}

fn random_invocation(rng: &mut StdRng, object: Object) -> Invocation {
    match object {
        Object::Register => {
            if rng.gen_bool(0.5) {
                Invocation::Write(rng.gen_range(1..4u64))
            } else {
                Invocation::Read
            }
        }
        Object::Counter => {
            if rng.gen_bool(0.5) {
                Invocation::Inc
            } else {
                Invocation::Read
            }
        }
        Object::Queue => {
            if rng.gen_bool(0.5) {
                Invocation::Enqueue(rng.gen_range(1..4u64))
            } else {
                Invocation::Dequeue
            }
        }
    }
}

/// A response that is *plausible* for the invocation but drawn blindly, so
/// histories land on both sides of the consistency line.
fn random_response(rng: &mut StdRng, object: Object, invocation: &Invocation) -> Response {
    match invocation {
        Invocation::Write(_) | Invocation::Inc | Invocation::Enqueue(_) => Response::Ack,
        Invocation::Read => Response::Value(rng.gen_range(0..4u64)),
        Invocation::Dequeue => {
            if rng.gen_bool(0.25) {
                Response::MaybeValue(None)
            } else {
                Response::MaybeValue(Some(rng.gen_range(1..4u64)))
            }
        }
        _ => {
            let _ = object;
            Response::Ack
        }
    }
}

fn scratch_verdict<S: SequentialSpec>(
    spec: &S,
    symbols: &[Symbol],
    n: usize,
    config: &CheckerConfig,
) -> ConsistencyResult {
    let word = Word::from_symbols(symbols.to_vec());
    check_history(spec, &ConcurrentHistory::from_word(&word, n), config)
}

/// The path counters a sweep adds up (the other [`CheckerStats`] fields
/// follow from the number of checks).
#[derive(Debug, Default, PartialEq, Eq)]
struct PathTotals {
    splices: u64,
    repairs: u64,
    dfs_runs: u64,
    dfs_nodes: u64,
    fast_path: u64,
}

impl PathTotals {
    fn add(&mut self, stats: CheckerStats) {
        self.splices += stats.splices;
        self.repairs += stats.repairs;
        self.dfs_runs += stats.dfs_runs;
        self.dfs_nodes += stats.dfs_nodes;
        self.fast_path += stats.fast_path;
    }
}

/// A checkpoint-restored copy of the checker under test, taken after
/// `taken_after` symbols and fed the rest of the word on its own.
struct Fork {
    taken_after: usize,
    outcomes: Vec<CheckOutcome>,
    stats: CheckerStats,
}

fn outcome_of(result: &ConsistencyResult) -> CheckOutcome {
    match result {
        ConsistencyResult::Consistent(_) => CheckOutcome::Consistent,
        ConsistencyResult::Inconsistent => CheckOutcome::Inconsistent,
        ConsistencyResult::Unknown => CheckOutcome::Unknown,
    }
}

fn compare_on<S: SequentialSpec + Clone>(
    spec: S,
    object: Object,
    config: CheckerConfig,
    label: &str,
    cases: usize,
    seed: u64,
) -> PathTotals {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut totals = PathTotals::default();
    let mut prefixes = 0usize;
    for case in 0..cases {
        let n = rng.gen_range(2..4usize);
        let max_ops = rng.gen_range(1..8usize);
        let word = random_word(&mut rng, object, n, max_ops);
        let mut incremental = IncrementalChecker::new(spec.clone(), config, n);
        let mut fed: Vec<Symbol> = Vec::new();
        let mut outcomes: Vec<CheckOutcome> = Vec::new();
        let mut forks: Vec<Fork> = Vec::new();
        for (position, symbol) in word.symbols().iter().enumerate() {
            incremental.push_symbol(symbol);
            fed.push(symbol.clone());
            let got = incremental.check();
            outcomes.push(outcome_of(&got));
            let want = scratch_verdict(&spec, &fed, n, &config);
            let ctx = format!(
                "{label} case {case} (n={n}), after symbol {position} of {:?}",
                Word::from_symbols(fed.clone()).to_string()
            );
            assert_eq!(
                got.is_consistent(),
                want.is_consistent(),
                "{ctx}: incremental {got:?} vs scratch {want:?}"
            );
            assert_eq!(
                matches!(got, ConsistencyResult::Unknown),
                matches!(want, ConsistencyResult::Unknown),
                "{ctx}: incremental {got:?} vs scratch {want:?}"
            );
            if let Some(witness) = got.witness() {
                let history =
                    ConcurrentHistory::from_word(&Word::from_symbols(fed.clone()), n);
                assert!(
                    validate_witness(&spec, &history, witness, config.respect_real_time),
                    "{ctx}: incremental witness does not validate"
                );
            }
            prefixes += 1;
            if prefixes.is_multiple_of(7) {
                let bytes = incremental.checkpoint_bytes();
                let mut restored = IncrementalChecker::new(spec.clone(), config, n);
                restored.restore_bytes(&bytes).expect("a checkpoint we wrote restores");
                assert!(
                    restored.checkpoint_bytes() == bytes,
                    "{ctx}: the restored checker writes a different checkpoint"
                );
                let mut fork_outcomes = Vec::new();
                restored.feed_batch(&word.symbols()[position + 1..], &mut fork_outcomes);
                forks.push(Fork {
                    taken_after: position + 1,
                    outcomes: fork_outcomes,
                    stats: restored.stats(),
                });
            }
        }
        for fork in &forks {
            assert_eq!(
                fork.outcomes[..],
                outcomes[fork.taken_after..],
                "{label} case {case}: restored after {} symbols of {word}, outcomes diverge",
                fork.taken_after
            );
            assert_eq!(
                fork.stats,
                incremental.stats(),
                "{label} case {case}: restored after {} symbols of {word}, stats diverge",
                fork.taken_after
            );
        }
        totals.add(incremental.stats());
    }
    totals
}

/// ≥ 1000 seeded histories for linearizability: 400 register + 300 counter +
/// 300 queue, each checked at every prefix.
#[test]
fn linearizability_matches_scratch_on_random_histories() {
    let config = CheckerConfig::linearizability();
    assert_eq!(
        compare_on(Register::new(), Object::Register, config, "lin/register", 400, 101),
        PathTotals { splices: 547, repairs: 0, dfs_runs: 633, dfs_nodes: 1060, fast_path: 2285 }
    );
    assert_eq!(
        compare_on(Counter::new(), Object::Counter, config, "lin/counter", 300, 102),
        PathTotals { splices: 451, repairs: 0, dfs_runs: 464, dfs_nodes: 860, fast_path: 1672 }
    );
    assert_eq!(
        compare_on(Queue::new(), Object::Queue, config, "lin/queue", 300, 103),
        PathTotals { splices: 380, repairs: 0, dfs_runs: 489, dfs_nodes: 950, fast_path: 1761 }
    );
}

/// ≥ 1000 seeded histories for sequential consistency (no latch, witness
/// splices constrained by program order only).
#[test]
fn sequential_consistency_matches_scratch_on_random_histories() {
    let config = CheckerConfig::sequential_consistency();
    assert_eq!(
        compare_on(Register::new(), Object::Register, config, "sc/register", 400, 201),
        PathTotals { splices: 615, repairs: 0, dfs_runs: 1462, dfs_nodes: 6430, fast_path: 1371 }
    );
    assert_eq!(
        compare_on(Counter::new(), Object::Counter, config, "sc/counter", 300, 202),
        PathTotals { splices: 492, repairs: 0, dfs_runs: 1140, dfs_nodes: 4701, fast_path: 1077 }
    );
    assert_eq!(
        compare_on(Queue::new(), Object::Queue, config, "sc/queue", 300, 203),
        PathTotals { splices: 466, repairs: 0, dfs_runs: 1216, dfs_nodes: 6174, fast_path: 1052 }
    );
}

/// The no-drop configuration (pending operations must be completed) follows
/// the same engine paths; keep it honest too.
#[test]
fn no_drop_configuration_matches_scratch() {
    let mut config = CheckerConfig::linearizability();
    config.allow_drop_pending = false;
    assert_eq!(
        compare_on(Register::new(), Object::Register, config, "nodrop/register", 150, 301),
        PathTotals { splices: 185, repairs: 0, dfs_runs: 486, dfs_nodes: 1211, fast_path: 566 }
    );
}

/// Unknown behaviour under a starved budget: the incremental engine must
/// never contradict a definite from-scratch verdict — when both engines are
/// definite they agree, and a definite incremental answer where scratch says
/// Unknown (or vice versa) is a permitted refinement, never a flip.
#[test]
fn starved_budget_never_contradicts() {
    let config = CheckerConfig::linearizability().with_max_states(8);
    let mut rng = StdRng::seed_from_u64(777);
    for case in 0..200 {
        let n = rng.gen_range(2..4usize);
        let max_ops = rng.gen_range(1..8usize);
        let word = random_word(&mut rng, Object::Register, n, max_ops);
        let mut incremental = IncrementalChecker::new(Register::new(), config, n);
        let got = incremental.check_word(&word);
        let want = scratch_verdict(&Register::new(), word.symbols(), n, &config);
        if !matches!(got, ConsistencyResult::Unknown)
            && !matches!(want, ConsistencyResult::Unknown)
        {
            assert_eq!(
                got.is_consistent(),
                want.is_consistent(),
                "case {case}: {got:?} vs {want:?} on {word}"
            );
        }
        // A definite incremental verdict must also agree with an unstarved
        // from-scratch run (ground truth).
        if !matches!(got, ConsistencyResult::Unknown) {
            let truth = scratch_verdict(
                &Register::new(),
                word.symbols(),
                n,
                &CheckerConfig::linearizability(),
            );
            assert_eq!(got.is_consistent(), truth.is_consistent(), "case {case}");
        }
    }
}
