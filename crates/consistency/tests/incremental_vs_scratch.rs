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
//! at every 7th prefix the checker takes a checkpoint delta: a fresh copy
//! restored from all the word's deltas so far, in order, must write the
//! live checker's full checkpoint and answer the rest of the word alike,
//! and a delta restored without the ones before it must be refused.
//!
//! Random responses almost never recover from a violation, so a second kind
//! of word does it on purpose: a read observes a value nobody has produced,
//! and a later mutator may produce it.  Under sequential consistency the NO
//! then stands across the symbols that cannot create a witness and has to
//! give way at the one that can.
//!
//! Those words are also full of symbols that belong to no operation (orphan
//! responses, invocations on top of a pending one), which makes them the
//! input for one more property: the checker keeps no copy of the word it has
//! read besides its history, and must still know that word symbol for symbol.
//!
//! A response no invocation of the history produces — a read of a value
//! nobody writes, a dequeue or pop of an element nobody enqueues or pushes —
//! is a NO the engine answers without a search (R4 in `incremental.rs`).  A
//! third kind of word is made of such thin-air responses, some of whose
//! producers are invoked later, pending producers that other processes
//! already observe among them.
//!
//! Every specification in `drv-spec` has one legal response per step, but
//! the checker's contract allows a `step_if_legal` that accepts several.  The
//! random sweeps run once more on such a specification, a counter whose
//! increment may also answer the value it replaced.

use drv_consistency::{
    check_history, validate_witness, CheckOutcome, CheckerConfig, CheckerStats, CheckpointError,
    ConcurrentHistory, ConsistencyResult, IncrementalChecker,
};
use drv_lang::wire::{put_invocation, put_response, put_u32};
use drv_lang::{Action, Invocation, ProcId, Response, Symbol, Word};
use drv_spec::{Counter, Queue, Register, SequentialSpec, SpecObject, Stack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Object {
    Register,
    Counter,
    Queue,
    Stack,
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
        Object::Stack => {
            if rng.gen_bool(0.5) {
                Invocation::Push(rng.gen_range(1..4u64))
            } else {
                Invocation::Pop
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
        Invocation::Dequeue | Invocation::Pop => {
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
    dfs_runs: u64,
    dfs_nodes: u64,
    fast_path: u64,
}

impl PathTotals {
    fn add(&mut self, stats: CheckerStats) {
        self.splices += stats.splices;
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

/// What a sweep saw besides agreement with the from-scratch checker.
struct Sweep {
    totals: PathTotals,
    /// Cases whose verdict went from Inconsistent back to Consistent.
    recoveries: usize,
    /// Checks answered Inconsistent without a search.
    unsearched_no: u64,
    /// Prefixes a checkpoint delta was taken at, and how many of them had
    /// no witness (the delta carries the stored frontier instead).
    cuts: usize,
    cuts_without_witness: usize,
    /// Checks that answered NO after a check that had not, without a
    /// search: only a thin-air response (R4) does that.
    thin_air_refutations: usize,
    /// Cases whose verdict went back to Consistent after such a NO.
    thin_air_rescues: usize,
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
    let words = (0..cases)
        .map(|_| {
            let n = rng.gen_range(2..4usize);
            let max_ops = rng.gen_range(1..8usize);
            (n, random_word(&mut rng, object, n, max_ops))
        })
        .collect();
    sweep(spec, config, label, words).totals
}

/// Feeds every `(process count, word)` to a fresh incremental checker symbol
/// by symbol, comparing with [`check_history`] at every prefix; at every 7th
/// it takes a checkpoint delta and forks a copy restored from all the
/// word's deltas so far.
fn sweep<S: SequentialSpec + Clone>(
    spec: S,
    config: CheckerConfig,
    label: &str,
    words: Vec<(usize, Word)>,
) -> Sweep {
    let mut totals = PathTotals::default();
    let (mut recoveries, mut unsearched_no) = (0usize, 0u64);
    let (mut cuts, mut cuts_without_witness) = (0usize, 0usize);
    let (mut thin_air_refutations, mut thin_air_rescues) = (0usize, 0usize);
    let mut prefixes = 0usize;
    for (case, (n, word)) in words.into_iter().enumerate() {
        let mut incremental = IncrementalChecker::new(spec.clone(), config, n);
        let mut fed: Vec<Symbol> = Vec::new();
        let mut outcomes: Vec<CheckOutcome> = Vec::new();
        let mut forks: Vec<Fork> = Vec::new();
        let mut chain: Vec<Vec<u8>> = Vec::new();
        let mut previous_cut = 0usize;
        let mut thin_air_at = None;
        for (position, symbol) in word.symbols().iter().enumerate() {
            incremental.push_symbol(symbol);
            fed.push(symbol.clone());
            let searches = incremental.stats().dfs_runs;
            let got = incremental.check();
            let outcome = outcome_of(&got);
            if outcome == CheckOutcome::Inconsistent
                && outcomes.last() != Some(&CheckOutcome::Inconsistent)
                && incremental.stats().dfs_runs == searches
            {
                thin_air_refutations += 1;
                thin_air_at.get_or_insert(position);
            }
            outcomes.push(outcome);
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
                chain.push(incremental.checkpoint_delta());
                let mut restored = IncrementalChecker::new(spec.clone(), config, n);
                for bytes in &chain {
                    restored.restore_bytes(bytes).expect("a checkpoint we wrote restores");
                }
                assert!(
                    restored.checkpoint_bytes() == incremental.checkpoint_bytes(),
                    "{ctx}: the checker restored from {} deltas writes a different checkpoint",
                    chain.len()
                );
                if previous_cut > 0 {
                    // A delta extends only the state it was taken after.
                    let mut fresh = IncrementalChecker::new(spec.clone(), config, n);
                    assert_eq!(
                        fresh.restore_bytes(&chain[chain.len() - 1]),
                        Err(CheckpointError::BaseMismatch {
                            base: previous_cut,
                            consumed: 0
                        }),
                        "{ctx}"
                    );
                }
                previous_cut = position + 1;
                cuts += 1;
                cuts_without_witness += usize::from(got.witness().is_none());
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
        let stats = incremental.stats();
        // Every check either searched or did not: with `splices`
        // (maintenance, decided before any check) this sum is what
        // a change to *when* the engine searches cannot move.
        assert_eq!(stats.dfs_runs + stats.fast_path, stats.checks, "{label} case {case}");
        totals.add(stats);
        unsearched_no += stats.latched;
        let first_no = outcomes.iter().position(|o| *o == CheckOutcome::Inconsistent);
        if first_no.is_some_and(|at| outcomes[at..].contains(&CheckOutcome::Consistent)) {
            recoveries += 1;
        }
        if thin_air_at.is_some_and(|at| outcomes[at..].contains(&CheckOutcome::Consistent)) {
            thin_air_rescues += 1;
        }
    }
    Sweep {
        totals,
        recoveries,
        unsearched_no,
        cuts,
        cuts_without_witness,
        thin_air_refutations,
        thin_air_rescues,
    }
}

/// [`sweep`] on `object`'s specification.
fn sweep_object(
    object: Object,
    config: CheckerConfig,
    label: &str,
    words: Vec<(usize, Word)>,
) -> Sweep {
    match object {
        Object::Register => sweep(Register::new(), config, label, words),
        Object::Counter => sweep(Counter::new(), config, label, words),
        Object::Queue => sweep(Queue::new(), config, label, words),
        Object::Stack => sweep(Stack::new(), config, label, words),
    }
}

/// A value no random invocation writes or enqueues.
const WILD: u64 = 7;

/// The pieces of a rescue word for `object`: the observing invocation, the
/// response that is wild when it is given, the mutator that legalises it, and
/// the responses later observers draw from.
fn rescue_alphabet(object: Object) -> (Invocation, Response, Invocation, [Response; 3]) {
    match object {
        Object::Register => (
            Invocation::Read,
            Response::Value(WILD),
            Invocation::Write(WILD),
            [Response::Value(0), Response::Value(1), Response::Value(WILD)],
        ),
        Object::Counter => (
            Invocation::Read,
            Response::Value(1),
            Invocation::Inc,
            [Response::Value(0), Response::Value(1), Response::Value(2)],
        ),
        Object::Queue => (
            Invocation::Dequeue,
            Response::MaybeValue(Some(WILD)),
            Invocation::Enqueue(WILD),
            [
                Response::MaybeValue(None),
                Response::MaybeValue(Some(WILD)),
                Response::MaybeValue(Some(1)),
            ],
        ),
        Object::Stack => (
            Invocation::Pop,
            Response::MaybeValue(Some(WILD)),
            Invocation::Push(WILD),
            [
                Response::MaybeValue(None),
                Response::MaybeValue(Some(WILD)),
                Response::MaybeValue(Some(1)),
            ],
        ),
    }
}

/// A word in which an observation comes before anything that explains it: a
/// wild response first, then — each separated by observers coming and going,
/// orphan responses and invocations on top of a pending one — the invocation
/// of the mutator that would produce the observed value, by the observing
/// process itself (program order forbids the rescue) or by another one (it
/// is one), and that mutator's response.
fn rescue_word(rng: &mut StdRng, object: Object, n: usize) -> Word {
    let (observer, wild, mutator, observed) = rescue_alphabet(object);
    let mut word = Word::new();
    let mut pending: Vec<Option<Invocation>> = vec![None; n];
    if matches!(object, Object::Register) && rng.gen_bool(0.5) {
        word.op(ProcId(rng.gen_range(0..n)), Invocation::Write(1), Response::Ack);
    }
    let reader = rng.gen_range(0..n);
    word.op(ProcId(reader), observer.clone(), wild);
    let noise = |word: &mut Word, rng: &mut StdRng, pending: &mut Vec<Option<Invocation>>| {
        for _ in 0..rng.gen_range(0..4usize) {
            let p = rng.gen_range(0..n);
            match (pending[p].take(), rng.gen_range(0..4u32)) {
                // Ill-formed either way: the engine skips both.
                (Some(invocation), 0) => {
                    word.invoke(ProcId(p), observer.clone());
                    pending[p] = Some(invocation);
                }
                (None, 0) => word.respond(ProcId(p), Response::Ack),
                (Some(invocation), _) => {
                    let response = if invocation == observer {
                        observed[rng.gen_range(0..observed.len())].clone()
                    } else {
                        Response::Ack
                    };
                    word.respond(ProcId(p), response);
                }
                (None, _) => {
                    word.invoke(ProcId(p), observer.clone());
                    pending[p] = Some(observer.clone());
                }
            }
        }
    };
    for _ in 0..rng.gen_range(1..3usize) {
        noise(&mut word, rng, &mut pending);
        // Invoked on top of a pending observer this is skipped, and the
        // response below answers the observer: another word worth checking.
        let writer = rng.gen_range(0..n);
        word.invoke(ProcId(writer), mutator.clone());
        pending[writer].get_or_insert_with(|| mutator.clone());
        noise(&mut word, rng, &mut pending);
        word.respond(ProcId(writer), Response::Ack);
        pending[writer] = None;
        noise(&mut word, rng, &mut pending);
    }
    word
}

/// ≥ 1000 seeded histories for linearizability: 400 register + 300 counter +
/// 300 queue + 300 stack, each checked at every prefix.
#[test]
fn linearizability_matches_scratch_on_random_histories() {
    let config = CheckerConfig::linearizability();
    assert_eq!(
        compare_on(Register::new(), Object::Register, config, "lin/register", 400, 101),
        PathTotals { splices: 547, dfs_runs: 433, dfs_nodes: 279, fast_path: 2485 }
    );
    assert_eq!(
        compare_on(Counter::new(), Object::Counter, config, "lin/counter", 300, 102),
        PathTotals { splices: 451, dfs_runs: 464, dfs_nodes: 860, fast_path: 1672 }
    );
    assert_eq!(
        compare_on(Queue::new(), Object::Queue, config, "lin/queue", 300, 103),
        PathTotals { splices: 380, dfs_runs: 331, dfs_nodes: 272, fast_path: 1919 }
    );
    assert_eq!(
        compare_on(Stack::new(), Object::Stack, config, "lin/stack", 300, 104),
        PathTotals { splices: 369, dfs_runs: 314, dfs_nodes: 93, fast_path: 1826 }
    );
}

/// ≥ 1000 seeded histories for sequential consistency (no latch, witness
/// splices constrained by program order only).
///
/// How these literals may move when the engine changes *when* it searches
/// and nothing else: `splices` not at all, and `dfs_runs +
/// fast_path` not at all either (the sweep asserts it equals the number of
/// checks, which the seed fixes: 2833, 2217, 2268 and 2210 here).  A NO that
/// stands instead of being searched for again moves a check from `dfs_runs`
/// to `fast_path` and takes its nodes out of `dfs_nodes`; the searches that
/// still run start from the frontier a per-symbol search would have had, so
/// they cost the same nodes.  The linearizability sweeps above move only
/// where a NO needs no search at all: a response no invocation of the
/// history can produce (R4, register, queue and stack words) latches it.
#[test]
fn sequential_consistency_matches_scratch_on_random_histories() {
    let config = CheckerConfig::sequential_consistency();
    assert_eq!(
        compare_on(Register::new(), Object::Register, config, "sc/register", 400, 201),
        PathTotals { splices: 615, dfs_runs: 478, dfs_nodes: 861, fast_path: 2355 }
    );
    assert_eq!(
        compare_on(Counter::new(), Object::Counter, config, "sc/counter", 300, 202),
        PathTotals { splices: 492, dfs_runs: 562, dfs_nodes: 1834, fast_path: 1655 }
    );
    assert_eq!(
        compare_on(Queue::new(), Object::Queue, config, "sc/queue", 300, 203),
        PathTotals { splices: 466, dfs_runs: 405, dfs_nodes: 1440, fast_path: 1863 }
    );
    assert_eq!(
        compare_on(Stack::new(), Object::Stack, config, "sc/stack", 300, 204),
        PathTotals { splices: 434, dfs_runs: 395, dfs_nodes: 1093, fast_path: 1815 }
    );
}

/// A counter whose increment may answer `Ack`, what `apply` gives, or the
/// value it replaced: two legal responses for one step, both leading to the
/// state `apply` gives, as `step_if_legal` must.
#[derive(Debug, Clone)]
struct TwoFaced;

impl SequentialSpec for TwoFaced {
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

    fn step_if_legal(&self, state: &u64, invocation: &Invocation, response: &Response) -> Option<u64> {
        match (invocation, response) {
            (Invocation::Inc, Response::Value(old)) if old == state => Some(state + 1),
            _ => {
                let (next, expected) = self.apply(state, invocation)?;
                (expected == *response).then_some(next)
            }
        }
    }
}

/// A random counter word whose increments answer, half of the time, a value
/// drawn from `0..4` instead of `Ack`; the value an increment replaced when
/// the draw is right.
fn two_faced_word(rng: &mut StdRng, n: usize, max_ops: usize) -> Word {
    let word = random_word(rng, Object::Counter, n, max_ops);
    let mut incrementing = vec![false; n];
    let symbols = word
        .symbols()
        .iter()
        .map(|symbol| match &symbol.action {
            Action::Invoke(invocation) => {
                incrementing[symbol.proc.0] = *invocation == Invocation::Inc;
                symbol.clone()
            }
            Action::Respond(_) if incrementing[symbol.proc.0] && rng.gen_bool(0.5) => {
                Symbol::respond(symbol.proc, Response::Value(rng.gen_range(0..4u64)))
            }
            Action::Respond(_) => symbol.clone(),
        })
        .collect();
    Word::from_symbols(symbols)
}

/// ≥ 300 seeded histories per criterion on [`TwoFaced`], each checked at
/// every prefix and chain-restored at every 7th.  Neither sweep is vacuous:
/// many prefixes end in an increment that answered the value it replaced
/// and are consistent.
#[test]
fn a_step_with_two_legal_responses_matches_scratch_on_random_histories() {
    for (config, label, seed, totals) in [
        (
            CheckerConfig::linearizability(),
            "lin/two-faced",
            105,
            PathTotals { splices: 220, dfs_runs: 523, dfs_nodes: 805, fast_path: 1537 },
        ),
        (
            CheckerConfig::sequential_consistency(),
            "sc/two-faced",
            205,
            PathTotals { splices: 293, dfs_runs: 673, dfs_nodes: 1830, fast_path: 1611 },
        ),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<(usize, Word)> = (0..300)
            .map(|_| {
                let n = rng.gen_range(2..4usize);
                let max_ops = rng.gen_range(1..8usize);
                (n, two_faced_word(&mut rng, n, max_ops))
            })
            .collect();
        // Prefixes ending in an increment's answer of a value, consistent.
        let answered_old_value = words
            .iter()
            .flat_map(|(n, word)| {
                let mut incrementing = vec![false; *n];
                let mut ends = Vec::new();
                for (position, symbol) in word.symbols().iter().enumerate() {
                    match &symbol.action {
                        Action::Invoke(invocation) => {
                            incrementing[symbol.proc.0] = *invocation == Invocation::Inc;
                        }
                        Action::Respond(Response::Value(_)) if incrementing[symbol.proc.0] => {
                            ends.push((*n, &word.symbols()[..=position]));
                        }
                        Action::Respond(_) => {}
                    }
                }
                ends
            })
            .filter(|(n, prefix)| scratch_verdict(&TwoFaced, prefix, *n, &config).is_consistent())
            .count();
        assert!(answered_old_value >= 40, "{label}: {answered_old_value} prefixes");
        assert_eq!(sweep(TwoFaced, config, label, words).totals, totals, "{label}");
    }
}

/// Violations that are explained later: the standing NO of sequential
/// consistency must hold exactly as long as the from-scratch checker says NO
/// and a restored copy must carry it, on observers that preserve the state
/// (`read`) and on ones that do not (`dequeue`, `pop`).
#[test]
fn sequential_consistency_recovers_when_a_later_mutator_explains_the_observation() {
    let config = CheckerConfig::sequential_consistency();
    let run = |object: Object, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<(usize, Word)> = (0..250)
            .map(|_| {
                let n = rng.gen_range(2..4usize);
                (n, rescue_word(&mut rng, object, n))
            })
            .collect();
        let label = format!("rescue/{object:?}");
        let swept = sweep_object(object, config, &label, words);
        // Neither vacuous (a third of the verdicts do come back) nor
        // searched per symbol (the NOs in between mostly stand).
        assert!(swept.recoveries >= 80, "{label}: {} recoveries", swept.recoveries);
        assert!(
            swept.unsearched_no >= swept.totals.dfs_runs / 2,
            "{label}: {} standing NOs, {:?}",
            swept.unsearched_no,
            swept.totals
        );
        // The chain sweep cut both with a witness and in frontier mode.
        assert!(
            (1..swept.cuts).contains(&swept.cuts_without_witness),
            "{label}: {} of {} cuts without a witness",
            swept.cuts_without_witness,
            swept.cuts
        );
    };
    run(Object::Register, 401);
    run(Object::Counter, 402);
    run(Object::Queue, 403);
    run(Object::Stack, 404);
}

/// A random word of `object` whose observers mostly answer what the
/// sequential object gives with every operation taking effect at its
/// invocation (the mutators) or at its response (the observers), and now
/// and then 4 or 5 instead: thin air, until a mutator of it is invoked.
/// Mutators produce 1..=3 in the first half of the word; in the second,
/// half of them produce a value observed from thin air so far, possibly
/// while another process observes it again.
fn thin_air_word(rng: &mut StdRng, object: Object, n: usize, max_ops: usize) -> Word {
    let (spec, observer, produce): (SpecObject, Invocation, fn(u64) -> Invocation) = match object {
        Object::Register => (SpecObject::Register, Invocation::Read, Invocation::Write),
        Object::Queue => (SpecObject::Queue, Invocation::Dequeue, Invocation::Enqueue),
        Object::Stack => (SpecObject::Stack, Invocation::Pop, Invocation::Push),
        Object::Counter => unreachable!("a counter's responses need no one producer"),
    };
    let thin_air = |value: u64| match object {
        Object::Register => Response::Value(value),
        _ => Response::MaybeValue(Some(value)),
    };
    let mut state = spec.initial();
    let mut word = Word::new();
    let mut pending: Vec<Option<Invocation>> = vec![None; n];
    let mut invoked = 0usize;
    let mut from_thin_air = Vec::new();
    for _ in 0..max_ops * 4 {
        let p = rng.gen_range(0..n);
        match pending[p].take() {
            Some(invocation) if rng.gen_bool(0.8) => {
                let response = if invocation != observer {
                    Response::Ack
                } else if rng.gen_bool(0.3) {
                    from_thin_air.push(rng.gen_range(4..6));
                    thin_air(from_thin_air[from_thin_air.len() - 1])
                } else {
                    let (next, response) = spec.apply(&state, &observer).expect("its observer");
                    state = next;
                    response
                };
                word.respond(ProcId(p), response);
            }
            Some(invocation) => pending[p] = Some(invocation),
            None if invoked < max_ops => {
                let value = match from_thin_air.len() {
                    thin if thin > 0 && 2 * invoked >= max_ops && rng.gen_bool(0.5) => {
                        from_thin_air[rng.gen_range(0..thin)]
                    }
                    _ => rng.gen_range(1..4),
                };
                let invocation = if rng.gen_bool(0.5) {
                    let invocation = produce(value);
                    state = spec.apply(&state, &invocation).expect("its mutator").0;
                    invocation
                } else {
                    observer.clone()
                };
                word.invoke(ProcId(p), invocation.clone());
                pending[p] = Some(invocation);
                invoked += 1;
            }
            None => break,
        }
    }
    word
}

/// Thin-air responses under both criteria, on every specification with
/// producers: the NO comes without a search, and under sequential
/// consistency gives way once the producer is invoked by a process that
/// can still place it.  Every prefix is compared with [`check_history`],
/// and the chain sweep shows a restored checker holds the same orphans
/// (search for search, counter for counter).
#[test]
fn thin_air_responses_are_refuted_without_a_search_and_rescued_by_their_producer() {
    for (config, criterion) in [
        (CheckerConfig::linearizability(), "lin"),
        (CheckerConfig::sequential_consistency(), "sc"),
    ] {
        for (object, seed) in [(Object::Register, 601), (Object::Queue, 602), (Object::Stack, 603)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let words: Vec<(usize, Word)> = (0..400)
                .map(|_| {
                    let n = rng.gen_range(2..4usize);
                    let max_ops = rng.gen_range(2..9usize);
                    (n, thin_air_word(&mut rng, object, n, max_ops))
                })
                .collect();
            let label = format!("thin-air/{criterion}/{object:?}");
            let swept = sweep_object(object, config, &label, words);
            assert!(
                swept.thin_air_refutations >= 150,
                "{label}: {} NOs without a search",
                swept.thin_air_refutations
            );
            if !config.respect_real_time {
                assert!(
                    swept.thin_air_rescues >= 15,
                    "{label}: {} rescued thin-air NOs",
                    swept.thin_air_rescues
                );
            }
        }
    }
}

/// The word section of a checkpoint for `symbols`: the count, then per
/// symbol the process, a tag and the payload.
fn word_section(symbols: &[Symbol]) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_u32(&mut bytes, symbols.len() as u32);
    for symbol in symbols {
        put_u32(&mut bytes, symbol.proc.0 as u32);
        match &symbol.action {
            Action::Invoke(invocation) => {
                bytes.push(1);
                put_invocation(&mut bytes, invocation);
            }
            Action::Respond(response) => {
                bytes.push(2);
                put_response(&mut bytes, response);
            }
        }
    }
    bytes
}

/// Where a checkpoint's word section starts: version, flags, eight counters,
/// the process count and the base come first.
const WORD_SECTION_AT: usize = 1 + 1 + 8 * 8 + 4 + 4;

/// Feeds `word` one growing prefix at a time and then every word that
/// differs from it in one symbol; returns how many symbols of `word` belong
/// to no operation.
fn reconstructs<S: SequentialSpec + Clone>(
    spec: S,
    config: CheckerConfig,
    n: usize,
    word: &Word,
) -> usize {
    let mut by_word = IncrementalChecker::new(spec.clone(), config, n);
    let mut by_symbol = IncrementalChecker::new(spec, config, n);
    for len in 1..=word.len() {
        let prefix = word.prefix(len);
        // A true extension: the delta is one symbol, and nothing before it
        // is compared, rebuilt or fed again.
        by_symbol.push_symbol(&word.symbols()[len - 1]);
        assert_eq!(
            by_word.check_word_extension_outcome(&prefix),
            by_symbol.check_outcome(),
            "prefix {len} of {word}"
        );
        assert_eq!(by_word.stats(), by_symbol.stats(), "prefix {len} of {word}");
        assert_eq!(
            by_word.symbols_consumed(),
            len,
            "skipped symbols count: {word}"
        );
        let checkpoint = by_word.checkpoint_bytes();
        assert!(
            checkpoint[WORD_SECTION_AT..].starts_with(&word_section(prefix.symbols())),
            "the word rebuilt for a checkpoint is not the {len} symbols fed: {prefix}"
        );
        // A delta per symbol: the word from the previous one's cut on is
        // exactly the symbol fed since, wherever the cut falls.
        let delta = by_symbol.checkpoint_delta();
        assert_eq!(delta[WORD_SECTION_AT - 4..WORD_SECTION_AT], ((len - 1) as u32).to_le_bytes());
        assert!(
            delta[WORD_SECTION_AT..].starts_with(&word_section(&prefix.symbols()[len - 1..])),
            "the delta after symbol {len} does not carry that symbol alone: {prefix}"
        );
        // The same word again is an extension by nothing.
        by_word.check_word_outcome(&prefix);
        assert_eq!(by_word.stats().rebuilds, 0, "prefix {len} of {word}");
        by_symbol.check_outcome();
    }
    // Any other word of the same length is not an extension, wherever and
    // however it differs — at a skipped symbol too.
    let mut rebuilds = 0;
    for at in 0..word.len() {
        let original = &word.symbols()[at];
        let other_proc = Symbol {
            proc: ProcId((original.proc.0 + 1) % n),
            action: original.action.clone(),
        };
        let other_payload = match &original.action {
            Action::Invoke(_) => Symbol::invoke(original.proc, Invocation::Write(99)),
            Action::Respond(_) => Symbol::respond(original.proc, Response::Value(99)),
        };
        for changed in [other_proc, other_payload] {
            let mut symbols = word.symbols().to_vec();
            symbols[at] = changed;
            for fed in [Word::from_symbols(symbols), word.clone()] {
                by_word.check_word(&fed);
                rebuilds += 1;
                assert_eq!(
                    by_word.stats().rebuilds,
                    rebuilds,
                    "a change at symbol {at} of {word} went unnoticed"
                );
                assert_eq!(by_word.symbols_consumed(), word.len());
            }
        }
    }
    let operations = word.operations();
    let pending = operations.iter().filter(|op| op.is_pending()).count();
    word.len() + pending - 2 * operations.len()
}

/// The history is the only copy of the word, so it must give the word back
/// exactly — skipped symbols, positions, processes and payloads included:
/// a checkpoint writes it, and `check_word` tells an extension from any
/// other word by it.
#[test]
fn the_fed_word_is_reconstructible_symbol_for_symbol() {
    let mut rng = StdRng::seed_from_u64(501);
    let mut skipped = 0usize;
    for case in 0..120 {
        let object = [Object::Register, Object::Counter, Object::Queue, Object::Stack][case % 4];
        let config = if case / 4 % 2 == 0 {
            CheckerConfig::sequential_consistency()
        } else {
            CheckerConfig::linearizability()
        };
        let n = rng.gen_range(2..4usize);
        let word = rescue_word(&mut rng, object, n);
        skipped += match object {
            Object::Register => reconstructs(Register::new(), config, n, &word),
            Object::Counter => reconstructs(Counter::new(), config, n, &word),
            Object::Queue => reconstructs(Queue::new(), config, n, &word),
            Object::Stack => reconstructs(Stack::new(), config, n, &word),
        };
    }
    // Not vacuous: the words do carry symbols of no operation.
    assert!(
        skipped >= 100,
        "only {skipped} skipped symbols in 120 words"
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
