//! Long histories: what the per-symbol cost and the stack depth of the
//! incremental engine must not depend on.
//!
//! A monitor owes a verdict after every symbol for as long as the monitored
//! object lives, so the cost of incorporating one completed operation must
//! not grow with the prefix already read.  Wall clocks are too noisy to
//! assert on; [`IncrementalChecker::maintenance_steps`] counts the witness
//! entries visited and the states replayed instead, and repeats exactly.
//! The same goes for an object that has left the fast path: after a
//! violation of sequential consistency the engine may search again only at
//! the symbols that can change the answer, which `CheckerStats::dfs_runs`
//! counts.

use drv_adversary::{register_object_stream, RegisterStreamShape};
use drv_consistency::{
    check_history, CheckOutcome, CheckerConfig, CheckerStats, CheckpointError, ConcurrentHistory,
    ConsistencyResult, IncrementalChecker,
};
use drv_lang::{Action, Invocation, ProcId, Response, Symbol, Word};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Feeds a linearizable two-process register stream in the shape of the
/// `drvbench` workloads (a quarter of the steps issue two overlapping
/// operations) with a verdict after every symbol, and returns the
/// maintenance steps per completed operation.
fn steps_per_op(config: CheckerConfig, ops: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(12 + ops as u64);
    let symbols = register_object_stream(&mut rng, ops, &RegisterStreamShape::load());
    let mut checker = IncrementalChecker::new(Register::new(), config, 2);
    let mut outcomes = Vec::new();
    checker.feed_batch(&symbols, &mut outcomes);
    assert!(
        outcomes
            .iter()
            .all(|outcome| *outcome == CheckOutcome::Consistent),
        "the stream is linearizable by construction"
    );
    let stats = checker.stats();
    assert_eq!(
        stats.dfs_runs, 1,
        "only the first check may search: {stats:?}"
    );
    assert_eq!(
        stats.splices, ops as u64,
        "every completion splices: {stats:?}"
    );
    checker.maintenance_steps() as f64 / ops as f64
}

#[test]
fn fast_path_maintenance_cost_does_not_grow_with_the_history() {
    for (label, config) in [
        ("LIN", CheckerConfig::linearizability()),
        ("SC", CheckerConfig::sequential_consistency()),
    ] {
        let short = steps_per_op(config, 2_000);
        let long = steps_per_op(config, 20_000);
        assert!(
            long <= 8.0,
            "{label}: {long:.2} maintenance steps per operation at 20 000 ops"
        );
        assert!(
            long <= 1.5 * short,
            "{label}: {short:.2} steps per operation at 2 000 ops, {long:.2} at 20 000"
        );
    }
}

/// `writes` sequential writes by one process, then a read by the other that
/// returns the initial value: not linearizable, and refuting it takes a
/// search as deep as the history.
fn stale_read_after(writes: u64) -> Vec<Symbol> {
    let mut symbols = Vec::with_capacity(2 * writes as usize + 2);
    for v in 1..=writes {
        symbols.push(Symbol::invoke(ProcId(0), Invocation::Write(v)));
        symbols.push(Symbol::respond(ProcId(0), Response::Ack));
    }
    symbols.push(Symbol::invoke(ProcId(1), Invocation::Read));
    symbols.push(Symbol::respond(ProcId(1), Response::Value(0)));
    symbols
}

#[test]
fn a_violation_after_a_deep_history_fits_a_worker_stack() {
    // Engine workers run on the default 2 MiB thread stack; overflowing it
    // aborts the process, which no panic handler sees.
    for writes in [12_000u64, 100_000] {
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut checker =
                    IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 2);
                let mut outcomes = Vec::new();
                checker.feed_batch(&stale_read_after(writes), &mut outcomes);
                (outcomes, checker.stats())
            })
            .expect("thread spawns");
        let (outcomes, stats) = worker.join().expect("the checker does not panic");
        let (last, before) = outcomes.split_last().expect("the stream is not empty");
        assert!(before
            .iter()
            .all(|outcome| *outcome == CheckOutcome::Consistent));
        assert_eq!(*last, CheckOutcome::Inconsistent, "{writes} writes");
        // One search seeds the witness on the first symbol, one refutes the
        // stale read: a single path as deep as the history.
        assert_eq!(stats.dfs_runs, 2, "{stats:?}");
        assert!(stats.dfs_nodes > writes, "{stats:?}");
    }
}

/// Feeds `symbol` and checks: the verdict and the searches it took.
fn step(checker: &mut IncrementalChecker<Register>, symbol: Symbol) -> (CheckOutcome, u64) {
    let before = checker.stats().dfs_runs;
    checker.push_symbol(&symbol);
    let outcome = checker.check_outcome();
    (outcome, checker.stats().dfs_runs - before)
}

/// `p0` writes 1, `p1` reads 7: not sequentially consistent until somebody
/// other than `p1` writes 7.  No write of 7 exists, which the engine knows
/// without a search (R4).
fn wild_read() -> Vec<Symbol> {
    vec![
        Symbol::invoke(ProcId(0), Invocation::Write(1)),
        Symbol::respond(ProcId(0), Response::Ack),
        Symbol::invoke(ProcId(1), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Value(7)),
    ]
}

/// `p0` writes 7, then 1; `p1` reads 1, then 7: a write did produce 7, but
/// `p1` has seen it overwritten, so this is not sequentially consistent
/// either until somebody other than `p1` writes 7, and refuting it takes a
/// search.
fn stale_read() -> Vec<Symbol> {
    let (p0, p1) = (ProcId(0), ProcId(1));
    vec![
        Symbol::invoke(p0, Invocation::Write(7)),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p0, Invocation::Write(1)),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p1, Response::Value(1)),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p1, Response::Value(7)),
    ]
}

/// Feeds `prefix`, whose last symbol is the first NO, then symbols that
/// cannot rescue it and finally one that does; returns the stats.
fn searched_again_only_at_a_mutator_of_an_unblocked_process(prefix: Vec<Symbol>) -> CheckerStats {
    use CheckOutcome::{Consistent, Inconsistent};
    let mut checker =
        IncrementalChecker::new(Register::new(), CheckerConfig::sequential_consistency(), 2);
    let last = prefix.len() - 1;
    for (at, symbol) in prefix.into_iter().enumerate() {
        let expected = if at == last { Inconsistent } else { Consistent };
        assert_eq!(step(&mut checker, symbol).0, expected, "prefix symbol {at}");
    }
    let (p0, p1) = (ProcId(0), ProcId(1));
    let script = [
        // An observer comes (R2) and goes (R1); an orphan response and an
        // invocation on top of a pending one are skipped (R0).
        (Symbol::invoke(p0, Invocation::Read), Inconsistent, 0),
        (Symbol::respond(p1, Response::Ack), Inconsistent, 0),
        (Symbol::invoke(p0, Invocation::Write(7)), Inconsistent, 0),
        (Symbol::respond(p0, Response::Value(1)), Inconsistent, 0),
        // The reader's own write comes after its read in program order, and
        // the refuting search never placed that read: the reader is
        // blocked, and its mutator keeps the NO without a search (R3).
        (Symbol::invoke(p1, Invocation::Write(7)), Inconsistent, 0),
        (Symbol::invoke(p0, Invocation::Read), Inconsistent, 0),
        (Symbol::respond(p1, Response::Ack), Inconsistent, 0),
        (Symbol::respond(p0, Response::Value(1)), Inconsistent, 0),
        // Another process's write, still pending, explains the read: one
        // search finds the witness, and maintenance keeps it from there.
        (Symbol::invoke(p0, Invocation::Write(7)), Consistent, 1),
        (Symbol::respond(p0, Response::Ack), Consistent, 0),
        (Symbol::invoke(p1, Invocation::Read), Consistent, 0),
        (Symbol::respond(p1, Response::Value(7)), Consistent, 0),
    ];
    for (at, (symbol, outcome, searches)) in script.into_iter().enumerate() {
        assert_eq!(
            step(&mut checker, symbol),
            (outcome, searches),
            "script step {at}"
        );
    }
    checker.stats()
}

#[test]
fn a_standing_sc_no_is_searched_again_only_at_a_mutator_of_an_unblocked_process() {
    // The wild read's NO costs no search (R4): the seeding search and the
    // rescuing one remain.
    let stats = searched_again_only_at_a_mutator_of_an_unblocked_process(wild_read());
    assert_eq!((stats.dfs_runs, stats.latched), (2, 9), "{stats:?}");
}

#[test]
fn a_standing_sc_no_after_a_stale_read_is_searched_only_at_an_unblocked_mutator() {
    // The stale read's NO is a search's, and R3 holds it as before.
    let stats = searched_again_only_at_a_mutator_of_an_unblocked_process(stale_read());
    assert_eq!((stats.dfs_runs, stats.latched), (3, 8), "{stats:?}");
}

/// A `drvbench`-shaped register stream of `ops` operations whose first read
/// after the 40th symbol answers a value no write produces, and the
/// position of that answer.
fn one_wild_read(ops: usize) -> (Vec<Symbol>, usize) {
    let mut rng = StdRng::seed_from_u64(34);
    let mut symbols = register_object_stream(&mut rng, ops, &RegisterStreamShape::load());
    let at = (40..symbols.len())
        .find(|at| matches!(symbols[*at].action, Action::Respond(Response::Value(_))))
        .expect("the stream reads");
    symbols[at] = Symbol::respond(symbols[at].proc, Response::Value(1_000_000));
    (symbols, at)
}

/// [`one_wild_read`]'s stream with the read at the same place answering,
/// instead, the first value its reader has read and seen overwritten since:
/// a value a write did produce.
fn one_stale_read(ops: usize) -> (Vec<Symbol>, usize) {
    let (mut symbols, at) = one_wild_read(ops);
    let reader = symbols[at].proc;
    let read: Vec<u64> = symbols[..at]
        .iter()
        .filter(|symbol| symbol.proc == reader)
        .filter_map(|symbol| match symbol.action {
            Action::Respond(Response::Value(v)) => Some(v),
            _ => None,
        })
        .collect();
    let last = *read.last().expect("the reader has read before");
    let overwritten = *read
        .iter()
        .find(|v| **v != last)
        .expect("and seen a value change");
    symbols[at] = Symbol::respond(reader, Response::Value(overwritten));
    (symbols, at)
}

/// Feeds `symbols`, whose first NO is at `first_no` and stands to the end,
/// comparing every verdict with [`check_history`]; returns the searches and
/// the write invocations after `first_no`.
fn searches_and_writes_after(symbols: &[Symbol], first_no: usize) -> (u64, u64) {
    let config = CheckerConfig::sequential_consistency();
    let mut checker = IncrementalChecker::new(Register::new(), config, 2);
    let (mut searches, mut writes) = (0, 0);
    for (at, symbol) in symbols.iter().enumerate() {
        let (outcome, searched) = step(&mut checker, symbol.clone());
        let history = ConcurrentHistory::from_word(&Word::from_symbols(symbols[..=at].to_vec()), 2);
        let expected = match check_history(&Register::new(), &history, &config) {
            ConsistencyResult::Consistent(_) => CheckOutcome::Consistent,
            ConsistencyResult::Inconsistent => CheckOutcome::Inconsistent,
            ConsistencyResult::Unknown => CheckOutcome::Unknown,
        };
        assert_eq!(outcome, expected, "symbol {at}");
        assert_eq!(
            outcome == CheckOutcome::Inconsistent,
            at >= first_no,
            "symbol {at}"
        );
        if at > first_no {
            searches += searched;
            writes += u64::from(matches!(
                symbol.action,
                Action::Invoke(Invocation::Write(_))
            ));
        }
    }
    (searches, writes)
}

#[test]
fn writes_that_cannot_rescue_a_standing_sc_no_are_not_searched() {
    // No write produces the wild value, so no write can rescue the NO, and
    // the engine knows it without searching at all (R4).
    let (symbols, wild) = one_wild_read(150);
    assert_eq!(searches_and_writes_after(&symbols, wild), (0, 64));
}

#[test]
fn writes_that_cannot_rescue_a_standing_sc_no_after_a_stale_read_are_not_searched() {
    // One search per write invocation after the stale read would be 64: only
    // the writes of a process the last refuting search could complete run
    // one, and the reader of the stale value is never such a process.
    let (symbols, stale) = one_stale_read(150);
    assert_eq!(searches_and_writes_after(&symbols, stale), (3, 64));
}

/// Feeds `prefix` to an SC checker that may explore one node per search,
/// then four symbols: an observer comes and goes, an orphan response, and a
/// write of the read value by the writer; returns each of the four steps and
/// the checks answered NO without a search.
fn starved_after(prefix: Vec<Symbol>) -> (Vec<(CheckOutcome, u64)>, u64) {
    let config = CheckerConfig::sequential_consistency().with_max_states(1);
    let mut checker = IncrementalChecker::new(Register::new(), config, 2);
    for symbol in prefix {
        step(&mut checker, symbol);
    }
    let steps = [
        Symbol::invoke(ProcId(0), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Ack),
        Symbol::respond(ProcId(0), Response::Value(1)),
        Symbol::invoke(ProcId(0), Invocation::Write(7)),
    ]
    .into_iter()
    .map(|symbol| step(&mut checker, symbol))
    .collect();
    (steps, checker.stats().latched)
}

#[test]
fn an_unknown_never_stands() {
    use CheckOutcome::{Inconsistent, Unknown};
    // One node is not enough for a search to refute anything, but no write
    // produces the wild value: that NO needs no search (R4) and stands.  The
    // write of 7 leaves no orphan, and the next search runs out of nodes:
    // the engine knows nothing it could keep.
    let (steps, latched) = starved_after(wild_read());
    assert_eq!(
        steps,
        [
            (Inconsistent, 0),
            (Inconsistent, 0),
            (Inconsistent, 0),
            (Unknown, 1)
        ]
    );
    assert_eq!(latched, 4);
}

#[test]
fn an_unknown_never_stands_after_a_stale_read() {
    // One node is not enough to refute the stale read, so the engine knows
    // nothing it could keep: every symbol searches again, whatever it is.
    let (steps, latched) = starved_after(stale_read());
    assert_eq!(steps, [(CheckOutcome::Unknown, 1); 4]);
    assert_eq!(latched, 0);
}

#[test]
fn a_starved_thin_air_read_is_the_no_an_unstarved_search_gives() {
    // A search that may explore one node knows nothing about the wild read;
    // the missing write is enough to answer what a search with room to
    // finish answers, under either criterion.
    for config in [
        CheckerConfig::linearizability(),
        CheckerConfig::sequential_consistency(),
    ] {
        let starved = config.with_max_states(1);
        let history = ConcurrentHistory::from_word(&Word::from_symbols(wild_read()), 2);
        assert_eq!(
            check_history(&Register::new(), &history, &starved),
            ConsistencyResult::Unknown
        );
        assert_eq!(
            check_history(&Register::new(), &history, &config),
            ConsistencyResult::Inconsistent
        );
        let mut checker = IncrementalChecker::new(Register::new(), starved, 2);
        let steps: Vec<_> = wild_read()
            .into_iter()
            .map(|s| step(&mut checker, s))
            .collect();
        assert_eq!(
            steps.last(),
            Some(&(CheckOutcome::Inconsistent, 0)),
            "{config:?}: {steps:?}"
        );
    }
}

#[test]
fn a_checkpoint_without_the_standing_bit_restores_and_searches_once() {
    // What a build that predates the standing NO writes for this state: the
    // same payload with flag bits 4 and 8 clear and without the blocked set
    // that ends it.  It must restore, re-establish the standing NO with a
    // single search, and answer the rest alike.  After the wild read the
    // restore finds the write of 7 missing and needs no search (R4).
    let config = CheckerConfig::sequential_consistency();
    for (prefix, searches) in [(stale_read(), [1, 0, 1, 0]), (wild_read(), [0, 0, 1, 0])] {
        let mut live = IncrementalChecker::new(Register::new(), config, 2);
        for symbol in prefix {
            step(&mut live, symbol);
        }
        let mut bytes = live.checkpoint_bytes();
        assert_eq!(
            bytes[1] & 12,
            12,
            "the standing NO is checkpointed with its set"
        );
        let set_at = bytes.len() - 8;
        assert_eq!(
            bytes[set_at..],
            [1, 0, 0, 0, 1, 0, 0, 0],
            "the reader is blocked"
        );
        bytes[1] &= !12;
        bytes.truncate(set_at);
        let mut restored = IncrementalChecker::new(Register::new(), config, 2);
        restored
            .restore_bytes(&bytes)
            .expect("an older checkpoint restores");
        let rest = [
            Symbol::invoke(ProcId(0), Invocation::Read),
            Symbol::respond(ProcId(0), Response::Value(1)),
            Symbol::invoke(ProcId(0), Invocation::Write(7)),
            Symbol::respond(ProcId(0), Response::Ack),
        ];
        for (symbol, searches) in rest.into_iter().zip(searches) {
            let (expected, _) = step(&mut live, symbol.clone());
            assert_eq!(step(&mut restored, symbol), (expected, searches));
        }
    }
}

#[test]
fn a_blocked_set_survives_a_delta_chain() {
    use CheckOutcome::{Consistent, Inconsistent};
    let (p0, p1) = (ProcId(0), ProcId(1));
    let config = CheckerConfig::sequential_consistency();
    // The set comes from a refuting search after the stale read, and from
    // the orphan's owner after the wild one (R4).
    for prefix in [stale_read(), wild_read()] {
        let mut live = IncrementalChecker::new(Register::new(), config, 2);
        for symbol in prefix {
            step(&mut live, symbol);
        }
        // The set ends every checkpoint of a standing NO, delta or not.
        let blocks_the_reader =
            |bytes: &[u8]| bytes[1] == 0x0C && bytes[bytes.len() - 8..] == [1, 0, 0, 0, 1, 0, 0, 0];
        let full = live.checkpoint_delta();
        assert!(blocks_the_reader(&full), "{full:?}");
        // The reader writes (R3) and the writer reads (R2): no search.
        for symbol in [
            Symbol::invoke(p1, Invocation::Write(7)),
            Symbol::respond(p1, Response::Ack),
            Symbol::invoke(p0, Invocation::Read),
            Symbol::respond(p0, Response::Value(1)),
        ] {
            assert_eq!(step(&mut live, symbol), (Inconsistent, 0));
        }
        let delta = live.checkpoint_delta();
        assert!(blocks_the_reader(&delta), "{delta:?}");
        let mut restored = IncrementalChecker::new(Register::new(), config, 2);
        restored
            .restore_bytes(&full)
            .expect("the full form restores");
        restored
            .restore_bytes(&delta)
            .expect("the delta extends it");
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
        // The reader's next write still stands; the writer's finds the witness.
        let rest = [
            (Symbol::invoke(p1, Invocation::Write(7)), Inconsistent, 0),
            (Symbol::respond(p1, Response::Ack), Inconsistent, 0),
            (Symbol::invoke(p0, Invocation::Write(7)), Consistent, 1),
            (Symbol::respond(p0, Response::Ack), Consistent, 0),
        ];
        for (at, (symbol, outcome, searches)) in rest.into_iter().enumerate() {
            assert_eq!(
                step(&mut live, symbol.clone()),
                (outcome, searches),
                "symbol {at}"
            );
            assert_eq!(
                step(&mut restored, symbol),
                (outcome, searches),
                "symbol {at}"
            );
        }
        assert_eq!(restored.stats(), live.stats());
        // The set belongs to a standing NO, and names processes the history has.
        let mut orphan = full.clone();
        orphan[1] = 0x08;
        let mut fresh = IncrementalChecker::new(Register::new(), config, 2);
        assert_eq!(
            fresh.restore_bytes(&orphan),
            Err(CheckpointError::BadFlags(0x08))
        );
        let mut stranger = full;
        let last = stranger.len() - 4;
        stranger[last] = 2;
        assert_eq!(
            fresh.restore_bytes(&stranger),
            Err(CheckpointError::BadProcess { proc: 2 })
        );
    }
}

/// A version-1 checkpoint: what the parent of the commit that made the
/// history the only copy of the word wrote (it kept every symbol in a vector
/// of its own and wrote that), after the seven symbols of [`mixed_prefix`]
/// under linearizability; under sequential consistency it wrote the same
/// bytes with flags `0x04` (the NO stands) in place of `0x01` (the NO is
/// latched).  It carries an epoch counter, a stats slot written as 0, and
/// an empty frontier.
const PARENT_CHECKPOINT: [u8; 156] = [
    0x01, 0x01, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// The same state in version 2, as the commit that made checkpoints deltas
/// wrote it: no epoch, no zero slot, and a base of 0 (the full form) after
/// the process count; flags `0x01` or `0x04` as above.
const VERSION_2_CHECKPOINT: [u8; 148] = [
    0x02, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x02, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
];

/// [`VERSION_2_CHECKPOINT`]'s sequential-consistency state as this build
/// writes it: flags `0x0C` (the NO stands, and the set of processes the
/// refuting search could not complete follows) and, after the frontier, that
/// set: `{1}`, the reader of the wild value.
const BLOCKED_SET_CHECKPOINT: [u8; 156] = [
    0x02, 0x0c, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x02, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
];

/// Everything a checkpoint's word section can hold: an orphan response and
/// an invocation on top of a pending one (both skipped, both part of the
/// word), a wild read (the NO), and an operation still pending at the cut.
fn mixed_prefix() -> [Symbol; 7] {
    let (p0, p1) = (ProcId(0), ProcId(1));
    [
        Symbol::invoke(p0, Invocation::Write(1)),
        Symbol::respond(p1, Response::Ack),
        Symbol::invoke(p0, Invocation::Read),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p1, Response::Value(7)),
        Symbol::invoke(p0, Invocation::Read),
    ]
}

/// Where a checkpoint's counters are: after the version and flag bytes,
/// eight `u64`s.
const COUNTERS: std::ops::Range<usize> = 2..2 + 8 * 8;

/// The counters this build writes for [`mixed_prefix`]: checks, fast path,
/// splices, a retired slot (always 0), searches, search nodes, rebuilds,
/// unsearched NOs.  The
/// literals above carry `[7, 5, 1, 0, 2, 2, 0, 1]`: a search refuted the
/// wild read.  Here no write of its value is what refutes it (R4).
const MIXED_PREFIX_COUNTERS: [u64; 8] = [7, 6, 1, 0, 1, 0, 0, 2];

/// `bytes` with [`MIXED_PREFIX_COUNTERS`] in place of its counters.
fn with_mixed_prefix_counters(bytes: &[u8]) -> Vec<u8> {
    let counters: Vec<u8> = MIXED_PREFIX_COUNTERS
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .collect();
    let mut bytes = bytes.to_vec();
    bytes.splice(COUNTERS, counters);
    bytes
}

/// What a checker's stats moved by since `before`, field by field.
fn since(after: CheckerStats, before: CheckerStats) -> [u64; 7] {
    [
        after.checks - before.checks,
        after.fast_path - before.fast_path,
        after.splices - before.splices,
        after.dfs_runs - before.dfs_runs,
        after.dfs_nodes - before.dfs_nodes,
        after.rebuilds - before.rebuilds,
        after.latched - before.latched,
    ]
}

#[test]
fn parent_written_checkpoints_restore_and_are_written_back_byte_for_byte() {
    use CheckOutcome::{Consistent, Inconsistent};
    let (p0, p1) = (ProcId(0), ProcId(1));
    let rest = [
        Symbol::respond(p0, Response::Value(1)),
        // The reader's own write cannot explain its read; another
        // process's can, under sequential consistency only.
        Symbol::invoke(p1, Invocation::Write(7)),
        Symbol::respond(p1, Response::Ack),
        Symbol::invoke(p0, Invocation::Write(7)),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p1, Response::Value(7)),
    ];
    for (config, flags, last) in [
        (CheckerConfig::linearizability(), 0x01, Inconsistent),
        (CheckerConfig::sequential_consistency(), 0x04, Consistent),
    ] {
        let mut literal = PARENT_CHECKPOINT;
        literal[1] = flags;
        let mut older = VERSION_2_CHECKPOINT;
        older[1] = flags;
        // A latched NO is written as before; a standing one with its
        // blocked set, which a restore of the older bytes derives.
        let written: &[u8] = match flags {
            0x01 => &older,
            _ => &BLOCKED_SET_CHECKPOINT,
        };
        let mut twin = IncrementalChecker::new(Register::new(), config, 2);
        for symbol in mixed_prefix() {
            step(&mut twin, symbol);
        }
        assert_eq!(twin.symbols_consumed(), 7, "skipped symbols count");
        assert_eq!(
            twin.checkpoint_bytes(),
            with_mixed_prefix_counters(written),
            "{config:?}: this build writes other bytes"
        );
        let mut restored = IncrementalChecker::new(Register::new(), config, 2);
        restored
            .restore_bytes(&literal)
            .expect("a parent-written checkpoint restores");
        assert_eq!(restored.symbols_consumed(), 7);
        assert_eq!(
            restored.checkpoint_bytes(),
            written,
            "{config:?}: restore lost a byte"
        );
        let mut reread = IncrementalChecker::new(Register::new(), config, 2);
        reread
            .restore_bytes(written)
            .expect("a version-2 checkpoint restores");
        assert_eq!(reread.checkpoint_bytes(), written, "{config:?}");
        let mut from_older = IncrementalChecker::new(Register::new(), config, 2);
        from_older
            .restore_bytes(&older)
            .expect("a checkpoint without the blocked set restores");
        assert_eq!(from_older.checkpoint_bytes(), written, "{config:?}");
        // The restored copies carry the literals' counters, the twin its own:
        // from here on all of them must count alike.
        let (restored_cut, older_cut, twin_cut) =
            (restored.stats(), from_older.stats(), twin.stats());
        let mut answer = Inconsistent;
        for (at, symbol) in rest.iter().enumerate() {
            let (outcome, searches) = step(&mut restored, symbol.clone());
            let live = step(&mut twin, symbol.clone());
            assert_eq!(
                (outcome, searches),
                live,
                "{config:?}: restored copy diverged at symbol {at} after the cut"
            );
            assert_eq!(
                step(&mut from_older, symbol.clone()),
                live,
                "{config:?}: the copy restored from version-2 bytes diverged at symbol {at}"
            );
            answer = outcome;
        }
        assert_eq!(answer, last, "{config:?}");
        let moved = since(twin.stats(), twin_cut);
        assert_eq!(since(restored.stats(), restored_cut), moved, "{config:?}");
        assert_eq!(since(from_older.stats(), older_cut), moved, "{config:?}");
        let (mut restored_bytes, mut twin_bytes) =
            (restored.checkpoint_bytes(), twin.checkpoint_bytes());
        restored_bytes.drain(COUNTERS);
        twin_bytes.drain(COUNTERS);
        assert_eq!(restored_bytes, twin_bytes, "{config:?}");
    }
}

/// Feeds the first `2 × ops` symbols of a `drvbench`-shaped register stream
/// (≈ `ops` operations) and takes a checkpoint delta, feeds 1 024 more and
/// takes another; returns the second delta's size and the full form's there.
fn delta_and_full_bytes(config: CheckerConfig, ops: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(24 + ops as u64);
    let symbols = register_object_stream(&mut rng, ops + 600, &RegisterStreamShape::load());
    let (before, interval) = symbols[..2 * ops + 1024].split_at(2 * ops);
    let mut checker = IncrementalChecker::new(Register::new(), config, 2);
    let mut outcomes = Vec::new();
    checker.feed_batch(before, &mut outcomes);
    let first = checker.checkpoint_delta();
    assert_eq!(
        first,
        checker.checkpoint_bytes(),
        "the first delta is the full form"
    );
    checker.feed_batch(interval, &mut outcomes);
    let delta = checker.checkpoint_delta();
    assert!(outcomes
        .iter()
        .all(|outcome| *outcome == CheckOutcome::Consistent));
    (delta.len(), checker.checkpoint_bytes().len())
}

#[test]
fn a_checkpoint_delta_costs_the_interval_not_the_history() {
    for (label, config) in [
        ("LIN", CheckerConfig::linearizability()),
        ("SC", CheckerConfig::sequential_consistency()),
    ] {
        let (short_delta, short_full) = delta_and_full_bytes(config, 2_000);
        let (long_delta, long_full) = delta_and_full_bytes(config, 20_000);
        let delta_ratio = long_delta as f64 / short_delta as f64;
        let full_ratio = long_full as f64 / short_full as f64;
        assert!(
            (1.0 / 1.5..=1.5).contains(&delta_ratio),
            "{label}: a 1 024-symbol delta is {short_delta} B after 2 000 ops, {long_delta} B \
             after 20 000"
        );
        assert!(
            full_ratio >= 8.0,
            "{label}: the full form grew only {full_ratio:.1}× ({short_full} → {long_full} B)"
        );
    }
}
