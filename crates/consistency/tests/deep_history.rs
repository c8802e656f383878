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
use drv_consistency::{CheckOutcome, CheckerConfig, IncrementalChecker};
use drv_lang::{Invocation, ProcId, Response, Symbol};
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
/// other than `p1` writes 7.
fn wild_read() -> [Symbol; 4] {
    [
        Symbol::invoke(ProcId(0), Invocation::Write(1)),
        Symbol::respond(ProcId(0), Response::Ack),
        Symbol::invoke(ProcId(1), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Value(7)),
    ]
}

#[test]
fn a_standing_sc_no_is_searched_again_only_at_a_mutator_invocation() {
    use CheckOutcome::{Consistent, Inconsistent};
    let mut checker =
        IncrementalChecker::new(Register::new(), CheckerConfig::sequential_consistency(), 2);
    let verdicts: Vec<_> = wild_read().map(|symbol| step(&mut checker, symbol).0).into();
    assert_eq!(verdicts, [Consistent, Consistent, Consistent, Inconsistent]);
    let (p0, p1) = (ProcId(0), ProcId(1));
    let script = [
        // An observer comes (R2) and goes (R1); an orphan response and an
        // invocation on top of a pending one are skipped (R0).
        (Symbol::invoke(p0, Invocation::Read), Inconsistent, 0),
        (Symbol::respond(p1, Response::Ack), Inconsistent, 0),
        (Symbol::invoke(p0, Invocation::Write(7)), Inconsistent, 0),
        (Symbol::respond(p0, Response::Value(1)), Inconsistent, 0),
        // The reader's own write comes after its read in program order: one
        // search says so, and its response cannot change that.
        (Symbol::invoke(p1, Invocation::Write(7)), Inconsistent, 1),
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
        assert_eq!(step(&mut checker, symbol), (outcome, searches), "script step {at}");
    }
    let stats = checker.stats();
    assert_eq!((stats.dfs_runs, stats.latched), (4, 7), "{stats:?}");
}

#[test]
fn an_unknown_never_stands() {
    // One node is not enough to refute the wild read, so the engine knows
    // nothing it could keep: every symbol searches again, whatever it is.
    let config = CheckerConfig::sequential_consistency().with_max_states(1);
    let mut checker = IncrementalChecker::new(Register::new(), config, 2);
    for symbol in wild_read() {
        step(&mut checker, symbol);
    }
    for symbol in [
        Symbol::invoke(ProcId(0), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Ack),
        Symbol::respond(ProcId(0), Response::Value(1)),
        Symbol::invoke(ProcId(0), Invocation::Write(7)),
    ] {
        assert_eq!(step(&mut checker, symbol), (CheckOutcome::Unknown, 1));
    }
    assert_eq!(checker.stats().latched, 0);
}

#[test]
fn a_checkpoint_without_the_standing_bit_restores_and_searches_once() {
    // What a build that predates the standing NO writes for this state: the
    // same payload with flag bit 2 clear.  It must restore, re-establish the
    // standing NO with a single search, and answer the rest alike.
    let config = CheckerConfig::sequential_consistency();
    let mut live = IncrementalChecker::new(Register::new(), config, 2);
    for symbol in wild_read() {
        step(&mut live, symbol);
    }
    let mut bytes = live.checkpoint_bytes();
    assert_eq!(bytes[1] & 4, 4, "the standing NO is checkpointed");
    bytes[1] &= !4;
    let mut restored = IncrementalChecker::new(Register::new(), config, 2);
    restored.restore_bytes(&bytes).expect("an older checkpoint restores");
    let rest = [
        Symbol::invoke(ProcId(0), Invocation::Read),
        Symbol::respond(ProcId(0), Response::Value(1)),
        Symbol::invoke(ProcId(0), Invocation::Write(7)),
        Symbol::respond(ProcId(0), Response::Ack),
    ];
    let searches = [1, 0, 1, 0];
    for (symbol, searches) in rest.into_iter().zip(searches) {
        let (expected, _) = step(&mut live, symbol.clone());
        assert_eq!(step(&mut restored, symbol), (expected, searches));
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
        let mut written = VERSION_2_CHECKPOINT;
        written[1] = flags;
        let mut twin = IncrementalChecker::new(Register::new(), config, 2);
        for symbol in mixed_prefix() {
            step(&mut twin, symbol);
        }
        assert_eq!(twin.symbols_consumed(), 7, "skipped symbols count");
        assert_eq!(
            twin.checkpoint_bytes(),
            written,
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
        reread.restore_bytes(&written).expect("a version-2 checkpoint restores");
        assert_eq!(reread.checkpoint_bytes(), written, "{config:?}");
        let mut answer = Inconsistent;
        for (at, symbol) in rest.iter().enumerate() {
            let (outcome, searches) = step(&mut restored, symbol.clone());
            assert_eq!(
                (outcome, searches),
                step(&mut twin, symbol.clone()),
                "{config:?}: restored copy diverged at symbol {at} after the cut"
            );
            answer = outcome;
        }
        assert_eq!(answer, last, "{config:?}");
        assert_eq!(restored.stats(), twin.stats(), "{config:?}");
        assert_eq!(
            restored.checkpoint_bytes(),
            twin.checkpoint_bytes(),
            "{config:?}"
        );
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
    assert_eq!(first, checker.checkpoint_bytes(), "the first delta is the full form");
    checker.feed_batch(interval, &mut outcomes);
    let delta = checker.checkpoint_delta();
    assert!(outcomes.iter().all(|outcome| *outcome == CheckOutcome::Consistent));
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
