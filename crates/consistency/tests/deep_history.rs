//! Long histories: what the per-symbol cost and the stack depth of the
//! incremental engine must not depend on.
//!
//! A monitor owes a verdict after every symbol for as long as the monitored
//! object lives, so the cost of incorporating one completed operation must
//! not grow with the prefix already read.  Wall clocks are too noisy to
//! assert on; [`IncrementalChecker::maintenance_steps`] counts the witness
//! entries visited and the states replayed instead, and repeats exactly.

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
    for (writes, threads) in [(12_000u64, 1usize), (100_000, 1), (12_000, 2)] {
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut checker =
                    IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 2)
                        .with_parallel_fallback(threads);
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
        assert_eq!(
            *last,
            CheckOutcome::Inconsistent,
            "{writes} writes, {threads} threads"
        );
        // One search seeds the witness on the first symbol, one refutes the
        // stale read: a single path as deep as the history.
        assert_eq!(stats.dfs_runs, 2, "{stats:?}");
        assert!(stats.dfs_nodes > writes, "{stats:?}");
    }
}
