//! The Figure 8 monitor `V_O`: predictively strongly deciding `LIN_O` (and
//! `SC_O`) against Aτ (Theorem 6.2).
//!
//! Each process accumulates its completed operations — invocation, response
//! and the view Aτ attached to the response — in a shared array `M`.  Every
//! iteration it writes its set, snapshots `M`, locally reconstructs a finite
//! history `hᵢ` from all the triples it saw (the Appendix B sketch
//! construction) and reports YES exactly when `hᵢ` is linearizable (resp.
//! sequentially consistent) with respect to the sequential object `O`.
//!
//! Correctness (Theorem 8.1 of \[17\], restated as Theorem 6.2): if x(E) is
//! not linearizable then neither is the sketch, and because linearizability
//! is prefix-closed every process eventually reports NO forever; if x(E) is
//! linearizable, any NO is justified by the sketch x∼(E) — a behaviour Aτ
//! could genuinely have produced — being non-linearizable.
//!
//! # The incremental hot path
//!
//! Run literally, the loop above costs Θ(iterations × full check): every
//! iteration re-clones the whole of `M`, rebuilds the sketch and re-searches
//! for a linearization from scratch.  This implementation keeps the
//! paper's algorithm observably intact but makes the per-iteration cost
//! O(delta) in the common case:
//!
//! * the publish step appends in place ([`SharedArray::update`]) instead of
//!   rewriting the whole entry, and the snapshot step uses
//!   [`SharedArray::snapshot_since`], so only entries other processes
//!   actually changed since the previous iteration are cloned into a local
//!   mirror;
//! * the sketch is maintained by an [`IncrementalSketch`]: only the
//!   operations new in the delta are validated and appended (views grow
//!   monotonically along an Aτ execution, so in-order pushes only extend
//!   the word), instead of re-validating every pair of views and rebuilding
//!   the word from nothing each iteration;
//! * the consistency check goes through a long-lived
//!   [`IncrementalChecker`]: since the sketch only ever grows, the engine
//!   splices the new operations into its preserved witness instead of
//!   re-running the Wing–Gong search; in the rare non-extension case (an
//!   out-of-order publish under the threaded runtime) both structures
//!   transparently rebuild, so verdicts are *bit-identical* to the
//!   from-scratch checker either way (see `drv_consistency::incremental`).
//!
//! The from-scratch path is kept behind [`CheckStrategy::FromScratch`] for
//! differential tests and the `BENCH_checker.json` baseline.

use crate::monitor::{Monitor, MonitorFamily};
use crate::verdict::Verdict;
use drv_adversary::{IncrementalSketch, InvocationKey, TimedOp, View};
use drv_consistency::{
    check_history, CheckerConfig, CheckerStats, ConcurrentHistory, IncrementalChecker,
};
use drv_lang::{Invocation, ProcId, Response, Word};
use drv_shmem::SharedArray;
use drv_spec::SequentialSpec;
use std::borrow::Cow;

/// Which consistency criterion the reconstructed history is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Linearizability (Definitions 2.4/2.6, language `LIN_O`).
    Linearizable,
    /// Sequential consistency (Definitions 2.3/2.5, language `SC_O`).
    SequentiallyConsistent,
}

impl Criterion {
    fn label(self) -> &'static str {
        match self {
            Criterion::Linearizable => "LIN",
            Criterion::SequentiallyConsistent => "SC",
        }
    }

    fn checker_config(self) -> CheckerConfig {
        match self {
            Criterion::Linearizable => CheckerConfig::linearizability(),
            Criterion::SequentiallyConsistent => CheckerConfig::sequential_consistency(),
        }
    }
}

/// How [`PredictiveMonitor::report`] checks the reconstructed history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckStrategy {
    /// Feed the sketch to a long-lived [`IncrementalChecker`] that reuses
    /// the previous iteration's witness, frontier and memo table (amortized
    /// O(delta) per iteration).  The default.
    #[default]
    Incremental,
    /// Rebuild a [`ConcurrentHistory`] and run [`check_history`] from
    /// scratch every iteration, exactly as Figure 8 reads.  Kept for
    /// differential testing and as the benchmark baseline.
    FromScratch,
}

/// The per-process local algorithm of Figure 8.
#[derive(Debug)]
pub struct PredictiveMonitor<S: SequentialSpec> {
    proc: ProcId,
    n: usize,
    spec: S,
    criterion: Criterion,
    config: CheckerConfig,
    strategy: CheckStrategy,
    published: SharedArray<Vec<TimedOp>>,
    /// Per-entry cursors into `M` (entries are append-only logs): only the
    /// operations published past them are cloned on the next iteration.
    cursors: Vec<usize>,
    /// Local mirror of `M`, grown from suffix deltas; only read back in
    /// full on the rare sketch rebuild.
    mirror: Vec<Vec<TimedOp>>,
    /// The incrementally grown hᵢ; `sketch_ok` is false while the published
    /// views are inconsistent (no sketch exists, report NO).
    sketch: IncrementalSketch,
    sketch_ok: bool,
    /// Whether the current sketch word is an in-place extension of the last
    /// word the checker consumed (false after a sketch rebuild, until the
    /// checker re-syncs).
    checker_in_sync: bool,
    next_seq: u64,
    checker: IncrementalChecker<S>,
    name: String,
}

impl<S: SequentialSpec + Clone> PredictiveMonitor<S> {
    /// Creates the local monitor of process `proc`.
    #[must_use]
    pub fn new(
        proc: ProcId,
        n: usize,
        spec: S,
        criterion: Criterion,
        max_states: usize,
        published: SharedArray<Vec<TimedOp>>,
    ) -> Self {
        let config = criterion.checker_config().with_max_states(max_states);
        let name = format!("V_O ({} {}) at {}", criterion.label(), spec.name(), proc);
        let checker = IncrementalChecker::new(spec.clone(), config, n);
        PredictiveMonitor {
            proc,
            n,
            spec,
            criterion,
            config,
            strategy: CheckStrategy::default(),
            published,
            cursors: Vec::new(),
            mirror: vec![Vec::new(); n],
            sketch: IncrementalSketch::new(),
            sketch_ok: true,
            checker_in_sync: true,
            next_seq: 0,
            checker,
            name,
        }
    }

    /// Selects how [`PredictiveMonitor::report`] checks the history.
    #[must_use]
    pub fn with_strategy(mut self, strategy: CheckStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The criterion this monitor checks.
    #[must_use]
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// The finite history `hᵢ` the process reconstructed in its latest
    /// iteration, if any (none while the operations it saw carry
    /// inconsistent views, or before the first iteration).
    #[must_use]
    pub fn local_history(&self) -> Option<&Word> {
        (self.sketch_ok && !self.sketch.word().is_empty()).then(|| self.sketch.word())
    }

    /// Folds the operations the suffix delta delivered into the sketch:
    /// the in-order extension path first, one sorted rebuild if the batch
    /// arrived out of containment order, `sketch_ok = false` if the views
    /// are genuinely inconsistent.
    fn absorb(&mut self, appended: Vec<(usize, usize, Vec<TimedOp>)>) {
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for (i, start, ops) in appended {
            // The mirror may be ahead of the shared entry's cursor only if
            // somebody rewrote an entry non-append-only, which the monitors
            // never do; truncate defensively so extend stays correct.
            self.mirror[i].truncate(start);
            self.mirror[i].extend(ops);
            fresh.push((i, start));
        }
        let mut batch: Vec<&TimedOp> = fresh
            .iter()
            .flat_map(|&(i, start)| self.mirror[i][start..].iter())
            .collect();
        batch.sort_by_key(|op| op.view.as_ref().map_or(0, drv_adversary::View::len));
        let mut rebuild = false;
        if self.sketch_ok {
            for op in batch {
                match self.sketch.push_op(op) {
                    Ok(()) => {}
                    Err(_) => {
                        rebuild = true;
                        break;
                    }
                }
            }
        } else {
            // A previous batch was inconsistent; newly arrived views may
            // resolve or re-confirm that — re-examine everything.
            rebuild = true;
        }
        if rebuild {
            self.checker_in_sync = false;
            match IncrementalSketch::from_ops(self.mirror.iter().flatten()) {
                Ok(sketch) => {
                    self.sketch = sketch;
                    self.sketch_ok = true;
                }
                Err(_) => self.sketch_ok = false,
            }
        }
    }

    /// The incremental engine's fast-path/fallback counters (all zero under
    /// [`CheckStrategy::FromScratch`]).
    #[must_use]
    pub fn checker_stats(&self) -> CheckerStats {
        self.checker.stats()
    }
}

impl<S: SequentialSpec + Clone> Monitor for PredictiveMonitor<S> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, _invocation: &Invocation) {
        // Figure 8, line 02: no communication is needed before sending.
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        view: Option<&View>,
    ) {
        // Figure 8, line 05: publish the triple, snapshot M, rebuild hᵢ.
        // The publish appends in place and the snapshot delivers only the
        // entries that changed since the previous iteration.
        let view = view
            .cloned()
            .expect("the Figure 8 monitor runs against the timed adversary Aτ");
        let key = InvocationKey {
            proc: self.proc,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let op = TimedOp::complete(key, invocation.clone(), response.clone(), view);
        self.published.update(self.proc.index(), |ops| ops.push(op));
        let delta = self.published.snapshot_appended_since(&self.cursors);
        self.cursors = delta.lens;
        self.absorb(delta.appended);
    }

    fn report(&mut self) -> Verdict {
        // Figure 8, line 06: YES iff hᵢ is consistent with O.  No history
        // reconstructed yet (first iteration pending) or inconsistent views
        // → NO, as before the incremental port.
        if !self.sketch_ok || self.sketch.word().is_empty() {
            return Verdict::No;
        }
        let history = self.sketch.word();
        let consistent = match self.strategy {
            CheckStrategy::Incremental => {
                // The in-place-grown sketch is an extension of what the
                // checker last consumed, so the O(history) extension test
                // is skipped; after a sketch rebuild one checked call
                // re-syncs the engine.
                let outcome = if self.checker_in_sync {
                    self.checker.check_word_extension_outcome(history)
                } else {
                    self.checker.check_word_outcome(history)
                };
                self.checker_in_sync = true;
                outcome.is_consistent()
            }
            CheckStrategy::FromScratch => {
                let concurrent = ConcurrentHistory::from_word(history, self.n);
                check_history(&self.spec, &concurrent, &self.config).is_consistent()
            }
        };
        if consistent {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
}

/// The distributed monitor of Figure 8, generic over the sequential object.
#[derive(Debug, Clone)]
pub struct PredictiveFamily<S> {
    spec: S,
    criterion: Criterion,
    max_states: usize,
    strategy: CheckStrategy,
    name: String,
}

impl<S: SequentialSpec + Clone> PredictiveFamily<S> {
    fn build(spec: S, criterion: Criterion) -> Self {
        let name = format!(
            "Figure 8 (V_O, {} {}, predictive strong)",
            criterion.label(),
            spec.name()
        );
        PredictiveFamily {
            spec,
            criterion,
            max_states: 200_000,
            strategy: CheckStrategy::default(),
            name,
        }
    }

    /// The linearizability monitor `V_O` for object `spec`.
    #[must_use]
    pub fn linearizable(spec: S) -> Self {
        PredictiveFamily::build(spec, Criterion::Linearizable)
    }

    /// The sequential-consistency variant of `V_O`.
    #[must_use]
    pub fn sequentially_consistent(spec: S) -> Self {
        PredictiveFamily::build(spec, Criterion::SequentiallyConsistent)
    }

    /// Bounds the state budget of the per-iteration consistency check.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Selects how the spawned monitors check their histories (incremental
    /// by default).
    #[must_use]
    pub fn with_strategy(mut self, strategy: CheckStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The criterion this family checks.
    #[must_use]
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }

    /// The checking strategy the spawned monitors use.
    #[must_use]
    pub fn strategy(&self) -> CheckStrategy {
        self.strategy
    }
}

impl<S: SequentialSpec + Clone + 'static> MonitorFamily for PredictiveFamily<S> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let published = SharedArray::new(n, Vec::new());
        ProcId::all(n)
            .map(|proc| {
                Box::new(
                    PredictiveMonitor::new(
                        proc,
                        n,
                        self.spec.clone(),
                        self.criterion,
                        self.max_states,
                        published.clone(),
                    )
                    .with_strategy(self.strategy),
                ) as Box<dyn Monitor>
            })
            .collect()
    }

    fn requires_views(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::decidability::{Decider, Notion};
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, ReplicatedLedger, StaleReadRegister};
    use drv_consistency::languages::{lin_led, lin_reg, sc_reg};
    use drv_lang::ObjectKind;
    use drv_spec::{Ledger, Register};
    use std::sync::Arc;

    fn register_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Register).with_mutator_ratio(0.5))
            .with_sampler_seed(seed.wrapping_mul(7))
    }

    #[test]
    fn atomic_register_runs_satisfy_psd() {
        for seed in [2, 5, 8] {
            let config = register_config(3, 25, seed);
            let trace = run(
                &config,
                &PredictiveFamily::linearizable(Register::new()),
                Box::new(AtomicObject::new(Register::new())),
            );
            assert!(trace.is_member(&lin_reg(3)), "atomic register is linearizable");
            let decider = Decider::new(Arc::new(lin_reg(3)));
            let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
            assert!(evaluation.holds, "seed {seed}: {evaluation}");
        }
    }

    #[test]
    fn stale_register_is_reported() {
        let config = register_config(2, 30, 3);
        let trace = run(
            &config,
            &PredictiveFamily::linearizable(Register::new()),
            Box::new(StaleReadRegister::new(3, 2)),
        );
        let decider = Decider::new(Arc::new(lin_reg(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");
        // The behaviour really is non-linearizable on this run, and the
        // monitor catches it.
        assert!(!trace.is_member(&lin_reg(2)));
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn sequential_consistency_variant_accepts_sc_runs() {
        let config = register_config(2, 25, 6);
        let trace = run(
            &config,
            &PredictiveFamily::sequentially_consistent(Register::new()),
            Box::new(AtomicObject::new(Register::new())),
        );
        assert!(trace.is_member(&sc_reg(2)));
        let decider = Decider::new(Arc::new(sc_reg(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn ledger_monitor_rejects_eventually_consistent_ledger() {
        // A replicated (eventually-consistent) ledger lags behind appends, so
        // its histories are usually not linearizable; V_O must keep flagging
        // it, and the verdict is legitimate because the input itself is not
        // in LIN_LED.
        let config = RunConfig::new(2, 25)
            .timed()
            .with_schedule(Schedule::Random { seed: 12 })
            .with_sampler(SymbolSampler::new(ObjectKind::Ledger).with_mutator_ratio(0.5))
            .with_sampler_seed(99);
        let trace = run(
            &config,
            &PredictiveFamily::linearizable(Ledger::new()),
            Box::new(ReplicatedLedger::new(4)),
        );
        let decider = Decider::new(Arc::new(lin_led(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn ledger_monitor_accepts_atomic_ledger() {
        let config = RunConfig::new(2, 20)
            .timed()
            .with_schedule(Schedule::Random { seed: 14 })
            .with_sampler(SymbolSampler::new(ObjectKind::Ledger).with_mutator_ratio(0.5))
            .with_sampler_seed(7);
        let trace = run(
            &config,
            &PredictiveFamily::linearizable(Ledger::new()),
            Box::new(AtomicObject::new(Ledger::new())),
        );
        assert!(trace.is_member(&lin_led(2)));
        let decider = Decider::new(Arc::new(lin_led(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn queue_and_stack_monitors_work_for_any_total_object() {
        // Queues and stacks are the objects for which [17] proved the
        // original strong-decidability impossibility; V_O is generic over any
        // total sequential object, so the same monitor machinery covers them.
        use drv_consistency::languages::{lin_queue, lin_stack};
        use drv_spec::{Queue, Stack};

        let queue_config = RunConfig::new(2, 18)
            .timed()
            .with_schedule(Schedule::Random { seed: 4 })
            .with_sampler(SymbolSampler::new(ObjectKind::Queue).with_mutator_ratio(0.5))
            .with_sampler_seed(40);
        let trace = run(
            &queue_config,
            &PredictiveFamily::linearizable(Queue::new()),
            Box::new(AtomicObject::new(Queue::new())),
        );
        assert!(trace.is_member(&lin_queue(2)));
        let decider = Decider::new(Arc::new(lin_queue(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");

        let stack_config = RunConfig::new(2, 18)
            .timed()
            .with_schedule(Schedule::Random { seed: 6 })
            .with_sampler(SymbolSampler::new(ObjectKind::Stack).with_mutator_ratio(0.5))
            .with_sampler_seed(41);
        let trace = run(
            &stack_config,
            &PredictiveFamily::linearizable(Stack::new()),
            Box::new(AtomicObject::new(Stack::new())),
        );
        assert!(trace.is_member(&lin_stack(2)));
        let decider = Decider::new(Arc::new(lin_stack(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn strategies_agree_verdict_for_verdict() {
        // The runtime is deterministic per seed, so the same run driven by
        // the incremental and the from-scratch strategy must produce exactly
        // the same verdict streams — the engine is a pure speedup.
        type MakeBehavior = fn() -> Box<dyn drv_adversary::Behavior>;
        let cases: [(u64, MakeBehavior); 3] = [
            (2, || Box::new(AtomicObject::new(Register::new()))),
            (5, || Box::new(AtomicObject::new(Register::new()))),
            (3, || Box::new(StaleReadRegister::new(3, 2))),
        ];
        for (seed, make) in cases {
            let config = register_config(3, 25, seed);
            let scratch = run(
                &config,
                &PredictiveFamily::linearizable(Register::new())
                    .with_strategy(CheckStrategy::FromScratch),
                make(),
            );
            let incremental = run(
                &config,
                &PredictiveFamily::linearizable(Register::new()),
                make(),
            );
            for p in 0..3 {
                let s: Vec<Verdict> =
                    scratch.verdicts(p).reports().iter().map(|r| r.verdict).collect();
                let i: Vec<Verdict> =
                    incremental.verdicts(p).reports().iter().map(|r| r.verdict).collect();
                assert_eq!(s, i, "seed {seed}, process {p}");
            }
        }
    }

    #[test]
    fn incremental_strategy_uses_witness_maintenance() {
        // A single-process run of writes: the sketch grows by one operation
        // per iteration, so after the initial search every check must be
        // answered by witness splicing, not by fresh DFS runs.
        let published = SharedArray::new(1, Vec::new());
        let mut monitor = PredictiveMonitor::new(
            ProcId(0),
            1,
            Register::new(),
            Criterion::Linearizable,
            10_000,
            published,
        );
        let mut view = drv_adversary::View::new();
        for i in 0..10u64 {
            let key = InvocationKey {
                proc: ProcId(0),
                seq: i,
            };
            view.insert(key, Invocation::Write(i + 1));
            monitor.after_receive(&Invocation::Write(i + 1), &Response::Ack, Some(&view));
            assert_eq!(monitor.report(), Verdict::Yes);
        }
        let stats = monitor.checker_stats();
        assert_eq!(stats.checks, 10);
        assert!(stats.dfs_runs <= 1, "{stats:?}");
        assert!(stats.rebuilds == 0, "{stats:?}");
        assert!(stats.splices >= 8, "{stats:?}");
    }

    #[test]
    fn family_metadata_and_local_history() {
        let family = PredictiveFamily::linearizable(Register::new()).with_max_states(1000);
        assert!(family.requires_views());
        assert_eq!(family.criterion(), Criterion::Linearizable);
        assert!(family.name().contains("Figure 8"));
        let sc = PredictiveFamily::sequentially_consistent(Register::new());
        assert_eq!(sc.criterion(), Criterion::SequentiallyConsistent);
        assert!(sc.name().contains("SC"));

        let published = SharedArray::new(1, Vec::new());
        let mut monitor = PredictiveMonitor::new(
            ProcId(0),
            1,
            Register::new(),
            Criterion::Linearizable,
            10_000,
            published,
        );
        assert!(monitor.local_history().is_none());
        assert_eq!(monitor.report(), Verdict::No);
        monitor.before_send(&Invocation::Write(1));
        let mut view = drv_adversary::View::new();
        view.insert(
            InvocationKey {
                proc: ProcId(0),
                seq: 0,
            },
            Invocation::Write(1),
        );
        monitor.after_receive(&Invocation::Write(1), &Response::Ack, Some(&view));
        assert!(monitor.local_history().is_some());
        assert_eq!(monitor.report(), Verdict::Yes);
        assert!(monitor.name().contains("LIN"));
    }
}
