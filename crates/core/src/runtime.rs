//! The deterministic execution runtime: scheduling monitors against the
//! adversary.
//!
//! The paper's adversary A controls both the content of the responses and the
//! *times* at which all events occur (Section 3).  The content half is a
//! [`drv_adversary::Behavior`]; this module is the timing half: it runs the
//! `n` local monitors of a [`MonitorFamily`] through the loop of Figure 1,
//! one *phase* at a time, in an order chosen by a [`Schedule`].
//!
//! Phases per iteration (cf. DESIGN.md, "event granularity"):
//!
//! | phase | Figure 1 | Figure 6 (timed runs only) |
//! |---|---|---|
//! | `Pick` | lines 01–02 | — |
//! | `Send` | line 03 (the x(E) invocation event) | — |
//! | `Announce` | — | lines 01–02 (write `M[i]`) |
//! | `Exchange` | — | lines 03–04 (the inner exchange with A) |
//! | `ViewSnap` | — | lines 05–07 (snapshot `M`) |
//! | `Receive` | line 04 (the x(E) response event) | — |
//! | `Report` | lines 05–06 | — |
//!
//! Under Aτ the announce and the view snapshot fall strictly *inside* the
//! operation's x(E) interval, which is what makes the sketch x∼(E) shrink
//! operations rather than stretch them (Theorem 6.1).
//!
//! Only the `Send` and `Receive` phases contribute symbols to the input word
//! x(E); they are purely local to the process (no monitor shared-memory
//! access happens in them), which is precisely the asymmetry every
//! impossibility argument of the paper exploits: swapping the order of two
//! send/receive events of different processes changes x(E) but not the local
//! states of any process.
//!
//! Schedules are deterministic: [`Schedule::RoundRobin`],
//! [`Schedule::Random`] (seeded), [`Schedule::PhaseScript`] (explicit
//! process-per-phase script, used by the proof constructions) and
//! [`Schedule::WordScript`] (realize a given word as in Claim 3.1, producing
//! *tight* executions under Aτ).

use crate::monitor::MonitorFamily;
use crate::trace::{AdversaryMode, ExecutionTrace};
use crate::verdict::VerdictStream;
use drv_adversary::{Behavior, InvocationKey, TimedAdversary, TimedOp, View};
use crate::alphabet::SymbolSampler;
use drv_lang::{Invocation, ObjectKind, ProcId, Response, Word};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the runtime interleaves the processes' phases.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Cycle through the processes, one phase each.
    RoundRobin,
    /// Pick the next process uniformly at random (seeded, reproducible).
    Random {
        /// Seed of the schedule's random generator.
        seed: u64,
    },
    /// Explicit script: entry `k` is the process that advances its next
    /// phase at step `k`.  Once exhausted the schedule falls back to
    /// round-robin.  Used by the impossibility constructions, which need to
    /// control the order of individual send/receive events.
    PhaseScript(Vec<usize>),
    /// Realize the given word (Claim 3.1): for every invocation symbol the
    /// issuing process runs its `Pick`(+`Announce`)+`Send` phases back to
    /// back, for every response symbol it runs `Receive`(+`ViewSnap`)+
    /// `Report`.  The run ends when the word is exhausted.  Under Aτ the
    /// resulting executions are *tight*: x∼(E) = x(E).
    WordScript(Word),
}

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    n: usize,
    iterations: usize,
    schedule: Schedule,
    mode: AdversaryMode,
    sampler: SymbolSampler,
    sampler_seed: u64,
    mutator_stop_after: Option<usize>,
}

impl RunConfig {
    /// A configuration for `n` processes running `iterations` loop iterations
    /// each, with a round-robin schedule, the plain adversary A, and a
    /// 50/50 register sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, iterations: usize) -> Self {
        assert!(n > 0, "a run needs at least one process");
        RunConfig {
            n,
            iterations,
            schedule: Schedule::RoundRobin,
            mode: AdversaryMode::Plain,
            sampler: SymbolSampler::new(ObjectKind::Register),
            sampler_seed: 0xD15C0,
            mutator_stop_after: None,
        }
    }

    /// Sets the schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the timed adversary Aτ (views attached to responses).
    #[must_use]
    pub fn timed(mut self) -> Self {
        self.mode = AdversaryMode::Timed;
        self
    }

    /// Selects the plain adversary A.
    #[must_use]
    pub fn plain(mut self) -> Self {
        self.mode = AdversaryMode::Plain;
        self
    }

    /// Sets the invocation sampler used to resolve the non-deterministic pick
    /// of Figure 1 line 01 (ignored for invocations dictated by the
    /// behaviour).
    #[must_use]
    pub fn with_sampler(mut self, sampler: SymbolSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the sampler seed.
    #[must_use]
    pub fn with_sampler_seed(mut self, seed: u64) -> Self {
        self.sampler_seed = seed;
        self
    }

    /// After `iteration` iterations every process picks only observer
    /// invocations (reads/gets), so the eventual clauses of the eventual
    /// languages become testable on the finite run.
    #[must_use]
    pub fn stop_mutators_after(mut self, iteration: usize) -> Self {
        self.mutator_stop_after = Some(iteration);
        self
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Iterations per process.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The adversary mode.
    #[must_use]
    pub fn mode(&self) -> AdversaryMode {
        self.mode
    }
}

/// The phases of one loop iteration (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pick,
    Send,
    Announce,
    Exchange,
    ViewSnap,
    Receive,
    Report,
}

enum RuntimeAdversary {
    Plain(Box<dyn Behavior>),
    Timed(TimedAdversary<Box<dyn Behavior>>),
}

impl RuntimeAdversary {
    fn name(&self) -> String {
        match self {
            RuntimeAdversary::Plain(b) => b.name(),
            RuntimeAdversary::Timed(t) => t.name(),
        }
    }

    fn next_invocation(&mut self, proc: ProcId) -> Option<Invocation> {
        match self {
            RuntimeAdversary::Plain(b) => b.next_invocation(proc),
            RuntimeAdversary::Timed(t) => t.inner_mut().next_invocation(proc),
        }
    }

    fn response_ready(&self, proc: ProcId) -> bool {
        match self {
            RuntimeAdversary::Plain(b) => b.response_ready(proc),
            RuntimeAdversary::Timed(t) => t.inner().response_ready(proc),
        }
    }

    fn on_invoke(&mut self, proc: ProcId, invocation: &Invocation) {
        match self {
            RuntimeAdversary::Plain(b) => b.on_invoke(proc, invocation),
            RuntimeAdversary::Timed(t) => t.forward_invoke(proc, invocation),
        }
    }

    fn on_respond(&mut self, proc: ProcId) -> Response {
        match self {
            RuntimeAdversary::Plain(b) => b.on_respond(proc),
            RuntimeAdversary::Timed(t) => t.forward_respond(proc),
        }
    }
}

struct ProcState {
    monitor: Box<dyn crate::monitor::Monitor>,
    phase: Phase,
    iteration: usize,
    invocation: Option<Invocation>,
    key: Option<InvocationKey>,
    response: Option<Response>,
    view: Option<View>,
    sampler: SymbolSampler,
    observer_sampler: SymbolSampler,
    rng: StdRng,
    next_seq: u64,
    done: bool,
}

/// Runs a [`MonitorFamily`] against a behaviour under a [`RunConfig`],
/// producing an [`ExecutionTrace`].
///
/// # Panics
///
/// Panics when the family requires views (Figure 8/9 monitors) but the
/// configuration selects the plain adversary A.
#[must_use]
pub fn run(
    config: &RunConfig,
    family: &dyn MonitorFamily,
    behavior: Box<dyn Behavior>,
) -> ExecutionTrace {
    assert!(
        !(family.requires_views() && config.mode == AdversaryMode::Plain),
        "monitor family {} requires the timed adversary Aτ; call RunConfig::timed()",
        family.name()
    );
    let n = config.n;
    let mut adversary = match config.mode {
        AdversaryMode::Plain => RuntimeAdversary::Plain(behavior),
        AdversaryMode::Timed => RuntimeAdversary::Timed(TimedAdversary::new(n, behavior)),
    };
    let behavior_name = adversary.name();
    let monitors = family.spawn(n);
    assert_eq!(monitors.len(), n, "family spawned the wrong number of monitors");

    let mut procs: Vec<ProcState> = monitors
        .into_iter()
        .enumerate()
        .map(|(i, monitor)| ProcState {
            monitor,
            phase: Phase::Pick,
            iteration: 0,
            invocation: None,
            key: None,
            response: None,
            view: None,
            sampler: config.sampler.clone(),
            observer_sampler: config.sampler.clone().with_mutator_ratio(0.0),
            rng: StdRng::seed_from_u64(config.sampler_seed.wrapping_add(i as u64)),
            next_seq: 0,
            done: config.iterations == 0,
        })
        .collect();

    let mut word = Word::new();
    let mut verdicts = vec![VerdictStream::new(); n];
    let mut ops: Vec<TimedOp> = Vec::new();
    let mut events: Vec<(InvocationKey, bool)> = Vec::new();

    let mut schedule_rng = match &config.schedule {
        Schedule::Random { seed } => Some(StdRng::seed_from_u64(*seed)),
        _ => None,
    };
    let mut rr_next = 0usize;
    let mut script_pos = 0usize;
    let mut word_pos = 0usize;

    loop {
        if procs.iter().all(|p| p.done) {
            break;
        }
        // Under a word script the run is driven symbol by symbol and ends
        // with the script.
        if let Schedule::WordScript(script) = &config.schedule {
            if word_pos >= script.len() {
                break;
            }
            let symbol = &script.symbols()[word_pos];
            word_pos += 1;
            let pid = symbol.proc.index();
            if pid >= n || procs[pid].done {
                continue;
            }
            if symbol.is_invocation() {
                // Pick + Send: advance until the invocation symbol has been
                // emitted to x(E).
                let emitted = word.len() + 1;
                while word.len() < emitted && !procs[pid].done {
                    advance(
                        pid, &mut procs, &mut adversary, config, &mut word, &mut verdicts,
                        &mut ops, &mut events,
                    );
                }
            } else {
                // (Announce + Exchange + ViewSnap +) Receive + Report.
                while procs[pid].phase != Phase::Pick || procs[pid].invocation.is_some() {
                    if procs[pid].done {
                        break;
                    }
                    advance(
                        pid, &mut procs, &mut adversary, config, &mut word, &mut verdicts,
                        &mut ops, &mut events,
                    );
                }
            }
            continue;
        }

        let candidates: Vec<usize> = (0..n).filter(|&p| !procs[p].done).collect();
        // Prefer processes whose next phase does not require the behaviour to
        // produce a response it is not ready to give.
        let responding_phase = match config.mode {
            AdversaryMode::Plain => Phase::Receive,
            AdversaryMode::Timed => Phase::Exchange,
        };
        let unblocked: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&p| {
                procs[p].phase != responding_phase || adversary.response_ready(ProcId(p))
            })
            .collect();
        let pool = if unblocked.is_empty() { &candidates } else { &unblocked };

        let pid = match &config.schedule {
            Schedule::RoundRobin => pick_round_robin(pool, &mut rr_next, n),
            Schedule::Random { .. } => {
                let rng = schedule_rng.as_mut().expect("rng for random schedule");
                pool[rng.gen_range(0..pool.len())]
            }
            Schedule::PhaseScript(script) => {
                let mut chosen = None;
                while script_pos < script.len() {
                    let cand = script[script_pos];
                    script_pos += 1;
                    if pool.contains(&cand) {
                        chosen = Some(cand);
                        break;
                    }
                }
                chosen.unwrap_or_else(|| pick_round_robin(pool, &mut rr_next, n))
            }
            Schedule::WordScript(_) => unreachable!("handled above"),
        };
        advance(
            pid, &mut procs, &mut adversary, config, &mut word, &mut verdicts, &mut ops,
            &mut events,
        );
    }

    ExecutionTrace::new(
        n,
        config.mode,
        &*family.name(),
        behavior_name,
        word,
        verdicts,
        ops,
        events,
    )
}

fn pick_round_robin(pool: &[usize], rr_next: &mut usize, n: usize) -> usize {
    for _ in 0..n {
        let p = *rr_next % n;
        *rr_next += 1;
        if pool.contains(&p) {
            return p;
        }
    }
    pool[0]
}

/// Advances process `pid` by one phase.
#[allow(clippy::too_many_arguments)]
fn advance(
    pid: usize,
    procs: &mut [ProcState],
    adversary: &mut RuntimeAdversary,
    config: &RunConfig,
    word: &mut Word,
    verdicts: &mut [VerdictStream],
    ops: &mut Vec<TimedOp>,
    events: &mut Vec<(InvocationKey, bool)>,
) {
    let proc = ProcId(pid);
    let state = &mut procs[pid];
    match state.phase {
        Phase::Pick => {
            let invocation = adversary.next_invocation(proc).unwrap_or_else(|| {
                let stop = config
                    .mutator_stop_after
                    .is_some_and(|k| state.iteration >= k);
                if stop {
                    state.observer_sampler.sample(&mut state.rng)
                } else {
                    state.sampler.sample(&mut state.rng)
                }
            });
            state.monitor.before_send(&invocation);
            state.invocation = Some(invocation);
            state.phase = Phase::Send;
        }
        Phase::Send => {
            // The x(E) invocation event: the process sends its invocation to
            // the (timed) adversary.  Under Aτ the announce and the inner
            // exchange happen strictly *after* this event.
            let invocation = state.invocation.clone().expect("picked invocation");
            let key = InvocationKey {
                proc,
                seq: state.next_seq,
            };
            state.key = Some(key);
            state.next_seq += 1;
            word.invoke(proc, invocation.clone());
            events.push((key, true));
            state.phase = match config.mode {
                AdversaryMode::Plain => {
                    adversary.on_invoke(proc, &invocation);
                    Phase::Receive
                }
                AdversaryMode::Timed => Phase::Announce,
            };
        }
        Phase::Announce => {
            // Figure 6, lines 01–02.
            let invocation = state.invocation.clone().expect("picked invocation");
            if let RuntimeAdversary::Timed(timed) = adversary {
                let announced = timed.announce(proc, &invocation);
                debug_assert_eq!(Some(announced), state.key, "announce keys track operation keys");
                state.key = Some(announced);
            }
            state.phase = Phase::Exchange;
        }
        Phase::Exchange => {
            // Figure 6, lines 03–04: the exchange with the inner black box A.
            let invocation = state.invocation.clone().expect("picked invocation");
            adversary.on_invoke(proc, &invocation);
            state.response = Some(adversary.on_respond(proc));
            state.phase = Phase::ViewSnap;
        }
        Phase::ViewSnap => {
            // Figure 6, lines 05–07.
            if let RuntimeAdversary::Timed(timed) = adversary {
                state.view = Some(timed.snapshot_view(proc));
            }
            state.phase = Phase::Receive;
        }
        Phase::Receive => {
            // The x(E) response event: the process receives the (timed)
            // adversary's response.
            let response = match config.mode {
                AdversaryMode::Plain => adversary.on_respond(proc),
                AdversaryMode::Timed => state.response.clone().expect("inner exchange completed"),
            };
            let key = state.key.expect("key assigned at send");
            word.respond(proc, response.clone());
            events.push((key, false));
            state.response = Some(response);
            state.phase = Phase::Report;
        }
        Phase::Report => {
            let invocation = state.invocation.take().expect("picked invocation");
            let response = state.response.take().expect("received response");
            let view = state.view.take();
            let key = state.key.take().expect("key assigned at send");
            state
                .monitor
                .after_receive(&invocation, &response, view.as_ref());
            let verdict = state.monitor.report();
            verdicts[pid].push(verdict, state.iteration, word.len());
            ops.push(match view {
                Some(view) => TimedOp::complete(key, invocation, response, view),
                None => TimedOp {
                    key,
                    invocation,
                    response: Some(response),
                    view: None,
                },
            });
            state.iteration += 1;
            if state.iteration >= config.iterations {
                state.done = true;
            }
            state.phase = Phase::Pick;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ConstantFamily;
    use drv_adversary::{AtomicObject, ScriptedBehavior};
    use drv_consistency::languages::lin_reg;
    use drv_lang::{Response, WordBuilder};
    use drv_spec::Register;

    #[test]
    fn round_robin_run_produces_well_formed_words() {
        let config = RunConfig::new(3, 5);
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(Register::new())),
        );
        assert!(trace.word().is_well_formed_prefix());
        assert_eq!(trace.word().len(), 3 * 5 * 2);
        assert_eq!(trace.min_iterations(), 5);
        assert!(trace.is_member(&lin_reg(3)));
        for p in 0..3 {
            assert_eq!(trace.verdicts(p).no_count(), 0);
            assert_eq!(trace.verdicts(p).yes_count(), 5);
        }
    }

    #[test]
    fn random_schedules_are_reproducible() {
        let run_once = |seed| {
            let config = RunConfig::new(3, 10).with_schedule(Schedule::Random { seed });
            run(
                &config,
                &ConstantFamily::always_yes(),
                Box::new(AtomicObject::new(Register::new())),
            )
            .word()
            .clone()
        };
        assert_eq!(run_once(5).symbols(), run_once(5).symbols());
        assert_ne!(run_once(5).symbols(), run_once(6).symbols());
    }

    #[test]
    fn random_schedule_produces_concurrency() {
        let config = RunConfig::new(3, 20).with_schedule(Schedule::Random { seed: 11 });
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(Register::new())),
        );
        let ops = trace.word().operation_set();
        let concurrent_pairs = ops
            .iter()
            .flat_map(|a| ops.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.id < b.id && a.concurrent_with(b))
            .count();
        assert!(concurrent_pairs > 0, "expected some concurrency");
        assert!(trace.word().is_well_formed_prefix());
    }

    #[test]
    fn timed_runs_attach_views_and_sketches() {
        let config = RunConfig::new(2, 6).timed();
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(Register::new())),
        );
        assert_eq!(trace.mode(), AdversaryMode::Timed);
        assert!(trace.ops().iter().all(drv_adversary::TimedOp::is_complete));
        let sketch = trace.sketch().unwrap().expect("timed run has a sketch");
        assert!(sketch.is_well_formed_prefix());
        assert!(drv_adversary::precedence_preserved(trace.word(), &sketch));
    }

    #[test]
    fn word_script_realizes_claim_3_1() {
        // Any well-formed word is the input of some execution (Claim 3.1).
        let target = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(4), Response::Ack)
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(1), Response::Value(9)) // deliberately incorrect value
            .op(ProcId(0), Invocation::Read, Response::Value(4))
            .build();
        let behavior = ScriptedBehavior::from_word(&target, 2);
        let config = RunConfig::new(2, 100).with_schedule(Schedule::WordScript(target.clone()));
        let trace = run(&config, &ConstantFamily::always_yes(), Box::new(behavior));
        assert_eq!(trace.word().symbols(), target.symbols());
        assert!(!trace.is_member(&lin_reg(2)));
    }

    #[test]
    fn word_script_under_timed_adversary_is_tight() {
        let target = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(4), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(4))
            .build();
        let behavior = ScriptedBehavior::from_word(&target, 2);
        let config = RunConfig::new(2, 100)
            .timed()
            .with_schedule(Schedule::WordScript(target.clone()));
        let trace = run(&config, &ConstantFamily::always_yes(), Box::new(behavior));
        let sketch = trace.sketch().unwrap().expect("timed run has a sketch");
        // Tight executions: the sketch equals the input word.
        assert_eq!(sketch.symbols(), trace.word().symbols());
    }

    #[test]
    fn phase_script_controls_event_order() {
        // Two processes, one iteration each, plain mode: 4 phases per process
        // (Pick, Send, Receive, Report).  Schedule all of p0 first, then all
        // of p1: p0's operation precedes p1's.
        let script = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let config = RunConfig::new(2, 1).with_schedule(Schedule::PhaseScript(script));
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(Register::new())),
        );
        let ops = trace.word().operation_set();
        assert_eq!(ops.len(), 2);
        let first = ops.iter().find(|op| op.proc == ProcId(0)).unwrap();
        let second = ops.iter().find(|op| op.proc == ProcId(1)).unwrap();
        assert!(first.precedes(second));

        // Interleave sends and receives instead: the operations overlap.
        let script = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let config = RunConfig::new(2, 1).with_schedule(Schedule::PhaseScript(script));
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(Register::new())),
        );
        let ops = trace.word().operation_set();
        let first = ops.iter().find(|op| op.proc == ProcId(0)).unwrap();
        let second = ops.iter().find(|op| op.proc == ProcId(1)).unwrap();
        assert!(first.concurrent_with(second));
    }

    #[test]
    fn stop_mutators_after_freezes_the_cut() {
        let config = RunConfig::new(2, 20)
            .with_sampler(SymbolSampler::new(ObjectKind::Counter))
            .stop_mutators_after(5);
        let trace = run(
            &config,
            &ConstantFamily::always_yes(),
            Box::new(AtomicObject::new(drv_spec::Counter::new())),
        );
        // No mutator appears in the last three quarters of the word.
        let cut = trace.cut();
        assert!(cut <= trace.word().len() / 2 + 2);
        for symbol in &trace.word().symbols()[cut..] {
            if let Some(invocation) = symbol.invocation() {
                assert!(!invocation.is_mutator());
            }
        }
    }

    #[test]
    fn config_accessors() {
        let config = RunConfig::new(4, 7)
            .timed()
            .with_sampler_seed(3)
            .with_schedule(Schedule::Random { seed: 1 });
        assert_eq!(config.process_count(), 4);
        assert_eq!(config.iterations(), 7);
        assert_eq!(config.mode(), AdversaryMode::Timed);
        let config = config.plain();
        assert_eq!(config.mode(), AdversaryMode::Plain);
    }

    #[test]
    #[should_panic(expected = "requires the timed adversary")]
    fn view_requiring_family_needs_timed_mode() {
        struct NeedsViews;
        impl MonitorFamily for NeedsViews {
            fn name(&self) -> std::borrow::Cow<'_, str> {
                std::borrow::Cow::Borrowed("needs views")
            }
            fn spawn(&self, n: usize) -> Vec<Box<dyn crate::monitor::Monitor>> {
                ConstantFamily::always_yes().spawn(n)
            }
            fn requires_views(&self) -> bool {
                true
            }
        }
        let config = RunConfig::new(2, 1);
        let _ = run(
            &config,
            &NeedsViews,
            Box::new(AtomicObject::new(Register::new())),
        );
    }
}
