//! A real-thread runtime: the monitors under genuine OS concurrency.
//!
//! The deterministic runtime of [`crate::runtime`] is what the experiments
//! use (the proof constructions need exact control over interleavings), but
//! the monitors themselves are ordinary wait-free shared-memory algorithms;
//! this module runs them on one OS thread per process against a behaviour
//! protected by a lock, with the interleaving chosen by the operating system
//! scheduler.  It demonstrates that nothing in the monitor implementations
//! depends on the simulator, and it is the substrate for the
//! concurrency-soundness integration tests.
//!
//! The produced [`ExecutionTrace`] is assembled from a global event log: the
//! order of send/receive events in the log is the order in which they
//! happened (each is recorded while the behaviour lock is held), so the trace
//! is a faithful input word of the real execution.

use crate::monitor::MonitorFamily;
use crate::trace::{AdversaryMode, ExecutionTrace};
use crate::verdict::VerdictStream;
use drv_adversary::{Behavior, InvocationKey, TimedAdversary, TimedOp, View};
use crate::alphabet::SymbolSampler;
use drv_lang::{ObjectKind, ProcId, Word};
pub use drv_lang::WorkerPanic;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::thread;

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    n: usize,
    iterations: usize,
    mode: AdversaryMode,
    sampler: SymbolSampler,
    sampler_seed: u64,
    mutator_stop_after: Option<usize>,
}

impl ThreadedConfig {
    /// A configuration for `n` threads running `iterations` iterations each,
    /// against the plain adversary, with a register sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, iterations: usize) -> Self {
        assert!(n > 0, "a run needs at least one process");
        ThreadedConfig {
            n,
            iterations,
            mode: AdversaryMode::Plain,
            sampler: SymbolSampler::new(ObjectKind::Register),
            sampler_seed: 0xBEEF,
            mutator_stop_after: None,
        }
    }

    /// Selects the timed adversary Aτ.
    #[must_use]
    pub fn timed(mut self) -> Self {
        self.mode = AdversaryMode::Timed;
        self
    }

    /// Sets the invocation sampler.
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

    /// Stops picking mutator invocations after the given iteration: every
    /// process completes its iterations before it, then they all start the
    /// observer-only ones together.
    #[must_use]
    pub fn stop_mutators_after(mut self, iteration: usize) -> Self {
        self.mutator_stop_after = Some(iteration);
        self
    }
}

enum SharedAdversary {
    Plain(Box<dyn Behavior>),
    Timed(TimedAdversary<Box<dyn Behavior>>),
}

struct EventLog {
    word: Word,
    events: Vec<(InvocationKey, bool)>,
    ops: Vec<TimedOp>,
}

/// The end of the mutator phase: every process passes it before its first
/// observer-only iteration, so the last mutator of the run completes before
/// any process starts the observer-only suffix.  A worker that panics breaks
/// it and so releases the others.
struct PhaseBarrier {
    /// `(processes arrived, broken)`.
    state: Mutex<(usize, bool)>,
    opened: Condvar,
    n: usize,
}

impl PhaseBarrier {
    fn new(n: usize) -> Self {
        PhaseBarrier {
            state: Mutex::new((0, false)),
            opened: Condvar::new(),
            n,
        }
    }

    /// Waits until all `n` processes arrived or one broke the barrier.
    fn wait(&self) {
        let mut state = self.state.lock();
        state.0 += 1;
        if state.0 == self.n {
            self.opened.notify_all();
        }
        while state.0 < self.n && !state.1 {
            self.opened.wait(&mut state);
        }
    }

    fn break_open(&self) {
        self.state.lock().1 = true;
        self.opened.notify_all();
    }
}

/// Breaks the barrier when dropped by a panicking worker.
struct BreakOnPanic(Arc<PhaseBarrier>);

impl Drop for BreakOnPanic {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.break_open();
        }
    }
}

/// Runs `family` against `behavior` on real OS threads.
///
/// # Panics
///
/// Panics when the family requires views but the configuration selects the
/// plain adversary, or when a worker thread panics — the panic message is a
/// [`WorkerPanic`] rendering naming the panicking process index.  Use
/// [`try_run_threaded`] to handle worker panics as values instead.
#[must_use]
pub fn run_threaded(
    config: &ThreadedConfig,
    family: &dyn MonitorFamily,
    behavior: Box<dyn Behavior>,
) -> ExecutionTrace {
    match try_run_threaded(config, family, behavior) {
        Ok(trace) => trace,
        Err(panic) => panic!("{panic}"),
    }
}

/// [`run_threaded`], with worker panics surfaced as a [`WorkerPanic`] naming
/// the panicking process instead of an opaque join failure.
///
/// # Panics
///
/// Panics when the family requires views but the configuration selects the
/// plain adversary (a configuration error, not a worker failure).
pub fn try_run_threaded(
    config: &ThreadedConfig,
    family: &dyn MonitorFamily,
    behavior: Box<dyn Behavior>,
) -> Result<ExecutionTrace, WorkerPanic> {
    assert!(
        !(family.requires_views() && config.mode == AdversaryMode::Plain),
        "monitor family {} requires the timed adversary Aτ; call ThreadedConfig::timed()",
        family.name()
    );
    let n = config.n;
    let adversary = Arc::new(Mutex::new(match config.mode {
        AdversaryMode::Plain => SharedAdversary::Plain(behavior),
        AdversaryMode::Timed => SharedAdversary::Timed(TimedAdversary::new(n, behavior)),
    }));
    let behavior_name = match &*adversary.lock() {
        SharedAdversary::Plain(b) => b.name(),
        SharedAdversary::Timed(t) => t.name(),
    };
    let log = Arc::new(Mutex::new(EventLog {
        word: Word::new(),
        events: Vec::new(),
        ops: Vec::new(),
    }));

    let monitors = family.spawn(n);
    assert_eq!(monitors.len(), n, "family spawned the wrong number of monitors");
    let phase = Arc::new(PhaseBarrier::new(n));

    let mut handles = Vec::with_capacity(n);
    for (pid, mut monitor) in monitors.into_iter().enumerate() {
        let adversary = Arc::clone(&adversary);
        let log = Arc::clone(&log);
        let mut sampler = config.sampler.clone();
        let mut observer_sampler = config.sampler.clone().with_mutator_ratio(0.0);
        let mut rng = StdRng::seed_from_u64(config.sampler_seed.wrapping_add(pid as u64));
        let iterations = config.iterations;
        let mutator_stop_after = config.mutator_stop_after;
        let mode = config.mode;
        let phase = BreakOnPanic(Arc::clone(&phase));
        handles.push(thread::spawn(move || {
            let proc = ProcId(pid);
            let mut verdicts = VerdictStream::new();
            for iteration in 0..iterations {
                if mutator_stop_after == Some(iteration) {
                    phase.0.wait();
                }
                // Figure 1, lines 01–02.
                let invocation = {
                    let mut guard = adversary.lock();
                    let dictated = match &mut *guard {
                        SharedAdversary::Plain(b) => b.next_invocation(proc),
                        SharedAdversary::Timed(t) => t.inner_mut().next_invocation(proc),
                    };
                    dictated.unwrap_or_else(|| {
                        if mutator_stop_after.is_some_and(|k| iteration >= k) {
                            observer_sampler.sample(&mut rng)
                        } else {
                            sampler.sample(&mut rng)
                        }
                    })
                };
                monitor.before_send(&invocation);

                // Figure 1, line 03: the x(E) invocation event is the send to
                // the (timed) adversary, logged *before* the Figure 6 code
                // runs so that announce and snapshot fall inside the
                // operation's interval (Theorem 6.1).
                let key = InvocationKey {
                    proc,
                    seq: iteration as u64,
                };
                {
                    let mut log = log.lock();
                    log.word.invoke(proc, invocation.clone());
                    log.events.push((key, true));
                }

                // Figure 6, lines 01–03: announce and forward to the inner A.
                {
                    let mut guard = adversary.lock();
                    match &mut *guard {
                        SharedAdversary::Plain(b) => b.on_invoke(proc, &invocation),
                        SharedAdversary::Timed(t) => {
                            let announced = t.announce(proc, &invocation);
                            debug_assert_eq!(announced, key);
                            t.forward_invoke(proc, &invocation);
                        }
                    }
                }

                thread::yield_now();

                // Figure 6, lines 04–07 and Figure 1, line 04: obtain the
                // inner response, snapshot the announce array, and log the
                // x(E) response event.
                let (response, view): (_, Option<View>) = {
                    let mut guard = adversary.lock();
                    let (response, view) = match &mut *guard {
                        SharedAdversary::Plain(b) => (b.on_respond(proc), None),
                        SharedAdversary::Timed(t) => {
                            let response = t.forward_respond(proc);
                            let view = t.snapshot_view(proc);
                            (response, Some(view))
                        }
                    };
                    let mut log = log.lock();
                    log.word.respond(proc, response.clone());
                    log.events.push((key, false));
                    (response, view)
                };
                debug_assert_eq!(view.is_some(), mode == AdversaryMode::Timed);

                // Figure 1, lines 05–06.
                monitor.after_receive(&invocation, &response, view.as_ref());
                let verdict = monitor.report();
                let word_len = {
                    let mut log = log.lock();
                    log.ops.push(match view.clone() {
                        Some(view) => {
                            TimedOp::complete(key, invocation.clone(), response.clone(), view)
                        }
                        None => TimedOp {
                            key,
                            invocation: invocation.clone(),
                            response: Some(response.clone()),
                            view: None,
                        },
                    });
                    log.word.len()
                };
                verdicts.push(verdict, iteration, word_len);
            }
            verdicts
        }));
    }

    let mut all_verdicts = Vec::with_capacity(n);
    let mut first_panic: Option<WorkerPanic> = None;
    for (pid, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(verdicts) => all_verdicts.push(verdicts),
            Err(payload) => {
                // Join the remaining workers before reporting, so no thread
                // outlives the call; the lowest process index wins.
                let panic = WorkerPanic::from_payload("monitor process", pid, payload);
                first_panic.get_or_insert(panic);
            }
        }
    }
    if let Some(panic) = first_panic {
        return Err(panic);
    }
    let log = Arc::try_unwrap(log)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| {
            let guard = arc.lock();
            EventLog {
                word: guard.word.clone(),
                events: guard.events.clone(),
                ops: guard.ops.clone(),
            }
        });
    Ok(ExecutionTrace::new(
        n,
        config.mode,
        &*family.name(),
        behavior_name,
        log.word,
        all_verdicts,
        log.ops,
        log.events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::{SecCountFamily, WecCountFamily};
    use drv_adversary::AtomicObject;
    use drv_consistency::{check_sec_realtime, check_wec_safety};
    use drv_spec::Counter;

    // Note: the threaded runtime has no fairness guarantees (per-thread
    // progress can be arbitrarily skewed by the OS scheduler), so these
    // tests assert only schedule-independent properties: well-formedness,
    // the safety clauses of the counter languages, and Theorem 6.1(1).
    // Quiescence/decidability evaluations are exercised by the deterministic
    // runtime, where the schedule is controlled.

    #[test]
    fn threaded_runs_produce_well_formed_words() {
        let config = ThreadedConfig::new(3, 30)
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .stop_mutators_after(15);
        let trace = run_threaded(
            &config,
            &WecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        assert!(trace.word().is_well_formed_prefix());
        assert_eq!(trace.word().len(), 3 * 30 * 2);
        assert_eq!(trace.min_iterations(), 30);
        // The safety clauses of the weakly-eventual counter hold on every
        // interleaving of a correct atomic counter.
        assert!(check_wec_safety(trace.word()).is_ok());
        // A latching (conclusive) safety flag would make the final verdict
        // NO forever; a correct service never triggers it, so at least the
        // final report of some process is not a latched NO.  (The
        // inconclusive convergence clause may fire at any time, so nothing
        // stronger is schedule-independent.)
        assert!(trace.all_verdicts().iter().all(|s| s.len() == 30));
    }

    #[test]
    fn threaded_timed_runs_attach_consistent_views() {
        let config = ThreadedConfig::new(3, 20)
            .timed()
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .stop_mutators_after(10);
        let trace = run_threaded(
            &config,
            &SecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        // The real-time clause (4) holds on every interleaving of a correct
        // atomic counter, and the sketch only ever shrinks operations.
        assert!(check_wec_safety(trace.word()).is_ok());
        assert!(check_sec_realtime(trace.word()).is_ok());
        let sketch = trace.sketch().unwrap().expect("timed run has a sketch");
        assert!(sketch.is_well_formed_prefix());
        assert!(drv_adversary::precedence_preserved(trace.word(), &sketch));
    }

    #[test]
    #[should_panic(expected = "requires the timed adversary")]
    fn threaded_runtime_checks_view_requirements() {
        let config = ThreadedConfig::new(2, 5);
        let _ = run_threaded(
            &config,
            &SecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
    }

    #[test]
    fn worker_panics_surface_the_process_index() {
        use crate::monitor::Monitor;
        use crate::verdict::Verdict;
        use drv_lang::{Invocation, Response};
        use std::borrow::Cow;

        // A family whose process 1 panics on its third report.
        struct FaultyMonitor {
            proc: ProcId,
            reports: usize,
        }
        impl Monitor for FaultyMonitor {
            fn name(&self) -> Cow<'_, str> {
                Cow::Borrowed("faulty")
            }
            fn proc(&self) -> ProcId {
                self.proc
            }
            fn before_send(&mut self, _invocation: &Invocation) {}
            fn after_receive(
                &mut self,
                _invocation: &Invocation,
                _response: &Response,
                _view: Option<&drv_adversary::View>,
            ) {
            }
            fn report(&mut self) -> Verdict {
                self.reports += 1;
                assert!(
                    !(self.proc == ProcId(1) && self.reports >= 3),
                    "injected fault"
                );
                Verdict::Yes
            }
        }
        struct FaultyFamily;
        impl MonitorFamily for FaultyFamily {
            fn name(&self) -> Cow<'_, str> {
                Cow::Borrowed("faulty family")
            }
            fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
                ProcId::all(n)
                    .map(|proc| Box::new(FaultyMonitor { proc, reports: 0 }) as Box<dyn Monitor>)
                    .collect()
            }
        }

        let config = ThreadedConfig::new(3, 5)
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4));
        // The second run has the others wait at the end of the mutator
        // phase, which process 1 never reaches: its panic releases them.
        for config in [config.clone(), config.stop_mutators_after(4)] {
            // Silence the worker's default panic-hook backtrace for this test.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = try_run_threaded(
                &config,
                &FaultyFamily,
                Box::new(AtomicObject::new(Counter::new())),
            );
            std::panic::set_hook(hook);
            let panic = result.expect_err("process 1 must panic");
            assert_eq!(panic.worker, 1, "{panic}");
            assert_eq!(panic.role, "monitor process");
            assert!(panic.message.contains("injected fault"), "{panic}");
            assert_eq!(panic.object, None);
            assert!(panic.to_string().contains("monitor process 1"), "{panic}");
        }
    }

    #[test]
    fn config_builders() {
        let config = ThreadedConfig::new(2, 5)
            .with_sampler_seed(9)
            .with_sampler(SymbolSampler::new(ObjectKind::Ledger))
            .stop_mutators_after(2);
        assert_eq!(config.n, 2);
        assert_eq!(config.iterations, 5);
    }
}
