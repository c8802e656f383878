//! Step-level execution of shared-memory algorithms under a controlled
//! scheduler.
//!
//! The paper's model (Section 3) is an asynchronous shared-memory system: an
//! execution is an interleaving of atomic steps, one per shared-memory
//! operation, chosen by an adversarial scheduler, and up to `n − 1` processes
//! may crash.  This module provides exactly that: real process code runs on
//! OS threads, but every shared-memory operation is *gated* — before it
//! executes, the process must be granted a step by the [`StepSim`] scheduler,
//! which picks the next process according to a [`SchedulePolicy`] and may
//! crash processes according to a [`CrashPlan`].
//!
//! The harness is used by [`crate::afek`] to exercise the Afek et al.
//! snapshot under adversarial interleavings, and by integration tests to show
//! the monitors of `drv-core` are wait-free (they terminate each iteration
//! even when other processes are crashed or starved).
//!
//! # Example
//!
//! ```
//! use drv_shmem::{SchedulePolicy, SharedArray, StepSim};
//!
//! let array = SharedArray::new(2, 0u64);
//! let sim = StepSim::new(2).with_policy(SchedulePolicy::Random { seed: 7 });
//! let report = sim.run(|ctx| {
//!     let a = array.clone();
//!     move || {
//!         // Each shared-memory operation takes one scheduled step.
//!         ctx.exec(|| a.write(ctx.pid(), 1 + ctx.pid() as u64));
//!         ctx.exec(|| a.snapshot())
//!     }
//! });
//! assert!(report.all_finished());
//! ```

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic;
use std::sync::Arc;
use std::thread;

/// How the scheduler picks the next process to take a step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Cycle through the processes in index order, skipping processes that
    /// are not currently requesting a step.
    #[default]
    RoundRobin,
    /// Pick uniformly at random among the requesting processes, from a seeded
    /// deterministic generator.
    Random {
        /// Seed of the pseudo-random generator.
        seed: u64,
    },
    /// Follow an explicit script of process indices.  Entries that do not
    /// correspond to a currently-requesting process are skipped; when the
    /// script is exhausted the scheduler falls back to round-robin.
    Script(Vec<usize>),
}

/// When to crash each process.
///
/// `crash_after[i] = Some(k)` crashes process `i` right before it would take
/// its `(k + 1)`-th step; `None` means the process never crashes.  The
/// paper's model allows up to `n − 1` crashes; [`CrashPlan::validate`]
/// enforces that at least one process survives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    crash_after: Vec<Option<u64>>,
}

impl CrashPlan {
    /// A plan in which no process crashes.
    #[must_use]
    pub fn none(n: usize) -> Self {
        CrashPlan {
            crash_after: vec![None; n],
        }
    }

    /// Crashes process `pid` right before its `(steps + 1)`-th step.
    #[must_use]
    pub fn crash(mut self, pid: usize, steps: u64) -> Self {
        if pid >= self.crash_after.len() {
            self.crash_after.resize(pid + 1, None);
        }
        self.crash_after[pid] = Some(steps);
        self
    }

    /// Number of processes scheduled to crash.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.crash_after.iter().filter(|c| c.is_some()).count()
    }

    /// Checks the plan against the paper's fault model: with `n` processes at
    /// most `n − 1` may crash.
    ///
    /// # Errors
    ///
    /// Returns an error message when every process is scheduled to crash.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err("no processes".to_string());
        }
        let crashes = self
            .crash_after
            .iter()
            .take(n)
            .filter(|c| c.is_some())
            .count();
        if crashes >= n {
            Err(format!(
                "{crashes} crashes scheduled for {n} processes; at most n − 1 = {} are allowed",
                n - 1
            ))
        } else {
            Ok(())
        }
    }

    fn should_crash(&self, pid: usize, steps_taken: u64) -> bool {
        matches!(self.crash_after.get(pid), Some(Some(k)) if steps_taken >= *k)
    }
}

/// Terminal status of a process in a [`StepSimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepOutcome {
    /// The process ran its code to completion.
    Finished,
    /// The process was crashed by the [`CrashPlan`].
    Crashed,
    /// The simulation hit its global step budget before the process finished.
    Starved,
}

/// The global interleaving produced by a run: entry `k` is the process that
/// took the `k`-th step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepLog {
    entries: Vec<usize>,
}

impl StepLog {
    /// The scheduled process indices, in order.
    #[must_use]
    pub fn entries(&self) -> &[usize] {
        &self.entries
    }

    /// Total number of steps scheduled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no step was scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of steps taken by process `pid`.
    #[must_use]
    pub fn steps_of(&self, pid: usize) -> usize {
        self.entries.iter().filter(|&&p| p == pid).count()
    }
}

/// Result of running a [`StepSim`].
#[derive(Debug)]
pub struct StepSimReport<R> {
    /// Per-process return values; `None` for processes that crashed or
    /// starved.
    pub results: Vec<Option<R>>,
    /// Per-process terminal status.
    pub outcomes: Vec<StepOutcome>,
    /// The interleaving the scheduler produced.
    pub log: StepLog,
}

impl<R> StepSimReport<R> {
    /// Returns `true` when every process finished (no crash, no starvation).
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.outcomes.iter().all(|o| *o == StepOutcome::Finished)
    }

    /// Returns `true` when every process that the crash plan spared finished.
    #[must_use]
    pub fn all_correct_finished(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, StepOutcome::Finished | StepOutcome::Crashed))
    }
}

/// Marker panic payload used to unwind a crashed process off its thread.
#[derive(Debug, Clone, Copy)]
struct Crashed;

#[derive(Debug)]
struct CtrlState {
    waiting: Vec<bool>,
    granted: Option<usize>,
    finished: Vec<bool>,
    crashed: Vec<bool>,
    steps_of: Vec<u64>,
    log: Vec<usize>,
    shutdown: bool,
}

#[derive(Debug)]
struct Controller {
    state: Mutex<CtrlState>,
    cv: Condvar,
}

impl Controller {
    fn new(n: usize) -> Self {
        Controller {
            state: Mutex::new(CtrlState {
                waiting: vec![false; n],
                granted: None,
                finished: vec![false; n],
                crashed: vec![false; n],
                steps_of: vec![0; n],
                log: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Per-process handle used to gate shared-memory operations.
///
/// Algorithm code calls [`ProcCtx::exec`] around every shared-memory
/// operation; the call blocks until the scheduler grants the process a step,
/// then performs the operation atomically with respect to all other gated
/// operations.
#[derive(Debug, Clone)]
pub struct ProcCtx {
    pid: usize,
    ctrl: Arc<Controller>,
}

impl ProcCtx {
    /// Index of the process owning this context.
    #[must_use]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Executes one shared-memory operation as one scheduled atomic step.
    ///
    /// # Panics
    ///
    /// Unwinds the calling thread when the scheduler crashes this process;
    /// the unwind is caught by [`StepSim::run`] and reported as
    /// [`StepOutcome::Crashed`] (or [`StepOutcome::Starved`] when caused by
    /// the global step budget).
    pub fn exec<T>(&self, op: impl FnOnce() -> T) -> T {
        self.acquire();
        let out = op();
        self.release();
        out
    }

    /// Number of steps this process has taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.ctrl.state.lock().steps_of[self.pid]
    }

    fn acquire(&self) {
        let mut st = self.ctrl.state.lock();
        st.waiting[self.pid] = true;
        self.ctrl.cv.notify_all();
        loop {
            if st.crashed[self.pid] || st.shutdown {
                st.waiting[self.pid] = false;
                self.ctrl.cv.notify_all();
                drop(st);
                panic::panic_any(Crashed);
            }
            if st.granted == Some(self.pid) {
                st.waiting[self.pid] = false;
                return;
            }
            self.ctrl.cv.wait(&mut st);
        }
    }

    fn release(&self) {
        let mut st = self.ctrl.state.lock();
        debug_assert_eq!(st.granted, Some(self.pid));
        st.granted = None;
        self.ctrl.cv.notify_all();
    }
}

/// Marks the process finished (or releases its grant) even when its closure
/// unwinds, so the scheduler never waits for a dead thread.
struct FinishGuard {
    pid: usize,
    ctrl: Arc<Controller>,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let mut st = self.ctrl.state.lock();
        st.finished[self.pid] = true;
        st.waiting[self.pid] = false;
        if st.granted == Some(self.pid) {
            st.granted = None;
        }
        self.ctrl.cv.notify_all();
    }
}

/// A deterministic step-level simulator of the paper's asynchronous
/// shared-memory model.
///
/// See the [module documentation](self) for an example.
#[derive(Debug, Clone)]
pub struct StepSim {
    n: usize,
    policy: SchedulePolicy,
    crash_plan: CrashPlan,
    max_steps: u64,
}

impl StepSim {
    /// Creates a simulator for `n` processes with a round-robin schedule, no
    /// crashes and a one-million-step budget.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a simulation needs at least one process");
        StepSim {
            n,
            policy: SchedulePolicy::RoundRobin,
            crash_plan: CrashPlan::none(n),
            max_steps: 1_000_000,
        }
    }

    /// Sets the schedule policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the crash plan.
    ///
    /// # Panics
    ///
    /// Panics when the plan crashes every process (the paper's model requires
    /// at least one correct process).
    #[must_use]
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        plan.validate(self.n).expect("invalid crash plan");
        self.crash_plan = plan;
        self
    }

    /// Sets the global step budget after which unfinished processes are
    /// reported as starved.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps.max(1);
        self
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Runs the simulation.
    ///
    /// `make` is called once per process with that process's [`ProcCtx`] and
    /// must return the closure the process executes.  The closures run on
    /// dedicated OS threads; every [`ProcCtx::exec`] call inside them is one
    /// scheduled step.
    ///
    /// # Panics
    ///
    /// Re-raises any panic raised by process code (other than the internal
    /// crash signal).
    pub fn run<R, F, M>(&self, mut make: M) -> StepSimReport<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
        M: FnMut(ProcCtx) -> F,
    {
        let ctrl = Arc::new(Controller::new(self.n));
        let mut handles = Vec::with_capacity(self.n);
        for pid in 0..self.n {
            let ctx = ProcCtx {
                pid,
                ctrl: Arc::clone(&ctrl),
            };
            let body = make(ctx);
            let ctrl_clone = Arc::clone(&ctrl);
            handles.push(thread::spawn(move || {
                let _guard = FinishGuard {
                    pid,
                    ctrl: ctrl_clone,
                };
                body()
            }));
        }

        let starved = self.schedule(&ctrl);
        let mut results = Vec::with_capacity(self.n);
        let mut outcomes = Vec::with_capacity(self.n);
        for (pid, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(value) => {
                    results.push(Some(value));
                    outcomes.push(StepOutcome::Finished);
                }
                Err(payload) => {
                    if payload.downcast_ref::<Crashed>().is_some() {
                        results.push(None);
                        if starved && !ctrl.state.lock().crashed[pid] {
                            outcomes.push(StepOutcome::Starved);
                        } else {
                            outcomes.push(StepOutcome::Crashed);
                        }
                    } else {
                        panic::resume_unwind(payload);
                    }
                }
            }
        }
        let log = StepLog {
            entries: ctrl.state.lock().log.clone(),
        };
        StepSimReport {
            results,
            outcomes,
            log,
        }
    }

    /// Drives the scheduler loop; returns `true` when the run ended because
    /// the step budget was exhausted.
    fn schedule(&self, ctrl: &Arc<Controller>) -> bool {
        let mut rng = match &self.policy {
            SchedulePolicy::Random { seed } => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        };
        let mut script_pos = 0usize;
        let mut rr_next = 0usize;
        let mut total: u64 = 0;
        let mut starved = false;

        let mut st = ctrl.state.lock();
        loop {
            if st
                .finished
                .iter()
                .zip(st.crashed.iter())
                .all(|(f, c)| *f || *c)
            {
                break;
            }
            if total >= self.max_steps {
                starved = true;
                break;
            }
            // Wait until every live process has requested its next step (or
            // finished/crashed).  Local computation between shared-memory
            // operations is irrelevant to the model, so deferring decisions
            // to these quiescent points keeps schedules fully deterministic:
            // the candidate set then depends only on the algorithm and the
            // schedule so far, never on OS thread timing.
            let quiescent = (0..self.n).all(|p| st.waiting[p] || st.finished[p] || st.crashed[p]);
            if !quiescent {
                ctrl.cv.wait(&mut st);
                continue;
            }
            let candidates: Vec<usize> = (0..self.n)
                .filter(|&p| st.waiting[p] && !st.finished[p] && !st.crashed[p])
                .collect();
            if candidates.is_empty() {
                ctrl.cv.wait(&mut st);
                continue;
            }
            let pid = match &self.policy {
                SchedulePolicy::RoundRobin => {
                    Self::round_robin_pick(&candidates, &mut rr_next, self.n)
                }
                SchedulePolicy::Random { .. } => {
                    let rng = rng.as_mut().expect("rng initialised for Random policy");
                    candidates[rng.gen_range(0..candidates.len())]
                }
                SchedulePolicy::Script(script) => {
                    let mut chosen = None;
                    while script_pos < script.len() {
                        let cand = script[script_pos];
                        script_pos += 1;
                        if candidates.contains(&cand) {
                            chosen = Some(cand);
                            break;
                        }
                    }
                    chosen.unwrap_or_else(|| {
                        Self::round_robin_pick(&candidates, &mut rr_next, self.n)
                    })
                }
            };
            if self.crash_plan.should_crash(pid, st.steps_of[pid]) {
                st.crashed[pid] = true;
                ctrl.cv.notify_all();
                continue;
            }
            st.granted = Some(pid);
            st.steps_of[pid] += 1;
            st.log.push(pid);
            total += 1;
            ctrl.cv.notify_all();
            while st.granted.is_some() {
                ctrl.cv.wait(&mut st);
            }
        }
        st.shutdown = true;
        ctrl.cv.notify_all();
        drop(st);
        starved
    }

    fn round_robin_pick(candidates: &[usize], rr_next: &mut usize, n: usize) -> usize {
        for _ in 0..n {
            let p = *rr_next % n;
            *rr_next += 1;
            if candidates.contains(&p) {
                return p;
            }
        }
        candidates[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::SharedArray;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn round_robin_alternates_processes() {
        let array = SharedArray::new(2, 0u64);
        let sim = StepSim::new(2);
        let report = sim.run(|ctx| {
            let a = array.clone();
            move || {
                for k in 0..5u64 {
                    ctx.exec(|| a.write(ctx.pid(), k));
                }
            }
        });
        assert!(report.all_finished());
        assert_eq!(report.log.len(), 10);
        assert_eq!(report.log.steps_of(0), 5);
        assert_eq!(report.log.steps_of(1), 5);
        // Round-robin alternates strictly when both processes always have a
        // pending request.
        let entries = report.log.entries();
        for pair in entries.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let run = |seed| {
            let array = SharedArray::new(3, 0u64);
            StepSim::new(3)
                .with_policy(SchedulePolicy::Random { seed })
                .run(|ctx| {
                    let a = array.clone();
                    move || {
                        for k in 0..20u64 {
                            ctx.exec(|| a.write(ctx.pid(), k));
                        }
                    }
                })
                .log
        };
        assert_eq!(run(13), run(13));
        assert_ne!(run(13), run(14));
    }

    #[test]
    fn scripted_schedule_is_followed() {
        let array = SharedArray::new(2, 0u64);
        let script = vec![0, 0, 0, 1, 1, 1];
        let sim = StepSim::new(2).with_policy(SchedulePolicy::Script(script.clone()));
        let report = sim.run(|ctx| {
            let a = array.clone();
            move || {
                for _ in 0..3 {
                    ctx.exec(|| a.write(ctx.pid(), 1));
                }
            }
        });
        assert!(report.all_finished());
        assert_eq!(report.log.entries(), &script[..]);
    }

    #[test]
    fn crashed_process_stops_but_others_finish() {
        let array = SharedArray::new(3, 0u64);
        let sim = StepSim::new(3).with_crash_plan(CrashPlan::none(3).crash(1, 2));
        let report = sim.run(|ctx| {
            let a = array.clone();
            move || {
                for k in 1..=10u64 {
                    ctx.exec(|| a.write(ctx.pid(), k));
                }
                ctx.pid()
            }
        });
        assert_eq!(report.outcomes[0], StepOutcome::Finished);
        assert_eq!(report.outcomes[1], StepOutcome::Crashed);
        assert_eq!(report.outcomes[2], StepOutcome::Finished);
        assert_eq!(report.results[1], None);
        assert_eq!(report.results[0], Some(0));
        // The crashed process took exactly the allowed number of steps.
        assert_eq!(report.log.steps_of(1), 2);
        assert_eq!(array.read(1), 2);
        assert_eq!(array.read(0), 10);
        assert_eq!(array.read(2), 10);
    }

    #[test]
    fn wait_freedom_under_majority_crashes() {
        // n − 1 = 3 crashes: the surviving process still finishes, because
        // nothing it does waits on the others (wait-freedom).
        let array = SharedArray::new(4, 0u64);
        let plan = CrashPlan::none(4).crash(1, 0).crash(2, 1).crash(3, 3);
        let sim = StepSim::new(4).with_crash_plan(plan);
        let report = sim.run(|ctx| {
            let a = array.clone();
            move || {
                for k in 1..=8u64 {
                    ctx.exec(|| a.write(ctx.pid(), k));
                    ctx.exec(|| a.snapshot());
                }
                true
            }
        });
        assert_eq!(report.outcomes[0], StepOutcome::Finished);
        assert_eq!(report.results[0], Some(true));
        assert_eq!(report.log.steps_of(1), 0);
    }

    #[test]
    #[should_panic(expected = "invalid crash plan")]
    fn crashing_everyone_is_rejected() {
        let plan = CrashPlan::none(2).crash(0, 0).crash(1, 0);
        let _ = StepSim::new(2).with_crash_plan(plan);
    }

    #[test]
    fn step_budget_reports_starvation() {
        let array = SharedArray::new(2, 0u64);
        let sim = StepSim::new(2).with_max_steps(5);
        let report = sim.run(|ctx| {
            let a = array.clone();
            move || {
                for k in 0..100u64 {
                    ctx.exec(|| a.write(ctx.pid(), k));
                }
            }
        });
        assert!(report
            .outcomes
            .iter()
            .any(|o| *o == StepOutcome::Starved || *o == StepOutcome::Finished));
        assert!(report.log.len() <= 5);
        assert!(!report.all_finished());
    }

    #[test]
    fn crash_plan_accessors() {
        let plan = CrashPlan::none(3).crash(2, 7);
        assert_eq!(plan.crash_count(), 1);
        assert!(plan.validate(3).is_ok());
        assert!(CrashPlan::none(1).validate(0).is_err());
    }

    #[test]
    fn results_are_collected_in_process_order() {
        let sim = StepSim::new(4);
        let report = sim.run(|ctx| move || ctx.exec(|| ctx.pid() * 10));
        let values: Vec<_> = report.results.iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
    }

    #[test]
    fn panics_in_process_code_propagate() {
        let sim = StepSim::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run(|ctx| {
                move || {
                    if ctx.pid() == 1 {
                        panic!("user bug");
                    }
                    ctx.exec(|| 1)
                }
            })
        }));
        assert!(result.is_err());
    }
}
