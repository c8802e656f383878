//! Ablation baselines: what the shared memory buys.
//!
//! [`LocalWecFamily`] checks only the two *local* clauses of the
//! weakly-eventual counter — a process's reads must dominate its own
//! increments and be monotone — without any communication.  It is sound but
//! cannot test the convergence clause (which needs the globally announced
//! increment total), so it accepts lossy counters that drop remote
//! increments.  The `transformations` bench and the ablation experiments
//! compare it against the full Figure 5 monitor to quantify the value of the
//! shared `INCS` array.

use crate::monitor::{Monitor, MonitorFamily};
use std::borrow::Cow;
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, ProcId, Response};

/// A communication-free local monitor checking only the per-process clauses
/// of the weakly-eventual counter.
#[derive(Debug, Clone, Default)]
pub struct LocalWecMonitor {
    proc: ProcId,
    own_incs: u64,
    last_read: Option<u64>,
    violated: bool,
    current_ok: bool,
    /// Formatted once at construction; reporting borrows it.
    name: String,
}

impl LocalWecMonitor {
    /// Creates the local monitor of process `proc`.
    #[must_use]
    pub fn new(proc: ProcId) -> Self {
        LocalWecMonitor {
            proc,
            own_incs: 0,
            last_read: None,
            violated: false,
            current_ok: true,
            name: format!("local-only WEC monitor at {proc}"),
        }
    }
}

impl Monitor for LocalWecMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, invocation: &Invocation) {
        if invocation.is_inc() {
            self.own_incs += 1;
        }
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        _view: Option<&View>,
    ) {
        self.current_ok = true;
        if invocation.is_read() {
            if let Some(value) = response.as_value() {
                if value < self.own_incs || self.last_read.is_some_and(|prev| value < prev) {
                    self.violated = true;
                    self.current_ok = false;
                }
                self.last_read = Some(value);
            }
        }
    }

    fn report(&mut self) -> Verdict {
        if self.violated {
            Verdict::No
        } else if self.current_ok {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
}

/// Family of [`LocalWecMonitor`]s (no shared memory at all).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalWecFamily;

impl LocalWecFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        LocalWecFamily
    }
}

impl MonitorFamily for LocalWecFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("local-only WEC baseline (no shared memory)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        ProcId::all(n)
            .map(|proc| Box::new(LocalWecMonitor::new(proc)) as Box<dyn Monitor>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, NonMonotoneCounter};
    use drv_consistency::languages::wec_count;
    use drv_lang::ObjectKind;
    use drv_spec::Counter;

    fn counter_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed)
            .stop_mutators_after(iterations / 2)
    }

    #[test]
    fn local_baseline_accepts_members() {
        let trace = run(
            &counter_config(3, 50, 1),
            &LocalWecFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        assert!(trace.is_member(&wec_count()));
        assert!(trace.no_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn local_baseline_catches_local_violations() {
        let trace = run(
            &counter_config(2, 50, 2),
            &LocalWecFamily::new(),
            Box::new(NonMonotoneCounter::new(3)),
        );
        assert!(!trace.is_member(&wec_count()));
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn local_baseline_misses_remote_losses() {
        // Scripted scenario in which the violation is invisible locally:
        // p0 performs 4 increments of which the service silently drops two,
        // p1 only reads and always sees monotone values ≥ its own (zero)
        // increments.  The word is not weakly-eventual consistent (the reads
        // never converge to 4), the full Figure 5 monitor keeps flagging it
        // through the shared INCS array, but the communication-free baseline
        // accepts it — exactly the gap the shared memory closes.
        use drv_adversary::ScriptedBehavior;
        use drv_lang::{ProcId, Response, WordBuilder};

        let mut builder = WordBuilder::new();
        for _ in 0..4 {
            builder = builder.op(ProcId(0), Invocation::Inc, Response::Ack);
        }
        for _ in 0..6 {
            builder = builder.op(ProcId(1), Invocation::Read, Response::Value(2));
        }
        let word = builder.build();

        let config = RunConfig::new(2, 100).with_schedule(Schedule::WordScript(word.clone()));
        let local = run(
            &config,
            &LocalWecFamily::new(),
            Box::new(ScriptedBehavior::from_word(&word, 2)),
        );
        let full = run(
            &config,
            &crate::monitors::WecCountFamily::new(),
            Box::new(ScriptedBehavior::from_word(&word, 2)),
        );
        assert!(!full.is_member(&wec_count()));
        assert!(!local.is_member(&wec_count()));
        // The full monitor keeps reporting NO (reads never match the
        // announced total of 4)…
        assert!(full
            .all_verdicts()
            .iter()
            .all(|s| s.reports().last().unwrap().verdict.is_no()));
        // …while the baseline sees nothing wrong.
        assert!(local.all_verdicts().iter().all(|s| s.no_count() == 0));
    }

    #[test]
    fn monitor_and_family_metadata() {
        let family = LocalWecFamily::new();
        assert!(family.name().contains("local-only"));
        assert!(!family.requires_views());
        let mut monitor = LocalWecMonitor::new(ProcId(1));
        assert_eq!(monitor.proc(), ProcId(1));
        assert!(monitor.name().contains("p2"));
        monitor.before_send(&Invocation::Inc);
        monitor.after_receive(&Invocation::Inc, &Response::Ack, None);
        assert_eq!(monitor.report(), Verdict::Yes);
        monitor.after_receive(&Invocation::Read, &Response::Value(0), None);
        assert_eq!(monitor.report(), Verdict::No);
    }
}
