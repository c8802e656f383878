//! The Figure 5 monitor: weakly deciding `WEC_COUNT` against A (Lemma 5.3).
//!
//! Shared memory: an array `INCS[1…n]` of read/write registers.  Before
//! sending an `inc()` invocation, process `pᵢ` bumps its own entry
//! (Figure 5, line 02).  After receiving a response it snapshots `INCS`
//! (line 05) and reports (line 06):
//!
//! * NO forever once it has witnessed a violation of the two safety clauses
//!   of the weakly-eventual counter (a read below the process's own
//!   increments, or a non-monotone read),
//! * NO — without latching — while the counter has visibly not converged yet
//!   (the read differs from the announced total, or announcements are still
//!   growing),
//! * YES otherwise.
//!
//! On member words every process therefore reports NO only finitely often,
//! and on non-member words at least one process reports NO infinitely often;
//! Lemma 4.2's transformation ([`crate::transform::WadAllFamily`]) upgrades
//! the latter to *every* process, giving weak decidability.
//!
//! One clarification with respect to the paper's pseudocode: the two safety
//! clauses compare `curr_read`, which is only (re)defined by read responses,
//! so the comparison is meaningful only in iterations whose operation was a
//! `read()`.  The implementation makes that guard explicit; on `inc()`
//! iterations only the convergence clause can fire.

use crate::monitor::{Monitor, MonitorFamily};
use std::borrow::Cow;
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, ProcId, Response};
use drv_shmem::SharedArray;

/// The per-process local algorithm of Figure 5.
#[derive(Debug)]
pub struct WecCountMonitor {
    proc: ProcId,
    incs: SharedArray<u64>,
    count: u64,
    flag: bool,
    prev_read: u64,
    prev_incs: u64,
    curr_read: u64,
    curr_incs: u64,
    own_announced: u64,
    read_this_iteration: bool,
    /// Formatted once at construction; reporting borrows it.
    name: String,
}

impl WecCountMonitor {
    /// Creates the local monitor of process `proc` over the shared `INCS`
    /// array.
    #[must_use]
    pub fn new(proc: ProcId, incs: SharedArray<u64>) -> Self {
        WecCountMonitor {
            proc,
            incs,
            count: 0,
            flag: false,
            prev_read: 0,
            prev_incs: 0,
            curr_read: 0,
            curr_incs: 0,
            own_announced: 0,
            read_this_iteration: false,
            name: format!("WEC_COUNT monitor at {proc}"),
        }
    }

    /// Number of increments this process has announced so far.
    #[must_use]
    pub fn announced_increments(&self) -> u64 {
        self.count
    }

    /// Whether the latching safety flag has been raised.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.flag
    }
}

impl Monitor for WecCountMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, invocation: &Invocation) {
        // Figure 5, line 02: announce the increment before sending it.
        if invocation.is_inc() {
            self.count += 1;
            self.incs.write(self.proc.index(), self.count);
        }
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        _view: Option<&View>,
    ) {
        // Figure 5, line 05: snapshot INCS and record the read value.
        let snap = self.incs.snapshot();
        self.own_announced = snap[self.proc.index()];
        self.curr_incs = snap.iter().sum();
        self.read_this_iteration = invocation.is_read();
        if invocation.is_read() {
            if let Some(value) = response.as_value() {
                self.curr_read = value;
            }
        }
    }

    fn report(&mut self) -> Verdict {
        // Figure 5, line 06.
        let verdict = if self.flag {
            Verdict::No
        } else if self.read_this_iteration
            && (self.curr_read < self.own_announced || self.curr_read < self.prev_read)
        {
            self.flag = true;
            Verdict::No
        } else if self.curr_read != self.curr_incs || self.prev_incs < self.curr_incs {
            Verdict::No
        } else {
            Verdict::Yes
        };
        self.prev_read = self.curr_read;
        self.prev_incs = self.curr_incs;
        verdict
    }
}

/// The distributed monitor of Figure 5: `n` [`WecCountMonitor`]s sharing one
/// `INCS` array.
#[derive(Debug, Clone, Copy, Default)]
pub struct WecCountFamily;

impl WecCountFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        WecCountFamily
    }
}

impl MonitorFamily for WecCountFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("Figure 5 (WEC_COUNT, weak)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let incs = SharedArray::new(n, 0u64);
        ProcId::all(n)
            .map(|proc| Box::new(WecCountMonitor::new(proc, incs.clone())) as Box<dyn Monitor>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::decidability::{Decider, Notion};
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, LossyCounter, NonMonotoneCounter, ReplicatedCounter};
    use drv_consistency::languages::wec_count;
    use drv_lang::ObjectKind;
    use drv_spec::Counter;
    use std::sync::Arc;

    fn counter_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed.wrapping_mul(31))
            .stop_mutators_after(iterations / 2)
    }

    #[test]
    fn member_runs_eventually_stop_reporting_no() {
        for seed in [1, 2, 3] {
            let config = counter_config(3, 60, seed);
            let trace = run(
                &config,
                &WecCountFamily::new(),
                Box::new(AtomicObject::new(Counter::new())),
            );
            let decider = Decider::new(Arc::new(wec_count()));
            assert!(trace.is_member(&wec_count()), "atomic counter is a member");
            let evaluation = decider.evaluate(&trace, Notion::Weak).unwrap();
            assert!(evaluation.holds, "seed {seed}: {evaluation}");
        }
    }

    #[test]
    fn replicated_counter_is_also_accepted() {
        let config = counter_config(3, 80, 9);
        let trace = run(
            &config,
            &WecCountFamily::new(),
            Box::new(ReplicatedCounter::new(3)),
        );
        assert!(trace.is_member(&wec_count()));
        let decider = Decider::new(Arc::new(wec_count()));
        assert!(decider.evaluate(&trace, Notion::Weak).unwrap().holds);
    }

    #[test]
    fn lossy_counter_is_flagged_forever() {
        let config = counter_config(2, 60, 5);
        let trace = run(
            &config,
            &WecCountFamily::new(),
            Box::new(LossyCounter::new(2)),
        );
        assert!(!trace.is_member(&wec_count()));
        let decider = Decider::new(Arc::new(wec_count()));
        let evaluation = decider.evaluate(&trace, Notion::Weak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
        // The violation is conclusive: every process keeps reporting NO.
        for p in 0..2 {
            assert!(trace.verdicts(p).no_count_from(trace.verdicts(p).len() / 2) > 0);
        }
    }

    #[test]
    fn non_monotone_counter_is_flagged() {
        // A non-monotone read latches the flag of the process that witnesses
        // it; the raw Figure 5 monitor therefore guarantees weak-*all*
        // decidability (Definition 4.2), and the Lemma 4.2 transformation
        // (crate::transform) is what upgrades it to WD.
        let config = counter_config(2, 60, 7);
        let trace = run(
            &config,
            &WecCountFamily::new(),
            Box::new(NonMonotoneCounter::new(3)),
        );
        assert!(!trace.is_member(&wec_count()));
        let decider = Decider::new(Arc::new(wec_count()));
        assert!(decider.evaluate(&trace, Notion::WeakAll).unwrap().holds);
    }

    #[test]
    fn monitor_state_accessors() {
        let incs = SharedArray::new(2, 0u64);
        let mut monitor = WecCountMonitor::new(ProcId(0), incs.clone());
        assert_eq!(monitor.announced_increments(), 0);
        assert!(!monitor.flagged());
        monitor.before_send(&Invocation::Inc);
        assert_eq!(monitor.announced_increments(), 1);
        assert_eq!(incs.read(0), 1);
        monitor.after_receive(&Invocation::Inc, &Response::Ack, None);
        // An inc iteration can report NO (not converged) but never latches.
        assert_eq!(monitor.report(), Verdict::No);
        assert!(!monitor.flagged());
        assert!(monitor.name().contains("WEC_COUNT"));
        assert_eq!(monitor.proc(), ProcId(0));

        // A read below the process's own announcements latches the flag.
        monitor.after_receive(&Invocation::Read, &Response::Value(0), None);
        assert_eq!(monitor.report(), Verdict::No);
        assert!(monitor.flagged());
        // …and stays NO forever.
        monitor.after_receive(&Invocation::Read, &Response::Value(1), None);
        assert_eq!(monitor.report(), Verdict::No);
    }

    #[test]
    fn family_metadata() {
        let family = WecCountFamily::new();
        assert!(family.name().contains("Figure 5"));
        assert!(!family.requires_views());
        assert_eq!(family.spawn(4).len(), 4);
    }
}
