//! The Figure 9 monitor: predictively weakly deciding `SEC_COUNT` against Aτ
//! (Lemma 6.4).
//!
//! The algorithm extends Figure 5 with the view-based test of the
//! real-time-sensitive clause (4) of the strongly-eventual counter: each
//! process publishes its completed operations (invocation, response, view) in
//! a shared array `M`, snapshots `M` every iteration, and reports NO whenever
//! some published `read()` returned more than the number of `inc()`
//! invocations contained in its view.  By Theorem 6.1 the view of an
//! operation contains every increment that precedes it and some that are
//! concurrent with it, so a read exceeding its view's increments is evidence
//! that the sketch x∼(E) violates clause (4) — the justification the
//! predictive definitions require.

use crate::monitor::{Monitor, MonitorFamily};
use std::borrow::Cow;
use crate::monitors::wec_count::WecCountMonitor;
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, ProcId, Response};
use drv_shmem::SharedArray;

/// A published operation: `(invocation, response, view)` as written to `M`.
type PublishedOp = (Invocation, Response, View);

/// The per-process local algorithm of Figure 9.
#[derive(Debug)]
pub struct SecCountMonitor {
    wec: WecCountMonitor,
    proc: ProcId,
    published: SharedArray<Vec<PublishedOp>>,
    /// Per-entry cursors into `M`: operations up to them have been tested,
    /// and only the published suffixes are cloned on the next iteration
    /// (entries are single-writer append-only).
    cursors: Vec<usize>,
    /// Latched clause (4) evidence: published operations are never
    /// retracted, so one overshooting read stays a violation forever.
    overshoot: bool,
    /// Formatted once at construction; reporting borrows it.
    name: String,
}

impl SecCountMonitor {
    /// Creates the local monitor of process `proc` over the shared `INCS` and
    /// `M` arrays.
    #[must_use]
    pub fn new(
        proc: ProcId,
        incs: SharedArray<u64>,
        published: SharedArray<Vec<PublishedOp>>,
    ) -> Self {
        SecCountMonitor {
            wec: WecCountMonitor::new(proc, incs),
            proc,
            published,
            cursors: Vec::new(),
            overshoot: false,
            name: format!("SEC_COUNT monitor at {proc}"),
        }
    }

    /// Whether the latching safety flag of the underlying Figure 5 logic has
    /// been raised (a conclusive violation of clauses (1)–(2)).
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.wec.flagged()
    }

    /// The real-time clause (4) test on the published operations: has some
    /// published read returned more than the increments in its view?
    ///
    /// Evaluated incrementally — each published operation is tested exactly
    /// once, when the delta snapshot first delivers it — and latched.
    #[must_use]
    pub fn overshooting_read_published(&self) -> bool {
        self.overshoot
    }

    fn overshoots((inv, resp, view): &PublishedOp) -> bool {
        inv.is_read()
            && resp
                .as_value()
                .is_some_and(|v| v > view.count_matching(Invocation::is_inc) as u64)
    }
}

impl Monitor for SecCountMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, invocation: &Invocation) {
        self.wec.before_send(invocation);
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        view: Option<&View>,
    ) {
        self.wec.after_receive(invocation, response, view);
        let view = view
            .cloned()
            .expect("the Figure 9 monitor runs against the timed adversary Aτ");
        let op = (invocation.clone(), response.clone(), view);
        self.published.update(self.proc.index(), |ops| ops.push(op));
        // O(delta): only the operations published since the last iteration
        // come back, and each is tested exactly once.
        let delta = self.published.snapshot_appended_since(&self.cursors);
        for (_, _, ops) in &delta.appended {
            if ops.iter().any(Self::overshoots) {
                self.overshoot = true;
            }
        }
        self.cursors = delta.lens;
    }

    fn report(&mut self) -> Verdict {
        // The first three clauses are those of Figure 5…
        let wec_verdict = self.wec.report();
        if wec_verdict.is_no() {
            return Verdict::No;
        }
        // …and the fourth is the view-based real-time test (in blue in the
        // paper's Figure 9).
        if self.overshooting_read_published() {
            Verdict::No
        } else {
            Verdict::Yes
        }
    }
}

/// The distributed monitor of Figure 9: `n` [`SecCountMonitor`]s sharing the
/// `INCS` and `M` arrays.
#[derive(Debug, Clone, Copy, Default)]
pub struct SecCountFamily;

impl SecCountFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        SecCountFamily
    }
}

impl MonitorFamily for SecCountFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("Figure 9 (SEC_COUNT, predictive weak)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let incs = SharedArray::new(n, 0u64);
        let published = SharedArray::new(n, Vec::new());
        ProcId::all(n)
            .map(|proc| {
                Box::new(SecCountMonitor::new(proc, incs.clone(), published.clone()))
                    as Box<dyn Monitor>
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
    use drv_adversary::{AtomicObject, OverCounter, ReplicatedCounter};
    use drv_consistency::languages::sec_count;
    use drv_lang::ObjectKind;
    use drv_spec::Counter;
    use std::sync::Arc;

    fn counter_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed.wrapping_mul(17))
            .stop_mutators_after(iterations / 2)
    }

    #[test]
    fn atomic_counter_runs_satisfy_pwd() {
        for seed in [1, 4, 9] {
            let config = counter_config(3, 60, seed);
            let trace = run(
                &config,
                &SecCountFamily::new(),
                Box::new(AtomicObject::new(Counter::new())),
            );
            assert!(trace.is_member(&sec_count()));
            let decider = Decider::new(Arc::new(sec_count()));
            let evaluation = decider.evaluate(&trace, Notion::PredictiveWeak).unwrap();
            assert!(evaluation.holds, "seed {seed}: {evaluation}");
        }
    }

    #[test]
    fn replicated_counter_runs_satisfy_pwd() {
        let config = counter_config(3, 80, 21);
        let trace = run(
            &config,
            &SecCountFamily::new(),
            Box::new(ReplicatedCounter::new(2)),
        );
        assert!(trace.is_member(&sec_count()));
        let decider = Decider::new(Arc::new(sec_count()));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveWeak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn overshooting_counter_is_rejected_by_everyone() {
        // The over-counting counter violates the real-time clause (4): reads
        // return more increments than can possibly precede them.  The
        // violating read is published in M, so *every* process keeps
        // reporting NO — the ∀p direction the PWD definition needs.
        let config = counter_config(3, 60, 13);
        let trace = run(
            &config,
            &SecCountFamily::new(),
            Box::new(OverCounter::new(2)),
        );
        assert!(!trace.is_member(&sec_count()));
        let decider = Decider::new(Arc::new(sec_count()));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveWeak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
        for p in 0..3 {
            let stream = trace.verdicts(p);
            assert!(stream.no_count_from(stream.len().saturating_sub(3)) > 0);
        }
    }

    #[test]
    fn family_metadata() {
        let family = SecCountFamily::new();
        assert!(family.requires_views());
        assert!(family.name().contains("Figure 9"));
        assert_eq!(family.spawn(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "timed adversary")]
    fn figure9_monitor_requires_views() {
        let incs = SharedArray::new(1, 0u64);
        let published = SharedArray::new(1, Vec::new());
        let mut monitor = SecCountMonitor::new(ProcId(0), incs, published);
        monitor.before_send(&Invocation::Read);
        monitor.after_receive(&Invocation::Read, &Response::Value(0), None);
    }
}
