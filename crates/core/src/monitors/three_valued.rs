//! Three-valued monitors (Section 7).
//!
//! The paper's final remarks sketch a 3-valued variant of weak decidability:
//! processes may report YES, NO or MAYBE, and the requirement becomes
//!
//! * if the behaviour is in the language, no process ever reports NO,
//! * otherwise, no process ever reports YES.
//!
//! A report of MAYBE carries no commitment, while YES/NO are *conclusive*.
//! The Figure 5 and Figure 9 monitors adapt naturally: their latching safety
//! clauses are conclusive evidence of non-membership (report NO), their
//! convergence clause is inconclusive (report MAYBE instead of NO), and —
//! because an eventual property can never be conclusively confirmed on a
//! finite prefix — the remaining case reports MAYBE instead of YES, exactly
//! the "change YES with MAYBE" adaptation the paper describes.
//!
//! [`ThreeValuedWecFamily`] and [`ThreeValuedSecFamily`] implement the two
//! variants; [`three_valued_holds`] is the corresponding evaluator.

use crate::monitor::{Monitor, MonitorFamily};
use std::borrow::Cow;
use crate::monitors::sec_count::SecCountMonitor;
use crate::monitors::wec_count::WecCountMonitor;
use crate::trace::ExecutionTrace;
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, Language, ProcId, Response};
use drv_shmem::SharedArray;

/// Remaps a two-valued monitor's verdicts into the 3-valued domain: NO stays
/// NO only while the underlying latching flag (conclusive evidence) is set,
/// every other NO becomes MAYBE, and YES becomes MAYBE as well.
#[derive(Debug)]
enum Inner {
    Wec(WecCountMonitor),
    Sec(SecCountMonitor),
}

impl Inner {
    fn conclusive(&self) -> bool {
        match self {
            Inner::Wec(m) => m.flagged(),
            // For the SEC variant, either a latched safety violation or a
            // published overshooting read (view-justified evidence against
            // clause (4)) is conclusive.
            Inner::Sec(m) => m.flagged() || m.overshooting_read_published(),
        }
    }
}

/// A 3-valued local monitor for the eventual counters.
#[derive(Debug)]
pub struct ThreeValuedMonitor {
    inner: Inner,
    proc: ProcId,
    /// Formatted once at construction; reporting borrows it.
    name: String,
}

impl Monitor for ThreeValuedMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, invocation: &Invocation) {
        match &mut self.inner {
            Inner::Wec(m) => m.before_send(invocation),
            Inner::Sec(m) => m.before_send(invocation),
        }
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        view: Option<&View>,
    ) {
        match &mut self.inner {
            Inner::Wec(m) => m.after_receive(invocation, response, view),
            Inner::Sec(m) => m.after_receive(invocation, response, view),
        }
    }

    fn report(&mut self) -> Verdict {
        let raw = match &mut self.inner {
            Inner::Wec(m) => m.report(),
            Inner::Sec(m) => m.report(),
        };
        match raw {
            // Only conclusive evidence keeps the NO: a latched safety
            // violation (both variants) or a published overshooting read
            // (SEC variant).  The convergence clause alone is inconclusive.
            Verdict::No if self.inner.conclusive() => Verdict::No,
            Verdict::No => Verdict::Maybe(0),
            // An eventual property can never be conclusively confirmed on a
            // finite prefix: YES becomes MAYBE.
            Verdict::Yes => Verdict::Maybe(1),
            other => other,
        }
    }
}

/// The 3-valued variant of the Figure 5 monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeValuedWecFamily;

impl ThreeValuedWecFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        ThreeValuedWecFamily
    }
}

impl MonitorFamily for ThreeValuedWecFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("Section 7 (3-valued WEC_COUNT)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let incs = SharedArray::new(n, 0u64);
        ProcId::all(n)
            .map(|proc| {
                Box::new(ThreeValuedMonitor {
                    inner: Inner::Wec(WecCountMonitor::new(proc, incs.clone())),
                    proc,
                    name: format!("3-valued counter monitor at {proc}"),
                }) as Box<dyn Monitor>
            })
            .collect()
    }
}

/// The 3-valued variant of the Figure 9 monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeValuedSecFamily;

impl ThreeValuedSecFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        ThreeValuedSecFamily
    }
}

impl MonitorFamily for ThreeValuedSecFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("Section 7 (3-valued SEC_COUNT)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let incs = SharedArray::new(n, 0u64);
        let published = SharedArray::new(n, Vec::new());
        ProcId::all(n)
            .map(|proc| {
                Box::new(ThreeValuedMonitor {
                    inner: Inner::Sec(SecCountMonitor::new(
                        proc,
                        incs.clone(),
                        published.clone(),
                    )),
                    proc,
                    name: format!("3-valued counter monitor at {proc}"),
                }) as Box<dyn Monitor>
            })
            .collect()
    }

    fn requires_views(&self) -> bool {
        true
    }
}

/// The Section 7 requirement on one run: members never trigger NO, and
/// non-members never trigger YES.
///
/// Note that with the conservative monitors above non-members detected only
/// through the eventual clause produce MAYBE rather than NO; the requirement
/// still holds (it forbids YES, it does not require NO).
#[must_use]
pub fn three_valued_holds(trace: &ExecutionTrace, language: &dyn Language) -> bool {
    let member = trace.is_member(language);
    trace.all_verdicts().iter().all(|stream| {
        if member {
            stream.no_count() == 0
        } else {
            stream.yes_count() == 0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, LossyCounter, NonMonotoneCounter, OverCounter};
    use drv_consistency::languages::{sec_count, wec_count};
    use drv_lang::ObjectKind;
    use drv_spec::Counter;

    fn counter_config(n: usize, iterations: usize, seed: u64, timed: bool) -> RunConfig {
        let config = RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed)
            .stop_mutators_after(iterations / 2);
        if timed {
            config.timed()
        } else {
            config
        }
    }

    #[test]
    fn members_never_trigger_no() {
        let config = counter_config(3, 50, 2, false);
        let trace = run(
            &config,
            &ThreeValuedWecFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        assert!(trace.is_member(&wec_count()));
        assert!(three_valued_holds(&trace, &wec_count()));
        // Nothing conclusive happened, so not a single NO or YES was issued.
        for p in 0..3 {
            assert_eq!(trace.verdicts(p).no_count(), 0);
            assert_eq!(trace.verdicts(p).yes_count(), 0);
            assert!(trace.verdicts(p).maybe_count() > 0);
        }
    }

    #[test]
    fn safety_violations_are_conclusive() {
        let config = counter_config(2, 50, 3, false);
        let trace = run(
            &config,
            &ThreeValuedWecFamily::new(),
            Box::new(NonMonotoneCounter::new(3)),
        );
        assert!(!trace.is_member(&wec_count()));
        assert!(three_valued_holds(&trace, &wec_count()));
        // The witnessing process issued a conclusive NO.
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn eventual_violations_stay_inconclusive() {
        let config = counter_config(2, 50, 4, false);
        let trace = run(
            &config,
            &ThreeValuedWecFamily::new(),
            Box::new(LossyCounter::new(2)),
        );
        assert!(!trace.is_member(&wec_count()));
        // No YES may be issued on a non-member; MAYBE is allowed.
        assert!(three_valued_holds(&trace, &wec_count()));
    }

    #[test]
    fn sec_variant_flags_overshooting_reads_conclusively() {
        let config = counter_config(3, 50, 5, true);
        let trace = run(
            &config,
            &ThreeValuedSecFamily::new(),
            Box::new(OverCounter::new(2)),
        );
        assert!(!trace.is_member(&sec_count()));
        assert!(three_valued_holds(&trace, &sec_count()));
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn sec_variant_accepts_members() {
        let config = counter_config(3, 50, 6, true);
        let trace = run(
            &config,
            &ThreeValuedSecFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        assert!(trace.is_member(&sec_count()));
        assert!(three_valued_holds(&trace, &sec_count()));
    }

    #[test]
    fn family_metadata() {
        assert!(ThreeValuedWecFamily::new().name().contains("3-valued"));
        assert!(!ThreeValuedWecFamily::new().requires_views());
        assert!(ThreeValuedSecFamily::new().requires_views());
        assert_eq!(ThreeValuedWecFamily::new().spawn(2).len(), 2);
        assert_eq!(ThreeValuedSecFamily::new().spawn(2).len(), 2);
    }
}
