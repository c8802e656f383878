//! The stability transformations of Lemmas 4.1–4.3 (Figures 2–4).
//!
//! The three lemmas show that any monitor for one of the decidability notions
//! can be transformed — by wrapping only its report block (line 06) in extra
//! read/write wait-free code — into one with a stable verdict pattern:
//!
//! * **Figure 2** ([`StabilizedFamily`], Lemma 4.1): once any process would
//!   report NO, a shared `FLAG` makes *every* process report NO forever.
//!   Applied to a strongly-deciding monitor it stays strongly deciding.
//! * **Figure 3** ([`WadAllFamily`], Lemma 4.2): processes count their NO
//!   reports in a shared array `C`; a process reports NO exactly when some
//!   entry of `C` grew since its previous iteration.  Applied to a weakly-all
//!   deciding monitor, non-membership makes *every* process report NO
//!   infinitely often — the missing half of weak decidability
//!   (Definition 4.4).
//! * **Figure 4** ([`WodStableFamily`], Lemma 4.3): dual construction for
//!   weakly-one deciding monitors; a process reports YES exactly when some
//!   entry of `C` did *not* grow.
//!
//! Together with Theorem 4.1 these transformations are what justify treating
//! WAD, WOD and WD as one class.

use crate::monitor::{Monitor, MonitorFamily};
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, ProcId, Response};
use drv_shmem::{AtomicRegister, SharedArray};
use std::borrow::Cow;

/// The Figure 2 wrapper around one local monitor.
pub struct StabilizedMonitor {
    inner: Box<dyn Monitor>,
    flag: AtomicRegister<bool>,
    /// `"stabilized[{inner}]"`, formatted once at spawn.
    name: String,
}

impl Monitor for StabilizedMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.inner.proc()
    }

    fn before_send(&mut self, invocation: &Invocation) {
        self.inner.before_send(invocation);
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        view: Option<&View>,
    ) {
        self.inner.after_receive(invocation, response, view);
    }

    fn report(&mut self) -> Verdict {
        // Figure 2, modified line 06.
        let inner_verdict = self.inner.report();
        if self.flag.read() {
            return Verdict::No;
        }
        if inner_verdict.is_no() {
            self.flag.write(true);
        }
        inner_verdict
    }
}

/// The Figure 2 transformation applied to a whole family (Lemma 4.1).
#[derive(Debug, Clone)]
pub struct StabilizedFamily<F> {
    inner: F,
}

impl<F: MonitorFamily> StabilizedFamily<F> {
    /// Wraps `inner` with the shared `FLAG` construction.
    #[must_use]
    pub fn new(inner: F) -> Self {
        StabilizedFamily { inner }
    }
}

impl<F: MonitorFamily> MonitorFamily for StabilizedFamily<F> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("Figure 2 ∘ {}", self.inner.name()))
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let flag = AtomicRegister::new(false);
        self.inner
            .spawn(n)
            .into_iter()
            .map(|inner| {
                let name = format!("stabilized[{}]", inner.name());
                Box::new(StabilizedMonitor {
                    inner,
                    flag: flag.clone(),
                    name,
                }) as Box<dyn Monitor>
            })
            .collect()
    }

    fn requires_views(&self) -> bool {
        self.inner.requires_views()
    }
}

/// Whether a Figure 3/4-style wrapper propagates NO or YES.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CounterMode {
    /// Figure 3: report NO when some counter grew (Lemma 4.2).
    NoWhenGrowing,
    /// Figure 4: report YES when some counter did not grow (Lemma 4.3).
    YesWhenStable,
}

/// The Figure 3/4 wrapper around one local monitor.
pub struct CounterPropagationMonitor {
    inner: Box<dyn Monitor>,
    counters: SharedArray<u64>,
    prev: Vec<u64>,
    mode: CounterMode,
    /// `"wad-all[{inner}]"` / `"wod-stable[{inner}]"`, formatted once at
    /// spawn.
    name: String,
}

impl CounterPropagationMonitor {
    fn new(
        inner: Box<dyn Monitor>,
        counters: SharedArray<u64>,
        n: usize,
        mode: CounterMode,
    ) -> Self {
        let label = match mode {
            CounterMode::NoWhenGrowing => "wad-all",
            CounterMode::YesWhenStable => "wod-stable",
        };
        let name = format!("{label}[{}]", inner.name());
        CounterPropagationMonitor {
            inner,
            counters,
            prev: vec![0; n],
            mode,
            name,
        }
    }
}

impl Monitor for CounterPropagationMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.inner.proc()
    }

    fn before_send(&mut self, invocation: &Invocation) {
        self.inner.before_send(invocation);
    }

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        view: Option<&View>,
    ) {
        self.inner.after_receive(invocation, response, view);
    }

    fn report(&mut self) -> Verdict {
        // Figures 3 and 4, modified line 06.
        let inner_verdict = self.inner.report();
        let me = self.proc().index();
        if inner_verdict.is_no() {
            self.counters.write(me, self.prev[me] + 1);
        }
        let snapshot = self.counters.snapshot();
        let verdict = match self.mode {
            CounterMode::NoWhenGrowing => {
                if snapshot
                    .iter()
                    .zip(self.prev.iter())
                    .any(|(now, before)| now > before)
                {
                    Verdict::No
                } else {
                    Verdict::Yes
                }
            }
            CounterMode::YesWhenStable => {
                if snapshot
                    .iter()
                    .zip(self.prev.iter())
                    .any(|(now, before)| now == before)
                {
                    Verdict::Yes
                } else {
                    Verdict::No
                }
            }
        };
        self.prev = snapshot;
        verdict
    }
}

/// The Figure 3 transformation (Lemma 4.2): from weak-all to weak
/// decidability.
#[derive(Debug, Clone)]
pub struct WadAllFamily<F> {
    inner: F,
}

impl<F: MonitorFamily> WadAllFamily<F> {
    /// Wraps `inner` with the shared NO-counter construction of Figure 3.
    #[must_use]
    pub fn new(inner: F) -> Self {
        WadAllFamily { inner }
    }
}

impl<F: MonitorFamily> MonitorFamily for WadAllFamily<F> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("Figure 3 ∘ {}", self.inner.name()))
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let counters = SharedArray::new(n, 0u64);
        self.inner
            .spawn(n)
            .into_iter()
            .map(|inner| {
                Box::new(CounterPropagationMonitor::new(
                    inner,
                    counters.clone(),
                    n,
                    CounterMode::NoWhenGrowing,
                )) as Box<dyn Monitor>
            })
            .collect()
    }

    fn requires_views(&self) -> bool {
        self.inner.requires_views()
    }
}

/// The Figure 4 transformation (Lemma 4.3): from weak-one decidability to
/// eventual unanimous YES on members.
#[derive(Debug, Clone)]
pub struct WodStableFamily<F> {
    inner: F,
}

impl<F: MonitorFamily> WodStableFamily<F> {
    /// Wraps `inner` with the shared NO-counter construction of Figure 4.
    #[must_use]
    pub fn new(inner: F) -> Self {
        WodStableFamily { inner }
    }
}

impl<F: MonitorFamily> MonitorFamily for WodStableFamily<F> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("Figure 4 ∘ {}", self.inner.name()))
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let counters = SharedArray::new(n, 0u64);
        self.inner
            .spawn(n)
            .into_iter()
            .map(|inner| {
                Box::new(CounterPropagationMonitor::new(
                    inner,
                    counters.clone(),
                    n,
                    CounterMode::YesWhenStable,
                )) as Box<dyn Monitor>
            })
            .collect()
    }

    fn requires_views(&self) -> bool {
        self.inner.requires_views()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::decidability::{Decider, Notion};
    use crate::monitor::ConstantFamily;
    use crate::monitors::WecCountFamily;
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, NonMonotoneCounter};
    use drv_consistency::languages::wec_count;
    use drv_lang::ObjectKind;
    use drv_spec::Counter;
    use std::sync::Arc;

    fn counter_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed)
            .stop_mutators_after(iterations / 2)
    }

    #[test]
    fn figure2_latches_every_process_after_one_no() {
        // Wrap a monitor that reports NO exactly once (the non-monotone
        // counter is caught by one witness); under Figure 2 everybody ends up
        // reporting NO forever.
        let config = counter_config(3, 60, 3);
        let family = StabilizedFamily::new(WecCountFamily::new());
        assert!(family.name().contains("Figure 2"));
        let trace = run(&config, &family, Box::new(NonMonotoneCounter::new(3)));
        assert!(!trace.is_member(&wec_count()));
        for p in 0..3 {
            let stream = trace.verdicts(p);
            assert!(stream.reports().last().unwrap().verdict.is_no());
        }
    }

    #[test]
    fn figure2_preserves_silence_on_members() {
        // The always-YES family never reports NO, so its stabilization never
        // latches.
        let config = counter_config(2, 30, 5);
        let family = StabilizedFamily::new(ConstantFamily::always_yes());
        let trace = run(&config, &family, Box::new(AtomicObject::new(Counter::new())));
        assert!(trace.no_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn figure3_upgrades_wad_to_wd() {
        // The raw Figure 5 monitor only guarantees ∃p NO=∞ on non-members
        // (weak-all decidability); composing it with Figure 3 gives the full
        // weak decidability of Definition 4.4 (Lemma 4.2 + Theorem 4.1).
        let config = counter_config(2, 80, 7);
        let wrapped = WadAllFamily::new(WecCountFamily::new());
        assert!(wrapped.name().contains("Figure 3"));
        let trace = run(&config, &wrapped, Box::new(NonMonotoneCounter::new(3)));
        assert!(!trace.is_member(&wec_count()));
        let decider = Decider::new(Arc::new(wec_count()));
        let evaluation = decider.evaluate(&trace, Notion::Weak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn figure3_keeps_members_quiescent() {
        let config = counter_config(3, 60, 9);
        let wrapped = WadAllFamily::new(WecCountFamily::new());
        let trace = run(&config, &wrapped, Box::new(AtomicObject::new(Counter::new())));
        assert!(trace.is_member(&wec_count()));
        let decider = Decider::new(Arc::new(wec_count()));
        let evaluation = decider.evaluate(&trace, Notion::Weak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }

    #[test]
    fn figure4_stabilizes_members_to_yes() {
        // Lemma 4.3: on members, eventually every process always reports YES.
        let config = counter_config(2, 60, 11);
        let wrapped = WodStableFamily::new(WecCountFamily::new());
        assert!(wrapped.name().contains("Figure 4"));
        let trace = run(&config, &wrapped, Box::new(AtomicObject::new(Counter::new())));
        assert!(trace.is_member(&wec_count()));
        for p in 0..2 {
            let stream = trace.verdicts(p);
            assert!(stream.reports().last().unwrap().verdict.is_yes());
            assert!(stream.no_free_tail(stream.len() * 3 / 4));
        }
    }

    #[test]
    fn wrappers_propagate_view_requirements() {
        use crate::monitors::SecCountFamily;
        assert!(StabilizedFamily::new(SecCountFamily::new()).requires_views());
        assert!(WadAllFamily::new(SecCountFamily::new()).requires_views());
        assert!(WodStableFamily::new(SecCountFamily::new()).requires_views());
        assert!(!StabilizedFamily::new(WecCountFamily::new()).requires_views());
    }

    #[test]
    fn wrapper_names_and_spawns() {
        let family = WodStableFamily::new(ConstantFamily::always_no());
        let mut monitors = family.spawn(2);
        assert_eq!(monitors.len(), 2);
        assert!(monitors[0].name().contains("wod-stable"));
        // With the inner monitor always reporting NO, both counters grow every
        // iteration; after the first iteration the YES-when-stable clause
        // stops firing for the process that sees both counters move.
        monitors[0].before_send(&Invocation::Read);
        monitors[0].after_receive(&Invocation::Read, &Response::Value(0), None);
        let first = monitors[0].report();
        assert!(first.is_yes(), "the other process's counter has not moved yet");
        let stabilized = StabilizedFamily::new(ConstantFamily::always_no());
        let mut monitors = stabilized.spawn(1);
        assert!(monitors[0].name().contains("stabilized"));
        assert!(monitors[0].report().is_no());
        assert!(monitors[0].report().is_no());
    }
}
