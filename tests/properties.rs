//! Property-based integration tests: invariants that must hold for every
//! seed, schedule and system size.
//!
//! Deterministic replacement for the earlier proptest suite: each property is
//! exercised over a fixed number of cases whose parameters are derived from a
//! seeded [`StdRng`], so failures reproduce exactly (re-run the test; the
//! offending case index and parameters are printed in the panic message).

use drv_abd::{run_abd, NetConfig, Workload};
use drv_adversary::{precedence_preserved, AtomicObject, ReplicatedCounter};
use drv_consistency::languages::{lin_reg, sec_count, wec_count};
use drv_core::decidability::{Decider, Notion};
use drv_core::monitors::{PredictiveFamily, SecCountFamily, WecCountFamily};
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::SymbolSampler;
use drv_lang::{Language, ObjectKind};
use drv_spec::{Counter, Register};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CASES: usize = 24;

/// Every run of the deterministic runtime yields a well-formed prefix of an
/// ω-word, whatever the schedule seed, system size or object.
#[test]
fn runtime_words_are_always_well_formed() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let n = rng.gen_range(2..6usize);
        let iterations = rng.gen_range(1..30usize);
        let mutators = rng.gen_range(0..=100u64) as f64 / 100.0;
        let config = RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(mutators))
            .with_sampler_seed(seed ^ 0xABCD);
        let trace = run(
            &config,
            &WecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        let ctx = format!("case {case}: seed={seed} n={n} iterations={iterations}");
        assert!(trace.word().is_well_formed_prefix(), "{ctx}");
        assert_eq!(trace.word().len(), n * iterations * 2, "{ctx}");
        assert_eq!(trace.min_iterations(), iterations, "{ctx}");
    }
}

/// Theorem 6.1(1) as a property: on every timed run, the sketch preserves all
/// real-time precedences of the input word.
#[test]
fn sketches_always_preserve_precedence() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let n = rng.gen_range(2..5usize);
        let iterations = rng.gen_range(1..20usize);
        let config = RunConfig::new(n, iterations)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.5))
            .with_sampler_seed(seed);
        let trace = run(
            &config,
            &SecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        let sketch = trace.sketch().unwrap().expect("timed run");
        let ctx = format!("case {case}: seed={seed} n={n} iterations={iterations}");
        assert!(sketch.is_well_formed_prefix(), "{ctx}");
        assert!(precedence_preserved(trace.word(), &sketch), "{ctx}");
    }
}

/// Soundness of the counter monitors on correct services: runs against an
/// atomic or replicated counter always satisfy the corresponding decidability
/// notion.
#[test]
fn counter_monitors_are_sound_on_correct_services() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let replicated = rng.gen_bool(0.5);
        let delay = rng.gen_range(1..5u64);
        let iterations = 50;
        let config = RunConfig::new(3, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed)
            .stop_mutators_after(iterations / 2);
        let behavior: Box<dyn drv_adversary::Behavior> = if replicated {
            Box::new(ReplicatedCounter::new(delay))
        } else {
            Box::new(AtomicObject::new(Counter::new()))
        };
        let trace = run(&config, &WecCountFamily::new(), behavior);
        let ctx = format!("case {case}: seed={seed} replicated={replicated} delay={delay}");
        assert!(trace.is_member(&wec_count()), "{ctx}");
        let decider = Decider::new(Arc::new(wec_count()));
        let evaluation = decider.evaluate(&trace, Notion::WeakAll).unwrap();
        assert!(evaluation.holds, "{ctx}: {evaluation}");
    }
}

/// Soundness of the Figure 9 monitor on correct services, against Aτ.
#[test]
fn sec_monitor_is_sound_on_correct_services() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let iterations = 40;
        let config = RunConfig::new(2, iterations)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .with_sampler_seed(seed)
            .stop_mutators_after(iterations / 2);
        let trace = run(
            &config,
            &SecCountFamily::new(),
            Box::new(AtomicObject::new(Counter::new())),
        );
        let ctx = format!("case {case}: seed={seed}");
        assert!(trace.is_member(&sec_count()), "{ctx}");
        let decider = Decider::new(Arc::new(sec_count()));
        assert!(
            decider.evaluate(&trace, Notion::PredictiveWeak).unwrap().holds,
            "{ctx}"
        );
    }
}

/// The Figure 8 monitor never mis-flags an atomic register without
/// justification, for any schedule seed.
#[test]
fn figure8_monitor_is_psd_sound_on_atomic_registers() {
    let mut rng = StdRng::seed_from_u64(0xF18);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let config = RunConfig::new(2, 15)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Register).with_mutator_ratio(0.5))
            .with_sampler_seed(seed);
        let trace = run(
            &config,
            &PredictiveFamily::linearizable(Register::new()),
            Box::new(AtomicObject::new(Register::new())),
        );
        let ctx = format!("case {case}: seed={seed}");
        assert!(trace.is_member(&lin_reg(2)), "{ctx}");
        let decider = Decider::new(Arc::new(lin_reg(2)));
        let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
        assert!(evaluation.holds, "{ctx}: {evaluation}");
    }
}

/// The ABD emulation produces linearizable histories for every seed and
/// cluster size — the invariant the message-passing port rests on.
#[test]
fn abd_emulation_is_always_linearizable() {
    let mut rng = StdRng::seed_from_u64(0xABD);
    for case in 0..CASES {
        let seed = rng.gen_range(0..10_000u64);
        let n = rng.gen_range(3..6usize);
        let abd_run = run_abd(NetConfig::new(n, seed), &Workload::mixed(n, 2));
        let ctx = format!("case {case}: seed={seed} n={n}");
        assert!(abd_run.history.is_well_formed_prefix(), "{ctx}");
        assert!(lin_reg(n).accepts_prefix(&abd_run.history), "{ctx}");
    }
}
