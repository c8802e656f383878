//! Cross-crate integration tests: the full pipeline from substrates to
//! decidability verdicts.

use drv_abd::{run_abd, NetConfig, Workload};
use drv_adversary::{AtomicObject, ReplicatedCounter, ScriptedBehavior, StaleReadRegister};
use drv_bench::{reproduce_table1, Table1Config};
use drv_consistency::languages::{lin_reg, sec_count, wec_count};
use drv_core::decidability::{Decider, Notion};
use drv_core::impossibility::{lemma_5_1, lemma_5_2};
use drv_core::monitors::{PredictiveFamily, SecCountFamily, WecCountFamily};
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::transform::WadAllFamily;
use drv_core::SymbolSampler;
use drv_lang::{Language, ObjectKind};
use drv_spec::{Counter, Register};
use std::sync::Arc;

/// The paper's headline port: the possibility results carry over to message
/// passing.  An ABD cluster produces a register history; the Figure 8 monitor
/// replays it (as the Claim 3.1 scripted execution against Aτ) and the
/// predictive-strong evaluation holds.
#[test]
fn abd_histories_flow_into_the_figure8_monitor() {
    let abd_run = run_abd(NetConfig::new(3, 21), &Workload::mixed(3, 2));
    assert_eq!(abd_run.incomplete, 0);
    let history = abd_run.history;
    assert!(lin_reg(3).accepts_prefix(&history));

    let config = RunConfig::new(3, history.len())
        .timed()
        .with_schedule(Schedule::WordScript(history.clone()));
    let monitor = PredictiveFamily::linearizable(Register::new());
    let trace = run(
        &config,
        &monitor,
        Box::new(ScriptedBehavior::from_word(&history, 3)),
    );
    assert_eq!(trace.word().symbols(), history.symbols());
    let decider = Decider::new(Arc::new(lin_reg(3)));
    let evaluation = decider.evaluate(&trace, Notion::PredictiveStrong).unwrap();
    assert!(evaluation.holds, "{evaluation}");
    // The sketch reconstructed from the replay's views can only shrink the
    // ABD operations, never reorder them (Theorem 6.1(1)).
    let sketch = trace.sketch().unwrap().unwrap();
    assert!(drv_adversary::precedence_preserved(&history, &sketch));
}

/// A crashed minority in the ABD cluster does not disturb the monitors: the
/// surviving clients' history is still linearizable and still accepted.
#[test]
fn abd_with_minority_crashes_still_passes_verification() {
    let net = NetConfig::new(5, 33).crash(4, 60);
    assert!(net.majority_correct());
    let abd_run = run_abd(net, &Workload::mixed(5, 2));
    assert!(abd_run.history.is_well_formed_prefix());
    assert!(lin_reg(5).accepts_prefix(&abd_run.history));
}

/// The deterministic and the threaded runtimes agree on language membership
/// for the same behaviour (the words differ, the conclusions do not).
#[test]
fn deterministic_and_threaded_runtimes_agree_on_membership() {
    let deterministic = run(
        &RunConfig::new(3, 40)
            .with_schedule(Schedule::Random { seed: 5 })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .stop_mutators_after(20),
        &WecCountFamily::new(),
        Box::new(ReplicatedCounter::new(2)),
    );
    let threaded = drv_core::threaded::run_threaded(
        &drv_core::threaded::ThreadedConfig::new(3, 40)
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .stop_mutators_after(20),
        &WecCountFamily::new(),
        Box::new(ReplicatedCounter::new(2)),
    );
    assert!(deterministic.is_member(&wec_count()));
    assert!(threaded.is_member(&wec_count()));
}

/// End-to-end possibility + impossibility: the same monitor family that
/// weakly decides WEC_COUNT is provably unable to strongly decide it.
#[test]
fn figure5_monitor_is_weak_but_not_strong() {
    let family = WadAllFamily::new(WecCountFamily::new());
    let config = RunConfig::new(3, 60)
        .with_schedule(Schedule::Random { seed: 11 })
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(30);
    let trace = run(&config, &family, Box::new(AtomicObject::new(Counter::new())));
    let decider = Decider::new(Arc::new(wec_count()));
    assert!(decider.evaluate(&trace, Notion::Weak).unwrap().holds);

    let refutation = lemma_5_2(&family, &wec_count(), 6, 6);
    assert!(refutation.refutes_strong_decidability());
}

/// The Lemma 5.1 pair fools the register monitor family end to end, while the
/// timed variant of the same service is verifiable — the before/after of
/// Section 6.
#[test]
fn timed_views_break_the_lemma51_indistinguishability() {
    // Against A: fooled.
    let pair = lemma_5_1(&WecCountFamily::new(), 5);
    assert!(pair.refutes_decidability(&lin_reg(2)));

    // Against Aτ: the stale service is detected.
    let config = RunConfig::new(2, 30)
        .timed()
        .with_schedule(Schedule::Random { seed: 3 })
        .with_sampler(SymbolSampler::new(ObjectKind::Register).with_mutator_ratio(0.5));
    let trace = run(
        &config,
        &PredictiveFamily::linearizable(Register::new()),
        Box::new(StaleReadRegister::new(3, 2)),
    );
    assert!(!trace.is_member(&lin_reg(2)));
    assert!(trace.no_counts().iter().any(|&c| c > 0));
}

/// The SEC_COUNT monitor stack: Figure 9 wrapped by Figure 3, against Aτ,
/// satisfies PWD on correct and incorrect services alike.
#[test]
fn sec_count_pipeline_satisfies_pwd() {
    let family = WadAllFamily::new(SecCountFamily::new());
    let decider = Decider::new(Arc::new(sec_count()));
    for (seed, behavior) in [
        (1u64, Box::new(AtomicObject::new(Counter::new())) as Box<dyn drv_adversary::Behavior>),
        (2u64, Box::new(drv_adversary::OverCounter::new(1))),
    ] {
        let config = RunConfig::new(3, 50)
            .timed()
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
            .stop_mutators_after(25);
        let trace = run(&config, &family, behavior);
        let evaluation = decider.evaluate(&trace, Notion::PredictiveWeak).unwrap();
        assert!(evaluation.holds, "{evaluation}");
    }
}

/// The quick Table 1 reproduction matches the paper (the full configuration
/// is exercised by the `table1` binary and the benches).
#[test]
fn quick_table1_reproduction_matches_the_paper() {
    let report = reproduce_table1(&Table1Config::quick());
    assert!(
        report.matches_paper(),
        "mismatches: {:?}",
        report
            .mismatches()
            .iter()
            .map(|c| format!("{} {}", c.language, c.notion))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.cells.len(), 28);
}

/// Language combinators from drv-lang compose with the languages of Table 1:
/// the complement of WEC_COUNT classifies runs in the opposite way.
#[test]
fn language_combinators_compose_with_table1_languages() {
    let config = RunConfig::new(2, 40)
        .with_schedule(Schedule::Random { seed: 9 })
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(20);
    let trace = run(
        &config,
        &WecCountFamily::new(),
        Box::new(AtomicObject::new(Counter::new())),
    );
    let wec = wec_count();
    let complement = drv_lang::Complement::new(wec_count());
    assert!(trace.is_member(&wec));
    assert!(!trace.is_member(&complement));
    assert_ne!(wec.name(), complement.name());
}
