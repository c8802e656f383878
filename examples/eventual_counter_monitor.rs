//! Monitoring eventually-consistent counters: WEC vs SEC, two-valued vs
//! three-valued verdicts.
//!
//! The weakly-eventual counter (`WEC_COUNT`) has no real-time clause, so the
//! Figure 5 monitor decides it weakly against the plain adversary A.  The
//! strongly-eventual counter (`SEC_COUNT`) adds the real-time clause (4), is
//! therefore undecidable against A (Theorem 5.2), and needs the timed
//! adversary Aτ and the Figure 9 monitor, which decides it *predictively*
//! weakly.  This example runs both monitors on a replicated (correct) counter
//! and on an over-counting (incorrect) one, and also shows the Section 7
//! three-valued variant, whose NO verdicts are always conclusive.
//!
//! ```text
//! cargo run -p drv-core --example eventual_counter_monitor
//! ```

use drv_adversary::{Behavior, OverCounter, ReplicatedCounter};
use drv_consistency::languages::{sec_count, wec_count};
use drv_core::decidability::{Decider, Notion};
use drv_core::monitor::MonitorFamily;
use drv_core::monitors::three_valued::three_valued_holds;
use drv_core::monitors::{SecCountFamily, ThreeValuedSecFamily, WecCountFamily};
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::transform::WadAllFamily;
use drv_core::SymbolSampler;
use drv_lang::{Language, ObjectKind};
use std::sync::Arc;

fn config(n: usize, iterations: usize, timed: bool) -> RunConfig {
    let config = RunConfig::new(n, iterations)
        .with_schedule(Schedule::Random { seed: 99 })
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(iterations / 2);
    if timed {
        config.timed()
    } else {
        config
    }
}

fn summarize(trace: &drv_core::ExecutionTrace, language: &dyn Language) {
    println!(
        "   member of {}: {}",
        language.name(),
        if trace.is_member(language) { "yes" } else { "NO" }
    );
    for p in 0..trace.process_count() {
        let stream = trace.verdicts(p);
        println!(
            "   p{}: {} YES / {} NO / {} MAYBE, final verdict {}",
            p + 1,
            stream.yes_count(),
            stream.no_count(),
            stream.maybe_count(),
            stream.reports().last().map_or("—".to_string(), |r| r.verdict.to_string())
        );
    }
}

fn main() {
    let n = 3;
    let iterations = 60;

    println!("════ WEC_COUNT with the Figure 3 ∘ Figure 5 monitor (plain adversary A) ════");
    let wec_monitor = WadAllFamily::new(WecCountFamily::new());
    let wec_decider = Decider::new(Arc::new(wec_count()));
    for behavior in [
        Box::new(ReplicatedCounter::new(3)) as Box<dyn Behavior>,
        Box::new(OverCounter::new(2)),
    ] {
        println!("── {}", behavior.name());
        let trace = run(&config(n, iterations, false), &wec_monitor, behavior);
        summarize(&trace, &wec_count());
        println!(
            "   WD evaluation: {}",
            wec_decider.evaluate(&trace, Notion::Weak).unwrap()
        );
        println!();
    }

    println!("════ SEC_COUNT with the Figure 3 ∘ Figure 9 monitor (timed adversary Aτ) ════");
    let sec_monitor = WadAllFamily::new(SecCountFamily::new());
    let sec_decider = Decider::new(Arc::new(sec_count()));
    for behavior in [
        Box::new(ReplicatedCounter::new(3)) as Box<dyn Behavior>,
        Box::new(OverCounter::new(2)),
    ] {
        println!("── {}", behavior.name());
        let trace = run(&config(n, iterations, true), &sec_monitor, behavior);
        summarize(&trace, &sec_count());
        println!(
            "   PWD evaluation: {}",
            sec_decider.evaluate(&trace, Notion::PredictiveWeak).unwrap()
        );
        println!();
    }

    println!("════ Section 7: the three-valued SEC monitor ════");
    let three_valued = ThreeValuedSecFamily::new();
    for behavior in [
        Box::new(ReplicatedCounter::new(3)) as Box<dyn Behavior>,
        Box::new(OverCounter::new(2)),
    ] {
        println!("── {} under {}", behavior.name(), three_valued.name());
        let trace = run(&config(n, iterations, true), &three_valued, behavior);
        summarize(&trace, &sec_count());
        println!(
            "   3-valued contract (members never NO, non-members never YES): {}",
            if three_valued_holds(&trace, &sec_count()) { "holds" } else { "violated" }
        );
        println!();
    }

    println!("The replicated counter lags but converges (member of both languages); the");
    println!("over-counting counter violates the real-time clause and every monitor that");
    println!("can see it — via the views of Aτ — keeps saying NO.");
}
