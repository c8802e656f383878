//! Quickstart: monitor a counter service for weakly-eventual consistency.
//!
//! Runs the paper's Figure 5 distributed monitor (composed with the Figure 3
//! transformation, i.e. the full weak-decidability monitor for `WEC_COUNT`)
//! against a correct atomic counter and against a counter that silently drops
//! increments, and shows how the verdict streams and the weak-decidability
//! evaluation differ.
//!
//! ```text
//! cargo run -p drv-core --example quickstart
//! ```

use drv_adversary::{AtomicObject, Behavior, LossyCounter};
use drv_consistency::languages::wec_count;
use drv_core::decidability::{Decider, Notion};
use drv_core::monitors::WecCountFamily;
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::transform::WadAllFamily;
use drv_core::SymbolSampler;
use drv_lang::ObjectKind;
use drv_spec::Counter;
use std::sync::Arc;

fn main() {
    let n = 3;
    let iterations = 60;
    let config = RunConfig::new(n, iterations)
        .with_schedule(Schedule::Random { seed: 2026 })
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(iterations / 2);
    let monitor = WadAllFamily::new(WecCountFamily::new());
    let decider = Decider::new(Arc::new(wec_count()));

    let behaviors: Vec<Box<dyn Behavior>> = vec![
        Box::new(AtomicObject::new(Counter::new())),
        Box::new(LossyCounter::new(2)),
    ];

    for behavior in behaviors {
        let name = behavior.name();
        let trace = run(&config, &monitor, behavior);
        println!("── service under inspection: {name}");
        println!("   input word x(E): {} symbols, cut at {}", trace.word().len(), trace.cut());
        println!(
            "   is the behaviour weakly-eventual consistent? {}",
            if trace.is_member(&wec_count()) { "yes" } else { "NO" }
        );
        for p in 0..n {
            let stream = trace.verdicts(p);
            let tail = stream.len() * 3 / 4;
            println!(
                "   p{}: {} reports, {} NO total, {} NO in the final quarter, last verdict {}",
                p + 1,
                stream.len(),
                stream.no_count(),
                stream.no_count_from(tail),
                stream.reports().last().map_or("—".to_string(), |r| r.verdict.to_string()),
            );
        }
        let evaluation = decider
            .evaluate(&trace, Notion::Weak)
            .expect("plain runs never fail sketch reconstruction");
        println!("   weak decidability (Definition 4.4): {evaluation}");
        println!();
    }

    println!("The correct counter quiesces to YES everywhere; the lossy counter keeps");
    println!("every monitor process reporting NO — exactly the WD contract of Lemma 5.3.");
}
