//! Runtime-verify linearizability of a register service (Figure 8).
//!
//! The service is a black box: the monitor can only invoke operations and
//! observe responses.  Against the plain asynchronous adversary this is
//! hopeless (Lemma 5.1 / Theorem 5.2), so the monitor interacts with the
//! *timed* adversary Aτ — the service wrapped in the Figure 6 announce/view
//! code — and runs `V_O` (Figure 8), which is predictively strongly deciding:
//! every bad behaviour is flagged, and any false alarm comes with a
//! view-certified witness (the sketch) of a behaviour the service could have
//! exhibited.
//!
//! ```text
//! cargo run -p drv-core --example verify_register_service
//! ```

use drv_adversary::{AtomicObject, Behavior, StaleReadRegister};
use drv_consistency::languages::lin_reg;
use drv_core::decidability::{Decider, Notion};
use drv_core::monitors::PredictiveFamily;
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::SymbolSampler;
use drv_lang::{Language, ObjectKind};
use drv_spec::Register;
use std::sync::Arc;

fn main() {
    let n = 3;
    let iterations = 25;
    let config = RunConfig::new(n, iterations)
        .timed()
        .with_schedule(Schedule::Random { seed: 7 })
        .with_sampler(SymbolSampler::new(ObjectKind::Register).with_mutator_ratio(0.5));
    let monitor = PredictiveFamily::linearizable(Register::new());
    let decider = Decider::new(Arc::new(lin_reg(n)));

    let services: Vec<Box<dyn Behavior>> = vec![
        Box::new(AtomicObject::new(Register::new())),
        Box::new(StaleReadRegister::new(3, 2)),
    ];

    for service in services {
        let name = service.name();
        let trace = run(&config, &monitor, service);
        let member = trace.is_member(&lin_reg(n));
        println!("── register service: {name}");
        println!(
            "   produced history: {} operations, linearizable: {}",
            trace.word().operations().len(),
            if member { "yes" } else { "NO" }
        );

        // Detection latency: the earliest iteration at which some monitor
        // process reported NO.
        let first_no = (0..n)
            .filter_map(|p| {
                trace
                    .verdicts(p)
                    .first_no()
                    .map(|idx| (trace.verdicts(p).reports()[idx].iteration, p))
            })
            .min();
        match first_no {
            Some((iteration, p)) => println!(
                "   first NO reported by p{} in its iteration {iteration}",
                p + 1
            ),
            None => println!("   no process ever reported NO"),
        }

        // The sketch is the monitor's justification device.
        let sketch = trace
            .sketch()
            .expect("views recorded by Aτ are always consistent")
            .expect("timed runs always have a sketch");
        println!(
            "   sketch x~(E): {} symbols, linearizable: {}",
            sketch.len(),
            if lin_reg(n).accepts_prefix(&sketch) { "yes" } else { "NO" }
        );

        let evaluation = decider
            .evaluate(&trace, Notion::PredictiveStrong)
            .expect("views recorded by Aτ are always consistent");
        println!("   predictive strong decidability (Definition 6.1): {evaluation}");
        println!();
    }

    println!("The atomic register is never flagged (or only with a sketch that justifies");
    println!("the alarm); the stale-read register is always flagged — Theorem 6.2 at work.");
}
