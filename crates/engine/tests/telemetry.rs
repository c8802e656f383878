//! Telemetry is *passive*: the differential soak re-run with full
//! instrumentation attached (latency sampling on) must produce verdict
//! streams bit-identical to `sequential_reference`, at 1/2/4 workers ×
//! batch 1/256 — and the registry totals, the per-claim queue-wait
//! histogram among them, must agree with the work actually done.  Plus the
//! postmortem contract: a monitor's panic names the object it was checking.

use drv_adversary::{merge_random, register_object_stream, RegisterStreamShape};
use drv_core::{
    CheckerMonitorFactory, ObjectMonitor, ObjectMonitorFactory, RoutingMonitorFactory, Verdict,
};
use drv_engine::{sequential_reference, EngineConfig, MonitoringEngine};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, Symbol, VerdictBatch};
use drv_spec::Register;
use drv_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

const PROCESSES: usize = 2;
const STREAMS: u64 = 120;

fn mixed_factory() -> Arc<RoutingMonitorFactory> {
    let lin = Arc::new(CheckerMonitorFactory::linearizability(
        Register::new(),
        PROCESSES,
    )) as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(
        Register::new(),
        PROCESSES,
    )) as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new(
        "mixed LIN/SC",
        move |object: ObjectId| {
            if object.0.is_multiple_of(2) {
                Arc::clone(&lin)
            } else {
                Arc::clone(&sc)
            }
        },
    ))
}

fn merged_stream(seed: u64) -> Vec<(ObjectId, Symbol)> {
    let shape = RegisterStreamShape::differential();
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = rng.gen_range(2..=4);
    let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..objects)
        .map(|i| {
            let ops = rng.gen_range(4..=8);
            let id = ObjectId(seed * 16 + i);
            (id, register_object_stream(&mut rng, ops, &shape))
        })
        .collect();
    merge_random(&mut rng, per_object)
}

/// The satellite soak: instrumented engine ≡ sequential reference at every
/// (workers × batch) cell, the `engine_events` counter lands exactly on
/// the number of submitted events, and `engine_queue_wait_ns` holds one
/// sample per shard claim that drained work.
#[test]
fn instrumented_verdict_streams_are_bit_identical_to_sequential_reference() {
    for workers in [1usize, 2, 4] {
        for batch in [1usize, 256] {
            let mut total_events = 0u64;
            for seed in 0..STREAMS {
                let events = merged_stream(seed);
                let factory = mixed_factory();
                let expected = sequential_reference(factory.as_ref(), &events);
                let tel = Telemetry::new();
                let engine = MonitoringEngine::with_telemetry(
                    EngineConfig::new(workers),
                    factory,
                    Arc::clone(&tel),
                );
                engine.submit_stream(&events, batch);
                let report = engine.finish().expect("no worker panicked");
                for (object, verdicts) in &expected {
                    assert_eq!(
                        report.verdicts(*object),
                        Some(&verdicts[..]),
                        "telemetry must be passive: {workers} workers, batch {batch}, \
                         seed {seed}, {object}"
                    );
                }
                total_events += events.len() as u64;
                let snap = tel.snapshot();
                assert_eq!(
                    snap.counter("engine_events"),
                    Some(events.len() as u64),
                    "registry events ≠ submitted events"
                );
                assert_eq!(report.stats.events, events.len() as u64);
                // live_stats is a view over the same registry cells.
                let claims = snap.counter("engine_batches").unwrap();
                assert_eq!(claims, report.stats.batches);
                let waits = snap
                    .histogram("engine_queue_wait_ns")
                    .expect("registered")
                    .count;
                assert!(
                    0 < waits && waits <= claims,
                    "{waits} queue waits for {claims} claims: {workers} workers, \
                     batch {batch}, seed {seed}"
                );
            }
            assert!(total_events > 0, "the soak must exercise real streams");
        }
    }
}

/// A register word whose last read returns an overwritten value: refuting
/// it takes a search under either criterion.
fn stale_read() -> Vec<Symbol> {
    let (p0, p1) = (ProcId(0), ProcId(1));
    vec![
        Symbol::invoke(p0, Invocation::Write(7)),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p0, Invocation::Write(1)),
        Symbol::respond(p0, Response::Ack),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p1, Response::Value(7)),
    ]
}

/// Every `Verdict::Maybe(0)` is an `engine_checker_unknown` count: a fleet
/// whose checkers may explore one configuration per search, LIN and SC,
/// half its objects opening with a stale read, at 1/2/4 workers × batch
/// 1/256.  The counter is folded once per claim with the other checker
/// counters, so it is complete once `finish` has returned.
#[test]
fn every_unknown_verdict_is_counted_in_the_registry() {
    let lin = Arc::new(
        CheckerMonitorFactory::linearizability(Register::new(), PROCESSES).with_max_states(1),
    ) as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(
        CheckerMonitorFactory::sequential_consistency(Register::new(), PROCESSES)
            .with_max_states(1),
    ) as Arc<dyn ObjectMonitorFactory>;
    let factory = Arc::new(RoutingMonitorFactory::new(
        "starved LIN/SC",
        move |object: ObjectId| Arc::clone(if object.0 % 4 < 2 { &lin } else { &sc }),
    )) as Arc<dyn ObjectMonitorFactory>;
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    let per_object = (0..16)
        .map(|object| {
            let mut stream = if object % 2 == 1 {
                stale_read()
            } else {
                Vec::new()
            };
            stream.extend(register_object_stream(
                &mut rng,
                12,
                &RegisterStreamShape::load(),
            ));
            (ObjectId(object), stream)
        })
        .collect();
    let events = merge_random(&mut rng, per_object);
    for workers in [1usize, 2, 4] {
        for batch in [1usize, 256] {
            let tel = Telemetry::new();
            let engine = MonitoringEngine::with_telemetry(
                EngineConfig::new(workers),
                Arc::clone(&factory),
                Arc::clone(&tel),
            );
            engine.submit_stream(&events, batch);
            let report = engine.finish().expect("no worker panicked");
            let verdicts: Vec<Verdict> = report
                .objects
                .values()
                .flat_map(|object| object.verdicts.clone())
                .collect();
            let maybes = verdicts
                .iter()
                .filter(|&&verdict| verdict == Verdict::Maybe(0))
                .count();
            assert!(
                maybes >= 50 && verdicts.contains(&Verdict::Yes),
                "the fleet must answer both Unknown and YES: {maybes} Unknown of {}",
                verdicts.len()
            );
            assert_eq!(
                tel.snapshot().counter("engine_checker_unknown"),
                Some(maybes as u64),
                "{workers} workers, batch {batch}"
            );
        }
    }
}

/// Stage timing is never sampled, and that is passive too: explicit
/// batches through `submit_batch` with a live subscription record the
/// queue-wait, check and verdict-flush histograms on every run, and the
/// verdict streams — in the report and on the subscription — stay
/// bit-identical to the sequential reference at 1/4 workers × batch 1/256.
#[test]
fn tracing_forced_verdict_streams_are_bit_identical_to_sequential_reference() {
    for workers in [1usize, 4] {
        for batch_size in [1usize, 256] {
            for seed in 0..STREAMS / 4 {
                let events = merged_stream(seed);
                let factory = mixed_factory();
                let expected = sequential_reference(factory.as_ref(), &events);
                let tel = Telemetry::new();
                let engine = MonitoringEngine::with_telemetry(
                    EngineConfig::new(workers),
                    factory,
                    Arc::clone(&tel),
                );
                let subscription = engine.subscribe(events.len());
                for window in events.chunks(batch_size) {
                    let mut batch = EventBatch::with_capacity(window.len());
                    for (object, symbol) in window {
                        batch.push_symbol(*object, symbol, engine.interner());
                    }
                    engine.submit_batch(&batch);
                }
                let report = engine.finish().expect("no worker panicked");
                let mut received = VerdictBatch::new();
                subscription.poll_batch(&mut received);
                let mut streamed: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
                for (object, seq, verdict) in received.iter() {
                    let stream = streamed.entry(object).or_default();
                    assert_eq!(seq, stream.len() as u64, "{object}: delivered out of order");
                    stream.push(verdict);
                }
                for (object, verdicts) in &expected {
                    let context =
                        format!("{workers} workers, batch {batch_size}, seed {seed}, {object}");
                    assert_eq!(
                        report.verdicts(*object),
                        Some(&verdicts[..]),
                        "report: {context}"
                    );
                    assert_eq!(
                        streamed.get(object),
                        Some(verdicts),
                        "subscription: {context}"
                    );
                }
                let snap = tel.snapshot();
                for stage in [
                    "engine_queue_wait_ns",
                    "engine_check_ns",
                    "engine_verdict_flush_ns",
                ] {
                    let count = snap.histogram(stage).expect("registered").count;
                    assert!(count > 0, "{stage} recorded nothing: seed {seed}");
                }
            }
        }
    }
}

/// The instrumentation actually measures: latency histograms fill, the
/// queue depth gauge returns to zero at quiescence.
#[test]
fn instrumented_run_populates_histograms() {
    let events = merged_stream(7);
    let tel = Telemetry::new();
    let engine =
        MonitoringEngine::with_telemetry(EngineConfig::new(2), mixed_factory(), Arc::clone(&tel));
    engine.submit_stream(&events, 64);
    let report = engine.finish().expect("no worker panicked");
    assert!(report.stats.events > 0);
    let snap = tel.snapshot();
    let check = snap.histogram("engine_check_ns").expect("registered");
    assert!(check.count > 0, "check latency must have been sampled");
    let scatter = snap.histogram("engine_scatter_ns").expect("registered");
    assert!(scatter.count > 0, "scatter latency must have been sampled");
    assert_eq!(
        snap.gauge("engine_queue_depth"),
        Some(0),
        "every enqueued item must have been drained"
    );
    // Checker stats are harvested into the registry, and enough of them to
    // read how often the checker leaves its fast path (`dfs_runs ÷ checks`)
    // and how many of its NOs cost nothing (`latched ÷ checks`): every check
    // searched or did not, and every NO was searched for or answered
    // latched.
    let counter = |name: &str| snap.counter(name).expect("registered");
    let (checks, fast_path) = (
        counter("engine_checker_checks"),
        counter("engine_checker_fast_path"),
    );
    let (dfs_runs, latched) = (
        counter("engine_checker_dfs_runs"),
        counter("engine_checker_latched"),
    );
    assert_eq!(checks, report.stats.events);
    assert_eq!(dfs_runs + fast_path, checks);
    let nos = report
        .objects
        .values()
        .flat_map(|object| &object.verdicts)
        .filter(|verdict| **verdict == Verdict::No)
        .count() as u64;
    assert!(latched > 0 && latched <= nos && nos <= latched + dfs_runs);
}

/// A monitor that panics on its 4th event of one object `K` — every other
/// object's monitor is fine — surfaces as a `WorkerPanic` naming `K`, at
/// every worker count.
#[test]
fn a_monitor_panic_names_its_object() {
    const OBJECTS: u64 = 8;
    const K: u64 = 5;
    struct Bomb {
        armed: bool,
        fed: u32,
    }
    impl ObjectMonitor for Bomb {
        fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
            self.fed += 1;
            assert!(!self.armed || self.fed < 4, "boom on purpose");
            Verdict::Yes
        }
    }
    struct BombFactory;
    impl ObjectMonitorFactory for BombFactory {
        fn name(&self) -> Cow<'_, str> {
            Cow::Borrowed("bomb")
        }
        fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
            Box::new(Bomb {
                armed: object == ObjectId(K),
                fed: 0,
            })
        }
    }
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panics = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = MonitoringEngine::new(EngineConfig::new(workers), Arc::new(BombFactory));
        for i in 0..8 * OBJECTS {
            engine.submit(
                ObjectId(i % OBJECTS),
                &Symbol::invoke(drv_lang::ProcId(0), drv_lang::Invocation::Read),
            );
        }
        panics.push((workers, engine.finish()));
    }
    std::panic::set_hook(hook);
    for (workers, result) in panics {
        let panic = result.expect_err("the monitor panicked");
        assert_eq!(
            panic.object,
            Some(ObjectId(K)),
            "{workers} workers: {panic}"
        );
        assert!(panic.message.contains("boom on purpose"), "{panic}");
        assert!(
            panic.to_string().contains(&ObjectId(K).to_string()),
            "{panic}"
        );
    }
}
