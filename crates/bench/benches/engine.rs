//! Multi-object streaming throughput: the sharded `drv-engine` pool vs the
//! single-thread direct loop.
//!
//! A 64-object mixed LIN/SC register stream (even objects checked for
//! linearizability, odd for sequential consistency) is ingested four ways:
//! inline on the calling thread (the pre-engine deployment: one
//! `IncrementalChecker` per object, fed in arrival order), and through
//! [`MonitoringEngine`] at 1, 2, 4 and 8 workers.  Every engine run's
//! verdict streams are asserted bit-identical to the inline reference —
//! scale must not buy away determinism.
//!
//! Besides the per-configuration report lines, the bench writes the
//! machine-readable baseline `BENCH_engine.json` at the workspace root:
//!
//! ```text
//! cargo bench -p drv-bench --bench engine
//! ```
//!
//! Read `available_parallelism` in the JSON before comparing speedups across
//! machines: a 1-core container time-slices the workers (any gain is pipelining),
//! the same binary on a 4-core runner separates them.

use drv_adversary::{merge_round_robin, register_object_stream, RegisterStreamShape};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{EngineConfig, EventBatch, MonitoringEngine};
use drv_lang::{ObjectId, Symbol, VerdictBatch};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers in the service-mode row.
const SERVICE_WORKERS: usize = 2;
/// Ingestion bound of the service-mode row.
const SERVICE_MAX_PENDING: usize = 4_096;
/// Subscription capacity of the service-mode row.
const SERVICE_SUBSCRIPTION: usize = 1_024;

/// Monitored objects in the stream.
const OBJECTS: u64 = 64;
/// Completed operations per object.
const OPS_PER_OBJECT: usize = 150;
/// Client processes per object.
const PROCESSES: usize = 2;
/// Per-check node budget.
const MAX_STATES: usize = 200_000;
/// Worker counts measured.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Batch sizes of the submit-side rows (`submit_batch` amortization).
const BATCH_SIZES: [usize; 3] = [1, 16, 256];
/// Workers behind the batch-size rows.
const BATCH_WORKERS: usize = 2;
/// Timed repetitions per configuration (minimum is reported).
const REPS: usize = 3;

/// A fresh incremental checker per object, LIN or SC by object id.
fn mixed_factory() -> Arc<RoutingMonitorFactory> {
    let lin = Arc::new(
        CheckerMonitorFactory::linearizability(Register::new(), PROCESSES)
            .with_max_states(MAX_STATES),
    ) as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(
        CheckerMonitorFactory::sequential_consistency(Register::new(), PROCESSES)
            .with_max_states(MAX_STATES),
    ) as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
        if object.0.is_multiple_of(2) {
            Arc::clone(&lin)
        } else {
            Arc::clone(&sc)
        }
    }))
}

/// The 64-object stream — correct register histories with overlapping
/// operations (the workspace's shared generator, load shape: all members,
/// the steady-state traffic) — round-robin merged so every engine batch
/// mixes objects (the adversarial case for routing overhead).
fn merged_stream() -> Vec<(ObjectId, Symbol)> {
    let shape = RegisterStreamShape::load();
    let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..OBJECTS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xE16E ^ i);
            (ObjectId(i), register_object_stream(&mut rng, OPS_PER_OBJECT, &shape))
        })
        .collect();
    merge_round_robin(per_object)
}

fn inline_reference(events: &[(ObjectId, Symbol)]) -> (Duration, BTreeMap<ObjectId, Vec<Verdict>>) {
    let start = Instant::now();
    let verdicts = drv_engine::sequential_reference(mixed_factory().as_ref(), events);
    (start.elapsed(), verdicts)
}

/// The worker-count rows: `submit` per event, i.e. one-event batches
/// through `submit_batch` — interning, routing and one publish per event
/// inside the clock (the `submit_batch` rows below take interning out and
/// vary the batch size).
fn engine_run(
    events: &[(ObjectId, Symbol)],
    workers: usize,
) -> (Duration, BTreeMap<ObjectId, Vec<Verdict>>, u64) {
    let start = Instant::now();
    let engine = MonitoringEngine::new(EngineConfig::new(workers), mixed_factory());
    for (object, symbol) in events {
        engine.submit(*object, symbol);
    }
    let report = engine.finish().expect("no engine worker panicked");
    let elapsed = start.elapsed();
    let steals = report.stats.steals;
    let verdicts = report
        .objects
        .into_iter()
        .map(|(object, r)| (object, r.verdicts))
        .collect();
    (elapsed, verdicts, steals)
}

/// One batched-ingestion run: the stream is pre-cut into `EventBatch`es of
/// `batch_size` (interning paid outside the clock, so the row isolates what
/// batching amortizes — per-event queue locks, routing decisions and
/// epoch-bump/notify publications), then the submit loop alone is timed.
/// Returns `(submit-side, end-to-end, verdicts)`; the caller asserts the
/// verdicts against the inline reference — batching must not move a bit.
fn batched_run(
    events: &[(ObjectId, Symbol)],
    batch_size: usize,
) -> (Duration, (Duration, BTreeMap<ObjectId, Vec<Verdict>>)) {
    let engine = MonitoringEngine::new(EngineConfig::new(BATCH_WORKERS), mixed_factory());
    let mut batches = Vec::with_capacity(events.len() / batch_size + 1);
    let mut batch = EventBatch::with_capacity(batch_size);
    for (object, symbol) in events {
        batch.push_symbol(*object, symbol, engine.interner());
        if batch.len() == batch_size {
            batches.push(std::mem::replace(&mut batch, EventBatch::with_capacity(batch_size)));
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    let start = Instant::now();
    for batch in &batches {
        engine.submit_batch(batch);
    }
    let submit = start.elapsed();
    let report = engine.finish().expect("no engine worker panicked");
    let total = start.elapsed();
    let verdicts = report
        .objects
        .into_iter()
        .map(|(object, r)| (object, r.verdicts))
        .collect();
    (submit, (total, verdicts))
}

/// The always-on deployment shape: bounded ingestion (blocking `submit`),
/// a consumer thread draining a bounded verdict subscription, and eviction
/// of every object the moment its stream completes.  Returns the verdict
/// streams *as subscribed live*, which the caller asserts against the
/// inline reference — service mode must not buy throughput with
/// correctness either.
fn service_run(
    events: &[(ObjectId, Symbol)],
    workers: usize,
) -> (Duration, BTreeMap<ObjectId, Vec<Verdict>>, u64) {
    let start = Instant::now();
    let engine = Arc::new(MonitoringEngine::new(
        EngineConfig::new(workers).with_max_pending(SERVICE_MAX_PENDING),
        mixed_factory(),
    ));
    let subscription = engine.subscribe(SERVICE_SUBSCRIPTION);
    let consumer = std::thread::spawn(move || {
        let mut streams: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
        let mut batch = VerdictBatch::new();
        loop {
            batch.clear();
            subscription.wait_batch(Duration::from_millis(10), &mut batch);
            if batch.is_empty() && subscription.is_closed() {
                break;
            }
            for (object, _seq, verdict) in batch.iter() {
                streams.entry(object).or_default().push(verdict);
            }
        }
        (streams, subscription.missed())
    });
    let mut remaining: HashMap<ObjectId, usize> = HashMap::new();
    for (object, _) in events {
        *remaining.entry(*object).or_default() += 1;
    }
    for (object, symbol) in events {
        engine.submit(*object, symbol);
        let left = remaining.get_mut(object).expect("counted");
        *left -= 1;
        if *left == 0 {
            engine.evict(*object);
        }
    }
    // Quiesce so no verdict spills to `missed` at shutdown.
    while engine.backlog() > 0 {
        std::thread::yield_now();
    }
    let engine = Arc::into_inner(engine).expect("consumer holds no engine handle");
    let report = engine.finish().expect("no engine worker panicked");
    let elapsed = start.elapsed();
    let (streams, missed) = consumer.join().expect("consumer finished");
    assert_eq!(missed, 0, "service run missed verdicts despite quiescing");
    (elapsed, streams, report.stats.evicted)
}

fn best_of<T>(mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..REPS {
        let run = f();
        if best.as_ref().is_none_or(|(d, _)| run.0 < *d) {
            best = Some(run);
        }
    }
    best.expect("REPS > 0")
}

fn throughput(events: usize, duration: Duration) -> f64 {
    events as f64 / duration.as_secs_f64().max(1e-12)
}

fn main() {
    let events = merged_stream();
    let total = events.len();
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "engine bench: {OBJECTS} objects x {OPS_PER_OBJECT} ops \
         ({total} symbols), {parallelism} hardware threads"
    );
    if parallelism == 1 {
        // The recorded hardware-thread count travels with the JSON, and
        // nobody should mistake a time-sliced run for a scaling measurement.
        eprintln!(
            "\n\
             ==========================================================================\n\
             WARNING: only 1 hardware thread detected. Every multi-worker speedup in\n\
             this run (and in the BENCH_engine.json it writes) measures pipelining,\n\
             not parallelism. Re-run on a >= 4-core machine before tuning batch size\n\
             or shard count.\n\
             ==========================================================================\n"
        );
    }

    let (inline_time, reference) = best_of(|| inline_reference(&events));
    println!(
        "engine/inline-single-thread: {:>10.2} ms  {:>12.0} events/s",
        inline_time.as_secs_f64() * 1e3,
        throughput(total, inline_time),
    );

    let mut engine_times = Vec::new();
    for workers in WORKER_COUNTS {
        let (elapsed, (verdicts, steals)) = best_of(|| {
            let (elapsed, verdicts, steals) = engine_run(&events, workers);
            (elapsed, (verdicts, steals))
        });
        assert_eq!(
            verdicts, reference,
            "{workers} workers: engine verdict streams differ from the inline reference"
        );
        println!(
            "engine/sharded-batch-1/{workers}-workers: {:>8.2} ms  {:>12.0} events/s  ({} steals)",
            elapsed.as_secs_f64() * 1e3,
            throughput(total, elapsed),
            steals,
        );
        engine_times.push((workers, elapsed));
    }

    let mut batch_rows = Vec::new();
    for batch_size in BATCH_SIZES {
        let (submit_time, (total_time, verdicts)) = best_of(|| batched_run(&events, batch_size));
        assert_eq!(
            verdicts, reference,
            "batch {batch_size}: engine verdict streams differ from the inline reference"
        );
        println!(
            "engine/submit-batch/{batch_size:>3}:    {:>10.2} ms submit-side  \
             {:>12.0} events/s  (end-to-end {:.2} ms)",
            submit_time.as_secs_f64() * 1e3,
            throughput(total, submit_time),
            total_time.as_secs_f64() * 1e3,
        );
        batch_rows.push((batch_size, submit_time, total_time));
    }
    for pair in batch_rows.windows(2) {
        if pair[1].1 > pair[0].1 {
            eprintln!(
                "WARNING: submit-side throughput did not improve from batch {} to {} \
                 ({:?} -> {:?}); expect noise on a loaded machine, re-run the bench",
                pair[0].0, pair[1].0, pair[0].1, pair[1].1,
            );
        }
    }

    let (service_time, (service_streams, service_evicted)) = best_of(|| {
        let (elapsed, streams, evicted) = service_run(&events, SERVICE_WORKERS);
        (elapsed, (streams, evicted))
    });
    assert_eq!(
        service_streams, reference,
        "service mode: subscribed verdict streams differ from the inline reference"
    );
    assert_eq!(service_evicted, OBJECTS, "every quiesced object retired");
    println!(
        "engine/service/{SERVICE_WORKERS}-workers:   {:>10.2} ms  {:>12.0} events/s  \
         (bounded queue {SERVICE_MAX_PENDING}, live subscription, {service_evicted} evicted)",
        service_time.as_secs_f64() * 1e3,
        throughput(total, service_time),
    );

    let time_at = |workers: usize| -> Duration {
        engine_times
            .iter()
            .find(|(w, _)| *w == workers)
            .expect("measured")
            .1
    };
    let speedup_4v1 = time_at(1).as_secs_f64() / time_at(4).as_secs_f64().max(1e-12);
    println!("engine: {speedup_4v1:.2}x aggregate throughput at 4 workers vs 1 worker");

    let rows: Vec<String> = engine_times
        .iter()
        .map(|(workers, elapsed)| {
            format!(
                concat!(
                    "    {{ \"workers\": {}, \"total_ns\": {}, ",
                    "\"events_per_sec\": {:.0} }}"
                ),
                workers,
                elapsed.as_nanos(),
                throughput(total, *elapsed),
            )
        })
        .collect();
    let batch_json_rows: Vec<String> = batch_rows
        .iter()
        .map(|(batch_size, submit, total_time)| {
            format!(
                concat!(
                    "    {{ \"batch\": {}, \"workers\": {}, \"submit_ns\": {}, ",
                    "\"submit_events_per_sec\": {:.0}, \"total_ns\": {} }}"
                ),
                batch_size,
                BATCH_WORKERS,
                submit.as_nanos(),
                throughput(total, *submit),
                total_time.as_nanos(),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sharded streaming engine vs single-thread direct loop\",\n",
            "  \"regenerate\": \"cargo bench -p drv-bench --bench engine\",\n",
            "  \"stream\": \"{} register objects, mixed LIN/SC (even/odd), {} ops each\",\n",
            "  \"events\": {},\n",
            "  \"processes_per_object\": {},\n",
            "  \"max_states\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"single_core_caveat\": {},\n",
            "  \"unit\": \"total nanoseconds to ingest and fully check the stream\",\n",
            "  \"single_thread_ns\": {},\n",
            "  \"single_thread_events_per_sec\": {:.0},\n",
            "  \"sharded\": [\n{}\n  ],\n",
            "  \"submit_batch\": [\n{}\n  ],\n",
            "  \"service_mode\": {{ \"workers\": {}, \"max_pending\": {}, ",
            "\"subscription_capacity\": {}, \"total_ns\": {}, ",
            "\"events_per_sec\": {:.0}, \"evicted\": {} }},\n",
            "  \"speedup_4_workers_vs_1\": {:.2},\n",
            "  \"verdicts_bit_identical_to_single_thread\": true\n",
            "}}\n"
        ),
        OBJECTS,
        OPS_PER_OBJECT,
        total,
        PROCESSES,
        MAX_STATES,
        parallelism,
        parallelism == 1,
        inline_time.as_nanos(),
        throughput(total, inline_time),
        rows.join(",\n"),
        batch_json_rows.join(",\n"),
        SERVICE_WORKERS,
        SERVICE_MAX_PENDING,
        SERVICE_SUBSCRIPTION,
        service_time.as_nanos(),
        throughput(total, service_time),
        service_evicted,
        speedup_4v1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
