//! A monitoring *service*: thousands of objects, one always-on engine.
//!
//! The paper's monitors decide one distributed language for one object; a
//! production service multiplexes heavy traffic over many objects at once —
//! and it never reaches "end of run".  This example plays such a service
//! with the engine's long-running surface:
//!
//! * **Bounded ingestion** — `EngineConfig::with_max_pending` caps the
//!   submitted-but-unprocessed backlog; the producer's blocking `submit`
//!   rides the backpressure instead of ballooning memory.
//! * **Live verdict consumption** — a consumer thread drains a bounded
//!   [`VerdictSubscription`] and raises "pages" the moment an object's
//!   monitor says NO, long before the final report exists.
//! * **Eviction of quiesced objects** — every object is `evict`ed as soon
//!   as its stream completes, so per-object monitor state never grows with
//!   history length; the final report still carries every verdict.
//!
//! 2 000 register objects (even ids checked for linearizability, odd for
//! sequential consistency) emit interleaved invocation/response traffic, a
//! handful of them misbehave (stale reads), and a sharded
//! [`MonitoringEngine`] with a work-stealing worker pool checks everything
//! concurrently.
//!
//! ```text
//! cargo run --example engine_service --release
//! cargo run --example engine_service --release -- --batch 256
//! ```
//!
//! With `--batch N` the producer runs the batched production path: traffic
//! is interned into `EventBatch`es of `N` events and handed to
//! `submit_batch`, which scatters each batch across the shards in one
//! routing pass and wakes the pool once per batch.  Verdicts are identical
//! either way — batching only amortizes the submission overhead.
//!
//! [`MonitoringEngine`]: drv::engine::MonitoringEngine
//! [`VerdictSubscription`]: drv::engine::VerdictSubscription

use drv::core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv::engine::{EngineConfig, MonitoringEngine};
use drv::lang::{EventBatch, Invocation, ObjectId, ProcId, Response, Symbol, VerdictBatch};
use drv::spec::Register;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Monitored objects.
const OBJECTS: u64 = 2_000;
/// Completed operations per object.
const OPS_PER_OBJECT: u64 = 6;
/// Client processes per object.
const PROCESSES: usize = 2;
/// Every 97th object serves a stale read (a `LIN_REG` violation; the odd
/// ones among them are still `SC_REG` members, which the aggregate shows).
const FAULT_STRIDE: u64 = 97;
/// Ingestion bound: at most this many submitted-but-unprocessed events.
const MAX_PENDING: usize = 4_096;
/// Verdict channel capacity.
const SUBSCRIPTION_CAPACITY: usize = 1_024;

/// Per-object monitor: LIN for even ids, SC for odd ids — one long-lived
/// incremental checker each.
fn mixed_factory() -> Arc<RoutingMonitorFactory> {
    let lin = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), PROCESSES))
        as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(Register::new(), PROCESSES))
        as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
        if object.0.is_multiple_of(2) {
            Arc::clone(&lin)
        } else {
            Arc::clone(&sc)
        }
    }))
}

/// One round of an object's traffic: a write immediately acknowledged, then
/// a read.  Faulty objects return the *previous* value on the final read.
fn round(object: ObjectId, round: u64) -> Vec<Symbol> {
    let value = round + 1;
    let faulty = object.0.is_multiple_of(FAULT_STRIDE) && round + 1 == OPS_PER_OBJECT / 2;
    let read_value = if faulty { value - 1 } else { value };
    vec![
        Symbol::invoke(ProcId(0), Invocation::Write(value)),
        Symbol::respond(ProcId(0), Response::Ack),
        Symbol::invoke(ProcId(1), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Value(read_value)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--batch N`: ingest through `submit_batch` over N-event batches.
    let batch_size: Option<usize> = args
        .iter()
        .position(|arg| arg == "--batch")
        .map(|position| {
            args.get(position + 1)
                .and_then(|arg| arg.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(256)
        });
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().max(2));
    match batch_size {
        Some(size) => println!(
            "engine service: {OBJECTS} objects on {workers} workers, batched ingestion ({size} events/batch)"
        ),
        None => println!("engine service: {OBJECTS} objects on {workers} workers"),
    }
    let start = std::time::Instant::now();
    let engine = Arc::new(MonitoringEngine::new(
        EngineConfig::new(workers).with_max_pending(MAX_PENDING),
        mixed_factory(),
    ));

    // The live consumer: pages on the first NO per object, counts the rest.
    // It sees verdicts while the producer is still submitting — no waiting
    // for the end-of-run report.
    let subscription = engine.subscribe(SUBSCRIPTION_CAPACITY);
    let consumer = std::thread::spawn(move || {
        let mut delivered = 0u64;
        let mut paged: BTreeSet<ObjectId> = BTreeSet::new();
        let mut batch = VerdictBatch::new();
        loop {
            batch.clear();
            subscription.wait_batch(Duration::from_millis(50), &mut batch);
            if batch.is_empty() && subscription.is_closed() {
                break;
            }
            for (object, seq, verdict) in batch.iter() {
                delivered += 1;
                if verdict == Verdict::No && paged.insert(object) {
                    println!("  page: {object} flagged NO at stream position {seq}");
                }
            }
        }
        (delivered, paged.len(), subscription.missed())
    });

    // The service's firehose: round-robin over all objects, so consecutive
    // events almost never belong to the same object (the adversarial case
    // for the router).  Ingestion blocks at the MAX_PENDING bound — bounded
    // memory, not an unbounded queue.  In batch mode the symbols are
    // interned into reusable EventBatches and scattered shard-wise in one
    // routing pass per batch.
    let mut batch = EventBatch::with_capacity(batch_size.unwrap_or(0));
    for r in 0..OPS_PER_OBJECT / 2 {
        for object in 0..OBJECTS {
            let object = ObjectId(object);
            for symbol in round(object, r) {
                match batch_size {
                    Some(size) => {
                        batch.push_symbol(object, &symbol, engine.interner());
                        if batch.len() >= size {
                            engine.submit_batch(&batch);
                            batch.clear();
                        }
                    }
                    None => engine.submit(object, &symbol),
                }
            }
            if r == OPS_PER_OBJECT / 2 - 1 {
                // This object's stream is complete: retire its monitor now.
                // Its verdicts stay in the final report, its slot is freed —
                // per-object state does not grow with history length.  The
                // batch is flushed first so the eviction marker queues FIFO
                // behind the object's own buffered events.
                if !batch.is_empty() {
                    engine.submit_batch(&batch);
                    batch.clear();
                }
                engine.evict(object);
            }
        }
    }
    engine.submit_batch(&batch);

    let engine = Arc::into_inner(engine).expect("consumer holds no engine handle");
    // Quiesce before shutdown: once the backlog is drained every verdict
    // has been handed to the subscription, so none spill to `missed` when
    // finish() stops the workers.
    while engine.backlog() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = engine.finish().expect("no engine worker panicked");
    let (delivered, paged, missed) = consumer.join().expect("consumer finished");
    let elapsed = start.elapsed();
    let aggregate = report.aggregate();
    let stats = report.stats;

    println!(
        "ingested {} events in {:.1} ms ({:.0} events/s), backlog bounded at {MAX_PENDING}",
        stats.events,
        elapsed.as_secs_f64() * 1e3,
        stats.events as f64 / elapsed.as_secs_f64().max(1e-12),
    );
    println!(
        "pool: {} workers, {} shards, {} batches, {} steals, {} evicted, {} park wakeups",
        stats.workers, stats.shards, stats.batches, stats.steals, stats.evicted,
        stats.park_wakeups,
    );
    println!("subscription: {delivered} verdicts delivered live, {paged} objects paged, {missed} missed");
    println!("aggregate verdict: {aggregate}");

    // The stale read flips even (LIN-checked) fault objects to NO forever
    // (linearizability latches); odd fault objects recover — sequential
    // consistency tolerates a stale read once a later write legalizes it.
    let lin_faulty = ObjectId(2 * FAULT_STRIDE);
    let sc_faulty = ObjectId(FAULT_STRIDE);
    let lin_stream = report.verdicts(lin_faulty).expect("monitored");
    let sc_stream = report.verdicts(sc_faulty).expect("monitored");
    println!(
        "{lin_faulty} (LIN): final verdict {} — a stale read latches",
        lin_stream.last().expect("non-empty"),
    );
    println!(
        "{sc_faulty} (SC): dipped to NO {} time(s), final verdict {}",
        sc_stream.iter().filter(|v| v.is_no()).count(),
        sc_stream.last().expect("non-empty"),
    );
    assert_eq!(lin_stream.last(), Some(&Verdict::No));
    assert_eq!(sc_stream.last(), Some(&Verdict::Yes));
    assert_eq!(aggregate.overall, Verdict::No);
    assert_eq!(aggregate.yes + aggregate.no + aggregate.maybe, OBJECTS as usize);
    assert_eq!(missed, 0, "the service quiesced before shutdown");
    assert_eq!(delivered, stats.events, "every verdict was delivered live");
    assert_eq!(stats.evicted, OBJECTS, "every quiesced object was retired");
    println!("verdict streams: one per object, bit-identical to a sequential re-check");
}
