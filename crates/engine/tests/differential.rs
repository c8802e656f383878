//! The engine's acceptance bar: on hundreds of seeded multi-object event
//! streams, the verdict streams produced by [`MonitoringEngine`] — at *any*
//! worker count — are bit-identical to feeding each object's stream to a
//! sequential per-object [`IncrementalChecker`], at every prefix, for both
//! linearizability and sequential consistency.
//!
//! The engine emits one verdict per ingested symbol, so the per-object
//! verdict stream *is* the every-prefix comparison: element `i` is the
//! verdict of the object's first `i + 1` symbols.
//!
//! Every suite loops over [`WORKERS`] × [`BATCHES`]: ingestion is
//! `submit_batch` over `EventBatch`es, or `try_submit_frame` over their
//! batch frames, of up to the batch size (1 = one frame per event, 256 =
//! the production framing), and delivery is `poll_batch` over
//! `VerdictBatch`es.

use drv_adversary::{merge_random, merge_round_robin, register_object_stream, RegisterStreamShape};
use drv_consistency::{CheckerConfig, IncrementalChecker};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig, EventBatch, MonitoringEngine, SubmitError};
use drv_lang::frame::FrameEncoder;
use drv_lang::{Action, ObjectId, Response, Symbol, VerdictBatch};
use drv_spec::Register;
use drv_store::{recover, FsyncPolicy, Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Client processes per object.
const PROCESSES: usize = 2;
/// Seeded streams per run (the issue's floor is 500).
const STREAMS: u64 = 500;

fn criterion_of(object: ObjectId) -> CheckerConfig {
    // Mixed traffic: even objects are checked for linearizability, odd ones
    // for sequential consistency.
    if object.0.is_multiple_of(2) {
        CheckerConfig::linearizability()
    } else {
        CheckerConfig::sequential_consistency()
    }
}

/// The engine-side factory: a fresh incremental checker per object, LIN or
/// SC by object id.
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

/// A multi-object stream: per-object register streams (the workspace's
/// shared seeded generator, differential shape: overlap + stale reads so
/// both YES and NO verdicts occur), randomly merged with per-object order
/// preserved — the engine's ingest order.
fn merged_stream(seed: u64) -> Vec<(ObjectId, Symbol)> {
    let shape = RegisterStreamShape::differential();
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = rng.gen_range(2..=4);
    let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..objects)
        .map(|i| {
            let ops = rng.gen_range(4..=8);
            // Spread the ids so both criteria and several shards are hit.
            let id = ObjectId(seed * 16 + i);
            (id, register_object_stream(&mut rng, ops, &shape))
        })
        .collect();
    merge_random(&mut rng, per_object)
}

/// The independent reference: one sequential `IncrementalChecker` per
/// object, fed in merged order on the calling thread.
fn sequential_verdicts(events: &[(ObjectId, Symbol)]) -> BTreeMap<ObjectId, Vec<Verdict>> {
    let mut checkers: BTreeMap<ObjectId, IncrementalChecker<Register>> = BTreeMap::new();
    let mut verdicts: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
    for (object, symbol) in events {
        let checker = checkers.entry(*object).or_insert_with(|| {
            IncrementalChecker::new(Register::new(), criterion_of(*object), PROCESSES)
        });
        checker.push_symbol(symbol);
        verdicts
            .entry(*object)
            .or_default()
            .push(Verdict::from(checker.check_outcome()));
    }
    verdicts
}

/// Worker counts every suite runs at.
const WORKERS: [usize; 3] = [1, 2, 4];
/// Ingestion batch sizes every suite runs at.
const BATCHES: [usize; 2] = [1, 256];

fn matrix() -> impl Iterator<Item = (usize, usize)> {
    WORKERS
        .into_iter()
        .flat_map(|workers| BATCHES.into_iter().map(move |batch| (workers, batch)))
}

#[test]
fn engine_verdicts_equal_sequential_checkers_on_seeded_streams() {
    let mut yes_streams = 0u64;
    let mut no_streams = 0u64;
    for seed in 0..STREAMS {
        let events = merged_stream(seed);
        let expected = sequential_verdicts(&events);
        if expected
            .values()
            .any(|v| v.last().is_some_and(|verdict| verdict.is_no()))
        {
            no_streams += 1;
        } else {
            yes_streams += 1;
        }
        for (workers, batch) in matrix() {
            let engine = MonitoringEngine::new(EngineConfig::new(workers), mixed_factory());
            engine.submit_stream(&events, batch);
            let report = engine.finish().expect("no worker panicked");
            assert_eq!(
                report.objects.len(),
                expected.len(),
                "seed {seed}, {workers} workers, batch {batch}: object sets differ"
            );
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "seed {seed}, {workers} workers, batch {batch}, {object}: verdict streams differ"
                );
            }
        }
    }
    // The generator must produce both members and violations, or the suite
    // proves nothing.
    assert!(yes_streams >= 50, "only {yes_streams} clean streams");
    assert!(no_streams >= 50, "only {no_streams} flagged streams");
}

/// Appends delivered verdicts to the per-object streams, checking that
/// every `seq` continues its stream.
fn extend_streams(
    streamed: &mut BTreeMap<ObjectId, Vec<Verdict>>,
    received: &VerdictBatch<Verdict>,
    context: &str,
) {
    for (object, seq, verdict) in received.iter() {
        let stream = streamed.entry(object).or_default();
        assert_eq!(
            seq,
            stream.len() as u64,
            "{context}, {object}: subscription out of order"
        );
        stream.push(verdict);
    }
}

/// Flushes the soak's producer-side buffer through `try_submit_frame` over
/// the buffer's batch frame, draining the subscription while the bounded
/// queue is full (this thread is both producer and consumer, so it must
/// never block).
fn flush_buffer(
    engine: &MonitoringEngine,
    buffer: &mut EventBatch,
    subscription: &drv_engine::VerdictSubscription,
    received: &mut VerdictBatch<Verdict>,
    rejections: &mut u64,
    seed: u64,
) {
    if buffer.is_empty() {
        return;
    }
    let frame = FrameEncoder::new().encode_batch(0, buffer, engine.interner());
    loop {
        match engine.try_submit_frame(buffer, &frame) {
            Ok(()) => break,
            Err(SubmitError::Full) => {
                *rejections += 1;
                subscription.poll_batch(received);
                std::thread::yield_now();
            }
            Err(SubmitError::Aborted) => panic!("seed {seed}: worker died"),
        }
    }
    buffer.clear();
}

/// The service-mode soak: the full long-running surface at once — a tiny
/// `max_pending` bound (so `try_submit_frame` rejections are exercised on
/// nearly every stream), a bounded verdict subscription drained
/// opportunistically, and eviction of every object the moment its stream
/// completes — and the verdict streams, both as subscribed live and as
/// reported by `finish`, still bit-identical to the sequential per-object
/// reference at every worker count and batch size (batches clamped to the
/// bound, since a batch larger than `max_pending` is never acceptable
/// atomically).  The buffer is flushed before every eviction so markers
/// keep queueing FIFO behind the object's own events.
#[test]
fn service_mode_soak_matches_sequential_reference() {
    /// Seeded streams for the soak (cheaper per stream than the main suite
    /// because each run also drains a subscription).
    const SOAK_STREAMS: u64 = 150;

    let mut rejections = 0u64;
    let mut evictions = 0u64;
    for seed in 0..SOAK_STREAMS {
        let events = merged_stream(seed);
        let expected = sequential_verdicts(&events);
        // How many events each object still has in flight (to evict it the
        // moment it quiesces).
        let mut remaining: BTreeMap<ObjectId, usize> = BTreeMap::new();
        for (object, _) in &events {
            *remaining.entry(*object).or_default() += 1;
        }
        let mut evict_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for (workers, batch) in matrix() {
            const MAX_PENDING: usize = 8;
            let context = format!("seed {seed}, {workers} workers, batch {batch}");
            let engine = MonitoringEngine::new(
                EngineConfig::new(workers).with_max_pending(MAX_PENDING),
                mixed_factory(),
            );
            let subscription = engine.subscribe(16);
            let mut received = VerdictBatch::new();
            let mut in_flight = remaining.clone();
            let chunk = batch.min(MAX_PENDING);
            let mut buffer = EventBatch::new();
            for (object, symbol) in &events {
                // try_submit_frame only: a blocking submit here could
                // deadlock against a worker blocked on the full
                // subscription, since this thread is also the consumer.
                buffer.push_symbol(*object, symbol, engine.interner());
                if buffer.len() == chunk {
                    flush_buffer(
                        &engine,
                        &mut buffer,
                        &subscription,
                        &mut received,
                        &mut rejections,
                        seed,
                    );
                }
                let left = in_flight.get_mut(object).expect("counted");
                *left -= 1;
                if *left == 0 && evict_rng.gen_bool(0.5) {
                    // Quiesced: evicting must not change any stream.  The
                    // buffer is flushed first so the marker queues behind
                    // the object's buffered events.
                    flush_buffer(
                        &engine,
                        &mut buffer,
                        &subscription,
                        &mut received,
                        &mut rejections,
                        seed,
                    );
                    engine.evict(*object);
                    evictions += 1;
                }
            }
            flush_buffer(
                &engine,
                &mut buffer,
                &subscription,
                &mut received,
                &mut rejections,
                seed,
            );
            while engine.backlog() > 0 {
                subscription.poll_batch(&mut received);
                std::thread::yield_now();
            }
            let report = engine.finish().expect("no worker panicked");
            subscription.poll_batch(&mut received);
            assert_eq!(subscription.missed(), 0, "{context}");
            // Rebuild the per-object streams from the live deliveries.
            let mut streamed: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
            extend_streams(&mut streamed, &received, &context);
            assert_eq!(streamed, expected, "{context}: subscribed streams differ");
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "{context}, {object}: reported streams differ"
                );
            }
        }
    }
    // The soak proves nothing unless the service paths actually fired.
    assert!(
        rejections > 0,
        "max_pending=8 never rejected a try_submit_frame"
    );
    assert!(evictions > 0, "no object was ever evicted");
}

/// Blocks until the workers have checked everything submitted so far.
fn wait_until_drained(engine: &MonitoringEngine) {
    while engine.backlog() > 0 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// The tier-1 twin of `drvbench`'s `deep-history` and `recover` workloads:
/// histories thousands of operations deep — where a per-event cost that
/// grows with the history used to make this suite too slow to write —
/// through a journaled engine that crashes mid-stream and recovers from its
/// checkpoints.  One linearizability object reads a stale value after the
/// crash, so a restored checker also runs a search as deep as its history
/// on a worker's stack and latches.
#[test]
fn deep_histories_survive_a_crash_bit_identically() {
    const OPS: usize = 6_000;
    const STALE_AT: usize = 5_000;
    const CHECKPOINT_INTERVAL: u64 = 1_024;

    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let mut per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..4)
        .map(|id| {
            (
                ObjectId(id),
                register_object_stream(&mut rng, OPS, &RegisterStreamShape::load()),
            )
        })
        .collect();
    // The first read at or after operation STALE_AT of object 0 (LIN)
    // returns a value nobody wrote.
    let stale = per_object[0]
        .1
        .iter_mut()
        .filter(|symbol| matches!(symbol.action, Action::Respond(_)))
        .skip(STALE_AT)
        .find_map(|symbol| match &mut symbol.action {
            Action::Respond(Response::Value(value)) => Some(value),
            _ => None,
        })
        .expect("a read after STALE_AT");
    *stale += 1_000;
    let events = merge_round_robin(per_object);
    let expected = sequential_reference(mixed_factory().as_ref(), &events);
    assert!(expected[&ObjectId(0)]
        .last()
        .is_some_and(|verdict| verdict.is_no()));
    assert!((1..4).all(|id| expected[&ObjectId(id)]
        .iter()
        .all(|verdict| verdict.is_yes())));

    let store_config = StoreConfig::new()
        .with_checkpoint_interval(CHECKPOINT_INTERVAL)
        .with_fsync(FsyncPolicy::Never);
    // The crash point: a frame boundary at either batch size, before the
    // stale read.
    let cut = events.len() / 2 / 256 * 256;
    for workers in WORKERS {
        for batch in BATCHES {
            let context = format!("{workers} workers, batch {batch}");
            let path = std::env::temp_dir().join(format!(
                "drv-engine-deep-{}-{workers}-{batch}.journal",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);

            // First life: journal the prefix, then die without a goodbye.
            let store = Arc::new(Store::open(&path, store_config).expect("journal opens"));
            let engine = MonitoringEngine::new(EngineConfig::new(workers), mixed_factory());
            engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);
            let subscription = engine.subscribe(events.len());
            engine.submit_stream(&events[..cut], batch);
            wait_until_drained(&engine);
            let mut received = VerdictBatch::new();
            subscription.poll_batch(&mut received);
            assert_eq!(subscription.missed(), 0, "{context}");
            assert!(
                store.io_error().is_none(),
                "{context}: {:?}",
                store.io_error()
            );
            assert!(
                store.stats().checkpoints >= 4,
                "{context}: {:?}",
                store.stats()
            );
            drop((subscription, engine, store));

            // Second life: checkpoints seed every object, the journal's
            // suffix replays, and the rest of the stream arrives.
            let recovery = recover(
                &path,
                store_config,
                EngineConfig::new(workers),
                mixed_factory(),
            )
            .expect("recovery succeeds");
            assert_eq!(recovery.stats.replayed_events, cut as u64, "{context}");
            assert_eq!(
                recovery.stats.seeded_objects, 4,
                "{context}: {:?}",
                recovery.stats
            );
            wait_until_drained(&recovery.engine);
            let subscription = recovery.engine.subscribe(events.len());
            recovery.engine.submit_stream(&events[cut..], batch);
            wait_until_drained(&recovery.engine);
            let report = recovery.engine.finish().expect("no worker panicked");
            subscription.poll_batch(&mut received);
            assert_eq!(subscription.missed(), 0, "{context}");
            let mut streamed: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
            extend_streams(&mut streamed, &received, &context);
            let _ = std::fs::remove_file(&path);

            assert_eq!(streamed, expected, "{context}: subscribed streams differ");
            assert_eq!(report.objects.len(), expected.len(), "{context}");
            for (object, verdicts) in &expected {
                assert!(
                    report.verdicts(*object) == Some(&verdicts[..]),
                    "{context}, {object}: reported streams differ"
                );
            }
        }
    }
}

#[test]
fn family_monitors_are_deterministic_across_worker_counts() {
    // The MonitorFamily adapter (Figure 8 V_O) through the engine: the
    // verdict streams must agree across worker counts and batch sizes.
    use drv_core::monitors::PredictiveFamily;
    use drv_core::FamilyMonitorFactory;

    let factory = || {
        Arc::new(FamilyMonitorFactory::new(
            Arc::new(PredictiveFamily::linearizable(Register::new())),
            PROCESSES,
        ))
    };
    for seed in [3, 11, 42] {
        let events = merged_stream(seed);
        let mut baseline: Option<BTreeMap<ObjectId, Vec<Verdict>>> = None;
        for (workers, batch) in matrix() {
            let engine = MonitoringEngine::new(EngineConfig::new(workers), factory());
            engine.submit_stream(&events, batch);
            let report = engine.finish().expect("no worker panicked");
            let streams: BTreeMap<ObjectId, Vec<Verdict>> = report
                .objects
                .iter()
                .map(|(object, r)| (*object, r.verdicts.clone()))
                .collect();
            match &baseline {
                None => baseline = Some(streams),
                Some(expected) => assert_eq!(expected, &streams, "seed {seed}"),
            }
        }
    }
}
