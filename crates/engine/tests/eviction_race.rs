//! Eviction racing ingestion: `evict()` interleaved with concurrent
//! `submit_batch` on the *same* objects, with the merged report still
//! matching the sequential reference.
//!
//! Two angles:
//!
//! * [`deterministic_evictions_race_sweeps_and_match_reference`] pins every
//!   eviction to a deterministic point of the submission sequence (so the
//!   retirement boundaries — and therefore the epoch splits of each object's
//!   monitor — are exactly reproducible) while a second thread hammers
//!   `live_stats()` / `backlog()` the whole time.  The merged report must
//!   be bit-identical to a reference replay that resets its per-object
//!   monitors at the same points — including streams where a pre-eviction
//!   epoch latched NO and the post-eviction epoch recovers.
//! * [`evictions_race_round_aligned_ingestion`] turns an evictor thread
//!   loose against live traffic: object streams are self-contained rounds
//!   (`write v; ack; read; v`), submitted whole-round-atomically, so *any*
//!   interleaving of random evictions and ingestion retires monitors only
//!   at round boundaries — where a reset is invisible — and the merged
//!   report must equal the uninterrupted [`sequential_reference`].

use drv_core::{
    CheckerMonitorFactory, ObjectMonitor, ObjectMonitorFactory, RoutingMonitorFactory, Verdict,
};
use drv_engine::{sequential_reference, EngineConfig, EventBatch, MonitoringEngine};
use drv_lang::{Invocation, ObjectId, ProcId, Response, Symbol};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const PROCESSES: usize = 2;

/// LIN for even objects, SC for odd — the workspace's standard mixed fleet.
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

/// One self-contained round of an object's traffic; a faulty round serves a
/// stale read (a LIN violation that latches, an SC dip that recovers).
fn round(value: u64, faulty: bool) -> Vec<Symbol> {
    let read = if faulty { value.wrapping_sub(1) } else { value };
    vec![
        Symbol::invoke(ProcId(0), Invocation::Write(value)),
        Symbol::respond(ProcId(0), Response::Ack),
        Symbol::invoke(ProcId(1), Invocation::Read),
        Symbol::respond(ProcId(1), Response::Value(read)),
    ]
}

/// The reference: replay the submission sequence through per-object monitors
/// from the same factory, dropping (and later recreating) an object's
/// monitor at each of its scheduled eviction points — exactly what the
/// engine's FIFO eviction markers do.
fn reference_with_resets(
    factory: &dyn ObjectMonitorFactory,
    events: &[(ObjectId, Symbol)],
    evictions: &[(usize, ObjectId)],
) -> BTreeMap<ObjectId, Vec<Verdict>> {
    let mut monitors: BTreeMap<ObjectId, Box<dyn ObjectMonitor>> = BTreeMap::new();
    let mut verdicts: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
    let mut next_evict = 0;
    for (index, (object, symbol)) in events.iter().enumerate() {
        while next_evict < evictions.len() && evictions[next_evict].0 == index {
            monitors.remove(&evictions[next_evict].1);
            next_evict += 1;
        }
        let monitor = monitors
            .entry(*object)
            .or_insert_with(|| factory.create(*object));
        verdicts
            .entry(*object)
            .or_default()
            .push(monitor.on_symbol(symbol));
    }
    verdicts
}

/// Spawns a thread that hammers the read-only maintenance surface until
/// stopped.
fn spawn_observer(
    engine: &Arc<MonitoringEngine>,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let engine = Arc::clone(engine);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Ordering::Acquire) {
            let _ = engine.backlog();
            let _ = engine.live_stats();
            std::thread::yield_now();
        }
    })
}

#[test]
fn deterministic_evictions_race_sweeps_and_match_reference() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xE71C ^ seed);
        let objects: Vec<ObjectId> = (0..4).map(|i| ObjectId(seed * 8 + i)).collect();
        // Interleaved multi-round streams; some rounds faulty.
        let mut events: Vec<(ObjectId, Symbol)> = Vec::new();
        for r in 0..6u64 {
            for &object in &objects {
                let faulty = rng.gen_bool(0.2);
                for symbol in round(r + 1, faulty) {
                    events.push((object, symbol));
                }
            }
        }
        // Deterministic eviction schedule: a couple of mid-stream points
        // (epoch splits visible in the verdicts) and one post-stream point
        // per object (a no-op on the verdicts), all pinned to event indices.
        let mut evictions: Vec<(usize, ObjectId)> = Vec::new();
        for (i, &object) in objects.iter().enumerate() {
            if i % 2 == 0 {
                evictions.push((events.len() / 2, object));
            }
            evictions.push((events.len(), object));
        }
        evictions.sort_by_key(|(index, object)| (*index, object.0));
        let expected = reference_with_resets(mixed_factory().as_ref(), &events, &evictions);

        for workers in [1, 2, 4] {
            // The concurrent observer races the ingestion path; reading
            // the counters must not disturb what the workers decide.
            let engine =
                Arc::new(MonitoringEngine::new(EngineConfig::new(workers), mixed_factory()));
            let stop = Arc::new(AtomicBool::new(false));
            let observer = spawn_observer(&engine, &stop);
            let mut batch = EventBatch::new();
            let mut next_evict = 0;
            for (index, (object, symbol)) in events.iter().enumerate() {
                while next_evict < evictions.len() && evictions[next_evict].0 == index {
                    // Flush first: the marker must queue FIFO behind every
                    // event submitted before the eviction point.
                    engine.submit_batch(&batch);
                    batch.clear();
                    engine.evict(evictions[next_evict].1);
                    next_evict += 1;
                }
                batch.push_symbol(*object, symbol, engine.interner());
                if batch.len() == 16 {
                    engine.submit_batch(&batch);
                    batch.clear();
                }
            }
            engine.submit_batch(&batch);
            while next_evict < evictions.len() {
                engine.evict(evictions[next_evict].1);
                next_evict += 1;
            }
            stop.store(true, Ordering::Release);
            observer.join().expect("observer finished");
            let engine = Arc::into_inner(engine).expect("observer dropped its handle");
            let report = engine.finish().expect("no worker panicked");
            assert!(report.stats.evicted >= objects.len() as u64, "seed {seed}");
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "seed {seed}, {workers} workers, {object}: merged report diverged"
                );
            }
        }
    }
}

#[test]
fn evictions_race_round_aligned_ingestion() {
    for seed in 0..4u64 {
        let objects: Vec<ObjectId> = (0..6).map(|i| ObjectId(seed * 8 + i)).collect();
        const ROUNDS: u64 = 12;
        // Clean, self-contained rounds only: a monitor reset at any round
        // boundary is invisible in the verdict stream, so the report is
        // comparable to the uninterrupted reference no matter where the
        // racy evictions land.
        let mut events: Vec<(ObjectId, Symbol)> = Vec::new();
        for r in 0..ROUNDS {
            for &object in &objects {
                for symbol in round(r + 1, false) {
                    events.push((object, symbol));
                }
            }
        }
        let expected = sequential_reference(mixed_factory().as_ref(), &events);
        for workers in [1, 4] {
            let engine =
                Arc::new(MonitoringEngine::new(EngineConfig::new(workers), mixed_factory()));
            let stop = Arc::new(AtomicBool::new(false));
            let issued = Arc::new(AtomicU64::new(0));
            // An antagonist evicting live objects at arbitrary times;
            // markers still only ever land at round boundaries because each
            // batch below holds whole rounds and is enqueued atomically per
            // shard.
            let evictor = {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let issued = Arc::clone(&issued);
                let objects = objects.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xE71C7);
                    while !stop.load(Ordering::Acquire) {
                        engine.evict(objects[rng.gen_range(0..objects.len())]);
                        issued.fetch_add(1, Ordering::AcqRel);
                        std::thread::yield_now();
                    }
                })
            };
            for chunk in events.chunks(4 * objects.len()) {
                let before = issued.load(Ordering::Acquire);
                engine.submit_batch(&EventBatch::from_stream(chunk, engine.interner()));
                // Every chunk holds a round of every object, so the first
                // eviction issued after the first chunk retires a live
                // monitor: wait for one per chunk, so the race fires however
                // the threads are scheduled.
                while issued.load(Ordering::Acquire) == before {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Release);
            evictor.join().expect("evictor finished");
            let engine = Arc::into_inner(engine).expect("the evictor dropped its handle");
            let report = engine.finish().expect("no worker panicked");
            // The race must actually fire: something was retired mid-run.
            assert!(
                report.stats.evicted > 0,
                "seed {seed}, {workers} workers: no eviction ever raced ingestion"
            );
            assert_eq!(
                report.stats.events,
                events.len() as u64,
                "seed {seed}, {workers} workers"
            );
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "seed {seed}, {workers} workers, {object}: merged report diverged"
                );
            }
        }
    }
}

/// A journal sink that records what the engine tells it, for asserting
/// *when* tombstones are emitted (checkpointing disabled).
#[derive(Default)]
struct RecordingSink {
    events: AtomicU64,
    tombstones: std::sync::Mutex<Vec<ObjectId>>,
}

impl drv_engine::JournalSink for RecordingSink {
    fn append_batch(&self, batch: &EventBatch, _arena: &drv_lang::SharedInterner) {
        self.events.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }

    fn append_frame(&self, _frame: &[u8]) {
        unreachable!("nothing here is served")
    }

    fn checkpoint_interval(&self) -> u64 {
        u64::MAX
    }

    fn checkpoint(&self, _object: ObjectId, _fed: u64, _verdicts: &[Verdict], _state: &[u8]) {}

    fn tombstone(&self, object: ObjectId) {
        self.tombstones.lock().unwrap().push(object);
    }
}

#[test]
fn retirement_tombstones_fire_once_and_only_at_retirement() {
    // Explicit eviction must emit exactly one tombstone for the victim, at
    // the retirement itself — and finish()'s end-of-run flush must emit
    // none, or recovery would re-retire every object that merely outlived
    // the run.
    let sink = Arc::new(RecordingSink::default());
    let engine = MonitoringEngine::new(EngineConfig::new(2), mixed_factory());
    engine.attach_journal(Arc::clone(&sink) as Arc<dyn drv_engine::JournalSink>);
    let victim = ObjectId(2);
    let survivor = ObjectId(3);
    let mut events: Vec<(ObjectId, Symbol)> = Vec::new();
    for r in 0..3u64 {
        for &object in &[victim, survivor] {
            for symbol in round(r + 1, false) {
                events.push((object, symbol));
            }
        }
    }
    engine.submit_stream(&events, 4);
    engine.evict(victim);
    let report = engine.finish().expect("no worker panicked");
    assert_eq!(report.stats.events, events.len() as u64);
    assert_eq!(
        sink.events.load(Ordering::Relaxed),
        events.len() as u64,
        "every accepted event must hit the sink write-ahead"
    );
    assert_eq!(
        *sink.tombstones.lock().unwrap(),
        vec![victim],
        "one tombstone for the evicted object, none for the survivor's end-of-run flush"
    );
}
