//! Service-mode acceptance tests: untimed parking (an idle engine performs
//! **zero** wake-ups over a parked window — the 1 ms-poll band-aid cannot
//! come back), backpressure, live verdict subscriptions, eviction, one
//! payload arena per engine, and the panic-path bookkeeping regressions
//! (`pending` leak, discarded `Drop` panics).

use drv_consistency::{CheckerConfig, IncrementalChecker};
use drv_core::{
    CheckerMonitorFactory, CheckerObjectMonitor, ObjectMonitor, ObjectMonitorFactory,
    RoutingMonitorFactory, Verdict,
};
use drv_engine::{
    sequential_reference, EngineConfig, EventBatch, JournalSink, MonitoringEngine, SubmitError,
};
use drv_lang::{
    Action, Invocation, InvocationId, ObjectId, ProcId, Response, ResponseId, SharedInterner,
    Symbol, VerdictBatch, INLINE_VALUE_LIMIT,
};
use drv_spec::{Register, SequentialSpec};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn factory() -> Arc<CheckerMonitorFactory<Register>> {
    Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2))
}

/// `rounds` completed write/read rounds of one object's clean traffic.
fn clean_stream(object: u64, rounds: u64) -> Vec<(ObjectId, Symbol)> {
    let object = ObjectId(object);
    let mut events = Vec::new();
    for round in 0..rounds {
        let value = round + 1;
        events.push((object, Symbol::invoke(ProcId(0), Invocation::Write(value))));
        events.push((object, Symbol::respond(ProcId(0), Response::Ack)));
        events.push((object, Symbol::invoke(ProcId(1), Invocation::Read)));
        events.push((object, Symbol::respond(ProcId(1), Response::Value(value))));
    }
    events
}

/// A one-event batch interned into `engine`'s arena.
fn one_event(engine: &MonitoringEngine, object: ObjectId, symbol: &Symbol) -> EventBatch {
    let mut batch = EventBatch::with_capacity(1);
    batch.push_symbol(object, symbol, engine.interner());
    batch
}

/// A sink that only counts the batch records it is handed.
#[derive(Default)]
struct CountingSink {
    batches: AtomicU64,
}

impl JournalSink for CountingSink {
    fn append_batch(&self, _batch: &EventBatch, _arena: &SharedInterner) {
        self.batches.fetch_add(1, Ordering::SeqCst);
    }
    fn append_frame(&self, _frame: &[u8]) {
        self.batches.fetch_add(1, Ordering::SeqCst);
    }
    fn checkpoint_interval(&self) -> u64 {
        u64::MAX
    }
    fn checkpoint(&self, _object: ObjectId, _fed: u64, _verdicts: &[Verdict], _state: &[u8]) {}
    fn tombstone(&self, _object: ObjectId) {}
}

/// Spins until `done` holds or `timeout` elapses; returns whether it held.
fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

/// The tentpole's acceptance bar: after the backlog drains, a parked pool
/// performs zero wake-ups and claims zero batches over a 250 ms window —
/// parking is untimed (epoch-ticketed), not a 1 ms condvar poll (which
/// would show ~250 wake-ups per worker here).
#[test]
fn idle_engine_performs_zero_wakeups_while_parked() {
    let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
    for (object, symbol) in clean_stream(7, 4) {
        engine.submit(object, &symbol);
    }
    assert!(
        wait_until(Duration::from_secs(10), || engine.backlog() == 0),
        "the stream must drain"
    );
    // Grace period: let the workers run out of deque scans and park.
    std::thread::sleep(Duration::from_millis(50));
    let before = engine.live_stats();
    std::thread::sleep(Duration::from_millis(250));
    let after = engine.live_stats();
    assert_eq!(
        after.park_wakeups, before.park_wakeups,
        "a parked worker woke with no work published: timed polling is back"
    );
    assert_eq!(
        after.batches, before.batches,
        "an idle engine claimed a batch out of thin air"
    );
    // And the untimed park still wakes for real work: submit again, the
    // stream is processed promptly.
    for (object, symbol) in clean_stream(8, 2) {
        engine.submit(object, &symbol);
    }
    assert!(
        wait_until(Duration::from_secs(10), || engine.backlog() == 0),
        "parked workers must wake for new submissions (lost wakeup?)"
    );
    let report = engine.finish().expect("no panics");
    assert_eq!(report.stats.events, 4 * 4 + 2 * 4);
}

/// Backpressure across threads: a producer blocked on a tiny `max_pending`
/// bound is repeatedly released as the pool drains, while a subscription
/// consumer sees every verdict in per-object `seq` order — at every worker
/// count, with one-event batches and with batches far larger than the bound
/// (ingested in bound-sized chunks).
#[test]
fn bounded_producer_and_live_subscriber_see_every_verdict() {
    let events = clean_stream(3, 50);
    let expected = sequential_reference(factory().as_ref(), &events);
    for workers in [1, 2, 4] {
        for batch in [1, 256] {
            let context = format!("{workers} workers, batch {batch}");
            let engine = Arc::new(MonitoringEngine::new(
                EngineConfig::new(workers).with_max_pending(4),
                factory(),
            ));
            let subscription = engine.subscribe(4);
            let producer = {
                let engine = Arc::clone(&engine);
                let events = events.clone();
                std::thread::spawn(move || engine.submit_stream(&events, batch))
            };
            let mut received = VerdictBatch::new();
            while received.len() < events.len() {
                subscription.wait_batch(Duration::from_millis(100), &mut received);
                assert!(
                    !subscription.is_closed() || received.len() == events.len(),
                    "{context}: channel closed before all verdicts arrived"
                );
            }
            producer.join().expect("producer finished");
            assert_eq!(subscription.missed(), 0, "{context}");
            // Per-object seq order, gap-free from 0.
            let mut streams: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
            for (index, (object, seq, verdict)) in received.iter().enumerate() {
                let stream = streams.entry(object).or_default();
                assert_eq!(
                    seq,
                    stream.len() as u64,
                    "{context}: event {index} out of order for {object}"
                );
                stream.push(verdict);
            }
            assert_eq!(streams, expected, "{context}: subscription streams differ");
            let engine = Arc::into_inner(engine).expect("producer joined");
            let report = engine.finish().expect("no panics");
            for (object, verdicts) in &expected {
                assert_eq!(report.verdicts(*object), Some(&verdicts[..]), "{context}");
            }
            assert!(subscription.is_closed(), "finish closes open subscriptions");
        }
    }
}

/// A refused submission leaves no trace in the journal: with
/// `max_pending = 1` and the worker wedged behind a full, undrained
/// subscription, a one-event `try_submit_batch` is `Full` and the sink sees
/// nothing; once the consumer drains, the same batch is accepted and
/// journaled once.
#[test]
fn a_full_one_event_batch_is_never_journaled() {
    let events = clean_stream(5, 1);
    let engine = MonitoringEngine::new(EngineConfig::new(1).with_max_pending(1), factory());
    let sink = Arc::new(CountingSink::default());
    engine.attach_journal(sink.clone());
    let subscription = engine.subscribe(1);
    // The second submit returns once the first event is checked; its own
    // verdict then finds the one-slot subscription full, so the worker
    // blocks holding the only pending slot until somebody drains.
    engine.submit(events[0].0, &events[0].1);
    engine.submit(events[1].0, &events[1].1);
    let third = one_event(&engine, events[2].0, &events[2].1);
    assert_eq!(engine.try_submit_batch(&third), Err(SubmitError::Full));
    assert_eq!(sink.batches.load(Ordering::SeqCst), 2, "a Full batch was journaled");
    let mut received = VerdictBatch::new();
    while engine.try_submit_batch(&third) == Err(SubmitError::Full) {
        subscription.wait_batch(Duration::from_millis(10), &mut received);
    }
    assert_eq!(sink.batches.load(Ordering::SeqCst), 3);
    while received.len() < 3 {
        subscription.wait_batch(Duration::from_millis(100), &mut received);
    }
    engine.finish().expect("no panics");
}

/// `finish()` must not deadlock on a full subscription nobody drains: the
/// undelivered tail is counted as missed, and the report is still complete.
#[test]
fn finish_never_deadlocks_on_an_abandoned_full_subscription() {
    let events = clean_stream(11, 25);
    let expected = sequential_reference(factory().as_ref(), &events);
    let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
    let subscription = engine.subscribe(1); // absurdly small, never polled
    for (object, symbol) in &events {
        engine.submit(*object, symbol);
    }
    let report = engine.finish().expect("no panics");
    assert_eq!(report.verdicts(ObjectId(11)), Some(&expected[&ObjectId(11)][..]));
    let mut leftover = VerdictBatch::new();
    subscription.poll_batch(&mut leftover);
    assert_eq!(
        leftover.len() as u64 + subscription.missed(),
        events.len() as u64,
        "every verdict is either delivered or accounted as missed"
    );
    assert!(subscription.missed() > 0, "capacity 1 over 100 events must miss");
}

/// A monitor that answers YES to every symbol.
struct Constant;
impl ObjectMonitor for Constant {
    fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
        Verdict::Yes
    }
}
struct ConstantFactory;
impl ObjectMonitorFactory for ConstantFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("constant")
    }
    fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
        Box::new(Constant)
    }
}

/// The invariant `backlog()` documents and `drv-net`'s router flushes on:
/// verdict delivery precedes the decrement.  Whenever the producer reads
/// `backlog() == 0` after its own submissions, an immediate `poll_batch`
/// already holds every verdict of everything it submitted — one per event,
/// eviction markers in the queue adding none.  A worker that decremented
/// first would let the zero be seen with verdicts still on their way, and
/// a router trusting it would split frames.
#[test]
fn zero_backlog_means_every_verdict_is_pollable() {
    const ROUNDS: u64 = 1000;
    const OBJECTS: u64 = 8;
    let symbol = Symbol::invoke(ProcId(0), Invocation::Read);
    for workers in [1, 2, 4] {
        for batch in [1u64, 256] {
            let engine = MonitoringEngine::new(EngineConfig::new(workers), Arc::new(ConstantFactory));
            let subscription = engine.subscribe(4096);
            let mut events = EventBatch::with_capacity(batch as usize);
            let mut received = VerdictBatch::new();
            for round in 0..ROUNDS {
                events.clear();
                for offset in 0..batch {
                    let object = ObjectId((round + offset) % OBJECTS);
                    events.push_symbol(object, &symbol, engine.interner());
                }
                engine.submit_batch(&events);
                if round % 3 == 0 {
                    // The round's first object is live (its marker queues
                    // behind its events): the marker retires its monitor
                    // and adds no verdict.
                    engine.evict(ObjectId(round % OBJECTS));
                }
                let expected = batch as usize;
                while engine.backlog() > 0 {
                    std::thread::yield_now();
                }
                received.clear();
                subscription.poll_batch(&mut received);
                assert_eq!(
                    received.len(),
                    expected,
                    "{workers} workers, batch {batch}, round {round}: backlog() read 0 \
                     with verdicts still undelivered"
                );
            }
            let report = engine.finish().expect("no panics");
            assert_eq!(report.stats.evicted, ROUNDS.div_ceil(3), "every marker met a live monitor");
        }
    }
}

// --- retirement -------------------------------------------------------

/// `per_object` events of clean traffic for each of objects `0..objects`,
/// interleaved one event per object at a time.
fn round_robin(objects: u64, per_object: usize) -> Vec<(ObjectId, Symbol)> {
    let rounds = per_object.div_ceil(4) as u64;
    let streams: Vec<Vec<(ObjectId, Symbol)>> = (0..objects)
        .map(|object| clean_stream(object, rounds)[..per_object].to_vec())
        .collect();
    (0..per_object)
        .flat_map(|step| streams.iter().map(move |stream| stream[step].clone()))
        .collect()
}

/// Records the stream position of every checkpoint the engine writes, one
/// due every `interval` fed events, and counts tombstones.
struct RecordingSink {
    interval: u64,
    checkpoints: Mutex<Vec<(ObjectId, usize)>>,
    tombstones: AtomicU64,
}

impl RecordingSink {
    fn every(interval: u64) -> Self {
        RecordingSink {
            interval,
            checkpoints: Mutex::new(Vec::new()),
            tombstones: AtomicU64::new(0),
        }
    }
}

impl JournalSink for RecordingSink {
    fn append_batch(&self, _batch: &EventBatch, _arena: &SharedInterner) {}
    fn append_frame(&self, _frame: &[u8]) {}
    fn checkpoint_interval(&self) -> u64 {
        self.interval
    }
    fn checkpoint(&self, object: ObjectId, fed: u64, verdicts: &[Verdict], _state: &[u8]) {
        assert_eq!(
            verdicts.len() as u64,
            self.interval,
            "a checkpoint carries the interval's verdicts"
        );
        self.checkpoints
            .lock()
            .unwrap()
            .push((object, fed as usize));
    }
    fn tombstone(&self, _object: ObjectId) {
        self.tombstones.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retirement drops the monitor, not the slot: across three generations of
/// one object (8 events, evict, 8 events, evict twice, 4 events) the report
/// is the three fresh monitors' streams back to back, the subscription's
/// `seq`s run 0..20 without a gap, the second marker of the double evict
/// neither counts nor journals a tombstone, and no checkpoint follows the
/// first tombstone.
#[test]
fn a_retired_slot_keeps_its_stream_and_revives_without_checkpoints() {
    let object = ObjectId(4);
    // Each later generation opens by reading the initial value: YES from a
    // fresh monitor, NO from one that kept the earlier writes.
    let read_initial = [
        (object, Symbol::invoke(ProcId(1), Invocation::Read)),
        (object, Symbol::respond(ProcId(1), Response::Value(0))),
    ];
    let write = |value| {
        [
            (object, Symbol::invoke(ProcId(0), Invocation::Write(value))),
            (object, Symbol::respond(ProcId(0), Response::Ack)),
        ]
    };
    let generations: [Vec<(ObjectId, Symbol)>; 3] = [
        clean_stream(object.0, 2),
        [&read_initial[..], &clean_stream(object.0, 1), &write(9)].concat(),
        [&read_initial[..], &write(3)].concat(),
    ];
    let expected: Vec<Verdict> = generations
        .iter()
        .flat_map(|events| sequential_reference(factory().as_ref(), events).remove(&object))
        .flatten()
        .collect();
    assert_eq!(expected.len(), 20);
    assert!(expected.iter().all(|verdict| *verdict == Verdict::Yes));

    let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
    let sink = Arc::new(RecordingSink::every(4));
    engine.attach_journal(sink.clone());
    let subscription = engine.subscribe(64);
    for (events, evictions) in generations.iter().zip([1, 2, 0]) {
        for (object, symbol) in events {
            engine.submit(*object, symbol);
        }
        for _ in 0..evictions {
            engine.evict(object);
        }
    }
    let report = engine.finish().expect("no panics");
    assert_eq!(report.verdicts(object), Some(&expected[..]), "the generations concatenate");
    assert_eq!(report.stats.evicted, 2);
    let mut received = VerdictBatch::new();
    subscription.poll_batch(&mut received);
    assert_eq!(received.seqs(), (0..20).collect::<Vec<u64>>());
    assert_eq!(received.verdicts(), &expected[..]);
    assert_eq!(sink.tombstones.load(Ordering::SeqCst), 2, "the double evict journals one");
    assert_eq!(
        *sink.checkpoints.lock().unwrap(),
        [(object, 4), (object, 8)],
        "the first generation only"
    );
}

// --- one arena per engine ---------------------------------------------

/// The bench's fleet: LIN for even objects, SC for odd, each criterion's
/// factory returned too, to read its own arena.
fn mixed_fleet<S: SequentialSpec + Clone + 'static>(
    spec: S,
) -> (Arc<CheckerMonitorFactory<S>>, Arc<CheckerMonitorFactory<S>>, Arc<RoutingMonitorFactory>) {
    let lin = Arc::new(CheckerMonitorFactory::linearizability(spec.clone(), 2));
    let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(spec, 2));
    let (even, odd) = (
        Arc::clone(&lin) as Arc<dyn ObjectMonitorFactory>,
        Arc::clone(&sc) as Arc<dyn ObjectMonitorFactory>,
    );
    let fleet = RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
        Arc::clone(if object.0.is_multiple_of(2) { &even } else { &odd })
    });
    (lin, sc, Arc::new(fleet))
}

fn assert_matches_reference(
    report: &drv_engine::EngineReport,
    expected: &BTreeMap<ObjectId, Vec<Verdict>>,
    what: &str,
) {
    assert_eq!(report.objects.len(), expected.len(), "{what}: object sets");
    for (object, verdicts) in expected {
        assert_eq!(report.verdicts(*object), Some(&verdicts[..]), "{what}, {object:?}");
    }
}

#[test]
fn an_engine_stores_each_payload_once_for_its_whole_fleet() {
    let (lin, sc, fleet) = mixed_fleet(Register::new());
    // Objects 8..16 write and read values past the inline bound, which take
    // arena slots; the values of objects 0..8, the read and the ack are
    // inline ids.
    let big = |value: u64| value + INLINE_VALUE_LIMIT;
    let mut events = round_robin(16, 40);
    for (object, symbol) in &mut events {
        symbol.action = match &symbol.action {
            Action::Invoke(Invocation::Write(value)) if object.0 >= 8 => {
                Action::Invoke(Invocation::Write(big(*value)))
            }
            Action::Respond(Response::Value(value)) if object.0 >= 8 => {
                Action::Respond(Response::Value(big(*value)))
            }
            action => action.clone(),
        };
    }
    // A stale read on an even and an odd object: both verdict polarities.
    for object in [ObjectId(16), ObjectId(17)] {
        events.extend([
            (object, Symbol::invoke(ProcId(0), Invocation::Write(big(3)))),
            (object, Symbol::respond(ProcId(0), Response::Ack)),
            (object, Symbol::invoke(ProcId(1), Invocation::Read)),
            (object, Symbol::respond(ProcId(1), Response::Value(big(2)))),
        ]);
    }
    let engine = MonitoringEngine::new(EngineConfig::new(2), fleet);
    engine.submit_stream(&events, 256);
    engine.wait_drained();
    let interned = engine.interner().versions();
    let report = engine.finish().expect("no panics");

    let (mut invocations, mut responses) = (HashSet::new(), HashSet::new());
    for (_, symbol) in &events {
        match &symbol.action {
            Action::Invoke(invocation) if InvocationId::inline(invocation).is_none() => {
                invocations.insert(invocation.clone())
            }
            Action::Respond(response) if ResponseId::inline(response).is_none() => {
                responses.insert(response.clone())
            }
            _ => false,
        };
    }
    // Ten writes and ten read values past the bound, each once.
    assert_eq!((invocations.len(), responses.len()), (10, 10));
    assert_eq!(interned, (invocations.len(), responses.len()), "each arena payload once");
    assert_eq!(lin.arena().versions(), (0, 0), "LIN checkers keep the engine's ids");
    assert_eq!(sc.arena().versions(), (0, 0), "SC checkers keep the engine's ids");
    let (_, _, reference) = mixed_fleet(Register::new());
    let expected = sequential_reference(reference.as_ref(), &events);
    assert!(expected.values().flatten().any(|verdict| *verdict == Verdict::No));
    assert_matches_reference(&report, &expected, "one arena");

    // A fleet fed scalar payloads only leaves its engine's arena empty.
    let (_, _, fleet) = mixed_fleet(Register::new());
    let engine = MonitoringEngine::new(EngineConfig::new(2), fleet);
    engine.submit_stream(&round_robin(8, 40), 256);
    engine.wait_drained();
    assert_eq!(engine.interner().versions(), (0, 0), "scalar payloads take no slot");
    engine.finish().expect("no panics");
}

/// LIN checkers that each intern into a private arena, as a checker built
/// on its own does: the engine's ids are not theirs.
struct PrivateArenaFactory;
impl ObjectMonitorFactory for PrivateArenaFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("LIN on private arenas")
    }
    fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
        let checker = IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 2);
        Box::new(CheckerObjectMonitor::new(checker))
    }
}

#[test]
fn a_checker_on_a_foreign_arena_is_fed_resolved_symbols() {
    let mut events = round_robin(8, 24);
    events.extend([
        (ObjectId(8), Symbol::invoke(ProcId(0), Invocation::Write(5))),
        (ObjectId(8), Symbol::respond(ProcId(0), Response::Ack)),
        (ObjectId(8), Symbol::invoke(ProcId(1), Invocation::Read)),
        (ObjectId(8), Symbol::respond(ProcId(1), Response::Value(4))),
    ]);
    let expected = sequential_reference(&PrivateArenaFactory, &events);
    assert_eq!(expected[&ObjectId(8)].last(), Some(&Verdict::No));
    for workers in [1, 2, 4] {
        for batch in [1, 256] {
            let engine =
                MonitoringEngine::new(EngineConfig::new(workers), Arc::new(PrivateArenaFactory));
            engine.submit_stream(&events, batch);
            let report = engine.finish().expect("no panics");
            assert_matches_reference(&report, &expected, &format!("{workers}w batch {batch}"));
        }
    }
}

/// A last-writer cell over user-defined payloads: `name(v)` stores `v` and
/// answers `name:previous`, so no two operations need share a payload, and
/// the response the specification gives a pending operation is one the
/// arena has not seen either.
#[derive(Debug, Clone)]
struct NamedCell;

impl SequentialSpec for NamedCell {
    type State = u64;

    fn name(&self) -> String {
        "named cell".into()
    }

    fn kind(&self) -> drv_lang::ObjectKind {
        drv_lang::ObjectKind::Register
    }

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, invocation: &Invocation) -> Option<(u64, Response)> {
        match invocation {
            Invocation::Custom(name, value) => Some((*value, Response::Custom(name.clone(), *state))),
            _ => None,
        }
    }
}

/// Overlapping pairs of cell operations under names only `object` uses; the
/// ninth operation answers with a value the cell never held.
fn named_cell_stream(object: ObjectId) -> Vec<Symbol> {
    let mut symbols = Vec::new();
    let mut held = 0u64;
    for pair in 0..8u64 {
        let (a, b) = (2 * pair + 1, 2 * pair + 2);
        let name = |op: u64| format!("{object}/op{op}");
        let observed = if a == 9 { 77 } else { held };
        symbols.extend([
            Symbol::invoke(ProcId(0), Invocation::Custom(name(a), a)),
            Symbol::invoke(ProcId(1), Invocation::Custom(name(b), b)),
            Symbol::respond(ProcId(0), Response::Custom(name(a), observed)),
            Symbol::respond(ProcId(1), Response::Custom(name(b), a)),
        ]);
        held = b;
    }
    symbols
}

/// A producer interning a payload the engine's arena has not seen takes its
/// write lock while workers' checkers hold read guards on it (and release
/// them to intern the specification's responses mid-search).  Two
/// producers of first-sight payloads, one event per submission, against
/// every worker count, under a watchdog: no thread may wait on itself.
#[test]
fn producers_intern_while_workers_feed_without_deadlock() {
    const PRODUCERS: u64 = 2;
    const OBJECTS: u64 = 6;
    // Each producer's objects, round-robin one event at a time.
    let streams: Vec<Vec<(ObjectId, Symbol)>> = (0..PRODUCERS)
        .map(|producer| {
            let objects: Vec<(ObjectId, Vec<Symbol>)> = (0..OBJECTS)
                .map(|i| ObjectId(producer * OBJECTS + i))
                .map(|object| (object, named_cell_stream(object)))
                .collect();
            (0..objects[0].1.len())
                .flat_map(|at| objects.iter().map(move |(object, s)| (*object, s[at].clone())))
                .collect()
        })
        .collect();
    let all: Vec<(ObjectId, Symbol)> = streams.concat();
    let (_, _, reference) = mixed_fleet(NamedCell);
    let expected = sequential_reference(reference.as_ref(), &all);
    let verdicts = expected.values().flatten();
    assert!(verdicts.clone().any(|verdict| *verdict == Verdict::No));
    assert!(verdicts.clone().any(|verdict| *verdict == Verdict::Yes));

    for workers in [1, 2, 4] {
        let streams = streams.clone();
        let (done, result) = mpsc::channel();
        // Detached on purpose: a deadlocked engine must fail the test by
        // message, not hang a join.
        std::thread::spawn(move || {
            let (_, _, fleet) = mixed_fleet(NamedCell);
            let engine = MonitoringEngine::new(EngineConfig::new(workers), fleet);
            std::thread::scope(|scope| {
                for stream in &streams {
                    let engine = &engine;
                    scope.spawn(move || engine.submit_stream(stream, 1));
                }
            });
            let _ = done.send(engine.finish());
        });
        let report = result
            .recv_timeout(Duration::from_secs(120))
            .expect("producers interning while workers feed deadlocked")
            .expect("no panics");
        assert_matches_reference(&report, &expected, &format!("{workers} workers"));
    }
}

// --- panic-path regressions -------------------------------------------

struct Bomb;
impl ObjectMonitor for Bomb {
    fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
        panic!("boom on purpose");
    }
}
struct BombFactory;
impl ObjectMonitorFactory for BombFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("bomb")
    }
    fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
        Box::new(Bomb)
    }
}

/// Serializes the tests that silence the global panic hook.
fn hook_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Regression: a batch that panicked in `Shared::process` used to never
/// decrement `pending`, so `backlog()` over-reported forever after a
/// `WorkerPanic`.  The drop-guard decrements the drained batch even while
/// unwinding, and the abort reconciles everything still queued.
#[test]
fn backlog_is_reconciled_after_a_worker_panic() {
    let _hook_guard = hook_lock().lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let engine = MonitoringEngine::new(EngineConfig::new(1), Arc::new(BombFactory));
    let sink = Arc::new(CountingSink::default());
    engine.attach_journal(sink.clone());
    // The bomb object plus plenty of queued traffic behind and beside it.
    engine.submit(ObjectId(0), &Symbol::invoke(ProcId(0), Invocation::Read));
    for object in 1..32 {
        for (id, symbol) in clean_stream(object, 2) {
            engine.submit(id, &symbol);
        }
    }
    let reconciled = wait_until(Duration::from_secs(10), || {
        engine.is_aborted() && engine.backlog() == 0
    });
    std::panic::set_hook(hook);
    drop(_hook_guard);
    assert!(
        reconciled,
        "backlog stuck at {} after the panic (pending leak)",
        engine.backlog()
    );
    // Post-abort submissions are discarded: not leaked into the backlog,
    // not journaled, and their payloads not interned into the dead arena.
    let journaled = sink.batches.load(Ordering::SeqCst);
    let interned = engine.interner().versions();
    engine.submit(ObjectId(5), &Symbol::invoke(ProcId(0), Invocation::Write(424_242)));
    assert_eq!(engine.backlog(), 0);
    assert_eq!(sink.batches.load(Ordering::SeqCst), journaled);
    assert_eq!(engine.interner().versions(), interned);
    let panic = engine.finish().expect_err("the monitor panicked");
    assert!(panic.message.contains("boom on purpose"), "{panic}");
}

/// Regression: a worker panic must close open subscriptions — on the abort
/// itself and on `finish()`'s error path — or a consumer looping until
/// `is_closed()` out-waits a dead engine forever.
#[test]
fn worker_panic_closes_open_subscriptions() {
    let _hook_guard = hook_lock().lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let engine = MonitoringEngine::new(EngineConfig::new(1), Arc::new(BombFactory));
    let subscription = engine.subscribe(8);
    engine.submit(ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
    assert!(
        wait_until(Duration::from_secs(10), || subscription.is_closed()),
        "the abort must close the channel, not leave consumers waiting"
    );
    std::panic::set_hook(hook);
    drop(_hook_guard);
    // The documented consumer loop terminates promptly on the dead engine.
    assert_eq!(subscription.wait_batch(Duration::from_secs(5), &mut VerdictBatch::new()), 0);
    let panic = engine.finish().expect_err("the monitor panicked");
    assert!(panic.message.contains("boom on purpose"), "{panic}");
}

/// Regression: a worker panic used to be observable only by consuming the
/// engine with `finish()` — and was silently discarded if the engine was
/// dropped instead.  `take_panic()` claims it in place.
#[test]
fn take_panic_exposes_worker_death_without_consuming_the_engine() {
    let _hook_guard = hook_lock().lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let engine = MonitoringEngine::new(EngineConfig::new(2), Arc::new(BombFactory));
    engine.submit(ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
    assert!(
        wait_until(Duration::from_secs(10), || engine.is_aborted()),
        "the pool must abort on a monitor panic"
    );
    std::panic::set_hook(hook);
    drop(_hook_guard);
    let panic = engine.take_panic().expect("the panic is claimable in place");
    assert_eq!(panic.role, "engine worker");
    assert!(panic.message.contains("boom on purpose"), "{panic}");
    assert!(engine.take_panic().is_none(), "claiming transfers ownership");
    // try_submit_batch reports the dead pool instead of quietly enqueueing.
    let batch = one_event(&engine, ObjectId(2), &Symbol::invoke(ProcId(0), Invocation::Read));
    assert_eq!(engine.try_submit_batch(&batch), Err(SubmitError::Aborted));
    // A claimed panic is not double-reported: finish returns the partial
    // report (and drop, exercised implicitly elsewhere, no longer logs).
    // The bomb object appears with no verdicts — its monitor died before
    // producing one — so the partial aggregate is inconclusive.
    let report = engine.finish().expect("panic was already claimed");
    assert_eq!(report.verdicts(ObjectId(1)), Some(&[][..]));
    assert_eq!(report.aggregate().overall, Verdict::Maybe(0));
}
