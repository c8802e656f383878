//! Service-mode acceptance tests: untimed parking (an idle engine performs
//! **zero** wake-ups over a parked window — the 1 ms-poll band-aid cannot
//! come back), backpressure, live verdict subscriptions, eviction/TTL, and
//! the panic-path bookkeeping regressions (`pending` leak, discarded
//! `Drop` panics).

use drv_core::{CheckerMonitorFactory, ObjectMonitor, ObjectMonitorFactory, Verdict};
use drv_engine::{
    sequential_reference, EngineConfig, EventBatch, JournalSink, MonitoringEngine, SubmitError,
};
use drv_lang::{Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol, VerdictBatch};
use drv_spec::Register;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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
    fn checkpoint_interval(&self) -> u64 {
        u64::MAX
    }
    fn checkpoint(&self, _object: ObjectId, _verdicts: &[Verdict], _state: &[u8]) {}
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

/// Eviction and the idle-TTL sweep free slots without changing what is
/// reported: a quiesced object's stream is bit-identical to an un-evicted
/// run, and re-traffic after retirement starts a fresh monitor whose seq
/// numbers continue where the retired stream left off.
#[test]
fn ttl_sweep_retires_idle_objects_and_keeps_reports_identical() {
    let idle_events = clean_stream(0, 2);
    let busy_events = clean_stream(1, 30);
    let expected_idle = sequential_reference(factory().as_ref(), &idle_events);
    let engine = MonitoringEngine::new(
        EngineConfig::new(1).with_idle_ttl(16),
        factory(),
    );
    for (object, symbol) in &idle_events {
        engine.submit(*object, symbol);
    }
    assert!(wait_until(Duration::from_secs(10), || engine.backlog() == 0));
    // Advance the engine-wide event clock far past the TTL with another
    // object's traffic, then sweep: the idle object must be retired.
    for (object, symbol) in &busy_events {
        engine.submit(*object, symbol);
    }
    assert!(wait_until(Duration::from_secs(10), || engine.backlog() == 0));
    let mut retired = engine.sweep_idle();
    // The busy object's own shard sweep may have already retired it; what
    // matters is that the idle object is retired by *some* sweep.
    assert!(
        wait_until(Duration::from_secs(10), || {
            retired += engine.sweep_idle();
            engine.live_stats().evicted >= 1
        }),
        "the idle object was never retired (evicted={}, swept={retired})",
        engine.live_stats().evicted
    );
    // Re-traffic after retirement: fresh monitor, concatenated report.
    let revived = clean_stream(0, 1);
    for (object, symbol) in &revived {
        engine.submit(*object, symbol);
    }
    let report = engine.finish().expect("no panics");
    let stream = report.verdicts(ObjectId(0)).expect("monitored");
    assert_eq!(stream.len(), idle_events.len() + revived.len());
    assert_eq!(
        &stream[..idle_events.len()],
        &expected_idle[&ObjectId(0)][..],
        "the retired prefix must be exactly the pre-eviction stream"
    );
    assert!(report.stats.evicted >= 1);
}

/// A monitor with a closing verdict, so an eviction marker pushes one.
struct Closing;
impl ObjectMonitor for Closing {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("closing")
    }
    fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
        Verdict::Yes
    }
    fn finalize(&mut self) -> Option<Verdict> {
        Some(Verdict::Maybe(0))
    }
}
struct ClosingFactory;
impl ObjectMonitorFactory for ClosingFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("closing")
    }
    fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
        Box::new(Closing)
    }
}

/// The invariant `backlog()` documents and `drv-net`'s router flushes on:
/// verdict delivery precedes the decrement.  Whenever the producer reads
/// `backlog() == 0` after its own submissions, an immediate `poll_batch`
/// already holds every verdict of everything it submitted — event verdicts
/// and the finalize verdict of an eviction marker alike.  A worker that
/// decremented first would let the zero be seen with verdicts still on
/// their way, and a router trusting it would split frames.
#[test]
fn zero_backlog_means_every_verdict_is_pollable() {
    const ROUNDS: u64 = 1000;
    const OBJECTS: u64 = 8;
    let symbol = Symbol::invoke(ProcId(0), Invocation::Read);
    for workers in [1, 2, 4] {
        for batch in [1u64, 256] {
            let engine = MonitoringEngine::new(EngineConfig::new(workers), Arc::new(ClosingFactory));
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
                let mut expected = batch as usize;
                if round % 3 == 0 {
                    // The round's first object is live (its marker queues
                    // behind its events), so this yields one verdict more.
                    engine.evict(ObjectId(round % OBJECTS));
                    expected += 1;
                }
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
            engine.finish().expect("no panics");
        }
    }
}

// --- panic-path regressions -------------------------------------------

struct Bomb;
impl ObjectMonitor for Bomb {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("bomb")
    }
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
