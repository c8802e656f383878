//! The shard core: what one claim does to a shard's objects, with no lock,
//! no thread and no clock of its own.  The shell in [`crate::engine`] locks
//! a shard's [`ShardCore`], calls [`ShardCore::feed`] with the claim's items
//! and a [`Feed`], and publishes the [`ClaimOutput`]; a test steps a core on
//! its own thread.
//!
//! * **Batched claims.**  A claim is grouped by object, keeping per-object
//!   FIFO (the order across objects carries nothing): each object's events
//!   up to an eviction marker are fed to its monitor as one
//!   [`ObjectMonitor::on_records`] run — one slot lookup and one visit to
//!   its cold state per object per claim, however finely the producers
//!   interleaved the objects.  `seq` is the object's event index.
//! * **Checkpoint cadence.**  A run is fed in one call per stretch between
//!   the events at which its object's checkpoints fall due, so checkpoints
//!   (and the journal's bytes) land where one-event runs put them.
//! * **Eviction.**  A marker retires the monitor exactly between the events
//!   around it: the monitor and its checker history are dropped and a
//!   tombstone journaled; the slot and its verdict stream stay.  Later
//!   traffic installs a fresh monitor whose verdicts continue the stream and
//!   are never checkpointed.  A marker adds no verdict and is the only
//!   mid-run retirement, so a verdict stream is a function of the submitted
//!   events and markers alone — never of thread timing.

use crate::journal::{JournalSink, RecoveredObject};
use crate::report::ObjectReport;
use drv_consistency::{CheckerStats, ObjectMonitor, ObjectMonitorFactory};
use drv_lang::{hash, EventRecord, ObjectId, SharedInterner, Verdict, VerdictEvent};
use std::time::Instant;

/// One unit of shard-queue work: an object event (a `Copy`, arena-backed
/// [`EventRecord`] — the workspace-wide interchange type from `drv-lang`),
/// or an eviction marker that retires the object's monitor *after*
/// everything submitted before it (FIFO through the same queue, so eviction
/// can never overtake traffic).
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueueItem {
    Event(EventRecord),
    Evict(ObjectId),
}

/// Verdicts the output collects before the core hands them to
/// [`Feed::deliver`] mid-claim: a deep queue must not hold its first
/// objects' verdicts back until its last object is checked.
const DELIVERY_CHUNK: usize = 64;

/// Check-latency sampling period.  A run can be a single
/// event (a claim holding one event per object), so timing every run would
/// put two clock reads on every event; each output times its first run and
/// then every 16th.  Counters stay exact; only the check latency is sampled.
const CHECK_SAMPLE: u32 = 16;

/// Takes one slice of verdict rows into every open subscription.
pub(crate) type Deliver<'a> = dyn Fn(&[VerdictEvent]) + 'a;

/// What a claim is fed with besides its items.
pub(crate) struct Feed<'a> {
    /// Creates a monitor on an object's first sight and after a retirement.
    pub(crate) factory: &'a dyn ObjectMonitorFactory,
    /// The engine's payload arena, on which every monitor is created.
    pub(crate) arena: &'a SharedInterner,
    pub(crate) sink: Option<&'a dyn JournalSink>,
    /// Starts a sampled run's check-latency sample on the shell's clock
    /// (`None` while timing is off); `end_check` records it.
    pub(crate) start_check: &'a dyn Fn() -> Option<Instant>,
    pub(crate) end_check: &'a dyn Fn(Instant),
    /// Takes each [`DELIVERY_CHUNK`] of rows; `None`: nobody subscribes, so
    /// no rows are built.
    pub(crate) deliver: Option<&'a Deliver<'a>>,
}

/// What a claim leaves for the shell (which owns one per worker and takes
/// the results after each claim), and the buffers it reuses claim to claim.
#[derive(Default)]
pub(crate) struct ClaimOutput {
    /// `(object, seq, verdict)` rows not yet handed to [`Feed::deliver`].
    pub(crate) rows: Vec<VerdictEvent>,
    pub(crate) harvested: CheckerStats,
    pub(crate) events: u64,
    /// Monitor calls: one per run, or per part of a run split at a
    /// checkpoint due.
    pub(crate) runs: u64,
    pub(crate) evicted: u64,
    /// The object whose monitor, checkpoint or tombstone the core is in,
    /// `None` after a claim: what a panic's `WorkerPanic::object` says.
    pub(crate) object: Option<ObjectId>,
    order: Vec<ClaimKey>,
    run: Vec<EventRecord>,
    verdicts: Vec<Verdict>,
    check_tick: u32,
}

/// A drained item's grouping key: object and queue index, packed so that
/// sorting plain integers groups a claim by object in queue order (the
/// index is unique, so no two keys tie).  Sorting an 8 192-item drain of
/// 2 048 objects took ≈ 23 ns per item packed against ≈ 42 ns as tuples.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ClaimKey(u128);

impl ClaimKey {
    fn new(object: ObjectId, index: u32) -> Self {
        ClaimKey(u128::from(object.0) << 64 | u128::from(index))
    }

    fn object(self) -> ObjectId {
        ObjectId((self.0 >> 64) as u64)
    }

    fn index(self) -> usize {
        self.0 as u32 as usize
    }
}

/// One object's place in its shard, from first sight to `finish`.
struct ObjectSlot {
    /// The live monitor; `None` from an eviction marker until the object's
    /// next event installs a fresh one.
    monitor: Option<Box<dyn ObjectMonitor>>,
    /// The object's verdict stream across all its monitors: the verdict
    /// with `seq` s sits at index s.
    report: ObjectReport,
    /// Fed-event count covered by the object's last journal checkpoint
    /// (the next one is due `JournalSink::checkpoint_interval` later, and
    /// carries the verdicts from here on).  The monitor's own checkpoint
    /// mark sits at the same count: both move together, and a recovered
    /// slot starts both at its restored count.  `None` once a tombstone
    /// ended the object's durable stream: later monitors are never
    /// checkpointed.
    checkpointed: Option<u64>,
    /// Checker counters of the live monitor already handed to the shell
    /// (the harvest watermark; see [`harvest`]).
    harvested: CheckerStats,
}

impl ObjectSlot {
    /// A slot whose stream starts with `verdicts` (a recovered prefix, or
    /// nothing), covered by a checkpoint; `monitor` is the restored one, or
    /// `None` until the object's first run.
    fn new(monitor: Option<Box<dyn ObjectMonitor>>, verdicts: Vec<Verdict>) -> Self {
        // A restored monitor's work was counted by the run that did it.
        let harvested = monitor.as_deref().and_then(ObjectMonitor::checker_stats);
        ObjectSlot {
            checkpointed: Some(verdicts.len() as u64),
            harvested: harvested.unwrap_or_default(),
            report: ObjectReport { verdicts },
            monitor,
        }
    }
}

/// The live monitor's monotone checker counters as deltas against the
/// slot's last harvest, added onto `into`; the slot's watermark moves up,
/// so each run counts exactly its new work.
fn harvest(slot: &mut ObjectSlot, into: &mut CheckerStats) {
    let Some(now) = slot.monitor.as_deref().and_then(ObjectMonitor::checker_stats) else {
        return;
    };
    let last = slot.harvested;
    into.checks += now.checks.wrapping_sub(last.checks);
    into.fast_path += now.fast_path.wrapping_sub(last.fast_path);
    into.splices += now.splices.wrapping_sub(last.splices);
    into.dfs_runs += now.dfs_runs.wrapping_sub(last.dfs_runs);
    into.dfs_nodes += now.dfs_nodes.wrapping_sub(last.dfs_nodes);
    into.latched += now.latched.wrapping_sub(last.latched);
    into.unknown += now.unknown.wrapping_sub(last.unknown);
    slot.harvested = now;
}

/// One shard's objects: a slot per object seen, each with its live monitor
/// and its whole verdict stream.
#[derive(Default)]
pub(crate) struct ShardCore {
    objects: hash::HashMap<ObjectId, ObjectSlot>,
}

impl ShardCore {
    /// Installs a recovered object: its restored monitor and verdict prefix.
    pub(crate) fn seed(&mut self, seed: RecoveredObject) {
        self.objects.insert(seed.object, ObjectSlot::new(Some(seed.monitor), seed.verdicts));
    }

    /// Every object's verdict stream, leaving the core empty.
    pub(crate) fn drain_reports(&mut self) -> impl Iterator<Item = (ObjectId, ObjectReport)> + '_ {
        self.objects.drain().map(|(object, slot)| (object, slot.report))
    }

    /// Feeds one claim's drained `items`, grouped by object.
    ///
    /// The items are sorted on `(object, queue index)` keys, so each
    /// object's items sit together in their queue order.  Each object's
    /// events up to its next eviction marker form one run: its records,
    /// gathered into one buffer and handed with the arena to
    /// [`ObjectMonitor::on_records`], split only where a checkpoint falls
    /// due.  A marker retires the monitor and the object's next run meets a
    /// fresh one.  Counters and the rows not yet delivered accumulate in
    /// `out` until the shell takes them.
    pub(crate) fn feed(&mut self, items: &[QueueItem], feed: &Feed<'_>, out: &mut ClaimOutput) {
        let mut order = std::mem::take(&mut out.order);
        let len = u32::try_from(items.len()).expect("a shard queue holds < 2^32 items");
        for (index, item) in (0..len).zip(items) {
            let object = match item {
                QueueItem::Event(event) => event.object,
                QueueItem::Evict(object) => *object,
            };
            order.push(ClaimKey::new(object, index));
            out.events += u64::from(matches!(item, QueueItem::Event(_)));
        }
        order.sort_unstable();
        let mut at = 0;
        while at < order.len() {
            let object = order[at].object();
            // Whose work a panic from here on unwinds out of.
            out.object = Some(object);
            if let QueueItem::Evict(_) = items[order[at].index()] {
                self.retire(object, feed.sink, out);
                at += 1;
                continue;
            }
            // The object's events up to its next marker, in queue order.
            let mut end = at + 1;
            while end < order.len()
                && order[end].object() == object
                && matches!(items[order[end].index()], QueueItem::Event(_))
            {
                end += 1;
            }
            out.run.clear();
            out.run.extend(order[at..end].iter().map(|key| match items[key.index()] {
                QueueItem::Event(event) => event,
                QueueItem::Evict(_) => unreachable!("runs contain only events"),
            }));
            self.feed_run(object, feed, out);
            at = end;
        }
        out.object = None;
        order.clear();
        out.order = order;
    }

    /// Feeds `out.run`, one object's run, to the object's monitor.
    fn feed_run(&mut self, object: ObjectId, feed: &Feed<'_>, out: &mut ClaimOutput) {
        let slot = self.objects.entry(object).or_insert_with(|| ObjectSlot::new(None, Vec::new()));
        // First sight, or a retired slot's next run: a fresh monitor.
        let monitor =
            slot.monitor.get_or_insert_with(|| feed.factory.create_in(object, feed.arena));
        // Seqs are assigned from the slot's stream position before the
        // run's verdicts join it.
        let run_base = slot.report.verdicts.len() as u64;
        let checkpoints = feed.sink.map(|sink| (sink, sink.checkpoint_interval()));
        out.check_tick = out.check_tick.wrapping_add(1);
        let check_started = (out.check_tick % CHECK_SAMPLE == 1).then(feed.start_check).flatten();
        out.verdicts.clear();
        let mut from = 0;
        while from < out.run.len() {
            let fed = slot.report.verdicts.len() as u64;
            // Feed up to the next checkpoint due, so a checkpoint lands on
            // the same event however a claim grouped the object's traffic.
            let due = checkpoints
                .zip(slot.checkpointed)
                .map(|((sink, interval), since)| (sink, since, since.saturating_add(interval)));
            let until_due = due.map_or(u64::MAX, |(_, _, at)| at.saturating_sub(fed).max(1));
            let to = from + until_due.min((out.run.len() - from) as u64) as usize;
            let fed_before = out.verdicts.len();
            monitor.on_records(&out.run[from..to], feed.arena, &mut out.verdicts);
            out.runs += 1;
            slot.report.verdicts.extend_from_slice(&out.verdicts[fed_before..]);
            from = to;
            let fed = slot.report.verdicts.len() as u64;
            let Some((sink, since, _)) = due.filter(|&(_, _, at)| fed >= at) else {
                continue;
            };
            if let Some(state) = monitor.checkpoint() {
                let since = usize::try_from(since).expect("checkpointed events are in memory");
                sink.checkpoint(object, fed, &slot.report.verdicts[since..], &state);
            }
            // Monitors without checkpoint support advance the watermark
            // too — the interval gates the *probe*, recovery falls back to
            // full replay for them.
            slot.checkpointed = Some(fed);
        }
        if let Some(started) = check_started {
            (feed.end_check)(started);
        }
        harvest(slot, &mut out.harvested);
        assert_eq!(
            out.verdicts.len(),
            out.run.len(),
            "an ObjectMonitor::on_records must append exactly one verdict per event"
        );
        // Rows accumulate in processing order, so each object's seqs reach
        // the shell in order.
        if let Some(deliver) = feed.deliver {
            out.rows.extend(out.verdicts.iter().enumerate().map(|(offset, &verdict)| {
                VerdictEvent { object, seq: run_base + offset as u64, verdict }
            }));
            if out.rows.len() >= DELIVERY_CHUNK {
                deliver(&out.rows);
                out.rows.clear();
            }
        }
    }

    /// Retires `object`'s monitor at its eviction marker: the tombstone
    /// goes into the journal and the monitor is dropped; the slot and its
    /// verdict stream stay.  A no-op for an object without a live monitor.
    fn retire(&mut self, object: ObjectId, sink: Option<&dyn JournalSink>, out: &mut ClaimOutput) {
        let Some(slot) = self.objects.get_mut(&object).filter(|slot| slot.monitor.is_some())
        else {
            return;
        };
        if let Some(sink) = sink {
            // The tombstone marks the retirement's position in the durable
            // stream: recovery evicts here instead of resurrecting the
            // object from a stale checkpoint.  (`finish` retires nothing
            // and writes none.)
            sink.tombstone(object);
        }
        // Each run's checker work was harvested as it ran; the next
        // monitor's counters start from zero.
        slot.monitor = None;
        slot.checkpointed = None;
        slot.harvested = CheckerStats::default();
        out.evicted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sequential_reference;
    use drv_consistency::CheckerMonitorFactory;
    use drv_lang::{EventBatch, Invocation, ProcId, Response, Symbol};
    use drv_spec::Register;
    use std::borrow::Cow;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;

    fn register() -> CheckerMonitorFactory<Register> {
        CheckerMonitorFactory::linearizability(Register::new(), 2)
    }

    /// `per_object` events of clean write/read traffic for each of objects
    /// `0..objects`, interleaved one event per object at a time.
    fn round_robin(objects: u64, per_object: usize) -> Vec<(ObjectId, Symbol)> {
        let stream = |object: u64| -> Vec<(ObjectId, Symbol)> {
            let object = ObjectId(object);
            (1..=per_object.div_ceil(4) as u64)
                .flat_map(|value| {
                    [
                        Symbol::invoke(ProcId(0), Invocation::Write(value)),
                        Symbol::respond(ProcId(0), Response::Ack),
                        Symbol::invoke(ProcId(1), Invocation::Read),
                        Symbol::respond(ProcId(1), Response::Value(value)),
                    ]
                })
                .take(per_object)
                .map(|symbol| (object, symbol))
                .collect()
        };
        let streams: Vec<_> = (0..objects).map(stream).collect();
        (0..per_object)
            .flat_map(|step| streams.iter().map(move |stream| stream[step].clone()))
            .collect()
    }

    /// `events` interned into `arena` as one claim's queue items.
    fn items(events: &[(ObjectId, Symbol)], arena: &SharedInterner) -> Vec<QueueItem> {
        let mut batch = EventBatch::new();
        for (object, symbol) in events {
            batch.push_symbol(*object, symbol, arena);
        }
        (0..batch.len()).map(|index| QueueItem::Event(batch.get(index))).collect()
    }

    /// Feeds one claim of `items` into `core` and returns the output with
    /// every verdict row the claim produced, delivered or left over.
    fn claim(
        core: &mut ShardCore,
        items: &[QueueItem],
        factory: &dyn ObjectMonitorFactory,
        arena: &SharedInterner,
        sink: Option<&dyn JournalSink>,
    ) -> (ClaimOutput, Vec<VerdictEvent>) {
        let delivered = RefCell::new(Vec::new());
        let deliver = |rows: &[VerdictEvent]| delivered.borrow_mut().extend_from_slice(rows);
        let feed = Feed {
            factory,
            arena,
            sink,
            start_check: &|| None,
            end_check: &|_| {},
            deliver: Some(&deliver),
        };
        let mut out = ClaimOutput::default();
        core.feed(items, &feed, &mut out);
        let mut rows = delivered.into_inner();
        rows.append(&mut out.rows);
        (out, rows)
    }

    fn reports(core: &mut ShardCore) -> BTreeMap<ObjectId, Vec<Verdict>> {
        core.drain_reports()
            .map(|(object, report)| (object, report.verdicts))
            .collect()
    }

    fn stream(rows: &[VerdictEvent], object: ObjectId) -> Vec<(u64, Verdict)> {
        rows.iter()
            .filter(|row| row.object == object)
            .map(|row| (row.seq, row.verdict))
            .collect()
    }

    /// Wraps the register checker and reports `(object, run length)` for
    /// every `on_batch` call the core makes.  The test doubles report down
    /// channels: factories and sinks must be `Sync`, and the core's file
    /// names no lock.
    struct CountingFactory(mpsc::Sender<(ObjectId, usize)>);
    struct CountingMonitor {
        object: ObjectId,
        inner: Box<dyn ObjectMonitor>,
        calls: mpsc::Sender<(ObjectId, usize)>,
    }
    impl ObjectMonitor for CountingMonitor {
        fn on_symbol(&mut self, symbol: &Symbol) -> Verdict {
            self.inner.on_symbol(symbol)
        }
        fn on_batch(&mut self, symbols: &[Symbol], verdicts: &mut Vec<Verdict>) {
            self.calls.send((self.object, symbols.len())).expect("the test holds the receiver");
            self.inner.on_batch(symbols, verdicts);
        }
    }
    impl ObjectMonitorFactory for CountingFactory {
        fn name(&self) -> Cow<'_, str> {
            Cow::Borrowed("counting")
        }
        fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
            Box::new(CountingMonitor {
                object,
                inner: register().create(object),
                calls: self.0.clone(),
            })
        }
    }

    /// One claim feeds each object's events to its monitor as one run,
    /// however finely the producer interleaved them: 3 objects × 50
    /// round-robin events are three `on_batch` calls of 50, with verdict
    /// streams equal to the sequential reference.
    #[test]
    fn one_claim_feeds_each_object_one_run_in_queue_order() {
        let events = round_robin(3, 50);
        let (calls_tx, calls) = mpsc::channel();
        let factory = CountingFactory(calls_tx);
        let arena = SharedInterner::new();
        let mut core = ShardCore::default();
        let (out, _) = claim(&mut core, &items(&events, &arena), &factory, &arena, None);
        assert_eq!(reports(&mut core), sequential_reference(&register(), &events));
        let mut calls: Vec<_> = calls.try_iter().collect();
        calls.sort_unstable();
        assert_eq!(calls, [(ObjectId(0), 50), (ObjectId(1), 50), (ObjectId(2), 50)]);
        assert_eq!(out.runs, 3, "one run per object");
        assert_eq!(out.events, 150);
    }

    /// What a [`RecordingSink`] was called with, in call order.
    #[derive(Debug, PartialEq)]
    enum SinkCall {
        Checkpoint {
            object: ObjectId,
            fed: u64,
            verdicts: Vec<Verdict>,
            state: Vec<u8>,
        },
        Tombstone(ObjectId),
    }

    /// A journal with a checkpoint due every `interval` fed events that
    /// reports each checkpoint and tombstone call.
    struct RecordingSink {
        interval: u64,
        calls: mpsc::Sender<SinkCall>,
    }

    impl RecordingSink {
        fn every(interval: u64) -> (Self, mpsc::Receiver<SinkCall>) {
            let (calls, received) = mpsc::channel();
            (RecordingSink { interval, calls }, received)
        }
    }

    impl JournalSink for RecordingSink {
        fn append_batch(&self, _batch: &EventBatch, _arena: &SharedInterner) {}
        fn append_frame(&self, _frame: &[u8]) {}
        fn checkpoint_interval(&self) -> u64 {
            self.interval
        }
        fn checkpoint(&self, object: ObjectId, fed: u64, verdicts: &[Verdict], state: &[u8]) {
            let call = SinkCall::Checkpoint {
                object,
                fed,
                verdicts: verdicts.to_vec(),
                state: state.to_vec(),
            };
            self.calls.send(call).expect("the test holds the receiver");
        }
        fn tombstone(&self, object: ObjectId) {
            self.calls
                .send(SinkCall::Tombstone(object))
                .expect("the test holds the receiver");
        }
    }

    /// A grouped claim hands each object its 50 events at once, yet the
    /// checkpoints still land on every 16th event — where one-event runs put
    /// them — so the journal's bytes do not depend on how a claim grouped the
    /// traffic: each run is fed as 16 + 16 + 16 + 2.
    #[test]
    fn checkpoints_land_on_the_interval_however_a_claim_groups() {
        let arena = SharedInterner::new();
        let (sink, calls) = RecordingSink::every(16);
        let mut core = ShardCore::default();
        let claimed = items(&round_robin(3, 50), &arena);
        let (out, _) = claim(&mut core, &claimed, &register(), &arena, Some(&sink));
        let mut checkpoints: Vec<(ObjectId, u64)> = calls
            .try_iter()
            .map(|call| match call {
                SinkCall::Checkpoint { object, fed, verdicts, .. } => {
                    assert_eq!(verdicts.len(), 16, "a checkpoint carries the interval's verdicts");
                    (object, fed)
                }
                SinkCall::Tombstone(object) => panic!("no marker was queued, {object} retired"),
            })
            .collect();
        checkpoints.sort_unstable();
        let expected: Vec<(ObjectId, u64)> = (0..3)
            .flat_map(|object| [16, 32, 48].map(|fed| (ObjectId(object), fed)))
            .collect();
        assert_eq!(checkpoints, expected);
        assert_eq!(out.runs, 12);
    }

    /// Returns `Maybe(k)` for the `k`-th symbol of its generation, and
    /// checkpoints `k`.
    struct GenerationMonitor(u32);
    impl ObjectMonitor for GenerationMonitor {
        fn on_symbol(&mut self, _symbol: &Symbol) -> Verdict {
            self.0 += 1;
            Verdict::Maybe(self.0)
        }
        fn checkpoint(&mut self) -> Option<Vec<u8>> {
            Some(self.0.to_le_bytes().to_vec())
        }
    }
    struct GenerationFactory;
    impl ObjectMonitorFactory for GenerationFactory {
        fn name(&self) -> Cow<'_, str> {
            Cow::Borrowed("generation")
        }
        fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
            Box::new(GenerationMonitor(0))
        }
    }

    /// `count` events of `object` for a [`GenerationFactory`] claim.
    fn reads(object: ObjectId, count: usize) -> Vec<(ObjectId, Symbol)> {
        vec![(object, Symbol::invoke(ProcId(0), Invocation::Read)); count]
    }

    fn generation(from: u32, to: u32) -> impl Iterator<Item = Verdict> {
        (from..=to).map(Verdict::Maybe)
    }

    /// Grouping never moves an eviction marker across its object's events:
    /// in one claim of `A B A evict(A) A B`, A's monitor is retired after
    /// exactly its first two events, and the third goes to a fresh
    /// generation — its count restarts, its `seq` continues.
    #[test]
    fn an_eviction_marker_splits_its_objects_run_in_a_grouped_claim() {
        let (a, b) = (ObjectId(2), ObjectId(1));
        let arena = SharedInterner::new();
        let event = |object| items(&reads(object, 1), &arena)[0];
        let claimed = [event(a), event(b), event(a), QueueItem::Evict(a), event(a), event(b)];
        let mut core = ShardCore::default();
        let (out, rows) = claim(&mut core, &claimed, &GenerationFactory, &arena, None);
        assert_eq!(
            stream(&rows, a),
            [(0, Verdict::Maybe(1)), (1, Verdict::Maybe(2)), (2, Verdict::Maybe(1))],
            "A's stream splits exactly at the marker"
        );
        assert_eq!(stream(&rows, b), [(0, Verdict::Maybe(1)), (1, Verdict::Maybe(2))]);
        assert_eq!(out.runs, 3, "B, A before and after");
        assert_eq!(out.evicted, 1);
        assert_eq!(
            reports(&mut core)[&a],
            [Verdict::Maybe(1), Verdict::Maybe(2), Verdict::Maybe(1)]
        );
    }

    /// One claim holds A's run across a checkpoint due, a marker, a second
    /// marker and a revival, interleaved with B: A's 6 events are fed as
    /// 4 + 2 with a checkpoint at 4, the first marker journals the only
    /// tombstone, the second is a no-op, and the revived monitor's 5 events
    /// cross the next due at 8 without a checkpoint while their seqs
    /// continue from 6.
    #[test]
    fn a_run_holds_across_a_checkpoint_two_markers_and_a_revival() {
        let (a, b) = (ObjectId(3), ObjectId(5));
        let arena = SharedInterner::new();
        let (a_events, b_events) = (items(&reads(a, 6), &arena), items(&reads(b, 5), &arena));
        let mut claimed: Vec<QueueItem> =
            a_events.iter().zip(&b_events).flat_map(|(a, b)| [*a, *b]).collect();
        claimed.extend([a_events[5], QueueItem::Evict(a), QueueItem::Evict(a)]);
        claimed.extend(items(&reads(a, 5), &arena));
        let (sink, calls) = RecordingSink::every(4);
        let mut core = ShardCore::default();
        let (out, rows) = claim(&mut core, &claimed, &GenerationFactory, &arena, Some(&sink));
        let checkpoint = |object| SinkCall::Checkpoint {
            object,
            fed: 4,
            verdicts: generation(1, 4).collect(),
            state: 4u32.to_le_bytes().to_vec(),
        };
        let calls: Vec<SinkCall> = calls.try_iter().collect();
        assert_eq!(calls, [checkpoint(a), SinkCall::Tombstone(a), checkpoint(b)]);
        let expected: Vec<Verdict> = generation(1, 6).chain(generation(1, 5)).collect();
        assert_eq!(stream(&rows, a), (0..).zip(expected.iter().copied()).collect::<Vec<_>>());
        assert_eq!(stream(&rows, b), (0..).zip(generation(1, 5)).collect::<Vec<_>>());
        assert_eq!(out.runs, 5, "A: 4 + 2, then 5 after the markers; B: 4 + 1");
        assert_eq!(out.evicted, 1, "the second marker finds no monitor");
        assert_eq!(reports(&mut core)[&a], expected);
    }

    /// A monitor that panics unwinds out of the core with the object it was
    /// fed in the output: the shell's `WorkerPanic::object`.
    #[test]
    fn a_monitor_panic_leaves_its_object_in_the_output() {
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
            fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
                if object == ObjectId(7) {
                    Box::new(Bomb)
                } else {
                    GenerationFactory.create(object)
                }
            }
        }
        let arena = SharedInterner::new();
        let claimed = items(&[reads(ObjectId(1), 2), reads(ObjectId(7), 2)].concat(), &arena);
        let mut core = ShardCore::default();
        let feed = Feed {
            factory: &BombFactory,
            arena: &arena,
            sink: None,
            start_check: &|| None,
            end_check: &|_| {},
            deliver: None,
        };
        let mut out = ClaimOutput::default();
        let unwound =
            std::panic::catch_unwind(AssertUnwindSafe(|| core.feed(&claimed, &feed, &mut out)));
        assert!(unwound.is_err(), "the monitor panicked");
        assert_eq!(out.object, Some(ObjectId(7)));
        assert_eq!(out.runs, 1, "object 1's run finished first");
    }
}
