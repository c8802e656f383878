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
//!   interleaved the objects.  `seq` is the object's event index.  The
//!   grouping counts instead of sorting: one pass numbers the claim's
//!   objects in a reused table, one lookup per stretch of consecutive
//!   same-object items, and counts each group's events; only the distinct
//!   objects are sorted, and one placement pass copies each event once, to
//!   where its run is fed from.
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
use std::collections::hash_map::Entry;
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
    grouping: Grouping,
    /// Object → its last group in the claim being grouped.  Kept apart from
    /// [`Grouping`], which a claim takes out of the output while it feeds:
    /// a map's default draws a hash key, a vector's costs nothing.
    last_group: hash::HashMap<ObjectId, u32>,
    verdicts: Vec<Verdict>,
    check_tick: u32,
}

/// No next group: the end of an object's chain.
const NO_GROUP: u32 = u32::MAX;

/// One object's events in a claim up to an eviction marker (or the claim's
/// end): placed contiguously and fed as one run, then retired if a marker
/// closed it.
#[derive(Clone, Copy)]
struct Group {
    /// Events counted into the group.
    len: u32,
    /// Where the group's next event is placed; placement leaves it at the
    /// group's end.
    at: u32,
    /// A marker followed the group's events: the object's later events open
    /// its next group.
    closed: bool,
    /// The object's next group in queue order, or [`NO_GROUP`].
    next: u32,
}

/// Consecutive same-object events of a claim, `items[start..end]`, and the
/// group they are counted into.
#[derive(Clone, Copy)]
struct Stretch {
    group: u32,
    start: u32,
    end: u32,
}

/// A claim grouped by object, in buffers reused claim to claim.
#[derive(Default)]
struct Grouping {
    /// Each object of the claim with its first group, sorted by object id.
    objects: Vec<(ObjectId, u32)>,
    groups: Vec<Group>,
    /// The claim's event stretches in queue order.
    stretches: Vec<Stretch>,
    /// The claim's events, group after group in ascending object id; longer
    /// than the claim when an earlier claim was (every slot a group covers
    /// is written before it is read).
    placed: Vec<EventRecord>,
}

/// The event a stretch's item is.
fn event(item: &QueueItem) -> EventRecord {
    match *item {
        QueueItem::Event(event) => event,
        QueueItem::Evict(_) => unreachable!("a stretch holds only events"),
    }
}

impl Grouping {
    /// Groups `items` by object and places their events; returns how many
    /// events the claim holds.
    fn group(
        &mut self,
        items: &[QueueItem],
        last_group: &mut hash::HashMap<ObjectId, u32>,
    ) -> usize {
        assert!(
            u32::try_from(items.len()).is_ok(),
            "a shard queue holds < 2^32 items"
        );
        self.objects.clear();
        self.groups.clear();
        self.stretches.clear();
        last_group.clear();
        // Count: one lookup per stretch of consecutive same-object events.
        let mut at = 0;
        while at < items.len() {
            let object = match items[at] {
                QueueItem::Evict(object) => {
                    let group = self.open(object, last_group);
                    self.groups[group as usize].closed = true;
                    at += 1;
                    continue;
                }
                QueueItem::Event(event) => event.object,
            };
            let start = at;
            at += 1;
            while matches!(items.get(at), Some(QueueItem::Event(next)) if next.object == object) {
                at += 1;
            }
            let group = self.open(object, last_group);
            self.groups[group as usize].len += (at - start) as u32;
            self.stretches.push(Stretch {
                group,
                start: start as u32,
                end: at as u32,
            });
        }
        // Each group's place: groups in ascending object id, an object's
        // groups in queue order.
        self.objects.sort_unstable_by_key(|&(object, _)| object);
        let mut events = 0;
        for &(_, first) in &self.objects {
            let mut next = first;
            while next != NO_GROUP {
                let group = &mut self.groups[next as usize];
                group.at = events;
                events += group.len;
                next = group.next;
            }
        }
        let events = events as usize;
        if let Some(first) = self.stretches.first() {
            if self.placed.len() < events {
                self.placed
                    .resize(events, event(&items[first.start as usize]));
            }
        }
        // Place: each event is copied once.
        for stretch in &self.stretches {
            let group = &mut self.groups[stretch.group as usize];
            let stretch = &items[stretch.start as usize..stretch.end as usize];
            let to = group.at as usize;
            for (slot, item) in self.placed[to..to + stretch.len()].iter_mut().zip(stretch) {
                *slot = event(item);
            }
            group.at += stretch.len() as u32;
        }
        events
    }

    /// `object`'s open group: its last one, or a new one if it has none in
    /// this claim or a marker closed its last.
    fn open(&mut self, object: ObjectId, last_group: &mut hash::HashMap<ObjectId, u32>) -> u32 {
        let fresh = self.groups.len() as u32;
        match last_group.entry(object) {
            Entry::Vacant(entry) => {
                entry.insert(fresh);
                self.objects.push((object, fresh));
            }
            Entry::Occupied(mut entry) => {
                let last = *entry.get();
                if !self.groups[last as usize].closed {
                    return last;
                }
                self.groups[last as usize].next = fresh;
                entry.insert(fresh);
            }
        }
        self.groups.push(Group {
            len: 0,
            at: 0,
            closed: false,
            next: NO_GROUP,
        });
        fresh
    }
}

/// The shard router: FNV-1a over the raw object id, modulo the shard
/// count.  Object→shard placement only affects load distribution, never
/// verdicts, but a fixed hash keeps scheduling reproducible run to run.
/// The remainder takes no divide: it multiplies by a reciprocal of the
/// shard count fixed when the engine is built (Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation", 2019), which at 128 bits is
/// exact for every 64-bit hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRouter {
    shards: u64,
    /// ⌈2¹²⁸ / shards⌉, which wraps to 0 for one shard.
    reciprocal: u128,
}

impl ShardRouter {
    pub(crate) fn new(shards: usize) -> Self {
        let shards = shards as u64;
        assert!(shards > 0, "an engine has at least one shard");
        ShardRouter {
            shards,
            reciprocal: (u128::MAX / u128::from(shards)).wrapping_add(1),
        }
    }

    /// The index of `object`'s shard.
    pub(crate) fn shard_of(self, object: ObjectId) -> usize {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        for byte in object.0.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        self.remainder(hash) as usize
    }

    /// `hash % shards`: the low 128 bits of `hash × reciprocal` are the
    /// fraction `hash / shards`, and the integer part of that fraction
    /// times `shards` is the remainder.
    pub(crate) fn remainder(self, hash: u64) -> u64 {
        let fraction = self.reciprocal.wrapping_mul(u128::from(hash));
        let shards = u128::from(self.shards);
        // The top 128 bits of the 256-bit `fraction × shards`.
        let high = (fraction >> 64) * shards;
        let low = (u128::from(fraction as u64) * shards) >> 64;
        ((high + low) >> 64) as u64
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
    let Some(now) = slot
        .monitor
        .as_deref()
        .and_then(ObjectMonitor::checker_stats)
    else {
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
        self.objects.insert(
            seed.object,
            ObjectSlot::new(Some(seed.monitor), seed.verdicts),
        );
    }

    /// Every object's verdict stream, leaving the core empty.
    pub(crate) fn drain_reports(&mut self) -> impl Iterator<Item = (ObjectId, ObjectReport)> + '_ {
        self.objects
            .drain()
            .map(|(object, slot)| (object, slot.report))
    }

    /// Feeds one claim's drained `items`, grouped by object.
    ///
    /// The items are counted into groups: an object's events up to its
    /// next eviction marker, in queue order (a marker closes its object's
    /// group, and the object's later events open the next one).  Groups
    /// are fed in ascending object id, each as one run from where the
    /// placement put its events, handed with the arena to
    /// [`ObjectMonitor::on_records`] and split only where a checkpoint
    /// falls due; a closed group's marker then retires the monitor, and the
    /// object's next run meets a fresh one.  Counters and the rows not yet
    /// delivered accumulate in `out` until the shell takes them.
    pub(crate) fn feed(&mut self, items: &[QueueItem], feed: &Feed<'_>, out: &mut ClaimOutput) {
        let mut grouping = std::mem::take(&mut out.grouping);
        out.events += grouping.group(items, &mut out.last_group) as u64;
        for &(object, first) in &grouping.objects {
            // Whose work a panic from here on unwinds out of.
            out.object = Some(object);
            let mut group = first;
            while group != NO_GROUP {
                let Group {
                    len,
                    at,
                    closed,
                    next,
                } = grouping.groups[group as usize];
                if len > 0 {
                    let run = &grouping.placed[(at - len) as usize..at as usize];
                    self.feed_run(object, run, feed, out);
                }
                if closed {
                    self.retire(object, feed.sink, out);
                }
                group = next;
            }
        }
        out.object = None;
        out.grouping = grouping;
    }

    /// Feeds `run`, one object's events in queue order, to the object's
    /// monitor.
    fn feed_run(
        &mut self,
        object: ObjectId,
        run: &[EventRecord],
        feed: &Feed<'_>,
        out: &mut ClaimOutput,
    ) {
        let slot = self
            .objects
            .entry(object)
            .or_insert_with(|| ObjectSlot::new(None, Vec::new()));
        // First sight, or a retired slot's next run: a fresh monitor.
        let monitor = slot
            .monitor
            .get_or_insert_with(|| feed.factory.create_in(object, feed.arena));
        // Seqs are assigned from the slot's stream position before the
        // run's verdicts join it.
        let run_base = slot.report.verdicts.len() as u64;
        let checkpoints = feed.sink.map(|sink| (sink, sink.checkpoint_interval()));
        out.check_tick = out.check_tick.wrapping_add(1);
        let check_started = (out.check_tick % CHECK_SAMPLE == 1)
            .then(feed.start_check)
            .flatten();
        out.verdicts.clear();
        let mut from = 0;
        while from < run.len() {
            let fed = slot.report.verdicts.len() as u64;
            // Feed up to the next checkpoint due, so a checkpoint lands on
            // the same event however a claim grouped the object's traffic.
            let due = checkpoints
                .zip(slot.checkpointed)
                .map(|((sink, interval), since)| (sink, since, since.saturating_add(interval)));
            let until_due = due.map_or(u64::MAX, |(_, _, at)| at.saturating_sub(fed).max(1));
            let to = from + until_due.min((run.len() - from) as u64) as usize;
            let fed_before = out.verdicts.len();
            monitor.on_records(&run[from..to], feed.arena, &mut out.verdicts);
            out.runs += 1;
            slot.report
                .verdicts
                .extend_from_slice(&out.verdicts[fed_before..]);
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
            run.len(),
            "an ObjectMonitor::on_records must append exactly one verdict per event"
        );
        // Rows accumulate in processing order, so each object's seqs reach
        // the shell in order.
        if let Some(deliver) = feed.deliver {
            out.rows
                .extend(
                    out.verdicts
                        .iter()
                        .enumerate()
                        .map(|(offset, &verdict)| VerdictEvent {
                            object,
                            seq: run_base + offset as u64,
                            verdict,
                        }),
                );
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
        let Some(slot) = self
            .objects
            .get_mut(&object)
            .filter(|slot| slot.monitor.is_some())
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

    /// `count` events of clean write/read traffic on `object`.
    fn register_stream(object: ObjectId, count: usize) -> Vec<(ObjectId, Symbol)> {
        (1..=count.div_ceil(4) as u64)
            .flat_map(|value| {
                [
                    Symbol::invoke(ProcId(0), Invocation::Write(value)),
                    Symbol::respond(ProcId(0), Response::Ack),
                    Symbol::invoke(ProcId(1), Invocation::Read),
                    Symbol::respond(ProcId(1), Response::Value(value)),
                ]
            })
            .take(count)
            .map(|symbol| (object, symbol))
            .collect()
    }

    /// `per_object` events of clean write/read traffic for each of objects
    /// `0..objects`, interleaved one event per object at a time.
    fn round_robin(objects: u64, per_object: usize) -> Vec<(ObjectId, Symbol)> {
        let streams: Vec<_> = (0..objects)
            .map(|object| register_stream(ObjectId(object), per_object))
            .collect();
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
        (0..batch.len())
            .map(|index| QueueItem::Event(batch.get(index)))
            .collect()
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
    /// every `on_batch` call the core makes (one per `on_records` call: the
    /// checker is on an arena of its own, so each run is resolved and fed
    /// as symbols).  The test doubles report down channels: factories and
    /// sinks must be `Sync`, and the core's file names no lock.
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
            self.calls
                .send((self.object, symbols.len()))
                .expect("the test holds the receiver");
            self.inner.on_batch(symbols, verdicts);
        }
        fn checker_stats(&self) -> Option<CheckerStats> {
            self.inner.checker_stats()
        }
        fn checkpoint(&mut self) -> Option<Vec<u8>> {
            self.inner.checkpoint()
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
        assert_eq!(
            reports(&mut core),
            sequential_reference(&register(), &events)
        );
        let mut calls: Vec<_> = calls.try_iter().collect();
        calls.sort_unstable();
        assert_eq!(
            calls,
            [(ObjectId(0), 50), (ObjectId(1), 50), (ObjectId(2), 50)]
        );
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
                SinkCall::Checkpoint {
                    object,
                    fed,
                    verdicts,
                    ..
                } => {
                    assert_eq!(
                        verdicts.len(),
                        16,
                        "a checkpoint carries the interval's verdicts"
                    );
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
        let claimed = [
            event(a),
            event(b),
            event(a),
            QueueItem::Evict(a),
            event(a),
            event(b),
        ];
        let mut core = ShardCore::default();
        let (out, rows) = claim(&mut core, &claimed, &GenerationFactory, &arena, None);
        assert_eq!(
            stream(&rows, a),
            [
                (0, Verdict::Maybe(1)),
                (1, Verdict::Maybe(2)),
                (2, Verdict::Maybe(1))
            ],
            "A's stream splits exactly at the marker"
        );
        assert_eq!(
            stream(&rows, b),
            [(0, Verdict::Maybe(1)), (1, Verdict::Maybe(2))]
        );
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
        let mut claimed: Vec<QueueItem> = a_events
            .iter()
            .zip(&b_events)
            .flat_map(|(a, b)| [*a, *b])
            .collect();
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
        assert_eq!(
            calls,
            [checkpoint(a), SinkCall::Tombstone(a), checkpoint(b)]
        );
        let expected: Vec<Verdict> = generation(1, 6).chain(generation(1, 5)).collect();
        assert_eq!(
            stream(&rows, a),
            (0..).zip(expected.iter().copied()).collect::<Vec<_>>()
        );
        assert_eq!(
            stream(&rows, b),
            (0..).zip(generation(1, 5)).collect::<Vec<_>>()
        );
        assert_eq!(out.runs, 5, "A: 4 + 2, then 5 after the markers; B: 4 + 1");
        assert_eq!(out.evicted, 1, "the second marker finds no monitor");
        assert_eq!(reports(&mut core)[&a], expected);
    }

    /// The sort-based grouping the counting one replaced, kept as the
    /// oracle: the items sorted on `(object, queue index)`, each object's
    /// events up to its next marker gathered into one run.
    fn feed_sorted(
        core: &mut ShardCore,
        items: &[QueueItem],
        feed: &Feed<'_>,
        out: &mut ClaimOutput,
    ) {
        let mut order: Vec<(ObjectId, usize)> = items
            .iter()
            .enumerate()
            .map(|(index, item)| match item {
                QueueItem::Event(event) => (event.object, index),
                QueueItem::Evict(object) => (*object, index),
            })
            .collect();
        out.events += items
            .iter()
            .filter(|item| matches!(item, QueueItem::Event(_)))
            .count() as u64;
        order.sort_unstable();
        let mut at = 0;
        while at < order.len() {
            let (object, index) = order[at];
            out.object = Some(object);
            if let QueueItem::Evict(_) = items[index] {
                core.retire(object, feed.sink, out);
                at += 1;
                continue;
            }
            let mut end = at + 1;
            while end < order.len()
                && order[end].0 == object
                && matches!(items[order[end].1], QueueItem::Event(_))
            {
                end += 1;
            }
            let run: Vec<EventRecord> = order[at..end]
                .iter()
                .map(|&(_, index)| event(&items[index]))
                .collect();
            core.feed_run(object, &run, feed, out);
            at = end;
        }
        out.object = None;
    }

    /// Everything a sequence of claims showed: the `on_records` calls, the
    /// delivered row chunks and the rows left over, the sink calls, each
    /// claim's counters, and the final verdict streams.
    #[derive(Debug, PartialEq)]
    struct Observed {
        records: Vec<(ObjectId, usize)>,
        delivered: Vec<Vec<VerdictEvent>>,
        sink: Vec<SinkCall>,
        counters: Vec<(u64, u64, u64, CheckerStats)>,
        reports: BTreeMap<ObjectId, Vec<Verdict>>,
    }

    type Grouper = fn(&mut ShardCore, &[QueueItem], &Feed<'_>, &mut ClaimOutput);

    /// Feeds `claims` one after the other into a fresh core through `group`.
    fn observe(
        group: Grouper,
        claims: &[&[QueueItem]],
        arena: &SharedInterner,
        interval: u64,
    ) -> Observed {
        let (calls, records) = mpsc::channel();
        let factory = CountingFactory(calls);
        let (sink, sink_calls) = RecordingSink::every(interval);
        let delivered = RefCell::new(Vec::new());
        let deliver = |rows: &[VerdictEvent]| delivered.borrow_mut().push(rows.to_vec());
        let feed = Feed {
            factory: &factory,
            arena,
            sink: Some(&sink),
            start_check: &|| None,
            end_check: &|_| {},
            deliver: Some(&deliver),
        };
        let mut core = ShardCore::default();
        let mut out = ClaimOutput::default();
        let mut counters = Vec::new();
        for items in claims {
            group(&mut core, items, &feed, &mut out);
            assert_eq!(out.object, None);
            delivered.borrow_mut().push(std::mem::take(&mut out.rows));
            let harvested = std::mem::take(&mut out.harvested);
            counters.push((
                std::mem::take(&mut out.events),
                std::mem::take(&mut out.runs),
                std::mem::take(&mut out.evicted),
                harvested,
            ));
        }
        Observed {
            records: records.try_iter().collect(),
            delivered: delivered.into_inner(),
            sink: sink_calls.try_iter().collect(),
            counters,
            reports: reports(&mut core),
        }
    }

    /// xorshift64*: the seeded draws of the differential test.
    struct Draw(u64);
    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The counting grouping feeds exactly what the sort-based one fed:
    /// the same `on_records` calls, rows, sink calls, counters and
    /// streams, over seeded claims of 1 to 600 objects (ids drawn at random,
    /// so first sight and id order differ) interleaved round-robin, in
    /// per-object stretches and at random, with eviction markers anywhere,
    /// doubled and on never-seen objects, split into up to three claims,
    /// at checkpoint intervals 1, 7 and 16.
    #[test]
    fn counting_a_claim_feeds_what_sorting_it_fed() {
        let arena = SharedInterner::new();
        let mut draw = Draw(0x9e37_79b9_7f4a_7c15);
        let mut cases = 0;
        for seed in 0..12 {
            for objects in [1, 2, 7, 64, 600] {
                let ids: Vec<u64> = (0..objects)
                    .map(|_| draw.next() >> draw.below(60))
                    .collect();
                let per_object = 1 + draw.below(if objects > 64 { 6 } else { 20 });
                let streams: Vec<Vec<QueueItem>> = ids
                    .iter()
                    .map(|&id| items(&register_stream(ObjectId(id), per_object), &arena))
                    .collect();
                let (mut taken, mut claimed) = (vec![0; objects], Vec::new());
                let (total, mut cursor) = (objects * per_object, 0);
                let mut remaining = total;
                while remaining > 0 {
                    let k = if seed % 3 == 0 {
                        // Round-robin: one event per object at a time.
                        cursor = (cursor + 1) % objects;
                        cursor
                    } else {
                        // At random, in stretches of up to 1.5 streams when
                        // `seed % 3 == 2`.
                        draw.below(objects)
                    };
                    let stretch = if seed % 3 == 2 {
                        1 + draw.below(per_object + per_object / 2)
                    } else {
                        1
                    };
                    let end = (taken[k] + stretch).min(per_object);
                    if end == taken[k] {
                        continue;
                    }
                    claimed.extend_from_slice(&streams[k][taken[k]..end]);
                    remaining -= end - taken[k];
                    taken[k] = end;
                    // Markers: on this object (sometimes doubled), on another
                    // one, or on an object nobody saw.
                    match draw.below(16) {
                        0 => claimed.push(QueueItem::Evict(ObjectId(ids[k]))),
                        1 => claimed.extend([QueueItem::Evict(ObjectId(ids[k])); 2]),
                        2 => claimed.push(QueueItem::Evict(ObjectId(ids[draw.below(objects)]))),
                        3 => claimed.push(QueueItem::Evict(ObjectId(draw.next() | 1 << 63))),
                        _ => {}
                    }
                }
                if draw.below(4) == 0 {
                    claimed.insert(0, QueueItem::Evict(ObjectId(ids[0])));
                }
                // Up to three claims, cut anywhere.
                let mut cuts = [draw.below(claimed.len() + 1), draw.below(claimed.len() + 1)];
                cuts.sort_unstable();
                let claims = [
                    &claimed[..cuts[0]],
                    &claimed[cuts[0]..cuts[1]],
                    &claimed[cuts[1]..],
                ];
                for interval in [1, 7, 16] {
                    let counted = observe(ShardCore::feed, &claims, &arena, interval);
                    let sorted = observe(feed_sorted, &claims, &arena, interval);
                    assert!(
                        counted == sorted,
                        "seed {seed}, {objects} objects, interval {interval}: the groupings differ"
                    );
                    assert_eq!(
                        counted.records.iter().map(|&(_, len)| len).sum::<usize>(),
                        total
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 12 * 5 * 3);
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
        let claimed = items(
            &[reads(ObjectId(1), 2), reads(ObjectId(7), 2)].concat(),
            &arena,
        );
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
