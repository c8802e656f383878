//! The sharded streaming engine's shell: the work-stealing worker pool
//! around the shard cores.
//!
//! ## Architecture
//!
//! ```text
//!  submit_batch / try_submit_frame(batch)     worker 0   worker 1  …
//!        │  bounded by max_pending               │          │
//!        │  payloads interned (SharedInterner)   │          │
//!        │  journaled as one batch frame         │          │
//!        ▼                                       ▼          ▼
//!  shard = fnv(object) ──► shard queues ──► ready deques (per worker,
//!        (FIFO per shard)                    home = shard % workers,
//!                                            idle workers steal)
//!  ┄┄ shell: this module ┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄│ a claim ┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄
//!  core: crate::shard           ShardCore::feed: per-object monitors and
//!                               verdict streams, checkpoints, tombstones
//!  ┄┄ shell ┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄▼┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄
//!                               verdict subscriptions, registry, pending
//! ```
//!
//! The shell owns every lock, atomic, thread and clock read; the core owns
//! none and decides what a claim does to a shard's objects.
//!
//! * **Routing.**  Every event is tagged with an [`ObjectId`] and hashed to
//!   one of the engine's shards; a shard's queue is FIFO and a shard is
//!   processed by at most one worker at a time, so each object's symbols are
//!   consumed in submission order — which is what makes the per-object
//!   verdict streams bit-identical to a sequential run, whatever the worker
//!   count (`tests/differential.rs` proves it on hundreds of seeded
//!   streams).
//! * **Work stealing.**  A shard with queued events is *scheduled* onto the
//!   ready deque of its home worker (`shard mod workers`); a worker pops its
//!   own deque from the front and, when empty, steals from the back of the
//!   others'.  A hard Wing–Gong search holds its worker for as long as it
//!   runs, and the shard it is in waits with it; the other shards queued on
//!   that worker are stolen by idle peers, so one adversarial object stalls
//!   its own shard, not the pool.
//! * **Untimed parking.**  An idle worker parks on the pool condvar with an
//!   *untimed* `wait_while` guarded by a work-epoch ticket: it reads
//!   `Shared::work_epoch` *before* scanning the deques, and every
//!   work-publishing action (submit, reschedule, shutdown, abort,
//!   backlog-drained) bumps the epoch and then notifies under the park
//!   lock.  Work published after the read changes the epoch the predicate
//!   re-checks, so no wake-up can be lost — a parked pool performs **zero**
//!   wake-ups while idle (`stats.park_wakeups` counts every return from the
//!   park, and `tests/service.rs` asserts the counter stays flat over a
//!   parked window).
//! * **Backpressure.**  [`EngineConfig::with_max_pending`] bounds the
//!   submitted-but-unprocessed work: [`MonitoringEngine::submit_batch`]
//!   blocks until workers drain below the bound,
//!   [`MonitoringEngine::try_submit_frame`] instead reports
//!   [`SubmitError::Full`].  Waiting producers are woken as batches retire.
//! * **Streaming verdicts.**  [`MonitoringEngine::subscribe`] opens a
//!   bounded [`VerdictSubscription`] channel delivering
//!   `(object, seq, verdict)` as soon as each symbol is checked (the
//!   end-of-run [`crate::EngineReport`] is [`MonitoringEngine::finish`]'s).
//!   Delivery is batched on both ends: a worker pushes a claim's verdicts in slices of
//!   about 64 rows, each under one channel lock, and consumers drain into
//!   a reusable struct-of-arrays `VerdictBatch` via
//!   [`VerdictSubscription::poll_batch`] /
//!   [`VerdictSubscription::wait_batch`].  Grouping varies, order and
//!   content never do.
//! * **Payload interning.**  Queued events are `Copy` records
//!   ([`EventRecord`](drv_lang::EventRecord) — the workspace-wide
//!   interchange type); payloads are interned once, into the engine's
//!   [`SharedInterner`], on which every monitor is created
//!   ([`ObjectMonitorFactory::create_in`]): a checker keeps the queued ids
//!   as they are, no payload resolved on the way.
//! * **Batched ingestion.**  [`MonitoringEngine::submit_batch`] /
//!   [`MonitoringEngine::try_submit_frame`] scatter a whole [`EventBatch`]
//!   across the shards in one routing pass — one queue lock per touched
//!   shard, backpressure reserved in events up front, and one epoch bump +
//!   notify per batch ([`MonitoringEngine::submit`] is a batch of one).
//!   Worker-side, a claim takes the whole queue and hands it to the
//!   shard's core, which feeds each object one run per claim.
//! * **Failure.**  A panicking monitor does not hang the pool: the worker
//!   catches it, aborts the run (reconciling the backlog so
//!   [`MonitoringEngine::backlog`] does not over-report forever), and the
//!   [`WorkerPanic`] surfaces from [`MonitoringEngine::finish`] — or early,
//!   through [`MonitoringEngine::take_panic`] — naming the object whose
//!   monitor, checkpoint or tombstone the panic unwound out of.

use crate::journal::{Journal, JournalSink, RecoveredObject};
use crate::report::{EngineReport, EngineStats};
use crate::service::{SubmitError, SubscriptionShared, VerdictSubscription};
use crate::shard::{ClaimOutput, Feed, QueueItem, ShardCore, ShardRouter};
use drv_consistency::{ObjectMonitor, ObjectMonitorFactory};
use drv_lang::{EventBatch, ObjectId, SharedInterner, Symbol, Verdict, VerdictEvent, WorkerPanic};
use drv_telemetry::{Counter, Gauge, Histogram, Telemetry};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`MonitoringEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    workers: usize,
    max_pending: usize,
}

impl EngineConfig {
    /// A pool of `workers` threads (clamped to ≥ 1) over `4 × workers`
    /// shards, with unbounded ingestion.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers: workers.max(1),
            max_pending: usize::MAX,
        }
    }

    /// Bounds the submitted-but-unprocessed work (clamped to ≥ 1):
    /// [`MonitoringEngine::submit_batch`] blocks at the bound until workers
    /// drain, [`MonitoringEngine::try_submit_frame`] reports
    /// [`SubmitError::Full`].
    /// Without this, ingestion is unbounded (the batch-mode default).
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pending-work bound (`usize::MAX` when unbounded).
    #[must_use]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Four shards per worker, so that idle workers find shards to steal.
    fn shards(&self) -> usize {
        self.workers * 4
    }
}

/// The engine's registered metric handles: [`EngineStats`] /
/// [`MonitoringEngine::live_stats`] are *views* over these registry cells,
/// and any [`Telemetry`] handle shared with the engine sees them under the
/// `engine_*` names.
struct EngineMetrics {
    /// Events fed to a monitor.
    events: Counter,
    /// Shard claims (each drains the whole shard queue).
    batches: Counter,
    /// Monitor calls ([`ObjectMonitor::on_records`], one per run, or per part
    /// of a run split at a checkpoint due): `engine_events / engine_runs` is
    /// the mean run length the grouped claims achieve on live traffic.
    runs: Counter,
    /// Shard claims stolen from another worker's deque.
    steals: Counter,
    /// Monitors retired by an eviction marker.
    evicted: Counter,
    /// Times a worker entered the park wait.
    parks: Counter,
    /// Times a worker came back out of the park wait.  Zero while the
    /// pool sits idle — the proof that parking is untimed, not polled.
    park_wakeups: Counter,
    /// Queued-but-undrained work items across all shard queues.
    queue_depth: Gauge,
    /// Batch scatter latency (one routing pass of `submit_batch`), ns.
    scatter_ns: Histogram,
    /// How long a shard waited between being scheduled and being claimed,
    /// ns — one sample per claim.
    queue_wait_ns: Histogram,
    /// Per-run check latency (the run's `ObjectMonitor::on_records` calls and
    /// any checkpoint due inside it), ns — the core times 1 run in 16.
    check_ns: Histogram,
    /// Memo-relevant checker counters, harvested as deltas from
    /// [`ObjectMonitor::checker_stats`] after each run.
    checker_checks: Counter,
    checker_fast_path: Counter,
    checker_splices: Counter,
    checker_dfs_runs: Counter,
    checker_dfs_nodes: Counter,
    /// NOs answered without a search: final under LIN, standing under SC.
    checker_latched: Counter,
    /// Checks answered Unknown (a `Verdict::Maybe(0)`): the search ran out of
    /// its `max_states` budget.
    checker_unknown: Counter,
    /// Coalesced verdict deliveries into subscriptions (one per flush of the
    /// delivery buffer — once it holds 64 verdicts, and at the end of a
    /// claim — regardless of the subscriber count).
    verdict_batches: Counter,
    /// Verdicts delivered through those batches.
    verdict_batch_events: Counter,
    /// Verdicts per delivered batch (the grouping the batched path
    /// actually achieves on live traffic).
    verdict_batch_len: Histogram,
    /// One delivery flush into every open subscription, ns.
    verdict_flush_ns: Histogram,
    /// Verdicts a subscription discarded because it was already closed
    /// when the worker pushed them (not counted in its `missed`).
    verdicts_dropped_closed: Counter,
}

impl EngineMetrics {
    fn register(tel: &Telemetry) -> Self {
        let reg = tel.registry();
        EngineMetrics {
            events: reg.counter("engine_events"),
            batches: reg.counter("engine_batches"),
            runs: reg.counter("engine_runs"),
            steals: reg.counter("engine_steals"),
            evicted: reg.counter("engine_evicted"),
            parks: reg.counter("engine_parks"),
            park_wakeups: reg.counter("engine_park_wakeups"),
            queue_depth: reg.gauge("engine_queue_depth"),
            scatter_ns: reg.histogram("engine_scatter_ns"),
            queue_wait_ns: reg.histogram("engine_queue_wait_ns"),
            check_ns: reg.histogram("engine_check_ns"),
            checker_checks: reg.counter("engine_checker_checks"),
            checker_fast_path: reg.counter("engine_checker_fast_path"),
            checker_splices: reg.counter("engine_checker_splices"),
            checker_dfs_runs: reg.counter("engine_checker_dfs_runs"),
            checker_dfs_nodes: reg.counter("engine_checker_dfs_nodes"),
            checker_latched: reg.counter("engine_checker_latched"),
            checker_unknown: reg.counter("engine_checker_unknown"),
            verdict_batches: reg.counter("engine_verdict_batches"),
            verdict_batch_events: reg.counter("engine_verdict_batch_events"),
            verdict_batch_len: reg.histogram("engine_verdict_batch_len"),
            verdict_flush_ns: reg.histogram("engine_verdict_flush_ns"),
            verdicts_dropped_closed: reg.counter("engine_verdicts_dropped_closed"),
        }
    }

    /// Folds what a claim left in `claim` into the registry and zeroes it.
    fn fold(&self, claim: &mut ClaimOutput) {
        let delta = std::mem::take(&mut claim.harvested);
        self.checker_checks.add(delta.checks);
        self.checker_fast_path.add(delta.fast_path);
        self.checker_splices.add(delta.splices);
        self.checker_dfs_runs.add(delta.dfs_runs);
        self.checker_dfs_nodes.add(delta.dfs_nodes);
        self.checker_latched.add(delta.latched);
        self.checker_unknown.add(delta.unknown);
        self.events.add(std::mem::take(&mut claim.events));
        self.runs.add(std::mem::take(&mut claim.runs));
        self.evicted.add(std::mem::take(&mut claim.evicted));
    }
}

#[derive(Default)]
struct ShardQueue {
    items: VecDeque<QueueItem>,
    /// `true` while the shard sits in some worker's deque or is being
    /// processed; guarantees at-most-one worker per shard (per-object FIFO).
    scheduled: bool,
    /// When the shard last entered a deque (set where `scheduled` flips to
    /// true and on a reschedule; `None` on a passive handle), taken by the
    /// claim that drains it.
    scheduled_at: Option<Instant>,
}

impl ShardQueue {
    /// Marks the shard scheduled, stamping when it became so; `true` when
    /// it was not scheduled before (the caller then hands it to a deque).
    fn schedule(&mut self, tel: &Telemetry) -> bool {
        if self.scheduled {
            return false;
        }
        self.scheduled = true;
        self.scheduled_at = tel.timer();
        true
    }
}

#[derive(Default)]
struct Shard {
    queue: Mutex<ShardQueue>,
    core: Mutex<ShardCore>,
}

struct Shared {
    factory: Arc<dyn ObjectMonitorFactory>,
    interner: SharedInterner,
    shards: Vec<Shard>,
    router: ShardRouter,
    /// Per-worker ready deques of shard indices.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// The park lock pairs epoch bumps with notifications; it protects no
    /// data of its own (the engine state lives in the atomics below).
    park: Mutex<()>,
    park_signal: Condvar,
    /// The lost-wakeup ticket: bumped by every work-publishing action
    /// *before* notifying under the park lock.  A worker reads it before
    /// scanning the deques and parks untimed while it is unchanged.
    work_epoch: AtomicU64,
    /// No further submissions: drain and exit.
    shutdown: AtomicBool,
    /// A worker panicked or the engine was dropped unfinished: exit
    /// immediately, even with events pending.
    aborted: AtomicBool,
    /// Work items submitted but not yet processed (events + eviction
    /// markers).
    pending: AtomicUsize,
    /// Producers blocked on the `max_pending` bound wait here, and so does
    /// [`MonitoringEngine::wait_drained`].
    gate: Mutex<()>,
    space_signal: Condvar,
    /// Capacity-notification hook: invoked (outside every lock) whenever
    /// pending work drains below the bound, the pool aborts, or backlog is
    /// reconciled — the same moments `space_signal` fires.  Lets an external
    /// event loop (the net reactor's parked-batch retry) sleep untimed on
    /// engine fullness instead of polling.  Set once via
    /// [`MonitoringEngine::set_capacity_hook`].
    capacity_hook: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// Open verdict subscription channels.
    subs: Mutex<Vec<Arc<SubscriptionShared>>>,
    /// The shared observability handle: the `engine_*` metrics live in its
    /// registry.  Constructed passive (counters only, no clock reads) unless
    /// the engine was built with [`MonitoringEngine::with_telemetry`].
    tel: Arc<Telemetry>,
    /// Registered handles onto `tel`'s registry (events, batches, steals,
    /// evicted, parks/park_wakeups, queue depth, latency histograms,
    /// checker counters) — the one source of truth for [`EngineStats`].
    m: EngineMetrics,
    /// The optional durability tap (see [`crate::journal`]): consulted on
    /// every accepted submission (write-ahead), after each processed run
    /// (checkpoint trigger) and on retirement (tombstone).  Unset until
    /// [`MonitoringEngine::attach_journal`] — in particular during journal
    /// replay, so recovery does not re-journal what it reads.
    journal: OnceLock<Journal>,
    panic: Mutex<Option<WorkerPanic>>,
    max_pending: usize,
}

/// Decrements `pending` by the drained batch size when dropped — on the
/// normal path *and* during unwinding, so a monitor that panics mid-batch
/// cannot leak backlog counts (the regression `finish` used to over-report
/// forever after a `WorkerPanic`).
///
/// `Shared::process` declares it *before* anything that can push a verdict
/// and lets it drop last, so the decrement follows every delivery of the
/// batch — the ordering [`MonitoringEngine::backlog`] documents.
struct PendingGuard<'a> {
    shared: &'a Shared,
    count: usize,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.count == 0 {
            return;
        }
        let drained_to_zero =
            self.shared.pending.fetch_sub(self.count, Ordering::AcqRel) == self.count;
        if drained_to_zero && self.shared.shutdown.load(Ordering::Acquire) {
            // The backlog just emptied under a shutdown: wake parked
            // workers so they observe the exit condition.
            self.shared.publish_work(true);
        }
        self.shared.notify_capacity();
    }
}

impl Shared {
    /// Publishes work: bumps the epoch ticket, then notifies under the park
    /// lock.  The bump-then-notify order against the workers'
    /// read-then-scan order is what rules lost wake-ups out (see the module
    /// docs).
    fn publish_work(&self, all: bool) {
        self.work_epoch.fetch_add(1, Ordering::SeqCst);
        let _park = self.park.lock();
        if all {
            self.park_signal.notify_all();
        } else {
            self.park_signal.notify_one();
        }
    }

    /// The one capacity-notification path: wakes producers blocked on the
    /// `max_pending` gate and drain waiters, then (outside the gate lock)
    /// invokes the registered capacity hook so external pollers re-check
    /// fullness.  An unbounded engine has no producers to wake, only drain
    /// waiters, and those care about one transition: to zero.
    fn notify_capacity(&self) {
        if self.max_pending != usize::MAX || self.pending.load(Ordering::Acquire) == 0 {
            let _gate = self.gate.lock();
            self.space_signal.notify_all();
        }
        if let Some(hook) = self.capacity_hook.get() {
            hook();
        }
    }

    /// Whether workers may still block on full subscriptions: only while
    /// live (blocking during shutdown/abort could deadlock `finish`).
    fn streaming(&self) -> bool {
        !self.shutdown.load(Ordering::Acquire) && !self.aborted.load(Ordering::Acquire)
    }

    /// Snapshot of the open subscription channels.
    fn subscribers(&self) -> Vec<Arc<SubscriptionShared>> {
        let subs = self.subs.lock();
        subs.iter().filter(|sub| sub.is_open()).cloned().collect()
    }

    /// Reserves `count` pending-work slots under the backpressure bound
    /// (all or nothing; backpressure is accounted in *events*, so a batch
    /// reserves its event count in one shot).
    fn try_reserve(&self, count: usize) -> Result<(), ()> {
        let mut current = self.pending.load(Ordering::Relaxed);
        loop {
            if current.saturating_add(count) > self.max_pending {
                return Err(());
            }
            match self.pending.compare_exchange_weak(
                current,
                current + count,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Pops a shard to work on: own deque first (front), then steal from
    /// the back of the other workers' deques.
    fn find_work(&self, worker: usize) -> Option<usize> {
        if let Some(shard) = self.deques[worker].lock().pop_front() {
            return Some(shard);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(shard) = self.deques[victim].lock().pop_back() {
                self.m.steals.inc();
                return Some(shard);
            }
        }
        None
    }

    /// Pushes `rows` into each subscription as one slice under one channel
    /// lock.  Rows are in processing order, so per-object `seq` order is
    /// preserved exactly.
    fn flush_delivery(&self, subs: &[Arc<SubscriptionShared>], rows: &[VerdictEvent]) {
        if rows.is_empty() {
            return;
        }
        self.m.verdict_batches.inc();
        self.m.verdict_batch_events.add(rows.len() as u64);
        self.m.verdict_batch_len.record(rows.len() as u64);
        let started = self.tel.timer();
        for sub in subs {
            sub.push_events(rows, &|| self.streaming());
        }
        self.tel.observe(started, &self.m.verdict_flush_ns);
    }

    /// Claims the shard's whole queue into `drained` and feeds it to the
    /// shard's core, which delivers verdict rows as chunks fill.  Then the
    /// claim's counters are folded, its last rows flushed, and only then do
    /// its items leave `pending`: whoever reads `backlog() == 0` reads every
    /// counter and can poll every verdict of the work that emptied it.
    fn process(
        &self,
        shard_index: usize,
        worker: usize,
        drained: &mut VecDeque<QueueItem>,
        claim: &mut ClaimOutput,
    ) {
        let shard = &self.shards[shard_index];
        // Swap, not copy: the queue lock is held for O(1), and both buffers
        // keep their capacity.
        let scheduled_at = {
            let mut queue = shard.queue.lock();
            std::mem::swap(&mut queue.items, drained);
            queue.scheduled_at.take()
        };
        // From here the drained items leave `pending` when the guard drops,
        // unwinding included.
        let _pending = PendingGuard {
            shared: self,
            count: drained.len(),
        };
        if !drained.is_empty() {
            self.tel.observe(scheduled_at, &self.m.queue_wait_ns);
            self.m.batches.inc();
            self.m.queue_depth.sub(drained.len() as i64);
            let subs = self.subscribers();
            let deliver = |rows: &[VerdictEvent]| self.flush_delivery(&subs, rows);
            let feed = Feed {
                factory: self.factory.as_ref(),
                arena: &self.interner,
                sink: self.journal.get().map(|journal| journal.sink.as_ref()),
                start_check: &|| self.tel.timer(),
                end_check: &|started| self.tel.observe(Some(started), &self.m.check_ns),
                deliver: if subs.is_empty() {
                    None
                } else {
                    Some(&deliver)
                },
            };
            shard
                .core
                .lock()
                .feed(drained.make_contiguous(), &feed, claim);
            self.m.fold(claim);
            self.flush_delivery(&subs, &claim.rows);
            claim.rows.clear();
        }
        drained.clear();
        // Reschedule or release the claim.
        let reschedule = {
            let mut queue = shard.queue.lock();
            if queue.items.is_empty() {
                queue.scheduled = false;
                false
            } else {
                queue.scheduled_at = self.tel.timer();
                true
            }
        };
        if reschedule {
            // Back of the *own* deque, as `push_home` queues a newly
            // scheduled shard: shards already waiting there go first, and
            // peers can still steal this one.
            self.deques[worker].lock().push_back(shard_index);
            self.publish_work(false);
        }
    }

    /// Kills the pool without draining: queued work is dropped *and
    /// reconciled out of `pending`* (so `backlog` converges to the truth
    /// instead of over-reporting forever), and everyone who could be
    /// blocked — parked workers, bounded producers, subscription writers —
    /// is woken to observe the abort.
    fn request_abort(&self) {
        self.aborted.store(true, Ordering::Release);
        let mut cleared = 0usize;
        for shard in &self.shards {
            let mut queue = shard.queue.lock();
            cleared += queue.items.len();
            queue.items.clear();
        }
        if cleared > 0 {
            self.pending.fetch_sub(cleared, Ordering::AcqRel);
            self.m.queue_depth.sub(cleared as i64);
        }
        self.publish_work(true);
        self.notify_capacity();
        // No verdict will ever be pushed again: close the channels (queued
        // events stay drainable), freeing blocked writers *and* consumers
        // looping until is_closed().
        for sub in self.subscribers() {
            sub.close();
        }
    }

    fn abort(&self, panic: WorkerPanic) {
        self.panic.lock().get_or_insert(panic);
        self.request_abort();
    }

    /// Closes the check-then-act window between a producer's `aborted`
    /// check and its enqueue: an item slipped in *after* `request_abort`
    /// drained the queues would sit there uncounted forever, freezing
    /// `backlog()` above zero.  Re-clearing the shard after the enqueue is
    /// idempotent (the queue lock serializes both clears; every item is
    /// removed — and decremented — exactly once).
    fn reconcile_if_aborted(&self, shard_index: usize) {
        if !self.aborted.load(Ordering::Acquire) {
            return;
        }
        let cleared = {
            let mut queue = self.shards[shard_index].queue.lock();
            let cleared = queue.items.len();
            queue.items.clear();
            cleared
        };
        if cleared > 0 {
            self.pending.fetch_sub(cleared, Ordering::AcqRel);
            self.m.queue_depth.sub(cleared as i64);
            self.notify_capacity();
        }
    }

    /// [`EngineStats`] as a view over the telemetry registry — the
    /// counters live in [`Shared::m`], nowhere else.
    fn stats_snapshot(&self, config: EngineConfig) -> EngineStats {
        EngineStats {
            workers: config.workers,
            shards: config.shards(),
            events: self.m.events.get(),
            batches: self.m.batches.get(),
            steals: self.m.steals.get(),
            evicted: self.m.evicted.get(),
            park_wakeups: self.m.park_wakeups.get(),
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let (mut drained, mut claim) = (VecDeque::new(), ClaimOutput::default());
    loop {
        // Checked between batches too, not just when idle: an abort (worker
        // panic, engine dropped unfinished) must not wait for the backlog
        // to drain, and a shutdown with an empty backlog is done.
        if shared.aborted.load(Ordering::Acquire)
            || (shared.shutdown.load(Ordering::Acquire)
                && shared.pending.load(Ordering::Acquire) == 0)
        {
            return;
        }
        // The ticket read comes BEFORE the deque scan: work published after
        // this point bumps the epoch, which the park predicate re-checks —
        // so the untimed wait below cannot sleep through a submission that
        // raced the scan.
        let seen = shared.work_epoch.load(Ordering::SeqCst);
        if let Some(shard) = shared.find_work(worker) {
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| {
                shared.process(shard, worker, &mut drained, &mut claim);
            })) {
                shared.abort(WorkerPanic {
                    object: claim.object,
                    ..WorkerPanic::from_payload("engine worker", worker, payload)
                });
                return;
            }
            continue;
        }
        shared.m.parks.inc();
        let mut park = shared.park.lock();
        shared.park_signal.wait_while(&mut park, |()| {
            shared.work_epoch.load(Ordering::SeqCst) == seen
                && !shared.aborted.load(Ordering::Acquire)
                && !(shared.shutdown.load(Ordering::Acquire)
                    && shared.pending.load(Ordering::Acquire) == 0)
        });
        drop(park);
        shared.m.park_wakeups.inc();
    }
}

/// A long-lived, sharded, multi-object streaming monitoring engine.
///
/// Feed it interleaved traffic with [`MonitoringEngine::submit_batch`]
/// (blocking under backpressure) or [`MonitoringEngine::try_submit_frame`];
/// consume verdicts live through [`MonitoringEngine::subscribe`]; retire
/// quiesced objects with [`MonitoringEngine::evict`]; and collect the
/// aggregate report with [`MonitoringEngine::finish`].
///
/// ```
/// use drv_consistency::CheckerMonitorFactory;
/// use drv_engine::{EngineConfig, MonitoringEngine};
/// use drv_lang::{Invocation, ObjectId, ProcId, Response, Symbol};
/// use drv_spec::Register;
/// use std::sync::Arc;
///
/// let engine = MonitoringEngine::new(
///     EngineConfig::new(2),
///     Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
/// );
/// for object in 0..10 {
///     engine.submit(ObjectId(object), &Symbol::invoke(ProcId(0), Invocation::Write(1)));
///     engine.submit(ObjectId(object), &Symbol::respond(ProcId(0), Response::Ack));
/// }
/// let report = engine.finish().expect("no worker panicked");
/// assert_eq!(report.aggregate().yes, 10);
/// ```
pub struct MonitoringEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    config: EngineConfig,
}

impl MonitoringEngine {
    /// Spawns the worker pool; `factory` creates one [`ObjectMonitor`] per
    /// object on first sight of its traffic.
    #[must_use]
    pub fn new(config: EngineConfig, factory: Arc<dyn ObjectMonitorFactory>) -> Self {
        Self::with_telemetry(config, factory, Telemetry::passive())
    }

    /// [`MonitoringEngine::new`] sharing an explicit [`Telemetry`] handle:
    /// the engine registers its `engine_*` metrics into `telemetry`'s
    /// registry.  Pass a [`Telemetry::new`] handle to turn latency sampling
    /// on; [`MonitoringEngine::new`] uses a passive handle (counters only —
    /// no wall-clock reads on the hot path).
    #[must_use]
    pub fn with_telemetry(
        config: EngineConfig,
        factory: Arc<dyn ObjectMonitorFactory>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Self::with_recovered(
            config,
            factory,
            Vec::new(),
            SharedInterner::new(),
            telemetry,
        )
    }

    /// [`MonitoringEngine::with_telemetry`], seeded with recovered
    /// per-object state — the constructor a durable store uses after a
    /// crash (sharing its handle, so engine, server and store report into
    /// one registry).  Each seed installs its restored monitor with the
    /// checkpointed verdict prefix pre-filled; the caller then submits only
    /// the seed's events after its checkpoint, whose verdicts carry their
    /// original `seq` numbers, so the final report is identical to an
    /// uninterrupted run.  `interner` becomes the engine's arena: the seeds'
    /// monitors were created on it, and the replay interned into it.  Seeds
    /// are installed before the workers spawn; no journal sink is attached
    /// yet (attach one *after* replay with
    /// [`MonitoringEngine::attach_journal`]).
    #[must_use]
    pub fn with_recovered(
        config: EngineConfig,
        factory: Arc<dyn ObjectMonitorFactory>,
        seeds: Vec<RecoveredObject>,
        interner: SharedInterner,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let metrics = EngineMetrics::register(&telemetry);
        // The pool's shape, for readers that see only the registry (the
        // Stats frame): added once, so engines sharing a registry sum.
        let reg = telemetry.registry();
        reg.gauge("engine_workers").add(config.workers as i64);
        reg.gauge("engine_shards").add(config.shards() as i64);
        let shared = Arc::new(Shared {
            factory,
            interner,
            shards: (0..config.shards()).map(|_| Shard::default()).collect(),
            router: ShardRouter::new(config.shards()),
            deques: (0..config.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            park: Mutex::new(()),
            park_signal: Condvar::new(),
            work_epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            gate: Mutex::new(()),
            space_signal: Condvar::new(),
            capacity_hook: OnceLock::new(),
            subs: Mutex::new(Vec::new()),
            tel: telemetry,
            m: metrics,
            journal: OnceLock::new(),
            panic: Mutex::new(None),
            max_pending: config.max_pending,
        });
        for seed in seeds {
            let shard_index = shared.router.shard_of(seed.object);
            shared.shards[shard_index].core.lock().seed(seed);
        }
        let handles = (0..config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("drv-engine-worker-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawning an engine worker")
            })
            .collect();
        MonitoringEngine {
            shared,
            handles,
            config,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Hands a newly scheduled shard to its home worker's deque (peers can
    /// still steal it from the back).
    fn push_home(&self, shard_index: usize) {
        let home = shard_index % self.config.workers;
        self.shared.deques[home].lock().push_back(shard_index);
    }

    /// Appends `items` to one shard's queue and, if that scheduled the
    /// shard, hands it to its home worker and publishes: only a newly
    /// scheduled shard is work a parked worker could miss.
    fn enqueue(&self, shard_index: usize, items: impl IntoIterator<Item = QueueItem>) {
        let newly_scheduled = {
            let mut queue = self.shared.shards[shard_index].queue.lock();
            queue.items.extend(items);
            queue.schedule(&self.shared.tel)
        };
        if newly_scheduled {
            self.push_home(shard_index);
            self.shared.publish_work(false);
        }
        self.shared.reconcile_if_aborted(shard_index);
    }

    /// Ingests one symbol of `object`'s stream: a batch of one through
    /// [`MonitoringEngine::submit_batch`], with that method's ordering,
    /// backpressure and after-a-panic behaviour (the event is discarded
    /// before it is interned or journaled).
    pub fn submit(&self, object: ObjectId, symbol: &Symbol) {
        if self.shared.aborted.load(Ordering::Acquire) {
            return;
        }
        let mut batch = EventBatch::with_capacity(1);
        batch.push_symbol(object, symbol, self.interner());
        self.submit_batch(&batch);
    }

    /// Blocks until `count` pending-work slots are reserved (or the engine
    /// aborts — returns `false` then, and nothing was reserved).
    fn reserve_blocking(&self, count: usize) -> bool {
        while self.shared.try_reserve(count).is_err() {
            let mut gate = self.shared.gate.lock();
            self.shared.space_signal.wait_while(&mut gate, |()| {
                self.shared
                    .pending
                    .load(Ordering::Acquire)
                    .saturating_add(count)
                    > self.shared.max_pending
                    && !self.shared.aborted.load(Ordering::Acquire)
            });
            drop(gate);
            if self.shared.aborted.load(Ordering::Acquire) {
                return false;
            }
        }
        true
    }

    /// The engine's payload arena, on which every monitor is created:
    /// batches submitted through [`MonitoringEngine::submit_batch`] /
    /// [`MonitoringEngine::try_submit_frame`] must intern their payloads
    /// here (e.g. via [`EventBatch::push_symbol`] or by decoding a frame
    /// into it).
    #[must_use]
    pub fn interner(&self) -> &SharedInterner {
        &self.shared.interner
    }

    /// Ingests a whole [`EventBatch`] in one routing pass: the batch is
    /// scattered across the shards as per-shard runs (one queue lock per
    /// touched shard), backpressure is reserved in *events* up front, and
    /// the worker pool is published to once per batch — one `work_epoch`
    /// bump and one notify instead of one per event.  Symbols of one object
    /// are processed in submission order; distinct objects are independent.
    ///
    /// With a [`EngineConfig::with_max_pending`] bound, blocks until the
    /// backlog has room; a batch larger than the bound is ingested in
    /// bound-sized chunks (each chunk its own routing pass).  After a worker
    /// panic the batch is discarded (see [`MonitoringEngine::take_panic`]).
    /// An attached journal first appends the whole batch as one batch frame,
    /// encoded here under the journal's next batch id.
    pub fn submit_batch(&self, batch: &EventBatch) {
        if batch.is_empty() || self.shared.aborted.load(Ordering::Acquire) {
            return;
        }
        if let Some(journal) = self.shared.journal.get() {
            // One write-ahead append for the whole batch.  The blocking
            // path below cannot refuse it (it only stops early on abort, in
            // which case an over-complete journal merely replays events the
            // dead pool dropped).
            journal.append(batch, &self.shared.interner);
        }
        let mut start = 0;
        while start < batch.len() {
            let chunk = (batch.len() - start).min(self.shared.max_pending);
            if !self.reserve_blocking(chunk) {
                return;
            }
            self.enqueue_batch_range(batch, start, start + chunk);
            start += chunk;
        }
    }

    /// Non-blocking [`MonitoringEngine::submit_batch`] for a batch decoded
    /// from a frame: `frame` is the sealed batch frame `batch` was decoded
    /// from (into this engine's arena), and an attached journal appends
    /// those bytes as they are ([`JournalSink::append_frame`]) instead of
    /// encoding the batch again.  All or nothing — on success the whole
    /// batch is enqueued (one routing pass, one publish); on
    /// [`SubmitError::Full`] nothing was, and nothing was journaled.  A
    /// batch larger than the [`EngineConfig::with_max_pending`] bound can
    /// therefore never be accepted — keep producer batches at or below the
    /// bound.  The server's reactor is its caller.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the backlog cannot absorb the whole batch
    /// right now; [`SubmitError::Aborted`] once a worker has panicked.
    pub fn try_submit_frame(&self, batch: &EventBatch, frame: &[u8]) -> Result<(), SubmitError> {
        if self.shared.aborted.load(Ordering::Acquire) {
            return Err(SubmitError::Aborted);
        }
        if batch.is_empty() {
            return Ok(());
        }
        if self.shared.try_reserve(batch.len()).is_err() {
            return Err(SubmitError::Full);
        }
        if let Some(journal) = self.shared.journal.get() {
            // Write-ahead, after the all-or-nothing reservation: a refused
            // batch leaves no trace in the journal.
            journal.sink.append_frame(frame);
        }
        self.enqueue_batch_range(batch, 0, batch.len());
        Ok(())
    }

    /// One routing pass over `batch[start..end]`: one shard decision per
    /// *run* of consecutive same-object events ([`EventBatch::runs_between`]
    /// — a run never straddles shards), a stable counting sort of the runs
    /// into per-shard segments (flat index buffers, no per-shard buckets),
    /// then one queue lock per touched shard and a single epoch-bump/notify
    /// for the whole batch.  Runs of one object keep their batch order
    /// within their shard segment, so per-object FIFO holds.
    fn enqueue_batch_range(&self, batch: &EventBatch, start: usize, end: usize) {
        let scatter_started = self.shared.tel.timer();
        self.shared.m.queue_depth.add((end - start) as i64);
        let (shard_count, router) = (self.shared.shards.len(), self.shared.router);
        let runs: Vec<(usize, std::ops::Range<usize>)> = batch
            .runs_between(start, end)
            .map(|(object, range)| (router.shard_of(object), range))
            .collect();
        if let [(shard_index, range)] = &runs[..] {
            // Single-run batch (a one-event or single-object submission):
            // no scatter plan needed.
            self.enqueue(
                *shard_index,
                range
                    .clone()
                    .map(|index| QueueItem::Event(batch.get(index))),
            );
            self.shared
                .tel
                .observe(scatter_started, &self.shared.m.scatter_ns);
            return;
        }
        // Stable counting sort: `ordered[segment of shard s]` holds the
        // indices of s's runs, in batch order.
        let mut counts = vec![0u32; shard_count];
        for (shard_index, _) in &runs {
            counts[*shard_index] += 1;
        }
        let mut cursors = Vec::with_capacity(shard_count);
        let mut total = 0u32;
        for &count in &counts {
            cursors.push(total);
            total += count;
        }
        let mut ordered = vec![0u32; runs.len()];
        for (run_index, (shard_index, _)) in runs.iter().enumerate() {
            ordered[cursors[*shard_index] as usize] =
                u32::try_from(run_index).expect("< 2^32 runs");
            cursors[*shard_index] += 1;
        }
        let mut newly_scheduled = Vec::new();
        let mut offset = 0usize;
        for (shard_index, &count) in counts.iter().enumerate() {
            let segment = &ordered[offset..offset + count as usize];
            offset += count as usize;
            if segment.is_empty() {
                continue;
            }
            let mut queue = self.shared.shards[shard_index].queue.lock();
            for &run_index in segment {
                for index in runs[run_index as usize].1.clone() {
                    queue.items.push_back(QueueItem::Event(batch.get(index)));
                }
            }
            if queue.schedule(&self.shared.tel) {
                newly_scheduled.push(shard_index);
            }
        }
        for &shard_index in &newly_scheduled {
            self.push_home(shard_index);
        }
        if !newly_scheduled.is_empty() {
            // One bump-then-notify for the whole batch; notify_all only when
            // several shards went live at once (one worker per new shard).
            self.shared.publish_work(newly_scheduled.len() > 1);
        }
        for (shard_index, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.shared.reconcile_if_aborted(shard_index);
            }
        }
        self.shared
            .tel
            .observe(scatter_started, &self.shared.m.scatter_ns);
    }

    /// The rolling-batch producer loop, packaged: interns `events` into
    /// [`EventBatch`]es of `batch_size` against this engine's arena and
    /// [`MonitoringEngine::submit_batch`]s each — the idiom every batched
    /// producer would otherwise hand-roll.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn submit_stream(&self, events: &[(ObjectId, Symbol)], batch_size: usize) {
        assert!(batch_size > 0, "a batch must cover at least one event");
        let mut batch = EventBatch::with_capacity(batch_size.min(events.len()));
        for (object, symbol) in events {
            if self.shared.aborted.load(Ordering::Acquire) {
                // Like the other submit entry points: stop interning into
                // the (append-only) arena once the pool is dead.
                return;
            }
            batch.push_symbol(*object, symbol, self.interner());
            if batch.len() == batch_size {
                self.submit_batch(&batch);
                batch.clear();
            }
        }
        self.submit_batch(&batch);
    }

    /// Retires `object`'s monitor *after* everything submitted for it so
    /// far (the marker queues FIFO behind the object's events): the monitor
    /// and its checker history are dropped, and the object's verdict stream
    /// stays in its slot for the final report.  The marker adds no verdict.
    /// A no-op for unknown (or already retired) objects; later traffic for
    /// the object starts a fresh monitor whose verdicts continue the stream
    /// (and its `seq` numbers).
    ///
    /// Eviction markers bypass the `max_pending` bound — evicting *frees*
    /// state, so it must not be throttled by a full queue.
    pub fn evict(&self, object: ObjectId) {
        if self.shared.aborted.load(Ordering::Acquire) {
            return;
        }
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.m.queue_depth.add(1);
        self.enqueue(
            self.shared.router.shard_of(object),
            [QueueItem::Evict(object)],
        );
    }

    /// Attaches a durability tap (see [`crate::journal`] for the contract):
    /// from now on every accepted submission is journaled write-ahead,
    /// monitors are checkpointed every
    /// [`JournalSink::checkpoint_interval`] fed events, and retirements
    /// write tombstones.  Attach only once a journal replayed into a
    /// [`MonitoringEngine::with_recovered`] engine has drained, so recovery
    /// does not re-append what it reads (a replayed eviction would journal
    /// a second tombstone).
    ///
    /// # Panics
    ///
    /// Panics if a journal is already attached: an engine has one journal
    /// for its life, so batch ids count up in one file.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink>) {
        assert!(
            self.shared.journal.set(Journal::new(sink)).is_ok(),
            "attach_journal: this engine already has a journal"
        );
    }

    /// Opens a bounded verdict channel (capacity clamped to ≥ 1): every
    /// verdict decided from now on is delivered as a
    /// [`VerdictEvent`] — per-object in `seq` order.  See
    /// [`crate::service`] for the backpressure semantics.
    #[must_use]
    pub fn subscribe(&self, capacity: usize) -> VerdictSubscription {
        let shared = SubscriptionShared::new(
            capacity.max(1),
            self.shared.m.verdicts_dropped_closed.clone(),
        );
        let mut subs = self.shared.subs.lock();
        subs.retain(|sub| sub.is_open());
        subs.push(Arc::clone(&shared));
        VerdictSubscription::new(shared)
    }

    /// Registers a capacity-notification hook, invoked (outside the
    /// engine's locks) every time pending work drains below the
    /// `max_pending` bound, the pool aborts, or an aborted shard's backlog
    /// is reconciled — exactly when a `SubmitError::Full` retry could
    /// succeed or becomes pointless.  An external event loop parks a
    /// rejected batch and sleeps untimed; this hook replaces its retry
    /// polling.  The hook must be cheap and non-blocking (it runs on worker
    /// threads); it can only be set once — later calls return `false`.
    pub fn set_capacity_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) -> bool {
        self.shared.capacity_hook.set(hook).is_ok()
    }

    /// Work items submitted but not yet processed (racy by nature; exact
    /// only when quiescent).  Reconciled on abort: after a worker panic it
    /// converges to zero instead of freezing at the pre-panic backlog.
    ///
    /// **Verdict delivery precedes the decrement.**  A processed item leaves
    /// the count only after every verdict it produced is in every open
    /// subscription (the worker's `PendingGuard` drops after
    /// `flush_delivery`).  So a thread that reads `backlog() == 0` and then
    /// finds [`VerdictSubscription::poll_batch`] empty knows that nothing
    /// arrives until the next submission.  `drv-net`'s router ends its
    /// coalescing window on exactly that observation; reordering the two
    /// would not lose a verdict, it would silently split frames.
    /// (`tests/service.rs::zero_backlog_means_every_verdict_is_pollable`
    /// pins it.)
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Blocks until [`MonitoringEngine::backlog`] is zero: everything
    /// submitted so far is processed (or, after a worker panic, reconciled
    /// away).  Untimed — it sleeps on the signal every drained batch fires.
    pub fn wait_drained(&self) {
        let mut gate = self.shared.gate.lock();
        self.shared.space_signal.wait_while(&mut gate, |()| {
            self.shared.pending.load(Ordering::Acquire) > 0
        });
    }

    /// Whether the pool is dead (a worker panicked).  Submissions are
    /// discarded from then on; [`MonitoringEngine::take_panic`] or
    /// [`MonitoringEngine::finish`] report the cause.
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        self.shared.aborted.load(Ordering::Acquire)
    }

    /// Claims the panic of the first worker that died, if any — the
    /// service-mode way to observe failure *without* consuming the engine.
    /// Claiming transfers ownership: a subsequent
    /// [`MonitoringEngine::finish`] returns the partial report instead of
    /// the error, and drop no longer logs it.
    #[must_use]
    pub fn take_panic(&self) -> Option<WorkerPanic> {
        self.shared.panic.lock().take()
    }

    /// A live snapshot of the pool's operational counters (exact only when
    /// quiescent) — a view over the shared [`Telemetry`] registry, where
    /// the same counters appear under their `engine_*` names.
    #[must_use]
    pub fn live_stats(&self) -> EngineStats {
        self.shared.stats_snapshot(self.config)
    }

    /// The engine's observability handle: its registry carries the
    /// `engine_*` metrics (and whatever other layers registered into it).
    /// Share it with a `MonitorServer` and a `Store` so the whole pipeline
    /// reports into one registry.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.tel
    }

    /// Signals end-of-stream, drains every queue, joins the pool, and
    /// returns the report — or the [`WorkerPanic`] of the first worker that
    /// died (remaining workers are joined either way).  Open subscriptions
    /// are closed after the last verdict is delivered, so consumers
    /// observe [`VerdictSubscription::is_closed`] and terminate.
    ///
    /// # Errors
    ///
    /// Returns the panic of the lowest-indexed worker that panicked while
    /// processing a batch — unless it was already claimed via
    /// [`MonitoringEngine::take_panic`], in which case the (partial) report
    /// is returned.
    pub fn finish(mut self) -> Result<EngineReport, WorkerPanic> {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.publish_work(true);
        // Writers blocked on a full subscription must stop blocking now:
        // nobody is obliged to drain a channel after requesting shutdown,
        // and the join below would deadlock on them.
        for sub in self.shared.subscribers() {
            sub.wake_all();
        }
        let mut first_panic: Option<WorkerPanic> = None;
        for (worker, handle) in self.handles.drain(..).enumerate() {
            if let Err(payload) = handle.join() {
                // A panic that escaped the catch_unwind in the worker loop
                // (i.e. an engine bug, not a monitor panic).
                let panic = WorkerPanic::from_payload("engine worker", worker, payload);
                first_panic.get_or_insert(panic);
            }
        }
        let claimed = self.shared.panic.lock().take();
        if let Some(panic) = claimed.or(first_panic) {
            // The error path must close the channels too, or a consumer
            // looping on is_closed() waits forever on a dead engine.
            for sub in self.shared.subscribers() {
                sub.close();
            }
            return Err(panic);
        }
        let mut objects = BTreeMap::new();
        for shard in &self.shared.shards {
            objects.extend(shard.core.lock().drain_reports());
        }
        for sub in self.shared.subscribers() {
            sub.close();
        }
        Ok(EngineReport {
            objects,
            stats: self.shared.stats_snapshot(self.config),
        })
    }
}

impl Drop for MonitoringEngine {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Dropped without finish(): abort instead of draining, so the pool
        // never outlives the handle.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.request_abort();
        for (worker, handle) in self.handles.drain(..).enumerate() {
            if let Err(payload) = handle.join() {
                // Escaped the worker's catch_unwind (an engine bug): keep
                // it, like finish() does, instead of discarding it.
                self.shared
                    .panic
                    .lock()
                    .get_or_insert(WorkerPanic::from_payload("engine worker", worker, payload));
            }
        }
        if let Some(panic) = self.shared.panic.lock().take() {
            // Unclaimed at drop: the last chance to make the failure
            // visible at all.
            eprintln!(
                "drv-engine: worker panic unclaimed at drop \
                 (observe it with finish() or take_panic()): {panic}"
            );
        }
        for sub in self.shared.subscribers() {
            sub.close();
        }
    }
}

/// The single-threaded reference the engine is measured (and differentially
/// tested) against: every object's stream fed, in the same submission order,
/// to a monitor from the same factory, inline on the calling thread.
#[must_use]
pub fn sequential_reference(
    factory: &dyn ObjectMonitorFactory,
    events: &[(ObjectId, Symbol)],
) -> BTreeMap<ObjectId, Vec<Verdict>> {
    let mut monitors: HashMap<ObjectId, Box<dyn ObjectMonitor>> = HashMap::new();
    let mut verdicts: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
    for (object, symbol) in events {
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

#[cfg(test)]
mod tests {
    use super::*;
    use drv_core::CheckerMonitorFactory;
    use drv_lang::frame::FrameEncoder;
    use drv_lang::{Invocation, ProcId, Response};
    use drv_spec::Register;
    use std::borrow::Cow;

    fn factory() -> Arc<CheckerMonitorFactory<Register>> {
        Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2))
    }

    /// The batch frame `batch` (interned into `engine`'s arena) arrives in.
    fn frame_of(engine: &MonitoringEngine, batch: &EventBatch) -> Vec<u8> {
        FrameEncoder::new().encode_batch(0, batch, engine.interner())
    }

    fn clean_stream(object: u64) -> Vec<(ObjectId, Symbol)> {
        let object = ObjectId(object);
        vec![
            (object, Symbol::invoke(ProcId(0), Invocation::Write(7))),
            (object, Symbol::respond(ProcId(0), Response::Ack)),
            (object, Symbol::invoke(ProcId(1), Invocation::Read)),
            (object, Symbol::respond(ProcId(1), Response::Value(7))),
        ]
    }

    #[test]
    fn config_clamps_and_overrides() {
        let config = EngineConfig::new(0);
        assert_eq!(config.workers(), 1);
        assert_eq!(config.shards(), 4);
        assert_eq!(config.max_pending(), usize::MAX);
        let config = EngineConfig::new(4).with_max_pending(0);
        assert_eq!(config.shards(), 16, "four shards per worker");
        assert_eq!(config.max_pending(), 1, "max_pending clamps to ≥ 1");
    }

    #[test]
    fn shard_router_is_stable_and_in_range() {
        for shards in [1, 3, 8] {
            let router = ShardRouter::new(shards);
            for object in 0..64 {
                let shard = router.shard_of(ObjectId(object));
                assert!(shard < shards);
                assert_eq!(shard, router.shard_of(ObjectId(object)));
            }
        }
        // The router actually spreads objects around.
        let router = ShardRouter::new(8);
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|o| router.shard_of(ObjectId(o))).collect();
        assert!(hit.len() >= 4, "{hit:?}");
    }

    /// The divide-free remainder is `hash % shards` for every shard count
    /// from 4 to 64: on 100 000 seeded hashes, 0, `u64::MAX` and multiples
    /// of the count.
    #[test]
    fn the_shard_remainder_without_a_divide_is_the_remainder() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let seeded: Vec<u64> = (0..100_000)
            .map(|_| {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_f491_4f6c_dd1d)
            })
            .collect();
        for shards in 4..=64u64 {
            let router = ShardRouter::new(shards as usize);
            let multiples = [1, 2, 3, u64::MAX / shards - 1, u64::MAX / shards]
                .into_iter()
                .map(|k| k * shards)
                .flat_map(|multiple| [multiple - 1, multiple, multiple.saturating_add(1)]);
            let edges = [0, 1, u64::MAX - 1, u64::MAX].into_iter().chain(multiples);
            for hash in seeded.iter().copied().chain(edges) {
                assert_eq!(router.remainder(hash), hash % shards, "{hash} % {shards}");
            }
        }
    }

    /// `deep-history`'s objects 0, 1, 1 000 000 and 1 000 001 land on
    /// shards 1, 0, 0 and 1 of a one-worker engine: the layout that sets
    /// that workload's claim sizes.
    #[test]
    fn deep_history_objects_keep_their_shards() {
        let router = ShardRouter::new(EngineConfig::new(1).shards());
        let shards: Vec<usize> = [0, 1, 1_000_000, 1_000_001]
            .map(|object| router.shard_of(ObjectId(object)))
            .into();
        assert_eq!(shards, [1, 0, 0, 1]);
    }

    #[test]
    fn engine_monitors_many_objects_and_aggregates() {
        let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
        for object in 0..32 {
            for (id, symbol) in clean_stream(object) {
                engine.submit(id, &symbol);
            }
        }
        // One bad object: a stale read.
        let bad = ObjectId(99);
        engine.submit(bad, &Symbol::invoke(ProcId(0), Invocation::Write(1)));
        engine.submit(bad, &Symbol::respond(ProcId(0), Response::Ack));
        engine.submit(bad, &Symbol::invoke(ProcId(1), Invocation::Read));
        engine.submit(bad, &Symbol::respond(ProcId(1), Response::Value(0)));
        let report = engine.finish().expect("no panics");
        assert_eq!(report.objects.len(), 33);
        assert_eq!(report.stats.events, 33 * 4);
        let aggregate = report.aggregate();
        assert_eq!(aggregate.overall, Verdict::No);
        assert_eq!((aggregate.yes, aggregate.no), (32, 1));
        assert_eq!(report.verdicts(bad).unwrap().last(), Some(&Verdict::No));
        // Per-object streams have one verdict per submitted symbol.
        assert!(report.objects.values().all(|r| r.verdicts.len() == 4));
    }

    #[test]
    fn engine_report_matches_sequential_reference() {
        // Round-robin interleave the 8 object streams step by step.
        let mut events = Vec::new();
        for step in 0..4 {
            for object in 0..8 {
                events.push(clean_stream(object)[step].clone());
            }
        }
        let expected = sequential_reference(factory().as_ref(), &events);
        for workers in [1, 3] {
            let engine = MonitoringEngine::new(EngineConfig::new(workers), factory());
            for (object, symbol) in &events {
                engine.submit(*object, symbol);
            }
            let report = engine.finish().expect("no panics");
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "{workers} workers, {object}"
                );
            }
        }
    }

    #[test]
    fn batched_submission_matches_the_reference_at_every_batch_size() {
        // The same round-robin interleaved stream as the reference test,
        // ingested through EventBatches of several sizes (including sizes
        // that split object runs mid-way): verdict streams must be
        // bit-identical to the reference at every batch size.
        let mut events = Vec::new();
        for step in 0..4 {
            for object in 0..8 {
                events.push(clean_stream(object)[step].clone());
            }
        }
        let expected = sequential_reference(factory().as_ref(), &events);
        for batch_size in [1, 3, 16, 256] {
            let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
            let mut batch = EventBatch::with_capacity(batch_size);
            for (object, symbol) in &events {
                batch.push_symbol(*object, symbol, engine.interner());
                if batch.len() == batch_size {
                    engine.submit_batch(&batch);
                    batch.clear();
                }
            }
            engine.submit_batch(&batch);
            let report = engine.finish().expect("no panics");
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "batch size {batch_size}, {object}"
                );
            }
        }
    }

    #[test]
    fn submit_batch_chunks_through_a_small_bound() {
        // A batch bigger than max_pending must still go through (in
        // bound-sized chunks), and everything must be checked.
        let engine = MonitoringEngine::new(EngineConfig::new(1).with_max_pending(3), factory());
        let mut batch = EventBatch::new();
        for _ in 0..50 {
            for (object, symbol) in clean_stream(4) {
                batch.push_symbol(object, &symbol, engine.interner());
            }
        }
        engine.submit_batch(&batch);
        let report = engine.finish().expect("no panics");
        assert_eq!(report.stats.events, 200);
        assert_eq!(
            report.verdicts(ObjectId(4)).unwrap().last(),
            Some(&Verdict::Yes)
        );
    }

    #[test]
    fn try_submit_frame_is_all_or_nothing() {
        let engine = MonitoringEngine::new(EngineConfig::new(1).with_max_pending(4), factory());
        let mut oversized = EventBatch::new();
        for _ in 0..2 {
            for (object, symbol) in clean_stream(7) {
                oversized.push_symbol(object, &symbol, engine.interner());
            }
        }
        // 8 events can never fit a bound of 4: rejected atomically, nothing
        // enqueued.
        assert_eq!(
            engine.try_submit_frame(&oversized, &frame_of(&engine, &oversized)),
            Err(SubmitError::Full)
        );
        assert_eq!(engine.backlog(), 0);
        // A bound-sized batch is eventually accepted whole.
        let mut fitting = EventBatch::new();
        for (object, symbol) in clean_stream(7) {
            fitting.push_symbol(object, &symbol, engine.interner());
        }
        let frame = frame_of(&engine, &fitting);
        let mut rejections = 0u64;
        for _ in 0..50 {
            while let Err(error) = engine.try_submit_frame(&fitting, &frame) {
                assert_eq!(error, SubmitError::Full);
                rejections += 1;
                std::thread::yield_now();
            }
        }
        let report = engine.finish().expect("no panics");
        assert_eq!(report.stats.events, 200);
        assert!(rejections > 0, "a bound of 4 must reject at least once");
        assert_eq!(
            report.verdicts(ObjectId(7)).unwrap().last(),
            Some(&Verdict::Yes)
        );
    }

    #[test]
    fn bounded_try_submit_rejects_then_recovers() {
        // One worker, tiny bound: the producer must see Full at least once,
        // and everything accepted must still be checked.
        let engine = MonitoringEngine::new(EngineConfig::new(1).with_max_pending(2), factory());
        let mut rejected = 0u64;
        let mut accepted = 0u64;
        for _ in 0..200 {
            for (object, symbol) in clean_stream(5) {
                let mut one = EventBatch::with_capacity(1);
                one.push_symbol(object, &symbol, engine.interner());
                let frame = frame_of(&engine, &one);
                loop {
                    match engine.try_submit_frame(&one, &frame) {
                        Ok(()) => {
                            accepted += 1;
                            break;
                        }
                        Err(SubmitError::Full) => {
                            rejected += 1;
                            std::thread::yield_now();
                        }
                        Err(SubmitError::Aborted) => panic!("no abort expected"),
                    }
                }
            }
        }
        let report = engine.finish().expect("no panics");
        assert_eq!(accepted, 800);
        assert_eq!(report.stats.events, 800);
        assert!(rejected > 0, "a bound of 2 must reject at least once");
        assert_eq!(
            report.verdicts(ObjectId(5)).unwrap().last(),
            Some(&Verdict::Yes)
        );
    }

    #[test]
    fn blocking_submit_respects_the_bound() {
        let engine = MonitoringEngine::new(EngineConfig::new(1).with_max_pending(1), factory());
        // Each submit may have to wait for the worker; the run completing
        // at all (without lost wakeups on the producer gate) is the test.
        for _ in 0..50 {
            for (object, symbol) in clean_stream(9) {
                engine.submit(object, &symbol);
            }
        }
        let report = engine.finish().expect("no panics");
        assert_eq!(report.stats.events, 200);
    }

    #[test]
    fn evicted_object_report_equals_unevicted_run() {
        let object = ObjectId(3);
        let events: Vec<(ObjectId, Symbol)> = clean_stream(3);
        let mut expected = sequential_reference(factory().as_ref(), &events)
            .remove(&object)
            .expect("the object's stream");
        let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
        let subscription = engine.subscribe(64);
        for (object, symbol) in &events {
            engine.submit(*object, symbol);
        }
        // Quiesced: no further traffic for the object → evicting must not
        // change its reported stream.
        engine.evict(object);
        engine.evict(object); // double-evict is a no-op
        engine.evict(ObjectId(777)); // unknown object is a no-op

        // Re-traffic after the eviction meets a fresh monitor: reading the
        // initial value is linearizable again, where the retired monitor
        // (which saw a write of 7) would answer NO.
        let revived = vec![
            (object, Symbol::invoke(ProcId(0), Invocation::Read)),
            (object, Symbol::respond(ProcId(0), Response::Value(0))),
        ];
        for (object, symbol) in &revived {
            engine.submit(*object, symbol);
        }
        let report = engine.finish().expect("no panics");
        expected.extend(&sequential_reference(factory().as_ref(), &revived)[&object]);
        assert_eq!(expected.last(), Some(&Verdict::Yes));
        assert_eq!(
            report.verdicts(object),
            Some(&expected[..]),
            "the epochs concatenate"
        );
        assert_eq!(report.stats.evicted, 1);
        // Subscription seqs continue across the eviction.
        let mut received = drv_lang::VerdictBatch::new();
        subscription.poll_batch(&mut received);
        assert_eq!(
            received.seqs(),
            (0..expected.len() as u64).collect::<Vec<_>>()
        );
        assert_eq!(received.verdicts(), &expected[..]);
    }

    #[test]
    fn panicking_monitor_surfaces_worker_panic() {
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
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let engine = MonitoringEngine::new(EngineConfig::new(2), Arc::new(BombFactory));
        engine.submit(ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
        let result = engine.finish();
        std::panic::set_hook(hook);
        let panic = result.expect_err("the monitor panicked");
        assert_eq!(panic.role, "engine worker");
        assert!(panic.worker < 2);
        assert!(panic.message.contains("boom on purpose"), "{panic}");
    }

    #[test]
    fn dropping_an_unfinished_engine_does_not_hang() {
        let engine = MonitoringEngine::new(EngineConfig::new(2), factory());
        for (object, symbol) in clean_stream(0) {
            engine.submit(object, &symbol);
        }
        drop(engine);
    }
}
