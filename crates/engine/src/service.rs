//! The always-on service surface of the engine: submission errors for the
//! backpressure path and the streaming verdict subscription channel.
//!
//! A batch-style deployment submits a stream and reads the end-of-run
//! [`EngineReport`](crate::EngineReport); a *service* never reaches
//! end-of-run.  This module provides what the long-running mode needs
//! instead:
//!
//! * [`SubmitError`] — what [`MonitoringEngine::try_submit_batch`] reports
//!   when the bounded ingestion queue is full ([`SubmitError::Full`]) or
//!   the pool is dead ([`SubmitError::Aborted`]).
//! * [`VerdictSubscription`] — a bounded channel of [`VerdictEvent`]s
//!   (`(object, seq, verdict)` triples) delivering verdicts *as they are
//!   decided*, created by [`MonitoringEngine::subscribe`].
//!
//! Delivery is **batched** on both sides of the channel: a worker pushes
//! every verdict a drained shard batch produced as one slice under one
//! channel lock, and consumers drain everything queued into a reusable
//! struct-of-arrays [`VerdictBatch`](drv_lang::VerdictBatch) via
//! [`VerdictSubscription::poll_batch`] / [`VerdictSubscription::wait_batch`].
//!
//! ## Channel semantics
//!
//! Events of one object arrive in `seq` order (the engine's per-object FIFO
//! guarantee extends to the subscription); events of distinct objects
//! interleave arbitrarily.  While the engine is live, a worker that finds a
//! subscription full **blocks** until the consumer drains it — the channel
//! is a real bounded queue, lossless under backpressure.  Once the engine is
//! shutting down (`finish`, drop, or a worker panic) workers stop blocking
//! and count undeliverable events in [`VerdictSubscription::missed`]
//! instead, so `finish()` can never deadlock on an abandoned subscription;
//! every verdict is still in the final report regardless.  Every verdict
//! is an event's — an eviction marker adds none — so an object's `seq` is
//! its event index, across evictions.
//!
//! The channel closes ([`VerdictSubscription::is_closed`]) when `finish`
//! has delivered the last verdict, when the engine is dropped, **or as soon
//! as the pool aborts on a worker panic** — a consumer looping until
//! closure never out-waits a dead engine.  Queued events stay drainable
//! after closing.
//!
//! [`MonitoringEngine::try_submit_batch`]: crate::MonitoringEngine::try_submit_batch
//! [`MonitoringEngine::subscribe`]: crate::MonitoringEngine::subscribe

use drv_lang::{ObjectId, Verdict, VerdictBatch};
use drv_telemetry::Counter;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why a non-blocking submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine's pending-work bound (`EngineConfig::with_max_pending`)
    /// is reached; retry after draining (or use the blocking `submit`).
    Full,
    /// A worker panicked (or the engine was dropped): the pool will never
    /// process the event.  `take_panic` / `finish` report the cause.
    Aborted,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full => f.write_str("engine ingestion queue is full"),
            SubmitError::Aborted => f.write_str("engine aborted; the pool is no longer draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One delivered verdict: the monitor's verdict for `object` after its
/// `seq`-th stream element (0-based, counted across evictions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictEvent {
    /// The object the verdict belongs to.
    pub object: ObjectId,
    /// Position in the object's verdict stream (0-based).
    pub seq: u64,
    /// The verdict itself.
    pub verdict: Verdict,
}

struct SubState {
    queue: VecDeque<VerdictEvent>,
    capacity: usize,
    closed: bool,
    missed: u64,
    /// A [`VerdictSubscription::wake`] not yet consumed by a wait.
    woken: bool,
}

/// The channel half shared between the engine's workers and one
/// [`VerdictSubscription`] handle.
pub(crate) struct SubscriptionShared {
    state: Mutex<SubState>,
    /// Signalled when events become available (or the channel closes).
    readable: Condvar,
    /// Signalled when space frees up (or blocking becomes pointless).
    writable: Condvar,
    /// The engine's `engine_verdicts_dropped_closed` cell: verdicts pushed
    /// after the channel closed.
    dropped_closed: Counter,
}

impl SubscriptionShared {
    pub(crate) fn new(capacity: usize, dropped_closed: Counter) -> Arc<Self> {
        Arc::new(SubscriptionShared {
            state: Mutex::new(SubState {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
                missed: 0,
                woken: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            dropped_closed,
        })
    }

    /// Worker-side delivery, the one push path: the verdicts of a drained
    /// shard batch — possibly many objects' runs — under **one** channel
    /// lock.  Rows arrive in
    /// delivery order, which keeps each object's `seq`s in order.  Partial
    /// fills enqueue what fits, then block while `may_block()` holds (it
    /// reads the engine's live/shutdown state; never under shard locks),
    /// then count the remainder as missed.  A closed channel drops the
    /// remainder into `dropped_closed` instead.  Returns how many were
    /// enqueued.
    pub(crate) fn push_events(
        &self,
        events: &[VerdictEvent],
        may_block: &dyn Fn() -> bool,
    ) -> usize {
        if events.is_empty() {
            return 0;
        }
        let mut state = self.state.lock();
        let mut next = 0usize;
        loop {
            if state.closed {
                self.dropped_closed.add((events.len() - next) as u64);
                return next;
            }
            let space = state.capacity - state.queue.len();
            if space > 0 {
                let take = space.min(events.len() - next);
                state.queue.extend(events[next..next + take].iter().copied());
                next += take;
                self.readable.notify_all();
                if next == events.len() {
                    return next;
                }
                continue; // still full: re-check closed before waiting
            }
            if !may_block() {
                state.missed += (events.len() - next) as u64;
                return next;
            }
            self.writable.wait(&mut state);
        }
    }

    /// Wakes every blocked writer *and* reader so they re-check the engine
    /// state (called on shutdown and abort).
    pub(crate) fn wake_all(&self) {
        let _state = self.state.lock();
        self.writable.notify_all();
        self.readable.notify_all();
    }

    /// Closes the channel: already-queued events stay drainable, new pushes
    /// are discarded, blocked parties wake.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.writable.notify_all();
        self.readable.notify_all();
    }

    pub(crate) fn is_open(&self) -> bool {
        !self.state.lock().closed
    }
}

/// The consumer handle of a bounded verdict channel (see the module docs
/// for ordering and backpressure semantics).  Dropping it closes the
/// channel; the engine's workers skip closed subscriptions.
pub struct VerdictSubscription {
    shared: Arc<SubscriptionShared>,
}

impl VerdictSubscription {
    pub(crate) fn new(shared: Arc<SubscriptionShared>) -> Self {
        VerdictSubscription { shared }
    }

    /// Drains every currently queued event into `batch` without blocking,
    /// returning how many were appended.  The batch is **appended to**, not
    /// cleared — the consumer loop owns the reuse pattern (`clear`, drain,
    /// process).
    pub fn poll_batch(&self, batch: &mut VerdictBatch<Verdict>) -> usize {
        let mut state = self.shared.state.lock();
        Self::drain_locked(&self.shared, &mut state, batch)
    }

    /// Blocks until at least one event is queued (then drains everything
    /// queued into `batch`), the channel closes, [`VerdictSubscription::wake`]
    /// is called, or `timeout` elapses — whichever comes first; a `None`
    /// timeout waits for one of the first three however long it takes.
    /// Returns how many events were appended.
    pub fn wait_batch(
        &self,
        timeout: impl Into<Option<Duration>>,
        batch: &mut VerdictBatch<Verdict>,
    ) -> usize {
        let mut state = self.shared.state.lock();
        let idle = |state: &mut SubState| state.queue.is_empty() && !state.closed && !state.woken;
        match timeout.into() {
            Some(timeout) => {
                self.shared.readable.wait_while_for(&mut state, idle, timeout);
            }
            None => self.shared.readable.wait_while(&mut state, idle),
        }
        state.woken = false;
        Self::drain_locked(&self.shared, &mut state, batch)
    }

    /// Ends the consumer's current [`VerdictSubscription::wait_batch`] — or,
    /// if none is in progress, its next one — without delivering anything:
    /// the wait returns with whatever is queued, possibly nothing.  For a
    /// consumer that also has work nobody pushes through the channel.
    pub fn wake(&self) {
        self.shared.state.lock().woken = true;
        self.shared.readable.notify_all();
    }

    /// The one drain path: moves every queued event into `batch` and frees
    /// blocked writers.
    fn drain_locked(
        shared: &SubscriptionShared,
        state: &mut SubState,
        batch: &mut VerdictBatch<Verdict>,
    ) -> usize {
        let drained = state.queue.len();
        for event in state.queue.drain(..) {
            batch.push(event.object, event.seq, event.verdict);
        }
        if drained > 0 {
            shared.writable.notify_all();
        }
        drained
    }

    /// Events the engine could not deliver because the queue was full while
    /// blocking was no longer allowed (shutdown/abort) — they are *not*
    /// lost from the final report, only from this stream.
    #[must_use]
    pub fn missed(&self) -> u64 {
        self.shared.state.lock().missed
    }

    /// Whether the channel is closed (engine finished/dropped, or
    /// [`VerdictSubscription::close`] was called).  Queued events remain
    /// drainable after closing.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        !self.shared.is_open()
    }

    /// Closes the channel early: workers stop delivering to it immediately
    /// (without blocking or counting misses).
    pub fn close(&self) {
        self.shared.close();
    }
}

impl Drop for VerdictSubscription {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl fmt::Debug for VerdictSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("VerdictSubscription")
            .field("queued", &state.queue.len())
            .field("capacity", &state.capacity)
            .field("closed", &state.closed)
            .field("missed", &state.missed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_telemetry::Telemetry;

    /// A channel of `capacity` whose closed-drop counter the test keeps.
    fn channel(capacity: usize) -> (Arc<SubscriptionShared>, Counter) {
        let dropped = Telemetry::passive()
            .registry()
            .counter("engine_verdicts_dropped_closed");
        (SubscriptionShared::new(capacity, dropped.clone()), dropped)
    }

    fn event(seq: u64) -> VerdictEvent {
        VerdictEvent {
            object: ObjectId(1),
            seq,
            verdict: Verdict::Yes,
        }
    }

    /// Pushes one event without blocking; whether it was enqueued.
    fn push_nonblocking(shared: &SubscriptionShared, event: VerdictEvent) -> bool {
        shared.push_events(&[event], &|| false) == 1
    }

    #[test]
    fn bounded_push_poll_roundtrip() {
        let (shared, _) = channel(2);
        let sub = VerdictSubscription::new(Arc::clone(&shared));
        assert!(push_nonblocking(&shared, event(0)));
        assert!(push_nonblocking(&shared, event(1)));
        // Full and not allowed to block: counted as missed.
        assert!(!push_nonblocking(&shared, event(2)));
        assert_eq!(sub.missed(), 1);
        let mut drained = VerdictBatch::new();
        assert_eq!(sub.poll_batch(&mut drained), 2);
        assert_eq!(drained.seqs(), &[0, 1]);
        assert_eq!(sub.poll_batch(&mut drained), 0);
    }

    #[test]
    fn close_keeps_queued_events_drainable_and_rejects_new_ones() {
        let (shared, _) = channel(4);
        let sub = VerdictSubscription::new(Arc::clone(&shared));
        assert!(push_nonblocking(&shared, event(0)));
        sub.close();
        assert!(sub.is_closed());
        assert!(!push_nonblocking(&shared, event(1)), "closed channels drop pushes");
        assert_eq!(sub.missed(), 0, "drops after close are not misses");
        let mut drained = VerdictBatch::new();
        assert_eq!(sub.poll_batch(&mut drained), 1);
        // wait_batch on a closed, empty channel returns immediately.
        assert_eq!(sub.wait_batch(Duration::from_secs(5), &mut drained), 0);
    }

    #[test]
    fn push_events_fills_then_misses_or_drops() {
        // Partial fill: space for 2 of 3, blocking not allowed → 1 missed.
        let (shared, dropped) = channel(2);
        let sub = VerdictSubscription::new(Arc::clone(&shared));
        let events = [event(10), event(11), event(12)];
        assert_eq!(shared.push_events(&events, &|| false), 2);
        assert_eq!(sub.missed(), 1);
        let mut batch = VerdictBatch::new();
        assert_eq!(sub.poll_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().collect::<Vec<_>>(),
            vec![(ObjectId(1), 10, Verdict::Yes), (ObjectId(1), 11, Verdict::Yes)]
        );
        assert_eq!(dropped.get(), 0);
        // Closed channel: remainder dropped, counted apart from missed.
        sub.close();
        assert_eq!(shared.push_events(&events, &|| true), 0);
        assert_eq!(sub.missed(), 1);
        assert_eq!(dropped.get(), 3);
        assert_eq!(shared.push_events(&[], &|| true), 0);
        assert_eq!(dropped.get(), 3);
    }

    #[test]
    fn blocked_slice_writer_is_freed_by_a_batch_reader() {
        let (shared, _) = channel(2);
        let sub = VerdictSubscription::new(Arc::clone(&shared));
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let events: Vec<VerdictEvent> = (0..5).map(event).collect();
                shared.push_events(&events, &|| true)
            })
        };
        let mut batch = VerdictBatch::new();
        let mut total = 0;
        while total < 5 {
            total += sub.wait_batch(Duration::from_millis(50), &mut batch);
        }
        assert_eq!(writer.join().unwrap(), 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.seqs(), &[0, 1, 2, 3, 4]);
        assert_eq!(sub.missed(), 0);
    }

    #[test]
    fn submit_error_displays() {
        assert!(SubmitError::Full.to_string().contains("full"));
        assert!(SubmitError::Aborted.to_string().contains("aborted"));
    }
}
