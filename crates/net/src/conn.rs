//! `ConnCore`: one connection's protocol as a state machine — bytes in;
//! frames, batches and closes out.  It holds no socket, reads no clock and
//! never calls the engine: the reactor shell in [`server`](crate::server)
//! does those and reports back, so this module's tests drive every rule by
//! calling the core directly.
//!
//! * **Credit.**  The remaining credit (`window` minus the events admitted
//!   but not granted back) is the decoder's row cap, so a batch it cannot
//!   admit is refused with a NACK before anything of it interns:
//!   `BatchTooLarge` over the whole window, `CreditExceeded` over the rest.
//! * **Parked.**  A batch the engine refused with `Full` parks, and reads
//!   pause, until [`ConnCore::on_engine_capacity`].
//! * **Ingest once.**  A batch travels to the engine with the frame it was
//!   decoded from ([`ConnCore::frame`]), which the journal appends as it
//!   is.  The core copies each batch frame into one buffer it reuses; no
//!   frame is decoded while a batch awaits submission or is parked, so a
//!   parked batch keeps its bytes until the engine takes it.
//! * **Held.**  Every frame may be answered into the outbound queue, so
//!   while the queue is full no frame is decoded; a flush resumes them.
//! * **Shutdown.**  A peer's Shutdown, or a server stop, drains: no frame is
//!   read, the queue flushes, and the server's Shutdown follows once
//!   nothing is queued *or parked*.

use crate::server::ServerConfig;
use crate::wire::{
    decode_frame_capped, encode_credit, encode_nack, encode_shutdown, encode_stats, Frame,
    FrameAssembler, NackReason, WireError,
};
use drv_engine::SubmitError;
use drv_lang::hash::{HashMap, HashSet};
use drv_lang::{EventBatch, ObjectId, SharedInterner};
use drv_telemetry::{Counter, Gauge, Histogram, Telemetry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Declares [`NetMetrics`], one line per metric: its kind (the registry
/// method that makes it), its field and its registry name.
macro_rules! net_metrics {
    ($($(#[doc = $doc:literal])* $kind:ident $field:ident = $name:literal;)*) => {
        /// The server's operational metrics, registered as `net_*` on the
        /// serving engine's telemetry registry — [`ServerStats`] is a *view*
        /// over these cells and the Stats frame carries them as they are;
        /// there is no second set of bookkeeping.
        ///
        /// [`ServerStats`]: crate::ServerStats
        pub(crate) struct NetMetrics {
            $($(#[doc = $doc])* pub(crate) $field: net_metrics!(@type $kind),)*
        }

        impl NetMetrics {
            fn register(tel: &Telemetry) -> NetMetrics {
                let r = tel.registry();
                NetMetrics { $($field: r.$kind($name),)* }
            }
        }
    };
    (@type counter) => { Counter };
    (@type gauge) => { Gauge };
    (@type histogram) => { Histogram };
}

net_metrics! {
    counter accepted = "net_accepted";
    /// Live connections (gauge: accept adds, teardown subtracts).
    gauge active = "net_connections";
    counter batches = "net_batches";
    counter events = "net_events";
    counter engine_full_stalls = "net_engine_full_stalls";
    counter nacks = "net_nacks";
    /// NACKs by kind — the "by kind" split the aggregate hides.
    counter nacks_credit_exceeded = "net_nacks_credit_exceeded";
    counter nacks_batch_too_large = "net_nacks_batch_too_large";
    counter dropped_verdicts = "net_dropped_verdicts";
    counter protocol_errors = "net_protocol_errors";
    counter stalled_disconnects = "net_stalled_disconnects";
    /// Verdict frames queued to connections (the frame/event ratio
    /// against `engine_verdict_batch_events` is the wire coalescing
    /// factor).
    counter verdict_frames = "net_verdict_frames";
    /// Raw frame bytes off / onto sockets.
    counter rx_bytes = "net_rx_bytes";
    counter tx_bytes = "net_tx_bytes";
    /// Events admitted but not yet re-granted, summed over connections —
    /// the credit-window occupancy (how much of the end-to-end in-flight
    /// budget is in use).
    gauge credit_outstanding = "net_credit_outstanding";
    /// Frame decode latency (raw bytes → typed [`Frame`]), sampled only
    /// when the engine's telemetry handle has timing enabled — as are the
    /// two below.
    histogram decode_ns = "net_decode_ns";
    /// One verdict frame's encode plus its outbound-queue push (router).
    histogram verdict_route_ns = "net_verdict_route_ns";
    /// One connection flush's socket write loop (reactor).
    histogram socket_write_ns = "net_socket_write_ns";
    /// Poller returns on the reactor thread (one per readiness wakeup —
    /// flat at zero while the server is idle).
    counter reactor_wakeups = "net_reactor_wakeups";
    /// Router pushes that skipped the waker write because the connection's
    /// outbound queue was already non-empty (a wake for it was already in
    /// flight, or write interest is driving the drain).
    counter reactor_wake_skips = "net_reactor_wake_skips";
    /// Readiness events dispatched (a wakeup can carry many).
    counter reactor_events = "net_reactor_events";
    /// Descriptors registered in the poller (listener + waker + sockets).
    gauge reactor_fds = "net_reactor_fds";
    /// Partial-read reassembly spread: socket reads each completed frame
    /// spanned (1 = the frame arrived whole).
    histogram reassembly_reads = "net_reactor_reassembly_reads";
    /// Frames sitting in outbound queues, summed over connections — the
    /// write-side occupancy the stall clock watches.
    gauge outbound_frames = "net_outbound_frames";
    /// Returns from the router's subscription wait (flat at zero while
    /// no consumer is stalled and no verdict arrives).
    counter router_wakeups = "net_router_wakeups";
    /// Router drains by what ended the coalescing window: the engine went
    /// quiescent, a frame's worth of verdicts was in hand, or the 300 µs
    /// bound ran out with work still in the engine.  Exactly one per
    /// non-empty drain.
    counter router_flush_quiescent = "net_router_flush_quiescent";
    counter router_flush_chunk = "net_router_flush_chunk";
    counter router_flush_deadline = "net_router_flush_deadline";
}

/// What the two cores share: the configuration, the engine's payload arena
/// (batches decode straight into it), the metrics and the owners table.
pub(crate) struct Env {
    pub(crate) config: ServerConfig,
    interner: SharedInterner,
    pub(crate) tel: Arc<Telemetry>,
    pub(crate) m: NetMetrics,
    /// Which connection owns (first submitted traffic for) each object —
    /// the router's verdict dispatch table.
    pub(crate) owners: Mutex<HashMap<ObjectId, Arc<Outbound>>>,
}

impl Env {
    pub(crate) fn new(config: ServerConfig, interner: SharedInterner, tel: Arc<Telemetry>) -> Env {
        Env {
            config,
            interner,
            m: NetMetrics::register(&tel),
            tel,
            owners: Mutex::new(HashMap::default()),
        }
    }
}

/// Outcome of an outbound push.
pub(crate) enum Push {
    /// Queued; `was_empty` reports whether this push made the queue
    /// non-empty.  A queue that was already non-empty has a reactor wake
    /// (or registered write interest) in flight, so the pusher may skip
    /// its own — the wake-coalescing rule.
    Queued { was_empty: bool },
    Full,
    Closed,
}

/// The half of a connection the reactor and the router share: the bounded
/// queue of sealed frames the socket has yet to take, and the credit
/// ledger.
pub(crate) struct Outbound {
    pub(crate) id: u64,
    queue: Mutex<VecDeque<Vec<u8>>>,
    /// Cleared, under the queue lock, when either side of the connection is
    /// gone; pushes turn into drops (counted by the caller).
    open: AtomicBool,
    capacity: usize,
    /// Events admitted into the engine on this connection.
    consumed: AtomicU64,
    /// Events granted back as their verdicts were delivered.
    granted: AtomicU64,
    /// The router met a full queue and is waiting for space.  Raised and
    /// cleared under the queue lock, so the drain that frees the space is
    /// the one that sees it — and wakes the router.
    wants_space: AtomicBool,
    /// `net_outbound_frames`.
    occupancy: Gauge,
}

impl Outbound {
    pub(crate) fn new(id: u64, env: &Env) -> Outbound {
        Outbound {
            id,
            queue: Mutex::new(VecDeque::new()),
            open: AtomicBool::new(true),
            capacity: env.config.outbound,
            consumed: AtomicU64::new(0),
            granted: AtomicU64::new(0),
            wants_space: AtomicBool::new(false),
            occupancy: env.m.outbound_frames.clone(),
        }
    }

    /// Queues a frame — never blocks.  The router's pushes are `bounded`: a
    /// full queue refuses them.  The connection's own replies (the opening
    /// Credit, NACKs, Stats) are not: its core decodes no frame while the
    /// queue is full, so a reply overshoots the capacity by at most the one
    /// frame the router pushed in between.
    pub(crate) fn push(&self, frame: Vec<u8>, bounded: bool) -> Push {
        let mut queue = self.queue.lock();
        if !self.is_open() {
            return Push::Closed;
        }
        if bounded && queue.len() >= self.capacity {
            self.wants_space.store(true, Ordering::Relaxed);
            return Push::Full;
        }
        let was_empty = queue.is_empty();
        queue.push_back(frame);
        self.occupancy.add(1);
        Push::Queued { was_empty }
    }

    fn is_full(&self) -> bool {
        self.queue.lock().len() >= self.capacity
    }

    /// Events admitted but not yet granted back: the window's occupancy.
    pub(crate) fn outstanding(&self) -> u64 {
        let consumed = self.consumed.load(Ordering::Acquire);
        consumed.saturating_sub(self.granted.load(Ordering::Acquire))
    }

    /// Records `events` admitted into the engine.
    pub(crate) fn consume(&self, events: u64) {
        self.consumed.fetch_add(events, Ordering::AcqRel);
    }

    /// Records `events` granted back to the peer.
    pub(crate) fn grant(&self, events: u64) {
        self.granted.fetch_add(events, Ordering::AcqRel);
    }

    /// Refuses every further push; what is queued still flushes.
    pub(crate) fn close(&self) {
        let _queue = self.queue.lock();
        self.open.store(false, Ordering::Release);
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// Moves every queued frame into `buf`; returns whether the router was
    /// waiting for the space this frees.
    pub(crate) fn drain_into(&self, buf: &mut Vec<u8>) -> bool {
        let mut queue = self.queue.lock();
        self.occupancy.sub(queue.len() as i64);
        for frame in queue.drain(..) {
            buf.extend_from_slice(&frame);
        }
        self.wants_space.swap(false, Ordering::Relaxed)
    }
}

/// Why a core asks its shell to close the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Not a `MonitorClient`'s byte stream: unframeable, undecodable, or a
    /// frame only the server sends.
    Protocol,
    /// The engine aborted.
    Aborted,
}

/// What one input asks of the reactor shell; the frames to send are the
/// core's write buffer ([`ConnCore::unsent`]).
#[derive(Default)]
pub(crate) struct Actions {
    /// Submit this batch, with [`ConnCore::frame`], and hand it back with
    /// [`ConnCore::on_submitted`].
    pub(crate) submit: Option<EventBatch>,
    /// Evict these objects (the ones a departing peer still owned).
    pub(crate) evict: Vec<ObjectId>,
    pub(crate) close: Option<Close>,
}

/// One connection's protocol; see the module docs for its rules.
pub(crate) struct ConnCore {
    env: Arc<Env>,
    out: Arc<Outbound>,
    assembler: FrameAssembler,
    /// A batch the engine refused with `Full`.
    parked: Option<EventBatch>,
    /// The sealed frame of the batch awaiting submission or parked.
    frame: Vec<u8>,
    /// The current batch has met `Full` at least once (one stall counted).
    stalled: bool,
    /// Frames are held because the outbound queue was full.
    held: bool,
    /// Objects this connection already registered in the owners table.
    known: HashSet<ObjectId>,
    /// Reads no further frame; the server's Shutdown follows the flush.
    draining: bool,
    shutdown_queued: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
}

impl ConnCore {
    /// Connection `id`, its opening Credit frame (announcing the window)
    /// queued.
    pub(crate) fn new(id: u64, env: Arc<Env>) -> ConnCore {
        let out = Arc::new(Outbound::new(id, &env));
        let window = env.config.window;
        out.push(encode_credit(window, window), false);
        ConnCore {
            env,
            out,
            assembler: FrameAssembler::new(),
            parked: None,
            frame: Vec::new(),
            stalled: false,
            held: false,
            known: HashSet::default(),
            draining: false,
            shutdown_queued: false,
            write_buf: Vec::new(),
            write_pos: 0,
        }
    }

    /// Bytes read off the socket.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], actions: &mut Actions) {
        self.env.m.rx_bytes.add(bytes.len() as u64);
        self.assembler.feed(bytes);
        self.resume(actions);
    }

    /// The socket took `n` bytes of [`ConnCore::unsent`].  Frames held for a
    /// full queue resume once it has room.
    pub(crate) fn on_flushed(&mut self, n: usize, actions: &mut Actions) {
        self.write_pos += n;
        self.env.m.tx_bytes.add(n as u64);
        if self.held && !self.out.is_full() {
            self.held = false;
            self.resume(actions);
        }
    }

    /// The engine freed capacity: a parked batch is submitted again.
    pub(crate) fn on_engine_capacity(&mut self, actions: &mut Actions) {
        actions.submit = self.parked.take();
    }

    /// How the engine took the batch of [`Actions::submit`].
    pub(crate) fn on_submitted(
        &mut self,
        batch: EventBatch,
        outcome: Result<(), SubmitError>,
        actions: &mut Actions,
    ) {
        match outcome {
            Ok(()) => {
                self.stalled = false;
                self.env.m.batches.inc();
                self.env.m.events.add(batch.len() as u64);
                self.resume(actions);
            }
            Err(SubmitError::Full) => {
                if !self.stalled {
                    self.stalled = true;
                    self.env.m.engine_full_stalls.inc();
                }
                self.parked = Some(batch);
            }
            Err(SubmitError::Aborted) => actions.close = Some(Close::Aborted),
        }
    }

    /// Starts the clean drain: no further frame is read; a parked batch
    /// still gets its retries, and the server's Shutdown waits for it.
    pub(crate) fn begin_stop(&mut self) {
        self.draining = true;
        self.out.close();
    }

    /// The sealed frame of the batch in [`Actions::submit`], byte for byte
    /// as the peer sent it.
    pub(crate) fn frame(&self) -> &[u8] {
        &self.frame
    }

    pub(crate) fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    pub(crate) fn wants_read(&self) -> bool {
        !self.draining && self.parked.is_none() && !self.held
    }

    pub(crate) fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
            || !self.out.queue.lock().is_empty()
            || self.shutdown_due()
    }

    fn shutdown_due(&self) -> bool {
        self.draining && !self.shutdown_queued && self.parked.is_none()
    }

    /// Refills the write buffer once the socket took all of it: every
    /// frame queued since the last flush goes into one buffer (one syscall
    /// carries them all), and a draining connection with nothing left
    /// queued or parked gets the server's half of the Shutdown handshake.
    /// Returns whether the router waits for the space this freed.
    pub(crate) fn refill(&mut self) -> bool {
        if self.write_pos < self.write_buf.len() {
            return false;
        }
        self.write_buf.clear();
        self.write_pos = 0;
        let router_waits = self.out.drain_into(&mut self.write_buf);
        if self.write_buf.is_empty() && self.shutdown_due() {
            self.write_buf.extend_from_slice(&encode_shutdown());
            self.shutdown_queued = true;
        }
        router_waits
    }

    /// The bytes the socket should take next.
    pub(crate) fn unsent(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// The server's Shutdown frame is written, or the router cut the
    /// connection as a stalled consumer (it closed the outbound half of a
    /// connection that was not draining).
    pub(crate) fn is_over(&self) -> bool {
        (self.shutdown_queued && self.unsent().is_empty())
            || (!self.draining && !self.out.is_open())
    }

    /// The connection is gone: closes its outbound half (dropping what is
    /// queued), gives back its share of the credit gauge, and returns the
    /// objects it still owned, for eviction.
    pub(crate) fn release(&mut self) -> Vec<ObjectId> {
        self.out.close();
        let dropped = self.out.queue.lock().drain(..).count();
        self.out.occupancy.sub(dropped as i64);
        self.env.m.credit_outstanding.sub(self.out.outstanding() as i64);
        self.owned()
    }

    /// Spends the connection's object set: returns the objects it still
    /// owns and removes their ownership entries — O(objects the connection
    /// touched), not O(all objects).
    fn owned(&mut self) -> Vec<ObjectId> {
        let mut owners = self.env.owners.lock();
        let mut owned = Vec::new();
        for object in self.known.drain() {
            if owners.get(&object).is_some_and(|owner| Arc::ptr_eq(owner, &self.out)) {
                owners.remove(&object);
                owned.push(object);
            }
        }
        owned
    }

    /// The one resume path — after bytes, a flush or a submission: decodes
    /// and handles buffered frames until the assembler runs dry, a batch
    /// awaits submission, the connection pauses, or it must close.
    fn resume(&mut self, actions: &mut Actions) {
        let env = Arc::clone(&self.env);
        let window = env.config.window;
        while !self.draining
            && self.parked.is_none()
            && actions.submit.is_none()
            && actions.close.is_none()
        {
            if self.out.is_full() {
                self.held = true;
                return;
            }
            // Credit regenerates on *verdict delivery* (see the router), so
            // the connection's un-verdicted events are bounded by the
            // window — and the *remaining* credit is the decoder's row cap,
            // so a batch the credit cannot admit is refused before anything
            // of it interns into the engine's append-only arena.  The cap
            // is computed only now, with the frame fully reassembled:
            // grants issued while the bytes trickled in must count, or a
            // compliant client gets spuriously refused.
            let remaining = window.saturating_sub(self.out.outstanding());
            let row_cap = u32::try_from(remaining).unwrap_or(u32::MAX);
            let raw = match self.assembler.next_frame() {
                Ok(Some(raw)) => raw,
                Ok(None) => return,
                Err(_) => {
                    // An unframeable byte stream (bad magic/version/kind or
                    // an oversized length claim).
                    env.m.protocol_errors.inc();
                    actions.close = Some(Close::Protocol);
                    return;
                }
            };
            let started = env.tel.timer();
            let decoded = decode_frame_capped(raw, &env.interner, row_cap).map(|(frame, _)| frame);
            env.tel.observe(started, &env.m.decode_ns);
            if let Ok(Frame::Batch(_)) = decoded {
                // The bytes the journal appends (`ConnCore::frame`).
                self.frame.clear();
                self.frame.extend_from_slice(raw);
            }
            env.m.reassembly_reads.record(self.assembler.last_spread());
            match decoded {
                Ok(Frame::Batch(batch)) if batch.events.is_empty() => {}
                Ok(Frame::Batch(batch)) => self.admit(batch.events, actions),
                Ok(Frame::StatsRequest) => {
                    self.out.push(encode_stats(&env.tel.snapshot()), false);
                }
                Ok(Frame::Shutdown) => {
                    // Clean end-of-stream: retire the connection's monitors
                    // and run the drain-then-Shutdown handshake.
                    actions.evict = self.owned();
                    self.begin_stop();
                }
                Err(WireError::TooManyRows { batch_id, rows, .. }) => {
                    // Refused by the decoder before any interning; the
                    // connection survives the NACK.  Over the whole window
                    // the batch could never fit; over the remaining credit
                    // it is an overrun the client must wait out.
                    let (reason, detail, by_kind) = if u64::from(rows) > window {
                        (NackReason::BatchTooLarge, window, &env.m.nacks_batch_too_large)
                    } else {
                        (NackReason::CreditExceeded, remaining, &env.m.nacks_credit_exceeded)
                    };
                    env.m.nacks.inc();
                    by_kind.inc();
                    self.out.push(encode_nack(batch_id, reason, detail), false);
                }
                // Credit/Nack/Verdict/Stats replies are server-to-client
                // only: a peer sending them is not a MonitorClient.
                Ok(_) | Err(_) => {
                    env.m.protocol_errors.inc();
                    actions.close = Some(Close::Protocol);
                }
            }
        }
    }

    /// Takes a decoded batch in: registers the objects it introduces as
    /// this connection's — before it is submitted, so the router can route
    /// the very first verdict — counts it consumed, and hands it to the
    /// shell.
    fn admit(&mut self, events: EventBatch, actions: &mut Actions) {
        // Deduplicated against the connection-local `known` set first, one
        // probe per run of the object's events: the owners lock is taken
        // only when the batch introduces objects.
        let mut owners = None;
        for (object, _) in events.runs() {
            if self.known.insert(object) {
                owners
                    .get_or_insert_with(|| self.env.owners.lock())
                    .entry(object)
                    .or_insert_with(|| Arc::clone(&self.out));
            }
        }
        drop(owners);
        // Counted as consumed *before* it is submitted: once submitted, its
        // verdicts can be delivered (and credit re-granted) at any moment,
        // and the router caps grants at `outstanding()` — a late increment
        // would read as a zero cap and permanently lose the credit.
        let n = events.len() as u64;
        self.out.consume(n);
        self.env.m.credit_outstanding.add(n as i64);
        actions.submit = Some(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        decode_frame, encode_stats_request, seal_frame, FrameEncoder, FrameKind, EXT_TRACE_CONTEXT,
    };
    use drv_consistency::CheckerMonitorFactory;
    use drv_engine::{sequential_reference, EngineConfig, JournalSink, MonitoringEngine};
    use drv_lang::{Invocation, ProcId, Response, Symbol, Verdict, VerdictBatch};
    use drv_spec::Register;
    use std::time::Duration;

    fn core(config: ServerConfig) -> (ConnCore, SharedInterner) {
        let arena = SharedInterner::new();
        let env = Env::new(config, arena.clone(), Telemetry::passive());
        (ConnCore::new(0, Arc::new(env)), arena)
    }

    /// Batch frame `id`: `events` writes on object 1.
    fn batch_frame(id: u64, events: u64, arena: &SharedInterner) -> Vec<u8> {
        let mut batch = EventBatch::new();
        for value in 0..events {
            let write = Symbol::invoke(ProcId(0), Invocation::Write(value));
            batch.push_symbol(ObjectId(1), &write, arena);
        }
        FrameEncoder::new().encode_batch(id, &batch, arena)
    }

    /// Lets the socket take everything the core has to send, decoded.
    fn sent(core: &mut ConnCore, arena: &SharedInterner, actions: &mut Actions) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            core.refill();
            let bytes = core.unsent();
            if bytes.is_empty() {
                return frames;
            }
            frames.extend(decode_all(bytes, arena));
            let n = bytes.len();
            core.on_flushed(n, actions);
        }
    }

    fn queued(core: &ConnCore) -> usize {
        core.out.queue.lock().len()
    }

    #[test]
    fn a_batch_parked_at_stop_is_submitted_before_the_shutdown() {
        let (mut core, arena) = core(ServerConfig::new());
        let mut actions = Actions::default();
        let opening = sent(&mut core, &arena, &mut actions);
        assert_eq!(opening, vec![Frame::Credit { grant: 4096, window: 4096 }]);
        core.on_bytes(&batch_frame(1, 2, &arena), &mut actions);
        let batch = actions.submit.take().expect("a batch to submit");
        core.on_submitted(batch, Err(SubmitError::Full), &mut actions);
        assert!(core.is_parked());
        core.begin_stop();
        assert!(!core.wants_write(), "no write interest while only a parked batch remains");
        assert_eq!(sent(&mut core, &arena, &mut actions), vec![], "no Shutdown ahead of the batch");
        assert!(!core.is_over());
        // A retry that meets `Full` again is not a second stall.
        core.on_engine_capacity(&mut actions);
        let batch = actions.submit.take().expect("the parked batch again");
        core.on_submitted(batch, Err(SubmitError::Full), &mut actions);
        assert_eq!(sent(&mut core, &arena, &mut actions), vec![]);
        core.on_engine_capacity(&mut actions);
        let batch = actions.submit.take().expect("the parked batch again");
        core.on_submitted(batch, Ok(()), &mut actions);
        assert!(actions.submit.is_none() && actions.close.is_none());
        assert_eq!(sent(&mut core, &arena, &mut actions), vec![Frame::Shutdown]);
        assert!(core.is_over());
        let m = &core.env.m;
        assert_eq!((m.engine_full_stalls.get(), m.batches.get(), m.events.get()), (1, 1, 2));
    }

    #[test]
    fn frames_are_held_while_the_outbound_queue_is_full() {
        const CAPACITY: usize = 4;
        const REQUESTS: usize = 10;
        let (mut core, arena) = core(ServerConfig::new().with_outbound(CAPACITY));
        let mut actions = Actions::default();
        let requests: Vec<u8> = (0..REQUESTS).flat_map(|_| encode_stats_request()).collect();
        core.on_bytes(&requests, &mut actions);
        // The opening Credit and three replies fill the queue; the other
        // seven requests wait in the assembler, and reads pause.
        assert_eq!(queued(&core), CAPACITY);
        assert!(!core.wants_read());
        assert_eq!(core.assembler.buffered(), (REQUESTS - 3) * 16);
        // The router is refused meanwhile, and the drain that frees the
        // space reports it.
        assert!(matches!(core.out.push(encode_credit(1, 1), true), Push::Full));
        assert!(core.refill(), "the router waits for this space");
        // Each flush resumes the held frames until the queue fills again.
        let mut frames = Vec::new();
        let mut largest = 0;
        while core.unsent().len() + queued(&core) > 0 {
            let n = core.unsent().len();
            frames.extend(decode_all(core.unsent(), &arena));
            core.on_flushed(n, &mut actions);
            largest = largest.max(queued(&core));
            core.refill();
        }
        assert!(largest <= CAPACITY + 1, "{largest} frames queued");
        let stats = frames.iter().filter(|frame| matches!(frame, Frame::Stats(_))).count();
        assert_eq!((frames.len(), stats), (1 + REQUESTS, REQUESTS));
        assert!(core.wants_read());
        assert_eq!(core.assembler.buffered(), 0);
    }

    fn decode_all(mut bytes: &[u8], arena: &SharedInterner) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = decode_frame(bytes, arena).expect("server frames decode");
            frames.push(frame);
            bytes = &bytes[used..];
        }
        frames
    }

    #[test]
    fn a_credit_overrun_is_nacked_and_the_connection_survives() {
        let (mut core, arena) = core(ServerConfig::new().with_window(4));
        let mut actions = Actions::default();
        core.on_bytes(&batch_frame(1, 3, &arena), &mut actions);
        let batch = actions.submit.take().expect("three events fit four credits");
        core.on_submitted(batch, Ok(()), &mut actions);
        core.on_bytes(&batch_frame(2, 3, &arena), &mut actions);
        assert!(actions.submit.is_none(), "three events over one credit reach no engine");
        assert!(actions.close.is_none() && core.wants_read());
        let nack = Frame::Nack { batch_id: 2, reason: NackReason::CreditExceeded, detail: 1 };
        assert_eq!(sent(&mut core, &arena, &mut actions)[1..], [nack]);
        // Credit granted back while a frame is in flight counts: the cap is
        // read once the frame is whole.
        let third = batch_frame(3, 3, &arena);
        core.on_bytes(&third[..10], &mut actions);
        core.out.grant(3);
        core.on_bytes(&third[10..], &mut actions);
        assert_eq!(actions.submit.take().map(|batch| batch.len()), Some(3));
        let m = &core.env.m;
        assert_eq!((m.nacks.get(), m.nacks_credit_exceeded.get()), (1, 1));
        assert_eq!(m.credit_outstanding.get(), 6);
    }

    #[test]
    fn a_batch_over_the_whole_window_is_nacked_as_too_large() {
        let (mut core, arena) = core(ServerConfig::new().with_window(4));
        let mut actions = Actions::default();
        core.on_bytes(&batch_frame(9, 5, &arena), &mut actions);
        assert!(actions.submit.is_none() && actions.close.is_none());
        let nack = Frame::Nack { batch_id: 9, reason: NackReason::BatchTooLarge, detail: 4 };
        assert_eq!(sent(&mut core, &arena, &mut actions)[1..], [nack]);
        assert_eq!(core.env.m.nacks_batch_too_large.get(), 1);
        assert_eq!(core.out.outstanding(), 0);
    }

    #[test]
    fn a_frame_only_the_server_sends_closes_the_connection() {
        let (mut core, _) = core(ServerConfig::new());
        let mut actions = Actions::default();
        core.on_bytes(&encode_credit(1, 1), &mut actions);
        assert_eq!(actions.close, Some(Close::Protocol));
        assert_eq!(core.env.m.protocol_errors.get(), 1);
    }

    /// A journal that keeps the batch frames it is handed.
    #[derive(Default)]
    struct FrameLog(Mutex<Vec<Vec<u8>>>);

    impl JournalSink for FrameLog {
        fn append_frame(&self, frame: &[u8]) {
            self.0.lock().push(frame.to_vec());
        }
        fn checkpoint_interval(&self) -> u64 {
            u64::MAX
        }
        fn checkpoint(&self, _object: ObjectId, _fed: u64, _verdicts: &[Verdict], _state: &[u8]) {}
        fn tombstone(&self, _object: ObjectId) {}
    }

    /// `frame` with the trace-context block an earlier client appended to a
    /// stamped batch (tag 1, a length, 16 bytes), sealed again.
    fn stamped(mut frame: Vec<u8>) -> Vec<u8> {
        frame.extend_from_slice(&[EXT_TRACE_CONTEXT, 16]);
        frame.extend_from_slice(&[0x5A; 16]);
        seal_frame(FrameKind::Batch, &mut frame);
        frame
    }

    /// Two write/read rounds on object 1: p0 writes, p1 reads the value.
    fn rounds() -> Vec<(ObjectId, Symbol)> {
        (1..=2)
            .flat_map(|value| {
                [
                    Symbol::invoke(ProcId(0), Invocation::Write(value)),
                    Symbol::respond(ProcId(0), Response::Ack),
                    Symbol::invoke(ProcId(1), Invocation::Read),
                    Symbol::respond(ProcId(1), Response::Value(value)),
                ]
            })
            .map(|symbol| (ObjectId(1), symbol))
            .collect()
    }

    /// The reactor's part of ingest-once, played against a real engine: a
    /// batch refused with `Full` leaves no journal record, the parked batch
    /// is journaled once after the capacity retry, as the bytes it came in
    /// (the next frame, already buffered, does not overwrite them), and an
    /// old client's stamped frame is journaled with its stamp and replays
    /// to the reference.
    #[test]
    fn a_parked_batch_is_journaled_once_as_the_frame_it_came_in() {
        let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2));
        // Four pending slots and a one-verdict subscription nobody drains
        // yet: object 9's second verdict finds it full, and the worker
        // holds that event's slot until somebody drains.
        let engine =
            MonitoringEngine::new(EngineConfig::new(1).with_max_pending(4), factory.clone());
        let subscription = engine.subscribe(1);
        engine.submit(ObjectId(9), &Symbol::invoke(ProcId(0), Invocation::Write(7)));
        engine.submit(ObjectId(9), &Symbol::respond(ProcId(0), Response::Ack));
        let log = Arc::new(FrameLog::default());
        engine.attach_journal(log.clone());
        let env = Env::new(ServerConfig::new(), engine.interner().clone(), Telemetry::passive());
        let mut core = ConnCore::new(0, Arc::new(env));

        let events = rounds();
        let client = SharedInterner::new();
        let mut encoder = FrameEncoder::new();
        let mut frame = |id: u64, events: &[(ObjectId, Symbol)]| {
            encoder.encode_batch(id, &EventBatch::from_stream(events, &client), &client)
        };
        let sent = vec![frame(0, &events[..4]), stamped(frame(1, &events[4..]))];
        let mut actions = Actions::default();
        core.on_bytes(&sent.concat(), &mut actions);
        let batch = actions.submit.take().expect("the first frame's batch");
        assert_eq!(core.frame(), sent[0]);
        let outcome = engine.try_submit_frame(&batch, core.frame());
        assert_eq!(outcome, Err(SubmitError::Full));
        core.on_submitted(batch, outcome, &mut actions);
        assert!(core.is_parked());
        assert!(log.0.lock().is_empty(), "a refused batch left a record");

        // Every refusal drains the verdict the worker waits on, and the
        // capacity retry submits the parked batch again.
        let mut received = VerdictBatch::new();
        loop {
            if core.is_parked() {
                subscription.wait_batch(Duration::from_millis(10), &mut received);
                core.on_engine_capacity(&mut actions);
            }
            let Some(batch) = actions.submit.take() else { break };
            let outcome = engine.try_submit_frame(&batch, core.frame());
            core.on_submitted(batch, outcome, &mut actions);
        }
        assert!(actions.close.is_none());
        assert_eq!(*log.0.lock(), sent, "each batch journaled once, byte for byte");
        let report = engine.finish().expect("no worker panicked");
        let expected = sequential_reference(factory.as_ref(), &events);
        assert_eq!(report.verdicts(ObjectId(1)), Some(&expected[&ObjectId(1)][..]));

        // The journaled frames, replayed into a fresh engine.
        let replay = MonitoringEngine::new(EngineConfig::new(1), factory.clone());
        for frame in log.0.lock().iter() {
            let (Frame::Batch(batch), _) = decode_frame(frame, replay.interner()).expect("a batch")
            else {
                panic!("a journaled batch decodes as a batch");
            };
            replay.submit_batch(&batch.events);
        }
        let report = replay.finish().expect("no worker panicked");
        assert_eq!(report.verdicts(ObjectId(1)), Some(&expected[&ObjectId(1)][..]));
    }
}
