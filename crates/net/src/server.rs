//! [`MonitorServer`]: the TCP front of a service-mode
//! [`MonitoringEngine`].
//!
//! ## Threads and data flow
//!
//! ```text
//!   client A ──TCP──┐                  ┌─try_submit_batch─► MonitoringEngine
//!   client B ──TCP──┼──► reactor ──────┤                        │ subscribe()
//!   client N ──TCP──┘   (one I/O       │  outbound queues       ▼
//!            ◄──────────  thread) ◄────┴───────────────────── router
//!                        epoll/poll         (verdicts → owning connection)
//! ```
//!
//! * One **reactor** thread (`drv-net-io`) owns every socket: it accepts,
//!   reads and writes them all, nonblocking, driven by a readiness poller
//!   ([`reactor`](crate::reactor) — `epoll` on Linux, `poll(2)` elsewhere).
//!   Partial reads accumulate in a per-connection
//!   [`FrameAssembler`](crate::reactor::FrameAssembler); complete frames
//!   decode with the bounds-checked row cap straight into the engine's
//!   arena and are submitted as whole [`EventBatch`]es.  Writes drain
//!   bounded per-connection outbound queues of pre-sealed frames (credits,
//!   verdicts, stats, shutdown); write interest is registered only while a
//!   connection has unflushed output.  Thread count is **flat**: two server
//!   threads total, independent of connection count.
//! * One **router** thread (`drv-net-router`) drains the engine's verdict
//!   subscription in struct-of-arrays batches
//!   ([`VerdictSubscription::wait_batch`]) and forwards each verdict to the
//!   connection that *owns* the object
//!   (the connection that first submitted traffic for it), preserving the
//!   subscription's per-object order.  A connection's pending verdicts
//!   coalesce into run-compressed
//!   [`VerdictBatch`](crate::wire::FrameKind::VerdictBatch) frames — one
//!   frame per drain pass per connection under load — with one Credit
//!   frame covering the whole batch.  Delivery never blocks: frames that
//!   do not fit a connection's outbound queue stay in a per-connection
//!   pending list (bounded by the credit window) and are retried — the
//!   reactor's next drain of that queue wakes the router — and a queue
//!   still full past the grace period is a stalled consumer, disconnected
//!   so it cannot head-of-line block the fleet.  The router wakes the
//!   reactor only for pushes that made a queue go empty → non-empty; a
//!   queue that already had frames has a wake in flight
//!   (`net_reactor_wake_skips` counts the saved syscalls).
//!
//! ## The router's wait states
//!
//! The router has one wait-then-coalesce path.  It **waits** on the
//! subscription — untimed while nothing is undelivered (an idle server is
//! wakeup-silent: `net_router_wakeups` does not move), on a 20 ms beat
//! while some connection's verdicts or credit are still owed, because the
//! stall-grace clock only runs when the router does.  A drain that brought
//! less than a frame's worth then opens a **coalescing window**: yield, poll
//! again, and flush through the first of three exits, each with its counter:
//!
//! | exit | condition | `net_router_flush_*` |
//! |---|---|---|
//! | quiescent | `engine.backlog() == 0`, then an empty poll: nothing is coming until the next submit | `quiescent` |
//! | chunk | [`ServerConfig::with_verdict_chunk`] verdicts in hand (a first drain that large opens no window) | `chunk` |
//! | deadline | 300 µs passed with work still in the engine — a trickle, or the worker inside one long search | `deadline` |
//!
//! The quiescent exit stands on an engine invariant — a processed event
//! leaves `backlog()` only *after* its verdicts are in the subscription
//! ([`MonitoringEngine::backlog`]) — and is what makes a lone frame's
//! verdict latency the request→reply path instead of the window
//! (`paced-batch1` p50 0.29 → 0.11 ms).
//!
//! Inside the window the router **yields, it never parks**.  Blocking until
//! "enough verdicts or quiescent" instead looks like the obvious
//! improvement and was built twice; both times it cost 8–10 % of
//! `wide-batch256` throughput at an unchanged frame count.  On the one CPU
//! a sidecar deployment has, a sleeping router is woken *into* the worker's
//! time slice, and the wake-up chain router → reactor → client reader →
//! generator chops every slice the natural batching lives on
//! (`net.reactor.wakeups_per_kevent` 1.98 → 3.27); a router that stays
//! runnable and yields runs only when the others' slices end.  So the
//! window, its `yield_now` and its one `Instant` stay (ROADMAP,
//! "arrival-driven verdict path", has the numbers).
//!
//! ## Backpressure: credits, not buffers
//!
//! The server never queues unbounded client data.  Each connection starts
//! with a credit window of `W` events ([`ServerConfig::with_window`],
//! announced in the initial [`Credit`](crate::wire::Frame::Credit) frame);
//! a batch consumes its event count, and credit returns **as verdicts are
//! delivered** — the router grants one event per verdict it pushed to the
//! owning connection.  The window therefore bounds a connection's events in
//! flight *end to end* (sent but not yet checked), and
//! [`SubmitError::Full`] surfaces to the client as *absent credit*: a full
//! engine stops producing verdicts, grants dry up, and a compliant client
//! stalls while the reactor parks that connection's single in-flight batch
//! (reads pause — bounded memory: one decoded batch per connection) until
//! the engine's capacity hook wakes the reactor — no retry polling, a
//! parked reactor is wakeup-silent.  A peer that overruns the window is refused
//! with a [`Nack`](crate::wire::Frame::Nack) and the batch is dropped —
//! before anything of it reaches the engine, so per-object order survives
//! the refusal.  Corollary: verdicts (and hence credit) return to the
//! connection that *owns* the object, so each connection should submit
//! only objects it introduced.
//!
//! The reactor's own replies (Stats, NACKs) bypass the router, so the same
//! bound is kept on the read side: while a connection's outbound queue
//! holds [`ServerConfig::with_outbound`] frames or more, the reactor
//! decodes none of its frames and drops its read interest.  A flush that
//! drains the queue resumes it, frames already in the assembler first.  A
//! peer that writes Stats requests and never reads costs the server one
//! queue of replies, not one reply per request.
//!
//! ## Stats
//!
//! A Stats request is answered with the shared registry's snapshot
//! ([`encode_stats`]): every `engine_*`, `net_*` and `store_*` cell, once.
//! The engine's worker and shard counts are the `engine_workers` and
//! `engine_shards` gauges, live connections the `net_connections` gauge.
//!
//! ## Disconnect and shutdown
//!
//! A connection that sends [`Shutdown`](crate::wire::Frame::Shutdown) — or
//! disappears — has its objects evicted from the engine
//! ([`MonitoringEngine::evict_many`]): monitors dropped, verdicts kept for
//! the end-of-run report.  The clean handshake is
//! preserved: the reactor flushes the connection's outbound queue, appends
//! the server's own Shutdown frame, and closes.  [`MonitorServer::shutdown`]
//! stops accepting, disconnects every client, quiesces the engine and
//! returns the full [`EngineReport`] — the same report an in-process run
//! would have produced.

use crate::reactor::{waker_pair, FrameAssembler, Poller, SysFd, WakeRx, Waker};
use crate::wire::{
    decode_frame_capped, encode_credit, encode_nack, encode_shutdown, encode_stats,
    encode_verdict_batch, Frame, NackReason, WireError,
};
use drv_consistency::ObjectMonitorFactory;
use drv_engine::{
    EngineConfig, EngineReport, MonitoringEngine, SubmitError, VerdictEvent, VerdictSubscription,
};
use drv_lang::{EventBatch, ObjectId, Verdict, VerdictBatch, WorkerPanic};
use drv_telemetry::{Counter, Gauge, Histogram, Telemetry};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`MonitorServer`] (the engine itself is configured by
/// the [`EngineConfig`] passed alongside).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    window: u64,
    outbound: usize,
    verdict_chunk: usize,
    stall_grace: Duration,
}

/// Capacity of the engine verdict subscription the router drains.
const SUBSCRIPTION: usize = 4096;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            window: 4096,
            outbound: 256,
            verdict_chunk: 512,
            stall_grace: Duration::from_secs(2),
        }
    }
}

impl ServerConfig {
    /// The defaults: a 4096-event credit window, 256-frame outbound queues,
    /// 512 verdicts per frame, a 2 s stalled-consumer grace period.
    #[must_use]
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Per-connection credit window in events (clamped to ≥ 1).  Batches
    /// larger than the window are never acceptable — clients must split.
    #[must_use]
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window.max(1);
        self
    }

    /// Frames a connection's outbound queue buffers before the router
    /// defers further delivery to it and the reactor stops reading its
    /// frames (clamped to ≥ 1).
    #[must_use]
    pub fn with_outbound(mut self, frames: usize) -> Self {
        self.outbound = frames.max(1);
        self
    }

    /// Maximum verdicts packed into one [`FrameKind::VerdictBatch`] frame
    /// (clamped to ≥ 1).
    ///
    /// [`FrameKind::VerdictBatch`]: crate::wire::FrameKind::VerdictBatch
    #[must_use]
    pub fn with_verdict_chunk(mut self, verdicts: usize) -> Self {
        self.verdict_chunk = verdicts.max(1);
        self
    }

    /// How long a connection's outbound queue may stay full before the
    /// router declares the consumer stalled and disconnects it (clamped to
    /// ≥ 10 ms; default 2 s) — the head-of-line protection for every other
    /// connection.
    #[must_use]
    pub fn with_stall_grace(mut self, grace: Duration) -> Self {
        self.stall_grace = grace.max(Duration::from_millis(10));
        self
    }

    /// The per-connection credit window, in events.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }
}

/// Operational counters of a running server (monotone; read with
/// [`MonitorServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Connections currently live.
    pub active: u64,
    /// Batch frames successfully submitted to the engine.
    pub batches: u64,
    /// Events those batches carried.
    pub events: u64,
    /// Times a batch had to wait out [`SubmitError::Full`] before the
    /// engine accepted it (each wait parks the connection until the
    /// engine's capacity hook wakes the reactor).
    pub engine_full_stalls: u64,
    /// Batches refused with a NACK (credit overrun / oversized).
    pub nacks: u64,
    /// Verdicts that could not be delivered because their owning connection
    /// was gone or closed.
    pub dropped_verdicts: u64,
    /// Connections torn down on malformed frames or protocol violations.
    pub protocol_errors: u64,
    /// Connections force-closed because their consumer stalled (outbound
    /// queue full past the router's grace period) — the head-of-line
    /// protection for every other connection.
    pub stalled_disconnects: u64,
}

/// The server's operational metrics, registered as `net_*` on the serving
/// engine's telemetry registry — [`ServerStats`] is a *view* over these
/// cells and the Stats frame carries them as they are; there is no second
/// set of bookkeeping.
struct NetMetrics {
    accepted: Counter,
    /// Live connections (gauge: accept adds, teardown subtracts).
    active: Gauge,
    batches: Counter,
    events: Counter,
    engine_full_stalls: Counter,
    nacks: Counter,
    /// NACKs by kind — the "by kind" split the aggregate hides.
    nacks_credit_exceeded: Counter,
    nacks_batch_too_large: Counter,
    dropped_verdicts: Counter,
    protocol_errors: Counter,
    stalled_disconnects: Counter,
    /// Verdict frames queued to connections (the frame/event ratio
    /// against `engine_verdict_batch_events` is the wire coalescing
    /// factor).
    verdict_frames: Counter,
    /// Raw frame bytes off / onto sockets (per-connection throughput is
    /// `rx_bytes` rate over `net_connections`; exact per-peer splits live
    /// in each connection's `consumed` cell).
    rx_bytes: Counter,
    tx_bytes: Counter,
    /// Events admitted but not yet re-granted, summed over connections —
    /// the credit-window occupancy (how much of the end-to-end in-flight
    /// budget is in use).
    credit_outstanding: Gauge,
    /// Frame decode latency (raw bytes → typed [`Frame`]), sampled only
    /// when the engine's telemetry handle has timing enabled — as are the
    /// two below.
    decode_ns: Histogram,
    /// One verdict frame's encode plus its outbound-queue push (router).
    verdict_route_ns: Histogram,
    /// One connection flush's socket write loop (reactor).
    socket_write_ns: Histogram,
    /// Poller returns on the reactor thread (one per readiness wakeup —
    /// flat at zero while the server is idle).
    reactor_wakeups: Counter,
    /// Router pushes that skipped the waker write because the connection's
    /// outbound queue was already non-empty (a wake for it was already in
    /// flight, or write interest is driving the drain).
    reactor_wake_skips: Counter,
    /// Readiness events dispatched (a wakeup can carry many).
    reactor_events: Counter,
    /// Descriptors registered in the poller (listener + waker + sockets).
    reactor_fds: Gauge,
    /// Partial-read reassembly spread: socket reads each completed frame
    /// spanned (1 = the frame arrived whole).
    reassembly_reads: Histogram,
    /// Frames sitting in outbound queues, summed over connections — the
    /// write-side occupancy the stall detector watches.
    outbound_frames: Gauge,
    /// Returns from the router's subscription wait (flat at zero while
    /// nothing is undelivered and no verdict arrives).
    router_wakeups: Counter,
    /// Router drains that delivered something, by what ended the
    /// coalescing window: the engine went quiescent, a frame's worth of
    /// verdicts was in hand, or the 300 µs bound ran out with work still
    /// in the engine.  Exactly one per non-empty drain.
    router_flush_quiescent: Counter,
    router_flush_chunk: Counter,
    router_flush_deadline: Counter,
}

impl NetMetrics {
    fn register(tel: &Telemetry) -> NetMetrics {
        let r = tel.registry();
        NetMetrics {
            accepted: r.counter("net_accepted"),
            active: r.gauge("net_connections"),
            batches: r.counter("net_batches"),
            events: r.counter("net_events"),
            engine_full_stalls: r.counter("net_engine_full_stalls"),
            nacks: r.counter("net_nacks"),
            nacks_credit_exceeded: r.counter("net_nacks_credit_exceeded"),
            nacks_batch_too_large: r.counter("net_nacks_batch_too_large"),
            dropped_verdicts: r.counter("net_dropped_verdicts"),
            protocol_errors: r.counter("net_protocol_errors"),
            stalled_disconnects: r.counter("net_stalled_disconnects"),
            verdict_frames: r.counter("net_verdict_frames"),
            rx_bytes: r.counter("net_rx_bytes"),
            tx_bytes: r.counter("net_tx_bytes"),
            credit_outstanding: r.gauge("net_credit_outstanding"),
            decode_ns: r.histogram("net_decode_ns"),
            verdict_route_ns: r.histogram("net_verdict_route_ns"),
            socket_write_ns: r.histogram("net_socket_write_ns"),
            reactor_wakeups: r.counter("net_reactor_wakeups"),
            reactor_wake_skips: r.counter("net_reactor_wake_skips"),
            reactor_events: r.counter("net_reactor_events"),
            reactor_fds: r.gauge("net_reactor_fds"),
            reassembly_reads: r.histogram("net_reactor_reassembly_reads"),
            outbound_frames: r.gauge("net_outbound_frames"),
            router_wakeups: r.counter("net_router_wakeups"),
            router_flush_quiescent: r.counter("net_router_flush_quiescent"),
            router_flush_chunk: r.counter("net_router_flush_chunk"),
            router_flush_deadline: r.counter("net_router_flush_deadline"),
        }
    }
}

/// Outcome of a non-blocking outbound push.
enum Push {
    /// Queued; `was_empty` reports whether this push made the queue
    /// non-empty.  A queue that was already non-empty has a reactor wake
    /// (or registered write interest) in flight, so the pusher may skip
    /// its own — the wake-coalescing rule.
    Queued { was_empty: bool },
    Full,
    Closed,
}

/// The state one connection shares between the reactor and the router.
struct ConnShared {
    id: u64,
    /// For forced teardown from the router: shutting the socket down makes
    /// the reactor's poller report it and the read observe the close.
    stream: TcpStream,
    outbound: Mutex<VecDeque<Vec<u8>>>,
    /// Cleared when either side of the connection is gone; pushes turn into
    /// drops (counted by the caller).
    open: AtomicBool,
    capacity: usize,
    /// Events admitted into the engine on this connection (reactor-side).
    consumed: AtomicU64,
    /// Events granted back by the router as their verdicts were delivered.
    granted: AtomicU64,
    /// The router met a full queue and is waiting for space.  Raised and
    /// cleared under the `outbound` lock, so the reactor drain that frees
    /// the space is the one that sees it — and wakes the router, which
    /// otherwise learns of the space only on its next beat.
    wants_space: AtomicBool,
}

impl ConnShared {
    /// Queues a frame for the reactor's write path — never blocks.
    fn try_push(&self, frame: Vec<u8>, occupancy: &Gauge) -> Push {
        if !self.open.load(Ordering::Acquire) {
            return Push::Closed;
        }
        let mut outbound = self.outbound.lock();
        if outbound.len() >= self.capacity {
            self.wants_space.store(true, Ordering::Relaxed);
            return Push::Full;
        }
        let was_empty = outbound.is_empty();
        outbound.push_back(frame);
        occupancy.add(1);
        Push::Queued { was_empty }
    }

    /// Marks the connection dead; queued frames are dropped by teardown.
    fn close(&self) {
        self.open.store(false, Ordering::Release);
    }
}

struct ServerShared {
    engine: Arc<MonitoringEngine>,
    /// The engine's telemetry handle — the server registers its `net_*`
    /// metrics on the same registry, so one Stats reply carries the whole
    /// process.
    tel: Arc<Telemetry>,
    config: ServerConfig,
    /// The engine's verdict stream.  The router is its one consumer; the
    /// reactor and `stop_threads` reach it only to end the router's wait
    /// (`wake` when outbound space frees, `close` on stop).
    subscription: VerdictSubscription,
    stopping: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    /// Which connection owns (first submitted traffic for) each object —
    /// the router's verdict dispatch table.
    owners: Mutex<HashMap<ObjectId, u64>>,
    /// Connections the router touched since the reactor last flushed —
    /// the wake channel's payload.
    dirty: Mutex<Vec<u64>>,
    /// True while any connection has a batch parked on `SubmitError::Full`.
    /// The engine's capacity hook reads it: freed capacity wakes the
    /// reactor only when something is actually waiting for it.
    parked_hint: AtomicBool,
    waker: Waker,
    m: NetMetrics,
}

impl ServerShared {
    /// Evicts every object of `known` (the objects connection `conn`
    /// submitted) that `conn` still owns, removing those ownership entries
    /// — O(objects the connection touched), not O(all objects).  The
    /// monitors are dropped; their verdicts stay in the engine's report.
    fn evict_connection(&self, conn: u64, known: &HashSet<ObjectId>) {
        let mut owned = Vec::new();
        {
            let mut owners = self.owners.lock();
            for object in known {
                if owners.get(object) == Some(&conn) {
                    owners.remove(object);
                    owned.push(*object);
                }
            }
        }
        self.engine.evict_many(owned);
    }

    /// Marks `conn` dirty and wakes the reactor to flush it.
    fn wake_conns(&self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        self.dirty.lock().extend_from_slice(ids);
        self.waker.wake();
    }
}

/// Bytes per nonblocking read (also the per-readiness fairness unit: after
/// [`READ_BUDGET`] chunks the reactor moves on and lets level-triggered
/// readiness re-report the socket).
const READ_CHUNK: usize = 64 * 1024;
const READ_BUDGET: usize = 16;

/// How long the reactor keeps draining connections after a stop request
/// before force-closing the stragglers (a peer that never reads its final
/// frames cannot wedge shutdown).
const STOP_GRACE: Duration = Duration::from_secs(2);

/// Poller tokens 0 and 1 are the listener and the waker; connection `id`
/// maps to token `id + CONN_TOKEN_BASE`.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const CONN_TOKEN_BASE: u64 = 2;

#[cfg(unix)]
fn raw_fd(stream: &impl std::os::unix::io::AsRawFd) -> SysFd {
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_stream: &T) -> SysFd {
    -1
}

/// The reactor-private half of a connection.
struct ConnIo {
    shared: Arc<ConnShared>,
    /// The I/O handle (nonblocking); `shared.stream` is a dup kept for
    /// forced teardown from other threads.
    stream: TcpStream,
    assembler: FrameAssembler,
    /// A decoded batch the engine refused with `Full`: reads pause, the
    /// reactor retries when the engine's capacity hook wakes it.  At most
    /// one per connection.
    parked: Option<EventBatch>,
    /// Frame processing stopped because the outbound queue was full: reads
    /// pause until a flush drains it (see [`Reactor::flush_conn`]).
    held: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Objects this connection already registered in the owners map.
    known: HashSet<ObjectId>,
    /// Flush outbound, append the server Shutdown frame, then close.
    draining: bool,
    shutdown_queued: bool,
    /// The interest set currently registered in the poller.
    interest: (bool, bool),
}

impl ConnIo {
    fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
            || !self.shared.outbound.lock().is_empty()
            || (self.draining && !self.shutdown_queued)
    }

    fn wants_read(&self) -> bool {
        !self.draining && self.parked.is_none() && !self.held
    }
}

/// What a frame-processing pass concluded about a connection.
enum Pass {
    /// Keep going (assembler empty or drained cleanly so far).
    Alive,
    /// Stop reading this conn: a batch is parked on `SubmitError::Full`,
    /// or the outbound queue is full.
    Paused,
    /// Tear the connection down: peer EOF, transport error, protocol
    /// violation or an aborted engine.
    Dead,
}

/// The one I/O thread: accepts, reads, writes and retires every socket.
struct Reactor {
    shared: Arc<ServerShared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeRx,
    io: HashMap<u64, ConnIo>,
    /// Copy of the poller's ready set (so the poller can be re-borrowed
    /// mutably while handling events).
    ready: Vec<crate::reactor::Event>,
    scratch: Vec<u8>,
    next_conn: u64,
    /// Connections with a parked batch (retried on every wake while > 0).
    parked: usize,
    stop_seen: Option<Instant>,
}

impl Reactor {
    fn new(shared: Arc<ServerShared>, listener: TcpListener, wake_rx: WakeRx) -> io::Result<Reactor> {
        let mut poller = Poller::new()?;
        poller.register(raw_fd(&listener), TOKEN_LISTENER, true, false)?;
        poller.register(wake_rx.fd(), TOKEN_WAKER, true, false)?;
        shared.m.reactor_fds.add(2);
        Ok(Reactor {
            shared,
            poller,
            listener,
            wake_rx,
            io: HashMap::new(),
            ready: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            next_conn: 0,
            parked: 0,
            stop_seen: None,
        })
    }

    fn run(mut self) {
        loop {
            if self.shared.stopping.load(Ordering::Acquire) && self.stop_seen.is_none() {
                self.begin_stop();
            }
            if self.stop_seen.is_some() && self.io.is_empty() {
                break;
            }
            let timeout = if self.stop_seen.is_some() {
                Some(Duration::from_millis(10))
            } else {
                // Fully event-driven: the waker covers router pushes, stop
                // requests and engine-capacity wakes for parked batches.
                None
            };
            self.ready.clear();
            match self.poller.wait(timeout) {
                Ok(events) => self.ready.extend_from_slice(events),
                Err(_) => continue,
            }
            self.shared.m.reactor_wakeups.inc();
            for i in 0..self.ready.len() {
                let event = self.ready[i];
                self.shared.m.reactor_events.inc();
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.wake_rx.drain(),
                    token => {
                        let id = token - CONN_TOKEN_BASE;
                        if event.readable {
                            self.conn_readable(id);
                        }
                        if event.writable {
                            self.flush_conn(id);
                        }
                        self.update_interest(id);
                    }
                }
            }
            self.flush_dirty();
            self.retry_parked();
            if self.parked == 0 {
                // Reactor-only write: parks (and the hint's rise) happen on
                // this thread, so clearing on quiescence cannot race a park.
                self.shared.parked_hint.store(false, Ordering::Release);
            }
            if let Some(seen) = self.stop_seen {
                if seen.elapsed() > STOP_GRACE {
                    // Stragglers that never read their final frames: cut.
                    let ids: Vec<u64> = self.io.keys().copied().collect();
                    for id in ids {
                        self.teardown(id);
                    }
                }
            }
        }
        let _ = self.poller.deregister(raw_fd(&self.listener));
        let _ = self.poller.deregister(self.wake_rx.fd());
        self.shared.m.reactor_fds.sub(2);
    }

    /// Stop requested: refuse new connections and start the clean drain of
    /// every live one (flush, server Shutdown frame, close — the same
    /// handshake a client-initiated Shutdown gets).
    fn begin_stop(&mut self) {
        self.stop_seen = Some(Instant::now());
        let _ = self.poller.deregister(raw_fd(&self.listener));
        self.shared.m.reactor_fds.sub(1);
        let ids: Vec<u64> = self.io.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.io.get_mut(&id) {
                // A parked batch still gets its retries; draining only
                // stops *new* reads.
                conn.draining = true;
                conn.shared.close();
            }
            self.flush_conn(id);
            self.update_interest(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.stop_seen.is_some() {
                continue; // accepted-then-dropped: we are not serving anymore
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let Ok(dup) = stream.try_clone() else { continue };
            let id = self.next_conn;
            self.next_conn += 1;
            let shared = Arc::new(ConnShared {
                id,
                stream: dup,
                outbound: Mutex::new(VecDeque::new()),
                open: AtomicBool::new(true),
                capacity: self.shared.config.outbound,
                consumed: AtomicU64::new(0),
                granted: AtomicU64::new(0),
                wants_space: AtomicBool::new(false),
            });
            if self
                .poller
                .register(raw_fd(&stream), id + CONN_TOKEN_BASE, true, false)
                .is_err()
            {
                continue;
            }
            self.shared.conns.lock().insert(id, Arc::clone(&shared));
            self.shared.m.accepted.inc();
            self.shared.m.active.add(1);
            self.shared.m.reactor_fds.add(1);
            let window = self.shared.config.window;
            let conn = ConnIo {
                shared,
                stream,
                assembler: FrameAssembler::new(),
                parked: None,
                held: false,
                write_buf: Vec::new(),
                write_pos: 0,
                known: HashSet::new(),
                draining: false,
                shutdown_queued: false,
                interest: (true, false),
            };
            // The opening grant announces the window.
            conn.shared
                .outbound
                .lock()
                .push_back(encode_credit(window, window));
            self.shared.m.outbound_frames.add(1);
            self.io.insert(id, conn);
            self.flush_conn(id);
            self.update_interest(id);
        }
    }

    /// Reads until the socket runs dry (or the fairness budget is spent),
    /// processing every completed frame along the way.
    fn conn_readable(&mut self, id: u64) {
        let mut budget = READ_BUDGET;
        loop {
            match self.process_frames(id) {
                Pass::Alive => {}
                Pass::Paused => return,
                Pass::Dead => {
                    self.teardown(id);
                    return;
                }
            }
            let Some(conn) = self.io.get_mut(&id) else { return };
            if conn.draining || budget == 0 {
                return;
            }
            budget -= 1;
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.teardown(id);
                    return;
                }
                Ok(n) => {
                    self.shared.m.rx_bytes.add(n as u64);
                    conn.assembler.feed(&self.scratch[..n]);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(id);
                    return;
                }
            }
        }
    }

    /// Decodes and handles every complete frame buffered in `id`'s
    /// assembler.  Mirrors the per-connection reader loop of the
    /// thread-per-connection design frame for frame — ownership
    /// registration before submit, consumed-before-submit ordering, NACK
    /// semantics, the Shutdown handshake — so the protocol is preserved
    /// bit for bit.
    fn process_frames(&mut self, id: u64) -> Pass {
        let shared = Arc::clone(&self.shared);
        let window = shared.config.window;
        loop {
            let Some(conn) = self.io.get_mut(&id) else { return Pass::Alive };
            if conn.parked.is_some() {
                return Pass::Paused;
            }
            if conn.draining {
                return Pass::Alive;
            }
            // Every frame may be answered into the outbound queue (Stats,
            // NACK), so a peer that does not read would grow it without
            // bound: hold the rest of its frames until a flush drains it.
            if conn.shared.outbound.lock().len() >= conn.shared.capacity {
                conn.held = true;
                return Pass::Paused;
            }
            // Credit regenerates on *verdict delivery* (see the router), so
            // the connection's un-verdicted events are bounded by the
            // window — and the *remaining* credit is the decoder's row cap,
            // so a batch the credit cannot admit is refused before anything
            // of it interns into the engine's append-only arena.  The cap
            // is computed only now, with the frame fully reassembled:
            // grants issued while the bytes trickled in must count, or a
            // compliant client gets spuriously refused.
            let outstanding = conn
                .shared
                .consumed
                .load(Ordering::Acquire)
                .saturating_sub(conn.shared.granted.load(Ordering::Acquire));
            let remaining = window.saturating_sub(outstanding);
            let row_cap = u32::try_from(remaining).unwrap_or(u32::MAX);
            let raw = match conn.assembler.next_frame() {
                Ok(Some(raw)) => raw,
                Ok(None) => return Pass::Alive,
                Err(_) => {
                    // An unframeable byte stream (bad magic/version/kind or
                    // an oversized length claim): not a MonitorClient.
                    shared.m.protocol_errors.inc();
                    return Pass::Dead;
                }
            };
            let started = shared.tel.timer();
            let decoded = decode_frame_capped(raw, shared.engine.interner(), row_cap)
                .map(|(frame, _)| frame);
            shared.tel.observe(started, &shared.m.decode_ns);
            shared.m.reassembly_reads.record(conn.assembler.last_spread());
            match decoded {
                Ok(Frame::Batch(batch)) => {
                    let n = batch.events.len() as u64;
                    if n > 0 {
                        // Register ownership before submitting: the router
                        // must be able to route the very first verdict.
                        // Deduplicate against the connection-local `known`
                        // set first — the global owners lock is taken only
                        // when the batch introduces objects.
                        let mut fresh: Vec<ObjectId> = Vec::new();
                        for object in batch.events.objects() {
                            if conn.known.insert(*object) {
                                fresh.push(*object);
                            }
                        }
                        if !fresh.is_empty() {
                            let mut owners = shared.owners.lock();
                            for object in fresh {
                                owners.entry(object).or_insert(conn.shared.id);
                            }
                        }
                        // Count the batch as consumed *before* submitting:
                        // once submitted, its verdicts can be delivered
                        // (and credit re-granted) at any moment, and the
                        // router caps grants at `consumed - granted` — a
                        // late increment would read as a zero cap and
                        // permanently lose the credit.
                        conn.shared.consumed.fetch_add(n, Ordering::AcqRel);
                        shared.m.credit_outstanding.add(n as i64);
                        let submitted = match shared.engine.try_submit_batch(&batch.events) {
                            Ok(()) => Ok(()),
                            Err(SubmitError::Full) => {
                                // Raise the hint *before* the double-check:
                                // capacity freed between the two attempts is
                                // caught by the retry; capacity freed after
                                // it fires the hook (which sees the hint and
                                // wakes this reactor).  No window loses the
                                // wake.
                                shared.parked_hint.store(true, Ordering::Release);
                                shared.engine.try_submit_batch(&batch.events)
                            }
                            Err(SubmitError::Aborted) => return Pass::Dead,
                        };
                        match submitted {
                            Ok(()) => {
                                shared.m.batches.inc();
                                shared.m.events.add(n);
                            }
                            Err(SubmitError::Full) => {
                                // The backpressure loop, reactor-style: the
                                // connection parks its single in-flight
                                // batch (reads pause) until the engine's
                                // capacity hook wakes the event loop — the
                                // I/O thread itself never sleeps on one
                                // connection's behalf.
                                shared.m.engine_full_stalls.inc();
                                conn.parked = Some(batch.events);
                                self.parked += 1;
                                return Pass::Paused;
                            }
                            Err(SubmitError::Aborted) => return Pass::Dead,
                        }
                    }
                }
                Ok(Frame::StatsRequest) => {
                    let reply = encode_stats(&shared.tel.snapshot());
                    self.push_direct(id, reply);
                }
                Ok(Frame::Shutdown) => {
                    // Clean end-of-stream: retire the connection's monitors
                    // and run the drain-then-Shutdown handshake.  A draining
                    // connection reads no further frame, so its object set
                    // is spent.
                    let Some(conn) = self.io.get_mut(&id) else { return Pass::Alive };
                    shared.evict_connection(id, &std::mem::take(&mut conn.known));
                    conn.draining = true;
                    conn.shared.close();
                    return Pass::Alive;
                }
                Ok(_) => {
                    // Credit/Nack/Verdict/Stats replies are server-to-client
                    // only: a peer sending them is not a MonitorClient.
                    shared.m.protocol_errors.inc();
                    return Pass::Dead;
                }
                Err(WireError::TooManyRows { batch_id, rows, .. }) => {
                    // Refused by the decoder before any interning; the
                    // connection survives the NACK.  Over the whole window
                    // the batch could never fit; over the remaining credit
                    // it is an overrun the client must wait out.
                    shared.m.nacks.inc();
                    let nack = if u64::from(rows) > window {
                        shared.m.nacks_batch_too_large.inc();
                        encode_nack(batch_id, NackReason::BatchTooLarge, window)
                    } else {
                        shared.m.nacks_credit_exceeded.inc();
                        encode_nack(batch_id, NackReason::CreditExceeded, remaining)
                    };
                    self.push_direct(id, nack);
                }
                Err(_) => {
                    shared.m.protocol_errors.inc();
                    return Pass::Dead;
                }
            }
        }
    }

    /// Reactor-side push: appends straight to the outbound queue (these are
    /// the reactor's own replies: the opening credit, NACKs, stats).  No
    /// capacity refusal: `process_frames` holds a connection's frames while
    /// its queue is full, so a reply overshoots the capacity by at most the
    /// one frame the router pushed in between.
    fn push_direct(&mut self, id: u64, frame: Vec<u8>) {
        if let Some(conn) = self.io.get_mut(&id) {
            conn.shared.outbound.lock().push_back(frame);
            self.shared.m.outbound_frames.add(1);
        }
    }

    /// Retries every parked batch once (called on every reactor wake, the
    /// capacity hook's included).
    fn retry_parked(&mut self) {
        if self.parked == 0 {
            return;
        }
        let ids: Vec<u64> = self
            .io
            .iter()
            .filter(|(_, conn)| conn.parked.is_some())
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let Some(conn) = self.io.get_mut(&id) else { continue };
            let Some(batch) = conn.parked.take() else { continue };
            match self.shared.engine.try_submit_batch(&batch) {
                Ok(()) => {
                    self.parked -= 1;
                    self.shared.m.batches.inc();
                    self.shared.m.events.add(batch.len() as u64);
                    // Unparked: frames may be waiting in the assembler, and
                    // read interest comes back.
                    match self.process_frames(id) {
                        Pass::Dead => {
                            self.teardown(id);
                            continue;
                        }
                        Pass::Alive | Pass::Paused => {}
                    }
                    self.flush_conn(id);
                    self.update_interest(id);
                }
                Err(SubmitError::Full) => {
                    conn.parked = Some(batch);
                }
                Err(SubmitError::Aborted) => {
                    self.parked -= 1;
                    self.teardown(id);
                }
            }
        }
    }

    /// Flushes the connections the router touched since the last wake.
    fn flush_dirty(&mut self) {
        let dirty: Vec<u64> = std::mem::take(&mut *self.shared.dirty.lock());
        for id in dirty {
            self.flush_conn(id);
            self.update_interest(id);
        }
    }

    /// Writes as much of the outbound queue as the socket accepts, then
    /// resumes a connection whose frames were held for a full queue — as
    /// [`Reactor::retry_parked`] does for an unparked batch, so a frame
    /// already in the assembler does not wait for the peer's next write.
    /// Repeats while the resumed frames' replies flush at once.
    fn flush_conn(&mut self, id: u64) {
        loop {
            self.write_out(id);
            let Some(conn) = self.io.get_mut(&id) else { return };
            if !conn.held || conn.shared.outbound.lock().len() >= conn.shared.capacity {
                return;
            }
            conn.held = false;
            if let Pass::Dead = self.process_frames(id) {
                self.teardown(id);
                return;
            }
        }
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// coalescing queued frames into one buffer (one syscall carries every
    /// frame queued since the last flush).  Completes the clean-shutdown
    /// handshake when a draining connection runs dry.
    fn write_out(&mut self, id: u64) {
        let Some(conn) = self.io.get_mut(&id) else { return };
        let started = self.shared.tel.timer();
        let mut gone = false;
        loop {
            if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                let router_waits = {
                    let mut outbound = conn.shared.outbound.lock();
                    let drained = outbound.len();
                    for frame in outbound.drain(..) {
                        conn.write_buf.extend_from_slice(&frame);
                    }
                    if drained > 0 {
                        self.shared.m.outbound_frames.sub(drained as i64);
                    }
                    conn.shared.wants_space.swap(false, Ordering::Relaxed)
                };
                if router_waits {
                    self.shared.subscription.wake();
                }
                if conn.write_buf.is_empty() {
                    if conn.draining && !conn.shutdown_queued {
                        // Everything queued is flushed: append the server's
                        // half of the Shutdown handshake.
                        conn.write_buf.extend_from_slice(&encode_shutdown());
                        conn.shutdown_queued = true;
                    } else {
                        if conn.draining && conn.shutdown_queued {
                            gone = true;
                        }
                        break;
                    }
                }
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    gone = true;
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    self.shared.m.tx_bytes.add(n as u64);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    gone = true;
                    break;
                }
            }
        }
        self.shared
            .tel
            .observe(started, &self.shared.m.socket_write_ns);
        if gone {
            self.teardown(id);
        }
    }

    /// Reconciles the poller's interest set with the connection's state:
    /// read interest while not parked/draining, write interest only while
    /// output is unflushed.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.io.get_mut(&id) else { return };
        let want = (conn.wants_read(), conn.wants_write());
        if want != conn.interest {
            conn.interest = want;
            let fd = raw_fd(&conn.stream);
            let _ = self.poller.reregister(fd, id + CONN_TOKEN_BASE, want.0, want.1);
        }
    }

    /// Retires a connection: poller deregistration, eviction of its
    /// objects, metric reconciliation, socket close.
    fn teardown(&mut self, id: u64) {
        let Some(conn) = self.io.remove(&id) else { return };
        if conn.parked.is_some() {
            self.parked -= 1;
        }
        let _ = self.poller.deregister(raw_fd(&conn.stream));
        conn.shared.close();
        self.shared.conns.lock().remove(&id);
        // Mid-stream disconnect or clean Shutdown alike: everything
        // received so far stays checked; the monitors are retired, their
        // verdicts stay in the report.  (After a client-initiated Shutdown
        // the object set is already spent and this is a no-op.)
        self.shared.evict_connection(id, &conn.known);
        self.shared.m.active.sub(1);
        self.shared.m.reactor_fds.sub(1);
        let outstanding = conn
            .shared
            .consumed
            .load(Ordering::Acquire)
            .saturating_sub(conn.shared.granted.load(Ordering::Acquire));
        self.shared.m.credit_outstanding.sub(outstanding as i64);
        let dropped = conn.shared.outbound.lock().len();
        if dropped > 0 {
            self.shared.m.outbound_frames.sub(dropped as i64);
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Per-connection router state: verdicts awaiting outbound space and
/// credit grants awaiting the same.
#[derive(Default)]
struct RouterEntry {
    /// Verdicts routed here but not yet pushed (bounded: new verdicts
    /// require credit, and credit only returns as these deliver).
    pending: VecDeque<VerdictEvent>,
    /// Events whose verdicts were delivered but whose credit grant frame
    /// has not fit the outbound queue yet.
    owed: u64,
    /// Set while the outbound queue refuses delivery; past the grace
    /// period the consumer is declared stalled and disconnected.
    stalled_since: Option<Instant>,
}

/// The router: engine verdicts → owning connection, in subscription order.
/// One wait-then-coalesce path; see the module docs for its three exits.
fn router_loop(shared: &ServerShared) {
    let subscription = &shared.subscription;
    let chunk = shared.config.verdict_chunk;
    let mut entries: HashMap<u64, RouterEntry> = HashMap::new();
    // One struct-of-arrays batch, reused across drains: the subscription
    // appends into it without allocating once its arrays reach steady-state
    // capacity.
    let mut batch: VerdictBatch<Verdict> = VerdictBatch::new();
    // Reused per-frame staging buffer for the by-object grouping sort.
    let mut scratch: Vec<VerdictEvent> = Vec::new();
    loop {
        batch.clear();
        // Idle is silent: with nothing undelivered, everything that concerns
        // the router comes through the subscription — a verdict, the close
        // on stop, the reactor's `wake` — so the wait is untimed.  While
        // something is undelivered it stays a beat, because the stall-grace
        // clock in `deliver` only runs when the router does.
        let undelivered = entries
            .values()
            .any(|entry| !entry.pending.is_empty() || entry.owed > 0);
        subscription.wait_batch(undelivered.then_some(Duration::from_millis(20)), &mut batch);
        shared.m.router_wakeups.inc();
        if !batch.is_empty() {
            // Coalesce: under load the subscription fills continuously —
            // a sub-millisecond accumulation window turns many tiny
            // verdict/credit frames into a few big ones (the syscall and
            // wake-up count is what loopback throughput is made of).  The
            // router stays runnable and yields, never parks: the yields keep
            // the checker workers and the reactor running while the window
            // fills, and the router runs again only when their slices end.
            // The window ends the moment nothing is coming: `backlog() == 0`
            // read *before* an empty poll means every verdict of every
            // submitted event is already here (see
            // `MonitoringEngine::backlog`), and the yield before it is what
            // lets a reactor that is mid-pass submit first.
            let exit = if batch.len() >= chunk {
                &shared.m.router_flush_chunk
            } else {
                let deadline = Instant::now() + Duration::from_micros(300);
                loop {
                    std::thread::yield_now();
                    let backlog = shared.engine.backlog();
                    if subscription.poll_batch(&mut batch) == 0 && backlog == 0 {
                        break &shared.m.router_flush_quiescent;
                    }
                    if batch.len() >= chunk {
                        break &shared.m.router_flush_chunk;
                    }
                    if Instant::now() >= deadline {
                        // Work still in the engine — a trickle, or the
                        // worker inside one long search: ship what is here.
                        break &shared.m.router_flush_deadline;
                    }
                }
            };
            exit.inc();
        }
        // `stop_threads` closes the subscription once the engine has
        // drained; an aborted engine closes it itself.
        let closing = batch.is_empty() && subscription.is_closed();
        // Bucket by owner.  Runs keep a connection's consecutive verdicts
        // together, so the owners lock is consulted once per run, not once
        // per verdict.
        if !batch.is_empty() {
            let owners = shared.owners.lock();
            for (object, range) in batch.runs() {
                match owners.get(&object) {
                    Some(conn) => {
                        let entry = entries.entry(*conn).or_default();
                        for index in range {
                            let (object, seq, verdict) = batch.get(index);
                            entry.pending.push_back(VerdictEvent { object, seq, verdict });
                        }
                    }
                    None => shared.m.dropped_verdicts.add(range.len() as u64),
                }
            }
        }
        // Deliver hot while progress is being made: the outbound queues are
        // small, so a backlogged entry needs many push→drain round-trips.
        // Yielding lets the reactor (woken by `wake_conns`) drain between
        // passes; the loop exits the moment a pass moves nothing — the
        // reactor's next drain of a queue that refused a push ends the wait
        // above (`wants_space`), and a genuinely stalled consumer falls
        // through to the grace-period clock.
        loop {
            let (progressed, backlog) = deliver(shared, &mut entries, chunk, &mut scratch);
            if !(progressed && backlog) {
                break;
            }
            std::thread::yield_now();
        }
        if closing {
            return;
        }
    }
}

/// One delivery pass: push pending verdicts and owed credit into each
/// connection's outbound queue, non-blocking; enforce the stall grace.
/// Returns `(progressed, backlog)`: whether anything was pushed, and
/// whether undelivered verdicts remain.
fn deliver(
    shared: &ServerShared,
    entries: &mut HashMap<u64, RouterEntry>,
    chunk: usize,
    scratch: &mut Vec<VerdictEvent>,
) -> (bool, bool) {
    let mut dead: Vec<u64> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut any_progress = false;
    for (conn_id, entry) in entries.iter_mut() {
        if entry.pending.is_empty() && entry.owed == 0 {
            continue;
        }
        let conn = shared.conns.lock().get(conn_id).cloned();
        let Some(conn) = conn else {
            shared.m.dropped_verdicts.add(entry.pending.len() as u64);
            dead.push(*conn_id);
            continue;
        };
        let mut progressed = false;
        let mut full = false;
        // Skip the reactor wake when every push this pass landed on an
        // already non-empty queue: a prior wake (or registered write
        // interest) is still in flight for it, and `flush_conn` drains the
        // whole queue under one lock — the coalesced frame cannot strand.
        let mut needs_wake = false;
        while !entry.pending.is_empty() {
            // Encode off the deque's front slice.  A wrapped ring just
            // yields two (still chunk-capped) frames for one pass;
            // grouping is not part of the contract.
            let (front, back) = entry.pending.as_slices();
            let piece = if front.is_empty() { back } else { front };
            let take = piece.len().min(chunk);
            let route_started = shared.tel.timer();
            // Per-object seq order is the delivery contract; the
            // interleaving *across* objects is not.  A stable by-object
            // sort (seqs arrive ascending, stability keeps them so) turns
            // the round-robin row soup into maximal runs the run table
            // compresses ~4x — fewer bytes to CRC, copy and read back.
            scratch.clear();
            scratch.extend_from_slice(&piece[..take]);
            scratch.sort_by_key(|event| event.object.0);
            let frame = encode_verdict_batch(scratch);
            match conn.try_push(frame, &shared.m.outbound_frames) {
                Push::Queued { was_empty } => {
                    shared.tel.observe(route_started, &shared.m.verdict_route_ns);
                    entry.pending.drain(..take);
                    entry.owed += take as u64;
                    progressed = true;
                    needs_wake |= was_empty;
                    shared.m.verdict_frames.inc();
                }
                Push::Full => {
                    full = true;
                    break;
                }
                Push::Closed => {
                    shared.m.dropped_verdicts.add(entry.pending.len() as u64);
                    dead.push(*conn_id);
                    entry.pending.clear();
                    entry.owed = 0;
                    break;
                }
            }
        }
        if entry.owed > 0 && !dead.contains(conn_id) {
            // Credit returns with verdicts: the window bounds a
            // connection's events in flight *end to end* (submitted but
            // not yet checked), not just its socket buffer.  Capped at
            // what the connection actually consumed, so verdicts of events
            // another connection submitted for an object this one owns can
            // never inflate its credit past the window.
            let consumed = conn.consumed.load(Ordering::Acquire);
            let granted = conn.granted.load(Ordering::Acquire);
            let grant = entry.owed.min(consumed.saturating_sub(granted));
            if grant == 0 {
                entry.owed = 0;
            } else {
                match conn.try_push(
                    encode_credit(grant, shared.config.window),
                    &shared.m.outbound_frames,
                ) {
                    Push::Queued { was_empty } => {
                        conn.granted.fetch_add(grant, Ordering::AcqRel);
                        shared.m.credit_outstanding.sub(grant as i64);
                        entry.owed -= grant;
                        progressed = true;
                        needs_wake |= was_empty;
                    }
                    Push::Full => full = true,
                    Push::Closed => {
                        entry.owed = 0;
                        dead.push(*conn_id);
                    }
                }
            }
        }
        if needs_wake {
            touched.push(*conn_id);
        } else if progressed {
            shared.m.reactor_wake_skips.inc();
        }
        if full && !progressed {
            // The queue refused everything this pass: start (or check) the
            // stall clock.
            let since = *entry.stalled_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= shared.config.stall_grace {
                // The queue stayed full past the grace period: the consumer
                // stalled.  Close it so the rest of the fleet keeps its
                // verdict flow — a lost verdict or Credit frame on a
                // *surviving* connection is never acceptable, so the only
                // lossy exit is a dead connection.
                shared.m.stalled_disconnects.inc();
                shared.m.dropped_verdicts.add(entry.pending.len() as u64);
                conn.close();
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                entry.pending.clear();
                entry.owed = 0;
                dead.push(*conn_id);
                touched.push(*conn_id);
            }
        } else if progressed {
            entry.stalled_since = None;
        }
        any_progress |= progressed;
    }
    for conn_id in dead {
        entries.remove(&conn_id);
    }
    shared.wake_conns(&touched);
    let backlog = entries.values().any(|entry| !entry.pending.is_empty());
    (any_progress, backlog)
}

/// A TCP monitoring server: accepts [`MonitorClient`](crate::MonitorClient)
/// connections, feeds their batches to a service-mode [`MonitoringEngine`],
/// and streams verdicts back.  See the module docs for the thread and
/// backpressure model.
pub struct MonitorServer {
    shared: Arc<ServerShared>,
    reactor_handle: Option<JoinHandle<()>>,
    router_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl MonitorServer {
    /// Binds `addr` (use port 0 for an ephemeral port —
    /// [`MonitorServer::local_addr`] reports the choice) and starts serving
    /// a fresh engine built from `engine_config` and `factory`.
    ///
    /// # Errors
    ///
    /// The bind (or poller setup) error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine_config: EngineConfig,
        factory: Arc<dyn ObjectMonitorFactory>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::with_engine(
            addr,
            Arc::new(MonitoringEngine::new(engine_config, factory)),
            config,
        )
    }

    /// [`MonitorServer::bind`] over an engine the caller built — the hook
    /// for pre-configured engines, e.g. one recovered from a `drv-store`
    /// journal (whose post-crash verdict `seq` numbers continue where the
    /// previous run's left off, so a reconnecting client can resume from
    /// its cursor).  The engine must not be shared: `shutdown` consumes it,
    /// and panics if other handles are still alive.
    ///
    /// # Errors
    ///
    /// The bind (or poller setup) error, or [`io::ErrorKind::AlreadyExists`]
    /// when the engine already has a capacity hook
    /// ([`MonitoringEngine::set_capacity_hook`]): the server installs its
    /// own, the only thing that wakes a batch parked on a full engine.
    pub fn with_engine(
        addr: impl ToSocketAddrs,
        engine: Arc<MonitoringEngine>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let subscription = engine.subscribe(SUBSCRIPTION);
        let tel = Arc::clone(engine.telemetry());
        let metrics = NetMetrics::register(&tel);
        let (waker, wake_rx) = waker_pair()?;
        let shared = Arc::new(ServerShared {
            engine,
            tel,
            config,
            subscription,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            owners: Mutex::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            parked_hint: AtomicBool::new(false),
            waker,
            m: metrics,
        });
        // Wake-on-capacity: the engine calls this hook whenever pending
        // space frees.  The hint keeps the idle cost at one atomic load —
        // the waker write (a syscall) happens only while a batch is
        // actually parked.  Held as a Weak so the engine (whose Shared owns
        // the hook) never keeps the server state alive.
        let hook_target = Arc::downgrade(&shared);
        let hooked = shared.engine.set_capacity_hook(Arc::new(move || {
            if let Some(shared) = hook_target.upgrade() {
                if shared.parked_hint.load(Ordering::Acquire) {
                    shared.waker.wake();
                }
            }
        }));
        if !hooked {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the engine already has a capacity hook",
            ));
        }
        let reactor = Reactor::new(Arc::clone(&shared), listener, wake_rx)?;
        let reactor_handle = std::thread::Builder::new()
            .name("drv-net-io".to_string())
            .spawn(move || reactor.run())
            .expect("spawning the reactor");
        let router_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("drv-net-router".to_string())
                .spawn(move || router_loop(&shared))
                .expect("spawning the verdict router")
        };
        Ok(MonitorServer {
            shared,
            reactor_handle: Some(reactor_handle),
            router_handle: Some(router_handle),
            local_addr,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's operational counters — a view over the
    /// `net_*` cells of [`MonitorServer::telemetry`]'s registry (there is
    /// no second set of bookkeeping).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.m;
        ServerStats {
            accepted: m.accepted.get(),
            active: m.active.get().max(0) as u64,
            batches: m.batches.get(),
            events: m.events.get(),
            engine_full_stalls: m.engine_full_stalls.get(),
            nacks: m.nacks.get(),
            dropped_verdicts: m.dropped_verdicts.get(),
            protocol_errors: m.protocol_errors.get(),
            stalled_disconnects: m.stalled_disconnects.get(),
        }
    }

    /// The telemetry handle the server and its engine share: the `net_*`
    /// metrics (including the `net_reactor_*` family) live on this registry
    /// next to the `engine_*` ones.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.tel
    }

    /// The whole registry, rendered as Prometheus text exposition.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.shared.tel.snapshot().to_prometheus()
    }

    /// Submitted-but-unprocessed events in the engine.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.shared.engine.backlog()
    }

    /// Stops and joins every server thread, returning the panic of the
    /// first one whose `join` surfaced a payload (a bug in the server
    /// itself, not a monitor panic — those are caught engine-side).
    fn stop_threads(&mut self) -> Option<WorkerPanic> {
        let mut escaped: Option<WorkerPanic> = None;
        let join = |handle: JoinHandle<()>,
                    role: &'static str,
                    escaped: &mut Option<WorkerPanic>,
                    index: usize| {
            if let Err(payload) = handle.join() {
                escaped.get_or_insert(WorkerPanic::from_payload(role, index, payload));
            }
        };
        self.shared.stopping.store(true, Ordering::Release);
        // One wake is all the reactor needs: it stops accepting, drains
        // every connection through the clean Shutdown handshake (with the
        // stop grace bounding peers that never read), and exits.
        self.shared.waker.wake();
        if let Some(handle) = self.reactor_handle.take() {
            join(handle, "net reactor", &mut escaped, 0);
        }
        // Quiesce the engine so the router's final drain sees everything
        // (an aborted engine reconciles its backlog to zero, so this also
        // terminates after a worker panic), then close the verdict stream:
        // queued verdicts stay drainable, and the close is what ends the
        // router's wait — untimed when nothing is undelivered — and its loop.
        self.shared.engine.wait_drained();
        self.shared.subscription.close();
        if let Some(handle) = self.router_handle.take() {
            join(handle, "net verdict router", &mut escaped, 0);
        }
        escaped
    }

    /// Stops accepting, disconnects every client, quiesces and finishes the
    /// engine, and returns the end-of-run report (every object ever
    /// submitted by any connection, evicted epochs included).
    ///
    /// # Errors
    ///
    /// The [`WorkerPanic`] of the first engine worker that died (like
    /// [`MonitoringEngine::finish`]) — or of the first *server* thread
    /// whose join surfaced an escaped panic.  A dead engine outranks a dead
    /// server thread: the engine panic usually explains both.
    ///
    /// # Panics
    ///
    /// Panics if the server's threads leaked an engine handle (an internal
    /// invariant).
    pub fn shutdown(mut self) -> Result<EngineReport, WorkerPanic> {
        let escaped = self.stop_threads();
        // Every thread is joined: the clone below plus `self.shared` are the
        // last two handles, and dropping `self` (whose Drop sees the joined
        // state and returns early) releases the latter.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::into_inner(shared).expect("all server threads joined");
        let engine = Arc::into_inner(shared.engine).expect("all engine handles released");
        match (escaped, engine.finish()) {
            (Some(panic), Ok(_)) => Err(panic),
            (_, result) => result,
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        if self.reactor_handle.is_none() && self.router_handle.is_none() {
            // shutdown() already ran (or bind never finished).
            return;
        }
        if let Some(panic) = self.stop_threads() {
            // Dropped without shutdown(): the last chance to make an
            // escaped server-thread panic visible at all.
            eprintln!("drv-net: server thread panic unclaimed at drop: {panic}");
        }
        // The engine inside `shared` is dropped here, which aborts and
        // joins its pool (MonitoringEngine's own Drop).
    }
}
