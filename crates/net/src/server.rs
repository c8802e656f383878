//! [`MonitorServer`]: the TCP front of a service-mode
//! [`MonitoringEngine`].
//!
//! ## Shells and cores
//!
//! ```text
//!   client A ──TCP──┐                  ┌─try_submit_frame─► MonitoringEngine
//!   client B ──TCP──┼──► reactor ──────┤                        │ subscribe()
//!   client N ──TCP──┘   (one I/O       │  outbound queues       ▼
//!            ◄──────────  thread) ◄────┴───────────────────── router
//!                        epoll/poll         (verdicts → owning connection)
//! ```
//!
//! Two threads serve any number of connections, each a thin **shell**
//! around a **core** that holds no socket, reads no clock and never calls
//! the engine: the shells alone poll, read, write, call `Instant::now()` and
//! touch the engine, and hand the cores bytes, outcomes and `now`.
//!
//! * The **reactor** (`drv-net-io`) owns every socket, nonblocking, driven
//!   by a readiness poller ([`reactor`](crate::reactor)), and is the one
//!   caller of [`MonitoringEngine::try_submit_frame`].  Each connection's
//!   protocol is a `ConnCore` (`conn.rs` states its rules): the shell feeds
//!   it bytes read, bytes written and engine capacity, and does what it
//!   asks — submit this batch, evict these objects, close.
//!
//!   A batch is ingested once.  The reactor hands the engine the batch it
//!   decoded together with the sealed frame it decoded it from, and a
//!   durable engine's journal appends that frame byte for byte
//!   ([`JournalSink::append_frame`](drv_engine::JournalSink::append_frame)):
//!   the server encodes no batch frame, and a served journal holds exactly
//!   the frames its clients sent.  Only an in-process producer's batch is
//!   encoded for the journal, once.
//! * The **router** (`drv-net-router`) owns the verdict subscription.  Its
//!   `RouterCore` (`router.rs`) forwards each verdict, in per-object order,
//!   to the connection that *owns* its object (the first to submit traffic
//!   for it) as run-compressed
//!   [`VerdictBatch`](crate::wire::FrameKind::VerdictBatch) frames, with
//!   one Credit frame per batch: credit returns with verdicts, so the
//!   window bounds a connection's events in flight end to end.  What does
//!   not fit a connection's bounded outbound queue stays pending until the
//!   reactor drains it; a queue still full past
//!   [`ServerConfig::with_stall_grace`] is a stalled consumer, cut so it
//!   cannot head-of-line block the fleet.  Only a push that made a queue
//!   non-empty wakes the reactor (`net_reactor_wake_skips` counts the rest).
//!
//! ## The router's wait states
//!
//! The router waits on the subscription until the earliest stall-clock
//! expiry, untimed while no consumer is stalled, so an idle server is
//! wakeup-silent (`net_router_wakeups` does not move).  A stall clock
//! starts at the first refused push of a pass, and a pass that makes
//! progress restarts it.  A drain that brought less than a frame's worth
//! opens a **coalescing window**: yield, poll again, and flush through the
//! first of three exits, each with its counter:
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
//! verdict latency the request→reply path instead of the window.
//!
//! Inside the window the router **yields, it never parks**.  A router that
//! blocks until "enough verdicts or quiescent" was built twice and cost
//! 8–10 % of `wide-batch256` throughput at an unchanged frame count: on one
//! CPU a sleeping router is woken *into* the worker's time slice, while one
//! that stays runnable and yields runs only when the others' slices end
//! (ROADMAP, "arrival-driven verdict path", has the numbers).
//!
//! ## Stats, disconnect and shutdown
//!
//! A Stats request is answered with the shared registry's snapshot.  A
//! connection that sends [`Shutdown`](crate::wire::Frame::Shutdown), or
//! disappears, has its objects evicted ([`MonitoringEngine::evict`]);
//! a Shutdown is answered with the server's own once the outbound queue is
//! flushed and no batch is parked.  [`MonitorServer::shutdown`] drains
//! every client the same way (a peer that never reads is cut after a grace
//! period), quiesces the engine and returns the full [`EngineReport`].

use crate::conn::{Actions, ConnCore, Env};
use crate::reactor::{waker_pair, Event, Poller, SysFd, WakeRx, Waker};
use crate::router::RouterCore;
use drv_consistency::ObjectMonitorFactory;
use drv_engine::{EngineConfig, EngineReport, MonitoringEngine, SubmitError, VerdictSubscription};
use drv_lang::{EventBatch, Verdict, VerdictBatch, WorkerPanic};
use drv_telemetry::Telemetry;
use parking_lot::Mutex;
use drv_lang::hash::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`MonitorServer`] (the engine itself is configured by
/// the [`EngineConfig`] passed alongside).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    pub(crate) window: u64,
    pub(crate) outbound: usize,
    pub(crate) verdict_chunk: usize,
    pub(crate) stall_grace: Duration,
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

struct ServerShared {
    engine: Arc<MonitoringEngine>,
    /// What the cores share; its `net_*` metrics live on the engine's
    /// registry, so one Stats reply carries the whole process.
    env: Arc<Env>,
    /// The engine's verdict stream.  The router is its one consumer; the
    /// reactor and `stop_threads` reach it only to end the router's wait
    /// (`wake` when outbound space frees, `close` on stop).
    subscription: VerdictSubscription,
    stopping: AtomicBool,
    /// Connections the router touched since the reactor last flushed —
    /// the wake channel's payload.
    dirty: Mutex<Vec<u64>>,
    /// True while any connection has a batch parked on `SubmitError::Full`.
    /// The engine's capacity hook reads it: freed capacity wakes the
    /// reactor only when something is actually waiting for it.
    parked_hint: AtomicBool,
    waker: Waker,
}

impl ServerShared {
    /// One submission: on `Full` the hint goes up *before* the
    /// double-check, so capacity freed between the two attempts is caught
    /// by the retry, and capacity freed after it fires the hook (which sees
    /// the hint and wakes the reactor).  No window loses the wake.
    fn submit(&self, batch: &EventBatch, frame: &[u8]) -> Result<(), SubmitError> {
        match self.engine.try_submit_frame(batch, frame) {
            Err(SubmitError::Full) => {
                self.parked_hint.store(true, Ordering::Release);
                self.engine.try_submit_frame(batch, frame)
            }
            outcome => outcome,
        }
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

/// A connection as the reactor holds it: a nonblocking socket and a core.
struct Conn {
    stream: TcpStream,
    core: ConnCore,
    /// The interest set currently registered in the poller.
    interest: (bool, bool),
}

/// The reactor shell: every socket call, and every submission a core asks for.
struct Reactor {
    shared: Arc<ServerShared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeRx,
    conns: HashMap<u64, Conn>,
    /// Connections with a batch parked on `Full`, retried on every wake.
    parked: HashSet<u64>,
    /// Copy of the poller's ready set (so the poller can be re-borrowed
    /// mutably while handling events).
    ready: Vec<Event>,
    scratch: Vec<u8>,
    next_conn: u64,
    stop_seen: Option<Instant>,
}

impl Reactor {
    fn new(shared: Arc<ServerShared>, listener: TcpListener, wake_rx: WakeRx) -> io::Result<Reactor> {
        let mut poller = Poller::new()?;
        poller.register(raw_fd(&listener), TOKEN_LISTENER, true, false)?;
        poller.register(wake_rx.fd(), TOKEN_WAKER, true, false)?;
        shared.env.m.reactor_fds.add(2);
        Ok(Reactor {
            shared,
            poller,
            listener,
            wake_rx,
            conns: HashMap::default(),
            parked: HashSet::default(),
            ready: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            next_conn: 0,
            stop_seen: None,
        })
    }

    fn run(mut self) {
        loop {
            if self.shared.stopping.load(Ordering::Acquire) && self.stop_seen.is_none() {
                self.begin_stop();
            }
            if self.stop_seen.is_some() && self.conns.is_empty() {
                break;
            }
            // Untimed until a stop: the waker covers router pushes, stop
            // requests and engine-capacity wakes for parked batches.
            let timeout = self.stop_seen.map(|_| Duration::from_millis(10));
            self.ready.clear();
            match self.poller.wait(timeout) {
                Ok(events) => self.ready.extend_from_slice(events),
                Err(_) => continue,
            }
            self.shared.env.m.reactor_wakeups.inc();
            for i in 0..self.ready.len() {
                let event = self.ready[i];
                self.shared.env.m.reactor_events.inc();
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
            let dirty: Vec<u64> = std::mem::take(&mut *self.shared.dirty.lock());
            for id in dirty {
                self.flush_conn(id);
                self.update_interest(id);
            }
            self.retry_parked();
            if self.parked.is_empty() {
                // Reactor-only write: parks (and the hint's rise) happen on
                // this thread, so clearing on quiescence cannot race a park.
                self.shared.parked_hint.store(false, Ordering::Release);
            }
            if self.stop_seen.is_some_and(|seen| seen.elapsed() > STOP_GRACE) {
                // Stragglers that never read their final frames: cut.
                let ids: Vec<u64> = self.conns.keys().copied().collect();
                for id in ids {
                    self.teardown(id);
                }
            }
        }
        let _ = self.poller.deregister(raw_fd(&self.listener));
        let _ = self.poller.deregister(self.wake_rx.fd());
        self.shared.env.m.reactor_fds.sub(2);
    }

    /// Stop requested: refuse new connections and start the clean drain of
    /// every live one (flush, server Shutdown frame, close — the same
    /// handshake a client-initiated Shutdown gets).
    fn begin_stop(&mut self) {
        self.stop_seen = Some(Instant::now());
        let _ = self.poller.deregister(raw_fd(&self.listener));
        self.shared.env.m.reactor_fds.sub(1);
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.core.begin_stop();
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
            let id = self.next_conn;
            self.next_conn += 1;
            if self
                .poller
                .register(raw_fd(&stream), id + CONN_TOKEN_BASE, true, false)
                .is_err()
            {
                continue;
            }
            let m = &self.shared.env.m;
            m.accepted.inc();
            m.active.add(1);
            m.reactor_fds.add(1);
            let core = ConnCore::new(id, Arc::clone(&self.shared.env));
            self.conns.insert(id, Conn { stream, core, interest: (true, false) });
            self.flush_conn(id);
            self.update_interest(id);
        }
    }

    /// Feeds one input to `id`'s core and carries out what it asks: each
    /// batch it hands over is submitted and the outcome fed back, then its
    /// evictions and its close.
    fn drive(&mut self, id: u64, input: impl FnOnce(&mut ConnCore, &mut Actions)) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let mut actions = Actions::default();
        input(&mut conn.core, &mut actions);
        while let Some(batch) = actions.submit.take() {
            let outcome = self.shared.submit(&batch, conn.core.frame());
            conn.core.on_submitted(batch, outcome, &mut actions);
        }
        for object in actions.evict {
            self.shared.engine.evict(object);
        }
        if conn.core.is_parked() {
            self.parked.insert(id);
        } else {
            self.parked.remove(&id);
        }
        if actions.close.is_some() {
            self.teardown(id);
        }
    }

    /// Reads until the socket runs dry, the core stops wanting bytes, or
    /// the fairness budget is spent.
    fn conn_readable(&mut self, id: u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for _ in 0..READ_BUDGET {
            let Some(conn) = self.conns.get_mut(&id) else { break };
            if !conn.core.wants_read() {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    self.teardown(id);
                    break;
                }
                Ok(n) => self.drive(id, |core, actions| core.on_bytes(&scratch[..n], actions)),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(id);
                    break;
                }
            }
        }
        self.scratch = scratch;
    }

    /// Retries every parked batch once (called on every reactor wake, the
    /// capacity hook's included).
    fn retry_parked(&mut self) {
        let ids: Vec<u64> = self.parked.iter().copied().collect();
        for id in ids {
            self.drive(id, ConnCore::on_engine_capacity);
            if !self.parked.contains(&id) {
                self.flush_conn(id);
                self.update_interest(id);
            }
        }
    }

    /// Writes as much of the outbound queue as the socket accepts, the
    /// queued frames coalesced into one buffer by the core; tears the
    /// connection down once the server's Shutdown is written, the peer is
    /// gone, or the router cut it as a stalled consumer.
    fn flush_conn(&mut self, id: u64) {
        let started = self.shared.env.tel.timer();
        let gone = loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.core.refill() {
                self.shared.subscription.wake();
            }
            if conn.core.is_over() {
                break true;
            }
            let unsent = conn.core.unsent();
            if unsent.is_empty() {
                break false;
            }
            match conn.stream.write(unsent) {
                Ok(0) => break true,
                Ok(n) => self.drive(id, |core, actions| core.on_flushed(n, actions)),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break false,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        let env = &self.shared.env;
        env.tel.observe(started, &env.m.socket_write_ns);
        if gone {
            self.teardown(id);
        }
    }

    /// Reconciles the poller's interest set with what the core wants.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let want = (conn.core.wants_read(), conn.core.wants_write());
        if want != conn.interest {
            conn.interest = want;
            let fd = raw_fd(&conn.stream);
            let _ = self.poller.reregister(fd, id + CONN_TOKEN_BASE, want.0, want.1);
        }
    }

    /// Retires a connection: poller deregistration, eviction of its
    /// objects, metric reconciliation, socket close.
    fn teardown(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else { return };
        self.parked.remove(&id);
        let _ = self.poller.deregister(raw_fd(&conn.stream));
        // Mid-stream disconnect or clean Shutdown alike: everything
        // received so far stays checked; the monitors are retired, their
        // verdicts stay in the report.  (After a client-initiated Shutdown
        // the object set is already spent and this evicts nothing.)
        for object in conn.core.release() {
            self.shared.engine.evict(object);
        }
        self.shared.env.m.active.sub(1);
        self.shared.env.m.reactor_fds.sub(1);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The router shell: waits on the verdict subscription, runs the
/// coalescing window's yields and polls, and hands every verdict, instant
/// and delivery pass to the [`RouterCore`].
fn router_loop(shared: &ServerShared) {
    let subscription = &shared.subscription;
    let mut core = RouterCore::new(Arc::clone(&shared.env));
    // One struct-of-arrays batch, reused across drains: the subscription
    // appends into it without allocating once its arrays reach steady-state
    // capacity.
    let mut batch: VerdictBatch<Verdict> = VerdictBatch::new();
    loop {
        batch.clear();
        // Idle is silent: all but a stall clock arrives through the
        // subscription — verdicts, the close on stop, the reactor's `wake`.
        let timeout = core
            .next_deadline()
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        subscription.wait_batch(timeout, &mut batch);
        shared.env.m.router_wakeups.inc();
        if !batch.is_empty() {
            // The coalescing window: yield (so a reactor that is mid-pass
            // submits first), read the backlog, poll — never park.
            let mut exit = core.open_window(batch.len(), Instant::now());
            let exit = loop {
                if let Some(exit) = exit {
                    break exit;
                }
                std::thread::yield_now();
                let backlog = shared.engine.backlog();
                let quiet = subscription.poll_batch(&mut batch) == 0 && backlog == 0;
                exit = core.poll_window(batch.len(), quiet, Instant::now());
            };
            core.on_verdicts(&batch, &shared.env.owners.lock(), exit);
        }
        // `stop_threads` closes the subscription once the engine has
        // drained; an aborted engine closes it itself.
        let closing = batch.is_empty() && subscription.is_closed();
        // Deliver hot while progress is being made, yielding so the reactor
        // drains between passes; a queue that refused a push ends the wait
        // above when the reactor drains it, or runs into its stall clock.
        loop {
            let tick = core.on_tick(Instant::now());
            if !core.touched.is_empty() {
                shared.dirty.lock().extend_from_slice(&core.touched);
                shared.waker.wake();
            }
            if !(tick.progressed && tick.backlog) {
                break;
            }
            std::thread::yield_now();
        }
        if closing {
            return;
        }
    }
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
        let env = Env::new(config, engine.interner().clone(), tel);
        let (waker, wake_rx) = waker_pair()?;
        let shared = Arc::new(ServerShared {
            engine,
            env: Arc::new(env),
            subscription,
            stopping: AtomicBool::new(false),
            dirty: Mutex::new(Vec::new()),
            parked_hint: AtomicBool::new(false),
            waker,
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
        let m = &self.shared.env.m;
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
        &self.shared.env.tel
    }

    /// The whole registry, rendered as Prometheus text exposition.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.shared.env.tel.snapshot().to_prometheus()
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
