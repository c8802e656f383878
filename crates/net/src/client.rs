//! [`MonitorClient`]: the connection half a monitored system embeds.
//!
//! The client owns a local payload arena ([`MonitorClient::interner`]) —
//! batches are built against it, encoded with a frame-local dictionary, and
//! re-interned into the *server's* arena on decode, so the two sides never
//! share id spaces.  Flow control is credit-based: the server grants a
//! window of events at connect time and re-grants as the engine accepts
//! batches; [`MonitorClient::send_batch`] blocks while the window is
//! exhausted (the remote engine is full), and [`MonitorClient::credit`]
//! tells a caller beforehand whether it would.  A background reader thread
//! processes everything the server pushes: credits update the window,
//! verdicts buffer for [`MonitorClient::poll_verdicts`] /
//! [`MonitorClient::wait_verdicts`], stats replies fill the
//! [`MonitorClient::stats`] slot.

use crate::reactor::FrameAssembler;
use crate::wire::{
    decode_frame, encode_shutdown, encode_stats_request, Frame, FrameEncoder, NackReason,
    WireError,
};
use drv_engine::VerdictEvent;
use drv_lang::{EventBatch, ObjectId, SharedInterner, Symbol};
use drv_telemetry::Snapshot;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a send failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or the connection was already torn down).
    Io(io::Error),
    /// The server closed the connection (shutdown frame, EOF, or a decode
    /// failure on our side).
    Closed,
    /// The batch is larger than the server's whole credit window and can
    /// never be sent — split it.
    BatchTooLarge {
        /// Events in the refused batch.
        len: u64,
        /// The server's announced window.
        window: u64,
    },
    /// A protocol-level failure with a typed cause — most notably
    /// [`WireError::Timeout`] when a deadline from [`ClientConfig`]
    /// expired (e.g. a server that accepted the connection but never sent
    /// its opening credit grant).
    Wire(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o: {err}"),
            ClientError::Closed => f.write_str("connection closed"),
            ClientError::BatchTooLarge { len, window } => {
                write!(f, "batch of {len} events exceeds the {window}-event window")
            }
            ClientError::Wire(err) => write!(f, "wire: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// Deadlines for [`MonitorClient::connect_with`].  The default has none —
/// identical to [`MonitorClient::connect`] — so every bound is opt-in.
///
/// ```no_run
/// use drv_net::{ClientConfig, MonitorClient};
/// use std::time::Duration;
///
/// let config = ClientConfig::new()
///     .with_connect_timeout(Duration::from_secs(2))
///     .with_handshake_timeout(Duration::from_secs(2));
/// let client = MonitorClient::connect_with("10.0.0.7:4400", config);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    connect_timeout: Option<Duration>,
    handshake_timeout: Option<Duration>,
}

impl ClientConfig {
    /// No deadlines (the [`MonitorClient::connect`] behaviour).
    #[must_use]
    pub fn new() -> Self {
        ClientConfig::default()
    }

    /// Bounds the TCP connection establishment itself (clamped ≥ 1 ms).
    /// Expiry surfaces as [`ClientError::Io`] with
    /// [`io::ErrorKind::TimedOut`].
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout.max(Duration::from_millis(1)));
        self
    }

    /// Bounds the wait for the server's opening credit grant (clamped
    /// ≥ 1 ms).  A wedged server — one that accepts the socket but never
    /// speaks — previously blocked the first `send_batch` forever; with
    /// this deadline `connect_with` fails up front with
    /// [`ClientError::Wire`]\([`WireError::Timeout`]\).
    #[must_use]
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = Some(timeout.max(Duration::from_millis(1)));
        self
    }
}

/// A NACK the server sent (credit overrun or oversized batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nack {
    /// The refused batch.
    pub batch_id: u64,
    /// Why it was refused.
    pub reason: NackReason,
    /// The violated bound, in events.
    pub detail: u64,
}

struct CreditState {
    available: u64,
    /// The server's announced total window; 0 until the first grant.
    window: u64,
}

/// The latest Stats reply and how many have arrived.  A reply carries no
/// request id, but the server answers a connection's frames in order, so
/// the `n`-th reply answers the `n`-th request.
struct StatsSlot {
    latest: Option<Box<Snapshot>>,
    replies: u64,
}

struct ClientShared {
    credit: Mutex<CreditState>,
    credit_signal: Condvar,
    verdicts: Mutex<VecDeque<VerdictEvent>>,
    verdict_signal: Condvar,
    stats: Mutex<StatsSlot>,
    stats_signal: Condvar,
    nacks: Mutex<Vec<Nack>>,
    closed: AtomicBool,
    /// Set when the server completed the clean shutdown handshake.
    server_shutdown: AtomicBool,
    arena: SharedInterner,
}

impl ClientShared {
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        {
            let _credit = self.credit.lock();
            self.credit_signal.notify_all();
        }
        {
            let _verdicts = self.verdicts.lock();
            self.verdict_signal.notify_all();
        }
        let _stats = self.stats.lock();
        self.stats_signal.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// The background reader: reassembles frames from whatever chunk sizes the
/// transport delivers ([`FrameAssembler`]) and dispatches them into the
/// shared state.  Its read blocks untimed; [`MonitorClient`]'s `Drop`
/// unblocks it with `shutdown(Both)`.
fn reader_loop(shared: &ClientShared, mut stream: TcpStream) {
    let mut assembler = FrameAssembler::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        // Drain every complete frame before touching the socket again.
        loop {
            let decoded = match assembler.next_frame() {
                Ok(Some(raw)) => decode_frame(raw, &shared.arena),
                Ok(None) => break,
                Err(err) => Err(err),
            };
            match decoded {
                Ok((Frame::Credit { grant, window }, _)) => {
                    let mut credit = shared.credit.lock();
                    credit.available += grant;
                    credit.window = window;
                    shared.credit_signal.notify_all();
                }
                Ok((Frame::VerdictBatch(events), _)) => {
                    shared.verdicts.lock().extend(events);
                    shared.verdict_signal.notify_all();
                }
                Ok((Frame::Stats(reply), _)) => {
                    let mut slot = shared.stats.lock();
                    slot.latest = Some(reply);
                    slot.replies += 1;
                    shared.stats_signal.notify_all();
                }
                Ok((Frame::Nack { batch_id, reason, detail }, _)) => {
                    shared.nacks.lock().push(Nack { batch_id, reason, detail });
                }
                Ok((Frame::Shutdown, _)) => {
                    shared.server_shutdown.store(true, Ordering::Release);
                    shared.close();
                    return;
                }
                Ok((
                    Frame::Batch(_) | Frame::StatsRequest | Frame::Evict { .. }
                    | Frame::Checkpoint(_),
                    _,
                ))
                | Err(_) => {
                    // Client-bound streams never carry these (the last two
                    // are journal-file record kinds); treat like a broken
                    // connection.
                    shared.close();
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                shared.close();
                return;
            }
            Ok(n) => assembler.feed(&chunk[..n]),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                shared.close();
                return;
            }
        }
    }
}

/// A connection to a [`MonitorServer`](crate::MonitorServer).  See the
/// module docs for the credit and verdict flows.
pub struct MonitorClient {
    stream: TcpStream,
    shared: Arc<ClientShared>,
    reader: Option<JoinHandle<()>>,
    encoder: FrameEncoder,
    next_batch_id: u64,
    /// Stats requests written so far.
    stats_requests: u64,
}

impl MonitorClient {
    /// Connects to a monitoring server with no deadlines: establishment
    /// and the opening handshake block for as long as the OS lets them.
    /// Use [`MonitorClient::connect_with`] to bound either.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::new()).map_err(|err| match err {
            ClientError::Io(err) => err,
            other => io::Error::other(other.to_string()),
        })
    }

    /// [`MonitorClient::connect`] with deadlines: bounds connection
    /// establishment and the opening credit handshake per `config`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (including a connect
    /// deadline expiring, as [`io::ErrorKind::TimedOut`]);
    /// [`ClientError::Wire`]\([`WireError::Timeout`]\) when the server
    /// accepted the connection but sent no opening credit grant within the
    /// handshake deadline; [`ClientError::Closed`] when the server hung up
    /// mid-handshake.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                // connect_timeout takes one concrete address: try each
                // resolution, keeping the last failure.
                let mut last: Option<io::Error> = None;
                let mut connected: Option<TcpStream> = None;
                for candidate in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(err) => last = Some(err),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
        };
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone()?;
        let shared = Arc::new(ClientShared {
            credit: Mutex::new(CreditState { available: 0, window: 0 }),
            credit_signal: Condvar::new(),
            verdicts: Mutex::new(VecDeque::new()),
            verdict_signal: Condvar::new(),
            stats: Mutex::new(StatsSlot { latest: None, replies: 0 }),
            stats_signal: Condvar::new(),
            nacks: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            server_shutdown: AtomicBool::new(false),
            arena: SharedInterner::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("drv-net-client-reader".to_string())
                .spawn(move || reader_loop(&shared, reader_stream))
                .expect("spawning the client reader")
        };
        let client = MonitorClient {
            stream,
            shared,
            reader: Some(reader),
            encoder: FrameEncoder::new(),
            next_batch_id: 0,
            stats_requests: 0,
        };
        if let Some(timeout) = config.handshake_timeout {
            // The server speaks first (the opening Credit announces the
            // window); a peer that accepted but stays silent past the
            // deadline is wedged.  Dropping `client` tears the socket down
            // and reaps the reader.
            let deadline = Instant::now() + timeout;
            let mut credit = client.shared.credit.lock();
            while credit.window == 0 && !client.shared.is_closed() {
                let now = Instant::now();
                if now >= deadline {
                    drop(credit);
                    return Err(ClientError::Wire(WireError::Timeout {
                        millis: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                    }));
                }
                client.shared.credit_signal.wait_for(&mut credit, deadline - now);
            }
            if credit.window == 0 {
                drop(credit);
                return Err(ClientError::Closed);
            }
        }
        Ok(client)
    }

    /// The client-side payload arena: build [`EventBatch`]es against this
    /// (e.g. via [`EventBatch::push_symbol`]) before sending them.  The
    /// handle is a cheap clone sharing the same arena.
    #[must_use]
    pub fn interner(&self) -> SharedInterner {
        self.shared.arena.clone()
    }

    /// `(available, window)` credit in events; `window` is 0 until the
    /// server's first grant arrives.
    #[must_use]
    pub fn credit(&self) -> (u64, u64) {
        let credit = self.shared.credit.lock();
        (credit.available, credit.window)
    }

    /// Whether the connection is down (server shutdown, EOF, or transport
    /// failure).  Buffered verdicts remain pollable.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    /// NACKs received so far (drained).  A client that only sends within
    /// its credit never receives any.
    #[must_use]
    pub fn take_nacks(&self) -> Vec<Nack> {
        std::mem::take(&mut *self.shared.nacks.lock())
    }

    /// Sends one batch, blocking while credit is insufficient (the remote
    /// engine's backpressure).  Returns the batch id.
    ///
    /// # Errors
    ///
    /// [`ClientError::BatchTooLarge`] when the batch exceeds the server's
    /// whole window; [`ClientError::Closed`] when the connection died while
    /// waiting; [`ClientError::Io`] on transport failure.
    pub fn send_batch(&mut self, batch: &EventBatch) -> Result<u64, ClientError> {
        let needed = batch.len() as u64;
        if needed > 0 {
            let mut credit = self.shared.credit.lock();
            // Untimed: every grant and `ClientShared::close` notify the
            // signal under the credit lock, so neither can slip past.
            self.shared.credit_signal.wait_while(&mut credit, |credit| {
                !self.shared.is_closed()
                    && (credit.window == 0
                        || (needed <= credit.window && credit.available < needed))
            });
            if self.shared.is_closed() {
                return Err(ClientError::Closed);
            }
            if needed > credit.window {
                return Err(ClientError::BatchTooLarge { len: needed, window: credit.window });
            }
            credit.available -= needed;
        }
        let frame = self
            .encoder
            .encode_batch(self.next_batch_id, batch, &self.shared.arena);
        self.next_batch_id += 1;
        self.stream.write_all(&frame)?;
        Ok(self.next_batch_id - 1)
    }

    /// The rolling-batch producer loop, packaged: interns `events` into
    /// batches of `batch_size` against this client's arena and sends each.
    /// Returns the number of batches sent.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MonitorClient::send_batch`] failure.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn send_stream(
        &mut self,
        events: &[(ObjectId, Symbol)],
        batch_size: usize,
    ) -> Result<u64, ClientError> {
        assert!(batch_size > 0, "a batch must cover at least one event");
        let arena = self.interner();
        let mut batch = EventBatch::with_capacity(batch_size.min(events.len()));
        let mut sent = 0;
        for (object, symbol) in events {
            batch.push_symbol(*object, symbol, &arena);
            if batch.len() == batch_size {
                self.send_batch(&batch)?;
                sent += 1;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            self.send_batch(&batch)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Drains every buffered verdict without blocking.
    #[must_use]
    pub fn poll_verdicts(&self) -> Vec<VerdictEvent> {
        self.shared.verdicts.lock().drain(..).collect()
    }

    /// Blocks until at least one verdict is buffered (then drains all), the
    /// connection closes, or `timeout` elapses.
    #[must_use]
    pub fn wait_verdicts(&self, timeout: Duration) -> Vec<VerdictEvent> {
        let mut verdicts = self.shared.verdicts.lock();
        if verdicts.is_empty() && !self.shared.is_closed() {
            self.shared.verdict_signal.wait_while_for(
                &mut verdicts,
                |verdicts| verdicts.is_empty() && !self.shared.is_closed(),
                timeout,
            );
        }
        verdicts.drain(..).collect()
    }

    /// Requests a stats snapshot and waits up to `timeout` for the reply:
    /// the server's entire telemetry registry (engine, net and store
    /// metrics), decoded off the versioned Stats payload.  Two replies
    /// subtract with [`Snapshot::delta`].  The reply returned is the one
    /// to this call's request: a reply to an earlier call that timed out
    /// is skipped when it arrives late.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`]\([`WireError::Timeout`]\) when the connection
    /// is live but the reply did not arrive within `timeout`;
    /// [`ClientError::Closed`] when the connection died first — including
    /// on a reply whose payload version this client does not speak, which
    /// kills the connection with a typed
    /// [`WireError::BadStatsVersion`](crate::wire::WireError::BadStatsVersion)
    /// on the reader; [`ClientError::Io`] when the request could not be
    /// written.
    pub fn stats(&mut self, timeout: Duration) -> Result<Snapshot, ClientError> {
        self.stream.write_all(&encode_stats_request())?;
        self.stats_requests += 1;
        let mut slot = self.shared.stats.lock();
        self.shared.stats_signal.wait_while_for(
            &mut slot,
            |slot| slot.replies < self.stats_requests && !self.shared.is_closed(),
            timeout,
        );
        if slot.replies >= self.stats_requests {
            if let Some(reply) = slot.latest.take() {
                return Ok(*reply);
            }
        }
        if self.shared.is_closed() {
            return Err(ClientError::Closed);
        }
        Err(ClientError::Wire(WireError::Timeout {
            millis: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
        }))
    }

    /// The clean goodbye: sends a Shutdown frame (the server evicts this
    /// connection's objects and answers with its own Shutdown) and waits
    /// for the handshake to complete.  Verdicts still buffered locally can
    /// be polled off the returned flag's shared state beforehand — drain
    /// with [`MonitorClient::poll_verdicts`] *before* calling this if the
    /// tail matters.
    ///
    /// # Errors
    ///
    /// The write error, when even the goodbye could not be sent.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stream.write_all(&encode_shutdown())?;
        self.stream.flush()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(())
    }
}

impl Drop for MonitorClient {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            // Unblock the reader (it may be mid-read) and reap it.
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            let _ = reader.join();
        }
    }
}

impl fmt::Debug for MonitorClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (available, window) = self.credit();
        f.debug_struct("MonitorClient")
            .field("peer", &self.stream.peer_addr().ok())
            .field("credit", &available)
            .field("window", &window)
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Regression: a server that accepts the TCP connection but never
    /// sends its opening credit grant used to wedge the client forever
    /// (the first `send_batch` waited on a window that never came).  The
    /// handshake deadline turns that into an up-front typed timeout.
    #[test]
    fn mute_listener_times_out_with_a_typed_error() {
        // No accept() needed: the kernel backlog completes the handshake,
        // and nothing ever speaks on the socket.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let config = ClientConfig::new()
            .with_connect_timeout(Duration::from_secs(5))
            .with_handshake_timeout(Duration::from_millis(200));
        let started = Instant::now();
        let err = MonitorClient::connect_with(addr, config)
            .expect_err("a mute server must not yield a usable client");
        assert!(
            matches!(err, ClientError::Wire(WireError::Timeout { millis: 200 })),
            "expected the typed handshake timeout, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the deadline was not honoured"
        );
    }
}
