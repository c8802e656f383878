//! The readiness core of the server: a std-only poller over `epoll(7)` /
//! `poll(2)`, a cross-thread waker, and the incremental [`FrameAssembler`].
//!
//! In the same offline-compat-shim spirit as `crates/compat`, the kernel
//! interface is a hand-declared sliver of the C ABI (`mod sys`) rather than
//! a dependency: `epoll_create1` / `epoll_ctl` / `epoll_wait` on Linux,
//! POSIX `poll(2)` elsewhere on unix (and on Linux when
//! `DRV_NET_FORCE_POLL=1`, so CI exercises both backends), and a degraded
//! everything-always-ready tick poller on non-unix targets so the crate
//! still compiles there.  The `unsafe` in this crate is confined to that
//! module — four foreign calls with fixed-size arguments — and the rest of
//! the crate stays `deny(unsafe_code)`.
//!
//! The [`FrameAssembler`] is the read half of the reactor contract: sockets
//! are nonblocking, so a frame arrives in as many partial reads as the
//! kernel felt like; the assembler accumulates raw bytes, validates the
//! 16-byte header as soon as it is complete (so a malformed or oversized
//! claim is a typed [`WireError`] *before* any payload buffering), and
//! yields whole frames zero-copy for [`decode_frame_capped`] to intern
//! straight into the engine arena.  It never allocates from a *claimed*
//! length — its buffer only ever holds bytes the peer actually sent.
//!
//! [`decode_frame_capped`]: crate::wire::decode_frame_capped

use crate::wire::{parse_header, WireError, HEADER_LEN};
use std::io;
use std::time::Duration;

/// The raw descriptor type the poller speaks (`c_int` on unix; a dummy on
/// targets where the fallback poller ignores it).
pub(crate) type SysFd = i32;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable — or in an error/hang-up state the next `read` will surface.
    pub readable: bool,
    /// Writable — or in an error state the next `write` will surface.
    pub writable: bool,
}

// ---------------------------------------------------------------------------
// sys: the hand-declared C ABI sliver (the crate's only unsafe code).
// ---------------------------------------------------------------------------

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::SysFd;
    use std::io;
    use std::os::raw::c_int;

    /// `struct pollfd` — POSIX, identical layout everywhere we run.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: SysFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over a slice; `timeout_ms < 0` blocks.
    pub fn sys_poll(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: the pointer/length pair comes from a live slice, and
        // `PollFd` is the exact `struct pollfd` layout.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use super::SysFd;
        use std::io;
        use std::os::raw::c_int;

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const CTL_ADD: c_int = 1;
        pub const CTL_DEL: c_int = 2;
        pub const CTL_MOD: c_int = 3;
        const EPOLL_CLOEXEC: c_int = 0o200_0000;

        /// `struct epoll_event` — packed on x86-64, natural elsewhere
        /// (the kernel ABI quirk every epoll binding carries).
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        pub fn create() -> io::Result<SysFd> {
            // SAFETY: no pointers; the flag is the kernel's CLOEXEC constant.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(fd)
            }
        }

        pub fn ctl(epfd: SysFd, op: c_int, fd: SysFd, events: u32, data: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` is a live, correctly-laid-out epoll_event;
            // the kernel copies it before the call returns (DEL ignores it
            // but pre-2.6.9 kernels demand it be non-null, so pass it
            // unconditionally).
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut event) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub fn wait(epfd: SysFd, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
            // SAFETY: pointer/length from a live slice the kernel fills.
            let rc = unsafe {
                epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
            };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(rc as usize)
            }
        }

        pub fn close_fd(fd: SysFd) {
            // SAFETY: the poller owns this descriptor; closing at drop.
            unsafe {
                close(fd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Poller: one readiness multiplexer, three backends.
// ---------------------------------------------------------------------------

enum Backend {
    /// `epoll(7)`: O(ready) wakeups — the Linux production path.  It stays
    /// beside `poll(2)` because `poll(2)` measured no faster (`drvbench`'s
    /// 1-event-frame `paced-batch1` on two connections: behind on verdict
    /// latency p75 and CPU per event in most pairs, see PERF.md), and
    /// `poll(2)`'s wait scans every registered descriptor, a cost that
    /// grows with the connection count.
    #[cfg(target_os = "linux")]
    Epoll { epfd: SysFd, buf: Vec<sys::epoll::EpollEvent> },
    /// `poll(2)`: O(registered) per wait — portable unix, and the Linux
    /// differential backend under `DRV_NET_FORCE_POLL=1`.
    #[cfg(unix)]
    Poll {
        entries: Vec<(SysFd, u64, i16)>,
        scratch: Vec<sys::PollFd>,
    },
    /// Degraded non-unix fallback: every registered token reports ready on
    /// a short tick; nonblocking sockets turn that into a 2 ms scan loop.
    #[allow(dead_code)]
    Tick { tokens: Vec<u64> },
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            // Round sub-millisecond timeouts up: 0 would busy-spin.
            let ms = if t.as_millis() == 0 && !t.is_zero() { 1 } else { t.as_millis() };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// A readiness multiplexer: register descriptors under integer tokens, wait
/// for readable/writable reports.  Level-triggered on every backend.
pub(crate) struct Poller {
    backend: Backend,
    events: Vec<Event>,
}

impl Poller {
    /// Picks the best backend for the platform (see [`Poller::backend_name`]).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if std::env::var_os("DRV_NET_FORCE_POLL").is_none_or(|v| v != "1") {
                let epfd = sys::epoll::create()?;
                return Ok(Poller {
                    backend: Backend::Epoll {
                        epfd,
                        buf: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 1024],
                    },
                    events: Vec::new(),
                });
            }
        }
        #[cfg(unix)]
        {
            Ok(Poller {
                backend: Backend::Poll { entries: Vec::new(), scratch: Vec::new() },
                events: Vec::new(),
            })
        }
        #[cfg(not(unix))]
        {
            Ok(Poller { backend: Backend::Tick { tokens: Vec::new() }, events: Vec::new() })
        }
    }

    /// Which backend this poller runs on: `"epoll"`, `"poll"` or `"tick"`.
    /// A diagnostic accessor (tests assert the selection logic; keep it
    /// available for debugging even though the hot path never asks).
    #[allow(dead_code)]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            #[cfg(unix)]
            Backend::Poll { .. } => "poll",
            Backend::Tick { .. } => "tick",
        }
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: SysFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                sys::epoll::ctl(*epfd, sys::epoll::CTL_ADD, fd, epoll_mask(readable, writable), token)
            }
            #[cfg(unix)]
            Backend::Poll { entries, .. } => {
                entries.push((fd, token, poll_mask(readable, writable)));
                Ok(())
            }
            Backend::Tick { tokens } => {
                let _ = (fd, readable, writable);
                tokens.push(token);
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already-registered descriptor.
    pub fn reregister(&mut self, fd: SysFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                sys::epoll::ctl(*epfd, sys::epoll::CTL_MOD, fd, epoll_mask(readable, writable), token)
            }
            #[cfg(unix)]
            Backend::Poll { entries, .. } => {
                if let Some(entry) = entries.iter_mut().find(|(entry_fd, ..)| *entry_fd == fd) {
                    entry.1 = token;
                    entry.2 = poll_mask(readable, writable);
                }
                Ok(())
            }
            Backend::Tick { .. } => Ok(()),
        }
    }

    /// Removes a descriptor (call *before* closing it).
    pub fn deregister(&mut self, fd: SysFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => sys::epoll::ctl(*epfd, sys::epoll::CTL_DEL, fd, 0, 0),
            #[cfg(unix)]
            Backend::Poll { entries, .. } => {
                entries.retain(|(entry_fd, ..)| *entry_fd != fd);
                Ok(())
            }
            Backend::Tick { .. } => Ok(()),
        }
    }

    /// Blocks until readiness or `timeout` (`None` = forever), returning
    /// the ready set.  An interrupted wait returns an empty set.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[Event]> {
        self.events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, buf } => {
                use sys::epoll::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
                let n = match sys::epoll::wait(*epfd, buf, timeout_ms(timeout)) {
                    Ok(n) => n,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => 0,
                    Err(err) => return Err(err),
                };
                for raw in buf.iter().take(n) {
                    // Copy out of the (possibly packed) kernel struct.
                    let mask = raw.events;
                    let token = raw.data;
                    self.events.push(Event {
                        token,
                        readable: mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                        writable: mask & (EPOLLOUT | EPOLLERR) != 0,
                    });
                }
            }
            #[cfg(unix)]
            Backend::Poll { entries, scratch } => {
                use sys::{POLLERR, POLLHUP, POLLIN, POLLOUT};
                scratch.clear();
                scratch.extend(entries.iter().map(|(fd, _, events)| sys::PollFd {
                    fd: *fd,
                    events: *events,
                    revents: 0,
                }));
                match sys::sys_poll(scratch, timeout_ms(timeout)) {
                    Ok(_) => {}
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {
                        return Ok(&self.events);
                    }
                    Err(err) => return Err(err),
                }
                for (slot, (_, token, _)) in scratch.iter().zip(entries.iter()) {
                    let mask = slot.revents;
                    if mask != 0 {
                        self.events.push(Event {
                            token: *token,
                            readable: mask & (POLLIN | POLLHUP | POLLERR) != 0,
                            writable: mask & (POLLOUT | POLLERR) != 0,
                        });
                    }
                }
            }
            Backend::Tick { tokens } => {
                // Bounded nap, then report everything ready: correctness
                // without readiness on targets that have neither API.
                std::thread::sleep(timeout.unwrap_or(Duration::from_millis(2)).min(Duration::from_millis(2)));
                self.events.extend(tokens.iter().map(|token| Event {
                    token: *token,
                    readable: true,
                    writable: true,
                }));
            }
        }
        Ok(&self.events)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            sys::epoll::close_fd(*epfd);
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(readable: bool, writable: bool) -> u32 {
    use sys::epoll::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    let mut mask = 0;
    if readable {
        mask |= EPOLLIN | EPOLLRDHUP;
    }
    if writable {
        mask |= EPOLLOUT;
    }
    mask
}

#[cfg(unix)]
fn poll_mask(readable: bool, writable: bool) -> i16 {
    let mut mask = 0;
    if readable {
        mask |= sys::POLLIN;
    }
    if writable {
        mask |= sys::POLLOUT;
    }
    mask
}

// ---------------------------------------------------------------------------
// Waker: wake the reactor from another thread (router pushes, shutdown).
// ---------------------------------------------------------------------------

/// The write half of the reactor's wake channel (a nonblocking socketpair
/// byte on unix).  Wakes coalesce: a full pipe already means a pending
/// wake, so the lost write is free.
pub(crate) struct Waker {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
}

/// The read half, registered in the poller under the reactor's wake token.
pub(crate) struct WakeRx {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

/// Builds the wake channel.  On non-unix targets both halves are inert —
/// the tick poller's bounded nap stands in for wakeups.
pub(crate) fn waker_pair() -> io::Result<(Waker, WakeRx)> {
    #[cfg(unix)]
    {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeRx { rx }))
    }
    #[cfg(not(unix))]
    {
        Ok((Waker {}, WakeRx {}))
    }
}

impl Waker {
    /// Wakes the reactor; never blocks, never fails.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

impl WakeRx {
    /// The descriptor to register under the wake token.
    #[cfg(unix)]
    pub fn fd(&self) -> SysFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    #[cfg(not(unix))]
    pub fn fd(&self) -> SysFd {
        -1
    }

    /// Consumes every pending wake byte (level-triggered registration).
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            loop {
                match (&self.rx).read(&mut sink) {
                    Ok(0) => return,
                    Ok(_) => {}
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FrameAssembler: partial reads → whole frames, header-validated early.
// ---------------------------------------------------------------------------

/// Incremental frame reassembly for nonblocking reads.
///
/// Feed raw socket bytes with [`FrameAssembler::feed`]; pull complete
/// frames with [`FrameAssembler::next_frame`].  The 16-byte header is
/// validated the moment it is complete, so a bad magic, unknown kind or
/// oversized length claim is a typed [`WireError`] before a single payload
/// byte is buffered — and the internal buffer is only ever sized by bytes
/// *actually received*, never by a length field (the no
/// input-driven-over-allocation contract, fuzzed in
/// `tests/wire_fuzz.rs`).
///
/// ```
/// use drv_net::reactor::FrameAssembler;
/// use drv_net::wire::encode_shutdown;
///
/// let frame = encode_shutdown();
/// let mut assembler = FrameAssembler::new();
/// // Byte-at-a-time delivery: no frame until the last byte lands.
/// for byte in &frame[..frame.len() - 1] {
///     assembler.feed(std::slice::from_ref(byte));
///     assert!(assembler.next_frame().expect("valid prefix").is_none());
/// }
/// assembler.feed(&frame[frame.len() - 1..]);
/// assert_eq!(assembler.next_frame().expect("valid frame"), Some(frame.as_slice()));
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of the unconsumed region of `buf`.
    pos: usize,
    /// Total frame length (header + payload) once the header validated.
    need: Option<usize>,
    /// Feeds so far (the reassembly clock for the spread metric).
    feeds: u64,
    /// The feed count when the current frame's first byte became visible.
    frame_start: Option<u64>,
    last_spread: u64,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact consumed space before growing: steady state keeps the
        // buffer at roughly one frame plus one read chunk.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.feeds += 1;
    }

    /// The next complete frame, if one is buffered: `Ok(Some(frame))`
    /// borrows the raw header+payload bytes (decode before the next call),
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// The header's [`WireError`] — the stream is unframeable from here on
    /// (resynchronising on a byte stream is guessing), so the caller should
    /// tear the connection down.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let available = self.buf.len() - self.pos;
        if self.frame_start.is_none() && available > 0 {
            self.frame_start = Some(self.feeds);
        }
        if self.need.is_none() {
            if available < HEADER_LEN {
                return Ok(None);
            }
            let header_bytes: &[u8; HEADER_LEN] = self.buf[self.pos..self.pos + HEADER_LEN]
                .try_into()
                .expect("length checked");
            let header = parse_header(header_bytes)?;
            self.need = Some(HEADER_LEN + header.len as usize);
        }
        let need = self.need.expect("just ensured");
        if available < need {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += need;
        self.need = None;
        self.last_spread = self
            .feeds
            .saturating_sub(self.frame_start.take().unwrap_or(self.feeds))
            + 1;
        Ok(Some(&self.buf[start..start + need]))
    }

    /// How many `feed` calls the most recent frame spanned (1 = it arrived
    /// whole) — the partial-read reassembly spread, exported as the
    /// `net_reactor_reassembly_reads` histogram.
    #[must_use]
    pub fn last_spread(&self) -> u64 {
        self.last_spread
    }

    /// Bytes currently buffered and not yet consumed as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The buffer's allocated capacity — exposed so the fuzz suite can
    /// assert allocation tracks *received* bytes, never claimed lengths.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poller_reports_a_known_backend() {
        let poller = Poller::new().expect("a poller on every supported platform");
        assert!(
            ["epoll", "poll", "tick"].contains(&poller.backend_name()),
            "unknown backend: {}",
            poller.backend_name()
        );
    }

    #[test]
    fn waker_wakes_and_coalesces() {
        let (waker, rx) = waker_pair().expect("socket pair");
        // Many wakes must collapse into at least one readable byte and
        // never an error, even with the pipe saturated.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut poller = Poller::new().expect("poller");
        poller.register(rx.fd(), 7, true, false).expect("register");
        let events = poller.wait(Some(std::time::Duration::from_secs(5))).expect("wait");
        assert!(events.iter().any(|event| event.token == 7 && event.readable));
        rx.drain();
    }
}
