//! # drv-net
//!
//! The network subsystem: events over sockets, verdicts back.  Everything
//! the repo monitored before this crate originated in-process; `drv-net`
//! adds the missing distributed edge — a binary wire format for
//! [`EventBatch`](drv_lang::EventBatch)es, a TCP [`MonitorServer`] over the
//! service-mode [`MonitoringEngine`](drv_engine::MonitoringEngine), and the
//! [`MonitorClient`] a monitored system embeds.  Std-only: `std::net`
//! sockets driven by a hand-rolled readiness [`reactor`], no external
//! dependencies.
//!
//! ## The reactor (one I/O thread, any number of connections)
//!
//! The server's thread count is **flat**: one reactor thread owns every
//! socket — nonblocking, multiplexed by a readiness poller (`epoll` on
//! Linux, `poll(2)` on other unix; see [`reactor`]) — and one router
//! thread fans verdicts out.  Three rules define the event loop:
//!
//! * **Readiness loop** — the reactor sleeps in the poller until a socket
//!   has bytes, a peer connects, or the waker fires (the router queued
//!   output, or shutdown was requested).  An idle server makes no
//!   syscalls and spins nothing.
//! * **Reassembly buffers** — TCP delivers arbitrary chunks, so each
//!   connection accumulates partial reads in a
//!   [`FrameAssembler`](reactor::FrameAssembler); a frame is decoded
//!   (bounds-checked, straight into the engine's arena) only once its
//!   declared length has fully arrived, and the buffer grows with *bytes
//!   received*, never with lengths merely claimed.
//! * **Write-interest rules** — output goes through bounded
//!   per-connection outbound queues drained by the reactor; a socket is
//!   registered for write-readiness only while unflushed output exists.
//!   A queue that stays full past the grace period
//!   ([`ServerConfig::with_stall_grace`]) marks a stalled consumer: it is
//!   disconnected (a `stalled_disconnects` eviction) rather than allowed
//!   to head-of-line block every other connection or buffer unboundedly.
//!
//! ## The wire format ([`wire`])
//!
//! Length-prefixed, CRC-checked frames:
//!
//! ```text
//!  ┌──────────── header, 16 bytes ────────────┐┌── payload ──┐
//!  │ magic  version kind  reserved  len   crc ││ kind-specific│
//!  │ u32    u8      u8    u16       u32   u32 ││ bytes        │
//!  └──────────────────────────────────────────┘└──────────────┘
//!  kinds: Batch · Credit · Nack · Stats · Shutdown · VerdictBatch
//! ```
//!
//! A `Batch` payload carries the struct-of-arrays rows of an `EventBatch`
//! plus a dictionary of the *distinct* invocation/response payloads the
//! rows reference.  **The arena-interning rule:** decoding interns each
//! dictionary entry exactly once into the interner it is handed — the
//! server passes the engine's own arena, so a decoded batch is directly
//! submittable and a payload repeated across a million events is interned
//! once, not a million times.
//!
//! Verdicts travel the other way as `VerdictBatch` frames: a *run table*
//! of `(object, base_seq, len)` entries plus 5-byte `(tag, index)` rows,
//! so a run of consecutive same-object verdicts costs one table entry
//! instead of repeating the 16-byte `(object, seq)` pair per row.  The
//! router stably groups each frame's rows by object before encoding —
//! per-object `seq` order is the only delivery contract, and grouping is
//! what makes the runs maximal.
//!
//! Malformed, truncated, corrupted or oversized input decodes to a typed
//! [`WireError`] — never a panic, never an allocation sized by
//! unvalidated input (`tests/wire_fuzz.rs`).
//!
//! ## The backpressure protocol
//!
//! Flow control is *credit-based*, in events: the server opens each
//! connection with a window `W` ([`ServerConfig::with_window`]), a batch
//! consumes its event count, and credit returns **with the verdicts** (one
//! event per verdict delivered to the owning connection) — the window
//! bounds a connection's submitted-but-unchecked events end to end.  The
//! engine's [`SubmitError::Full`](drv_engine::SubmitError::Full) therefore
//! never turns into unbounded server-side buffering: a full engine stops
//! producing verdicts, grants dry up, and the client stalls while the
//! server holds exactly one in-flight batch per connection — parked
//! wakeup-silent until the engine's capacity hook wakes the reactor (no
//! retry polling; `tests/parked_wakeups.rs` asserts zero wakeups across a
//! parked window).  A client that overruns its window gets a `Nack` and
//! the batch is dropped *before* touching the engine, so per-object order
//! survives refusals.
//!
//! ## End-to-end order
//!
//! Per-object verdict streams over the wire are bit-identical to an
//! in-process [`sequential_reference`](drv_engine::sequential_reference)
//! run: TCP preserves the client's batch order, the reactor reassembles
//! and submits frames in arrival order, the engine's shards are
//! per-object FIFO, the router forwards the subscription to the owning
//! connection keeping each object's verdicts in seq order (frames may
//! group rows by object — grouping, never reordering within an object),
//! and the outbound queue drains FIFO.  `tests/differential.rs` proves it
//! at 1/2/4 workers × batch 1/16/256, under forced credit stalls and
//! mid-stream disconnects, over both verdict framings.
//!
//! ## Quick start (loopback)
//!
//! ```
//! use drv_consistency::CheckerMonitorFactory;
//! use drv_engine::EngineConfig;
//! use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, Symbol};
//! use drv_net::{MonitorClient, MonitorServer, ServerConfig};
//! use drv_spec::Register;
//! use std::sync::Arc;
//!
//! let server = MonitorServer::bind(
//!     ("127.0.0.1", 0),
//!     EngineConfig::new(2).with_max_pending(1024),
//!     Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
//!     ServerConfig::new(),
//! )
//! .expect("bind loopback");
//!
//! let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
//! let arena = client.interner();
//! let mut batch = EventBatch::new();
//! batch.push_symbol(ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Write(7)), &arena);
//! batch.push_symbol(ObjectId(1), &Symbol::respond(ProcId(0), Response::Ack), &arena);
//! client.send_batch(&batch).expect("send");
//!
//! let mut verdicts = Vec::new();
//! while verdicts.len() < 2 {
//!     verdicts.extend(client.wait_verdicts(std::time::Duration::from_secs(5)));
//! }
//! assert!(verdicts.iter().all(|event| event.verdict.is_yes()));
//! client.shutdown().expect("clean goodbye");
//! let report = server.shutdown().expect("no worker panicked");
//! assert_eq!(report.aggregate().yes, 1);
//! ```

// Unsafe is denied everywhere except the reactor's syscall shim
// (`reactor::sys`), the one module that must speak FFI to reach
// poll/epoll — std exposes no readiness API.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, MonitorClient, Nack};
pub use reactor::FrameAssembler;
pub use server::{MonitorServer, ServerConfig, ServerStats};
pub use wire::{Frame, FrameKind, NackReason, WireBatch, WireError};
