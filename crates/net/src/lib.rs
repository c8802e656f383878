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
//! Linux, `poll(2)` on other unix; see [`reactor`]) — and one router thread
//! fans verdicts out.  An idle server makes no syscalls and spins nothing.
//! Partial reads reassemble in a [`FrameAssembler`] whose buffer grows
//! with *bytes received*, never with lengths claimed;
//! output goes through bounded per-connection outbound queues, and a queue
//! that stays full past [`ServerConfig::with_stall_grace`] marks a stalled
//! consumer, disconnected rather than allowed to head-of-line block the
//! rest.  Both threads are shells around socket-free, clock-free cores (see
//! [`server`]).
//!
//! ## The wire format ([`wire`])
//!
//! Length-prefixed, CRC-checked frames — Batch, Credit, Nack, Stats,
//! Shutdown, VerdictBatch — whose layouts [`wire`] documents; it is
//! [`drv_lang::frame`], which `drv-store` writes as its journal: a durable
//! server journals each batch frame as it arrived.  Decoding a
//! batch interns each distinct payload once, straight into the engine's
//! arena; verdicts travel back run-compressed, grouped by object (per-object
//! `seq` order is the only delivery contract).  Malformed, truncated,
//! corrupted or oversized input decodes to a typed [`WireError`] — never a
//! panic, never an allocation sized by unvalidated input
//! (`tests/wire_fuzz.rs`).
//!
//! ## The backpressure protocol
//!
//! Flow control is *credit-based*, in events, and each connection's rules
//! are one state machine, the server's `ConnCore`.  A connection opens with
//! a window `W` ([`ServerConfig::with_window`]), a batch consumes its event
//! count, and credit returns **with the verdicts**, so the window bounds a
//! connection's submitted-but-unchecked events end to end.  A full engine
//! therefore never turns into unbounded buffering: grants dry up, the
//! client stalls, and `ConnCore` parks the connection's one in-flight batch
//! until the engine's capacity hook wakes the reactor (no retry polling;
//! `tests/parked_wakeups.rs`).  A batch over the remaining credit gets a
//! `Nack` *before* touching the engine, so per-object order survives
//! refusals.
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
mod conn;
pub mod reactor;
mod router;
pub mod server;
pub use drv_lang::frame as wire;

pub use client::{ClientConfig, ClientError, MonitorClient, Nack};
pub use server::{MonitorServer, ServerConfig, ServerStats};
pub use wire::{Frame, FrameAssembler, FrameKind, NackReason, WireBatch, WireError};
