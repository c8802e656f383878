//! Facade crate for the distributed runtime-verification workspace.
//!
//! ## Architecture map
//!
//! ```text
//!               the event path (one EventBatch model end-to-end)
//!
//!   monitored system ──MonitorClient──TCP──► MonitorServer       [net]
//!        │  (or in-process)                       │
//!        │            one readiness reactor thread (epoll/poll)
//!        │            multiplexes every connection: incremental
//!        │            frame reassembly in, write-interest-driven
//!        │            bounded outbound queues back — connections
//!        │            are poller registrations, not threads
//!        ▼                                        ▼
//!   EventBatch (arena-backed rows)     [lang]  submit_batch
//!        │                                        │
//!        ▼                                        ▼
//!   MonitoringEngine (shards + work-stealing pool)           [engine]
//!        │      ▲ └──► append-only journal + checkpoints      [store]
//!        │      └──── recover(): checkpoint seed + replay
//!        │ per-object ObjectMonitor state machines      [consistency]
//!        ▼
//!   IncrementalChecker (LIN/SC, Wing–Gong fallback)      [consistency]
//!        │ against SequentialSpec objects                      [spec]
//!        ▼
//!   VerdictBatch (struct-of-arrays)                            [lang]
//!        │ workers flush each drained batch's verdicts as one
//!        │ slice per subscription; the router drains them with
//!        │ wait_batch and ships run-compressed VerdictBatch
//!        │ wire frames (credit granted per batch)
//!        ▼
//!   verdict streams → batched subscriptions / VerdictBatch frames / report
//!
//!   cross-cutting: one shared Telemetry registry           [telemetry]
//!   (striped counters/gauges, log2 latency histograms)
//!   fed by engine (engine_*), net (net_*) and store (store_*);
//!   exported as a Stats wire frame, Prometheus text, or a snapshot
//!   hook — and zero-overhead-when-idle: the default passive handle
//!   never reads the clock.
//!
//!   stage cells: one log2 histogram per server-side stage, recorded
//!   on every occurrence by an instrumented handle, read off the Stats
//!   frame (client_send has none: the client holds no registry)
//!     decode          net_decode_ns            reactor
//!     journal_append  store_append_ns          store
//!     fsync           store_fsync_ns           store
//!     queue_wait      engine_queue_wait_ns     worker, per shard claim
//!     check           engine_check_ns          worker, 1 in 16 runs
//!     verdict_flush   engine_verdict_flush_ns  worker
//!     verdict_route   net_verdict_route_ns     router, per verdict frame
//!     socket_write    net_socket_write_ns      reactor
//!
//!   the served crates (net, store, engine) build on lang, consistency,
//!   spec and telemetry only; the paper's simulator stays off that line:
//!   monitors and runtime [core] (its family adapter plugs into the
//!   engine through ObjectMonitorFactory) · adversary scripts
//!   [adversary] · shared-memory substrate [shmem] · ABD message-passing
//!   sim [abd] (bridged onto the wire by bench::stream_abd) · benches
//!   [bench]
//! ```
//!
//! Re-exports the crates of the workspace under one name so integration
//! tests, examples and downstream users can depend on a single package:
//!
//! * [`lang`] — distributed alphabets, words, histories, languages, the
//!   interned [`EventBatch`](crate::lang::EventBatch) /
//!   [`VerdictBatch`](crate::lang::VerdictBatch) interchange types and
//!   the wire payload codec ([`lang::wire`](crate::lang::wire)),
//! * [`spec`] — sequential object specifications,
//! * [`consistency`] — linearizability / sequential-consistency checkers
//!   (including the incremental engine), the Table 1 languages, and the
//!   streaming [`ObjectMonitor`](crate::consistency::ObjectMonitor) surface
//!   an engine consumes,
//! * [`shmem`] — the shared-memory substrate (registers, snapshots, logs),
//! * [`adversary`] — the adversaries A and Aτ plus behaviours,
//! * [`core`] — monitors, runtime, decidability notions, impossibilities,
//!   and the adapter that runs the paper's monitor families as engine
//!   monitors ([`FamilyMonitorFactory`](crate::core::FamilyMonitorFactory)),
//! * [`engine`] — the sharded multi-object streaming monitoring engine
//!   with its work-stealing checker pool,
//! * [`net`] — the network subsystem: wire-format `EventBatch` frames in,
//!   run-compressed `VerdictBatch` frames back, the TCP
//!   [`MonitorServer`](crate::net::MonitorServer) over the service-mode
//!   engine (a std-only readiness reactor — one I/O thread plus one router
//!   thread serve any number of connections), the
//!   [`MonitorClient`](crate::net::MonitorClient),
//! * [`store`] — the durability subsystem: append-only CRC-framed event
//!   journal, checkpointed checker state, and replay-identical crash
//!   recovery ([`store::recover`](crate::store::recover) /
//!   [`store::serve_durable`](crate::store::serve_durable)),
//! * [`telemetry`] — the observability subsystem: the sharded
//!   allocation-free metrics registry
//!   ([`Counter`](crate::telemetry::Counter) /
//!   [`Gauge`](crate::telemetry::Gauge) /
//!   [`Histogram`](crate::telemetry::Histogram)) and the snapshot /
//!   Prometheus exporters — engine, net and store all record into one shared
//!   [`Telemetry`](crate::telemetry::Telemetry) handle,
//! * [`abd`] — the ABD message-passing port,
//! * [`bench`] — the Table 1 reproduction harness, the live ABD bridge
//!   ([`stream_abd`](crate::bench::stream_abd)) and the `drvbench`
//!   end-to-end benchmark.
//!
//! ## Quick start: monitoring many objects at once
//!
//! ```
//! use drv::consistency::CheckerMonitorFactory;
//! use drv::engine::{EngineConfig, MonitoringEngine};
//! use drv::lang::{Invocation, ObjectId, ProcId, Response, Symbol};
//! use drv::spec::Register;
//! use std::sync::Arc;
//!
//! // Four workers, one incremental LIN checker per object.
//! let engine = MonitoringEngine::new(
//!     EngineConfig::new(4),
//!     Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
//! );
//! for object in 0..100 {
//!     engine.submit(ObjectId(object), &Symbol::invoke(ProcId(0), Invocation::Write(1)));
//!     engine.submit(ObjectId(object), &Symbol::respond(ProcId(0), Response::Ack));
//! }
//! let report = engine.finish().expect("no worker panicked");
//! assert_eq!(report.aggregate().yes, 100);
//! ```

#![forbid(unsafe_code)]

pub use drv_abd as abd;
pub use drv_adversary as adversary;
pub use drv_bench as bench;
pub use drv_consistency as consistency;
pub use drv_core as core;
pub use drv_engine as engine;
pub use drv_lang as lang;
pub use drv_net as net;
pub use drv_shmem as shmem;
pub use drv_spec as spec;
pub use drv_store as store;
pub use drv_telemetry as telemetry;
