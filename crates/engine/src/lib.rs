//! # drv-engine
//!
//! A sharded, multi-object **streaming monitoring engine**: the paper's
//! per-object monitors (Castañeda & Rodríguez, PODC 2025), served at
//! production scale.
//!
//! The monitors of `drv-core` decide one distributed language for one
//! object; a real service multiplexes thousands of objects over one event
//! firehose.  [`MonitoringEngine`] accepts that firehose — invocation and
//! response symbols tagged with an [`ObjectId`](drv_lang::ObjectId) — routes
//! each object to a shard by hash, and runs the shards' monitor state
//! machines on a work-stealing pool of worker threads, emitting an ordered
//! verdict stream per object plus an aggregated engine-level verdict
//! ([`EngineReport::aggregate`]).
//!
//! What runs per object is pluggable through
//! [`drv_consistency::ObjectMonitorFactory`]:
//!
//! * [`drv_consistency::CheckerMonitorFactory`] — a long-lived incremental
//!   `LIN_O`/`SC_O` checker per object, or
//! * `drv-core`'s `FamilyMonitorFactory` — any of the paper's
//!   `MonitorFamily` algorithms (`WEC_COUNT`, `V_O`, `SEC_COUNT`, …),
//!   unchanged; the engine itself does not depend on `drv-core`.
//!
//! **Determinism is the acceptance bar:** per-object streams are FIFO and a
//! shard is owned by at most one worker at a time, so the verdict streams
//! are bit-identical to a sequential per-object run whatever the worker
//! count — `tests/differential.rs` proves it against
//! [`sequential_reference`] on hundreds of seeded multi-object streams, at
//! every prefix, for both criteria.
//!
//! **Shell and core.**  [`engine`] is the shell: the worker pool, the shard
//! queues and stealing, parking, backpressure, subscriptions and the
//! telemetry registry — every lock, thread and clock read.  The private
//! `shard` module is the core: a shard's object slots and what one claim
//! does to them (grouping, runs, checkpoint cadence, `seq`s, retirement);
//! it holds no lock, thread or clock, so its tests need no worker.
//!
//! The engine is built to run **always-on**, not just batch-style: idle
//! workers park *untimed* on an epoch-ticketed condvar (zero wakeups while
//! idle — no timed polling), ingestion is bounded
//! ([`EngineConfig::with_max_pending`]: blocking
//! [`MonitoringEngine::submit_batch`] or non-blocking
//! [`MonitoringEngine::try_submit_batch`], or
//! [`MonitoringEngine::try_submit_frame`] for a batch decoded from a wire
//! frame, whose bytes the journal keeps), verdicts stream live through bounded
//! [`VerdictSubscription`] channels ([`MonitoringEngine::subscribe`]), and
//! quiesced objects are retired by an in-queue marker
//! ([`MonitoringEngine::evict`]), which drops the monitor and its checker
//! history; the object's slot keeps its verdict stream, and later traffic
//! meets a fresh monitor on it.  A marker adds no verdict and is the only
//! mid-run retirement, so a verdict stream holds one verdict per event and
//! is a function of the submitted events and markers alone.  See
//! [`service`] for the channel semantics and `tests/service.rs` for the
//! acceptance gates.
//!
//! ## The batched event path
//!
//! One event model runs end-to-end: producers intern traffic into an
//! [`EventBatch`] — an arena-backed, struct-of-arrays
//! batch of `Copy` [`EventRecord`]s whose payloads
//! live in the engine's [`SharedInterner`](drv_lang::SharedInterner) arena
//! ([`MonitoringEngine::interner`]) — and hand whole batches to
//! [`MonitoringEngine::submit_batch`] /
//! [`MonitoringEngine::try_submit_batch`] ([`MonitoringEngine::submit`] is
//! a batch of one).  A batch is scattered across the
//! shards in **one routing pass** (one queue lock per touched shard, order
//! preserved, so per-object FIFO — and therefore verdict bit-identity —
//! holds at any batch size), its backpressure is reserved in *events* up
//! front, and the pool is published to with **one** `work_epoch` bump and
//! one notify per batch instead of one per event.  Worker-side, the core
//! feeds each object's events of a claim to its monitor as one
//! [`drv_consistency::ObjectMonitor::on_records`] run.
//!
//! **Arena lifetime rules.**  Payload ids are only meaningful relative to
//! the arena that produced them: build batches against the target engine's
//! [`MonitoringEngine::interner`].  It is the engine's only arena: every
//! monitor is created on it
//! ([`drv_consistency::ObjectMonitorFactory::create_in`]),
//! so an id goes from the decoded frame to the checker's witness unchanged.
//! It is append-only and lives as long as the engine or its last monitor,
//! so a batch never dangles.  A monitor holds a read guard on it only inside
//! one `on_records` call, never across a delivery, a journal append or a
//! blocking wait, so a producer interning a new payload waits at most for
//! the monitor calls in flight.
//!
//! Each event still maps 1:1 to one iteration of the paper's Figure 1 loop
//! — a batch is a *window* of iterations delivered together, not a
//! coarser-grained check: verdict streams carry one verdict per event at
//! every batch size (`tests/differential.rs` and `tests/service.rs` loop
//! over workers {1, 2, 4} × batch sizes {1, 256} to prove it).
//!
//! ```
//! use drv_consistency::CheckerMonitorFactory;
//! use drv_engine::{EngineConfig, MonitoringEngine};
//! use drv_lang::{Invocation, ObjectId, ProcId, Response, Symbol};
//! use drv_spec::Register;
//! use std::sync::Arc;
//!
//! let engine = MonitoringEngine::new(
//!     EngineConfig::new(4),
//!     Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
//! );
//! for object in 0..100 {
//!     engine.submit(ObjectId(object), &Symbol::invoke(ProcId(0), Invocation::Write(object)));
//!     engine.submit(ObjectId(object), &Symbol::respond(ProcId(0), Response::Ack));
//! }
//! let report = engine.finish().expect("no worker panicked");
//! assert_eq!(report.aggregate().yes, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod report;
pub mod service;
mod shard;

pub use engine::{sequential_reference, EngineConfig, MonitoringEngine};
pub use journal::{JournalSink, RecoveredObject};
pub use report::{AggregateVerdict, EngineReport, EngineStats, ObjectReport};
pub use service::{SubmitError, VerdictSubscription};

// The event interchange types live in `drv-lang` (one model from ingestion
// to checker); re-exported here for producer convenience.
pub use drv_lang::{EventAction, EventBatch, EventRecord, VerdictEvent};
