//! # drv-store
//!
//! Crash-durable monitoring for the PODC 2025 runtime-verification stack:
//! an **append-only, CRC-framed event journal**, **checkpointed checker
//! state**, and **replay-identical recovery**.
//!
//! A monitoring run accumulates verdict history that a crash would
//! otherwise erase.  This crate makes the [`MonitoringEngine`] restartable
//! without changing a single verdict:
//!
//! * **Journal** ([`Store`], [`journal`]) — every accepted submission
//!   (after backpressure: refused frames are never journaled) is appended
//!   write-ahead to one file as [`drv_lang::frame`] frames — the same
//!   16-byte header + CRC-32 framing `drv-net` sends over TCP, reusing its
//!   torn-input hardening wholesale.  A served batch is journaled as the
//!   very frame its client sent; an in-process batch is encoded once, by
//!   the engine.
//!   Fsync policy is [`FsyncPolicy`]: `Always` / `EveryN` / `Never`.
//! * **Checkpoints** — workers periodically write what each object's
//!   incremental checker gained since its previous checkpoint (symbols,
//!   witness tail, stats — see
//!   `drv_consistency::IncrementalChecker::checkpoint_delta`) into the
//!   journal, so a checkpoint costs its interval, not the object's history,
//!   and recovery's replay is bounded by the post-checkpoint suffix.
//!   Retired objects write a tombstone record so recovery retires them at
//!   the same position instead of resurrecting them.
//! * **Recovery** ([`recover()`], [`serve_durable`]) — open the journal,
//!   truncate the torn tail at the first bad CRC, seed an engine with each
//!   object's checkpoint chain folded into one monitor, replay the suffix
//!   through the batched submit path, and re-attach the journal.  The
//!   merged verdict stream is **bit-identical** to an uninterrupted run —
//!   with original `seq` numbers, so a reconnected client resumes from its
//!   cursor (`tests/recovery_differential.rs` crashes a run at every
//!   journal offset and proves it against `sequential_reference`).
//!
//! ```no_run
//! use drv_consistency::CheckerMonitorFactory;
//! use drv_engine::EngineConfig;
//! use drv_store::{recover, StoreConfig};
//! use drv_spec::Register;
//! use std::sync::Arc;
//!
//! // First run and every restart look the same: recover() is just
//! // "new + journaling" when the path is fresh.
//! let recovery = recover(
//!     "/var/lib/drv/monitor.journal",
//!     StoreConfig::new(),
//!     EngineConfig::new(4),
//!     Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 4)),
//! )
//! .expect("journal opens");
//! let report = recovery.engine.finish().expect("no worker panicked");
//! # let _ = report;
//! ```
//!
//! [`MonitoringEngine`]: drv_engine::MonitoringEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod journal;
pub mod recover;

pub use error::StoreError;
pub use journal::{
    decode_checkpoint_record, encode_checkpoint_record, scan_journal, CheckpointRecord,
    FsyncPolicy, JournalRecord, ScanResult, Store, StoreConfig, StoreStats,
};
pub use recover::{
    recover, recover_with, serve_durable, serve_durable_with, Recovery, RecoveryStats,
};
