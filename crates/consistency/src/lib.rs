//! # drv-consistency
//!
//! Consistency checkers and the distributed languages of Table 1 of
//! *"Asynchronous Fault-Tolerant Language Decidability for Runtime
//! Verification of Distributed Systems"* (Castañeda & Rodríguez, PODC 2025).
//!
//! The crate provides:
//!
//! * [`ConcurrentHistory`] — the operation-level view of a finite word,
//! * [`check_history`] — a Wing–Gong style search deciding linearizability
//!   (real-time respecting) or sequential consistency (program order only)
//!   against any [`drv_spec::SequentialSpec`],
//! * eventual-consistency checkers for the weak/strong eventual counter and
//!   the eventually-consistent ledger ([`eventual`]),
//! * the seven Table 1 languages as [`drv_lang::Language`] implementations
//!   ([`languages`]),
//! * the streaming per-object monitor surface a monitoring engine consumes
//!   ([`ObjectMonitor`] / [`ObjectMonitorFactory`], [`stream`]) with the
//!   checker-backed [`CheckerMonitorFactory`].
//!
//! ```
//! use drv_consistency::{is_linearizable, languages::lin_reg};
//! use drv_lang::{Language, WordBuilder, ProcId, Invocation, Response};
//! use drv_spec::Register;
//!
//! let word = WordBuilder::new()
//!     .op(ProcId(0), Invocation::Write(3), Response::Ack)
//!     .op(ProcId(1), Invocation::Read, Response::Value(3))
//!     .build();
//! assert!(is_linearizable(&Register::new(), &word, 2));
//! assert!(lin_reg(2).accepts_prefix(&word));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod eventual;
pub mod history;
pub mod incremental;
pub mod languages;
mod search;
pub mod stream;

pub use checker::{
    check_history, check_linearizable, check_sequentially_consistent, is_linearizable,
    is_sequentially_consistent, validate_witness, CheckerConfig, ConsistencyResult, Witness,
};
pub use eventual::{
    check_ec_ledger, check_ec_ledger_eventual, check_ec_ledger_validity, check_sec_count,
    check_sec_realtime, check_wec_count, check_wec_eventual, check_wec_safety,
};
pub use history::{ConcurrentHistory, HistoryDelta, InternedHistory};
pub use incremental::{CheckOutcome, CheckerStats, CheckpointError, IncrementalChecker};
pub use languages::{
    ec_led, lin_led, lin_queue, lin_reg, lin_stack, sc_led, sc_reg, sec_count, table1_languages,
    wec_count, EcLedger, Linearizable, SecCounter, SequentiallyConsistent, WecCounter,
};
pub use stream::{
    CheckerMonitorFactory, CheckerObjectMonitor, ObjectMonitor, ObjectMonitorFactory, RestoreError,
    RoutingMonitorFactory,
};
