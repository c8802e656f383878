//! # drv-spec
//!
//! Sequential object specifications for distributed runtime verification.
//!
//! The correctness properties studied in the paper (linearizability,
//! sequential consistency, eventual consistency) are all defined *relative to
//! a sequential object*: a state machine with an initial state and a
//! deterministic transition function mapping `(state, invocation)` to
//! `(state', response)`.  This crate provides the [`SequentialSpec`] trait and
//! the concrete objects used by the paper:
//!
//! * [`Register`] — read/write register (Example 1),
//! * [`Counter`] — `inc()`/`read()` counter (Example 3),
//! * [`Ledger`] — `append(r)`/`get()` ledger (Examples 2 and 4, after \[3\]),
//! * [`Queue`] and [`Stack`] — the objects for which \[17\] proved the original
//!   strong-decidability impossibility.
//!
//! All objects are *total* (every operation can be invoked in every state),
//! which is the only assumption the paper needs for the language `LIN_O`
//! (Section 6.2, footnote 3).
//!
//! ```
//! use drv_spec::{Register, SequentialSpec};
//! use drv_lang::{Invocation, Response};
//!
//! let reg = Register::new();
//! let s0 = reg.initial();
//! let (s1, r1) = reg.apply(&s0, &Invocation::Write(4)).unwrap();
//! assert_eq!(r1, Response::Ack);
//! let (_, r2) = reg.apply(&s1, &Invocation::Read).unwrap();
//! assert_eq!(r2, Response::Value(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod ledger;
pub mod queue;
pub mod register;
pub mod sequential;
pub mod stack;

pub use counter::Counter;
pub use ledger::Ledger;
pub use queue::Queue;
pub use register::Register;
pub use sequential::{
    is_legal_sequential_word, run_invocations, SequentialSpec, SpecObject, ValidationError,
};
pub use stack::Stack;
