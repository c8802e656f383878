//! # drv-lang
//!
//! Distributed alphabets, words, concurrent histories and distributed
//! languages, following Section 2 of *"Asynchronous Fault-Tolerant Language
//! Decidability for Runtime Verification of Distributed Systems"*
//! (Castañeda & Rodríguez, PODC 2025).
//!
//! A *distributed alphabet* Σ is the union of `n ≥ 2` disjoint local alphabets
//! Σ₁, …, Σₙ, each split into invocation symbols Σ<ᵢ and response symbols Σ>ᵢ.
//! A *word* over Σ models a concurrent history where invocations to and
//! responses from a distributed service are interleaved; a *distributed
//! language* is a set of well-formed ω-words, i.e. a correctness property of
//! the service under inspection.
//!
//! This crate provides:
//!
//! * [`ProcId`], [`Invocation`], [`Response`], [`Symbol`] — the concrete
//!   distributed alphabet used by the paper's examples (registers, counters,
//!   ledgers, plus queues and stacks mentioned in related work),
//! * [`Word`] — finite words / prefixes of ω-words, with well-formedness
//!   checking (Definition 2.1), local projections, and builders,
//! * [`Operation`] and [`operations`] — matched invocation/response pairs with
//!   the real-time precedence (`≺`) and concurrency (`‖`) relations,
//! * [`Language`] — the distributed-language abstraction (Definition 2.2) with
//!   a finitary, cut-based reading of eventual ("Büchi-style") properties,
//! * [`wire`] — the bounds-checked binary codec for [`Invocation`] /
//!   [`Response`] payloads (the dictionary entries of batch frames),
//! * [`frame`] — the CRC-checked frame codec that `drv-net` speaks over
//!   sockets and `drv-store` writes as its journal,
//! * [`hash`] — the keyed hasher of every map the served path keys by
//!   object ids or payloads,
//! * [`Verdict`] — the value a monitor reports (Figure 1, line 06), and
//!   [`WorkerPanic`], the attributed death of a worker thread: the two items
//!   the served pipeline and the paper's simulator both speak; and
//!   [`VerdictEvent`], one delivered verdict of the served pipeline.
//!
//! ## Unsafe code
//!
//! The crate denies `unsafe` everywhere but one call: [`frame::crc32`]'s
//! dispatch to its carry-less-multiplication kernel, a
//! `#[target_feature(enable = "pclmulqdq,sse4.1")]` function that may only
//! be called once the CPU has reported both features, which the line before
//! it checks (`is_x86_feature_detected!`).  The kernel itself is safe code:
//! its intrinsics are safe inside such a function, and it loads bytes through
//! bounds-checked slices, not pointers.  Every frame on the wire and in the
//! journal is sealed and verified through that one function, so the kernel
//! is where checksum time goes.
//!
//! ## Example
//!
//! ```
//! use drv_lang::{ProcId, Invocation, Response, Word};
//!
//! // p1 writes 7, then p2 reads 7: a linearizable register history.
//! let mut w = Word::new();
//! w.invoke(ProcId(0), Invocation::Write(7));
//! w.respond(ProcId(0), Response::Ack);
//! w.invoke(ProcId(1), Invocation::Read);
//! w.respond(ProcId(1), Response::Value(7));
//! assert!(w.check_well_formed_prefix().is_ok());
//! assert_eq!(w.operations().len(), 2);
//! ```

// Unsafe is denied everywhere except `frame::crc32`'s one call into its
// carry-less-multiplication kernel, after the CPU feature check.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod batch;
pub mod frame;
pub mod hash;
pub mod intern;
pub mod language;
pub mod operation;
pub mod symbol;
pub mod verdict;
pub mod wire;
pub mod word;
pub mod worker;

pub use alphabet::ObjectKind;
pub use batch::{EventAction, EventBatch, EventRecord, VerdictBatch};
pub use intern::{
    Interner, InternerReadGuard, InvocationId, OpRecord, ResponseId, SharedInterner,
    INLINE_VALUE_LIMIT,
};
pub use language::{Complement, Intersection, Language, RunVerdict, Union};
pub use operation::{operations, OpId, Operation, OperationSet, Ordering as OpOrdering};
pub use symbol::{Action, Invocation, ObjectId, ProcId, Record, Response, Symbol};
pub use verdict::{Verdict, VerdictEvent};
pub use wire::CodecError;
pub use word::{LocalWord, WellFormedError, Word, WordBuilder};
pub use worker::WorkerPanic;
