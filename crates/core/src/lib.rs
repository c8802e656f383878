//! # drv-core
//!
//! The primary contribution of *"Asynchronous Fault-Tolerant Language
//! Decidability for Runtime Verification of Distributed Systems"*
//! (Castañeda & Rodríguez, PODC 2025), as an executable library: distributed
//! monitors that decide distributed languages in an asynchronous, wait-free,
//! crash-tolerant shared-memory system.
//!
//! The crate provides:
//!
//! * [`monitor`] — the generic monitor structure of Figure 1
//!   ([`Monitor`] / [`MonitorFamily`]),
//! * [`runtime`] — the deterministic execution runtime that plays the timing
//!   half of the adversary (round-robin, seeded-random, phase-scripted and
//!   word-scripted schedules; plain A or timed Aτ interaction),
//! * [`trace`] / [`verdict`] — execution traces x(E) and verdict streams,
//! * [`decidability`] — the decidability notions SD, WAD, WOD, WD, PSD, PWD
//!   (Definitions 4.1–4.4, 6.1, 6.2) as finite-run evaluators, plus generic
//!   P-decidability (Definition 5.1),
//! * [`monitors`] — the paper's algorithms: Figure 5 (`WEC_COUNT`), Figure 8
//!   (`V_O` for `LIN_O`/`SC_O`), Figure 9 (`SEC_COUNT`), their 3-valued
//!   variants (Section 7), and ablation baselines,
//! * [`transform`] — the stability transformations of Figures 2–4
//!   (Lemmas 4.1–4.3),
//! * [`impossibility`] — the executable forms of the impossibility proofs
//!   (Lemmas 5.1, 5.2, 6.2, 6.5) built from indistinguishable execution
//!   pairs,
//! * [`threaded`] — a real-thread runtime showing the monitors also work
//!   under OS concurrency, outside the deterministic simulator,
//! * [`alphabet`] ([`SymbolSampler`]), [`shuffle`] and [`oblivious`] — the
//!   seeded invocation sampler, the shuffle operator of Definition 5.2 and
//!   the real-time obliviousness test of Definition 5.3 (Theorem 5.2).
//!
//! ## Quick start
//!
//! ```
//! use drv_core::decidability::{Decider, Notion};
//! use drv_core::monitors::WecCountFamily;
//! use drv_core::runtime::{run, RunConfig, Schedule};
//! use drv_adversary::AtomicObject;
//! use drv_consistency::languages::wec_count;
//! use drv_core::SymbolSampler;
//! use drv_lang::ObjectKind;
//! use drv_spec::Counter;
//! use std::sync::Arc;
//!
//! // Run the Figure 5 monitor against a correct (atomic) counter.
//! let config = RunConfig::new(3, 40)
//!     .with_schedule(Schedule::Random { seed: 1 })
//!     .with_sampler(SymbolSampler::new(ObjectKind::Counter))
//!     .stop_mutators_after(20);
//! let trace = run(&config, &WecCountFamily::new(), Box::new(AtomicObject::new(Counter::new())));
//!
//! // The run is a member of WEC_COUNT and the monitor's verdicts satisfy
//! // weak decidability.
//! let decider = Decider::new(Arc::new(wec_count()));
//! assert!(decider.evaluate(&trace, Notion::Weak).unwrap().holds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod decidability;
pub mod impossibility;
pub mod monitor;
pub mod monitors;
pub mod oblivious;
pub mod runtime;
pub mod shuffle;
pub mod stream;
pub mod threaded;
pub mod trace;
pub mod transform;
pub mod verdict;

pub use alphabet::SymbolSampler;
pub use decidability::{Decider, Evaluation, Notion};
pub use monitor::{ConstantFamily, Monitor, MonitorFamily};
pub use oblivious::{oblivious_counterexample, ObliviousReport, ObliviousnessTester};
pub use runtime::{run, RunConfig, Schedule};
pub use shuffle::{enumerate_shuffles, is_interleaving_of, random_shuffle, Shuffle};
pub use stream::{
    CheckerMonitorFactory, CheckerObjectMonitor, FamilyMonitorFactory, FamilyObjectMonitor,
    ObjectMonitor, ObjectMonitorFactory, RestoreError, RoutingMonitorFactory,
};
pub use threaded::{run_threaded, try_run_threaded, ThreadedConfig, WorkerPanic};
pub use trace::{AdversaryMode, ExecutionTrace};
pub use verdict::{Report, Verdict, VerdictStream};
