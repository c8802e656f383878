//! # drv-bench
//!
//! The experiment harness of the repository: regenerates Table 1 of
//! *"Asynchronous Fault-Tolerant Language Decidability for Runtime
//! Verification of Distributed Systems"* (Castañeda & Rodríguez, PODC 2025).
//! Its two benches are plain `main`s: `incremental` times the incremental
//! checker against from-scratch checking and writes `BENCH_checker.json`
//! (`cargo bench -p drv-bench --bench incremental`), and `crc32` times the
//! frame checksum in ns per byte (`cargo bench -p drv-bench --bench crc32`).
//!
//! * [`table1`] — the cell-by-cell reproduction of Table 1
//!   ([`reproduce_table1`]), also exposed as the `table1` binary:
//!   `cargo run -p drv-bench --bin table1 --release`.
//! * [`witnesses`] — the Appendix A / Theorem 5.2 witness words used by the
//!   characterization experiments.
//! * [`abd_bridge`] — a live ABD message-passing simulation streamed through
//!   a `drv-net` client as it runs ([`stream_abd`]).
//!
//! ```no_run
//! use drv_bench::{reproduce_table1, Table1Config};
//!
//! let report = reproduce_table1(&Table1Config::quick());
//! println!("{report}");
//! assert!(report.matches_paper());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abd_bridge;
pub mod table1;
pub mod witnesses;

pub use abd_bridge::{reference_stream, stream_abd, BridgeReport};
pub use table1::{
    reproduce_table1, time_object_cells, time_object_cells_with_engine, CellResult,
    ObjectCellTiming, Table1Config, Table1Report,
};
pub use witnesses::{appendix_a_ledger_witness, counter_witness, register_witness};
