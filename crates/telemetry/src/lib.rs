//! Zero-overhead-when-idle observability for the monitoring runtime:
//! a sharded metrics registry, log₂-bucketed latency histograms and a
//! lock-free pipeline flight recorder — std-only, no external deps.
//!
//! ## Hot-path rules
//!
//! Instrumentation this crate hands out is meant to sit on the engine's
//! check loop, the server's frame decoder and the store's append path, so
//! every primitive obeys three rules:
//!
//! 1. **Relaxed atomics only.**  [`Counter`], [`Gauge`] and [`Histogram`]
//!    cells are plain `AtomicU64`s updated with `Ordering::Relaxed` —
//!    no fences, no read-modify-write chains, no synchronization that
//!    could perturb the scheduling the differential suites pin down.
//!    Telemetry is *passive*: verdict streams are bit-identical with it
//!    on or off (`crates/engine/tests/telemetry.rs` proves it).
//! 2. **No allocation after startup.**  Metrics are registered once (one
//!    allocation per metric, at registration); updates touch fixed,
//!    cache-line-padded stripe arrays.  Snapshots allocate, but snapshots
//!    run on the observer's thread, never on the pipeline's.
//! 3. **Idle costs nothing.**  A counter nobody bumps is a cold cache
//!    line; the flight recorder only moves when an event is recorded; a
//!    passive handle ([`Telemetry::passive`]) turns wall-clock reads off
//!    entirely, so an un-instrumented engine never calls `Instant::now`.
//!
//! ## The pieces
//!
//! * [`Registry`] — name → metric, idempotent registration, cheap
//!   [`Snapshot`] aggregation (merge-on-snapshot across stripes), and a
//!   Prometheus-style text exposition writer
//!   ([`Snapshot::to_prometheus`]).
//! * [`Counter`] / [`Gauge`] — monotone / signed cells, striped across
//!   [`metrics::STRIPES`] cache-line-padded atomics keyed by thread.
//! * [`Histogram`] — fixed 64-bucket log₂ histogram (bucket *b* counts
//!   values in `[2^(b-1), 2^b)`); records are two relaxed adds, quantiles
//!   come out of the snapshot.
//! * [`FlightRecorder`] — a lock-free ring of the last N pipeline events
//!   (submit → shard enqueue → check → verdict route → journal append),
//!   each a 32-byte `Copy` [`FlightEvent`] `{ ts_ns, object, detail,
//!   stage, worker, aux }` stamped with a monotonic timestamp.  Dumped,
//!   bounded and time-ordered, on worker panic, NACK storm or
//!   stalled-consumer disconnect.
//! * [`Telemetry`] — the handle tying registry + recorder + monotonic
//!   [`Clock`] together; this is what the engine, server and store share.
//!
//! ## Pipeline stages and their cells
//!
//! Every server-side stage of the pipeline has one log₂ histogram in the
//! shared registry, recorded on a [`Telemetry::new`] handle (one
//! [`Telemetry::timer`] plus one [`Telemetry::observe`]) and read from
//! outside the process through the Stats frame.  On a passive handle
//! none of them reads a clock and every count stays 0.
//!
//! | stage            | registry cell             | one sample per                               |
//! |------------------|---------------------------|----------------------------------------------|
//! | `decode`         | `net_decode_ns`           | frame decoded by the reactor                 |
//! | `journal_append` | `store_append_ns`         | journal record written                       |
//! | `fsync`          | `store_fsync_ns`          | journal sync                                 |
//! | `queue_wait`     | `engine_queue_wait_ns`    | shard claim (scheduled → claimed)            |
//! | `check`          | `engine_check_ns`         | 1 in 16 monitor runs per worker              |
//! | `verdict_flush`  | `engine_verdict_flush_ns` | delivery-buffer flush into the subscriptions |
//! | `verdict_route`  | `net_verdict_route_ns`    | verdict frame encoded and queued             |
//! | `socket_write`   | `net_socket_write_ns`     | connection flush by the reactor              |
//!
//! `client_send` has no cell: the client holds no registry.
//!
//! ```
//! use drv_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let checks = tel.registry().counter("engine_checks");
//! let latency = tel.registry().histogram("engine_check_ns");
//! checks.add(3);
//! latency.record(1_500);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("engine_checks"), Some(3));
//! assert!(snap.to_prometheus().contains("engine_checks 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
pub mod snapshot;

pub use metrics::{Clock, Counter, Gauge, Histogram, Registry};
pub use recorder::{FlightEvent, FlightRecorder, Stage};
pub use snapshot::{HistogramSnapshot, Snapshot};

use std::sync::Arc;
use std::time::Instant;

/// The shared observability handle of one runtime: a metrics [`Registry`],
/// a [`FlightRecorder`], and the monotonic [`Clock`] that stamps both.
///
/// Two construction modes:
///
/// * [`Telemetry::new`] — full instrumentation: wall-clock latency
///   sampling on and a flight recorder ring of
///   [`Telemetry::DEFAULT_FLIGHT_CAPACITY`] events.
/// * [`Telemetry::passive`] — counters only: [`Telemetry::timer`] returns
///   `None` (no `Instant::now` on any hot path) and the flight ring has
///   zero capacity (recording is a branch and a return).  This is what an
///   engine constructed without explicit telemetry uses, so the default
///   pipeline carries exactly the counter costs it always had.
pub struct Telemetry {
    registry: Registry,
    recorder: FlightRecorder,
    clock: Clock,
    timing: bool,
}

impl Telemetry {
    /// Flight-recorder ring capacity of [`Telemetry::new`].
    pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

    /// Fully instrumented handle (latency sampling + flight recorder).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Self::with_flight_capacity(Self::DEFAULT_FLIGHT_CAPACITY)
    }

    /// Fully instrumented handle with an explicit flight-ring capacity
    /// (rounded up to a power of two; `0` disables the recorder).
    #[must_use]
    pub fn with_flight_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Registry::new(),
            recorder: FlightRecorder::new(capacity),
            clock: Clock::new(),
            timing: true,
        })
    }

    /// Counters-only handle: no wall-clock reads and no flight ring.
    #[must_use]
    pub fn passive() -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Registry::new(),
            recorder: FlightRecorder::new(0),
            clock: Clock::new(),
            timing: false,
        })
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder (zero-capacity on a passive handle).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The monotonic clock stamping flight events.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Starts a latency sample: `Some(Instant)` when timing is enabled,
    /// `None` on a passive handle (callers pay one branch, no clock
    /// read).  Close the sample with [`Telemetry::observe`].
    #[inline]
    #[must_use]
    pub fn timer(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the nanoseconds elapsed since [`Telemetry::timer`] into
    /// `histogram`; a no-op for a `None` sample.
    #[inline]
    pub fn observe(&self, started: Option<Instant>, histogram: &Histogram) {
        if let Some(started) = started {
            histogram.record(saturating_ns(started.elapsed().as_nanos()));
        }
    }

    /// Records one pipeline event into the flight ring, stamped with the
    /// monotonic clock.  A branch and a return when the ring is disabled
    /// (passive handle), so call sites need no gate of their own.
    #[inline]
    pub fn flight(&self, stage: Stage, object: u64, detail: u64, worker: u16, aux: u32) {
        if self.recorder.is_enabled() {
            self.recorder.record(FlightEvent {
                ts_ns: self.clock.now_ns(),
                object,
                detail,
                stage,
                worker,
                aux,
            });
        }
    }

    /// Aggregates every registered metric (merging stripes) into a
    /// point-in-time [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Formats the flight ring as a bounded, time-ordered postmortem dump
    /// (newest events last), headed by `reason`.
    #[must_use]
    pub fn flight_dump(&self, reason: &str) -> String {
        let events = self.recorder.dump();
        let mut out = String::with_capacity(64 + events.len() * 80);
        out.push_str(&format!(
            "=== drv-telemetry flight dump: {reason} ({} events) ===\n",
            events.len()
        ));
        for event in &events {
            out.push_str(&format!(
                "{:>14} ns  {:<14} object={} worker={} detail={} aux={}\n",
                event.ts_ns,
                event.stage.name(),
                event.object,
                event.worker,
                event.detail,
                event.aux
            ));
        }
        out
    }

    /// Writes [`Telemetry::flight_dump`] to stderr — the postmortem hook
    /// the engine uses on worker panic and the server on NACK storms and
    /// stalled-consumer disconnects.  A no-op when the ring is disabled
    /// or empty.
    pub fn dump_to_stderr(&self, reason: &str) {
        if self.recorder.is_enabled() && !self.recorder.is_empty() {
            eprintln!("{}", self.flight_dump(reason));
        }
    }
}

/// Clamps a `u128` nanosecond count into the `u64` the histograms store
/// (584 years of latency saturate rather than wrap).
#[must_use]
pub fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_handle_reads_no_clock_and_records_no_flights() {
        let tel = Telemetry::passive();
        assert!(tel.timer().is_none());
        tel.flight(Stage::Check, 1, 2, 3, 4);
        assert!(tel.recorder().dump().is_empty());
        // Counters still work on a passive handle.
        let c = tel.registry().counter("x");
        c.inc();
        assert_eq!(tel.snapshot().counter("x"), Some(1));
    }

    #[test]
    fn timer_observe_lands_in_the_histogram() {
        let tel = Telemetry::new();
        let h = tel.registry().histogram("lat");
        let t = tel.timer();
        assert!(t.is_some());
        tel.observe(t, &h);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn flight_dump_is_headed_and_ordered() {
        let tel = Telemetry::with_flight_capacity(8);
        for i in 0..4 {
            tel.flight(Stage::Submit, i, i * 10, 0, 0);
        }
        let dump = tel.flight_dump("test");
        assert!(dump.contains("flight dump: test (4 events)"));
        assert!(dump.contains("submit"));
    }
}
