//! Zero-overhead-when-idle observability for the monitoring runtime:
//! a sharded metrics registry and log₂-bucketed latency histograms,
//! read from outside the process through the Stats frame — std-only, no
//! external deps.
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
//!    line; a passive handle ([`Telemetry::passive`]) turns wall-clock reads off
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
//! * [`Telemetry`] — the handle tying the registry to the timing flag;
//!   this is what the engine, server and store share.
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
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};

use std::sync::Arc;
use std::time::Instant;

/// The shared observability handle of one runtime: a metrics [`Registry`]
/// and whether latency samples read the wall clock.
///
/// Two construction modes:
///
/// * [`Telemetry::new`] — full instrumentation: wall-clock latency
///   sampling on.
/// * [`Telemetry::passive`] — counters only: [`Telemetry::timer`] returns
///   `None` (no `Instant::now` on any hot path).  This is what an engine
///   constructed without explicit telemetry uses, so the default pipeline
///   carries exactly the counter costs it always had.
pub struct Telemetry {
    registry: Registry,
    timing: bool,
}

impl Telemetry {
    /// Fully instrumented handle: latency sampling on.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Registry::new(),
            timing: true,
        })
    }

    /// Counters-only handle: no wall-clock reads.
    #[must_use]
    pub fn passive() -> Arc<Self> {
        Arc::new(Telemetry {
            registry: Registry::new(),
            timing: false,
        })
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
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

    /// Aggregates every registered metric (merging stripes) into a
    /// point-in-time [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
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
    fn passive_handle_reads_no_clock() {
        let tel = Telemetry::passive();
        assert!(tel.timer().is_none());
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
}
