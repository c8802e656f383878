//! The sharded, allocation-free metric primitives: [`Counter`], [`Gauge`],
//! [`Histogram`] and the [`Registry`] that names them.
//!
//! Every cell is striped across [`STRIPES`] cache-line-padded atomics;
//! a thread picks its stripe once (round-robin at first touch, cached in
//! a thread-local) so workers hammering the same counter touch different
//! cache lines.  Updates are single relaxed atomic adds; reads merge the
//! stripes — exactness under concurrency comes from every update landing
//! in *some* stripe, which the snapshot sums.

use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Stripes per metric: enough to keep an 8-worker pool off each other's
/// cache lines without bloating per-metric memory (8 × 64 B per counter).
pub const STRIPES: usize = 8;

/// Number of log₂ buckets per histogram: bucket 0 counts zeros, bucket
/// `b ≥ 1` counts values in `[2^(b-1), 2^b)`, bucket 63 absorbs the rest.
pub const BUCKETS: usize = 64;

/// One cache line holding one atomic — the padding that keeps stripes of
/// the same metric from false-sharing.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct PaddedI64(AtomicI64);

/// The stripe this thread uses for every striped metric: assigned
/// round-robin at first touch so a fixed worker pool spreads evenly.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|cell| {
        let mut s = cell.get();
        if s == usize::MAX {
            s = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            cell.set(s);
        }
        s
    })
}

/// A monotone striped counter.  `add`/`inc` are one relaxed atomic add on
/// this thread's stripe; `get` merges the stripes.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<[PaddedU64; STRIPES]>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cells: Arc::new(Default::default()),
        }
    }

    /// Adds `n` (relaxed, this thread's stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged total across stripes.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A signed striped gauge (current value = sum of per-stripe deltas):
/// `add`/`sub` from any thread, merged by `get`.
#[derive(Clone)]
pub struct Gauge {
    cells: Arc<[PaddedI64; STRIPES]>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cells: Arc::new(Default::default()),
        }
    }

    /// Adds `n` to the gauge (relaxed, this thread's stripe).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// The merged current value (transiently off while updates race, exact
    /// when quiescent).
    #[must_use]
    pub fn get(&self) -> i64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0i64, i64::wrapping_add)
    }
}

/// One histogram stripe: 64 log₂ buckets plus the running sum (the count
/// is the bucket total, so it is never stored separately).
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed 64-bucket log₂ latency histogram.  [`Histogram::record`] is two
/// relaxed adds on this thread's stripe; quantiles come out of the merged
/// [`HistogramSnapshot`].
#[derive(Clone)]
pub struct Histogram {
    stripes: Arc<[HistStripe; STRIPES]>,
}

/// The log₂ bucket of `value`: 0 for 0, else `64 - leading_zeros`, capped
/// at 63 — so bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            stripes: Arc::new(std::array::from_fn(|_| HistStripe::default())),
        }
    }

    /// Records one value (two relaxed adds, no allocation).
    #[inline]
    pub fn record(&self, value: u64) {
        let s = &self.stripes[stripe()];
        s.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges the stripes into a point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for s in self.stripes.iter() {
            for (merged, bucket) in buckets.iter_mut().zip(s.buckets.iter()) {
                *merged = merged.wrapping_add(bucket.load(Ordering::Relaxed));
            }
            sum = sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        let count = buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Names the metrics of one runtime.  Registration is idempotent (the
/// second `counter("x")` returns a handle onto the same cells) and takes
/// the only lock in this crate — handles themselves are lock-free.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or retrieves) the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry lock");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(Counter::new)
            .clone()
    }

    /// Registers (or retrieves) the gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry lock");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(Gauge::new)
            .clone()
    }

    /// Registers (or retrieves) the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// Aggregates every registered metric (merging stripes) into a
    /// point-in-time [`Snapshot`], sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry lock");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn counter_and_gauge_merge_stripes() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        // Idempotent registration: same cells.
        reg.counter("c").add(4);
        assert_eq!(c.get(), 10);
        let g = reg.gauge("g");
        g.add(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Registry::new().histogram("h");
        for v in [0, 1, 100, 1_000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1_001_101);
        assert_eq!(snap.buckets[0], 1, "the zero went to bucket 0");
    }
}
