//! Point-in-time views of a [`crate::Registry`]: merged totals, log₂
//! quantiles, and the Prometheus-style text exposition writer.

use crate::metrics::BUCKETS;

/// A merged histogram: 64 log₂ buckets, total count, running sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket `b ≥ 1` counts values in `[2^(b-1), 2^b)`; bucket 0 zeros.
    pub buckets: [u64; BUCKETS],
    /// Total recorded values (the bucket sum).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The upper bound of bucket `b` (`0` for bucket 0, else `2^b − 1`
    /// saturating) — what quantiles report.
    #[must_use]
    pub fn bucket_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 63 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` value (log₂ resolution).  `0` when
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), clamped into [1, count].
        let mut rank = (q * self.count as f64).ceil() as u64;
        rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Self::bucket_bound(bucket);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }

    /// Median (log₂ resolution).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (log₂ resolution).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (log₂ resolution).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the recorded values (`0` when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Every metric of a registry at one instant, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, merged histogram)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The counter `name`'s total, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge `name`'s value, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram `name`'s merged snapshot, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The difference `self − earlier`, metric by metric: what happened
    /// *between* two snapshots, so rate computations (pollers of the
    /// Stats frame or of a shared `Telemetry` handle) need no scraping
    /// math.
    ///
    /// Counters and histogram buckets/counts/sums subtract saturating (a
    /// restarted registry simply reads as its own fresh window); gauges —
    /// point-in-time signed values — subtract arithmetically.  Metrics
    /// registered only after `earlier` was taken delta against zero;
    /// metrics present only in `earlier` are dropped (they no longer
    /// exist to have a rate).
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    value.saturating_sub(earlier.counter(name).unwrap_or(0)),
                )
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    value.wrapping_sub(earlier.gauge(name).unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, hist)| {
                let mut diff = hist.clone();
                if let Some(base) = earlier.histogram(name) {
                    for (bucket, earlier_n) in diff.buckets.iter_mut().zip(base.buckets.iter()) {
                        *bucket = bucket.saturating_sub(*earlier_n);
                    }
                    diff.sum = diff.sum.saturating_sub(base.sum);
                    // Re-derive from the subtracted buckets so the
                    // count/bucket invariant survives the subtraction.
                    diff.count = diff.buckets.iter().sum();
                }
                (name.clone(), diff)
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus text exposition (version 0.0.4 style): counters as
    /// `TYPE counter`, gauges as `TYPE gauge`, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` / `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bucket, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    HistogramSnapshot::bucket_bound(bucket)
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                hist.count, hist.sum, hist.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let h = crate::Registry::new().histogram("t");
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn quantiles_have_log2_resolution() {
        let snap = hist_of(&[100; 98].map(|v: u64| v)); // 98 values of 100
        assert_eq!(snap.p50(), 127, "100 lands in [64,128) → bound 127");
        let mut values = vec![10u64; 90];
        values.extend([100_000u64; 10]);
        let snap = hist_of(&values);
        assert_eq!(snap.p50(), 15, "10 lands in [8,16)");
        assert!(
            snap.p95() >= 65_535,
            "the tail dominates p95: {}",
            snap.p95()
        );
        assert_eq!(snap.count, 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0);
    }

    #[test]
    fn delta_subtracts_counters_gauges_and_histogram_buckets() {
        let reg = crate::Registry::new();
        let requests = reg.counter("requests");
        let depth = reg.gauge("depth");
        let lat = reg.histogram("lat");
        requests.add(10);
        depth.add(5);
        lat.record(10); // bucket 4: [8,16)
        lat.record(100); // bucket 7: [64,128)
        let earlier = reg.snapshot();
        requests.add(7);
        depth.sub(2);
        lat.record(12); // bucket 4 again
        lat.record(100_000); // bucket 17
        let later = reg.snapshot();

        let delta = later.delta(&earlier);
        // Hand-computed: 17 − 10 = 7; 3 − 5 = −2.
        assert_eq!(delta.counter("requests"), Some(7));
        assert_eq!(delta.gauge("depth"), Some(-2));
        let hist = delta.histogram("lat").unwrap();
        assert_eq!(hist.count, 2, "two records landed between snapshots");
        assert_eq!(hist.sum, 100_012);
        // Bucket-level subtraction: one new value in [8,16), the earlier
        // [64,128) record cancelled, one new value in bucket 17.
        assert_eq!(hist.buckets[4], 1);
        assert_eq!(hist.buckets[7], 0);
        assert_eq!(hist.buckets[17], 1);
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn delta_handles_new_and_vanished_metrics() {
        let earlier = Snapshot {
            counters: vec![("gone".into(), 4), ("kept".into(), 1)],
            gauges: vec![],
            histograms: vec![("old".into(), HistogramSnapshot::default())],
        };
        let later = Snapshot {
            counters: vec![("kept".into(), 5), ("fresh".into(), 3)],
            gauges: vec![("g".into(), -7)],
            histograms: vec![],
        };
        let delta = later.delta(&earlier);
        assert_eq!(delta.counter("kept"), Some(4));
        assert_eq!(
            delta.counter("fresh"),
            Some(3),
            "new metric deltas against zero"
        );
        assert_eq!(delta.counter("gone"), None, "vanished metrics drop");
        assert_eq!(delta.gauge("g"), Some(-7));
        assert!(delta.histograms.is_empty());
        // Saturating, never wrapping: a restarted counter reads as fresh.
        let restarted = Snapshot {
            counters: vec![("kept".into(), 0)],
            gauges: vec![],
            histograms: vec![],
        };
        assert_eq!(restarted.delta(&earlier).counter("kept"), Some(0));
    }

    #[test]
    fn prometheus_exposition_shapes() {
        let reg = crate::Registry::new();
        reg.counter("requests").add(7);
        reg.gauge("depth").add(-2);
        reg.histogram("lat").record(100);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE requests counter\nrequests 7\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -2\n"));
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"127\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_sum 100\n"));
        assert!(text.contains("lat_count 1\n"));
    }
}
