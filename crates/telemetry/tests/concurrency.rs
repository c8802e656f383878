//! The satellite concurrency guarantee: 8 threads hammering the same
//! counters / gauges / histograms, snapshot totals exact — striped cells
//! lose nothing.

use drv_telemetry::Telemetry;

const THREADS: u64 = 8;
const OPS: u64 = 100_000;

#[test]
fn eight_thread_hammer_keeps_totals_exact() {
    let tel = Telemetry::new();
    let counter = tel.registry().counter("hammer_counter");
    let gauge = tel.registry().gauge("hammer_gauge");
    let hist = tel.registry().histogram("hammer_hist");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            std::thread::spawn(move || {
                for i in 0..OPS {
                    counter.add(2);
                    gauge.add(3);
                    gauge.sub(1);
                    hist.record(t * OPS + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = tel.snapshot();
    assert_eq!(snap.counter("hammer_counter"), Some(THREADS * OPS * 2));
    assert_eq!(snap.gauge("hammer_gauge"), Some((THREADS * OPS * 2) as i64));
    let h = snap.histogram("hammer_hist").expect("registered");
    assert_eq!(h.count, THREADS * OPS, "no recorded value lost");
    // Sum of 0..THREADS*OPS = n(n-1)/2 — exact, not approximate.
    let n = THREADS * OPS;
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
}

#[test]
fn concurrent_snapshots_never_exceed_the_true_total() {
    let tel = Telemetry::new();
    let counter = tel.registry().counter("racing");
    let writer = {
        let counter = counter.clone();
        std::thread::spawn(move || {
            for _ in 0..200_000 {
                counter.inc();
            }
        })
    };
    // Snapshots racing the writer are monotone and never over-count.
    let mut last = 0u64;
    for _ in 0..100 {
        let now = tel.snapshot().counter("racing").unwrap();
        assert!(now >= last, "counter went backwards: {last} -> {now}");
        assert!(now <= 200_000);
        last = now;
    }
    writer.join().unwrap();
    assert_eq!(counter.get(), 200_000);
}
