//! The frame checksum alone: `drv_net::wire::crc32` in ns per byte, at the
//! size of a small batch frame's payload (1 300 B) and at the order of a
//! long history's checkpoint record (600 000 B).
//!
//! ```text
//! cargo bench -p drv-bench --bench crc32
//! ```
//!
//! Each row is the best of five timings of ≈ 64 MiB of checksumming.

use drv_net::wire::crc32;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    for len in [1_300usize, 600_000] {
        let buf: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let reps = (64 << 20) / len;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(crc32(black_box(&buf)));
            }
            best = best.min(start.elapsed().as_nanos() as f64 / (reps * len) as f64);
        }
        println!("crc32/{len} B: {best:.3} ns/B ({:.2} GB/s)", 1.0 / best);
    }
}
