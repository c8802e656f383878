//! The frame checksum alone: `drv_lang::frame::crc32` in ns per byte, at
//! 64 B (the shortest input the carry-less kernel takes, where the
//! dispatch decides), at the size of a small batch frame's payload
//! (1 300 B), of one 256-event `deep-history` batch frame (5 120 B, at
//! 20 B per event), and at the order of a long history's checkpoint record
//! (600 000 B).
//!
//! ```text
//! cargo bench -p drv-bench --bench crc32
//! ```
//!
//! Each row is the best of five timings of ≈ 64 MiB of checksumming.

use drv_lang::frame::crc32;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    for len in [64usize, 1_300, 5_120, 600_000] {
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
