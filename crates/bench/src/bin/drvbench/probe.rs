//! The host-speed probe: a fixed memory walk timed beside every measured
//! window, so that a timing can be reported at the speed of a quiet host
//! instead of the speed the shared host happened to have that minute.
//!
//! The sandbox is a two-core guest of a shared machine.  The same binary on
//! the same input runs up to 1.5 x slower for seconds to minutes at a time,
//! and no statistic over the reps of one 25 s run can undo a spell that
//! covers the run: in a noisy hour ten runs of `wide-batch256` spread
//! 17-19 % however their reps were summarised, and the acceptance check
//! refused the benchmark for it.  What slows is memory, not arithmetic: a
//! dependent multiply chain beside the reps read 10.0-10.4 ms throughout,
//! while dependent loads over 16 MiB read 44-70 ms and followed the reps
//! (correlation 0.84-0.96 per run on every workload when the host was
//! noisy; an L2-sized walk, a `memcpy`, four independent chains, a
//! `HashMap` fill and a thread ping-pong all followed them worse).
//!
//! So every CPU-bound timing of the untraced run is scaled by
//! [`host_speed`] read just before and just after its window
//! (`run::Totals`, README: "Host speed"): in the noisy hours that takes the
//! ten-run spreads from 13-22 % to 5-12 %.  In a quiet hour the probe's own
//! reading-to-reading noise is what shows (a workload that spread 2-5 % as
//! read spreads 4-10 %), which is the price.  The readings as taken stay in
//! the detailed report.  A code change moves the timing and not the probe —
//! the probe calls nothing of the repository — so parent and change are
//! still compared like for like, on whatever host each happens to run.

use crate::metrics::Better;
use std::hint::black_box;
use std::time::Instant;

/// Words walked: 16 MiB, past the 4 MiB L2 of the sandbox's cores and
/// 4096 small pages, so every step is a TLB miss and a load from the shared
/// L3 or from memory.
const WORDS: usize = 2 << 20;
/// The buffer is held in pieces of 64 KiB: below the size at which `malloc`
/// maps a block of its own and, when that block is freed, raises its
/// thresholds for mapping and for trimming the heap.  One 16 MiB block left
/// the rest of the process holding on to 16 MiB more of freed memory —
/// `peak_rss_mb` of `deep-history` read 58 MiB instead of 42.
const PIECE: usize = 8 << 10;
const STEPS: usize = 600_000;
/// What a step takes on the quiet sandbox (Xeon @ 2.1 GHz, KVM guest); a
/// speed of 1.0 is this.  On another machine every scaled number moves by
/// one constant factor, which a comparison of two commits does not see.
const NOMINAL_NS_PER_STEP: f64 = 150.0;

/// Nominal step time / measured step time: 1.0 on the quiet sandbox, 0.7
/// when the host runs memory-bound code 1.43 x slower.  Takes ~90 ms.  The
/// buffer lives for the call only, so it is never part of a rep's
/// resident-set high-water mark.
pub fn host_speed() -> f64 {
    // Written, not `vec![0; n]`: every page is faulted in before the clock
    // starts.
    let mut pieces: Vec<Vec<u64>> = (0..WORDS / PIECE).map(|_| vec![1; PIECE]).collect();
    let start = Instant::now();
    let mut index = 12_345;
    let mut mix = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..STEPS {
        // splitmix64's finaliser over the cell: the next index depends on
        // the load, so steps cannot overlap.
        let cell = &mut pieces[index / PIECE][index % PIECE];
        mix = (mix ^ (mix >> 27))
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(*cell);
        *cell = mix;
        index = mix as usize % WORDS;
    }
    black_box(mix);
    let ns_per_step = start.elapsed().as_nanos() as f64 / STEPS as f64;
    NOMINAL_NS_PER_STEP / ns_per_step
}

/// `reading` of a window the host ran at `speed`, as a host of nominal
/// speed would have given it: a rate is divided by the speed, a time
/// multiplied.
pub fn at_nominal_speed(reading: f64, better: Better, speed: f64) -> f64 {
    match better {
        Better::Higher => reading / speed,
        Better::Lower => reading * speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_rates_up_and_times_down() {
        // Half speed: the rate a quiet host would have given is twice the
        // one read, the time half.
        assert_eq!(at_nominal_speed(100.0, Better::Higher, 0.5), 200.0);
        assert_eq!(at_nominal_speed(3.0, Better::Lower, 0.5), 1.5);
        assert_eq!(at_nominal_speed(3.0, Better::Lower, 1.0), 3.0);
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }
}
