//! What the benchmark reads from the machine — process CPU time, resident
//! memory, and the identity (cores, kernel, commit) recorded next to every
//! number — and the one thing it asks of it: a single CPU to run on.
//! Linux only; anything unreadable reads as 0 / "unknown" rather than
//! failing a run.

use std::path::{Path, PathBuf};

/// The sliver of the C library the benchmark calls itself (std already
/// links it): the scheduler calls behind [`pin_to_one_cpu`] and the
/// process CPU clock.  The only unsafe code of the benchmark.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod libc {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn process_cpu_s() -> Option<f64> {
        let mut time = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `time` is a valid, writable `struct timespec` of the
        // 64-bit Linux ABI for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
        (rc == 0).then(|| time.tv_sec as f64 + time.tv_nsec as f64 / 1e9)
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is a writable buffer of `size` bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&bits| bits != 0)?;
        let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod libc {
    pub fn process_cpu_s() -> Option<f64> {
        None
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

/// Confines the calling thread, and every thread started after the call
/// (they inherit the mask), to the highest-numbered CPU the thread may run
/// on; returns that CPU, or `None` where the mask cannot be set.
///
/// The deployment has more busy threads (2 generators, 2 client readers,
/// reactor, router, engine worker) than the sandbox has cores, and where the
/// kernel happens to put them decided a rep's rate: unpinned, the quartiles
/// of the reps of one `wide-batch256` run lay at 477 k and 641 k events/s,
/// and the acceptance check's ten-run spreads were 20-35 %.  On one CPU
/// there is no placement to vary — the reps of a run read 410 k to 445 k —
/// and the benchmark needs one core of the host, not every one of them at
/// once.  The highest CPU, not the first: device interrupts land on CPU 0.
pub fn pin_to_one_cpu() -> Option<usize> {
    libc::pin_to_one_cpu()
}

/// Kernel clock ticks per second.  `USER_HZ` is 100 on every Linux ABI (it
/// is part of the `/proc` interface, independent of the kernel's `HZ`).
const CLK_TCK: f64 = 100.0;

/// CPU time the process has used, all threads, in seconds: the process CPU
/// clock (nanoseconds), or `utime + stime` of `/proc/self/stat` (10 ms
/// ticks) where that clock cannot be read.
pub fn process_cpu_s() -> f64 {
    libc::process_cpu_s().unwrap_or_else(stat_cpu_s)
}

/// Process `utime + stime` in seconds (`/proc/self/stat` fields 14 and 15).
fn stat_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / CLK_TCK
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set high-water mark, MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Resident set right now, MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Resets the high-water mark to the current resident set, so set-up's
/// transient allocations do not mask what the measured reps add.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPUs of the machine (not of the one-CPU mask the benchmark runs under).
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&cpus| cpus > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` of the working directory; a
/// checkout that is not a git repository reads as "unknown".
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash
    }
}

/// Where the benchmark writes (journals, traces): `<target dir>/drvbench`,
/// inside the checkout and ignored by git.
pub fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("drvbench")
}
