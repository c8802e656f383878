//! The `recover` workload: `drv_store::recover()` over the journal of a
//! crashed run — the store and the checker checkpoints read back (scan,
//! restore, replay) where the other workloads only append — and then the
//! rest of the stream through the engine it returns.

use crate::staged::{serve_in_process, Served};
use crate::sys;
use crate::workloads::{self, Input, BATCH, WORKERS};
use drv_engine::MonitoringEngine;
use drv_lang::SharedInterner;
use drv_store::{recover, recover_with, scan_journal, RecoveryStats, StoreStats};
use drv_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until_drained(engine: &MonitoringEngine) {
    // Sleep, not spin: a spinning waiter would be charged to
    // `cpu_s_per_mevent` and take a core from the replay it waits for.
    while engine.backlog() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The share of every connection's stream that was journaled when the
/// process "died" (rounded down to whole frames); the rest arrives after
/// the restart.
const JOURNALED: f64 = 0.8;

/// The journal a crash leaves behind, built once per set-up.
pub struct CrashedJournal {
    pub path: PathBuf,
    pub bytes: u64,
    /// Stream positions journaled, per connection.
    pub journaled: usize,
    /// What the store had appended when the process "died".
    pub store: StoreStats,
}

impl CrashedJournal {
    /// Ingests the first `JOURNALED` of `input` through the engine
    /// `recover()` returns on a fresh path (connections interleaved frame
    /// by frame), syncs, and drops
    /// everything **without** client shutdown or `evict`: a clean goodbye
    /// tombstones every object and voids every checkpoint seed, which is a
    /// restart, not a crash.
    pub fn build(input: &Input, path: PathBuf) -> CrashedJournal {
        let _ = std::fs::remove_file(&path);
        let recovery = recover(
            &path,
            workloads::store_config(),
            workloads::engine_config(WORKERS),
            workloads::factory(),
        )
        .expect("a fresh journal opens");
        let journaled = (input.all().end as f64 * JOURNALED) as usize / BATCH * BATCH;
        for (_, frame) in input.frames(0..journaled, BATCH) {
            recovery.engine.submit_stream(frame, BATCH);
        }
        wait_until_drained(&recovery.engine);
        recovery.store.sync().expect("journal syncs");
        let store = recovery.store.stats();
        drop(recovery);
        let bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len());
        CrashedJournal {
            path,
            bytes,
            journaled,
            store,
        }
    }

    /// Events in the journal, all connections.
    pub fn events(&self, input: &Input) -> usize {
        self.journaled * input.streams.len()
    }
}

pub struct RecoverRep {
    /// `recover()` → `backlog() == 0`: the issue's `recover_s`.
    pub recover_s: f64,
    /// Process CPU over the same window.
    pub cpu_s: f64,
    pub stats: RecoveryStats,
    /// The rest of the stream through the recovered engine.
    pub served: Served,
    /// Events whose verdict after the restart, or whose stream in the final
    /// report, differs from the reference.
    pub failed: usize,
}

/// One timed recovery of a pristine copy of `journal` (`recover()` appends
/// to the file it recovers, so every rep gets its own copy), then the rest
/// of the stream through the recovered engine (timed on its own), then —
/// untimed — the engine's report of both parts against the reference.
pub fn recover_rep(
    journal: &CrashedJournal,
    input: &Input,
    copy: &Path,
    telemetry: Arc<Telemetry>,
) -> RecoverRep {
    std::fs::copy(&journal.path, copy).expect("journal copies");
    let cpu_before = sys::process_cpu_s();
    let start = Instant::now();
    let recovery = recover_with(
        copy,
        workloads::store_config(),
        workloads::engine_config(WORKERS),
        workloads::factory(),
        telemetry,
    )
    .expect("the crashed journal recovers");
    wait_until_drained(&recovery.engine);
    let recover_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu_before;

    assert!(
        recovery.stats.seeded_objects > 0,
        "no checkpoint seeded an object: {:?}",
        recovery.stats
    );
    let served = serve_in_process(&recovery.engine, input, journal.journaled, BATCH);
    let report = recovery.engine.finish().expect("no engine worker panicked");
    drop(recovery.store);
    let _ = std::fs::remove_file(copy);
    let failed = (served.failed + input.report_mismatches(&report)).min(input.events());
    RecoverRep {
        recover_s,
        cpu_s,
        stats: recovery.stats,
        served,
        failed,
    }
}

/// `scan_journal` over the crashed file: ns per journaled event.
pub fn scan_ns_per_event(journal: &CrashedJournal, events: usize) -> f64 {
    let buf = std::fs::read(&journal.path).expect("journal reads");
    let start = Instant::now();
    let scan = scan_journal(&buf, &SharedInterner::new());
    let elapsed = start.elapsed();
    assert!(
        scan.torn.is_none() && scan.valid_len == buf.len() as u64,
        "the crashed journal scans clean"
    );
    elapsed.as_nanos() as f64 / events as f64
}
