//! Crash recovery: per object its checkpoint chain, then journal-suffix
//! replay.
//!
//! ## The scan rules (per object X, walking records in file order)
//!
//! * **Batch** — count X's events (`seen[X]`).
//! * **Checkpoint(X)** — a checkpoint carries only what X gained since its
//!   previous one and names where that was: its base, `fed − count`
//!   (journal module docs).  It joins X's chain when it is *provable from
//!   the file alone* — `fed ≤ seen[X]` (its coverage is actually journaled
//!   ahead of it — always true in a file the store wrote, defensive
//!   against hand-corrupted ones) and X has no tombstone yet — and it
//!   links: its base equals the `fed` of the chain's last record.  A
//!   base-0 record replaces the chain with a new one of its own; any
//!   other record is ignored.  A record lost from the middle of a chain
//!   (an oversized checkpoint the store skipped) therefore ends the chain
//!   there: the records after it do not link, and replay covers them.
//! * **Evict(X)** — drop X's chain and blacklist all later checkpoints of
//!   X: the engine never checkpoints an object's generations after its
//!   first retirement, so a later checkpoint can only be stale or forged, and
//!   the eviction itself is replayed as an [`MonitoringEngine::evict`]
//!   call that retires X at the same position.
//!
//! ## Why replay is verdict-identical
//!
//! Events are journaled write-ahead in acceptance order and per-object
//! FIFO (one producer per object — the net server's ownership rule).
//! A seed restores the checker by restoring each record of the chain, in
//! order, into one fresh monitor, which leaves it in its exact
//! post-`fed`-events state ([`ObjectMonitor::restore`] is bit-identical by
//! contract), with the chain's verdicts, concatenated, pre-filled.  The
//! state a record extends is a pure function of the object's first `base`
//! journaled events, so a record links to any chain that ends there,
//! whichever run wrote either.  Replay then drops the object's first `fed`
//! events from the scanned batches and submits the rest, so the engine
//! feeds its monitor exactly the suffix: those verdicts are re-decided by
//! the same deterministic checker from the same state — and carry their
//! original `seq` numbers, letting a reconnecting client resume from its
//! cursor.  The cut is exact because a seeded object has no Evict record
//! anywhere in the file (one would have dropped its chain).  A chain any
//! record of which fails [`ObjectMonitor::restore`] (corrupt state that
//! survived the CRC, a factory change) is dropped, not trusted: the object
//! falls back to full replay, which is slower and equally exact.
//!
//! [`ObjectMonitor::restore`]: drv_consistency::ObjectMonitor::restore

use crate::error::StoreError;
use crate::journal::{CheckpointRecord, JournalRecord, Store, StoreConfig};
use drv_consistency::ObjectMonitorFactory;
use drv_engine::{EngineConfig, MonitoringEngine, RecoveredObject};
use drv_lang::hash::{HashMap, HashSet};
use drv_lang::{EventBatch, ObjectId, SharedInterner};
use drv_net::{MonitorServer, ServerConfig};
use drv_telemetry::Telemetry;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;

/// What recovery did, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Bytes truncated off a torn tail at open.
    pub truncated_bytes: u64,
    /// Batch records scanned for replay.
    pub batches: u64,
    /// Events those batches carried, checkpoint-covered ones included.
    pub replayed_events: u64,
    /// Events covered by accepted checkpoint chains: dropped from the
    /// batches before submission, never fed again (the engine processes
    /// `replayed_events − skipped_events`).
    pub skipped_events: u64,
    /// Objects seeded from a checkpoint chain.
    pub seeded_objects: usize,
    /// Chains rejected because [`drv_consistency::ObjectMonitor::restore`]
    /// refused one of their records (those objects fall back to full
    /// replay).
    pub rejected_checkpoints: usize,
    /// Eviction records replayed.
    pub tombstones: u64,
}

/// A recovered monitoring setup: the rebuilt engine (journal sink already
/// re-attached), the open store, and what recovery did.
pub struct Recovery {
    /// The engine, caught up to the journal's last accepted event, with
    /// verdict `seq` numbers continuing the pre-crash stream.
    pub engine: MonitoringEngine,
    /// The open journal, attached to the engine and appending onward.
    pub store: Arc<Store>,
    /// Recovery counters.
    pub stats: RecoveryStats,
}

/// Opens (or creates) the journal at `path` and rebuilds a
/// [`MonitoringEngine`] from it: each object's checkpoint chain, then
/// replay of the journal suffix through the batched submit path until it
/// has drained ([`MonitoringEngine::backlog`] is 0 on return), then the
/// store re-attached as the engine's [`JournalSink`](drv_engine::JournalSink).
/// Scan, seeds and replay share one payload arena, which the engine owns.
/// On a fresh path this is just `MonitoringEngine::new` + journaling.
///
/// # Errors
///
/// File I/O only — journal corruption is salvaged by the torn-tail scan,
/// and unusable checkpoints degrade to full replay.
pub fn recover(
    path: impl AsRef<Path>,
    config: StoreConfig,
    engine_config: EngineConfig,
    factory: Arc<dyn ObjectMonitorFactory>,
) -> Result<Recovery, StoreError> {
    recover_with(path, config, engine_config, factory, Telemetry::passive())
}

/// [`recover`] over a caller-supplied [`Telemetry`] handle, shared by the
/// store and the rebuilt engine — one registry carries the `engine_*` and
/// `store_*` cells (and the `net_*` cells, once a server binds over the
/// engine).  Replay itself is instrumented like live traffic: the engine's
/// check histograms include the replayed suffix.
///
/// # Errors
///
/// File I/O only — journal corruption is salvaged by the torn-tail scan,
/// and unusable checkpoints degrade to full replay.
pub fn recover_with(
    path: impl AsRef<Path>,
    config: StoreConfig,
    engine_config: EngineConfig,
    factory: Arc<dyn ObjectMonitorFactory>,
    telemetry: Arc<Telemetry>,
) -> Result<Recovery, StoreError> {
    // The one read and scan of the file, into the arena the recovered
    // engine will own: open truncates the torn tail there, and both passes
    // below stay inside the same valid prefix.
    let arena = SharedInterner::new();
    let (store, scan) =
        Store::open_scanned(path.as_ref(), config, Arc::clone(&telemetry), &arena)?;
    let store = Arc::new(store);
    let mut stats = RecoveryStats {
        truncated_bytes: store.truncated_bytes(),
        ..RecoveryStats::default()
    };

    // Pass 1 — chain selection over the scanned records; the batches and
    // evictions are kept, in file order, for replay.
    let mut seen: HashMap<ObjectId, u64> = HashMap::default();
    let mut chains: HashMap<ObjectId, Vec<CheckpointRecord>> = HashMap::default();
    let mut dead: HashSet<ObjectId> = HashSet::default();
    let mut replay = Vec::with_capacity(scan.records.len());
    for record in scan.records {
        match record {
            JournalRecord::Batch(batch) => {
                for (object, run) in batch.runs() {
                    *seen.entry(object).or_insert(0) += run.len() as u64;
                }
                replay.push(JournalRecord::Batch(batch));
            }
            JournalRecord::Checkpoint(checkpoint) => {
                let journaled = seen.get(&checkpoint.object).copied().unwrap_or(0);
                if dead.contains(&checkpoint.object) || checkpoint.fed > journaled {
                    continue;
                }
                let chain = chains.entry(checkpoint.object).or_default();
                if checkpoint.base() == 0 {
                    chain.clear();
                    chain.push(checkpoint);
                } else if chain.last().is_some_and(|last| last.fed == checkpoint.base()) {
                    chain.push(checkpoint);
                }
            }
            JournalRecord::Evict(object) => {
                chains.remove(&object);
                dead.insert(object);
                replay.push(JournalRecord::Evict(object));
            }
        }
    }

    // Validate each chain by actually restoring a monitor from it, record
    // by record; a refusal means full replay for that object, never a
    // half-trusted state.
    let mut recovered: Vec<RecoveredObject> = Vec::with_capacity(chains.len());
    // Per seeded object, how many of its journaled events the chain still
    // covers as replay walks the batches.
    let mut covered: HashMap<ObjectId, u64> = HashMap::default();
    for (object, chain) in chains {
        let Some(fed) = chain.last().map(|last| last.fed) else {
            continue;
        };
        let mut monitor = factory.create_in(object, &arena);
        if chain.iter().all(|record| monitor.restore(&record.state).is_ok()) {
            stats.skipped_events += fed;
            covered.insert(object, fed);
            let verdicts = chain.into_iter().flat_map(|record| record.verdicts).collect();
            recovered.push(RecoveredObject { object, monitor, verdicts });
        } else {
            stats.rejected_checkpoints += 1;
        }
    }
    stats.seeded_objects = recovered.len();

    // Pass 2 — replay the scanned batches, whose ids are already the
    // engine's, through the batched submit path, no sink attached:
    // recovery must not re-journal what it reads.  Each batch goes in
    // without the events a seed's chain covers.  Eviction records replay
    // as evict() calls, which queue FIFO behind the events before them —
    // reproducing the retirement position, so tombstoned objects are
    // retired again instead of resurrected.
    let engine =
        MonitoringEngine::with_recovered(engine_config, factory, recovered, arena, telemetry);
    for record in replay {
        match record {
            JournalRecord::Batch(batch) => {
                stats.batches += 1;
                stats.replayed_events += batch.len() as u64;
                // A batch left empty is not submitted (`submit_batch`
                // ignores it).
                engine.submit_batch(&uncovered(batch, &mut covered));
            }
            JournalRecord::Evict(object) => {
                stats.tombstones += 1;
                engine.evict(object);
            }
            JournalRecord::Checkpoint(_) => unreachable!("checkpoints are not replayed"),
        }
    }

    // Only a drained replay may meet the sink: a worker that reached a
    // replayed eviction after the attach would journal its tombstone again,
    // behind whatever the caller submits next.
    engine.wait_drained();
    engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);
    Ok(Recovery { engine, store, stats })
}

/// `batch` without the events `covered` still claims — each seeded object's
/// first journaled events, counted off as replay meets them.  A batch no
/// seed covers passes through as it is.
fn uncovered(batch: EventBatch, covered: &mut HashMap<ObjectId, u64>) -> EventBatch {
    if covered.is_empty() || !batch.runs().any(|(object, _)| covered.contains_key(&object)) {
        return batch;
    }
    let mut suffix = EventBatch::with_capacity(batch.len());
    for (object, range) in batch.runs() {
        let mut from = range.start;
        if let Some(left) = covered.get_mut(&object) {
            let cut = (*left).min(range.len() as u64);
            *left -= cut;
            from += cut as usize;
            if *left == 0 {
                covered.remove(&object);
            }
        }
        for index in from..range.end {
            suffix.push(batch.get(index));
        }
    }
    suffix
}

/// The durable [`MonitorServer`] constructor: recovers (or freshly opens)
/// the journal at `path`, binds the TCP front over the rebuilt engine, and
/// keeps journaling — the post-crash verdict `seq` numbers continue the
/// pre-crash stream, so reconnecting clients can resume from their cursor.
///
/// # Errors
///
/// The recovery error or the bind error.
pub fn serve_durable(
    addr: impl ToSocketAddrs,
    path: impl AsRef<Path>,
    config: StoreConfig,
    engine_config: EngineConfig,
    factory: Arc<dyn ObjectMonitorFactory>,
    server_config: ServerConfig,
) -> Result<(MonitorServer, Arc<Store>, RecoveryStats), StoreError> {
    serve_durable_with(
        addr,
        path,
        config,
        engine_config,
        factory,
        server_config,
        Telemetry::passive(),
    )
}

/// [`serve_durable`] over a caller-supplied [`Telemetry`] handle: store,
/// engine and TCP server share one registry, so the server's Stats frame
/// (and Prometheus text) carries `store_*` append/fsync metrics alongside
/// the `engine_*`/`net_*` cells: every stage from decode through journal
/// append, check and verdict route to socket write, read off one frame.
///
/// # Errors
///
/// The recovery error or the bind error.
#[allow(clippy::too_many_arguments)]
pub fn serve_durable_with(
    addr: impl ToSocketAddrs,
    path: impl AsRef<Path>,
    config: StoreConfig,
    engine_config: EngineConfig,
    factory: Arc<dyn ObjectMonitorFactory>,
    server_config: ServerConfig,
    telemetry: Arc<Telemetry>,
) -> Result<(MonitorServer, Arc<Store>, RecoveryStats), StoreError> {
    let recovery = recover_with(path, config, engine_config, factory, telemetry)?;
    let server = MonitorServer::with_engine(addr, Arc::new(recovery.engine), server_config)
        .map_err(StoreError::Io)?;
    Ok((server, recovery.store, recovery.stats))
}
