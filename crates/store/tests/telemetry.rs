//! The store's registry cells: `store_*` metrics tick on the shared
//! [`Telemetry`] handle, `StoreStats` is an exact view over them, and a
//! recovered run journals into the same registry the engine checks with.
//! Served durably, every server-side pipeline stage has a live histogram
//! a client reads off the Stats frame.

use drv_core::CheckerMonitorFactory;
use drv_engine::{EngineConfig, MonitoringEngine};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, Symbol};
use drv_net::{MonitorClient, ServerConfig};
use drv_spec::Register;
use drv_store::{recover_with, serve_durable_with, FsyncPolicy, StoreConfig};
use drv_telemetry::{Snapshot, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECTS: u64 = 4;
const OPS: u64 = 50;

fn factory() -> Arc<CheckerMonitorFactory<Register>> {
    Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2))
}

/// Write-k / read-k-back register traffic: `2 * OBJECTS * OPS` events.
fn stream() -> Vec<(ObjectId, Symbol)> {
    let mut events = Vec::new();
    for op in 0..OPS {
        for object in 0..OBJECTS {
            let (invocation, response) = if op % 2 == 0 {
                (Invocation::Write(op), Response::Ack)
            } else {
                (Invocation::Read, Response::Value(op - 1))
            };
            events.push((ObjectId(object), Symbol::invoke(ProcId(0), invocation)));
            events.push((ObjectId(object), Symbol::respond(ProcId(0), response)));
        }
    }
    events
}

/// Submits `events` through the batched path in `chunk`-sized batches.
fn submit_chunks(engine: &MonitoringEngine, events: &[(ObjectId, Symbol)], chunk: usize) {
    for window in events.chunks(chunk) {
        let mut batch = EventBatch::with_capacity(window.len());
        for (object, symbol) in window {
            batch.push_symbol(*object, symbol, engine.interner());
        }
        engine.submit_batch(&batch);
    }
}

#[test]
fn store_metrics_ride_the_shared_registry() {
    let dir = std::env::temp_dir().join(format!("drv-store-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("shared-registry.journal");
    let _ = std::fs::remove_file(&path);

    let tel = Telemetry::new();
    let recovery = recover_with(
        &path,
        StoreConfig::new()
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_checkpoint_interval(16),
        EngineConfig::new(2).with_max_pending(4096),
        factory(),
        Arc::clone(&tel),
    )
    .expect("fresh journal opens");
    assert!(
        Arc::ptr_eq(recovery.engine.telemetry(), &tel),
        "engine and store share the caller's handle"
    );

    let events = stream();
    submit_chunks(&recovery.engine, &events, 32);
    recovery.engine.finish().expect("no worker panicked");
    recovery.store.sync().expect("explicit sync");

    // StoreStats is a view over the same cells the snapshot serializes.
    let stats = recovery.store.stats();
    let snap = tel.snapshot();
    let n = events.len() as u64;
    assert_eq!(stats.events, n, "every accepted event was journaled");
    assert_eq!(snap.counter("store_events"), Some(stats.events));
    assert_eq!(snap.counter("store_batches"), Some(stats.batches));
    assert_eq!(snap.counter("store_checkpoints"), Some(stats.checkpoints));
    assert_eq!(snap.counter("store_syncs"), Some(stats.syncs));
    assert!(
        stats.checkpoints > 0,
        "interval 16 over {OPS} ops checkpoints"
    );
    // The journal-bytes cell counts exactly what reached the file.
    let on_disk = std::fs::metadata(&path).expect("journal exists").len();
    assert_eq!(snap.counter("store_journal_bytes"), Some(on_disk));
    // Timing was on (instrumented handle), so the latency histograms filled.
    let appends = snap.histogram("store_append_ns").expect("registered");
    assert_eq!(
        appends.count,
        stats.batches + stats.checkpoints + stats.tombstones
    );
    assert!(snap.histogram("store_fsync_ns").expect("registered").count >= stats.syncs);
    // And the engine's cells agree — one registry, one story.
    assert_eq!(snap.counter("engine_events"), Some(n));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn passive_store_still_counts_but_never_times() {
    let dir = std::env::temp_dir().join(format!("drv-store-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("passive.journal");
    let _ = std::fs::remove_file(&path);

    let recovery = drv_store::recover(&path, StoreConfig::new(), EngineConfig::new(1), factory())
        .expect("fresh journal opens");
    let events = stream();
    submit_chunks(&recovery.engine, &events, 64);
    recovery.engine.finish().expect("no worker panicked");

    let stats = recovery.store.stats();
    assert_eq!(
        stats.events,
        events.len() as u64,
        "counters tick on the passive handle"
    );
    let snap = recovery.store.telemetry().snapshot();
    assert_eq!(
        snap.histogram("store_append_ns").expect("registered").count,
        0,
        "a passive handle never calls Instant::now on the append path"
    );

    let _ = std::fs::remove_file(&path);
}

/// Every server-side pipeline stage, by its registry cell, in pipeline
/// order.
const STAGE_CELLS: [&str; 8] = [
    "net_decode_ns",
    "store_append_ns",
    "store_fsync_ns",
    "engine_queue_wait_ns",
    "engine_check_ns",
    "engine_verdict_flush_ns",
    "net_verdict_route_ns",
    "net_socket_write_ns",
];

/// Serves [`stream`] durably over loopback on `tel` (fsync on every
/// record) and returns the registry snapshot the client reads off the
/// Stats frame once every verdict has arrived.
fn served_registry(tel: Arc<Telemetry>, tag: &str) -> Snapshot {
    let dir = std::env::temp_dir().join(format!("drv-store-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("served-{tag}.journal"));
    let _ = std::fs::remove_file(&path);
    let (server, _store, _) = serve_durable_with(
        ("127.0.0.1", 0),
        &path,
        StoreConfig::new().with_fsync(FsyncPolicy::Always),
        EngineConfig::new(2),
        factory(),
        ServerConfig::new(),
        tel,
    )
    .expect("durable server binds");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let events = stream();
    client.send_stream(&events, 32).expect("stream sends");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut received = 0;
    while received < events.len() {
        assert!(
            Instant::now() < deadline,
            "{tag}: {received} of {} verdicts",
            events.len()
        );
        received += client.wait_verdicts(Duration::from_millis(100)).len();
    }
    let reply = client.stats(Duration::from_secs(30)).expect("stats reply");
    client.shutdown().expect("clean goodbye");
    server.shutdown().expect("no worker panicked");
    let _ = std::fs::remove_file(&path);
    reply
}

#[test]
fn every_server_stage_has_a_live_histogram_on_the_stats_frame() {
    let instrumented = served_registry(Telemetry::new(), "instrumented");
    let passive = served_registry(Telemetry::passive(), "passive");
    for cell in STAGE_CELLS {
        let count = |snap: &Snapshot| snap.histogram(cell).expect("registered").count;
        assert!(count(&instrumented) > 0, "{cell} recorded nothing");
        assert_eq!(
            count(&passive),
            0,
            "{cell} read a clock on a passive handle"
        );
    }
}
