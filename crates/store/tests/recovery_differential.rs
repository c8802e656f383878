//! The kill-and-recover differential: crash a journaled run at **every
//! frame boundary** (plus seeded mid-frame torn tails), recover, and
//! require the merged verdict streams to be bit-identical to
//! [`sequential_reference`] over exactly the events the surviving journal
//! prefix holds — at 1/2/4 workers and producer batch sizes 1/256.
//!
//! The journal is the ground truth of what was accepted: truncating it at
//! offset X *is* the crash at X (everything past the valid prefix — torn
//! frame included — is what the crash cost).  Recovery must rebuild the
//! engine from the checkpoint chains, replay the suffix, and end up with
//! the exact per-object verdict streams an uninterrupted run over that
//! prefix would have produced — original `seq` numbering included, which
//! the pre-filled checkpoint prefixes guarantee by construction.

use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig, MonitoringEngine};
use drv_lang::{Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::wire::{decode_frame, Frame};
use drv_net::{MonitorClient, ServerConfig};
use drv_spec::Register;
use drv_store::{
    decode_checkpoint_record, recover, scan_journal, serve_durable, FsyncPolicy, JournalRecord,
    Store, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROCESSES: usize = 2;

/// LIN for even objects, SC for odd — the workspace's standard mixed fleet.
fn mixed_factory() -> Arc<RoutingMonitorFactory> {
    let lin = Arc::new(CheckerMonitorFactory::linearizability(
        Register::new(),
        PROCESSES,
    )) as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(
        Register::new(),
        PROCESSES,
    )) as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new(
        "mixed LIN/SC",
        move |object: ObjectId| {
            if object.0.is_multiple_of(2) {
                Arc::clone(&lin)
            } else {
                Arc::clone(&sc)
            }
        },
    ))
}

/// A fresh journal path under the OS temp dir (unique per call; removed by
/// the caller when the test ends).
fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "drv-store-{tag}-{}-{unique}.journal",
        std::process::id()
    ))
}

/// A seeded interleaved multi-object stream: per-object self-contained
/// rounds (`write v; ack; read; v-or-stale`), round order shuffled across
/// objects, ~20% faulty rounds (latching LIN violations, recovering SC
/// dips).
fn seeded_stream(seed: u64, objects: u64, rounds: u64) -> Vec<(ObjectId, Symbol)> {
    let mut rng = StdRng::seed_from_u64(0x0005_709E ^ seed);
    let mut per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..objects)
        .map(|o| {
            let object = ObjectId(seed * 64 + o);
            let mut symbols = Vec::new();
            for r in 0..rounds {
                let value = r + 1;
                let read = if rng.gen_bool(0.2) {
                    value.wrapping_sub(1)
                } else {
                    value
                };
                symbols.extend([
                    Symbol::invoke(ProcId(0), Invocation::Write(value)),
                    Symbol::respond(ProcId(0), Response::Ack),
                    Symbol::invoke(ProcId(1), Invocation::Read),
                    Symbol::respond(ProcId(1), Response::Value(read)),
                ]);
            }
            (object, symbols)
        })
        .collect();
    // Interleave: repeatedly pick a random object with symbols left and
    // emit a random-length run of its stream (keeps per-object order).
    let mut events = Vec::new();
    while per_object.iter().any(|(_, symbols)| !symbols.is_empty()) {
        let pick = rng.gen_range(0..per_object.len());
        let (object, symbols) = &mut per_object[pick];
        if symbols.is_empty() {
            continue;
        }
        let take = rng.gen_range(1..=symbols.len().min(3));
        for symbol in symbols.drain(..take) {
            events.push((*object, symbol));
        }
    }
    events
}

/// Replays the journal's batch records into the flat `(object, symbol)`
/// stream they were accepted as — the ground truth the differential
/// compares against.
fn journaled_events(buf: &[u8]) -> Vec<(ObjectId, Symbol)> {
    let arena = SharedInterner::new();
    let scan = scan_journal(buf, &arena);
    let interner = arena.read();
    let mut events = Vec::new();
    for record in scan.records {
        if let JournalRecord::Batch(batch) = record {
            events.extend(
                batch
                    .iter()
                    .map(|event| (event.object, event.resolve(&interner))),
            );
        }
    }
    events
}

/// Every frame boundary of the journal (0 and the total length included).
fn frame_boundaries(buf: &[u8]) -> Vec<usize> {
    let arena = SharedInterner::new();
    let mut offsets = vec![0];
    let mut offset = 0;
    while offset < buf.len() {
        let (_, used) = decode_frame(&buf[offset..], &arena).expect("journal written by us");
        offset += used;
        offsets.push(offset);
    }
    offsets
}

/// Runs the stream through a journaled engine and returns the journal
/// bytes (the engine's report is checked against the reference too, as the
/// crash-free baseline).
fn run_journaled(
    path: &PathBuf,
    events: &[(ObjectId, Symbol)],
    workers: usize,
    batch: usize,
    store_config: StoreConfig,
) -> Vec<u8> {
    let store = Arc::new(Store::open(path, store_config).expect("journal opens"));
    let engine = MonitoringEngine::new(EngineConfig::new(workers), mixed_factory());
    engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);
    engine.submit_stream(events, batch);
    let report = engine.finish().expect("no worker panicked");
    assert!(
        store.io_error().is_none(),
        "journal append failed: {:?}",
        store.io_error()
    );
    let expected = sequential_reference(mixed_factory().as_ref(), events);
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "baseline run diverged for {object:?}"
        );
    }
    std::fs::read(path).expect("journal readable")
}

/// Truncates the journal to `len` bytes (the crash), recovers, and asserts
/// the recovered report is bit-identical to the sequential reference over
/// the surviving event prefix.
fn crash_recover_and_check(
    path: &PathBuf,
    buf: &[u8],
    len: usize,
    workers: usize,
    store_config: StoreConfig,
) {
    std::fs::write(path, &buf[..len]).expect("write truncated journal");
    let survivors = journaled_events(&buf[..len]);
    let recovery = recover(
        path,
        store_config,
        EngineConfig::new(workers),
        mixed_factory(),
    )
    .expect("recovery succeeds");
    assert_eq!(
        recovery.stats.replayed_events,
        survivors.len() as u64,
        "crash at {len}: replay must cover exactly the surviving prefix"
    );
    let report = recovery.engine.finish().expect("no worker panicked");
    let expected = sequential_reference(mixed_factory().as_ref(), &survivors);
    assert_eq!(
        report.objects.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "crash at {len}: object sets diverge"
    );
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "crash at byte {len}, {workers} workers, {object:?}"
        );
    }
}

#[test]
fn kill_at_every_frame_boundary_recovers_bit_identically() {
    // Small checkpoint interval so mid-stream checkpoints actually seed.
    let store_config = StoreConfig::new()
        .with_checkpoint_interval(6)
        .with_fsync(FsyncPolicy::Never);
    for &workers in &[1usize, 2, 4] {
        for &batch in &[1usize, 256] {
            let seed = (workers * 1000 + batch) as u64;
            let events = seeded_stream(seed, 5, 4);
            let path = journal_path("boundary");
            let buf = run_journaled(&path, &events, workers, batch, store_config);
            for len in frame_boundaries(&buf) {
                crash_recover_and_check(&path, &buf, len, workers, store_config);
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn kill_at_seeded_torn_write_tails_recovers_bit_identically() {
    // Mid-frame truncations: the torn-tail scan must salvage the frame
    // prefix and recovery must match the reference over it.
    let store_config = StoreConfig::new()
        .with_checkpoint_interval(5)
        .with_fsync(FsyncPolicy::EveryN(4));
    for &(workers, batch) in &[(1usize, 1usize), (2, 1), (4, 256)] {
        let seed = (workers * 77 + batch) as u64;
        let events = seeded_stream(seed, 4, 4);
        let path = journal_path("torn");
        let buf = run_journaled(&path, &events, workers, batch, store_config);
        let mut rng = StdRng::seed_from_u64(0x70A2 ^ seed);
        for _ in 0..25 {
            let len = rng.gen_range(0..=buf.len());
            crash_recover_and_check(&path, &buf, len, workers, store_config);
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn recover_then_continue_then_recover_again() {
    // Crash mid-run, recover, keep submitting (journal re-attached), then
    // crash the *recovered* run too: the second recovery must equal the
    // reference over prefix + continuation — checkpoints taken before the
    // first crash still seeding correctly under the grown journal.
    let store_config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Always);
    let events = seeded_stream(42, 4, 5);
    let path = journal_path("continue");
    let buf = run_journaled(&path, &events, 2, 1, store_config);
    let boundaries = frame_boundaries(&buf);
    let cut = boundaries[boundaries.len() / 2];
    std::fs::write(&path, &buf[..cut]).expect("write truncated journal");
    let survivors = journaled_events(&buf[..cut]);

    let recovery =
        recover(&path, store_config, EngineConfig::new(2), mixed_factory()).expect("recovers");
    // Continue with the suffix the crash cost us (same submission order).
    let continuation = &events[survivors.len()..];
    recovery.engine.submit_stream(continuation, 3);
    let report = recovery.engine.finish().expect("no worker panicked");
    let expected = sequential_reference(mixed_factory().as_ref(), &events);
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "continued run, {object:?}"
        );
    }

    // The continued run journaled onward: a second recovery of the full
    // journal must replay to the same truth.
    let recovery =
        recover(&path, store_config, EngineConfig::new(4), mixed_factory()).expect("recovers");
    let report = recovery.engine.finish().expect("no worker panicked");
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "second recovery, {object:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tombstones_stop_checkpoint_resurrection() {
    // Checkpoint an object, evict it (tombstone), keep journaling other
    // traffic, crash, recover: the evicted object must NOT be seeded from
    // its stale checkpoint — it is retired again at the tombstone's
    // position, and fresh post-eviction traffic starts a clean epoch.
    let store_config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Never);
    let path = journal_path("tombstone");
    let store = Arc::new(Store::open(&path, store_config).expect("journal opens"));
    let engine = MonitoringEngine::new(EngineConfig::new(2), mixed_factory());
    engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);

    let victim = ObjectId(2);
    let bystander = ObjectId(3);
    let mut events: Vec<(ObjectId, Symbol)> = Vec::new();
    for r in 0..3u64 {
        for &object in &[victim, bystander] {
            events.extend([
                (object, Symbol::invoke(ProcId(0), Invocation::Write(r + 1))),
                (object, Symbol::respond(ProcId(0), Response::Ack)),
                (object, Symbol::invoke(ProcId(1), Invocation::Read)),
                (object, Symbol::respond(ProcId(1), Response::Value(r + 1))),
            ]);
        }
    }
    engine.submit_stream(&events, 1);
    engine.evict(victim);
    // Replay identity requires post-eviction traffic not to race the
    // retirement (the tombstone is journaled when the worker processes the
    // eviction marker, while event frames are journaled write-ahead at
    // submit).  The store's tombstone counter is the quiesce signal.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while store.stats().tombstones == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never retired the victim"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // A fresh epoch for the victim after its eviction.
    let epoch2: Vec<(ObjectId, Symbol)> = vec![
        (victim, Symbol::invoke(ProcId(0), Invocation::Read)),
        (victim, Symbol::respond(ProcId(0), Response::Value(0))),
    ];
    engine.submit_stream(&epoch2, 1);
    let live_report = engine.finish().expect("no worker panicked");
    assert!(
        store.stats().checkpoints > 0,
        "the victim must have been checkpointed"
    );
    assert_eq!(
        store.stats().tombstones,
        1,
        "eviction must tombstone exactly once"
    );
    drop(store);

    let recovery =
        recover(&path, store_config, EngineConfig::new(2), mixed_factory()).expect("recovers");
    assert_eq!(recovery.stats.tombstones, 1);
    assert!(
        recovery.stats.seeded_objects <= 1,
        "at most the bystander may seed; the tombstoned victim must not"
    );
    let report = recovery.engine.finish().expect("no worker panicked");
    // Both epochs of the victim, concatenated — exactly like the live run.
    assert_eq!(report.verdicts(victim), live_report.verdicts(victim));
    assert_eq!(report.verdicts(bystander), live_report.verdicts(bystander));
    let _ = std::fs::remove_file(&path);
}

/// Regression: recovery attached the journal as soon as the replay was
/// queued, so a worker reaching a replayed eviction after that journaled a
/// second tombstone — behind the next generation's live batches, where the
/// following recovery retired that generation.  Recovery returns drained now,
/// having appended nothing.
#[test]
fn a_replayed_eviction_is_not_journaled_again() {
    let config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Never);
    let victim = ObjectId(2);
    let rounds = |values: std::ops::Range<u64>| -> Vec<(ObjectId, Symbol)> {
        values
            .flat_map(|value| {
                [
                    (victim, Symbol::invoke(ProcId(0), Invocation::Write(value))),
                    (victim, Symbol::respond(ProcId(0), Response::Ack)),
                    (victim, Symbol::invoke(ProcId(1), Invocation::Read)),
                    (victim, Symbol::respond(ProcId(1), Response::Value(value))),
                ]
            })
            .collect()
    };
    // Retired again between one of its writes and the read of it, the
    // second generation would read a value its fresh monitor never saw.
    let (first, second) = (rounds(1..4), rounds(7..10));
    for workers in [1, 2, 4] {
        let path = journal_path("evict-tail");
        let store = Arc::new(Store::open(&path, config).expect("journal opens"));
        let engine = MonitoringEngine::new(EngineConfig::new(workers), mixed_factory());
        engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);
        engine.submit_stream(&first, 1);
        engine.evict(victim);
        engine.finish().expect("no worker panicked");
        assert_eq!(store.stats().tombstones, 1);
        drop(store);
        let buf = std::fs::read(&path).expect("journal readable");
        let tail = scan_journal(&buf, &SharedInterner::new()).records.pop();
        assert!(matches!(tail, Some(JournalRecord::Evict(object)) if object == victim));

        for _ in 0..8 {
            std::fs::write(&path, &buf).expect("restore the journal");
            let recovery = recover(&path, config, EngineConfig::new(workers), mixed_factory())
                .expect("recovers");
            assert_eq!(recovery.engine.backlog(), 0, "{workers}w: replay drained");
            assert_eq!(
                recovery.store.stats().tombstones,
                0,
                "{workers}w: tombstone re-journaled"
            );
            // A new generation of the victim, then a crash.
            recovery.engine.submit_stream(&second, 1);
            recovery.engine.wait_drained();
            drop(recovery);

            let recovery = recover(&path, config, EngineConfig::new(workers), mixed_factory())
                .expect("recovers");
            let report = recovery.engine.finish().expect("no worker panicked");
            let expected: Vec<Verdict> = [&first, &second]
                .iter()
                .flat_map(|generation| {
                    sequential_reference(mixed_factory().as_ref(), generation)
                        .remove(&victim)
                        .expect("the victim's stream")
                })
                .collect();
            assert_eq!(
                report.verdicts(victim),
                Some(&expected[..]),
                "{workers} workers"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Journals `events` one submission at a time, each drained before the next,
/// so every checkpoint lands right behind the event that made it due.
fn journal_in_order(path: &PathBuf, events: &[(ObjectId, Symbol)], store_config: StoreConfig) {
    let store = Arc::new(Store::open(path, store_config).expect("journal opens"));
    let engine = MonitoringEngine::new(EngineConfig::new(1), mixed_factory());
    engine.attach_journal(Arc::clone(&store) as Arc<dyn drv_engine::JournalSink>);
    for (object, symbol) in events {
        engine.submit(*object, symbol);
        engine.wait_drained();
    }
    engine.finish().expect("no worker panicked");
}

/// Each Checkpoint frame of `buf`: its byte range, object, base and fed.
fn checkpoint_frames(buf: &[u8]) -> Vec<(std::ops::Range<usize>, ObjectId, u64, u64)> {
    let arena = SharedInterner::new();
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < buf.len() {
        let (frame, used) = decode_frame(&buf[offset..], &arena).expect("journal written by us");
        if let Frame::Checkpoint(payload) = frame {
            let record = decode_checkpoint_record(&payload).expect("a record we wrote");
            frames.push((
                offset..offset + used,
                record.object,
                record.base(),
                record.fed,
            ));
        }
        offset += used;
    }
    frames
}

/// Recovers the journal at `path` and checks every object against the
/// reference over `events`; returns the events the checkpoint chains
/// covered.
fn recover_and_check(path: &PathBuf, events: &[(ObjectId, Symbol)], config: StoreConfig) -> u64 {
    let recovery = recover(path, config, EngineConfig::new(2), mixed_factory()).expect("recovers");
    assert_eq!(recovery.stats.rejected_checkpoints, 0);
    let skipped = recovery.stats.skipped_events;
    let report = recovery.engine.finish().expect("no worker panicked");
    for (object, verdicts) in sequential_reference(mixed_factory().as_ref(), events) {
        assert_eq!(report.verdicts(object), Some(&verdicts[..]), "{object:?}");
    }
    skipped
}

/// Twelve events per object at interval 4, journaled in order: chains of
/// three records, the first a full form and the others deltas.  Returns
/// the journal's path, its events and its bytes.
fn chain_fixture(config: StoreConfig) -> (PathBuf, Vec<(ObjectId, Symbol)>, Vec<u8>) {
    let events = seeded_stream(7, 2, 3);
    let path = journal_path("gap");
    journal_in_order(&path, &events, config);
    let buf = std::fs::read(&path).expect("journal readable");
    (path, events, buf)
}

/// `buf` without each object's middle checkpoint record (base 4).
fn splice_middle_records(buf: &[u8]) -> Vec<u8> {
    let mut spliced = buf.to_vec();
    let frames = checkpoint_frames(buf);
    for (range, _, _, _) in frames.iter().filter(|(_, _, base, _)| *base == 4).rev() {
        spliced.drain(range.clone());
    }
    spliced
}

#[test]
fn a_chain_stops_at_a_missing_checkpoint() {
    // Without the middle record the last one extends a state nobody
    // restores; recovery must seed from the first alone and replay the rest.
    let config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Never);
    let (path, events, buf) = chain_fixture(config);
    let mut links: Vec<(ObjectId, u64, u64)> = checkpoint_frames(&buf)
        .iter()
        .map(|(_, object, base, fed)| (*object, *base, *fed))
        .collect();
    links.sort_unstable();
    // `seeded_stream`'s objects: a LIN one and an SC one.
    let objects = [ObjectId(7 * 64), ObjectId(7 * 64 + 1)];
    assert_eq!(
        links,
        objects
            .map(|object| [(object, 0, 4), (object, 4, 8), (object, 8, 12)])
            .concat()
    );
    assert_eq!(
        recover_and_check(&path, &events, config),
        24,
        "whole chains seed"
    );

    std::fs::write(&path, splice_middle_records(&buf)).expect("write spliced journal");
    assert_eq!(
        recover_and_check(&path, &events, config),
        8,
        "each chain stops at its gap"
    );
    let _ = std::fs::remove_file(&path);
}

/// Recovery hands the engine only what the checkpoint chains do not cover:
/// every event the engine processes is one its checkers check, and their
/// number is the replayed events less the covered ones.
#[test]
fn recovery_feeds_the_engine_only_the_uncovered_suffix() {
    let config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Never);
    let (path, events, buf) = chain_fixture(config);
    for (journal, covered) in [(buf.clone(), 24), (splice_middle_records(&buf), 8)] {
        std::fs::write(&path, journal).expect("write the journal");
        let recovery =
            recover(&path, config, EngineConfig::new(2), mixed_factory()).expect("recovers");
        let stats = recovery.stats;
        assert_eq!((stats.replayed_events, stats.skipped_events), (24, covered));
        let telemetry = Arc::clone(recovery.engine.telemetry());
        let report = recovery.engine.finish().expect("no worker panicked");
        let checks = telemetry.snapshot().counter("engine_checker_checks");
        assert_eq!(
            report.stats.events,
            stats.replayed_events - stats.skipped_events,
            "{covered} covered: the engine processed covered events"
        );
        assert_eq!(checks, Some(report.stats.events), "{covered} covered");
        for (object, verdicts) in sequential_reference(mixed_factory().as_ref(), &events) {
            assert_eq!(report.verdicts(object), Some(&verdicts[..]), "{object:?}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_torn_delta_costs_only_itself() {
    // The journal ends with a delta record; a crash tears it.  The chain
    // before it still seeds, and replay covers its interval.
    let config = StoreConfig::new()
        .with_checkpoint_interval(4)
        .with_fsync(FsyncPolicy::Never);
    let events = seeded_stream(11, 1, 3);
    let path = journal_path("torn-delta");
    journal_in_order(&path, &events, config);
    let buf = std::fs::read(&path).expect("journal readable");
    let frames = checkpoint_frames(&buf);
    let (last, _, base, fed) = frames.last().expect("three checkpoints").clone();
    assert_eq!(
        (base, fed, last.end),
        (8, 12, buf.len()),
        "the tail is a delta"
    );
    for cut in [last.start + 1, last.start + 40, last.end - 1] {
        std::fs::write(&path, &buf[..cut]).expect("write torn journal");
        assert_eq!(recover_and_check(&path, &events, config), 8, "cut at {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A one-connection loopback tee in front of `server`: the address a client
/// connects to, and a thread that forwards both directions and returns
/// every byte the client sent once the client hangs up.
fn tee(server: SocketAddr) -> (SocketAddr, JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("tee binds");
    let addr = listener.local_addr().expect("tee address");
    let handle = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("client connects");
        let mut upstream = TcpStream::connect(server).expect("server accepts");
        let (mut replies, mut back) = (upstream.try_clone().unwrap(), client.try_clone().unwrap());
        let replies = std::thread::spawn(move || std::io::copy(&mut replies, &mut back));
        let mut sent = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = client.read(&mut chunk) {
            sent.extend_from_slice(&chunk[..n]);
            if upstream.write_all(&chunk[..n]).is_err() {
                break;
            }
        }
        let _ = upstream.shutdown(Shutdown::Both);
        let _ = replies.join();
        sent
    });
    (addr, handle)
}

/// The batch frames of a byte stream, each as its own bytes.
fn batch_frames(mut bytes: &[u8]) -> Vec<&[u8]> {
    let arena = SharedInterner::new();
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let (frame, used) = decode_frame(bytes, &arena).expect("whole frames");
        if let Frame::Batch(_) = frame {
            frames.push(&bytes[..used]);
        }
        bytes = &bytes[used..];
    }
    frames
}

/// A served journal holds the clients' own frames: two clients, at batch 1
/// and 256, stream into a durable server that is dropped without a
/// Shutdown; every Batch record of its journal is, byte for byte, the next
/// frame one of the clients sent, and the journal recovers to the
/// reference.
#[test]
fn a_served_journal_holds_the_frames_its_clients_sent() {
    let config = StoreConfig::new()
        .with_checkpoint_interval(16)
        .with_fsync(FsyncPolicy::Never);
    let path = journal_path("served");
    let (server, store, _) = serve_durable(
        ("127.0.0.1", 0),
        &path,
        config,
        EngineConfig::new(2),
        mixed_factory(),
        ServerConfig::new(),
    )
    .expect("durable server binds");
    let streams = [(seeded_stream(1, 3, 4), 1), (seeded_stream(2, 5, 60), 256)];
    let mut tees = Vec::new();
    let mut clients = Vec::new();
    for (events, batch) in &streams {
        let (addr, handle) = tee(server.local_addr());
        let mut client = MonitorClient::connect(addr).expect("client connects");
        client.send_stream(events, *batch).expect("stream sends");
        tees.push(handle);
        clients.push((client, events.len()));
    }
    // Every verdict back means every batch was journaled (write-ahead).
    let deadline = Instant::now() + Duration::from_secs(60);
    for (client, expected) in &clients {
        let mut received = 0;
        while received < *expected {
            assert!(Instant::now() < deadline, "verdicts missing");
            received += client.wait_verdicts(Duration::from_millis(100)).len();
        }
    }
    drop(server);
    drop(clients);
    let sent: Vec<Vec<u8>> = tees
        .into_iter()
        .map(|tee| tee.join().expect("tee"))
        .collect();
    assert!(store.io_error().is_none(), "{:?}", store.io_error());

    let journal = std::fs::read(&path).expect("journal readable");
    let mut unmatched: Vec<std::vec::IntoIter<&[u8]>> = sent
        .iter()
        .map(|bytes| batch_frames(bytes).into_iter())
        .collect();
    let records = batch_frames(&journal);
    assert_eq!(records.len(), 48 + 5, "one record per frame sent");
    for (index, record) in records.into_iter().enumerate() {
        let Some(client) = unmatched
            .iter_mut()
            .find(|frames| frames.as_slice().first() == Some(&record))
        else {
            panic!("batch record {index} is no client's next frame");
        };
        client.next();
    }

    let recovery = recover(&path, config, EngineConfig::new(2), mixed_factory()).expect("recovers");
    let events: Vec<(ObjectId, Symbol)> = streams
        .iter()
        .flat_map(|(events, _)| events.iter().cloned())
        .collect();
    assert_eq!(recovery.stats.replayed_events, events.len() as u64);
    let report = recovery.engine.finish().expect("no worker panicked");
    for (object, verdicts) in sequential_reference(mixed_factory().as_ref(), &events) {
        assert_eq!(report.verdicts(object), Some(&verdicts[..]), "{object:?}");
    }
    let _ = std::fs::remove_file(&path);
}
