//! Journal corruption hardening, in the style of `drv-net`'s
//! `wire_fuzz.rs`: seeded byte flips, truncation at every boundary class,
//! header length inflation with a re-sealed CRC, checkpoint-interior
//! mutation, interleaved torn tails and raw garbage.  The contract under
//! test: [`scan_journal`] always returns (salvaging the longest valid
//! prefix and reporting a typed cause), [`Store::open`] truncates rather
//! than trusts, [`decode_checkpoint_record`] yields typed
//! [`StoreError`]s — never a panic, never an allocation sized from a
//! corrupted length field — and a journal stays appendable and
//! recoverable after salvage.

use drv_core::{CheckerMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig, JournalSink, MonitoringEngine};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::wire::{
    crc32, decode_frame, encode_evict, frame_buffer, seal_frame, FrameEncoder, FrameKind,
    HEADER_LEN, MAX_PAYLOAD,
};
use drv_spec::Register;
use drv_store::{
    decode_checkpoint_record, encode_checkpoint_record, recover, scan_journal, FsyncPolicy,
    JournalRecord, Store, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seeded fuzz rounds.
const ROUNDS: u64 = 400;

/// A fresh journal path under the OS temp dir.
fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "drv-store-fuzz-{tag}-{}-{unique}.journal",
        std::process::id()
    ))
}

/// Appends `symbol` as a one-event batch — the record `MonitoringEngine::submit`
/// journals.
fn append_one(store: &Store, object: ObjectId, symbol: &Symbol) {
    let arena = SharedInterner::new();
    let mut batch = EventBatch::with_capacity(1);
    batch.push_symbol(object, symbol, &arena);
    store.append_batch(&batch, &arena);
}

/// A valid journal with seed-varied contents: batch records (several
/// objects, all payload shapes), checkpoints (some with garbage state —
/// valid *records*, restore-rejected seeds) and tombstones.
fn valid_journal(rng: &mut StdRng) -> Vec<u8> {
    let arena = SharedInterner::new();
    let mut encoder = FrameEncoder::new();
    let mut buf = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    for record in 0..rng.gen_range(3..=10u32) {
        match rng.gen_range(0..5u32) {
            0..=2 => {
                let mut batch = EventBatch::new();
                for i in 0..rng.gen_range(1..=12u64) {
                    let object = ObjectId(rng.gen_range(0..4u64));
                    let proc = ProcId(rng.gen_range(0..2usize));
                    let symbol = match rng.gen_range(0..4u32) {
                        0 => Symbol::invoke(proc, Invocation::Write(i)),
                        1 => Symbol::invoke(proc, Invocation::Read),
                        2 => Symbol::respond(proc, Response::Ack),
                        _ => Symbol::respond(proc, Response::Value(i)),
                    };
                    batch.push_symbol(object, &symbol, &arena);
                    verdicts.push(match rng.gen_range(0..3u32) {
                        0 => Verdict::Yes,
                        1 => Verdict::No,
                        _ => Verdict::Maybe(rng.gen_range(0..5u32)),
                    });
                }
                buf.extend_from_slice(&encoder.encode_batch(u64::from(record), &batch, &arena));
            }
            3 => {
                let state: Vec<u8> = (0..rng.gen_range(0..64usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
                let take = rng.gen_range(0..=verdicts.len().min(8));
                buf.extend_from_slice(&encode_checkpoint_record(
                    ObjectId(rng.gen_range(0..4u64)),
                    &verdicts[..take],
                    &state,
                ));
            }
            _ => {
                buf.extend_from_slice(&encode_evict(ObjectId(rng.gen_range(0..4u64))));
            }
        }
    }
    buf
}

/// The salvage invariant: whatever `scan_journal` reports as the valid
/// prefix must itself re-scan clean (no torn cause, same record count).
fn assert_salvage(buf: &[u8]) {
    let arena = SharedInterner::new();
    let scan = scan_journal(buf, &arena);
    let valid = usize::try_from(scan.valid_len).expect("prefix fits");
    assert!(valid <= buf.len(), "valid prefix cannot exceed the input");
    let rescan = scan_journal(&buf[..valid], &SharedInterner::new());
    assert!(rescan.torn.is_none(), "the salvaged prefix must be clean: {:?}", rescan.torn);
    assert_eq!(rescan.valid_len, scan.valid_len);
    assert_eq!(rescan.records.len(), scan.records.len());
}

#[test]
fn seeded_byte_flips_salvage_a_clean_prefix() {
    let mut torn = 0u64;
    let mut survivals = 0u64;
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(0x10AD ^ seed);
        let journal = valid_journal(&mut rng);
        let mut flipped = journal.clone();
        for _ in 0..rng.gen_range(1..=4u32) {
            let pos = rng.gen_range(0..flipped.len());
            flipped[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }
        assert_salvage(&flipped);
        let scan = scan_journal(&flipped, &SharedInterner::new());
        if scan.torn.is_some() {
            torn += 1;
        } else {
            survivals += 1;
        }
    }
    // Payload flips die at the CRC, header flips at validation; only flips
    // into ignored bytes (e.g. reserved) may survive.
    assert!(torn > survivals, "suspiciously many flipped journals scanned clean: {survivals}");
}

#[test]
fn truncation_at_every_boundary_class_keeps_the_frame_prefix() {
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(0x7241 ^ seed);
        let journal = valid_journal(&mut rng);
        let full = scan_journal(&journal, &SharedInterner::new());
        assert!(full.torn.is_none());
        for cut in [
            rng.gen_range(0..HEADER_LEN.min(journal.len())),
            rng.gen_range(0..journal.len()),
            journal.len().saturating_sub(1),
        ] {
            assert_salvage(&journal[..cut]);
            let scan = scan_journal(&journal[..cut], &SharedInterner::new());
            assert!(scan.records.len() <= full.records.len());
            assert!(scan.valid_len <= cut as u64);
        }
    }
}

#[test]
fn inflated_length_fields_cannot_allocate() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let journal = valid_journal(&mut rng);
    // Find each frame start so the inflation hits a real header.
    let mut offsets = Vec::new();
    let mut offset = 0usize;
    while offset < journal.len() {
        offsets.push(offset);
        let (_, used) = decode_frame(&journal[offset..], &SharedInterner::new()).unwrap();
        offset += used;
    }
    for &start in &offsets {
        for inflated in [MAX_PAYLOAD + 1, u32::MAX, 1 << 30] {
            let mut bad = journal.clone();
            bad[start + 8..start + 12].copy_from_slice(&inflated.to_le_bytes());
            // Re-seal the CRC so only the length guard stands between the
            // field and an allocation.
            let crc = crc32(&bad[start + HEADER_LEN..]);
            bad[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
            let scan = scan_journal(&bad, &SharedInterner::new());
            assert_eq!(
                scan.valid_len, start as u64,
                "an inflated length field must stop the scan at its frame"
            );
            assert!(scan.torn.is_some(), "the stop must carry a typed cause");
            assert_salvage(&bad);
        }
    }
}

#[test]
fn checkpoint_interior_corruption_yields_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let verdicts = vec![Verdict::Yes, Verdict::No, Verdict::Maybe(3), Verdict::Yes];
    let frame = encode_checkpoint_record(ObjectId(7), &verdicts, b"opaque checker state");
    let inner = &frame[HEADER_LEN..];
    decode_checkpoint_record(inner).expect("the uncorrupted record decodes");
    let mut rejected = 0u64;
    let mut survivals = 0u64;
    for _ in 0..2000 {
        let mut bad = inner.to_vec();
        match rng.gen_range(0..3u32) {
            // Byte flips anywhere in the record.
            0 => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let pos = rng.gen_range(0..bad.len());
                    bad[pos] ^= 1u8 << rng.gen_range(0..8u32);
                }
            }
            // Count/length inflation: overwrite 4 bytes with a huge value.
            1 => {
                let pos = rng.gen_range(0..bad.len().saturating_sub(4));
                bad[pos..pos + 4]
                    .copy_from_slice(&rng.gen_range(1u32 << 20..u32::MAX).to_le_bytes());
            }
            // Truncation.
            _ => bad.truncate(rng.gen_range(0..bad.len())),
        }
        match decode_checkpoint_record(&bad) {
            Ok(_) => survivals += 1,
            Err(_) => rejected += 1,
        }
        // The framed version must stop a scan with a typed cause, not kill
        // it: a journal embedding the corrupt record salvages up to it.
        let mut journal = encode_evict(ObjectId(1));
        let mut framed = frame_buffer(bad.len());
        framed.extend_from_slice(&bad);
        seal_frame(FrameKind::Checkpoint, &mut framed);
        journal.extend_from_slice(&framed);
        assert_salvage(&journal);
    }
    assert!(rejected > 0, "no interior mutation was ever rejected");
    assert!(rejected > survivals, "most interior mutations must be typed rejections");
}

#[test]
fn random_garbage_scans_to_nothing() {
    let mut rng = StdRng::seed_from_u64(0xBAAD);
    for _ in 0..2000 {
        let len = rng.gen_range(0..512usize);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        assert_salvage(&garbage);
        // Garbage behind a valid journal prefix: the prefix survives.
        let mut rng2 = StdRng::seed_from_u64(rng.gen_range(0..u64::MAX));
        let mut journal = valid_journal(&mut rng2);
        let clean = scan_journal(&journal, &SharedInterner::new());
        journal.extend_from_slice(&garbage);
        let scan = scan_journal(&journal, &SharedInterner::new());
        assert!(scan.records.len() >= clean.records.len());
        assert_salvage(&journal);
    }
}

#[test]
fn open_truncates_corruption_and_stays_appendable() {
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(0x0F3A ^ seed);
        let mut journal = valid_journal(&mut rng);
        // Corrupt the tail half: flip bytes or chop mid-frame.
        if rng.gen_bool(0.5) {
            let pos = rng.gen_range(journal.len() / 2..journal.len());
            journal[pos] ^= 0x40;
        } else {
            let len = rng.gen_range(journal.len() / 2..journal.len());
            journal.truncate(len);
        }
        let salvaged = scan_journal(&journal, &SharedInterner::new());
        let path = journal_path("reopen");
        std::fs::write(&path, &journal).unwrap();

        let config = StoreConfig::new().with_fsync(FsyncPolicy::Never);
        let store = Store::open(&path, config).expect("open salvages, never fails on corruption");
        assert_eq!(
            store.truncated_bytes(),
            journal.len() as u64 - salvaged.valid_len,
            "open must truncate exactly the torn tail"
        );
        // Append after salvage: the journal must stay clean end to end.
        append_one(&store, ObjectId(9), &Symbol::invoke(ProcId(0), Invocation::Read));
        store.tombstone(ObjectId(9));
        assert!(store.io_error().is_none());
        drop(store);
        let reread = std::fs::read(&path).unwrap();
        let rescan = scan_journal(&reread, &SharedInterner::new());
        assert!(rescan.torn.is_none(), "appending after salvage re-tore the journal");
        assert_eq!(rescan.records.len(), salvaged.records.len() + 2);
        assert!(matches!(rescan.records.last(), Some(JournalRecord::Evict(ObjectId(9)))));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn recover_from_corrupted_journals_never_panics() {
    for seed in 0..25 {
        let mut rng = StdRng::seed_from_u64(0x4EC0 ^ seed);
        let mut journal = valid_journal(&mut rng);
        for _ in 0..rng.gen_range(1..=6u32) {
            let pos = rng.gen_range(0..journal.len());
            journal[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }
        let path = journal_path("recover");
        std::fs::write(&path, &journal).unwrap();
        // The journal's checkpoints carry garbage state: recovery must
        // reject them (typed restore failures → full replay), never panic,
        // and the rebuilt engine must shut down clean.
        let recovery = recover(
            &path,
            StoreConfig::new().with_fsync(FsyncPolicy::Never),
            EngineConfig::new(2),
            Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
        )
        .expect("corruption is salvaged, not fatal");
        assert_eq!(
            recovery.stats.seeded_objects, 0,
            "garbage checkpoint state must never seed a monitor"
        );
        recovery.engine.finish().expect("no worker panicked");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn oversized_checkpoints_are_skipped_not_sealed() {
    // A checkpoint whose record would blow the frame payload cap must be
    // dropped (full replay covers the object), never passed to
    // `seal_frame`, which would panic the worker holding the append lock.
    let path = journal_path("oversized");
    let config = StoreConfig::new().with_fsync(FsyncPolicy::Never);
    let store = Store::open(&path, config).unwrap();
    append_one(&store, ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
    let huge_state = vec![0u8; MAX_PAYLOAD as usize + 1];
    store.checkpoint(ObjectId(1), &[Verdict::Yes], &huge_state);
    let stats = store.stats();
    assert_eq!(stats.checkpoints, 0, "an oversized checkpoint must not be journaled");
    assert_eq!(stats.oversized_checkpoints, 1);
    // A normally-sized checkpoint still lands, and the file stays clean.
    store.checkpoint(ObjectId(1), &[Verdict::Yes], &[7u8; 16]);
    assert_eq!(store.stats().checkpoints, 1);
    assert!(store.io_error().is_none());
    drop(store);
    let scan = scan_journal(&std::fs::read(&path).unwrap(), &SharedInterner::new());
    assert!(scan.torn.is_none());
    assert_eq!(scan.records.len(), 2, "one batch + one sized checkpoint");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explicit_sync_restarts_the_every_n_window() {
    let path = journal_path("sync-window");
    let config = StoreConfig::new().with_fsync(FsyncPolicy::EveryN(2));
    let store = Store::open(&path, config).unwrap();
    append_one(&store, ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
    store.sync().expect("healthy store syncs");
    assert_eq!(store.stats().syncs, 1);
    // The forced sync reset the window: the second append is 1-of-2 again,
    // so no policy-driven sync fires for it.
    append_one(&store, ObjectId(1), &Symbol::respond(ProcId(0), Response::Ack));
    assert_eq!(store.stats().syncs, 1, "explicit sync must restart the EveryN counter");
    append_one(&store, ObjectId(1), &Symbol::invoke(ProcId(0), Invocation::Read));
    assert_eq!(store.stats().syncs, 2, "the window completes two appends after the forced sync");
    let _ = std::fs::remove_file(&path);
}

/// The journal the parent commit (e455253) wrote for [`pinned_stream`]
/// through its per-event journal-sink method: six one-event Batch frames,
/// batch ids 1–6.
#[rustfmt::skip]
const PINNED_JOURNAL: [u8; 348] = [
    0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0x52, 0xfd, 0x7c, 0xa0,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52,
    0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0xf1, 0x7c, 0xa9, 0x33, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46,
    0x01, 0x01, 0x00, 0x00, 0x26, 0x00, 0x00, 0x00, 0xef, 0xfe, 0x9f, 0x44, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x26, 0x00, 0x00, 0x00, 0xa7, 0x98,
    0xc1, 0x9f, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00,
    0x26, 0x00, 0x00, 0x00, 0xe6, 0xb1, 0xae, 0x9b, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52,
    0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0xa5, 0xe5, 0xa3, 0xed, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
];

/// The six-event stream [`PINNED_JOURNAL`] records: two interleaved
/// register objects, every payload shape.
fn pinned_stream() -> Vec<(ObjectId, Symbol)> {
    vec![
        (ObjectId(1), Symbol::invoke(ProcId(0), Invocation::Write(7))),
        (ObjectId(2), Symbol::invoke(ProcId(1), Invocation::Write(3))),
        (ObjectId(1), Symbol::respond(ProcId(0), Response::Ack)),
        (ObjectId(1), Symbol::invoke(ProcId(1), Invocation::Read)),
        (ObjectId(2), Symbol::respond(ProcId(1), Response::Ack)),
        (ObjectId(1), Symbol::respond(ProcId(1), Response::Value(7))),
    ]
}

#[test]
fn submit_journals_the_format_the_parent_commit_wrote() {
    let events = pinned_stream();
    let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2));
    let config = StoreConfig::new().with_fsync(FsyncPolicy::Never);

    // Written now, through `submit` (a batch of one): same bytes.
    let path = journal_path("pin");
    let engine = MonitoringEngine::new(EngineConfig::new(1), factory.clone());
    let store = Arc::new(Store::open(&path, config).unwrap());
    engine.attach_journal(store.clone());
    for (object, symbol) in &events {
        engine.submit(*object, symbol);
    }
    engine.finish().expect("no worker panicked");
    drop(store);
    assert_eq!(std::fs::read(&path).unwrap(), PINNED_JOURNAL);

    // Written then, recovered now: the reference verdict streams.
    std::fs::write(&path, PINNED_JOURNAL).unwrap();
    let recovery = recover(&path, config, EngineConfig::new(2), factory.clone())
        .expect("a parent-written journal opens");
    assert_eq!(recovery.stats.truncated_bytes, 0);
    assert_eq!(recovery.stats.replayed_events, 6);
    let report = recovery.engine.finish().expect("no worker panicked");
    for (object, verdicts) in sequential_reference(factory.as_ref(), &events) {
        assert_eq!(report.verdicts(object), Some(&verdicts[..]), "{object}");
    }
    let _ = std::fs::remove_file(&path);
}

/// The ten-event stream [`PINNED_CHECKPOINT_JOURNAL`] records: two register
/// objects, the first with six events and the second with four, so each
/// reaches a checkpoint interval of 4.
fn pinned_checkpoint_stream() -> Vec<(ObjectId, Symbol)> {
    vec![
        (ObjectId(1), Symbol::invoke(ProcId(0), Invocation::Write(7))),
        (ObjectId(2), Symbol::invoke(ProcId(1), Invocation::Write(3))),
        (ObjectId(1), Symbol::respond(ProcId(0), Response::Ack)),
        (ObjectId(1), Symbol::invoke(ProcId(1), Invocation::Read)),
        (ObjectId(2), Symbol::respond(ProcId(1), Response::Ack)),
        (ObjectId(1), Symbol::respond(ProcId(1), Response::Value(7))),
        (ObjectId(2), Symbol::invoke(ProcId(0), Invocation::Read)),
        (ObjectId(1), Symbol::invoke(ProcId(0), Invocation::Write(9))),
        (ObjectId(2), Symbol::respond(ProcId(0), Response::Value(3))),
        (ObjectId(1), Symbol::respond(ProcId(0), Response::Ack)),
    ]
}

/// Journals [`pinned_checkpoint_stream`] through a `Store` with checkpoint
/// interval 4, then evicts object 1.  Waiting for the engine to drain after
/// every submission fixes where the worker's checkpoint and tombstone
/// records land between the write-ahead batch records.
fn write_pinned_checkpoint_journal(path: &std::path::Path) {
    let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2));
    let config = StoreConfig::new().with_fsync(FsyncPolicy::Never).with_checkpoint_interval(4);
    let engine = MonitoringEngine::new(EngineConfig::new(1), factory);
    let store = Arc::new(Store::open(path, config).unwrap());
    engine.attach_journal(store.clone());
    for (object, symbol) in &pinned_checkpoint_stream() {
        engine.submit(*object, symbol);
        engine.wait_drained();
    }
    engine.evict(ObjectId(1));
    engine.wait_drained();
    engine.finish().expect("no worker panicked");
    let stats = store.stats();
    assert_eq!((stats.batches, stats.checkpoints, stats.tombstones), (10, 2, 1));
}

/// The journal the parent commit (cb75736) wrote through
/// [`write_pinned_checkpoint_journal`]: ten one-event Batch frames (38- and
/// 46-byte payloads), a 220-byte Checkpoint frame for each object after its
/// fourth event, and the Evict frame of object 1 last.  Payload lengths not
/// a multiple of 16 make the checksum run its byte tail.
#[rustfmt::skip]
const PINNED_CHECKPOINT_JOURNAL: [u8; 1076] = [
    0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0x52, 0xfd, 0x7c, 0xa0,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52,
    0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0xf1, 0x7c, 0xa9, 0x33, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46,
    0x01, 0x01, 0x00, 0x00, 0x26, 0x00, 0x00, 0x00, 0xef, 0xfe, 0x9f, 0x44, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x26, 0x00, 0x00, 0x00, 0xa7, 0x98,
    0xc1, 0x9f, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00,
    0x26, 0x00, 0x00, 0x00, 0xe6, 0xb1, 0xae, 0x9b, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52,
    0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0xa5, 0xe5, 0xa3, 0xed, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46,
    0x01, 0x08, 0x00, 0x00, 0xdc, 0x00, 0x00, 0x00, 0xd2, 0x6f, 0x4d, 0x6c, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xb0, 0x00, 0x00, 0x00, 0x01, 0x02, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x02, 0x01, 0x07, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00,
    0x26, 0x00, 0x00, 0x00, 0x07, 0xd7, 0xc8, 0x96, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52,
    0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0xe0, 0xa3, 0xa6, 0xa8, 0x08, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46,
    0x01, 0x01, 0x00, 0x00, 0x2e, 0x00, 0x00, 0x00, 0x3b, 0xf4, 0x5c, 0xbe, 0x09, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x08,
    0x00, 0x00, 0xdc, 0x00, 0x00, 0x00, 0x41, 0x55, 0x5a, 0xae, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xb0, 0x00, 0x00, 0x00, 0x01, 0x02, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46, 0x01, 0x01, 0x00, 0x00, 0x26, 0x00,
    0x00, 0x00, 0x9b, 0xf9, 0x76, 0x7e, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x44, 0x52, 0x56, 0x46,
    0x01, 0x07, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0xf7, 0xdf, 0x88, 0xa9, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
];

#[test]
fn checkpoints_and_tombstones_journal_the_format_the_parent_commit_wrote() {
    let events = pinned_checkpoint_stream();
    let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2));
    let config = StoreConfig::new().with_fsync(FsyncPolicy::Never).with_checkpoint_interval(4);

    // Written now: same bytes, checkpoint and tombstone frames included.
    let path = journal_path("pin-checkpoint");
    write_pinned_checkpoint_journal(&path);
    assert_eq!(std::fs::read(&path).unwrap(), PINNED_CHECKPOINT_JOURNAL);

    // Written then, recovered now: object 2 seeds from its checkpoint, the
    // tombstone voids object 1's, and both streams are the reference's.
    std::fs::write(&path, PINNED_CHECKPOINT_JOURNAL).unwrap();
    let recovery = recover(&path, config, EngineConfig::new(2), factory.clone())
        .expect("a parent-written journal opens");
    assert_eq!(recovery.stats.truncated_bytes, 0);
    assert_eq!(recovery.stats.replayed_events, 10);
    assert_eq!(recovery.stats.seeded_objects, 1);
    assert_eq!(recovery.stats.skipped_events, 4);
    assert_eq!(recovery.stats.tombstones, 1);
    let report = recovery.engine.finish().expect("no worker panicked");
    for (object, verdicts) in sequential_reference(factory.as_ref(), &events) {
        assert_eq!(report.verdicts(object), Some(&verdicts[..]), "{object}");
    }
    let _ = std::fs::remove_file(&path);
}
