//! The append-only journal file and its scan/decode half.
//!
//! ## File format
//!
//! A journal is a flat sequence of the frames a connection carries
//! ([`drv_lang::frame`], `crates/lang/src/frame.rs` — magic, version, kind,
//! length, CRC-32 per frame), restricted to three kinds:
//!
//! * [`FrameKind::Batch`] — one accepted [`EventBatch`] as a frame that
//!   travels over a connection (self-contained per-frame dictionaries),
//!   appended **write-ahead** of its enqueue, byte for byte as the engine
//!   hands it over ([`JournalSink::append_frame`]): a served batch is the
//!   client's own frame under the client's batch id, an in-process batch
//!   the frame the engine encoded under its own count (1, 2, … per
//!   journal).  The store encodes no batch, and recovery reads neither id;
//! * [`FrameKind::Evict`] — the object's eviction marker retired its
//!   monitor at this point of the accepted stream (a tombstone);
//! * [`FrameKind::Checkpoint`] — a store-owned record (layout below)
//!   carrying what one object's serialized checker state and verdict
//!   stream gained since its previous checkpoint, appended **after** the
//!   covered events were processed.
//!
//! Because every record lands in the one file under one append lock, file
//! order is causal order: a checkpoint claiming `fed` events is preceded
//! by ≥ `fed` journaled events of its object, and a tombstone sits exactly
//! where the retirement happened.  Truncating a torn tail therefore can
//! never orphan a checkpoint from the events it covers.
//!
//! ## Torn tails
//!
//! [`scan_journal`] walks frames until the first one that fails to decode
//! — short header, short payload, CRC mismatch, foreign frame kind,
//! malformed checkpoint interior — and reports that offset as the valid
//! length.  [`Store::open`] truncates the file there and appends onward:
//! a crash mid-`write` costs the torn record (which was never
//! acknowledged durable under [`FsyncPolicy::Always`] anyway), not the
//! journal.
//!
//! ## Checkpoint record layout (inner payload, version-free by frame)
//!
//! ```text
//! object u64 | fed u64 | count u32 | count × (tag u8, index u32) |
//! state_len u32 | state bytes
//! ```
//!
//! The record covers the object's first `fed` events and carries the
//! verdicts of the last `count ≤ fed` of them; `state` is the opaque
//! [`ObjectMonitor::checkpoint`](drv_consistency::ObjectMonitor::checkpoint)
//! delta over the same `count` events.  It therefore extends the record of
//! the same object that ended at its *base*, `fed − count`: the records of
//! an object form a chain, and a base-0 record (`count == fed`) starts one
//! on its own.  Records an earlier build wrote all have `count == fed` —
//! each a chain of one.  `count > fed` is malformed.  All counts are
//! validated against the remaining payload before any allocation.

use crate::error::StoreError;
use drv_engine::JournalSink;
use drv_lang::frame::{
    decode_frame, encode_evict, frame_buffer, seal_frame, Frame, FrameKind, HEADER_LEN, MAX_PAYLOAD,
};
use drv_lang::wire::{put_u32, put_u64, Reader};
use drv_lang::{EventBatch, ObjectId, SharedInterner, Verdict};
use drv_telemetry::{Counter, Histogram, Telemetry};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// When the journal calls `fsync` (well, `fdatasync`-equivalent) after an
/// append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every appended record: an acknowledged event survives an OS
    /// crash, at one sync per append.
    Always,
    /// After every N appended records (clamped to ≥ 1): bounded loss
    /// window, amortized sync cost.
    EveryN(u64),
    /// Never: durability only against process crashes (the page cache
    /// holds the tail), full append throughput.
    Never,
}

/// Configuration of a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    fsync: FsyncPolicy,
    checkpoint_interval: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::EveryN(64),
            checkpoint_interval: 1024,
        }
    }
}

impl StoreConfig {
    /// The defaults: fsync every 64 records, checkpoint every 1024 fed
    /// events per object.
    #[must_use]
    pub fn new() -> Self {
        StoreConfig::default()
    }

    /// Overrides the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = match policy {
            FsyncPolicy::EveryN(n) => FsyncPolicy::EveryN(n.max(1)),
            other => other,
        };
        self
    }

    /// Overrides how many fed events of one object sit between two of its
    /// checkpoints (clamped to ≥ 1; `u64::MAX` disables checkpointing).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, events: u64) -> Self {
        self.checkpoint_interval = events.max(1);
        self
    }

    /// The configured fsync policy.
    #[must_use]
    pub fn fsync(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The configured checkpoint interval.
    #[must_use]
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }
}

/// A decoded checkpoint record (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The checkpointed object.
    pub object: ObjectId,
    /// Events fed to the monitor when the checkpoint was taken.
    pub fed: u64,
    /// The verdicts of the last `verdicts.len()` of those events: the ones
    /// fed since the record this one extends.
    pub verdicts: Vec<Verdict>,
    /// The monitor's opaque serialized delta over the same events.
    pub state: Vec<u8>,
}

impl CheckpointRecord {
    /// The fed count of the record this one extends (0: none).  A decoded
    /// record never carries more verdicts than fed events.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.fed - self.verdicts.len() as u64
    }
}

/// Bytes of a checkpoint record: object + fed (u64 each), verdict count
/// (u32), 5 bytes per verdict, state length (u32), state bytes.
fn checkpoint_record_len(verdicts: &[Verdict], state: &[u8]) -> u64 {
    24 + verdicts.len() as u64 * 5 + state.len() as u64
}

/// Encodes a checkpoint record as a sealed [`FrameKind::Checkpoint`]
/// journal frame.  The record is written straight behind the frame's
/// reserved header and sealed in place ([`seal_frame`]), so `state` is
/// copied once, into the frame.  [`decode_checkpoint_record`] takes the
/// frame's payload, `frame[HEADER_LEN..]`.
///
/// # Panics
///
/// Panics when the record exceeds [`MAX_PAYLOAD`] — [`Store`] skips such
/// checkpoints before encoding them — or when `verdicts` is longer than
/// `fed`.
#[must_use]
pub fn encode_checkpoint_record(
    object: ObjectId,
    fed: u64,
    verdicts: &[Verdict],
    state: &[u8],
) -> Vec<u8> {
    assert!(
        verdicts.len() as u64 <= fed,
        "a checkpoint covers its verdicts' events"
    );
    let len = usize::try_from(checkpoint_record_len(verdicts, state)).expect("record fits memory");
    let mut frame = frame_buffer(len);
    put_u64(&mut frame, object.0);
    put_u64(&mut frame, fed);
    put_u32(
        &mut frame,
        u32::try_from(verdicts.len()).expect("< 2^32 verdicts"),
    );
    for verdict in verdicts {
        let (tag, index) = match verdict {
            Verdict::Yes => (0u8, 0u32),
            Verdict::No => (1, 0),
            Verdict::Maybe(i) => (2, *i),
        };
        frame.push(tag);
        put_u32(&mut frame, index);
    }
    put_u32(
        &mut frame,
        u32::try_from(state.len()).expect("state < 4 GiB"),
    );
    frame.extend_from_slice(state);
    seal_frame(FrameKind::Checkpoint, &mut frame);
    frame
}

/// Decodes a checkpoint record from its frame's payload.
///
/// # Errors
///
/// A typed [`StoreError`] on any malformed input — counts are validated
/// against the remaining bytes before allocation, so an inflated length
/// field cannot drive memory growth.
pub fn decode_checkpoint_record(payload: &[u8]) -> Result<CheckpointRecord, StoreError> {
    let mut reader = Reader::new(payload);
    let object = ObjectId(reader.u64("checkpoint object")?);
    let fed = reader.u64("checkpoint fed count")?;
    let count = reader.count(5, "checkpoint verdicts")?;
    if count as u64 > fed {
        return Err(StoreError::BadCheckpoint {
            what: "more verdicts than fed events",
        });
    }
    let mut verdicts = Vec::with_capacity(count);
    for _ in 0..count {
        let row = reader.take(5, "checkpoint verdict row")?;
        let index = u32::from_le_bytes(row[1..5].try_into().expect("4 bytes"));
        verdicts.push(match row[0] {
            0 => Verdict::Yes,
            1 => Verdict::No,
            2 => Verdict::Maybe(index),
            _ => {
                return Err(StoreError::BadCheckpoint {
                    what: "unknown verdict tag",
                })
            }
        });
    }
    let state_len = reader.u32("checkpoint state length")? as usize;
    let state = reader.take(state_len, "checkpoint state")?.to_vec();
    if !reader.is_empty() {
        return Err(StoreError::BadCheckpoint {
            what: "trailing bytes",
        });
    }
    Ok(CheckpointRecord {
        object,
        fed,
        verdicts,
        state,
    })
}

/// One decoded journal record, in file (= causal) order.
#[derive(Debug)]
pub enum JournalRecord {
    /// An accepted event batch (payload ids interned into the scan's arena).
    Batch(EventBatch),
    /// The object was retired here.
    Evict(ObjectId),
    /// A checker checkpoint.
    Checkpoint(CheckpointRecord),
}

/// The result of scanning a journal byte buffer.
#[derive(Debug)]
pub struct ScanResult {
    /// The decoded records of the valid prefix.
    pub records: Vec<JournalRecord>,
    /// Bytes of the valid prefix; anything past it is a torn/corrupt tail.
    pub valid_len: u64,
    /// What stopped the scan at `valid_len`, if anything did.
    pub torn: Option<StoreError>,
}

/// Scans `buf` as a journal, decoding batch payloads into `arena`, until
/// the first frame that fails to decode — the torn-tail rule of the module
/// docs.  Infallible by design: corruption shortens the valid prefix
/// instead of failing the open, and the cause is reported in
/// [`ScanResult::torn`].
#[must_use]
pub fn scan_journal(buf: &[u8], arena: &SharedInterner) -> ScanResult {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut torn = None;
    while offset < buf.len() {
        match decode_frame(&buf[offset..], arena) {
            Ok((Frame::Batch(batch), used)) => {
                records.push(JournalRecord::Batch(batch.events));
                offset += used;
            }
            Ok((Frame::Evict { object }, used)) => {
                records.push(JournalRecord::Evict(object));
                offset += used;
            }
            Ok((Frame::Checkpoint(payload), used)) => match decode_checkpoint_record(&payload) {
                Ok(record) => {
                    records.push(JournalRecord::Checkpoint(record));
                    offset += used;
                }
                Err(err) => {
                    torn = Some(err);
                    break;
                }
            },
            Ok(_) => {
                // Credit/Nack/Verdict/Stats/Shutdown never belong in a
                // journal: the frame stream is no longer ours.
                torn = Some(StoreError::BadCheckpoint {
                    what: "foreign frame kind in journal",
                });
                break;
            }
            Err(err) => {
                torn = Some(StoreError::Wire(err));
                break;
            }
        }
    }
    ScanResult {
        records,
        valid_len: offset as u64,
        torn,
    }
}

/// Append-side state, serialized under one lock so file order is causal
/// order.
struct Appender {
    file: File,
    /// Records appended since the last sync (the [`FsyncPolicy::EveryN`]
    /// counter).
    since_sync: u64,
}

/// Counters of a running [`Store`] (monotone, racy reads) — a view over
/// the store's `store_*` cells in its [`Telemetry`] registry, so the
/// report and a wire/Prometheus snapshot can never disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Event-batch records appended.
    pub batches: u64,
    /// Events those batches carried.
    pub events: u64,
    /// Checkpoint records appended.
    pub checkpoints: u64,
    /// Tombstone records appended.
    pub tombstones: u64,
    /// Syncs issued.
    pub syncs: u64,
    /// Checkpoints skipped because their encoded record would exceed the
    /// frame payload cap (the object falls back to full replay).
    pub oversized_checkpoints: u64,
}

/// The store's registry cells, all named `store_*`.  Registered once at
/// open; every hot-path update is a single relaxed striped add.
struct StoreMetrics {
    /// `store_batches` — event-batch records appended.
    batches: Counter,
    /// `store_events` — events those batches carried.
    events: Counter,
    /// `store_checkpoints` — checkpoint records accepted into the file.
    checkpoints: Counter,
    /// `store_checkpoints_skipped` — checkpoint records dropped because
    /// the store was (or went) degraded mid-append.
    checkpoints_skipped: Counter,
    /// `store_oversized_checkpoints` — checkpoints skipped at the payload
    /// cap, before touching the file.
    oversized_checkpoints: Counter,
    /// `store_tombstones` — eviction records appended.
    tombstones: Counter,
    /// `store_syncs` — `fdatasync`s issued (policy-driven and explicit).
    syncs: Counter,
    /// `store_degraded_appends` — records refused by the degraded latch.
    degraded_appends: Counter,
    /// `store_journal_bytes` — framed bytes that reached the file.
    journal_bytes: Counter,
    /// `store_append_ns` — `write_all` latency of one framed record.
    append_ns: Histogram,
    /// `store_fsync_ns` — `sync_data` latency.
    fsync_ns: Histogram,
}

impl StoreMetrics {
    fn register(tel: &Telemetry) -> StoreMetrics {
        let reg = tel.registry();
        StoreMetrics {
            batches: reg.counter("store_batches"),
            events: reg.counter("store_events"),
            checkpoints: reg.counter("store_checkpoints"),
            checkpoints_skipped: reg.counter("store_checkpoints_skipped"),
            oversized_checkpoints: reg.counter("store_oversized_checkpoints"),
            tombstones: reg.counter("store_tombstones"),
            syncs: reg.counter("store_syncs"),
            degraded_appends: reg.counter("store_degraded_appends"),
            journal_bytes: reg.counter("store_journal_bytes"),
            append_ns: reg.histogram("store_append_ns"),
            fsync_ns: reg.histogram("store_fsync_ns"),
        }
    }
}

/// The crash-durable journal store: an open journal file plus the
/// [`JournalSink`] the engine taps.  Construct with [`Store::open`] (fresh
/// or existing file; torn tails truncated), or let
/// [`recover`](crate::recover()) open it as part of rebuilding an engine.
///
/// Sink appends are **infallible by signature** (the engine's submit path
/// does not fail): an I/O error latches the store into a degraded no-op
/// state instead, observable through [`Store::io_error`] — monitoring
/// continues, durability stops, the operator decides.
pub struct Store {
    inner: Mutex<Appender>,
    config: StoreConfig,
    /// Latched on the first append/sync I/O error; all later appends
    /// no-op.
    failed: AtomicBool,
    error: Mutex<Option<std::io::Error>>,
    /// Bytes the open-time scan cut off the inherited file.
    truncated: u64,
    tel: Arc<Telemetry>,
    m: StoreMetrics,
}

impl Store {
    /// Opens (creating if absent) the journal at `path`: scans the
    /// existing contents, truncates the torn tail if one is found, and
    /// positions appends at the end of the valid prefix.  The store runs
    /// over a passive [`Telemetry`] handle (counters tick, latency timing
    /// off); recovery opens it over the engine's.
    ///
    /// # Errors
    ///
    /// File I/O only — on-disk corruption is salvaged, not fatal.
    pub fn open(path: impl AsRef<Path>, config: StoreConfig) -> Result<Store, StoreError> {
        // Only the valid prefix is wanted here; records and arena are dropped.
        Store::open_scanned(
            path.as_ref(),
            config,
            Telemetry::passive(),
            &SharedInterner::new(),
        )
        .map(|(store, _)| store)
    }

    /// The open step [`Store::open`] and recovery share: one read of
    /// the file and one [`scan_journal`] into `arena`, then the torn tail
    /// truncated and appends positioned at the end of the valid prefix.
    /// The scan comes back with the store: recovery selects its seeds and
    /// replays its batches without reading or decoding the file again.
    pub(crate) fn open_scanned(
        path: &Path,
        config: StoreConfig,
        telemetry: Arc<Telemetry>,
        arena: &SharedInterner,
    ) -> Result<(Store, ScanResult), StoreError> {
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(StoreError::Io(err)),
        };
        let scan = scan_journal(&buf, arena);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let truncated = buf.len() as u64 - scan.valid_len;
        if truncated > 0 {
            file.set_len(scan.valid_len)?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        let m = StoreMetrics::register(&telemetry);
        let store = Store {
            inner: Mutex::new(Appender {
                file,
                since_sync: 0,
            }),
            config,
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            truncated,
            tel: telemetry,
            m,
        };
        Ok((store, scan))
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The [`Telemetry`] handle the store records into.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tel
    }

    /// Bytes the open-time scan truncated off a torn tail (0 for a clean
    /// or fresh journal).
    #[must_use]
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated
    }

    /// A snapshot of the append counters — read straight off the registry
    /// cells, no second set of bookkeeping.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            batches: self.m.batches.get(),
            events: self.m.events.get(),
            checkpoints: self.m.checkpoints.get(),
            tombstones: self.m.tombstones.get(),
            syncs: self.m.syncs.get(),
            oversized_checkpoints: self.m.oversized_checkpoints.get(),
        }
    }

    /// The first I/O error that latched the store into its degraded no-op
    /// state, if any (rendered; the store keeps the original).
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.error
            .lock()
            .as_ref()
            .map(std::string::ToString::to_string)
    }

    /// Forces an fsync of everything appended so far (regardless of
    /// policy).  A successful explicit sync restarts the
    /// [`FsyncPolicy::EveryN`] window.
    ///
    /// # Errors
    ///
    /// The sync error (the store also latches it) — or, once latched into
    /// the degraded no-op state, the original latching error: a caller
    /// forcing durability must never be told data is safe when appends
    /// have stopped reaching the file.
    pub fn sync(&self) -> Result<(), StoreError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(StoreError::Io(self.latched_error()));
        }
        let mut inner = self.inner.lock();
        let started = self.tel.timer();
        if let Err(err) = inner.file.sync_data() {
            let copy = std::io::Error::new(err.kind(), err.to_string());
            self.latch(err);
            return Err(StoreError::Io(copy));
        }
        self.tel.observe(started, &self.m.fsync_ns);
        inner.since_sync = 0;
        self.m.syncs.inc();
        Ok(())
    }

    /// A rendered copy of the latched I/O error (the store keeps the
    /// original).
    fn latched_error(&self) -> std::io::Error {
        self.error.lock().as_ref().map_or_else(
            || std::io::Error::other("journal store is in its degraded no-op state"),
            |err| std::io::Error::new(err.kind(), err.to_string()),
        )
    }

    fn latch(&self, err: std::io::Error) {
        self.error.lock().get_or_insert(err);
        self.failed.store(true, Ordering::Release);
    }

    /// Appends one sealed frame under the lock, applying the fsync policy.
    /// Degrades to a no-op once an I/O error has latched.  Returns whether
    /// the record actually reached the file, so callers only count records
    /// that were written.
    fn append(&self, inner: &mut Appender, frame: &[u8]) -> bool {
        if self.failed.load(Ordering::Acquire) {
            self.m.degraded_appends.inc();
            return false;
        }
        let started = self.tel.timer();
        if let Err(err) = inner.file.write_all(frame) {
            self.latch(err);
            return false;
        }
        self.tel.observe(started, &self.m.append_ns);
        self.m.journal_bytes.add(frame.len() as u64);
        inner.since_sync += 1;
        let due = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            inner.since_sync = 0;
            let started = self.tel.timer();
            if let Err(err) = inner.file.sync_data() {
                self.latch(err);
                // The bytes were written but their promised durability
                // point failed: degraded, and not counted as journaled.
                return false;
            }
            self.tel.observe(started, &self.m.fsync_ns);
            self.m.syncs.inc();
        }
        true
    }
}

impl JournalSink for Store {
    fn append_frame(&self, frame: &[u8]) {
        // The row count sits behind the batch id; the frame was decoded
        // before it got here, so the bytes are there.
        let rows = &frame[HEADER_LEN + 8..HEADER_LEN + 12];
        let events = u32::from_le_bytes(rows.try_into().expect("4 bytes"));
        let mut inner = self.inner.lock();
        if self.append(&mut inner, frame) {
            self.m.batches.inc();
            self.m.events.add(u64::from(events));
        }
    }

    fn checkpoint_interval(&self) -> u64 {
        self.config.checkpoint_interval
    }

    fn checkpoint(&self, object: ObjectId, fed: u64, verdicts: &[Verdict], state: &[u8]) {
        // A checkpoint over a huge interval (or the full form of a huge
        // object) can outgrow the frame payload cap — skip it instead of
        // letting `seal_frame`'s cap assert panic the worker: the engine
        // has already advanced its watermark, so the object's chain ends
        // at the record before, and recovery replays from there, exactly as
        // for monitors without checkpoint support.
        if checkpoint_record_len(verdicts, state) > u64::from(MAX_PAYLOAD) {
            self.m.oversized_checkpoints.inc();
            return;
        }
        let frame = encode_checkpoint_record(object, fed, verdicts, state);
        let mut inner = self.inner.lock();
        if self.append(&mut inner, &frame) {
            self.m.checkpoints.inc();
        } else {
            self.m.checkpoints_skipped.inc();
        }
    }

    fn tombstone(&self, object: ObjectId) {
        let frame = encode_evict(object);
        let mut inner = self.inner.lock();
        if self.append(&mut inner, &frame) {
            self.m.tombstones.inc();
        }
    }
}
