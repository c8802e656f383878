//! Stats requests and replies: the telemetry [`Snapshot`] on the wire.

use super::{encode_with, FrameKind, WireError};
use crate::wire::{put_string, put_u32, put_u64, put_u64_seq, Reader};
use drv_telemetry::metrics::BUCKETS;
use drv_telemetry::{HistogramSnapshot, Snapshot};

/// Version byte leading a non-empty [`FrameKind::Stats`] payload.  The
/// pre-telemetry flat layout was (an unversioned) 1; version 2 led the
/// registry snapshot with a flat block of engine counters the snapshot
/// already carried; version 3 is the snapshot alone.  A reply whose version
/// this implementation does not speak decodes to
/// [`WireError::BadStatsVersion`], never to garbled counters.
pub const STATS_VERSION: u8 = 3;

/// Encodes a stats request (empty [`FrameKind::Stats`] payload).
#[must_use]
pub fn encode_stats_request() -> Vec<u8> {
    encode_with(FrameKind::Stats, 0, |_| {})
}

/// Encodes a stats reply: the version byte ([`STATS_VERSION`]), then the
/// registry snapshot — counters and gauges as `(name, value)` pairs,
/// histograms as `(name, bucket seq, sum)` (the count is the bucket sum, so
/// it is not re-encoded).
///
/// # Panics
///
/// Panics when the encoded snapshot exceeds [`MAX_PAYLOAD`](super::MAX_PAYLOAD) (a registry
/// would need hundreds of thousands of metrics).
#[must_use]
pub fn encode_stats(snapshot: &Snapshot) -> Vec<u8> {
    let capacity = 16
        + snapshot.counters.len() * 24
        + snapshot.gauges.len() * 24
        + snapshot.histograms.len() * (32 + BUCKETS * 8);
    encode_with(FrameKind::Stats, capacity, |frame| {
        frame.push(STATS_VERSION);
        put_u32(frame, u32::try_from(snapshot.counters.len()).expect("< 2^32 counters"));
        for (name, value) in &snapshot.counters {
            put_string(frame, name);
            put_u64(frame, *value);
        }
        put_u32(frame, u32::try_from(snapshot.gauges.len()).expect("< 2^32 gauges"));
        for (name, value) in &snapshot.gauges {
            put_string(frame, name);
            put_u64(frame, *value as u64);
        }
        put_u32(frame, u32::try_from(snapshot.histograms.len()).expect("< 2^32 histograms"));
        for (name, hist) in &snapshot.histograms {
            put_string(frame, name);
            put_u64_seq(frame, &hist.buckets);
            put_u64(frame, hist.sum);
        }
    })
}

/// Decodes a non-empty [`FrameKind::Stats`] payload: the version byte
/// first (so layout drift across releases surfaces as the typed
/// [`WireError::BadStatsVersion`], not as garbled counters), then the
/// registry snapshot.  Every collection length is
/// bounds-checked against the remaining payload before allocation
/// ([`Reader::count`]), and each histogram must carry exactly [`BUCKETS`]
/// buckets.
pub(super) fn decode_stats_reply(reader: &mut Reader<'_>) -> Result<Snapshot, WireError> {
    let version = reader.u8("stats version")?;
    if version != STATS_VERSION {
        return Err(WireError::BadStatsVersion(version));
    }
    // Each counter/gauge entry is ≥ 12 bytes (4-byte name length + 8-byte
    // value); each histogram ≥ 4 + 4 + 8 (empty name, bucket count, sum).
    let counter_count = reader.count(12, "stats counters")?;
    let mut counters = Vec::with_capacity(counter_count);
    for _ in 0..counter_count {
        let name = reader.string("counter name")?;
        counters.push((name, reader.u64("counter value")?));
    }
    let gauge_count = reader.count(12, "stats gauges")?;
    let mut gauges = Vec::with_capacity(gauge_count);
    for _ in 0..gauge_count {
        let name = reader.string("gauge name")?;
        gauges.push((name, reader.u64("gauge value")? as i64));
    }
    let hist_count = reader.count(16, "stats histograms")?;
    let mut histograms = Vec::with_capacity(hist_count);
    for _ in 0..hist_count {
        let name = reader.string("histogram name")?;
        let bucket_seq = reader.u64_seq("histogram buckets")?;
        if bucket_seq.len() != BUCKETS {
            return Err(WireError::BadStatsHistogram { buckets: bucket_seq.len() as u64 });
        }
        let mut hist = HistogramSnapshot::default();
        hist.buckets.copy_from_slice(&bucket_seq);
        // The count is definitionally the bucket sum — derived, not
        // trusted off the wire.
        hist.count = hist.buckets.iter().fold(0u64, |acc, &n| acc.wrapping_add(n));
        hist.sum = reader.u64("histogram sum")?;
        histograms.push((name, hist));
    }
    Ok(Snapshot { counters, gauges, histograms })
}
