//! Unit tests of the payload codec, then of the frame codec that carries it.

use super::*;
use crate::frame::*;
use crate::{
    EventAction, EventBatch, ObjectId, ProcId, SharedInterner, Symbol, Verdict, VerdictEvent,
};
use drv_telemetry::Snapshot;

fn invocations() -> Vec<Invocation> {
    vec![
        Invocation::Write(7),
        Invocation::Read,
        Invocation::Inc,
        Invocation::Append(u64::MAX),
        Invocation::Get,
        Invocation::Enqueue(0),
        Invocation::Dequeue,
        Invocation::Push(3),
        Invocation::Pop,
        Invocation::Custom("cas".into(), 9),
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Ack,
        Response::Value(42),
        Response::Sequence(vec![]),
        Response::Sequence(vec![1, 2, 3]),
        Response::MaybeValue(Some(5)),
        Response::MaybeValue(None),
        Response::Custom("cas".into(), 1),
    ]
}

#[test]
fn payloads_round_trip() {
    for invocation in invocations() {
        let mut buf = Vec::new();
        put_invocation(&mut buf, &invocation);
        let mut reader = Reader::new(&buf);
        assert_eq!(take_invocation(&mut reader).unwrap(), invocation);
        assert!(reader.is_empty(), "{invocation:?} left bytes behind");
    }
    for response in responses() {
        let mut buf = Vec::new();
        put_response(&mut buf, &response);
        let mut reader = Reader::new(&buf);
        assert_eq!(take_response(&mut reader).unwrap(), response);
        assert!(reader.is_empty(), "{response:?} left bytes behind");
    }
}

#[test]
fn truncation_yields_typed_errors_at_every_cut() {
    for invocation in invocations() {
        let mut buf = Vec::new();
        put_invocation(&mut buf, &invocation);
        for cut in 0..buf.len() {
            let err = take_invocation(&mut Reader::new(&buf[..cut]))
                .expect_err("truncated input must fail");
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::LengthOverflow { .. }),
                "{invocation:?} cut at {cut}: {err:?}"
            );
        }
    }
    for response in responses() {
        let mut buf = Vec::new();
        put_response(&mut buf, &response);
        for cut in 0..buf.len() {
            assert!(
                take_response(&mut Reader::new(&buf[..cut])).is_err(),
                "{response:?} cut at {cut} decoded"
            );
        }
    }
}

#[test]
fn bad_tags_are_rejected() {
    for tag in [10u8, 0x7f, 0xff] {
        assert_eq!(
            take_invocation(&mut Reader::new(&[tag])),
            Err(CodecError::BadTag { what: "invocation", tag })
        );
    }
    for tag in [6u8, 0x80] {
        assert_eq!(
            take_response(&mut Reader::new(&[tag])),
            Err(CodecError::BadTag { what: "response", tag })
        );
    }
}

#[test]
fn oversized_length_prefixes_cannot_allocate() {
    // A sequence response claiming u32::MAX entries backed by 0 bytes:
    // the count guard must reject it before any allocation is sized.
    let mut buf = vec![RESP_SEQUENCE];
    put_u32(&mut buf, u32::MAX);
    match take_response(&mut Reader::new(&buf)) {
        Err(CodecError::LengthOverflow { claimed, admissible, .. }) => {
            assert_eq!(claimed, u64::from(u32::MAX));
            assert_eq!(admissible, 0);
        }
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
    // Same for a custom-invocation string.
    let mut buf = vec![INV_CUSTOM];
    put_u32(&mut buf, 1_000_000);
    buf.push(b'x');
    assert!(matches!(
        take_invocation(&mut Reader::new(&buf)),
        Err(CodecError::LengthOverflow { .. })
    ));
}

#[test]
fn non_utf8_strings_are_rejected() {
    let mut buf = vec![INV_CUSTOM];
    put_u32(&mut buf, 2);
    buf.extend_from_slice(&[0xff, 0xfe]);
    put_u64(&mut buf, 1);
    assert_eq!(
        take_invocation(&mut Reader::new(&buf)),
        Err(CodecError::BadUtf8 { what: "custom invocation name" })
    );
}

#[test]
fn reader_reports_remaining() {
    let mut reader = Reader::new(&[1, 2, 3, 4, 5]);
    assert_eq!(reader.remaining(), 5);
    assert_eq!(reader.u8("byte").unwrap(), 1);
    assert_eq!(reader.u32("word").unwrap(), u32::from_le_bytes([2, 3, 4, 5]));
    assert!(reader.is_empty());
    assert!(reader.u8("byte").is_err());
}

// The frame codec.

fn sample_batch(arena: &SharedInterner) -> EventBatch {
    let mut batch = EventBatch::new();
    batch.push_symbol(ObjectId(7), &Symbol::invoke(ProcId(0), Invocation::Write(1)), arena);
    batch.push_symbol(ObjectId(7), &Symbol::respond(ProcId(0), Response::Ack), arena);
    batch.push_symbol(ObjectId(9), &Symbol::invoke(ProcId(1), Invocation::Read), arena);
    batch.push_symbol(ObjectId(9), &Symbol::respond(ProcId(1), Response::Value(1)), arena);
    batch.push_symbol(ObjectId(7), &Symbol::invoke(ProcId(1), Invocation::Read), arena);
    batch
}

#[test]
fn crc32_matches_known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// The CRC by its definition, one bit at a time: the sliced kernel's
/// reference.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn crc32_kernel_matches_the_bitwise_reference() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
    let buf: Vec<u8> = (0..(1 << 20) + 16).map(|_| rng.gen_range(0..=255u8)).collect();
    // Every tail length and every alignment of the 16-byte blocks.
    for start in 0..16 {
        for len in 0..=300 {
            let bytes = &buf[start..start + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "offset {start}, length {len}");
        }
    }
    let mib = &buf[..1 << 20];
    assert_eq!(crc32(mib), crc32_bitwise(mib));
}

#[test]
fn batch_frames_round_trip_across_arenas() {
    let sender = SharedInterner::new();
    let batch = sample_batch(&sender);
    let frame = FrameEncoder::new().encode_batch(42, &batch, &sender);
    let receiver = SharedInterner::new();
    // Pre-populate the receiver arena so ids differ from the sender's.
    let _ = receiver.invocation(&Invocation::Inc);
    let (decoded, consumed) = decode_frame(&frame, &receiver).expect("valid frame");
    assert_eq!(consumed, frame.len());
    let Frame::Batch(wire_batch) = decoded else { panic!("not a batch") };
    assert_eq!(wire_batch.batch_id, 42);
    assert_eq!(wire_batch.events.len(), batch.len());
    // Same symbols after resolving through each side's own arena.
    for index in 0..batch.len() {
        assert_eq!(
            wire_batch.events.get(index).resolve(&receiver.read()),
            batch.get(index).resolve(&sender.read()),
            "row {index}"
        );
        assert_eq!(wire_batch.events.get(index).object, batch.get(index).object);
    }
    // The dictionary interned each distinct payload once: 2 invocations
    // (write 1, read), 2 responses (ack, value 1) — plus the pre-seeded
    // Inc.
    assert_eq!(receiver.versions(), (3, 2));
}

#[test]
fn control_frames_round_trip() {
    let arena = SharedInterner::new();
    let frames = [
        (encode_credit(64, 256), Frame::Credit { grant: 64, window: 256 }),
        (
            encode_nack(9, NackReason::CreditExceeded, 100),
            Frame::Nack { batch_id: 9, reason: NackReason::CreditExceeded, detail: 100 },
        ),
        (
            encode_verdict_batch(&[
                VerdictEvent { object: ObjectId(1), seq: 0, verdict: Verdict::Yes },
                VerdictEvent { object: ObjectId(1), seq: 1, verdict: Verdict::No },
                VerdictEvent { object: ObjectId(2), seq: 0, verdict: Verdict::Maybe(3) },
            ]),
            Frame::VerdictBatch(vec![
                VerdictEvent { object: ObjectId(1), seq: 0, verdict: Verdict::Yes },
                VerdictEvent { object: ObjectId(1), seq: 1, verdict: Verdict::No },
                VerdictEvent { object: ObjectId(2), seq: 0, verdict: Verdict::Maybe(3) },
            ]),
        ),
        (encode_stats_request(), Frame::StatsRequest),
        (
            encode_stats(&Snapshot {
                counters: vec![("engine_events".to_string(), 100)],
                gauges: vec![("engine_workers".to_string(), 2)],
                histograms: Vec::new(),
            }),
            Frame::Stats(Box::new(Snapshot {
                counters: vec![("engine_events".to_string(), 100)],
                gauges: vec![("engine_workers".to_string(), 2)],
                histograms: Vec::new(),
            })),
        ),
        (encode_shutdown(), Frame::Shutdown),
    ];
    for (bytes, expected) in frames {
        let (frame, consumed) = decode_frame(&bytes, &arena).expect("valid frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame, expected);
    }
}

#[test]
fn corrupted_payload_fails_crc() {
    let arena = SharedInterner::new();
    let mut frame = encode_credit(1, 2);
    *frame.last_mut().unwrap() ^= 0x40;
    assert!(matches!(
        decode_frame(&frame, &arena),
        Err(WireError::CrcMismatch { .. })
    ));
}

#[test]
fn header_validation_rejects_garbage() {
    let arena = SharedInterner::new();
    let good = encode_shutdown();
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 1;
    assert!(matches!(decode_frame(&bad_magic, &arena), Err(WireError::BadMagic(_))));
    let mut bad_version = good.clone();
    bad_version[4] = 99;
    assert_eq!(decode_frame(&bad_version, &arena), Err(WireError::BadVersion(99)));
    let mut bad_kind = good.clone();
    bad_kind[5] = 200;
    assert_eq!(decode_frame(&bad_kind, &arena), Err(WireError::UnknownKind(200)));
    let mut oversized = good.clone();
    oversized[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert_eq!(decode_frame(&oversized, &arena), Err(WireError::Oversized(MAX_PAYLOAD + 1)));
    assert!(matches!(
        decode_frame(&good[..HEADER_LEN - 1], &arena),
        Err(WireError::TruncatedHeader { .. })
    ));
}

#[test]
fn bad_dict_index_is_typed_not_a_panic() {
    let sender = SharedInterner::new();
    let batch = sample_batch(&sender);
    let mut frame = FrameEncoder::new().encode_batch(0, &batch, &sender);
    // The last row's dict index is the final 4 bytes; point it at 200.
    let len = frame.len();
    frame[len - 4..].copy_from_slice(&200u32.to_le_bytes());
    // Re-seal the CRC so only the index is wrong.
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode_frame(&frame, &SharedInterner::new()),
        Err(WireError::BadDictIndex { index: 200, .. })
    ));
}

#[test]
fn row_cap_rejects_before_interning() {
    let sender = SharedInterner::new();
    let batch = sample_batch(&sender);
    let frame = FrameEncoder::new().encode_batch(9, &batch, &sender);
    let receiver = SharedInterner::new();
    assert_eq!(
        decode_frame_capped(&frame, &receiver, 2),
        Err(WireError::TooManyRows { batch_id: 9, rows: 5, limit: 2 })
    );
    // Nothing of the refused frame reached the arena.
    assert_eq!(receiver.versions(), (0, 0));
    // At the cap exactly, the frame decodes.
    assert!(decode_frame_capped(&frame, &receiver, 5).is_ok());
}

/// `frame` with the trace-context block earlier encoders appended to
/// a stamped batch: tag, length `len`, `len` opaque bytes, resealed.
fn stamped(frame: &[u8], len: u8) -> Vec<u8> {
    let mut stamped = frame.to_vec();
    stamped.extend_from_slice(&[EXT_TRACE_CONTEXT, len]);
    stamped.extend((0..len).map(|i| i.wrapping_mul(37)));
    seal_frame(FrameKind::Batch, &mut stamped);
    stamped
}

#[test]
fn unstamped_batches_stay_bit_identical_to_legacy_framing() {
    let sender = SharedInterner::new();
    let plain = FrameEncoder::new().encode_batch(3, &sample_batch(&sender), &sender);
    // An old stamped frame was exactly this frame plus the 18-byte
    // block (tag + length + 16 context bytes) before the CRC.
    let old = stamped(&plain, 16);
    assert_eq!(old.len(), plain.len() + 18);
    assert_eq!(&old[HEADER_LEN..plain.len()], &plain[HEADER_LEN..]);
    // The plain frame decodes whole and re-encodes to itself.
    let receiver = SharedInterner::new();
    let (decoded, consumed) = decode_frame(&plain, &receiver).expect("legacy decodes");
    assert_eq!(consumed, plain.len());
    let Frame::Batch(wire) = decoded else { panic!("expected a batch") };
    assert_eq!(FrameEncoder::new().encode_batch(3, &wire.events, &receiver), plain);
}

#[test]
fn trace_context_extension_round_trips() {
    // An old stamped frame decodes whole, to the rows of the plain
    // frame: the block is read and discarded, so re-encoding writes
    // the plain frame back.
    let sender = SharedInterner::new();
    let plain = FrameEncoder::new().encode_batch(3, &sample_batch(&sender), &sender);
    let old = stamped(&plain, 16);
    let receiver = SharedInterner::new();
    let (expected, _) = decode_frame(&plain, &receiver).expect("plain frame decodes");
    let (decoded, consumed) = decode_frame(&old, &receiver).expect("stamped frame decodes");
    assert_eq!(consumed, old.len());
    assert_eq!(decoded, expected);
    let Frame::Batch(wire) = decoded else { panic!("expected a batch") };
    assert_eq!(FrameEncoder::new().encode_batch(3, &wire.events, &receiver), plain);
}

#[test]
fn longer_trace_extensions_from_newer_peers_are_tolerated() {
    // The length byte covers the whole block, so a block longer than
    // 16 bytes is consumed whole.
    let sender = SharedInterner::new();
    let plain = FrameEncoder::new().encode_batch(1, &sample_batch(&sender), &sender);
    let receiver = SharedInterner::new();
    let (expected, _) = decode_frame(&plain, &receiver).expect("plain frame decodes");
    let wider = stamped(&plain, 20);
    assert_eq!(decode_frame(&wider, &receiver), Ok((expected, wider.len())));
}

#[test]
fn malformed_trace_extensions_refuse_without_interning() {
    let sender = SharedInterner::new();
    let plain = FrameEncoder::new().encode_batch(1, &sample_batch(&sender), &sender);
    let good = stamped(&plain, 16);
    let reseal = |mut bytes: Vec<u8>| -> Vec<u8> {
        seal_frame(FrameKind::Batch, &mut bytes);
        bytes
    };
    let mut bad_tag = good.clone();
    bad_tag[plain.len()] = 99;
    for (frame, what) in [(reseal(bad_tag), "unknown tag"), (stamped(&plain, 15), "short length")]
    {
        let arena = SharedInterner::new();
        assert!(
            matches!(decode_frame(&frame, &arena), Err(WireError::BadExtension { .. })),
            "{what} must refuse with a typed error"
        );
        assert_eq!(arena.versions(), (0, 0), "{what} must not intern");
    }
    let truncated = reseal(good[..good.len() - 4].to_vec());
    let arena = SharedInterner::new();
    assert!(
        matches!(decode_frame(&truncated, &arena), Err(WireError::Payload(_))),
        "truncated context bytes must refuse with a typed error"
    );
    assert_eq!(arena.versions(), (0, 0), "truncation must not intern");
}

#[test]
fn dictionary_only_frames_cannot_grow_the_arena() {
    // Hand-build a batch payload claiming 0 rows but a 1-entry
    // invocation dictionary: a memory-growth probe (real encoders only
    // ship referenced payloads).  It must be refused before interning.
    let mut frame = frame_buffer(0);
    put_u64(&mut frame, 1); // batch id
    put_u32(&mut frame, 0); // rows
    put_u32(&mut frame, 1); // invocation dict count
    put_invocation(&mut frame, &Invocation::Custom("grow".into(), 0));
    put_u32(&mut frame, 0); // response dict count
    seal_frame(FrameKind::Batch, &mut frame);
    let arena = SharedInterner::new();
    assert_eq!(
        decode_frame(&frame, &arena),
        Err(WireError::DictOverflow { entries: 1, rows: 0 })
    );
    assert_eq!(arena.versions(), (0, 0), "the probe must not intern");
}

#[test]
fn a_process_id_past_the_cap_is_refused_before_interning() {
    // One row, one fresh payload, hand-sealed as a peer could write it.
    let frame_naming = |proc: u32| {
        let mut frame = frame_buffer(0);
        put_u64(&mut frame, 3); // batch id
        put_u32(&mut frame, 1); // rows
        put_u32(&mut frame, 1); // invocation dict count
        put_invocation(&mut frame, &Invocation::Write(5));
        put_u32(&mut frame, 0); // response dict count
        put_u64(&mut frame, 1); // object
        put_u32(&mut frame, proc);
        frame.push(0); // invoke
        put_u32(&mut frame, 0); // dict index
        seal_frame(FrameKind::Batch, &mut frame);
        frame
    };
    let arena = SharedInterner::new();
    for proc in [MAX_PROCESSES, MAX_PROCESSES + 1, u32::MAX] {
        assert_eq!(
            decode_frame(&frame_naming(proc), &arena),
            Err(WireError::BadProcess { proc, limit: MAX_PROCESSES })
        );
    }
    assert_eq!(arena.versions(), (0, 0), "a refused row must not intern");
    let last = (MAX_PROCESSES - 1) as usize;
    match decode_frame(&frame_naming(MAX_PROCESSES - 1), &arena) {
        Ok((Frame::Batch(batch), _)) => assert_eq!(batch.events.procs(), &[ProcId(last)]),
        other => panic!("the last process under the cap must decode: {other:?}"),
    }
    // Nor can a client write one.
    let mut batch = EventBatch::new();
    let beyond = Symbol::invoke(ProcId(last + 1), Invocation::Write(5));
    batch.push_symbol(ObjectId(1), &beyond, &arena);
    let encoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FrameEncoder::new().encode_batch(0, &batch, &arena)
    }));
    assert!(encoded.is_err(), "the encoder must refuse a process past the cap");
}

/// An arena that has seen some of [`mixed_batch`]'s payloads, `Custom`
/// strings among them.
fn seeded_arena() -> SharedInterner {
    let arena = SharedInterner::new();
    arena.invocation(&Invocation::Custom("cas".into(), 3));
    arena.invocation(&Invocation::Write(1));
    arena.response(&Response::Custom("cas".into(), 1));
    arena.response(&Response::Ack);
    arena
}

/// Rows whose payloads the seeded arena has seen, interleaved with
/// first-sight ones (one repeated), `Custom` strings on both sides.
fn mixed_batch(arena: &SharedInterner) -> EventBatch {
    let (p0, p1) = (ProcId(0), ProcId(1));
    let symbols = [
        Symbol::invoke(p0, Invocation::Custom("swap".into(), 2)),
        Symbol::invoke(p1, Invocation::Write(1)),
        Symbol::respond(p0, Response::Custom("swapped".into(), 2)),
        Symbol::respond(p1, Response::Ack),
        Symbol::invoke(p0, Invocation::Custom("cas".into(), 3)),
        Symbol::invoke(p1, Invocation::Read),
        Symbol::respond(p0, Response::Custom("cas".into(), 1)),
        Symbol::respond(p1, Response::Sequence(vec![4, 5])),
        Symbol::invoke(p0, Invocation::Custom("swap".into(), 2)),
        Symbol::respond(p0, Response::Custom("swapped".into(), 2)),
    ];
    let mut batch = EventBatch::new();
    for (row, symbol) in symbols.iter().enumerate() {
        batch.push_symbol(ObjectId(row as u64 % 3), symbol, arena);
    }
    batch
}

#[test]
fn a_frame_interns_its_dictionaries_as_entry_by_entry_interning_would() {
    let sender = SharedInterner::new();
    let batch = mixed_batch(&sender);
    let frame = FrameEncoder::new().encode_batch(5, &batch, &sender);
    let decoded_into = seeded_arena();
    let Ok((Frame::Batch(decoded), _)) = decode_frame(&frame, &decoded_into) else {
        panic!("a valid frame");
    };
    // The reference interns the rows' payloads one at a time, in row order:
    // the dictionaries list them in first use, so this is entry by entry.
    let one_by_one = seeded_arena();
    let expected: Vec<EventAction> = batch
        .iter()
        .map(|record| EventAction::intern(&record.resolve(&sender.read()).action, &one_by_one))
        .collect();
    assert_eq!(decoded.events.actions(), &expected[..]);
    assert_eq!(decoded.events.objects(), batch.objects());
    assert_eq!(decoded_into.versions(), one_by_one.versions());
    // Four invocations and four responses, two of each already known.
    assert_eq!(decoded_into.versions(), (4, 4));
    // A second decode is all hits: the same ids, nothing new.
    let Ok((Frame::Batch(again), _)) = decode_frame(&frame, &decoded_into) else {
        panic!("a valid frame");
    };
    assert_eq!(again.events, decoded.events);
    assert_eq!(decoded_into.versions(), (4, 4));
}

#[test]
fn a_frame_refused_after_its_dictionaries_leaves_a_used_arena_as_it_was() {
    let sender = SharedInterner::new();
    let batch = mixed_batch(&sender);
    let frame = FrameEncoder::new().encode_batch(6, &batch, &sender);
    let arena = seeded_arena();
    let before = arena.versions();
    // A bad row: the last dictionary index points past its dictionary.
    let mut bad = frame.clone();
    let len = bad.len();
    bad[len - 4..].copy_from_slice(&200u32.to_le_bytes());
    let crc = crc32(&bad[HEADER_LEN..]);
    bad[12..16].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(decode_frame(&bad, &arena), Err(WireError::BadDictIndex { .. })));
    assert_eq!(arena.versions(), before, "a bad row must refuse before interning");
    // More rows than the remaining credit.
    assert_eq!(
        decode_frame_capped(&frame, &arena, 9),
        Err(WireError::TooManyRows { batch_id: 6, rows: 10, limit: 9 })
    );
    assert_eq!(arena.versions(), before, "a capped frame must refuse before interning");
}

#[test]
fn refused_frames_never_intern_regardless_of_where_they_fail() {
    // The combined-dictionary overflow (rows=1, 1 invocation + 1
    // response) fails AFTER the invocation entry was parsed — it must
    // still leave the arena untouched.
    let mut frame = frame_buffer(0);
    put_u64(&mut frame, 2); // batch id
    put_u32(&mut frame, 1); // rows
    put_u32(&mut frame, 1); // invocation dict count
    put_invocation(&mut frame, &Invocation::Custom("grow".into(), 0));
    put_u32(&mut frame, 1); // response dict count
    put_response(&mut frame, &Response::Ack);
    frame.extend_from_slice(&[0u8; 17]); // one row
    seal_frame(FrameKind::Batch, &mut frame);
    let arena = SharedInterner::new();
    assert_eq!(
        decode_frame(&frame, &arena),
        Err(WireError::DictOverflow { entries: 2, rows: 1 })
    );
    assert_eq!(arena.versions(), (0, 0));
    // A bad row (dict index out of range) also refuses pre-intern.
    let sender = SharedInterner::new();
    let batch = sample_batch(&sender);
    let mut bad = FrameEncoder::new().encode_batch(0, &batch, &sender);
    let len = bad.len();
    bad[len - 4..].copy_from_slice(&200u32.to_le_bytes());
    let crc = crc32(&bad[HEADER_LEN..]);
    bad[12..16].copy_from_slice(&crc.to_le_bytes());
    let arena = SharedInterner::new();
    assert!(matches!(decode_frame(&bad, &arena), Err(WireError::BadDictIndex { .. })));
    assert_eq!(arena.versions(), (0, 0), "a bad row must refuse before interning");
}

#[test]
fn verdict_batch_run_compression_is_lossless() {
    // Seq gaps, object alternation, and out-of-order seqs all split
    // runs; the round trip is exact regardless.
    let awkward = vec![
        VerdictEvent { object: ObjectId(5), seq: 0, verdict: Verdict::Yes },
        VerdictEvent { object: ObjectId(5), seq: 1, verdict: Verdict::Yes },
        VerdictEvent { object: ObjectId(5), seq: 7, verdict: Verdict::No }, // gap
        VerdictEvent { object: ObjectId(6), seq: 0, verdict: Verdict::Maybe(1) },
        VerdictEvent { object: ObjectId(5), seq: 8, verdict: Verdict::Yes },
        VerdictEvent { object: ObjectId(5), seq: 2, verdict: Verdict::Yes }, // backwards
    ];
    let frame = encode_verdict_batch(&awkward);
    let (decoded, consumed) =
        decode_frame(&frame, &SharedInterner::new()).expect("valid frame");
    assert_eq!(consumed, frame.len());
    assert_eq!(decoded, Frame::VerdictBatch(awkward));
    // A long run amortizes: 256 consecutive verdicts of one object cost
    // one 20-byte run entry + 5 bytes/row.
    let long: Vec<VerdictEvent> = (0..256)
        .map(|seq| VerdictEvent { object: ObjectId(1), seq, verdict: Verdict::Yes })
        .collect();
    let batched = encode_verdict_batch(&long);
    assert_eq!(batched.len(), HEADER_LEN + 8 + 20 + 256 * 5);
    let (redecoded, _) = decode_frame(&batched, &SharedInterner::new()).expect("valid");
    assert_eq!(redecoded, Frame::VerdictBatch(long));
    // Empty batches round-trip too.
    let empty = encode_verdict_batch(&[]);
    assert_eq!(
        decode_frame(&empty, &SharedInterner::new()).expect("valid").0,
        Frame::VerdictBatch(Vec::new())
    );
}

#[test]
fn verdict_batch_structural_probes_are_typed_errors() {
    let events = [
        VerdictEvent { object: ObjectId(1), seq: 0, verdict: Verdict::Yes },
        VerdictEvent { object: ObjectId(1), seq: 1, verdict: Verdict::No },
    ];
    let good = encode_verdict_batch(&events);
    let arena = SharedInterner::new();
    let reseal = |frame: &mut Vec<u8>| {
        let crc = crc32(&frame[HEADER_LEN..]);
        frame[12..16].copy_from_slice(&crc.to_le_bytes());
    };
    // Row-count inflation (re-sealed CRC): the declared count no longer
    // fits the remaining bytes — refused before allocation.
    let mut inflated = good.clone();
    inflated[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&1000u32.to_le_bytes());
    reseal(&mut inflated);
    assert!(matches!(
        decode_frame(&inflated, &arena),
        Err(WireError::Payload(CodecError::LengthOverflow { .. }))
    ));
    // More runs than rows: the run-table analogue of DictOverflow.
    let mut frame = frame_buffer(0);
    put_u32(&mut frame, 2); // runs
    put_u32(&mut frame, 1); // rows
    for _ in 0..2 {
        put_u64(&mut frame, 1);
        put_u64(&mut frame, 0);
        put_u32(&mut frame, 1);
    }
    frame.extend_from_slice(&[0u8; 5]);
    // Pad so the lenient per-field caps pass and the structural check
    // is what fires.
    frame.extend_from_slice(&[0u8; 64]);
    seal_frame(FrameKind::VerdictBatch, &mut frame);
    assert_eq!(
        decode_frame(&frame, &arena),
        Err(WireError::DictOverflow { entries: 2, rows: 1 })
    );
    // Run lengths that do not sum to the row count.
    let mut mismatched = good.clone();
    // The single run's len field is the last 4 bytes of the run table.
    let len_at = HEADER_LEN + 8 + 16;
    mismatched[len_at..len_at + 4].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut mismatched);
    assert_eq!(
        decode_frame(&mismatched, &arena),
        Err(WireError::BadRunTable { declared_rows: 2, summed: 1 })
    );
    // A bad verdict tag is a typed error.
    let mut bad_tag = good.clone();
    let tag_at = HEADER_LEN + 8 + 20; // first row's tag byte
    bad_tag[tag_at] = 9;
    reseal(&mut bad_tag);
    assert_eq!(
        decode_frame(&bad_tag, &arena),
        Err(WireError::Payload(CodecError::BadTag { what: "verdict", tag: 9 }))
    );
    // Truncation inside the run table is typed, not a panic.
    assert!(decode_frame(&good[..good.len() - 12], &arena).is_err());
}

#[test]
fn populated_stats_replies_round_trip() {
    let tel = drv_telemetry::Telemetry::new();
    tel.registry().counter("net_batches").add(17);
    tel.registry().gauge("engine_queue_depth").add(-3);
    let h = tel.registry().histogram("net_decode_ns");
    h.record(0);
    h.record(900);
    h.record(70_000);
    tel.registry().gauge("engine_workers").add(4);
    let reply = tel.snapshot();
    let frame = encode_stats(&reply);
    let (decoded, consumed) =
        decode_frame(&frame, &SharedInterner::new()).expect("valid frame");
    assert_eq!(consumed, frame.len());
    let Frame::Stats(got) = decoded else { panic!("not a stats reply") };
    assert_eq!(*got, reply, "the snapshot survives the wire verbatim");
    assert_eq!(got.counter("net_batches"), Some(17));
    assert_eq!(got.gauge("engine_queue_depth"), Some(-3));
    assert_eq!(got.gauge("engine_workers"), Some(4));
    let hist = got.histogram("net_decode_ns").expect("histogram");
    assert_eq!(hist.count, 3, "count re-derives from the bucket sum");
    assert_eq!(hist.sum, 70_900);
}

#[test]
fn stats_version_mismatch_is_a_typed_error() {
    let mut frame = encode_stats(&Snapshot::default());
    // The version byte is the first payload byte; claim version 9 and
    // re-seal the CRC so only the version is wrong.
    frame[HEADER_LEN] = 9;
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(
        decode_frame(&frame, &SharedInterner::new()),
        Err(WireError::BadStatsVersion(9))
    );
}

/// A version-2 reply as the previous layout wrote it: the version byte,
/// the 60-byte flat block (workers u32, shards u32, six u64 counters,
/// connections u32), then three empty sections.  It is refused on its
/// version byte, before anything is read or allocated.
#[test]
fn a_version_2_stats_reply_is_a_typed_error() {
    let mut frame = frame_buffer(1 + 60 + 12);
    frame.push(2);
    put_u32(&mut frame, 2); // workers
    put_u32(&mut frame, 8); // shards
    for counter in [100u64, 7, 0, 0, 3, 0] {
        // events, batches, steals, evicted, park wakeups, backlog
        put_u64(&mut frame, counter);
    }
    put_u32(&mut frame, 1); // connections
    for _ in 0..3 {
        put_u32(&mut frame, 0); // counters, gauges, histograms
    }
    assert_eq!(frame.len(), HEADER_LEN + 1 + 60 + 12);
    seal_frame(FrameKind::Stats, &mut frame);
    assert_eq!(
        decode_frame(&frame, &SharedInterner::new()),
        Err(WireError::BadStatsVersion(2))
    );
}

#[test]
fn stats_histograms_must_carry_the_fixed_bucket_count() {
    // Hand-build a current-version payload whose one histogram declares 3
    // buckets: the log₂ layout mandates exactly BUCKETS.
    let mut frame = encode_stats(&Snapshot::default());
    // Replace the trailing (0 counters, 0 gauges, 0 histograms) tail:
    // the last 4 bytes are the histogram count.
    let len = frame.len();
    frame.truncate(len - 4);
    put_u32(&mut frame, 1);
    put_string(&mut frame, "short");
    put_u64_seq(&mut frame, &[1, 2, 3]);
    put_u64(&mut frame, 6);
    seal_frame(FrameKind::Stats, &mut frame);
    assert_eq!(
        decode_frame(&frame, &SharedInterner::new()),
        Err(WireError::BadStatsHistogram { buckets: 3 })
    );
}
