//! Malformed-frame hardening: seeded corruption, truncation and
//! length-inflation fuzz over the frame decoder.  The contract under test:
//! **every** bad input yields a typed [`WireError`] (or decodes, when the
//! mutation happened to keep the frame valid) — never a panic, and never an
//! allocation larger than a small multiple of the input itself.
//!
//! The generators cover every frame kind, and the mutations cover byte
//! flips anywhere (header and payload), truncation at every boundary
//! class, header length-field inflation, and garbage of arbitrary
//! prefixes.

use drv_core::Verdict;
use drv_engine::VerdictEvent;
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::wire::{
    decode_frame, encode_credit, encode_nack, encode_shutdown, encode_stats, encode_stats_request,
    encode_verdict_batch, seal_frame, Frame, FrameEncoder, FrameKind, NackReason, WireError,
    EXT_TRACE_CONTEXT, HEADER_LEN, MAX_PAYLOAD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded fuzz rounds (each round mutates every generated frame kind).
const ROUNDS: u64 = 400;

/// `frame`, a Batch frame, with the trace-context block that earlier
/// encoders appended after the rows of a batch stamped for sampled
/// tracing: tag, length, the context bytes; resealed.
fn stamped(mut frame: Vec<u8>, context: &[u8]) -> Vec<u8> {
    frame.push(EXT_TRACE_CONTEXT);
    frame.push(u8::try_from(context.len()).expect("a block length fits a byte"));
    frame.extend_from_slice(context);
    seal_frame(FrameKind::Batch, &mut frame);
    frame
}

/// A 16-byte trace context as old encoders wrote it: `trace_id u64 |
/// parent_span u32 | flags u32`, little endian.
fn context(trace_id: u64, parent_span: u32, flags: u32) -> Vec<u8> {
    let mut bytes = trace_id.to_le_bytes().to_vec();
    bytes.extend_from_slice(&parent_span.to_le_bytes());
    bytes.extend_from_slice(&flags.to_le_bytes());
    bytes
}

/// One valid frame of every kind, with seed-varied contents.
fn valid_frames(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let arena = SharedInterner::new();
    let mut batch = EventBatch::new();
    let events = rng.gen_range(1..=20u64);
    for i in 0..events {
        let object = ObjectId(rng.gen_range(0..4u64));
        let proc = ProcId(rng.gen_range(0..3usize));
        let symbol = match rng.gen_range(0..6u32) {
            0 => Symbol::invoke(proc, Invocation::Write(i)),
            1 => Symbol::invoke(proc, Invocation::Read),
            2 => Symbol::invoke(proc, Invocation::Custom("cas".into(), i)),
            3 => Symbol::respond(proc, Response::Ack),
            4 => Symbol::respond(proc, Response::Sequence(vec![i, i + 1])),
            _ => Symbol::respond(proc, Response::MaybeValue(None)),
        };
        batch.push_symbol(object, &symbol, &arena);
    }
    let verdicts: Vec<VerdictEvent> = (0..rng.gen_range(1..=8u64))
        .map(|seq| VerdictEvent {
            object: ObjectId(rng.gen_range(0..4u64)),
            seq,
            verdict: match rng.gen_range(0..3u32) {
                0 => Verdict::Yes,
                1 => Verdict::No,
                _ => Verdict::Maybe(rng.gen_range(0..5u32)),
            },
        })
        .collect();
    // A second copy of the batch carrying an old trace-context block, so
    // every generic mutation pass (flips, truncation, inflation) also
    // exercises the bytes the decoder discards.
    let old_context = context(
        rng.gen_range(1..u64::MAX),
        rng.gen_range(0..u32::MAX),
        rng.gen_range(0..4u32),
    );
    vec![
        FrameEncoder::new().encode_batch(rng.gen_range(0..u64::MAX), &batch, &arena),
        stamped(
            FrameEncoder::new().encode_batch(rng.gen_range(0..u64::MAX), &batch, &arena),
            &old_context,
        ),
        encode_credit(rng.gen_range(0..u64::MAX), rng.gen_range(0..u64::MAX)),
        encode_nack(rng.gen_range(0..u64::MAX), NackReason::CreditExceeded, rng.gen_range(0..u64::MAX)),
        encode_verdict_batch(&verdicts),
        encode_stats_request(),
        encode_stats(&{
            // A populated registry so the fuzz also mutates the snapshot
            // (names, counts, bucket arrays).
            let tel = drv_telemetry::Telemetry::new();
            tel.registry().gauge("engine_workers").add(rng.gen_range(1..8u64) as i64);
            tel.registry().counter("engine_events").add(rng.gen_range(0..u64::MAX));
            tel.registry().counter("net_batches").add(rng.gen_range(0..1_000u64));
            tel.registry().gauge("engine_queue_depth").add(rng.gen_range(0..100u64) as i64 - 50);
            let hist = tel.registry().histogram("net_decode_ns");
            for _ in 0..rng.gen_range(1..64u32) {
                hist.record(rng.gen_range(0..u64::MAX));
            }
            tel.snapshot()
        }),
        encode_shutdown(),
    ]
}

/// Decodes arbitrary bytes; the pass criterion is simply "returns".  A
/// panic aborts the test; a wrong-but-typed error is fine; an accidental
/// decode is fine (some mutations are no-ops or hit ignored bytes).
fn must_not_panic(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    let arena = SharedInterner::new();
    decode_frame(bytes, &arena)
}

#[test]
fn seeded_corruption_never_panics() {
    let mut typed_errors = 0u64;
    let mut survivals = 0u64;
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in valid_frames(&mut rng) {
            // Byte flips: 1–4 positions anywhere in the frame.
            let mut flipped = frame.clone();
            for _ in 0..rng.gen_range(1..=4u32) {
                let pos = rng.gen_range(0..flipped.len());
                flipped[pos] ^= 1u8 << rng.gen_range(0..8u32);
            }
            match must_not_panic(&flipped) {
                Ok(_) => survivals += 1,
                Err(_) => typed_errors += 1,
            }
            // Truncation at every class of boundary: inside the header, at
            // the header edge, inside the payload.
            for cut in [
                rng.gen_range(0..HEADER_LEN.min(frame.len())),
                HEADER_LEN.min(frame.len().saturating_sub(1)),
                rng.gen_range(0..frame.len()),
            ] {
                match must_not_panic(&frame[..cut]) {
                    Ok(_) => survivals += 1,
                    Err(_) => typed_errors += 1,
                }
            }
        }
    }
    assert!(typed_errors > 0, "the fuzz never produced an invalid frame");
    // Flips that only touch payload bytes are caught by the CRC; header
    // flips by validation — a large majority must be typed errors.
    assert!(
        typed_errors > survivals,
        "suspiciously many corrupted frames decoded: {survivals} ok vs {typed_errors} errors"
    );
}

#[test]
fn inflated_length_fields_cannot_allocate() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for frame in valid_frames(&mut rng) {
        // Inflate the header's payload length to huge values: the decoder
        // must reject Oversized / TruncatedPayload before sizing anything
        // from the field.
        for inflated in [MAX_PAYLOAD + 1, u32::MAX, 1 << 30] {
            let mut bad = frame.clone();
            bad[8..12].copy_from_slice(&inflated.to_le_bytes());
            match must_not_panic(&bad) {
                Err(WireError::Oversized(len)) => assert_eq!(len, inflated),
                Err(_) => {}
                Ok(_) => panic!("a frame claiming {inflated} payload bytes decoded"),
            }
        }
        // A length within the cap but beyond the actual bytes: truncated,
        // not allocated.
        let mut bad = frame.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD - 1).to_le_bytes());
        assert!(
            matches!(must_not_panic(&bad), Err(WireError::TruncatedPayload { .. })),
            "inflated-but-capped length must read as truncation"
        );
    }
}

#[test]
fn interior_count_inflation_is_rejected_with_fixed_crc() {
    // Corrupt *interior* count fields of a batch payload and re-seal the
    // CRC, so the mutation reaches the payload decoder instead of dying at
    // the checksum: every count guard must hold on its own.
    use drv_net::wire::crc32;
    let arena = SharedInterner::new();
    let mut batch = EventBatch::new();
    for i in 0..8 {
        batch.push_symbol(
            ObjectId(1),
            &Symbol::invoke(ProcId(0), Invocation::Write(i)),
            &arena,
        );
        batch.push_symbol(ObjectId(1), &Symbol::respond(ProcId(0), Response::Ack), &arena);
    }
    let frame = FrameEncoder::new().encode_batch(7, &batch, &arena);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut rejected = 0u64;
    for _ in 0..2000 {
        let mut bad = frame.clone();
        // Overwrite 4 aligned-ish payload bytes with a huge count.
        let payload_len = bad.len() - HEADER_LEN;
        let pos = HEADER_LEN + rng.gen_range(0..payload_len - 4);
        bad[pos..pos + 4].copy_from_slice(&rng.gen_range(1u32 << 20..u32::MAX).to_le_bytes());
        let crc = crc32(&bad[HEADER_LEN..]);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        match must_not_panic(&bad) {
            Ok(_) => {}
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 0, "no interior mutation was ever rejected");
}

#[test]
fn verdict_batch_probes_are_typed_with_resealed_crc() {
    // The VerdictBatch frame's structural fields — run count, row count,
    // per-run lengths, verdict tags — each corrupted *with the CRC
    // re-sealed*, so the probe reaches the payload decoder: every guard
    // must hold on its own and answer with a typed error, sized by the
    // bytes actually present (no allocation from the claimed counts).
    use drv_net::wire::crc32;
    let events: Vec<VerdictEvent> = (0..64u64)
        .map(|i| VerdictEvent {
            object: ObjectId(i / 16), // 4 runs of 16
            seq: i % 16,
            verdict: if i % 3 == 0 { Verdict::Yes } else { Verdict::Maybe(i as u32) },
        })
        .collect();
    let frame = encode_verdict_batch(&events);
    let reseal = |bytes: &mut [u8]| {
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    };
    // Row-count inflation: claims more rows than the payload holds.
    let mut inflated = frame.clone();
    inflated[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut inflated);
    assert!(
        matches!(must_not_panic(&inflated), Err(WireError::Payload(_))),
        "row-count inflation must be a typed payload error"
    );
    // Run-count inflation past the row count: the dictionary-overflow
    // guard (more runs than rows is structurally impossible).
    let mut overflow = frame.clone();
    let rows = u32::from_le_bytes(frame[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap());
    overflow[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(rows + 1).to_le_bytes());
    reseal(&mut overflow);
    assert!(
        matches!(
            must_not_panic(&overflow),
            Err(WireError::DictOverflow { .. } | WireError::Payload(_))
        ),
        "run-count inflation must hit the overflow guard"
    );
    // A run length that no longer sums to the row count.
    let mut unsummed = frame.clone();
    let len_at = HEADER_LEN + 8 + 16; // first run entry's len field
    unsummed[len_at..len_at + 4].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut unsummed);
    assert!(
        matches!(must_not_panic(&unsummed), Err(WireError::BadRunTable { .. })),
        "a lying run table must be rejected as such"
    );
    // Truncation at every boundary inside the payload: typed, never a
    // panic, and whatever decodes must have been a complete valid frame.
    for cut in HEADER_LEN..frame.len() {
        let mut cut_frame = frame[..cut].to_vec();
        cut_frame[8..12].copy_from_slice(&((cut - HEADER_LEN) as u32).to_le_bytes());
        reseal(&mut cut_frame);
        assert!(
            must_not_panic(&cut_frame).is_err(),
            "a truncated verdict batch decoded at cut {cut}"
        );
    }
    // The untouched frame still round-trips — the probes above fail for
    // the right reason, not because the baseline was broken.
    let (decoded, _) = must_not_panic(&frame).expect("the baseline frame decodes");
    match decoded {
        Frame::VerdictBatch(carried) => assert_eq!(carried, events),
        other => panic!("verdict batch decoded as {other:?}"),
    }
}

#[test]
fn trace_context_probes_are_typed_with_resealed_crc() {
    // The trace-context block old stamped Batch frames carry after their
    // rows, built by hand and corrupted with the CRC re-sealed so every
    // probe reaches the payload decoder: truncated blocks, inflated
    // declared lengths, unknown tags and short lengths must each answer
    // with a typed error — never a panic, and never an intern into the
    // receiving arena.  A well-formed block is read and discarded.
    use drv_net::wire::crc32;
    let arena = SharedInterner::new();
    let mut batch = EventBatch::new();
    for i in 0..6 {
        batch.push_symbol(ObjectId(i % 2), &Symbol::invoke(ProcId(0), Invocation::Write(i)), &arena);
        batch.push_symbol(ObjectId(i % 2), &Symbol::respond(ProcId(0), Response::Ack), &arena);
    }
    let plain = FrameEncoder::new().encode_batch(11, &batch, &arena);
    let frame = stamped(plain.clone(), &context(0xABCD_EF01, 3, 1));
    let ext_at = plain.len();
    let reseal = |mut bytes: Vec<u8>| -> Vec<u8> {
        let payload_len = (bytes.len() - HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        bytes
    };
    let probe = |bytes: Vec<u8>, what: &str| {
        let receiver = SharedInterner::new();
        let result = decode_frame(&bytes, &receiver);
        assert!(result.is_err(), "{what}: a malformed extension decoded: {result:?}");
        assert_eq!(receiver.versions(), (0, 0), "{what}: a refused frame interned");
    };
    // Truncation at every boundary inside the extension block.
    for cut in ext_at + 1..frame.len() {
        probe(reseal(frame[..cut].to_vec()), "extension truncation");
    }
    // Unknown extension tags (every non-zero wrong value class).
    for tag in [0u8, 2, 7, 0xFF] {
        let mut bad = frame.clone();
        bad[ext_at] = tag;
        probe(reseal(bad), "unknown extension tag");
    }
    // Declared lengths below the 16-byte context.
    for len in [0u8, 1, 8, 15] {
        let mut bad = frame.clone();
        bad[ext_at + 1] = len;
        probe(reseal(bad), "short declared length");
    }
    // A declared length far beyond what the payload holds.
    let mut inflated = frame.clone();
    inflated[ext_at + 1] = 0xFF;
    probe(reseal(inflated), "inflated declared length");
    // The well-formed block decodes to the unstamped frame's rows.
    let receiver = SharedInterner::new();
    let (decoded, consumed) = decode_frame(&frame, &receiver).expect("the stamped frame decodes");
    assert_eq!(consumed, frame.len());
    let (unstamped, _) = decode_frame(&plain, &receiver).expect("the plain frame decodes");
    assert_eq!(
        decoded, unstamped,
        "the block carries nothing the batch keeps"
    );
    // And a legacy (unstamped) batch round-trips bit-identically: decode,
    // re-encode against the receiving arena, compare bytes.
    let mut legacy_batch = EventBatch::new();
    for i in 0..4 {
        legacy_batch.push_symbol(ObjectId(9), &Symbol::invoke(ProcId(1), Invocation::Write(i)), &arena);
    }
    let legacy = FrameEncoder::new().encode_batch(21, &legacy_batch, &arena);
    let receiver = SharedInterner::new();
    let (decoded, consumed) = decode_frame(&legacy, &receiver).expect("legacy decodes");
    assert_eq!(consumed, legacy.len());
    let Frame::Batch(wire) = decoded else { panic!("not a batch") };
    let reencoded = FrameEncoder::new().encode_batch(21, &wire.events, &receiver);
    assert_eq!(reencoded, legacy, "legacy frames must round-trip bit-identically");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAAD);
    for _ in 0..2000 {
        let len = rng.gen_range(0..256usize);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        let _ = must_not_panic(&garbage);
        // Garbage behind a valid header prefix exercises deeper paths.
        let mut prefixed = encode_shutdown();
        prefixed.truncate(rng.gen_range(0..=prefixed.len()));
        prefixed.extend_from_slice(&garbage);
        let _ = must_not_panic(&prefixed);
    }
}

// ---------------------------------------------------------------------------
// Read-boundary fuzz: the reactor's reassembly path.  TCP may deliver a
// frame in any chunking whatsoever; the assembler must produce the exact
// same frame bytes regardless, fail typed (never panic) on unframeable
// streams, and size its buffer by *received* bytes only.
// ---------------------------------------------------------------------------

use drv_net::FrameAssembler;

#[test]
fn byte_at_a_time_reassembly_is_exact() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = valid_frames(&mut rng);
        let mut assembler = FrameAssembler::new();
        let mut reassembled: Vec<Vec<u8>> = Vec::new();
        for frame in &corpus {
            for (i, byte) in frame.iter().enumerate() {
                assembler.feed(std::slice::from_ref(byte));
                loop {
                    let raw = match assembler.next_frame() {
                        Ok(Some(raw)) => raw.to_vec(),
                        Ok(None) => break,
                        Err(err) => panic!("valid corpus unframeable at byte {i}: {err}"),
                    };
                    // A frame may only complete on its own final byte, and
                    // its reassembly spread is then exactly its length in
                    // single-byte reads.
                    assert_eq!(i, frame.len() - 1, "frame completed before its last byte");
                    assert_eq!(assembler.last_spread(), frame.len() as u64);
                    reassembled.push(raw);
                }
            }
        }
        assert_eq!(reassembled, corpus, "byte-at-a-time replay altered the stream");
        assert_eq!(assembler.buffered(), 0, "residual bytes after a whole corpus");
        // And every reassembled frame still decodes identically.
        let arena = SharedInterner::new();
        for frame in &reassembled {
            decode_frame(frame, &arena).expect("reassembled frame decodes");
        }
    }
}

#[test]
fn seeded_chunk_sizes_preserve_the_frame_sequence() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC4A0 ^ seed);
        let corpus = valid_frames(&mut rng);
        let stream: Vec<u8> = corpus.iter().flatten().copied().collect();
        let mut assembler = FrameAssembler::new();
        let mut reassembled: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0usize;
        while offset < stream.len() {
            let chunk = rng.gen_range(1..=97usize).min(stream.len() - offset);
            assembler.feed(&stream[offset..offset + chunk]);
            offset += chunk;
            loop {
                let raw = match assembler.next_frame() {
                    Ok(Some(raw)) => raw.to_vec(),
                    Ok(None) => break,
                    Err(err) => panic!("valid corpus unframeable under chunking: {err}"),
                };
                assert!(assembler.last_spread() >= 1);
                reassembled.push(raw);
            }
        }
        assert_eq!(reassembled, corpus, "chunked replay altered the stream (seed {seed})");
    }
}

#[test]
fn corrupted_streams_fail_typed_through_the_assembler() {
    let mut typed_errors = 0u64;
    for seed in 0..ROUNDS / 4 {
        let mut rng = StdRng::seed_from_u64(0xBAD0 ^ seed);
        let corpus = valid_frames(&mut rng);
        let mut stream: Vec<u8> = corpus.iter().flatten().copied().collect();
        // Flip bits anywhere — headers make the assembler itself reject,
        // payload flips surface later in decode_frame's CRC check.
        for _ in 0..rng.gen_range(1..=6u32) {
            let pos = rng.gen_range(0..stream.len());
            stream[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }
        let arena = SharedInterner::new();
        let mut assembler = FrameAssembler::new();
        let mut offset = 0usize;
        'stream: while offset < stream.len() {
            let chunk = rng.gen_range(1..=64usize).min(stream.len() - offset);
            assembler.feed(&stream[offset..offset + chunk]);
            offset += chunk;
            loop {
                match assembler.next_frame() {
                    Ok(Some(raw)) => {
                        if decode_frame(raw, &arena).is_err() {
                            typed_errors += 1;
                            break 'stream; // a real reader tears down here
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        typed_errors += 1;
                        break 'stream;
                    }
                }
            }
        }
    }
    assert!(typed_errors > 0, "no corruption was ever surfaced as a typed error");
}

#[test]
fn claimed_lengths_never_inflate_the_assembler() {
    // A header claiming a payload just under the cap, with almost no bytes
    // behind it: the assembler must wait, not allocate the claim.
    let mut huge = encode_shutdown();
    huge[8..12].copy_from_slice(&(MAX_PAYLOAD - 1).to_le_bytes());
    let mut assembler = FrameAssembler::new();
    assembler.feed(&huge);
    assert!(matches!(assembler.next_frame(), Ok(None)));
    assert!(
        assembler.capacity() < 4096,
        "a {}-byte length claim grew the buffer to {} bytes",
        MAX_PAYLOAD - 1,
        assembler.capacity()
    );
    // Over the cap, the claim is a typed header error instead.
    let mut oversized = encode_shutdown();
    oversized[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut assembler = FrameAssembler::new();
    assembler.feed(&oversized);
    assert!(matches!(
        assembler.next_frame(),
        Err(WireError::Oversized(len)) if len == MAX_PAYLOAD + 1
    ));
}

/// What the parent commit's per-row verdict encoder produced for
/// `[(7, 0, Yes), (7, 1, Maybe(3)), (9, 0, No)]`: a well-formed, CRC-valid
/// frame of the retired kind (tag 4, byte 5).
#[rustfmt::skip]
const RETIRED_VERDICT_FRAME: [u8; 83] = [
    0x44, 0x52, 0x56, 0x46, 0x01, 0x04, 0x00, 0x00, 0x43, 0x00, 0x00, 0x00, 0x1a, 0x22, 0x87, 0x74,
    0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00,
];

#[test]
fn the_retired_verdict_kind_is_an_unknown_kind_everywhere() {
    use drv_net::wire::crc32;
    // The literal really is a sealed frame: only its kind is unwelcome.
    let declared = u32::from_le_bytes(RETIRED_VERDICT_FRAME[12..16].try_into().unwrap());
    assert_eq!(declared, crc32(&RETIRED_VERDICT_FRAME[HEADER_LEN..]));
    assert_eq!(must_not_panic(&RETIRED_VERDICT_FRAME), Err(WireError::UnknownKind(4)));
    let mut assembler = FrameAssembler::new();
    assembler.feed(&RETIRED_VERDICT_FRAME);
    assert_eq!(assembler.next_frame(), Err(WireError::UnknownKind(4)));

    // A live client served the frame by an old peer closes the connection.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("bound");
    let old_server = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut socket, _) = listener.accept().expect("accept");
        socket.write_all(&encode_credit(16, 16)).expect("greet");
        socket.write_all(&RETIRED_VERDICT_FRAME).expect("serve the retired frame");
        // Hold the socket open until the client hangs up, so the close
        // the client observes is its own decision.
        let _ = socket.read(&mut [0u8; 16]);
    });
    let client = drv_net::MonitorClient::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !client.is_closed() {
        assert!(std::time::Instant::now() < deadline, "the client kept the connection open");
        let _ = client.wait_verdicts(std::time::Duration::from_millis(10));
    }
    assert!(client.poll_verdicts().is_empty(), "no verdict of the retired frame surfaced");
    drop(client);
    old_server.join().expect("old server thread");
}
