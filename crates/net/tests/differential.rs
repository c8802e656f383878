//! The network path's acceptance bar: verdict streams received **over the
//! wire** are bit-identical to the in-process
//! [`sequential_reference`] — at 1/2/4 engine workers, at batch sizes
//! 1/16/256, under forced credit stalls (a window far smaller than the
//! stream) and under mid-stream client disconnects.
//!
//! The reference side reuses the engine's own contract (one verdict per
//! ingested symbol, per-object in order), so equality here proves the
//! whole added stack — encode → TCP → decode-into-arena → submit →
//! subscribe → route → encode → TCP → decode — moves no verdict and drops
//! no event.

use drv_adversary::{merge_random, register_object_stream, RegisterStreamShape};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, Symbol};
use drv_net::{MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client processes per object.
const PROCESSES: usize = 2;

/// How long any single wait may take before the test is declared hung.
const DEADLINE: Duration = Duration::from_secs(60);

fn mixed_factory() -> Arc<RoutingMonitorFactory> {
    let lin = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), PROCESSES))
        as Arc<dyn ObjectMonitorFactory>;
    let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(
        Register::new(),
        PROCESSES,
    )) as Arc<dyn ObjectMonitorFactory>;
    Arc::new(RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
        if object.0.is_multiple_of(2) {
            Arc::clone(&lin)
        } else {
            Arc::clone(&sc)
        }
    }))
}

/// A merged multi-object stream for one seed — the workspace's shared
/// generator, differential shape (overlap + stale reads, so both YES and
/// NO verdicts cross the wire), randomly merged.
fn merged_stream(seed: u64, objects: u64, ops: usize) -> Vec<(ObjectId, Symbol)> {
    let shape = RegisterStreamShape::differential();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..objects)
        .map(|i| (ObjectId(seed * 64 + i), register_object_stream(&mut rng, ops, &shape)))
        .collect();
    merge_random(&mut rng, per_object)
}

/// Rebuilds per-object verdict streams from wire deliveries, asserting the
/// per-object `seq` order the protocol promises.
fn streams_of(events: &[drv_engine::VerdictEvent], context: &str) -> BTreeMap<ObjectId, Vec<Verdict>> {
    let mut streams: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
    for event in events {
        let stream = streams.entry(event.object).or_default();
        assert_eq!(
            event.seq,
            stream.len() as u64,
            "{context}: {} verdicts out of order",
            event.object
        );
        stream.push(event.verdict);
    }
    streams
}

/// Drains the client into `received` until `expected` verdicts arrived in
/// total (or the deadline).
fn drain_into(
    client: &MonitorClient,
    received: &mut Vec<drv_engine::VerdictEvent>,
    expected: usize,
    context: &str,
) {
    let start = Instant::now();
    while received.len() < expected {
        assert!(
            start.elapsed() < DEADLINE,
            "{context}: only {} of {expected} verdicts after {DEADLINE:?}",
            received.len()
        );
        received.extend(client.wait_verdicts(Duration::from_millis(100)));
        assert!(!client.is_closed() || received.len() >= expected, "{context}: closed early");
    }
    assert_eq!(received.len(), expected, "{context}: too many verdicts");
}

/// Drains the client until `expected` verdicts arrived (or the deadline).
fn drain_exactly(
    client: &MonitorClient,
    expected: usize,
    context: &str,
) -> Vec<drv_engine::VerdictEvent> {
    let mut received = Vec::new();
    drain_into(client, &mut received, expected, context);
    received
}

/// The matrix: every worker count × batch size × a small credit window, one
/// client streaming seeded multi-object traffic; live wire verdicts AND the
/// end-of-run report must equal the sequential reference.
#[test]
fn wire_verdicts_equal_sequential_reference() {
    for &workers in &[1usize, 2, 4] {
        for &batch_size in &[1usize, 16, 256] {
            let seed = (workers * 1000 + batch_size) as u64;
            let events = merged_stream(seed, 4, 6);
            let expected = sequential_reference(mixed_factory().as_ref(), &events);
            let server = MonitorServer::bind(
                ("127.0.0.1", 0),
                EngineConfig::new(workers).with_max_pending(512),
                mixed_factory(),
                // A window of 300 forces credit waiting at batch 256 while
                // still admitting one max-size batch.
                ServerConfig::new().with_window(300),
            )
            .expect("bind");
            let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
            client
                .send_stream(&events, batch_size)
                .expect("stream everything");
            let context = format!("workers {workers}, batch {batch_size}");
            let received = drain_exactly(&client, events.len(), &context);
            let streamed = streams_of(&received, &context);
            let streamed: BTreeMap<ObjectId, Vec<Verdict>> = streamed.into_iter().collect();
            assert_eq!(streamed, expected, "{context}: wire streams differ");
            assert!(client.take_nacks().is_empty(), "{context}: spurious NACKs");
            let frames = server.telemetry().snapshot().counter("net_verdict_frames");
            assert!(frames.unwrap_or(0) > 0, "{context}: no verdict frame was counted");
            client.shutdown().expect("clean goodbye");
            let report = server.shutdown().expect("no worker panicked");
            for (object, verdicts) in &expected {
                assert_eq!(
                    report.verdicts(*object),
                    Some(&verdicts[..]),
                    "{context}, {object}: reported streams differ"
                );
            }
        }
    }
}

/// Forced credit stalls: a tiny window (8 events) against a long stream
/// through a tiny-`max_pending` engine — the client must repeatedly run dry
/// and wait for re-grants, and nothing may move a verdict.
#[test]
fn forced_credit_exhaustion_preserves_streams() {
    let events = merged_stream(99, 3, 8);
    let expected = sequential_reference(mixed_factory().as_ref(), &events);
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(8),
        mixed_factory(),
        ServerConfig::new().with_window(8),
    )
    .expect("bind");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let arena = client.interner();
    let mut no_credit = 0u64;
    let mut received = Vec::new();
    let mut batch = EventBatch::new();
    for (object, symbol) in &events {
        batch.push_symbol(*object, symbol, &arena);
        if batch.len() == 4 {
            // Count the sends that find the window too dry for the batch:
            // each blocks until verdicts delivered to us return credit.
            if client.credit().0 < 4 {
                no_credit += 1;
            }
            client.send_batch(&batch).expect("send under a dry window");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        client.send_batch(&batch).expect("tail batch");
    }
    drain_into(&client, &mut received, events.len(), "credit stall");
    assert_eq!(streams_of(&received, "credit stall"), expected);
    assert!(no_credit > 0, "an 8-event window never ran out of credit");
    assert!(client.take_nacks().is_empty(), "well-behaved client was NACKed");
    client.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    let stats = report.stats;
    assert_eq!(stats.events, events.len() as u64);
}

/// Mid-stream disconnects: one client sends its whole stream, a second
/// client drops (without the shutdown handshake) after a prefix.  The
/// surviving client's wire verdicts and the server's end-of-run report must
/// match the reference over exactly the events each connection delivered —
/// and the dropped connection's objects must have been evicted.
#[test]
fn mid_stream_disconnect_keeps_other_connections_exact() {
    let full = merged_stream(7, 3, 6);
    let doomed_all = merged_stream(8, 3, 6);
    let prefix_len = doomed_all.len() / 2;
    let doomed_prefix = &doomed_all[..prefix_len];
    // Reference: the surviving stream in full, plus the prefix the doomed
    // connection actually delivered.
    let mut reference_events = full.clone();
    reference_events.extend_from_slice(doomed_prefix);
    let expected = sequential_reference(mixed_factory().as_ref(), &reference_events);

    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(1024),
        mixed_factory(),
        ServerConfig::new(),
    )
    .expect("bind");
    let mut survivor = MonitorClient::connect(server.local_addr()).expect("connect survivor");
    let mut doomed = MonitorClient::connect(server.local_addr()).expect("connect doomed");
    doomed.send_stream(doomed_prefix, 16).expect("prefix");
    // Make sure the prefix reached the engine before the hard drop: its
    // verdicts coming back is proof of processing.
    let _ = drain_exactly(&doomed, prefix_len, "doomed prefix");
    drop(doomed); // hard disconnect, no handshake
    survivor.send_stream(&full, 16).expect("full stream");
    let received = drain_exactly(&survivor, full.len(), "survivor");
    let streamed = streams_of(&received, "survivor");
    for (object, verdicts) in &streamed {
        assert_eq!(
            expected.get(object),
            Some(verdicts),
            "survivor {object}: wire streams differ"
        );
    }
    // Wait for the eviction markers of the dropped connection to retire.
    let start = Instant::now();
    while server.backlog() > 0 {
        assert!(start.elapsed() < DEADLINE, "eviction markers never drained");
        std::thread::yield_now();
    }
    survivor.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(
        report.objects.len(),
        expected.len(),
        "report object set differs (evicted epochs must be merged back in)"
    );
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "{object}: reported streams differ"
        );
    }
    assert!(report.stats.evicted >= 3, "dropped connection's objects were not evicted");
}

/// Two concurrent clients with disjoint object spaces: each receives
/// exactly its own objects' verdicts (ownership routing), both equal to the
/// reference.
#[test]
fn verdicts_route_to_the_owning_connection() {
    let stream_a = merged_stream(21, 3, 5);
    let stream_b = merged_stream(22, 3, 5);
    let mut combined = stream_a.clone();
    combined.extend_from_slice(&stream_b);
    let expected = sequential_reference(mixed_factory().as_ref(), &combined);
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(1024),
        mixed_factory(),
        ServerConfig::new(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handles: Vec<std::thread::JoinHandle<BTreeMap<ObjectId, Vec<Verdict>>>> =
        [stream_a.clone(), stream_b.clone()]
            .into_iter()
            .enumerate()
            .map(|(index, events)| {
                std::thread::spawn(move || {
                    let mut client = MonitorClient::connect(addr).expect("connect");
                    client.send_stream(&events, 8).expect("stream");
                    let context = format!("client {index}");
                    let received = drain_exactly(&client, events.len(), &context);
                    client.shutdown().expect("clean goodbye");
                    streams_of(&received, &context)
                })
            })
            .collect();
    let streams: Vec<BTreeMap<ObjectId, Vec<Verdict>>> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    let a_objects: std::collections::BTreeSet<ObjectId> =
        stream_a.iter().map(|(object, _)| *object).collect();
    let b_objects: std::collections::BTreeSet<ObjectId> =
        stream_b.iter().map(|(object, _)| *object).collect();
    assert!(a_objects.is_disjoint(&b_objects), "test seeds must not collide");
    for (streamed, objects) in streams.iter().zip([&a_objects, &b_objects]) {
        assert_eq!(
            &streamed.keys().copied().collect::<std::collections::BTreeSet<_>>(),
            objects,
            "a client received verdicts it does not own"
        );
        for (object, verdicts) in streamed {
            assert_eq!(expected.get(object), Some(verdicts), "{object}");
        }
    }
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(report.objects.len(), expected.len());
}

/// Oversized batches are refused with a typed NACK (and dropped before the
/// engine), and the connection keeps working afterwards.
#[test]
fn oversized_batch_is_nacked_not_fatal() {
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(1).with_max_pending(64),
        mixed_factory(),
        ServerConfig::new().with_window(4),
    )
    .expect("bind");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let arena = client.interner();
    let mut oversized = EventBatch::new();
    for i in 0..8 {
        oversized.push_symbol(
            ObjectId(1),
            &Symbol::invoke(ProcId(0), Invocation::Write(i)),
            &arena,
        );
    }
    // The client itself refuses once it knows the window…
    let start = Instant::now();
    while client.credit().1 == 0 {
        assert!(start.elapsed() < DEADLINE, "initial grant never arrived");
        std::thread::yield_now();
    }
    assert!(matches!(
        client.send_batch(&oversized),
        Err(drv_net::ClientError::BatchTooLarge { len: 8, window: 4 })
    ));
    // …and a fitting stream still flows on the same connection.
    let events: Vec<(ObjectId, Symbol)> = vec![
        (ObjectId(1), Symbol::invoke(ProcId(0), Invocation::Write(7))),
        (ObjectId(1), Symbol::respond(ProcId(0), Response::Ack)),
    ];
    client.send_stream(&events, 2).expect("fitting batch");
    let received = drain_exactly(&client, 2, "after refusal");
    assert!(received.iter().all(|event| event.verdict.is_yes()));
    client.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(report.stats.events, 2, "the oversized batch must never reach the engine");
}

/// A protocol-violating peer (raw socket, ignores credit) receives typed
/// NACKs — `BatchTooLarge` for a batch over the window, `CreditExceeded`
/// for an overrun — and the refused batches never reach the engine.
///
/// The overrun is made deterministic by submitting events for an object
/// *owned by another connection*: verdicts (and therefore credit) route to
/// the owner, so the raw peer's window can never regenerate.
#[test]
fn raw_credit_violations_are_nacked_server_side() {
    use drv_lang::SharedInterner;
    use drv_net::wire::{decode_frame, Frame, FrameEncoder, NackReason};
    use drv_net::FrameAssembler;
    use std::io::{Read, Write};

    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(1).with_max_pending(64),
        mixed_factory(),
        ServerConfig::new().with_window(4),
    )
    .expect("bind");
    // The legitimate owner of ObjectId(5).
    let mut owner = MonitorClient::connect(server.local_addr()).expect("connect owner");
    let owner_events = vec![
        (ObjectId(5), Symbol::invoke(ProcId(0), Invocation::Write(1))),
        (ObjectId(5), Symbol::respond(ProcId(0), Response::Ack)),
    ];
    owner.send_stream(&owner_events, 2).expect("own the object");
    let _ = drain_exactly(&owner, 2, "owner");

    let mut socket = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let arena = SharedInterner::new();
    let mut encoder = FrameEncoder::new();
    let batch_of = |len: u64, arena: &SharedInterner| {
        let mut batch = EventBatch::new();
        for i in 0..len {
            batch.push_symbol(ObjectId(5), &Symbol::invoke(ProcId(1), Invocation::Write(i)), arena);
        }
        batch
    };
    // An 8-event batch can never fit a 4-event window.
    socket
        .write_all(&encoder.encode_batch(1, &batch_of(8, &arena), &arena))
        .expect("send oversized");
    // 3 events on the *owner's* object: admitted (within the window), but
    // their verdicts — and the credit they carry — go to the owner.
    socket
        .write_all(&encoder.encode_batch(2, &batch_of(3, &arena), &arena))
        .expect("send first");
    // 2 more events exceed the 1 event of remaining credit: overrun.
    socket
        .write_all(&encoder.encode_batch(3, &batch_of(2, &arena), &arena))
        .expect("send overrun");
    let mut nacks = Vec::new();
    let local = SharedInterner::new();
    let mut assembler = FrameAssembler::new();
    let mut chunk = [0u8; 4096];
    while nacks.len() < 2 {
        let Some(raw) = assembler.next_frame().expect("well-framed server bytes") else {
            let read = socket.read(&mut chunk).expect("server bytes");
            assert!(read > 0, "the server closed before both NACKs arrived");
            assembler.feed(&chunk[..read]);
            continue;
        };
        match decode_frame(raw, &local).expect("server frame").0 {
            Frame::Nack { batch_id, reason, detail } => nacks.push((batch_id, reason, detail)),
            Frame::Credit { .. } | Frame::VerdictBatch(_) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(nacks[0], (1, NackReason::BatchTooLarge, 4));
    assert_eq!(nacks[1], (3, NackReason::CreditExceeded, 1));
    drop(socket);
    owner.shutdown().expect("owner goodbye");
    let report = server.shutdown().expect("no worker panicked");
    // The owner's 2 events plus the raw peer's admitted batch of 3.
    assert_eq!(report.stats.events, 5);
}

/// One row naming a process past `MAX_PROCESSES` is a protocol error: the
/// server refuses the frame before interning or submitting anything, closes
/// that connection, and every other connection's verdicts stay exact.
#[test]
fn a_process_id_past_the_cap_closes_only_its_connection() {
    use drv_lang::wire::{put_invocation, put_u32, put_u64};
    use drv_net::wire::{frame_buffer, seal_frame, FrameKind, MAX_PROCESSES};
    use std::io::{Read, Write};

    let events = merged_stream(61, 3, 6);
    let expected = sequential_reference(mixed_factory().as_ref(), &events);
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(256),
        mixed_factory(),
        ServerConfig::new(),
    )
    .expect("bind");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let (first, rest) = events.split_at(events.len() / 2);
    client.send_stream(first, 4).expect("first half");

    let errors_before = server.stats().protocol_errors;
    let mut frame = frame_buffer(0);
    put_u64(&mut frame, 1); // batch id
    put_u32(&mut frame, 1); // rows
    put_u32(&mut frame, 1); // invocation dict count
    put_invocation(&mut frame, &Invocation::Write(1));
    put_u32(&mut frame, 0); // response dict count
    put_u64(&mut frame, 999); // object
    put_u32(&mut frame, MAX_PROCESSES);
    frame.push(0); // invoke
    put_u32(&mut frame, 0); // dict index
    seal_frame(FrameKind::Batch, &mut frame);
    let mut socket = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    socket.set_read_timeout(Some(DEADLINE)).expect("read timeout");
    socket.write_all(&frame).expect("send the frame");
    // The opening Credit, then end of stream: the server hung up.
    let mut chunk = [0u8; 4096];
    loop {
        match socket.read(&mut chunk) {
            Ok(0) => break,
            Ok(_) => {}
            Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(err) => panic!("the server kept the connection open: {err}"),
        }
    }
    assert_eq!(server.stats().protocol_errors, errors_before + 1);

    client.send_stream(rest, 4).expect("second half");
    let received = drain_exactly(&client, events.len(), "beside a refused peer");
    assert_eq!(streams_of(&received, "beside a refused peer"), expected);
    client.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(report.stats.events, events.len() as u64, "the refused row never reached the engine");
}
