//! The Stats round trip, end to end: a live server answers a stats
//! request with a versioned payload carrying its whole telemetry registry
//! and nothing else — proven through [`MonitorClient::stats`] and again
//! over a raw socket (bytes on the wire, decoded by hand) — and a peer that
//! requests stats without reading the replies cannot grow the server's
//! outbound queue past its capacity.  A reply that arrives after its call
//! timed out is not handed to the next call.

use drv_core::CheckerMonitorFactory;
use drv_engine::{EngineConfig, MonitoringEngine};
use drv_lang::{Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::wire::{
    decode_frame, encode_credit, encode_stats, encode_stats_request, Frame, WireError, HEADER_LEN,
    STATS_VERSION,
};
use drv_net::{ClientError, FrameAssembler, MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use drv_telemetry::{Snapshot, Telemetry};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const OBJECTS: u64 = 4;
const OPS: u64 = 25;

/// A server over a fully instrumented engine (timing on).
fn instrumented_server() -> MonitorServer {
    let engine = Arc::new(MonitoringEngine::with_telemetry(
        EngineConfig::new(2).with_max_pending(4096),
        Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
        Telemetry::new(),
    ));
    MonitorServer::with_engine(("127.0.0.1", 0), engine, ServerConfig::new())
        .expect("bind loopback")
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

#[test]
fn client_stats_returns_the_live_registry_snapshot() {
    let server = instrumented_server();
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let events = stream();
    client.send_stream(&events, 64).expect("stream events");
    let mut received = 0usize;
    while received < events.len() {
        let verdicts = client.wait_verdicts(Duration::from_secs(5));
        assert!(!verdicts.is_empty(), "verdicts must keep flowing");
        received += verdicts.len();
    }
    let snap = client.stats(Duration::from_secs(5)).expect("stats reply");
    let n = events.len() as u64;
    // The engine's shape and counters and the server's connection gauge are
    // registry cells like every other.
    assert_eq!(snap.gauge("engine_workers"), Some(2));
    assert_eq!(snap.counter("engine_events"), Some(n), "every event checked before the request");
    assert_eq!(snap.gauge("net_connections"), Some(1));
    // Events per monitor call — the run length the grouped claims achieve —
    // is readable from outside the process.
    let runs = snap.counter("engine_runs").expect("registered");
    assert!((1..=n).contains(&runs), "{runs} runs for {n} events");
    assert_eq!(snap.counter("net_events"), Some(n));
    assert!(snap.counter("net_batches").unwrap() > 0);
    assert!(snap.counter("net_rx_bytes").unwrap() > 0);
    assert_eq!(snap.gauge("engine_queue_depth"), Some(0), "quiesced");
    // The router's wait states ride the same frame: every drain that
    // delivered something ended its window through exactly one exit, and on
    // a healthy connection the router wakes for nothing else — so the three
    // exits sum to its wake-ups (the client holds every verdict, so the
    // router is back asleep and all four cells are at rest).
    let exits: u64 = ["quiescent", "chunk", "deadline"]
        .iter()
        .map(|exit| snap.counter(&format!("net_router_flush_{exit}")).expect("registered"))
        .sum();
    assert!(exits >= 1);
    assert_eq!(Some(exits), snap.counter("net_router_wakeups"));
    // The serving engine timed its work (Telemetry::new → timing on).
    assert!(snap.histogram("net_decode_ns").unwrap().count > 0);
    assert!(snap.histogram("engine_check_ns").unwrap().count > 0);
    // The server-side text exposition covers the same registry.
    let text = server.prometheus();
    assert!(text.contains("# TYPE net_events counter"));
    assert!(text.contains("# TYPE net_decode_ns histogram"));
    assert!(text.contains("# TYPE net_router_flush_quiescent counter"));
    client.shutdown().expect("clean goodbye");
    server.shutdown().expect("no worker panicked");
}

#[test]
fn raw_socket_stats_frames_decode_with_the_version_byte() {
    let server = instrumented_server();
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect raw");
    socket.write_all(&encode_stats_request()).expect("request");
    // The server greets with a Credit frame; skim raw frames until the
    // non-empty Stats reply shows up.
    let scratch = SharedInterner::new();
    let mut assembler = FrameAssembler::new();
    let mut chunk = [0u8; 4096];
    let snap = loop {
        let Some(raw) = assembler.next_frame().expect("well-framed server bytes") else {
            let read = socket.read(&mut chunk).expect("server bytes");
            assert!(read > 0, "the server closed before replying");
            assembler.feed(&chunk[..read]);
            continue;
        };
        let (frame, consumed) = decode_frame(raw, &scratch).expect("decodable frame");
        assert_eq!(consumed, raw.len());
        match frame {
            Frame::Stats(snap) => {
                // The first payload byte is the layout version — the wire
                // contract the decoder enforces with BadStatsVersion.
                assert_eq!(raw[HEADER_LEN], STATS_VERSION);
                break snap;
            }
            Frame::Credit { .. } => continue,
            other => panic!("unexpected frame before the stats reply: {other:?}"),
        }
    };
    assert_eq!(snap.gauge("engine_workers"), Some(2));
    assert_eq!(snap.counter("engine_events"), Some(0));
    assert_eq!(snap.gauge("net_connections"), Some(1));
    assert!(
        snap.counter("net_accepted").unwrap() >= 1,
        "the registry snapshot decodes off the raw bytes"
    );
    drop(socket);
    server.shutdown().expect("no worker panicked");
}

#[test]
fn a_peer_that_never_reads_cannot_grow_its_outbound_queue() {
    const REQUESTS: usize = 4096;
    const OUTBOUND: usize = 8;
    let engine = Arc::new(MonitoringEngine::new(
        EngineConfig::new(1),
        Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
    ));
    let server = MonitorServer::with_engine(
        ("127.0.0.1", 0),
        engine,
        ServerConfig::new().with_outbound(OUTBOUND),
    )
    .expect("bind loopback");
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect raw");
    // 64 KiB of requests, written whole; every reply is a full registry
    // snapshot, far more bytes than loopback buffers hold.
    let requests: Vec<u8> = (0..REQUESTS).flat_map(|_| encode_stats_request()).collect();
    socket.write_all(&requests).expect("requests");

    // Read nothing until the server stops reading too.
    let rx_bytes = || server.telemetry().snapshot().counter("net_rx_bytes").expect("registered");
    let mut last = rx_bytes();
    let mut still = 0;
    while still < 10 {
        std::thread::sleep(Duration::from_millis(20));
        let now = rx_bytes();
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    let queued = server
        .telemetry()
        .snapshot()
        .gauge("net_outbound_frames")
        .expect("registered");
    assert!(
        queued <= OUTBOUND as i64 + 1,
        "{queued} frames queued for a peer that reads nothing ({last} request bytes read)"
    );

    // Now read: every request is answered, none lost, in order behind the
    // opening Credit.  The read timeout turns a server that never resumes
    // into a failure instead of a hang.
    socket.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let scratch = SharedInterner::new();
    let mut assembler = FrameAssembler::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut frames = 0usize;
    while frames < 1 + REQUESTS {
        let Some(raw) = assembler.next_frame().expect("well-framed server bytes") else {
            let read = socket.read(&mut chunk).expect("server bytes");
            assert!(read > 0, "the server closed after {frames} frames");
            assembler.feed(&chunk[..read]);
            continue;
        };
        let (frame, _) = decode_frame(raw, &scratch).expect("decodable frame");
        match (frames, frame) {
            (0, Frame::Credit { .. }) | (1.., Frame::Stats(_)) => frames += 1,
            (at, other) => panic!("frame {at}: unexpected {other:?}"),
        }
    }
    assert!(assembler.next_frame().expect("well-framed").is_none(), "a frame too many");
    socket.set_read_timeout(Some(Duration::from_millis(200))).expect("read timeout");
    let extra = socket.read(&mut chunk);
    assert!(extra.is_err(), "bytes beyond the {REQUESTS} replies: {extra:?}");
    assert_eq!(server.stats().protocol_errors, 0);
    drop(socket);
    server.shutdown().expect("no worker panicked");
}

#[test]
fn a_reply_that_arrives_after_its_call_timed_out_is_not_the_next_calls() {
    // A scripted server: the opening Credit, then it reads two Stats
    // requests before answering either, the first answer (`marker` 1)
    // 300 ms ahead of the second (`marker` 2).
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("accept");
        socket.write_all(&encode_credit(64, 64)).expect("credit");
        let mut requests = vec![0u8; 2 * encode_stats_request().len()];
        socket.read_exact(&mut requests).expect("two stats requests");
        let reply = |marker| {
            encode_stats(&Snapshot {
                counters: vec![("marker".to_string(), marker)],
                ..Snapshot::default()
            })
        };
        socket.write_all(&reply(1)).expect("first reply");
        std::thread::sleep(Duration::from_millis(300));
        socket.write_all(&reply(2)).expect("second reply");
        // Hold the connection open until the client hangs up.
        let mut rest = Vec::new();
        let _ = socket.read_to_end(&mut rest);
    });

    let mut client = MonitorClient::connect(addr).expect("connect");
    let first = client.stats(Duration::from_millis(50)).expect_err("no reply within 50 ms");
    assert!(
        matches!(first, ClientError::Wire(WireError::Timeout { millis: 50 })),
        "a live connection times out with the typed error, got: {first}"
    );
    let second = client.stats(Duration::from_secs(10)).expect("the second reply");
    assert_eq!(
        second.counter("marker"),
        Some(2),
        "the late reply to the first request was handed to the second"
    );
    assert!(!client.is_closed());
    drop(client);
    server.join().expect("scripted server");
}
