//! The Stats round trip, end to end: a live server answers a stats
//! request with a versioned payload carrying its flat engine counters AND
//! its whole telemetry registry — proven through [`MonitorClient::stats`]
//! and again over a raw socket (bytes on the wire, decoded by hand), plus
//! the periodic snapshot hook.

use drv_core::CheckerMonitorFactory;
use drv_engine::{EngineConfig, MonitoringEngine};
use drv_lang::{Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::wire::{decode_frame, encode_stats_request, Frame, HEADER_LEN, STATS_VERSION};
use drv_net::{FrameAssembler, MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use drv_telemetry::Telemetry;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const OBJECTS: u64 = 4;
const OPS: u64 = 25;

/// A server over a fully instrumented engine (timing + flight ring on).
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
    let reply = client.stats(Duration::from_secs(5)).expect("stats reply");
    let n = events.len() as u64;
    assert_eq!(reply.engine.workers, 2);
    assert_eq!(reply.engine.events, n, "every event was checked before the request");
    assert_eq!(reply.engine.connections, 1);
    // The registry rode the same frame: engine- and net-layer cells agree
    // with the flat counters they are the source of truth for.
    let snap = &reply.telemetry;
    assert_eq!(snap.counter("engine_events"), Some(n));
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
    let reply = loop {
        let Some(raw) = assembler.next_frame().expect("well-framed server bytes") else {
            let read = socket.read(&mut chunk).expect("server bytes");
            assert!(read > 0, "the server closed before replying");
            assembler.feed(&chunk[..read]);
            continue;
        };
        let (frame, consumed) = decode_frame(raw, &scratch).expect("decodable frame");
        assert_eq!(consumed, raw.len());
        match frame {
            Frame::Stats(reply) => {
                // The first payload byte is the layout version — the wire
                // contract the decoder enforces with BadStatsVersion.
                assert_eq!(raw[HEADER_LEN], STATS_VERSION);
                break reply;
            }
            Frame::Credit { .. } => continue,
            other => panic!("unexpected frame before the stats reply: {other:?}"),
        }
    };
    assert_eq!(reply.engine.workers, 2);
    assert_eq!(reply.engine.connections, 1);
    assert!(
        reply.telemetry.counter("net_accepted").unwrap() >= 1,
        "the registry snapshot decodes off the raw bytes"
    );
    drop(socket);
    server.shutdown().expect("no worker panicked");
}

#[test]
fn periodic_snapshot_hook_delivers_fresh_snapshots() {
    let server = instrumented_server();
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        server.spawn_snapshot_hook(Duration::from_millis(20), move |snap| {
            seen.lock().push(snap.counter("net_events").unwrap_or(0));
        });
    }
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let events = stream();
    client.send_stream(&events, 32).expect("stream events");
    let mut received = 0usize;
    while received < events.len() {
        received += client.wait_verdicts(Duration::from_secs(5)).len();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while {
        let seen = seen.lock();
        seen.len() < 3 || seen.last().copied().unwrap_or(0) < events.len() as u64
    } {
        assert!(std::time::Instant::now() < deadline, "hook never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.shutdown().expect("clean goodbye");
    server.shutdown().expect("no worker panicked");
    let seen: Vec<u64> = seen.lock().clone();
    assert!(seen.len() >= 2, "the hook must have fired repeatedly: {seen:?}");
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "snapshots are monotone");
    // The server also renders the registry as Prometheus text on demand
    // (exercised via the snapshot the hook handed out).
}
