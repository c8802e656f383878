//! The router's flush rule, tested by count instead of by clock: every
//! drain that delivers something ends its coalescing window through exactly
//! one of three exits — the engine went quiescent (`backlog() == 0` and an
//! empty poll), a frame's worth of verdicts was in hand (`verdict_chunk`),
//! or the 300 µs bound ran out with work still in the engine — and each exit
//! has a `net_router_flush_*` counter.  A gated monitor holds the engine's
//! backlog where each case needs it, so which exit fires is decided by
//! state, not by timing; every wait here is a `wait_until` on a counter.
//! The split under paced and saturating input is asserted on the router's
//! core with scripted time (`router::tests` in the crate).

mod common;

use common::{wait_until, Gate, GatedFactory, DEADLINE};
use drv_engine::{EngineConfig, VerdictEvent};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, SharedInterner, Symbol};
use drv_net::wire::{decode_frame, Frame, FrameEncoder};
use drv_net::{FrameAssembler, MonitorClient, MonitorServer, ServerConfig};
use drv_telemetry::Snapshot;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Router drains by what ended the coalescing window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exits {
    quiescent: u64,
    chunk: u64,
    deadline: u64,
}

impl Exits {
    fn of(snapshot: &Snapshot) -> Exits {
        let read = |name| snapshot.counter(name).unwrap_or(0);
        Exits {
            quiescent: read("net_router_flush_quiescent"),
            chunk: read("net_router_flush_chunk"),
            deadline: read("net_router_flush_deadline"),
        }
    }

    fn live(server: &MonitorServer) -> Exits {
        Exits::of(&server.telemetry().snapshot())
    }

    fn since(self, before: Exits) -> Exits {
        Exits {
            quiescent: self.quiescent - before.quiescent,
            chunk: self.chunk - before.chunk,
            deadline: self.deadline - before.deadline,
        }
    }
}

fn write(value: u64) -> Symbol {
    Symbol::invoke(ProcId(0), Invocation::Write(value))
}

/// Sends `events` as one frame and polls until `received` holds `target`
/// verdicts.
fn send_and_await(
    client: &mut MonitorClient,
    events: &[(ObjectId, Symbol)],
    received: &mut Vec<VerdictEvent>,
    target: usize,
    context: &str,
) {
    client.send_stream(events, events.len()).expect("one frame");
    await_verdicts(client, received, target, context);
}

fn await_verdicts(
    client: &MonitorClient,
    received: &mut Vec<VerdictEvent>,
    target: usize,
    context: &str,
) {
    assert!(
        wait_until(DEADLINE, || {
            received.extend(client.poll_verdicts());
            received.len() >= target
        }),
        "{context}: only {} of {target} verdicts",
        received.len()
    );
    assert_eq!(received.len(), target, "{context}: too many verdicts");
}

/// (a) An idle server and one 1-event frame: by the time the router has
/// yielded once the engine is empty again, so the verdict leaves by the
/// quiescent exit — not after the 300 µs bound.
#[test]
fn a_lone_frame_is_flushed_by_the_quiescent_exit() {
    for workers in [1, 2, 4] {
        let context = format!("{workers} workers");
        let server = MonitorServer::bind(
            ("127.0.0.1", 0),
            EngineConfig::new(workers).with_max_pending(64),
            Arc::new(GatedFactory::new(Gate::opened())),
            ServerConfig::new(),
        )
        .expect("bind");
        let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
        let before = Exits::live(&server);
        let mut received = Vec::new();
        send_and_await(&mut client, &[(ObjectId(1), write(1))], &mut received, 1, &context);
        assert_eq!(
            Exits::live(&server).since(before),
            Exits { quiescent: 1, chunk: 0, deadline: 0 },
            "{context}"
        );
        client.shutdown().expect("clean goodbye");
        server.shutdown().expect("no worker panicked");
    }
}

/// (b) Backlog > 0 holds the window open: with object B wedged inside its
/// monitor, object A's verdict waits out the bound and leaves by the
/// deadline exit; once the gate opens, B's verdict finds the engine empty
/// and leaves by the quiescent one.
#[test]
fn backlog_keeps_the_window_open_until_the_deadline() {
    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);
    for workers in [1, 2, 4] {
        let context = format!("{workers} workers");
        let gate_a = Arc::new(Gate::default());
        let gate_b = Arc::new(Gate::default());
        let server = MonitorServer::bind(
            ("127.0.0.1", 0),
            EngineConfig::new(workers).with_max_pending(64),
            Arc::new(
                GatedFactory::new(Gate::opened())
                    .with_gate(A, Arc::clone(&gate_a))
                    .with_gate(B, Arc::clone(&gate_b)),
            ),
            ServerConfig::new(),
        )
        .expect("bind");
        let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
        let before = Exits::live(&server);
        // A first, held at its own gate until B's frame is in the engine
        // too: from the moment A's verdict exists, B keeps `backlog()` > 0.
        // (A must be *inside* its monitor before B is sent, or one worker
        // could drain both into one batch and hold A's verdict behind B.)
        client.send_stream(&[(A, write(1))], 1).expect("frame A");
        assert!(wait_until(DEADLINE, || gate_a.arrivals() == 1), "{context}: A never ran");
        client.send_stream(&[(B, write(2))], 1).expect("frame B");
        assert!(wait_until(DEADLINE, || server.backlog() == 2), "{context}: B never arrived");
        gate_a.release();
        let mut received = Vec::new();
        await_verdicts(&client, &mut received, 1, &context);
        assert_eq!(received[0].object, A, "{context}");
        assert_eq!(server.backlog(), 1, "{context}: B is still wedged");
        assert_eq!(
            Exits::live(&server).since(before),
            Exits { quiescent: 0, chunk: 0, deadline: 1 },
            "{context}: with work in the engine only the bound may end the window"
        );
        gate_b.release();
        await_verdicts(&client, &mut received, 2, &context);
        assert_eq!(received[1].object, B, "{context}");
        assert_eq!(
            Exits::live(&server).since(before),
            Exits { quiescent: 1, chunk: 0, deadline: 1 },
            "{context}"
        );
        client.shutdown().expect("clean goodbye");
        server.shutdown().expect("no worker panicked");
    }
}

/// (c) A first drain that already holds a frame's worth needs no window:
/// with `verdict_chunk` 4 and one 256-event frame for one object, every
/// worker push (64 verdicts) is a chunk exit, and no frame on the wire
/// carries more than 4 verdicts.  (Read off a raw socket — the client API
/// hides frame boundaries.)
#[test]
fn a_full_chunk_is_flushed_without_a_window() {
    const EVENTS: u64 = 256;
    for workers in [1, 2, 4] {
        let context = format!("{workers} workers");
        let server = MonitorServer::bind(
            ("127.0.0.1", 0),
            EngineConfig::new(workers).with_max_pending(1024),
            Arc::new(GatedFactory::new(Gate::opened())),
            ServerConfig::new().with_verdict_chunk(4),
        )
        .expect("bind");
        let before = Exits::live(&server);
        let mut socket = TcpStream::connect(server.local_addr()).expect("connect raw");
        let arena = SharedInterner::new();
        let mut batch = EventBatch::new();
        for value in 0..EVENTS {
            batch.push_symbol(ObjectId(7), &write(value), &arena);
        }
        socket
            .write_all(&FrameEncoder::new().encode_batch(0, &batch, &arena))
            .expect("the one frame");
        let mut assembler = FrameAssembler::new();
        let mut chunk = [0u8; 4096];
        let mut verdicts = 0u64;
        let mut largest = 0usize;
        while verdicts < EVENTS {
            let Some(raw) = assembler.next_frame().expect("well-framed server bytes") else {
                let read = socket.read(&mut chunk).expect("server bytes");
                assert!(read > 0, "{context}: closed after {verdicts} verdicts");
                assembler.feed(&chunk[..read]);
                continue;
            };
            if let (Frame::VerdictBatch(events), _) = decode_frame(raw, &arena).expect("decodable") {
                verdicts += events.len() as u64;
                largest = largest.max(events.len());
            }
        }
        assert_eq!(verdicts, EVENTS, "{context}");
        assert!(largest <= 4, "{context}: a frame carried {largest} verdicts past the chunk");
        let exits = Exits::live(&server).since(before);
        assert!(exits.chunk >= 1, "{context}: {exits:?}");
        assert_eq!(exits.deadline, 0, "{context}: {exits:?}");
        drop(socket);
        server.shutdown().expect("no worker panicked");
    }
}
