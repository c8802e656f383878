//! Connection-churn soaks for the reactor: hundreds of connect/disconnect
//! cycles mid-stream, a deliberately slow consumer, and the flat-thread
//! guarantee.  The acceptance bar stays the differential one — surviving
//! connections' wire verdict streams must remain bit-identical to the
//! in-process [`sequential_reference`] no matter how much the connection
//! table thrashes around them.

use drv_adversary::{merge_random, register_object_stream, RegisterStreamShape};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, RoutingMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig, VerdictEvent};
use drv_lang::{EventBatch, Invocation, ObjectId, ProcId, Response, SharedInterner, Symbol};
use drv_net::{MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROCESSES: usize = 2;
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

fn merged_stream(seed: u64, objects: u64, ops: usize) -> Vec<(ObjectId, Symbol)> {
    let shape = RegisterStreamShape::differential();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..objects)
        .map(|i| (ObjectId(seed * 64 + i), register_object_stream(&mut rng, ops, &shape)))
        .collect();
    merge_random(&mut rng, per_object)
}

fn streams_of(events: &[VerdictEvent], context: &str) -> BTreeMap<ObjectId, Vec<Verdict>> {
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

fn drain_exactly(client: &MonitorClient, expected: usize, context: &str) -> Vec<VerdictEvent> {
    let mut received = Vec::new();
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
    received
}

/// 200 connect/disconnect cycles — a mix of clean shutdowns, hard drops,
/// and connect-then-vanish ghosts — thrash the reactor's connection table
/// while one survivor streams its whole workload in slices.  The
/// survivor's wire verdict stream must equal the sequential reference
/// exactly, and every churned connection must be accounted for.
#[test]
fn reconnect_storm_preserves_surviving_streams() {
    const CYCLES: u64 = 200;
    let survivor_events = merged_stream(1, 4, 40);
    let expected = sequential_reference(mixed_factory().as_ref(), &survivor_events);
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(2048),
        mixed_factory(),
        ServerConfig::new(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut survivor = MonitorClient::connect(addr).expect("connect survivor");
    let mut received: Vec<VerdictEvent> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x5708);
    // Interleave: a slice of the survivor's stream, then one churn cycle.
    let slice = survivor_events.len().div_ceil(CYCLES as usize).max(1);
    let mut sent = 0usize;
    for cycle in 0..CYCLES {
        let end = (sent + slice).min(survivor_events.len());
        if sent < end {
            survivor
                .send_stream(&survivor_events[sent..end], 8)
                .expect("survivor slice");
            sent = end;
        }
        received.extend(survivor.poll_verdicts());
        // Churned connections use odd high object ids — disjoint from the
        // survivor's (seed-1 ids are < 64 * 2), so ownership routing keeps
        // their verdicts (delivered or dropped) out of the survivor's way.
        let mut churn = MonitorClient::connect(addr).expect("churn connect");
        match cycle % 3 {
            0 => {
                // Clean handshake after a tiny stream.
                let object = ObjectId(1_000_000 + cycle);
                let events = vec![
                    (object, Symbol::invoke(ProcId(0), Invocation::Write(cycle))),
                    (object, Symbol::respond(ProcId(0), Response::Ack)),
                ];
                churn.send_stream(&events, 2).expect("churn stream");
                churn.shutdown().expect("churn goodbye");
            }
            1 => {
                // Hard drop mid-stream, no handshake — possibly with its
                // verdicts still undelivered.
                let object = ObjectId(2_000_000 + cycle);
                let events: Vec<(ObjectId, Symbol)> = (0..rng.gen_range(1..6u64))
                    .map(|i| (object, Symbol::invoke(ProcId(0), Invocation::Write(i))))
                    .collect();
                churn.send_stream(&events, 4).expect("churn prefix");
                drop(churn);
            }
            _ => {
                // Ghost: connects and vanishes without a single frame.
                drop(churn);
            }
        }
    }
    assert_eq!(sent, survivor_events.len(), "the survivor must send everything");
    let mut tail = drain_exactly(
        &survivor,
        survivor_events.len() - received.len(),
        "survivor tail",
    );
    received.append(&mut tail);
    let streamed = streams_of(&received, "survivor");
    assert_eq!(streamed, expected, "the storm altered the survivor's streams");
    survivor.shutdown().expect("survivor goodbye");
    let stats = server.stats();
    assert_eq!(stats.accepted, CYCLES + 1, "every churn cycle must have connected");
    let report = server.shutdown().expect("no worker panicked");
    for (object, verdicts) in &expected {
        assert_eq!(
            report.verdicts(*object),
            Some(&verdicts[..]),
            "{object}: reported streams differ"
        );
    }
}

/// A consumer that never reads does not buffer unboundedly: once its
/// bounded outbound queue has been full past the stall grace, the router
/// disconnects it (`stalled_disconnects`), and a healthy connection
/// streaming concurrently stays exactly ≡ the sequential reference.
#[test]
fn slow_consumer_is_disconnected_not_buffered() {
    use drv_net::wire::FrameEncoder;
    use std::io::Write;

    const OUTBOUND: usize = 8;
    let started = Instant::now();
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(4096),
        mixed_factory(),
        // verdict_chunk 1 + a tiny outbound queue: the verdict traffic for
        // 128k events (~5.4 MB in 1-verdict frames) dwarfs what loopback
        // kernel buffers can autotune to (~4.3 MB measured) plus 8 queued
        // frames, so the queue must wedge while the consumer refuses to
        // read.  Getting there takes ~100k router→reactor hand-offs of 8
        // frames each: the reactor's drain of a queue that refused a push
        // has to wake the router (`wants_space`), or every hand-off waits
        // out a 20 ms beat and the kernel buffers take minutes to fill.
        ServerConfig::new()
            .with_window(128 * 1024)
            .with_verdict_chunk(1)
            .with_outbound(OUTBOUND)
            .with_stall_grace(Duration::from_millis(300)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The slow consumer: a raw socket that submits a window's worth of
    // events and then never reads a byte.  Invoke/respond pairs spread
    // over 512 objects keep every per-object history short and well
    // formed (checker cost stays flat); the byte volume is what matters.
    let mut slow = std::net::TcpStream::connect(addr).expect("connect slow");
    let arena = SharedInterner::new();
    let mut encoder = FrameEncoder::new();
    for chunk in 0..64u64 {
        let mut batch = EventBatch::new();
        for i in 0..1024u64 {
            let pair = chunk * 1024 + i;
            let object = ObjectId(9_000_000 + pair % 512);
            batch.push_symbol(object, &Symbol::invoke(ProcId(0), Invocation::Write(pair)), &arena);
            batch.push_symbol(object, &Symbol::respond(ProcId(0), Response::Ack), &arena);
        }
        slow.write_all(&encoder.encode_batch(chunk, &batch, &arena))
            .expect("feed the slow consumer's events");
    }

    // Meanwhile a healthy client streams and drains normally.
    let healthy_events = merged_stream(3, 4, 30);
    let expected = sequential_reference(mixed_factory().as_ref(), &healthy_events);
    let mut healthy = MonitorClient::connect(addr).expect("connect healthy");
    healthy.send_stream(&healthy_events, 16).expect("healthy stream");
    let received = drain_exactly(&healthy, healthy_events.len(), "healthy");
    assert_eq!(
        streams_of(&received, "healthy"),
        expected,
        "a stalled neighbour perturbed the healthy stream"
    );

    // The router must declare the stall within grace + slack.
    let start = Instant::now();
    while server.stats().stalled_disconnects == 0 {
        assert!(
            start.elapsed() < DEADLINE,
            "the slow consumer was never disconnected: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert!(stats.dropped_verdicts > 0, "a stalled consumer's tail must be dropped");
    // Behind a full queue the router must not fall back to one queue's worth
    // per 20 ms beat: everything delivered before the stall (the grace
    // included in `elapsed`) took far fewer beats than hand-offs.
    let frames = server
        .telemetry()
        .snapshot()
        .counter("net_verdict_frames")
        .expect("registered");
    let handoffs = frames / OUTBOUND as u64;
    let beats = started.elapsed().as_millis() as u64 / 20;
    assert!(
        handoffs > 1_000 && beats < handoffs / 10,
        "{frames} frames in {OUTBOUND}-frame hand-offs took {beats} beats of 20 ms"
    );
    drop(slow);
    healthy.shutdown().expect("healthy goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert!(report.stats.evicted >= 1, "the stalled connection's object must be evicted");
}
