//! The wake-on-capacity acceptance bar (the network-side twin of the
//! engine's `idle_engine_performs_zero_wakeups_while_parked`): a reactor
//! with a batch parked on [`SubmitError::Full`] performs **zero** poller
//! wake-ups while the engine stays full — the 1 ms retry tick cannot come
//! back — and still un-parks promptly the moment capacity frees, because
//! the engine's capacity hook wakes it.  The hook is the only such wake, so
//! a server refuses an engine that is already hooked.  And the same bar for
//! a server with nothing to do at all: reactor, router and engine workers
//! of an idle server all sleep untimed, as does the connected client.
//!
//! [`SubmitError::Full`]: drv_engine::SubmitError::Full

mod common;

use common::{wait_until, Gate, GatedFactory, DEADLINE};
use drv_engine::{EngineConfig, MonitoringEngine};
use drv_lang::{Invocation, ObjectId, ProcId, Symbol};
use drv_net::{MonitorClient, MonitorServer, ServerConfig};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn counter(server: &MonitorServer, name: &str) -> u64 {
    server.telemetry().snapshot().counter(name).unwrap_or(0)
}

#[test]
fn parked_reactor_performs_zero_wakeups_until_capacity_frees() {
    let gate = Arc::new(Gate::default());
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        // One worker, a 4-event bound: the gated monitor wedges the worker
        // on the first event, so the first batch occupies the bound until
        // the gate opens.
        EngineConfig::new(1).with_max_pending(4),
        Arc::new(GatedFactory::new(Arc::clone(&gate))),
        ServerConfig::new(),
    )
    .expect("bind");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    let object = ObjectId(1);
    let wedge: Vec<(ObjectId, Symbol)> = (0..4)
        .map(|i| (object, Symbol::invoke(ProcId(0), Invocation::Write(i))))
        .collect();
    client.send_stream(&wedge, 4).expect("wedge batch");
    // This batch cannot fit while the gate is closed: the reactor must
    // park it.
    let parked: Vec<(ObjectId, Symbol)> =
        vec![(object, Symbol::invoke(ProcId(1), Invocation::Read))];
    client.send_stream(&parked, 1).expect("parked batch");
    assert!(
        wait_until(DEADLINE, || server.stats().engine_full_stalls >= 1),
        "the second batch never parked on the full engine"
    );
    // Settling grace: let the wakeups of the sends themselves drain.
    std::thread::sleep(Duration::from_millis(100));
    let before = counter(&server, "net_reactor_wakeups");
    std::thread::sleep(Duration::from_millis(300));
    let after = counter(&server, "net_reactor_wakeups");
    assert_eq!(
        after, before,
        "a reactor with a parked batch woke with no capacity freed: timed retry polling is back"
    );
    // And the park is not a deadlock: freeing capacity fires the engine's
    // capacity hook, which wakes the reactor, which resubmits — every
    // verdict still arrives.
    gate.release();
    let mut received = Vec::new();
    let start = Instant::now();
    while received.len() < 5 {
        assert!(
            start.elapsed() < DEADLINE,
            "only {} of 5 verdicts after the gate opened (lost capacity wake?)",
            received.len()
        );
        received.extend(client.wait_verdicts(Duration::from_millis(100)));
    }
    client.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(report.stats.events, 5);
}

/// A batch parked on a full engine waits for the server's own capacity hook,
/// so an engine someone else hooked first is refused, not served with a
/// parked batch that nothing would wake.
#[test]
fn an_engine_hooked_elsewhere_is_refused() {
    let engine = Arc::new(MonitoringEngine::new(
        EngineConfig::new(1).with_max_pending(4),
        Arc::new(GatedFactory::new(Gate::opened())),
    ));
    assert!(engine.set_capacity_hook(Arc::new(|| {})));
    let refused =
        MonitorServer::with_engine(("127.0.0.1", 0), Arc::clone(&engine), ServerConfig::new());
    assert_eq!(
        refused.err().map(|error| error.kind()),
        Some(io::ErrorKind::AlreadyExists)
    );
    // Nothing of the refused server holds on to the engine.
    let engine = Arc::into_inner(engine).expect("the refused server dropped its handle");
    engine.finish().expect("no worker panicked");
}

/// Idle is silent: with one client connected and nothing in flight, the
/// reactor (no poll timeout), the router (no subscription beat) and the
/// engine's workers (untimed park) all stay asleep — and all three still
/// wake for the next frame.
#[test]
fn idle_server_and_client_perform_zero_wakeups() {
    const WATCHED: [&str; 3] = ["net_reactor_wakeups", "net_router_wakeups", "engine_park_wakeups"];
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(64),
        Arc::new(GatedFactory::new(Gate::opened())),
        ServerConfig::new(),
    )
    .expect("bind");
    let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
    assert!(
        wait_until(DEADLINE, || client.credit().1 > 0),
        "the opening grant never arrived"
    );
    // Settling grace: let the wakeups of the handshake itself drain.
    std::thread::sleep(Duration::from_millis(100));
    let before = WATCHED.map(|name| counter(&server, name));
    std::thread::sleep(Duration::from_millis(300));
    let after = WATCHED.map(|name| counter(&server, name));
    assert_eq!(
        after, before,
        "an idle server woke with nothing to do ({WATCHED:?}): a timed wait is back"
    );
    // And untimed is not deaf: the next frame is checked and answered.
    let event = vec![(ObjectId(1), Symbol::invoke(ProcId(0), Invocation::Read))];
    client.send_stream(&event, 1).expect("one event");
    let mut received = Vec::new();
    assert!(
        wait_until(DEADLINE, || {
            received.extend(client.poll_verdicts());
            !received.is_empty()
        }),
        "the idle server never answered (lost wake-up?)"
    );
    assert_eq!(received.len(), 1);
    assert!(WATCHED.iter().all(|name| counter(&server, name) > 0));
    client.shutdown().expect("clean goodbye");
    let report = server.shutdown().expect("no worker panicked");
    assert_eq!(report.stats.events, 1);
}
