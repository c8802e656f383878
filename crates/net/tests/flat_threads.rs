//! The reactor's scaling claim, measured directly off procfs: the server's
//! thread count is the same with 16 connections and with 1 000 —
//! connections are poller registrations, not threads.  The whole fleet is
//! held open at once while the threads are counted, then every connection
//! sends one object's traffic, and the verdicts that come back over the
//! wire must equal the sequential reference.
//!
//! This test lives in its own binary on purpose: `/proc/self/task` is
//! process-wide, so it must not share a process with other tests that
//! start their own servers concurrently.  The 1 000-connection fleet holds
//! about 3 000 descriptors (the server's socket and the client's two per
//! connection).

#![cfg(target_os = "linux")]

use drv_adversary::{register_object_stream, RegisterStreamShape};
use drv_core::{CheckerMonitorFactory, ObjectMonitorFactory, Verdict};
use drv_engine::{sequential_reference, EngineConfig};
use drv_lang::{ObjectId, Symbol};
use drv_net::{ClientConfig, MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(60);

/// Operations of the one register object each connection sends.
const OPS: usize = 4;

fn server_threads() -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = entry.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            if matches!(name.trim_end(), "drv-net-io" | "drv-net-router") {
                count += 1;
            }
        }
    }
    count
}

/// Polls `server_threads` until it reports `want` (threads name themselves
/// asynchronously at startup, and exit asynchronously at shutdown).
fn await_threads(want: usize, context: &str) {
    let start = Instant::now();
    while server_threads() != want {
        assert!(
            start.elapsed() < DEADLINE,
            "{context}: expected {want} server threads, stuck at {}",
            server_threads()
        );
        std::thread::yield_now();
    }
}

/// Connects with retries: a fleet of a thousand overruns the listener
/// backlog, so a failed attempt backs off and tries again.
fn connect_retry(addr: SocketAddr) -> MonitorClient {
    let start = Instant::now();
    loop {
        let config = ClientConfig::new().with_connect_timeout(Duration::from_secs(5));
        match MonitorClient::connect_with(addr, config) {
            Ok(client) => return client,
            Err(err) => {
                assert!(start.elapsed() < DEADLINE, "connect kept failing: {err}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[test]
fn server_thread_count_is_flat_in_connections() {
    for connections in [16u64, 1_000] {
        let context = format!("{connections} connections");
        assert_eq!(
            server_threads(),
            0,
            "{context}: stray server threads before bind"
        );
        let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2));
        let streams: Vec<Vec<(ObjectId, Symbol)>> = (0..connections)
            .map(|conn| {
                let mut rng = StdRng::seed_from_u64(conn);
                let shape = RegisterStreamShape::differential();
                register_object_stream(&mut rng, OPS, &shape)
                    .into_iter()
                    .map(|symbol| (ObjectId(conn), symbol))
                    .collect()
            })
            .collect();
        let combined: Vec<(ObjectId, Symbol)> = streams.concat();
        let server = MonitorServer::bind(
            ("127.0.0.1", 0),
            // Room for every event at once: a compliant fleet is never NACKed.
            EngineConfig::new(1).with_max_pending(combined.len()),
            Arc::clone(&factory) as Arc<dyn ObjectMonitorFactory>,
            ServerConfig::new(),
        )
        .expect("bind");
        let addr = server.local_addr();
        await_threads(2, &context);
        let mut clients: Vec<MonitorClient> =
            (0..connections).map(|_| connect_retry(addr)).collect();
        // Wait until the server has registered the whole fleet, then count.
        let start = Instant::now();
        while server.stats().active < connections {
            assert!(
                start.elapsed() < DEADLINE,
                "{context}: never all registered: {:?}",
                server.stats()
            );
            std::thread::yield_now();
        }
        assert_eq!(
            server_threads(),
            2,
            "{context}: server thread count grew with connection count"
        );
        for (client, events) in clients.iter_mut().zip(&streams) {
            client.send_stream(events, events.len()).expect("send");
        }
        let mut received: BTreeMap<ObjectId, Vec<Verdict>> = BTreeMap::new();
        for (client, events) in clients.iter().zip(&streams) {
            let mut count = 0;
            while count < events.len() {
                assert!(
                    start.elapsed() < DEADLINE,
                    "{context}: verdicts never arrived"
                );
                for event in client.wait_verdicts(Duration::from_millis(100)) {
                    received
                        .entry(event.object)
                        .or_default()
                        .push(event.verdict);
                    count += 1;
                }
                assert!(
                    !client.is_closed() || count >= events.len(),
                    "{context}: closed early"
                );
            }
        }
        assert_eq!(
            received,
            sequential_reference(factory.as_ref(), &combined),
            "{context}: wire verdicts differ from the reference"
        );
        assert_eq!(
            server.stats().nacks,
            0,
            "{context}: a compliant client was NACKed"
        );
        drop(clients);
        server.shutdown().expect("no worker panicked");
        await_threads(0, &context);
    }
}
