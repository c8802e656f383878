//! A monitoring service over TCP: the `drv-net` loopback smoke.
//!
//! Binds a [`MonitorServer`] on 127.0.0.1 over a 2-worker service-mode
//! engine, connects several [`MonitorClient`]s, streams a few thousand
//! register events per connection in `EventBatch`es, receives every verdict
//! back over the wire, asks the server for a stats frame, and shuts
//! everything down cleanly.  Run with:
//!
//! ```text
//! cargo run --example net_service --release            # batch 16
//! cargo run --example net_service --release -- 256    # batch 256
//! ```

use drv::core::CheckerMonitorFactory;
use drv::engine::EngineConfig;
use drv::lang::{Invocation, ObjectId, ProcId, Response, Symbol};
use drv::net::{MonitorClient, MonitorServer, ServerConfig};
use drv::spec::Register;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 3;
const OBJECTS_PER_CONN: u64 = 8;
const OPS_PER_OBJECT: u64 = 100;

fn main() {
    let batch_size: usize = std::env::args()
        .nth(1)
        .map_or(16, |arg| arg.parse().expect("batch size is a number"));
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(8192),
        Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
        ServerConfig::new().with_window(2048),
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    println!("serving on {addr} (window 2048 events, batch {batch_size})");

    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<(usize, u64)>> = (0..CONNECTIONS as u64)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = MonitorClient::connect(addr).expect("connect");
                // A clean per-object register history: write k, read k back.
                let mut events = Vec::new();
                for op in 0..OPS_PER_OBJECT {
                    for object in 0..OBJECTS_PER_CONN {
                        let id = ObjectId(conn * 1_000 + object);
                        let (invocation, response) = if op % 2 == 0 {
                            (Invocation::Write(op), Response::Ack)
                        } else {
                            (Invocation::Read, Response::Value(op - 1))
                        };
                        events.push((id, Symbol::invoke(ProcId(0), invocation)));
                        events.push((id, Symbol::respond(ProcId(0), response)));
                    }
                }
                client.send_stream(&events, batch_size).expect("stream events");
                let mut received = 0usize;
                let mut yes = 0u64;
                while received < events.len() {
                    let verdicts = client.wait_verdicts(Duration::from_secs(5));
                    assert!(
                        !verdicts.is_empty() || !client.is_closed(),
                        "connection died before all verdicts arrived"
                    );
                    received += verdicts.len();
                    yes += verdicts.iter().filter(|event| event.verdict.is_yes()).count() as u64;
                }
                // One connection also asks for the server's counters.
                if conn == 0 {
                    let stats = client.stats(Duration::from_secs(5)).expect("stats reply");
                    let counter = |name| stats.counter(name).expect("a registry counter");
                    let gauge = |name| stats.gauge(name).expect("a registry gauge");
                    println!(
                        "stats frame: {} events checked, {} engine workers, {} connections, \
                         {} registry metrics over the wire",
                        counter("engine_events"),
                        gauge("engine_workers"),
                        gauge("net_connections"),
                        stats.counters.len() + stats.gauges.len() + stats.histograms.len(),
                    );
                    // This connection's own traffic is fully verdicted, so
                    // it is contained in both the net- and engine-side tallies.
                    let own = OBJECTS_PER_CONN * OPS_PER_OBJECT * 2;
                    assert!(counter("net_events") >= own && counter("engine_events") >= own);
                }
                client.shutdown().expect("clean goodbye");
                (received, yes)
            })
        })
        .collect();
    let mut received = 0usize;
    let mut yes = 0u64;
    for handle in handles {
        let (r, y) = handle.join().expect("client thread");
        received += r;
        yes += y;
    }
    let elapsed = start.elapsed();

    let report = server.shutdown().expect("no engine worker panicked");
    let aggregate = report.aggregate();
    println!(
        "{received} verdicts over the wire in {:.2} ms ({:.0} events/s), {yes} YES live; \
         server report: {aggregate}",
        elapsed.as_secs_f64() * 1e3,
        received as f64 / elapsed.as_secs_f64().max(1e-12),
    );
    assert_eq!(received as u64, CONNECTIONS as u64 * OBJECTS_PER_CONN * OPS_PER_OBJECT * 2);
    assert_eq!(aggregate.yes, (CONNECTIONS as u64 * OBJECTS_PER_CONN) as usize);
    assert_eq!(aggregate.no, 0);
    println!("OK: every stream checked linearizable, end to end over TCP");
}
