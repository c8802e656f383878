//! The paper's message-passing scenario on the full network path: live ABD
//! register simulations streamed through `MonitorClient`s to a TCP
//! monitoring server, one monitored object per cluster.
//!
//! Each connection runs an independent ABD cluster (Attiya–Bar-Noy–Dolev
//! atomic register emulation over a seeded asynchronous network, one with a
//! crashed minority) and ships every invocation/response symbol the moment
//! the simulation produces it.  The server checks linearizability per
//! object and streams verdicts back.  Run with:
//!
//! ```text
//! cargo run --example abd_over_net --release
//! ```

use drv::abd::{NetConfig, Workload};
use drv::core::CheckerMonitorFactory;
use drv::engine::EngineConfig;
use drv::lang::ObjectId;
use drv::bench::stream_abd;
use drv::net::{MonitorClient, MonitorServer, ServerConfig};
use drv::spec::Register;
use std::sync::Arc;
use std::time::Duration;

/// Nodes per ABD cluster (each node is one monitor process).
const NODES: usize = 3;
/// Independent clusters, each one monitored object.
const CLUSTERS: u64 = 4;
/// Rounds of the mixed write-then-read workload per node.
const ROUNDS: usize = 4;

fn main() {
    let server = MonitorServer::bind(
        ("127.0.0.1", 0),
        EngineConfig::new(2).with_max_pending(4096),
        Arc::new(CheckerMonitorFactory::linearizability(Register::new(), NODES)),
        ServerConfig::new().with_window(512),
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    println!("monitoring {CLUSTERS} ABD clusters ({NODES} nodes each) over {addr}");

    let handles: Vec<std::thread::JoinHandle<(u64, usize, usize)>> = (0..CLUSTERS)
        .map(|cluster| {
            std::thread::spawn(move || {
                let mut client = MonitorClient::connect(addr).expect("connect");
                let config = if cluster == 0 {
                    // One cluster loses a minority node mid-run: ABD
                    // tolerates it, and the history must stay linearizable.
                    NetConfig::new(NODES, 0xABD + cluster).crash(2, 60)
                } else {
                    NetConfig::new(NODES, 0xABD + cluster)
                };
                let object = ObjectId(cluster);
                let report = stream_abd(
                    &mut client,
                    object,
                    config,
                    &Workload::mixed(NODES, ROUNDS),
                    8,
                )
                .expect("bridge the simulation");
                let sent = report.invocations + report.responses;
                let mut verdicts = Vec::new();
                while verdicts.len() < sent {
                    let batch = client.wait_verdicts(Duration::from_secs(5));
                    assert!(
                        !batch.is_empty() || !client.is_closed(),
                        "connection died before all verdicts arrived"
                    );
                    verdicts.extend(batch);
                }
                let last = verdicts.last().expect("at least one symbol").verdict;
                println!(
                    "cluster {cluster}: {sent} symbols ({} incomplete ops), \
                     simulated {} ticks, final verdict {last}",
                    report.incomplete, report.duration
                );
                assert!(last.is_yes(), "an ABD history must linearize");
                client.shutdown().expect("clean goodbye");
                (cluster, sent, report.incomplete)
            })
        })
        .collect();
    let mut total_symbols = 0usize;
    for handle in handles {
        let (_, sent, _) = handle.join().expect("cluster thread");
        total_symbols += sent;
    }

    let report = server.shutdown().expect("no engine worker panicked");
    let aggregate = report.aggregate();
    println!("server report over {total_symbols} streamed symbols: {aggregate}");
    assert_eq!(aggregate.overall, drv::core::Verdict::Yes);
    assert_eq!(aggregate.yes, CLUSTERS as usize);
    println!("OK: the message-passing scenario exercised the full network path");
}
