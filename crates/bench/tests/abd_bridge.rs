//! The live ABD bridge end-to-end: a message-passing simulation streamed
//! over the wire must produce exactly the verdict stream of checking
//! `run_abd`'s post-hoc history of the same run.

use drv_abd::{NetConfig, Workload};
use drv_bench::{reference_stream, stream_abd};
use drv_consistency::{CheckerConfig, CheckerMonitorFactory, IncrementalChecker};
use drv_engine::{EngineConfig, VerdictEvent};
use drv_lang::{ObjectId, Verdict};
use drv_net::{MonitorClient, MonitorServer, ServerConfig};
use drv_spec::Register;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the verdicts may take before the test is declared hung.
const DEADLINE: Duration = Duration::from_secs(60);

/// Drains `client` until `expected` verdicts arrived, asserting that they
/// are `object`'s, in `seq` order, and returns them.
fn drain_stream(client: &MonitorClient, object: ObjectId, expected: usize) -> Vec<Verdict> {
    let start = Instant::now();
    let mut received: Vec<VerdictEvent> = Vec::new();
    while received.len() < expected {
        assert!(
            start.elapsed() < DEADLINE,
            "only {} of {expected} verdicts after {DEADLINE:?}",
            received.len()
        );
        received.extend(client.wait_verdicts(Duration::from_millis(100)));
        assert!(!client.is_closed() || received.len() >= expected, "closed early");
    }
    assert_eq!(received.len(), expected, "too many verdicts");
    received
        .iter()
        .enumerate()
        .map(|(seq, event)| {
            assert_eq!((event.object, event.seq), (object, seq as u64), "out of order");
            event.verdict
        })
        .collect()
}

/// Including a run with a crashed minority; the histories an ABD cluster
/// produces are linearizable, so without a crash the final verdict is YES.
#[test]
fn abd_bridge_matches_post_hoc_history() {
    for (seed, crash) in [(42u64, None), (43, Some((1usize, 40u64)))] {
        let n = 3;
        let config = {
            let base = NetConfig::new(n, seed);
            match crash {
                Some((node, time)) => base.crash(node, time),
                None => base,
            }
        };
        let workload = Workload::mixed(n, 2);
        let object = ObjectId(777);
        // The reference: the post-hoc history through a sequential checker.
        let reference_events = reference_stream(object, config.clone(), &workload);
        let mut checker =
            IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), n);
        let mut expected = Vec::new();
        for (_, symbol) in &reference_events {
            checker.push_symbol(symbol);
            expected.push(Verdict::from(checker.check_outcome()));
        }

        let factory = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), n));
        let server = MonitorServer::bind(
            ("127.0.0.1", 0),
            EngineConfig::new(2).with_max_pending(256),
            factory,
            ServerConfig::new().with_window(64),
        )
        .expect("bind");
        let mut client = MonitorClient::connect(server.local_addr()).expect("connect");
        let report = stream_abd(&mut client, object, config, &workload, 7).expect("bridge");
        assert_eq!(
            report.invocations + report.responses,
            reference_events.len(),
            "seed {seed}: bridge stream length differs from run_abd history"
        );
        let streamed = drain_stream(&client, object, reference_events.len());
        assert_eq!(streamed, expected, "seed {seed}");
        if crash.is_none() {
            assert_eq!(expected.last(), Some(&Verdict::Yes), "ABD must linearize");
            assert_eq!(report.incomplete, 0);
        }
        client.shutdown().expect("clean goodbye");
        let engine_report = server.shutdown().expect("no worker panicked");
        assert_eq!(engine_report.verdicts(object), Some(&expected[..]), "seed {seed}");
    }
}
