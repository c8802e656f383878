//! The `drv-abd` → network bridge: a *live* ABD simulation streamed through
//! a [`MonitorClient`] as it runs.  It lives in the harness, not in
//! `drv-net`, so the served crates do not compile the simulation.
//!
//! `drv_abd::run_abd` extracts a finished history and hands it to a checker
//! post-hoc.  This adapter runs the same deterministic simulation but ships
//! every symbol the moment it happens — the invocation when a client node
//! issues it, the response when the completing simulator step has been
//! processed — through the wire as one monitored object stream.  The
//! message-passing scenario of the paper's possibility results therefore
//! exercises the full network path: simulation → `EventBatch` → frames →
//! server → engine → verdict stream.
//!
//! The stream the bridge emits is symbol-for-symbol the history `run_abd`
//! would have extracted for the same `(config, workload)` (the simulation
//! is seed-deterministic), which is what the loopback tests assert.

use drv_abd::{AbdNode, NetConfig, Simulator, Time, Workload};
use drv_lang::{EventBatch, ObjectId, ProcId, Symbol};
use drv_net::{ClientError, MonitorClient};
use std::collections::VecDeque;

/// What a bridged simulation run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeReport {
    /// Invocation symbols streamed.
    pub invocations: usize,
    /// Response symbols streamed.
    pub responses: usize,
    /// Batches sent over the wire.
    pub batches: u64,
    /// Operations issued but never completed (crashed issuer or no correct
    /// majority) — they remain pending in the monitored history.
    pub incomplete: usize,
    /// Total simulated time.
    pub duration: Time,
}

/// Runs the ABD simulation configured by `(config, workload)` and streams
/// its history *live* through `client` as object `object`, in batches of up
/// to `batch_size` events.  Node `i` of the cluster streams as process
/// `ProcId(i)` — size the server-side monitor factory for `config.n`
/// processes.
///
/// # Errors
///
/// Propagates the first send failure.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn stream_abd(
    client: &mut MonitorClient,
    object: ObjectId,
    config: NetConfig,
    workload: &Workload,
    batch_size: usize,
) -> Result<BridgeReport, ClientError> {
    assert!(batch_size > 0, "a batch must cover at least one event");
    let n = config.n;
    let nodes: Vec<AbdNode> = (0..n).map(|id| AbdNode::new(id, n)).collect();
    let mut sim = Simulator::new(config, nodes);
    sim.start();

    let arena = client.interner();
    let mut batch = EventBatch::with_capacity(batch_size);
    let mut report = BridgeReport {
        invocations: 0,
        responses: 0,
        batches: 0,
        incomplete: 0,
        duration: 0,
    };
    let mut scripts: Vec<VecDeque<_>> = (0..n)
        .map(|node| workload.script(node).iter().cloned().collect())
        .collect();
    let mut issued = vec![0usize; n];
    let mut completed_seen = vec![0usize; n];

    // The same event-driven loop as `run_abd`, with the history symbols
    // diverted onto the wire instead of into a Word.
    loop {
        let mut progressed = false;
        for node in 0..n {
            if sim.is_crashed(node) || !sim.node(node).is_idle() {
                continue;
            }
            if let Some(invocation) = scripts[node].pop_front() {
                batch.push_symbol(object, &Symbol::invoke(ProcId(node), invocation.clone()), &arena);
                report.invocations += 1;
                if batch.len() >= batch_size {
                    client.send_batch(&batch)?;
                    report.batches += 1;
                    batch.clear();
                }
                sim.drive(node, |abd, now, outbox| abd.issue(invocation, now, outbox));
                issued[node] += 1;
                progressed = true;
            }
        }
        let stepped = sim.step();
        #[allow(clippy::needless_range_loop)] // `node` indexes the sim and two trackers
        for node in 0..n {
            let done = sim.node(node).completed.len();
            // Clone the completion tail out before the borrow of `sim`
            // would conflict with the sends below.
            let fresh: Vec<_> = sim.node(node).completed[completed_seen[node]..done]
                .iter()
                .map(|op| op.response.clone())
                .collect();
            for response in fresh {
                batch.push_symbol(object, &Symbol::respond(ProcId(node), response), &arena);
                report.responses += 1;
                if batch.len() >= batch_size {
                    client.send_batch(&batch)?;
                    report.batches += 1;
                    batch.clear();
                }
            }
            completed_seen[node] = done;
        }
        if !stepped && !progressed {
            break;
        }
    }
    if !batch.is_empty() {
        client.send_batch(&batch)?;
        report.batches += 1;
    }
    report.incomplete = (0..n)
        .map(|node| issued[node] - sim.node(node).completed.len())
        .sum();
    report.duration = sim.now();
    Ok(report)
}

/// The history `run_abd` would extract for the same parameters, as the
/// `(object, symbol)` stream the bridge sends — the reference side of the
/// bridge's differential tests.
#[must_use]
pub fn reference_stream(
    object: ObjectId,
    config: NetConfig,
    workload: &Workload,
) -> Vec<(ObjectId, Symbol)> {
    let run = drv_abd::run_abd(config, workload);
    run.history
        .symbols()
        .iter()
        .map(|symbol| (object, symbol.clone()))
        .collect()
}
