//! The ABD multi-writer multi-reader atomic register emulation.
//!
//! Attiya, Bar-Noy and Dolev (reference \[5\] of the paper) showed how to
//! emulate an atomic read/write register in an asynchronous message-passing
//! system in which fewer than half the processes may crash.  The paper's
//! possibility results only use read/write registers, so this emulation is
//! what ports them to message passing; this module implements the multi-writer
//! variant and verifies that the histories it produces are linearizable using
//! the `drv-consistency` checker.
//!
//! Every node is both a replica (it stores a timestamped value and answers
//! query/update messages) and a client (it issues reads and writes).  A write
//! queries a majority for the highest timestamp, picks a larger one, and
//! propagates it to a majority; a read queries a majority, adopts the largest
//! timestamped value, writes it back to a majority, and only then returns —
//! the write-back is what makes reads atomic rather than merely regular.

use crate::sim::{NetConfig, Node, Outbox, Simulator, Time};
use drv_lang::{Invocation, ProcId, Response, Word};
use std::collections::BTreeMap;

/// A logical timestamp: `(sequence number, writer id)`, ordered
/// lexicographically so concurrent writes are totally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Timestamp {
    /// Monotonically increasing sequence number.
    pub seq: u64,
    /// Identifier of the writing node (tie breaker).
    pub writer: usize,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbdMessage {
    /// Phase-1 request: send me your `(timestamp, value)`.
    Query {
        /// Client-local operation identifier.
        op: u64,
    },
    /// Phase-1 reply.
    QueryReply {
        /// Operation the reply belongs to.
        op: u64,
        /// The replica's current timestamp.
        ts: Timestamp,
        /// The replica's current value.
        value: u64,
    },
    /// Phase-2 request: adopt `(timestamp, value)` if newer.
    Update {
        /// Operation the update belongs to.
        op: u64,
        /// Timestamp to adopt.
        ts: Timestamp,
        /// Value to adopt.
        value: u64,
    },
    /// Phase-2 acknowledgement.
    UpdateAck {
        /// Operation the acknowledgement belongs to.
        op: u64,
    },
}

/// The client-side state of an in-flight operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClientPhase {
    Idle,
    Query {
        kind: OpKind,
        replies: BTreeMap<usize, (Timestamp, u64)>,
    },
    Update {
        kind: OpKind,
        ts: Timestamp,
        value: u64,
        acks: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write(u64),
}

/// A completed client operation, with the simulated times at which it was
/// invoked and responded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedOp {
    /// The issuing node.
    pub node: usize,
    /// The invocation.
    pub invocation: Invocation,
    /// The response.
    pub response: Response,
    /// Simulated invocation time.
    pub invoked_at: Time,
    /// Simulated response time.
    pub responded_at: Time,
}

/// One ABD node: replica state plus client state.
#[derive(Debug)]
pub struct AbdNode {
    id: usize,
    n: usize,
    // Replica state.
    ts: Timestamp,
    value: u64,
    // Client state.
    phase: ClientPhase,
    next_op: u64,
    pending_invocation: Option<(Invocation, Time)>,
    /// Completed operations, in completion order.
    pub completed: Vec<CompletedOp>,
}

impl AbdNode {
    /// Creates node `id` of an `n`-node cluster.
    #[must_use]
    pub fn new(id: usize, n: usize) -> Self {
        AbdNode {
            id,
            n,
            ts: Timestamp::default(),
            value: 0,
            phase: ClientPhase::Idle,
            next_op: 0,
            pending_invocation: None,
            completed: Vec::new(),
        }
    }

    /// Whether the node has no operation in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, ClientPhase::Idle)
    }

    /// The replica's current value (for tests).
    #[must_use]
    pub fn replica_value(&self) -> u64 {
        self.value
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Starts a client operation (issued by the workload driver).
    ///
    /// # Panics
    ///
    /// Panics when an operation is already in flight.
    pub fn issue(&mut self, invocation: Invocation, now: Time, outbox: &mut Outbox<AbdMessage>) {
        assert!(
            self.is_idle(),
            "node {} already has an operation in flight",
            self.id
        );
        let kind = match &invocation {
            Invocation::Read => OpKind::Read,
            Invocation::Write(v) => OpKind::Write(*v),
            other => panic!("the ABD register serves only reads and writes, not {other}"),
        };
        self.pending_invocation = Some((invocation, now));
        self.next_op += 1;
        self.phase = ClientPhase::Query {
            kind,
            replies: BTreeMap::new(),
        };
        outbox.broadcast(self.id, self.n, AbdMessage::Query { op: self.next_op });
    }

    fn complete(&mut self, response: Response, now: Time) {
        let (invocation, invoked_at) = self
            .pending_invocation
            .take()
            .expect("an operation was in flight");
        self.completed.push(CompletedOp {
            node: self.id,
            invocation,
            response,
            invoked_at,
            responded_at: now,
        });
        self.phase = ClientPhase::Idle;
    }
}

impl Node for AbdNode {
    type Message = AbdMessage;

    fn on_start(&mut self, _now: Time, _outbox: &mut Outbox<AbdMessage>) {}

    fn on_message(
        &mut self,
        now: Time,
        from: usize,
        message: AbdMessage,
        outbox: &mut Outbox<AbdMessage>,
    ) {
        match message {
            // Replica role.
            AbdMessage::Query { op } => {
                outbox.send(
                    self.id,
                    from,
                    AbdMessage::QueryReply {
                        op,
                        ts: self.ts,
                        value: self.value,
                    },
                );
            }
            AbdMessage::Update { op, ts, value } => {
                if ts > self.ts {
                    self.ts = ts;
                    self.value = value;
                }
                outbox.send(self.id, from, AbdMessage::UpdateAck { op });
            }
            // Client role.
            AbdMessage::QueryReply { op, ts, value } => {
                if op != self.next_op {
                    return;
                }
                let majority = self.majority();
                if let ClientPhase::Query { kind, replies } = &mut self.phase {
                    replies.insert(from, (ts, value));
                    if replies.len() >= majority {
                        let (max_ts, max_value) = replies
                            .values()
                            .max_by_key(|(ts, _)| *ts)
                            .copied()
                            .expect("at least one reply");
                        let kind = *kind;
                        let (ts, value) = match kind {
                            OpKind::Read => (max_ts, max_value),
                            OpKind::Write(v) => (
                                Timestamp {
                                    seq: max_ts.seq + 1,
                                    writer: self.id,
                                },
                                v,
                            ),
                        };
                        self.phase = ClientPhase::Update {
                            kind,
                            ts,
                            value,
                            acks: 0,
                        };
                        outbox.broadcast(
                            self.id,
                            self.n,
                            AbdMessage::Update {
                                op: self.next_op,
                                ts,
                                value,
                            },
                        );
                    }
                }
            }
            AbdMessage::UpdateAck { op } => {
                if op != self.next_op {
                    return;
                }
                let majority = self.majority();
                if let ClientPhase::Update {
                    kind, value, acks, ..
                } = &mut self.phase
                {
                    *acks += 1;
                    if *acks >= majority {
                        let response = match kind {
                            OpKind::Read => Response::Value(*value),
                            OpKind::Write(_) => Response::Ack,
                        };
                        self.complete(response, now);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _now: Time, _outbox: &mut Outbox<AbdMessage>) {}
}

/// A workload: per-node sequences of invocations, issued one after the other.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    per_node: Vec<Vec<Invocation>>,
}

impl Workload {
    /// A workload with no operations for `n` nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Workload {
            per_node: vec![Vec::new(); n],
        }
    }

    /// Appends an invocation to node `node`'s script.
    #[must_use]
    pub fn then(mut self, node: usize, invocation: Invocation) -> Self {
        if node >= self.per_node.len() {
            self.per_node.resize(node + 1, Vec::new());
        }
        self.per_node[node].push(invocation);
        self
    }

    /// A canonical mixed read/write workload: node `i` writes `round * 10 + i`
    /// and then reads, for `rounds` rounds.
    #[must_use]
    pub fn mixed(n: usize, rounds: usize) -> Self {
        let mut workload = Workload::empty(n);
        for round in 1..=rounds as u64 {
            for node in 0..n {
                workload = workload
                    .then(node, Invocation::Write(round * 10 + node as u64))
                    .then(node, Invocation::Read);
            }
        }
        workload
    }

    /// Total number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum()
    }

    /// Node `node`'s invocation script (empty for nodes beyond the
    /// workload) — what external drivers (e.g. the `drv-net` ABD bridge)
    /// replay through [`AbdNode::issue`].
    #[must_use]
    pub fn script(&self, node: usize) -> &[Invocation] {
        self.per_node.get(node).map_or(&[], Vec::as_slice)
    }

    /// Whether the workload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of running a workload against an ABD cluster.
#[derive(Debug, Clone)]
pub struct AbdRun {
    /// The concurrent history, as a well-formed word over the register
    /// alphabet; operations that never completed (issued by crashed clients,
    /// or stuck without a correct majority) appear as pending invocations.
    pub history: Word,
    /// All completed operations with their timing.
    pub completed: Vec<CompletedOp>,
    /// Operations that were issued but never completed (their issuer crashed,
    /// or a majority of replicas was unavailable).
    pub incomplete: usize,
    /// Total simulated time.
    pub duration: Time,
    /// Total events processed by the network simulator.
    pub events: usize,
}

/// Runs `workload` on an ABD cluster configured by `config`.
///
/// Clients issue their next operation as soon as the previous one completes;
/// the interleaving of messages (and hence of operations) is controlled by
/// the seeded latency distribution in `config`.
#[must_use]
pub fn run_abd(config: NetConfig, workload: &Workload) -> AbdRun {
    let n = config.n;
    let nodes: Vec<AbdNode> = (0..n).map(|id| AbdNode::new(id, n)).collect();
    let mut sim = Simulator::new(config, nodes);
    sim.start();

    let mut scripts: Vec<std::collections::VecDeque<Invocation>> = workload
        .per_node
        .iter()
        .cloned()
        .map(std::collections::VecDeque::from)
        .chain(std::iter::repeat_with(std::collections::VecDeque::new))
        .take(n)
        .collect();
    let mut issued = vec![0usize; n];
    let mut completed_seen = vec![0usize; n];
    // The history word is assembled *in causal order*: the invocation symbol
    // is appended the moment the client issues the operation, the response
    // symbol the moment the simulator step that completed it has been
    // processed (at most one completion per step, so the order is exact).
    let mut history = Word::new();

    // Event-driven outer loop: after every simulator step, idle clients with
    // remaining script issue their next operation.
    loop {
        let mut progressed = false;
        for node in 0..n {
            if sim.is_crashed(node) || !sim.node(node).is_idle() {
                continue;
            }
            if let Some(invocation) = scripts[node].pop_front() {
                history.invoke(ProcId(node), invocation.clone());
                sim.drive(node, |abd, now, outbox| abd.issue(invocation, now, outbox));
                issued[node] += 1;
                progressed = true;
            }
        }
        let stepped = sim.step();
        #[allow(clippy::needless_range_loop)] // `node` indexes the sim and two trackers
        for node in 0..n {
            let done = sim.node(node).completed.len();
            for op in &sim.node(node).completed[completed_seen[node]..done] {
                history.respond(ProcId(node), op.response.clone());
            }
            completed_seen[node] = done;
        }
        if !stepped && !progressed {
            break;
        }
    }

    let completed: Vec<CompletedOp> = (0..n).flat_map(|i| sim.node(i).completed.clone()).collect();
    let incomplete = issued.iter().sum::<usize>() - completed.len()
        + scripts
            .iter()
            .map(std::collections::VecDeque::len)
            .sum::<usize>();
    AbdRun {
        history,
        completed,
        incomplete,
        duration: sim.now(),
        events: sim.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_consistency::{check_linearizable, is_linearizable};
    use drv_spec::Register;

    #[test]
    fn timestamps_order_lexicographically() {
        let a = Timestamp { seq: 1, writer: 2 };
        let b = Timestamp { seq: 2, writer: 0 };
        let c = Timestamp { seq: 2, writer: 1 };
        assert!(a < b && b < c);
    }

    #[test]
    fn failure_free_runs_are_linearizable() {
        for seed in [1, 2, 3, 4] {
            let run = run_abd(NetConfig::new(3, seed), &Workload::mixed(3, 3));
            assert_eq!(run.incomplete, 0, "seed {seed}");
            assert!(run.history.is_well_formed_prefix());
            assert!(
                is_linearizable(&Register::new(), &run.history, 3),
                "seed {seed}: {}",
                run.history
            );
            assert_eq!(run.completed.len(), 18);
            assert!(run.duration > 0);
            assert!(run.events > 0);
        }
    }

    #[test]
    fn minority_crashes_preserve_linearizability_and_liveness() {
        // n = 5, f = 2 < n/2: the correct clients' operations all complete
        // and the history stays linearizable.
        let config = NetConfig::new(5, 11).crash(3, 40).crash(4, 80);
        assert!(config.majority_correct());
        let run = run_abd(config, &Workload::mixed(5, 2));
        assert!(run.history.is_well_formed_prefix());
        assert!(is_linearizable(&Register::new(), &run.history, 5));
        // Only operations of the crashed clients may be missing.
        assert!(run.incomplete <= 2 * 2 * 2);
        assert!(run.completed.len() >= 3 * 2 * 2);
    }

    #[test]
    fn majority_crash_blocks_progress_but_not_safety() {
        // n = 3, f = 2 ≥ n/2: at some point no majority is available, so some
        // operations never complete — but everything that did complete is
        // still linearizable.
        let config = NetConfig::new(3, 7).crash(1, 30).crash(2, 30);
        assert!(!config.majority_correct());
        let run = run_abd(config, &Workload::mixed(3, 3));
        assert!(
            run.incomplete > 0,
            "progress must be lost without a majority"
        );
        assert!(is_linearizable(&Register::new(), &run.history, 3));
    }

    #[test]
    fn reads_return_previously_written_values() {
        let run = run_abd(NetConfig::new(3, 5), &Workload::mixed(3, 2));
        let written: Vec<u64> = run
            .completed
            .iter()
            .filter_map(|op| match op.invocation {
                Invocation::Write(v) => Some(v),
                _ => None,
            })
            .collect();
        for op in &run.completed {
            if let Response::Value(v) = op.response {
                assert!(
                    v == 0 || written.contains(&v),
                    "read of a phantom value {v}"
                );
            }
        }
    }

    #[test]
    fn workload_builders() {
        let workload = Workload::empty(2)
            .then(0, Invocation::Write(1))
            .then(1, Invocation::Read)
            .then(3, Invocation::Read);
        assert_eq!(workload.len(), 3);
        assert!(!workload.is_empty());
        assert!(Workload::empty(2).is_empty());
        assert_eq!(Workload::mixed(2, 2).len(), 8);
    }

    #[test]
    fn node_accessors() {
        let mut node = AbdNode::new(0, 3);
        assert!(node.is_idle());
        assert_eq!(node.replica_value(), 0);
        let mut outbox = Outbox::new();
        node.issue(Invocation::Write(9), 0, &mut outbox);
        assert!(!node.is_idle());
        assert_eq!(outbox.messages().len(), 3);
    }

    #[test]
    #[should_panic(expected = "already has an operation in flight")]
    fn double_issue_is_rejected() {
        let mut node = AbdNode::new(0, 3);
        let mut outbox = Outbox::new();
        node.issue(Invocation::Read, 0, &mut outbox);
        node.issue(Invocation::Read, 0, &mut outbox);
    }

    #[test]
    fn abd_histories_are_always_linearizable() {
        // Deterministic property sweep (replaces the earlier proptest case
        // generator): parameters derived from a seeded generator.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xABD0);
        for case in 0..12 {
            let seed = rng.gen_range(0..5_000u64);
            let n = rng.gen_range(3..6usize);
            let rounds = rng.gen_range(1..3usize);
            let run = run_abd(NetConfig::new(n, seed), &Workload::mixed(n, rounds));
            let ctx = format!("case {case}: seed={seed} n={n} rounds={rounds}");
            assert!(run.history.is_well_formed_prefix(), "{ctx}");
            let result = check_linearizable(&Register::new(), &run.history, n);
            assert!(result.is_consistent(), "{ctx}");
        }
    }
}
