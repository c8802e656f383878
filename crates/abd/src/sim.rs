//! A deterministic discrete-event simulator of an asynchronous,
//! crash-prone message-passing system.
//!
//! The paper's possibility results use only read/write registers, and
//! therefore — by the ABD emulation of Attiya, Bar-Noy and Dolev (reference
//! \[5\]) — carry over to asynchronous message-passing systems in which fewer
//! than half the processes may crash.  This module provides the
//! message-passing substrate for demonstrating that port: `n` nodes exchange
//! messages over channels with unbounded, per-message random delays
//! (deterministic given the seed), and a subset of nodes may crash (they stop
//! processing and never reply).
//!
//! The simulator is generic over the protocol: a [`Node`] reacts to delivered
//! messages and to locally scheduled timers by sending further messages.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

/// Simulated time, in abstract ticks.
pub type Time = u64;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Protocol payload.
    pub payload: M,
}

/// What a node wants the simulator to do after handling an event.
#[derive(Debug, Clone, Default)]
pub struct Outbox<M> {
    messages: Vec<Envelope<M>>,
    timers: Vec<Time>,
}

impl<M> Outbox<M> {
    /// An empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Outbox {
            messages: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Queues a message to `to`.
    pub fn send(&mut self, from: usize, to: usize, payload: M) {
        self.messages.push(Envelope { from, to, payload });
    }

    /// Queues a message to every node (including the sender).
    pub fn broadcast(&mut self, from: usize, n: usize, payload: M)
    where
        M: Clone,
    {
        for to in 0..n {
            self.messages.push(Envelope {
                from,
                to,
                payload: payload.clone(),
            });
        }
    }

    /// Requests a local timer `delay` ticks from now.
    pub fn set_timer(&mut self, delay: Time) {
        self.timers.push(delay);
    }

    /// Queued messages.
    #[must_use]
    pub fn messages(&self) -> &[Envelope<M>] {
        &self.messages
    }
}

/// A protocol node driven by the simulator.
pub trait Node {
    /// The protocol's message type.
    type Message: Clone;

    /// Called once at time 0.
    fn on_start(&mut self, now: Time, outbox: &mut Outbox<Self::Message>);

    /// Called when a message is delivered to this node.
    fn on_message(
        &mut self,
        now: Time,
        from: usize,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message>,
    );

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, now: Time, outbox: &mut Outbox<Self::Message>);
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending<M> {
    Deliver(Envelope<M>),
    Timer { node: usize },
}

/// Configuration of the network simulator.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of nodes.
    pub n: usize,
    /// Seed of the latency generator.
    pub seed: u64,
    /// Message latencies are drawn uniformly from `1..=max_latency`.
    pub max_latency: Time,
    /// Nodes that crash, and the time at which they crash.
    pub crashes: Vec<(usize, Time)>,
    /// Hard bound on processed events (guards against non-terminating
    /// protocols).
    pub max_events: usize,
}

impl NetConfig {
    /// A reliable (crash-free) network of `n` nodes.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        NetConfig {
            n,
            seed,
            max_latency: 10,
            crashes: Vec::new(),
            max_events: 1_000_000,
        }
    }

    /// Sets the maximum message latency.
    #[must_use]
    pub fn with_max_latency(mut self, max_latency: Time) -> Self {
        self.max_latency = max_latency.max(1);
        self
    }

    /// Crashes `node` at `time`.
    #[must_use]
    pub fn crash(mut self, node: usize, time: Time) -> Self {
        self.crashes.push((node, time));
        self
    }

    /// Number of crashed nodes.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.crashes
            .iter()
            .map(|(node, _)| node)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Whether the crash pattern keeps a strict majority of nodes correct
    /// (the requirement of the ABD emulation).
    #[must_use]
    pub fn majority_correct(&self) -> bool {
        self.crash_count() * 2 < self.n
    }
}

/// The discrete-event network simulator.
#[derive(Debug)]
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    config: NetConfig,
    queue: BinaryHeap<Reverse<(Time, u64, usize, PendingSlot)>>,
    pending: Vec<Option<Pending<N::Message>>>,
    free_slots: Vec<usize>,
    rng: StdRng,
    now: Time,
    seq: u64,
    crashed: Vec<bool>,
    events_processed: usize,
}

/// Index into the pending-event arena (kept simple so the heap key stays
/// `Ord` without requiring `M: Ord`).
type PendingSlot = usize;

impl<N: Node> Simulator<N> {
    /// Creates a simulator over the given nodes.
    ///
    /// # Panics
    ///
    /// Panics when the number of nodes does not match the configuration.
    #[must_use]
    pub fn new(config: NetConfig, nodes: Vec<N>) -> Self {
        assert_eq!(
            nodes.len(),
            config.n,
            "node count must match the configuration"
        );
        let crashed = vec![false; config.n];
        Simulator {
            nodes,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            queue: BinaryHeap::new(),
            pending: Vec::new(),
            free_slots: Vec::new(),
            now: 0,
            seq: 0,
            crashed,
            events_processed: 0,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> usize {
        self.events_processed
    }

    /// Access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Mutable access to a node (used by protocol drivers to inject client
    /// operations between simulation steps).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// Whether node `i` has crashed.
    #[must_use]
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed.get(i).copied().unwrap_or(false)
    }

    fn enqueue(&mut self, at: Time, node_hint: usize, pending: Pending<N::Message>) {
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.pending[slot] = Some(pending);
            slot
        } else {
            self.pending.push(Some(pending));
            self.pending.len() - 1
        };
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, node_hint, slot)));
    }

    fn flush_outbox(&mut self, from: usize, outbox: Outbox<N::Message>) {
        for envelope in outbox.messages {
            let latency = self.rng.gen_range(1..=self.config.max_latency);
            let to = envelope.to;
            self.enqueue(self.now + latency, to, Pending::Deliver(envelope));
        }
        for delay in outbox.timers {
            self.enqueue(self.now + delay.max(1), from, Pending::Timer { node: from });
        }
    }

    /// Lets node `i` take an externally driven step (e.g. a client issuing an
    /// operation), flushing whatever it sends.
    pub fn drive<F>(&mut self, i: usize, f: F)
    where
        F: FnOnce(&mut N, Time, &mut Outbox<N::Message>),
    {
        if self.is_crashed(i) {
            return;
        }
        let mut outbox = Outbox::new();
        f(&mut self.nodes[i], self.now, &mut outbox);
        self.flush_outbox(i, outbox);
    }

    /// Starts all nodes (calls [`Node::on_start`]) and schedules the
    /// configured crashes.
    pub fn start(&mut self) {
        for i in 0..self.config.n {
            let mut outbox = Outbox::new();
            self.nodes[i].on_start(self.now, &mut outbox);
            self.flush_outbox(i, outbox);
        }
    }

    /// Processes a single event; returns `false` when the queue is empty or
    /// the event budget is exhausted.
    pub fn step(&mut self) -> bool {
        if self.events_processed >= self.config.max_events {
            return false;
        }
        let Some(Reverse((at, _, _, slot))) = self.queue.pop() else {
            return false;
        };
        let pending = self.pending[slot].take().expect("pending slot populated");
        self.free_slots.push(slot);
        self.now = at;
        self.events_processed += 1;

        // Apply configured crashes that have come due.
        let due: Vec<usize> = self
            .config
            .crashes
            .iter()
            .filter(|(_, t)| *t <= self.now)
            .map(|(node, _)| *node)
            .collect();
        for node in due {
            if node < self.crashed.len() {
                self.crashed[node] = true;
            }
        }

        match pending {
            Pending::Deliver(envelope) => {
                if self.crashed[envelope.to] {
                    return true;
                }
                let mut outbox = Outbox::new();
                self.nodes[envelope.to].on_message(
                    self.now,
                    envelope.from,
                    envelope.payload,
                    &mut outbox,
                );
                self.flush_outbox(envelope.to, outbox);
            }
            Pending::Timer { node } => {
                if self.crashed[node] {
                    return true;
                }
                let mut outbox = Outbox::new();
                self.nodes[node].on_timer(self.now, &mut outbox);
                self.flush_outbox(node, outbox);
            }
        }
        true
    }

    /// Runs until quiescence (no more events) or the event budget runs out.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: every node greets every other node once; recipients
    /// count greetings.
    #[derive(Debug, Default)]
    struct Greeter {
        id: usize,
        n: usize,
        greetings: usize,
        timer_fired: bool,
    }

    impl Node for Greeter {
        type Message = &'static str;

        fn on_start(&mut self, _now: Time, outbox: &mut Outbox<Self::Message>) {
            outbox.broadcast(self.id, self.n, "hello");
            outbox.set_timer(50);
        }

        fn on_message(
            &mut self,
            _now: Time,
            _from: usize,
            _message: Self::Message,
            _outbox: &mut Outbox<Self::Message>,
        ) {
            self.greetings += 1;
        }

        fn on_timer(&mut self, _now: Time, _outbox: &mut Outbox<Self::Message>) {
            self.timer_fired = true;
        }
    }

    fn greeters(n: usize) -> Vec<Greeter> {
        (0..n)
            .map(|id| Greeter {
                id,
                n,
                greetings: 0,
                timer_fired: false,
            })
            .collect()
    }

    #[test]
    fn reliable_network_delivers_everything() {
        let config = NetConfig::new(4, 1);
        let mut sim = Simulator::new(config, greeters(4));
        sim.start();
        sim.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(sim.node(i).greetings, 4);
            assert!(sim.node(i).timer_fired);
        }
        assert!(sim.events_processed() > 0);
        assert!(sim.now() > 0);
    }

    #[test]
    fn crashed_nodes_stop_processing() {
        let config = NetConfig::new(4, 2).crash(3, 0);
        assert_eq!(config.crash_count(), 1);
        assert!(config.majority_correct());
        let mut sim = Simulator::new(config, greeters(4));
        sim.start();
        sim.run_to_quiescence();
        assert!(sim.is_crashed(3));
        assert_eq!(sim.node(3).greetings, 0);
        for i in 0..3 {
            assert_eq!(sim.node(i).greetings, 4);
        }
    }

    #[test]
    fn latency_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(NetConfig::new(3, seed), greeters(3));
            sim.start();
            sim.run_to_quiescence();
            sim.now()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn majority_check_detects_too_many_crashes() {
        let config = NetConfig::new(4, 3).crash(0, 0).crash(1, 0);
        assert!(!config.majority_correct());
        let config = NetConfig::new(5, 3).crash(0, 0).crash(1, 0);
        assert!(config.majority_correct());
    }

    #[test]
    fn drive_injects_external_steps() {
        let mut sim = Simulator::new(NetConfig::new(2, 5), greeters(2));
        sim.drive(0, |node, _now, outbox| {
            outbox.send(node.id, 1, "direct");
        });
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).greetings, 1);
    }

    #[test]
    fn event_budget_prevents_runaway_protocols() {
        /// A protocol that ping-pongs forever.
        #[derive(Debug)]
        struct Pinger {
            id: usize,
        }
        impl Node for Pinger {
            type Message = ();
            fn on_start(&mut self, _now: Time, outbox: &mut Outbox<()>) {
                outbox.send(self.id, 1 - self.id, ());
            }
            fn on_message(&mut self, _now: Time, from: usize, (): (), outbox: &mut Outbox<()>) {
                outbox.send(self.id, from, ());
            }
            fn on_timer(&mut self, _now: Time, _outbox: &mut Outbox<()>) {}
        }
        let mut config = NetConfig::new(2, 1);
        config.max_events = 500;
        let mut sim = Simulator::new(config, vec![Pinger { id: 0 }, Pinger { id: 1 }]);
        sim.start();
        sim.run_to_quiescence();
        assert_eq!(sim.events_processed(), 500);
    }
}
