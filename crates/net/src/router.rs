//! `RouterCore`: the verdict router as a state machine — when the
//! coalescing window ends, which connection each verdict goes to, what fits
//! its outbound queue, and when a consumer that stopped reading is cut.  It
//! reads no clock and never calls the engine: the router shell in
//! [`server`](crate::server) waits on the subscription, polls it, reads the
//! engine's backlog, yields, and hands every instant in as `now`.  So the
//! window's three exits and the stall clock are tested with scripted time.

use crate::conn::{Env, Outbound, Push};
use crate::wire::{encode_credit, encode_verdict_batch};
use drv_lang::{ObjectId, Verdict, VerdictBatch, VerdictEvent};
use drv_lang::hash::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a drain waits for more verdicts while the engine has work.
const WINDOW: Duration = Duration::from_micros(300);

/// What ended a drain's coalescing window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// The engine's backlog read zero before an empty poll.
    Quiescent,
    /// A frame's worth of verdicts (`verdict_chunk`) is in hand.
    Chunk,
    /// The bound ran out with work still in the engine.
    Deadline,
}

/// One delivery pass's outcome.
pub(crate) struct Tick {
    /// Something was pushed.
    pub(crate) progressed: bool,
    /// Undelivered verdicts remain.
    pub(crate) backlog: bool,
}

/// Per-connection router state: verdicts awaiting outbound space and
/// credit grants awaiting the same.  It exists only while it holds
/// something: an entry with nothing pending, no credit owed and no stall
/// clock running is dropped.
struct RouterEntry {
    out: Arc<Outbound>,
    /// Verdicts routed here but not yet pushed (bounded: new verdicts
    /// require credit, and credit only returns as these deliver).
    pending: VecDeque<VerdictEvent>,
    /// Events whose verdicts were delivered but whose credit grant frame
    /// has not fit the outbound queue yet.
    owed: u64,
    /// Started by the first refused push of a pass, restarted by a pass
    /// that makes progress; past the grace period the consumer is declared
    /// stalled and disconnected.
    stalled_since: Option<Instant>,
}

/// The router; see the module docs and the server's for its rules.
pub(crate) struct RouterCore {
    env: Arc<Env>,
    entries: HashMap<u64, RouterEntry>,
    /// The open window's bound.
    window_ends: Option<Instant>,
    /// Reused per-frame staging buffer for the by-object grouping sort.
    scratch: Vec<VerdictEvent>,
    /// Connections whose outbound queue the last pass made non-empty, or
    /// that it cut as stalled: the shell wakes the reactor to flush (or
    /// retire) them.
    pub(crate) touched: Vec<u64>,
}

impl RouterCore {
    pub(crate) fn new(env: Arc<Env>) -> RouterCore {
        RouterCore {
            env,
            entries: HashMap::default(),
            window_ends: None,
            scratch: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// A drain brought `held` verdicts at `now`: a frame's worth needs no
    /// window (`Some(Chunk)`); less opens one (`None`), and the shell polls
    /// again through [`RouterCore::poll_window`].
    pub(crate) fn open_window(&mut self, held: usize, now: Instant) -> Option<Exit> {
        self.window_ends = Some(now + WINDOW);
        (held >= self.env.config.verdict_chunk).then_some(Exit::Chunk)
    }

    /// One poll inside the window: `held` verdicts in hand, `quiet` when
    /// the poll brought nothing and the engine's backlog read zero before
    /// it.  The first exit that holds ends the window.
    pub(crate) fn poll_window(&mut self, held: usize, quiet: bool, now: Instant) -> Option<Exit> {
        if quiet {
            Some(Exit::Quiescent)
        } else if held >= self.env.config.verdict_chunk {
            Some(Exit::Chunk)
        } else if self.window_ends.is_some_and(|end| now >= end) {
            Some(Exit::Deadline)
        } else {
            None
        }
    }

    /// A drain the window closed by `exit`: counts the exit and buckets
    /// the verdicts by owning connection.  Runs keep a connection's
    /// consecutive verdicts together, so the owners table is consulted once
    /// per run, not once per verdict.
    pub(crate) fn on_verdicts(
        &mut self,
        batch: &VerdictBatch<Verdict>,
        owners: &HashMap<ObjectId, Arc<Outbound>>,
        exit: Exit,
    ) {
        let m = &self.env.m;
        match exit {
            Exit::Quiescent => m.router_flush_quiescent.inc(),
            Exit::Chunk => m.router_flush_chunk.inc(),
            Exit::Deadline => m.router_flush_deadline.inc(),
        }
        for (object, range) in batch.runs() {
            let Some(out) = owners.get(&object) else {
                m.dropped_verdicts.add(range.len() as u64);
                continue;
            };
            let entry = self.entries.entry(out.id).or_insert_with(|| RouterEntry {
                out: Arc::clone(out),
                pending: VecDeque::new(),
                owed: 0,
                stalled_since: None,
            });
            for index in range {
                let (object, seq, verdict) = batch.get(index);
                entry.pending.push_back(VerdictEvent { object, seq, verdict });
            }
        }
    }

    /// When the shell must run a pass although nothing arrives: the
    /// earliest stall-clock expiry, `None` while no consumer is stalled.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let earliest = self.entries.values().filter_map(|entry| entry.stalled_since).min();
        earliest.map(|since| since + self.env.config.stall_grace)
    }

    /// One delivery pass at `now`: pushes pending verdicts and owed credit
    /// into each connection's outbound queue, non-blocking, and runs the
    /// stall clock.
    pub(crate) fn on_tick(&mut self, now: Instant) -> Tick {
        let env = &*self.env;
        let (chunk, grace) = (env.config.verdict_chunk, env.config.stall_grace);
        self.touched.clear();
        let mut any_progress = false;
        for (&id, entry) in &mut self.entries {
            let out = &entry.out;
            let (mut progressed, mut full, mut closed) = (false, false, false);
            // Skip the reactor wake when every push this pass landed on an
            // already non-empty queue: a prior wake (or registered write
            // interest) is still in flight for it, and the reactor drains
            // the whole queue under one lock — the frame cannot strand.
            let mut needs_wake = false;
            while !entry.pending.is_empty() {
                // Encode off the deque's front slice.  A wrapped ring just
                // yields two (still chunk-capped) frames for one pass;
                // grouping is not part of the contract.
                let (front, back) = entry.pending.as_slices();
                let piece = if front.is_empty() { back } else { front };
                let take = piece.len().min(chunk);
                let route_started = env.tel.timer();
                // Per-object seq order is the delivery contract; the
                // interleaving *across* objects is not.  A stable by-object
                // sort (seqs arrive ascending, stability keeps them so)
                // turns the round-robin row soup into maximal runs the run
                // table compresses ~4x.
                self.scratch.clear();
                self.scratch.extend_from_slice(&piece[..take]);
                self.scratch.sort_by_key(|event| event.object.0);
                match out.push(encode_verdict_batch(&self.scratch), true) {
                    Push::Queued { was_empty } => {
                        env.tel.observe(route_started, &env.m.verdict_route_ns);
                        entry.pending.drain(..take);
                        entry.owed += take as u64;
                        progressed = true;
                        needs_wake |= was_empty;
                        env.m.verdict_frames.inc();
                    }
                    Push::Full => full = true,
                    Push::Closed => closed = true,
                }
                if full || closed {
                    break;
                }
            }
            if entry.owed > 0 && !closed {
                // Credit returns with verdicts: the window bounds a
                // connection's events in flight *end to end*.  Capped at
                // what the connection actually has outstanding, so verdicts
                // of events another connection submitted for an object this
                // one owns never inflate its credit past the window.
                let grant = entry.owed.min(out.outstanding());
                if grant == 0 {
                    entry.owed = 0;
                } else {
                    match out.push(encode_credit(grant, env.config.window), true) {
                        Push::Queued { was_empty } => {
                            out.grant(grant);
                            env.m.credit_outstanding.sub(grant as i64);
                            entry.owed -= grant;
                            progressed = true;
                            needs_wake |= was_empty;
                        }
                        Push::Full => full = true,
                        Push::Closed => closed = true,
                    }
                }
            }
            if needs_wake {
                self.touched.push(id);
            } else if progressed {
                env.m.reactor_wake_skips.inc();
            }
            if full && !closed {
                // A refused push starts the stall clock; a pass that also
                // made progress restarts it, so a consumer that stops
                // reading after a partly accepted pass is still timed.
                let since = match entry.stalled_since {
                    Some(since) if !progressed => since,
                    _ => now,
                };
                entry.stalled_since = Some(since);
                if now.duration_since(since) >= grace {
                    // The queue stayed full past the grace period: close it
                    // so the rest of the fleet keeps its verdict flow — a
                    // lost verdict or Credit frame on a *surviving*
                    // connection is never acceptable, so the only lossy
                    // exit is a dead connection.
                    env.m.stalled_disconnects.inc();
                    out.close();
                    closed = true;
                    self.touched.push(id);
                }
            } else {
                // Nothing was refused: whatever is left (credit beyond the
                // connection's own outstanding events) waits for no space.
                entry.stalled_since = None;
            }
            if closed {
                env.m.dropped_verdicts.add(entry.pending.len() as u64);
                entry.pending.clear();
                entry.owed = 0;
                entry.stalled_since = None;
            }
            any_progress |= progressed;
        }
        self.entries.retain(|_, entry| {
            !entry.pending.is_empty() || entry.owed > 0 || entry.stalled_since.is_some()
        });
        let backlog = self.entries.values().any(|entry| !entry.pending.is_empty());
        Tick { progressed: any_progress, backlog }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use drv_lang::SharedInterner;
    use drv_telemetry::Telemetry;

    fn env(config: ServerConfig) -> Arc<Env> {
        Arc::new(Env::new(config, SharedInterner::new(), Telemetry::passive()))
    }

    fn verdicts(object: u64, seqs: std::ops::Range<u64>) -> VerdictBatch<Verdict> {
        let mut batch = VerdictBatch::new();
        for seq in seqs {
            batch.push(ObjectId(object), seq, Verdict::Yes);
        }
        batch
    }

    /// One scripted drain: `first` verdicts at `start`, then one poll every
    /// `step`, each bringing `per_poll` more with the engine's backlog at
    /// `backlog`.  Returns the exit and the verdicts in hand.
    fn drain(
        core: &mut RouterCore,
        start: Instant,
        first: usize,
        per_poll: usize,
        backlog: usize,
        step: Duration,
    ) -> (Exit, usize) {
        let mut held = first;
        let mut now = start;
        let mut exit = core.open_window(held, now);
        loop {
            if let Some(exit) = exit {
                core.on_verdicts(&VerdictBatch::new(), &HashMap::default(), exit);
                return (exit, held);
            }
            now += step;
            held += per_poll;
            exit = core.poll_window(held, per_poll == 0 && backlog == 0, now);
        }
    }

    #[test]
    fn drains_split_by_exit_for_paced_and_saturating_input() {
        let env = env(ServerConfig::new());
        let mut core = RouterCore::new(Arc::clone(&env));
        let t0 = Instant::now();
        let us = Duration::from_micros;
        // One 1-event frame in flight: the first poll finds the engine empty.
        for _ in 0..200 {
            assert_eq!(drain(&mut core, t0, 1, 0, 0, us(5)), (Exit::Quiescent, 1));
        }
        // Saturating 256-event frames: the workers push 64 verdicts per poll
        // and the window closes on a frame's worth, before its bound.
        for _ in 0..50 {
            assert_eq!(drain(&mut core, t0, 64, 64, 192, us(40)), (Exit::Chunk, 512));
        }
        // A first drain of a frame's worth opens no window.
        assert_eq!(drain(&mut core, t0, 600, 0, 0, us(5)), (Exit::Chunk, 600));
        // A trickle, or one long search: the bound ends it, exactly at 300 µs.
        for _ in 0..10 {
            assert_eq!(drain(&mut core, t0, 1, 1, 1, us(50)), (Exit::Deadline, 7));
        }
        assert_eq!(core.open_window(1, t0), None);
        assert_eq!(core.poll_window(2, false, t0 + us(299)), None);
        assert_eq!(core.poll_window(2, false, t0 + us(300)), Some(Exit::Deadline));
        let m = &env.m;
        let split = (
            m.router_flush_quiescent.get(),
            m.router_flush_chunk.get(),
            m.router_flush_deadline.get(),
        );
        assert_eq!(split, (200, 51, 10));
    }

    #[test]
    fn the_router_keeps_no_entry_for_a_connection_with_nothing_pending() {
        const CYCLES: u64 = 1000;
        let env = env(ServerConfig::new());
        let mut core = RouterCore::new(Arc::clone(&env));
        let now = Instant::now();
        let mut owners = HashMap::default();
        for id in 0..CYCLES {
            let out = Arc::new(Outbound::new(id, &env));
            out.consume(2);
            owners.insert(ObjectId(id), Arc::clone(&out));
            core.on_verdicts(&verdicts(id, 0..2), &owners, Exit::Quiescent);
            if id % 2 == 1 {
                out.close(); // gone before its verdicts were delivered
            }
            let tick = core.on_tick(now);
            assert!(!tick.backlog);
            assert_eq!(tick.progressed, id % 2 == 0);
            assert!(core.entries.is_empty(), "cycle {id}: {} entries", core.entries.len());
            owners.remove(&ObjectId(id));
            out.close();
        }
        assert_eq!(env.m.dropped_verdicts.get(), CYCLES);
        assert_eq!(env.m.verdict_frames.get(), CYCLES / 2);
        assert_eq!(core.next_deadline(), None);
    }

    #[test]
    fn a_full_queue_is_cut_after_the_grace_and_progress_restarts_the_clock() {
        let config = ServerConfig::new().with_outbound(2).with_verdict_chunk(1);
        let grace = config.stall_grace;
        let env = env(config);
        let mut core = RouterCore::new(Arc::clone(&env));
        let out = Arc::new(Outbound::new(7, &env));
        out.consume(5);
        let owners: HashMap<_, _> = [(ObjectId(1), Arc::clone(&out))].into_iter().collect();
        core.on_verdicts(&verdicts(1, 0..5), &owners, Exit::Quiescent);
        let ms = Duration::from_millis;
        let t0 = Instant::now();
        // A partly accepted pass starts the clock: two frames fit, the
        // third is refused.
        assert!(core.on_tick(t0).progressed);
        assert_eq!(core.touched, [7]);
        assert_eq!(core.next_deadline(), Some(t0 + grace));
        assert!(!core.on_tick(t0 + grace - ms(1)).progressed);
        assert!(core.touched.is_empty());
        // The consumer reads once: the next pass makes progress and restarts
        // the clock, so the old deadline passes without a cut.
        let mut socket = Vec::new();
        assert!(out.drain_into(&mut socket), "the router waits for space");
        let t1 = t0 + grace - ms(1);
        assert!(core.on_tick(t1).progressed);
        assert_eq!(core.next_deadline(), Some(t1 + grace));
        assert!(!core.on_tick(t0 + grace + ms(1)).progressed);
        assert_eq!(env.m.stalled_disconnects.get(), 0);
        // It never reads again: cut at the grace, the rest dropped.
        assert!(!core.on_tick(t1 + grace).progressed);
        assert_eq!(core.touched, [7], "the reactor is woken to retire it");
        assert!(matches!(out.push(Vec::new(), false), Push::Closed));
        assert_eq!(env.m.stalled_disconnects.get(), 1);
        assert_eq!(env.m.dropped_verdicts.get(), 1);
        assert!(core.entries.is_empty());
        assert_eq!(core.next_deadline(), None);
    }
}
