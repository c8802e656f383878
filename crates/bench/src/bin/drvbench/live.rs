//! The loopback run: the real pipeline driven from outside.  A fresh
//! durable server in this process, one `MonitorClient` per generator
//! thread over 127.0.0.1, every verdict timestamped as it arrives and —
//! after the clock has stopped — checked against `sequential_reference`.

use crate::sys;
use crate::trace::SpanLog;
use crate::workloads::{self, Input};
use drv_core::Verdict;
use drv_engine::{EngineStats, VerdictEvent};
use drv_lang::{EventBatch, ObjectId, Symbol};
use drv_net::{ClientConfig, MonitorClient, MonitorServer, ServerStats};
use drv_store::{Store, StoreStats};
use drv_telemetry::{Snapshot, Telemetry};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A connection that delivers nothing for this long has failed; its
/// missing verdicts count as failed events instead of hanging the run.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// One stretch of every connection's stream, sent the same way.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Stream positions, per connection.
    pub positions: Range<usize>,
    /// Events per frame.
    pub batch: usize,
    /// Open loop: the gap between two frames of one connection, each frame
    /// timed from when it was due.  `None`: closed loop, the next frame as
    /// soon as credit allows, timed from the `send_batch` call.
    pub interval: Option<Duration>,
}

/// What one segment cost, measured around all connections.
#[derive(Debug, Clone, Copy)]
pub struct SegmentTiming {
    /// When the segment began, ns from the deployment's (and its span
    /// logs') origin.
    pub start_ns: u64,
    /// First send → last verdict received on the last connection.
    pub wall_s: f64,
    /// Process CPU (all threads: generators, reader, reactor, router,
    /// engine worker) over the same window.
    pub cpu_s: f64,
    pub events: usize,
    /// Last verdict received − last frame sent, the longest over the
    /// connections: the drain tail.
    pub tail_ms: f64,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Wall times of `count` calls of `call`, in units of `1 / per_second`
/// seconds; a call that returns `None` (it failed) is left out.
fn time_calls<T>(count: usize, per_second: f64, mut call: impl FnMut() -> Option<T>) -> Vec<f64> {
    (0..count)
        .filter_map(|_| {
            let start = Instant::now();
            call().map(|_| start.elapsed().as_secs_f64() * per_second)
        })
        .collect()
}

struct Conn {
    index: usize,
    client: MonitorClient,
    /// Per stream position: when the event was handed over, ns from origin.
    handed_ns: Vec<u64>,
    /// Verdicts as drained, with the time of the drain.
    arrivals: Vec<(u64, Vec<VerdictEvent>)>,
    received: usize,
    /// How late each paced frame left, ns.
    late_ns: Vec<u64>,
    error: Option<String>,
    log: SpanLog,
}

impl Conn {
    fn collect(&mut self, origin: Instant, verdicts: Vec<VerdictEvent>) {
        if !verdicts.is_empty() {
            self.received += verdicts.len();
            self.arrivals.push((ns_since(origin), verdicts));
        }
    }

    /// Sends `segment` of `stream`, then waits for every verdict still
    /// owed.  Returns the drain tail: last verdict received − last frame
    /// sent, ms.
    fn drive(&mut self, stream: &[(ObjectId, Symbol)], segment: &Segment, origin: Instant) -> f64 {
        let arena = self.client.interner();
        let mut batch = EventBatch::with_capacity(segment.batch);
        let start_ns = ns_since(origin);
        let first_frame = (segment.positions.start / segment.batch) as u64;
        for (frame, chunk) in stream[segment.positions.clone()]
            .chunks(segment.batch)
            .enumerate()
        {
            let frame_id = first_frame + frame as u64;
            let handed = match segment.interval {
                None => ns_since(origin),
                Some(interval) => {
                    // Block until the frame is due — in `wait_verdicts`, so
                    // waiting costs no CPU the server threads need and
                    // verdicts are stamped while we wait.  Never spin.
                    let due = start_ns + interval.as_nanos() as u64 * frame as u64;
                    loop {
                        let now = ns_since(origin);
                        if now >= due {
                            self.late_ns.push(now - due);
                            break;
                        }
                        let client = &self.client;
                        let verdicts = self.log.time("wait_verdicts", frame_id, None, || {
                            client.wait_verdicts(Duration::from_nanos(due - now))
                        });
                        self.collect(origin, verdicts);
                    }
                    due
                }
            };
            self.handed_ns
                .extend(std::iter::repeat_n(handed, chunk.len()));
            batch.clear();
            for (object, symbol) in chunk {
                batch.push_symbol(*object, symbol, &arena);
            }
            let client = &mut self.client;
            if let Err(err) = self
                .log
                .time("send_batch", frame_id, None, || client.send_batch(&batch))
            {
                self.error = Some(format!("send_batch: {err}"));
                self.handed_ns.truncate(self.handed_ns.len() - chunk.len());
                break;
            }
            let verdicts = self.client.poll_verdicts();
            self.collect(origin, verdicts);
        }
        let last_send_ns = ns_since(origin);
        let mut last_progress = Instant::now();
        while self.received < self.handed_ns.len() {
            let client = &self.client;
            let verdicts = self.log.time("wait_verdicts", u64::MAX, None, || {
                client.wait_verdicts(Duration::from_millis(100))
            });
            if verdicts.is_empty() {
                if self.client.is_closed() || last_progress.elapsed() > STALL_LIMIT {
                    self.error
                        .get_or_insert_with(|| "verdicts stopped arriving".to_string());
                    break;
                }
            } else {
                last_progress = Instant::now();
                self.collect(origin, verdicts);
            }
        }
        let last_arrival_ns = self.arrivals.last().map_or(0, |(stamp_ns, _)| *stamp_ns);
        last_arrival_ns.saturating_sub(last_send_ns) as f64 / 1e6
    }
}

/// A running deployment with its connections up and opening credit held.
pub struct Live {
    server: MonitorServer,
    store: Arc<Store>,
    journal: PathBuf,
    conns: Vec<Conn>,
    origin: Instant,
}

impl Live {
    /// `journal` must not exist; it is removed again by [`Live::finish`].
    pub fn start(journal: PathBuf, telemetry: Arc<Telemetry>, traced: bool) -> Live {
        let origin = Instant::now();
        let (server, store) = workloads::serve(&journal, telemetry);
        let addr = server.local_addr();
        let conns = (0..workloads::CONNECTIONS)
            .map(|index| {
                let mut log = SpanLog::new(format!("conn-{index}"), origin, traced);
                let client = log.time("connect", 0, None, || {
                    // The handshake deadline makes connect return only once
                    // the opening credit grant has arrived.
                    MonitorClient::connect_with(
                        addr,
                        ClientConfig::new().with_handshake_timeout(Duration::from_secs(10)),
                    )
                    .expect("loopback connect and opening credit")
                });
                Conn {
                    index,
                    client,
                    handed_ns: Vec::new(),
                    arrivals: Vec::new(),
                    received: 0,
                    late_ns: Vec::new(),
                    error: None,
                    log,
                }
            })
            .collect();
        Live {
            server,
            store,
            journal,
            conns,
            origin,
        }
    }

    /// Runs one segment on every connection, one generator thread each.
    pub fn run(&mut self, input: &Input, segment: &Segment) -> SegmentTiming {
        let origin = self.origin;
        let cpu_before = sys::process_cpu_s();
        let start = Instant::now();
        let tail_ms = std::thread::scope(|scope| {
            let drivers: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let stream = &input.streams[conn.index];
                    scope.spawn(move || conn.drive(stream, segment, origin))
                })
                .collect();
            drivers
                .into_iter()
                .map(|driver| driver.join().expect("generator thread"))
                .fold(0.0, f64::max)
        });
        SegmentTiming {
            start_ns: start.duration_since(origin).as_nanos() as u64,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: sys::process_cpu_s() - cpu_before,
            events: segment.positions.len() * self.conns.len(),
            tail_ms,
        }
    }

    /// `MonitorClient::stats()` round trips on the idle server: the bare
    /// request → reactor → reply path with no engine work, µs each.
    pub fn stats_round_trips(&mut self, count: usize) -> Vec<f64> {
        let client = &mut self.conns[0].client;
        time_calls(count, 1e6, || client.stats(Duration::from_secs(5)).ok())
    }

    /// `Store::sync()` wall times on the loaded journal, ms each.
    pub fn store_syncs(&self, count: usize) -> Vec<f64> {
        time_calls(count, 1e3, || self.store.sync().ok())
    }

    /// `Telemetry::snapshot()` wall times on the loaded registry, µs each.
    pub fn snapshot_times(&self, count: usize) -> Vec<f64> {
        time_calls(count, 1e6, || {
            Some(std::hint::black_box(self.server.telemetry().snapshot()))
        })
    }

    /// Says goodbye, shuts the server down, removes the journal and checks
    /// every verdict received against the reference.
    pub fn finish(self, input: &Input) -> Finished {
        let server = self.server.stats();
        let snapshot = self.server.telemetry().snapshot();
        let mut tally = Tally::default();
        for conn in self.conns {
            conn.goodbye_and_check(input, &mut tally);
        }
        let engine = self
            .server
            .shutdown()
            .expect("no engine worker or server thread panicked")
            .stats;
        let store = self.store.stats();
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |meta| meta.len());
        drop(self.store);
        let _ = std::fs::remove_file(&self.journal);
        Finished {
            tally,
            server,
            snapshot,
            engine,
            store,
            journal_bytes,
        }
    }
}

impl Conn {
    fn goodbye_and_check(self, input: &Input, tally: &mut Tally) {
        let Conn {
            index,
            client,
            handed_ns,
            arrivals,
            late_ns,
            mut error,
            mut log,
            ..
        } = self;
        // A NACKed batch's events also go missing below; the NACK itself is
        // counted so that a refusal can never pass as a success.
        tally.failed += client.take_nacks().len();
        if let Err(err) = log.time("shutdown", 0, None, || client.shutdown()) {
            error.get_or_insert_with(|| format!("shutdown: {err}"));
        }

        let mut next_seq = vec![0u64; input.shape.objects];
        let mut correct = 0usize;
        let mut unexpected = 0usize;
        for (stamp_ns, events) in &arrivals {
            for event in events {
                match input
                    .accept(index, &mut next_seq, event)
                    .filter(|&position| position < handed_ns.len())
                {
                    Some(position) => {
                        correct += 1;
                        match event.verdict {
                            Verdict::Yes => tally.verdicts.0 += 1,
                            Verdict::No => tally.verdicts.1 += 1,
                            Verdict::Maybe(_) => {}
                        }
                        let latency_ms = stamp_ns.saturating_sub(handed_ns[position]) as f64 / 1e6;
                        tally.arrivals.push((position, latency_ms));
                    }
                    None => unexpected += 1,
                }
            }
        }
        // Missing, duplicated, out of order or different from the
        // reference: each such event is one failure.
        tally.attempted += handed_ns.len();
        tally.failed += handed_ns.len() - correct + unexpected;
        tally
            .late_us
            .extend(late_ns.iter().map(|&ns| ns as f64 / 1e3));
        tally
            .errors
            .extend(error.map(|e| format!("conn {index}: {e}")));
        tally.logs.push(log);
    }
}

/// What the generator threads saw, checked against the reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// `(yes, no)` verdicts received and correct.
    pub verdicts: (usize, usize),
    /// `(stream position, latency ms)` of every correct verdict.
    pub arrivals: Vec<(usize, f64)>,
    pub late_us: Vec<f64>,
    pub errors: Vec<String>,
    pub logs: Vec<SpanLog>,
}

impl Tally {
    /// Latencies (ms) of the events at `positions`, unsorted.
    pub fn latencies_ms(&self, positions: &Range<usize>) -> Vec<f64> {
        self.arrivals
            .iter()
            .filter(|(position, _)| positions.contains(position))
            .map(|&(_, latency)| latency)
            .collect()
    }
}

/// A finished loopback run: verified, with everything the layers counted.
pub struct Finished {
    pub tally: Tally,
    pub server: ServerStats,
    pub snapshot: Snapshot,
    pub engine: EngineStats,
    pub store: StoreStats,
    pub journal_bytes: u64,
}
