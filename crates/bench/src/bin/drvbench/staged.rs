//! The layer probes of the traced run: the workload's own batches replayed
//! single-threaded through one public function per stage (*staged*), the
//! engine alone in this process, and the checker alone per object.  The
//! stages' work plus the checker's, set against the CPU the live run burns,
//! leaves the unattributed remainder.

use crate::gen;
use crate::trace::SpanLog;
use crate::workloads::{self, Input, CONNECTIONS, WINDOW};
use drv_consistency::CheckerStats;
use drv_core::Verdict;
use drv_engine::{JournalSink, MonitoringEngine, VerdictEvent};
use drv_lang::{EventBatch, SharedInterner, Symbol, VerdictBatch};
use drv_net::wire::{decode_frame, encode_verdict_batch, Frame, FrameEncoder};
use drv_net::FrameAssembler;
use drv_store::Store;
use std::path::Path;
use std::time::{Duration, Instant};

/// Bytes per `FrameAssembler::feed` call — a socket read's worth.
const FEED_SLICE: usize = 16 * 1024;

/// One stage of the staged replay: its span name, and the per-layer metric
/// its time per event is reported as.
pub struct Stage {
    pub span: &'static str,
    pub ns_per_event: Option<&'static str>,
}

/// The stages of one batch, in pipeline order; each is a child span of the
/// batch's root span.  (`engine.drain` is reported per batch, as
/// `engine.drain_us_p50/p95`: it is a wait, not work per event.)
pub const STAGES: [Stage; 9] = [
    Stage {
        span: "lang.intern",
        ns_per_event: Some("lang.intern_ns_per_event"),
    },
    Stage {
        span: "net.wire.encode_batch",
        ns_per_event: Some("net.wire.encode_batch_ns_per_event"),
    },
    Stage {
        span: "net.reactor.assemble",
        ns_per_event: Some("net.reactor.assemble_ns_per_event"),
    },
    Stage {
        span: "net.wire.decode_batch",
        ns_per_event: Some("net.wire.decode_batch_ns_per_event"),
    },
    Stage {
        span: "store.append",
        ns_per_event: Some("store.append_ns_per_event"),
    },
    Stage {
        span: "engine.submit",
        ns_per_event: Some("engine.submit_ns_per_event"),
    },
    Stage {
        span: DRAIN,
        ns_per_event: None,
    },
    Stage {
        span: "net.wire.encode_verdicts",
        ns_per_event: Some("net.wire.encode_verdicts_ns_per_event"),
    },
    Stage {
        span: "net.wire.decode_verdicts",
        ns_per_event: Some("net.wire.decode_verdicts_ns_per_event"),
    },
];
pub const DRAIN: &str = "engine.drain";

pub struct Staged {
    pub log: SpanLog,
    pub events: usize,
    pub batch_frame_bytes: u64,
    pub verdict_frame_bytes: u64,
    /// Verdicts that came out of the staged pipeline different from the
    /// reference (or not at all).
    pub failed: usize,
}

/// One connection's client-side state, as `MonitorClient` and the server's
/// per-connection reassembly buffer hold it.
struct ClientSide {
    arena: SharedInterner,
    encoder: FrameEncoder,
    assembler: FrameAssembler,
    next_seq: Vec<u64>,
}

/// Replays `input` in frames of `batch` events, connections interleaved
/// frame by frame, until the stream or `budget` ends.
pub fn replay(
    input: &Input,
    batch: usize,
    journal: &Path,
    origin: Instant,
    budget: Duration,
) -> Staged {
    let mut log = SpanLog::new("staged", origin, true);
    let engine = MonitoringEngine::new(
        workloads::engine_config(workloads::WORKERS),
        workloads::factory(),
    );
    let subscription = engine.subscribe(WINDOW as usize * CONNECTIONS);
    let _ = std::fs::remove_file(journal);
    let store = Store::open(journal, workloads::store_config()).expect("staged journal opens");
    let mut clients: Vec<ClientSide> = (0..input.streams.len())
        .map(|_| ClientSide {
            arena: SharedInterner::new(),
            encoder: FrameEncoder::new(),
            assembler: FrameAssembler::new(),
            next_seq: vec![0; input.shape.objects],
        })
        .collect();
    let (mut replayed, mut failed, mut batch_frame_bytes, mut verdict_frame_bytes) =
        (0usize, 0usize, 0u64, 0u64);
    let mut events = EventBatch::with_capacity(batch);
    let mut verdicts: VerdictBatch<Verdict> = VerdictBatch::new();
    let mut scratch: Vec<VerdictEvent> = Vec::new();
    let started = Instant::now();
    for (batch_id, (conn, chunk)) in input.frames(input.all(), batch).enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let batch_id = batch_id as u64;
        let side = &mut clients[conn];
        let root = log.open("batch", batch_id);
        log.time(STAGES[0].span, batch_id, root, || {
            events.clear();
            for (object, symbol) in chunk {
                events.push_symbol(*object, symbol, &side.arena);
            }
        });
        let wire = log.time(STAGES[1].span, batch_id, root, || {
            side.encoder.encode_batch(batch_id, &events, &side.arena)
        });
        batch_frame_bytes += wire.len() as u64;
        let assembler = &mut side.assembler;
        let raw = log.time(STAGES[2].span, batch_id, root, || {
            for slice in wire.chunks(FEED_SLICE) {
                assembler.feed(slice);
            }
            assembler.next_frame()
        });
        let raw = raw
            .expect("a sealed frame has a valid header")
            .expect("the whole frame was fed");
        let decoded = log.time(STAGES[3].span, batch_id, root, || {
            decode_frame(raw, engine.interner())
        });
        let Ok((Frame::Batch(decoded), _)) = decoded else {
            panic!("an encoded batch frame decodes to a batch");
        };
        log.time(STAGES[4].span, batch_id, root, || {
            store.append_batch(&decoded.events, engine.interner())
        });
        log.time(STAGES[5].span, batch_id, root, || {
            engine.submit_batch(&decoded.events)
        });
        log.time(STAGES[6].span, batch_id, root, || {
            verdicts.clear();
            let deadline = Instant::now() + Duration::from_secs(20);
            while verdicts.len() < chunk.len() && Instant::now() < deadline {
                subscription.wait_batch(Duration::from_millis(100), &mut verdicts);
            }
        });
        let verdict_frame = log.time(STAGES[7].span, batch_id, root, || {
            // What the router does per frame: group by object (stable, so
            // per-object seq order survives), then encode.
            scratch.clear();
            scratch.extend(verdicts.iter().map(|(object, seq, verdict)| VerdictEvent {
                object,
                seq,
                verdict,
            }));
            scratch.sort_by_key(|event| event.object.0);
            encode_verdict_batch(&scratch)
        });
        verdict_frame_bytes += verdict_frame.len() as u64;
        let received = log.time(STAGES[8].span, batch_id, root, || {
            decode_frame(&verdict_frame, &side.arena)
        });
        log.close(root);

        let Ok((Frame::VerdictBatch(received), _)) = received else {
            panic!("an encoded verdict batch decodes to a verdict batch");
        };
        let correct = received
            .iter()
            .filter(|event| input.accept(conn, &mut side.next_seq, event).is_some())
            .count();
        failed += chunk.len().saturating_sub(correct) + (received.len() - correct);
        replayed += chunk.len();
    }
    drop(subscription);
    engine.finish().expect("no engine worker panicked");
    drop(store);
    let _ = std::fs::remove_file(journal);
    Staged {
        log,
        events: replayed,
        batch_frame_bytes,
        verdict_frame_bytes,
        failed,
    }
}

/// What serving a stretch of the streams through an engine in this process
/// took: no net; a journal only if the engine has one attached.
pub struct Served {
    /// First submit → last verdict received.
    pub wall_s: f64,
    pub events: usize,
    /// Verdict received − `submit_batch` call of its frame, ms, for every
    /// correct verdict.
    pub latencies_ms: Vec<f64>,
    /// Verdicts missing, duplicated, out of `seq` order or different from
    /// the reference.
    pub failed: usize,
}

/// Submits the stream positions `from..` of every connection in frames of
/// `batch` events (blocking on the engine's pending bound, connections
/// interleaved frame by frame) while a consumer thread drains a
/// subscription and stamps what arrives; the verdicts are checked against
/// the reference after the clock has stopped.
pub fn serve_in_process(
    engine: &MonitoringEngine,
    input: &Input,
    from: usize,
    batch: usize,
) -> Served {
    let positions = from..input.all().end;
    let events = positions.len() * input.streams.len();
    let subscription = engine.subscribe(WINDOW as usize * CONNECTIONS);
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let connections = input.streams.len();
    // Per frame, in submission order: round * connections + connection.
    let mut submitted_ns = Vec::with_capacity(positions.len().div_ceil(batch) * connections);
    // The consumer only stamps and copies — one reused drain buffer, one
    // preallocated log — so that it costs the engine as little as a router.
    let (stamps, delivered) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut drained: VerdictBatch<Verdict> = VerdictBatch::new();
            // `(arrival ns, verdicts delivered so far)` per drain.
            let mut stamps: Vec<(u64, usize)> = Vec::new();
            let mut delivered: Vec<VerdictEvent> = Vec::with_capacity(events);
            let mut last_progress = Instant::now();
            while delivered.len() < events && last_progress.elapsed() < Duration::from_secs(20) {
                drained.clear();
                if subscription.wait_batch(Duration::from_millis(100), &mut drained) > 0 {
                    last_progress = Instant::now();
                    delivered.extend(drained.iter().map(|(object, seq, verdict)| VerdictEvent {
                        object,
                        seq,
                        verdict,
                    }));
                    stamps.push((ns(), delivered.len()));
                } else if subscription.is_closed() {
                    break;
                }
            }
            (stamps, delivered)
        });
        for (_, frame) in input.frames(positions.clone(), batch) {
            submitted_ns.push(ns());
            engine.submit_stream(frame, batch);
        }
        consumer.join().expect("consumer thread")
    });
    let wall_s = stamps.last().map_or(0, |(stamp_ns, _)| *stamp_ns) as f64 / 1e9;

    let mut next_seq = vec![input.next_seq_at(from); connections];
    let mut latencies_ms = Vec::with_capacity(events);
    let mut unexpected = 0;
    let mut drains = stamps.iter();
    let (mut stamp_ns, mut upto) = (0, 0);
    for (index, event) in delivered.iter().enumerate() {
        while index >= upto {
            (stamp_ns, upto) = *drains.next().expect("every verdict has its drain's stamp");
        }
        let conn = (event.object.0 / gen::CONN_STRIDE) as usize;
        let position = next_seq
            .get_mut(conn)
            .and_then(|next_seq| input.accept(conn, next_seq, event))
            .filter(|position| positions.contains(position));
        match position {
            Some(position) => {
                let handed_ns = submitted_ns[(position - from) / batch * connections + conn];
                latencies_ms.push(stamp_ns.saturating_sub(handed_ns) as f64 / 1e6);
            }
            None => unexpected += 1,
        }
    }
    Served {
        wall_s,
        events,
        failed: events - latencies_ms.len() + unexpected,
        latencies_ms,
    }
}

/// The engine alone: the whole stream through [`serve_in_process`] on a
/// fresh engine — the checking and delivery work of the loopback deployment
/// minus net and store.  Returns events/s; panics if a verdict is lost or
/// the report differs from the reference.
pub fn in_process_events_per_s(input: &Input, batch: usize, workers: usize) -> f64 {
    let engine = MonitoringEngine::new(workloads::engine_config(workers), workloads::factory());
    let served = serve_in_process(&engine, input, 0, batch);
    let report = engine.finish().expect("no engine worker panicked");
    assert_eq!(
        served.failed + input.report_mismatches(&report),
        0,
        "in-process run ({workers} workers) differs from the reference"
    );
    served.events as f64 / served.wall_s
}

/// The checker alone, object by object.
pub struct CheckerProbe {
    pub feed_ns_per_event: f64,
    pub worst_object_ms: f64,
    pub stats: CheckerStats,
    pub unknown_outcomes: u64,
    pub checkpoint_bytes_per_op: f64,
    /// `checkpoint_bytes()` wall per object at end of history, µs.
    pub checkpoint_us: Vec<f64>,
}

/// Feeds every object's history to a fresh monitor of the deployment's
/// factory — an `IncrementalChecker` behind `ObjectMonitor::on_batch` — in
/// 64-symbol runs (what an engine worker does with a drained run).
pub fn checker_probe(input: &Input) -> CheckerProbe {
    let objects = input.shape.objects;
    let factory = workloads::factory();
    let mut probe = CheckerProbe {
        feed_ns_per_event: 0.0,
        worst_object_ms: 0.0,
        stats: CheckerStats::default(),
        unknown_outcomes: 0,
        checkpoint_bytes_per_op: 0.0,
        checkpoint_us: Vec::new(),
    };
    let mut feed_ns = 0u128;
    let mut checkpoint_bytes = 0usize;
    let mut verdicts = Vec::new();
    for (conn, stream) in input.streams.iter().enumerate() {
        for index in 0..objects {
            let symbols: Vec<Symbol> = stream
                .iter()
                .skip(index)
                .step_by(objects)
                .map(|(_, s)| s.clone())
                .collect();
            let mut monitor = factory.create(gen::object_id(conn, index));
            verdicts.clear();
            let start = Instant::now();
            for run in symbols.chunks(64) {
                monitor.on_batch(run, &mut verdicts);
            }
            let elapsed = start.elapsed();
            feed_ns += elapsed.as_nanos();
            probe.worst_object_ms = probe.worst_object_ms.max(elapsed.as_secs_f64() * 1e3);
            // A checker monitor says Maybe only when its search ran out of budget.
            probe.unknown_outcomes += verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Maybe(_)))
                .count() as u64;

            let start = Instant::now();
            let bytes = std::hint::black_box(monitor.checkpoint());
            probe
                .checkpoint_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            checkpoint_bytes += bytes.map_or(0, |bytes| bytes.len());

            let stats = monitor.checker_stats().unwrap_or_default();
            probe.stats.checks += stats.checks;
            probe.stats.fast_path += stats.fast_path;
            probe.stats.dfs_runs += stats.dfs_runs;
            probe.stats.dfs_nodes += stats.dfs_nodes;
            probe.stats.latched += stats.latched;
        }
    }
    probe.feed_ns_per_event = feed_ns as f64 / input.events() as f64;
    probe.checkpoint_bytes_per_op = checkpoint_bytes as f64 / (input.events() / 2) as f64;
    probe
}
