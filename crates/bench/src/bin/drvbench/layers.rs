//! The traced run: every per-layer metric of one workload.  Live reps side
//! by side (plain, traced, instrumented), then the staged replay, the
//! engine alone and the checker alone.

use crate::live::{Finished, Live, SegmentTiming};
use crate::metrics::{percentiles, Sample, Values, NOT_MEASURED};
use crate::recovery::{self, recover_rep, CrashedJournal};
use crate::run::{closed_rep, count_live, paced_run, Options, Scratch, Totals, PACED_RATES};
use crate::staged::{self, DRAIN, STAGES};
use crate::workloads::{self, Input, Loop, Workload, BATCH};
use drv_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three ways a live rep is run, rotated so that no side always runs
/// first.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// Passive telemetry, no spans: the baseline of both ratios.
    Plain,
    /// Spans around every client call.
    Traced,
    /// `Telemetry::new()`: timing histograms and the flight ring on.
    Instrumented,
}

const ROTATION: [Side; 3] = [Side::Plain, Side::Traced, Side::Instrumented];

impl Side {
    fn telemetry(self) -> Arc<Telemetry> {
        match self {
            Side::Instrumented => Telemetry::new(),
            Side::Plain | Side::Traced => Telemetry::passive(),
        }
    }
}

/// What the live reps leave for the comparisons that follow them.
struct LiveSides {
    /// Events/s of every rep, by `Side`.
    rates: [Vec<f64>; 3],
    /// CPU seconds per event of the last plain rep.
    cpu_s_per_event: f64,
}

impl LiveSides {
    fn new() -> LiveSides {
        LiveSides {
            rates: Default::default(),
            cpu_s_per_event: NOT_MEASURED,
        }
    }

    fn median(&self, side: Side) -> f64 {
        Sample::of(&self.rates[side as usize]).value
    }
}

fn ratio(numerator: f64, denominator: f64) -> Sample {
    if numerator.is_finite() && denominator.is_finite() && numerator >= 0.0 && denominator > 0.0 {
        Sample::single(numerator / denominator)
    } else {
        Sample::not_measured()
    }
}

pub fn measure(
    workload: &Workload,
    input: &Input,
    journal: Option<&CrashedJournal>,
    options: &Options,
    scratch: &Scratch,
    totals: &mut Totals,
) {
    let origin = Instant::now();
    let live = match workload.kind {
        Loop::Closed => closed_sides(input, options, scratch, totals),
        Loop::Paced => paced_sides(input, scratch, totals),
        Loop::Recover => recover_sides(
            journal.expect("recover builds its journal in set-up"),
            input,
            scratch,
            totals,
        ),
    };
    let plain = live.median(Side::Plain);
    let values = &mut totals.values;
    values.insert(
        "bench.rep_spread",
        Sample::single(Sample::of(&live.rates[Side::Plain as usize]).spread()),
    );
    values.insert(
        "bench.trace_overhead_ratio",
        ratio(live.median(Side::Traced), plain),
    );
    values.insert(
        "telemetry.instrumented_vs_passive_ratio",
        ratio(live.median(Side::Instrumented), plain),
    );

    // Staged: the same frames through one public function per stage.
    let batch = if workload.kind == Loop::Paced {
        1
    } else {
        BATCH
    };
    let budget = Duration::from_secs_f64(options.seconds * 0.2);
    let staged = staged::replay(input, batch, &scratch.fresh("staged"), origin, budget);
    let replayed = staged.events as f64;
    // `engine.drain` is left out of the sum: it is the wall time of a wait
    // for a parked worker, not work.  What the worker does meanwhile is the
    // check, counted below from the checker alone.
    let mut staged_ns_per_event = 0.0;
    for stage in &STAGES {
        if let Some(metric) = stage.ns_per_event {
            let ns_per_event = staged.log.total_ns(stage.span, &(0..u64::MAX)) as f64 / replayed;
            staged_ns_per_event += ns_per_event;
            values.insert(metric, Sample::single(ns_per_event));
        }
    }
    let mut drains_us: Vec<f64> = staged
        .log
        .spans()
        .iter()
        .filter(|s| s.name == DRAIN)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let [drain_p50, drain_p95] = percentiles(&mut drains_us, [50.0, 95.0]);
    values.insert(
        "engine.drain_us_p50",
        Sample {
            n: drains_us.len(),
            ..Sample::single(drain_p50)
        },
    );
    values.insert(
        "engine.drain_us_p95",
        Sample {
            n: drains_us.len(),
            ..Sample::single(drain_p95)
        },
    );
    values.insert(
        "net.wire.batch_frame_bytes_per_event",
        Sample::single(staged.batch_frame_bytes as f64 / replayed),
    );
    values.insert(
        "net.wire.verdict_frame_bytes_per_event",
        Sample::single(staged.verdict_frame_bytes as f64 / replayed),
    );
    totals.count(staged.events, staged.failed);
    totals.logs.push(staged.log);

    // The engine alone (frames of at least a batch: the in-process path
    // has no 1-event framing to measure), then the checker alone.
    let values = &mut totals.values;
    let in_process = staged::in_process_events_per_s(input, BATCH, workloads::WORKERS);
    let two_workers = staged::in_process_events_per_s(input, BATCH, 2);
    values.insert("engine.inproc_events_per_s", Sample::single(in_process));
    values.insert(
        "engine.inproc_w2_vs_w1_ratio",
        ratio(two_workers, in_process),
    );
    if workload.kind == Loop::Closed {
        values.insert("bench.loopback_vs_inproc_ratio", ratio(plain, in_process));
    }

    let events = input.events() as f64;
    let probe = staged::checker_probe(input);
    let checks = probe.stats.checks as f64;
    values.insert(
        "consistency.feed_ns_per_event",
        Sample::single(probe.feed_ns_per_event),
    );
    // What no layer's work accounts for: spins, syscalls, wake-ups, and the
    // engine's own queueing between the calls timed above.  (`recover`
    // replays a checkpointed suffix, not these stages: no share.)
    if live.cpu_s_per_event > 0.0 && workload.kind != Loop::Recover {
        let attributed_s = (staged_ns_per_event + probe.feed_ns_per_event) / 1e9;
        values.insert(
            "bench.unattributed_cpu_share",
            Sample::single(1.0 - attributed_s / live.cpu_s_per_event),
        );
    }
    values.insert(
        "consistency.worst_object_ms",
        Sample::single(probe.worst_object_ms),
    );
    values.insert(
        "consistency.fast_path_ratio",
        ratio(probe.stats.fast_path as f64, checks),
    );
    values.insert(
        "consistency.dfs_runs_per_kevent",
        Sample::single(probe.stats.dfs_runs as f64 * 1e3 / events),
    );
    values.insert(
        "consistency.dfs_nodes_per_event",
        Sample::single(probe.stats.dfs_nodes as f64 / events),
    );
    values.insert(
        "consistency.latched_ratio",
        ratio(probe.stats.latched as f64, checks),
    );
    values.insert(
        "consistency.unknown_outcomes",
        Sample::single(probe.unknown_outcomes as f64),
    );
    values.insert(
        "consistency.checkpoint_bytes_per_op",
        Sample::single(probe.checkpoint_bytes_per_op),
    );
    values.insert(
        "consistency.checkpoint_us_p50",
        Sample::of(&probe.checkpoint_us),
    );
    if probe.unknown_outcomes > 0 {
        totals.errors.push(format!(
            "{} checks ran out of budget (Unknown)",
            probe.unknown_outcomes
        ));
    }
}

/// Closed loop: a warm-up rep, then rounds of one rep a side.
fn closed_sides(
    input: &Input,
    options: &Options,
    scratch: &Scratch,
    totals: &mut Totals,
) -> LiveSides {
    let mut live = LiveSides::new();
    let (warm_up, mut finished) = closed_rep(input, scratch, Telemetry::passive(), false, |_| {});
    count_live(totals, &mut finished);
    // At least two reps a side: one pair alone reads scheduling noise as an
    // overhead (or a speed-up).
    let rounds = ((0.9 * options.seconds / (3.0 * warm_up.wall_s)).round() as usize).clamp(2, 4);
    for round in 0..rounds {
        for turn in 0..ROTATION.len() {
            let side = ROTATION[(round + turn) % ROTATION.len()];
            let report = side == Side::Traced && round == 0;
            let mut probes = None;
            let (timing, mut finished) = closed_rep(
                input,
                scratch,
                side.telemetry(),
                side == Side::Traced,
                |deployment| {
                    probes = report.then(|| IdleProbes::take(deployment));
                },
            );
            count_live(totals, &mut finished);
            live.rates[side as usize].push(timing.events as f64 / timing.wall_s);
            if side == Side::Plain {
                live.cpu_s_per_event = timing.cpu_s / timing.events as f64;
            }
            if let Some(probes) = probes {
                probes.report(&mut totals.values);
                live_layers(&mut totals.values, &timing, &finished);
                let [p95, p99, p999] = percentiles(
                    &mut finished.tally.latencies_ms(&(0..usize::MAX)),
                    [95.0, 99.0, 99.9],
                );
                totals
                    .values
                    .insert("bench.latency_ms_p95", Sample::single(p95));
                totals
                    .values
                    .insert("bench.latency_ms_p99", Sample::single(p99));
                totals
                    .values
                    .insert("bench.latency_ms_p999", Sample::single(p999));
                totals.logs.append(&mut finished.tally.logs);
            }
        }
    }
    live
}

/// Open loop: two reps a side at the reported rate, one plain rep at each of
/// the other two rates.  The sides are compared on the closed-loop tail.
fn paced_sides(input: &Input, scratch: &Scratch, totals: &mut Totals) -> LiveSides {
    let mut live = LiveSides::new();
    let mut sustainable = 0.0f64;
    let reported: Vec<Side> = ROTATION
        .into_iter()
        .chain(ROTATION.into_iter().rev())
        .collect();
    for (step, rate) in PACED_RATES.into_iter().enumerate() {
        let sides = if step == 0 {
            &reported[..]
        } else {
            &[Side::Plain]
        };
        for (turn, &side) in sides.iter().enumerate() {
            let report = side == Side::Traced && turn < ROTATION.len();
            let mut probes = None;
            let mut run = paced_run(
                input,
                rate,
                scratch,
                side.telemetry(),
                side == Side::Traced,
                |deployment| {
                    probes = report.then(|| IdleProbes::take(deployment));
                },
            );
            count_live(totals, &mut run.finished);
            let values = &mut totals.values;
            if step == 0 {
                live.rates[side as usize].push(run.tail.events as f64 / run.tail.wall_s);
            }
            if let Some(probes) = probes {
                probes.report(values);
                live_layers(values, &run.paced, &run.finished);
                totals.logs.append(&mut run.finished.tally.logs);
            }
            if side != Side::Plain {
                continue;
            }
            if run.sustainable() {
                sustainable = sustainable.max(rate);
            }
            let [p50, _, p95, p99, p999] = run.latency_ms.map(Sample::single);
            match step {
                0 => {
                    live.cpu_s_per_event = run.paced.cpu_s / run.paced.events as f64;
                    values.insert("bench.latency_ms_p95", p95);
                    values.insert("bench.latency_ms_p99", p99);
                    values.insert("bench.latency_ms_p999", p999);
                    values.insert(
                        "bench.generator_late_us_p99",
                        Sample::single(run.late_us_p99),
                    );
                }
                1 => {
                    values.insert("bench.latency_ms_p50_at_50k", p50);
                    values.insert("bench.latency_ms_p95_at_50k", p95);
                }
                _ => {
                    values.insert("bench.latency_ms_p50_at_100k", p50);
                    values.insert("bench.latency_ms_p95_at_100k", p95);
                }
            }
        }
    }
    totals.values.insert(
        "bench.sustainable_events_per_s",
        Sample::single(sustainable),
    );
    totals.values.insert(
        "bench.frame_capacity_events_per_s",
        Sample::of(&live.rates[Side::Plain as usize]),
    );
    live
}

/// Recovery has no client calls to put spans around: plain against
/// instrumented only.
fn recover_sides(
    journal: &CrashedJournal,
    input: &Input,
    scratch: &Scratch,
    totals: &mut Totals,
) -> LiveSides {
    let mut live = LiveSides::new();
    let events = journal.events(input) as f64;
    let values = &mut totals.values;
    for side in [
        Side::Plain,
        Side::Instrumented,
        Side::Instrumented,
        Side::Plain,
    ] {
        let rep = recover_rep(journal, input, &scratch.fresh("recover"), side.telemetry());
        totals.attempted += input.events();
        totals.failed += rep.failed;
        live.rates[side as usize].push(events / rep.recover_s);
        live.cpu_s_per_event = rep.cpu_s / events;
        let stats = rep.stats;
        values.insert(
            "store.recover_skipped_share",
            ratio(stats.skipped_events as f64, stats.replayed_events as f64),
        );
        values.insert(
            "store.recover_seeded_objects",
            Sample::single(stats.seeded_objects as f64),
        );
        values.insert(
            "store.recover_rejected_checkpoints",
            Sample::single(stats.rejected_checkpoints as f64),
        );
    }
    values.insert(
        "store.scan_ns_per_event",
        Sample::single(recovery::scan_ns_per_event(journal, journal.events(input))),
    );
    values.insert(
        "store.journal_bytes_per_event",
        Sample::single(journal.bytes as f64 / events),
    );
    values.insert(
        "store.checkpoints",
        Sample::single(journal.store.checkpoints as f64),
    );
    values.insert(
        "store.oversized_checkpoints",
        Sample::single(journal.store.oversized_checkpoints as f64),
    );
    live
}

/// Readings taken on the loaded, idle deployment of a traced live rep.
struct IdleProbes {
    stats_rtt_us: Vec<f64>,
    sync_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
}

impl IdleProbes {
    fn take(deployment: &mut Live) -> IdleProbes {
        IdleProbes {
            stats_rtt_us: deployment.stats_round_trips(200),
            sync_ms: deployment.store_syncs(20),
            snapshot_us: deployment.snapshot_times(20),
        }
    }

    fn report(mut self, values: &mut Values) {
        let n = self.stats_rtt_us.len();
        let [p50, p95] = percentiles(&mut self.stats_rtt_us, [50.0, 95.0]);
        values.insert(
            "net.stats_rtt_us_p50",
            Sample {
                n,
                ..Sample::single(p50)
            },
        );
        values.insert(
            "net.stats_rtt_us_p95",
            Sample {
                n,
                ..Sample::single(p95)
            },
        );
        values.insert("store.sync_ms_p50", Sample::of(&self.sync_ms));
        values.insert("telemetry.snapshot_us_p50", Sample::of(&self.snapshot_us));
    }
}

/// The per-layer values read around a live rep from public stats; `timing`
/// is the segment whose client-side shares are reported.
fn live_layers(values: &mut Values, timing: &SegmentTiming, finished: &Finished) {
    let events = finished.tally.attempted as f64;
    // A registry cell a later change renames reads as not measured.
    let cell = |name: &str| finished.snapshot.counter(name).map(|count| count as f64);
    let per = |count: Option<f64>, unit: f64| {
        count.map_or_else(Sample::not_measured, |c| Sample::single(c * unit / events))
    };
    values.insert(
        "net.reactor.wakeups_per_kevent",
        per(cell("net_reactor_wakeups"), 1e3),
    );
    values.insert(
        "net.reactor.wake_skips_per_kevent",
        per(cell("net_reactor_wake_skips"), 1e3),
    );
    values.insert(
        "net.server.verdict_frames_per_kevent",
        per(cell("net_verdict_frames"), 1e3),
    );
    values.insert(
        "net.server.rx_bytes_per_event",
        per(cell("net_rx_bytes"), 1.0),
    );
    values.insert(
        "net.server.tx_bytes_per_event",
        per(cell("net_tx_bytes"), 1.0),
    );
    let server = finished.server;
    for (name, count) in [
        ("net.server.engine_full_stalls", server.engine_full_stalls),
        ("net.server.nacks", server.nacks),
        ("net.server.dropped_verdicts", server.dropped_verdicts),
        ("net.server.stalled_disconnects", server.stalled_disconnects),
        ("net.server.protocol_errors", server.protocol_errors),
        ("engine.steals", finished.engine.steals),
        ("store.checkpoints", finished.store.checkpoints),
        (
            "store.oversized_checkpoints",
            finished.store.oversized_checkpoints,
        ),
    ] {
        values.insert(name, Sample::single(count as f64));
    }
    let segment_ns = timing.start_ns..timing.start_ns + (timing.wall_s * 1e9) as u64;
    let sending_ns: u64 = finished
        .tally
        .logs
        .iter()
        .map(|log| log.total_ns("send_batch", &segment_ns))
        .sum();
    values.insert(
        "net.client.send_busy_share",
        Sample::single(
            sending_ns as f64 / 1e9 / (timing.wall_s * finished.tally.logs.len() as f64),
        ),
    );
    values.insert("net.client.verdict_tail_ms", Sample::single(timing.tail_ms));
    values.insert(
        "engine.shard_claims_per_kevent",
        per(Some(finished.engine.batches as f64), 1e3),
    );
    values.insert(
        "engine.park_wakeups_per_kevent",
        per(Some(finished.engine.park_wakeups as f64), 1e3),
    );
    values.insert(
        "store.journal_bytes_per_event",
        per(Some(finished.journal_bytes as f64), 1.0),
    );
}
