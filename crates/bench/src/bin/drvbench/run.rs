//! One benchmark run: set-up, the measured reps of one workload, and —
//! in the traced run — the layer budget.

use crate::layers;
use crate::live::{Finished, Live, Segment, SegmentTiming};
use crate::metrics::{band_percentiles, percentiles, Better, Sample, Values, PER_LAYER};
use crate::probe::{at_nominal_speed, host_speed};
use crate::recovery::{recover_rep, CrashedJournal};
use crate::sys;
use crate::trace::{self, SpanLog};
use crate::workloads::{self, Input, Loop, Workload, BATCH, CONNECTIONS};
use drv_telemetry::Telemetry;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups made per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;

/// The open loop's rates, events/s over both connections.  Latency and
/// CPU are reported at the first; the traced run also steps the others.
///
/// On the one CPU the benchmark runs on, 1-event frames carry ≈ 250 k
/// events/s at most, and at 50 k the latency already sits on the knee of
/// the queueing curve: a hiccup of the host takes tens of milliseconds to
/// work off, and in a busy hour p50 spread 36 % over eight runs where the
/// same hour's runs at 20 k — alternating with them — spread 5 %.
pub const PACED_RATES: [f64; 3] = [20_000.0, 50_000.0, 100_000.0];
/// A rate is sustainable when p95 stays within this, nothing fails and the
/// drain tail shows no growing backlog.
const LATENCY_LIMIT_MS: f64 = 5.0;
const DRAIN_TAIL_LIMIT_MS: f64 = 50.0;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
    /// The untraced run's timings as read, before they were put at nominal
    /// host speed, and the host speeds they were read at.
    pub as_read: Values,
    /// Why the run is not correct although no event failed (a digest that
    /// moved, a connection error); empty on a good run.
    pub errors: Vec<String>,
    pub digest: u64,
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Per-process scratch directory under the output directory; removed on drop.
pub struct Scratch {
    dir: PathBuf,
    next: Cell<usize>,
}

impl Scratch {
    fn new() -> Scratch {
        let dir = sys::output_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        Scratch {
            dir,
            next: Cell::new(0),
        }
    }

    /// A path no earlier call returned.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        self.next.set(self.next.get() + 1);
        self.dir.join(format!("{tag}-{}", self.next.get()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything the reps of one run add up to.
#[derive(Default)]
pub struct Totals {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub values: Values,
    as_read: Values,
    /// Span logs of the traced run, one lane each in the trace file.
    pub logs: Vec<SpanLog>,
    rates: Vec<f64>,
    cpu_per_mevent: Vec<f64>,
    p50_ms: Vec<f64>,
    p75_ms: Vec<f64>,
}

impl Totals {
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One measured rep: its rate, the CPU it burned over `events` events,
    /// and its verdict latencies around their median and 75th percentile.
    fn measured(&mut self, events_per_s: f64, cpu_s: f64, events: usize, latencies_ms: &mut [f64]) {
        let [p50_ms, p75_ms] = band_percentiles(latencies_ms, [50.0, 75.0]);
        self.rates.push(events_per_s);
        self.cpu_per_mevent.push(cpu_s / events as f64 * 1e6);
        self.p50_ms.push(p50_ms);
        self.p75_ms.push(p75_ms);
    }

    /// The four timings of the measured reps.  Where the CPU was what the
    /// reps waited for, each rep is put at nominal host speed by the probe
    /// readings around it (`host_speeds`, one per rep) and the median over
    /// reps reported; where not, the reps' good-side quartile as read.
    fn report_end_to_end(&mut self, kind: Loop, host_speeds: &[f64]) {
        for (name, reps, better) in [
            ("events_per_s", &self.rates, Better::Higher),
            ("cpu_s_per_mevent", &self.cpu_per_mevent, Better::Lower),
            ("latency_ms_p50", &self.p50_ms, Better::Lower),
            ("latency_ms_p75", &self.p75_ms, Better::Lower),
        ] {
            // The paced stretch waits for the clock, not for the CPU: its
            // latency is the router's coalescing window and its CPU time
            // the whole CPU for the stretch, whatever the host's speed.
            // Only the closed-loop tail behind it is CPU-bound.
            let cpu_bound = kind != Loop::Paced || name == "events_per_s";
            let (value, as_read) = if cpu_bound {
                let nominal: Vec<f64> = reps
                    .iter()
                    .zip(host_speeds)
                    .map(|(&rep, &speed)| at_nominal_speed(rep, better, speed))
                    .collect();
                (Sample::of(&nominal), Sample::of(reps))
            } else {
                let as_read = Sample::undisturbed(reps, better);
                (as_read, as_read)
            };
            self.values.insert(name, value);
            self.as_read.insert(name, as_read);
        }
        self.as_read.insert("host_speed", Sample::of(host_speeds));
    }
}

/// What `repeat_for` reads around the measured reps, one entry per rep.
struct AroundReps {
    /// Resident-set high-water mark, MiB (the mark is reset before every rep).
    peaks_mb: Vec<f64>,
    /// Mean of the host-speed probe just before and just after the rep.
    host_speeds: Vec<f64>,
}

/// Runs `rep` once as a discarded warm-up, then until `seconds` of
/// measured wall time are spent (at least `MIN_REPS` times).  `rep`
/// returns its measured wall seconds.
fn repeat_for(seconds: f64, mut rep: impl FnMut(bool) -> f64) -> AroundReps {
    let mut last = rep(true);
    let mut spent = 0.0;
    let mut around = AroundReps {
        peaks_mb: Vec::new(),
        host_speeds: Vec::new(),
    };
    // One probe between two reps serves both.
    let mut before = host_speed();
    while around.peaks_mb.len() < MIN_REPS
        || (spent + last / 2.0 < seconds && around.peaks_mb.len() < MAX_REPS)
    {
        sys::reset_peak_rss();
        last = rep(false);
        spent += last;
        around.peaks_mb.push(sys::peak_rss_mb());
        let after = host_speed();
        around.host_speeds.push((before + after) / 2.0);
        before = after;
    }
    around
}

fn whole_stream(input: &Input) -> Segment {
    Segment {
        positions: input.all(),
        batch: BATCH,
        interval: None,
    }
}

/// One closed-loop rep: fresh server, fresh journal, the whole stream.
/// `probe` sees the loaded, idle deployment before it is shut down.
pub fn closed_rep(
    input: &Input,
    scratch: &Scratch,
    telemetry: Arc<Telemetry>,
    traced: bool,
    probe: impl FnOnce(&mut Live),
) -> (SegmentTiming, Finished) {
    let mut live = Live::start(scratch.fresh("journal"), telemetry, traced);
    let timing = live.run(input, &whole_stream(input));
    probe(&mut live);
    (timing, live.finish(input))
}

pub fn count_live(totals: &mut Totals, finished: &mut Finished) {
    totals.count(finished.tally.attempted, finished.tally.failed);
    totals.errors.append(&mut finished.tally.errors);
}

/// Seconds of open loop per paced rep (and of discarded warm-up before it,
/// a sixth of that).
const PACED_STRETCH_S: f64 = 1.5;

/// A paced rep's three stretches of each connection's stream.
struct PacedPlan {
    warm_up: Segment,
    /// Open loop at the fixed rate: latency and CPU are read here.
    paced: Segment,
    /// The rest, closed loop at 1-event frames: what the deployment can
    /// take at this frame size — `events_per_s` of the workload, and the
    /// basis of the traced run's overhead ratios on it.
    tail: Segment,
}

impl PacedPlan {
    fn new(input: &Input, rate: f64) -> PacedPlan {
        let per_connection = input.shape.events_per_connection();
        let per_connection_rate = rate / CONNECTIONS as f64;
        let interval = Some(Duration::from_secs_f64(1.0 / per_connection_rate));
        let warm =
            ((per_connection_rate * PACED_STRETCH_S / 6.0) as usize).min(per_connection / 12);
        // At the higher rates of the traced run the paced stretch is cut
        // short rather than the tail starved.
        let paced = ((per_connection_rate * PACED_STRETCH_S) as usize)
            .clamp(1, per_connection - warm - per_connection / 8);
        PacedPlan {
            warm_up: Segment {
                positions: 0..warm,
                batch: 1,
                interval,
            },
            paced: Segment {
                positions: warm..warm + paced,
                batch: 1,
                interval,
            },
            tail: Segment {
                positions: warm + paced..per_connection,
                batch: 1,
                interval: None,
            },
        }
    }
}

pub struct PacedRun {
    /// Warm-up + paced stretch + tail, wall seconds.
    pub wall_s: f64,
    pub paced: SegmentTiming,
    pub tail: SegmentTiming,
    /// Verdict received − frame due, ms, every event of the paced stretch.
    pub paced_latencies_ms: Vec<f64>,
    /// Their p50, p75, p95, p99, p99.9.
    pub latency_ms: [f64; 5],
    pub late_us_p99: f64,
    pub finished: Finished,
}

impl PacedRun {
    pub fn sustainable(&self) -> bool {
        self.latency_ms[2] <= LATENCY_LIMIT_MS
            && self.finished.tally.failed == 0
            && self.paced.tail_ms <= DRAIN_TAIL_LIMIT_MS
    }
}

/// One paced rep: fresh server, fresh journal, the three stretches.
pub fn paced_run(
    input: &Input,
    rate: f64,
    scratch: &Scratch,
    telemetry: Arc<Telemetry>,
    traced: bool,
    probe: impl FnOnce(&mut Live),
) -> PacedRun {
    let plan = PacedPlan::new(input, rate);
    let mut live = Live::start(scratch.fresh("journal"), telemetry, traced);
    let warm_up = live.run(input, &plan.warm_up);
    let paced = live.run(input, &plan.paced);
    let tail = live.run(input, &plan.tail);
    probe(&mut live);
    let mut finished = live.finish(input);
    let mut paced_latencies_ms = finished.tally.latencies_ms(&plan.paced.positions);
    let latency_ms = percentiles(&mut paced_latencies_ms, [50.0, 75.0, 95.0, 99.0, 99.9]);
    // Lateness of the warm-up frames is part of the same schedule; the
    // closed-loop tail records none.
    let [late_us_p99] = percentiles(&mut finished.tally.late_us, [99.0]);
    PacedRun {
        wall_s: warm_up.wall_s + paced.wall_s + tail.wall_s,
        paced,
        tail,
        paced_latencies_ms,
        latency_ms,
        late_us_p99,
        finished,
    }
}

struct Prepared {
    input: Input,
    journal: Option<CrashedJournal>,
    /// Each set-up's wall seconds, and the host speed around it.
    setup_s: Vec<f64>,
    host_speeds: Vec<f64>,
}

/// Builds the run's input `times` times (keeping the last): generation,
/// reference verdicts and, for `recover`, the crashed journal.
fn prepare(workload: &Workload, options: &Options, scratch: &Scratch, times: usize) -> Prepared {
    let shape = if options.smoke {
        workload.smoke
    } else {
        workload.shape
    };
    let mut setup_s = Vec::with_capacity(times);
    let mut host_speeds = Vec::with_capacity(times);
    let mut built = None;
    let mut before = host_speed();
    for _ in 0..times {
        // One input alive at a time: set-up's own peak must not become the
        // floor `peak_rss_mb` is measured from.
        drop(built.take());
        let start = Instant::now();
        let input = Input::build(options.seed, shape);
        let journal = (workload.kind == Loop::Recover)
            .then(|| CrashedJournal::build(&input, scratch.fresh("crashed")));
        setup_s.push(start.elapsed().as_secs_f64());
        let after = host_speed();
        host_speeds.push((before + after) / 2.0);
        before = after;
        built = Some((input, journal));
    }
    let (input, journal) = built.expect("at least one set-up");
    Prepared {
        input,
        journal,
        setup_s,
        host_speeds,
    }
}

pub fn run(workload: &Workload, options: &Options) -> Outcome {
    let scratch = Scratch::new();
    let setups = if options.traced || options.smoke {
        1
    } else {
        SETUPS
    };
    let Prepared {
        input,
        journal,
        setup_s,
        host_speeds: setup_host_speeds,
    } = prepare(workload, options, &scratch, setups);

    let mut totals = Totals::default();
    let digest = input.digest();
    if options.seed == 1 {
        let recorded = workloads::recorded_digest(workload.name, options.smoke);
        if recorded != Some(digest) {
            totals.errors.push(format!(
                "seed-1 reference digest is {digest:016x}, recorded {recorded:016x?}: the generator or the oracle changed"
            ));
        }
    }
    let (yes, no) = input.polarity();
    if yes == 0 || (no > 0) != (workload.shape.stale_every > 0) {
        totals.errors.push(format!(
            "reference has {yes} YES and {no} NO verdicts: wrong polarities for this workload"
        ));
    }

    let setup_rss_mb = sys::rss_mb();
    let mut trace_file = None;
    if options.traced {
        layers::measure(
            workload,
            &input,
            journal.as_ref(),
            options,
            &scratch,
            &mut totals,
        );
        let values = &mut totals.values;
        values.insert(
            "core.reference_ns_per_event",
            Sample::single(input.reference_s * 1e9 / input.events() as f64),
        );
        values.insert("bench.setup_rss_mb", Sample::single(setup_rss_mb));
        values.insert(
            "bench.failed_share",
            Sample::single(totals.failed as f64 / totals.attempted.max(1) as f64),
        );
        for metric in PER_LAYER {
            values
                .entry(metric.name)
                .or_insert_with(Sample::not_measured);
        }
        let path = sys::output_dir().join(format!("{}-{}.trace.json", workload.name, options.seed));
        match trace::write_chrome_trace(&path, &totals.logs) {
            Ok(()) => trace_file = Some(path),
            Err(err) => totals
                .errors
                .push(format!("trace file {}: {err}", path.display())),
        }
    } else {
        let around = end_to_end(
            workload,
            &input,
            journal.as_ref(),
            options,
            &scratch,
            &mut totals,
        );
        totals.report_end_to_end(workload.kind, &around.host_speeds);
        totals
            .values
            .insert("peak_rss_mb", Sample::of(&around.peaks_mb));
        let setup_at_nominal: Vec<f64> = setup_s
            .iter()
            .zip(&setup_host_speeds)
            .map(|(&s, &speed)| at_nominal_speed(s, Better::Lower, speed))
            .collect();
        totals
            .values
            .insert("setup_s", Sample::of(&setup_at_nominal));
        totals.as_read.insert("setup_s", Sample::of(&setup_s));
    }
    Outcome {
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        values: totals.values,
        as_read: totals.as_read,
        errors: totals.errors,
        digest,
        trace_file,
    }
}

/// The untraced run: the measured reps behind the end-to-end metrics.
fn end_to_end(
    workload: &Workload,
    input: &Input,
    journal: Option<&CrashedJournal>,
    options: &Options,
    scratch: &Scratch,
    totals: &mut Totals,
) -> AroundReps {
    match workload.kind {
        Loop::Closed => repeat_for(options.seconds, |warm_up| {
            let (timing, mut finished) =
                closed_rep(input, scratch, Telemetry::passive(), false, |_| {});
            count_live(totals, &mut finished);
            if !warm_up {
                totals.measured(
                    timing.events as f64 / timing.wall_s,
                    timing.cpu_s,
                    timing.events,
                    &mut finished.tally.latencies_ms(&input.all()),
                );
            }
            timing.wall_s
        }),
        // Latency and CPU are read on the paced stretch — where the rate is
        // the offered one and says nothing — and `events_per_s` on the
        // closed-loop tail: what 1-event frames can carry.
        Loop::Paced => repeat_for(options.seconds, |warm_up| {
            let mut run = paced_run(
                input,
                PACED_RATES[0],
                scratch,
                Telemetry::passive(),
                false,
                |_| {},
            );
            count_live(totals, &mut run.finished);
            if !warm_up {
                totals.measured(
                    run.tail.events as f64 / run.tail.wall_s,
                    run.paced.cpu_s,
                    run.paced.events,
                    &mut run.paced_latencies_ms,
                );
            }
            run.wall_s
        }),
        Loop::Recover => {
            let journal = journal.expect("recover builds its journal in set-up");
            // The timed window is the recovery: rate and CPU are read on
            // it.  Latency is read afterwards, on the rest of the stream
            // through the recovered engine.
            repeat_for(options.seconds, |warm_up| {
                let mut rep = recover_rep(
                    journal,
                    input,
                    &scratch.fresh("recover"),
                    Telemetry::passive(),
                );
                totals.count(input.events(), rep.failed);
                if !warm_up {
                    let journaled = journal.events(input);
                    totals.measured(
                        journaled as f64 / rep.recover_s,
                        rep.cpu_s,
                        journaled,
                        &mut rep.served.latencies_ms,
                    );
                }
                rep.recover_s + rep.served.wall_s
            })
        }
    }
}
