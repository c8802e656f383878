//! Incremental vs from-scratch checking on the Figure 8 monitor path.
//!
//! Reproduces the monitor's per-iteration work in isolation: after every
//! completed operation of a growing register history the verdict is
//! re-computed, either from scratch (`ConcurrentHistory` + `check_history`,
//! exactly what `CheckStrategy::FromScratch` does per iteration) or through a
//! long-lived `IncrementalChecker` (`CheckStrategy::Incremental`).  The two
//! paths are verified to agree verdict for verdict while being timed.
//!
//! Past those sizes the from-scratch path is out of reach, and the question
//! becomes whether the incremental path's cost per operation stays flat as
//! the history grows: the scaling rows time it alone, two orders of
//! magnitude deeper.
//!
//! The `sc-standing-no` rows are the object that has left the fast path for
//! good: a two-process register stream in which one read in a hundred is
//! wrong, checked for sequential consistency after *every* symbol, as the
//! engine's monitors do.  The NO is never rescued, so what a row times is
//! how the engine holds it: `dfs_runs_per_kevent` says how often it
//! searched to do so.  In `sc-standing-no` the wrong read returns a value
//! nobody wrote, which the engine refutes and holds without any search (R4
//! in `incremental.rs`); in `sc-standing-no-stale` it returns a value its
//! reader has already seen overwritten, which only a search refutes, and
//! which a blocked process's write cannot rescue (R3).  Each row also times
//! the incremental path alone on the same shape of stream 50 times longer
//! (`long_incremental_ns_per_event`): holding a NO must not cost more per
//! event as the history grows.
//!
//! The `many-objects` row is the engine's checker working set without the
//! engine: 2 048 register objects of 150 operations each (the shape and size
//! of `drvbench`'s `wide-batch256`), even ones checked for linearizability
//! and odd ones for sequential consistency, all on one payload arena as the
//! monitors of a factory are, each fed one symbol per call.  Visited
//! round-robin every call finds its object cold; visited object by object
//! every call but an object's first finds it hot; the difference is what
//! per-object state costs in cache misses, and `heap_bytes_per_object` (live
//! heap after the last event, from a counting allocator in this binary) is
//! that state.
//!
//! The `checkpoint-chain` row is what a journal checkpoint costs the checker
//! of a long-lived object: after 2 000 and after 20 000 operations of a
//! two-process LIN register stream in `drvbench`'s shape, and 1 024 symbols
//! (the store's default interval) after the previous checkpoint, it times
//! and sizes the full form (`checkpoint_bytes`, what every checkpoint was
//! before checkpoints became deltas) and the delta the engine now journals
//! (`checkpoint_delta`).  The full form grows with the history; the delta
//! should not.
//!
//! Besides the per-size report lines, the bench writes the machine-readable
//! baseline `BENCH_checker.json` at the workspace root so future PRs can
//! track the perf trajectory:
//!
//! ```text
//! cargo bench -p drv-bench --bench incremental
//! ```

use drv_adversary::{register_object_stream, RegisterStreamShape};
use drv_consistency::{
    check_history, CheckOutcome, CheckerConfig, CheckerStats, ConcurrentHistory,
    IncrementalChecker,
};
use drv_core::{CheckerObjectMonitor, ObjectMonitor, Verdict};
use drv_lang::{Action, Invocation, ProcId, Response, SharedInterner, Symbol, Word};
use drv_spec::Register;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with a count of the bytes currently allocated
/// through it, for the `many-objects` row's heap reading.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request goes to `System` unchanged and its answer comes back
// unchanged; the only addition is a relaxed counter that publishes nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Number of monitor processes in the generated histories (the Table 1
/// object-cell default).
const PROCESSES: usize = 3;
/// The monitor's per-check node budget.
const MAX_STATES: usize = 200_000;
/// History sizes, in completed operations ≈ monitor loop iterations.
const SIZES: [usize; 4] = [25, 50, 100, 200];
/// History sizes timed on the incremental path alone; the first repeats the
/// largest compared size so the two tables join.
const SCALING_SIZES: [usize; 3] = [200, 2_000, 20_000];
/// Timed repetitions per measurement (minimum is reported).
const REPS: usize = 3;
/// Completed operations of the `sc-standing-no` streams: two wrong reads,
/// and what the from-scratch baseline can still refute at every symbol.
const STANDING_NO_OPS: usize = 400;
/// Completed operations of the long `sc-standing-no` runs, timed on the
/// incremental path alone: a NO held this long must not cost more per event
/// than one held over `STANDING_NO_OPS`.
const STANDING_NO_LONG_OPS: usize = 20_000;
/// Live objects and operations per object of the `many-objects` row:
/// `drvbench`'s `wide-batch256`.
const FLEET_OBJECTS: usize = 2_048;
const FLEET_OPS: usize = 150;
/// Operations before the `checkpoint-chain` row's last checkpoint, and the
/// symbols fed between it and the one before (the store's default
/// checkpoint interval).
const CHAIN_OPS: [usize; 2] = [2_000, 20_000];
const CHAIN_INTERVAL: usize = 1_024;

/// A linearizable register history: most operations complete immediately,
/// some overlap in pairs; responses are drawn from an atomic register whose
/// writes take effect at the response, so the history is a member of
/// `LIN_REG` (and hence `SC_REG`) by construction.
fn register_history(n: usize, ops: usize, seed: u64) -> Word {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut word = Word::new();
    let mut value = 0u64;
    let mut next_write = 1u64;
    let mut emitted = 0usize;
    let mut respond = |word: &mut Word, proc: usize, invocation: &Invocation| match invocation {
        Invocation::Write(v) => {
            value = *v;
            word.respond(ProcId(proc), Response::Ack);
        }
        _ => word.respond(ProcId(proc), Response::Value(value)),
    };
    while emitted < ops {
        let invocation = |rng: &mut StdRng, next_write: &mut u64| {
            if rng.gen_bool(0.5) {
                let v = *next_write;
                *next_write += 1;
                Invocation::Write(v)
            } else {
                Invocation::Read
            }
        };
        if ops - emitted >= 2 && rng.gen_bool(0.25) {
            // Two overlapping operations on distinct processes, responded in
            // random order: real concurrency for the search to resolve.
            let p = rng.gen_range(0..n);
            let q = (p + 1 + rng.gen_range(0..n - 1)) % n;
            let inv_p = invocation(&mut rng, &mut next_write);
            let inv_q = invocation(&mut rng, &mut next_write);
            word.invoke(ProcId(p), inv_p.clone());
            word.invoke(ProcId(q), inv_q.clone());
            if rng.gen_bool(0.5) {
                respond(&mut word, p, &inv_p);
                respond(&mut word, q, &inv_q);
            } else {
                respond(&mut word, q, &inv_q);
                respond(&mut word, p, &inv_p);
            }
            emitted += 2;
        } else {
            let p = rng.gen_range(0..n);
            let inv = invocation(&mut rng, &mut next_write);
            word.invoke(ProcId(p), inv.clone());
            respond(&mut word, p, &inv);
            emitted += 1;
        }
    }
    word
}

/// The from-scratch monitor path: after every response symbol, rebuild the
/// operation view and re-run the Wing–Gong search from the root.
fn scratch_path(word: &Word, config: &CheckerConfig) -> (Duration, Vec<bool>) {
    let spec = Register::new();
    let mut prefix = Word::new();
    let mut verdicts = Vec::new();
    let start = Instant::now();
    for symbol in word.symbols() {
        prefix.push(symbol.clone());
        if matches!(symbol.action, Action::Respond(_)) {
            let history = ConcurrentHistory::from_word(&prefix, PROCESSES);
            verdicts.push(check_history(&spec, &history, config).is_consistent());
        }
    }
    (start.elapsed(), verdicts)
}

/// The incremental monitor path: one long-lived engine fed symbol by symbol.
fn incremental_path(word: &Word, config: &CheckerConfig) -> (Duration, Vec<bool>) {
    let mut checker = IncrementalChecker::new(Register::new(), *config, PROCESSES);
    let mut verdicts = Vec::new();
    let start = Instant::now();
    for symbol in word.symbols() {
        checker.push_symbol(symbol);
        if matches!(symbol.action, Action::Respond(_)) {
            // The witness-free verdict, as the monitor asks for it.
            verdicts.push(checker.check_outcome() == CheckOutcome::Consistent);
        }
    }
    (start.elapsed(), verdicts)
}

fn best_of<F: FnMut() -> (Duration, Vec<bool>)>(mut f: F) -> (Duration, Vec<bool>) {
    let mut best: Option<(Duration, Vec<bool>)> = None;
    for _ in 0..REPS {
        let run = f();
        if best.as_ref().is_none_or(|(d, _)| run.0 < *d) {
            best = Some(run);
        }
    }
    best.expect("REPS > 0")
}

struct Row {
    size: usize,
    scratch: Duration,
    incremental: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn measure_criterion(label: &str, config: &CheckerConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (index, &size) in SIZES.iter().enumerate() {
        let word = register_history(PROCESSES, size, 0xC0FFEE + index as u64);
        let (scratch, scratch_verdicts) = best_of(|| scratch_path(&word, config));
        let (incremental, incremental_verdicts) = best_of(|| incremental_path(&word, config));
        assert_eq!(
            scratch_verdicts, incremental_verdicts,
            "{label}/{size}: the two paths disagree"
        );
        println!(
            "checker/{label}/scratch/{size:<4}      time: [min {}]",
            format_duration(scratch)
        );
        println!(
            "checker/{label}/incremental/{size:<4}  time: [min {}]",
            format_duration(incremental)
        );
        rows.push(Row {
            size,
            scratch,
            incremental,
        });
    }
    rows
}

/// Nanoseconds per completed operation of the incremental path at each
/// scaling size.
fn measure_scaling(label: &str, config: &CheckerConfig) -> Vec<f64> {
    SCALING_SIZES
        .iter()
        .map(|&size| {
            let word = register_history(PROCESSES, size, 0x5CA1E + size as u64);
            let (elapsed, verdicts) = best_of(|| incremental_path(&word, config));
            assert!(verdicts.iter().all(|&consistent| consistent), "{label}/{size}");
            let ns_per_op = elapsed.as_nanos() as f64 / size as f64;
            println!("checker/{label}/incremental/{size:<5} time: [min {ns_per_op:.0} ns/op]");
            ns_per_op
        })
        .collect()
}

/// An `sc-standing-no` row: nanoseconds per event on either path and the
/// incremental engine's searches and unsearched NOs per thousand events.
struct StandingNo {
    events: usize,
    inconsistent: usize,
    scratch_ns_per_event: f64,
    incremental_ns_per_event: f64,
    /// The same stream shape at `STANDING_NO_LONG_OPS`, incremental only.
    long_events: usize,
    long_inconsistent: usize,
    long_incremental_ns_per_event: f64,
    dfs_runs_per_kevent: f64,
    latched_per_kevent: f64,
}

/// How the `sc-standing-no` rows make every hundredth read wrong.
#[derive(Clone, Copy)]
enum WrongRead {
    /// A value no write produces: 2^28 above the one read, beyond any
    /// value the stream writes and still a scalar payload's inline id.
    ThinAir,
    /// The first value the reader has read and seen overwritten since.
    Stale,
}

/// Correct traffic, then every hundredth read made wrong by hand: where
/// the violations fall does not depend on the seed.  A stale read needs its
/// reader to have seen a value change; until it has, the next read is taken.
fn standing_no_stream(wrong: WrongRead, ops: usize) -> Vec<Symbol> {
    let mut symbols: Vec<Symbol> = register_object_stream(
        &mut StdRng::seed_from_u64(0x5C_57A9D),
        ops,
        &RegisterStreamShape::load(),
    );
    let mut read: [Vec<u64>; 2] = Default::default();
    let (mut reads, mut owed) = (0usize, false);
    for symbol in &mut symbols {
        let reader = symbol.proc.0;
        if let Action::Respond(Response::Value(value)) = &mut symbol.action {
            reads += 1;
            owed |= reads.is_multiple_of(100);
            let seen = &read[reader];
            let overwritten = seen.iter().find(|v| Some(*v) != seen.last()).copied();
            match (owed, wrong, overwritten) {
                (false, ..) => read[reader].push(*value),
                (true, WrongRead::ThinAir, _) => {
                    *value += 1 << 28;
                    owed = false;
                }
                (true, WrongRead::Stale, Some(old)) => {
                    *value = old;
                    owed = false;
                }
                (true, WrongRead::Stale, None) => read[reader].push(*value),
            }
        }
    }
    symbols
}

/// Feeds `symbols` to a fresh SC checker in one batch: the time, the
/// verdict after each symbol, and the checker's counters.
fn feed_standing_no(
    symbols: &[Symbol],
    config: &CheckerConfig,
) -> (Duration, Vec<bool>, CheckerStats) {
    let mut checker = IncrementalChecker::new(Register::new(), *config, 2);
    let mut outcomes = Vec::with_capacity(symbols.len());
    let start = Instant::now();
    checker.feed_batch(symbols, &mut outcomes);
    let elapsed = start.elapsed();
    let verdicts = outcomes.iter().map(|o| *o == CheckOutcome::Consistent).collect();
    (elapsed, verdicts, checker.stats())
}

fn measure_standing_no(row: &str, wrong: WrongRead, config: &CheckerConfig) -> StandingNo {
    let symbols = standing_no_stream(wrong, STANDING_NO_OPS);
    let mut stats = None;
    let (incremental, verdicts) = best_of(|| {
        let (elapsed, verdicts, run) = feed_standing_no(&symbols, config);
        stats = Some(run);
        (elapsed, verdicts)
    });
    let long = standing_no_stream(wrong, STANDING_NO_LONG_OPS);
    let (long_incremental, long_verdicts) = best_of(|| {
        let (elapsed, verdicts, _) = feed_standing_no(&long, config);
        (elapsed, verdicts)
    });

    let (scratch, scratch_verdicts) = best_of(|| {
        let spec = Register::new();
        let mut prefix = Word::new();
        let mut verdicts = Vec::with_capacity(symbols.len());
        let start = Instant::now();
        for symbol in &symbols {
            prefix.push(symbol.clone());
            let history = ConcurrentHistory::from_word(&prefix, 2);
            verdicts.push(check_history(&spec, &history, config).is_consistent());
        }
        (start.elapsed(), verdicts)
    });
    assert_eq!(scratch_verdicts, verdicts, "{row}: the two paths disagree");
    let stats = stats.expect("REPS > 0");
    let events = symbols.len();
    let per_kevent = |count: u64| count as f64 * 1e3 / events as f64;
    let measured = StandingNo {
        events,
        inconsistent: verdicts.iter().filter(|consistent| !**consistent).count(),
        scratch_ns_per_event: scratch.as_nanos() as f64 / events as f64,
        incremental_ns_per_event: incremental.as_nanos() as f64 / events as f64,
        long_events: long.len(),
        long_inconsistent: long_verdicts.iter().filter(|consistent| !**consistent).count(),
        long_incremental_ns_per_event: long_incremental.as_nanos() as f64 / long.len() as f64,
        dfs_runs_per_kevent: per_kevent(stats.dfs_runs),
        latched_per_kevent: per_kevent(stats.latched),
    };
    println!(
        "checker/{row}/scratch      time: [min {:.0} ns/event]",
        measured.scratch_ns_per_event
    );
    println!(
        "checker/{row}/incremental  time: [min {:.0} ns/event], {:.1} searches and \
         {:.1} unsearched NOs per 1000 events ({} of {} events inconsistent)",
        measured.incremental_ns_per_event,
        measured.dfs_runs_per_kevent,
        measured.latched_per_kevent,
        measured.inconsistent,
        measured.events,
    );
    println!(
        "checker/{row}/incremental at {STANDING_NO_LONG_OPS} ops  time: [min {:.0} ns/event] \
         ({} of {} events inconsistent)",
        measured.long_incremental_ns_per_event,
        measured.long_inconsistent,
        measured.long_events,
    );
    measured
}

/// `row` as a section of `BENCH_checker.json`.
fn standing_no_section(name: &str, wrong: &str, row: &StandingNo) -> String {
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"stream\": \"2-process register, {} operations, 1 read in 100 {}, ",
            "sequential consistency, a verdict after every symbol\",\n",
            "    \"events\": {},\n",
            "    \"inconsistent_events\": {},\n",
            "    \"scratch_ns_per_event\": {:.0},\n",
            "    \"incremental_ns_per_event\": {:.0},\n",
            "    \"long_ops\": {},\n",
            "    \"long_inconsistent_events\": {},\n",
            "    \"long_incremental_ns_per_event\": {:.0},\n",
            "    \"dfs_runs_per_kevent\": {:.1},\n",
            "    \"latched_per_kevent\": {:.1}\n",
            "  }},\n",
        ),
        name,
        STANDING_NO_OPS,
        wrong,
        row.events,
        row.inconsistent,
        row.scratch_ns_per_event,
        row.incremental_ns_per_event,
        STANDING_NO_LONG_OPS,
        row.long_inconsistent,
        row.long_incremental_ns_per_event,
        row.dfs_runs_per_kevent,
        row.latched_per_kevent,
    )
}

/// The `many-objects` row.
struct ManyObjects {
    events: usize,
    round_robin_ns_per_event: f64,
    object_by_object_ns_per_event: f64,
    /// Distinct invocations plus distinct responses in the fleet's arena.
    arena_entries: usize,
    heap_bytes_per_object: usize,
}

fn measure_many_objects(lin: &CheckerConfig, sc: &CheckerConfig) -> ManyObjects {
    let streams: Vec<Vec<Symbol>> = (0..FLEET_OBJECTS)
        .map(|object| {
            let mut rng = StdRng::seed_from_u64(0x0B_1EC7 + object as u64);
            register_object_stream(&mut rng, FLEET_OPS, &RegisterStreamShape::load())
        })
        .collect();
    let per_object = streams[0].len();
    assert!(streams.iter().all(|stream| stream.len() == per_object));
    let events = FLEET_OBJECTS * per_object;
    // What a factory's `create` does, on an arena this bench can count.
    let fleet = |arena: &SharedInterner| -> Vec<Box<dyn ObjectMonitor>> {
        (0..FLEET_OBJECTS)
            .map(|object| {
                let config = if object % 2 == 0 { lin } else { sc };
                let checker =
                    IncrementalChecker::with_arena(Register::new(), *config, 2, arena.clone());
                let monitor = CheckerObjectMonitor::new(checker);
                Box::new(monitor) as Box<dyn ObjectMonitor>
            })
            .collect()
    };
    // One symbol per call either way, as a round-robin interleaving reaches
    // the engine's monitors; only the visiting order differs.
    let feed = |monitors: &mut [Box<dyn ObjectMonitor>], round_robin: bool| {
        let mut verdicts = Vec::with_capacity(events);
        let start = Instant::now();
        if round_robin {
            for at in 0..per_object {
                for (monitor, stream) in monitors.iter_mut().zip(&streams) {
                    monitor.on_batch(&stream[at..=at], &mut verdicts);
                }
            }
        } else {
            for (monitor, stream) in monitors.iter_mut().zip(&streams) {
                for at in 0..per_object {
                    monitor.on_batch(&stream[at..=at], &mut verdicts);
                }
            }
        }
        let elapsed = start.elapsed();
        assert_eq!(verdicts.len(), events);
        assert!(verdicts.iter().all(|verdict| *verdict == Verdict::Yes));
        elapsed
    };
    let mut arena_entries = 0;
    let mut heap_bytes_per_object = 0;
    let mut best = [Duration::MAX; 2];
    for _ in 0..REPS {
        for (slot, round_robin) in [true, false].into_iter().enumerate() {
            let before = LIVE_BYTES.load(Ordering::Relaxed);
            let arena = SharedInterner::new();
            let mut monitors = fleet(&arena);
            best[slot] = best[slot].min(feed(&mut monitors, round_robin));
            // The verdict buffer is gone, the fleet and its arena are not.
            let live = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before);
            heap_bytes_per_object = live / FLEET_OBJECTS;
            let (invocations, responses) = arena.versions();
            arena_entries = invocations + responses;
        }
    }
    let row = ManyObjects {
        events,
        round_robin_ns_per_event: best[0].as_nanos() as f64 / events as f64,
        object_by_object_ns_per_event: best[1].as_nanos() as f64 / events as f64,
        arena_entries,
        heap_bytes_per_object,
    };
    println!(
        "checker/many-objects/round-robin       time: [min {:.0} ns/event]",
        row.round_robin_ns_per_event
    );
    println!(
        "checker/many-objects/object-by-object  time: [min {:.0} ns/event], {} heap bytes per \
         object after {} events each, {} arena entries for {} objects",
        row.object_by_object_ns_per_event,
        row.heap_bytes_per_object,
        per_object,
        row.arena_entries,
        FLEET_OBJECTS,
    );
    row
}

/// One size of the `checkpoint-chain` row: bytes and best-of-[`REPS`]
/// microseconds of the full form and of the delta, taken at the same state.
struct ChainRow {
    full_bytes: usize,
    full_us: f64,
    delta_bytes: usize,
    delta_us: f64,
}

fn measure_checkpoint_chain(config: &CheckerConfig) -> Vec<ChainRow> {
    CHAIN_OPS
        .iter()
        .map(|&ops| {
            let symbols = register_object_stream(
                &mut StdRng::seed_from_u64(0xC4A1 + ops as u64),
                ops + CHAIN_INTERVAL,
                &RegisterStreamShape::load(),
            );
            let (before, interval) = symbols[..2 * ops + CHAIN_INTERVAL].split_at(2 * ops);
            let mut best = [Duration::MAX; 2];
            let mut bytes = [0usize; 2];
            for _ in 0..REPS {
                let mut checker = IncrementalChecker::new(Register::new(), *config, 2);
                let mut outcomes = Vec::new();
                checker.feed_batch(before, &mut outcomes);
                let _ = checker.checkpoint_delta();
                checker.feed_batch(interval, &mut outcomes);
                assert!(outcomes.iter().all(|outcome| *outcome == CheckOutcome::Consistent));
                let start = Instant::now();
                let full = std::hint::black_box(checker.checkpoint_bytes());
                best[0] = best[0].min(start.elapsed());
                let start = Instant::now();
                let delta = std::hint::black_box(checker.checkpoint_delta());
                best[1] = best[1].min(start.elapsed());
                bytes = [full.len(), delta.len()];
            }
            let row = ChainRow {
                full_bytes: bytes[0],
                full_us: best[0].as_secs_f64() * 1e6,
                delta_bytes: bytes[1],
                delta_us: best[1].as_secs_f64() * 1e6,
            };
            println!(
                "checker/checkpoint-chain/{ops:<5} full: {} B in [min {:.1} µs], delta: {} B in \
                 [min {:.1} µs]",
                row.full_bytes, row.full_us, row.delta_bytes, row.delta_us
            );
            row
        })
        .collect()
}

fn json_section(label: &str, rows: &[Row], scaling: &[f64]) -> String {
    let sizes: Vec<String> = rows.iter().map(|r| r.size.to_string()).collect();
    let scratch: Vec<String> = rows.iter().map(|r| r.scratch.as_nanos().to_string()).collect();
    let incremental: Vec<String> = rows
        .iter()
        .map(|r| r.incremental.as_nanos().to_string())
        .collect();
    let at_max = rows.last().expect("at least one size");
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"sizes\": [{}],\n",
            "      \"scratch_ns\": [{}],\n",
            "      \"incremental_ns\": [{}],\n",
            "      \"speedup_at_{}\": {:.2},\n",
            "      \"scaling_sizes\": [{}],\n",
            "      \"incremental_ns_per_op\": [{}]\n",
            "    }}"
        ),
        label,
        sizes.join(", "),
        scratch.join(", "),
        incremental.join(", "),
        at_max.size,
        at_max.speedup(),
        SCALING_SIZES.map(|size| size.to_string()).join(", "),
        scaling
            .iter()
            .map(|ns| format!("{ns:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn main() {
    let lin = CheckerConfig::linearizability().with_max_states(MAX_STATES);
    let sc = CheckerConfig::sequential_consistency().with_max_states(MAX_STATES);
    let lin_rows = measure_criterion("lin", &lin);
    let sc_rows = measure_criterion("sc", &sc);
    let lin_scaling = measure_scaling("lin", &lin);
    let sc_scaling = measure_scaling("sc", &sc);
    let standing_no = measure_standing_no("sc-standing-no", WrongRead::ThinAir, &sc);
    let standing_no_stale = measure_standing_no("sc-standing-no-stale", WrongRead::Stale, &sc);
    let many_objects = measure_many_objects(&lin, &sc);
    let chain = measure_checkpoint_chain(&lin);

    for (label, rows) in [("lin", &lin_rows), ("sc", &sc_rows)] {
        let at_max = rows.last().expect("at least one size");
        println!(
            "checker/{label}: {:.1}x speedup at {} iterations",
            at_max.speedup(),
            at_max.size
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"incremental checker vs from-scratch (Figure 8 monitor path)\",\n",
            "  \"regenerate\": \"cargo bench -p drv-bench --bench incremental\",\n",
            "  \"object\": \"register\",\n",
            "  \"processes\": {},\n",
            "  \"max_states\": {},\n",
            "  \"unit\": \"total nanoseconds for one run of <size> monitor iterations; ",
            "incremental_ns_per_op: nanoseconds per completed operation at <scaling_size>\",\n",
            "  \"criteria\": {{\n",
            "{},\n",
            "{}\n",
            "  }},\n",
            "{}",
            "{}",
            "  \"many-objects\": {{\n",
            "    \"fleet\": \"{} register objects x {} operations (wide-batch256's shape), ",
            "2 processes, LIN on even and SC on odd objects, one payload arena, ",
            "one symbol per call\",\n",
            "    \"events\": {},\n",
            "    \"round_robin_ns_per_event\": {:.0},\n",
            "    \"object_by_object_ns_per_event\": {:.0},\n",
            "    \"arena_entries\": {},\n",
            "    \"heap_bytes_per_object\": {}\n",
            "  }},\n",
            "  \"checkpoint-chain\": {{\n",
            "    \"stream\": \"2-process register (drvbench's shape), linearizability, ",
            "one checkpoint {} symbols after the previous one\",\n",
            "    \"ops\": [{}],\n",
            "    \"full_bytes\": [{}],\n",
            "    \"delta_bytes\": [{}],\n",
            "    \"full_us\": [{}],\n",
            "    \"delta_us\": [{}]\n",
            "  }}\n",
            "}}\n"
        ),
        PROCESSES,
        MAX_STATES,
        json_section("linearizability", &lin_rows, &lin_scaling),
        json_section("sequential_consistency", &sc_rows, &sc_scaling),
        standing_no_section("sc-standing-no", "wild", &standing_no),
        standing_no_section("sc-standing-no-stale", "stale", &standing_no_stale),
        FLEET_OBJECTS,
        FLEET_OPS,
        many_objects.events,
        many_objects.round_robin_ns_per_event,
        many_objects.object_by_object_ns_per_event,
        many_objects.arena_entries,
        many_objects.heap_bytes_per_object,
        CHAIN_INTERVAL,
        CHAIN_OPS.map(|ops| ops.to_string()).join(", "),
        chain.iter().map(|row| row.full_bytes.to_string()).collect::<Vec<_>>().join(", "),
        chain.iter().map(|row| row.delta_bytes.to_string()).collect::<Vec<_>>().join(", "),
        chain.iter().map(|row| format!("{:.1}", row.full_us)).collect::<Vec<_>>().join(", "),
        chain.iter().map(|row| format!("{:.1}", row.delta_us)).collect::<Vec<_>>().join(", "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checker.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
