//! Concurrency and fault-tolerance integration tests: wait-freedom of the
//! monitors and behaviour under real threads and under crash injection.

use drv_adversary::{AtomicObject, ReplicatedCounter};
use drv_core::monitors::{SecCountFamily, WecCountFamily};
use drv_core::runtime::{run, RunConfig, Schedule};
use drv_core::threaded::{run_threaded, ThreadedConfig};
use drv_core::SymbolSampler;
use drv_lang::{ObjectKind, ProcId};
use drv_shmem::{CrashPlan, SchedulePolicy, SharedArray, StepSim};
use drv_spec::Counter;

/// Wait-freedom in the model: a monitor process keeps completing iterations
/// and reporting verdicts even when the scheduler starves every other
/// process.  (The phase script runs only p1 for its whole run; p2 and p3
/// never move.)
#[test]
fn monitors_are_wait_free_under_starvation() {
    let n = 3;
    let iterations = 20;
    // 4 plain-mode phases per iteration, all given to process 0.
    let script = vec![0usize; iterations * 4];
    let config = RunConfig::new(n, iterations)
        .with_schedule(Schedule::PhaseScript(script))
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.3));
    let trace = run(
        &config,
        &WecCountFamily::new(),
        Box::new(AtomicObject::new(Counter::new())),
    );
    // p1 completed all its iterations although nobody else took a single
    // step until p1's whole script was consumed: the first 2·iterations
    // symbols of x(E) all belong to p1.
    assert_eq!(trace.verdicts(0).len(), iterations);
    assert!(trace.word().symbols()[..iterations * 2]
        .iter()
        .all(|symbol| symbol.proc == ProcId(0)));
    assert!(trace.word().is_well_formed_prefix());
}

/// The same property under the timed adversary: the Figure 9 monitor needs
/// only its own announce/snapshot steps.
#[test]
fn timed_monitors_are_wait_free_under_starvation() {
    let n = 3;
    let iterations = 15;
    // 7 timed-mode phases per iteration.
    let script = vec![0usize; iterations * 7];
    let config = RunConfig::new(n, iterations)
        .timed()
        .with_schedule(Schedule::PhaseScript(script))
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.3));
    let trace = run(
        &config,
        &SecCountFamily::new(),
        Box::new(AtomicObject::new(Counter::new())),
    );
    assert_eq!(trace.verdicts(0).len(), iterations);
    assert!(trace.word().symbols()[..iterations * 2]
        .iter()
        .all(|symbol| symbol.proc == ProcId(0)));
}

/// Real threads, many processes: the monitors stay sound and the evaluation
/// still holds (the OS scheduler plays the adversary).
#[test]
fn threaded_runs_scale_to_more_processes() {
    let config = ThreadedConfig::new(6, 25)
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(12);
    let trace = run_threaded(
        &config,
        &WecCountFamily::new(),
        Box::new(ReplicatedCounter::new(3)),
    );
    assert_eq!(trace.process_count(), 6);
    assert_eq!(trace.min_iterations(), 25);
    assert!(trace.word().is_well_formed_prefix());
    // The safety clauses of WEC_COUNT are schedule-independent for a correct
    // replicated counter; the eventual clause is evaluated on deterministic
    // runs, where per-process progress cannot be skewed by the OS scheduler.
    assert!(drv_consistency::check_wec_safety(trace.word()).is_ok());
}

/// Threaded timed runs keep the sketch machinery consistent under real
/// concurrency.
#[test]
fn threaded_timed_runs_have_consistent_sketches() {
    let config = ThreadedConfig::new(4, 20)
        .timed()
        .with_sampler(SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.4))
        .stop_mutators_after(10);
    let trace = run_threaded(
        &config,
        &SecCountFamily::new(),
        Box::new(AtomicObject::new(Counter::new())),
    );
    let sketch = trace.sketch().unwrap().expect("timed run");
    assert!(sketch.is_well_formed_prefix());
    assert!(drv_adversary::precedence_preserved(trace.word(), &sketch));
    // Schedule-independent clauses of SEC_COUNT hold on every interleaving of
    // a correct atomic counter.
    assert!(drv_consistency::check_wec_safety(trace.word()).is_ok());
    assert!(drv_consistency::check_sec_realtime(trace.word()).is_ok());
}

/// The shared-memory substrate under crash injection: the monitors' shared
/// arrays are ordinary wait-free objects, so a process that crashes mid-run
/// does not prevent the others from completing their iterations.
#[test]
fn shared_array_users_survive_crashes_of_other_processes() {
    let n = 4;
    let incs = SharedArray::new(n, 0u64);
    let plan = CrashPlan::none(n).crash(1, 3).crash(2, 6);
    let sim = StepSim::new(n)
        .with_policy(SchedulePolicy::Random { seed: 13 })
        .with_crash_plan(plan);
    let report = sim.run(|ctx| {
        let incs = incs.clone();
        move || {
            let mut last_sum = 0u64;
            for k in 1..=10u64 {
                ctx.exec(|| incs.write(ctx.pid(), k));
                let snapshot = ctx.exec(|| incs.snapshot());
                last_sum = snapshot.iter().sum();
            }
            last_sum
        }
    });
    // The two surviving processes finished all their work.
    assert!(report.results[0].is_some());
    assert!(report.results[3].is_some());
    assert!(report.results[0].unwrap() >= 10);
}

/// ProcId bookkeeping across crates stays coherent (0-based indices, 1-based
/// display).
#[test]
fn proc_id_conventions_are_consistent() {
    assert_eq!(ProcId(0).to_string(), "p1");
    assert_eq!(ProcId(0).index(), 0);
    let trace = run(
        &RunConfig::new(2, 1)
            .with_sampler(SymbolSampler::new(ObjectKind::Counter)),
        &WecCountFamily::new(),
        Box::new(AtomicObject::new(Counter::new())),
    );
    assert_eq!(trace.process_count(), 2);
}
