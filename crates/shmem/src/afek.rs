//! Wait-free atomic snapshot from single-writer registers (Afek et al.).
//!
//! The paper's monitor algorithms use the atomic `Snapshot(·)` operation and
//! justify it by citing Afek, Attiya, Dolev, Gafni, Merritt and Shavit
//! (reference \[1\]): atomic snapshots are wait-free implementable from
//! read/write registers.  This module discharges that assumption by
//! implementing the (unbounded-sequence-number) Afek et al. construction and
//! verifying it, under adversarial step-level schedules, against the
//! atomic-snapshot correctness conditions.
//!
//! The construction: each process `pᵢ` owns a single-writer register holding a
//! [`Segment`] `(value, seq, view)`.  An [`AfekSnapshot::update`] performs an
//! embedded scan and then writes the new value with an incremented sequence
//! number and the scanned view.  An [`AfekSnapshot::scan`] repeatedly performs
//! two collects; if they are equal it returns the common view (a *direct*
//! scan), and otherwise it remembers which processes moved — once some process
//! has been seen moving twice, its embedded view is returned (a *borrowed*
//! scan), which is a valid snapshot taken entirely within the scanner's
//! interval.
//!
//! ```
//! use drv_shmem::afek::{AfekSnapshot, Ungated};
//!
//! let snap = AfekSnapshot::new(3, 0u64);
//! snap.update(&Ungated, 0, 7);
//! snap.update(&Ungated, 2, 9);
//! assert_eq!(snap.scan(&Ungated, 1), vec![7, 0, 9]);
//! ```

use crate::registers::{AtomicRegister, SharedArray};
use crate::stepper::ProcCtx;
use std::fmt;

/// Gates individual shared-memory operations.
///
/// The Afek construction is written once against this trait: under the
/// step-level scheduler each register access is one scheduled step
/// ([`ProcCtx`]); in direct use every access executes immediately
/// ([`Ungated`]).
pub trait Gate {
    /// Executes one shared-memory operation.
    fn gated<T>(&self, op: impl FnOnce() -> T) -> T;
}

impl Gate for ProcCtx {
    fn gated<T>(&self, op: impl FnOnce() -> T) -> T {
        self.exec(op)
    }
}

/// A [`Gate`] that performs operations immediately, without scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ungated;

impl Gate for Ungated {
    fn gated<T>(&self, op: impl FnOnce() -> T) -> T {
        op()
    }
}

/// The single-writer register contents of one process in the Afek et al.
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<T> {
    /// The process's latest written value.
    pub value: T,
    /// Number of updates the process has performed.
    pub seq: u64,
    /// The embedded scan taken during the latest update.
    pub view: Vec<T>,
    /// Per-process sequence numbers of the embedded scan (used when the view
    /// is borrowed, so borrowed scans report accurate sequence vectors).
    pub view_seqs: Vec<u64>,
}

/// Interval and outcome of one top-level `scan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRecord {
    /// The scanning process.
    pub pid: usize,
    /// Logical time just before the first register access of the scan.
    pub start: u64,
    /// Logical time just after the last register access of the scan.
    pub end: u64,
    /// Per-process sequence numbers of the returned view.
    pub seqs: Vec<u64>,
    /// Whether the view was obtained directly (two equal collects) or
    /// borrowed from a mover's embedded scan.
    pub borrowed: bool,
}

/// Interval of one top-level `update`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// The updating process.
    pub pid: usize,
    /// Logical time just before the first register access of the update.
    pub start: u64,
    /// Logical time just after the last register access of the update.
    pub end: u64,
    /// The sequence number the update installed.
    pub seq: u64,
}

/// A correctness violation found by [`SnapshotAudit::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotViolation {
    /// Two scans returned views that are not comparable component-wise.
    Incomparable {
        /// Sequence vector of the first scan.
        first: Vec<u64>,
        /// Sequence vector of the second scan.
        second: Vec<u64>,
    },
    /// A scan that started after another scan ended returned an older view.
    RealTimeRegression {
        /// Sequence vector of the earlier (preceding) scan.
        earlier: Vec<u64>,
        /// Sequence vector of the later scan.
        later: Vec<u64>,
    },
    /// A scan missed an update that completed before the scan started.
    MissedCompletedUpdate {
        /// The updating process.
        updater: usize,
        /// The sequence number installed by the missed update.
        seq: u64,
        /// Sequence vector returned by the scan.
        scan: Vec<u64>,
    },
    /// A scan observed an update that started only after the scan ended.
    SawFutureUpdate {
        /// The updating process.
        updater: usize,
        /// The sequence number of the future update.
        seq: u64,
        /// Sequence vector returned by the scan.
        scan: Vec<u64>,
    },
}

impl fmt::Display for SnapshotViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotViolation::Incomparable { first, second } => {
                write!(f, "incomparable scans {first:?} and {second:?}")
            }
            SnapshotViolation::RealTimeRegression { earlier, later } => {
                write!(
                    f,
                    "scan regression: {later:?} follows {earlier:?} in real time"
                )
            }
            SnapshotViolation::MissedCompletedUpdate { updater, seq, scan } => {
                write!(
                    f,
                    "scan {scan:?} missed completed update {seq} of p{updater}"
                )
            }
            SnapshotViolation::SawFutureUpdate { updater, seq, scan } => {
                write!(f, "scan {scan:?} saw future update {seq} of p{updater}")
            }
        }
    }
}

/// Collects [`ScanRecord`]s and [`UpdateRecord`]s from a run and checks them
/// against the atomic-snapshot correctness conditions.
#[derive(Debug, Clone, Default)]
pub struct SnapshotAudit {
    scans: Vec<ScanRecord>,
    updates: Vec<UpdateRecord>,
}

impl SnapshotAudit {
    /// Creates an empty audit.
    #[must_use]
    pub fn new() -> Self {
        SnapshotAudit::default()
    }

    /// Adds the records produced by one process.
    pub fn add(&mut self, scans: Vec<ScanRecord>, updates: Vec<UpdateRecord>) {
        self.scans.extend(scans);
        self.updates.extend(updates);
    }

    /// Number of recorded scans.
    #[must_use]
    pub fn scan_count(&self) -> usize {
        self.scans.len()
    }

    /// Number of recorded updates.
    #[must_use]
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }

    /// Checks all recorded operations; returns every violation found.
    ///
    /// The conditions are the standard atomic-snapshot ones: all returned
    /// views are pairwise comparable, views never regress across real time,
    /// every update that completed before a scan started is visible to it,
    /// and no update that started after a scan ended is visible to it.
    #[must_use]
    pub fn check(&self) -> Vec<SnapshotViolation> {
        let mut violations = Vec::new();
        for (i, a) in self.scans.iter().enumerate() {
            for b in &self.scans[i + 1..] {
                if !comparable(&a.seqs, &b.seqs) {
                    violations.push(SnapshotViolation::Incomparable {
                        first: a.seqs.clone(),
                        second: b.seqs.clone(),
                    });
                }
                let (earlier, later) = if a.end < b.start {
                    (a, b)
                } else if b.end < a.start {
                    (b, a)
                } else {
                    continue;
                };
                if !le(&earlier.seqs, &later.seqs) {
                    violations.push(SnapshotViolation::RealTimeRegression {
                        earlier: earlier.seqs.clone(),
                        later: later.seqs.clone(),
                    });
                }
            }
            for u in &self.updates {
                if u.end < a.start && a.seqs.get(u.pid).copied().unwrap_or(0) < u.seq {
                    violations.push(SnapshotViolation::MissedCompletedUpdate {
                        updater: u.pid,
                        seq: u.seq,
                        scan: a.seqs.clone(),
                    });
                }
                if u.start > a.end && a.seqs.get(u.pid).copied().unwrap_or(0) >= u.seq {
                    violations.push(SnapshotViolation::SawFutureUpdate {
                        updater: u.pid,
                        seq: u.seq,
                        scan: a.seqs.clone(),
                    });
                }
            }
        }
        violations
    }

    /// Returns `true` when no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.check().is_empty()
    }
}

fn le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

fn comparable(a: &[u64], b: &[u64]) -> bool {
    le(a, b) || le(b, a)
}

/// The Afek et al. wait-free atomic snapshot object.
///
/// See the [module documentation](self) for the construction and an example.
#[derive(Debug)]
pub struct AfekSnapshot<T> {
    segments: SharedArray<Segment<T>>,
    clock: AtomicRegister<u64>,
    n: usize,
}

impl<T: Clone> Clone for AfekSnapshot<T> {
    fn clone(&self) -> Self {
        AfekSnapshot {
            segments: self.segments.clone(),
            clock: self.clock.clone(),
            n: self.n,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> AfekSnapshot<T> {
    /// Creates a snapshot object over `n` single-writer components, each
    /// initialised to `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, initial: T) -> Self {
        assert!(n > 0, "a snapshot object needs at least one component");
        let initial_segment = Segment {
            value: initial.clone(),
            seq: 0,
            view: vec![initial; n],
            view_seqs: vec![0; n],
        };
        AfekSnapshot {
            segments: SharedArray::new(n, initial_segment),
            clock: AtomicRegister::new(0),
            n,
        }
    }

    /// Number of components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.n
    }

    /// Performs an update of component `pid` to `value`, returning its
    /// [`UpdateRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of bounds.
    pub fn update_recorded<G: Gate>(&self, gate: &G, pid: usize, value: T) -> UpdateRecord {
        assert!(pid < self.n, "process index out of bounds");
        let start = self.now();
        let (view, view_seqs, _) = self.scan_inner(gate, pid);
        let seq = gate.gated(|| {
            let mut seg = self.segments.read(pid);
            seg.seq += 1;
            seg.value = value;
            seg.view = view;
            seg.view_seqs = view_seqs;
            let seq = seg.seq;
            self.segments.write(pid, seg);
            self.tick();
            seq
        });
        let end = self.now();
        UpdateRecord {
            pid,
            start,
            end,
            seq,
        }
    }

    /// Performs an update of component `pid` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of bounds.
    pub fn update<G: Gate>(&self, gate: &G, pid: usize, value: T) {
        let _ = self.update_recorded(gate, pid, value);
    }

    /// Performs a scan on behalf of process `pid`, returning the snapshot
    /// values and the [`ScanRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of bounds.
    pub fn scan_recorded<G: Gate>(&self, gate: &G, pid: usize) -> (Vec<T>, ScanRecord) {
        assert!(pid < self.n, "process index out of bounds");
        let start = self.now();
        let (values, seqs, borrowed) = self.scan_inner(gate, pid);
        let end = self.now();
        (
            values,
            ScanRecord {
                pid,
                start,
                end,
                seqs,
                borrowed,
            },
        )
    }

    /// Performs a scan on behalf of process `pid`, returning the snapshot
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of bounds.
    pub fn scan<G: Gate>(&self, gate: &G, pid: usize) -> Vec<T> {
        self.scan_recorded(gate, pid).0
    }

    /// The core scan loop: double collect until clean, borrowing the embedded
    /// view of a process observed moving twice.  Returns
    /// `(values, seqs, borrowed)`.
    fn scan_inner<G: Gate>(&self, gate: &G, _pid: usize) -> (Vec<T>, Vec<u64>, bool) {
        let mut moved = vec![false; self.n];
        let mut first = self.collect(gate);
        loop {
            let second = self.collect(gate);
            if first.iter().zip(second.iter()).all(|(a, b)| a.seq == b.seq) {
                let values = second.iter().map(|s| s.value.clone()).collect();
                let seqs = second.iter().map(|s| s.seq).collect();
                return (values, seqs, false);
            }
            for j in 0..self.n {
                if first[j].seq != second[j].seq {
                    if moved[j] {
                        // `p_j` performed two complete updates within our
                        // interval: its embedded view is a snapshot taken
                        // entirely within it, and its embedded sequence
                        // vector is the accurate description of that view.
                        return (second[j].view.clone(), second[j].view_seqs.clone(), true);
                    }
                    moved[j] = true;
                }
            }
            first = second;
        }
    }

    fn collect<G: Gate>(&self, gate: &G) -> Vec<Segment<T>> {
        let mut out = Vec::with_capacity(self.n);
        for j in 0..self.n {
            out.push(gate.gated(|| {
                let seg = self.segments.read(j);
                self.tick();
                seg
            }));
        }
        out
    }

    fn tick(&self) {
        self.clock.update(|v| v + 1);
    }

    fn now(&self) -> u64 {
        self.clock.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::{CrashPlan, SchedulePolicy, StepSim};

    #[test]
    fn sequential_scan_reflects_updates() {
        let snap = AfekSnapshot::new(3, 0u64);
        assert_eq!(snap.scan(&Ungated, 0), vec![0, 0, 0]);
        snap.update(&Ungated, 0, 5);
        snap.update(&Ungated, 2, 7);
        assert_eq!(snap.scan(&Ungated, 1), vec![5, 0, 7]);
        snap.update(&Ungated, 0, 6);
        assert_eq!(snap.scan(&Ungated, 1), vec![6, 0, 7]);
        assert_eq!(snap.component_count(), 3);
    }

    #[test]
    fn scan_sees_own_completed_update() {
        let snap = AfekSnapshot::new(2, 0u64);
        snap.update(&Ungated, 1, 42);
        let (values, record) = snap.scan_recorded(&Ungated, 1);
        assert_eq!(values[1], 42);
        assert!(record.seqs[1] >= 1);
        assert!(!record.borrowed);
    }

    fn adversarial_run(seed: u64, iterations: u64) -> SnapshotAudit {
        let n = 3;
        let snap = AfekSnapshot::new(n, 0u64);
        let sim = StepSim::new(n).with_policy(SchedulePolicy::Random { seed });
        let report = sim.run(|ctx| {
            let snap = snap.clone();
            move || {
                let mut scans = Vec::new();
                let mut updates = Vec::new();
                for k in 1..=iterations {
                    updates.push(snap.update_recorded(&ctx, ctx.pid(), k * 10 + ctx.pid() as u64));
                    let (_, record) = snap.scan_recorded(&ctx, ctx.pid());
                    scans.push(record);
                }
                (scans, updates)
            }
        });
        assert!(report.all_finished());
        let mut audit = SnapshotAudit::new();
        for result in report.results.into_iter().flatten() {
            audit.add(result.0, result.1);
        }
        audit
    }

    #[test]
    fn adversarial_schedules_produce_atomic_snapshots() {
        for seed in [1, 7, 42, 1234] {
            let audit = adversarial_run(seed, 6);
            assert_eq!(audit.scan_count(), 18);
            assert_eq!(audit.update_count(), 18);
            let violations = audit.check();
            assert!(
                violations.is_empty(),
                "seed {seed} produced violations: {violations:?}"
            );
        }
    }

    #[test]
    fn scans_complete_despite_crashes() {
        let n = 3;
        let snap = AfekSnapshot::new(n, 0u64);
        let plan = CrashPlan::none(n).crash(0, 4).crash(1, 9);
        let sim = StepSim::new(n)
            .with_policy(SchedulePolicy::Random { seed: 99 })
            .with_crash_plan(plan);
        let report = sim.run(|ctx| {
            let snap = snap.clone();
            move || {
                let mut last = Vec::new();
                for k in 1..=5u64 {
                    snap.update(&ctx, ctx.pid(), k);
                    last = snap.scan(&ctx, ctx.pid());
                }
                last
            }
        });
        // The surviving process finishes its scans even though the other two
        // crashed mid-operation: wait-freedom.
        assert!(report.results[2].is_some());
        assert_eq!(report.results[2].as_ref().unwrap().len(), n);
    }

    #[test]
    fn audit_detects_fabricated_violations() {
        let mut audit = SnapshotAudit::new();
        audit.add(
            vec![
                ScanRecord {
                    pid: 0,
                    start: 0,
                    end: 1,
                    seqs: vec![1, 0],
                    borrowed: false,
                },
                ScanRecord {
                    pid: 1,
                    start: 2,
                    end: 3,
                    seqs: vec![0, 1],
                    borrowed: false,
                },
            ],
            vec![],
        );
        let violations = audit.check();
        assert!(violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::Incomparable { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::RealTimeRegression { .. })));
        assert!(!audit.is_clean());
        for v in violations {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn audit_detects_missed_and_future_updates() {
        let mut audit = SnapshotAudit::new();
        audit.add(
            vec![ScanRecord {
                pid: 0,
                start: 10,
                end: 12,
                seqs: vec![0, 3],
                borrowed: false,
            }],
            vec![
                UpdateRecord {
                    pid: 0,
                    start: 1,
                    end: 2,
                    seq: 1,
                },
                UpdateRecord {
                    pid: 1,
                    start: 20,
                    end: 22,
                    seq: 3,
                },
            ],
        );
        let violations = audit.check();
        assert!(violations.iter().any(|v| matches!(
            v,
            SnapshotViolation::MissedCompletedUpdate { updater: 0, .. }
        )));
        assert!(violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::SawFutureUpdate { updater: 1, .. })));
    }

    #[test]
    fn random_schedules_never_violate_atomicity() {
        // Deterministic property sweep (replaces the earlier proptest case
        // generator): parameters derived from a seeded generator.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xAFE4);
        for case in 0..16 {
            let seed = rng.gen_range(0..10_000u64);
            let iters = rng.gen_range(1..5u64);
            let audit = adversarial_run(seed, iters);
            assert!(
                audit.check().is_empty(),
                "case {case}: seed={seed} iters={iters}"
            );
        }
    }
}
