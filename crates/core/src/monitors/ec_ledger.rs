//! A candidate monitor for the eventually-consistent ledger — doomed by
//! Lemma 6.5.
//!
//! `EC_LED` is not predictively weakly decidable (Lemma 6.5), so no correct
//! monitor for it exists.  [`EcLedgerGuessFamily`] is the natural *candidate*
//! one would write anyway: processes announce their appends in a shared
//! array, and a process reports NO when a `get()` it performed is missing a
//! record that had already been announced at the process's *previous*
//! iteration (a "grace period" of one full iteration for propagation), or
//! when the returned sequences of different processes are not
//! prefix-compatible.
//!
//! The monitor is *sound for the validity clause* and flags stale reads of
//! long-announced records, which makes it useful in practice — but the
//! Lemma 6.5 construction ([`crate::impossibility::lemma_6_5`]) shows
//! executably how the adversary alternates stale and fresh phases to make it
//! (or any other monitor) report NO on behaviours that are, in the limit,
//! eventually consistent.

use crate::monitor::{Monitor, MonitorFamily};
use std::borrow::Cow;
use crate::verdict::Verdict;
use drv_adversary::View;
use drv_lang::{Invocation, ProcId, Record, Response};
use drv_shmem::SharedArray;
use std::collections::BTreeSet;

/// The per-process candidate monitor for `EC_LED`.
#[derive(Debug)]
pub struct EcLedgerGuessMonitor {
    proc: ProcId,
    announced: SharedArray<BTreeSet<Record>>,
    own_appends: BTreeSet<Record>,
    previous_snapshot: BTreeSet<Record>,
    last_get: Option<Vec<Record>>,
    longest_get: SharedArray<Vec<Record>>,
    verdict: Verdict,
    /// Formatted once at construction; reporting borrows it.
    name: String,
}

impl EcLedgerGuessMonitor {
    /// Creates the local monitor of process `proc`.
    #[must_use]
    pub fn new(
        proc: ProcId,
        announced: SharedArray<BTreeSet<Record>>,
        longest_get: SharedArray<Vec<Record>>,
    ) -> Self {
        EcLedgerGuessMonitor {
            proc,
            announced,
            own_appends: BTreeSet::new(),
            previous_snapshot: BTreeSet::new(),
            last_get: None,
            longest_get,
            verdict: Verdict::Yes,
            name: format!("EC_LED candidate monitor at {proc}"),
        }
    }

    fn union_announced(&self) -> BTreeSet<Record> {
        self.announced
            .snapshot()
            .into_iter()
            .flatten()
            .collect()
    }
}

fn prefix_compatible(a: &[Record], b: &[Record]) -> bool {
    let shorter = a.len().min(b.len());
    a[..shorter] == b[..shorter]
}

impl Monitor for EcLedgerGuessMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn proc(&self) -> ProcId {
        self.proc
    }

    fn before_send(&mut self, _invocation: &Invocation) {}

    fn after_receive(
        &mut self,
        invocation: &Invocation,
        response: &Response,
        _view: Option<&View>,
    ) {
        self.verdict = Verdict::Yes;
        if let Invocation::Append(record) = invocation {
            // Publish the append once it has *completed*: a completed append
            // must eventually be visible to every get, and for atomic
            // ledgers it already is, so the visibility heuristic below never
            // raises a false alarm on correct atomic behaviour.
            self.own_appends.insert(*record);
            self.announced
                .write(self.proc.index(), self.own_appends.clone());
        }
        if invocation.is_get() {
            if let Response::Sequence(sequence) = response {
                // Validity heuristic: the sequences published by the
                // processes must be pairwise prefix-compatible.
                let published = self.longest_get.snapshot();
                if published
                    .iter()
                    .any(|other| !prefix_compatible(sequence, other))
                {
                    self.verdict = Verdict::No;
                }
                if self
                    .longest_get
                    .read(self.proc.index())
                    .len()
                    < sequence.len()
                {
                    self.longest_get.write(self.proc.index(), sequence.clone());
                }
                // Eventual-visibility heuristic: everything announced at the
                // previous iteration has had a full iteration to propagate.
                let returned: BTreeSet<Record> = sequence.iter().copied().collect();
                if self
                    .previous_snapshot
                    .iter()
                    .any(|record| !returned.contains(record))
                {
                    self.verdict = Verdict::No;
                }
                self.last_get = Some(sequence.clone());
            }
        }
        self.previous_snapshot = self.union_announced();
    }

    fn report(&mut self) -> Verdict {
        self.verdict
    }
}

/// The candidate distributed monitor for `EC_LED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EcLedgerGuessFamily;

impl EcLedgerGuessFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        EcLedgerGuessFamily
    }
}

impl MonitorFamily for EcLedgerGuessFamily {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("EC_LED candidate (announce + grace period)")
    }

    fn spawn(&self, n: usize) -> Vec<Box<dyn Monitor>> {
        let announced = SharedArray::new(n, BTreeSet::new());
        let longest_get = SharedArray::new(n, Vec::new());
        ProcId::all(n)
            .map(|proc| {
                Box::new(EcLedgerGuessMonitor::new(
                    proc,
                    announced.clone(),
                    longest_get.clone(),
                )) as Box<dyn Monitor>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SymbolSampler;
    use crate::runtime::{run, RunConfig, Schedule};
    use drv_adversary::{AtomicObject, ForgetfulLedger, ForkingLedger, ReplicatedLedger};
    use drv_consistency::languages::ec_led;
    use drv_lang::ObjectKind;
    use drv_spec::Ledger;

    fn ledger_config(n: usize, iterations: usize, seed: u64) -> RunConfig {
        RunConfig::new(n, iterations)
            .with_schedule(Schedule::Random { seed })
            .with_sampler(SymbolSampler::new(ObjectKind::Ledger).with_mutator_ratio(0.4))
            .with_sampler_seed(seed.wrapping_mul(3))
            .stop_mutators_after(iterations / 2)
    }

    #[test]
    fn atomic_ledger_runs_are_quiet() {
        let trace = run(
            &ledger_config(2, 40, 1),
            &EcLedgerGuessFamily::new(),
            Box::new(AtomicObject::new(Ledger::new())),
        );
        assert!(trace.is_member(&ec_led()));
        assert!(trace.no_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn replicated_ledger_runs_quiesce() {
        // The replicated ledger lags, so early NO reports are possible, but
        // once appends stop the candidate monitor goes quiet.
        let trace = run(
            &ledger_config(2, 60, 5),
            &EcLedgerGuessFamily::new(),
            Box::new(ReplicatedLedger::new(2)),
        );
        assert!(trace.is_member(&ec_led()));
        for p in 0..2 {
            let stream = trace.verdicts(p);
            assert!(stream.no_free_tail(stream.len() * 3 / 4));
        }
    }

    #[test]
    fn forgetful_ledger_keeps_getting_flagged() {
        let trace = run(
            &ledger_config(2, 60, 7),
            &EcLedgerGuessFamily::new(),
            Box::new(ForgetfulLedger::new()),
        );
        assert!(!trace.is_member(&ec_led()));
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn forking_ledger_violates_prefix_compatibility() {
        let trace = run(
            &ledger_config(2, 60, 9),
            &EcLedgerGuessFamily::new(),
            Box::new(ForkingLedger::new()),
        );
        assert!(trace.no_counts().iter().any(|&c| c > 0));
    }

    #[test]
    fn family_metadata() {
        let family = EcLedgerGuessFamily::new();
        assert!(family.name().contains("EC_LED"));
        assert!(!family.requires_views());
        assert_eq!(family.spawn(3).len(), 3);
    }
}
