//! The paper's [`MonitorFamily`] algorithms (Figure 5 `WEC_COUNT`, Figure 8
//! `V_O`, Figure 9 `SEC_COUNT`, …) on an engine stream, unchanged
//! ([`FamilyMonitorFactory`]).  The streaming surface itself
//! ([`ObjectMonitor`], the checker-backed factories) is `drv-consistency`'s,
//! re-exported here at its old paths.

use crate::monitor::MonitorFamily;
use crate::verdict::Verdict;
use drv_adversary::{InvocationKey, View};
pub use drv_consistency::stream::{
    CheckerMonitorFactory, CheckerObjectMonitor, ObjectMonitor, ObjectMonitorFactory, RestoreError,
    RoutingMonitorFactory,
};
use drv_lang::{Action, Invocation, ObjectId, ProcId, Symbol};
use std::borrow::Cow;
use std::sync::Arc;

/// The `MonitorFamily`-to-engine adapter: runs one instance of a distributed
/// monitor family per object, replaying the object's stream as Figure 1
/// iterations.
///
/// For view-requiring families the adapter plays the timed adversary Aτ for
/// the object's stream: every invocation is announced into a growing
/// [`View`] and every response snapshots it, which is exactly what
/// `TimedAdversary` does one object at a time.  The reported verdict after a
/// response is the report of the local monitor at the completing process —
/// each process speaks for its own Figure 1 loop; before any has reported,
/// the verdict is [`Verdict::Maybe`]`(0)`.
pub struct FamilyObjectMonitor {
    monitors: Vec<Box<dyn crate::Monitor>>,
    requires_views: bool,
    view: View,
    /// Per-process pending invocation (Figure 1 allows one open operation
    /// per process).
    pending: Vec<Option<Invocation>>,
    /// Per-process iteration counters for announce keys.
    seqs: Vec<u64>,
    last: Option<Verdict>,
}

impl FamilyObjectMonitor {
    /// Spawns `family`'s local monitors for one object with `n` processes.
    #[must_use]
    pub fn new(family: &dyn MonitorFamily, n: usize) -> Self {
        FamilyObjectMonitor {
            monitors: family.spawn(n),
            requires_views: family.requires_views(),
            view: View::new(),
            pending: vec![None; n],
            seqs: vec![0; n],
            last: None,
        }
    }
}

impl ObjectMonitor for FamilyObjectMonitor {
    fn on_symbol(&mut self, symbol: &Symbol) -> Verdict {
        let p = symbol.proc.0;
        assert!(
            p < self.monitors.len(),
            "symbol for {} but the family was spawned for {} processes",
            symbol.proc,
            self.monitors.len()
        );
        match &symbol.action {
            Action::Invoke(invocation) => {
                if self.pending[p].is_some() {
                    // Ill-formed at this point; skip, as history builders do.
                    return self.last.unwrap_or(Verdict::Maybe(0));
                }
                if self.requires_views {
                    // Figure 6, line 01: announce before forwarding.
                    let key = InvocationKey {
                        proc: ProcId(p),
                        seq: self.seqs[p],
                    };
                    self.view.insert(key, invocation.clone());
                }
                self.monitors[p].before_send(invocation);
                self.pending[p] = Some(invocation.clone());
            }
            Action::Respond(response) => {
                let Some(invocation) = self.pending[p].take() else {
                    return self.last.unwrap_or(Verdict::Maybe(0));
                };
                self.seqs[p] += 1;
                // Figure 6, lines 04–07: the response snapshots the announce
                // array.
                let view = self.requires_views.then(|| self.view.clone());
                self.monitors[p].after_receive(&invocation, response, view.as_ref());
                self.last = Some(self.monitors[p].report());
            }
        }
        self.last.unwrap_or(Verdict::Maybe(0))
    }
}

/// Factory for [`FamilyObjectMonitor`]s: one family instance (with fresh
/// shared memory) per object.
#[derive(Clone)]
pub struct FamilyMonitorFactory {
    family: Arc<dyn MonitorFamily + Send + Sync>,
    processes: usize,
}

impl FamilyMonitorFactory {
    /// Adapts `family` for engine streams whose objects each serve
    /// `processes` client processes.
    #[must_use]
    pub fn new(family: Arc<dyn MonitorFamily + Send + Sync>, processes: usize) -> Self {
        FamilyMonitorFactory { family, processes }
    }
}

impl ObjectMonitorFactory for FamilyMonitorFactory {
    fn name(&self) -> Cow<'_, str> {
        self.family.name()
    }

    fn create(&self, _object: ObjectId) -> Box<dyn ObjectMonitor> {
        Box::new(FamilyObjectMonitor::new(self.family.as_ref(), self.processes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::{PredictiveFamily, SecCountFamily, WecCountFamily};
    use drv_lang::{EventRecord, Response, SharedInterner, Word, WordBuilder};
    use drv_spec::Register;

    fn obj(i: u64) -> ObjectId {
        ObjectId(i)
    }

    fn register_word() -> Word {
        WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .op(ProcId(0), Invocation::Write(2), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(2))
            .build()
    }

    #[test]
    fn on_batch_matches_per_symbol_feeding() {
        let word = register_word();
        let factories: Vec<Box<dyn ObjectMonitorFactory>> = vec![
            Box::new(CheckerMonitorFactory::linearizability(Register::new(), 2)),
            Box::new(CheckerMonitorFactory::sequential_consistency(Register::new(), 2)),
            Box::new(FamilyMonitorFactory::new(
                Arc::new(PredictiveFamily::linearizable(Register::new())),
                2,
            )),
        ];
        for factory in factories {
            let mut by_symbol = factory.create(obj(5));
            let expected: Vec<Verdict> = word
                .symbols()
                .iter()
                .map(|symbol| by_symbol.on_symbol(symbol))
                .collect();
            let arena = SharedInterner::new();
            let records: Vec<EventRecord> = word
                .symbols()
                .iter()
                .map(|symbol| EventRecord::intern(obj(5), symbol, &arena))
                .collect();
            for split in 0..=word.symbols().len() {
                let mut by_batch = factory.create(obj(5));
                let mut verdicts = Vec::new();
                by_batch.on_batch(&word.symbols()[..split], &mut verdicts);
                by_batch.on_batch(&word.symbols()[split..], &mut verdicts);
                assert_eq!(verdicts, expected, "{} split {split}", factory.name());
                let mut by_records = factory.create_in(obj(5), &arena);
                let mut verdicts = Vec::new();
                by_records.on_records(&records[..split], &arena, &mut verdicts);
                by_records.on_records(&records[split..], &arena, &mut verdicts);
                assert_eq!(verdicts, expected, "{} records, split {split}", factory.name());
            }
        }
    }

    #[test]
    fn family_adapter_runs_figure8_unchanged() {
        // The Figure 8 family (view-requiring) over a clean register stream:
        // every completed operation reports YES.
        let factory = FamilyMonitorFactory::new(
            Arc::new(PredictiveFamily::linearizable(Register::new())),
            2,
        );
        assert!(factory.name().contains("Figure 8"));
        let mut monitor = factory.create(obj(3));
        let mut last = Verdict::Maybe(0);
        for symbol in register_word().symbols() {
            last = monitor.on_symbol(symbol);
        }
        assert_eq!(last, Verdict::Yes);
        assert!(monitor.checker_stats().is_none());
    }

    #[test]
    fn family_adapter_reports_maybe_before_any_operation_completes() {
        let factory = FamilyMonitorFactory::new(Arc::new(WecCountFamily::new()), 2);
        let mut monitor = factory.create(obj(1));
        let verdict = monitor.on_symbol(&Symbol {
            proc: ProcId(0),
            action: Action::Invoke(Invocation::Inc),
        });
        assert_eq!(verdict, Verdict::Maybe(0));
    }

    #[test]
    fn family_adapter_feeds_counter_families() {
        // WEC_COUNT and SEC_COUNT over a correct counter stream stay YES on
        // the tail (the families plug in unchanged).
        let word = WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .op(ProcId(0), Invocation::Read, Response::Value(1))
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .build();
        for factory in [
            FamilyMonitorFactory::new(Arc::new(WecCountFamily::new()), 2),
            FamilyMonitorFactory::new(Arc::new(SecCountFamily::new()), 2),
        ] {
            let mut monitor = factory.create(obj(0));
            let mut last = Verdict::Maybe(0);
            for symbol in word.symbols() {
                last = monitor.on_symbol(symbol);
            }
            assert_eq!(last, Verdict::Yes, "{}", factory.name());
        }
    }

    #[test]
    fn monitor_restore_rejects_garbage_and_family_monitors_opt_out() {
        let factory = CheckerMonitorFactory::linearizability(Register::new(), 2);
        let mut fresh = factory.create(obj(1));
        assert!(
            matches!(fresh.restore(b"not a checkpoint"), Err(RestoreError::Invalid(_))),
            "garbage must be refused, never fed"
        );
        // Family monitors do not checkpoint: recovery must fall back to
        // full replay for them.
        let family = FamilyMonitorFactory::new(
            Arc::new(PredictiveFamily::linearizable(Register::new())),
            2,
        );
        let mut monitor = family.create(obj(2));
        assert!(monitor.checkpoint().is_none());
        assert_eq!(monitor.restore(&[]), Err(RestoreError::Unsupported));
    }
}
