//! The streaming per-object monitor surface consumed by `drv-engine`.
//!
//! A monitoring engine ingests one interleaved stream of invocation/response
//! symbols per [`ObjectId`] and needs, for every object, a self-contained
//! state machine that consumes the object's symbols in order and yields a
//! verdict after each one.  This module defines that surface
//! ([`ObjectMonitor`] / [`ObjectMonitorFactory`]) and provides the two
//! canonical implementations:
//!
//! * [`CheckerMonitorFactory`] — a per-object [`IncrementalChecker`]: the
//!   object's language is `LIN_O` or `SC_O` for a sequential spec, checked
//!   directly.  This is the reference the engine's differential suite
//!   compares against.
//! * [`FamilyMonitorFactory`] — the adapter that lets any of the paper's
//!   [`MonitorFamily`] algorithms (Figure 5 `WEC_COUNT`, Figure 8 `V_O`,
//!   Figure 9 `SEC_COUNT`, …) run over an engine stream *unchanged*: for each
//!   object it spawns the family's `n` local monitors and replays the
//!   object's symbols as Figure 1 iterations, synthesizing the timed
//!   adversary Aτ's views (announce on invocation, snapshot on response) for
//!   view-requiring families.
//!
//! Verdict convention: an [`ObjectMonitor`] reports after *every* symbol;
//! before the first completed operation the verdict is whatever the
//! underlying algorithm reports on an empty history ([`Verdict::Maybe`]`(0)`
//! for family adapters that have not reported yet).

use crate::monitor::MonitorFamily;
use crate::verdict::Verdict;
use drv_adversary::{InvocationKey, View};
use drv_consistency::{CheckOutcome, CheckerConfig, CheckerStats, IncrementalChecker};
use drv_lang::{Action, EventRecord, Invocation, ObjectId, ProcId, SharedInterner, Symbol};
use drv_spec::SequentialSpec;
use std::borrow::Cow;
use std::sync::Arc;

/// A self-contained state machine monitoring one object's symbol stream.
///
/// Implementations are `Send` (engine shards migrate between worker
/// threads) and must be deterministic: the verdict sequence is a pure
/// function of the symbol sequence.  A monitor reports exactly one verdict
/// per symbol and nothing else — there is no closing verdict: the engine
/// retires a monitor by dropping it, and an object's `seq` is its event
/// index.
pub trait ObjectMonitor: Send {
    /// Human-readable name (for reports; allocation-free like
    /// [`crate::Monitor::name`]).
    fn name(&self) -> Cow<'_, str>;

    /// Consumes the next symbol of the object's stream, returning the
    /// verdict for the stream consumed so far.
    fn on_symbol(&mut self, symbol: &Symbol) -> Verdict;

    /// Consumes a run of consecutive symbols of the object's stream,
    /// appending exactly one verdict per symbol to `verdicts`.
    ///
    /// The appended verdicts MUST be bit-identical to calling
    /// [`ObjectMonitor::on_symbol`] once per symbol (the engine's
    /// differential suite holds implementations to it); the default does
    /// exactly that.  Override to amortize per-call work —
    /// [`CheckerObjectMonitor`] forwards the whole run to
    /// [`IncrementalChecker::feed_batch`].
    fn on_batch(&mut self, symbols: &[Symbol], verdicts: &mut Vec<Verdict>) {
        verdicts.reserve(symbols.len());
        for symbol in symbols {
            verdicts.push(self.on_symbol(symbol));
        }
    }

    /// [`ObjectMonitor::on_batch`] for a run of events interned in `arena`:
    /// the engine's event path.  The default resolves the run under one
    /// read guard, drops it and calls `on_batch`; [`CheckerObjectMonitor`]
    /// hands the ids of its own arena to [`IncrementalChecker::feed_records`].
    /// An override must not intern into `arena` while it holds a guard on it,
    /// nor keep one past its return.
    fn on_records(
        &mut self,
        records: &[EventRecord],
        arena: &SharedInterner,
        verdicts: &mut Vec<Verdict>,
    ) {
        self.on_batch(&resolve_run(records, arena), verdicts);
    }

    /// The underlying consistency-checker counters, when the monitor is
    /// backed by an [`IncrementalChecker`] (`None` for family adapters).
    fn checker_stats(&self) -> Option<CheckerStats> {
        None
    }

    /// Serializes what changed in the monitor's resumable state since its
    /// last checkpoint or restore (everything, the first time), for a
    /// durable checkpoint, or `None` when the monitor does not support
    /// checkpointing (the default — such objects are recovered by full
    /// journal replay instead).  A supporting implementation must
    /// round-trip through [`ObjectMonitor::restore`]: a fresh monitor that
    /// restores every payload this one returned, in order, gives verdicts
    /// on any symbol suffix bit-identical to this monitor's.
    fn checkpoint(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restores one payload of [`ObjectMonitor::checkpoint`]: into a
    /// freshly created monitor of the same factory for the first payload of
    /// a chain, then into the same monitor for each later one, in order.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Unsupported`] (the default) when the monitor cannot
    /// checkpoint; [`RestoreError::Invalid`] when the bytes are rejected —
    /// a payload that does not extend what the monitor has restored so far
    /// included.  On error the monitor must be discarded, not fed.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let _ = bytes;
        Err(RestoreError::Unsupported)
    }
}

/// A run of interned events as symbols, resolved under one read guard.
fn resolve_run(records: &[EventRecord], arena: &SharedInterner) -> Vec<Symbol> {
    let interner = arena.read();
    records.iter().map(|record| record.resolve(&interner)).collect()
}

/// Why [`ObjectMonitor::restore`] refused a checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The monitor kind does not support checkpointing at all.
    Unsupported,
    /// The payload was rejected (corrupt, wrong version, or produced by a
    /// monitor with a different spec/config); the message carries the
    /// underlying decoder's diagnosis.
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Unsupported => write!(f, "monitor does not support checkpoints"),
            RestoreError::Invalid(why) => write!(f, "checkpoint rejected: {why}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Creates the per-object monitors of an engine, one per [`ObjectId`] on
/// first sight of the object's traffic.
pub trait ObjectMonitorFactory: Send + Sync {
    /// Name of the monitor kind this factory produces.
    fn name(&self) -> Cow<'_, str>;

    /// Creates the monitor for `object`.
    fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor>;

    /// Creates the monitor for `object` on `arena`, whose ids its
    /// [`ObjectMonitor::on_records`] will be handed (an engine passes its
    /// own).  The default ignores the arena and calls `create`.
    fn create_in(&self, object: ObjectId, arena: &SharedInterner) -> Box<dyn ObjectMonitor> {
        let _ = arena;
        self.create(object)
    }
}

/// An [`ObjectMonitor`] that feeds the object's stream straight into an
/// [`IncrementalChecker`] — the engine-side equivalent of checking `LIN_O` /
/// `SC_O` per object.
pub struct CheckerObjectMonitor<S: SequentialSpec> {
    checker: IncrementalChecker<S>,
    name: String,
    /// Reusable scratch for [`ObjectMonitor::on_batch`] outcomes.
    outcomes: Vec<CheckOutcome>,
}

impl<S: SequentialSpec> CheckerObjectMonitor<S> {
    /// Wraps a fresh checker for one object.
    #[must_use]
    pub fn new(object: ObjectId, checker: IncrementalChecker<S>, criterion: &str) -> Self {
        CheckerObjectMonitor {
            name: format!("{criterion} checker for {object}"),
            checker,
            outcomes: Vec::new(),
        }
    }

    /// The wrapped checker's fast-path/fallback counters.
    #[must_use]
    pub fn stats(&self) -> CheckerStats {
        self.checker.stats()
    }
}

impl<S: SequentialSpec> ObjectMonitor for CheckerObjectMonitor<S> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn on_symbol(&mut self, symbol: &Symbol) -> Verdict {
        self.checker.push_symbol(symbol);
        Verdict::from(self.checker.check_outcome())
    }

    fn on_batch(&mut self, symbols: &[Symbol], verdicts: &mut Vec<Verdict>) {
        self.outcomes.clear();
        self.checker.feed_batch(symbols, &mut self.outcomes);
        verdicts.extend(self.outcomes.iter().map(|&outcome| Verdict::from(outcome)));
    }

    fn on_records(
        &mut self,
        records: &[EventRecord],
        arena: &SharedInterner,
        verdicts: &mut Vec<Verdict>,
    ) {
        self.outcomes.clear();
        if self.checker.feed_records(records, arena, &mut self.outcomes) {
            verdicts.extend(self.outcomes.iter().map(|&outcome| Verdict::from(outcome)));
        } else {
            self.on_batch(&resolve_run(records, arena), verdicts);
        }
    }

    fn checker_stats(&self) -> Option<CheckerStats> {
        Some(self.checker.stats())
    }

    fn checkpoint(&mut self) -> Option<Vec<u8>> {
        Some(self.checker.checkpoint_delta())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.checker
            .restore_bytes(bytes)
            .map_err(|err| RestoreError::Invalid(err.to_string()))
    }
}

/// Factory for [`CheckerObjectMonitor`]s: every object gets its own
/// long-lived incremental checker of the configured criterion.
///
/// A checker keeps ids, so a payload is stored once per arena its checkers
/// share: [`ObjectMonitorFactory::create_in`] builds on the arena it is
/// given (an engine's, whose decoded ids the checker keeps as they are),
/// `create` on the factory's own, which clones of the factory share.
#[derive(Debug, Clone)]
pub struct CheckerMonitorFactory<S> {
    spec: S,
    config: CheckerConfig,
    processes: usize,
    label: &'static str,
    arena: SharedInterner,
}

impl<S: SequentialSpec + Clone> CheckerMonitorFactory<S> {
    /// A linearizability factory for objects speaking `spec`'s alphabet,
    /// with `processes` client processes per object.
    #[must_use]
    pub fn linearizability(spec: S, processes: usize) -> Self {
        CheckerMonitorFactory {
            spec,
            config: CheckerConfig::linearizability(),
            processes,
            label: "LIN",
            arena: SharedInterner::new(),
        }
    }

    /// A sequential-consistency factory.
    #[must_use]
    pub fn sequential_consistency(spec: S, processes: usize) -> Self {
        CheckerMonitorFactory {
            spec,
            config: CheckerConfig::sequential_consistency(),
            processes,
            label: "SC",
            arena: SharedInterner::new(),
        }
    }

    /// Overrides the per-check node budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.config = self.config.with_max_states(max_states);
        self
    }

    /// The factory's own arena, the one `create` builds on.
    #[must_use]
    pub fn arena(&self) -> &SharedInterner {
        &self.arena
    }
}

impl<S: SequentialSpec + Clone + 'static> ObjectMonitorFactory for CheckerMonitorFactory<S> {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.label)
    }

    fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
        self.create_in(object, &self.arena)
    }

    fn create_in(&self, object: ObjectId, arena: &SharedInterner) -> Box<dyn ObjectMonitor> {
        let checker = IncrementalChecker::with_arena(
            self.spec.clone(),
            self.config,
            self.processes,
            arena.clone(),
        );
        Box::new(CheckerObjectMonitor::new(object, checker, self.label))
    }
}

/// An [`ObjectMonitorFactory`] that picks a delegate factory per object —
/// the way mixed fleets are assembled (e.g. even object ids checked for
/// linearizability, odd for sequential consistency, as the engine bench and
/// differential suite do).
pub struct RoutingMonitorFactory {
    route: Box<dyn Fn(ObjectId) -> Arc<dyn ObjectMonitorFactory> + Send + Sync>,
    name: String,
}

impl RoutingMonitorFactory {
    /// A factory that delegates each object's monitor creation to whatever
    /// factory `route` returns for it.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        route: impl Fn(ObjectId) -> Arc<dyn ObjectMonitorFactory> + Send + Sync + 'static,
    ) -> Self {
        RoutingMonitorFactory {
            route: Box::new(route),
            name: name.into(),
        }
    }
}

impl ObjectMonitorFactory for RoutingMonitorFactory {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

    fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
        (self.route)(object).create(object)
    }

    fn create_in(&self, object: ObjectId, arena: &SharedInterner) -> Box<dyn ObjectMonitor> {
        (self.route)(object).create_in(object, arena)
    }
}

/// The `MonitorFamily`-to-engine adapter: runs one instance of a distributed
/// monitor family per object, replaying the object's stream as Figure 1
/// iterations.
///
/// For view-requiring families the adapter plays the timed adversary Aτ for
/// the object's stream: every invocation is announced into a growing
/// [`View`] and every response snapshots it, which is exactly what
/// `TimedAdversary` does one object at a time.  The reported verdict after a
/// response is the report of the local monitor at the completing process —
/// each process speaks for its own Figure 1 loop.
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
    name: String,
}

impl FamilyObjectMonitor {
    /// Spawns `family`'s local monitors for one object with `n` processes.
    #[must_use]
    pub fn new(object: ObjectId, family: &dyn MonitorFamily, n: usize) -> Self {
        FamilyObjectMonitor {
            monitors: family.spawn(n),
            requires_views: family.requires_views(),
            view: View::new(),
            pending: vec![None; n],
            seqs: vec![0; n],
            last: None,
            name: format!("{} on {object}", family.name()),
        }
    }
}

impl ObjectMonitor for FamilyObjectMonitor {
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }

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

    fn create(&self, object: ObjectId) -> Box<dyn ObjectMonitor> {
        Box::new(FamilyObjectMonitor::new(
            object,
            self.family.as_ref(),
            self.processes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::{PredictiveFamily, SecCountFamily, WecCountFamily};
    use drv_lang::{Response, Word, WordBuilder};
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
    fn checker_monitor_tracks_the_incremental_checker() {
        let factory = CheckerMonitorFactory::linearizability(Register::new(), 2);
        let mut monitor = factory.create(obj(7));
        assert!(monitor.name().contains("obj#7"));
        let mut reference =
            IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 2);
        for symbol in register_word().symbols() {
            let verdict = monitor.on_symbol(symbol);
            reference.push_symbol(symbol);
            assert_eq!(verdict, Verdict::from(reference.check_outcome()));
        }
        assert_eq!(
            monitor.checker_stats().unwrap().checks,
            reference.stats().checks
        );
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
    fn checker_monitor_flags_stale_reads() {
        let factory = CheckerMonitorFactory::linearizability(Register::new(), 2)
            .with_max_states(10_000);
        let mut monitor = factory.create(obj(0));
        let word = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(0))
            .build();
        let mut verdicts = Vec::new();
        for symbol in word.symbols() {
            verdicts.push(monitor.on_symbol(symbol));
        }
        assert_eq!(verdicts.last(), Some(&Verdict::No));
    }

    #[test]
    fn routing_factory_dispatches_by_object() {
        let lin = Arc::new(CheckerMonitorFactory::linearizability(Register::new(), 2))
            as Arc<dyn ObjectMonitorFactory>;
        let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(Register::new(), 2))
            as Arc<dyn ObjectMonitorFactory>;
        let routed = RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
            if object.0.is_multiple_of(2) {
                Arc::clone(&lin)
            } else {
                Arc::clone(&sc)
            }
        });
        assert_eq!(routed.name(), "mixed LIN/SC");
        assert!(routed.create(obj(0)).name().contains("LIN"));
        assert!(routed.create(obj(1)).name().contains("SC"));
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
    fn monitor_checkpoint_restore_roundtrip() {
        // The durability contract of CheckerObjectMonitor: every checkpoint
        // so far, restored in order into a fresh monitor of the same
        // factory, then bit-identical verdicts on any suffix.
        let word = register_word();
        let symbols = word.symbols();
        for factory in [
            CheckerMonitorFactory::linearizability(Register::new(), 2),
            CheckerMonitorFactory::sequential_consistency(Register::new(), 2),
        ] {
            let mut reference = factory.create(obj(3));
            let expected: Vec<Verdict> =
                symbols.iter().map(|symbol| reference.on_symbol(symbol)).collect();
            let mut live = factory.create(obj(3));
            let mut chain = Vec::new();
            for split in 0..=symbols.len() {
                if split > 0 {
                    live.on_symbol(&symbols[split - 1]);
                }
                chain.push(live.checkpoint().expect("checker monitors checkpoint"));
                let mut restored = factory.create(obj(3));
                for bytes in &chain {
                    restored.restore(bytes).expect("a checkpoint we wrote restores");
                }
                for (symbol, want) in symbols[split..].iter().zip(&expected[split..]) {
                    assert_eq!(
                        restored.on_symbol(symbol),
                        *want,
                        "{}: split {split} diverged",
                        factory.name()
                    );
                }
            }
            // A checkpoint out of order extends the wrong state: refused.
            let mut skipped = factory.create(obj(3));
            skipped.restore(&chain[0]).expect("the chain's first link restores");
            assert!(matches!(skipped.restore(&chain[2]), Err(RestoreError::Invalid(_))));
        }
    }

    #[test]
    fn a_factory_stores_each_payload_once_for_all_its_objects() {
        use std::collections::HashSet;
        let factory = CheckerMonitorFactory::linearizability(Register::new(), 2);
        let bystander = CheckerMonitorFactory::linearizability(Register::new(), 2);
        // 40 operations over the same 10 values, on every one of 64 objects.
        let mut word = Word::new();
        for i in 0..20u64 {
            let value = i % 10 + 1;
            word.op(ProcId(0), Invocation::Write(value), Response::Ack);
            word.op(ProcId(1), Invocation::Read, Response::Value(value));
        }
        for object in 0..64 {
            let mut monitor = factory.create(obj(object));
            let mut verdicts = Vec::new();
            monitor.on_batch(word.symbols(), &mut verdicts);
            assert!(verdicts.iter().all(|verdict| *verdict == Verdict::Yes));
        }
        let (mut invocations, mut responses) = (HashSet::new(), HashSet::new());
        for symbol in word.symbols() {
            match &symbol.action {
                Action::Invoke(invocation) => invocations.insert(invocation.clone()),
                Action::Respond(response) => responses.insert(response.clone()),
            };
        }
        let distinct = (invocations.len(), responses.len());
        assert_eq!(factory.arena.versions(), distinct, "once per factory, not per object");
        assert_eq!(factory.clone().arena.versions(), distinct, "a clone shares the arena");
        assert_eq!(bystander.arena.versions(), (0, 0), "factories do not share one");

        // Created in an engine's arena and fed its records, the bystander's
        // monitors keep the engine's ids: its own arena stays empty.
        let engine_arena = SharedInterner::new();
        let records: Vec<EventRecord> = word
            .symbols()
            .iter()
            .map(|symbol| EventRecord::intern(obj(0), symbol, &engine_arena))
            .collect();
        for object in 0..64 {
            let mut monitor = bystander.create_in(obj(object), &engine_arena);
            let mut verdicts = Vec::new();
            monitor.on_records(&records, &engine_arena, &mut verdicts);
            assert!(verdicts.iter().all(|verdict| *verdict == Verdict::Yes));
        }
        assert_eq!(engine_arena.versions(), distinct, "once per engine");
        assert_eq!(bystander.arena.versions(), (0, 0), "the engine's arena, not the factory's");
    }

    /// A last-writer cell over user-defined payloads: `name(v)` stores `v`
    /// and answers `name:previous`, so no two operations of a test need share
    /// a payload, and the response the specification gives a pending
    /// operation is one the arena has not seen either.
    #[derive(Debug, Clone)]
    struct NamedCell;

    impl SequentialSpec for NamedCell {
        type State = u64;

        fn name(&self) -> String {
            "named cell".into()
        }

        fn kind(&self) -> drv_lang::ObjectKind {
            drv_lang::ObjectKind::Register
        }

        fn initial(&self) -> u64 {
            0
        }

        fn apply(&self, state: &u64, invocation: &Invocation) -> Option<(u64, Response)> {
            match invocation {
                Invocation::Custom(name, value) => {
                    Some((*value, Response::Custom(name.clone(), *state)))
                }
                _ => None,
            }
        }
    }

    /// Overlapping pairs of cell operations under names nobody else uses;
    /// the tenth operation answers with a value the cell never held.
    fn named_cell_stream(owner: &str) -> Vec<Symbol> {
        let mut symbols = Vec::new();
        let mut held = 0u64;
        for pair in 0..8u64 {
            let (a, b) = (2 * pair + 1, 2 * pair + 2);
            let name = |op: u64| format!("{owner}/op{op}");
            let observed = if a == 9 { 77 } else { held };
            symbols.extend([
                Symbol::invoke(ProcId(0), Invocation::Custom(name(a), a)),
                Symbol::invoke(ProcId(1), Invocation::Custom(name(b), b)),
                Symbol::respond(ProcId(0), Response::Custom(name(a), observed)),
                Symbol::respond(ProcId(1), Response::Custom(name(b), a)),
            ]);
            held = b;
        }
        symbols
    }

    #[test]
    fn threads_intern_into_one_factory_arena_without_deadlock() {
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;
        const THREADS: u64 = 4;
        const OBJECTS: u64 = 6;
        type Streams = Vec<(ObjectId, Vec<Verdict>)>;
        // One thread's share: its own objects, fed one symbol per visit
        // round-robin, so a run holds the arena's read guard while the other
        // threads want to write — for the fed payloads and, with operations
        // pending at every search, for the specification's responses.
        fn feed(factory: &dyn ObjectMonitorFactory, thread: u64) -> Streams {
            let mut objects: Vec<_> = (0..OBJECTS)
                .map(|i| {
                    let object = obj(thread * OBJECTS + i);
                    let stream = named_cell_stream(&format!("t{thread}/{object}"));
                    (object, factory.create(object), stream, Vec::new())
                })
                .collect();
            for at in 0..objects[0].2.len() {
                for (_, monitor, stream, verdicts) in &mut objects {
                    monitor.on_batch(&stream[at..=at], verdicts);
                }
            }
            objects
                .into_iter()
                .map(|(object, _, _, verdicts)| (object, verdicts))
                .collect()
        }
        for make in [
            CheckerMonitorFactory::linearizability,
            CheckerMonitorFactory::sequential_consistency,
        ] {
            let alone = make(NamedCell, 2);
            let expected: Vec<Streams> = (0..THREADS).map(|t| feed(&alone, t)).collect();
            let verdicts = expected.iter().flatten().flat_map(|(_, verdicts)| verdicts);
            assert!(verdicts.clone().any(|verdict| *verdict == Verdict::No));
            assert!(verdicts.clone().any(|verdict| *verdict == Verdict::Yes));

            let shared = Arc::new(make(NamedCell, 2));
            let start = Arc::new(Barrier::new(THREADS as usize));
            let (done, results) = mpsc::channel();
            for thread in 0..THREADS {
                let (shared, start, done) = (Arc::clone(&shared), Arc::clone(&start), done.clone());
                // Detached on purpose: a deadlocked thread must fail the
                // test below by message, not hang a join.
                std::thread::spawn(move || {
                    start.wait();
                    let streams = feed(shared.as_ref(), thread);
                    let _ = done.send((thread, streams));
                });
            }
            for _ in 0..THREADS {
                let (thread, streams) = results
                    .recv_timeout(Duration::from_secs(120))
                    .expect("a thread feeding monitors of a shared arena deadlocked or died");
                assert_eq!(
                    streams, expected[thread as usize],
                    "{} thread {thread}",
                    alone.label
                );
            }
            assert_eq!(
                shared.arena.versions(),
                alone.arena.versions(),
                "{}: the payloads of all threads' objects, each once",
                alone.label
            );
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
