//! The streaming per-object monitor surface consumed by `drv-engine`: for
//! every [`ObjectId`], a self-contained state machine ([`ObjectMonitor`],
//! made by an [`ObjectMonitorFactory`]) that consumes the object's symbols
//! in order and reports a verdict after *every* one.  The canonical monitor
//! is a per-object [`IncrementalChecker`] deciding `LIN_O` or `SC_O`
//! ([`CheckerMonitorFactory`]), the reference of the engine's differential
//! suite.  It sits beside the checker so that the served crates need not
//! compile `drv-core`, which adapts the paper's monitor families to it.

use crate::incremental::{CheckOutcome, CheckerStats, IncrementalChecker};
use crate::CheckerConfig;
use drv_lang::{EventRecord, ObjectId, SharedInterner, Symbol, Verdict};
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
    records
        .iter()
        .map(|record| record.resolve(&interner))
        .collect()
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
    /// Reusable scratch for [`ObjectMonitor::on_batch`] outcomes.
    outcomes: Vec<CheckOutcome>,
}

impl<S: SequentialSpec> CheckerObjectMonitor<S> {
    /// Wraps a fresh checker for one object.
    #[must_use]
    pub fn new(checker: IncrementalChecker<S>) -> Self {
        CheckerObjectMonitor {
            checker,
            outcomes: Vec::new(),
        }
    }
}

impl<S: SequentialSpec> ObjectMonitor for CheckerObjectMonitor<S> {
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
        if self
            .checker
            .feed_records(records, arena, &mut self.outcomes)
        {
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

    fn create_in(&self, _object: ObjectId, arena: &SharedInterner) -> Box<dyn ObjectMonitor> {
        let checker = IncrementalChecker::with_arena(
            self.spec.clone(),
            self.config,
            self.processes,
            arena.clone(),
        );
        Box::new(CheckerObjectMonitor::new(checker))
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

impl From<CheckOutcome> for Verdict {
    /// The canonical reading of a consistency-checker outcome as a monitor
    /// verdict: consistent → YES, inconsistent → NO, budget-exhausted →
    /// MAYBE(0).
    fn from(outcome: CheckOutcome) -> Self {
        match outcome {
            CheckOutcome::Consistent => Verdict::Yes,
            CheckOutcome::Inconsistent => Verdict::No,
            CheckOutcome::Unknown => Verdict::Maybe(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{
        Action, Invocation, InvocationId, ProcId, Response, ResponseId, Word, WordBuilder,
        INLINE_VALUE_LIMIT,
    };
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
    fn checker_monitor_flags_stale_reads() {
        let factory =
            CheckerMonitorFactory::linearizability(Register::new(), 2).with_max_states(10_000);
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
        let sc = Arc::new(CheckerMonitorFactory::sequential_consistency(
            Register::new(),
            2,
        )) as Arc<dyn ObjectMonitorFactory>;
        let routed = RoutingMonitorFactory::new("mixed LIN/SC", move |object: ObjectId| {
            if object.0.is_multiple_of(2) {
                Arc::clone(&lin)
            } else {
                Arc::clone(&sc)
            }
        });
        assert_eq!(routed.name(), "mixed LIN/SC");
        // p0's write completes before p1 reads the initial value: SC (the
        // read orders first) but not linearizable (real time forbids it).
        let word = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(0))
            .build();
        let final_verdict = |object| {
            let mut monitor = routed.create(object);
            let mut verdicts = Vec::new();
            monitor.on_batch(word.symbols(), &mut verdicts);
            verdicts.last().copied()
        };
        assert_eq!(
            final_verdict(obj(0)),
            Some(Verdict::No),
            "even ids are checked for LIN"
        );
        assert_eq!(
            final_verdict(obj(1)),
            Some(Verdict::Yes),
            "odd ids are checked for SC"
        );
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
            let expected: Vec<Verdict> = symbols
                .iter()
                .map(|symbol| reference.on_symbol(symbol))
                .collect();
            let mut live = factory.create(obj(3));
            let mut chain = Vec::new();
            for split in 0..=symbols.len() {
                if split > 0 {
                    live.on_symbol(&symbols[split - 1]);
                }
                chain.push(live.checkpoint().expect("checker monitors checkpoint"));
                let mut restored = factory.create(obj(3));
                for bytes in &chain {
                    restored
                        .restore(bytes)
                        .expect("a checkpoint we wrote restores");
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
            skipped
                .restore(&chain[0])
                .expect("the chain's first link restores");
            assert!(matches!(
                skipped.restore(&chain[2]),
                Err(RestoreError::Invalid(_))
            ));
        }
    }

    #[test]
    fn a_factory_stores_each_payload_once_for_all_its_objects() {
        use std::collections::HashSet;
        let factory = CheckerMonitorFactory::linearizability(Register::new(), 2);
        let bystander = CheckerMonitorFactory::linearizability(Register::new(), 2);
        // 40 operations over the same 10 values, on every one of 64 objects;
        // five of the values are past the inline bound, so their writes and
        // reads take arena slots, and the other five, the read and the ack
        // are inline ids.
        let mut word = Word::new();
        for i in 0..20u64 {
            let value = i % 10 + 1 + if i % 10 < 5 { 0 } else { INLINE_VALUE_LIMIT };
            word.op(ProcId(0), Invocation::Write(value), Response::Ack);
            word.op(ProcId(1), Invocation::Read, Response::Value(value));
        }
        let scalar_only = CheckerMonitorFactory::linearizability(Register::new(), 2);
        for object in 0..64 {
            for (factory, word) in [(&factory, &word), (&scalar_only, &word.prefix(20))] {
                let mut monitor = factory.create(obj(object));
                let mut verdicts = Vec::new();
                monitor.on_batch(word.symbols(), &mut verdicts);
                assert!(verdicts.iter().all(|verdict| *verdict == Verdict::Yes));
            }
        }
        assert_eq!(
            scalar_only.arena.versions(),
            (0, 0),
            "scalar payloads take no slot"
        );
        let (mut invocations, mut responses) = (HashSet::new(), HashSet::new());
        for symbol in word.symbols() {
            match &symbol.action {
                Action::Invoke(invocation) if InvocationId::inline(invocation).is_none() => {
                    invocations.insert(invocation.clone())
                }
                Action::Respond(response) if ResponseId::inline(response).is_none() => {
                    responses.insert(response.clone())
                }
                _ => false,
            };
        }
        let distinct = (invocations.len(), responses.len());
        assert_eq!(distinct, (5, 5));
        assert_eq!(
            factory.arena.versions(),
            distinct,
            "once per factory, not per object"
        );
        assert_eq!(
            factory.clone().arena.versions(),
            distinct,
            "a clone shares the arena"
        );
        assert_eq!(
            bystander.arena.versions(),
            (0, 0),
            "factories do not share one"
        );

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
        assert_eq!(
            bystander.arena.versions(),
            (0, 0),
            "the engine's arena, not the factory's"
        );
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
}
