use super::*;
use crate::checker::{check_history, validate_witness};
use crate::history::ConcurrentHistory;
use drv_lang::{CodecError, Interner, Invocation, Response, WordBuilder};
use drv_spec::{Counter, Queue, Register};

fn p(i: usize) -> ProcId {
    ProcId(i)
}

fn lin<S: SequentialSpec>(spec: S) -> IncrementalChecker<S> {
    IncrementalChecker::new(spec, CheckerConfig::linearizability(), 2)
}

#[test]
fn empty_history_is_consistent() {
    let mut checker = lin(Register::new());
    assert!(checker.check().is_consistent());
}

#[test]
fn symbol_by_symbol_register_run_uses_fast_paths() {
    let mut checker = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .op(p(0), Invocation::Write(2), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(2))
        .build();
    for symbol in word.symbols() {
        checker.push_symbol(symbol);
        assert!(checker.check().is_consistent());
    }
    let stats = checker.stats();
    // One DFS to seed the witness (first check); everything after is
    // witness maintenance.
    assert!(stats.dfs_runs <= 1, "{stats:?}");
    assert!(stats.splices >= 3, "{stats:?}");
}

#[test]
fn stale_read_is_flagged_and_latched() {
    let mut checker = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(0))
        .build();
    assert_eq!(checker.check_word(&word), ConsistencyResult::Inconsistent);
    // Extensions stay inconsistent without any further search.
    let extended = {
        let mut w = word.clone();
        w.op(p(0), Invocation::Write(2), Response::Ack);
        w
    };
    let dfs_before = checker.stats().dfs_runs;
    assert_eq!(
        checker.check_word(&extended),
        ConsistencyResult::Inconsistent
    );
    assert_eq!(checker.stats().dfs_runs, dfs_before);
    assert!(checker.stats().latched >= 1);
}

#[test]
fn sc_does_not_latch_and_can_recover() {
    // Not SC as long as nobody wrote 2 — but the later write legalizes
    // the read, so the verdict must flip back to consistent.
    let mut checker =
        IncrementalChecker::new(Register::new(), CheckerConfig::sequential_consistency(), 2);
    let bad = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(2))
        .build();
    assert_eq!(checker.check_word(&bad), ConsistencyResult::Inconsistent);
    let recovered = {
        let mut w = bad.clone();
        w.op(p(0), Invocation::Write(2), Response::Ack);
        w
    };
    assert!(checker.check_word(&recovered).is_consistent());
}

#[test]
fn verdicts_match_scratch_on_interleaved_queue() {
    let interleaved = WordBuilder::new()
        .invoke(p(0), Invocation::Enqueue(1))
        .invoke(p(1), Invocation::Enqueue(2))
        .respond(p(0), Response::Ack)
        .respond(p(1), Response::Ack)
        .op(p(0), Invocation::Dequeue, Response::MaybeValue(Some(2)))
        .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(1)))
        .build();
    // A dequeue left pending while another one completes: the search
    // both completes and drops the open operation.
    let pending = WordBuilder::new()
        .invoke(p(0), Invocation::Enqueue(1))
        .invoke(p(1), Invocation::Enqueue(2))
        .respond(p(0), Response::Ack)
        .respond(p(1), Response::Ack)
        .invoke(p(0), Invocation::Dequeue)
        .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(2)))
        .build();
    for word in [interleaved, pending] {
        let mut checker =
            IncrementalChecker::new(Queue::new(), CheckerConfig::linearizability(), 2);
        for len in 0..=word.len() {
            let prefix = word.prefix(len);
            let scratch = check_history(
                &Queue::new(),
                &ConcurrentHistory::from_word(&prefix, 2),
                &CheckerConfig::linearizability(),
            );
            let incremental = checker.check_word(&prefix);
            assert_eq!(
                incremental.is_consistent(),
                scratch.is_consistent(),
                "{word}, prefix length {len}"
            );
            assert_eq!(
                matches!(incremental, ConsistencyResult::Inconsistent),
                matches!(scratch, ConsistencyResult::Inconsistent),
                "{word}, prefix length {len}"
            );
            // Fresh engines search from the root every time.
            let fresh = IncrementalChecker::new(Queue::new(), CheckerConfig::linearizability(), 2)
                .check_word_outcome(&prefix);
            assert_eq!(
                fresh,
                checker.check_outcome(),
                "{word}, prefix length {len}"
            );
        }
    }
}

#[test]
fn produced_witnesses_validate() {
    let word = WordBuilder::new()
        .invoke(p(0), Invocation::Write(1))
        .invoke(p(1), Invocation::Read)
        .respond(p(1), Response::Value(1))
        .respond(p(0), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .build();
    let mut checker = lin(Register::new());
    let result = checker.check_word(&word);
    let witness = result.witness().expect("linearizable").clone();
    let history = ConcurrentHistory::from_word(&word, 2);
    assert!(validate_witness(&Register::new(), &history, &witness, true));
}

#[test]
fn non_extension_words_trigger_rebuild() {
    let mut checker = lin(Register::new());
    let first = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .build();
    let other = WordBuilder::new()
        .op(p(0), Invocation::Write(7), Response::Ack)
        .build();
    assert!(checker.check_word(&first).is_consistent());
    assert!(checker.check_word(&other).is_consistent());
    assert_eq!(checker.stats().rebuilds, 1);
}

#[test]
fn budget_exhaustion_reports_unknown() {
    let mut builder = WordBuilder::new();
    for i in 0..6 {
        builder = builder.invoke(ProcId(i), Invocation::Write(i as u64));
    }
    for i in 0..6 {
        builder = builder.respond(ProcId(i), Response::Ack);
    }
    let word = builder.build();
    let mut checker = IncrementalChecker::new(
        Register::new(),
        CheckerConfig::linearizability().with_max_states(1),
        6,
    );
    assert_eq!(checker.check_word(&word), ConsistencyResult::Unknown);
    // Unknown does not latch: a bigger budget resolves it.
    let mut roomy = IncrementalChecker::new(Register::new(), CheckerConfig::linearizability(), 6);
    assert!(roomy.check_word(&word).is_consistent());
}

#[test]
fn pending_rescue_keeps_the_witness_alive() {
    // A read observes a write that is still pending: appending the read
    // alone is illegal, but linearizing the open write first rescues
    // the witness without a search.
    let mut checker = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .build();
    assert!(checker.check_word(&word).is_consistent());
    let extended = {
        let mut w = word.clone();
        w.invoke(p(0), Invocation::Write(2)); // still pending
        w.invoke(p(1), Invocation::Read);
        w.respond(p(1), Response::Value(2)); // observed the pending write
        w
    };
    let dfs_before = checker.stats().dfs_runs;
    assert!(checker.check_word(&extended).is_consistent());
    let stats = checker.stats();
    assert_eq!(
        stats.dfs_runs, dfs_before,
        "rescue must avoid the search: {stats:?}"
    );
    assert!(stats.splices >= 1, "{stats:?}");
    // When the pending write finally acks, the assumed response matches
    // and the witness survives again.
    let completed = {
        let mut w = extended.clone();
        w.respond(p(0), Response::Ack);
        w
    };
    assert!(checker.check_word(&completed).is_consistent());
    assert_eq!(
        checker.stats().dfs_runs,
        dfs_before,
        "{:?}",
        checker.stats()
    );
}

#[test]
fn a_wrong_assumed_response_is_excised_and_respliced() {
    // The first check comes late, so the search linearizes the still
    // pending read first, with the response the specification gives it
    // there: [r→0, w1].  The read then answers 1: it cannot stay where
    // it is, leaves the order, and is spliced back in after the write —
    // all without a second search.
    let mut checker = lin(Register::new());
    for symbol in [
        Symbol::invoke(p(0), Invocation::Read),
        Symbol::invoke(p(1), Invocation::Write(1)),
        Symbol::respond(p(1), Response::Ack),
    ] {
        checker.push_symbol(&symbol);
    }
    let assumed = checker.check();
    let order = &assumed.witness().expect("linearizable").order;
    assert_eq!(order[0], (OpId(0), Response::Value(0)), "{order:?}");
    checker.push_symbol(&Symbol::respond(p(0), Response::Value(1)));
    let repaired = checker.check();
    let order = &repaired.witness().expect("linearizable").order;
    assert_eq!(
        order[..],
        [(OpId(1), Response::Ack), (OpId(0), Response::Value(1))]
    );
    let stats = checker.stats();
    assert_eq!((stats.dfs_runs, stats.splices), (1, 1), "{stats:?}");
}

#[test]
fn outcome_api_agrees_with_full_results() {
    let mut with_witness = lin(Register::new());
    let mut outcome_only = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .op(p(1), Invocation::Read, Response::Value(0))
        .build();
    for len in 0..=word.len() {
        let prefix = word.prefix(len);
        let full = with_witness.check_word(&prefix);
        let outcome = outcome_only.check_word_outcome(&prefix);
        assert_eq!(
            full.is_consistent(),
            outcome.is_consistent(),
            "prefix {len}"
        );
        assert_eq!(
            matches!(full, ConsistencyResult::Unknown),
            outcome == CheckOutcome::Unknown,
            "prefix {len}"
        );
    }
}

#[test]
fn checker_handles_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<IncrementalChecker<Register>>();
    assert_send::<IncrementalChecker<Queue>>();
}

#[test]
fn feed_batch_outcomes_match_per_symbol_feeding() {
    // Mixed traffic with a concurrency window and a stale read so the
    // batch crosses fast-path, splice and DFS territory; the recorded
    // outcome stream (and the stats) must be bit-identical to the
    // symbol-by-symbol loop, for both criteria and any batch split.
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .invoke(p(0), Invocation::Write(2))
        .invoke(p(1), Invocation::Read)
        .respond(p(1), Response::Value(2))
        .respond(p(0), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(0))
        .build();
    for config in [
        CheckerConfig::linearizability(),
        CheckerConfig::sequential_consistency(),
    ] {
        let mut reference = IncrementalChecker::new(Register::new(), config, 2);
        let expected: Vec<CheckOutcome> = word
            .symbols()
            .iter()
            .map(|symbol| {
                reference.push_symbol(symbol);
                reference.check_outcome()
            })
            .collect();
        for split in 0..=word.len() {
            let mut batched = IncrementalChecker::new(Register::new(), config, 2);
            let mut outcomes = Vec::new();
            batched.feed_batch(&word.symbols()[..split], &mut outcomes);
            batched.feed_batch(&word.symbols()[split..], &mut outcomes);
            assert_eq!(outcomes, expected, "split {split}, {config:?}");
            if split == 0 {
                assert_eq!(batched.stats(), reference.stats(), "{config:?}");
            }
            // The same run as records of the checker's own arena.
            let arena = SharedInterner::new();
            let records: Vec<EventRecord> = word
                .symbols()
                .iter()
                .map(|symbol| EventRecord::intern(drv_lang::ObjectId(0), symbol, &arena))
                .collect();
            let mut by_id = IncrementalChecker::with_arena(Register::new(), config, 2, arena);
            let mut outcomes = Vec::new();
            let foreign = SharedInterner::new();
            assert!(!by_id.feed_records(&records, &foreign, &mut outcomes));
            assert_eq!((outcomes.len(), by_id.symbols_consumed()), (0, 0));
            let arena = by_id.arena.clone();
            assert!(by_id.feed_records(&records[..split], &arena, &mut outcomes));
            assert!(by_id.feed_records(&records[split..], &arena, &mut outcomes));
            assert_eq!(outcomes, expected, "records, split {split}, {config:?}");
        }
    }
}

#[test]
fn checkpoint_roundtrip_resumes_bit_identically() {
    // A checker restored from a checkpoint taken at *every* prefix
    // length must agree with the uninterrupted one on the entire
    // suffix — clean streams, SC-recoverable dips and latched
    // violations alike, under both criteria.
    let clean = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .op(p(0), Invocation::Write(2), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(2))
        .build();
    let stale = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(0), Invocation::Write(2), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .op(p(1), Invocation::Read, Response::Value(2))
        .build();
    let latched = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(7))
        .op(p(0), Invocation::Write(2), Response::Ack)
        .build();
    for config in [
        CheckerConfig::linearizability(),
        CheckerConfig::sequential_consistency(),
    ] {
        for word in [&clean, &stale, &latched] {
            let symbols = word.symbols();
            // Restored into again and again after it has read the whole
            // word: a restore replaces everything a checker held.
            let mut reused = IncrementalChecker::new(Register::new(), config, 2);
            reused.check_word(word);
            for split in 0..=symbols.len() {
                let mut live = IncrementalChecker::new(Register::new(), config, 2);
                for symbol in &symbols[..split] {
                    live.push_symbol(symbol);
                    live.check();
                }
                let bytes = live.checkpoint_bytes();
                let mut restored = IncrementalChecker::new(Register::new(), config, 2);
                restored
                    .restore_bytes(&bytes)
                    .expect("a checkpoint we wrote restores");
                reused
                    .restore_bytes(&bytes)
                    .expect("a checkpoint we wrote restores");
                for symbol in &symbols[split..] {
                    live.push_symbol(symbol);
                    restored.push_symbol(symbol);
                    reused.push_symbol(symbol);
                    let expected = live.check();
                    assert_eq!(
                        restored.check(),
                        expected,
                        "split {split}: the restored checker diverged"
                    );
                    assert_eq!(
                        reused.check(),
                        expected,
                        "split {split}: the checker restored into diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn a_checker_and_its_restore_give_a_scalar_payload_its_inline_id() {
    use drv_lang::INLINE_VALUE_LIMIT;
    // Every scalar variant at the inline boundary, one operation each,
    // and two payloads that always take a slot.
    let mut word = WordBuilder::new();
    for value in [0, 1, INLINE_VALUE_LIMIT - 1, INLINE_VALUE_LIMIT, u64::MAX] {
        word = word
            .op(p(0), Invocation::Write(value), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(value))
            .op(p(0), Invocation::Enqueue(value), Response::MaybeValue(None))
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(value)))
            .op(p(0), Invocation::Push(value), Response::Ack)
            .op(p(1), Invocation::Pop, Response::Ack);
    }
    let word = word
        .op(p(0), Invocation::Inc, Response::Ack)
        .op(p(1), Invocation::Get, Response::Sequence(vec![1]))
        .op(
            p(0),
            Invocation::Custom("cas".into(), 1),
            Response::Custom("ok".into(), 0),
        )
        .build();
    let mut reference = Interner::new();
    for config in [
        CheckerConfig::linearizability(),
        CheckerConfig::sequential_consistency(),
    ] {
        let mut fed = IncrementalChecker::new(Register::new(), config, 2);
        fed.check_word(&word);
        // Restored on an arena whose first slots hold something else.
        let seeded = SharedInterner::new();
        seeded.invocation(&Invocation::Custom("other".into(), 0));
        seeded.response(&Response::Custom("other".into(), 0));
        let mut restored = IncrementalChecker::with_arena(Register::new(), config, 2, seeded);
        restored
            .restore_bytes(&fed.checkpoint_bytes())
            .expect("a checkpoint we wrote");
        let (fed_records, restored_records) =
            (fed.core.history.records(), restored.core.history.records());
        assert_eq!(fed_records.len(), word.operations().len());
        assert_eq!(restored_records.len(), fed_records.len());
        for ((record, again), operation) in fed_records
            .iter()
            .zip(restored_records)
            .zip(word.operations())
        {
            let (invocation, response) = (&operation.invocation, operation.response.as_ref());
            let response = response.expect("every operation completes");
            let inline = |value: u64| value < INLINE_VALUE_LIMIT;
            let expect_inline = match invocation {
                Invocation::Write(v) | Invocation::Enqueue(v) | Invocation::Push(v) => inline(*v),
                Invocation::Custom(..) => false,
                _ => true,
            };
            assert_eq!(record.invocation.is_inline(), expect_inline, "{invocation}");
            assert_eq!(
                record.invocation,
                reference.invocation(invocation),
                "{invocation}"
            );
            let id = record.response.expect("complete");
            assert_eq!(id, reference.response(response), "{response}");
            // The same inline ids on the other arena; slots resolve to
            // the same payloads there.
            assert_eq!(
                again.invocation == record.invocation,
                expect_inline,
                "{invocation}"
            );
            if id.is_inline() {
                assert_eq!(again.response, Some(id), "{response}");
            }
            let read = restored.arena.read();
            assert_eq!(*read.resolve_invocation(again.invocation), *invocation);
            assert_eq!(
                *read.resolve_response(again.response.expect("complete")),
                *response
            );
        }
        // Write, enqueue and push of the two values past the bound, and
        // the `Custom` invocation; the two values as `Value` and as
        // `MaybeValue`, the sequence and the `Custom` response.
        assert_eq!(fed.arena.versions(), (7, 6));
        assert_eq!(restored.arena.versions(), (8, 7));
    }
}

#[test]
fn orphans_are_keyed_by_their_producer_and_dropped_by_its_invocation() {
    use drv_lang::INLINE_VALUE_LIMIT;
    // Three thin-air reads: of an inline value, of a value past the
    // bound that another checker put in the shared arena, and of one the
    // arena has never seen.
    let (inline, seen, unseen) = (5, u64::MAX, INLINE_VALUE_LIMIT + 1);
    let arena = SharedInterner::new();
    arena.invocation(&Invocation::Write(seen));
    let config = CheckerConfig::sequential_consistency();
    let mut checker = IncrementalChecker::with_arena(Register::new(), config, 2, arena.clone());
    for value in [inline, seen, unseen] {
        checker.push_symbol(&Symbol::invoke(p(1), Invocation::Read));
        checker.push_symbol(&Symbol::respond(p(1), Response::Value(value)));
        assert_eq!(checker.check_outcome(), CheckOutcome::Inconsistent);
    }
    let keyed = |checker: &IncrementalChecker<Register>| {
        let orphans = &checker.core.orphans;
        (
            orphans.by_id.len(),
            orphans.unseen.len(),
            checker.core.orphan_owners(),
        )
    };
    assert_eq!(keyed(&checker), (2, 1, vec![false, true]));
    assert_eq!(checker.stats().dfs_runs, 0);
    // A restore rebuilds the same orphans.
    let mut restored = IncrementalChecker::with_arena(Register::new(), config, 2, arena);
    restored
        .restore_bytes(&checker.checkpoint_bytes())
        .expect("a checkpoint we wrote");
    assert_eq!(keyed(&restored), keyed(&checker));
    // Each write drops its own orphans, and only those; the last one
    // interns a payload the arena had never seen.
    let left = [(1, 1), (0, 1), (0, 0)];
    for (value, left) in [inline, seen, unseen].into_iter().zip(left) {
        for checker in [&mut checker, &mut restored] {
            checker.push_symbol(&Symbol::invoke(p(0), Invocation::Write(value)));
            let orphans = &checker.core.orphans;
            assert_eq!(
                (orphans.by_id.len(), orphans.unseen.len()),
                left,
                "write {value}"
            );
            checker.push_symbol(&Symbol::respond(p(0), Response::Ack));
        }
    }
    assert_eq!(checker.check_outcome(), CheckOutcome::Consistent);
    assert_eq!(restored.check_outcome(), CheckOutcome::Consistent);
}

#[test]
fn restore_rejects_malformed_checkpoints() {
    let mut checker = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .build();
    assert!(checker.check_word(&word).is_consistent());
    let bytes = checker.checkpoint_bytes();
    // Every strict prefix misses a required field.
    for cut in 0..bytes.len() {
        let mut fresh = lin(Register::new());
        assert!(
            fresh.restore_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix restored"
        );
    }
    // An unknown format version is refused before anything decodes.
    let mut versioned = bytes.clone();
    versioned[0] = 9;
    assert!(matches!(
        lin(Register::new()).restore_bytes(&versioned),
        Err(CheckpointError::BadVersion(9))
    ));
    // Undefined flag bits are refused.
    let mut flagged = bytes.clone();
    flagged[1] |= 0x80;
    assert!(matches!(
        lin(Register::new()).restore_bytes(&flagged),
        Err(CheckpointError::BadFlags(_))
    ));
    // Trailing bytes are refused (a checkpoint is exactly its payload).
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        lin(Register::new()).restore_bytes(&padded),
        Err(CheckpointError::TrailingBytes { remaining: 1 })
    ));
    // The uncorrupted payload still restores after all that.
    lin(Register::new())
        .restore_bytes(&bytes)
        .expect("pristine payload restores");
    // A register word a counter cannot replay: its read is legal there, its
    // write is not, so the replay fails at position 1, from the full form
    // and from a delta whose kept entry is the read.
    let mut register = lin(Register::new());
    let mut deltas = Vec::new();
    for (invocation, response) in [
        (Invocation::Read, Response::Value(0)),
        (Invocation::Write(1), Response::Ack),
    ] {
        register.push_symbol(&Symbol::invoke(p(0), invocation));
        register.push_symbol(&Symbol::respond(p(0), response));
        assert!(register.check_outcome().is_consistent());
        deltas.push(register.checkpoint_delta());
    }
    let full = register.checkpoint_bytes();
    let illegal = Err(CheckpointError::IllegalWitness { position: 1 });
    assert_eq!(lin(Counter::new()).restore_bytes(&full), illegal);
    let mut counter = lin(Counter::new());
    counter
        .restore_bytes(&deltas[0])
        .expect("a read replays on a counter");
    assert_eq!(counter.restore_bytes(&deltas[1]), illegal);
    // A witness entry that names an operation the history lacks: the last
    // entry, the write's (proc 0, index 1, then the one-byte `Ack`), with
    // its index made 7.
    let mut dangling = full.clone();
    let at = dangling.len() - 5;
    dangling[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        lin(Register::new()).restore_bytes(&dangling),
        Err(CheckpointError::UnknownOp {
            proc: 0,
            local_index: 7
        })
    );
}

/// A counter whose increment may answer `Ack` (what `apply` gives) or
/// the value it replaced: two legal responses for one step, both
/// leading to the state `apply` gives, as `step_if_legal` must.
#[derive(Debug, Clone)]
struct TwoFacedCounter;

impl SequentialSpec for TwoFacedCounter {
    type State = u64;

    fn name(&self) -> String {
        "two-faced counter".into()
    }

    fn kind(&self) -> drv_lang::ObjectKind {
        drv_lang::ObjectKind::Counter
    }

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, invocation: &Invocation) -> Option<(u64, Response)> {
        match invocation {
            Invocation::Inc => Some((state + 1, Response::Ack)),
            Invocation::Read => Some((*state, Response::Value(*state))),
            _ => None,
        }
    }

    fn step_if_legal(
        &self,
        state: &u64,
        invocation: &Invocation,
        response: &Response,
    ) -> Option<u64> {
        match (invocation, response) {
            (Invocation::Inc, Response::Value(old)) if old == state => Some(state + 1),
            _ => {
                let (next, expected) = self.apply(state, invocation)?;
                (expected == *response).then_some(next)
            }
        }
    }
}

/// Feeds `before` and checks, takes a delta, feeds `after` (which
/// changes a witness entry below the first delta's end) and checks,
/// takes another, and checks that the two restored in order give the
/// live state.
fn chain_across<S: SequentialSpec + Clone>(
    spec: S,
    before: &[Symbol],
    after: &[Symbol],
) -> CheckerStats {
    let mut live = lin(spec.clone());
    let mut feed = |symbols: &[Symbol]| {
        symbols.iter().for_each(|symbol| live.push_symbol(symbol));
        assert!(live.check_outcome().is_consistent());
        live.checkpoint_delta()
    };
    let first = feed(before);
    let second = feed(after);
    let mut restored = lin(spec);
    restored
        .restore_bytes(&first)
        .expect("the full form restores");
    restored
        .restore_bytes(&second)
        .expect("the delta extends it");
    assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
    live.stats()
}

#[test]
fn witness_entries_changed_in_place_reach_the_next_delta() {
    // Two legal responses: the first search linearizes the pending
    // increment the read observed with the `Ack` the specification gives
    // it; it answers with the old value instead.  Excised, it leaves the
    // read illegal, so the witness goes, and a second search from the old
    // order finds the same order with the observed response.
    let two_faced = chain_across(
        TwoFacedCounter,
        &[
            Symbol::invoke(p(0), Invocation::Inc),
            Symbol::invoke(p(1), Invocation::Read),
            Symbol::respond(p(1), Response::Value(1)),
        ],
        &[Symbol::respond(p(0), Response::Value(0))],
    );
    assert_eq!(
        (two_faced.dfs_runs, two_faced.splices),
        (2, 0),
        "{two_faced:?}"
    );
    // Excision: the search orders the pending read first, answering 0;
    // it answers 1, leaves the order's head and is spliced in behind
    // the write.
    let excised = chain_across(
        Register::new(),
        &[
            Symbol::invoke(p(0), Invocation::Read),
            Symbol::invoke(p(1), Invocation::Write(1)),
            Symbol::respond(p(1), Response::Ack),
        ],
        &[Symbol::respond(p(0), Response::Value(1))],
    );
    assert_eq!((excised.dfs_runs, excised.splices), (1, 1), "{excised:?}");
}

#[test]
fn a_delta_may_keep_only_the_witness_entries_held() {
    let mut live = lin(Register::new());
    let word = WordBuilder::new()
        .op(p(0), Invocation::Write(1), Response::Ack)
        .op(p(1), Invocation::Read, Response::Value(1))
        .build();
    assert!(live.check_word(&word).is_consistent());
    let full = live.checkpoint_delta();
    // Nothing happened since: no symbol, and both witness entries kept.
    let empty = live.checkpoint_delta();
    // Version, flags, eight counters, processes, base and the symbol
    // count come before the witness's `keep`.
    let keep_at = 1 + 1 + 8 * 8 + 4 + 4 + 4;
    assert_eq!(empty.len(), keep_at + 8);
    assert_eq!(empty[keep_at..], [2, 0, 0, 0, 0, 0, 0, 0]);
    let mut restored = lin(Register::new());
    restored
        .restore_bytes(&full)
        .expect("the full form restores");
    restored
        .restore_bytes(&empty)
        .expect("an empty delta extends it");
    assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
    let mut inflated = empty.clone();
    inflated[keep_at] = 3;
    assert!(matches!(
        restored.restore_bytes(&inflated),
        Err(CheckpointError::Codec(CodecError::LengthOverflow {
            claimed: 3,
            ..
        }))
    ));
}
