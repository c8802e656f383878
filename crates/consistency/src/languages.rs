//! The seven distributed languages of Table 1, implemented as [`Language`]s.
//!
//! | Language | Definition | Implementation |
//! |---|---|---|
//! | `LIN_REG`  | Def. 2.4 | [`Linearizable`] over [`drv_spec::Register`] |
//! | `SC_REG`   | Def. 2.3 | [`SequentiallyConsistent`] over [`drv_spec::Register`] |
//! | `LIN_LED`  | Def. 2.6 | [`Linearizable`] over [`drv_spec::Ledger`] |
//! | `SC_LED`   | Def. 2.5 | [`SequentiallyConsistent`] over [`drv_spec::Ledger`] |
//! | `EC_LED`   | Def. 2.9 | [`EcLedger`] |
//! | `WEC_COUNT`| Def. 2.7 | [`WecCounter`] |
//! | `SEC_COUNT`| Def. 2.8 | [`SecCounter`] |
//!
//! Linearizability languages additionally exist for any total sequential
//! object (`LIN_O`, Section 6.2), via [`Linearizable::new`].

use crate::checker::{check_history, CheckerConfig, ConsistencyResult};
use crate::eventual::{
    check_ec_ledger_eventual, check_ec_ledger_validity, check_sec_realtime, check_wec_eventual,
    check_wec_safety,
};
use crate::history::ConcurrentHistory;
use drv_lang::{Language, RunVerdict, Word};
use drv_spec::{Ledger, Queue, Register, SequentialSpec, Stack};
use std::sync::Arc;

/// Abbreviates an object name the way the paper's language names do
/// (`register` → `REG`, `ledger` → `LED`, `counter` → `COUNT`).
fn object_abbreviation(name: &str) -> String {
    match name {
        "register" => "REG".into(),
        "ledger" => "LED".into(),
        "counter" => "COUNT".into(),
        other => other.to_uppercase(),
    }
}

/// The linearizability language `LIN_O` of a sequential object `O`: every
/// finite prefix of the word is linearizable with respect to `O`.
///
/// Linearizability is prefix-closed, so checking the full prefix is
/// equivalent to checking every prefix.
#[derive(Debug, Clone)]
pub struct Linearizable<S> {
    spec: S,
    n: usize,
    config: CheckerConfig,
}

impl<S: SequentialSpec> Linearizable<S> {
    /// Creates `LIN_O` for the given object and number of processes.
    pub fn new(spec: S, n: usize) -> Self {
        Linearizable {
            spec,
            n,
            config: CheckerConfig::linearizability(),
        }
    }

    /// Overrides the checker budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.config = self.config.with_max_states(max_states);
        self
    }

    /// The underlying sequential object.
    pub fn spec(&self) -> &S {
        &self.spec
    }
}

impl<S: SequentialSpec> Language for Linearizable<S> {
    fn name(&self) -> String {
        format!("LIN_{}", object_abbreviation(&self.spec.name()))
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        let history = ConcurrentHistory::from_word(prefix, self.n);
        // `Unknown` (budget exhausted) is treated as membership: the language
        // oracle never claims a violation it cannot exhibit.
        !matches!(
            check_history(&self.spec, &history, &self.config),
            ConsistencyResult::Inconsistent
        )
    }

    fn is_prefix_closed(&self) -> bool {
        true
    }

    fn judge_run(&self, word: &Word, _cut: usize) -> RunVerdict {
        RunVerdict::from_bool(self.accepts_prefix(word), || {
            format!("{}: the word is not linearizable", self.name())
        })
    }
}

/// The sequential-consistency language `SC_O`: every finite prefix of the word
/// is sequentially consistent with respect to `O`.
///
/// Unlike linearizability, sequential consistency is *not* prefix-closed, so
/// membership of a finite prefix requires checking every sub-prefix; only
/// prefixes ending in a response symbol can introduce violations (pending
/// invocations may always be dropped), so those are the ones checked.
#[derive(Debug, Clone)]
pub struct SequentiallyConsistent<S> {
    spec: S,
    n: usize,
    config: CheckerConfig,
}

impl<S: SequentialSpec> SequentiallyConsistent<S> {
    /// Creates `SC_O` for the given object and number of processes.
    pub fn new(spec: S, n: usize) -> Self {
        SequentiallyConsistent {
            spec,
            n,
            config: CheckerConfig::sequential_consistency(),
        }
    }

    /// Overrides the checker budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.config = self.config.with_max_states(max_states);
        self
    }

    fn prefix_is_sc(&self, prefix: &Word) -> bool {
        let history = ConcurrentHistory::from_word(prefix, self.n);
        !matches!(
            check_history(&self.spec, &history, &self.config),
            ConsistencyResult::Inconsistent
        )
    }
}

impl<S: SequentialSpec> Language for SequentiallyConsistent<S> {
    fn name(&self) -> String {
        format!("SC_{}", object_abbreviation(&self.spec.name()))
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        for (pos, symbol) in prefix.symbols().iter().enumerate() {
            if symbol.is_response() && !self.prefix_is_sc(&prefix.prefix(pos + 1)) {
                return false;
            }
        }
        true
    }

    fn is_prefix_closed(&self) -> bool {
        true
    }

    fn judge_run(&self, word: &Word, _cut: usize) -> RunVerdict {
        RunVerdict::from_bool(self.accepts_prefix(word), || {
            format!(
                "{}: some prefix is not sequentially consistent",
                self.name()
            )
        })
    }
}

/// The weakly-eventual consistent counter language `WEC_COUNT`
/// (Definition 2.7).
#[derive(Debug, Clone, Copy, Default)]
pub struct WecCounter;

impl WecCounter {
    /// Creates the `WEC_COUNT` language.
    #[must_use]
    pub fn new() -> Self {
        WecCounter
    }
}

impl Language for WecCounter {
    fn name(&self) -> String {
        "WEC_COUNT".into()
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        check_wec_safety(prefix).is_ok()
    }

    fn is_prefix_closed(&self) -> bool {
        false
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        check_wec_safety(word).is_ok() && check_wec_eventual(word, cut).is_ok()
    }

    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        match check_wec_safety(word).and_then(|()| check_wec_eventual(word, cut)) {
            Ok(()) => RunVerdict::Member,
            Err(reason) => RunVerdict::NonMember(format!("WEC_COUNT: {reason}")),
        }
    }
}

/// The strongly-eventual consistent counter language `SEC_COUNT`
/// (Definition 2.8).
#[derive(Debug, Clone, Copy, Default)]
pub struct SecCounter;

impl SecCounter {
    /// Creates the `SEC_COUNT` language.
    #[must_use]
    pub fn new() -> Self {
        SecCounter
    }
}

impl Language for SecCounter {
    fn name(&self) -> String {
        "SEC_COUNT".into()
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        check_wec_safety(prefix).is_ok() && check_sec_realtime(prefix).is_ok()
    }

    fn is_prefix_closed(&self) -> bool {
        false
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        self.accepts_prefix(word) && check_wec_eventual(word, cut).is_ok()
    }

    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        let outcome = check_wec_safety(word)
            .and_then(|()| check_sec_realtime(word))
            .and_then(|()| check_wec_eventual(word, cut));
        match outcome {
            Ok(()) => RunVerdict::Member,
            Err(reason) => RunVerdict::NonMember(format!("SEC_COUNT: {reason}")),
        }
    }
}

/// The eventually-consistent ledger language `EC_LED` (Definition 2.9).
#[derive(Debug, Clone, Copy, Default)]
pub struct EcLedger;

impl EcLedger {
    /// Creates the `EC_LED` language.
    #[must_use]
    pub fn new() -> Self {
        EcLedger
    }
}

impl Language for EcLedger {
    fn name(&self) -> String {
        "EC_LED".into()
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        check_ec_ledger_validity(prefix).is_ok()
    }

    fn is_prefix_closed(&self) -> bool {
        false
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        check_ec_ledger_validity(word).is_ok() && check_ec_ledger_eventual(word, cut).is_ok()
    }

    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        let outcome =
            check_ec_ledger_validity(word).and_then(|()| check_ec_ledger_eventual(word, cut));
        match outcome {
            Ok(()) => RunVerdict::Member,
            Err(reason) => RunVerdict::NonMember(format!("EC_LED: {reason}")),
        }
    }
}

/// `LIN_REG` — the linearizable register language (Definition 2.4).
#[must_use]
pub fn lin_reg(n: usize) -> Linearizable<Register> {
    Linearizable::new(Register::new(), n)
}

/// `SC_REG` — the sequentially consistent register language (Definition 2.3).
#[must_use]
pub fn sc_reg(n: usize) -> SequentiallyConsistent<Register> {
    SequentiallyConsistent::new(Register::new(), n)
}

/// `LIN_LED` — the linearizable ledger language (Definition 2.6).
#[must_use]
pub fn lin_led(n: usize) -> Linearizable<Ledger> {
    Linearizable::new(Ledger::new(), n)
}

/// `SC_LED` — the sequentially consistent ledger language (Definition 2.5).
#[must_use]
pub fn sc_led(n: usize) -> SequentiallyConsistent<Ledger> {
    SequentiallyConsistent::new(Ledger::new(), n)
}

/// `EC_LED` — the eventually consistent ledger language (Definition 2.9).
#[must_use]
pub fn ec_led() -> EcLedger {
    EcLedger::new()
}

/// `WEC_COUNT` — the weakly-eventual consistent counter (Definition 2.7).
#[must_use]
pub fn wec_count() -> WecCounter {
    WecCounter::new()
}

/// `SEC_COUNT` — the strongly-eventual consistent counter (Definition 2.8).
#[must_use]
pub fn sec_count() -> SecCounter {
    SecCounter::new()
}

/// `LIN_QUEUE` — linearizable FIFO queue (`LIN_O` with `O` = queue).
#[must_use]
pub fn lin_queue(n: usize) -> Linearizable<Queue> {
    Linearizable::new(Queue::new(), n)
}

/// `LIN_STACK` — linearizable LIFO stack (`LIN_O` with `O` = stack).
#[must_use]
pub fn lin_stack(n: usize) -> Linearizable<Stack> {
    Linearizable::new(Stack::new(), n)
}

/// All seven Table 1 languages, in the order of the table, as shared trait
/// objects (for harnesses that iterate over the whole table).
#[must_use]
pub fn table1_languages(n: usize) -> Vec<Arc<dyn Language>> {
    vec![
        Arc::new(lin_reg(n)),
        Arc::new(sc_reg(n)),
        Arc::new(lin_led(n)),
        Arc::new(sc_led(n)),
        Arc::new(ec_led()),
        Arc::new(wec_count()),
        Arc::new(sec_count()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{Invocation, ProcId, Response, WordBuilder};

    fn p(i: usize) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(lin_reg(2).name(), "LIN_REG");
        assert_eq!(sc_reg(2).name(), "SC_REG");
        assert_eq!(lin_led(2).name(), "LIN_LED");
        assert_eq!(sc_led(2).name(), "SC_LED");
        assert_eq!(ec_led().name(), "EC_LED");
        assert_eq!(wec_count().name(), "WEC_COUNT");
        assert_eq!(sec_count().name(), "SEC_COUNT");
        assert_eq!(lin_queue(2).name(), "LIN_QUEUE");
        assert_eq!(lin_stack(2).name(), "LIN_STACK");
        assert_eq!(table1_languages(2).len(), 7);
    }

    #[test]
    fn lin_reg_membership() {
        let good = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(1))
            .build();
        let bad = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        let l = lin_reg(2);
        assert!(l.accepts_prefix(&good));
        assert!(!l.accepts_prefix(&bad));
        assert!(l.judge_run(&good, 0).is_member());
        assert!(!l.judge_run(&bad, 0).is_member());
        assert!(l.is_prefix_closed());
    }

    #[test]
    fn sc_reg_checks_every_prefix() {
        // Full word is SC (order w(2), read, w(1)... wait program order) —
        // actually: p1 writes 1 then 2; p2 reads 2 in between them in real
        // time.  The *prefix* ending at the read (only w(1) available) is not
        // SC, so the word is not in SC_REG even though the full word is SC.
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(2))
            .op(p(0), Invocation::Write(2), Response::Ack)
            .build();
        let sc = sc_reg(2);
        // Sanity: the full word *is* sequentially consistent…
        assert!(sc.prefix_is_sc(&word));
        // …but SC_REG requires every prefix to be, and the prefix up to the
        // read is not.
        assert!(!sc.accepts_prefix(&word));
        assert!(!sc.judge_run(&word, 0).is_member());
    }

    #[test]
    fn sc_reg_accepts_stale_reads() {
        // Stale read: not linearizable but sequentially consistent.
        let word = WordBuilder::new()
            .op(p(0), Invocation::Write(1), Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        assert!(!lin_reg(2).accepts_prefix(&word));
        assert!(sc_reg(2).accepts_prefix(&word));
    }

    #[test]
    fn ledger_languages() {
        let good = WordBuilder::new()
            .op(p(0), Invocation::Append(1), Response::Ack)
            .op(p(1), Invocation::Get, Response::Sequence(vec![1]))
            .build();
        let stale = WordBuilder::new()
            .op(p(0), Invocation::Append(1), Response::Ack)
            .op(p(1), Invocation::Get, Response::Sequence(vec![]))
            .build();
        assert!(lin_led(2).accepts_prefix(&good));
        assert!(!lin_led(2).accepts_prefix(&stale));
        assert!(sc_led(2).accepts_prefix(&stale));
        assert!(ec_led().accepts_prefix(&stale));
        assert!(ec_led().accepts_run(&good, 2));
        // EC requires eventual visibility of record 1.
        assert!(!ec_led().accepts_run(&stale, 2));
    }

    #[test]
    fn counter_languages() {
        // p1 incs; afterwards everyone reads 0 forever: in neither language
        // once the cut has passed.
        let diverging = WordBuilder::new()
            .op(p(0), Invocation::Inc, Response::Ack)
            .op(p(1), Invocation::Read, Response::Value(0))
            .op(p(0), Invocation::Read, Response::Value(1))
            .op(p(1), Invocation::Read, Response::Value(0))
            .build();
        assert!(wec_count().accepts_prefix(&diverging));
        assert!(!wec_count().accepts_run(&diverging, 2));
        assert!(!sec_count().accepts_run(&diverging, 2));
        assert!(!wec_count().is_prefix_closed());

        // Future read: violates SEC immediately, WEC only at the limit.
        let future = WordBuilder::new()
            .op(p(1), Invocation::Read, Response::Value(5))
            .build();
        assert!(wec_count().accepts_prefix(&future));
        assert!(!sec_count().accepts_prefix(&future));
        assert!(!sec_count().judge_run(&future, 0).is_member());
    }

    #[test]
    fn lin_o_generalizes_to_queue_and_stack() {
        let queue_bad = WordBuilder::new()
            .op(p(0), Invocation::Enqueue(1), Response::Ack)
            .op(p(1), Invocation::Dequeue, Response::MaybeValue(Some(2)))
            .build();
        assert!(!lin_queue(2).accepts_prefix(&queue_bad));
        let stack_good = WordBuilder::new()
            .op(p(0), Invocation::Push(1), Response::Ack)
            .op(p(1), Invocation::Pop, Response::MaybeValue(Some(1)))
            .build();
        assert!(lin_stack(2).accepts_prefix(&stack_good));
    }

    #[test]
    fn judge_run_reports_reasons() {
        let bad = WordBuilder::new()
            .op(p(1), Invocation::Read, Response::Value(5))
            .build();
        match sec_count().judge_run(&bad, 0) {
            RunVerdict::NonMember(reason) => assert!(reason.contains("clause (4)")),
            RunVerdict::Member => panic!("expected rejection"),
        }
        match ec_led().judge_run(
            &WordBuilder::new()
                .op(p(1), Invocation::Get, Response::Sequence(vec![3]))
                .build(),
            0,
        ) {
            RunVerdict::NonMember(reason) => assert!(reason.contains("EC_LED")),
            RunVerdict::Member => panic!("expected rejection"),
        }
    }

    #[test]
    fn with_max_states_builder() {
        let l = lin_reg(2).with_max_states(10);
        assert_eq!(l.spec(), &Register::new());
        let s = sc_reg(2).with_max_states(10);
        assert_eq!(s.name(), "SC_REG");
    }
}
