//! Concrete witness words used by the characterization experiments
//! (Theorem 5.2, Appendix A).
//!
//! Theorem 5.2 states that only real-time oblivious languages are decidable
//! against the asynchronous adversary A — for *any* decidability predicate.
//! The executable form of the theorem is a counterexample search: a member
//! word `α·β` together with a shuffle `α′` of `α`'s local projections such
//! that `α′·β` is not a member.  This module provides the witnesses the
//! paper uses (the Appendix A ledger history, and register/counter analogues)
//! in a two-process form small enough for exhaustive shuffle enumeration.

use drv_lang::{Invocation, ProcId, Response, Word, WordBuilder};

/// A member word of the ledger languages together with the split `|α|`,
/// following Appendix A: `p₁` appends 1, `p₂` appends 2 and reads the full
/// ledger, then both processes keep reading `[1, 2]`.
///
/// Reordering `α` so that `p₂`'s get precedes `p₁`'s append makes the get
/// return a record that has not been appended, which violates `LIN_LED`,
/// `SC_LED` and the validity clause of `EC_LED`.
#[must_use]
pub fn appendix_a_ledger_witness(extra_gets: usize) -> (Word, usize) {
    let mut builder = WordBuilder::new()
        .op(ProcId(0), Invocation::Append(1), Response::Ack)
        .op(ProcId(1), Invocation::Append(2), Response::Ack)
        .op(ProcId(1), Invocation::Get, Response::Sequence(vec![1, 2]));
    let split = 6;
    for _ in 0..extra_gets {
        builder = builder
            .op(ProcId(0), Invocation::Get, Response::Sequence(vec![1, 2]))
            .op(ProcId(1), Invocation::Get, Response::Sequence(vec![1, 2]));
    }
    (builder.build(), split)
}

/// A member word of `LIN_REG` / `SC_REG` with its split: `p₁` writes 1, `p₂`
/// reads 1, then both keep reading 1.
///
/// Reordering `α` so that the read precedes the write makes the read return a
/// value that was never written — the Lemma 5.1 phenomenon as an
/// obliviousness counterexample.
#[must_use]
pub fn register_witness(extra_reads: usize) -> (Word, usize) {
    let mut builder = WordBuilder::new()
        .op(ProcId(0), Invocation::Write(1), Response::Ack)
        .op(ProcId(1), Invocation::Read, Response::Value(1));
    let split = 4;
    for _ in 0..extra_reads {
        builder = builder
            .op(ProcId(0), Invocation::Read, Response::Value(1))
            .op(ProcId(1), Invocation::Read, Response::Value(1));
    }
    (builder.build(), split)
}

/// A member word of `SEC_COUNT` with its split: `p₁` increments, `p₂` reads
/// 1, then both keep reading 1.
///
/// Reordering `α` so the read precedes the increment violates the real-time
/// clause (4) of the strongly-eventual counter, whereas the weakly-eventual
/// counter accepts every interleaving (it is real-time oblivious).
#[must_use]
pub fn counter_witness(extra_reads: usize) -> (Word, usize) {
    let mut builder = WordBuilder::new()
        .op(ProcId(0), Invocation::Inc, Response::Ack)
        .op(ProcId(1), Invocation::Read, Response::Value(1));
    let split = 4;
    for _ in 0..extra_reads {
        builder = builder
            .op(ProcId(0), Invocation::Read, Response::Value(1))
            .op(ProcId(1), Invocation::Read, Response::Value(1));
    }
    (builder.build(), split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_consistency::languages::{
        ec_led, lin_led, lin_reg, sc_led, sc_reg, sec_count, wec_count,
    };
    use drv_core::oblivious_counterexample;
    use drv_lang::Language;

    #[test]
    fn ledger_witness_separates_the_ledger_languages() {
        let (word, split) = appendix_a_ledger_witness(2);
        assert!(lin_led(2).accepts_run(&word, split));
        assert!(sc_led(2).accepts_run(&word, split));
        assert!(ec_led().accepts_run(&word, split));
        assert!(oblivious_counterexample(&lin_led(2), 2, &word, split).is_some());
        assert!(oblivious_counterexample(&sc_led(2), 2, &word, split).is_some());
        assert!(oblivious_counterexample(&ec_led(), 2, &word, split).is_some());
    }

    #[test]
    fn register_witness_separates_the_register_languages() {
        let (word, split) = register_witness(2);
        assert!(lin_reg(2).accepts_run(&word, split));
        assert!(oblivious_counterexample(&lin_reg(2), 2, &word, split).is_some());
        assert!(oblivious_counterexample(&sc_reg(2), 2, &word, split).is_some());
    }

    #[test]
    fn counter_witness_separates_sec_from_wec() {
        let (word, split) = counter_witness(2);
        assert!(sec_count().accepts_run(&word, split));
        assert!(oblivious_counterexample(&sec_count(), 2, &word, split).is_some());
        // WEC_COUNT is real-time oblivious: no counterexample exists on this
        // witness.
        assert!(oblivious_counterexample(&wec_count(), 2, &word, split).is_none());
    }
}
