//! Real-time obliviousness (Definition 5.3) and the shuffle-closure test
//! behind the paper's characterization (Theorem 5.2).
//!
//! A language `L` is *real-time oblivious* when for every `αβ ∈ L` with `α`
//! finite and every interleaving `α' ∈ α|₁ ⧢ … ⧢ α|ₙ`, the word `α'β` is also
//! in `L`.  Theorem 5.2 states that every `P`-decidable language (for *any*
//! decidability predicate `P`) must be real-time oblivious, so exhibiting a
//! single non-oblivious witness `(α, β, α')` proves the language undecidable
//! against the asynchronous adversary `A` regardless of the verdict domain.
//!
//! Membership of infinite words is approximated finitarily through
//! [`Language::accepts_run`] with a cut at `|α|`: the finite continuation `β`
//! plays the role of the infinite suffix.

use crate::shuffle::Shuffle;
use drv_lang::{Language, Word};
use rand::Rng;
use std::fmt;

/// A counterexample to real-time obliviousness: a member word `α·β` and an
/// interleaving `α'` of `α`'s projections such that `α'·β` is not a member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousReport {
    /// The finite prefix `α` whose shuffle breaks membership.
    pub alpha: Word,
    /// The continuation `β` used as the (finite stand-in for the) suffix.
    pub beta: Word,
    /// The offending interleaving `α'`.
    pub alpha_shuffled: Word,
    /// Number of interleavings examined before the counterexample was found.
    pub examined: usize,
}

impl fmt::Display for ObliviousReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "α = {} ; shuffled α' = {} ; β = {} (after examining {} interleavings)",
            self.alpha, self.alpha_shuffled, self.beta, self.examined
        )
    }
}

/// Strategy for exploring the interleavings of `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleBudget {
    /// Enumerate every interleaving (exponential; fine for small `α`).
    Exhaustive,
    /// Sample this many random interleavings.
    Sampled(usize),
}

/// Tests a [`Language`] for real-time obliviousness on concrete witnesses.
#[derive(Debug, Clone, Copy)]
pub struct ObliviousnessTester {
    /// Number of monitor processes `n` (the projections taken of `α`).
    pub n: usize,
    /// How many interleavings to explore.
    pub budget: ShuffleBudget,
}

impl ObliviousnessTester {
    /// Creates a tester that enumerates all interleavings.
    #[must_use]
    pub fn exhaustive(n: usize) -> Self {
        ObliviousnessTester {
            n,
            budget: ShuffleBudget::Exhaustive,
        }
    }

    /// Creates a tester that samples `samples` random interleavings.
    #[must_use]
    pub fn sampled(n: usize, samples: usize) -> Self {
        ObliviousnessTester {
            n,
            budget: ShuffleBudget::Sampled(samples),
        }
    }

    /// Searches for a violation of real-time obliviousness for the split
    /// `word = α·β` at `|α| = split`.
    ///
    /// Returns `Ok(())` when no violation was found within the budget (which
    /// is *evidence of*, not proof of, obliviousness), and
    /// `Err(report)` when a counterexample interleaving was found.
    ///
    /// The word `α·β` itself must be a member (checked via
    /// [`Language::accepts_run`] with the cut at `split`); if it is not, the
    /// witness is vacuous and `Ok(())` is returned.
    ///
    /// # Errors
    ///
    /// Returns an [`ObliviousReport`] describing the first counterexample
    /// interleaving found.
    pub fn check_witness<L, R>(
        &self,
        language: &L,
        word: &Word,
        split: usize,
        rng: &mut R,
    ) -> Result<(), ObliviousReport>
    where
        L: Language + ?Sized,
        R: Rng + ?Sized,
    {
        let alpha = word.prefix(split);
        let beta = word.suffix(split);
        if !language.accepts_run(word, split) {
            return Ok(());
        }
        let shuffle = Shuffle::of_projections(&alpha, self.n);
        let mut examined = 0usize;
        let mut try_one = |alpha_shuffled: Word| -> Option<ObliviousReport> {
            examined += 1;
            let candidate = alpha_shuffled.concat(&beta);
            if !language.accepts_run(&candidate, split) {
                Some(ObliviousReport {
                    alpha: alpha.clone(),
                    beta: beta.clone(),
                    alpha_shuffled,
                    examined,
                })
            } else {
                None
            }
        };
        match self.budget {
            ShuffleBudget::Exhaustive => {
                for alpha_shuffled in shuffle.enumerate() {
                    if let Some(report) = try_one(alpha_shuffled) {
                        return Err(report);
                    }
                }
            }
            ShuffleBudget::Sampled(samples) => {
                for _ in 0..samples {
                    let alpha_shuffled = shuffle.sample(rng);
                    if let Some(report) = try_one(alpha_shuffled) {
                        return Err(report);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience wrapper: exhaustively searches for a real-time obliviousness
/// counterexample for the given member word split at `split`.
///
/// Returns `Some(report)` when the language is demonstrably *not* real-time
/// oblivious on this witness (and hence, by Theorem 5.2, not `P`-decidable
/// against the asynchronous adversary for any predicate `P`).
#[must_use]
pub fn oblivious_counterexample<L>(
    language: &L,
    n: usize,
    word: &Word,
    split: usize,
) -> Option<ObliviousReport>
where
    L: Language + ?Sized,
{
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    ObliviousnessTester::exhaustive(n)
        .check_witness(language, word, split, &mut rng)
        .err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{Action, Invocation, ProcId, Response, WordBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy *real-time sensitive* language: every `read` must return the
    /// number of `inc` invocations that appear before it in the word (i.e., it
    /// depends on the global interleaving, not only on the projections).
    struct ExactCounter;

    impl Language for ExactCounter {
        fn name(&self) -> String {
            "EXACT_COUNTER".into()
        }
        fn accepts_prefix(&self, prefix: &Word) -> bool {
            let mut incs = 0u64;
            let mut pending_read: Vec<(ProcId, u64)> = Vec::new();
            for s in prefix.iter() {
                match &s.action {
                    Action::Invoke(Invocation::Inc) => incs += 1,
                    Action::Invoke(Invocation::Read) => pending_read.push((s.proc, incs)),
                    Action::Respond(Response::Value(v)) => {
                        if let Some(pos) = pending_read.iter().position(|(p, _)| *p == s.proc) {
                            let (_, at_invoke) = pending_read.remove(pos);
                            if *v != at_invoke {
                                return false;
                            }
                        }
                    }
                    _ => {}
                }
            }
            true
        }
    }

    /// A toy *real-time oblivious* language: every `read` of a process returns
    /// the number of `inc` invocations of the same process before it (local
    /// property only).
    struct LocalCounter;

    impl Language for LocalCounter {
        fn name(&self) -> String {
            "LOCAL_COUNTER".into()
        }
        fn accepts_prefix(&self, prefix: &Word) -> bool {
            for p in prefix.procs() {
                let mut incs = 0u64;
                let local = prefix.project(p);
                let mut expected: Option<u64> = None;
                for s in &local.symbols {
                    match &s.action {
                        Action::Invoke(Invocation::Inc) => incs += 1,
                        Action::Invoke(Invocation::Read) => expected = Some(incs),
                        Action::Respond(Response::Value(v)) => {
                            if let Some(e) = expected.take() {
                                if *v != e {
                                    return false;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            true
        }
    }

    fn witness() -> Word {
        // p1 incs, then p2 reads 1: member of ExactCounter.
        WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .build()
    }

    #[test]
    fn real_time_sensitive_language_has_counterexample() {
        let w = witness();
        let report =
            oblivious_counterexample(&ExactCounter, 2, &w, w.len()).expect("should find violation");
        assert!(report.examined >= 1);
        assert!(!report.alpha_shuffled.is_empty());
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn oblivious_language_has_no_counterexample() {
        // For LocalCounter the same witness (adjusted to be a member) cannot be
        // broken by shuffling.
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(0))
            .build();
        assert!(oblivious_counterexample(&LocalCounter, 2, &w, w.len()).is_none());
    }

    #[test]
    fn non_member_witness_is_vacuous() {
        // A non-member word yields no counterexample by definition.
        let w = WordBuilder::new()
            .op(ProcId(1), Invocation::Read, Response::Value(5))
            .build();
        assert!(oblivious_counterexample(&ExactCounter, 2, &w, w.len()).is_none());
    }

    #[test]
    fn sampled_budget_also_finds_violations() {
        let w = witness();
        let mut rng = StdRng::seed_from_u64(5);
        let tester = ObliviousnessTester::sampled(2, 200);
        let result = tester.check_witness(&ExactCounter, &w, w.len(), &mut rng);
        assert!(result.is_err());
    }

    #[test]
    fn split_in_the_middle_keeps_beta() {
        let w = witness();
        let report = oblivious_counterexample(&ExactCounter, 2, &w, 2);
        // α = inc op, β = read op; shuffling α alone cannot break membership
        // here because α only involves p1.
        assert!(report.is_none());
    }
}
