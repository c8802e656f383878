//! The decidability definitions of the paper, as executable evaluators over
//! finite traces.
//!
//! The paper defines four two-valued decidability notions:
//!
//! * **Strong decidability** (Definition 4.1): `x(E) ∈ L ⟺ ∀p, NO(E,p) = 0`.
//! * **Weak decidability** (Definition 4.4, the common form of WAD = WOD,
//!   Theorem 4.1): membership ⟹ every process reports NO finitely often;
//!   non-membership ⟹ every process reports NO infinitely often.
//! * **Predictive strong decidability** (Definition 6.1, against Aτ):
//!   membership allows NO reports only when the sketch x∼(E) itself violates
//!   the language (the "justified false negative").
//! * **Predictive weak decidability** (Definition 6.2, against Aτ): the weak
//!   analogue.
//!
//! On finite runs, "infinitely often" and "finitely often" are read through a
//! *tail*: a NO is "persistent" when it still occurs in the last
//! `1 − tail_fraction` of a process's reports.  The tail fraction is a
//! parameter of every experiment and is reported alongside the results (see
//! `crates/bench/src/table1.rs`, the Table 1 harness).
//!
//! [`Decider`] bundles a language with the evaluation parameters;
//! [`Decider::evaluate`] checks one trace against one notion and says whether the
//! implication required by the definition holds for that run.  The Table 1
//! harness aggregates these outcomes over many runs per cell.

use crate::trace::{AdversaryMode, ExecutionTrace};
use drv_adversary::SketchError;
use drv_lang::Language;
use std::fmt;
use std::sync::Arc;

/// The decidability notion being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Notion {
    /// Strong decidability (Definition 4.1).
    Strong,
    /// Weak-all decidability (Definition 4.2): membership ⟺ every process
    /// reports NO finitely often (so non-membership only requires *some*
    /// process to keep reporting NO).  This is what the raw Figure 5/9
    /// monitors guarantee before the Lemma 4.2 transformation.
    WeakAll,
    /// Weak-one decidability (Definition 4.3): membership ⟺ some process
    /// reports NO finitely often.
    WeakOne,
    /// Weak decidability (Definition 4.4), the common strengthened form of
    /// WAD = WOD established by Theorem 4.1.
    Weak,
    /// Predictive strong decidability against Aτ (Definition 6.1).
    PredictiveStrong,
    /// Predictive weak decidability against Aτ (Definition 6.2).
    PredictiveWeak,
}

impl Notion {
    /// The four notions of Table 1, in column order.
    pub const TABLE1: [Notion; 4] = [
        Notion::Strong,
        Notion::Weak,
        Notion::PredictiveStrong,
        Notion::PredictiveWeak,
    ];

    /// All six notions defined in the paper.
    pub const ALL: [Notion; 6] = [
        Notion::Strong,
        Notion::WeakAll,
        Notion::WeakOne,
        Notion::Weak,
        Notion::PredictiveStrong,
        Notion::PredictiveWeak,
    ];

    /// The short column label used by Table 1.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Notion::Strong => "SD",
            Notion::WeakAll => "WAD",
            Notion::WeakOne => "WOD",
            Notion::Weak => "WD",
            Notion::PredictiveStrong => "PSD",
            Notion::PredictiveWeak => "PWD",
        }
    }

    /// Whether the notion is defined against the timed adversary Aτ.
    #[must_use]
    pub fn requires_views(self) -> bool {
        matches!(self, Notion::PredictiveStrong | Notion::PredictiveWeak)
    }
}

impl fmt::Display for Notion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of evaluating one trace against one decidability notion.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The notion evaluated.
    pub notion: Notion,
    /// Whether x(E) belongs to the language (at the trace's cut).
    pub member: bool,
    /// Whether the sketch x∼(E) belongs to the language (timed runs only).
    pub sketch_member: Option<bool>,
    /// Whether the implication required by the notion held on this run.
    pub holds: bool,
    /// Human-readable explanation.
    pub detail: String,
}

impl Evaluation {
    fn ok(notion: Notion, member: bool, sketch_member: Option<bool>, detail: String) -> Self {
        Evaluation {
            notion,
            member,
            sketch_member,
            holds: true,
            detail,
        }
    }

    fn fail(notion: Notion, member: bool, sketch_member: Option<bool>, detail: String) -> Self {
        Evaluation {
            notion,
            member,
            sketch_member,
            holds: false,
            detail,
        }
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({})",
            self.notion,
            if self.holds { "holds" } else { "VIOLATED" },
            self.detail
        )
    }
}

/// A language together with the finite-run evaluation parameters.
#[derive(Clone)]
pub struct Decider {
    language: Arc<dyn Language>,
    tail_fraction: f64,
}

impl Decider {
    /// Creates a decider for `language` with the default tail fraction 0.75
    /// (the last quarter of each process's reports is the "tail").
    #[must_use]
    pub fn new(language: Arc<dyn Language>) -> Self {
        Decider {
            language,
            tail_fraction: 0.75,
        }
    }

    /// Sets the tail fraction in `[0, 1]`.
    #[must_use]
    pub fn with_tail_fraction(mut self, fraction: f64) -> Self {
        self.tail_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// The language being decided.
    #[must_use]
    pub fn language(&self) -> &Arc<dyn Language> {
        &self.language
    }

    /// The language's name.
    #[must_use]
    pub fn language_name(&self) -> String {
        self.language.name()
    }

    /// Evaluates `trace` against `notion`.
    ///
    /// # Errors
    ///
    /// Returns a [`SketchError`] when a predictive notion is evaluated and the
    /// trace's views are inconsistent (a runtime bug, not a property of the
    /// monitored service).
    ///
    /// # Panics
    ///
    /// Panics when a predictive notion is evaluated on a trace produced
    /// against the plain adversary A.
    pub fn evaluate(&self, trace: &ExecutionTrace, notion: Notion) -> Result<Evaluation, SketchError> {
        if notion.requires_views() {
            assert!(
                trace.mode() == AdversaryMode::Timed,
                "{notion} is defined against the timed adversary Aτ"
            );
        }
        let member = trace.is_member(self.language.as_ref());
        let sketch_member = if trace.mode() == AdversaryMode::Timed {
            trace.sketch_is_member(self.language.as_ref())?
        } else {
            None
        };
        let no_counts = trace.no_counts();
        let tail_starts = trace.tail_start(self.tail_fraction);
        let tail_no: Vec<usize> = trace
            .all_verdicts()
            .iter()
            .zip(tail_starts.iter())
            .map(|(stream, &start)| stream.no_count_from(start))
            .collect();

        let evaluation = match notion {
            Notion::Strong => {
                // x ∈ L ⟺ ∀p NO(E,p) = 0.
                let all_silent = no_counts.iter().all(|&c| c == 0);
                if member == all_silent {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("member={member}, NO counts {no_counts:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        format!(
                            "member={member} but NO counts are {no_counts:?} (strong decidability needs NO-silence exactly on members)"
                        ),
                    )
                }
            }
            Notion::WeakAll => {
                // member ⟺ ∀p finitely many NO (Definition 4.2).
                let all_finite = tail_no.iter().all(|&c| c == 0);
                if member == all_finite {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("member={member}, tail NO counts {tail_no:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        format!(
                            "member={member} but tail NO counts are {tail_no:?} (weak-all decidability needs NO-quiescence exactly on members)"
                        ),
                    )
                }
            }
            Notion::WeakOne => {
                // member ⟺ ∃p finitely many NO (Definition 4.3).
                let some_finite = tail_no.contains(&0);
                if member == some_finite {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("member={member}, tail NO counts {tail_no:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        format!(
                            "member={member} but tail NO counts are {tail_no:?} (weak-one decidability needs some NO-quiescent process exactly on members)"
                        ),
                    )
                }
            }
            Notion::Weak => {
                // member ⟹ ∀p finitely many NO; non-member ⟹ ∀p infinitely many NO.
                if member {
                    if tail_no.iter().all(|&c| c == 0) {
                        Evaluation::ok(
                            notion,
                            member,
                            sketch_member,
                            format!("member, tail NO counts {tail_no:?}"),
                        )
                    } else {
                        Evaluation::fail(
                            notion,
                            member,
                            sketch_member,
                            format!("member but NO persists in the tail: {tail_no:?}"),
                        )
                    }
                } else if tail_no.iter().all(|&c| c > 0) {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("non-member, every process keeps reporting NO: {tail_no:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        format!("non-member but some process stops reporting NO: {tail_no:?}"),
                    )
                }
            }
            Notion::PredictiveStrong => {
                // member ⟹ (∀p NO = 0) ∨ (some p reported NO ∧ x∼(E) ∉ L);
                // non-member ⟹ ∃p NO > 0.
                let all_silent = no_counts.iter().all(|&c| c == 0);
                let some_no = no_counts.iter().any(|&c| c > 0);
                let sketch_in = sketch_member.unwrap_or(true);
                if member {
                    if all_silent || (some_no && !sketch_in) {
                        Evaluation::ok(
                            notion,
                            member,
                            sketch_member,
                            format!(
                                "member, NO counts {no_counts:?}, sketch member = {sketch_in} (false negatives must be justified by the sketch)"
                            ),
                        )
                    } else {
                        Evaluation::fail(
                            notion,
                            member,
                            sketch_member,
                            format!(
                                "member, some process reported NO but the sketch is also a member (unjustified false negative): NO counts {no_counts:?}"
                            ),
                        )
                    }
                } else if some_no {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("non-member detected, NO counts {no_counts:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        "non-member but no process ever reported NO".to_string(),
                    )
                }
            }
            Notion::PredictiveWeak => {
                // member ⟹ (∀p finitely many NO) ∨ (some p reports NO forever ∧ x∼(E) ∉ L);
                // non-member ⟹ ∀p infinitely many NO.
                let tail_silent = tail_no.iter().all(|&c| c == 0);
                let some_persistent = tail_no.iter().any(|&c| c > 0);
                let sketch_in = sketch_member.unwrap_or(true);
                if member {
                    if tail_silent || (some_persistent && !sketch_in) {
                        Evaluation::ok(
                            notion,
                            member,
                            sketch_member,
                            format!(
                                "member, tail NO counts {tail_no:?}, sketch member = {sketch_in}"
                            ),
                        )
                    } else {
                        Evaluation::fail(
                            notion,
                            member,
                            sketch_member,
                            format!(
                                "member, persistent NO without sketch justification: tail NO counts {tail_no:?}"
                            ),
                        )
                    }
                } else if tail_no.iter().all(|&c| c > 0) {
                    Evaluation::ok(
                        notion,
                        member,
                        sketch_member,
                        format!("non-member, every process keeps reporting NO: {tail_no:?}"),
                    )
                } else {
                    Evaluation::fail(
                        notion,
                        member,
                        sketch_member,
                        format!("non-member but some process stops reporting NO: {tail_no:?}"),
                    )
                }
            }
        };
        Ok(evaluation)
    }
}

impl fmt::Debug for Decider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decider")
            .field("language", &self.language.name())
            .field("tail_fraction", &self.tail_fraction)
            .finish()
    }
}

/// A generic decidability predicate over executions (Definition 5.1).
///
/// Theorem 5.2 quantifies over *every* decidability notion expressible as a
/// predicate on the reported values of an execution; this trait is that
/// quantification made concrete.  The characterization experiments
/// instantiate it with the SD and WD predicates, and tests instantiate it
/// with ad-hoc multi-valued predicates to exercise the "any number of report
/// values" claim.
pub trait DecidabilityPredicate {
    /// Name of the predicate.
    fn name(&self) -> String;

    /// Whether the predicate holds on the reported values of the trace.
    fn holds(&self, trace: &ExecutionTrace) -> bool;
}

/// The SD predicate: no process ever reports NO.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSilence;

impl DecidabilityPredicate for NoSilence {
    fn name(&self) -> String {
        "∀p NO(E,p) = 0".to_string()
    }

    fn holds(&self, trace: &ExecutionTrace) -> bool {
        trace.no_counts().iter().all(|&c| c == 0)
    }
}

/// The WD predicate under the finitary tail reading: no process reports NO in
/// the tail of its reports.
#[derive(Debug, Clone, Copy)]
pub struct TailNoSilence {
    /// Tail fraction in `[0, 1]`.
    pub tail_fraction: f64,
}

impl DecidabilityPredicate for TailNoSilence {
    fn name(&self) -> String {
        format!("∀p NO-free tail (fraction {})", self.tail_fraction)
    }

    fn holds(&self, trace: &ExecutionTrace) -> bool {
        let starts = trace.tail_start(self.tail_fraction);
        trace
            .all_verdicts()
            .iter()
            .zip(starts)
            .all(|(stream, start)| stream.no_free_tail(start))
    }
}

/// Checks [`Definition 5.1`](DecidabilityPredicate) on a set of runs: the
/// predicate must hold exactly on the runs whose input is in the language.
///
/// Returns the indices of the traces on which the equivalence fails.
#[must_use]
pub fn p_decidability_failures(
    traces: &[ExecutionTrace],
    language: &dyn Language,
    predicate: &dyn DecidabilityPredicate,
) -> Vec<usize> {
    traces
        .iter()
        .enumerate()
        .filter(|(_, trace)| trace.is_member(language) != predicate.holds(trace))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AdversaryMode;
    use crate::verdict::{Verdict, VerdictStream};
    use drv_consistency::languages::{lin_reg, wec_count};
    use drv_lang::{Invocation, ProcId, Response, Word, WordBuilder};

    fn trace_with(word: Word, verdicts: Vec<Vec<Verdict>>) -> ExecutionTrace {
        ExecutionTrace::new(
            verdicts.len(),
            AdversaryMode::Plain,
            "synthetic",
            "synthetic",
            word,
            verdicts
                .into_iter()
                .map(|v| v.into_iter().collect::<VerdictStream>())
                .collect(),
            Vec::new(),
            Vec::new(),
        )
    }

    fn member_word() -> Word {
        WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .build()
    }

    fn non_member_word() -> Word {
        WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(9))
            .build()
    }

    #[test]
    fn notion_metadata() {
        assert_eq!(Notion::TABLE1.len(), 4);
        assert_eq!(Notion::ALL.len(), 6);
        assert_eq!(Notion::Strong.label(), "SD");
        assert_eq!(Notion::WeakAll.label(), "WAD");
        assert_eq!(Notion::WeakOne.label(), "WOD");
        assert_eq!(Notion::PredictiveWeak.to_string(), "PWD");
        assert!(Notion::PredictiveStrong.requires_views());
        assert!(!Notion::Weak.requires_views());
    }

    #[test]
    fn weak_all_and_weak_one_differ_on_partial_quiescence() {
        let decider = Decider::new(Arc::new(lin_reg(2))).with_tail_fraction(0.5);
        // One process keeps reporting NO, the other converges to YES.
        let persistent_no = vec![Verdict::No, Verdict::No, Verdict::No, Verdict::No];
        let quiescent = vec![Verdict::No, Verdict::No, Verdict::Yes, Verdict::Yes];

        // Non-member: WAD is satisfied (∃p NO=∞), WOD is violated (needs ∀p).
        let t = trace_with(
            non_member_word(),
            vec![persistent_no.clone(), quiescent.clone()],
        );
        assert!(decider.evaluate(&t, Notion::WeakAll).unwrap().holds);
        assert!(!decider.evaluate(&t, Notion::WeakOne).unwrap().holds);
        assert!(!decider.evaluate(&t, Notion::Weak).unwrap().holds);

        // Member: WAD is violated (some process never quiesces), WOD holds.
        let t = trace_with(member_word(), vec![persistent_no, quiescent]);
        assert!(!decider.evaluate(&t, Notion::WeakAll).unwrap().holds);
        assert!(decider.evaluate(&t, Notion::WeakOne).unwrap().holds);
    }

    #[test]
    fn strong_decidability_requires_exact_silence() {
        let decider = Decider::new(Arc::new(lin_reg(2)));
        let yes = vec![Verdict::Yes; 4];
        let with_no = vec![Verdict::Yes, Verdict::No, Verdict::Yes, Verdict::Yes];

        // Member + silence: holds.
        let t = trace_with(member_word(), vec![yes.clone(), yes.clone()]);
        assert!(decider.evaluate(&t, Notion::Strong).unwrap().holds);

        // Member + a NO: violated.
        let t = trace_with(member_word(), vec![yes.clone(), with_no.clone()]);
        let e = decider.evaluate(&t, Notion::Strong).unwrap();
        assert!(!e.holds);
        assert!(e.member);
        assert!(e.to_string().contains("VIOLATED"));

        // Non-member + a NO: holds.
        let t = trace_with(non_member_word(), vec![with_no.clone(), yes.clone()]);
        assert!(decider.evaluate(&t, Notion::Strong).unwrap().holds);

        // Non-member + silence: violated.
        let t = trace_with(non_member_word(), vec![yes.clone(), yes]);
        assert!(!decider.evaluate(&t, Notion::Strong).unwrap().holds);
    }

    #[test]
    fn weak_decidability_uses_the_tail() {
        let decider = Decider::new(Arc::new(lin_reg(2))).with_tail_fraction(0.5);
        // NO early, silence later: fine for members.
        let early_no = vec![Verdict::No, Verdict::No, Verdict::Yes, Verdict::Yes];
        let t = trace_with(member_word(), vec![early_no.clone(), early_no.clone()]);
        assert!(decider.evaluate(&t, Notion::Weak).unwrap().holds);

        // NO persists: fails for members.
        let late_no = vec![Verdict::Yes, Verdict::Yes, Verdict::Yes, Verdict::No];
        let t = trace_with(member_word(), vec![late_no.clone(), early_no.clone()]);
        assert!(!decider.evaluate(&t, Notion::Weak).unwrap().holds);

        // Non-member: everyone must keep saying NO.
        let t = trace_with(non_member_word(), vec![late_no.clone(), late_no.clone()]);
        assert!(decider.evaluate(&t, Notion::Weak).unwrap().holds);
        let t = trace_with(non_member_word(), vec![late_no, early_no]);
        assert!(!decider.evaluate(&t, Notion::Weak).unwrap().holds);
    }

    #[test]
    #[should_panic(expected = "timed adversary")]
    fn predictive_notions_need_timed_traces() {
        let decider = Decider::new(Arc::new(lin_reg(2)));
        let t = trace_with(member_word(), vec![vec![Verdict::Yes], vec![Verdict::Yes]]);
        let _ = decider.evaluate(&t, Notion::PredictiveStrong);
    }

    #[test]
    fn p_decidability_failures_flags_mismatches() {
        let member = trace_with(member_word(), vec![vec![Verdict::Yes], vec![Verdict::Yes]]);
        let non_member_silent =
            trace_with(non_member_word(), vec![vec![Verdict::Yes], vec![Verdict::Yes]]);
        let traces = vec![member, non_member_silent];
        let failures = p_decidability_failures(&traces, &lin_reg(2), &NoSilence);
        assert_eq!(failures, vec![1]);
        assert!(NoSilence.name().contains("NO"));
        let tail = TailNoSilence { tail_fraction: 0.5 };
        assert!(tail.name().contains("0.5"));
        assert!(tail.holds(&traces[0]));
    }

    #[test]
    fn decider_accessors() {
        let decider = Decider::new(Arc::new(wec_count()));
        assert_eq!(decider.language_name(), "WEC_COUNT");
        assert_eq!(decider.language().name(), "WEC_COUNT");
        assert!(format!("{decider:?}").contains("WEC_COUNT"));
    }
}
