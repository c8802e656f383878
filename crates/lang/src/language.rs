//! Distributed languages (Definition 2.2) and a finitary evaluation interface.
//!
//! A distributed language is a set of well-formed ω-words.  Runtime monitors
//! only ever see finite prefixes, so this crate exposes languages through two
//! finitary views:
//!
//! * [`Language::accepts_prefix`] — the *safety* view: is this finite prefix
//!   consistent with membership?  For prefix-closed languages (linearizability,
//!   sequential consistency) this is exact: an ω-word is in the language iff
//!   every finite prefix is accepted.
//! * [`Language::accepts_run`] — the *cut-based* view used for eventual
//!   ("Büchi-style") properties: the finite word is interpreted as a prefix
//!   `α` (up to `cut`) followed by a probe suffix `β`; eventual clauses (e.g.
//!   clause (3) of the weakly-eventual counter) are evaluated on the suffix.
//!
//! The same interface is used by the decidability evaluators and the
//! real-time obliviousness tester (`oblivious`) in `drv-core`.

use crate::word::Word;
use std::fmt;
use std::sync::Arc;

/// Outcome of evaluating a finite run against a language, with an explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict {
    /// The run is consistent with membership.
    Member,
    /// The run witnesses non-membership; the string explains why.
    NonMember(String),
}

impl RunVerdict {
    /// Returns `true` for [`RunVerdict::Member`].
    #[must_use]
    pub fn is_member(&self) -> bool {
        matches!(self, RunVerdict::Member)
    }

    /// Builds a verdict from a boolean and a lazily-computed reason.
    #[must_use]
    pub fn from_bool(member: bool, reason: impl FnOnce() -> String) -> Self {
        if member {
            RunVerdict::Member
        } else {
            RunVerdict::NonMember(reason())
        }
    }
}

impl fmt::Display for RunVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunVerdict::Member => write!(f, "member"),
            RunVerdict::NonMember(reason) => write!(f, "non-member: {reason}"),
        }
    }
}

/// A distributed language over the concrete alphabet of this crate.
///
/// Implementations live mostly in `drv-consistency` (the seven Table 1
/// languages).  The trait is object safe so languages can be composed and
/// passed to generic evaluators as `&dyn Language` or `Arc<dyn Language>`.
pub trait Language: Send + Sync {
    /// Human-readable name of the language (e.g. `"LIN_REG"`).
    fn name(&self) -> String;

    /// Safety view: is the finite prefix consistent with membership?
    fn accepts_prefix(&self, prefix: &Word) -> bool;

    /// Whether the language is *prefix-closed*: a violation in some prefix can
    /// never be fixed by future symbols.  Linearizability and sequential
    /// consistency are prefix-closed; the eventual languages are not.
    fn is_prefix_closed(&self) -> bool {
        true
    }

    /// Cut-based view for eventual properties.  The word is read as `α·β` with
    /// `|α| = cut`; safety clauses are evaluated on the whole word and
    /// eventual clauses on the suffix `β`.  The default implementation simply
    /// ignores the cut and delegates to [`Language::accepts_prefix`], which is
    /// exact for prefix-closed languages.
    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        let _ = cut;
        self.accepts_prefix(word)
    }

    /// Like [`Language::accepts_run`] but returns an explanation for
    /// non-membership.  The default implementation has a generic reason.
    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        RunVerdict::from_bool(self.accepts_run(word, cut), || {
            format!("{} rejects the run", self.name())
        })
    }
}

impl<L: Language + ?Sized> Language for &L {
    fn name(&self) -> String {
        (**self).name()
    }
    fn accepts_prefix(&self, prefix: &Word) -> bool {
        (**self).accepts_prefix(prefix)
    }
    fn is_prefix_closed(&self) -> bool {
        (**self).is_prefix_closed()
    }
    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        (**self).accepts_run(word, cut)
    }
    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        (**self).judge_run(word, cut)
    }
}

impl<L: Language + ?Sized> Language for Arc<L> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn accepts_prefix(&self, prefix: &Word) -> bool {
        (**self).accepts_prefix(prefix)
    }
    fn is_prefix_closed(&self) -> bool {
        (**self).is_prefix_closed()
    }
    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        (**self).accepts_run(word, cut)
    }
    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        (**self).judge_run(word, cut)
    }
}

impl<L: Language + ?Sized> Language for Box<L> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn accepts_prefix(&self, prefix: &Word) -> bool {
        (**self).accepts_prefix(prefix)
    }
    fn is_prefix_closed(&self) -> bool {
        (**self).is_prefix_closed()
    }
    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        (**self).accepts_run(word, cut)
    }
    fn judge_run(&self, word: &Word, cut: usize) -> RunVerdict {
        (**self).judge_run(word, cut)
    }
}

/// The complement of a language (Section 7 asks whether the complement of
/// `EC_LED` is in PWD; the combinator makes such questions expressible).
///
/// Note the complement of a prefix-closed language is generally *not*
/// prefix-closed, so [`Language::is_prefix_closed`] is `false`.
#[derive(Clone)]
pub struct Complement<L> {
    inner: L,
}

impl<L: Language> Complement<L> {
    /// Wraps a language into its complement.
    pub fn new(inner: L) -> Self {
        Complement { inner }
    }
}

impl<L: Language> Language for Complement<L> {
    fn name(&self) -> String {
        format!("¬{}", self.inner.name())
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        !self.inner.accepts_prefix(prefix)
    }

    fn is_prefix_closed(&self) -> bool {
        false
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        !self.inner.accepts_run(word, cut)
    }
}

/// The intersection of two languages.
#[derive(Clone)]
pub struct Intersection<A, B> {
    left: A,
    right: B,
}

impl<A: Language, B: Language> Intersection<A, B> {
    /// Builds the intersection `left ∩ right`.
    pub fn new(left: A, right: B) -> Self {
        Intersection { left, right }
    }
}

impl<A: Language, B: Language> Language for Intersection<A, B> {
    fn name(&self) -> String {
        format!("({} ∩ {})", self.left.name(), self.right.name())
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        self.left.accepts_prefix(prefix) && self.right.accepts_prefix(prefix)
    }

    fn is_prefix_closed(&self) -> bool {
        self.left.is_prefix_closed() && self.right.is_prefix_closed()
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        self.left.accepts_run(word, cut) && self.right.accepts_run(word, cut)
    }
}

/// The union of two languages.
#[derive(Clone)]
pub struct Union<A, B> {
    left: A,
    right: B,
}

impl<A: Language, B: Language> Union<A, B> {
    /// Builds the union `left ∪ right`.
    pub fn new(left: A, right: B) -> Self {
        Union { left, right }
    }
}

impl<A: Language, B: Language> Language for Union<A, B> {
    fn name(&self) -> String {
        format!("({} ∪ {})", self.left.name(), self.right.name())
    }

    fn accepts_prefix(&self, prefix: &Word) -> bool {
        self.left.accepts_prefix(prefix) || self.right.accepts_prefix(prefix)
    }

    fn is_prefix_closed(&self) -> bool {
        // The union of prefix-closed languages is prefix-closed.
        self.left.is_prefix_closed() && self.right.is_prefix_closed()
    }

    fn accepts_run(&self, word: &Word, cut: usize) -> bool {
        self.left.accepts_run(word, cut) || self.right.accepts_run(word, cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Invocation, ProcId, Response};
    use crate::word::WordBuilder;

    /// A toy language: words with at most `max` symbols of process p1.
    struct AtMost {
        max: usize,
    }

    impl Language for AtMost {
        fn name(&self) -> String {
            format!("AT_MOST_{}", self.max)
        }
        fn accepts_prefix(&self, prefix: &Word) -> bool {
            let ops_of_p1 = prefix
                .project(ProcId(0))
                .symbols
                .iter()
                .filter(|s| s.is_invocation())
                .count();
            ops_of_p1 <= self.max
        }
    }

    fn word(len: usize) -> Word {
        let mut b = WordBuilder::new();
        for _ in 0..len {
            b = b.op(ProcId(0), Invocation::Inc, Response::Ack);
        }
        b.build()
    }

    #[test]
    fn default_run_semantics_ignores_cut() {
        let l = AtMost { max: 2 };
        assert!(l.accepts_run(&word(1), 0));
        assert!(!l.accepts_run(&word(3), 1));
        assert!(l.is_prefix_closed());
    }

    #[test]
    fn judge_run_explains_rejection() {
        let l = AtMost { max: 0 };
        match l.judge_run(&word(1), 0) {
            RunVerdict::NonMember(reason) => assert!(reason.contains("AT_MOST_0")),
            RunVerdict::Member => panic!("expected rejection"),
        }
        assert!(l.judge_run(&Word::new(), 0).is_member());
    }

    #[test]
    fn complement_flips_membership() {
        let c = Complement::new(AtMost { max: 0 });
        assert!(!c.accepts_prefix(&Word::new()));
        assert!(c.accepts_prefix(&word(1)));
        assert!(!c.is_prefix_closed());
        assert!(c.name().starts_with('¬'));
    }

    #[test]
    fn intersection_and_union() {
        let i = Intersection::new(AtMost { max: 2 }, AtMost { max: 1 });
        assert!(i.accepts_prefix(&word(1)));
        assert!(!i.accepts_prefix(&word(2)));
        assert!(i.is_prefix_closed());
        assert!(i.name().contains('∩'));

        let u = Union::new(AtMost { max: 0 }, AtMost { max: 2 });
        assert!(u.accepts_prefix(&word(2)));
        assert!(!u.accepts_prefix(&word(3)));
        assert!(u.name().contains('∪'));
    }

    #[test]
    fn blanket_impls_forward() {
        let l = AtMost { max: 1 };
        let by_ref: &dyn Language = &l;
        assert_eq!(by_ref.name(), "AT_MOST_1");
        assert!(by_ref.accepts_prefix(&word(1)));
        let arc: Arc<dyn Language> = Arc::new(AtMost { max: 1 });
        assert!(arc.accepts_run(&word(1), 0));
        assert!(arc.judge_run(&word(1), 0).is_member());
        let boxed: Box<dyn Language> = Box::new(AtMost { max: 1 });
        assert!(boxed.is_prefix_closed());
        assert_eq!((&&l).name(), "AT_MOST_1");
    }

    #[test]
    fn run_verdict_display() {
        assert_eq!(RunVerdict::Member.to_string(), "member");
        assert!(RunVerdict::NonMember("bad".into())
            .to_string()
            .contains("bad"));
        assert!(RunVerdict::from_bool(true, || "x".into()).is_member());
    }
}
