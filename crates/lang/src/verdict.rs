//! The value a monitor reports, shared by the served pipeline and the
//! paper's simulator.

use std::fmt;

/// A value reported by a monitor process (Figure 1, line 06).  The paper's
/// two-valued decidability notions use YES/NO; Sections 5.2 and 7 discuss
/// richer domains (MAYBE, or arbitrarily many opinions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The process currently believes the behaviour is correct.
    Yes,
    /// The process currently believes the behaviour is incorrect.
    No,
    /// An inconclusive opinion; the index allows multi-opinion domains
    /// (Section 5.2 discusses verdicts with `2k + 4` opinions).
    Maybe(u32),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Yes`].
    #[must_use]
    pub fn is_yes(self) -> bool {
        matches!(self, Verdict::Yes)
    }

    /// Returns `true` for [`Verdict::No`].
    #[must_use]
    pub fn is_no(self) -> bool {
        matches!(self, Verdict::No)
    }

    /// Returns `true` for any [`Verdict::Maybe`].
    #[must_use]
    pub fn is_maybe(self) -> bool {
        matches!(self, Verdict::Maybe(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Yes => write!(f, "YES"),
            Verdict::No => write!(f, "NO"),
            Verdict::Maybe(i) => write!(f, "MAYBE({i})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates_and_display() {
        assert!(Verdict::Yes.is_yes());
        assert!(Verdict::No.is_no());
        assert!(Verdict::Maybe(2).is_maybe());
        assert!(!Verdict::Yes.is_no());
        assert_eq!(Verdict::Yes.to_string(), "YES");
        assert_eq!(Verdict::No.to_string(), "NO");
        assert_eq!(Verdict::Maybe(3).to_string(), "MAYBE(3)");
    }
}
