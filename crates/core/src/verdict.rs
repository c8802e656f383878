//! Verdicts and verdict streams.
//!
//! In every iteration of the generic monitor structure (Figure 1, line 06) a
//! process *reports* a value.  The paper's two-valued decidability notions use
//! YES/NO; Section 5.2 and Section 7 discuss richer verdict domains (MAYBE,
//! or arbitrarily many opinions), which [`Verdict::Maybe`] makes representable.
//! [`Verdict`] itself is `drv-lang`'s, re-exported here.
//!
//! A [`VerdictStream`] is the sequence of verdicts one process reported in an
//! execution, each tagged with the length of the input word at reporting time
//! so that "finitely many NO" can be given the cut-based finitary reading used
//! throughout the experiments.

pub use drv_lang::Verdict;
use std::fmt;

/// One report of one process: the verdict plus the positions at which it was
/// emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// The reported verdict.
    pub verdict: Verdict,
    /// The process's iteration index (0-based) at reporting time.
    pub iteration: usize,
    /// Length of the input word x(E) at reporting time.
    pub word_len: usize,
}

/// The sequence of verdicts one process reported in an execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictStream {
    reports: Vec<Report>,
}

impl VerdictStream {
    /// Creates an empty stream.
    #[must_use]
    pub fn new() -> Self {
        VerdictStream::default()
    }

    /// Appends a report.
    pub fn push(&mut self, verdict: Verdict, iteration: usize, word_len: usize) {
        self.reports.push(Report {
            verdict,
            iteration,
            word_len,
        });
    }

    /// All reports, in order.
    #[must_use]
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Number of reports.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Returns `true` when the process never reported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The verdicts only, in order.
    #[must_use]
    pub fn verdicts(&self) -> Vec<Verdict> {
        self.reports.iter().map(|r| r.verdict).collect()
    }

    /// `NO(E, p)`: the number of NO reports.
    #[must_use]
    pub fn no_count(&self) -> usize {
        self.reports.iter().filter(|r| r.verdict.is_no()).count()
    }

    /// `YES(E, p)`: the number of YES reports.
    #[must_use]
    pub fn yes_count(&self) -> usize {
        self.reports.iter().filter(|r| r.verdict.is_yes()).count()
    }

    /// Number of MAYBE reports.
    #[must_use]
    pub fn maybe_count(&self) -> usize {
        self.reports.iter().filter(|r| r.verdict.is_maybe()).count()
    }

    /// Number of NO reports from report index `from` (inclusive) onwards.
    ///
    /// This is the finitary reading of "infinitely many NO": a NO that occurs
    /// in the tail of the run.
    #[must_use]
    pub fn no_count_from(&self, from: usize) -> usize {
        self.reports
            .iter()
            .skip(from)
            .filter(|r| r.verdict.is_no())
            .count()
    }

    /// Index of the first NO report, if any.
    #[must_use]
    pub fn first_no(&self) -> Option<usize> {
        self.reports.iter().position(|r| r.verdict.is_no())
    }

    /// Returns `true` when the stream contains no NO from report index `from`
    /// onwards (the finitary "finitely many NO").
    #[must_use]
    pub fn no_free_tail(&self, from: usize) -> bool {
        self.no_count_from(from) == 0
    }
}

impl fmt::Display for VerdictStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, report) in self.reports.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", report.verdict)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Verdict> for VerdictStream {
    fn from_iter<I: IntoIterator<Item = Verdict>>(iter: I) -> Self {
        let mut stream = VerdictStream::new();
        for (i, verdict) in iter.into_iter().enumerate() {
            stream.push(verdict, i, 0);
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_counts() {
        let stream: VerdictStream = [
            Verdict::Yes,
            Verdict::No,
            Verdict::Yes,
            Verdict::Maybe(0),
            Verdict::No,
        ]
        .into_iter()
        .collect();
        assert_eq!(stream.len(), 5);
        assert!(!stream.is_empty());
        assert_eq!(stream.no_count(), 2);
        assert_eq!(stream.yes_count(), 2);
        assert_eq!(stream.maybe_count(), 1);
        assert_eq!(stream.first_no(), Some(1));
        assert_eq!(stream.no_count_from(2), 1);
        assert!(!stream.no_free_tail(4));
        assert!(stream.no_free_tail(5));
        assert_eq!(stream.verdicts().len(), 5);
        assert_eq!(stream.to_string(), "[YES NO YES MAYBE(0) NO]");
    }

    #[test]
    fn empty_stream_is_no_free() {
        let stream = VerdictStream::new();
        assert!(stream.is_empty());
        assert!(stream.no_free_tail(0));
        assert_eq!(stream.first_no(), None);
    }

    #[test]
    fn push_records_positions() {
        let mut stream = VerdictStream::new();
        stream.push(Verdict::Yes, 0, 2);
        stream.push(Verdict::No, 1, 4);
        assert_eq!(stream.reports()[1].word_len, 4);
        assert_eq!(stream.reports()[1].iteration, 1);
    }
}
