//! Finite words over a distributed alphabet and well-formedness checking.
//!
//! A [`Word`] is a finite sequence of [`Symbol`]s, read as a finite prefix of a
//! well-formed ω-word (Definition 2.1).  The infinitary conditions
//! (*reliability* and *fairness*) only constrain infinite words; on finite
//! prefixes we check *sequentiality* — every local projection alternates
//! invocation and response symbols, starting with an invocation.

use crate::symbol::{Action, Invocation, ProcId, Response, Symbol};
use std::fmt;

/// Error returned when a finite word violates well-formedness
/// (Definition 2.1, sequentiality condition) as a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// A response symbol appears for a process with no pending invocation.
    ResponseWithoutInvocation {
        /// Offending process.
        proc: ProcId,
        /// Position of the offending symbol in the word.
        position: usize,
    },
    /// An invocation symbol appears for a process that already has a pending
    /// invocation (local words must alternate).
    InvocationWhilePending {
        /// Offending process.
        proc: ProcId,
        /// Position of the offending symbol in the word.
        position: usize,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::ResponseWithoutInvocation { proc, position } => write!(
                f,
                "response for {proc} at position {position} has no pending invocation"
            ),
            WellFormedError::InvocationWhilePending { proc, position } => write!(
                f,
                "invocation for {proc} at position {position} while a previous invocation is pending"
            ),
        }
    }
}

impl std::error::Error for WellFormedError {}

/// The projection `x|ᵢ` of a word onto the local alphabet of one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalWord {
    /// The process the projection belongs to.
    pub proc: ProcId,
    /// The local symbols, in the order they appear in the global word.
    pub symbols: Vec<Symbol>,
}

impl LocalWord {
    /// Number of symbols in the local word.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` when the local word has no symbols.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Returns `true` when the local word alternates invocation and response
    /// symbols starting with an invocation (the *sequentiality* condition).
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        for (k, s) in self.symbols.iter().enumerate() {
            let expect_invocation = k % 2 == 0;
            if s.is_invocation() != expect_invocation {
                return false;
            }
        }
        true
    }
}

/// A finite word over the distributed alphabet: a finite prefix of a
/// concurrent history of the service under inspection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Word {
    symbols: Vec<Symbol>,
}

impl Word {
    /// Creates an empty word.
    #[must_use]
    pub fn new() -> Self {
        Word {
            symbols: Vec::new(),
        }
    }

    /// Creates a word from a sequence of symbols.
    #[must_use]
    pub fn from_symbols(symbols: Vec<Symbol>) -> Self {
        Word { symbols }
    }

    /// Returns the number of symbols `|x|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` when the word has no symbols.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols of the word, in order.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Returns the symbol at `position`, if any.
    #[must_use]
    pub fn get(&self, position: usize) -> Option<&Symbol> {
        self.symbols.get(position)
    }

    /// Appends an arbitrary symbol.
    pub fn push(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// Appends an invocation symbol for `proc`.
    pub fn invoke(&mut self, proc: ProcId, invocation: Invocation) {
        self.push(Symbol::invoke(proc, invocation));
    }

    /// Appends a response symbol for `proc`.
    pub fn respond(&mut self, proc: ProcId, response: Response) {
        self.push(Symbol::respond(proc, response));
    }

    /// Appends a complete operation (invocation immediately followed by its
    /// response) for `proc`.
    pub fn op(&mut self, proc: ProcId, invocation: Invocation, response: Response) {
        self.invoke(proc, invocation);
        self.respond(proc, response);
    }

    /// Appends all symbols of `other`.
    pub fn extend_word(&mut self, other: &Word) {
        self.symbols.extend(other.symbols.iter().cloned());
    }

    /// Returns the concatenation `self · other`.
    #[must_use]
    pub fn concat(&self, other: &Word) -> Word {
        let mut w = self.clone();
        w.extend_word(other);
        w
    }

    /// Returns the prefix with the first `len` symbols (the whole word if
    /// `len ≥ |x|`).
    #[must_use]
    pub fn prefix(&self, len: usize) -> Word {
        Word {
            symbols: self.symbols[..len.min(self.symbols.len())].to_vec(),
        }
    }

    /// Returns the suffix starting at position `from`.
    #[must_use]
    pub fn suffix(&self, from: usize) -> Word {
        Word {
            symbols: self.symbols[from.min(self.symbols.len())..].to_vec(),
        }
    }

    /// Returns `true` when `prefix` is a prefix of `self`.
    #[must_use]
    pub fn has_prefix(&self, prefix: &Word) -> bool {
        prefix.len() <= self.len() && self.symbols[..prefix.len()] == prefix.symbols[..]
    }

    /// Returns the length of the longest common prefix of `self` and `other`
    /// (the `ℓ(y, y')` of the proof of Theorem 5.2).
    #[must_use]
    pub fn longest_common_prefix(&self, other: &Word) -> usize {
        self.symbols
            .iter()
            .zip(other.symbols.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Returns the set of process ids that appear in the word.
    #[must_use]
    pub fn procs(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.symbols.iter().map(|s| s.proc).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The local projection `x|ᵢ` of the word onto the alphabet of `proc`.
    #[must_use]
    pub fn project(&self, proc: ProcId) -> LocalWord {
        LocalWord {
            proc,
            symbols: self
                .symbols
                .iter()
                .filter(|s| s.proc == proc)
                .cloned()
                .collect(),
        }
    }

    /// All local projections, for processes `p₀ … p_{n-1}`.
    #[must_use]
    pub fn projections(&self, n: usize) -> Vec<LocalWord> {
        ProcId::all(n).map(|p| self.project(p)).collect()
    }

    /// Checks the *sequentiality* condition of Definition 2.1 on this finite
    /// prefix: every local projection alternates invocations and responses,
    /// starting with an invocation.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, with the position of the offending
    /// symbol.
    pub fn check_well_formed_prefix(&self) -> Result<(), WellFormedError> {
        use std::collections::HashMap;
        let mut pending: HashMap<ProcId, bool> = HashMap::new();
        for (position, s) in self.symbols.iter().enumerate() {
            let entry = pending.entry(s.proc).or_insert(false);
            match &s.action {
                Action::Invoke(_) => {
                    if *entry {
                        return Err(WellFormedError::InvocationWhilePending {
                            proc: s.proc,
                            position,
                        });
                    }
                    *entry = true;
                }
                Action::Respond(_) => {
                    if !*entry {
                        return Err(WellFormedError::ResponseWithoutInvocation {
                            proc: s.proc,
                            position,
                        });
                    }
                    *entry = false;
                }
            }
        }
        Ok(())
    }

    /// Returns `true` when [`Word::check_well_formed_prefix`] succeeds.
    #[must_use]
    pub fn is_well_formed_prefix(&self) -> bool {
        self.check_well_formed_prefix().is_ok()
    }

    /// Number of invocation symbols in the word.
    #[must_use]
    pub fn invocation_count(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_invocation()).count()
    }

    /// Number of response symbols in the word.
    #[must_use]
    pub fn response_count(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_response()).count()
    }

    /// Iterates over the symbols of the word.
    pub fn iter(&self) -> std::slice::Iter<'_, Symbol> {
        self.symbols.iter()
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.symbols.is_empty() {
            return write!(f, "ε");
        }
        for (i, s) in self.symbols.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromIterator<Symbol> for Word {
    fn from_iter<T: IntoIterator<Item = Symbol>>(iter: T) -> Self {
        Word {
            symbols: iter.into_iter().collect(),
        }
    }
}

impl Extend<Symbol> for Word {
    fn extend<T: IntoIterator<Item = Symbol>>(&mut self, iter: T) {
        self.symbols.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Word {
    type Item = &'a Symbol;
    type IntoIter = std::slice::Iter<'a, Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.iter()
    }
}

impl IntoIterator for Word {
    type Item = Symbol;
    type IntoIter = std::vec::IntoIter<Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.into_iter()
    }
}

/// A fluent builder for [`Word`]s, convenient in tests and examples.
///
/// ```
/// use drv_lang::{WordBuilder, ProcId, Invocation, Response};
///
/// let w = WordBuilder::new()
///     .op(ProcId(0), Invocation::Write(1), Response::Ack)
///     .op(ProcId(1), Invocation::Read, Response::Value(1))
///     .build();
/// assert_eq!(w.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WordBuilder {
    word: Word,
}

impl WordBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        WordBuilder { word: Word::new() }
    }

    /// Appends an invocation symbol.
    #[must_use]
    pub fn invoke(mut self, proc: ProcId, invocation: Invocation) -> Self {
        self.word.invoke(proc, invocation);
        self
    }

    /// Appends a response symbol.
    #[must_use]
    pub fn respond(mut self, proc: ProcId, response: Response) -> Self {
        self.word.respond(proc, response);
        self
    }

    /// Appends a complete operation (invocation then response).
    #[must_use]
    pub fn op(mut self, proc: ProcId, invocation: Invocation, response: Response) -> Self {
        self.word.op(proc, invocation, response);
        self
    }

    /// Appends all symbols of an existing word.
    #[must_use]
    pub fn append(mut self, other: &Word) -> Self {
        self.word.extend_word(other);
        self
    }

    /// Finishes building and returns the word.
    #[must_use]
    pub fn build(self) -> Word {
        self.word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_word() -> Word {
        WordBuilder::new()
            .invoke(ProcId(0), Invocation::Write(7))
            .invoke(ProcId(1), Invocation::Read)
            .respond(ProcId(0), Response::Ack)
            .respond(ProcId(1), Response::Value(7))
            .build()
    }

    #[test]
    fn builder_and_len() {
        let w = sample_word();
        assert_eq!(w.len(), 4);
        assert_eq!(w.invocation_count(), 2);
        assert_eq!(w.response_count(), 2);
        assert!(!w.is_empty());
        assert!(Word::new().is_empty());
    }

    #[test]
    fn projections_preserve_order() {
        let w = sample_word();
        let p0 = w.project(ProcId(0));
        assert_eq!(p0.len(), 2);
        assert!(p0.is_sequential());
        let p1 = w.project(ProcId(1));
        assert_eq!(p1.len(), 2);
        assert!(p1.is_sequential());
        let p2 = w.project(ProcId(2));
        assert!(p2.is_empty());
        assert!(p2.is_sequential());
        assert_eq!(w.projections(2).len(), 2);
    }

    #[test]
    fn well_formedness_accepts_interleavings() {
        assert!(sample_word().is_well_formed_prefix());
    }

    #[test]
    fn well_formedness_rejects_double_invocation() {
        let w = WordBuilder::new()
            .invoke(ProcId(0), Invocation::Read)
            .invoke(ProcId(0), Invocation::Read)
            .build();
        assert_eq!(
            w.check_well_formed_prefix(),
            Err(WellFormedError::InvocationWhilePending {
                proc: ProcId(0),
                position: 1
            })
        );
    }

    #[test]
    fn well_formedness_rejects_orphan_response() {
        let w = WordBuilder::new()
            .respond(ProcId(0), Response::Ack)
            .build();
        assert_eq!(
            w.check_well_formed_prefix(),
            Err(WellFormedError::ResponseWithoutInvocation {
                proc: ProcId(0),
                position: 0
            })
        );
        assert!(!w.is_well_formed_prefix());
    }

    #[test]
    fn prefix_suffix_concat() {
        let w = sample_word();
        let p = w.prefix(2);
        assert_eq!(p.len(), 2);
        let s = w.suffix(2);
        assert_eq!(s.len(), 2);
        assert_eq!(p.concat(&s), w);
        assert!(w.has_prefix(&p));
        assert!(!p.has_prefix(&w));
        assert_eq!(w.prefix(100), w);
        assert_eq!(w.suffix(100).len(), 0);
    }

    #[test]
    fn longest_common_prefix() {
        let w = sample_word();
        let mut v = w.prefix(3);
        v.invoke(ProcId(2), Invocation::Inc);
        assert_eq!(w.longest_common_prefix(&v), 3);
        assert_eq!(w.longest_common_prefix(&w), 4);
        assert_eq!(w.longest_common_prefix(&Word::new()), 0);
    }

    #[test]
    fn procs_are_sorted_and_deduped() {
        let w = sample_word();
        assert_eq!(w.procs(), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Word::new().to_string(), "ε");
        assert!(sample_word().to_string().contains("write(7)"));
    }

    #[test]
    fn iterator_traits() {
        let w = sample_word();
        let collected: Word = w.iter().cloned().collect();
        assert_eq!(collected, w);
        let mut extended = Word::new();
        extended.extend(w.clone());
        assert_eq!(extended, w);
        assert_eq!((&w).into_iter().count(), 4);
    }

    #[test]
    fn local_word_sequentiality_detects_violation() {
        let bad = LocalWord {
            proc: ProcId(0),
            symbols: vec![Symbol::respond(ProcId(0), Response::Ack)],
        };
        assert!(!bad.is_sequential());
    }
}
