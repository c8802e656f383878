//! The shuffle operator of Definition 5.2.
//!
//! `x₁ ⧢ … ⧢ xₘ` denotes the set of all interleavings of the words
//! `x₁, …, xₘ`.  The paper uses shuffles of the *local projections* of a
//! finite prefix `α` to define real-time obliviousness (Definition 5.3): a
//! language is real-time oblivious when replacing `α` by any interleaving
//! `α' ∈ α|₁ ⧢ … ⧢ α|ₙ` preserves membership.

use drv_lang::{LocalWord, Symbol, Word};
use rand::Rng;

/// A set of words to be interleaved.
#[derive(Debug, Clone, Default)]
pub struct Shuffle {
    parts: Vec<Vec<Symbol>>,
}

impl Shuffle {
    /// Creates a shuffle of the given local words.
    #[must_use]
    pub fn of_locals(locals: &[LocalWord]) -> Self {
        Shuffle {
            parts: locals.iter().map(|l| l.symbols.clone()).collect(),
        }
    }

    /// Creates a shuffle of the local projections `x|₀ … x|_{n-1}` of a word.
    #[must_use]
    pub fn of_projections(word: &Word, n: usize) -> Self {
        Shuffle::of_locals(&word.projections(n))
    }

    /// Creates a shuffle of arbitrary words.
    #[must_use]
    pub fn of_words(words: &[Word]) -> Self {
        Shuffle {
            parts: words.iter().map(|w| w.symbols().to_vec()).collect(),
        }
    }

    /// Total number of symbols across all parts.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Number of distinct interleavings (the multinomial coefficient), or
    /// `None` on overflow.
    #[must_use]
    pub fn count(&self) -> Option<u128> {
        let mut total: u128 = 0;
        let mut result: u128 = 1;
        for part in &self.parts {
            for k in 1..=(part.len() as u128) {
                total += 1;
                result = result.checked_mul(total)?.checked_div(k)?;
            }
        }
        Some(result)
    }

    /// Enumerates all interleavings.  Exponential; intended for small words
    /// (the proof constructions use a handful of symbols).
    #[must_use]
    pub fn enumerate(&self) -> Vec<Word> {
        let mut out = Vec::new();
        let mut indices = vec![0usize; self.parts.len()];
        let mut current = Vec::with_capacity(self.total_len());
        self.enumerate_rec(&mut indices, &mut current, &mut out);
        out
    }

    fn enumerate_rec(&self, indices: &mut [usize], current: &mut Vec<Symbol>, out: &mut Vec<Word>) {
        if current.len() == self.total_len() {
            out.push(Word::from_symbols(current.clone()));
            return;
        }
        for p in 0..self.parts.len() {
            if indices[p] < self.parts[p].len() {
                current.push(self.parts[p][indices[p]].clone());
                indices[p] += 1;
                self.enumerate_rec(indices, current, out);
                indices[p] -= 1;
                current.pop();
            }
        }
    }

    /// Samples one interleaving uniformly at random among positions (each step
    /// picks the next part with probability proportional to its remaining
    /// length, which yields the uniform distribution over interleavings).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Word {
        let mut remaining: Vec<usize> = self.parts.iter().map(Vec::len).collect();
        let mut indices = vec![0usize; self.parts.len()];
        let mut total: usize = remaining.iter().sum();
        let mut symbols = Vec::with_capacity(total);
        while total > 0 {
            let mut pick = rng.gen_range(0..total);
            let mut chosen = 0;
            for (p, r) in remaining.iter().enumerate() {
                if pick < *r {
                    chosen = p;
                    break;
                }
                pick -= r;
            }
            symbols.push(self.parts[chosen][indices[chosen]].clone());
            indices[chosen] += 1;
            remaining[chosen] -= 1;
            total -= 1;
        }
        Word::from_symbols(symbols)
    }
}

/// Enumerates all interleavings of the local projections of `word` for `n`
/// processes (convenience wrapper over [`Shuffle`]).
#[must_use]
pub fn enumerate_shuffles(word: &Word, n: usize) -> Vec<Word> {
    Shuffle::of_projections(word, n).enumerate()
}

/// Samples a random interleaving of the local projections of `word`.
pub fn random_shuffle<R: Rng + ?Sized>(word: &Word, n: usize, rng: &mut R) -> Word {
    Shuffle::of_projections(word, n).sample(rng)
}

/// Returns `true` when `candidate` is an interleaving of the local projections
/// of `original` for `n` processes, i.e. `candidate ∈ original|₁ ⧢ … ⧢ original|ₙ`.
#[must_use]
pub fn is_interleaving_of(candidate: &Word, original: &Word, n: usize) -> bool {
    if candidate.len() != original.len() {
        return false;
    }
    for p in drv_lang::ProcId::all(n.max(
        original
            .procs()
            .iter()
            .map(|p| p.0 + 1)
            .max()
            .unwrap_or(0),
    )) {
        if candidate.project(p) != original.project(p) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use drv_lang::{Invocation, ProcId, Response, WordBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_proc_word() -> Word {
        WordBuilder::new()
            .op(ProcId(0), Invocation::Write(1), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .build()
    }

    #[test]
    fn count_matches_enumeration() {
        let shuffle = Shuffle::of_projections(&two_proc_word(), 2);
        let all = shuffle.enumerate();
        assert_eq!(shuffle.count(), Some(all.len() as u128));
        // C(4,2) = 6 interleavings of two 2-symbol words.
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn enumeration_preserves_projections() {
        let w = two_proc_word();
        for candidate in enumerate_shuffles(&w, 2) {
            assert!(is_interleaving_of(&candidate, &w, 2));
            assert_eq!(candidate.len(), w.len());
        }
    }

    #[test]
    fn original_word_is_one_of_its_shuffles() {
        let w = two_proc_word();
        let all = enumerate_shuffles(&w, 2);
        assert!(all.contains(&w));
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let w = two_proc_word();
        let all = enumerate_shuffles(&w, 2);
        let mut dedup = all.clone();
        dedup.sort_by_key(|x| format!("{x}"));
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn sampling_yields_valid_interleavings() {
        let w = two_proc_word();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let s = random_shuffle(&w, 2, &mut rng);
            assert!(is_interleaving_of(&s, &w, 2));
        }
    }

    #[test]
    fn is_interleaving_rejects_wrong_words() {
        let w = two_proc_word();
        let other = WordBuilder::new()
            .op(ProcId(0), Invocation::Write(2), Response::Ack)
            .op(ProcId(1), Invocation::Read, Response::Value(1))
            .build();
        assert!(!is_interleaving_of(&other, &w, 2));
        let shorter = w.prefix(2);
        assert!(!is_interleaving_of(&shorter, &w, 2));
    }

    #[test]
    fn empty_shuffle() {
        let shuffle = Shuffle::default();
        assert_eq!(shuffle.total_len(), 0);
        assert_eq!(shuffle.count(), Some(1));
        assert_eq!(shuffle.enumerate().len(), 1);
        assert!(shuffle.enumerate()[0].is_empty());
    }

    #[test]
    fn three_way_shuffle_counts() {
        let w = WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .op(ProcId(1), Invocation::Inc, Response::Ack)
            .op(ProcId(2), Invocation::Read, Response::Value(2))
            .build();
        let shuffle = Shuffle::of_projections(&w, 3);
        // multinomial(6; 2,2,2) = 90
        assert_eq!(shuffle.count(), Some(90));
        assert_eq!(shuffle.enumerate().len(), 90);
    }

    #[test]
    fn of_words_behaves_like_of_locals() {
        let a = WordBuilder::new()
            .op(ProcId(0), Invocation::Inc, Response::Ack)
            .build();
        let b = WordBuilder::new()
            .op(ProcId(1), Invocation::Read, Response::Value(0))
            .build();
        let shuffle = Shuffle::of_words(&[a, b]);
        assert_eq!(shuffle.enumerate().len(), 6);
    }
}
