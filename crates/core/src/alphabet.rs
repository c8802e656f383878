//! Invocation sampling: the pseudo-random resolution of the invocation pick
//! of Figure 1, line 01, over an [`ObjectKind`]'s alphabet, which is how
//! workload generators drive the monitors.

use drv_lang::{Invocation, ObjectKind};
use rand::Rng;

/// Pseudo-random resolution of the non-deterministic invocation pick of
/// Figure 1, line 01.
///
/// The sampler is deliberately simple: a ratio of mutator invocations
/// (`write`/`inc`/`append`/`enqueue`/`push`) versus observer invocations
/// (`read`/`get`/`dequeue`/`pop`), and a bounded value domain so that
/// histories remain readable.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolSampler {
    /// The object whose alphabet is sampled.
    pub kind: ObjectKind,
    /// Probability in `[0, 1]` of picking a mutator invocation.
    pub mutator_ratio: f64,
    /// Values/records are drawn uniformly from `1..=max_value`.
    pub max_value: u64,
    next_fresh: u64,
}

impl SymbolSampler {
    /// Creates a sampler with a 50/50 mutator/observer mix and values in
    /// `1..=100`.
    #[must_use]
    pub fn new(kind: ObjectKind) -> Self {
        SymbolSampler {
            kind,
            mutator_ratio: 0.5,
            max_value: 100,
            next_fresh: 1,
        }
    }

    /// Sets the mutator ratio.
    #[must_use]
    pub fn with_mutator_ratio(mut self, ratio: f64) -> Self {
        self.mutator_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Sets the maximum sampled value.
    #[must_use]
    pub fn with_max_value(mut self, max_value: u64) -> Self {
        self.max_value = max_value.max(1);
        self
    }

    /// Samples the next invocation.  Ledger records are made unique
    /// (monotonically increasing) so that eventual-visibility checks are
    /// unambiguous; other values are drawn uniformly.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Invocation {
        let mutate = rng.gen_bool(self.mutator_ratio);
        match (self.kind, mutate) {
            (ObjectKind::Register, true) => Invocation::Write(rng.gen_range(1..=self.max_value)),
            (ObjectKind::Register, false) => Invocation::Read,
            (ObjectKind::Counter, true) => Invocation::Inc,
            (ObjectKind::Counter, false) => Invocation::Read,
            (ObjectKind::Ledger, true) => {
                let r = self.next_fresh;
                self.next_fresh += 1;
                Invocation::Append(r)
            }
            (ObjectKind::Ledger, false) => Invocation::Get,
            (ObjectKind::Queue, true) => Invocation::Enqueue(rng.gen_range(1..=self.max_value)),
            (ObjectKind::Queue, false) => Invocation::Dequeue,
            (ObjectKind::Stack, true) => Invocation::Push(rng.gen_range(1..=self.max_value)),
            (ObjectKind::Stack, false) => Invocation::Pop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_respects_alphabet() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in ObjectKind::ALL {
            let mut sampler = SymbolSampler::new(kind);
            for _ in 0..100 {
                let inv = sampler.sample(&mut rng);
                assert!(kind.contains(&inv), "{kind}: {inv} outside alphabet");
            }
        }
    }

    #[test]
    fn sampler_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut all_readers = SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(0.0);
        let mut all_incs = SymbolSampler::new(ObjectKind::Counter).with_mutator_ratio(1.0);
        for _ in 0..50 {
            assert_eq!(all_readers.sample(&mut rng), Invocation::Read);
            assert_eq!(all_incs.sample(&mut rng), Invocation::Inc);
        }
    }

    #[test]
    fn ledger_records_are_unique() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = SymbolSampler::new(ObjectKind::Ledger).with_mutator_ratio(1.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            if let Invocation::Append(r) = sampler.sample(&mut rng) {
                assert!(seen.insert(r), "record {r} repeated");
            } else {
                panic!("expected append");
            }
        }
    }

    #[test]
    fn ratio_is_clamped() {
        let s = SymbolSampler::new(ObjectKind::Register).with_mutator_ratio(7.0);
        assert!((s.mutator_ratio - 1.0).abs() < f64::EPSILON);
        let s = SymbolSampler::new(ObjectKind::Register).with_max_value(0);
        assert_eq!(s.max_value, 1);
    }
}
