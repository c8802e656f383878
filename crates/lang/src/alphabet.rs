//! Object alphabets and invocation sampling.
//!
//! In the paper's model (Figure 1, line 01) each process *non-deterministically
//! picks* an invocation symbol from its local invocation alphabet Σ<ᵢ.  The
//! [`SymbolSampler`] resolves that non-determinism pseudo-randomly for a given
//! [`ObjectKind`], which is how workload generators drive the monitors.

use crate::symbol::Invocation;
use rand::Rng;
use std::fmt;

/// The kind of sequential object whose alphabet a process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Read/write register (Example 1).
    Register,
    /// Counter with `inc()`/`read()` (Example 3).
    Counter,
    /// Ledger with `append(r)`/`get()` (Example 2 and 4).
    Ledger,
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
}

impl ObjectKind {
    /// All object kinds, in a fixed order.
    pub const ALL: [ObjectKind; 5] = [
        ObjectKind::Register,
        ObjectKind::Counter,
        ObjectKind::Ledger,
        ObjectKind::Queue,
        ObjectKind::Stack,
    ];

    /// Returns `true` when `invocation` belongs to this object's invocation
    /// alphabet.
    #[must_use]
    pub fn contains(&self, invocation: &Invocation) -> bool {
        matches!(
            (self, invocation),
            (ObjectKind::Register, Invocation::Write(_))
                | (ObjectKind::Register, Invocation::Read)
                | (ObjectKind::Counter, Invocation::Inc)
                | (ObjectKind::Counter, Invocation::Read)
                | (ObjectKind::Ledger, Invocation::Append(_))
                | (ObjectKind::Ledger, Invocation::Get)
                | (ObjectKind::Queue, Invocation::Enqueue(_))
                | (ObjectKind::Queue, Invocation::Dequeue)
                | (ObjectKind::Stack, Invocation::Push(_))
                | (ObjectKind::Stack, Invocation::Pop)
        )
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObjectKind::Register => "register",
            ObjectKind::Counter => "counter",
            ObjectKind::Ledger => "ledger",
            ObjectKind::Queue => "queue",
            ObjectKind::Stack => "stack",
        };
        write!(f, "{name}")
    }
}

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
    fn contains_classifies_invocations() {
        assert!(ObjectKind::Register.contains(&Invocation::Write(1)));
        assert!(ObjectKind::Register.contains(&Invocation::Read));
        assert!(!ObjectKind::Register.contains(&Invocation::Inc));
        assert!(ObjectKind::Counter.contains(&Invocation::Inc));
        assert!(ObjectKind::Counter.contains(&Invocation::Read));
        assert!(ObjectKind::Ledger.contains(&Invocation::Append(1)));
        assert!(ObjectKind::Ledger.contains(&Invocation::Get));
        assert!(!ObjectKind::Ledger.contains(&Invocation::Read));
        assert!(ObjectKind::Queue.contains(&Invocation::Enqueue(1)));
        assert!(ObjectKind::Queue.contains(&Invocation::Dequeue));
        assert!(ObjectKind::Stack.contains(&Invocation::Push(1)));
        assert!(ObjectKind::Stack.contains(&Invocation::Pop));
    }

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

    #[test]
    fn display_names() {
        assert_eq!(ObjectKind::Register.to_string(), "register");
        assert_eq!(ObjectKind::Ledger.to_string(), "ledger");
    }
}
