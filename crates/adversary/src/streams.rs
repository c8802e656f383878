//! Seeded multi-object register traffic: the shared scenario generator of
//! the workspace's differential suites and benches.
//!
//! Several consumers — the engine's differential tests, the network
//! loopback tests and the checker and engine benches — need the same shape
//! of traffic: per-object register histories from a few client processes,
//! with overlapping operations (real concurrency for the checkers to
//! resolve) and, optionally, injected stale reads (so both YES and NO
//! verdicts occur).  This module is the one copy of that
//! generator; each consumer picks its [`RegisterStreamShape`] and merge
//! order.
//!
//! Determinism contract: for a fixed `(rng seed, shape, ops)` the symbol
//! sequence is reproducible — the generator draws from the caller's RNG in
//! a fixed order (overlap, process choice, operation choice, response
//! order, staleness-per-read when `stale > 0`).

use drv_lang::{Invocation, ObjectId, ProcId, Response, Symbol};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// The tunables of one object's generated register stream.
#[derive(Debug, Clone, Copy)]
pub struct RegisterStreamShape {
    /// Client processes issuing operations (process ids `0..processes`).
    pub processes: usize,
    /// Probability that a step issues two overlapping operations.
    pub overlap: f64,
    /// Probability that a read returns a stale/garbage value (a
    /// non-member to flag).  `0.0` draws nothing from the RNG for reads,
    /// producing all-member steady-state traffic.
    pub stale: f64,
}

impl RegisterStreamShape {
    /// The differential-suite shape: 2 processes, 30 % overlap, 10 % stale
    /// reads — both verdict polarities occur.
    #[must_use]
    pub fn differential() -> Self {
        RegisterStreamShape { processes: 2, overlap: 0.3, stale: 0.1 }
    }

    /// The load-generator shape: 2 processes, 25 % overlap, no stale reads
    /// — correct steady-state traffic (the checkers stay on the member
    /// fast path).
    #[must_use]
    pub fn load() -> Self {
        RegisterStreamShape { processes: 2, overlap: 0.25, stale: 0.0 }
    }
}

/// One object's symbol stream: a register history of `ops` completed
/// operations from `shape.processes` clients, with overlapping operations
/// and (per `shape.stale`) injected stale reads.
#[must_use]
pub fn register_object_stream(
    rng: &mut StdRng,
    ops: usize,
    shape: &RegisterStreamShape,
) -> Vec<Symbol> {
    let mut symbols = Vec::new();
    let mut value = 0u64;
    let mut next_write = 1u64;
    let mut emitted = 0;
    while emitted < ops {
        let overlap = ops - emitted >= 2 && rng.gen_bool(shape.overlap);
        let procs: Vec<usize> = if overlap {
            vec![0, 1]
        } else {
            vec![rng.gen_range(0..shape.processes)]
        };
        let mut invocations = Vec::new();
        for &p in &procs {
            let invocation = if rng.gen_bool(0.5) {
                let v = next_write;
                next_write += 1;
                Invocation::Write(v)
            } else {
                Invocation::Read
            };
            symbols.push(Symbol::invoke(ProcId(p), invocation.clone()));
            invocations.push((p, invocation));
        }
        if overlap && rng.gen_bool(0.5) {
            invocations.reverse();
        }
        for (p, invocation) in invocations {
            let response = match invocation {
                Invocation::Write(v) => {
                    value = v;
                    Response::Ack
                }
                _ => {
                    if shape.stale > 0.0 && rng.gen_bool(shape.stale) {
                        Response::Value(value + 1000)
                    } else {
                        Response::Value(value)
                    }
                }
            };
            symbols.push(Symbol::respond(ProcId(p), response));
            emitted += 1;
        }
    }
    symbols
}

/// Merges per-object streams by repeatedly picking a random non-empty
/// stream (per-object order preserved) — the adversarial interleaving of
/// the differential suites.
#[must_use]
pub fn merge_random(
    rng: &mut StdRng,
    per_object: Vec<(ObjectId, Vec<Symbol>)>,
) -> Vec<(ObjectId, Symbol)> {
    let mut queues: Vec<(ObjectId, VecDeque<Symbol>)> = per_object
        .into_iter()
        .map(|(object, symbols)| (object, symbols.into()))
        .collect();
    let mut merged = Vec::new();
    while queues.iter().any(|(_, queue)| !queue.is_empty()) {
        let pick = rng.gen_range(0..queues.len());
        if let Some(symbol) = queues[pick].1.pop_front() {
            merged.push((queues[pick].0, symbol));
        }
    }
    merged
}

/// Merges per-object streams round-robin, one symbol per object per round
/// (per-object order preserved) — every batch mixes objects, the
/// adversarial case for routing overhead in benches.
#[must_use]
pub fn merge_round_robin(per_object: Vec<(ObjectId, Vec<Symbol>)>) -> Vec<(ObjectId, Symbol)> {
    let mut queues: Vec<(ObjectId, VecDeque<Symbol>)> = per_object
        .into_iter()
        .map(|(object, symbols)| (object, symbols.into()))
        .collect();
    let mut merged = Vec::new();
    loop {
        let mut progressed = false;
        for (object, queue) in &mut queues {
            if let Some(symbol) = queue.pop_front() {
                merged.push((*object, symbol));
                progressed = true;
            }
        }
        if !progressed {
            return merged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn streams_are_deterministic_and_well_shaped() {
        let shape = RegisterStreamShape::differential();
        let a = register_object_stream(&mut StdRng::seed_from_u64(7), 10, &shape);
        let b = register_object_stream(&mut StdRng::seed_from_u64(7), 10, &shape);
        assert_eq!(a, b, "same seed, same stream");
        // 10 completed operations = 10 invocations + 10 responses.
        assert_eq!(a.iter().filter(|s| s.is_invocation()).count(), 10);
        assert_eq!(a.iter().filter(|s| s.is_response()).count(), 10);
    }

    #[test]
    fn shapes_control_stale_injection() {
        // Stale reads are offset by +1000, far above any written value at
        // these sizes: the load shape must produce none, the differential
        // shape some (over enough seeds).
        let read_values = |shape: &RegisterStreamShape| -> Vec<u64> {
            (0..20u64)
                .flat_map(|seed| {
                    register_object_stream(&mut StdRng::seed_from_u64(seed), 40, shape)
                })
                .filter_map(|symbol| symbol.response().and_then(Response::as_value))
                .collect()
        };
        assert!(
            read_values(&RegisterStreamShape::load()).iter().all(|&v| v < 1000),
            "stale read in a stale=0 stream"
        );
        assert!(
            read_values(&RegisterStreamShape::differential()).iter().any(|&v| v >= 1000),
            "no stale read across 20 differential-shape seeds"
        );
    }

    #[test]
    fn merges_preserve_per_object_order() {
        let shape = RegisterStreamShape::differential();
        let mut rng = StdRng::seed_from_u64(11);
        let per_object: Vec<(ObjectId, Vec<Symbol>)> = (0..3)
            .map(|i| (ObjectId(i), register_object_stream(&mut rng, 5, &shape)))
            .collect();
        let original = per_object.clone();
        for merged in [
            merge_round_robin(per_object.clone()),
            merge_random(&mut rng, per_object),
        ] {
            for (object, symbols) in &original {
                let projected: Vec<&Symbol> = merged
                    .iter()
                    .filter(|(o, _)| o == object)
                    .map(|(_, s)| s)
                    .collect();
                assert_eq!(projected.len(), symbols.len());
                assert!(projected.iter().zip(symbols).all(|(a, b)| **a == *b));
            }
        }
    }
}
