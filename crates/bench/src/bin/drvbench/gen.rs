//! The benchmark's own input generator: seeded multi-object register
//! traffic in the shape of `drv_adversary::register_object_stream` plus a
//! round-robin merge, on a private splitmix64 — so neither `drv-adversary`
//! nor the offline `rand` stand-in can shift a workload, and `--seed` is
//! the only input.

use drv_core::Verdict;
use drv_lang::{Invocation, ObjectId, ProcId, Response, Symbol};

/// Object ids are `connection * CONN_STRIDE + index`: globally unique per
/// connection (the server's ownership rule) and invertible without a map.
pub const CONN_STRIDE: u64 = 1_000_000;

/// Added to the register value by a stale read: larger than any value a
/// stream writes, so an injected read is never accidentally legal.
const STALE_OFFSET: u64 = CONN_STRIDE;

/// Spreads the objects' first stale read over their histories (coprime
/// with any `stale_every` that is a power of ten).
const STALE_PHASE: usize = 37;

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p` (53 uniform mantissa bits).
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The register traffic of one workload: `connections × objects` objects
/// of `ops` completed operations each, from two client processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub connections: usize,
    /// Objects per connection.
    pub objects: usize,
    /// Completed operations per object; every operation is exactly one
    /// invocation and one response, so each object has `2 * ops` events.
    pub ops: usize,
    /// Probability that a step issues two overlapping operations.
    pub overlap: f64,
    /// One read in this many returns a value no write produced; 0 = none.
    /// Which reads is fixed by construction, not drawn: read `k` of object
    /// `i` is stale when `(k + STALE_PHASE * i) % stale_every` is
    /// `stale_every - 1`.  How early an object's first wrong read comes
    /// decides how much fallback search it costs, so drawing the positions
    /// would make the work of a run depend on its seed (±8 % at 512
    /// objects); the seed varies everything else.
    pub stale_every: usize,
}

impl Shape {
    pub fn events_per_object(&self) -> usize {
        2 * self.ops
    }

    pub fn events_per_connection(&self) -> usize {
        self.objects * self.events_per_object()
    }

    pub fn events(&self) -> usize {
        self.connections * self.events_per_connection()
    }
}

pub fn object_id(conn: usize, index: usize) -> ObjectId {
    ObjectId(conn as u64 * CONN_STRIDE + index as u64)
}

/// The history of the object with index `index`: `ops` completed
/// operations, `overlap` of the steps issuing two concurrent ones, one read
/// in `stale_every` wrong.
fn object_stream(rng: &mut SplitMix64, index: usize, shape: &Shape) -> Vec<Symbol> {
    let mut symbols = Vec::with_capacity(shape.events_per_object());
    let mut value = 0u64;
    let mut next_write = 1u64;
    let mut emitted = 0;
    let mut reads = STALE_PHASE * index;
    while emitted < shape.ops {
        let overlap = shape.ops - emitted >= 2 && rng.chance(shape.overlap);
        let issuing: &[usize] = if overlap {
            &[0, 1]
        } else if rng.next_u64() & 1 == 0 {
            &[0]
        } else {
            &[1]
        };
        let mut invocations = Vec::with_capacity(2);
        for &p in issuing {
            let invocation = if rng.chance(0.5) {
                next_write += 1;
                Invocation::Write(next_write - 1)
            } else {
                Invocation::Read
            };
            symbols.push(Symbol::invoke(ProcId(p), invocation.clone()));
            invocations.push((p, invocation));
        }
        if overlap && rng.chance(0.5) {
            invocations.reverse();
        }
        for (p, invocation) in invocations {
            let response = match invocation {
                Invocation::Write(v) => {
                    value = v;
                    Response::Ack
                }
                _ => {
                    reads += 1;
                    if shape.stale_every > 0 && reads.is_multiple_of(shape.stale_every) {
                        Response::Value(value + STALE_OFFSET)
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

/// One connection's stream: its objects merged round-robin, one event per
/// object per round, so every batch mixes objects and the event of object
/// `i` with per-object sequence number `s` sits at `s * objects + i`.
pub fn connection_stream(seed: u64, conn: usize, shape: &Shape) -> Vec<(ObjectId, Symbol)> {
    let per_object: Vec<Vec<Symbol>> = (0..shape.objects)
        .map(|index| {
            // Two odd multipliers keep (seed, object) pairs apart; the
            // generator's output function does the mixing.
            let mut rng = SplitMix64::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ object_id(conn, index).0.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            object_stream(&mut rng, index, shape)
        })
        .collect();
    let mut merged = Vec::with_capacity(shape.events_per_connection());
    for round in 0..shape.events_per_object() {
        for (index, symbols) in per_object.iter().enumerate() {
            merged.push((object_id(conn, index), symbols[round].clone()));
        }
    }
    merged
}

/// FNV-1a over the per-object verdict streams in object order: the
/// fingerprint recorded for seed 1, so a change to the oracle shows.
pub fn verdict_digest<'a>(streams: impl Iterator<Item = (ObjectId, &'a [Verdict])>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (object, verdicts) in streams {
        object.0.to_le_bytes().into_iter().for_each(&mut eat);
        for verdict in verdicts {
            match verdict {
                Verdict::Yes => eat(1),
                Verdict::No => eat(2),
                Verdict::Maybe(k) => {
                    eat(3);
                    k.to_le_bytes().into_iter().for_each(&mut eat);
                }
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        connections: 2,
        objects: 3,
        ops: 40,
        overlap: 0.25,
        stale_every: 10,
    };

    #[test]
    fn same_seed_same_stream_and_other_seed_another() {
        let a = connection_stream(7, 1, &SHAPE);
        assert_eq!(a, connection_stream(7, 1, &SHAPE));
        assert_ne!(a, connection_stream(8, 1, &SHAPE));
        assert_ne!(
            a.iter().map(|(_, s)| s).collect::<Vec<_>>(),
            connection_stream(7, 0, &SHAPE)
                .iter()
                .map(|(_, s)| s)
                .collect::<Vec<_>>(),
            "connections must not replay each other's traffic"
        );
    }

    #[test]
    fn streams_are_round_robin_with_two_events_per_operation() {
        let stream = connection_stream(3, 1, &SHAPE);
        assert_eq!(stream.len(), SHAPE.events_per_connection());
        for (position, (object, _)) in stream.iter().enumerate() {
            assert_eq!(*object, object_id(1, position % SHAPE.objects));
        }
        let invocations = stream.iter().filter(|(_, s)| s.is_invocation()).count();
        assert_eq!(invocations, SHAPE.objects * SHAPE.ops);
    }

    #[test]
    fn one_read_in_stale_every_is_wrong_whatever_the_seed() {
        let reads = |seed: u64, stale_every: usize| {
            let stream = connection_stream(
                seed,
                0,
                &Shape {
                    stale_every,
                    ops: 400,
                    ..SHAPE
                },
            );
            let values: Vec<u64> = stream
                .iter()
                .filter_map(|(_, s)| s.response().and_then(Response::as_value))
                .collect();
            (
                values.len(),
                values.iter().filter(|&&v| v >= STALE_OFFSET).count(),
            )
        };
        assert_eq!(reads(5, 0).1, 0);
        for seed in [5, 6] {
            let (all, wrong) = reads(seed, 10);
            assert!(
                wrong.abs_diff(all / 10) <= SHAPE.objects,
                "{wrong} of {all} reads wrong"
            );
        }
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the published reference
        // implementation.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }
}
