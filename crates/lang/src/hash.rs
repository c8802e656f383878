//! The one hasher of the served path's maps: a keyed multiply-fold.
//!
//! [`HashMap`] and [`HashSet`] are the standard collections over
//! [`KeyedState`] instead of SipHash-1-3's `RandomState`.  The payload arena,
//! the engine's per-shard object table, the network cores' ownership and
//! connection tables and recovery's chain selection key their maps by object
//! ids and payloads, and hash once or more per event: SipHash runs rounds of
//! add-rotate-XOR per 8 bytes and four more to finish, where this hash does
//! one multiply per 8 bytes and one to finish.
//!
//! A value is hashed one 64-bit word at a time: each word is XORed into the
//! accumulator, which is then multiplied by the map's key as a 64×64 →
//! 128-bit product whose halves are XORed together (the *fold*).  Byte
//! slices go in 8 bytes at a time; their last word is zero-padded and
//! carries the slice length in its top byte, so `"a"` and `"a\0"` differ.
//! [`Hasher::finish`] folds once more by a fixed odd constant, which spreads
//! every bit of the accumulator into the low bits the table indexes by.
//!
//! ## Flood model
//!
//! The keys are chosen by clients: object ids and payloads arrive in batch
//! frames.  Keys that collide would turn a map's probes into linear scans.
//! - Each process draws a 128-bit key once, from the standard library's
//!   `RandomState` (the operating system's randomness, as SipHash's keys),
//!   so no random-number crate enters the served build.
//! - Each map derives keys of its own from the process key and an atomic
//!   counter.  Copying one map's keys into another in iteration order, which
//!   follows the first map's hashes, then cannot crowd them into a few
//!   buckets of the second: the known trap of unkeyed multiplicative hashes.
//! - A client that does not know the process key cannot precompute a set of
//!   colliding keys.
//! - Some multipliers are weak (2⁶⁴ − 1 folds every nonzero word to the
//!   same value), so keys are drawn, never chosen; a drawn key is weak with
//!   negligible probability.
//!
//! The fold is not a pseudo-random function, which is the guarantee SipHash
//! gives and this hash gives up: an attacker who could observe many outputs,
//! or timings that depend on them, might learn enough about a key to build
//! collisions for that map.  The checker's search table hashes its own
//! fingerprints and needs no key at all (`search.rs`'s `FoldHasher`).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A [`std::collections::HashMap`] keyed by a [`KeyedState`] of its own.
pub type HashMap<K, V> = std::collections::HashMap<K, V, KeyedState>;

/// A [`std::collections::HashSet`] keyed by a [`KeyedState`] of its own.
pub type HashSet<T> = std::collections::HashSet<T, KeyedState>;

/// The finisher's multiplier: odd, with no structure in its bits (2⁶⁴ / φ).
const FINISH: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64×64 → 128-bit product of `x` and `y`, its halves XORed.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ (full >> 64) as u64
}

/// The process key, drawn on first use.
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let random = RandomState::new();
        [random.hash_one(0u64), random.hash_one(1u64)]
    })
}

/// Builds a map's [`KeyedHasher`]s.  [`KeyedState::default`] derives a new
/// key pair from the process key and a per-process counter, so no two maps
/// share one.
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    /// The accumulator's starting value.
    seed: u64,
    /// The per-word multiplier; odd.
    key: u64,
}

impl KeyedState {
    /// A state with the given keys, for tests that must not depend on the
    /// process key.
    #[cfg(test)]
    fn with_keys(seed: u64, key: u64) -> KeyedState {
        KeyedState { seed, key: key | 1 }
    }
}

impl Default for KeyedState {
    fn default() -> Self {
        static MAPS: AtomicU64 = AtomicU64::new(0);
        let map = MAPS.fetch_add(1, Ordering::Relaxed);
        let [k0, k1] = process_key();
        KeyedState {
            seed: fold(k0 ^ map, k1 ^ FINISH),
            key: fold(k1 ^ map, k0 ^ FINISH.rotate_left(32)) | 1,
        }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            acc: self.seed,
            key: self.key,
        }
    }
}

/// One value's hash in progress; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyedHasher {
    acc: u64,
    key: u64,
}

impl Hasher for KeyedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        // At most 7 bytes remain, so the top byte is free for the length.
        self.write_u64(u64::from_le_bytes(tail) | (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.acc = fold(self.acc ^ value, self.key);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;

    #[test]
    fn a_state_hashes_a_key_the_same_way_every_time() {
        let state = KeyedState::default();
        let copy = state;
        let key = ("cas", ObjectId(7), vec![1u64, 2, 3]);
        let first = state.hash_one(&key);
        for _ in 0..4 {
            assert_eq!(state.hash_one(&key), first);
            assert_eq!(copy.hash_one(&key), first);
        }
    }

    #[test]
    fn every_default_state_has_a_key_of_its_own() {
        let (a, b) = (KeyedState::default(), KeyedState::default());
        assert_ne!(a.hash_one(ObjectId(7)), b.hash_one(ObjectId(7)));
        assert_ne!(a.hash_one("cas"), b.hash_one("cas"));
    }

    #[test]
    fn a_byte_slice_hashes_its_length() {
        let state = KeyedState::with_keys(0x0123_4567_89ab_cdef, FINISH);
        assert_ne!(state.hash_one("a"), state.hash_one("a\0"));
        assert_ne!(state.hash_one(""), state.hash_one("\0"));
        // Across the word boundary as well.
        assert_ne!(state.hash_one("abcdefgh"), state.hash_one("abcdefgh\0"));
    }

    /// In how many of the 4 096 low-12-bit buckets 4 096 ids at `stride`
    /// land.
    fn buckets(state: &KeyedState, stride: u64) -> usize {
        let hit: std::collections::BTreeSet<u64> = (0..4096u64)
            .map(|i| state.hash_one(ObjectId(i.wrapping_mul(stride))) & 0xfff)
            .collect();
        hit.len()
    }

    #[test]
    fn strided_object_ids_spread_over_the_low_bits() {
        // 4 096 balls in 4 096 bins fill ≈ 2 590 at random; 2 000 is far
        // below that for a drawn key, and for these fixed ones, which make
        // the test repeat exactly.
        let chosen = [
            KeyedState::with_keys(0, 1),
            KeyedState::with_keys(0, 1 << 16 | 1),
            KeyedState::with_keys(u64::MAX, 0x0123_4567_89ab_cdef),
            KeyedState::with_keys(0x0123_4567_89ab_cdef, FINISH),
        ];
        let drawn = [KeyedState::default(), KeyedState::default()];
        for state in chosen.iter().chain(&drawn) {
            for stride in [1, 1 << 12, 1 << 32, 1 << 48] {
                let filled = buckets(state, stride);
                assert!(filled >= 2000, "stride {stride:#x}: {filled} buckets, {state:?}");
            }
        }
    }
}
