//! The workspace's one hasher and the two table types built on it.
//!
//! Every hash table in the simulator is keyed by something the simulator
//! itself issued — an IMSI, a TMSI, a TEID, a connection reference, a
//! node id, a counter name. Nothing arrives from outside the program, so
//! SipHash's defence against crafted collisions protects nothing here,
//! while its cost is paid on every table touch of every handler. One
//! fixed multiplicative hash serves all of them.
//!
//! Iteration order of an [`IdMap`] is a function of the hash and must
//! never reach a trace, a counter or a fingerprint: walks that feed the
//! event stream sort first. `set_salt` exists so a test can reshuffle
//! every table and show that nothing moves.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` over [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// 2^64 / φ, odd: consecutive keys land maximally far apart.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

thread_local! {
    /// Folded into every hasher this thread creates; zero outside tests.
    /// Per thread, not per process: the test harness runs tests side by
    /// side, and a salt that changed under a live table would split its
    /// keys across two hash functions.
    static SALT: Cell<u64> = const { Cell::new(0) };
}

/// Reshuffles every table this thread builds from now on. Tables that
/// already hold keys must be dropped first. Test-only: no binary calls it.
#[doc(hidden)]
pub fn set_salt(salt: u64) {
    SALT.set(salt);
}

/// Rotate-xor-multiply over 8-byte words: one round per integer field,
/// one per 8 bytes of a string.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    #[inline]
    fn default() -> Self {
        IdHasher(SALT.get())
    }
}

impl IdHasher {
    #[inline]
    fn round(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Every tail is read as whole words that overlap what came before
        // — no byte loop — with the length folded in, which keeps
        // "aaaaaaaaa" apart from "aaaaaaaaaa".
        let len = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if len >= 8 {
            for at in (0..len - 7).step_by(8) {
                self.round(word(at));
            }
            if !len.is_multiple_of(8) {
                self.round(word(len - 8) ^ len as u64);
            }
        } else if len >= 4 {
            self.round((u64::from(half(0)) | u64::from(half(len - 4)) << 32) ^ len as u64);
        } else if len > 0 {
            // First, middle and last byte are all of one to three bytes.
            let (a, b, c) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            self.round(u64::from_le_bytes([a, b, c, len as u8, 0, 0, 0, 0]));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.round(u64::from(n));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.round(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.round(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.round(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.round(n as u64);
    }
    /// The multiply leaves its best-mixed bits at the top; the table takes
    /// its bucket index from the low bits and its 7-bit tag from the top.
    /// Rotating hands the index bits 38.. and the tag bits 31..=37, all
    /// of them above the half-way carry.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn words_tails_and_field_order_all_count() {
        // Every length class of `write`, names that differ only in the
        // tail or only in length, and a tuple against its mirror image.
        #[rustfmt::skip]
        let names = [
            "", "a", "b", "ab", "abb", "abc", "abcd", "abcde", "abcdf", "aaaaaaa", "sim.lost",
            "sim.lost.", "aaaaaaaaa", "aaaaaaaaaa", "sim.delivered.Um", "sim.delivered.Un",
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn salt_reorders_iteration_and_nothing_else() {
        let order = |salt| {
            set_salt(salt);
            let map: IdMap<u32, u32> = (0..64).map(|n| (n, n * n)).collect();
            let walk: Vec<u32> = map.keys().copied().collect();
            assert!((0..64).all(|n| map[&n] == n * n));
            set_salt(0);
            walk
        };
        let (a, b) = (order(0), order(0x5eed));
        assert_ne!(a, b, "two salts must walk a table in different orders");
        assert_eq!(a, order(0), "the same salt walks it the same way");
    }
}
