//! The workspace's one hasher and the three table types built on it.
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
//!
//! The third type, [`NumberBlock`], is for the registers that keep a row
//! per subscriber. A home population is provisioned from contiguous
//! number series, and registering it issues each node's identifiers
//! (TMSI, TEID, PDP address, connection reference) from a counter, one
//! per handset in handset order, so a key inside a declared series is its
//! own index into a dense vector; everything else falls through to an
//! [`IdMap`].

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
/// already hold keys must be dropped first. Test-only: no binary sets a
/// salt of its own, and the load engine's build workers only copy the
/// caller's.
#[doc(hidden)]
pub fn set_salt(salt: u64) {
    SALT.set(salt);
}

/// The salt this thread's new tables fold in. A thread that builds
/// tables on another's behalf calls [`set_salt`] with it first.
#[doc(hidden)]
pub fn salt() -> u64 {
    SALT.get()
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

/// A key that is a number: a decimal one (an IMSI, an MSISDN), or an
/// identifier a node issues from a counter (a TMSI, a TEID, ...).
pub trait NumberKey: Copy + Eq + Hash {
    /// The key's value and its digit count. Leading zeros carry no value
    /// but count as digits, so `0012345` is `(12_345, 7)`. An issued
    /// identifier has no digits: it gives a width tag of its own kind
    /// instead, which no decimal number and no other kind uses.
    fn number(&self) -> (u64, usize);
    /// The key whose [`number`](NumberKey::number) is `(value, digits)`:
    /// `value` zero-padded to `digits`. `None` when `value` needs more
    /// digits or the key kind does not allow that many.
    fn from_number(value: u64, digits: usize) -> Option<Self>;
}

/// A map keyed by numbers, with a dense row for every number in a
/// declared series.
///
/// A key whose digit count matches a declared series and whose value lies
/// in `[first, first + count)` lives in that series' `Vec<Option<V>>` at
/// index `value − first`; a key with another digit count never aliases a
/// slot, leading zeros included. Every other key — a roamer, a visitor, a
/// subscriber relocated in — is hashed in an [`IdMap`], and a table with
/// no series declared hashes every key, exactly as an [`IdMap`] would.
///
/// Iteration walks the series in declaration order and number order, then
/// the hashed keys in hash order: like an [`IdMap`]'s, that order must
/// never reach an output.
#[derive(Debug)]
pub struct NumberBlock<K, V> {
    series: Vec<Series<V>>,
    /// Occupied slots, over every series.
    filled: usize,
    rest: IdMap<K, V>,
}

#[derive(Debug)]
struct Series<V> {
    first: u64,
    digits: usize,
    slots: Vec<Option<V>>,
}

impl<K, V> Default for NumberBlock<K, V> {
    fn default() -> Self {
        NumberBlock {
            series: Vec::new(),
            filled: 0,
            rest: IdMap::default(),
        }
    }
}

impl<K: NumberKey, V> NumberBlock<K, V> {
    /// Gives the `count` numbers from `first` on a dense row each.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds a key, or if the series overlaps
    /// one declared before.
    pub fn declare(&mut self, first: K, count: usize) {
        assert!(
            self.is_empty(),
            "declare a number series before the first insert"
        );
        let (first, digits) = first.number();
        let end = first + count as u64;
        assert!(
            self.series.iter().all(|s| s.digits != digits
                || end <= s.first
                || s.first + s.slots.len() as u64 <= first),
            "number series overlap"
        );
        let mut slots = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        self.series.reserve_exact(1);
        self.series.push(Series {
            first,
            digits,
            slots,
        });
    }

    /// `(series, index)` of the slot `key` owns, if it owns one.
    #[inline]
    fn slot(&self, key: &K) -> Option<(usize, usize)> {
        if self.series.is_empty() {
            return None;
        }
        let (value, digits) = key.number();
        self.series.iter().enumerate().find_map(|(s, series)| {
            let at = value.wrapping_sub(series.first);
            (series.digits == digits && at < series.slots.len() as u64).then_some((s, at as usize))
        })
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.filled + self.rest.len()
    }

    /// True if no key is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value held for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.slot(key) {
            Some((s, at)) => self.series[s].slots[at].as_ref(),
            None => self.rest.get(key),
        }
    }

    /// The value held for `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.slot(key) {
            Some((s, at)) => self.series[s].slots[at].as_mut(),
            None => self.rest.get_mut(key),
        }
    }

    /// True if a value is held for `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Holds `value` for `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.slot(&key) {
            Some((s, at)) => {
                let old = self.series[s].slots[at].replace(value);
                self.filled += usize::from(old.is_none());
                old
            }
            None => self.rest.insert(key, value),
        }
    }

    /// The value held for `key`, first inserting `make()` if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        match self.slot(&key) {
            Some((s, at)) => {
                let slot = &mut self.series[s].slots[at];
                self.filled += usize::from(slot.is_none());
                slot.get_or_insert_with(make)
            }
            None => self.rest.entry(key).or_insert_with(make),
        }
    }

    /// Drops the value held for `key` and returns it. Its slot, if it has
    /// one, stays reserved for it.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.slot(key) {
            Some((s, at)) => {
                let old = self.series[s].slots[at].take();
                self.filled -= usize::from(old.is_some());
                old
            }
            None => self.rest.remove(key),
        }
    }

    /// Drops every value; the declared series stay.
    pub fn clear(&mut self) {
        for series in &mut self.series {
            series.slots.fill_with(|| None);
        }
        self.filled = 0;
        self.rest.clear();
    }

    /// Every `(key, value)`: the series in number order, then the hashed
    /// keys in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let dense = self.series.iter().flat_map(|series| {
            series
                .slots
                .iter()
                .zip(series.first..)
                .filter_map(|(slot, value)| {
                    let v = slot.as_ref()?;
                    let key = K::from_number(value, series.digits)
                        .expect("a filled slot's number is a key");
                    Some((key, v))
                })
        });
        dense.chain(self.rest.iter().map(|(k, v)| (*k, v)))
    }

    /// Every key, in [`iter`](NumberBlock::iter) order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in [`iter`](NumberBlock::iter) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        let dense = self
            .series
            .iter()
            .flat_map(|series| series.slots.iter().flatten());
        dense.chain(self.rest.values())
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
