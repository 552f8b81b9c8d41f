//! One fixed, unseeded hasher for the simulator's keyed lookups.
//!
//! `std`'s `HashMap` defaults to SipHash keyed by `RandomState`, a key
//! the OS draws per process: slow on short keys, and a hidden input to
//! any code that iterates a map. The simulator's keys are its own
//! generated names, paths and numbers, so hash flooding is not a threat
//! and a keyless hash serves better. [`FxHasher`] is the word-at-a-time
//! multiply-rotate scheme rustc uses for its own tables: each 8-byte
//! word is folded in with one rotate, one xor and one multiply.
//!
//! A hash map still iterates in an order no caller should rely on;
//! code that lists or sweeps one sorts first or states why order does
//! not matter (lint rule D003). Names that must hash identically across
//! platforms and releases, such as placement directories, use
//! [`crate::rng::stable_hash`] instead.
//!
//! # Examples
//!
//! ```
//! use simcore::hash::FxHashMap;
//!
//! let mut sizes: FxHashMap<Box<str>, u64> = FxHashMap::default();
//! sizes.insert("out.dat".into(), 4096);
//! // Probed with a borrowed name: no allocation on lookup.
//! assert_eq!(sizes.get("out.dat"), Some(&4096));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc-hash's constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fast, keyless hasher for in-process tables (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        // The tail is read as the zero-padded little-endian word, with
        // fixed-size (overlapping) loads instead of a copy: a name is
        // often shorter than one word, and a variable-length copy into
        // a buffer costs more than the rest of the hash. `str` hashes
        // append a 0xff terminator and byte-slice hashes write the
        // length first, so zero padding never makes two distinct
        // strings feed the same words.
        let tail = words.remainder();
        let n = tail.len();
        let last = match n {
            0 => return,
            1 => tail[0] as u64,
            2 | 3 => {
                u16::from_le_bytes([tail[0], tail[1]]) as u64
                    | (tail[n - 1] as u64) << (8 * (n - 1))
            }
            _ => {
                let lo = u32::from_le_bytes(tail[..4].try_into().expect("4-byte head"));
                let hi = u32::from_le_bytes(tail[n - 4..].try_into().expect("4-byte end"));
                lo as u64 | (hi as u64) << (8 * (n - 4))
            }
        };
        self.add(last);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The last multiply mixes upwards, so the well-mixed high bits are
    /// rotated down to where a table takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every map built with it hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` probed with [`FxHasher`]; build it with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` probed with [`FxHasher`]; build it with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders_and_runs() {
        assert_eq!(hash_of("shared/out"), hash_of("shared/out"));
        assert_eq!(hash_of(&7u64), hash_of(&7u64));
        // Pinned: no seed, so every process agrees on these.
        assert_eq!(hash_of("shared/out"), 0xe3a4_0c58_1227_5fdb);
        assert_eq!(hash_of(&7u64), 0x9d12_ca91_8e61_d971);
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn strings_hash_like_their_borrowed_form() {
        let owned: Box<str> = "f00042".into();
        assert_eq!(hash_of(&owned), hash_of("f00042"));
        assert_eq!(hash_of(&String::from("f00042")), hash_of("f00042"));
    }

    #[test]
    fn tail_loads_read_the_zero_padded_word() {
        let bytes = b"abcdefghijklmnopq";
        for n in 0..=bytes.len() {
            let mut got = FxHasher::default();
            got.write(&bytes[..n]);
            let mut want = FxHasher::default();
            for chunk in bytes[..n].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                want.add(u64::from_le_bytes(word));
            }
            assert_eq!(got.finish(), want.finish(), "{n} bytes");
        }
    }

    #[test]
    fn prefixes_and_padding_do_not_collide() {
        let names = ["", "a", "ab", "abcdefg", "abcdefgh", "abcdefghi"];
        let mut seen: Vec<u64> = names.iter().map(|n| hash_of(*n)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), names.len());
    }

    /// Generated names differ in a digit or two; their bucket indexes
    /// (the low bits a table keeps) must still spread.
    #[test]
    fn sequential_names_spread_over_buckets() {
        let buckets = 1usize << 10;
        let mut used = vec![0u32; buckets];
        for i in 0..buckets {
            used[hash_of(&format!("f{i:05}")) as usize & (buckets - 1)] += 1;
        }
        let empty = used.iter().filter(|&&n| n == 0).count();
        // A uniform hash leaves about 1/e (37 %) of the buckets empty.
        assert!(empty < buckets / 2, "{empty} of {buckets} buckets empty");
        assert!(used.iter().all(|&n| n < 8), "{used:?}");
    }
}
