//! A fast, non-cryptographic hasher (the rustc-hash / FxHash construction:
//! rotate, xor, multiply per word), shared by the detection hot paths: the
//! per-row `vio` tally here and the dictionary interning / group maps in
//! `colstore`. SipHash shows up prominently in profiles on these maps, and
//! FxHash is the standard replacement when HashDoS resistance is
//! irrelevant — all inputs are the operator's own table data.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Distinct keys a [`DistinctCounter`] probes linearly before spilling to
/// a hash index. Violating groups typically disagree on a handful of RHS
/// values, where scanning a counted vec beats hashing every member.
const LINEAR_MAX: usize = 16;

/// Distinct-key counter for the per-group counting passes of the
/// detection hot paths: a linear counted vec for the typical
/// few-distinct-values case (no hashing per member), spilling to an
/// [`FxHashMap`] index past `LINEAR_MAX` so high-cardinality inputs
/// stay `O(members)`. Slot indices are assigned in first-seen order and
/// stay stable across the spill.
///
/// One implementation for the three call sites that used to hand-roll it:
/// `ViolationReport::push_multi` (counting `&Value`), and colstore's
/// member decoding and partial-group export (counting `u32` codes).
#[derive(Debug, Clone, Default)]
pub struct DistinctCounter<K> {
    counts: Vec<(K, u64)>,
    hashed: Option<FxHashMap<K, u32>>,
}

impl<K: Copy + Eq + std::hash::Hash> DistinctCounter<K> {
    /// Empty counter.
    pub fn new() -> DistinctCounter<K> {
        DistinctCounter {
            counts: Vec::new(),
            hashed: None,
        }
    }

    /// Count one occurrence of `k`; returns its stable slot index.
    pub fn add(&mut self, k: K) -> u32 {
        let DistinctCounter { counts, hashed } = self;
        let idx = match hashed {
            Some(map) => *map.entry(k).or_insert_with(|| {
                counts.push((k, 0));
                (counts.len() - 1) as u32
            }),
            None => match counts.iter().position(|(c, _)| *c == k) {
                Some(i) => i as u32,
                None if counts.len() < LINEAR_MAX => {
                    counts.push((k, 0));
                    (counts.len() - 1) as u32
                }
                None => {
                    let mut map: FxHashMap<K, u32> = counts
                        .iter()
                        .enumerate()
                        .map(|(i, (c, _))| (*c, i as u32))
                        .collect();
                    counts.push((k, 0));
                    let idx = (counts.len() - 1) as u32;
                    map.insert(k, idx);
                    *hashed = Some(map);
                    idx
                }
            },
        };
        counts[idx as usize].1 += 1;
        idx
    }

    /// Occurrences counted for `k` (0 if never added).
    pub fn count_of(&self, k: K) -> u64 {
        let at = match &self.hashed {
            Some(map) => map.get(&k).map(|&i| i as usize),
            None => self.counts.iter().position(|(c, _)| *c == k),
        };
        at.map_or(0, |i| self.counts[i].1)
    }

    /// Occurrences counted in slot `idx` (as returned by [`Self::add`]).
    pub fn count_at(&self, idx: u32) -> u64 {
        self.counts[idx as usize].1
    }

    /// Number of distinct keys seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `(key, count)` slots, in first-seen order.
    pub fn into_counts(self) -> Vec<(K, u64)> {
        self.counts
    }
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash word hasher.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
            self.add(rest.len() as u64);
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_hash_equal() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b"ab"), h(b"ba"));
    }

    #[test]
    fn distinct_counter_spills_past_linear_max() {
        let mut c: super::DistinctCounter<u32> = super::DistinctCounter::new();
        // 40 distinct keys force the hash spill; every key added twice.
        let idxs: Vec<u32> = (0..40u32).map(|k| c.add(k)).collect();
        for k in 0..40u32 {
            assert_eq!(c.add(k), idxs[k as usize], "indices stable across spill");
        }
        assert_eq!(c.distinct(), 40);
        assert_eq!(c.count_of(7), 2);
        assert_eq!(c.count_at(idxs[7]), 2);
        assert_eq!(c.count_of(999), 0);
        let counts = c.into_counts();
        assert_eq!(counts[0], (0, 2), "first-seen order preserved");
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get("k42"), Some(&42));
    }
}
