//! [`Lru`], the one bounded least-recently-used map of the workspace.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map of at most `capacity` entries that evicts the least recently
/// used one. Lookups through [`get_mut`](Self::get_mut) and
/// [`get_or_insert_with`](Self::get_or_insert_with) both touch their
/// entry.
///
/// Every cache and interner of the serving path is one: the result
/// cache, the prepared-scenario cache and the fingerprint memo of
/// [`crate::EvalService`], and the `serve` front end's scenario interner.
/// Each touch takes the next stamp of the map's own clock, and a
/// `BTreeMap` orders the live stamps, so the least recently used entry is
/// the first of that map: eviction pops it instead of scanning every
/// entry. Stamps are unique, so the victim is always well defined.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    /// Key → (value, stamp of its last touch).
    entries: HashMap<K, (V, u64)>,
    /// Stamp → key, one per entry; the first is the least recently used.
    by_stamp: BTreeMap<u64, K>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries. A capacity of 0
    /// is taken as 1: the entry [`get_or_insert_with`](Self::get_or_insert_with)
    /// returns must stay stored.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            clock: 0,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// The most entries the map holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`, touched.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (value, stamp) = self.entries.get_mut(key)?;
        self.clock += 1;
        restamp(&mut self.by_stamp, stamp, self.clock);
        Some(value)
    }

    /// The value under `key`, touched, or else `make(&key)` stored under
    /// it. A store into a full map first evicts the least recently used
    /// entry and hands it back.
    pub fn get_or_insert_with(
        &mut self,
        key: K,
        make: impl FnOnce(&K) -> V,
    ) -> (&mut V, Option<(K, V)>) {
        let evicted = (self.entries.len() >= self.capacity && !self.entries.contains_key(&key))
            .then(|| {
                let (_, victim) = self.by_stamp.pop_first().expect("one stamp per entry");
                let (value, _) = self.entries.remove(&victim).expect("stamped entry");
                (victim, value)
            });
        self.clock += 1;
        let (value, _) = match self.entries.entry(key) {
            Entry::Occupied(slot) => {
                let slot = slot.into_mut();
                restamp(&mut self.by_stamp, &mut slot.1, self.clock);
                slot
            }
            Entry::Vacant(slot) => {
                let value = make(slot.key());
                self.by_stamp.insert(self.clock, slot.key().clone());
                slot.insert((value, self.clock))
            }
        };
        (value, evicted)
    }
}

/// Moves an entry's stamp from `*stamp` to `now`.
fn restamp<K>(by_stamp: &mut BTreeMap<u64, K>, stamp: &mut u64, now: u64) {
    let key = by_stamp.remove(stamp).expect("one stamp per entry");
    by_stamp.insert(now, key);
    *stamp = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(key, value)` from the least to the most recently used entry.
    fn recency(entries: &HashMap<u64, (u64, u64)>) -> Vec<(u64, u64)> {
        let mut by_stamp: Vec<_> = entries.iter().map(|(&k, &(v, s))| (s, k, v)).collect();
        by_stamp.sort_unstable();
        by_stamp.into_iter().map(|(_, k, v)| (k, v)).collect()
    }

    /// Random interleavings of lookups and inserts, checked after every
    /// step against a reference that stamps each touch and evicts by a
    /// full scan for the oldest stamp.
    #[test]
    fn matches_a_full_scan_reference_and_keeps_its_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for capacity in 1..=8usize {
            let mut lru = Lru::new(capacity);
            // key → (value, last stamp)
            let mut reference: HashMap<u64, (u64, u64)> = HashMap::new();
            for step in 1..=2_000u64 {
                let key = rng.gen_range(0..3 * capacity as u64);
                if rng.gen_bool(0.5) {
                    let got = lru.get_mut(&key).map(|v| *v);
                    let want = reference.get_mut(&key).map(|(v, s)| {
                        *s = step;
                        *v
                    });
                    assert_eq!(got, want, "capacity {capacity}, step {step}");
                } else {
                    let fresh = step * 10;
                    let (value, evicted) = lru.get_or_insert_with(key, |_| fresh);
                    let got = (*value, evicted);
                    let mut victim = None;
                    if !reference.contains_key(&key) && reference.len() == capacity {
                        let (&oldest, _) = reference.iter().min_by_key(|(_, (_, s))| *s).unwrap();
                        victim = reference.remove_entry(&oldest).map(|(k, (v, _))| (k, v));
                    }
                    let slot = reference.entry(key).or_insert((fresh, 0));
                    slot.1 = step;
                    assert_eq!(got, (slot.0, victim), "capacity {capacity}, step {step}");
                }
                assert!(lru.len() <= capacity);
                let order = recency(&lru.entries);
                assert_eq!(
                    order,
                    recency(&reference),
                    "capacity {capacity}, step {step}"
                );
                assert!(lru.by_stamp.values().eq(order.iter().map(|(k, _)| k)));
            }
        }
    }

    #[test]
    fn zero_capacity_keeps_the_entry_it_returns() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert_eq!(lru.get_or_insert_with("a", |_| 1), (&mut 1, None));
        assert_eq!(lru.get_or_insert_with("b", |_| 2), (&mut 2, Some(("a", 1))));
        assert_eq!(lru.get_mut(&"b"), Some(&mut 2));
        assert!(lru.get_mut(&"a").is_none());
    }
}
