//! Size-aware LRU map.
//!
//! Both cache tiers bound *bytes*, not entry counts — a handful of large
//! column blocks must not evict hundreds of small metadata objects by
//! count alone. Recency is tracked with a monotonic tick and a BTreeMap
//! recency index (O(log n) per op). Classic intrusive-list LRUs buy O(1)
//! recency updates with unsafe pointer chasing; this one deliberately
//! doesn't — the crate is `#![forbid(unsafe_code)]` (enforced by
//! `xtask lint`), and the BTreeMap index keeps every op safe at a cost
//! that disappears into the surrounding OSS latencies.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// An LRU map bounded by the sum of entry sizes.
#[derive(Debug)]
pub struct SizedLru<K, V> {
    capacity_bytes: usize,
    used_bytes: usize,
    tick: u64,
    entries: HashMap<K, (V, usize, u64)>,
    recency: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> SizedLru<K, V> {
    /// Creates a cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        SizedLru {
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(&mut self, key: &K) {
        if let Some((_, _, t)) = self.entries.get_mut(key) {
            self.recency.remove(t);
            self.tick += 1;
            *t = self.tick;
            self.recency.insert(self.tick, key.clone());
        }
    }

    /// Looks up a key, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.entries.contains_key(key) {
            self.touch(key);
        }
        self.entries.get(key).map(|(v, _, _)| v)
    }

    /// True if the key is cached (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks up a key without refreshing its recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _, _)| v)
    }

    /// Inserts an entry of `size` bytes, evicting LRU entries as needed.
    /// Returns the evicted `(key, value)` pairs (the memory tier spills
    /// these to the disk tier).
    ///
    /// An entry larger than the whole capacity is not admitted (it is
    /// returned in the eviction list immediately) — avoiding the pathology
    /// where one oversized block flushes the entire cache for nothing.
    pub fn put(&mut self, key: K, value: V, size: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        if size > self.capacity_bytes {
            evicted.push((key, value));
            return evicted;
        }
        // A replaced value is dropped in place, not spilled.
        if let Some((_, old_size, old_tick)) = self.entries.remove(&key) {
            self.recency.remove(&old_tick);
            self.used_bytes -= old_size;
        }
        while self.used_bytes + size > self.capacity_bytes {
            let Some((_, old_key)) = self.recency.pop_first() else { break };
            if let Some((v, s, _)) = self.entries.remove(&old_key) {
                self.used_bytes -= s;
                evicted.push((old_key, v));
            }
        }
        self.tick += 1;
        self.entries.insert(key.clone(), (value, size, self.tick));
        self.recency.insert(self.tick, key);
        self.used_bytes += size;
        evicted
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (v, size, tick) = self.entries.remove(key)?;
        self.recency.remove(&tick);
        self.used_bytes -= size;
        Some(v)
    }

    /// Removes every entry whose key matches `pred`, returning the removed
    /// pairs (the disk tier deletes their backing files). Used to evict
    /// all blocks of one OSS object when the object is garbage-collected.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = self.entries.keys().filter(|k| pred(k)).cloned().collect();
        keys.into_iter().filter_map(|k| self.remove(&k).map(|v| (k, v))).collect()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut lru = SizedLru::new(100);
        assert!(lru.put("a", 1, 10).is_empty());
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.used_bytes(), 10);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        let mut lru = SizedLru::new(30);
        lru.put("a", 1, 10);
        lru.put("b", 2, 10);
        lru.put("c", 3, 10);
        // Touch "a" so "b" is the LRU victim.
        lru.get(&"a");
        let evicted = lru.put("d", 4, 10);
        assert_eq!(evicted, vec![("b", 2)]);
        assert!(lru.contains(&"a") && lru.contains(&"c") && lru.contains(&"d"));
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let mut lru = SizedLru::new(10);
        lru.put("keep", 1, 5);
        let evicted = lru.put("huge", 2, 100);
        assert_eq!(evicted, vec![("huge", 2)]);
        assert!(lru.contains(&"keep"), "oversized insert must not flush cache");
    }

    #[test]
    fn replacing_updates_size() {
        let mut lru = SizedLru::new(100);
        lru.put("a", 1, 60);
        lru.put("a", 2, 10);
        assert_eq!(lru.used_bytes(), 10);
        assert_eq!(lru.get(&"a"), Some(&2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn multiple_evictions_for_one_large_insert() {
        let mut lru = SizedLru::new(30);
        lru.put("a", 1, 10);
        lru.put("b", 2, 10);
        lru.put("c", 3, 10);
        let evicted = lru.put("big", 9, 25);
        assert_eq!(evicted.len(), 3);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.used_bytes(), 25);
    }

    #[test]
    fn remove_and_clear() {
        let mut lru = SizedLru::new(100);
        lru.put("a", 1, 10);
        assert_eq!(lru.remove(&"a"), Some(1));
        assert_eq!(lru.remove(&"a"), None);
        lru.put("b", 2, 10);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.used_bytes(), 0);
    }

    #[test]
    fn stress_against_capacity_invariant() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut lru = SizedLru::new(1000);
        for i in 0..10_000u32 {
            let key = rng.gen_range(0..500u32);
            let size = rng.gen_range(1..200usize);
            lru.put(key, i, size);
            assert!(lru.used_bytes() <= 1000, "capacity invariant violated");
        }
        assert!(!lru.is_empty());
    }
}
