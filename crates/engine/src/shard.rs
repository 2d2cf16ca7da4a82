//! N-way sharded wrappers around the LRU cache and the single-flight
//! table.
//!
//! The PR-2 engine kept one mutex in front of each cache and one in front
//! of each in-flight table. On the warm path every submission takes the
//! result-cache lock, so once the cache hit rate approaches 1 the whole
//! engine serializes on that single mutex — the worker matrix in
//! `BENCH_engine.json` showed warm throughput flat from 1 to 4 workers
//! for exactly this reason. Splitting the key space over
//! power-of-two-many independently locked shards makes concurrent hits to
//! *different* keys contention-free while keeping every per-key invariant
//! (LRU within a shard, one leader per key) intact.
//!
//! Shard routing hashes the key with [`std::hash::DefaultHasher`]
//! (SipHash-1-3 with fixed keys — deterministic across runs and
//! processes) and masks the low bits, so a key always lands on the same
//! shard and bit-identity of the cached values is untouched: sharding
//! moves entries between locks, never between keys.
//!
//! Each cache shard keeps its own lock-free hit/miss/insert/contention
//! counters ([`CacheShardStats`]): `contended` counts lock acquisitions
//! that found the shard mutex already held (a `try_lock` failure followed
//! by a blocking lock). On a single-core box, where parallel speedups are
//! invisible, the contention split across shard counts is the observable
//! evidence that the lock ceiling moved.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;

use crate::cache::LruCache;
use crate::singleflight::{Flight, SingleFlight, Slot};

/// Resolves a shard-count knob: `0` means `default`, anything else is
/// rounded up to the next power of two and clamped to `[1, 256]`.
#[must_use]
pub fn resolve_shards(requested: usize, default: usize) -> usize {
    let n = if requested == 0 { default } else { requested };
    n.clamp(1, 256).next_power_of_two()
}

/// The deterministic shard index of `key` among `2^k` shards selected by
/// `mask = 2^k - 1`.
fn shard_index<K: Hash>(key: &K, mask: u64) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    #[allow(clippy::cast_possible_truncation)]
    let idx = (h.finish() & mask) as usize;
    idx
}

/// The shard `key` routes to among `shards` shards — the same routing the
/// sharded containers use, exposed so harnesses can construct key sets
/// with known shard placement (e.g. one hot key per shard, or all hot
/// keys colliding on one shard).
///
/// # Panics
///
/// Panics if `shards` is not a power of two (see [`resolve_shards`]).
#[must_use]
pub fn shard_of<K: Hash>(key: &K, shards: usize) -> usize {
    assert!(
        shards.is_power_of_two(),
        "shard count must be a power of two, got {shards}"
    );
    shard_index(key, shards as u64 - 1)
}

/// Point-in-time counters of one cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Lookups that found their key in this shard.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions (including refreshes of an existing key).
    pub inserts: u64,
    /// Lock acquisitions that found the shard mutex already held.
    pub contended: u64,
    /// Entries currently cached in this shard.
    pub entries: u64,
}

/// One independently locked cache shard with its own counters.
#[derive(Debug)]
struct CacheShard<K, V> {
    map: parking_lot::Mutex<LruCache<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    contended: AtomicU64,
}

impl<K: Eq + Hash + Copy, V: Clone> CacheShard<K, V> {
    /// Locks the shard, counting the acquisition as contended when the
    /// mutex was already held.
    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        if let Some(guard) = self.map.try_lock() {
            return guard;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.map.lock()
    }
}

/// An N-way sharded bounded LRU map. Each shard holds
/// `ceil(capacity / shards)` entries, so the total capacity is at least
/// the requested one; eviction is LRU *within* a shard.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<CacheShard<K, V>>,
    mask: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> ShardedCache<K, V> {
    /// An empty cache of `capacity` total entries split over `shards`
    /// (must be a power of two — see [`resolve_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `shards` is not a power of two.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| CacheShard {
                    map: parking_lot::Mutex::new(LruCache::new(per_shard)),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    inserts: AtomicU64::new(0),
                    contended: AtomicU64::new(0),
                })
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    fn shard(&self, key: &K) -> &CacheShard<K, V> {
        &self.shards[shard_index(key, self.mask)]
    }

    /// Looks up `key` in its shard, refreshing recency on a hit and
    /// returning a clone of the cached value.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let value = shard.lock().get(key).cloned();
        if value.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Inserts (or refreshes) `key` in its shard, evicting that shard's
    /// LRU entry if the shard is full.
    pub fn insert(&self, key: K, value: V) {
        let shard = self.shard(&key);
        shard.inserts.fetch_add(1, Ordering::Relaxed);
        shard.lock().insert(key, value);
    }

    /// Total entries across every shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard counters, in shard order.
    #[must_use]
    pub fn stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| CacheShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                inserts: s.inserts.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                entries: s.map.lock().len() as u64,
            })
            .collect()
    }

    /// Visits every cached entry (shard by shard, shard-internal order
    /// unspecified) — the snapshot export path.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            let map = shard.map.lock();
            for (k, v) in map.iter() {
                f(k, v);
            }
        }
    }
}

/// An N-way sharded single-flight table: the per-key guarantee (at most
/// one live leader per key) is untouched because a key always routes to
/// the same shard; concurrent flights of *different* keys no longer share
/// a table lock.
#[derive(Debug)]
pub struct ShardedFlight<K, V> {
    shards: Vec<SingleFlight<K, V>>,
    mask: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> ShardedFlight<K, V> {
    /// An empty table split over `shards` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a power of two.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        ShardedFlight {
            shards: (0..shards).map(|_| SingleFlight::new()).collect(),
            mask: shards as u64 - 1,
        }
    }

    fn shard(&self, key: &K) -> &SingleFlight<K, V> {
        &self.shards[shard_index(key, self.mask)]
    }

    /// Joins the flight for `key` in its shard: leader or follower.
    pub fn join(&self, key: K) -> Flight<V> {
        self.shard(&key).join(key)
    }

    /// Leader-side completion — see [`SingleFlight::complete`].
    pub fn complete(&self, key: &K, slot: &std::sync::Arc<Slot<V>>, value: V) {
        self.shard(key).complete(key, slot, value);
    }

    /// Leader-side failure path — see [`SingleFlight::abandon`].
    pub fn abandon(&self, key: &K, slot: &std::sync::Arc<Slot<V>>) {
        self.shard(key).abandon(key, slot);
    }

    /// Keys currently in flight across every shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(SingleFlight::len).sum()
    }

    /// Whether no computation is in flight anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_knob_resolves_to_powers_of_two() {
        assert_eq!(resolve_shards(0, 8), 8);
        assert_eq!(resolve_shards(1, 8), 1);
        assert_eq!(resolve_shards(3, 8), 4);
        assert_eq!(resolve_shards(8, 8), 8);
        assert_eq!(resolve_shards(9, 8), 16);
        assert_eq!(resolve_shards(100_000, 8), 256, "clamped to 256");
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let c = ShardedCache::<u64, u64>::new(64, 8);
        for k in 0..100u64 {
            let a = shard_index(&k, c.mask);
            let b = shard_index(&k, c.mask);
            assert_eq!(a, b, "same key, same shard");
            assert!(a < 8);
            assert_eq!(shard_of(&k, 8), a, "public routing matches internal");
        }
    }

    #[test]
    fn sharded_cache_serves_hits_and_counts() {
        let c = ShardedCache::<u64, &'static str>::new(64, 4);
        assert!(c.is_empty());
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        let stats = c.stats();
        assert_eq!(stats.len(), 4);
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        let misses: u64 = stats.iter().map(|s| s.misses).sum();
        let inserts: u64 = stats.iter().map(|s| s.inserts).sum();
        let entries: u64 = stats.iter().map(|s| s.entries).sum();
        assert_eq!((hits, misses, inserts, entries), (1, 1, 2, 2));
    }

    #[test]
    fn keys_spread_across_shards() {
        let c = ShardedCache::<u64, u64>::new(4096, 8);
        for k in 0..4000u64 {
            c.insert(k, k);
        }
        let stats = c.stats();
        let occupied = stats.iter().filter(|s| s.entries > 0).count();
        assert_eq!(occupied, 8, "SipHash spreads 4000 keys over all shards");
        let max = stats.iter().map(|s| s.entries).max().unwrap();
        assert!(max < 1500, "no shard hoards the key space: {stats:?}");
    }

    #[test]
    fn eviction_is_per_shard_and_capacity_at_least_requested() {
        let c = ShardedCache::<u64, u64>::new(16, 4);
        for k in 0..1000u64 {
            c.insert(k, k);
        }
        assert!(c.len() <= 16, "per-shard caps bound the total");
        assert!(c.len() >= 4, "every shard retains its cap");
    }

    #[test]
    fn for_each_visits_every_entry() {
        let c = ShardedCache::<u64, u64>::new(64, 8);
        for k in 0..20u64 {
            c.insert(k, k * 10);
        }
        let mut seen = Vec::new();
        c.for_each(|&k, &v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 20);
        assert_eq!(seen[7], (7, 70));
    }

    #[test]
    fn sharded_flight_keeps_per_key_leadership() {
        let f = ShardedFlight::<u64, u64>::new(4);
        let Flight::Leader(slot) = f.join(9) else {
            panic!("first join leads")
        };
        assert!(matches!(f.join(9), Flight::Follower(_)));
        assert!(matches!(f.join(10), Flight::Leader(_)));
        assert_eq!(f.len(), 2);
        f.complete(&9, &slot, 81);
        assert_eq!(slot.wait(), Some(81));
        assert!(
            matches!(f.join(9), Flight::Leader(_)),
            "retired after complete"
        );
    }

    #[test]
    fn concurrent_hits_to_distinct_keys_count_contention_rarely() {
        use std::sync::Arc;

        // Smoke test only: contention is timing-dependent, so assert the
        // counters exist and totals add up, not any particular split.
        let c = Arc::new(ShardedCache::<u64, u64>::new(1024, 8));
        for k in 0..512u64 {
            c.insert(k, k);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let k = (t * 2000 + i) % 512;
                        assert_eq!(c.get(&k), Some(k));
                    }
                });
            }
        });
        let stats = c.stats();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert_eq!(hits, 8000, "every lookup was a hit");
    }
}
