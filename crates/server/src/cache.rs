//! The serving layer's LRU result cache.
//!
//! Assessments are deterministic in `(preset, spec, plan, rounds, seed)`
//! — the exact inputs [`recloud_assess::assessment_key`] fingerprints —
//! so a repeated request can be answered from memory without touching the
//! worker pool at all. The cache is a `HashMap` plus a tick-indexed
//! recency map: every hit or insert stamps the entry with the current
//! logical tick and moves it in a `BTreeMap<tick, key>`, so the LRU
//! victim is the recency map's first entry — O(log n) per operation
//! instead of the former O(capacity) full-map scan per insert-at-full
//! (which dominated the cached path once the durable store made large,
//! always-full caches the normal case). Ticks strictly increase, so each
//! tick maps to at most one key and the `BTreeMap` never collides.

use crate::protocol::AssessResponse;
use std::collections::{BTreeMap, HashMap};

struct Entry {
    value: AssessResponse,
    last_used: u64,
}

/// Fixed-capacity least-recently-used map from assessment fingerprints to
/// finished assessments.
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u128, Entry>,
    /// Recency index: `last_used tick → key`, kept exactly in sync with
    /// `map`. First entry is the LRU victim, last the most recent.
    order: BTreeMap<u64, u128>,
}

/// Bytes one resident entry costs: the `HashMap` slot (key + value +
/// recency stamp) plus the `BTreeMap` index pair. Deliberately the
/// *accounting* size — allocator slack and table overcapacity are not
/// modeled — so `bytes()` is exactly linear in `len()` and testable.
const ENTRY_BYTES: usize =
    std::mem::size_of::<(u128, Entry)>() + std::mem::size_of::<(u64, u128)>();

impl ResultCache {
    /// A cache holding at most `capacity` entries; zero disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1 << 12)),
            order: BTreeMap::new(),
        }
    }

    /// Looks up a fingerprint, refreshing its recency on hit. The returned
    /// copy has `cached` forced true, so callers can forward it verbatim.
    pub fn get(&mut self, key: u128) -> Option<AssessResponse> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&key)?;
        self.order.remove(&entry.last_used);
        self.order.insert(tick, key);
        entry.last_used = tick;
        Some(AssessResponse { cached: true, ..entry.value })
    }

    /// Stores a finished assessment, evicting the least-recently-used
    /// entry when full. The stored copy has `cached` forced false — the
    /// flag describes how a *response* was produced, not the entry.
    /// Returns the fingerprint of the evicted entry, if any, so the
    /// serving layer can count evictions (and tombstone them in the
    /// durable store).
    pub fn insert(&mut self, key: u128, value: AssessResponse) -> Option<u128> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        if let Some(existing) = self.map.get(&key) {
            self.order.remove(&existing.last_used);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest_tick, &oldest_key)) = self.order.first_key_value() {
                self.order.remove(&oldest_tick);
                self.map.remove(&oldest_key);
                evicted = Some(oldest_key);
            }
        }
        self.order.insert(self.tick, key);
        self.map.insert(
            key,
            Entry { value: AssessResponse { cached: false, ..value }, last_used: self.tick },
        );
        evicted
    }

    /// Drops a fingerprint without touching recency bookkeeping of other
    /// entries. Used when replaying `Evict` tombstones from the store.
    pub fn remove(&mut self, key: u128) -> bool {
        match self.map.remove(&key) {
            Some(entry) => {
                self.order.remove(&entry.last_used);
                true
            }
            None => false,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounting bytes resident entries cost (`len() ×` a pinned
    /// per-entry size) — the `server.cache_bytes` gauge.
    pub fn bytes(&self) -> usize {
        self.map.len() * ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(score: f64) -> AssessResponse {
        AssessResponse { score, variance: 1e-9, rounds: 100, successes: 99, cached: false }
    }

    #[test]
    fn hit_returns_cached_copy_and_miss_returns_none() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get(1), None);
        c.insert(1, resp(0.5));
        let hit = c.get(1).unwrap();
        assert!(hit.cached, "served-from-cache flag must be set");
        assert_eq!(hit.score, 0.5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let mut c = ResultCache::new(2);
        c.insert(1, resp(0.1));
        c.insert(2, resp(0.2));
        c.get(1); // 2 is now the LRU entry
        let evicted = c.insert(3, resp(0.3));
        assert_eq!(evicted, Some(2), "insert reports which fingerprint fell out");
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some(), "recently-touched entry survives");
        assert!(c.get(2).is_none(), "LRU entry was evicted");
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict_others() {
        let mut c = ResultCache::new(2);
        c.insert(1, resp(0.1));
        c.insert(2, resp(0.2));
        assert_eq!(c.insert(1, resp(0.9)), None); // overwrite, cache already full
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().score, 0.9);
        assert!(c.get(2).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(1, resp(0.1));
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn eviction_order_matches_a_reference_lru_under_churn() {
        // The tick-indexed order map must agree with a brute-force LRU
        // (the old O(n) scan) over a long mixed get/insert sequence.
        let capacity = 8;
        let mut c = ResultCache::new(capacity);
        let mut reference: Vec<u128> = Vec::new(); // LRU first
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..4000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = u128::from(state >> 52); // small key space forces reuse
            if state & 1 == 0 {
                let hit = c.get(key).is_some();
                assert_eq!(hit, reference.contains(&key), "step {step}");
                if hit {
                    reference.retain(|&k| k != key);
                    reference.push(key);
                }
            } else {
                let evicted = c.insert(key, resp(0.1));
                if let Some(pos) = reference.iter().position(|&k| k == key) {
                    reference.remove(pos);
                    assert_eq!(evicted, None, "step {step}");
                } else if reference.len() >= capacity {
                    let oldest = reference.remove(0);
                    assert_eq!(evicted, Some(oldest), "step {step}");
                } else {
                    assert_eq!(evicted, None, "step {step}");
                }
                reference.push(key);
            }
            assert_eq!(c.len(), reference.len(), "step {step}");
        }
    }

    #[test]
    fn remove_reports_presence_and_frees_a_slot() {
        let mut c = ResultCache::new(2);
        c.insert(1, resp(0.1));
        c.insert(2, resp(0.2));
        assert!(c.remove(2));
        assert!(!c.remove(2), "double remove reports absence");
        assert_eq!(c.len(), 1);
        assert_eq!(c.insert(3, resp(0.3)), None, "the removed entry's slot is free");
        assert_eq!(c.insert(4, resp(0.4)), Some(1));
    }

    #[test]
    fn bytes_is_linear_in_len() {
        let mut c = ResultCache::new(8);
        assert_eq!(c.bytes(), 0);
        c.insert(1, resp(0.1));
        let per_entry = c.bytes();
        assert!(per_entry > 0);
        c.insert(2, resp(0.2));
        assert_eq!(c.bytes(), 2 * per_entry);
        c.remove(1);
        assert_eq!(c.bytes(), per_entry);
    }
}
