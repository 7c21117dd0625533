//! The forecast LRU cache.
//!
//! Keyed by `(city, window-end day, horizon, region-tile)`: one entry holds
//! the forecast counts for a contiguous tile of regions across all
//! categories. A full-grid forecast populates every tile of its
//! `(day, horizon)` at once, so neighbouring queries hit without recomputing
//! the forward pass, while eviction granularity stays small enough that a
//! busy city quarter does not pin the whole grid.
//!
//! Cache hits are bit-equal to misses by construction: the entry stores the
//! exact `f32` values the forward pass produced, and responses are rendered
//! from those values on both paths.
//!
//! Recency is a monotonic counter bumped on every touch; eviction scans for
//! the minimum stamp. That is O(capacity) per insert-at-capacity — fine for
//! the few thousand entries a serving box wants, and it keeps the structure
//! a plain `HashMap` with no unsafe intrusive list.

use std::collections::HashMap;

/// Cache key: `(city, window-end day, horizon, region-tile index)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// City the model serves (one engine serves one city; the key carries it
    /// so a multi-city front end can share one cache).
    pub city: String,
    /// Day whose preceding window feeds the forecast.
    pub day: usize,
    /// Steps ahead (1 = the classic next-day forecast).
    pub horizon: usize,
    /// Region-tile index: regions `[tile * TILE_REGIONS, …)` (see
    /// [`crate::server::TILE_REGIONS`]).
    pub tile: usize,
}

/// One cached tile: the forecast counts for `regions × categories`,
/// row-major by region within the tile.
#[derive(Debug, Clone)]
pub struct TileEntry {
    /// First region index covered by this tile.
    pub region_start: usize,
    /// Number of regions in this tile.
    pub regions: usize,
    /// `regions * num_categories` forecast counts.
    pub counts: Vec<f32>,
}

struct Slot {
    entry: TileEntry,
    stamp: u64,
    generation: u64,
}

/// Monotonic counters the `/metrics` endpoint reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

/// The LRU forecast cache.
pub struct ForecastCache {
    capacity: usize,
    map: HashMap<TileKey, Slot>,
    tick: u64,
    /// Bumped by [`Self::invalidate_all`]; entries from older generations
    /// are dead even if a race re-reads them.
    generation: u64,
    stats: CacheStats,
}

impl ForecastCache {
    /// An empty cache holding at most `capacity` tiles (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ForecastCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            tick: 0,
            generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look up a tile, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, key: &TileKey) -> Option<TileEntry> {
        self.tick += 1;
        let generation = self.generation;
        match self.map.get_mut(key) {
            Some(slot) if slot.generation == generation => {
                slot.stamp = self.tick;
                self.stats.hits += 1;
                Some(slot.entry.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) a tile, evicting the least-recently-used entry
    /// when at capacity.
    pub fn insert(&mut self, key: TileKey, entry: TileEntry) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the stale-generation or least-recently-used slot.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, s)| (s.generation == self.generation, s.stamp))
                .map(|(k, _)| k.clone());
            if let Some(v) = victim {
                self.map.remove(&v);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key, Slot { entry, stamp: self.tick, generation: self.generation });
        self.stats.insertions += 1;
    }

    /// Explicit invalidation on checkpoint reload: every cached forecast is
    /// dead the moment the parameters change. Returns how many entries were
    /// dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let dropped = self.map.len();
        self.map.clear();
        self.generation += 1;
        self.stats.invalidations += 1;
        dropped
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(day: usize, tile: usize) -> TileKey {
        TileKey { city: "nyc".into(), day, horizon: 1, tile }
    }

    fn entry(v: f32) -> TileEntry {
        TileEntry { region_start: 0, regions: 2, counts: vec![v; 4] }
    }

    #[test]
    fn hit_returns_bit_identical_values() {
        let mut c = ForecastCache::new(4);
        let vals = vec![1.25f32, f32::MIN_POSITIVE, 0.0, 123.456];
        c.insert(key(10, 0), TileEntry { region_start: 0, regions: 2, counts: vals.clone() });
        let got = c.get(&key(10, 0)).unwrap();
        for (a, b) in got.counts.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = ForecastCache::new(2);
        c.insert(key(1, 0), entry(1.0));
        c.insert(key(2, 0), entry(2.0));
        // Touch day 1 so day 2 is the LRU victim.
        assert!(c.get(&key(1, 0)).is_some());
        c.insert(key(3, 0), entry(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_all_empties_and_counts() {
        let mut c = ForecastCache::new(4);
        c.insert(key(1, 0), entry(1.0));
        c.insert(key(1, 1), entry(2.0));
        assert_eq!(c.invalidate_all(), 2);
        assert!(c.is_empty());
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn distinct_horizons_and_cities_do_not_collide() {
        let mut c = ForecastCache::new(8);
        c.insert(TileKey { city: "nyc".into(), day: 5, horizon: 1, tile: 0 }, entry(1.0));
        c.insert(TileKey { city: "nyc".into(), day: 5, horizon: 2, tile: 0 }, entry(2.0));
        c.insert(TileKey { city: "chi".into(), day: 5, horizon: 1, tile: 0 }, entry(3.0));
        let a = c.get(&TileKey { city: "nyc".into(), day: 5, horizon: 1, tile: 0 }).unwrap();
        let b = c.get(&TileKey { city: "nyc".into(), day: 5, horizon: 2, tile: 0 }).unwrap();
        let d = c.get(&TileKey { city: "chi".into(), day: 5, horizon: 1, tile: 0 }).unwrap();
        assert_eq!((a.counts[0], b.counts[0], d.counts[0]), (1.0, 2.0, 3.0));
    }
}
