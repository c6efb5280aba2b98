//! Memoization of generated stochastic streams.
//!
//! A comparator-based SNG is a pure function of its lane seed and its
//! comparator threshold: the same `(seed, threshold)` pair always yields the
//! same bit-stream (see [`crate::sng`]). Network inference re-encodes the
//! same values over and over — background pixels repeat within an image, and
//! every decoded layer output is quantized to one of `L + 1` bipolar levels —
//! so a compiled inference engine can skip most SNG work by caching streams
//! under that key. [`StreamCache`] is that cache: a bounded map from
//! `(lane_seed, threshold)` to the generated stream, with arena-backed
//! hand-out so steady-state hits allocate nothing.
//!
//! Correctness does not depend on any cache policy: an entry is only ever a
//! copy of what the generator would produce for the same key, so hits and
//! misses (and evictions) are observationally identical to always
//! regenerating.

use crate::arena::StreamArena;
use crate::bitstream::BitStream;
use std::collections::HashMap;

/// Cache key: the SNG lane seed and the 16-bit comparator threshold the
/// stream was generated with (see [`crate::sng::probability_threshold`]).
pub type StreamKey = (u64, u32);

/// Running hit/miss counters of a [`StreamCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to generate a fresh stream.
    pub misses: u64,
    /// Number of eviction passes run after reaching capacity.
    pub flushes: u64,
    /// Total entries removed by eviction passes (not lookups or `clear`).
    pub evicted: u64,
    /// Streams currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of requests served from the cache (zero when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another cache's counters into this one (used to aggregate
    /// over fan-out worker sessions or benchmark phases). `entries` is
    /// occupancy, not a counter: the merged value is the summed occupancy
    /// of the constituent caches at their snapshot times.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.flushes += other.flushes;
        self.evicted += other.evicted;
        self.entries += other.entries;
    }
}

/// One cached stream plus the generation of its last insert or hit.
#[derive(Debug)]
struct CacheEntry {
    generation: u64,
    stream: BitStream,
}

/// A bounded `(lane_seed, threshold) → BitStream` memo table.
///
/// Eviction is generation-based: every insert *and every hit* stamps the
/// entry with a monotonically increasing generation, and when the table
/// reaches capacity an eviction pass drops the stale half (entries whose
/// generation falls outside the newest `capacity / 2` touches). The previous
/// wholesale flush emptied the table mid-request and produced a periodic
/// hit-rate cliff — every hot key (saturated activations, background pixels)
/// had to miss once per epoch; keeping the recently-touched half warm
/// removes the cliff while the bookkeeping stays one `HashMap` operation per
/// lookup plus an amortized O(1) retain per insert. Eviction can never
/// change any result: an entry is only ever a copy of what the generator
/// would produce for the same key.
#[derive(Debug)]
pub struct StreamCache {
    map: HashMap<StreamKey, CacheEntry>,
    capacity: usize,
    generation: u64,
    hits: u64,
    misses: u64,
    flushes: u64,
    evicted: u64,
}

impl StreamCache {
    /// Creates a cache holding at most `capacity` streams (minimum one).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity: capacity.max(1),
            generation: 0,
            hits: 0,
            misses: 0,
            flushes: 0,
            evicted: 0,
        }
    }

    /// Returns the stream for `key` at the given `length`, generating it
    /// with `fill` on a miss.
    ///
    /// The length is part of the lookup: a cached entry of a different
    /// length (possible when one cache is shared across engines with
    /// different stream lengths) counts as a miss and is replaced, so a hit
    /// can never hand back a wrong-length stream.
    ///
    /// The returned stream is an arena-backed copy owned by the caller
    /// (recycle it into `arena` when done); the cache keeps its own master
    /// copy. `fill` receives the arena so generation itself can reuse pooled
    /// buffers and must produce a stream of `length` bits.
    ///
    /// # Errors
    ///
    /// Propagates whatever error `fill` returns; the cache is unchanged in
    /// that case.
    pub fn get_or_generate<E>(
        &mut self,
        key: StreamKey,
        length: crate::bitstream::StreamLength,
        arena: &mut StreamArena,
        fill: impl FnOnce(&mut StreamArena) -> Result<BitStream, E>,
    ) -> Result<BitStream, E> {
        if let Some(entry) = self.map.get_mut(&key) {
            if entry.stream.stream_length() == length {
                self.hits += 1;
                // Refresh the entry's generation so constantly-hit keys
                // never age into the evicted half (insertion-order-only
                // aging would still cliff hot keys once per epoch).
                self.generation += 1;
                entry.generation = self.generation;
                let mut copy = arena.take_zeroed(length);
                copy.copy_range_from(&entry.stream, 0, entry.stream.len());
                return Ok(copy);
            }
        }
        self.misses += 1;
        let stream = fill(arena)?;
        debug_assert_eq!(stream.len(), length.bits(), "fill produced a wrong length");
        // `retain` leaves tombstones that use up the table's spare room; an
        // insert into a table with none left and more than half of it live
        // doubles the table. Once eviction runs, a full table evicts first.
        let table_full = self.flushes > 0 && self.map.len() == self.map.capacity();
        if (self.map.len() >= self.capacity || table_full) && !self.map.contains_key(&key) {
            self.evict_old_half();
        }
        self.generation += 1;
        self.map.insert(
            key,
            CacheEntry {
                generation: self.generation,
                stream: stream.clone(),
            },
        );
        Ok(stream)
    }

    /// Drops the entries outside the newest `capacity / 2` generations
    /// (inserts and hits both count). Generations are unique per touch, so
    /// at most `capacity / 2` entries survive.
    fn evict_old_half(&mut self) {
        let cutoff = self.generation.saturating_sub((self.capacity / 2) as u64);
        let before = self.map.len();
        self.map.retain(|_, entry| entry.generation > cutoff);
        self.flushes += 1;
        self.evicted += (before - self.map.len()) as u64;
    }

    /// Drops all cached streams (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            flushes: self.flushes,
            evicted: self.evicted,
            entries: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::StreamLength;
    use crate::sng::{Sng, SngKind};

    fn generate(seed: u64, value: f64, len: usize) -> BitStream {
        Sng::new(SngKind::Lfsr32, seed)
            .generate_bipolar(value, StreamLength::new(len))
            .unwrap()
    }

    #[test]
    fn hit_returns_identical_stream() {
        let mut cache = StreamCache::new(16);
        let mut arena = StreamArena::new();
        let expected = generate(5, 0.25, 130);
        let length = StreamLength::new(130);
        let first = cache
            .get_or_generate::<()>((5, 100), length, &mut arena, |_| Ok(generate(5, 0.25, 130)))
            .unwrap();
        assert_eq!(first, expected);
        arena.recycle(first);
        // Second request must be served from the cache and still match.
        let second = cache
            .get_or_generate::<()>((5, 100), length, &mut arena, |_| {
                panic!("cache must not regenerate on a hit")
            })
            .unwrap();
        assert_eq!(second, expected);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_flush_keeps_results_correct() {
        let mut cache = StreamCache::new(2);
        let mut arena = StreamArena::new();
        for round in 0..3u64 {
            for key in 0..4u64 {
                let got = cache
                    .get_or_generate::<()>((key, 0), StreamLength::new(64), &mut arena, |_| {
                        Ok(generate(key, 0.5, 64))
                    })
                    .unwrap();
                assert_eq!(got, generate(key, 0.5, 64), "round {round} key {key}");
                arena.recycle(got);
            }
        }
        assert!(cache.stats().flushes > 0);
        assert!(cache.stats().entries <= 2);
    }

    #[test]
    fn eviction_keeps_the_recently_inserted_half_warm() {
        let mut cache = StreamCache::new(8);
        let mut arena = StreamArena::new();
        let length = StreamLength::new(64);
        // Fill to capacity: keys 0..8, insertion order = key order.
        for key in 0..8u64 {
            let got = cache
                .get_or_generate::<()>((key, 0), length, &mut arena, |_| Ok(generate(key, 0.5, 64)))
                .unwrap();
            arena.recycle(got);
        }
        // The ninth insert triggers one eviction pass.
        let got = cache
            .get_or_generate::<()>((8, 0), length, &mut arena, |_| Ok(generate(8, 0.5, 64)))
            .unwrap();
        arena.recycle(got);
        let stats = cache.stats();
        assert_eq!(stats.flushes, 1);
        // Exactly the old half (keys 0..4) was dropped, and the counter
        // records the evicted entries, not just the pass.
        assert_eq!(stats.evicted, 4);
        assert_eq!(stats.entries, 5);
        // The young half (keys 4..8) survived: re-requesting them must hit,
        // not regenerate — this is the mid-request hit-rate cliff the
        // wholesale flush used to cause.
        for key in 4..8u64 {
            let got = cache
                .get_or_generate::<()>((key, 0), length, &mut arena, |_| {
                    panic!("key {key} should have survived the eviction pass")
                })
                .unwrap();
            assert_eq!(got, generate(key, 0.5, 64));
            arena.recycle(got);
        }
    }

    #[test]
    fn constantly_hit_keys_survive_eviction_regardless_of_insert_age() {
        // Hits refresh an entry's generation, so a hot key inserted first
        // must outlive an eviction pass triggered by cold-key churn.
        let mut cache = StreamCache::new(8);
        let mut arena = StreamArena::new();
        let length = StreamLength::new(64);
        let mut touch = |cache: &mut StreamCache, key: u64, may_generate: bool| {
            let got = cache
                .get_or_generate::<()>((key, 0), length, &mut arena, |_| {
                    assert!(may_generate, "key {key} should have been cached");
                    Ok(generate(key, 0.5, 64))
                })
                .unwrap();
            arena.recycle(got);
        };
        touch(&mut cache, 100, true); // the hot key, inserted first
        for key in 0..7u64 {
            touch(&mut cache, key, true); // cold fill to capacity
            touch(&mut cache, 100, false); // hot key hit after every insert
        }
        // Churn past capacity: eviction passes must spare the hot key.
        for key in 200..212u64 {
            touch(&mut cache, key, true);
            touch(&mut cache, 100, false);
        }
        assert!(cache.stats().flushes > 0, "churn must have evicted");
    }

    #[test]
    fn eviction_churn_does_not_grow_the_table() {
        // 3,000 entries sit in a table with room for 3,584: more than half
        // of it stays live between eviction passes, so a table whose spare
        // room runs out under churn would double.
        let capacity = 3000;
        let mut cache = StreamCache::new(capacity);
        let mut arena = StreamArena::new();
        let length = StreamLength::new(64);
        let mut table_at_first_eviction = 0;
        for key in 0..10 * capacity as u64 {
            let got = cache
                .get_or_generate::<()>((key, 0), length, &mut arena, |_| Ok(generate(key, 0.5, 64)))
                .unwrap();
            assert_eq!(got, generate(key, 0.5, 64), "key {key}");
            arena.recycle(got);
            if cache.stats().flushes == 0 {
                table_at_first_eviction = cache.map.capacity();
            }
        }
        assert!(cache.stats().flushes > 0, "churn must evict");
        assert!(
            cache.map.capacity() <= table_at_first_eviction,
            "table grew from {table_at_first_eviction} to {}",
            cache.map.capacity()
        );
    }

    #[test]
    fn capacity_one_cache_stays_bounded() {
        let mut cache = StreamCache::new(1);
        let mut arena = StreamArena::new();
        for key in 0..5u64 {
            let got = cache
                .get_or_generate::<()>((key, 0), StreamLength::new(32), &mut arena, |_| {
                    Ok(generate(key, 0.25, 32))
                })
                .unwrap();
            assert_eq!(got, generate(key, 0.25, 32));
            arena.recycle(got);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 1);
        assert_eq!(stats.evicted, stats.flushes);
    }

    #[test]
    fn mismatched_length_is_a_miss_not_a_wrong_stream() {
        let mut cache = StreamCache::new(16);
        let mut arena = StreamArena::new();
        let long = cache
            .get_or_generate::<()>((9, 9), StreamLength::new(256), &mut arena, |_| {
                Ok(generate(9, 0.25, 256))
            })
            .unwrap();
        assert_eq!(long.len(), 256);
        // Same key, different length: must regenerate, never return the
        // 256-bit master.
        let short = cache
            .get_or_generate::<()>((9, 9), StreamLength::new(64), &mut arena, |_| {
                Ok(generate(9, 0.25, 64))
            })
            .unwrap();
        assert_eq!(short, generate(9, 0.25, 64));
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn errors_propagate_and_do_not_insert() {
        let mut cache = StreamCache::new(4);
        let mut arena = StreamArena::new();
        let result =
            cache
                .get_or_generate::<&str>((1, 1), StreamLength::new(8), &mut arena, |_| Err("boom"));
        assert_eq!(result.unwrap_err(), "boom");
        assert_eq!(cache.stats().entries, 0);
        cache.clear();
        assert_eq!(cache.stats().misses, 1);
    }
}
