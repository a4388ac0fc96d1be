//! A bounded serving-layer cache: completed results plus reusable filter
//! intermediates.
//!
//! Two tiers, both keyed by canonical strings from [`cvr_plan::key`]:
//!
//! * **Results** — a finished [`RowsResponse`] (output rows *and* the
//!   [`cvr_storage::io::IoStats`] the cold execution charged), keyed by the
//!   full descriptor + plan choice + store version. A hit returns the
//!   stored response byte-for-byte; only the `cached` flag differs.
//! * **Filters** — a [`FilterCapture`] (the invisible join's surviving
//!   position list plus the filter phases' exact I/O charges), keyed by the
//!   filter-only part of the descriptor. Different aggregations over the
//!   same `WHERE` clause share one intermediate; a warm execution replays
//!   the charges and runs only phase 3.
//!
//! Memory is bounded by a byte budget covering both tiers; eviction is LRU
//! by a monotonic touch stamp across the union of entries, and an entry
//! larger than the whole budget is simply not admitted. A stamp-ordered
//! index over both tiers makes each eviction O(log n) under the lock.
//! All counters are monotonic and readable without the entry lock
//! ([`QueryCache::stats`]).
//!
//! Determinism: a hit never changes a single reply byte — the differential
//! harness pins `{cold, warm, concurrent}` executions to one serial cold
//! reference, outputs and `IoStats` alike.

use crate::session::RowsResponse;
use cvr_core::FilterCapture;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Monotonic cache counters plus the current footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result-tier hits.
    pub result_hits: u64,
    /// Result-tier misses.
    pub result_misses: u64,
    /// Filter-tier hits (warm executions).
    pub filter_hits: u64,
    /// Filter-tier misses (cold executions that captured).
    pub filter_misses: u64,
    /// Entries inserted (both tiers).
    pub inserted: u64,
    /// Entries evicted to stay within budget.
    pub evicted: u64,
    /// Current footprint in bytes (both tiers).
    pub bytes: usize,
    /// Configured byte budget.
    pub budget: usize,
}

/// One cached value with its accounted size and last-touch stamp.
struct Entry<T> {
    value: T,
    bytes: usize,
    stamp: u64,
}

/// Which map an LRU index slot points into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tier {
    Result,
    Filter,
}

/// Entry maps and the shared footprint/clock, under one lock.
#[derive(Default)]
struct Inner {
    results: HashMap<String, Entry<RowsResponse>>,
    filters: HashMap<String, Entry<Arc<FilterCapture>>>,
    /// Every live entry of both tiers by its touch stamp (stamps are
    /// unique): the first slot is the least recently touched.
    lru: BTreeMap<u64, (Tier, String)>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Move the LRU slot at `old` to `new` (a hit).
    fn retouch(&mut self, old: u64, new: u64) {
        let slot = self.lru.remove(&old).expect("every entry has an LRU slot");
        self.lru.insert(new, slot);
    }

    /// Evict least-recently-touched entries (across both tiers) until the
    /// footprint fits `budget`. Returns how many entries were evicted.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((_, (tier, key))) = self.lru.pop_first() else { break };
            let freed = match tier {
                Tier::Result => self.results.remove(&key).map(|e| e.bytes),
                Tier::Filter => self.filters.remove(&key).map(|e| e.bytes),
            };
            self.bytes -= freed.expect("every LRU slot has an entry");
            evicted += 1;
        }
        evicted
    }
}

/// The serving-layer cache; see the module docs.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    filter_hits: AtomicU64,
    filter_misses: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
}

impl QueryCache {
    /// A cache bounded to `budget` bytes across both tiers.
    pub fn new(budget: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            budget,
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            filter_hits: AtomicU64::new(0),
            filter_misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The maps are valid at every point (no invariant spans a panic),
        // so a poisoned lock is recoverable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a completed result; counts a hit or miss and refreshes the
    /// entry's LRU stamp. The returned response has `cached == false` — the
    /// caller flips it for the wire.
    pub fn get_result(&self, key: &str) -> Option<RowsResponse> {
        let mut inner = self.lock();
        let stamp = inner.next_stamp();
        match inner.results.get_mut(key) {
            Some(e) => {
                let old = std::mem::replace(&mut e.stamp, stamp);
                let value = e.value.clone();
                inner.retouch(old, stamp);
                self.result_hits.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_hits_total{tier=\"result\"}", "Cache hits").inc();
                Some(value)
            }
            None => {
                self.result_misses.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_misses_total{tier=\"result\"}", "Cache misses").inc();
                None
            }
        }
    }

    /// Store a completed result under `key`.
    pub fn put_result(&self, key: String, value: &RowsResponse) {
        let bytes = result_bytes(value);
        self.put(Tier::Result, key, bytes, |inner, key, stamp| {
            let mut value = value.clone();
            value.cached = false;
            inner.results.insert(key, Entry { value, bytes, stamp }).map(|e| (e.stamp, e.bytes))
        });
    }

    /// Look up a filter intermediate; counts a hit or miss and refreshes
    /// the entry's LRU stamp.
    pub fn get_filter(&self, key: &str) -> Option<Arc<FilterCapture>> {
        let mut inner = self.lock();
        let stamp = inner.next_stamp();
        match inner.filters.get_mut(key) {
            Some(e) => {
                let old = std::mem::replace(&mut e.stamp, stamp);
                let value = e.value.clone();
                inner.retouch(old, stamp);
                self.filter_hits.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_hits_total{tier=\"filter\"}", "Cache hits").inc();
                Some(value)
            }
            None => {
                self.filter_misses.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_misses_total{tier=\"filter\"}", "Cache misses").inc();
                None
            }
        }
    }

    /// Store a filter intermediate under `key`.
    pub fn put_filter(&self, key: String, value: Arc<FilterCapture>) {
        let bytes = value.approx_bytes();
        self.put(Tier::Filter, key, bytes, |inner, key, stamp| {
            inner.filters.insert(key, Entry { value, bytes, stamp }).map(|e| (e.stamp, e.bytes))
        });
    }

    /// Presence check without touching counters or LRU stamps (`EXPLAIN`).
    pub fn peek(&self, result_key: &str, filter_key: &str) -> (bool, bool) {
        let inner = self.lock();
        (inner.results.contains_key(result_key), inner.filters.contains_key(filter_key))
    }

    /// Insert through `insert` (which returns the stamp and bytes of the
    /// entry it replaced, if any), index the entry, then evict to budget.
    fn put(
        &self,
        tier: Tier,
        key: String,
        bytes: usize,
        insert: impl FnOnce(&mut Inner, String, u64) -> Option<(u64, usize)>,
    ) {
        if bytes > self.budget {
            return; // would evict the entire cache and still not fit
        }
        let mut inner = self.lock();
        let stamp = inner.next_stamp();
        if let Some((old_stamp, old_bytes)) = insert(&mut inner, key.clone(), stamp) {
            inner.lru.remove(&old_stamp);
            inner.bytes -= old_bytes;
        }
        inner.lru.insert(stamp, (tier, key));
        inner.bytes += bytes;
        self.inserted.fetch_add(1, Ordering::Relaxed);
        cvr_obs::counter("cvr_cache_inserted_total", "Cache entries inserted").inc();
        let evicted = inner.evict_to(self.budget);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
            cvr_obs::counter("cvr_cache_evicted_total", "Cache entries evicted").add(evicted);
        }
    }

    /// Counter snapshot plus current footprint.
    pub fn stats(&self) -> CacheStats {
        let bytes = self.lock().bytes;
        CacheStats {
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            filter_hits: self.filter_hits.load(Ordering::Relaxed),
            filter_misses: self.filter_misses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes,
            budget: self.budget,
        }
    }
}

/// Accounted size of a cached result: the encoded output plus column
/// metadata and map overhead.
fn result_bytes(r: &RowsResponse) -> usize {
    let cols: usize = r.columns.iter().map(|c| c.name.len() + 16).sum();
    r.output.to_bytes().len() + cols + 160
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::{ColumnEngine, EngineConfig, Parallelism, QueryCtx};
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::query;
    use cvr_data::result::QueryOutput;
    use cvr_data::value::Value;
    use cvr_storage::io::IoSession;

    /// A result whose accounted size grows with `rows`.
    fn result(rows: i64) -> RowsResponse {
        RowsResponse {
            query_id: query(1, 1).id,
            plan: "tICL".to_string(),
            columns: Vec::new(),
            output: QueryOutput::new((0..rows).map(|i| (vec![Value::Int(i)], i)).collect()),
            io: Default::default(),
            cached: false,
        }
    }

    fn capture() -> Arc<FilterCapture> {
        let engine = ColumnEngine::new(Arc::new(SsbConfig::with_scale(0.001).generate()));
        let (_, cap) = engine
            .try_execute_planned_capture(
                &query(1, 1),
                EngineConfig::FULL,
                &[0, 1],
                Parallelism::serial(),
                &IoSession::unmetered(),
                &QueryCtx::unbounded(),
            )
            .unwrap();
        Arc::new(cap.expect("the invisible join captures"))
    }

    /// The LRU rule spelled out: every entry of both tiers with its size
    /// and last-touch time; a put evicts the oldest entries, either tier,
    /// until the footprint fits the budget.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Tier, String, usize, u64)>,
        clock: u64,
        evicted: u64,
    }

    impl Model {
        fn touch(&mut self, tier: Tier, key: &str) -> bool {
            self.clock += 1;
            let clock = self.clock;
            let e = self.entries.iter_mut().find(|e| e.0 == tier && e.1 == key);
            e.map(|e| e.3 = clock).is_some()
        }

        fn put(&mut self, tier: Tier, key: &str, bytes: usize, budget: usize) {
            self.clock += 1;
            self.entries.push((tier, key.to_string(), bytes, self.clock));
            while self.entries.iter().map(|e| e.2).sum::<usize>() > budget {
                let oldest = (0..self.entries.len()).min_by_key(|&i| self.entries[i].3).unwrap();
                self.entries.remove(oldest);
                self.evicted += 1;
            }
        }

        fn holds(&self, tier: Tier, key: &str) -> bool {
            self.entries.iter().any(|e| e.0 == tier && e.1 == key)
        }
    }

    #[test]
    fn interleaved_tiers_evict_in_exact_lru_order() {
        let cap = capture();
        // Room for a few entries of either tier: results of four sizes
        // (40 to 160 rows) and one filter size.
        let budget = 3 * cap.approx_bytes() + 2 * result_bytes(&result(160));
        let cache = QueryCache::new(budget);
        let mut model = Model::default();
        let keys: Vec<String> = (0..8).map(|k| format!("k{k}")).collect();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..600 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = &keys[(rng >> 8) as usize % keys.len()];
            let tier = if rng & 1 == 0 { Tier::Result } else { Tier::Filter };
            if rng & 2 == 0 {
                let hit = match tier {
                    Tier::Result => cache.get_result(key).is_some(),
                    Tier::Filter => cache.get_filter(key).is_some(),
                };
                assert_eq!(hit, model.touch(tier, key), "step {step}: get {tier:?} {key}");
            } else if !model.holds(tier, key) {
                match tier {
                    Tier::Result => {
                        let r = result((1 + (rng >> 20) as i64 % 4) * 40);
                        model.put(tier, key, result_bytes(&r), budget);
                        cache.put_result(key.clone(), &r);
                    }
                    Tier::Filter => {
                        model.put(tier, key, cap.approx_bytes(), budget);
                        cache.put_filter(key.clone(), cap.clone());
                    }
                }
            }
            for k in &keys {
                let held = (model.holds(Tier::Result, k), model.holds(Tier::Filter, k));
                assert_eq!(cache.peek(k, k), held, "step {step}: residency of {k}");
            }
            let stats = cache.stats();
            assert_eq!(stats.evicted, model.evicted, "step {step}");
            assert_eq!(stats.bytes, model.entries.iter().map(|e| e.2).sum::<usize>());
        }
        assert!(model.evicted > 50, "the sequence must exercise eviction");
    }

    #[test]
    fn replacing_an_entry_releases_its_bytes() {
        let cap = capture();
        let cache = QueryCache::new(1 << 20);
        cache.put_filter("f".to_string(), cap.clone());
        cache.put_result("r".to_string(), &result(10));
        cache.put_filter("f".to_string(), cap.clone());
        cache.put_result("r".to_string(), &result(20));
        let stats = cache.stats();
        assert_eq!(stats.bytes, cap.approx_bytes() + result_bytes(&result(20)));
        assert_eq!((stats.inserted, stats.evicted), (4, 0));
    }
}
