//! Sharded, lock-striped characterization cache.
//!
//! The explorer memoizes array characterizations by canonical
//! [`DesignPointKey`] — the same key type the plan compiler
//! deduplicates jobs by and the worker pool claims them by, so one
//! identity threads the whole pipeline (display labels round
//! temperatures and are not unique; keys are).
//! A single `Mutex<HashMap>` would serialize every worker of a
//! parallel sweep on one lock; a `RefCell` (the previous design) is
//! not `Sync` at all. This cache stripes the key space over `N`
//! independent `RwLock<HashMap>` shards selected by key hash, so
//! concurrent hits on different configurations never contend and hits
//! on the same configuration share a read lock.
//!
//! Locking discipline (see also `DESIGN.md` § Parallelism):
//!
//! * a shard lock is never held across a characterization — misses
//!   release the read lock, compute outside any lock, then take the
//!   write lock only to publish;
//! * two threads racing on the same missing key may both compute; the
//!   first to publish wins and both return the published value, so
//!   callers always observe one canonical entry per key;
//! * lock poisoning is ignored (a panicking characterization leaves
//!   the map in a consistent state: entries are only ever inserted
//!   whole).
//!
//! Every probe is counted (one hit or miss, plus one insert per landed
//! publication) through [`CacheMetrics`] — per-stripe and aggregate —
//! so sweeps can report exactly which evaluations were memoized versus
//! recomputed. Counting is a pair of relaxed atomic adds per probe;
//! caches built with [`ShardedCache::new`] count into free-floating
//! counters that no exporter ever reads.
//!
//! Entries are never removed (the admission cap refuses, it does not
//! evict), so a shard's length only grows. [`CacheCursor`] leans on
//! that: a persistent store remembers each shard's length at its last
//! sync and [`ShardedCache::collect_since`] revisits only the shards
//! that grew since.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use coldtall_array::OrgGeometry;
use coldtall_obs::{Counter, Gauge, Registry};

use crate::plan::DesignPointKey;

/// Explicit cache-construction knobs, decoupled from the process
/// environment.
///
/// One-shot CLI runs read the environment once per construction via
/// [`CacheConfig::from_env`]; long-running hosts (the serve daemon)
/// build a `CacheConfig` from their own flags and thread it through
/// the configured explorer constructors, so a logical restart can
/// change the settings — the previous `OnceLock` latch made the first
/// read permanent for the process lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Export per-stripe cache counters (48 extra names per cache).
    pub detail: bool,
    /// Admission cap: maximum entries a cache will hold across all
    /// stripes. `None` (the default) leaves growth unbounded.
    pub capacity: Option<usize>,
}

impl CacheConfig {
    /// Builds a config from raw setting strings, returning the config
    /// alongside human-readable warnings for every ignored invalid
    /// value. Pure: reads nothing from the environment and prints
    /// nothing, so hosts decide where warnings go.
    ///
    /// `detail` enables per-stripe counters only for the exact string
    /// `"1"`. `capacity` must parse as a positive integer; anything
    /// else is ignored with a warning and leaves the cache unbounded.
    #[must_use]
    pub fn parse(detail: Option<&str>, capacity: Option<&str>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let detail = detail.is_some_and(|v| v == "1");
        let capacity = match capacity {
            None => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(cap) if cap > 0 => Some(cap),
                _ => {
                    warnings.push(format!(
                        "warning: ignoring invalid COLDTALL_CACHE_CAP={raw:?} (expected a \
                         positive integer); leaving the cache unbounded instead"
                    ));
                    None
                }
            },
        };
        (Self { detail, capacity }, warnings)
    }

    /// Reads `COLDTALL_METRICS_DETAIL` and `COLDTALL_CACHE_CAP` fresh
    /// from the environment (no latching) and returns the parsed
    /// config plus any warnings. The caller decides whether and where
    /// to surface the warnings; this crate never prints.
    #[must_use]
    pub fn from_env() -> (Self, Vec<String>) {
        let detail = std::env::var("COLDTALL_METRICS_DETAIL").ok();
        let capacity = std::env::var("COLDTALL_CACHE_CAP").ok();
        Self::parse(detail.as_deref(), capacity.as_deref())
    }
}

/// Number of lock stripes. A small power of two keeps the modulo cheap
/// while comfortably exceeding any realistic worker count's collision
/// rate (the study set has 31 distinct configuration labels).
const SHARDS: usize = 16;

/// Source of per-cache identities for [`CacheCursor`]. Starts at 1 so
/// identity 0 can mark a cursor that has walked no cache yet.
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

/// A resumable position in one [`ShardedCache`]: the cache's identity
/// plus each shard's length when the cursor last walked it.
///
/// Shards only grow, so an unchanged length means an unchanged shard
/// and [`ShardedCache::collect_since`] skips it. A fresh cursor, a
/// [`reset`](CacheCursor::reset) one, or one last advanced over a
/// *different* cache walks every shard.
#[derive(Debug, Clone, Default)]
pub struct CacheCursor {
    /// Identity of the cache the lengths were read from; 0 when none.
    cache: u64,
    lens: [usize; SHARDS],
}

impl CacheCursor {
    /// A cursor whose first walk visits every shard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds to a full walk — what a store does after a failed
    /// append, so the entries it could not write are offered again.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Probe counters for one lock stripe.
#[derive(Debug)]
struct StripeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
}

/// Registry-backed telemetry for a [`ShardedCache`]: aggregate and
/// per-stripe hit/miss/insert counters.
///
/// Every public probe counts exactly one hit or one miss, and every
/// publication that actually lands in the map counts one insert, so
/// `hits + misses == probes` and `inserts == distinct keys` hold at
/// all times. All counts are of *logical* cache traffic — under the
/// explorer's precharacterize/warmup discipline they are deterministic
/// for a given workload regardless of thread count (see `DESIGN.md`
/// § Observability).
#[derive(Debug)]
pub struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    rejected: Arc<Counter>,
    entries: Arc<Gauge>,
    approx_bytes: Arc<Gauge>,
    stripes: Vec<StripeMetrics>,
}

impl CacheMetrics {
    /// Counters registered under `prefix` (e.g. `cache.hits`) in
    /// `registry`. Two caches sharing a registry and prefix share
    /// counters, prometheus-style.
    ///
    /// Per-stripe counters (`cache.stripe07.misses`, 48 names per
    /// cache) are export noise for most consumers, so they are
    /// registered only when `COLDTALL_METRICS_DETAIL=1` is set in the
    /// environment; otherwise they count into free-floating counters
    /// still readable through [`CacheMetrics::stripe`]. Use
    /// [`CacheMetrics::registered_detailed`] to force the full export
    /// regardless of the environment.
    #[must_use]
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        Self::registered_with_detail(registry, prefix, CacheConfig::from_env().0.detail)
    }

    /// [`CacheMetrics::registered`] with the per-stripe counters
    /// unconditionally exported, independent of
    /// `COLDTALL_METRICS_DETAIL`.
    #[must_use]
    pub fn registered_detailed(registry: &Registry, prefix: &str) -> Self {
        Self::registered_with_detail(registry, prefix, true)
    }

    /// [`CacheMetrics::registered`] driven by an explicit
    /// [`CacheConfig`] instead of the environment.
    #[must_use]
    pub fn registered_with_config(registry: &Registry, prefix: &str, config: &CacheConfig) -> Self {
        Self::registered_with_detail(registry, prefix, config.detail)
    }

    fn registered_with_detail(registry: &Registry, prefix: &str, detail: bool) -> Self {
        Self {
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            inserts: registry.counter(&format!("{prefix}.inserts")),
            rejected: registry.counter(&format!("{prefix}.rejected")),
            entries: registry.gauge(&format!("{prefix}.entries")),
            approx_bytes: registry.gauge(&format!("{prefix}.approx_bytes")),
            stripes: (0..SHARDS)
                .map(|i| {
                    if detail {
                        StripeMetrics {
                            hits: registry.counter(&format!("{prefix}.stripe{i:02}.hits")),
                            misses: registry.counter(&format!("{prefix}.stripe{i:02}.misses")),
                            inserts: registry
                                .counter(&format!("{prefix}.stripe{i:02}.inserts")),
                        }
                    } else {
                        StripeMetrics {
                            hits: Arc::new(Counter::new()),
                            misses: Arc::new(Counter::new()),
                            inserts: Arc::new(Counter::new()),
                        }
                    }
                })
                .collect(),
        }
    }

    /// Free-floating counters attached to no registry: the counting
    /// cost is identical, the values are simply not exported. Used by
    /// caches nobody asked to observe.
    #[must_use]
    pub fn unregistered() -> Self {
        Self {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            inserts: Arc::new(Counter::new()),
            rejected: Arc::new(Counter::new()),
            entries: Arc::new(Gauge::new()),
            approx_bytes: Arc::new(Gauge::new()),
            stripes: (0..SHARDS)
                .map(|_| StripeMetrics {
                    hits: Arc::new(Counter::new()),
                    misses: Arc::new(Counter::new()),
                    inserts: Arc::new(Counter::new()),
                })
                .collect(),
        }
    }

    fn hit(&self, stripe: usize) {
        self.hits.inc();
        self.stripes[stripe].hits.inc();
    }

    fn miss(&self, stripe: usize) {
        self.misses.inc();
        self.stripes[stripe].misses.inc();
    }

    fn insert(&self, stripe: usize) {
        self.inserts.inc();
        self.stripes[stripe].inserts.inc();
    }

    /// Total probe hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total probe misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Total publications that landed in the map.
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }

    /// Total publications the admission cap refused. Always zero on an
    /// unbounded cache.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Current entry count as last published to the `.entries` gauge.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries.get()
    }

    /// Estimated resident bytes as last published to the
    /// `.approx_bytes` gauge (canonical key string plus the key and
    /// value struct sizes per entry; heap indirection inside `V` is
    /// not followed).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes.get()
    }

    /// `(hits, misses, inserts)` of one stripe.
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= SHARDS`.
    #[must_use]
    pub fn stripe(&self, stripe: usize) -> (u64, u64, u64) {
        let s = &self.stripes[stripe];
        (s.hits.get(), s.misses.get(), s.inserts.get())
    }
}

/// A concurrent memo table keyed by [`DesignPointKey`] with `SHARDS`
/// lock stripes.
///
/// Values are cloned out; `V` is expected to be a plain data record
/// (the explorer stores `ArrayCharacterization`).
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<RwLock<HashMap<DesignPointKey, V>>>,
    metrics: CacheMetrics,
    /// Admission cap over all stripes; `None` is unbounded. The count
    /// is read outside the stripe being written, so concurrent inserts
    /// on different stripes can overshoot by at most the worker count —
    /// the cap bounds growth, it is not an exact high-water mark.
    cap: Option<usize>,
    entry_count: AtomicUsize,
    byte_estimate: AtomicUsize,
    /// Process-unique identity, checked by [`CacheCursor`].
    id: u64,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates an empty cache whose counters are attached to no
    /// registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_metrics(CacheMetrics::unregistered())
    }

    /// Creates an empty unbounded cache reporting through `metrics`.
    #[must_use]
    pub fn with_metrics(metrics: CacheMetrics) -> Self {
        Self::with_metrics_and_cap(metrics, None)
    }

    /// Creates an empty cache reporting through `metrics` that admits
    /// at most `cap` entries (`None` for unbounded).
    ///
    /// Once full, further publications are *refused*, not evicted: the
    /// computed value is still returned to the caller (correctness is
    /// unaffected), the `.rejected` counter increments, and no insert
    /// is counted — so `hits + misses == probes` stays intact while
    /// `inserts == distinct keys` deliberately stops holding. Refused
    /// keys miss again on the next probe, so probe counters under a
    /// cap depend on request order; the deterministic-counter contract
    /// applies to the default unbounded configuration.
    #[must_use]
    pub fn with_metrics_and_cap(metrics: CacheMetrics, cap: Option<usize>) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            metrics,
            cap,
            entry_count: AtomicUsize::new(0),
            byte_estimate: AtomicUsize::new(0),
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The admission cap, if one was set.
    #[must_use]
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// The cache's telemetry (aggregate and per-stripe counters).
    #[must_use]
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// The key's lock stripe: its precomputed FNV-1a hash
    /// ([`DesignPointKey::stable_hash`], deterministic across
    /// processes where the std `RandomState` is not) modulo the stripe
    /// count.
    fn shard_index(key: &DesignPointKey) -> usize {
        (key.stable_hash() % SHARDS as u64) as usize
    }

    /// Returns a clone of the cached value, if present. Counts exactly
    /// one hit or one miss against the key's stripe.
    #[must_use]
    pub fn get(&self, key: &DesignPointKey) -> Option<V> {
        let stripe = Self::shard_index(key);
        let found = self.shards[stripe]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        if found.is_some() {
            self.metrics.hit(stripe);
        } else {
            self.metrics.miss(stripe);
        }
        found
    }

    /// Returns the cached value for `key`, computing and publishing it
    /// if absent. `compute` runs without any lock held; on a race the
    /// first published value wins and is returned to every racer.
    ///
    /// Counts one hit or miss for the initial probe (never both), and
    /// one insert only for the publication that actually lands.
    pub fn get_or_insert_with(&self, key: &DesignPointKey, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let value = compute();
        self.publish(key, value).0
    }

    /// Publishes `key → value` without counting a probe.
    ///
    /// The batched characterization path probes every job up front
    /// (each probe counting its one hit or miss), dispatches the
    /// misses as a batch, and publishes the results through this
    /// method — a `get_or_insert_with` here would double-count the
    /// miss. Counts one insert only if the publication lands; on a
    /// race the first published value wins and is returned.
    pub fn insert(&self, key: &DesignPointKey, value: V) -> V {
        self.publish(key, value).0
    }

    /// The publication path shared by [`ShardedCache::insert`] and
    /// [`ShardedCache::get_or_insert_with`]: first landed value wins,
    /// the admission cap refuses (never evicts), and the entry/byte
    /// gauges track landed publications. Returns the winning value and
    /// whether this publication is the one that landed.
    pub(crate) fn publish(&self, key: &DesignPointKey, value: V) -> (V, bool) {
        let stripe = Self::shard_index(key);
        match self.shards[stripe]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.clone())
        {
            std::collections::hash_map::Entry::Occupied(existing) => {
                (existing.get().clone(), false)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                if let Some(cap) = self.cap {
                    if self.entry_count.load(Ordering::Relaxed) >= cap {
                        self.metrics.rejected.inc();
                        return (value, false);
                    }
                }
                let footprint = Self::entry_footprint(key);
                let count = self.entry_count.fetch_add(1, Ordering::Relaxed) + 1;
                let bytes = self.byte_estimate.fetch_add(footprint, Ordering::Relaxed) + footprint;
                self.metrics.entries.set(count as u64);
                self.metrics.approx_bytes.set(bytes as u64);
                self.metrics.insert(stripe);
                (slot.insert(value).clone(), true)
            }
        }
    }

    /// Estimated resident bytes of one entry: the canonical key string
    /// plus the key and value struct sizes. Heap indirection inside
    /// `V` is not followed — the gauge is a growth trend, not an
    /// allocator audit.
    fn entry_footprint(key: &DesignPointKey) -> usize {
        key.canonical().len()
            + std::mem::size_of::<DesignPointKey>()
            + std::mem::size_of::<V>()
    }

    /// A point-in-time snapshot of every cached entry, sorted by
    /// canonical key so the order is deterministic regardless of shard
    /// layout or insertion interleaving.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(DesignPointKey, V)> {
        self.collect_since(&mut CacheCursor::new(), |_| true)
    }

    /// The entries of every shard that grew since `cursor` last walked
    /// this cache and that `keep` accepts, sorted by canonical key;
    /// advances `cursor` to the lengths it read.
    ///
    /// An unchanged shard costs one read lock and a length compare. A
    /// grown shard is scanned whole — entries carry no insertion order,
    /// so its older entries are offered to `keep` again — but only the
    /// entries `keep` accepts are cloned: a persistent store passing
    /// "not yet on disk" clones just its new work. Each shard's length
    /// and entries are read under one lock, so an entry published
    /// mid-walk is either returned now or grows its shard for the next
    /// walk; none is missed.
    pub fn collect_since(
        &self,
        cursor: &mut CacheCursor,
        mut keep: impl FnMut(&DesignPointKey) -> bool,
    ) -> Vec<(DesignPointKey, V)> {
        if cursor.cache != self.id {
            *cursor = CacheCursor {
                cache: self.id,
                lens: [0; SHARDS],
            };
        }
        let mut found = Vec::new();
        for (shard, seen) in self.shards.iter().zip(&mut cursor.lens) {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            if map.len() == *seen {
                continue;
            }
            *seen = map.len();
            found.extend(
                map.iter()
                    .filter(|(key, _)| keep(key))
                    .map(|(key, value)| (key.clone(), value.clone())),
            );
        }
        found.sort_unstable_by(|a, b| a.0.canonical().cmp(b.0.canonical()));
        found
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of lock stripes (exposed for tests and diagnostics).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cache of temperature-invariant organization-geometry solves — phase
/// 1 of the two-phase characterization kernel — keyed by
/// [`DesignPointKey::geometry_of`]-style temperature-stripped keys.
///
/// A `geometry.solves` counter records every solve that actually ran
/// (the batched path's acceptance invariant: at most one solve per
/// distinct geometry key per sweep), alongside the shared
/// hit/miss/insert telemetry under the `geometry.*` prefix.
#[derive(Debug)]
pub struct GeometryCache {
    cache: ShardedCache<Arc<OrgGeometry>>,
    solves: Arc<Counter>,
}

impl GeometryCache {
    /// An empty cache reporting under the `geometry.*` prefix of
    /// `registry`, configured from the environment
    /// ([`CacheConfig::from_env`], warnings dropped).
    #[must_use]
    pub fn registered(registry: &Registry) -> Self {
        Self::registered_with_config(registry, &CacheConfig::from_env().0)
    }

    /// An empty cache reporting under the `geometry.*` prefix of
    /// `registry` with explicit [`CacheConfig`] knobs (detail export
    /// and admission cap). Under a cap, refused geometries are
    /// re-solved on the next probe, so `geometry.solves` equals the
    /// distinct-key count only on the default unbounded configuration.
    #[must_use]
    pub fn registered_with_config(registry: &Registry, config: &CacheConfig) -> Self {
        Self {
            cache: ShardedCache::with_metrics_and_cap(
                CacheMetrics::registered_with_detail(registry, "geometry", config.detail),
                config.capacity,
            ),
            solves: registry.counter("geometry.solves"),
        }
    }

    /// An empty cache counting into free-floating counters no exporter
    /// reads.
    #[must_use]
    pub fn unregistered() -> Self {
        Self {
            cache: ShardedCache::new(),
            solves: Arc::new(Counter::new()),
        }
    }

    /// Returns the cached geometry for `key`, solving and publishing
    /// it if absent. `solve` runs without any lock held and counts one
    /// `geometry.solves`; racers on the same missing key converge on
    /// the first published solve (the batched execution paths group
    /// jobs so each distinct key is claimed by one worker, keeping the
    /// counter deterministic).
    pub fn get_or_solve(
        &self,
        key: &DesignPointKey,
        solve: impl FnOnce() -> OrgGeometry,
    ) -> Arc<OrgGeometry> {
        self.cache.get_or_insert_with(key, || {
            self.solves.inc();
            Arc::new(solve())
        })
    }

    /// Publishes an externally produced geometry (a warm-start replay)
    /// without counting a probe **or a solve** — the whole point of
    /// warm-starting is that `geometry.solves` stays at zero when the
    /// store covers the sweep. First publication wins, exactly like a
    /// solver's publish; one insert is counted only if the entry lands.
    pub fn import(&self, key: &DesignPointKey, geometry: OrgGeometry) -> Arc<OrgGeometry> {
        self.cache.insert(key, Arc::new(geometry))
    }

    /// A point-in-time snapshot of every cached geometry, sorted by
    /// canonical key ([`GeometryCache::collect_since`] on a fresh
    /// cursor).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(DesignPointKey, Arc<OrgGeometry>)> {
        self.cache.snapshot()
    }

    /// The geometries published since `cursor` last walked this cache
    /// that `keep` accepts, sorted by canonical key — the warm-start
    /// store's incremental sync ([`ShardedCache::collect_since`]).
    pub fn collect_since(
        &self,
        cursor: &mut CacheCursor,
        keep: impl FnMut(&DesignPointKey) -> bool,
    ) -> Vec<(DesignPointKey, Arc<OrgGeometry>)> {
        self.cache.collect_since(cursor, keep)
    }

    /// Number of geometry solves that actually ran.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves.get()
    }

    /// Distinct geometries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache holds no geometries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The cache's probe telemetry.
    #[must_use]
    pub fn metrics(&self) -> &CacheMetrics {
        self.cache.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(token: &str) -> DesignPointKey {
        DesignPointKey::synthetic(token)
    }

    #[test]
    fn miss_then_hit() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key("a")), None);
        assert_eq!(cache.get_or_insert_with(&key("a"), || 7), 7);
        assert_eq!(cache.get(&key("a")), Some(7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compute_runs_once_per_key_when_sequential() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_insert_with(&key("k"), || {
                calls.fetch_add(1, Ordering::Relaxed);
                3
            });
            assert_eq!(v, 3);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let cache: ShardedCache<usize> = ShardedCache::new();
        for i in 0..200 {
            let _ = cache.get_or_insert_with(&key(&format!("config-{i}")), || i);
        }
        assert_eq!(cache.len(), 200);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(occupied > 1, "all 200 keys landed in one shard");
    }

    #[test]
    fn probes_count_hits_misses_and_inserts() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        assert_eq!(cache.get(&key("a")), None); // miss
        assert_eq!(cache.get_or_insert_with(&key("a"), || 1), 1); // miss + insert
        assert_eq!(cache.get_or_insert_with(&key("a"), || 2), 1); // hit
        assert_eq!(cache.get(&key("a")), Some(1)); // hit
        let m = cache.metrics();
        assert_eq!((m.hits(), m.misses(), m.inserts()), (2, 2, 1));
    }

    #[test]
    fn publish_only_insert_counts_no_probe() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        assert_eq!(cache.insert(&key("a"), 1), 1); // insert, no hit/miss
        assert_eq!(cache.insert(&key("a"), 2), 1); // first publication wins
        assert_eq!(cache.get(&key("a")), Some(1)); // hit
        let m = cache.metrics();
        assert_eq!((m.hits(), m.misses(), m.inserts()), (1, 0, 1));
    }

    #[test]
    fn stripe_counters_stay_unexported_without_the_detail_flag() {
        // `registered_with_detail(.., false)` is the default-path
        // behaviour when COLDTALL_METRICS_DETAIL is unset; exercised
        // directly so the test does not depend on the environment.
        let registry = coldtall_obs::Registry::new();
        let cache: ShardedCache<u32> = ShardedCache::with_metrics(
            CacheMetrics::registered_with_detail(&registry, "cache", false),
        );
        let _ = cache.get_or_insert_with(&key("a"), || 1);
        let _ = cache.get_or_insert_with(&key("a"), || 1);
        assert_eq!(registry.counter_value("cache.hits"), Some(1));
        assert!(
            !registry
                .counters()
                .iter()
                .any(|(name, _)| name.contains(".stripe")),
            "per-stripe counters must not be exported by default"
        );
        // The stripes still count internally for CacheMetrics::stripe.
        let striped: u64 = (0..cache.shard_count())
            .map(|s| cache.metrics().stripe(s).0)
            .sum();
        assert_eq!(striped, 1);
    }

    #[test]
    fn geometry_cache_counts_each_solve_once() {
        let registry = coldtall_obs::Registry::new();
        let geometries = GeometryCache::registered(&registry);
        let node = coldtall_tech::ProcessNode::ptm_22nm_hp();
        let config = crate::MemoryConfig::sram_77k();
        let geometry_key = DesignPointKey::geometry_of(&config);
        for _ in 0..3 {
            let solved = geometries.get_or_solve(&geometry_key, || {
                OrgGeometry::solve(&config.to_base_spec(&node))
            });
            assert!(solved.candidate_count() > 0);
        }
        assert_eq!(geometries.solves(), 1, "one solve, then cache hits");
        assert_eq!(geometries.len(), 1);
        assert_eq!(registry.counter_value("geometry.solves"), Some(1));
        assert_eq!(registry.counter_value("geometry.inserts"), Some(1));
        assert_eq!(registry.counter_value("geometry.misses"), Some(1));
        assert_eq!(registry.counter_value("geometry.hits"), Some(2));
    }

    #[test]
    fn stripe_counters_sum_to_the_aggregates() {
        let registry = coldtall_obs::Registry::new();
        let cache: ShardedCache<usize> =
            ShardedCache::with_metrics(CacheMetrics::registered_detailed(&registry, "cache"));
        for i in 0..50 {
            let _ = cache.get_or_insert_with(&key(&format!("key-{i}")), || i); // misses
            let _ = cache.get_or_insert_with(&key(&format!("key-{i}")), || i); // hits
        }
        let m = cache.metrics();
        let (mut hits, mut misses, mut inserts) = (0, 0, 0);
        for stripe in 0..cache.shard_count() {
            let (h, mi, ins) = m.stripe(stripe);
            hits += h;
            misses += mi;
            inserts += ins;
        }
        assert_eq!((hits, misses, inserts), (m.hits(), m.misses(), m.inserts()));
        assert_eq!((m.hits(), m.misses(), m.inserts()), (50, 50, 50));
        // The registered names are visible to the registry's exporter.
        assert_eq!(registry.counter_value("cache.hits"), Some(50));
        assert!(registry
            .counters()
            .iter()
            .any(|(name, _)| name.starts_with("cache.stripe")));
    }

    #[test]
    fn cache_config_parses_and_warns_on_garbage() {
        let (config, warnings) = CacheConfig::parse(Some("1"), Some("128"));
        assert_eq!(
            config,
            CacheConfig {
                detail: true,
                capacity: Some(128)
            }
        );
        assert!(warnings.is_empty());

        let (config, warnings) = CacheConfig::parse(None, None);
        assert_eq!(config, CacheConfig::default());
        assert!(warnings.is_empty());

        // Invalid caps are ignored with a warning, never a panic; zero
        // is invalid (a cache that can hold nothing is a typo, not a
        // policy).
        for bad in ["0", "-4", "lots", "1e6"] {
            let (config, warnings) = CacheConfig::parse(Some("0"), Some(bad));
            assert!(!config.detail, "detail requires exactly \"1\"");
            assert_eq!(config.capacity, None);
            assert_eq!(warnings.len(), 1);
            assert!(warnings[0].contains("COLDTALL_CACHE_CAP"));
            assert!(warnings[0].contains(bad));
        }
    }

    #[test]
    fn admission_cap_refuses_but_stays_correct() {
        let registry = coldtall_obs::Registry::new();
        let cache: ShardedCache<u32> = ShardedCache::with_metrics_and_cap(
            CacheMetrics::registered_with_detail(&registry, "cache", false),
            Some(2),
        );
        assert_eq!(cache.get_or_insert_with(&key("a"), || 1), 1);
        assert_eq!(cache.get_or_insert_with(&key("b"), || 2), 2);
        // The cap refuses the third publication but the computed value
        // still reaches the caller.
        assert_eq!(cache.get_or_insert_with(&key("c"), || 3), 3);
        assert_eq!(cache.insert(&key("d"), 4), 4);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key("c")), None);

        let m = cache.metrics();
        // hits + misses == probes holds under the cap: 3 computing
        // probes missed, the post-refusal re-probe of "c" missed again.
        assert_eq!((m.hits(), m.misses()), (0, 4));
        assert_eq!(m.inserts(), 2, "only landed publications count");
        assert_eq!(m.rejected(), 2);
        assert_eq!(m.entries(), 2);
        assert!(m.approx_bytes() > 0);
        assert_eq!(registry.counter_value("cache.rejected"), Some(2));
        assert_eq!(
            registry.gauges().iter().find(|(n, _)| n == "cache.entries"),
            Some(&("cache.entries".to_string(), 2))
        );
    }

    #[test]
    fn unbounded_cache_never_rejects_and_tracks_gauges() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        for i in 0..40 {
            let _ = cache.get_or_insert_with(&key(&format!("k{i}")), || i);
        }
        assert_eq!(cache.cap(), None);
        assert_eq!(cache.metrics().rejected(), 0);
        assert_eq!(cache.metrics().entries(), 40);
        assert_eq!(cache.len(), 40);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache: ShardedCache<usize> = ShardedCache::new();
        for i in 0..25 {
            let _ = cache.insert(&key(&format!("point-{i:02}")), i);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 25);
        let canon: Vec<&str> = snap.iter().map(|(k, _)| k.canonical()).collect();
        let mut sorted = canon.clone();
        sorted.sort_unstable();
        assert_eq!(canon, sorted, "snapshot must be canonically ordered");
    }

    #[test]
    fn cursor_skips_unchanged_shards() {
        let cache: ShardedCache<usize> = ShardedCache::new();
        for i in 0..64 {
            let _ = cache.insert(&key(&format!("entry-{i}")), i);
        }
        let mut cursor = CacheCursor::new();
        let mut offered = 0;
        let first = cache.collect_since(&mut cursor, |_| {
            offered += 1;
            true
        });
        assert_eq!(
            (first.len(), offered),
            (64, 64),
            "a fresh cursor walks everything"
        );
        assert_eq!(first, cache.snapshot());

        // Nothing grew: no shard is scanned, so `keep` is never asked.
        let mut offered = 0;
        let idle = cache.collect_since(&mut cursor, |_| {
            offered += 1;
            true
        });
        assert!(idle.is_empty());
        assert_eq!(offered, 0, "unchanged shards must be skipped");

        // One new key: only its shard is scanned, and `keep` decides
        // which of that shard's entries are cloned.
        let fresh = key("entry-new");
        let _ = cache.insert(&fresh, 99);
        let shard_len = cache.shards[ShardedCache::<usize>::shard_index(&fresh)]
            .read()
            .unwrap()
            .len();
        let mut offered = 0;
        let grown = cache.collect_since(&mut cursor, |k| {
            offered += 1;
            k == &fresh
        });
        assert_eq!(grown, vec![(fresh, 99)]);
        assert_eq!(offered, shard_len, "only the grown shard is scanned");
        assert!(offered < cache.len());
    }

    #[test]
    fn cursor_from_another_cache_walks_everything() {
        let a: ShardedCache<u32> = ShardedCache::new();
        let b: ShardedCache<u32> = ShardedCache::new();
        for i in 0..20 {
            let _ = a.insert(&key(&format!("a{i}")), i);
            let _ = b.insert(&key(&format!("b{i}")), i);
        }
        let mut cursor = CacheCursor::new();
        assert_eq!(a.collect_since(&mut cursor, |_| true).len(), 20);
        assert!(a.collect_since(&mut cursor, |_| true).is_empty());
        // Same shard lengths, different cache: the lengths mean nothing
        // there, so the walk starts over.
        assert_eq!(b.collect_since(&mut cursor, |_| true), b.snapshot());
        assert_eq!(a.collect_since(&mut cursor, |_| true), a.snapshot());
        // An explicit reset also walks everything again.
        cursor.reset();
        assert_eq!(a.collect_since(&mut cursor, |_| true).len(), 20);
    }

    #[test]
    fn concurrent_publishers_never_hide_an_entry_from_the_cursor() {
        use std::collections::HashSet;

        // Several short rounds: a lost entry only shows when its shard
        // stops growing afterwards, which is likeliest near the end of
        // a round.
        for round in 0..10 {
            let cache: ShardedCache<usize> = ShardedCache::new();
            let mut synced: HashSet<String> = HashSet::new();
            std::thread::scope(|scope| {
                let publishers: Vec<_> = (0..2)
                    .map(|t| {
                        let cache = &cache;
                        scope.spawn(move || {
                            for i in 0..200 {
                                let _ = cache.insert(&key(&format!("r{round}-t{t}-{i:03}")), i);
                            }
                        })
                    })
                    .collect();
                // The syncing side runs on this thread, exactly like a
                // store: its dedup set is the `keep` predicate.
                let mut cursor = CacheCursor::new();
                let mut sync = |synced: &mut HashSet<String>| {
                    let batch =
                        cache.collect_since(&mut cursor, |k| !synced.contains(k.canonical()));
                    assert!(
                        batch
                            .windows(2)
                            .all(|w| w[0].0.canonical() < w[1].0.canonical()),
                        "every batch is sorted by canonical key"
                    );
                    for (k, _) in batch {
                        assert!(
                            synced.insert(k.canonical().to_string()),
                            "{k} returned twice"
                        );
                    }
                };
                loop {
                    sync(&mut synced);
                    if publishers.iter().all(|p| p.is_finished()) {
                        break;
                    }
                }
                for p in publishers {
                    p.join().expect("publisher panicked");
                }
                sync(&mut synced);
            });
            let all: HashSet<String> = cache
                .snapshot()
                .into_iter()
                .map(|(k, _)| k.canonical().to_string())
                .collect();
            assert_eq!(all.len(), 400);
            assert_eq!(synced, all, "round {round}: no published key may be missed");
        }
    }

    #[test]
    fn racing_inserts_converge_on_one_value() {
        let cache: ShardedCache<usize> = ShardedCache::new();
        // Raw thread spawns (not the pool, which runs inline on 1-CPU
        // machines): each thread proposes its own value; exactly one
        // wins and every racer observes the winner.
        let results: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..64)
                .map(|i| {
                    let cache = &cache;
                    scope.spawn(move || {
                        cache.get_or_insert_with(&key("contested"), move || i)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cache worker panicked"))
                .collect()
        });
        let winner = cache.get(&key("contested")).expect("winner published");
        assert!(results.iter().all(|&r| r == winner));
        assert_eq!(cache.len(), 1);
    }
}
