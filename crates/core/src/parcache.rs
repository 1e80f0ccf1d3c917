//! The explorer's memo caches: one lock over an insertion-ordered log.
//!
//! The explorer memoizes array characterizations by canonical
//! [`DesignPointKey`] — the same key type the plan compiler
//! deduplicates jobs by, so one identity threads the whole pipeline
//! (display labels round temperatures and are not unique; keys are).
//! A [`MemoCache`] holds its entries in one `RwLock` over a log: a
//! `Vec` of entries in insertion order, plus a key → position index.
//! The cache is shared by at most the daemon's connection threads,
//! and every lock hold is one map operation, so one lock serves it;
//! hits on any keys share the read lock.
//!
//! Locking discipline (see also `DESIGN.md` § Parallelism):
//!
//! * the lock is never held across a characterization — a miss
//!   releases the read lock, computes outside any lock, then takes the
//!   write lock only to publish;
//! * two threads racing on the same missing key may both compute; the
//!   first to publish wins and both return the published value, so
//!   callers always observe one canonical entry per key;
//! * lock poisoning is ignored (a panicking characterization leaves
//!   the log consistent: entries are only ever appended whole).
//!
//! Every probe is counted (one hit or miss, plus one insert per landed
//! publication) through [`CacheMetrics`], so sweeps can report exactly
//! which evaluations were memoized versus recomputed. Counting is a
//! pair of relaxed atomic adds per probe; caches built on
//! [`CacheMetrics::unregistered`] count into free-floating counters
//! that no exporter ever reads.
//!
//! Entries are never removed (the admission cap refuses, it does not
//! evict), so the log only grows. [`CacheCursor`] leans on that: a
//! persistent store remembers the log's length at its last sync, and
//! [`MemoCache::collect_since`] offers only the entries appended
//! since.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Admission cap: maximum entries each of the explorer's caches
    /// will hold. `None` (the default) leaves growth unbounded.
    pub capacity: Option<usize>,
}

impl CacheConfig {
    /// Builds a config from a raw cap string, returning the config
    /// alongside a human-readable warning if the value is ignored.
    /// Pure: reads nothing from the environment and prints nothing, so
    /// hosts decide where warnings go.
    ///
    /// `capacity` must parse as a positive integer; anything else is
    /// ignored with a warning and leaves the cache unbounded.
    #[must_use]
    pub fn parse(capacity: Option<&str>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
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
        (Self { capacity }, warnings)
    }

    /// Reads `COLDTALL_CACHE_CAP` fresh from the environment (no
    /// latching) and returns the parsed config plus any warnings. The
    /// caller decides whether and where to surface the warnings; this
    /// crate never prints them.
    #[must_use]
    pub fn from_env() -> (Self, Vec<String>) {
        Self::parse(std::env::var("COLDTALL_CACHE_CAP").ok().as_deref())
    }
}

/// Source of per-cache identities for [`CacheCursor`]. Starts at 1 so
/// identity 0 can mark a cursor that has walked no cache yet.
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

/// A resumable position in one cache's log: the cache's identity plus
/// the log's length when the cursor last walked it.
///
/// The log only grows, so the entries past that length are exactly the
/// ones published since. A fresh cursor, a
/// [`reset`](CacheCursor::reset) one, or one last advanced over a
/// *different* cache walks the whole log.
#[derive(Debug, Clone, Default)]
pub struct CacheCursor {
    /// Identity of the cache the length was read from; 0 when none.
    cache: u64,
    /// Log entries already walked.
    seen: usize,
}

impl CacheCursor {
    /// A cursor whose first walk visits every entry.
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

/// Registry-backed telemetry for one cache: hit, miss, insert and
/// refusal counters plus entry and byte gauges.
///
/// Every public probe counts exactly one hit or one miss, and every
/// publication that actually lands counts one insert, so `hits +
/// misses == probes` and `inserts == distinct keys` hold at all times.
/// All counts are of *logical* cache traffic — the explorer probes in
/// plan order on the calling thread, and the Monte-Carlo fan-out
/// touches no cache, so they are deterministic for a given workload
/// regardless of thread count (see `DESIGN.md` § Observability).
#[derive(Debug)]
pub struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    rejected: Arc<Counter>,
    entries: Arc<Gauge>,
    approx_bytes: Arc<Gauge>,
}

impl CacheMetrics {
    /// Counters registered under `prefix` (e.g. `cache.hits`) in
    /// `registry`. Two caches sharing a registry and prefix share
    /// counters, prometheus-style.
    #[must_use]
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        Self {
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            inserts: registry.counter(&format!("{prefix}.inserts")),
            rejected: registry.counter(&format!("{prefix}.rejected")),
            entries: registry.gauge(&format!("{prefix}.entries")),
            approx_bytes: registry.gauge(&format!("{prefix}.approx_bytes")),
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
        }
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

    /// Total publications that landed in the cache.
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
}

/// The entries of a [`MemoCache`], in insertion order, and where each
/// key sits among them.
#[derive(Debug)]
struct Log<V> {
    entries: Vec<(DesignPointKey, V)>,
    index: HashMap<DesignPointKey, usize>,
    /// Estimated resident bytes of `entries` (the `.approx_bytes`
    /// gauge).
    bytes: usize,
}

/// A concurrent memo table keyed by [`DesignPointKey`]: one `RwLock`
/// over an insertion-ordered log.
///
/// Values are cloned out; `V` is expected to be a plain data record
/// (the explorer stores `ArrayCharacterization`s with their backend).
#[derive(Debug)]
pub(crate) struct MemoCache<V> {
    log: RwLock<Log<V>>,
    metrics: CacheMetrics,
    /// Admission cap; `None` is unbounded. Checked under the write
    /// lock, so the log never holds more than `cap` entries.
    cap: Option<usize>,
    /// Process-unique identity, checked by [`CacheCursor`].
    id: u64,
}

impl<V: Clone> MemoCache<V> {
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
    pub(crate) fn new(metrics: CacheMetrics, cap: Option<usize>) -> Self {
        Self {
            log: RwLock::new(Log {
                entries: Vec::new(),
                index: HashMap::new(),
                bytes: 0,
            }),
            metrics,
            cap,
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The cache's telemetry.
    pub(crate) fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// `read` applied to the cached value, if present, without counting
    /// a probe.
    pub(crate) fn peek<R>(&self, key: &DesignPointKey, read: impl FnOnce(&V) -> R) -> Option<R> {
        let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
        log.index.get(key).map(|&at| read(&log.entries[at].1))
    }

    /// Returns a clone of the cached value, if present. Counts exactly
    /// one hit or one miss.
    pub(crate) fn get(&self, key: &DesignPointKey) -> Option<V> {
        let found = self.peek(key, V::clone);
        if found.is_some() {
            self.metrics.hits.inc();
        } else {
            self.metrics.misses.inc();
        }
        found
    }

    /// Returns the cached value for `key`, computing and publishing it
    /// if absent. `compute` runs without the lock held; on a race the
    /// first published value wins and is returned to every racer.
    ///
    /// Counts one hit or miss for the initial probe (never both), and
    /// one insert only for the publication that actually lands.
    pub(crate) fn get_or_insert_with(
        &self,
        key: &DesignPointKey,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let value = compute();
        self.insert(key, value)
    }

    /// Publishes `key → value` without counting a probe, and returns
    /// the value the cache holds for `key` afterwards.
    ///
    /// The batched characterization path probes every job up front
    /// (each probe counting its one hit or miss), dispatches the
    /// misses as a batch, and publishes the results through this
    /// method — a `get_or_insert_with` here would double-count the
    /// miss. The first landed value wins; a full cache refuses (never
    /// evicts) and hands `value` back. One insert is counted, and the
    /// entry and byte gauges move, only if the publication lands.
    pub(crate) fn insert(&self, key: &DesignPointKey, value: V) -> V {
        let mut log = self.log.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&at) = log.index.get(key) {
            return log.entries[at].1.clone();
        }
        if self.cap.is_some_and(|cap| log.entries.len() >= cap) {
            self.metrics.rejected.inc();
            return value;
        }
        // Clone before touching the log, so the entry lands whole or
        // not at all.
        let (entry, indexed) = ((key.clone(), value.clone()), key.clone());
        let at = log.entries.len();
        log.entries.push(entry);
        log.index.insert(indexed, at);
        log.bytes += Self::entry_footprint(key);
        self.metrics.entries.set(log.entries.len() as u64);
        self.metrics.approx_bytes.set(log.bytes as u64);
        self.metrics.inserts.inc();
        value
    }

    /// Estimated resident bytes of one entry: the canonical key string
    /// plus the key and value struct sizes. Heap indirection inside
    /// `V` is not followed — the gauge is a growth trend, not an
    /// allocator audit.
    fn entry_footprint(key: &DesignPointKey) -> usize {
        key.canonical().len() + std::mem::size_of::<DesignPointKey>() + std::mem::size_of::<V>()
    }

    /// A point-in-time snapshot of every cached entry, sorted by
    /// canonical key so the order is deterministic regardless of
    /// insertion interleaving.
    pub(crate) fn snapshot(&self) -> Vec<(DesignPointKey, V)> {
        self.collect_since(&mut CacheCursor::new(), |_| true)
    }

    /// The entries appended since `cursor` last walked this cache that
    /// `keep` accepts, sorted by canonical key; advances `cursor` to
    /// the log's length.
    ///
    /// `keep` is asked once per new entry, and only the entries it
    /// accepts are cloned: a persistent store passing "not yet on disk"
    /// clones just its new work. The length and the entries are read
    /// under one lock, so an entry published mid-walk is either
    /// returned now or lies past the cursor for the next walk; none is
    /// missed.
    pub(crate) fn collect_since(
        &self,
        cursor: &mut CacheCursor,
        mut keep: impl FnMut(&DesignPointKey) -> bool,
    ) -> Vec<(DesignPointKey, V)> {
        if cursor.cache != self.id {
            *cursor = CacheCursor {
                cache: self.id,
                seen: 0,
            };
        }
        let mut found: Vec<(DesignPointKey, V)> = {
            let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
            let fresh = &log.entries[cursor.seen..];
            cursor.seen = log.entries.len();
            fresh.iter().filter(|(key, _)| keep(key)).cloned().collect()
        };
        found.sort_unstable_by(|a, b| a.0.canonical().cmp(b.0.canonical()));
        found
    }

    /// Total entries.
    pub(crate) fn len(&self) -> usize {
        self.log
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
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
    cache: MemoCache<Arc<OrgGeometry>>,
    solves: Arc<Counter>,
}

impl GeometryCache {
    /// An empty cache reporting under the `geometry.*` prefix of
    /// `registry` that admits at most `cap` geometries (`None` for
    /// unbounded). Under a cap, refused geometries are re-solved on
    /// the next probe, so `geometry.solves` equals the distinct-key
    /// count only on an unbounded cache.
    #[must_use]
    pub fn registered(registry: &Registry, cap: Option<usize>) -> Self {
        Self {
            cache: MemoCache::new(CacheMetrics::registered(registry, "geometry"), cap),
            solves: registry.counter("geometry.solves"),
        }
    }

    /// An empty cache counting into free-floating counters no exporter
    /// reads.
    #[must_use]
    pub fn unregistered() -> Self {
        Self {
            cache: MemoCache::new(CacheMetrics::unregistered(), None),
            solves: Arc::new(Counter::new()),
        }
    }

    /// Returns the cached geometry for `key`, solving and publishing
    /// it if absent. `solve` runs without the lock held and counts one
    /// `geometry.solves`; racers on the same missing key converge on
    /// the first published solve (plan execution groups jobs by
    /// geometry key and runs inline, so each distinct key is solved at
    /// most once per sweep and the counter stays deterministic).
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
    /// store's incremental sync.
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
        self.len() == 0
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
        DesignPointKey::from_canonical(token.to_string())
    }

    fn unbounded<V: Clone>() -> MemoCache<V> {
        MemoCache::new(CacheMetrics::unregistered(), None)
    }

    #[test]
    fn miss_then_hit() {
        let cache: MemoCache<u32> = unbounded();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&key("a")), None);
        assert_eq!(cache.get_or_insert_with(&key("a"), || 7), 7);
        assert_eq!(cache.get(&key("a")), Some(7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compute_runs_once_per_key_when_sequential() {
        let cache: MemoCache<u32> = unbounded();
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
    fn probes_count_hits_misses_and_inserts() {
        let cache: MemoCache<u32> = unbounded();
        assert_eq!(cache.get(&key("a")), None); // miss
        assert_eq!(cache.get_or_insert_with(&key("a"), || 1), 1); // miss + insert
        assert_eq!(cache.get_or_insert_with(&key("a"), || 2), 1); // hit
        assert_eq!(cache.get(&key("a")), Some(1)); // hit
        let m = cache.metrics();
        assert_eq!((m.hits(), m.misses(), m.inserts()), (2, 2, 1));
    }

    #[test]
    fn publish_only_insert_counts_no_probe() {
        let cache: MemoCache<u32> = unbounded();
        assert_eq!(cache.insert(&key("a"), 1), 1); // insert, no hit/miss
        assert_eq!(cache.insert(&key("a"), 2), 1); // first publication wins
        assert_eq!(cache.peek(&key("a"), |v| *v), Some(1)); // no probe
        assert_eq!(cache.get(&key("a")), Some(1)); // hit
        let m = cache.metrics();
        assert_eq!((m.hits(), m.misses(), m.inserts()), (1, 0, 1));
    }

    #[test]
    fn geometry_cache_counts_each_solve_once() {
        let registry = coldtall_obs::Registry::new();
        let geometries = GeometryCache::registered(&registry, None);
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
    fn cache_config_parses_and_warns_on_garbage() {
        let (config, warnings) = CacheConfig::parse(Some("128"));
        assert_eq!(
            config,
            CacheConfig {
                capacity: Some(128)
            }
        );
        assert!(warnings.is_empty());

        let (config, warnings) = CacheConfig::parse(None);
        assert_eq!(config, CacheConfig::default());
        assert!(warnings.is_empty());

        // Invalid caps are ignored with a warning, never a panic; zero
        // is invalid (a cache that can hold nothing is a typo, not a
        // policy).
        for bad in ["0", "-4", "lots", "1e6"] {
            let (config, warnings) = CacheConfig::parse(Some(bad));
            assert_eq!(config.capacity, None);
            assert_eq!(warnings.len(), 1);
            assert!(warnings[0].contains("COLDTALL_CACHE_CAP"));
            assert!(warnings[0].contains(bad));
        }
    }

    #[test]
    fn admission_cap_refuses_but_stays_correct() {
        let registry = coldtall_obs::Registry::new();
        let cache: MemoCache<u32> =
            MemoCache::new(CacheMetrics::registered(&registry, "cache"), Some(2));
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

    /// The cap is checked under the write lock, so publishers racing
    /// past it on different keys cannot overshoot it.
    #[test]
    fn admission_cap_is_exact_under_concurrent_publishers() {
        let registry = coldtall_obs::Registry::new();
        let cache: MemoCache<usize> =
            MemoCache::new(CacheMetrics::registered(&registry, "cache"), Some(8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100 {
                        let _ = cache.insert(&key(&format!("t{t}-{i:03}")), i);
                    }
                });
            }
        });
        let m = cache.metrics();
        assert_eq!(cache.len(), 8);
        assert_eq!(m.entries(), 8);
        assert_eq!(m.inserts(), 8);
        assert_eq!(m.rejected(), 4 * 100 - 8);
    }

    #[test]
    fn unbounded_cache_never_rejects_and_tracks_gauges() {
        let cache: MemoCache<u32> = unbounded();
        for i in 0..40 {
            let _ = cache.get_or_insert_with(&key(&format!("k{i}")), || i);
        }
        assert_eq!(cache.cap, None);
        assert_eq!(cache.metrics().rejected(), 0);
        assert_eq!(cache.metrics().entries(), 40);
        assert_eq!(cache.len(), 40);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache: MemoCache<usize> = unbounded();
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
    fn cursor_offers_only_the_entries_appended_since() {
        let cache: MemoCache<usize> = unbounded();
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

        // Nothing was appended: `keep` is never asked.
        let mut offered = 0;
        let idle = cache.collect_since(&mut cursor, |_| {
            offered += 1;
            true
        });
        assert!(idle.is_empty());
        assert_eq!(offered, 0, "an unchanged log offers nothing");

        // One new key among 65: `keep` is asked about it alone.
        let fresh = key("entry-new");
        let _ = cache.insert(&fresh, 99);
        let mut offered = Vec::new();
        let grown = cache.collect_since(&mut cursor, |k| {
            offered.push(k.clone());
            true
        });
        assert_eq!(grown, vec![(fresh.clone(), 99)]);
        assert_eq!(offered, vec![fresh], "only the appended entry is offered");
        assert_eq!(cache.len(), 65);
    }

    #[test]
    fn cursor_from_another_cache_walks_everything() {
        let a: MemoCache<u32> = unbounded();
        let b: MemoCache<u32> = unbounded();
        for i in 0..20 {
            let _ = a.insert(&key(&format!("a{i}")), i);
            let _ = b.insert(&key(&format!("b{i}")), i);
        }
        let mut cursor = CacheCursor::new();
        assert_eq!(a.collect_since(&mut cursor, |_| true).len(), 20);
        assert!(a.collect_since(&mut cursor, |_| true).is_empty());
        // Same log length, different cache: the length means nothing
        // there, so the walk starts over.
        assert_eq!(b.collect_since(&mut cursor, |_| true), b.snapshot());
        assert_eq!(a.collect_since(&mut cursor, |_| true), a.snapshot());
        // An explicit reset also walks everything again.
        cursor.reset();
        assert_eq!(a.collect_since(&mut cursor, |_| true).len(), 20);
    }

    /// The cursor is a position in the cache's insertion-ordered log,
    /// so a sync racing two publishers never misses an entry, and never
    /// offers one twice.
    #[test]
    fn concurrent_publishers_never_hide_an_entry_from_the_cursor() {
        use std::collections::HashSet;

        // Several short rounds: a lost entry only shows when the log
        // stops growing afterwards, which is likeliest near the end of
        // a round.
        for round in 0..10 {
            let cache: MemoCache<usize> = unbounded();
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
        let cache: MemoCache<usize> = unbounded();
        // Raw thread spawns: each thread proposes its own value;
        // exactly one wins and every racer observes the winner.
        let results: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..64)
                .map(|i| {
                    let cache = &cache;
                    scope.spawn(move || cache.get_or_insert_with(&key("contested"), move || i))
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
