//! Version-tagged per-document result caching.
//!
//! A resident document (in `xdx-store`) is edited in place; every derived
//! result — its consistency verdict, its canonical solution, the certain
//! answers of queries over it — is only valid for the exact document
//! *version* it was computed from. A [`DocResultCache`] owns the document's
//! monotone version counter and a map from [`CacheKey`]s to results tagged
//! with their computed-at version: bumping the version (what every applied
//! edit batch does) invalidates the whole cache in `O(entries)`, and a
//! result computed concurrently against a version that has since moved on
//! is silently discarded at insertion instead of poisoning readers.
//!
//! The cache is deliberately generic in the cached value `V`: `xdx-core`
//! callers can cache semantic results (solution trees, answer sets); the
//! server caches each document's answers tagged with the compiled setting
//! that computed them, so a rebind of the setting never serves them. It
//! is also deliberately *not* thread-safe — one cache belongs to one
//! resident document, whose store already serialises mutation; the
//! compute-outside-the-lock pattern is exactly what the `computed_at` tag
//! at [`DocResultCache::insert`] makes safe.

use std::collections::HashMap;

/// What a cached entry answers. Query-shaped keys carry the query's source
/// text: two requests asking the same question about the same document
/// version share one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// Per-document consistency: does the document conform to the source
    /// DTD and admit a solution?
    Consistency,
    /// The canonical solution (or the error the chase reports).
    CanonicalSolution,
    /// Certain answers of the query with this source text.
    CertainAnswers(String),
    /// Boolean certain answer of the query with this source text.
    CertainBoolean(String),
}

/// A cached value together with the document version it was computed at.
#[derive(Debug, Clone)]
struct Cached<V> {
    /// The document version the value was computed from.
    computed_at: u64,
    /// The result itself.
    value: V,
    /// LRU stamp: the cache's logical clock at the last hit or insert.
    last_used: u64,
}

/// Per-document entry cap. Generous for real workloads — one consistency + one solution entry plus
/// a working set of distinct query texts — while keeping the worst case
/// (a client spraying distinct `CertainAnswers(text)` keys at a pinned
/// document version) bounded per document.
pub const DEFAULT_MAX_CACHE_ENTRIES: usize = 64;

/// Per-document result cache with edit-driven invalidation (see the module
/// docs). `version` starts wherever the caller says (WAL replay restores
/// counters) and only ever moves forward.
///
/// The entry count is capped at [`DEFAULT_MAX_CACHE_ENTRIES`]: version
/// moves already clear the map, but a document that is *read* under many
/// distinct query texts at one version would otherwise grow without bound.
/// At the cap, inserting a new key evicts the least-recently-used entry
/// (`get` hits refresh recency).
#[derive(Debug, Clone)]
pub struct DocResultCache<V> {
    version: u64,
    entries: HashMap<CacheKey, Cached<V>>,
    /// Logical clock driving LRU stamps; advanced by hits and inserts.
    clock: u64,
}

impl<V> DocResultCache<V> {
    /// An empty cache for a document currently at `version`.
    pub fn new(version: u64) -> Self {
        DocResultCache {
            version,
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// The document version the cache currently serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Move to `version` (an applied edit, WAL replay, snapshot load).
    /// Drops all entries unless the version is unchanged.
    pub fn set_version(&mut self, version: u64) {
        if version != self.version {
            self.version = version;
            self.entries.clear();
        }
    }

    /// The cached value for `key`, if one was computed at the *current*
    /// version. Entries tagged with an older version never escape (they are
    /// cleared eagerly by [`DocResultCache::set_version`], so this is belt
    /// and braces). A hit refreshes the
    /// entry's LRU recency (hence `&mut self`).
    pub fn get(&mut self, key: &CacheKey) -> Option<&V> {
        let version = self.version;
        self.clock += 1;
        let clock = self.clock;
        self.entries
            .get_mut(key)
            .filter(|c| c.computed_at == version)
            .map(|c| {
                c.last_used = clock;
                &c.value
            })
    }

    /// Insert a value computed at version `computed_at`. If the document
    /// has moved on since the computation started the value is stale and is
    /// dropped on the floor — the caller raced an edit and simply gets no
    /// cache hit next time. At the entry cap, the least-recently-used entry
    /// makes room. Returns whether the value was kept.
    pub fn insert(&mut self, key: CacheKey, computed_at: u64, value: V) -> bool {
        if computed_at != self.version {
            return false;
        }
        if self.entries.len() >= DEFAULT_MAX_CACHE_ENTRIES && !self.entries.contains_key(&key) {
            // O(cap) scan; the cap is small and eviction only runs when a
            // *new* key lands in a full cache.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Cached {
                computed_at,
                value,
                last_used: self.clock,
            },
        );
        true
    }

    /// Drop every entry without touching the version — the invalidation for
    /// "the *setting* under this document changed" (the version counter
    /// tracks document edits only).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<V> Default for DocResultCache<V> {
    fn default() -> Self {
        DocResultCache::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_only_at_the_current_version() {
        let mut cache: DocResultCache<&'static str> = DocResultCache::new(7);
        assert!(cache.insert(CacheKey::Consistency, 7, "ok"));
        assert_eq!(cache.get(&CacheKey::Consistency), Some(&"ok"));
        cache.set_version(8);
        assert_eq!(cache.get(&CacheKey::Consistency), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_compute_results_are_discarded_at_insert() {
        let mut cache: DocResultCache<u32> = DocResultCache::new(3);
        // A computation started at version 3; an edit lands meanwhile.
        cache.set_version(4);
        assert!(!cache.insert(CacheKey::CanonicalSolution, 3, 42));
        assert_eq!(cache.get(&CacheKey::CanonicalSolution), None);
        // The re-computation at the current version sticks.
        assert!(cache.insert(CacheKey::CanonicalSolution, 4, 43));
        assert_eq!(cache.get(&CacheKey::CanonicalSolution), Some(&43));
    }

    const CAP: usize = DEFAULT_MAX_CACHE_ENTRIES;

    fn query(i: usize) -> CacheKey {
        CacheKey::CertainAnswers(format!("q{i}"))
    }

    #[test]
    fn entry_count_is_bounded_with_lru_eviction() {
        // The regression: many distinct query texts at one pinned version
        // must not grow the cache past its cap.
        let mut cache: DocResultCache<usize> = DocResultCache::new(0);
        for i in 0..=CAP {
            assert!(cache.insert(query(i), 0, i));
            assert!(cache.len() <= CAP, "cache grew past its cap at insert {i}");
        }
        // The most recent `CAP` survive; the first key was evicted.
        for i in 1..=CAP {
            assert_eq!(cache.get(&query(i)), Some(&i));
        }
        assert_eq!(cache.get(&query(0)), None);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut cache: DocResultCache<usize> = DocResultCache::new(0);
        for i in 0..CAP {
            cache.insert(query(i), 0, i);
        }
        // Touch the oldest entry, then insert one more key: the *untouched*
        // second-oldest entry is the LRU victim.
        assert_eq!(cache.get(&query(0)), Some(&0));
        cache.insert(query(CAP), 0, CAP);
        assert_eq!(cache.get(&query(0)), Some(&0));
        assert_eq!(cache.get(&query(1)), None);
        assert_eq!(cache.get(&query(CAP)), Some(&CAP));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache: DocResultCache<usize> = DocResultCache::new(0);
        for i in 0..CAP {
            cache.insert(query(i), 0, i);
        }
        // Overwrite in place at the cap: every key must survive.
        cache.insert(query(0), 0, 99);
        assert_eq!(cache.len(), CAP);
        assert_eq!(cache.get(&query(0)), Some(&99));
        for i in 1..CAP {
            assert_eq!(cache.get(&query(i)), Some(&i));
        }
    }

    #[test]
    fn clear_drops_entries_but_keeps_the_version() {
        let mut cache: DocResultCache<u32> = DocResultCache::new(5);
        cache.insert(CacheKey::Consistency, 5, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.version(), 5);
        assert!(cache.insert(CacheKey::Consistency, 5, 2));
    }

    #[test]
    fn query_keys_are_per_source_text() {
        let mut cache: DocResultCache<bool> = DocResultCache::new(0);
        cache.insert(CacheKey::CertainBoolean("q1".into()), 0, true);
        cache.insert(CacheKey::CertainBoolean("q2".into()), 0, false);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.get(&CacheKey::CertainBoolean("q1".into())),
            Some(&true)
        );
        assert_eq!(
            cache.get(&CacheKey::CertainBoolean("q2".into())),
            Some(&false)
        );
    }
}
