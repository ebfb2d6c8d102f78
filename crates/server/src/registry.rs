//! The multi-tenant setting registry (protocol v3).
//!
//! A **binding** maps a client-visible setting id to uploaded setting
//! *text* (the `xdx_core::settext` syntax). Compiled artifacts live in a
//! separate **content-addressed cache**: one compiled setting per distinct
//! canonical text, keyed by its FNV-1a hash, shared by every binding with
//! identical text — re-uploading the same setting under ten ids compiles
//! once.
//!
//! The cache is a **cost-aware LRU**: each entry's cost is its canonical
//! text's byte length (a stable proxy for compiled size that both sides of
//! the wire can compute), and the cache evicts least-recently-used entries
//! whenever the total cost exceeds [`Registry`]'s budget. Eviction — LRU
//! or explicit ([`Registry::evict`]) — drops only the *artifact*: the
//! binding and its text survive, and the next request against the binding
//! recompiles from the retained text. Stored documents are scoped by
//! setting id in `xdx-store`, not by compiled artifact, so eviction never
//! touches them.
//!
//! Binding id 0 is the setting the server was started with. It is pinned:
//! its artifact is never evicted and `put`/`evict` of id 0 are rejected,
//! so requests addressing setting 0 can never lose their compiled setting
//! or have its semantics swapped under them.
//!
//! Workers hold the registry behind one mutex, but **never compile under
//! it**: a resolve miss clones the text out, compiles unlocked, and
//! re-locks to insert — a racing identical compile loses and adopts the
//! winner's artifact.

use crate::wire::{self, SettingEntry, WireError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xdx_core::compiled::CompiledSetting;
use xdx_core::settext::parse_setting;

/// The pinned binding id of the setting the server was started with.
pub(crate) const DEFAULT_BINDING: u64 = 0;

/// FNV-1a over the canonical setting text — the content address of a
/// compiled artifact. Stable and dependency-free; collisions would only
/// alias two settings' *cache entries*, and at 64 bits are not a practical
/// concern for the handful of settings a server hosts.
fn content_hash(text: &str) -> u64 {
    xdx_xmltree::fnv1a(text.as_bytes())
}

/// One setting id → text binding.
struct Binding {
    hash: u64,
    /// Canonical text (`settext::setting_to_text` of the parsed upload),
    /// retained so an evicted artifact can be recompiled on demand.
    text: Arc<str>,
}

/// One resident compiled artifact, shared by content hash.
struct Compiled {
    setting: Arc<CompiledSetting<'static>>,
    cost: u64,
    last_used: u64,
}

struct Inner {
    bindings: BTreeMap<u64, Binding>,
    compiled: HashMap<u64, Compiled>,
    total_cost: u64,
    /// LRU clock: bumped on every hit, stamped into the touched entry.
    tick: u64,
}

/// The server's setting registry. See the module docs for the model.
pub(crate) struct Registry {
    inner: Mutex<Inner>,
    max_settings: usize,
    max_compiled_cost: u64,
    /// Resolves answered by a resident artifact (`Stats` wire op).
    artifact_hits: AtomicU64,
    /// Resolves that had to recompile from retained text.
    artifact_misses: AtomicU64,
}

/// What [`Registry::put`] tells the caller beyond the wire response: after
/// a rebind that *changed* the setting's text, the setting's cached answers
/// can be freed. (They could not be served anyway: each is tagged with the
/// content hash it was computed under, and a hit requires the binding's
/// current hash.)
#[derive(Debug)]
pub(crate) struct PutOutcome {
    pub content_hash: u64,
    pub reused: bool,
    /// The binding existed before and now names different text.
    pub rebound: bool,
}

impl Registry {
    /// Build the registry around the default setting, already compiled.
    /// `default_text` must be the canonical text of that setting.
    pub(crate) fn new(
        default_setting: CompiledSetting<'static>,
        default_text: String,
        max_settings: usize,
        max_compiled_cost: u64,
    ) -> Registry {
        let hash = content_hash(&default_text);
        let cost = default_text.len() as u64;
        let mut bindings = BTreeMap::new();
        bindings.insert(
            DEFAULT_BINDING,
            Binding {
                hash,
                text: Arc::from(default_text.as_str()),
            },
        );
        let mut compiled = HashMap::new();
        compiled.insert(
            hash,
            Compiled {
                setting: Arc::new(default_setting),
                cost,
                last_used: 0,
            },
        );
        Registry {
            inner: Mutex::new(Inner {
                bindings,
                compiled,
                total_cost: cost,
                tick: 0,
            }),
            max_settings,
            max_compiled_cost,
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` of [`Registry::resolve`] against the compiled
    /// cache since startup.
    pub(crate) fn artifact_counters(&self) -> (u64, u64) {
        (
            self.artifact_hits.load(Ordering::Relaxed),
            self.artifact_misses.load(Ordering::Relaxed),
        )
    }

    /// The content hash of the text bound to `setting_id`, or `None` when
    /// nothing is bound. Bindings are never removed, so once this is `Some`
    /// it stays `Some`; a rebind changes the hash. Never compiles.
    pub(crate) fn bound_hash(&self, setting_id: u64) -> Option<u64> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.bindings.get(&setting_id).map(|b| b.hash)
    }

    /// Parse, canonicalize, compile (or reuse) and bind `text` to
    /// `bind_id`.
    pub(crate) fn put(&self, bind_id: u64, text: &str) -> Result<PutOutcome, WireError> {
        if bind_id == DEFAULT_BINDING {
            return Err(WireError::new(
                wire::ErrorCode::UnknownSetting,
                "setting 0 is the server's default setting and cannot be rebound",
            ));
        }
        let setting = parse_setting(text)
            .map_err(|e| WireError::new(wire::ErrorCode::SettingParse, e.to_string()))?;
        // Canonical text is what gets hashed and retained, so uploads that
        // differ only in whitespace or ordering of equivalent clauses
        // share one artifact.
        let canonical = xdx_core::settext::setting_to_text(&setting);
        let hash = content_hash(&canonical);
        let cost = canonical.len() as u64;
        if cost > self.max_compiled_cost {
            return Err(WireError::new(
                wire::ErrorCode::SettingLimit,
                format!(
                    "setting cost {cost} exceeds the compiled-cost budget {}",
                    self.max_compiled_cost
                ),
            ));
        }
        // Fast path under the lock: bind to an already-resident artifact.
        {
            let mut inner = self.inner.lock().expect("registry poisoned");
            self.check_binding_count(&inner, bind_id)?;
            if Self::touch(&mut inner, hash).is_some() {
                let rebound = Self::bind(&mut inner, bind_id, hash, &canonical);
                return Ok(PutOutcome {
                    content_hash: hash,
                    reused: true,
                    rebound,
                });
            }
        }
        // Miss: compile unlocked, then insert (a racing identical upload
        // may have beaten us — its artifact wins, ours is dropped).
        let compiled = Arc::new(CompiledSetting::new_owned(Arc::new(setting)));
        let mut inner = self.inner.lock().expect("registry poisoned");
        self.check_binding_count(&inner, bind_id)?;
        let reused = inner.compiled.contains_key(&hash);
        if !reused {
            self.insert_compiled(&mut inner, hash, compiled, cost);
        }
        let rebound = Self::bind(&mut inner, bind_id, hash, &canonical);
        Ok(PutOutcome {
            content_hash: hash,
            reused,
            rebound,
        })
    }

    /// The compiled setting for `setting_id` and the content hash of the
    /// text it was compiled from, recompiling from retained text if the
    /// artifact was evicted. The hash tags whatever is computed with the
    /// artifact, so a result can be told apart from one computed under a
    /// later rebind.
    pub(crate) fn resolve(
        &self,
        setting_id: u64,
    ) -> Result<(Arc<CompiledSetting<'static>>, u64), WireError> {
        let (hash, text) = {
            let mut inner = self.inner.lock().expect("registry poisoned");
            let binding = inner.bindings.get(&setting_id).ok_or_else(|| {
                WireError::new(
                    wire::ErrorCode::UnknownSetting,
                    format!("no setting is bound to id {setting_id}"),
                )
            })?;
            let (hash, text) = (binding.hash, Arc::clone(&binding.text));
            if let Some(compiled) = Self::touch(&mut inner, hash) {
                self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((compiled, hash));
            }
            (hash, text)
        };
        self.artifact_misses.fetch_add(1, Ordering::Relaxed);
        // Cold binding: recompile from the retained canonical text. It
        // parsed when it was uploaded, so a failure here is a bug, but
        // answer with a structured error rather than poisoning the worker.
        let setting = parse_setting(&text).map_err(|e| {
            WireError::new(
                wire::ErrorCode::SettingReject,
                format!("retained text for setting {setting_id} no longer compiles: {e}"),
            )
        })?;
        let compiled = Arc::new(CompiledSetting::new_owned(Arc::new(setting)));
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some(entry) = inner.compiled.get(&hash) {
            return Ok((Arc::clone(&entry.setting), hash)); // racing resolve won
        }
        self.insert_compiled(&mut inner, hash, Arc::clone(&compiled), text.len() as u64);
        Ok((compiled, hash))
    }

    /// One row per binding, ascending by binding id.
    pub(crate) fn list(&self) -> Vec<SettingEntry> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .bindings
            .iter()
            .map(|(&bind_id, b)| SettingEntry {
                bind_id,
                content_hash: b.hash,
                compiled: inner.compiled.contains_key(&b.hash),
                cost: b.text.len() as u64,
            })
            .collect()
    }

    /// Drop `bind_id`'s compiled artifact (text, binding and stored
    /// documents survive). Returns whether an artifact was resident.
    pub(crate) fn evict(&self, bind_id: u64) -> Result<bool, WireError> {
        if bind_id == DEFAULT_BINDING {
            return Err(WireError::new(
                wire::ErrorCode::UnknownSetting,
                "setting 0 is the server's default setting and stays resident",
            ));
        }
        let mut inner = self.inner.lock().expect("registry poisoned");
        let hash = inner
            .bindings
            .get(&bind_id)
            .map(|b| b.hash)
            .ok_or_else(|| {
                WireError::new(
                    wire::ErrorCode::UnknownSetting,
                    format!("no setting is bound to id {bind_id}"),
                )
            })?;
        if hash == Self::pinned_hash(&inner) {
            // The binding shares the default setting's text; its artifact
            // is pinned, so there is nothing to drop.
            return Ok(false);
        }
        Ok(Self::remove_compiled(&mut inner, hash))
    }

    /// The resident artifact under `hash`, stamped most recently used.
    fn touch(inner: &mut Inner, hash: u64) -> Option<Arc<CompiledSetting<'static>>> {
        let entry = inner.compiled.get_mut(&hash)?;
        inner.tick += 1;
        entry.last_used = inner.tick;
        Some(Arc::clone(&entry.setting))
    }

    /// Reject a *new* binding beyond the binding cap (rebinding an
    /// existing id is always admitted).
    fn check_binding_count(&self, inner: &Inner, bind_id: u64) -> Result<(), WireError> {
        if !inner.bindings.contains_key(&bind_id) && inner.bindings.len() >= self.max_settings {
            return Err(WireError::new(
                wire::ErrorCode::SettingLimit,
                format!("the server caps bindings at {}", self.max_settings),
            ));
        }
        Ok(())
    }

    /// (Re)bind `bind_id`; returns whether an existing binding's hash
    /// changed.
    fn bind(inner: &mut Inner, bind_id: u64, hash: u64, canonical: &str) -> bool {
        let rebound = inner
            .bindings
            .get(&bind_id)
            .map(|b| b.hash != hash)
            .unwrap_or(false);
        inner.bindings.insert(
            bind_id,
            Binding {
                hash,
                text: Arc::from(canonical),
            },
        );
        rebound
    }

    fn insert_compiled(
        &self,
        inner: &mut Inner,
        hash: u64,
        setting: Arc<CompiledSetting<'static>>,
        cost: u64,
    ) {
        inner.tick += 1;
        let last_used = inner.tick;
        inner.compiled.insert(
            hash,
            Compiled {
                setting,
                cost,
                last_used,
            },
        );
        inner.total_cost += cost;
        self.evict_lru(inner, hash);
    }

    /// Evict least-recently-used artifacts until the cost budget holds.
    /// The pinned default artifact and `keep` (the entry just inserted)
    /// are never victims, so the budget can be transiently exceeded by one
    /// entry rather than ever evicting what the caller is about to use.
    fn evict_lru(&self, inner: &mut Inner, keep: u64) {
        let pinned = Self::pinned_hash(inner);
        while inner.total_cost > self.max_compiled_cost {
            let victim = inner
                .compiled
                .iter()
                .filter(|(&h, _)| h != pinned && h != keep)
                .min_by_key(|(_, c)| c.last_used)
                .map(|(&h, _)| h);
            match victim {
                Some(h) => {
                    Self::remove_compiled(inner, h);
                }
                None => return, // only pinned + in-use entries remain
            }
        }
    }

    fn remove_compiled(inner: &mut Inner, hash: u64) -> bool {
        match inner.compiled.remove(&hash) {
            Some(entry) => {
                inner.total_cost -= entry.cost;
                true
            }
            None => false,
        }
    }

    fn pinned_hash(inner: &Inner) -> u64 {
        inner
            .bindings
            .get(&DEFAULT_BINDING)
            .map(|b| b.hash)
            .expect("default binding is constructed with the registry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_core::settext::setting_to_text;

    fn text(root: &str) -> String {
        format!(
            "source {{ root {root}; rule {root} = a*; rule a = eps; }} \
             target {{ root t; rule t = b*; rule b = eps; }} \
             std t[b] :- {root}[a];"
        )
    }

    fn registry(max_settings: usize, max_cost: u64) -> Registry {
        let setting = parse_setting(&text("d")).expect("default parses");
        let canonical = setting_to_text(&setting);
        let compiled = CompiledSetting::new_owned(Arc::new(setting));
        Registry::new(compiled, canonical, max_settings, max_cost)
    }

    #[test]
    fn identical_text_reuses_the_compiled_artifact() {
        let r = registry(8, 1 << 20);
        let a = r.put(1, &text("r")).expect("first upload");
        assert!(!a.reused);
        assert!(!a.rebound);
        let b = r.put(2, &text("r")).expect("second upload, same text");
        assert!(b.reused, "identical text must not recompile");
        assert_eq!(a.content_hash, b.content_hash);
        // Whitespace-only differences canonicalize away.
        let c = r.put(3, &format!("  {}  ", text("r"))).expect("padded");
        assert_eq!(c.content_hash, a.content_hash);
        assert!(c.reused);
    }

    #[test]
    fn rebinding_reports_a_semantic_change_only_on_new_text() {
        let r = registry(8, 1 << 20);
        r.put(1, &text("r")).expect("bind");
        let same = r.put(1, &text("r")).expect("rebind identical");
        assert!(!same.rebound);
        let changed = r.put(1, &text("q")).expect("rebind different");
        assert!(changed.rebound);
        // The binding's hash, which tags every cached answer, moved too.
        assert_eq!(r.bound_hash(1), Some(changed.content_hash));
        assert_ne!(changed.content_hash, same.content_hash);
        assert_eq!(r.bound_hash(2), None);
    }

    #[test]
    fn eviction_keeps_the_binding_and_recompiles_on_demand() {
        let r = registry(8, 1 << 20);
        r.put(1, &text("r")).expect("bind");
        assert!(r.evict(1).expect("evict"));
        assert!(!r.evict(1).expect("re-evict"), "already cold");
        let rows = r.list();
        let row = rows.iter().find(|e| e.bind_id == 1).expect("still listed");
        assert!(!row.compiled);
        // Resolving a cold binding recompiles from the retained text.
        let (compiled, hash) = r.resolve(1).expect("resolve recompiles");
        assert_eq!(compiled.setting().stds.len(), 1);
        assert_eq!(Some(hash), r.bound_hash(1));
        assert!(
            r.list()
                .iter()
                .find(|e| e.bind_id == 1)
                .expect("row")
                .compiled
        );
    }

    #[test]
    fn the_default_binding_is_pinned() {
        let r = registry(8, 1 << 20);
        assert!(r.put(0, &text("r")).is_err());
        assert!(r.evict(0).is_err());
        // A non-default binding with the default's text has nothing of its
        // own to evict.
        let default_text = r.list()[0];
        assert_eq!(default_text.bind_id, 0);
        assert!(default_text.compiled);
    }

    #[test]
    fn the_cost_budget_evicts_least_recently_used_artifacts() {
        // Costs are *canonical* text bytes; all four settings here differ
        // only in a one-char root name, so they cost the same.
        let one = setting_to_text(&parse_setting(&text("r")).expect("parses")).len() as u64;
        // Room for the pinned default plus two uploads.
        let r = registry(16, 3 * one);
        r.put(1, &text("r")).expect("bind 1");
        r.put(2, &text("q")).expect("bind 2");
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        r.resolve(1).expect("warm 1");
        r.put(3, &text("s")).expect("bind 3");
        let compiled: Vec<(u64, bool)> = r.list().iter().map(|e| (e.bind_id, e.compiled)).collect();
        assert_eq!(
            compiled,
            vec![(0, true), (1, true), (2, false), (3, true)],
            "the least-recently-used unpinned artifact is evicted"
        );
        // The evicted binding still answers — by recompiling.
        assert!(r.resolve(2).is_ok());
    }

    #[test]
    fn limits_carry_structured_codes() {
        // Binding cap: the default occupies the only slot.
        let r = registry(1, 1 << 20);
        let cap = r.put(1, &text("r")).unwrap_err();
        assert_eq!(cap.code, wire::ErrorCode::SettingLimit);

        // Cost cap: one setting's cost alone exceeds the budget.
        let r = registry(8, 8);
        let cost = r.put(1, &text("r")).unwrap_err();
        assert_eq!(cost.code, wire::ErrorCode::SettingLimit);

        let r = registry(8, 1 << 20);
        let parse = r.put(1, "not a setting").unwrap_err();
        assert_eq!(parse.code, wire::ErrorCode::SettingParse);
        let unknown = r.resolve(77).unwrap_err();
        assert_eq!(unknown.code, wire::ErrorCode::UnknownSetting);
    }
}
