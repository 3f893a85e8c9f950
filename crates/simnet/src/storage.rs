//! Simulated stable storage: a per-node key/value blob store that survives
//! crashes and restarts.

use std::collections::{BTreeMap, BTreeSet};

/// Per-node durable storage.
///
/// Protocols persist their recovery state here (promised ballots, accepted
/// entries, snapshots, …). When a node crashes the simulator drops the actor
/// but keeps its `StableStore`; the restart factory rebuilds the actor from
/// it, exactly as a real process recovers from disk.
///
/// ```
/// use simnet::StableStore;
/// let mut s = StableStore::default();
/// s.put_u64("promised", 7);
/// assert_eq!(s.get_u64("promised"), Some(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct StableStore {
    map: BTreeMap<String, Vec<u8>>,
    /// Keys mutated since the last [`StableStore::take_dirty`]. `None` (the
    /// default) disables journaling entirely, so the simulator pays nothing
    /// for a feature only the real-runtime write-through path uses.
    dirty: Option<BTreeSet<String>>,
}

impl StableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the dirty-key journal: from now on every [`StableStore::put`]
    /// and [`StableStore::remove`] records the touched key, and
    /// [`StableStore::take_dirty`] drains the accumulated set.
    ///
    /// The real runtime (see [`crate::runtime`]) uses this to flush only
    /// mutated keys to its [`crate::transport::StorageBackend`] at the end of
    /// each drain pass. The simulator never enables it, so simulated runs are
    /// byte-for-byte unaffected.
    pub fn enable_journal(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(BTreeSet::new());
        }
    }

    /// Drains and returns the keys mutated since the previous call, in
    /// lexicographic order. Returns an empty vector when journaling is
    /// disabled (see [`StableStore::enable_journal`]).
    pub fn take_dirty(&mut self) -> Vec<String> {
        match self.dirty.as_mut() {
            Some(set) => std::mem::take(set).into_iter().collect(),
            None => Vec::new(),
        }
    }

    fn mark_dirty(&mut self, key: &str) {
        if let Some(set) = self.dirty.as_mut() {
            if !set.contains(key) {
                set.insert(key.to_owned());
            }
        }
    }

    /// Stores raw bytes under `key`, replacing any previous value.
    pub fn put(&mut self, key: &str, value: Vec<u8>) {
        self.mark_dirty(key);
        self.map.insert(key.to_owned(), value);
    }

    /// Reads the bytes stored under `key`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Removes `key`, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<Vec<u8>> {
        self.mark_dirty(key);
        self.map.remove(key)
    }

    /// Stores a `u64` under `key` (little-endian).
    pub fn put_u64(&mut self, key: &str, value: u64) {
        self.put(key, value.to_le_bytes().to_vec());
    }

    /// Reads a `u64` stored with [`StableStore::put_u64`]. Returns `None` if
    /// the key is missing or malformed.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        let bytes = self.get(key)?;
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes stored across all values (a proxy for disk footprint).
    pub fn byte_size(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Iterates over keys with the given prefix, in lexicographic order.
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.map
            .range(prefix.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
    }

    /// Removes up to `limit` keys under `prefix`, in lexicographic order,
    /// and returns how many it removed, so a large key range can be
    /// deleted a slice at a time.
    pub fn remove_prefix(&mut self, prefix: &str, limit: usize) -> usize {
        let keys: Vec<String> = self
            .keys_with_prefix(prefix)
            .take(limit)
            .map(str::to_owned)
            .collect();
        for key in &keys {
            self.remove(key);
        }
        keys.len()
    }

    /// Extracts the sub-store under `prefix` as a standalone store whose
    /// keys have the prefix stripped. Used to recover one group's actor
    /// from a node that multiplexes several groups over a single store
    /// (each group writes under its own scope — see [`ScopedStore`]).
    pub fn subtree(&self, prefix: &str) -> StableStore {
        StableStore {
            map: self
                .map
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k[prefix.len()..].to_owned(), v.clone()))
                .collect(),
            dirty: None,
        }
    }

    /// Iterates over every `(key, value)` pair in lexicographic key order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[u8])> + '_ {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// A prefix-scoped view of a [`StableStore`].
///
/// [`crate::Context::storage`] hands actors one of these instead of the raw
/// store. With an empty scope (the default, single-group case) it is a
/// zero-cost passthrough; under a multi-group multiplexer every key is
/// transparently namespaced by the group's scope, so co-hosted groups can
/// never clobber each other's recovery state.
pub struct ScopedStore<'a> {
    store: &'a mut StableStore,
    scope: &'a str,
}

impl<'a> ScopedStore<'a> {
    pub(crate) fn new(store: &'a mut StableStore, scope: &'a str) -> Self {
        ScopedStore { store, scope }
    }

    fn full<'k>(&self, key: &'k str) -> std::borrow::Cow<'k, str> {
        if self.scope.is_empty() {
            std::borrow::Cow::Borrowed(key)
        } else {
            std::borrow::Cow::Owned(format!("{}{}", self.scope, key))
        }
    }

    /// Stores raw bytes under `key`, replacing any previous value.
    pub fn put(&mut self, key: &str, value: Vec<u8>) {
        let full = self.full(key);
        self.store.put(&full, value);
    }

    /// Reads the bytes stored under `key`.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        match self.full(key) {
            std::borrow::Cow::Borrowed(k) => self.store.get(k),
            std::borrow::Cow::Owned(k) => self.store.get(&k),
        }
    }

    /// Removes `key`, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<Vec<u8>> {
        let full = self.full(key);
        self.store.remove(&full)
    }

    /// Stores a `u64` under `key` (little-endian).
    pub fn put_u64(&mut self, key: &str, value: u64) {
        self.put(key, value.to_le_bytes().to_vec());
    }

    /// Reads a `u64` stored with [`ScopedStore::put_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        let bytes = self.get(key)?;
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// Removes up to `limit` keys under `prefix`; see
    /// [`StableStore::remove_prefix`].
    pub fn remove_prefix(&mut self, prefix: &str, limit: usize) -> usize {
        let full = self.full(prefix);
        self.store.remove_prefix(&full, limit)
    }

    /// Collects the keys under `prefix` (scope-relative, scope stripped),
    /// in lexicographic order. Returns owned strings because the scoped
    /// prefix is materialized internally.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let full = self.full(prefix);
        let scope_len = self.scope.len();
        self.store
            .keys_with_prefix(&full)
            .map(|k| k[scope_len..].to_owned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_round_trip() {
        let mut s = StableStore::new();
        assert!(s.is_empty());
        s.put("a", vec![1, 2, 3]);
        assert_eq!(s.get("a"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.byte_size(), 3);
        assert_eq!(s.remove("a"), Some(vec![1, 2, 3]));
        assert!(s.get("a").is_none());
    }

    #[test]
    fn u64_helpers_reject_malformed_values() {
        let mut s = StableStore::new();
        s.put("short", vec![1, 2]);
        assert_eq!(s.get_u64("short"), None);
        assert_eq!(s.get_u64("missing"), None);
        s.put_u64("x", u64::MAX);
        assert_eq!(s.get_u64("x"), Some(u64::MAX));
    }

    #[test]
    fn scoped_view_namespaces_every_operation() {
        let mut s = StableStore::new();
        {
            let mut g0 = ScopedStore::new(&mut s, "g0/");
            g0.put("base", vec![1]);
            g0.put_u64("term", 7);
            assert_eq!(g0.get("base"), Some(&[1u8][..]));
            assert_eq!(g0.get_u64("term"), Some(7));
            assert_eq!(g0.keys_with_prefix(""), vec!["base", "term"]);
        }
        {
            let mut g1 = ScopedStore::new(&mut s, "g1/");
            assert_eq!(g1.get("base"), None, "scopes must not leak");
            g1.put("base", vec![2]);
            assert_eq!(g1.remove("base"), Some(vec![2]));
        }
        // The raw store sees fully-qualified keys.
        assert_eq!(s.get("g0/base"), Some(&[1u8][..]));
        // An empty scope is a passthrough.
        let mut root = ScopedStore::new(&mut s, "");
        assert_eq!(root.get("g0/base"), Some(&[1u8][..]));
        assert_eq!(root.keys_with_prefix("g0/"), vec!["g0/base", "g0/term"]);
        root.put("top", vec![9]);
        assert_eq!(s.get("top"), Some(&[9u8][..]));
    }

    #[test]
    fn remove_prefix_deletes_a_bounded_slice_and_journals_it() {
        let mut s = StableStore::new();
        s.enable_journal();
        for k in [
            "g0/px/1/a",
            "g0/px/1/b",
            "g0/px/1/c",
            "g0/px/2/a",
            "g1/px/1/a",
        ] {
            s.put(k, vec![1]);
        }
        s.take_dirty();
        let mut g0 = ScopedStore::new(&mut s, "g0/");
        assert_eq!(g0.remove_prefix("px/1/", 2), 2);
        assert_eq!(g0.remove_prefix("px/1/", 2), 1);
        assert_eq!(g0.remove_prefix("px/1/", 2), 0);
        assert_eq!(s.take_dirty(), vec!["g0/px/1/a", "g0/px/1/b", "g0/px/1/c"]);
        assert_eq!(s.len(), 2, "other epochs and scopes survive");
    }

    #[test]
    fn subtree_strips_the_scope_and_copies_values() {
        let mut s = StableStore::new();
        s.put("g0/base", vec![1, 2]);
        s.put("g0/px/0001", vec![3]);
        s.put("g1/base", vec![4]);
        let sub = s.subtree("g0/");
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get("base"), Some(&[1u8, 2][..]));
        assert_eq!(sub.get("px/0001"), Some(&[3u8][..]));
        assert!(sub.get("g1/base").is_none());
        // The original is untouched.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn journal_records_puts_and_removes_only_when_enabled() {
        let mut s = StableStore::new();
        s.put("before", vec![1]);
        assert!(s.take_dirty().is_empty(), "journal off by default");
        s.enable_journal();
        s.put("a", vec![1]);
        s.put_u64("b", 2);
        s.remove("before");
        s.remove("missing"); // removals of absent keys still journal
        assert_eq!(s.take_dirty(), vec!["a", "b", "before", "missing"]);
        assert!(s.take_dirty().is_empty(), "take_dirty drains");
        s.put("a", vec![9]);
        assert_eq!(s.take_dirty(), vec!["a"]);
        // Scoped views journal their fully-qualified keys.
        ScopedStore::new(&mut s, "g0/").put("base", vec![1]);
        assert_eq!(s.take_dirty(), vec!["g0/base"]);
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let mut s = StableStore::new();
        s.put("log/000001", vec![]);
        s.put("log/000003", vec![]);
        s.put("log/000002", vec![]);
        s.put("meta", vec![]);
        let keys: Vec<_> = s.keys_with_prefix("log/").collect();
        assert_eq!(keys, vec!["log/000001", "log/000002", "log/000003"]);
        assert_eq!(s.keys_with_prefix("zzz").count(), 0);
    }
}
