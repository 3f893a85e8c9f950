//! A replicated key-value store: the application state machine used by the
//! examples, experiments and linearizability tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsmr_core::state_machine::StateMachine;
use simnet::wire::{self, Wire};

/// Operations the store supports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get(String),
    /// Write a key.
    Put(String, Vec<u8>),
    /// Remove a key.
    Delete(String),
    /// Compare-and-swap: set `key` to `new` iff its current value equals
    /// `expect` (`None` = key absent).
    Cas {
        /// The key.
        key: String,
        /// Expected current value.
        expect: Option<Vec<u8>>,
        /// New value on match.
        new: Vec<u8>,
    },
    /// Append bytes to a key (creating it if absent).
    Append(String, Vec<u8>),
}

/// Operation results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOutput {
    /// `Get`: the value, if present.
    Value(Option<Vec<u8>>),
    /// `Put` / `Append`: acknowledged.
    Written,
    /// `Delete`: whether the key existed.
    Deleted(bool),
    /// `Cas`: whether the swap happened.
    Swapped(bool),
}

impl Wire for KvOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            KvOp::Get(k) => {
                buf.push(0);
                k.encode(buf);
            }
            KvOp::Put(k, v) => {
                buf.push(1);
                k.encode(buf);
                v.encode(buf);
            }
            KvOp::Delete(k) => {
                buf.push(2);
                k.encode(buf);
            }
            KvOp::Cas { key, expect, new } => {
                buf.push(3);
                key.encode(buf);
                expect.encode(buf);
                new.encode(buf);
            }
            KvOp::Append(k, v) => {
                buf.push(4);
                k.encode(buf);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(KvOp::Get(String::decode(buf)?)),
            1 => Some(KvOp::Put(String::decode(buf)?, Vec::decode(buf)?)),
            2 => Some(KvOp::Delete(String::decode(buf)?)),
            3 => Some(KvOp::Cas {
                key: String::decode(buf)?,
                expect: Option::decode(buf)?,
                new: Vec::decode(buf)?,
            }),
            4 => Some(KvOp::Append(String::decode(buf)?, Vec::decode(buf)?)),
            _ => None,
        }
    }
}

impl Wire for KvOutput {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            KvOutput::Value(v) => {
                buf.push(0);
                v.encode(buf);
            }
            KvOutput::Written => buf.push(1),
            KvOutput::Deleted(b) => {
                buf.push(2);
                b.encode(buf);
            }
            KvOutput::Swapped(b) => {
                buf.push(3);
                b.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(KvOutput::Value(Option::decode(buf)?)),
            1 => Some(KvOutput::Written),
            2 => Some(KvOutput::Deleted(bool::decode(buf)?)),
            3 => Some(KvOutput::Swapped(bool::decode(buf)?)),
            _ => None,
        }
    }
}

/// Number of hash-partitioned snapshot pages. Fixed so page assignment is
/// a pure function of the key: every replica (and every donor a joiner
/// rotates to) slices the identical state into identical pages.
pub const PAGES: usize = 256;

/// Bound on the tombstone log. When it overflows, the oldest entries are
/// dropped and [`KvStore::tombstone_floor`] rises: rejoiners whose
/// watermark predates the floor can no longer be served a delta and fall
/// back to a full transfer.
pub const TOMBSTONE_CAP: usize = 1024;

/// FNV-1a, 64-bit: the deterministic page hash. `std`'s hashers are not
/// guaranteed stable across releases, and page assignment is part of the
/// snapshot format.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn page_of(key: &str) -> usize {
    (fnv1a64(key) % PAGES as u64) as usize
}

/// One hash partition of the store. `version` is the `ops_applied` stamp
/// of the last mutation that touched this page, so a page's encoding is a
/// pure function of its version — the donor-side snapshot cursor reuses
/// cached encodings whenever the version still matches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Page {
    map: BTreeMap<String, (u64, Vec<u8>)>,
    version: u64,
}

impl Page {
    /// The bytes of `(version, Vec<(String, u64, Vec<u8>)>)`, written
    /// straight from the map into a buffer sized once.
    fn encode(&self) -> Vec<u8> {
        // Per entry: the key and value with their `u64` lengths, and the stamp.
        let size: usize = self
            .map
            .iter()
            .map(|(k, (_, v))| 24 + k.len() + v.len())
            .sum();
        let mut buf = Vec::with_capacity(16 + size);
        self.version.encode(&mut buf);
        self.map.len().encode(&mut buf);
        for (k, (ver, v)) in &self.map {
            k.encode(&mut buf);
            ver.encode(&mut buf);
            v.encode(&mut buf);
        }
        buf
    }

    fn decode(index: usize, bytes: &[u8]) -> Option<Self> {
        let (version, entries) = wire::from_bytes::<(u64, Vec<(String, u64, Vec<u8>)>)>(bytes)?;
        let mut map = BTreeMap::new();
        for (k, ver, v) in entries {
            if page_of(&k) != index {
                return None; // entry on the wrong page: corrupt snapshot
            }
            map.insert(k, (ver, v));
        }
        Some(Page { map, version })
    }
}

/// The deterministic key-value state machine.
///
/// State is hash-partitioned into [`PAGES`] fixed pages, each entry
/// stamped with the `ops_applied` count of the write that produced it.
/// The partitioning drives three things in the composition: chunked
/// state transfer (pages stream independently), incremental seal-time
/// snapshots (only dirty pages re-encode), and delta sync for rejoiners
/// (entries newer than a watermark, plus a bounded tombstone log for
/// deletions).
///
/// ```
/// use kvstore::{KvOp, KvOutput, KvStore};
/// use rsmr_core::StateMachine;
/// let mut kv = KvStore::default();
/// kv.apply(&KvOp::Put("k".into(), b"v".to_vec()));
/// assert_eq!(kv.apply(&KvOp::Get("k".into())), KvOutput::Value(Some(b"v".to_vec())));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvStore {
    pages: Vec<Page>,
    ops_applied: u64,
    /// Deleted keys with their deletion stamp, newest last. Pruned when a
    /// key is re-inserted; truncated at [`TOMBSTONE_CAP`].
    tombstones: Vec<(String, u64)>,
    /// Deltas from watermarks older than this are refused (tombstones
    /// below it have been dropped, so deletions could be missed).
    tombstone_floor: u64,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            pages: vec![Page::default(); PAGES],
            ops_applied: 0,
            tombstones: Vec::new(),
            tombstone_floor: 0,
        }
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store pre-filled with `n` keys of `value_size` bytes each
    /// (`fill/000000`…), used by the state-transfer experiments to control
    /// snapshot size. Equivalent to applying `n` `Put`s to an empty store.
    pub fn with_filler(n: usize, value_size: usize) -> Self {
        let mut kv = Self::new();
        for i in 0..n {
            kv.ops_applied += 1;
            kv.write(format!("fill/{i:06}"), vec![0xAB; value_size]);
        }
        kv
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.pages.iter().map(|p| p.map.len()).sum()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(|p| p.map.is_empty())
    }

    /// Operations applied since genesis/restore.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Direct read access (for tests/examples).
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.pages[page_of(key)]
            .map
            .get(key)
            .map(|(_, v)| v.as_slice())
    }

    /// Oldest watermark still serviceable by delta sync.
    pub fn tombstone_floor(&self) -> u64 {
        self.tombstone_floor
    }

    /// Hashes the *observable* state only — the key→value map, no version
    /// stamps, tombstone log or `ops_applied`. Every future output of the
    /// store is a function of exactly this content, which is what makes it
    /// the correct memoization key for the linearizability checker: two
    /// apply orders that converge on the same map must collide here, even
    /// though their per-key stamps (and thus [`StateMachine::snapshot`]
    /// bytes) differ.
    pub fn content_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for page in &self.pages {
            for (k, (_ver, v)) in &page.map {
                k.hash(&mut h);
                v.hash(&mut h);
            }
        }
        h.finish()
    }

    fn write(&mut self, key: String, value: Vec<u8>) {
        let ver = self.ops_applied;
        let page = &mut self.pages[page_of(&key)];
        page.map.insert(key.clone(), (ver, value));
        page.version = ver;
        // A live key needs no tombstone; pruning here keeps the log to
        // genuinely-deleted keys (and is deterministic, so every replica
        // holds the identical log).
        self.tombstones.retain(|(k, _)| *k != key);
    }

    fn remove(&mut self, key: &str) -> bool {
        let ver = self.ops_applied;
        let page = &mut self.pages[page_of(key)];
        if page.map.remove(key).is_none() {
            return false;
        }
        page.version = ver;
        self.tombstones.push((key.to_owned(), ver));
        if self.tombstones.len() > TOMBSTONE_CAP {
            let drop_n = self.tombstones.len() - TOMBSTONE_CAP;
            for (_, dropped) in self.tombstones.drain(..drop_n) {
                self.tombstone_floor = self.tombstone_floor.max(dropped);
            }
        }
        true
    }

    /// The bytes of `(ops_applied, tombstone_floor, tombstones)`, written
    /// without cloning the tombstone log.
    fn encode_meta(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.tombstones.encoded_size());
        self.ops_applied.encode(&mut buf);
        self.tombstone_floor.encode(&mut buf);
        self.tombstones.encode(&mut buf);
        buf
    }

    fn restore_from_blobs<B: AsRef<[u8]>>(blobs: &[B]) -> Option<Self> {
        if blobs.len() != PAGES + 1 {
            return None;
        }
        let (data, meta) = blobs.split_at(PAGES);
        let mut pages = Vec::with_capacity(PAGES);
        for (i, blob) in data.iter().enumerate() {
            pages.push(Page::decode(i, blob.as_ref())?);
        }
        let (ops_applied, tombstone_floor, tombstones) =
            wire::from_bytes::<(u64, u64, Vec<(String, u64)>)>(meta[0].as_ref())?;
        Some(KvStore {
            pages,
            ops_applied,
            tombstones,
            tombstone_floor,
        })
    }
}

impl StateMachine for KvStore {
    type Op = KvOp;
    type Output = KvOutput;

    fn apply(&mut self, op: &KvOp) -> KvOutput {
        self.ops_applied += 1;
        match op {
            KvOp::Get(k) => KvOutput::Value(self.get(k).map(<[u8]>::to_vec)),
            KvOp::Put(k, v) => {
                self.write(k.clone(), v.clone());
                KvOutput::Written
            }
            KvOp::Delete(k) => KvOutput::Deleted(self.remove(k)),
            KvOp::Cas { key, expect, new } => {
                let current = self.get(key);
                let matches = match (current, expect) {
                    (None, None) => true,
                    (Some(c), Some(e)) => c == e,
                    _ => false,
                };
                if matches {
                    self.write(key.clone(), new.clone());
                }
                KvOutput::Swapped(matches)
            }
            KvOp::Append(k, v) => {
                let mut value = self.get(k).map(<[u8]>::to_vec).unwrap_or_default();
                value.extend_from_slice(v);
                self.write(k.clone(), value);
                KvOutput::Written
            }
        }
    }

    fn query(&self, op: &KvOp) -> Option<KvOutput> {
        match op {
            KvOp::Get(k) => Some(KvOutput::Value(self.get(k).map(<[u8]>::to_vec))),
            _ => None,
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let blobs: Vec<Vec<u8>> = (0..self.snapshot_pages())
            .map(|i| self.snapshot_page(i))
            .collect();
        wire::to_bytes(&blobs)
    }

    fn restore(bytes: &[u8]) -> Option<Self> {
        let blobs = wire::from_bytes::<Vec<Vec<u8>>>(bytes)?;
        Self::restore_from_blobs(&blobs)
    }

    fn snapshot_pages(&self) -> usize {
        PAGES + 1 // data pages plus the meta page (stamps + tombstones)
    }

    fn snapshot_page(&self, page: usize) -> Vec<u8> {
        if page < PAGES {
            self.pages[page].encode()
        } else {
            self.encode_meta()
        }
    }

    fn page_version(&self, page: usize) -> Option<u64> {
        if page < PAGES {
            Some(self.pages[page].version)
        } else {
            // The meta page moves with every op (ops_applied is part of
            // it), so it is always dirty — and always tiny.
            Some(self.ops_applied)
        }
    }

    fn restore_pages(pages: &[Arc<Vec<u8>>]) -> Option<Self> {
        let blobs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
        Self::restore_from_blobs(&blobs)
    }

    fn delta_watermark(&self) -> Option<u64> {
        Some(self.ops_applied)
    }

    fn delta_from_pages(
        pages: &[Arc<Vec<u8>>],
        since: u64,
        chunk_target: usize,
    ) -> Option<Vec<Vec<u8>>> {
        if pages.len() != PAGES + 1 {
            return None;
        }
        let (data, meta) = pages.split_at(PAGES);
        let (ops_applied, floor, tombstones) =
            wire::from_bytes::<(u64, u64, Vec<(String, u64)>)>(meta[0].as_ref())?;
        if since < floor || since > ops_applied {
            // Tombstones the rejoiner would need are gone (or its
            // watermark is from a different history): full transfer.
            return None;
        }
        let mut chunks = Vec::new();
        let mut cur: Vec<(String, u64, Vec<u8>)> = Vec::new();
        let mut cur_bytes = 0usize;
        for blob in data {
            let (page_version, entries) =
                wire::from_bytes::<(u64, Vec<(String, u64, Vec<u8>)>)>(blob.as_ref())?;
            if page_version <= since {
                continue; // page untouched since the watermark
            }
            for (k, ver, v) in entries {
                if ver <= since {
                    continue;
                }
                cur_bytes += k.len() + v.len() + 24;
                cur.push((k, ver, v));
                if cur_bytes >= chunk_target {
                    chunks.push(wire::to_bytes(&std::mem::take(&mut cur)));
                    cur_bytes = 0;
                }
            }
        }
        if !cur.is_empty() {
            chunks.push(wire::to_bytes(&cur));
        }
        // The final chunk replaces the rejoiner's meta wholesale: donor
        // stamp, floor and the full (bounded) tombstone log.
        chunks.push(wire::to_bytes(&(ops_applied, floor, tombstones)));
        Some(chunks)
    }

    fn apply_delta(&mut self, chunks: &[Vec<u8>]) -> bool {
        let Some((meta, data)) = chunks.split_last() else {
            return false;
        };
        let Some((ops_applied, floor, tombstones)) =
            wire::from_bytes::<(u64, u64, Vec<(String, u64)>)>(meta)
        else {
            return false;
        };
        let since = self.ops_applied;
        if ops_applied < since {
            return false;
        }
        // Validate every chunk before mutating anything: a malformed
        // delta must leave the state untouched so the caller can fall
        // back to a full transfer.
        let mut entries: Vec<(String, u64, Vec<u8>)> = Vec::new();
        for chunk in data {
            match wire::from_bytes::<Vec<(String, u64, Vec<u8>)>>(chunk) {
                Some(batch) => entries.extend(batch),
                None => return false,
            }
        }
        if entries.iter().any(|(_, ver, _)| *ver <= since) {
            return false;
        }
        // Deletions the rejoiner has not seen. A tombstone bumps the page
        // version even when the key is absent locally (the donor deleted
        // a key born after our watermark): the page version mirrors the
        // donor's last-mutation stamp exactly.
        for (k, del_ver) in &tombstones {
            if *del_ver > since {
                let page = &mut self.pages[page_of(k)];
                page.map.remove(k);
                page.version = page.version.max(*del_ver);
            }
        }
        for (k, ver, v) in entries {
            let page = &mut self.pages[page_of(&k)];
            page.version = page.version.max(ver);
            page.map.insert(k, (ver, v));
        }
        self.tombstones = tombstones;
        self.tombstone_floor = floor;
        self.ops_applied = ops_applied;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_rejects_a_corrupt_page_count() {
        // `base/meta` claims u64::MAX pages: recovery must fail, not
        // size a buffer from the count.
        let mut store = simnet::StableStore::new();
        let meta = (rsmr_core::Epoch::ZERO, u64::MAX, Vec::<u8>::new());
        store.put("base/meta", wire::to_bytes(&meta));
        let node = rsmr_core::RsmrNode::<KvStore>::recover(
            simnet::NodeId(0),
            rsmr_core::RsmrTunables::default(),
            &store,
        );
        assert!(node.is_none());
    }

    #[test]
    fn put_get_delete_cycle() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(&KvOp::Get("a".into())), KvOutput::Value(None));
        assert_eq!(kv.apply(&KvOp::Put("a".into(), vec![1])), KvOutput::Written);
        assert_eq!(
            kv.apply(&KvOp::Get("a".into())),
            KvOutput::Value(Some(vec![1]))
        );
        assert_eq!(kv.apply(&KvOp::Delete("a".into())), KvOutput::Deleted(true));
        assert_eq!(
            kv.apply(&KvOp::Delete("a".into())),
            KvOutput::Deleted(false)
        );
        assert_eq!(kv.ops_applied(), 5);
    }

    #[test]
    fn cas_semantics() {
        let mut kv = KvStore::new();
        // CAS on an absent key with expect=None creates it.
        assert_eq!(
            kv.apply(&KvOp::Cas {
                key: "x".into(),
                expect: None,
                new: vec![1]
            }),
            KvOutput::Swapped(true)
        );
        // Wrong expectation fails and leaves the value alone.
        assert_eq!(
            kv.apply(&KvOp::Cas {
                key: "x".into(),
                expect: Some(vec![9]),
                new: vec![2]
            }),
            KvOutput::Swapped(false)
        );
        assert_eq!(kv.get("x"), Some(&[1u8][..]));
        // Correct expectation swaps.
        assert_eq!(
            kv.apply(&KvOp::Cas {
                key: "x".into(),
                expect: Some(vec![1]),
                new: vec![2]
            }),
            KvOutput::Swapped(true)
        );
        assert_eq!(kv.get("x"), Some(&[2u8][..]));
    }

    #[test]
    fn append_creates_and_extends() {
        let mut kv = KvStore::new();
        kv.apply(&KvOp::Append("log".into(), vec![1, 2]));
        kv.apply(&KvOp::Append("log".into(), vec![3]));
        assert_eq!(kv.get("log"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut kv = KvStore::with_filler(10, 32);
        kv.apply(&KvOp::Put("user/1".into(), b"alice".to_vec()));
        let snap = kv.snapshot();
        let restored = KvStore::restore(&snap).unwrap();
        assert_eq!(restored, kv);
        assert_eq!(KvStore::restore(&[1, 2, 3]), None);
    }

    #[test]
    fn filler_controls_snapshot_size() {
        let small = KvStore::with_filler(10, 16).snapshot().len();
        let big = KvStore::with_filler(100, 1024).snapshot().len();
        assert!(big > 100 * 1024);
        assert!(small < 10 * 1024);
    }

    #[test]
    fn ops_and_outputs_round_trip_the_wire() {
        let ops = vec![
            KvOp::Get("k".into()),
            KvOp::Put("k".into(), vec![1, 2]),
            KvOp::Delete("k".into()),
            KvOp::Cas {
                key: "k".into(),
                expect: Some(vec![1]),
                new: vec![2],
            },
            KvOp::Append("k".into(), vec![3]),
        ];
        for op in ops {
            let bytes = wire::to_bytes(&op);
            assert_eq!(wire::from_bytes::<KvOp>(&bytes), Some(op));
        }
        let outs = vec![
            KvOutput::Value(None),
            KvOutput::Value(Some(vec![1])),
            KvOutput::Written,
            KvOutput::Deleted(true),
            KvOutput::Swapped(false),
        ];
        for out in outs {
            let bytes = wire::to_bytes(&out);
            assert_eq!(wire::from_bytes::<KvOutput>(&bytes), Some(out));
        }
    }

    fn pages_of(kv: &KvStore) -> Vec<Arc<Vec<u8>>> {
        (0..kv.snapshot_pages())
            .map(|i| Arc::new(kv.snapshot_page(i)))
            .collect()
    }

    #[test]
    fn paged_snapshot_round_trips_and_matches_monolithic() {
        let mut kv = KvStore::with_filler(500, 32);
        kv.apply(&KvOp::Put("user/1".into(), b"alice".to_vec()));
        kv.apply(&KvOp::Delete("fill/000007".into()));
        let pages = pages_of(&kv);
        assert_eq!(pages.len(), PAGES + 1);
        let restored = KvStore::restore_pages(&pages).unwrap();
        assert_eq!(restored, kv);
        // The monolithic snapshot is the same pages in one blob.
        assert_eq!(KvStore::restore(&kv.snapshot()).unwrap(), kv);
    }

    #[test]
    fn page_version_tracks_only_touched_pages() {
        let mut kv = KvStore::with_filler(100, 8);
        let before: Vec<u64> = (0..PAGES).map(|i| kv.page_version(i).unwrap()).collect();
        kv.apply(&KvOp::Put("solo".into(), vec![1]));
        let after: Vec<u64> = (0..PAGES).map(|i| kv.page_version(i).unwrap()).collect();
        let dirty = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(dirty, 1, "one Put must dirty exactly one page");
        // A Get mutates no page (but does move the meta page).
        let meta_before = kv.page_version(PAGES).unwrap();
        kv.apply(&KvOp::Get("solo".into()));
        let unchanged: Vec<u64> = (0..PAGES).map(|i| kv.page_version(i).unwrap()).collect();
        assert_eq!(after, unchanged);
        assert_ne!(kv.page_version(PAGES).unwrap(), meta_before);
    }

    /// The delta contract: restoring a stale replica and applying the
    /// delta built from newer pages yields *exactly* the newer state —
    /// same entries, same version stamps, same tombstone log.
    #[test]
    fn delta_apply_equals_full_restore() {
        let mut kv = KvStore::with_filler(400, 32);
        let stale_pages = pages_of(&kv);
        let watermark = kv.delta_watermark().unwrap();
        // Mutation window: overwrites, fresh inserts, deletes of old and
        // young keys, a delete-then-reinsert and an insert-then-delete.
        for i in 0..20 {
            kv.apply(&KvOp::Put(format!("fill/{i:06}"), vec![0xCD; 32]));
        }
        kv.apply(&KvOp::Put("young".into(), vec![1]));
        kv.apply(&KvOp::Delete("fill/000399".into()));
        kv.apply(&KvOp::Delete("fill/000100".into()));
        kv.apply(&KvOp::Put("fill/000100".into(), vec![9]));
        kv.apply(&KvOp::Put("ephemeral".into(), vec![2]));
        kv.apply(&KvOp::Delete("ephemeral".into()));
        let new_pages = pages_of(&kv);

        let delta = KvStore::delta_from_pages(&new_pages, watermark, 4096).unwrap();
        let mut rejoiner = KvStore::restore_pages(&stale_pages).unwrap();
        assert!(rejoiner.apply_delta(&delta));
        assert_eq!(rejoiner, kv);

        let full: usize = new_pages.iter().map(|p| p.len()).sum();
        let moved: usize = delta.iter().map(Vec::len).sum();
        assert!(
            moved * 5 < full,
            "5% mutation window moved {moved} of {full} bytes"
        );
    }

    #[test]
    fn delta_refused_below_tombstone_floor() {
        let mut kv = KvStore::with_filler(TOMBSTONE_CAP + 200, 8);
        // Deleting more keys than the cap pushes the floor up.
        for i in 0..TOMBSTONE_CAP + 100 {
            kv.apply(&KvOp::Delete(format!("fill/{i:06}")));
        }
        assert!(kv.tombstone_floor() > 0);
        let pages = pages_of(&kv);
        assert!(
            KvStore::delta_from_pages(&pages, kv.tombstone_floor() - 1, 4096).is_none(),
            "watermark below the floor must force a full transfer"
        );
        assert!(
            KvStore::delta_from_pages(&pages, kv.ops_applied() + 1, 4096).is_none(),
            "watermark from the future must force a full transfer"
        );
    }

    #[test]
    fn malformed_delta_leaves_state_untouched() {
        let mut kv = KvStore::with_filler(50, 8);
        let watermark = kv.delta_watermark().unwrap();
        kv.apply(&KvOp::Put("k".into(), vec![1]));
        let delta = KvStore::delta_from_pages(&pages_of(&kv), watermark, 4096).unwrap();
        let pristine = KvStore::with_filler(50, 8);
        let mut victim = pristine.clone();
        // Truncated meta chunk.
        let mut bad = delta.clone();
        let last = bad.last_mut().unwrap();
        last.truncate(last.len() / 2);
        assert!(!victim.apply_delta(&bad));
        assert_eq!(victim, pristine);
        // Garbage data chunk.
        let mut bad = delta.clone();
        bad[0] = vec![0xFF; 13];
        assert!(!victim.apply_delta(&bad));
        assert_eq!(victim, pristine);
        // Empty chunk list.
        assert!(!victim.apply_delta(&[]));
        assert_eq!(victim, pristine);
    }

    #[test]
    fn determinism_across_replicas() {
        let script = [
            KvOp::Put("a".into(), vec![1]),
            KvOp::Append("a".into(), vec![2]),
            KvOp::Cas {
                key: "a".into(),
                expect: Some(vec![1, 2]),
                new: vec![9],
            },
            KvOp::Get("a".into()),
        ];
        let run = || {
            let mut kv = KvStore::new();
            script.iter().map(|op| kv.apply(op)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
