//! Base-state snapshots and the chunked transfer protocol.
//!
//! The unit of inter-epoch state transfer is the [`BaseState`]: the
//! application snapshot (as independently encoded pages), client session
//! table and configuration chain as of an epoch's start. Rather than
//! shipping it as one monolithic blob, donors describe it with a
//! [`TransferManifest`] (chunk count, per-chunk CRC-32C, mode) and stream
//! bounded chunks that interleave with live traffic on the capped wire.
//! Joiners reassemble through a [`ChunkAssembly`], which verifies every
//! chunk against the manifest and tracks exactly which indices are still
//! missing — a donor crash mid-transfer resumes on a rotated donor with
//! only the missing chunks, because chunking is a deterministic function
//! of the base pages and every replica serves identical chunks.

use std::sync::Arc;

use simnet::wire::{self, crc32c, Wire};

use crate::chain::{ConfigChain, Epoch};
use crate::session::SessionTable;

/// Target chunk payload size. Large enough to amortize per-message
/// overhead, small enough that a chunk never monopolizes the egress cap
/// (and sits far below the TCP backend's 64 MiB frame bound).
pub const CHUNK_TARGET: usize = 64 * 1024;

/// Everything a replica needs to start executing epoch `epoch` from its
/// log's slot 0: the application state and client sessions as of the
/// *previous* epoch's close, plus the configuration chain.
///
/// Captured by every member at the instant it finalizes an epoch (before
/// applying any successor command), served to joining members chunk by
/// chunk, and persisted page by page for crash recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct BaseState<R> {
    /// The epoch this base state anchors (its log applies on top).
    pub epoch: Epoch,
    /// Application snapshot pages at the predecessor's close
    /// ([`crate::StateMachine::snapshot_page`] order). Shared so serving
    /// a chunk never copies page bytes.
    pub pages: Vec<Arc<Vec<u8>>>,
    /// Client session table at the predecessor's close.
    pub sessions: SessionTable<R>,
    /// The configuration chain through `epoch`.
    pub chain: ConfigChain,
}

impl<R: Wire + Clone> BaseState<R> {
    /// Serializes the base state for a monolithic transfer (the
    /// stop-the-world control path).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.epoch.encode(&mut buf);
        self.pages.encode(&mut buf);
        self.sessions.encode(&mut buf);
        self.chain.encode(&mut buf);
        buf
    }

    /// Deserializes a base state; `None` on malformed input.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let mut buf = bytes;
        let epoch = Epoch::decode(&mut buf)?;
        let pages = Vec::<Arc<Vec<u8>>>::decode(&mut buf)?;
        let sessions = SessionTable::<R>::decode(&mut buf)?;
        let chain = ConfigChain::decode(&mut buf)?;
        if !buf.is_empty() {
            return None;
        }
        // The chain must actually cover the anchored epoch.
        chain.config(epoch)?;
        Some(BaseState {
            epoch,
            pages,
            sessions,
            chain,
        })
    }

    /// Size of the encoded base state, dominating state-transfer cost.
    /// Pure arithmetic over the already-encoded pages and the component
    /// sizes — no allocation, no re-encoding.
    pub fn byte_size(&self) -> usize {
        self.epoch.encoded_size()
            + 8
            + self.pages.iter().map(|p| 8 + p.len()).sum::<usize>()
            + self.sessions.encoded_size()
            + self.chain.encoded_size()
    }

    /// The manifest header: sessions and chain, encoded. Small next to
    /// the pages, so it rides inside the manifest message itself rather
    /// than a chunk.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.sessions.encode(&mut buf);
        self.chain.encode(&mut buf);
        buf
    }

    /// Rebuilds a base state from a manifest header plus reassembled
    /// pages. `None` on malformed input or a chain not covering `epoch`.
    pub fn from_parts(epoch: Epoch, pages: Vec<Arc<Vec<u8>>>, header: &[u8]) -> Option<Self> {
        let mut buf = header;
        let sessions = SessionTable::<R>::decode(&mut buf)?;
        let chain = ConfigChain::decode(&mut buf)?;
        if !buf.is_empty() {
            return None;
        }
        chain.config(epoch)?;
        Some(BaseState {
            epoch,
            pages,
            sessions,
            chain,
        })
    }
}

/// How the chunks of a transfer are to be interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferMode {
    /// Chunks carry `(page index, page bytes)` pairs covering all
    /// `pages` snapshot pages; reassembly feeds
    /// [`crate::StateMachine::restore_pages`].
    Full {
        /// Total number of snapshot pages the chunks cover.
        pages: u64,
    },
    /// Chunks are opaque delta payloads produced by
    /// [`crate::StateMachine::delta_from_pages`] against the rejoiner's
    /// advertised watermark `since`; reassembly feeds
    /// [`crate::StateMachine::apply_delta`].
    Delta {
        /// The rejoiner watermark the delta was computed against.
        since: u64,
    },
}

/// Integrity metadata for one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Exact payload length in bytes.
    pub len: u64,
    /// CRC-32C of the payload.
    pub crc: u32,
}

/// The donor's description of a transfer: what the chunks mean, their
/// integrity metadata, and the (small) session/chain header. Deterministic
/// for a given base state, so any donor's manifest validates any other
/// donor's chunks — the basis of mid-transfer donor rotation.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferManifest {
    /// The epoch whose base state is being transferred.
    pub epoch: Epoch,
    /// Full snapshot or rejoiner delta.
    pub mode: TransferMode,
    /// Encoded sessions + chain (see [`BaseState::header_bytes`]).
    pub header: Vec<u8>,
    /// Per-chunk length and checksum, in fetch order.
    pub chunks: Vec<ChunkMeta>,
}

impl TransferManifest {
    /// Total payload bytes across all chunks.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len).sum()
    }
}

impl Wire for TransferMode {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TransferMode::Full { pages } => {
                buf.push(0);
                pages.encode(buf);
            }
            TransferMode::Delta { since } => {
                buf.push(1);
                since.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(TransferMode::Full {
                pages: u64::decode(buf)?,
            }),
            1 => Some(TransferMode::Delta {
                since: u64::decode(buf)?,
            }),
            _ => None,
        }
    }
    fn encoded_size(&self) -> usize {
        9
    }
}

impl Wire for ChunkMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len.encode(buf);
        self.crc.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(ChunkMeta {
            len: u64::decode(buf)?,
            crc: u32::decode(buf)?,
        })
    }
    fn encoded_size(&self) -> usize {
        12
    }
}

impl Wire for TransferManifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.mode.encode(buf);
        self.header.encode(buf);
        self.chunks.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(TransferManifest {
            epoch: Epoch::decode(buf)?,
            mode: TransferMode::decode(buf)?,
            header: Vec::decode(buf)?,
            chunks: Vec::decode(buf)?,
        })
    }
    fn encoded_size(&self) -> usize {
        self.epoch.encoded_size()
            + self.mode.encoded_size()
            + 8
            + self.header.len()
            + 8
            + 12 * self.chunks.len()
    }
}

/// A donor-side transfer: the manifest plus the chunk payloads it
/// describes. Built once per `(epoch, mode)` and cached; chunk payloads
/// are `Arc`-shared so serving a retry never re-encodes.
#[derive(Clone, Debug)]
pub struct TransferPlan {
    /// The manifest advertised to the joiner.
    pub manifest: TransferManifest,
    /// Chunk payloads, index-aligned with `manifest.chunks`.
    pub chunks: Vec<Arc<Vec<u8>>>,
}

fn chunk_metas(chunks: &[Arc<Vec<u8>>]) -> Vec<ChunkMeta> {
    chunks
        .iter()
        .map(|c| ChunkMeta {
            len: c.len() as u64,
            crc: crc32c::checksum(c),
        })
        .collect()
}

impl TransferPlan {
    /// Plans a full transfer: pages are greedily packed into chunks of
    /// roughly `target` bytes, each chunk a self-describing list of
    /// `(page index, page bytes)` pairs so reordered or rotated delivery
    /// still reassembles.
    pub fn full<R: Wire + Clone>(base: &BaseState<R>, target: usize) -> Self {
        let mut chunks = Vec::new();
        let mut cur: Vec<(u64, Arc<Vec<u8>>)> = Vec::new();
        let mut cur_bytes = 0usize;
        for (i, page) in base.pages.iter().enumerate() {
            cur_bytes += page.len() + 16;
            cur.push((i as u64, Arc::clone(page)));
            if cur_bytes >= target {
                chunks.push(Arc::new(wire::to_bytes(&std::mem::take(&mut cur))));
                cur_bytes = 0;
            }
        }
        if !cur.is_empty() {
            chunks.push(Arc::new(wire::to_bytes(&cur)));
        }
        TransferPlan {
            manifest: TransferManifest {
                epoch: base.epoch,
                mode: TransferMode::Full {
                    pages: base.pages.len() as u64,
                },
                header: base.header_bytes(),
                chunks: chunk_metas(&chunks),
            },
            chunks,
        }
    }

    /// Plans a delta transfer from chunks already produced by
    /// [`crate::StateMachine::delta_from_pages`] against watermark
    /// `since`.
    pub fn delta<R: Wire + Clone>(
        base: &BaseState<R>,
        delta_chunks: Vec<Vec<u8>>,
        since: u64,
    ) -> Self {
        let chunks: Vec<Arc<Vec<u8>>> = delta_chunks.into_iter().map(Arc::new).collect();
        TransferPlan {
            manifest: TransferManifest {
                epoch: base.epoch,
                mode: TransferMode::Delta { since },
                header: base.header_bytes(),
                chunks: chunk_metas(&chunks),
            },
            chunks,
        }
    }
}

/// Reassembles full-mode chunks into the page vector. Every page index in
/// `0..page_count` must appear exactly once across the chunks; duplicates,
/// gaps, out-of-range indices or malformed payloads yield `None`.
pub fn assemble_full_pages(
    chunks: &[Arc<Vec<u8>>],
    page_count: usize,
) -> Option<Vec<Arc<Vec<u8>>>> {
    let mut pages: Vec<Option<Arc<Vec<u8>>>> = vec![None; page_count];
    for chunk in chunks {
        for (idx, page) in wire::from_bytes::<Vec<(u64, Arc<Vec<u8>>)>>(chunk)? {
            let slot = pages.get_mut(usize::try_from(idx).ok()?)?;
            if slot.is_some() {
                return None; // duplicate page
            }
            *slot = Some(page);
        }
    }
    pages.into_iter().collect()
}

/// What [`ChunkAssembly::accept`] decided about a delivered chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// Verified against the manifest and stored.
    Stored,
    /// Already held (duplicate delivery); ignored.
    Duplicate,
    /// Index beyond the manifest; ignored.
    OutOfRange,
    /// Length or checksum mismatch: the chunk is discarded and must be
    /// re-fetched. Never applied.
    Corrupt,
}

/// Joiner-side reassembly state: which chunks of a manifest have arrived
/// and verified. Survives donor rotation — a new donor serving the same
/// deterministic manifest fills in only what is missing.
#[derive(Clone, Debug)]
pub struct ChunkAssembly {
    manifest: TransferManifest,
    received: Vec<Option<Arc<Vec<u8>>>>,
    stored: usize,
}

impl ChunkAssembly {
    /// Starts an empty assembly for `manifest`.
    pub fn new(manifest: TransferManifest) -> Self {
        let received = vec![None; manifest.chunks.len()];
        ChunkAssembly {
            manifest,
            received,
            stored: 0,
        }
    }

    /// The manifest being assembled.
    pub fn manifest(&self) -> &TransferManifest {
        &self.manifest
    }

    /// Indices not yet received, in fetch order.
    pub fn missing(&self) -> Vec<usize> {
        self.received
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i))
            .collect()
    }

    /// Chunks received and verified so far.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// True when every chunk has arrived and verified.
    pub fn is_complete(&self) -> bool {
        self.stored == self.received.len()
    }

    /// Verifies `bytes` against the manifest entry for `index` and stores
    /// it. Corrupt chunks are rejected — a checksum mismatch can never
    /// reach the state machine.
    pub fn accept(&mut self, index: usize, bytes: Arc<Vec<u8>>) -> ChunkOutcome {
        let Some(meta) = self.manifest.chunks.get(index) else {
            return ChunkOutcome::OutOfRange;
        };
        if self.received[index].is_some() {
            return ChunkOutcome::Duplicate;
        }
        if bytes.len() as u64 != meta.len || crc32c::checksum(&bytes) != meta.crc {
            return ChunkOutcome::Corrupt;
        }
        self.received[index] = Some(bytes);
        self.stored += 1;
        ChunkOutcome::Stored
    }

    /// The verified chunk payloads in manifest order. Panics if called
    /// before [`ChunkAssembly::is_complete`].
    pub fn into_chunks(self) -> Vec<Arc<Vec<u8>>> {
        self.received
            .into_iter()
            .map(|c| c.expect("assembly incomplete"))
            .collect()
    }
}

/// Convenience re-export for callers who need raw wire helpers.
pub use wire::{from_bytes, to_bytes};

#[cfg(test)]
mod tests {
    use super::*;
    use consensus::StaticConfig;
    use simnet::NodeId;

    fn sample() -> BaseState<u64> {
        let mut chain = ConfigChain::genesis(StaticConfig::new(vec![NodeId(1), NodeId(2)]));
        chain.append(Epoch(1), StaticConfig::new(vec![NodeId(2), NodeId(3)]));
        let mut sessions = SessionTable::new();
        sessions.record(NodeId(100), 4, 44);
        BaseState {
            epoch: Epoch(1),
            pages: vec![Arc::new(vec![1, 2, 3, 4, 5])],
            sessions,
            chain,
        }
    }

    fn multi_page() -> BaseState<u64> {
        let mut base = sample();
        base.pages = (0..16u8)
            .map(|i| Arc::new(vec![i; 100 + usize::from(i) * 37]))
            .collect();
        base
    }

    #[test]
    fn encode_decode_round_trip() {
        let b = sample();
        let bytes = b.encode_bytes();
        assert_eq!(BaseState::<u64>::decode_bytes(&bytes), Some(b));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                BaseState::<u64>::decode_bytes(&bytes[..cut]),
                None,
                "accepted truncated input at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode_bytes();
        bytes.push(0);
        assert_eq!(BaseState::<u64>::decode_bytes(&bytes), None);
    }

    #[test]
    fn chain_must_cover_the_epoch() {
        let mut b = sample();
        b.epoch = Epoch(9); // chain only covers e0..e1
        let bytes = b.encode_bytes();
        assert_eq!(BaseState::<u64>::decode_bytes(&bytes), None);
    }

    #[test]
    fn byte_size_is_exact_without_encoding() {
        for b in [sample(), multi_page()] {
            assert_eq!(b.byte_size(), b.encode_bytes().len());
        }
        let mut b = sample();
        b.pages.push(Arc::new(vec![0; 10_000]));
        assert_eq!(b.byte_size(), b.encode_bytes().len());
    }

    #[test]
    fn header_and_parts_round_trip() {
        let b = multi_page();
        let header = b.header_bytes();
        let rebuilt = BaseState::<u64>::from_parts(b.epoch, b.pages.clone(), &header).unwrap();
        assert_eq!(rebuilt, b);
        // A header whose chain misses the epoch is rejected.
        assert_eq!(
            BaseState::<u64>::from_parts(Epoch(7), b.pages.clone(), &header),
            None
        );
        // Trailing bytes are rejected.
        let mut long = header.clone();
        long.push(0);
        assert_eq!(
            BaseState::<u64>::from_parts(b.epoch, b.pages.clone(), &long),
            None
        );
    }

    #[test]
    fn full_plan_round_trips_through_assembly() {
        let b = multi_page();
        let plan = TransferPlan::full(&b, 400);
        assert!(plan.chunks.len() > 2, "target must split into chunks");
        assert_eq!(plan.manifest.chunks.len(), plan.chunks.len());
        let mut asm = ChunkAssembly::new(plan.manifest.clone());
        // Deliver out of order: reassembly is order-independent.
        for i in (0..plan.chunks.len()).rev() {
            assert_eq!(
                asm.accept(i, Arc::clone(&plan.chunks[i])),
                ChunkOutcome::Stored
            );
        }
        assert!(asm.is_complete());
        let TransferMode::Full { pages } = plan.manifest.mode else {
            panic!("full plan must carry Full mode");
        };
        let reassembled = assemble_full_pages(&asm.into_chunks(), pages as usize).unwrap();
        let rebuilt =
            BaseState::<u64>::from_parts(plan.manifest.epoch, reassembled, &plan.manifest.header)
                .unwrap();
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn plans_are_deterministic_across_donors() {
        let b = multi_page();
        let a = TransferPlan::full(&b, 400);
        let c = TransferPlan::full(&b.clone(), 400);
        assert_eq!(a.manifest, c.manifest);
        assert_eq!(a.chunks, c.chunks);
    }

    #[test]
    fn assembly_rejects_corrupt_duplicate_and_out_of_range() {
        let b = multi_page();
        let plan = TransferPlan::full(&b, 400);
        let mut asm = ChunkAssembly::new(plan.manifest.clone());
        // Bit-flipped payload: rejected, stays missing.
        let mut bad = (*plan.chunks[0]).clone();
        bad[0] ^= 0x01;
        assert_eq!(asm.accept(0, Arc::new(bad)), ChunkOutcome::Corrupt);
        assert!(asm.missing().contains(&0));
        // Truncated payload: rejected by the length check.
        let short = plan.chunks[0][..plan.chunks[0].len() - 1].to_vec();
        assert_eq!(asm.accept(0, Arc::new(short)), ChunkOutcome::Corrupt);
        // The genuine chunk still lands.
        assert_eq!(
            asm.accept(0, Arc::clone(&plan.chunks[0])),
            ChunkOutcome::Stored
        );
        assert_eq!(
            asm.accept(0, Arc::clone(&plan.chunks[0])),
            ChunkOutcome::Duplicate
        );
        assert_eq!(
            asm.accept(99, Arc::clone(&plan.chunks[0])),
            ChunkOutcome::OutOfRange
        );
    }

    #[test]
    fn reordered_or_duplicated_pages_inside_chunks_are_rejected() {
        let b = multi_page();
        let plan = TransferPlan::full(&b, usize::MAX); // one chunk
        let TransferMode::Full { pages } = plan.manifest.mode else {
            unreachable!()
        };
        // A chunk that lists the same page twice must not assemble.
        let dup: Vec<(u64, Arc<Vec<u8>>)> =
            vec![(0, Arc::clone(&b.pages[0])), (0, Arc::clone(&b.pages[0]))];
        assert_eq!(
            assemble_full_pages(&[Arc::new(wire::to_bytes(&dup))], pages as usize),
            None
        );
        // An out-of-range page index must not assemble.
        let oob: Vec<(u64, Arc<Vec<u8>>)> = vec![(pages, Arc::clone(&b.pages[0]))];
        assert_eq!(
            assemble_full_pages(&[Arc::new(wire::to_bytes(&oob))], pages as usize),
            None
        );
        // Missing pages must not assemble.
        assert_eq!(assemble_full_pages(&[], pages as usize), None);
    }

    /// A randomized base state with varying chain length, session count and
    /// page layout — the corpus the fuzzers mangle.
    fn random_base(rng: &mut simnet::SimRng) -> BaseState<u64> {
        let mut chain = ConfigChain::genesis(StaticConfig::new(vec![NodeId(0), NodeId(1)]));
        let epochs = rng.gen_range(0u64..4);
        for e in 1..=epochs {
            let members: Vec<NodeId> = (0..rng.gen_range(1u64..5)).map(NodeId).collect();
            chain.append(Epoch(e), StaticConfig::new(members));
        }
        let mut sessions = SessionTable::new();
        for i in 0..rng.gen_range(0u64..6) {
            // One record per client: the table asserts per-client sequence
            // monotonicity.
            sessions.record(
                NodeId(100 + i),
                rng.gen_range(0u64..50),
                rng.gen_range(0u64..1000),
            );
        }
        BaseState {
            epoch: Epoch(rng.gen_range(0u64..=epochs)),
            pages: (0..rng.gen_range(0usize..5))
                .map(|_| {
                    Arc::new(
                        (0..rng.gen_range(0usize..48))
                            .map(|_| rng.gen_range(0u64..256) as u8)
                            .collect::<Vec<u8>>(),
                    )
                })
                .collect(),
            sessions,
            chain,
        }
    }

    fn random_manifest(rng: &mut simnet::SimRng) -> TransferManifest {
        let base = random_base(rng);
        let plan = if rng.gen_bool(0.5) {
            TransferPlan::full(&base, rng.gen_range(1usize..256))
        } else {
            let chunks = (0..rng.gen_range(0usize..4))
                .map(|_| {
                    (0..rng.gen_range(0usize..32))
                        .map(|_| rng.gen_range(0u64..256) as u8)
                        .collect::<Vec<u8>>()
                })
                .collect();
            TransferPlan::delta(&base, chunks, rng.gen_range(0u64..1000))
        };
        plan.manifest
    }

    /// Seeded fuzz: every strict prefix of a valid encoding is rejected —
    /// and never panics.
    #[test]
    fn fuzz_truncations_are_rejected() {
        let mut rng = simnet::SimRng::seed_from_u64(0xBA5E1);
        for _ in 0..100 {
            let bytes = random_base(&mut rng).encode_bytes();
            for cut in 0..bytes.len() {
                assert_eq!(BaseState::<u64>::decode_bytes(&bytes[..cut]), None);
            }
        }
    }

    /// Seeded fuzz: single-bit corruption either still yields a structurally
    /// valid base state or a clean `None` — never a panic or runaway
    /// allocation.
    #[test]
    fn fuzz_bit_flips_never_panic() {
        let mut rng = simnet::SimRng::seed_from_u64(0xBA5E2);
        for _ in 0..200 {
            let mut bytes = random_base(&mut rng).encode_bytes();
            let byte = rng.gen_range(0..bytes.len());
            bytes[byte] ^= 1 << rng.gen_range(0u32..8);
            let _ = BaseState::<u64>::decode_bytes(&bytes);
        }
    }

    /// Seeded fuzz: trailing garbage always fails the full-consumption
    /// check, whatever the corpus shape.
    #[test]
    fn fuzz_trailing_garbage_is_always_rejected() {
        let mut rng = simnet::SimRng::seed_from_u64(0xBA5E3);
        for _ in 0..100 {
            let mut bytes = random_base(&mut rng).encode_bytes();
            for _ in 0..rng.gen_range(1usize..9) {
                bytes.push(rng.gen_range(0u64..256) as u8);
            }
            assert_eq!(BaseState::<u64>::decode_bytes(&bytes), None);
        }
    }

    /// Seeded fuzz: arbitrary byte soup never panics the decoder.
    #[test]
    fn fuzz_random_bytes_never_panic() {
        let mut rng = simnet::SimRng::seed_from_u64(0xBA5E4);
        for _ in 0..500 {
            let bytes: Vec<u8> = (0..rng.gen_range(0usize..128))
                .map(|_| rng.gen_range(0u64..256) as u8)
                .collect();
            let _ = BaseState::<u64>::decode_bytes(&bytes);
        }
    }

    /// Seeded fuzz (manifest codec): truncations of a valid manifest
    /// encoding never decode and never panic.
    #[test]
    fn fuzz_manifest_truncations_are_rejected() {
        let mut rng = simnet::SimRng::seed_from_u64(0xC4F001);
        for _ in 0..100 {
            let bytes = wire::to_bytes(&random_manifest(&mut rng));
            for cut in 0..bytes.len() {
                assert_eq!(wire::from_bytes::<TransferManifest>(&bytes[..cut]), None);
            }
        }
    }

    /// Seeded fuzz (manifest codec): single-bit flips decode cleanly or
    /// not at all; `encoded_size` stays exact on everything that decodes.
    #[test]
    fn fuzz_manifest_bit_flips_never_panic() {
        let mut rng = simnet::SimRng::seed_from_u64(0xC4F002);
        for _ in 0..200 {
            let m = random_manifest(&mut rng);
            let mut bytes = wire::to_bytes(&m);
            assert_eq!(m.encoded_size(), bytes.len());
            let byte = rng.gen_range(0..bytes.len());
            bytes[byte] ^= 1 << rng.gen_range(0u32..8);
            if let Some(decoded) = wire::from_bytes::<TransferManifest>(&bytes) {
                assert_eq!(decoded.encoded_size(), bytes.len());
            }
        }
    }

    /// Seeded fuzz (manifest codec): trailing garbage is always rejected.
    #[test]
    fn fuzz_manifest_trailing_garbage_is_rejected() {
        let mut rng = simnet::SimRng::seed_from_u64(0xC4F003);
        for _ in 0..100 {
            let mut bytes = wire::to_bytes(&random_manifest(&mut rng));
            for _ in 0..rng.gen_range(1usize..9) {
                bytes.push(rng.gen_range(0u64..256) as u8);
            }
            assert_eq!(wire::from_bytes::<TransferManifest>(&bytes), None);
        }
    }

    /// Seeded fuzz (manifest codec): random byte soup never panics.
    #[test]
    fn fuzz_manifest_random_bytes_never_panic() {
        let mut rng = simnet::SimRng::seed_from_u64(0xC4F004);
        for _ in 0..500 {
            let bytes: Vec<u8> = (0..rng.gen_range(0usize..160))
                .map(|_| rng.gen_range(0u64..256) as u8)
                .collect();
            let _ = wire::from_bytes::<TransferManifest>(&bytes);
        }
    }

    /// Seeded fuzz (chunk payloads): mangled full-mode chunks either fail
    /// the manifest checksum (the normal path) or — if forced past it —
    /// fail reassembly cleanly. Never a panic, never a silent apply.
    #[test]
    fn fuzz_mangled_chunks_never_assemble_silently() {
        let mut rng = simnet::SimRng::seed_from_u64(0xC4F005);
        for _ in 0..200 {
            let base = random_base(&mut rng);
            let plan = TransferPlan::full(&base, rng.gen_range(1usize..128));
            if plan.chunks.is_empty() {
                continue;
            }
            let victim = rng.gen_range(0..plan.chunks.len());
            let mut mangled = (*plan.chunks[victim]).clone();
            if mangled.is_empty() {
                continue;
            }
            let byte = rng.gen_range(0..mangled.len());
            mangled[byte] ^= 1 << rng.gen_range(0u32..8);
            let mut asm = ChunkAssembly::new(plan.manifest.clone());
            assert_eq!(
                asm.accept(victim, Arc::new(mangled.clone())),
                ChunkOutcome::Corrupt,
                "checksum must catch a bit flip"
            );
            // Even bypassing the checksum, reassembly validates structure:
            // it may fail (None) but must not panic, and a success must
            // reproduce a permutation-complete page set (the CRC pass is
            // what guarantees exactness; this guards the decoder).
            let mut chunks = plan.chunks.clone();
            chunks[victim] = Arc::new(mangled);
            let TransferMode::Full { pages } = plan.manifest.mode else {
                unreachable!()
            };
            let _ = assemble_full_pages(&chunks, pages as usize);
        }
    }
}
