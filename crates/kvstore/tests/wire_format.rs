//! Pins the byte format of what replicas put on the wire and on disk.
//!
//! Each case encodes a fixed, seeded input and checks the length and the
//! CRC-32C of the bytes against constants recorded before the codec's
//! bulk byte path existed. The golden simulation digests cannot catch a
//! format change (the simulator moves typed messages and never encodes),
//! so this is what holds WAL files, transfer chunks and TCP frames to the
//! format older replicas wrote.

use std::sync::Arc;

use consensus::StaticConfig;
use consensus::{Ballot, PaxosMsg, Slot};
use kvstore::kv::PAGES;
use kvstore::{KvOp, KvOutput, KvStore};
use rsmr_core::{
    BaseState, BatchEntry, Cmd, ConfigChain, Epoch, RsmrMsg, SessionTable, StateMachine,
};
use simnet::wire::{self, crc32c};
use simnet::{NodeId, SimRng};

type Msg = RsmrMsg<KvOp, KvOutput>;

/// `(length, CRC-32C)` of an encoding.
fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32c::checksum(bytes))
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A small store: 600 puts of 0–200 byte values (about two keys per
/// page), every eighth key deleted again (so the meta page carries
/// tombstones), then 4 appends.
fn small_store() -> KvStore {
    let mut rng = SimRng::seed_from_u64(0x51DE);
    let mut kv = KvStore::new();
    for i in 0..600 {
        let len = rng.gen_range(0..200usize);
        kv.apply(&KvOp::Put(
            format!("key/{i:03}"),
            random_bytes(&mut rng, len),
        ));
    }
    for i in (0..600).step_by(8) {
        kv.apply(&KvOp::Delete(format!("key/{i:03}")));
    }
    for i in 1..5 {
        kv.apply(&KvOp::Append(
            format!("key/{i:03}"),
            random_bytes(&mut rng, 17),
        ));
    }
    kv
}

fn sessions() -> SessionTable<KvOutput> {
    let mut rng = SimRng::seed_from_u64(0x5E55);
    let mut table = SessionTable::new();
    table.record(NodeId(100), 7, KvOutput::Written);
    table.record(NodeId(101), 3, KvOutput::Value(None));
    table.record(
        NodeId(102),
        9,
        KvOutput::Value(Some(random_bytes(&mut rng, 64))),
    );
    table.record(NodeId(103), 1, KvOutput::Deleted(true));
    table.record(NodeId(104), 2, KvOutput::Swapped(false));
    table
}

fn request_1k_put() -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(0x1024);
    let msg: Msg = RsmrMsg::Request {
        seq: 42,
        op: KvOp::Put("key/1k".into(), random_bytes(&mut rng, 1024)),
    };
    wire::to_bytes(&msg)
}

fn accept_of_a_batch() -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(0xBA7C);
    let mut entries: Vec<BatchEntry<KvOp>> = (0..6)
        .map(|i| BatchEntry::App {
            client: NodeId(100 + i),
            seq: 1000 + i,
            op: match i % 3 {
                0 => KvOp::Get(format!("key/{i}")),
                1 => KvOp::Put(format!("key/{i}"), random_bytes(&mut rng, 64)),
                _ => KvOp::Cas {
                    key: format!("key/{i}"),
                    expect: Some(random_bytes(&mut rng, 8)),
                    new: random_bytes(&mut rng, 32),
                },
            },
        })
        .collect();
    entries.push(BatchEntry::Reconfigure {
        members: vec![NodeId(1), NodeId(2), NodeId(3)],
    });
    let msg: Msg = RsmrMsg::Paxos {
        epoch: Epoch(5),
        inner: PaxosMsg::Accept {
            ballot: Ballot {
                round: 12,
                node: NodeId(2),
            },
            slot: Slot(77_001),
            cmd: Arc::new(Cmd::Batch { entries }),
        },
    };
    wire::to_bytes(&msg)
}

fn chunk_reply() -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(0xC4C4);
    let msg: Msg = RsmrMsg::ChunkReply {
        epoch: Epoch(3),
        index: 11,
        bytes: Some(Arc::new(random_bytes(&mut rng, 4096))),
    };
    wire::to_bytes(&msg)
}

/// The largest data page of [`small_store`], with its index.
fn data_page(kv: &KvStore) -> (usize, Vec<u8>) {
    (0..PAGES)
        .map(|i| (i, kv.snapshot_page(i)))
        .max_by_key(|(_, page)| page.len())
        .expect("the store has pages")
}

fn base_state(kv: &KvStore) -> Vec<u8> {
    let mut chain = ConfigChain::genesis(StaticConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)]));
    chain.append(
        Epoch(1),
        StaticConfig::new(vec![NodeId(1), NodeId(2), NodeId(3)]),
    );
    let base = BaseState {
        epoch: Epoch(1),
        pages: (0..kv.snapshot_pages())
            .map(|i| Arc::new(kv.snapshot_page(i)))
            .collect(),
        sessions: sessions(),
        chain,
    };
    base.encode_bytes()
}

#[test]
fn encodings_match_the_recorded_format() {
    let kv = small_store();
    let (page_index, page) = data_page(&kv);
    let all_data = {
        let mut crc = 0;
        let mut len = 0;
        for i in 0..PAGES {
            let page = kv.snapshot_page(i);
            crc = crc32c::extend(crc, &page);
            len += page.len();
        }
        (len, crc)
    };
    let actual = [
        ("request carrying a 1 KiB put", pin(&request_1k_put())),
        ("accept of a batch", pin(&accept_of_a_batch())),
        ("chunk reply", pin(&chunk_reply())),
        ("data page", pin(&page)),
        ("every data page, concatenated", all_data),
        ("meta page", pin(&kv.snapshot_page(PAGES))),
        ("session table", pin(&wire::to_bytes(&sessions()))),
        ("base state", pin(&base_state(&kv))),
    ];
    // Recorded from the encoder that walked byte vectors one `u8` at a
    // time and cloned a page before encoding it.
    let expected: [(&str, (usize, u32)); 8] = [
        ("request carrying a 1 KiB put", (1056, 0xF2E3_20F6)),
        ("accept of a batch", (520, 0x74F0_CB38)),
        ("chunk reply", (4122, 0x03E1_E978)),
        ("data page", (706, 0xBC7E_E15E)),
        ("every data page, concatenated", (72_546, 0xAF51_C82F)),
        ("meta page", (1749, 0x0806_A998)),
        ("session table", (169, 0x0ADB_7A9C)),
        ("base state", (76_624, 0x66E3_0534)),
    ];
    assert_eq!(page_index, 36, "the largest data page moved");
    assert_eq!(actual, expected, "\nactual: {actual:#x?}");
}

#[test]
fn pinned_encodings_decode_back() {
    let kv = small_store();
    let restored = KvStore::restore_pages(
        &(0..kv.snapshot_pages())
            .map(|i| Arc::new(kv.snapshot_page(i)))
            .collect::<Vec<_>>(),
    )
    .expect("pages restore");
    assert_eq!(restored, kv);
    let base = BaseState::<KvOutput>::decode_bytes(&base_state(&kv)).expect("base decodes");
    assert_eq!(base.sessions, sessions());
    for bytes in [request_1k_put(), accept_of_a_batch(), chunk_reply()] {
        let msg = wire::from_bytes::<Msg>(&bytes).expect("message decodes");
        assert_eq!(wire::to_bytes(&msg), bytes);
    }
}
