//! Wire messages of the composed reconfigurable machine.

use consensus::PaxosMsg;
use simnet::wire::Wire;
use simnet::{Message, NodeId};

use crate::chain::Epoch;
use crate::command::Cmd;
use crate::transfer::TransferManifest;

/// Messages of a reconfigurable-SMR world.
///
/// `O` is the application operation type, `R` the output type. Replica ↔
/// replica protocol traffic is the building block's own [`PaxosMsg`],
/// tagged with the epoch whose instance it belongs to — the composition
/// layer is a pure router for it.
#[derive(Clone, Debug)]
pub enum RsmrMsg<O, R> {
    /// Building-block traffic for one epoch's instance.
    Paxos {
        /// The instance this message belongs to.
        epoch: Epoch,
        /// The building block's own message.
        inner: PaxosMsg<Cmd<O>>,
    },
    /// Client → replica: execute `op` under the client's session.
    Request {
        /// Per-client session sequence number.
        seq: u64,
        /// The application operation.
        op: O,
    },
    /// Replica → client: `op` executed with this output.
    Reply {
        /// Echo of the request sequence number.
        seq: u64,
        /// The operation's output.
        output: R,
        /// The current configuration's members, so clients track
        /// reconfigurations.
        members: Vec<NodeId>,
    },
    /// Replica → client: submit to `leader` instead.
    Redirect {
        /// Echo of the request sequence number.
        seq: u64,
        /// Best-known leader, if any.
        leader: Option<NodeId>,
        /// Current configuration members.
        members: Vec<NodeId>,
    },
    /// Admin → replica: reconfigure to exactly this member set.
    Reconfigure {
        /// The successor configuration's members.
        members: Vec<NodeId>,
    },
    /// Replica → admin: outcome of a reconfiguration request.
    ReconfigureReply {
        /// On success, the new epoch now serving; on refusal, the epoch
        /// that refused.
        epoch: Epoch,
        /// True once the new configuration is live.
        ok: bool,
        /// On refusal, where to retry.
        leader: Option<NodeId>,
    },
    /// Finalized member of epoch `epoch - 1` → member of `epoch`: the
    /// successor configuration exists; the sender can serve its base state.
    Activate {
        /// The successor epoch.
        epoch: Epoch,
        /// Its member set.
        members: Vec<NodeId>,
    },
    /// Stop-the-world baseline: a whole base state pushed in one message.
    /// The composed replica ignores it; it takes bases only through the
    /// chunked [`RsmrMsg::ManifestRequest`] protocol.
    TransferReply {
        /// The epoch the base anchors.
        epoch: Epoch,
        /// The encoded [`crate::BaseState`], if available.
        base: Option<Vec<u8>>,
    },
    /// Stop-the-world baseline: acknowledges a pushed base state, which
    /// the pusher blocks on. Unused by the composed replica.
    TransferAck {
        /// The epoch whose base was installed.
        epoch: Epoch,
    },
    /// A leader that is *removed* by the epoch it just closed asks a
    /// member of the successor configuration to campaign immediately —
    /// extends the speculative handoff to leader-removal reconfigurations.
    Nominate {
        /// The successor epoch to campaign in.
        epoch: Epoch,
    },
    /// Joining member → finalized member: describe the base state
    /// anchoring `epoch`. A rejoiner with usable local state advertises
    /// its delta watermark in `since`; fresh joiners send `None`.
    ManifestRequest {
        /// The epoch whose base is requested.
        epoch: Epoch,
        /// The rejoiner's delta watermark, if it holds restorable state.
        since: Option<u64>,
    },
    /// Response to [`RsmrMsg::ManifestRequest`]. `manifest` is `None`
    /// when the responder has not finalized the predecessor epoch yet
    /// (retry later). A `since` the donor cannot serve (tombstones
    /// pruned past it) degrades to a `Full` manifest.
    ManifestReply {
        /// Echo of the requested epoch.
        epoch: Epoch,
        /// The transfer manifest, if the donor holds the base.
        manifest: Option<TransferManifest>,
    },
    /// Joining member → donor: send chunk `index` of the manifest for
    /// `epoch`.
    ChunkRequest {
        /// The epoch being transferred.
        epoch: Epoch,
        /// Zero-based chunk index within the manifest.
        index: u64,
    },
    /// Response to [`RsmrMsg::ChunkRequest`]. `bytes` is `None` when the
    /// donor no longer holds the base for `epoch` (the joiner rotates
    /// donors and re-requests the manifest).
    ChunkReply {
        /// The epoch being transferred.
        epoch: Epoch,
        /// Echo of the requested chunk index.
        index: u64,
        /// The chunk payload, shared so retries never copy.
        bytes: Option<std::sync::Arc<Vec<u8>>>,
    },
}

impl<O, R> Message for RsmrMsg<O, R>
where
    O: Wire + Clone + std::fmt::Debug + 'static,
    R: Clone + std::fmt::Debug + 'static,
{
    fn label(&self) -> &'static str {
        match self {
            RsmrMsg::Paxos { inner, .. } => inner.label(),
            RsmrMsg::Request { .. } => "rsmr.request",
            RsmrMsg::Reply { .. } => "rsmr.reply",
            RsmrMsg::Redirect { .. } => "rsmr.redirect",
            RsmrMsg::Reconfigure { .. } => "rsmr.reconfigure",
            RsmrMsg::ReconfigureReply { .. } => "rsmr.reconfigure_reply",
            RsmrMsg::Activate { .. } => "rsmr.activate",
            RsmrMsg::TransferReply { .. } => "rsmr.transfer_reply",
            RsmrMsg::TransferAck { .. } => "rsmr.transfer_ack",
            RsmrMsg::Nominate { .. } => "rsmr.nominate",
            RsmrMsg::ManifestRequest { .. } => "rsmr.manifest_req",
            RsmrMsg::ManifestReply { .. } => "rsmr.manifest_reply",
            RsmrMsg::ChunkRequest { .. } => "rsmr.chunk_req",
            RsmrMsg::ChunkReply { .. } => "rsmr.chunk_reply",
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            RsmrMsg::Paxos { inner, .. } => 8 + inner.size_hint(),
            RsmrMsg::Request { .. } => 48,
            RsmrMsg::Reply { members, .. } => 40 + members.len() * 8,
            RsmrMsg::Redirect { members, .. } => 32 + members.len() * 8,
            RsmrMsg::Reconfigure { members } => 16 + members.len() * 8,
            RsmrMsg::ReconfigureReply { .. } => 32,
            RsmrMsg::Activate { members, .. } => 16 + members.len() * 8,
            RsmrMsg::TransferReply { base, .. } => 16 + base.as_ref().map(Vec::len).unwrap_or(0),
            RsmrMsg::TransferAck { .. } => 16,
            RsmrMsg::Nominate { .. } => 16,
            RsmrMsg::ManifestRequest { .. } => 24,
            RsmrMsg::ManifestReply { manifest, .. } => {
                16 + manifest
                    .as_ref()
                    .map_or(0, simnet::wire::Wire::encoded_size)
            }
            RsmrMsg::ChunkRequest { .. } => 24,
            RsmrMsg::ChunkReply { bytes, .. } => 24 + bytes.as_ref().map_or(0, |b| b.len()),
        }
    }
}

/// Binary codec for shipping composed-machine messages over a real
/// transport: a one-byte variant tag, then the fields in declaration order.
/// Requires the operation and output types to be [`Wire`] themselves
/// (every state machine in this workspace already is).
impl<O: Wire, R: Wire> Wire for RsmrMsg<O, R> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RsmrMsg::Paxos { epoch, inner } => {
                buf.push(0);
                epoch.encode(buf);
                inner.encode(buf);
            }
            RsmrMsg::Request { seq, op } => {
                buf.push(1);
                seq.encode(buf);
                op.encode(buf);
            }
            RsmrMsg::Reply {
                seq,
                output,
                members,
            } => {
                buf.push(2);
                seq.encode(buf);
                output.encode(buf);
                members.encode(buf);
            }
            RsmrMsg::Redirect {
                seq,
                leader,
                members,
            } => {
                buf.push(3);
                seq.encode(buf);
                leader.encode(buf);
                members.encode(buf);
            }
            RsmrMsg::Reconfigure { members } => {
                buf.push(4);
                members.encode(buf);
            }
            RsmrMsg::ReconfigureReply { epoch, ok, leader } => {
                buf.push(5);
                epoch.encode(buf);
                ok.encode(buf);
                leader.encode(buf);
            }
            RsmrMsg::Activate { epoch, members } => {
                buf.push(6);
                epoch.encode(buf);
                members.encode(buf);
            }
            RsmrMsg::TransferReply { epoch, base } => {
                buf.push(8);
                epoch.encode(buf);
                base.encode(buf);
            }
            RsmrMsg::TransferAck { epoch } => {
                buf.push(9);
                epoch.encode(buf);
            }
            RsmrMsg::Nominate { epoch } => {
                buf.push(10);
                epoch.encode(buf);
            }
            RsmrMsg::ManifestRequest { epoch, since } => {
                buf.push(11);
                epoch.encode(buf);
                since.encode(buf);
            }
            RsmrMsg::ManifestReply { epoch, manifest } => {
                buf.push(12);
                epoch.encode(buf);
                manifest.encode(buf);
            }
            RsmrMsg::ChunkRequest { epoch, index } => {
                buf.push(13);
                epoch.encode(buf);
                index.encode(buf);
            }
            RsmrMsg::ChunkReply {
                epoch,
                index,
                bytes,
            } => {
                buf.push(14);
                epoch.encode(buf);
                index.encode(buf);
                bytes.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(buf)? {
            0 => RsmrMsg::Paxos {
                epoch: Epoch::decode(buf)?,
                inner: PaxosMsg::decode(buf)?,
            },
            1 => RsmrMsg::Request {
                seq: u64::decode(buf)?,
                op: O::decode(buf)?,
            },
            2 => RsmrMsg::Reply {
                seq: u64::decode(buf)?,
                output: R::decode(buf)?,
                members: Vec::decode(buf)?,
            },
            3 => RsmrMsg::Redirect {
                seq: u64::decode(buf)?,
                leader: Option::decode(buf)?,
                members: Vec::decode(buf)?,
            },
            4 => RsmrMsg::Reconfigure {
                members: Vec::decode(buf)?,
            },
            5 => RsmrMsg::ReconfigureReply {
                epoch: Epoch::decode(buf)?,
                ok: bool::decode(buf)?,
                leader: Option::decode(buf)?,
            },
            6 => RsmrMsg::Activate {
                epoch: Epoch::decode(buf)?,
                members: Vec::decode(buf)?,
            },
            8 => RsmrMsg::TransferReply {
                epoch: Epoch::decode(buf)?,
                base: Option::decode(buf)?,
            },
            9 => RsmrMsg::TransferAck {
                epoch: Epoch::decode(buf)?,
            },
            10 => RsmrMsg::Nominate {
                epoch: Epoch::decode(buf)?,
            },
            11 => RsmrMsg::ManifestRequest {
                epoch: Epoch::decode(buf)?,
                since: Option::decode(buf)?,
            },
            12 => RsmrMsg::ManifestReply {
                epoch: Epoch::decode(buf)?,
                manifest: Option::decode(buf)?,
            },
            13 => RsmrMsg::ChunkRequest {
                epoch: Epoch::decode(buf)?,
                index: u64::decode(buf)?,
            },
            14 => RsmrMsg::ChunkReply {
                epoch: Epoch::decode(buf)?,
                index: u64::decode(buf)?,
                bytes: Option::decode(buf)?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus::Slot;

    #[test]
    fn labels_cover_every_variant() {
        let msgs: Vec<RsmrMsg<u64, u64>> = vec![
            RsmrMsg::Paxos {
                epoch: Epoch(0),
                inner: PaxosMsg::CatchupRequest { from_slot: Slot(0) },
            },
            RsmrMsg::Request { seq: 0, op: 0 },
            RsmrMsg::Reply {
                seq: 0,
                output: 0,
                members: vec![],
            },
            RsmrMsg::Redirect {
                seq: 0,
                leader: None,
                members: vec![],
            },
            RsmrMsg::Reconfigure { members: vec![] },
            RsmrMsg::ReconfigureReply {
                epoch: Epoch(0),
                ok: true,
                leader: None,
            },
            RsmrMsg::Activate {
                epoch: Epoch(1),
                members: vec![],
            },
            RsmrMsg::TransferReply {
                epoch: Epoch(1),
                base: None,
            },
            RsmrMsg::TransferAck { epoch: Epoch(1) },
            RsmrMsg::Nominate { epoch: Epoch(1) },
            RsmrMsg::ManifestRequest {
                epoch: Epoch(1),
                since: None,
            },
            RsmrMsg::ManifestReply {
                epoch: Epoch(1),
                manifest: None,
            },
            RsmrMsg::ChunkRequest {
                epoch: Epoch(1),
                index: 0,
            },
            RsmrMsg::ChunkReply {
                epoch: Epoch(1),
                index: 0,
                bytes: None,
            },
        ];
        let mut labels: Vec<_> = msgs.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), msgs.len());
    }

    #[test]
    fn wire_codec_round_trips_every_variant() {
        use simnet::wire::{from_bytes, to_bytes};
        use std::sync::Arc;
        let msgs: Vec<RsmrMsg<u64, u64>> = vec![
            RsmrMsg::Paxos {
                epoch: Epoch(2),
                inner: PaxosMsg::Accept {
                    ballot: consensus::Ballot::new(1, NodeId(3)),
                    slot: Slot(4),
                    cmd: Arc::new(Cmd::App {
                        client: NodeId(100),
                        seq: 7,
                        op: 99,
                    }),
                },
            },
            RsmrMsg::Request { seq: 3, op: 17 },
            RsmrMsg::Reply {
                seq: 3,
                output: 21,
                members: vec![NodeId(0), NodeId(1)],
            },
            RsmrMsg::Redirect {
                seq: 4,
                leader: Some(NodeId(2)),
                members: vec![NodeId(0)],
            },
            RsmrMsg::Reconfigure {
                members: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            RsmrMsg::ReconfigureReply {
                epoch: Epoch(5),
                ok: false,
                leader: Some(NodeId(1)),
            },
            RsmrMsg::Activate {
                epoch: Epoch(6),
                members: vec![NodeId(4)],
            },
            RsmrMsg::TransferReply {
                epoch: Epoch(6),
                base: Some(vec![1, 2, 3]),
            },
            RsmrMsg::TransferAck { epoch: Epoch(6) },
            RsmrMsg::Nominate { epoch: Epoch(7) },
            RsmrMsg::ManifestRequest {
                epoch: Epoch(8),
                since: Some(42),
            },
            RsmrMsg::ManifestReply {
                epoch: Epoch(8),
                manifest: Some(crate::transfer::TransferManifest {
                    epoch: Epoch(8),
                    mode: crate::transfer::TransferMode::Delta { since: 42 },
                    header: vec![1, 2, 3],
                    chunks: vec![crate::transfer::ChunkMeta { len: 3, crc: 7 }],
                }),
            },
            RsmrMsg::ChunkRequest {
                epoch: Epoch(8),
                index: 2,
            },
            RsmrMsg::ChunkReply {
                epoch: Epoch(8),
                index: 2,
                bytes: Some(Arc::new(vec![9, 9, 9])),
            },
        ];
        for msg in msgs {
            let bytes = to_bytes(&msg);
            let back: RsmrMsg<u64, u64> = from_bytes(&bytes).expect("decodes");
            // RsmrMsg has no PartialEq (outputs need not); Debug is total
            // on these payloads, so the formatted forms must match.
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
        assert!(from_bytes::<RsmrMsg<u64, u64>>(&[200]).is_none());
        // Tag 7, a retired monolithic transfer request, no longer decodes.
        let mut retired = vec![7];
        Epoch(6).encode(&mut retired);
        assert!(from_bytes::<RsmrMsg<u64, u64>>(&retired).is_none());
        // The grouped envelope composes with the codec.
        let grouped = simnet::Grouped {
            group: simnet::GroupId(3),
            inner: RsmrMsg::<u64, u64>::Request { seq: 1, op: 2 },
        };
        let bytes = to_bytes(&grouped);
        let back: simnet::Grouped<RsmrMsg<u64, u64>> = from_bytes(&bytes).expect("decodes");
        assert_eq!(back.group, simnet::GroupId(3));
        assert_eq!(format!("{:?}", back.inner), format!("{:?}", grouped.inner));
    }

    #[test]
    fn transfer_size_reflects_payload() {
        let small: RsmrMsg<u64, u64> = RsmrMsg::TransferReply {
            epoch: Epoch(1),
            base: None,
        };
        let big: RsmrMsg<u64, u64> = RsmrMsg::TransferReply {
            epoch: Epoch(1),
            base: Some(vec![0; 4096]),
        };
        assert!(big.size_hint() >= small.size_hint() + 4096);
    }

    #[test]
    fn chunk_and_manifest_sizes_reflect_payload() {
        use std::sync::Arc;
        let small: RsmrMsg<u64, u64> = RsmrMsg::ChunkReply {
            epoch: Epoch(1),
            index: 0,
            bytes: None,
        };
        let big: RsmrMsg<u64, u64> = RsmrMsg::ChunkReply {
            epoch: Epoch(1),
            index: 0,
            bytes: Some(Arc::new(vec![0; 8192])),
        };
        assert!(big.size_hint() >= small.size_hint() + 8192);
        let manifest = crate::transfer::TransferManifest {
            epoch: Epoch(1),
            mode: crate::transfer::TransferMode::Full { pages: 4 },
            header: vec![0; 256],
            chunks: vec![crate::transfer::ChunkMeta { len: 10, crc: 1 }; 100],
        };
        let reply: RsmrMsg<u64, u64> = RsmrMsg::ManifestReply {
            epoch: Epoch(1),
            manifest: Some(manifest),
        };
        // The manifest cost scales with its chunk table and header.
        assert!(reply.size_hint() >= 256 + 100 * 12);
    }
}
