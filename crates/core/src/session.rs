//! Exactly-once client sessions.
//!
//! Clients tag every operation with a per-client sequence number.
//! Retransmissions — and re-proposals across a reconfiguration, where a
//! command discarded from a closing epoch's tail is resubmitted to the
//! successor — may cause the same `(client, seq)` to commit more than once
//! in the composed log. The session table makes application effects
//! exactly-once: a duplicate is *not* re-applied, and the cached output is
//! returned instead.

use std::collections::BTreeMap;

use simnet::wire::Wire;
use simnet::NodeId;

/// What [`SessionTable::check`] says about an incoming `(client, seq)`.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionDecision<R> {
    /// Never seen: apply it and record the output.
    Fresh,
    /// The most recent command from this client: return the cached output.
    Duplicate(R),
    /// Older than the most recent command: the client has already moved on;
    /// nothing to apply and no meaningful output to return.
    Stale,
}

/// Per-client deduplication state: the highest applied sequence number and
/// its output.
///
/// The table is part of the replicated state: it is applied
/// deterministically on every replica, included in [`crate::BaseState`]
/// snapshots, and therefore survives reconfigurations and crash recovery.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SessionTable<R> {
    entries: BTreeMap<NodeId, (u64, R)>,
}

impl<R: Clone> SessionTable<R> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SessionTable {
            entries: BTreeMap::new(),
        }
    }

    /// Classifies `(client, seq)` against the table.
    pub fn check(&self, client: NodeId, seq: u64) -> SessionDecision<R> {
        match self.entries.get(&client) {
            None => SessionDecision::Fresh,
            Some((last, output)) => {
                if seq > *last {
                    SessionDecision::Fresh
                } else if seq == *last {
                    SessionDecision::Duplicate(output.clone())
                } else {
                    SessionDecision::Stale
                }
            }
        }
    }

    /// Records the output of a freshly applied `(client, seq)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `seq` does not advance the client's
    /// session — callers must [`SessionTable::check`] first.
    pub fn record(&mut self, client: NodeId, seq: u64, output: R) {
        if let Some((last, _)) = self.entries.get(&client) {
            debug_assert!(seq > *last, "session went backwards for {client}");
        }
        self.entries.insert(client, (seq, output));
    }

    /// Number of known clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no client has been seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The last applied sequence number for `client`, if any.
    pub fn last_seq(&self, client: NodeId) -> Option<u64> {
        self.entries.get(&client).map(|(s, _)| *s)
    }
}

impl<R: Wire> Wire for SessionTable<R> {
    // The bytes of `Vec<(NodeId, (u64, R))>`, written straight from the
    // map without cloning the cached replies.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries.len().encode(buf);
        for (client, (seq, reply)) in &self.entries {
            client.encode(buf);
            seq.encode(buf);
            reply.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let entries = Vec::<(NodeId, (u64, R))>::decode(buf)?;
        Some(SessionTable {
            entries: entries.into_iter().collect(),
        })
    }
    fn encoded_size(&self) -> usize {
        8 + self
            .entries
            .values()
            .map(|(_, r)| 16 + r.encoded_size())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::wire;

    #[test]
    fn fresh_then_duplicate_then_stale() {
        let mut t: SessionTable<u64> = SessionTable::new();
        let c = NodeId(1);
        assert_eq!(t.check(c, 0), SessionDecision::Fresh);
        t.record(c, 0, 100);
        assert_eq!(t.check(c, 0), SessionDecision::Duplicate(100));
        assert_eq!(t.check(c, 1), SessionDecision::Fresh);
        t.record(c, 1, 200);
        assert_eq!(t.check(c, 0), SessionDecision::Stale);
        assert_eq!(t.check(c, 1), SessionDecision::Duplicate(200));
        assert_eq!(t.last_seq(c), Some(1));
    }

    #[test]
    fn clients_are_independent() {
        let mut t: SessionTable<u64> = SessionTable::new();
        t.record(NodeId(1), 5, 1);
        assert_eq!(t.check(NodeId(2), 0), SessionDecision::Fresh);
        assert_eq!(t.len(), 1);
        t.record(NodeId(2), 0, 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn skipped_sequence_numbers_are_fine() {
        // A client may renumber after recovery; only monotonicity matters.
        let mut t: SessionTable<u64> = SessionTable::new();
        t.record(NodeId(1), 0, 1);
        assert_eq!(t.check(NodeId(1), 10), SessionDecision::Fresh);
        t.record(NodeId(1), 10, 2);
        assert_eq!(t.check(NodeId(1), 5), SessionDecision::Stale);
    }

    #[test]
    fn wire_round_trip() {
        let mut t: SessionTable<u64> = SessionTable::new();
        t.record(NodeId(1), 3, 30);
        t.record(NodeId(2), 7, 70);
        let bytes = wire::to_bytes(&t);
        assert_eq!(wire::from_bytes::<SessionTable<u64>>(&bytes), Some(t));
    }

    #[test]
    fn empty_table_round_trips() {
        let t: SessionTable<u64> = SessionTable::new();
        assert!(t.is_empty());
        let bytes = wire::to_bytes(&t);
        assert_eq!(wire::from_bytes::<SessionTable<u64>>(&bytes), Some(t));
    }
}
