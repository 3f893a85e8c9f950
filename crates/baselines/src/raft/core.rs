//! A sans-I/O Raft core with single-server membership changes.
//!
//! This is the "natively reconfigurable" comparator: instead of composing
//! static instances, reconfiguration is woven into the replication protocol
//! itself — configuration entries in the log, effective as soon as they are
//! appended, changed one server at a time (§4.4 of the Raft dissertation).
//! Log compaction and `InstallSnapshot` carry joining members.
//!
//! The core mirrors the structure of `consensus::MultiPaxos`: inputs are
//! RPCs and clock ticks, outputs are [`RaftEffects`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use consensus::StaticConfig;
use rsmr_core::command::Cmd;
use simnet::wire::{self, Wire};
use simnet::{NodeId, SimDuration, SimTime};

use super::msg::{Index, RaftRpc, Term};

/// Leader heartbeat interval.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Base election timeout.
const ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(150);
/// Maximum deterministic jitter added to the election timeout.
const ELECTION_JITTER: SimDuration = SimDuration::from_millis(150);
/// Maximum entries per `Append`.
const APPEND_BATCH: Index = 512;

/// The node's current role.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RaftRole {
    /// Passive replica.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Serializes commands.
    Leader,
}

/// What a [`RaftCore::propose`] did.
#[derive(Clone, PartialEq, Debug)]
pub enum RaftPropose {
    /// Appended at this index.
    Appended(Index),
    /// Not the leader; retry at the hint.
    NotLeader(Option<NodeId>),
    /// (Reconfigure only) refused: an uncommitted config change is pending
    /// or the request changes more than one server.
    BadReconfigure,
}

/// Effects of one core step.
#[derive(Debug)]
pub struct RaftEffects<O> {
    /// RPCs to send.
    pub outbound: Vec<(NodeId, RaftRpc<O>)>,
    /// Newly committed entries, in log order, delivered exactly once.
    pub committed: Vec<(Index, Arc<Cmd<O>>)>,
    /// A snapshot was installed: the host must restore its application
    /// state from this payload (entries up to the snapshot never appear in
    /// `committed`).
    pub installed_snapshot: Option<Vec<u8>>,
    /// Hard-state writes: `(key, value)` pairs the host must put to stable
    /// storage before the messages in `outbound` are released (write-ahead
    /// — persisting at end-of-callback satisfies this in the simulator,
    /// where emitted messages are not delivered until the callback ends).
    /// Keys are storage-relative; the host adds its own namespace prefix.
    pub persist: Vec<(String, Vec<u8>)>,
    /// Keys to delete from stable storage (log truncation / compaction).
    pub unpersist: Vec<String>,
    /// This step made the node leader.
    pub became_leader: bool,
    /// This step demoted the node.
    pub lost_leadership: bool,
}

impl<O> Default for RaftEffects<O> {
    fn default() -> Self {
        RaftEffects {
            outbound: Vec::new(),
            committed: Vec::new(),
            installed_snapshot: None,
            persist: Vec::new(),
            unpersist: Vec::new(),
            became_leader: false,
            lost_leadership: false,
        }
    }
}

impl<O> RaftEffects<O> {
    /// An empty effects value.
    pub fn new() -> Self {
        Self::default()
    }
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Stable-storage key of the `(term, voted_for)` pair.
const KEY_HARD_STATE: &str = "hs";
/// Stable-storage key of the snapshot `((index, term), (members, data))`.
const KEY_SNAPSHOT: &str = "snap";

fn log_key(index: Index) -> String {
    format!("log/{index:016x}")
}

/// One Raft replica's protocol state. `O` is the application operation.
pub struct RaftCore<O: Clone + std::fmt::Debug + PartialEq + Wire + 'static> {
    me: NodeId,

    term: Term,
    voted_for: Option<NodeId>,
    role: RaftRole,
    leader_hint: Option<NodeId>,

    /// Snapshot covering indices `..= snap_index`.
    snap_index: Index,
    snap_term: Term,
    snap_data: Vec<u8>,
    /// Configuration effective at `snap_index`.
    snap_members: Vec<NodeId>,
    /// Number of `Reconfigure` entries at indices `..= snap_index` — hosts
    /// label applies with a configuration-era counter, which must survive
    /// compaction and snapshot installation even though the entries
    /// themselves are gone.
    snap_eras: u64,
    /// Entries for indices `snap_index + 1 ..`.
    log: Vec<(Term, Arc<Cmd<O>>)>,
    /// The configuration effective now (latest config entry in the log,
    /// else the snapshot's) — maintained incrementally because scanning
    /// the log per call is quadratic on the hot path.
    cached_members: Vec<NodeId>,

    commit: Index,
    delivered: Index,

    votes: BTreeSet<NodeId>,
    next_index: BTreeMap<NodeId, Index>,
    match_index: BTreeMap<NodeId, Index>,
    /// When a snapshot was last shipped to each peer — at most one
    /// outstanding snapshot per peer per interval, or a lagging follower
    /// triggers an unbounded stream of full-state messages.
    snap_sent_at: BTreeMap<NodeId, SimTime>,

    last_heartbeat: SimTime,
    election_deadline: SimTime,
    election_attempt: u64,
}

impl<O: Clone + std::fmt::Debug + PartialEq + Wire + 'static> RaftCore<O> {
    /// Creates a member of the initial cluster.
    pub fn new(me: NodeId, initial: StaticConfig, now: SimTime) -> Self {
        let mut c = Self::empty(me);
        c.snap_members = initial.members().to_vec();
        c.cached_members = c.snap_members.clone();
        c.reset_election_deadline(now);
        c
    }

    /// Creates a member whose genesis state is a snapshot at index 1
    /// carrying `data` (e.g. a pre-loaded application image). Blank joiners
    /// added later are then bootstrapped through `InstallSnapshot`, which
    /// is how a non-empty initial state reaches them.
    pub fn with_genesis_snapshot(
        me: NodeId,
        initial: StaticConfig,
        data: Vec<u8>,
        now: SimTime,
    ) -> Self {
        let mut c = Self::new(me, initial, now);
        c.snap_index = 1;
        c.snap_term = 0;
        c.snap_data = data;
        c.commit = 1;
        c.delivered = 1;
        c
    }

    /// Creates a blank joining node: it has no configuration and will not
    /// campaign; it learns everything from the leader's RPCs.
    pub fn blank(me: NodeId) -> Self {
        Self::empty(me)
    }

    /// Rebuilds a replica from persisted hard state after a crash.
    ///
    /// `items` are the `(key, value)` pairs previously written through
    /// [`RaftEffects::persist`] (namespace prefix already stripped). The
    /// node recovers as a follower: term and vote are restored (so it can
    /// never double-vote in a term), the snapshot and the contiguous log
    /// suffix above it are reloaded, and the commit/delivered cursors reset
    /// to the snapshot — committed-but-uncompacted entries are re-delivered
    /// once the next leader's `Append` advances the commit index, and the
    /// session table restored from the snapshot payload dedupes replies.
    pub fn recover(
        me: NodeId,
        now: SimTime,
        items: impl IntoIterator<Item = (String, Vec<u8>)>,
    ) -> Self {
        let mut c = Self::empty(me);
        let mut entries: BTreeMap<Index, (Term, Arc<Cmd<O>>)> = BTreeMap::new();
        for (key, value) in items {
            if key == KEY_HARD_STATE {
                if let Some((term, voted_for)) = wire::from_bytes::<(Term, Option<NodeId>)>(&value)
                {
                    c.term = term;
                    c.voted_for = voted_for;
                }
            } else if key == KEY_SNAPSHOT {
                if let Some((index, term, members, eras, data)) =
                    wire::from_bytes::<(Index, Term, Vec<NodeId>, u64, Vec<u8>)>(&value)
                {
                    c.snap_index = index;
                    c.snap_term = term;
                    c.snap_members = members;
                    c.snap_eras = eras;
                    c.snap_data = data;
                }
            } else if let Some(hex) = key.strip_prefix("log/") {
                if let (Ok(index), Some(entry)) = (
                    Index::from_str_radix(hex, 16),
                    wire::from_bytes::<(Term, Arc<Cmd<O>>)>(&value),
                ) {
                    entries.insert(index, entry);
                }
            }
        }
        c.commit = c.snap_index;
        c.delivered = c.snap_index;
        // Reload the contiguous log suffix above the snapshot; anything
        // past a gap (a torn truncation) is unreachable and dropped.
        let mut next = c.snap_index + 1;
        while let Some(entry) = entries.remove(&next) {
            c.log.push(entry);
            next += 1;
        }
        c.recompute_members();
        c.reset_election_deadline(now);
        c
    }

    /// The `(key, value)` pairs a host should write when it first brings a
    /// replica up, so a crash before the first protocol step still recovers
    /// the genesis configuration and application image.
    pub fn bootstrap_persist(&self) -> Vec<(String, Vec<u8>)> {
        let mut out = vec![
            (
                KEY_HARD_STATE.to_owned(),
                wire::to_bytes(&(self.term, self.voted_for)),
            ),
            (
                KEY_SNAPSHOT.to_owned(),
                wire::to_bytes(&(
                    self.snap_index,
                    self.snap_term,
                    self.snap_members.clone(),
                    self.snap_eras,
                    self.snap_data.clone(),
                )),
            ),
        ];
        for (i, (term, cmd)) in self.log.iter().enumerate() {
            let index = self.snap_index + 1 + i as Index;
            out.push((log_key(index), wire::to_bytes(&(*term, cmd.clone()))));
        }
        out
    }

    fn empty(me: NodeId) -> Self {
        RaftCore {
            me,
            term: 0,
            voted_for: None,
            role: RaftRole::Follower,
            leader_hint: None,
            snap_index: 0,
            snap_term: 0,
            snap_data: Vec::new(),
            snap_members: Vec::new(),
            snap_eras: 0,
            log: Vec::new(),
            cached_members: Vec::new(),
            commit: 0,
            delivered: 0,
            votes: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            snap_sent_at: BTreeMap::new(),
            last_heartbeat: SimTime::ZERO,
            election_deadline: SimTime::MAX,
            election_attempt: 0,
        }
    }

    // --- Log geometry ------------------------------------------------------

    fn last_index(&self) -> Index {
        self.snap_index + self.log.len() as Index
    }

    fn term_at(&self, index: Index) -> Option<Term> {
        if index == 0 {
            return Some(0);
        }
        if index == self.snap_index {
            return Some(self.snap_term);
        }
        if index < self.snap_index {
            return None; // compacted away
        }
        self.log
            .get((index - self.snap_index - 1) as usize)
            .map(|(t, _)| *t)
    }

    fn entry_at(&self, index: Index) -> Option<&(Term, Arc<Cmd<O>>)> {
        if index <= self.snap_index {
            return None;
        }
        self.log.get((index - self.snap_index - 1) as usize)
    }

    /// The configuration effective *now* (latest config entry anywhere in
    /// the log, else the snapshot's).
    pub fn current_members(&self) -> Vec<NodeId> {
        self.cached_members.clone()
    }

    /// Appends an entry, keeping the members cache coherent and recording
    /// the write-ahead persistence of the new entry.
    fn push_entry(&mut self, term: Term, cmd: Arc<Cmd<O>>, fx: &mut RaftEffects<O>) {
        if let Cmd::Reconfigure { members } = &*cmd {
            self.cached_members = members.clone();
        }
        fx.persist.push((
            log_key(self.last_index() + 1),
            wire::to_bytes(&(term, cmd.clone())),
        ));
        self.log.push((term, cmd));
    }

    /// Records the write-ahead persistence of `(term, voted_for)`.
    fn persist_hard_state(&self, fx: &mut RaftEffects<O>) {
        fx.persist.push((
            KEY_HARD_STATE.to_owned(),
            wire::to_bytes(&(self.term, self.voted_for)),
        ));
    }

    /// Records the write-ahead persistence of the current snapshot.
    fn persist_snapshot(&self, fx: &mut RaftEffects<O>) {
        fx.persist.push((
            KEY_SNAPSHOT.to_owned(),
            wire::to_bytes(&(
                self.snap_index,
                self.snap_term,
                self.snap_members.clone(),
                self.snap_eras,
                self.snap_data.clone(),
            )),
        ));
    }

    /// Recomputes the members cache by scanning (used after truncation or
    /// snapshot installation — rare events).
    fn recompute_members(&mut self) {
        for (_, cmd) in self.log.iter().rev() {
            if let Cmd::Reconfigure { members } = &**cmd {
                self.cached_members = members.clone();
                return;
            }
        }
        self.cached_members = self.snap_members.clone();
    }

    fn quorum(&self) -> usize {
        self.cached_members.len() / 2 + 1
    }

    fn has_uncommitted_config(&self) -> bool {
        let from = self.commit.max(self.snap_index);
        ((from + 1)..=self.last_index()).any(|i| {
            matches!(
                self.entry_at(i),
                Some((_, c)) if matches!(&**c, Cmd::Reconfigure { .. })
            )
        })
    }

    // --- Accessors ---------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Current role.
    pub fn role(&self) -> RaftRole {
        self.role
    }

    /// True when leading.
    pub fn is_leader(&self) -> bool {
        self.role == RaftRole::Leader
    }

    /// Best-known leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.is_leader() {
            Some(self.me)
        } else {
            self.leader_hint
        }
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Entries applied (delivered) so far beyond the snapshot.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The highest index delivered through [`RaftEffects::committed`].
    pub fn delivered_index(&self) -> Index {
        self.delivered
    }

    /// The index covered by the current snapshot.
    pub fn snapshot_index(&self) -> Index {
        self.snap_index
    }

    /// The current snapshot's payload (empty when none was ever taken).
    pub fn snapshot_data(&self) -> &[u8] {
        &self.snap_data
    }

    /// Number of `Reconfigure` entries covered by the snapshot. Hosts
    /// resume their configuration-era counters from here after recovery or
    /// snapshot installation.
    pub fn snap_eras(&self) -> u64 {
        self.snap_eras
    }

    /// Steps down voluntarily (used after committing a configuration entry
    /// that removes this node). A node outside the configuration never
    /// campaigns, so this is terminal until it is added back.
    pub fn abdicate(&mut self) {
        self.role = RaftRole::Follower;
        self.votes.clear();
    }

    // --- Inputs -------------------------------------------------------------

    /// Submits an application command.
    pub fn propose(&mut self, cmd: Cmd<O>, now: SimTime) -> (RaftEffects<O>, RaftPropose) {
        let mut fx = RaftEffects::new();
        if self.role != RaftRole::Leader {
            return (fx, RaftPropose::NotLeader(self.leader_hint));
        }
        if let Cmd::Reconfigure { members } = &cmd {
            if self.has_uncommitted_config()
                || !Self::single_change(&self.current_members(), members)
            {
                return (fx, RaftPropose::BadReconfigure);
            }
        }
        self.push_entry(self.term, Arc::new(cmd), &mut fx);
        let index = self.last_index();
        self.replicate_all(now, &mut fx);
        self.advance_commit(&mut fx);
        (fx, RaftPropose::Appended(index))
    }

    /// True when `b` differs from `a` by at most one server.
    pub fn single_change(a: &[NodeId], b: &[NodeId]) -> bool {
        if b.is_empty() {
            return false;
        }
        let sa: BTreeSet<_> = a.iter().collect();
        let sb: BTreeSet<_> = b.iter().collect();
        sa.symmetric_difference(&sb).count() <= 1
    }

    /// Handles one RPC.
    pub fn on_message(&mut self, from: NodeId, rpc: RaftRpc<O>, now: SimTime) -> RaftEffects<O> {
        let mut fx = RaftEffects::new();
        match rpc {
            RaftRpc::RequestVote {
                term,
                last_index,
                last_term,
            } => self.on_request_vote(from, term, last_index, last_term, now, &mut fx),
            RaftRpc::VoteReply { term, granted } => {
                self.on_vote_reply(from, term, granted, now, &mut fx)
            }
            RaftRpc::Append {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
            } => self.on_append(
                from, term, prev_index, prev_term, entries, commit, now, &mut fx,
            ),
            RaftRpc::AppendReply {
                term,
                success,
                match_index,
                hint_index,
            } => self.on_append_reply(from, term, success, match_index, hint_index, now, &mut fx),
            RaftRpc::InstallSnapshot {
                term,
                last_index,
                last_term,
                members,
                eras,
                data,
            } => self.on_install_snapshot(
                from, term, last_index, last_term, members, eras, data, now, &mut fx,
            ),
            RaftRpc::SnapshotReply { term, last_index } => {
                self.on_snapshot_reply(from, term, last_index, now, &mut fx)
            }
        }
        fx
    }

    /// Advances timers: heartbeats (leader), elections (others).
    pub fn tick(&mut self, now: SimTime) -> RaftEffects<O> {
        let mut fx = RaftEffects::new();
        match self.role {
            RaftRole::Leader => {
                if now.since(self.last_heartbeat) >= HEARTBEAT_INTERVAL {
                    self.replicate_all(now, &mut fx);
                }
            }
            _ => {
                let members = self.current_members();
                if members.contains(&self.me) && now >= self.election_deadline {
                    self.start_election(now, &mut fx);
                }
            }
        }
        fx
    }

    /// Compacts the log through `upto` (which must be ≤ the delivered
    /// index), storing `data` as the snapshot payload. The returned effects
    /// carry the persistence delta (new snapshot in, dropped entries out).
    pub fn compact(&mut self, upto: Index, data: Vec<u8>) -> RaftEffects<O> {
        let mut fx = RaftEffects::new();
        if upto <= self.snap_index || upto > self.delivered {
            return fx;
        }
        // Fold configuration entries out of the compacted range.
        let mut members = self.snap_members.clone();
        let mut eras = self.snap_eras;
        for i in (self.snap_index + 1)..=upto {
            if let Some((_, c)) = self.entry_at(i) {
                if let Cmd::Reconfigure { members: m } = &**c {
                    members = m.clone();
                    eras += 1;
                }
            }
        }
        let new_term = self.term_at(upto).expect("upto is within the log");
        for i in (self.snap_index + 1)..=upto {
            fx.unpersist.push(log_key(i));
        }
        let drop = (upto - self.snap_index) as usize;
        self.log.drain(..drop);
        self.snap_index = upto;
        self.snap_term = new_term;
        self.snap_members = members;
        self.snap_eras = eras;
        self.snap_data = data;
        self.persist_snapshot(&mut fx);
        fx
    }

    // --- Elections ----------------------------------------------------------

    fn election_timeout(&self) -> SimDuration {
        let jitter_us = mix64(
            self.me
                .0
                .wrapping_mul(131)
                .wrapping_add(self.election_attempt),
        ) % ELECTION_JITTER.as_micros();
        ELECTION_TIMEOUT + SimDuration::from_micros(jitter_us)
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        self.election_deadline = now + self.election_timeout();
    }

    fn start_election(&mut self, now: SimTime, fx: &mut RaftEffects<O>) {
        self.election_attempt += 1;
        self.term += 1;
        self.role = RaftRole::Candidate;
        self.voted_for = Some(self.me);
        self.persist_hard_state(fx);
        self.votes.clear();
        self.votes.insert(self.me);
        self.reset_election_deadline(now);
        let (last_index, last_term) = (
            self.last_index(),
            self.term_at(self.last_index()).unwrap_or(0),
        );
        for peer in self.peers() {
            fx.outbound.push((
                peer,
                RaftRpc::RequestVote {
                    term: self.term,
                    last_index,
                    last_term,
                },
            ));
        }
        self.check_votes(now, fx);
    }

    fn peers(&self) -> Vec<NodeId> {
        self.cached_members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect()
    }

    fn adopt_term(&mut self, term: Term, fx: &mut RaftEffects<O>) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
            self.persist_hard_state(fx);
            if self.role == RaftRole::Leader {
                fx.lost_leadership = true;
            }
            self.role = RaftRole::Follower;
            self.votes.clear();
        }
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: Index,
        last_term: Term,
        now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        let my_last = self.last_index();
        let my_last_term = self.term_at(my_last).unwrap_or(0);
        let up_to_date =
            last_term > my_last_term || (last_term == my_last_term && last_index >= my_last);
        let granted = term == self.term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if granted {
            self.voted_for = Some(from);
            self.persist_hard_state(fx);
            self.reset_election_deadline(now);
        }
        fx.outbound.push((
            from,
            RaftRpc::VoteReply {
                term: self.term,
                granted,
            },
        ));
    }

    fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: Term,
        granted: bool,
        now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        if self.role != RaftRole::Candidate || term != self.term || !granted {
            return;
        }
        self.votes.insert(from);
        self.check_votes(now, fx);
    }

    fn check_votes(&mut self, now: SimTime, fx: &mut RaftEffects<O>) {
        if self.role == RaftRole::Candidate && self.votes.len() >= self.quorum() {
            self.role = RaftRole::Leader;
            self.leader_hint = Some(self.me);
            fx.became_leader = true;
            self.next_index.clear();
            self.match_index.clear();
            let next = self.last_index() + 1;
            for peer in self.peers() {
                self.next_index.insert(peer, next);
                self.match_index.insert(peer, 0);
            }
            // Commit barrier: a no-op from the new term.
            self.push_entry(self.term, Arc::new(Cmd::Noop), fx);
            self.replicate_all(now, fx);
        }
    }

    // --- Replication ----------------------------------------------------------

    fn replicate_all(&mut self, now: SimTime, fx: &mut RaftEffects<O>) {
        self.last_heartbeat = now;
        for peer in self.peers() {
            self.replicate_one(peer, now, fx);
        }
    }

    /// Minimum spacing between full-snapshot sends to one peer.
    const SNAPSHOT_RESEND: SimDuration = SimDuration::from_millis(500);

    fn replicate_one(&mut self, peer: NodeId, now: SimTime, fx: &mut RaftEffects<O>) {
        let next = *self.next_index.entry(peer).or_insert(self.snap_index + 1);
        if next <= self.snap_index {
            // Throttle: one outstanding snapshot per peer per interval.
            let last_sent = self.snap_sent_at.get(&peer).copied();
            if let Some(at) = last_sent {
                if now.since(at) < Self::SNAPSHOT_RESEND {
                    return;
                }
            }
            self.snap_sent_at.insert(peer, now);
            fx.outbound.push((
                peer,
                RaftRpc::InstallSnapshot {
                    term: self.term,
                    last_index: self.snap_index,
                    last_term: self.snap_term,
                    members: self.snap_members.clone(),
                    eras: self.snap_eras,
                    data: self.snap_data.clone(),
                },
            ));
            // Optimistically assume installation; a reply corrects this.
            self.next_index.insert(peer, self.snap_index + 1);
            return;
        }
        let prev_index = next - 1;
        let Some(prev_term) = self.term_at(prev_index) else {
            // prev fell behind the snapshot between checks.
            self.next_index.insert(peer, self.snap_index);
            return;
        };
        let from = next;
        let to = self.last_index().min(from + APPEND_BATCH - 1);
        let entries: Vec<(Term, Arc<Cmd<O>>)> = (from..=to)
            .filter_map(|i| self.entry_at(i).cloned())
            .collect();
        // Pipelining: advance next_index optimistically so the next
        // propose ships only new entries; failures rewind it via the
        // reply's hint, losses via the follower's mismatch hint.
        if !entries.is_empty() {
            self.next_index.insert(peer, to + 1);
        }
        fx.outbound.push((
            peer,
            RaftRpc::Append {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit: self.commit,
            },
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        from: NodeId,
        term: Term,
        prev_index: Index,
        prev_term: Term,
        entries: Vec<(Term, Arc<Cmd<O>>)>,
        commit: Index,
        now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        if term < self.term {
            fx.outbound.push((
                from,
                RaftRpc::AppendReply {
                    term: self.term,
                    success: false,
                    match_index: 0,
                    hint_index: self.last_index() + 1,
                },
            ));
            return;
        }
        // A current-term Append asserts leadership.
        if self.role != RaftRole::Follower {
            if self.role == RaftRole::Leader {
                fx.lost_leadership = true;
            }
            self.role = RaftRole::Follower;
        }
        self.leader_hint = Some(from);
        self.reset_election_deadline(now);

        // Consistency check. Indices at or below our snapshot are part of
        // the committed prefix the snapshot covers, so they match by
        // construction (the per-entry loop below skips them).
        let ok = prev_index < self.snap_index
            || match self.term_at(prev_index) {
                Some(t) => t == prev_term,
                None => false,
            };
        if !ok {
            // Either our log is too short (prev beyond it) or the entry at
            // prev conflicts; tell the leader where to resume.
            let hint = (self.last_index() + 1)
                .min(prev_index)
                .max(self.snap_index + 1);
            fx.outbound.push((
                from,
                RaftRpc::AppendReply {
                    term: self.term,
                    success: false,
                    match_index: 0,
                    hint_index: hint,
                },
            ));
            return;
        }
        // Append, truncating conflicts.
        let mut index = prev_index;
        for (t, cmd) in entries {
            index += 1;
            if index <= self.snap_index {
                continue; // covered by our snapshot
            }
            match self.term_at(index) {
                Some(existing) if existing == t => continue, // already have it
                Some(_) => {
                    // Conflict: truncate from here (dropping any cached
                    // config the suffix carried), then append.
                    for i in index..=self.last_index() {
                        fx.unpersist.push(log_key(i));
                    }
                    let keep = (index - self.snap_index - 1) as usize;
                    self.log.truncate(keep);
                    self.recompute_members();
                    self.push_entry(t, cmd, fx);
                }
                None => self.push_entry(t, cmd, fx),
            }
        }
        let match_index = index.max(self.last_index().min(prev_index));
        let new_commit = commit.min(self.last_index());
        if new_commit > self.commit {
            self.commit = new_commit;
            self.deliver(fx);
        }
        fx.outbound.push((
            from,
            RaftRpc::AppendReply {
                term: self.term,
                success: true,
                match_index,
                hint_index: 0,
            },
        ));
    }

    // The arguments mirror the `AppendReply` wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn on_append_reply(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: Index,
        hint_index: Index,
        _now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        if self.role != RaftRole::Leader || term != self.term {
            return;
        }
        if success {
            let m = self.match_index.entry(from).or_insert(0);
            *m = (*m).max(match_index);
            let next = self.next_index.entry(from).or_insert(match_index + 1);
            *next = (*next).max(match_index + 1);
            self.advance_commit(fx);
            // Keep streaming only if un-sent entries remain (pipelined
            // batches in flight don't need re-sending).
            if *self.next_index.get(&from).expect("just set") <= self.last_index() {
                self.replicate_one(from, _now, fx);
            }
        } else {
            // Rewind to the follower's hint (never forward).
            let current = *self.next_index.entry(from).or_insert(self.snap_index + 1);
            let next = hint_index.max(1).min(current).min(self.last_index() + 1);
            self.next_index.insert(from, next);
            self.replicate_one(from, _now, fx);
        }
    }

    fn advance_commit(&mut self, fx: &mut RaftEffects<O>) {
        let members = self.cached_members.clone();
        let quorum = self.quorum();
        let mut candidate = self.last_index();
        while candidate > self.commit {
            if self.term_at(candidate) == Some(self.term) {
                let mut count = 0;
                for m in &members {
                    let matched = if *m == self.me {
                        self.last_index()
                    } else {
                        self.match_index.get(m).copied().unwrap_or(0)
                    };
                    if matched >= candidate {
                        count += 1;
                    }
                }
                if count >= quorum {
                    break;
                }
            }
            candidate -= 1;
        }
        if candidate > self.commit {
            self.commit = candidate;
            self.deliver(fx);
        }
    }

    fn deliver(&mut self, fx: &mut RaftEffects<O>) {
        self.delivered = self.delivered.max(self.snap_index);
        while self.delivered < self.commit {
            let next = self.delivered + 1;
            let Some((_, cmd)) = self.entry_at(next) else {
                break;
            };
            fx.committed.push((next, cmd.clone()));
            self.delivered = next;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: Index,
        last_term: Term,
        members: Vec<NodeId>,
        eras: u64,
        data: Vec<u8>,
        now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        if term < self.term {
            fx.outbound.push((
                from,
                RaftRpc::SnapshotReply {
                    term: self.term,
                    last_index: self.snap_index,
                },
            ));
            return;
        }
        self.leader_hint = Some(from);
        self.reset_election_deadline(now);
        if last_index > self.commit {
            // The whole log is superseded by the snapshot.
            for i in (self.snap_index + 1)..=self.last_index() {
                fx.unpersist.push(log_key(i));
            }
            self.snap_index = last_index;
            self.snap_term = last_term;
            self.snap_members = members;
            self.snap_eras = eras;
            self.snap_data = data.clone();
            self.log.clear();
            self.cached_members = self.snap_members.clone();
            self.commit = last_index;
            self.delivered = last_index;
            fx.installed_snapshot = Some(data);
            self.persist_snapshot(fx);
        }
        fx.outbound.push((
            from,
            RaftRpc::SnapshotReply {
                term: self.term,
                last_index: self.snap_index,
            },
        ));
    }

    fn on_snapshot_reply(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: Index,
        now: SimTime,
        fx: &mut RaftEffects<O>,
    ) {
        self.adopt_term(term, fx);
        if self.role != RaftRole::Leader || term != self.term {
            return;
        }
        // The peer answered: the outstanding-snapshot slot is free again.
        self.snap_sent_at.remove(&from);
        let next = self.next_index.entry(from).or_insert(last_index + 1);
        *next = (*next).max(last_index + 1);
        let m = self.match_index.entry(from).or_insert(0);
        *m = (*m).max(last_index);
        if *self.next_index.get(&from).expect("just set") <= self.last_index() {
            self.replicate_one(from, now, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One node's committed prefix as observed by the harness.
    type CommitLog = Vec<(Index, Arc<Cmd<u64>>)>;

    /// Lossless in-memory harness. `stores` mirrors what each node's host
    /// would hold in stable storage (applying `persist` / `unpersist`).
    struct Net {
        cores: BTreeMap<NodeId, RaftCore<u64>>,
        inbox: VecDeque<(NodeId, NodeId, RaftRpc<u64>)>,
        committed: BTreeMap<NodeId, CommitLog>,
        stores: BTreeMap<NodeId, BTreeMap<String, Vec<u8>>>,
        cut: BTreeSet<NodeId>,
        now: SimTime,
    }

    impl Net {
        fn new(n: u64) -> Self {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let cfg = StaticConfig::new(members.clone());
            let cores: BTreeMap<NodeId, RaftCore<u64>> = members
                .iter()
                .map(|&m| (m, RaftCore::new(m, cfg.clone(), SimTime::ZERO)))
                .collect();
            let stores = cores
                .iter()
                .map(|(&m, c)| (m, c.bootstrap_persist().into_iter().collect()))
                .collect();
            Net {
                cores,
                inbox: VecDeque::new(),
                committed: BTreeMap::new(),
                stores,
                cut: BTreeSet::new(),
                now: SimTime::ZERO,
            }
        }

        fn absorb(&mut self, from: NodeId, fx: RaftEffects<u64>) {
            for (to, rpc) in fx.outbound {
                self.inbox.push_back((from, to, rpc));
            }
            self.committed.entry(from).or_default().extend(fx.committed);
            let store = self.stores.entry(from).or_default();
            for (key, value) in fx.persist {
                store.insert(key, value);
            }
            for key in fx.unpersist {
                store.remove(&key);
            }
        }

        fn advance(&mut self, d: SimDuration) {
            self.now += d;
            let ids: Vec<NodeId> = self.cores.keys().copied().collect();
            for id in ids {
                if self.cut.contains(&id) {
                    continue;
                }
                let fx = self.cores.get_mut(&id).unwrap().tick(self.now);
                self.absorb(id, fx);
            }
            while let Some((from, to, rpc)) = self.inbox.pop_front() {
                if self.cut.contains(&from) || self.cut.contains(&to) {
                    continue;
                }
                if let Some(core) = self.cores.get_mut(&to) {
                    let fx = core.on_message(from, rpc, self.now);
                    self.absorb(to, fx);
                }
            }
        }

        fn elect(&mut self) -> NodeId {
            for _ in 0..1000 {
                self.advance(SimDuration::from_millis(10));
                if let Some(l) = self.leader() {
                    return l;
                }
            }
            panic!("no raft leader");
        }

        fn leader(&self) -> Option<NodeId> {
            self.cores
                .iter()
                .filter(|(id, c)| !self.cut.contains(id) && c.is_leader())
                .map(|(&id, _)| id)
                .next()
        }

        fn propose(&mut self, cmd: Cmd<u64>) -> RaftPropose {
            let l = self.leader().expect("leader");
            let (fx, res) = self.cores.get_mut(&l).unwrap().propose(cmd, self.now);
            self.absorb(l, fx);
            self.advance(SimDuration::from_millis(1));
            res
        }

        fn app_values(&self, id: NodeId) -> Vec<u64> {
            self.committed
                .get(&id)
                .map(|v| {
                    v.iter()
                        .filter_map(|(_, c)| match &**c {
                            Cmd::App { op, .. } => Some(*op),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default()
        }
    }

    fn app(op: u64) -> Cmd<u64> {
        Cmd::App {
            client: NodeId(100),
            seq: op,
            op,
        }
    }

    #[test]
    fn elects_exactly_one_leader() {
        let mut net = Net::new(3);
        net.elect();
        assert_eq!(net.cores.values().filter(|c| c.is_leader()).count(), 1);
    }

    #[test]
    fn commits_in_order_on_all_replicas() {
        let mut net = Net::new(3);
        net.elect();
        for i in 1..=5 {
            assert!(matches!(net.propose(app(i)), RaftPropose::Appended(_)));
        }
        net.advance(SimDuration::from_millis(100));
        for id in net.cores.keys().copied().collect::<Vec<_>>() {
            assert_eq!(net.app_values(id), vec![1, 2, 3, 4, 5], "{id}");
        }
    }

    #[test]
    fn leader_crash_preserves_committed_prefix() {
        let mut net = Net::new(3);
        let l1 = net.elect();
        for i in 1..=3 {
            net.propose(app(i));
        }
        net.advance(SimDuration::from_millis(100));
        net.cut.insert(l1);
        let mut l2 = l1;
        for _ in 0..500 {
            net.advance(SimDuration::from_millis(10));
            if let Some(l) = net.leader() {
                l2 = l;
                break;
            }
        }
        assert_ne!(l2, l1);
        net.propose(app(9));
        net.advance(SimDuration::from_millis(200));
        let vals = net.app_values(l2);
        assert!(vals.starts_with(&[1, 2, 3]), "{vals:?}");
        assert!(vals.contains(&9));
    }

    #[test]
    fn single_change_rule() {
        let a = [NodeId(1), NodeId(2), NodeId(3)];
        assert!(RaftCore::<u64>::single_change(&a, &a));
        assert!(RaftCore::<u64>::single_change(
            &a,
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        ));
        assert!(RaftCore::<u64>::single_change(&a, &[NodeId(1), NodeId(2)]));
        assert!(!RaftCore::<u64>::single_change(
            &a,
            &[NodeId(1), NodeId(4), NodeId(5)]
        ));
        assert!(!RaftCore::<u64>::single_change(&a, &[]));
    }

    #[test]
    fn reconfigure_is_refused_while_one_is_pending() {
        let mut net = Net::new(3);
        let l = net.elect();
        // Block replication so the config entry stays uncommitted.
        let peers: Vec<NodeId> = net.cores.keys().copied().filter(|&n| n != l).collect();
        for p in &peers {
            net.cut.insert(*p);
        }
        let (fx, r1) = net.cores.get_mut(&l).unwrap().propose(
            Cmd::Reconfigure {
                members: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            },
            net.now,
        );
        net.absorb(l, fx);
        assert!(matches!(r1, RaftPropose::Appended(_)));
        let (fx, r2) = net.cores.get_mut(&l).unwrap().propose(
            Cmd::Reconfigure {
                members: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)],
            },
            net.now,
        );
        net.absorb(l, fx);
        assert_eq!(r2, RaftPropose::BadReconfigure);
    }

    #[test]
    fn membership_add_takes_effect_and_commits() {
        let mut net = Net::new(3);
        net.elect();
        // Add node 3.
        let joiner = NodeId(3);
        net.cores.insert(joiner, RaftCore::blank(joiner));
        let res = net.propose(Cmd::Reconfigure {
            members: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        });
        assert!(matches!(res, RaftPropose::Appended(_)));
        net.advance(SimDuration::from_millis(200));
        // The joiner received the log and knows the config.
        let members = net.cores[&joiner].current_members();
        assert!(members.contains(&joiner), "{members:?}");
        // And further commands reach it.
        net.propose(app(7));
        net.advance(SimDuration::from_millis(200));
        assert!(net.app_values(joiner).contains(&7));
    }

    #[test]
    fn compaction_and_snapshot_install() {
        let mut net = Net::new(3);
        let l = net.elect();
        for i in 1..=10 {
            net.propose(app(i));
        }
        net.advance(SimDuration::from_millis(100));
        // Compact the leader aggressively, then add a blank joiner: it must
        // be brought up through InstallSnapshot.
        {
            let core = net.cores.get_mut(&l).unwrap();
            let upto = core.delivered;
            core.compact(upto, vec![9, 9, 9]);
            assert!(core.log_len() < 10);
        }
        let joiner = NodeId(3);
        net.cores.insert(joiner, RaftCore::blank(joiner));
        net.propose(Cmd::Reconfigure {
            members: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        });
        net.advance(SimDuration::from_millis(300));
        let j = &net.cores[&joiner];
        assert!(j.snap_index > 0, "snapshot must have been installed");
        assert_eq!(j.snap_data, vec![9, 9, 9]);
        assert!(j.current_members().contains(&joiner));
    }

    #[test]
    fn recovery_restores_term_vote_and_log() {
        let mut net = Net::new(3);
        net.elect();
        for i in 1..=4 {
            net.propose(app(i));
        }
        net.advance(SimDuration::from_millis(100));
        // Crash a follower and rebuild it purely from its persisted state.
        let victim = net
            .cores
            .iter()
            .find(|(_, c)| !c.is_leader())
            .map(|(&id, _)| id)
            .unwrap();
        let (term, last) = {
            let c = &net.cores[&victim];
            (c.term(), c.log_len() as u64 + c.snapshot_index())
        };
        let store = net.stores[&victim].clone();
        let r = RaftCore::<u64>::recover(victim, net.now, store);
        assert_eq!(r.term(), term);
        assert_eq!(r.role(), RaftRole::Follower);
        assert_eq!(r.log_len() as u64 + r.snapshot_index(), last);
        assert_eq!(r.current_members(), net.cores[&victim].current_members());
        // Commit index is volatile: it restarts at the snapshot boundary and
        // is re-learned from the leader.
        assert_eq!(r.delivered_index(), r.snapshot_index());
        // Plugged back into the cluster, the recovered node re-delivers the
        // full committed prefix plus new traffic.
        net.cores.insert(victim, r);
        net.committed.remove(&victim);
        net.propose(app(9));
        net.advance(SimDuration::from_millis(200));
        let vals = net.app_values(victim);
        assert_eq!(vals, vec![1, 2, 3, 4, 9], "{vals:?}");
    }

    #[test]
    fn recovered_node_does_not_double_vote() {
        let cfg = StaticConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let mut a = RaftCore::<u64>::new(NodeId(0), cfg, SimTime::ZERO);
        let mut store: BTreeMap<String, Vec<u8>> = a.bootstrap_persist().into_iter().collect();
        let vote = |fx: &RaftEffects<u64>| match fx.outbound.first() {
            Some((_, RaftRpc::VoteReply { granted, .. })) => Some(*granted),
            _ => None,
        };
        let fx = a.on_message(
            NodeId(1),
            RaftRpc::RequestVote {
                term: 5,
                last_index: 0,
                last_term: 0,
            },
            SimTime::ZERO,
        );
        assert_eq!(vote(&fx), Some(true));
        for (k, v) in fx.persist {
            store.insert(k, v);
        }
        // Restart. The vote for candidate 1 in term 5 must survive: an
        // equally up-to-date rival in the same term is refused, while the
        // original candidate's retransmit is re-granted.
        let mut b = RaftCore::<u64>::recover(NodeId(0), SimTime::ZERO, store);
        assert_eq!(b.term(), 5);
        let fx = b.on_message(
            NodeId(2),
            RaftRpc::RequestVote {
                term: 5,
                last_index: 99,
                last_term: 5,
            },
            SimTime::ZERO,
        );
        assert_eq!(vote(&fx), Some(false));
        let fx = b.on_message(
            NodeId(1),
            RaftRpc::RequestVote {
                term: 5,
                last_index: 0,
                last_term: 0,
            },
            SimTime::ZERO,
        );
        assert_eq!(vote(&fx), Some(true));
    }

    #[test]
    fn recovery_after_compaction_uses_snapshot_plus_suffix() {
        let mut net = Net::new(3);
        let l = net.elect();
        for i in 1..=10 {
            net.propose(app(i));
        }
        net.advance(SimDuration::from_millis(100));
        {
            let core = net.cores.get_mut(&l).unwrap();
            let upto = core.delivered;
            let cfx = core.compact(upto, vec![7, 7]);
            net.absorb(l, cfx);
        }
        let store = net.stores[&l].clone();
        let r = RaftCore::<u64>::recover(l, net.now, store);
        assert!(r.snapshot_index() > 0);
        assert_eq!(r.snapshot_data(), &[7, 7]);
        assert_eq!(
            r.log_len() as u64 + r.snapshot_index(),
            net.cores[&l].log_len() as u64 + net.cores[&l].snapshot_index()
        );
    }

    #[test]
    fn blank_nodes_never_campaign() {
        let mut net = Net::new(1);
        let blank = NodeId(9);
        net.cores.insert(blank, RaftCore::blank(blank));
        net.advance(SimDuration::from_secs(5));
        assert_eq!(net.cores[&blank].role(), RaftRole::Follower);
        assert_eq!(net.cores[&blank].term(), net.cores[&blank].term());
    }
}
