//! A sans-I/O static Multi-Paxos replicated-log core.
//!
//! One [`MultiPaxos`] value is one replica of one *static* SMR instance: the
//! member set is fixed for the life of the value. Each replica plays all
//! three Paxos roles (proposer, acceptor, learner). The core is driven by
//! its host: deliver messages with [`MultiPaxos::on_message`], advance the
//! clock with [`MultiPaxos::tick`], submit commands with
//! [`MultiPaxos::propose`] — every call returns the [`Effects`] the host
//! must apply.
//!
//! ## Protocol notes
//!
//! * **Leadership**: a follower whose election deadline passes becomes a
//!   candidate with a fresh ballot and runs a single *bulk* phase 1 covering
//!   every slot at or above its contiguous-chosen watermark. A quorum of
//!   promises makes it leader; it completes any in-doubt slots with the
//!   highest-ballot accepted value (no-op for true holes) and then streams
//!   client commands through phase 2 with pipelining.
//! * **Commit**: the leader declares a slot chosen on a quorum of phase-2b
//!   acks and broadcasts `Chosen`. Heartbeats carry the commit watermark;
//!   lagging replicas pull missing entries with `CatchupRequest`.
//! * **Safety**: accepted entries are **never trimmed**. A quorum of
//!   promises therefore always intersects the accept-quorum of every chosen
//!   slot, so the max-ballot rule in [`MultiPaxos::become_leader`] can never
//!   invent a value for a decided slot.
//! * **Persistence**: `promised` and each accepted entry are emitted through
//!   [`Effects::persist`] (write-ahead: the host must persist before
//!   sending). [`MultiPaxos::recover`] rebuilds acceptor state after a
//!   crash; the chosen log is *not* persisted — it is recovered via
//!   catch-up, or re-decided from accepted state after a full-cluster
//!   restart (hosts must therefore tolerate replay of committed entries,
//!   which the composition layer does via its applied-index watermark).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use simnet::wire;
use simnet::{NodeId, SimDuration, SimTime};

use crate::config::StaticConfig;
use crate::effects::Effects;
use crate::msg::PaxosMsg;
use crate::types::{Ballot, Command, Slot};

/// How often a leader sends heartbeats.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Base follower election timeout: no leader contact for this long starts
/// a campaign.
pub const ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(150);
/// Maximum deterministic per-node jitter added to the election timeout.
const ELECTION_JITTER: SimDuration = SimDuration::from_millis(150);
/// How long a leader waits before re-sending un-acked `Accept`s.
const ACCEPT_RETRY: SimDuration = SimDuration::from_millis(60);
/// Maximum chosen entries per `CatchupReply`.
const CATCHUP_BATCH: usize = 512;

/// Read-lease and batching knobs for the Multi-Paxos core.
#[derive(Clone, Debug)]
pub struct PaxosTunables {
    /// Read-lease duration, enabling leader-local linearizable reads. The
    /// lease is anchored at heartbeat send times acknowledged by a quorum.
    /// Must be below [`ELECTION_TIMEOUT`] (followers reset their election
    /// deadline on every heartbeat, so a new leader cannot emerge while any
    /// quorum-acked lease is live; the simulator's virtual clock has zero
    /// skew); [`MultiPaxos::new`] asserts it. `None` disables leases.
    pub lease_duration: Option<SimDuration>,
    /// Leader-side batch accumulator: combine up to this many commands
    /// into one [`Command::batch`] proposal. `<= 1` disables accumulation
    /// (every command gets its own slot). Only effective for command
    /// types with [`Command::supports_batching`].
    pub max_batch: usize,
    /// Longest a buffered command may wait in the accumulator before a
    /// flush is forced (checked on every message and tick, so the
    /// effective granularity is the host's tick interval). Zero flushes
    /// at the first opportunity.
    pub max_delay: SimDuration,
    /// Pipelined in-flight window: the maximum number of outstanding
    /// phase-2 proposals before further commands accumulate. `0` means
    /// unbounded (propose immediately, the pre-batching behavior).
    pub window: usize,
}

impl Default for PaxosTunables {
    fn default() -> Self {
        PaxosTunables {
            lease_duration: None,
            max_batch: 1,
            max_delay: SimDuration::ZERO,
            window: 0,
        }
    }
}

/// The proposer role a replica currently plays.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Role {
    /// Passive: accepting and learning only.
    Follower,
    /// Running phase 1 of an election.
    Candidate,
    /// Owner of the highest ballot this replica knows; orders commands.
    Leader,
}

/// What happened to a [`MultiPaxos::propose`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProposeOutcome {
    /// The command was proposed (leader) or queued until the election
    /// resolves (candidate).
    Accepted,
    /// This replica is a follower; retry at the hinted leader if any.
    NotLeader(Option<NodeId>),
}

struct Proposal<C> {
    cmd: Arc<C>,
    acks: BTreeSet<NodeId>,
    last_sent: SimTime,
    /// When phase 2 started for this slot; reported as the
    /// proposal→commit latency when the quorum completes.
    proposed_at: SimTime,
}

/// One replica of a static Multi-Paxos SMR instance. See the module docs.
pub struct MultiPaxos<C: Command> {
    me: NodeId,
    cfg: StaticConfig,
    tun: PaxosTunables,

    // --- Acceptor state (persisted) ---
    promised: Ballot,
    accepted: BTreeMap<Slot, (Ballot, Arc<C>)>,

    // --- Learner state ---
    chosen: BTreeMap<Slot, Arc<C>>,
    /// First slot *not* in the contiguous chosen prefix.
    contig: Slot,
    /// First slot not yet reported through [`Effects::committed`].
    delivered: Slot,

    // --- Proposer state ---
    role: Role,
    ballot: Ballot,
    leader_hint: Option<NodeId>,
    promises: BTreeMap<NodeId, Vec<(Slot, Ballot, Arc<C>)>>,
    phase1_from: Slot,
    next_slot: Slot,
    proposals: BTreeMap<Slot, Proposal<C>>,
    pending: VecDeque<Arc<C>>,
    /// Leader-side batch accumulator (see [`PaxosTunables::max_batch`]):
    /// commands buffered while the pipeline is loaded, flushed as one
    /// batch proposal. Like `pending`, its contents are volatile — a
    /// crash or demotion drops them and clients retransmit.
    accum: Vec<C>,
    /// When the oldest command in `accum` was buffered (valid only while
    /// `accum` is non-empty); drives the `max_delay` forced flush.
    accum_since: SimTime,
    election_attempt: u64,

    // --- Timing ---
    last_heartbeat_sent: SimTime,
    election_deadline: SimTime,
    /// When this replica last saw direct evidence of an *active* leader
    /// (a heartbeat, accept or chosen from another node) — as opposed to
    /// `election_deadline`, which is also pushed out by candidate contact
    /// and step-downs. Drives the disruptive-election guard in
    /// [`MultiPaxos::handle_prepare`].
    last_leader_heard: SimTime,
    /// Per-peer: the send time of the newest heartbeat the peer has acked
    /// (leases). Cleared on leadership changes.
    hb_acked: BTreeMap<NodeId, SimTime>,

    halted: bool,
}

const KEY_PROMISED: &str = "promised";

fn accepted_key(slot: Slot) -> String {
    format!("acc/{:016x}", slot.0)
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap deterministic hash for election jitter.
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl<C: Command> MultiPaxos<C> {
    /// Creates a fresh replica for `me` in configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of `cfg`, or if `tun.lease_duration`
    /// is not below [`ELECTION_TIMEOUT`].
    pub fn new(me: NodeId, cfg: StaticConfig, now: SimTime, tun: PaxosTunables) -> Self {
        assert!(cfg.contains(me), "{me} is not a member of {cfg}");
        assert!(
            tun.lease_duration.is_none_or(|l| l < ELECTION_TIMEOUT),
            "lease_duration must be below the election timeout ({ELECTION_TIMEOUT})"
        );
        let mut mp = MultiPaxos {
            me,
            cfg,
            tun,
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            chosen: BTreeMap::new(),
            contig: Slot::ZERO,
            delivered: Slot::ZERO,
            role: Role::Follower,
            ballot: Ballot::ZERO,
            leader_hint: None,
            promises: BTreeMap::new(),
            phase1_from: Slot::ZERO,
            next_slot: Slot::ZERO,
            proposals: BTreeMap::new(),
            pending: VecDeque::new(),
            accum: Vec::new(),
            accum_since: SimTime::ZERO,
            election_attempt: 0,
            last_heartbeat_sent: SimTime::ZERO,
            election_deadline: SimTime::ZERO,
            last_leader_heard: SimTime::ZERO,
            hb_acked: BTreeMap::new(),
            halted: false,
        };
        mp.reset_election_deadline(now);
        mp
    }

    /// Rebuilds a replica from persisted acceptor state after a crash.
    ///
    /// `items` are the `(key, value)` pairs previously written through
    /// [`Effects::persist`] (under whatever namespace the host chose, with
    /// the namespace already stripped).
    pub fn recover(
        me: NodeId,
        cfg: StaticConfig,
        now: SimTime,
        tun: PaxosTunables,
        items: impl IntoIterator<Item = (String, Vec<u8>)>,
    ) -> Self {
        let mut mp = Self::new(me, cfg, now, tun);
        for (key, value) in items {
            if key == KEY_PROMISED {
                if let Some(b) = wire::from_bytes::<Ballot>(&value) {
                    mp.promised = b;
                }
            } else if let Some(hex) = key.strip_prefix("acc/") {
                if let (Ok(slot), Some(entry)) = (
                    u64::from_str_radix(hex, 16),
                    wire::from_bytes::<(Ballot, Arc<C>)>(&value),
                ) {
                    mp.accepted.insert(Slot(slot), entry);
                }
            }
        }
        mp
    }

    // --- Accessors -------------------------------------------------------

    /// This replica's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The instance's fixed configuration.
    pub fn config(&self) -> &StaticConfig {
        &self.cfg
    }

    /// The replica's current proposer role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// True when this replica is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The node this replica believes is the leader, if any.
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.is_leader() {
            Some(self.me)
        } else {
            self.leader_hint
        }
    }

    /// The current ballot this replica campaigns/leads with.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// The first slot not yet known chosen contiguously.
    pub fn chosen_upto(&self) -> Slot {
        self.contig
    }

    /// The chosen command at `slot`, if known.
    pub fn chosen_entry(&self, slot: Slot) -> Option<&C> {
        self.chosen.get(&slot).map(|c| &**c)
    }

    /// Number of commands queued while an election is pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of phase-2 proposals awaiting a quorum.
    pub fn inflight_len(&self) -> usize {
        self.proposals.len()
    }

    /// Number of commands buffered in the leader-side batch accumulator.
    pub fn accum_len(&self) -> usize {
        self.accum.len()
    }

    /// True when this leader holds a live read lease: a quorum of members
    /// (counting itself as of `now`) has acknowledged a heartbeat sent
    /// within the configured lease duration. Always false when leases are
    /// disabled or this replica is not the leader.
    pub fn lease_valid(&self, now: SimTime) -> bool {
        let Some(lease) = self.tun.lease_duration else {
            return false;
        };
        if self.role != Role::Leader {
            return false;
        }
        // Gather acked heartbeat send times; self counts as `now`.
        let mut times: Vec<SimTime> = self
            .cfg
            .members()
            .iter()
            .filter_map(|&m| {
                if m == self.me {
                    Some(now)
                } else {
                    self.hb_acked.get(&m).copied()
                }
            })
            .collect();
        if times.len() < self.cfg.quorum() {
            return false;
        }
        // The lease is anchored at the quorum-th newest acked send time.
        times.sort_unstable_by(|a, b| b.cmp(a));
        let anchor = times[self.cfg.quorum() - 1];
        now < anchor + lease
    }

    /// Permanently freezes this instance: it emits nothing and ignores all
    /// input. Used by the composition layer when an epoch is retired.
    pub fn halt(&mut self) {
        self.halted = true;
        self.role = Role::Follower;
        self.proposals.clear();
        self.pending.clear();
        self.accum.clear();
        self.promises.clear();
    }

    /// True once [`MultiPaxos::halt`] has been called.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    // --- Inputs ----------------------------------------------------------

    /// Submits a command for replication.
    ///
    /// With batching enabled ([`PaxosTunables::max_batch`] > 1 or a
    /// bounded [`PaxosTunables::window`]) a leader may buffer the command
    /// in its accumulator instead of proposing immediately; `Accepted`
    /// then means "owned by this leader", not "assigned a slot". Buffered
    /// commands are volatile, exactly like commands queued during an
    /// election: a crash or demotion drops them and clients retransmit.
    pub fn propose(&mut self, cmd: C, now: SimTime) -> (Effects<C>, ProposeOutcome) {
        let mut fx = Effects::new();
        if self.halted {
            return (fx, ProposeOutcome::NotLeader(None));
        }
        match self.role {
            Role::Leader => {
                if self.batching_enabled() {
                    if self.accum.is_empty() {
                        self.accum_since = now;
                    }
                    self.accum.push(cmd);
                    self.flush_accum(now, &mut fx);
                } else {
                    // One allocation per command; every subsequent
                    // fan-out, retry and commit shares it by refcount.
                    let slot = self.next_slot;
                    self.next_slot = self.next_slot.next();
                    self.propose_at(slot, Arc::new(cmd), now, &mut fx);
                }
                (fx, ProposeOutcome::Accepted)
            }
            Role::Candidate => {
                self.pending.push_back(Arc::new(cmd));
                (fx, ProposeOutcome::Accepted)
            }
            Role::Follower => (fx, ProposeOutcome::NotLeader(self.leader_hint)),
        }
    }

    fn batching_enabled(&self) -> bool {
        self.tun.max_batch > 1 || self.tun.window > 0
    }

    /// True while another phase-2 proposal may start.
    fn window_open(&self) -> bool {
        self.tun.window == 0 || self.proposals.len() < self.tun.window
    }

    /// Drains the batch accumulator into phase-2 proposals, as far as the
    /// flush policy and the in-flight window allow. The policy is
    /// adaptive: flush immediately while the pipeline is idle (unloaded
    /// latency is unchanged), accumulate while proposals are in flight,
    /// and force a flush when the batch fills or the oldest buffered
    /// command has waited [`PaxosTunables::max_delay`].
    fn flush_accum(&mut self, now: SimTime, fx: &mut Effects<C>) {
        if self.role != Role::Leader {
            return;
        }
        let chunk = if C::supports_batching() {
            self.tun.max_batch.max(1)
        } else {
            1
        };
        while !self.accum.is_empty() && self.window_open() {
            let idle = self.proposals.is_empty();
            let full = self.accum.len() >= chunk;
            let overdue = now.since(self.accum_since) >= self.tun.max_delay;
            if !(idle || full || overdue) {
                return;
            }
            // Attribute the flush to the strongest trigger: a full batch
            // beats the delay deadline beats the idle fast path.
            let cause = if full {
                crate::effects::FlushCause::Full
            } else if overdue {
                crate::effects::FlushCause::Overdue
            } else {
                crate::effects::FlushCause::Idle
            };
            let waited_us = now.since(self.accum_since).as_micros();
            let take = self.accum.len().min(chunk);
            let mut cmds: Vec<C> = self.accum.drain(..take).collect();
            let cmd = if cmds.len() == 1 {
                Arc::new(cmds.pop().expect("checked"))
            } else {
                match C::batch(cmds) {
                    Some(b) => Arc::new(b),
                    None => unreachable!("chunk > 1 implies supports_batching"),
                }
            };
            let slot = self.next_slot;
            self.next_slot = self.next_slot.next();
            self.propose_at(slot, cmd, now, fx);
            fx.flushed.push(crate::effects::FlushStat {
                batch: take as u32,
                cause,
                waited_us,
                inflight: self.proposals.len() as u32,
            });
        }
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(&mut self, from: NodeId, msg: PaxosMsg<C>, now: SimTime) -> Effects<C> {
        let mut fx = Effects::new();
        if self.halted {
            return fx;
        }
        match msg {
            PaxosMsg::Prepare { ballot, from_slot } => {
                self.handle_prepare(from, ballot, from_slot, now, &mut fx)
            }
            PaxosMsg::Promise {
                ballot,
                from_slot: _,
                accepted,
                chosen_upto,
            } => self.handle_promise(from, ballot, accepted, chosen_upto, now, &mut fx),
            PaxosMsg::Accept { ballot, slot, cmd } => {
                self.handle_accept(from, ballot, slot, cmd, now, &mut fx)
            }
            PaxosMsg::Accepted { ballot, slot } => {
                self.handle_accepted(from, ballot, slot, now, &mut fx)
            }
            PaxosMsg::Reject { ballot, promised } => {
                self.handle_reject(ballot, promised, now, &mut fx)
            }
            PaxosMsg::Chosen { slot, cmd } => {
                self.learn(slot, cmd, &mut fx);
                self.last_leader_heard = now;
                self.note_leader_contact(from, now);
            }
            PaxosMsg::Heartbeat {
                ballot,
                chosen_upto,
                sent_at,
            } => self.handle_heartbeat(from, ballot, chosen_upto, sent_at, now, &mut fx),
            PaxosMsg::HeartbeatAck { ballot, sent_at } => {
                if self.role == Role::Leader && ballot == self.ballot {
                    let e = self.hb_acked.entry(from).or_insert(SimTime::ZERO);
                    *e = (*e).max(sent_at);
                }
            }
            PaxosMsg::CatchupRequest { from_slot } => {
                self.handle_catchup_request(from, from_slot, &mut fx)
            }
            PaxosMsg::CatchupReply {
                entries,
                chosen_upto: _,
            } => {
                for (slot, cmd) in entries {
                    self.learn(slot, cmd, &mut fx);
                }
            }
        }
        // Completed rounds free window slots: drain the accumulator as far
        // as the flush policy now allows.
        if !self.accum.is_empty() {
            self.flush_accum(now, &mut fx);
        }
        fx
    }

    /// Advances protocol timers: leader heartbeats and accept retries,
    /// follower/candidate election deadlines.
    pub fn tick(&mut self, now: SimTime) -> Effects<C> {
        let mut fx = Effects::new();
        if self.halted {
            return fx;
        }
        match self.role {
            Role::Leader => {
                if now.since(self.last_heartbeat_sent) >= HEARTBEAT_INTERVAL {
                    self.last_heartbeat_sent = now;
                    for peer in self.cfg.peers(self.me) {
                        fx.outbound.push((
                            peer,
                            PaxosMsg::Heartbeat {
                                ballot: self.ballot,
                                chosen_upto: self.contig,
                                sent_at: now,
                            },
                        ));
                    }
                }
                self.retry_stale_proposals(now, &mut fx);
                // Time-triggered flush: `max_delay` is enforced here, so
                // its effective resolution is the host's tick interval.
                if !self.accum.is_empty() {
                    self.flush_accum(now, &mut fx);
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, &mut fx);
                }
            }
        }
        fx
    }

    /// Immediately starts an election, without waiting for the election
    /// timeout. The composition layer uses this for zero-timeout leadership
    /// handoff into a successor epoch's instance. No-op when already leader
    /// or halted.
    pub fn campaign(&mut self, now: SimTime) -> Effects<C> {
        let mut fx = Effects::new();
        if !self.halted && self.role != Role::Leader {
            self.start_election(now, &mut fx);
        }
        fx
    }

    // --- Elections -------------------------------------------------------

    fn election_timeout(&self) -> SimDuration {
        // Deterministic per-(node, attempt) jitter plus a member-index bias
        // so concurrent first elections rarely collide.
        let idx = self
            .cfg
            .members()
            .iter()
            .position(|&n| n == self.me)
            .unwrap_or(0) as u64;
        let jitter_us = mix64(
            self.me
                .0
                .wrapping_mul(31)
                .wrapping_add(self.election_attempt),
        ) % ELECTION_JITTER.as_micros();
        ELECTION_TIMEOUT + SimDuration::from_micros(jitter_us) + SimDuration::from_millis(5) * idx
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        self.election_deadline = now + self.election_timeout();
    }

    fn start_election(&mut self, now: SimTime, fx: &mut Effects<C>) {
        self.election_attempt += 1;
        self.role = Role::Candidate;
        let base_round = self.promised.round.max(self.ballot.round);
        self.ballot = Ballot::new(base_round + 1, self.me);
        self.set_promised(self.ballot, fx);
        self.phase1_from = self.contig;
        self.promises.clear();
        let my_accepted = self.accepted_at_or_after(self.phase1_from);
        self.promises.insert(self.me, my_accepted);
        self.reset_election_deadline(now);
        for peer in self.cfg.peers(self.me) {
            fx.outbound.push((
                peer,
                PaxosMsg::Prepare {
                    ballot: self.ballot,
                    from_slot: self.phase1_from,
                },
            ));
        }
        self.check_quorum_of_promises(now, fx);
    }

    fn accepted_at_or_after(&self, from: Slot) -> Vec<(Slot, Ballot, Arc<C>)> {
        self.accepted
            .range(from..)
            .map(|(&s, (b, c))| (s, *b, c.clone()))
            .collect()
    }

    /// Whether this replica has evidence of an active leader recent
    /// enough that a competing election would be disruptive rather than
    /// necessary. Followers trust `last_leader_heard`; a leader trusts
    /// its own reign while any heartbeat ack is fresh; candidates have
    /// already judged the leader dead (and must keep granting, or two
    /// candidates surviving a real leader crash would reject each other
    /// forever).
    fn leader_is_live(&self, now: SimTime) -> bool {
        match self.role {
            Role::Leader => self.hb_acked.values().any(|&t| now < t + ELECTION_TIMEOUT),
            Role::Candidate => false,
            Role::Follower => {
                self.last_leader_heard > SimTime::ZERO
                    && now < self.last_leader_heard + ELECTION_TIMEOUT
            }
        }
    }

    fn handle_prepare(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        from_slot: Slot,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        // Disruptive-election guard (leader stickiness): while an active
        // leader is live, refuse to promise a higher ballot to anyone
        // else. A replica rejoining after a crash-restart elects itself
        // before the survivors' reconnect backoff delivers it a
        // heartbeat; without this guard it deposes a healthy leader —
        // and, being slots behind, stalls its own catch-up (which is
        // driven by *receiving* heartbeats) while it grinds through
        // re-proposals. The current leader re-preparing at a higher
        // ballot is exempt.
        if ballot > self.promised && Some(from) != self.leader_hint && self.leader_is_live(now) {
            fx.outbound.push((
                from,
                PaxosMsg::Reject {
                    ballot,
                    promised: self.promised,
                },
            ));
            return;
        }
        if ballot >= self.promised {
            self.set_promised(ballot, fx);
            if ballot > self.ballot {
                self.step_down(Some(from), fx);
            }
            self.note_leader_contact(from, now);
            fx.outbound.push((
                from,
                PaxosMsg::Promise {
                    ballot,
                    from_slot,
                    accepted: self.accepted_at_or_after(from_slot),
                    chosen_upto: self.contig,
                },
            ));
        } else {
            fx.outbound.push((
                from,
                PaxosMsg::Reject {
                    ballot,
                    promised: self.promised,
                },
            ));
        }
    }

    fn handle_promise(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        accepted: Vec<(Slot, Ballot, Arc<C>)>,
        chosen_upto: Slot,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        if self.role != Role::Candidate || ballot != self.ballot {
            return;
        }
        if chosen_upto > self.contig {
            fx.outbound.push((
                from,
                PaxosMsg::CatchupRequest {
                    from_slot: self.contig,
                },
            ));
        }
        self.promises.insert(from, accepted);
        self.check_quorum_of_promises(now, fx);
    }

    fn check_quorum_of_promises(&mut self, now: SimTime, fx: &mut Effects<C>) {
        if self.role == Role::Candidate && self.promises.len() >= self.cfg.quorum() {
            self.become_leader(now, fx);
        }
    }

    fn become_leader(&mut self, now: SimTime, fx: &mut Effects<C>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.me);
        fx.became_leader = true;

        // Merge the highest-ballot accepted value per slot across promises.
        let mut merged: BTreeMap<Slot, (Ballot, Arc<C>)> = BTreeMap::new();
        for entries in self.promises.values() {
            for (slot, b, cmd) in entries {
                if *slot < self.phase1_from {
                    continue;
                }
                match merged.get(slot) {
                    Some((existing, _)) if *existing >= *b => {}
                    _ => {
                        merged.insert(*slot, (*b, cmd.clone()));
                    }
                }
            }
        }
        self.promises.clear();

        // Complete every in-doubt slot; fill holes with no-ops.
        let max_slot = merged.keys().next_back().copied();
        let mut slot = self.phase1_from;
        if let Some(max) = max_slot {
            while slot <= max {
                if self.chosen.contains_key(&slot) {
                    slot = slot.next();
                    continue;
                }
                let cmd = merged
                    .get(&slot)
                    .map(|(_, c)| c.clone())
                    .unwrap_or_else(|| Arc::new(C::noop()));
                self.propose_at(slot, cmd, now, fx);
                slot = slot.next();
            }
        }
        self.next_slot = slot;

        // Queued client commands go straight into the pipeline.
        let queued: Vec<Arc<C>> = self.pending.drain(..).collect();
        for cmd in queued {
            let s = self.next_slot;
            self.next_slot = self.next_slot.next();
            self.propose_at(s, cmd, now, fx);
        }

        // Announce leadership immediately.
        self.last_heartbeat_sent = now;
        self.hb_acked.clear();
        for peer in self.cfg.peers(self.me) {
            fx.outbound.push((
                peer,
                PaxosMsg::Heartbeat {
                    ballot: self.ballot,
                    chosen_upto: self.contig,
                    sent_at: now,
                },
            ));
        }
    }

    fn step_down(&mut self, hint: Option<NodeId>, fx: &mut Effects<C>) {
        if self.role == Role::Leader {
            fx.lost_leadership = true;
        }
        self.role = Role::Follower;
        self.leader_hint = hint;
        self.proposals.clear();
        self.promises.clear();
        self.pending.clear();
        self.accum.clear();
        self.hb_acked.clear();
    }

    // --- Phase 2 ---------------------------------------------------------

    fn propose_at(&mut self, slot: Slot, cmd: Arc<C>, now: SimTime, fx: &mut Effects<C>) {
        debug_assert_eq!(self.role, Role::Leader);
        fx.proposed.push(slot);
        let mut acks = BTreeSet::new();
        acks.insert(self.me);
        self.proposals.insert(
            slot,
            Proposal {
                cmd: cmd.clone(),
                acks,
                last_sent: now,
                proposed_at: now,
            },
        );
        // Self-accept (write-ahead persisted).
        self.accepted.insert(slot, (self.ballot, cmd.clone()));
        fx.persist.push((
            accepted_key(slot),
            wire::to_bytes(&(self.ballot, cmd.clone())),
        ));
        for peer in self.cfg.peers(self.me) {
            fx.outbound.push((
                peer,
                PaxosMsg::Accept {
                    ballot: self.ballot,
                    slot,
                    cmd: cmd.clone(),
                },
            ));
        }
        self.maybe_choose(slot, now, fx);
    }

    fn handle_accept(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        slot: Slot,
        cmd: Arc<C>,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        if ballot >= self.promised {
            self.set_promised(ballot, fx);
            if ballot > self.ballot {
                self.step_down(Some(from), fx);
            }
            self.last_leader_heard = now;
            self.note_leader_contact(from, now);
            self.accepted.insert(slot, (ballot, cmd.clone()));
            fx.persist
                .push((accepted_key(slot), wire::to_bytes(&(ballot, cmd))));
            fx.outbound
                .push((from, PaxosMsg::Accepted { ballot, slot }));
        } else {
            fx.outbound.push((
                from,
                PaxosMsg::Reject {
                    ballot,
                    promised: self.promised,
                },
            ));
        }
    }

    fn handle_accepted(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        slot: Slot,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        if self.role != Role::Leader || ballot != self.ballot {
            return;
        }
        let quorum = self.cfg.quorum();
        if let Some(p) = self.proposals.get_mut(&slot) {
            p.acks.insert(from);
            if p.acks.len() >= quorum {
                self.maybe_choose(slot, now, fx);
            }
        }
    }

    fn maybe_choose(&mut self, slot: Slot, now: SimTime, fx: &mut Effects<C>) {
        let quorum = self.cfg.quorum();
        let ready = self
            .proposals
            .get(&slot)
            .map(|p| p.acks.len() >= quorum)
            .unwrap_or(false);
        if !ready {
            return;
        }
        let p = self.proposals.remove(&slot).expect("checked above");
        fx.commit_slot_us.push(now.since(p.proposed_at).as_micros());
        for peer in self.cfg.peers(self.me) {
            fx.outbound.push((
                peer,
                PaxosMsg::Chosen {
                    slot,
                    cmd: p.cmd.clone(),
                },
            ));
        }
        self.learn(slot, p.cmd, fx);
    }

    fn handle_reject(
        &mut self,
        ballot: Ballot,
        promised: Ballot,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        if promised > self.promised {
            self.set_promised(promised, fx);
        }
        if ballot == self.ballot && promised > self.ballot {
            match self.role {
                // A leader outbid by a rejoining replica's ballot must not
                // abdicate into a passive election-timeout wait — heartbeats
                // would stop for hundreds of milliseconds while the laggard
                // (slots behind, under the disruptive-election guard) cannot
                // win either. Re-prepare immediately at a round above the
                // rejector's; the quorum that was following this leader
                // grants at once.
                Role::Leader => self.start_election(now, fx),
                Role::Candidate => {
                    self.step_down(Some(promised.node), fx);
                    self.reset_election_deadline(now);
                }
                Role::Follower => {}
            }
        }
    }

    fn handle_heartbeat(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        chosen_upto: Slot,
        sent_at: SimTime,
        now: SimTime,
        fx: &mut Effects<C>,
    ) {
        if ballot >= self.promised {
            self.set_promised(ballot, fx);
            if ballot > self.ballot {
                self.step_down(Some(from), fx);
            }
            self.last_leader_heard = now;
            self.note_leader_contact(from, now);
            fx.outbound
                .push((from, PaxosMsg::HeartbeatAck { ballot, sent_at }));
            if chosen_upto > self.contig {
                fx.outbound.push((
                    from,
                    PaxosMsg::CatchupRequest {
                        from_slot: self.contig,
                    },
                ));
            }
        } else {
            fx.outbound.push((
                from,
                PaxosMsg::Reject {
                    ballot,
                    promised: self.promised,
                },
            ));
        }
    }

    fn handle_catchup_request(&mut self, from: NodeId, from_slot: Slot, fx: &mut Effects<C>) {
        let entries: Vec<(Slot, Arc<C>)> = self
            .chosen
            .range(from_slot..)
            .take(CATCHUP_BATCH)
            .map(|(&s, c)| (s, c.clone()))
            .collect();
        fx.outbound.push((
            from,
            PaxosMsg::CatchupReply {
                entries,
                chosen_upto: self.contig,
            },
        ));
    }

    // --- Learning --------------------------------------------------------

    fn learn(&mut self, slot: Slot, cmd: Arc<C>, fx: &mut Effects<C>) {
        if let Some(existing) = self.chosen.get(&slot) {
            debug_assert_eq!(
                *existing, cmd,
                "safety violation: slot {slot} decided twice with different values"
            );
            return;
        }
        self.chosen.insert(slot, cmd);
        self.proposals.remove(&slot);
        while self.chosen.contains_key(&self.contig) {
            self.contig = self.contig.next();
        }
        while self.delivered < self.contig {
            let s = self.delivered;
            let cmd = self.chosen.get(&s).expect("contiguous prefix").clone();
            fx.committed.push((s, cmd));
            self.delivered = self.delivered.next();
        }
    }

    fn retry_stale_proposals(&mut self, now: SimTime, fx: &mut Effects<C>) {
        let ballot = self.ballot;
        let peers = self.cfg.peers(self.me);
        for (&slot, p) in self.proposals.iter_mut() {
            if now.since(p.last_sent) < ACCEPT_RETRY {
                continue;
            }
            p.last_sent = now;
            for &peer in &peers {
                if !p.acks.contains(&peer) {
                    fx.outbound.push((
                        peer,
                        PaxosMsg::Accept {
                            ballot,
                            slot,
                            cmd: p.cmd.clone(),
                        },
                    ));
                }
            }
        }
    }

    fn set_promised(&mut self, ballot: Ballot, fx: &mut Effects<C>) {
        if ballot > self.promised {
            self.promised = ballot;
            fx.persist
                .push((KEY_PROMISED.to_owned(), wire::to_bytes(&ballot)));
        } else if ballot == self.promised {
            // Idempotent re-promise; nothing to persist.
        }
    }

    fn note_leader_contact(&mut self, from: NodeId, now: SimTime) {
        if from != self.me {
            self.leader_hint = Some(from);
            self.reset_election_deadline(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lease_duration must be below the election timeout")]
    fn a_lease_as_long_as_the_election_timeout_is_refused() {
        let tun = PaxosTunables {
            lease_duration: Some(ELECTION_TIMEOUT),
            ..PaxosTunables::default()
        };
        let cfg = StaticConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let _ = MultiPaxos::<u64>::new(NodeId(0), cfg, SimTime::ZERO, tun);
    }

    /// A zero-latency, lossless in-memory harness that shuttles messages
    /// between cores — pure protocol-logic testing without the simulator.
    struct Cluster {
        cores: BTreeMap<NodeId, MultiPaxos<u64>>,
        inbox: VecDeque<(NodeId, NodeId, PaxosMsg<u64>)>,
        committed: BTreeMap<NodeId, Vec<(Slot, u64)>>,
        /// Links (from, to) currently discarded.
        cut: BTreeSet<(NodeId, NodeId)>,
        now: SimTime,
    }

    impl Cluster {
        fn new(n: u64) -> Self {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let cfg = StaticConfig::new(members.clone());
            let now = SimTime::ZERO;
            let cores = members
                .iter()
                .map(|&m| {
                    (
                        m,
                        MultiPaxos::new(m, cfg.clone(), now, PaxosTunables::default()),
                    )
                })
                .collect();
            Cluster {
                cores,
                inbox: VecDeque::new(),
                committed: BTreeMap::new(),
                cut: BTreeSet::new(),
                now,
            }
        }

        fn absorb(&mut self, from: NodeId, fx: Effects<u64>) {
            for (to, msg) in fx.outbound {
                self.inbox.push_back((from, to, msg));
            }
            self.committed
                .entry(from)
                .or_default()
                .extend(fx.committed.into_iter().map(|(s, c)| (s, *c)));
        }

        fn tick_all(&mut self) {
            let ids: Vec<NodeId> = self.cores.keys().copied().collect();
            for id in ids {
                let fx = self.cores.get_mut(&id).unwrap().tick(self.now);
                self.absorb(id, fx);
            }
        }

        fn drain(&mut self) {
            while let Some((from, to, msg)) = self.inbox.pop_front() {
                if self.cut.contains(&(from, to)) {
                    continue;
                }
                if let Some(core) = self.cores.get_mut(&to) {
                    let fx = core.on_message(from, msg, self.now);
                    self.absorb(to, fx);
                }
            }
        }

        fn advance(&mut self, d: SimDuration) {
            self.now += d;
            self.tick_all();
            self.drain();
        }

        /// Runs until some node is leader; returns its id.
        fn elect(&mut self) -> NodeId {
            for _ in 0..1000 {
                self.advance(SimDuration::from_millis(10));
                if let Some(l) = self.leader() {
                    return l;
                }
            }
            panic!("no leader elected");
        }

        fn leader(&self) -> Option<NodeId> {
            self.cores.values().find(|c| c.is_leader()).map(|c| c.me())
        }

        fn propose_at_leader(&mut self, cmd: u64) {
            let l = self.leader().expect("need a leader");
            let (fx, out) = self.cores.get_mut(&l).unwrap().propose(cmd, self.now);
            assert_eq!(out, ProposeOutcome::Accepted);
            self.absorb(l, fx);
            self.drain();
        }

        fn isolate(&mut self, node: NodeId) {
            let ids: Vec<NodeId> = self.cores.keys().copied().collect();
            for id in ids {
                if id != node {
                    self.cut.insert((node, id));
                    self.cut.insert((id, node));
                }
            }
        }

        fn heal(&mut self) {
            self.cut.clear();
        }

        fn assert_logs_agree(&self) {
            // No two replicas may disagree on any chosen slot.
            let ids: Vec<NodeId> = self.cores.keys().copied().collect();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    let (a, b) = (&self.cores[&ids[i]], &self.cores[&ids[j]]);
                    let upto = a.chosen_upto().min(b.chosen_upto());
                    for s in 0..upto.0 {
                        assert_eq!(
                            a.chosen_entry(Slot(s)),
                            b.chosen_entry(Slot(s)),
                            "logs diverge at slot {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_elects_itself_and_commits_immediately() {
        let mut c = Cluster::new(1);
        let l = c.elect();
        assert_eq!(l, NodeId(0));
        c.propose_at_leader(7);
        assert_eq!(c.committed[&l], vec![(Slot(0), 7)]);
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut c = Cluster::new(3);
        c.elect();
        let leaders = c.cores.values().filter(|x| x.is_leader()).count();
        assert_eq!(leaders, 1);
        // Everyone agrees on the hint after a heartbeat round.
        c.advance(SimDuration::from_millis(30));
        let l = c.leader().unwrap();
        for core in c.cores.values() {
            assert_eq!(core.leader_hint(), Some(l));
        }
    }

    #[test]
    fn commands_commit_on_every_replica_in_order() {
        let mut c = Cluster::new(3);
        c.elect();
        for i in 1..=10 {
            c.propose_at_leader(i);
        }
        c.advance(SimDuration::from_millis(50));
        for (_, log) in c.committed.iter() {
            let vals: Vec<u64> = log.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, (1..=10).collect::<Vec<u64>>());
        }
        c.assert_logs_agree();
    }

    #[test]
    fn follower_propose_is_redirected() {
        let mut c = Cluster::new(3);
        let l = c.elect();
        c.advance(SimDuration::from_millis(30));
        let follower = c.cores.keys().copied().find(|&n| n != l).unwrap();
        let (_, out) = c
            .cores
            .get_mut(&follower)
            .unwrap()
            .propose(9, SimTime::ZERO);
        assert_eq!(out, ProposeOutcome::NotLeader(Some(l)));
    }

    #[test]
    fn leader_failover_preserves_committed_entries() {
        let mut c = Cluster::new(3);
        let l1 = c.elect();
        for i in 1..=5 {
            c.propose_at_leader(i);
        }
        c.advance(SimDuration::from_millis(50));
        c.isolate(l1);
        // Followers time out and elect a new leader.
        let mut l2 = l1;
        for _ in 0..500 {
            c.advance(SimDuration::from_millis(10));
            if let Some(l) = c
                .cores
                .values()
                .filter(|x| x.me() != l1 && x.is_leader())
                .map(|x| x.me())
                .next()
            {
                l2 = l;
                break;
            }
        }
        assert_ne!(l2, l1, "a new leader must emerge");
        // New leader still has the old entries and can extend the log.
        let (fx, out) = c.cores.get_mut(&l2).unwrap().propose(99, c.now);
        assert_eq!(out, ProposeOutcome::Accepted);
        c.absorb(l2, fx);
        c.drain();
        c.advance(SimDuration::from_millis(100));
        let log = &c.committed[&l2];
        let vals: Vec<u64> = log.iter().map(|&(_, v)| v).collect();
        assert!(vals.starts_with(&[1, 2, 3, 4, 5]), "prefix lost: {vals:?}");
        assert!(vals.contains(&99));
        c.assert_logs_agree();
    }

    #[test]
    fn old_leader_rejoining_steps_down_and_catches_up() {
        let mut c = Cluster::new(3);
        let l1 = c.elect();
        c.propose_at_leader(1);
        c.isolate(l1);
        for _ in 0..500 {
            c.advance(SimDuration::from_millis(10));
            if c.cores.values().any(|x| x.me() != l1 && x.is_leader()) {
                break;
            }
        }
        let l2 = c
            .cores
            .values()
            .find(|x| x.is_leader() && x.me() != l1)
            .map(|x| x.me())
            .expect("new leader");
        let (fx, _) = c.cores.get_mut(&l2).unwrap().propose(2, c.now);
        c.absorb(l2, fx);
        c.drain();
        c.heal();
        c.advance(SimDuration::from_millis(500));
        assert!(!c.cores[&l1].is_leader(), "old leader must step down");
        assert_eq!(c.cores[&l1].chosen_upto(), c.cores[&l2].chosen_upto());
        c.assert_logs_agree();
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut c = Cluster::new(3);
        let l = c.elect();
        c.isolate(l);
        let (fx, out) = c.cores.get_mut(&l).unwrap().propose(42, c.now);
        assert_eq!(out, ProposeOutcome::Accepted);
        c.absorb(l, fx);
        c.advance(SimDuration::from_millis(40));
        // The isolated leader must not have committed 42.
        assert!(c
            .committed
            .get(&l)
            .map(|v| !v.iter().any(|&(_, x)| x == 42))
            .unwrap_or(true));
    }

    #[test]
    fn recovery_restores_acceptor_state() {
        let mut c = Cluster::new(3);
        c.elect();
        c.propose_at_leader(5);
        c.advance(SimDuration::from_millis(50));

        // Capture what node 1 would have persisted by re-deriving it: crash
        // node 1 and rebuild from a synthetic store fed with its state.
        let items: Vec<(String, Vec<u8>)> = {
            let core = &c.cores[&NodeId(1)];
            let mut v = vec![(KEY_PROMISED.to_owned(), wire::to_bytes(&core.promised))];
            for (&s, e) in &core.accepted {
                v.push((accepted_key(s), wire::to_bytes(e)));
            }
            v
        };
        let cfg = c.cores[&NodeId(1)].config().clone();
        let recovered = MultiPaxos::<u64>::recover(
            NodeId(1),
            cfg,
            SimTime::ZERO,
            PaxosTunables::default(),
            items,
        );
        assert_eq!(recovered.promised, c.cores[&NodeId(1)].promised);
        assert_eq!(recovered.accepted, c.cores[&NodeId(1)].accepted);
        assert_eq!(recovered.role(), Role::Follower);
    }

    #[test]
    fn halted_instance_is_inert() {
        let mut c = Cluster::new(3);
        let l = c.elect();
        c.cores.get_mut(&l).unwrap().halt();
        assert!(c.cores[&l].is_halted());
        let (fx, out) = c.cores.get_mut(&l).unwrap().propose(1, c.now);
        assert!(fx.is_empty());
        assert_eq!(out, ProposeOutcome::NotLeader(None));
        let fx = c
            .cores
            .get_mut(&l)
            .unwrap()
            .tick(c.now + SimDuration::from_secs(10));
        assert!(fx.is_empty());
    }

    #[test]
    fn candidate_queues_commands_and_proposes_them_on_winning() {
        let mut c = Cluster::new(3);
        // Force node 0 into candidacy without letting messages flow.
        let mut fx0 = Effects::new();
        c.cores
            .get_mut(&NodeId(0))
            .unwrap()
            .start_election(c.now, &mut fx0);
        let (qfx, out) = c.cores.get_mut(&NodeId(0)).unwrap().propose(77, c.now);
        assert!(qfx.is_empty());
        assert_eq!(out, ProposeOutcome::Accepted);
        assert_eq!(c.cores[&NodeId(0)].pending_len(), 1);
        // Now deliver the election messages; 77 must eventually commit.
        c.absorb(NodeId(0), fx0);
        c.drain();
        c.advance(SimDuration::from_millis(100));
        let vals: Vec<u64> = c.committed[&NodeId(0)].iter().map(|&(_, v)| v).collect();
        assert!(vals.contains(&77), "{vals:?}");
    }

    #[test]
    fn noop_fills_holes_after_failover() {
        // Leader proposes to slot 0 and 1, but slot 0's accepts are lost to
        // all followers; a new leader must fill or complete both slots and
        // the logs must stay consistent.
        let mut c = Cluster::new(3);
        let l1 = c.elect();
        c.advance(SimDuration::from_millis(30));
        // Cut l1 off before proposing, so only l1 has the accepted entries.
        c.isolate(l1);
        let (fx, _) = c.cores.get_mut(&l1).unwrap().propose(11, c.now);
        c.absorb(l1, fx);
        let (fx, _) = c.cores.get_mut(&l1).unwrap().propose(12, c.now);
        c.absorb(l1, fx);
        c.drain(); // messages to others are cut
                   // New leader emerges among the rest and commits something.
        for _ in 0..500 {
            c.advance(SimDuration::from_millis(10));
            if c.cores.values().any(|x| x.me() != l1 && x.is_leader()) {
                break;
            }
        }
        let l2 = c
            .cores
            .values()
            .find(|x| x.is_leader() && x.me() != l1)
            .map(|x| x.me())
            .expect("new leader");
        let (fx, _) = c.cores.get_mut(&l2).unwrap().propose(99, c.now);
        c.absorb(l2, fx);
        c.drain();
        c.heal();
        for _ in 0..50 {
            c.advance(SimDuration::from_millis(10));
        }
        c.assert_logs_agree();
        // Slot 0 was decided as 99 by the new leader's quorum; the old
        // leader's competing 11 must never displace it. (Its *other*
        // proposal, 12, may legitimately be completed at a later slot by a
        // future leader — Paxos only forbids changing decided slots.)
        for core in c.cores.values() {
            assert!(core.chosen_upto() >= Slot(1));
            assert_eq!(core.chosen_entry(Slot(0)), Some(&99));
        }
    }

    #[test]
    fn leases_require_configuration_and_leadership() {
        let mut c = Cluster::new(3);
        let l = c.elect();
        // Leases disabled by default: never valid.
        assert!(!c.cores[&l].lease_valid(c.now));
    }

    #[test]
    fn lease_is_granted_by_quorum_acks_and_expires_when_isolated() {
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(members.clone());
        let tun = PaxosTunables {
            lease_duration: Some(SimDuration::from_millis(100)),
            ..PaxosTunables::default()
        };
        let mut c = Cluster::new(3);
        for &m in &members {
            c.cores.insert(
                m,
                MultiPaxos::new(m, cfg.clone(), SimTime::ZERO, tun.clone()),
            );
        }
        let l = c.elect();
        // Heartbeats + acks flow during advance; the lease becomes valid.
        c.advance(SimDuration::from_millis(30));
        assert!(
            c.cores[&l].lease_valid(c.now),
            "quorum-acked heartbeats must grant the lease"
        );
        // Followers never hold leases.
        for (&id, core) in &c.cores {
            if id != l {
                assert!(!core.lease_valid(c.now));
            }
        }
        // Isolate the leader: no fresh acks, the lease dies within its
        // duration (well before any new leader could be elected).
        c.isolate(l);
        for _ in 0..12 {
            c.advance(SimDuration::from_millis(10));
        }
        assert!(
            !c.cores[&l].lease_valid(c.now),
            "an isolated leader's lease must expire"
        );
    }

    #[test]
    fn stepping_down_drops_the_lease_immediately() {
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(members.clone());
        let tun = PaxosTunables {
            lease_duration: Some(SimDuration::from_millis(100)),
            ..PaxosTunables::default()
        };
        let mut c = Cluster::new(3);
        for &m in &members {
            c.cores.insert(
                m,
                MultiPaxos::new(m, cfg.clone(), SimTime::ZERO, tun.clone()),
            );
        }
        let l = c.elect();
        c.advance(SimDuration::from_millis(30));
        assert!(c.cores[&l].lease_valid(c.now));
        // A higher-ballot heartbeat (an established rival leader) forces a
        // step-down; the (time-wise still live) lease must be gone with
        // the role. (A bare higher *prepare* no longer deposes a leader
        // with fresh acks — that is the disruptive-election guard.)
        let higher = Ballot::new(c.cores[&l].ballot().round + 10, NodeId(1));
        let fx = c.cores.get_mut(&l).unwrap().on_message(
            NodeId(1),
            PaxosMsg::Heartbeat {
                ballot: higher,
                chosen_upto: Slot(0),
                sent_at: c.now,
            },
            c.now,
        );
        drop(fx);
        assert!(!c.cores[&l].is_leader());
        assert!(!c.cores[&l].lease_valid(c.now));
    }

    /// The disruptive-election guard: a rejoining replica's higher-ballot
    /// prepare must not depose a live leader, and the leader, once its
    /// current ballot is rejected by the laggard, re-prepares immediately
    /// at a higher round instead of waiting out an election timeout.
    #[test]
    fn a_rejoining_replica_cannot_depose_a_live_leader() {
        let mut c = Cluster::new(3);
        let l = c.elect();
        for i in 1..=5 {
            c.propose_at_leader(i);
        }
        c.advance(SimDuration::from_millis(50));
        let laggard = c.cores.keys().copied().find(|&n| n != l).unwrap();

        // The laggard campaigns out of the blue (a restart looks exactly
        // like this: fresh timers, stale log, no heartbeat heard yet).
        let fx = c.cores.get_mut(&laggard).unwrap().campaign(c.now);
        c.absorb(laggard, fx);
        c.drain();
        c.advance(SimDuration::from_millis(100));

        // The cluster must re-converge on a leader that is NOT the
        // laggard, and quickly (no election-timeout dead air).
        let new_l = c.leader().expect("a leader survives the disruption");
        assert_ne!(new_l, laggard, "the laggard must not win");
        // Commits still flow afterwards.
        c.propose_at_leader(99);
        c.advance(SimDuration::from_millis(50));
        let vals: Vec<u64> = c.committed[&new_l].iter().map(|&(_, v)| v).collect();
        assert!(vals.contains(&99), "{vals:?}");
        c.assert_logs_agree();
    }

    /// A batchable test command: `Many` carries several `One`s.
    #[derive(Clone, Debug, PartialEq)]
    enum BCmd {
        Noop,
        One(u64),
        Many(Vec<u64>),
    }

    impl wire::Wire for BCmd {
        fn encode(&self, buf: &mut Vec<u8>) {
            match self {
                BCmd::Noop => buf.push(0),
                BCmd::One(v) => {
                    buf.push(1);
                    v.encode(buf);
                }
                BCmd::Many(vs) => {
                    buf.push(2);
                    vs.encode(buf);
                }
            }
        }
        fn decode(buf: &mut &[u8]) -> Option<Self> {
            match u8::decode(buf)? {
                0 => Some(BCmd::Noop),
                1 => Some(BCmd::One(u64::decode(buf)?)),
                2 => Some(BCmd::Many(Vec::<u64>::decode(buf)?)),
                _ => None,
            }
        }
    }

    impl Command for BCmd {
        fn noop() -> Self {
            BCmd::Noop
        }
        fn supports_batching() -> bool {
            true
        }
        fn batch(cmds: Vec<Self>) -> Option<Self> {
            let mut vs = Vec::with_capacity(cmds.len());
            for c in cmds {
                match c {
                    BCmd::Noop => {}
                    BCmd::One(v) => vs.push(v),
                    BCmd::Many(inner) => vs.extend(inner),
                }
            }
            Some(BCmd::Many(vs))
        }
    }

    /// A 3-member config with two live cores; the third member never
    /// answers, so a proposal stays in flight until the follower's ack is
    /// delivered by hand — exactly the load the accumulator reacts to.
    fn loaded_pair(tun: PaxosTunables) -> (MultiPaxos<BCmd>, MultiPaxos<BCmd>) {
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(members);
        let mut leader =
            MultiPaxos::<BCmd>::new(NodeId(0), cfg.clone(), SimTime::ZERO, tun.clone());
        let mut follower = MultiPaxos::<BCmd>::new(NodeId(1), cfg, SimTime::ZERO, tun);
        // Hand-run the election: deliver only node 1's promise.
        let mut fx = Effects::new();
        leader.start_election(SimTime::ZERO, &mut fx);
        let prepare = fx
            .outbound
            .iter()
            .find(|(to, _)| *to == NodeId(1))
            .map(|(_, m)| m.clone())
            .expect("prepare to node 1");
        let pfx = follower.on_message(NodeId(0), prepare, SimTime::ZERO);
        for (to, msg) in pfx.outbound {
            if to == NodeId(0) {
                let _ = leader.on_message(NodeId(1), msg, SimTime::ZERO);
            }
        }
        assert!(leader.is_leader());
        (leader, follower)
    }

    /// Delivers every leader->follower message and every reply, returning
    /// the leader's committed entries from this exchange.
    fn pump_pair(
        leader: &mut MultiPaxos<BCmd>,
        follower: &mut MultiPaxos<BCmd>,
        fx: Effects<BCmd>,
        now: SimTime,
    ) -> Vec<(Slot, BCmd)> {
        let mut committed = Vec::new();
        let mut to_follower: VecDeque<PaxosMsg<BCmd>> = fx
            .outbound
            .into_iter()
            .filter(|(to, _)| *to == NodeId(1))
            .map(|(_, m)| m)
            .collect();
        committed.extend(fx.committed.into_iter().map(|(s, c)| (s, (*c).clone())));
        while let Some(msg) = to_follower.pop_front() {
            let ffx = follower.on_message(NodeId(0), msg, now);
            for (to, reply) in ffx.outbound {
                if to == NodeId(0) {
                    let lfx = leader.on_message(NodeId(1), reply, now);
                    committed.extend(lfx.committed.into_iter().map(|(s, c)| (s, (*c).clone())));
                    to_follower.extend(
                        lfx.outbound
                            .into_iter()
                            .filter(|(to, _)| *to == NodeId(1))
                            .map(|(_, m)| m),
                    );
                }
            }
        }
        committed
    }

    #[test]
    fn accumulator_batches_under_load_and_flushes_when_idle() {
        let tun = PaxosTunables {
            max_batch: 8,
            max_delay: SimDuration::from_secs(10),
            window: 0,
            ..PaxosTunables::default()
        };
        let (mut leader, mut follower) = loaded_pair(tun);
        let now = SimTime::ZERO;
        // Idle pipeline: the first command is proposed immediately.
        let (fx1, out) = leader.propose(BCmd::One(1), now);
        assert_eq!(out, ProposeOutcome::Accepted);
        assert_eq!(leader.inflight_len(), 1);
        assert_eq!(leader.accum_len(), 0);
        // Loaded pipeline: the next three accumulate instead of proposing.
        for v in 2..=4 {
            let (fx, out) = leader.propose(BCmd::One(v), now);
            assert_eq!(out, ProposeOutcome::Accepted);
            assert!(fx.outbound.is_empty(), "buffered, not proposed");
        }
        assert_eq!(leader.inflight_len(), 1);
        assert_eq!(leader.accum_len(), 3);
        // Deliver the first round: its completion drains the accumulator
        // as one batch.
        let committed = pump_pair(&mut leader, &mut follower, fx1, now);
        assert_eq!(leader.accum_len(), 0);
        assert_eq!(
            committed,
            vec![
                (Slot(0), BCmd::One(1)),
                (Slot(1), BCmd::Many(vec![2, 3, 4]))
            ]
        );
    }

    #[test]
    fn full_accumulator_flushes_even_under_load() {
        let tun = PaxosTunables {
            max_batch: 3,
            max_delay: SimDuration::from_secs(10),
            window: 0,
            ..PaxosTunables::default()
        };
        let (mut leader, _follower) = loaded_pair(tun);
        let now = SimTime::ZERO;
        let _ = leader.propose(BCmd::One(1), now); // occupies the pipeline
        for v in 2..=3 {
            let _ = leader.propose(BCmd::One(v), now);
        }
        assert_eq!(leader.accum_len(), 2);
        // The third buffered command fills the batch: forced flush.
        let (fx, _) = leader.propose(BCmd::One(4), now);
        assert_eq!(leader.accum_len(), 0);
        assert_eq!(leader.inflight_len(), 2);
        assert!(fx
            .outbound
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { cmd, .. }
                if **cmd == BCmd::Many(vec![2, 3, 4]))));
    }

    #[test]
    fn max_delay_forces_a_flush_on_tick() {
        let tun = PaxosTunables {
            max_batch: 100,
            max_delay: SimDuration::from_millis(50),
            window: 0,
            ..PaxosTunables::default()
        };
        let (mut leader, _follower) = loaded_pair(tun);
        let now = SimTime::ZERO;
        let _ = leader.propose(BCmd::One(1), now);
        let _ = leader.propose(BCmd::One(2), now);
        let _ = leader.propose(BCmd::One(3), now);
        assert_eq!(leader.accum_len(), 2);
        // Under the delay: tick flushes nothing.
        let _ = leader.tick(now + SimDuration::from_millis(20));
        assert_eq!(leader.accum_len(), 2);
        // Past the delay: tick forces the flush.
        let fx = leader.tick(now + SimDuration::from_millis(60));
        assert_eq!(leader.accum_len(), 0);
        assert!(fx
            .outbound
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { cmd, .. }
                if **cmd == BCmd::Many(vec![2, 3]))));
    }

    #[test]
    fn window_caps_outstanding_proposals_for_unbatchable_commands() {
        // u64 has no batch representation: the window alone applies, one
        // command per slot.
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(members.clone());
        let tun = PaxosTunables {
            window: 2,
            ..PaxosTunables::default()
        };
        let mut c = Cluster::new(3);
        for &m in &members {
            c.cores.insert(
                m,
                MultiPaxos::new(m, cfg.clone(), SimTime::ZERO, tun.clone()),
            );
        }
        let l = c.elect();
        // Propose five commands without letting any acks flow.
        for v in 1..=5 {
            let (fx, out) = c.cores.get_mut(&l).unwrap().propose(v, c.now);
            assert_eq!(out, ProposeOutcome::Accepted);
            c.absorb(l, fx);
        }
        {
            let core = &c.cores[&l];
            assert_eq!(core.inflight_len(), 2, "window caps in-flight slots");
            assert_eq!(core.accum_len(), 3);
        }
        // Draining the network completes rounds, freeing window slots
        // until everything commits in order.
        c.drain();
        c.advance(SimDuration::from_millis(50));
        let vals: Vec<u64> = c.committed[&l].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
        c.assert_logs_agree();
    }

    #[test]
    fn stepping_down_drops_the_accumulator() {
        let tun = PaxosTunables {
            max_batch: 8,
            max_delay: SimDuration::from_secs(10),
            window: 0,
            ..PaxosTunables::default()
        };
        let (mut leader, _follower) = loaded_pair(tun);
        let _ = leader.propose(BCmd::One(1), SimTime::ZERO);
        let _ = leader.propose(BCmd::One(2), SimTime::ZERO);
        assert_eq!(leader.accum_len(), 1);
        let higher = Ballot::new(leader.ballot().round + 10, NodeId(2));
        let _ = leader.on_message(
            NodeId(2),
            PaxosMsg::Prepare {
                ballot: higher,
                from_slot: Slot(0),
            },
            SimTime::ZERO,
        );
        assert!(!leader.is_leader());
        assert_eq!(leader.accum_len(), 0);
    }

    #[test]
    fn chosen_watermark_and_entries_are_exposed() {
        let mut c = Cluster::new(3);
        c.elect();
        c.propose_at_leader(3);
        c.advance(SimDuration::from_millis(50));
        let core = c.cores.values().next().unwrap();
        assert_eq!(core.chosen_upto(), Slot(1));
        assert_eq!(core.chosen_entry(Slot(0)), Some(&3));
        assert_eq!(core.chosen_entry(Slot(5)), None);
    }
}
