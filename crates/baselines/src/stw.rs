//! The **stop-the-world** reconfiguration baseline.
//!
//! Same building block, same state transfer machinery, but the naive
//! composition discipline the brief announcement argues against:
//!
//! 1. on a reconfiguration request the leader **stops admitting** client
//!    commands and *drains* the current instance (waits until every
//!    in-flight proposal commits and applies);
//! 2. only then does it append the epoch-closing `Reconfigure`;
//! 3. it **pushes** the base state to every joining member and blocks on
//!    their acks;
//! 4. only after every ack does it broadcast the start signal; replicas
//!    then switch instances, and the successor runs an ordinary election.
//!
//! Client requests arriving anywhere in (1)–(4) are bounced. The service
//! interruption window is therefore `drain + transfer + ack + election` —
//! exactly what experiments E2–E5 measure against the speculative
//! composition.
//!
//! The node speaks the same wire language as the speculative composition
//! ([`RsmrMsg`]), so the clients and the admin from `rsmr-core` drive both
//! systems unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use consensus::{MultiPaxos, PaxosTunables, ProposeOutcome, Slot, StaticConfig};
use rsmr_core::chain::{ConfigChain, Epoch};
use rsmr_core::command::{BatchEntry, Cmd};
use rsmr_core::messages::RsmrMsg;
use rsmr_core::session::{SessionDecision, SessionTable};
use rsmr_core::state_machine::StateMachine;
use rsmr_core::transfer::BaseState;
use simnet::{Actor, Context, DomainEvent, NodeId, SimDuration, SimTime, Timer};

/// Timer pump interval.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Retry interval for unacked base-state pushes.
const PUSH_RETRY: SimDuration = SimDuration::from_millis(100);
/// How long a replaced instance keeps serving catch-up.
const RETIRE_GRACE: SimDuration = SimDuration::from_secs(2);

struct Instance<O: Clone + std::fmt::Debug + PartialEq + simnet::wire::Wire + 'static> {
    paxos: MultiPaxos<Cmd<O>>,
    retire_at: Option<SimTime>,
}

/// The leader-driven handoff to the successor epoch.
struct Handoff {
    epoch: Epoch,
    cfg: StaticConfig,
    base: Vec<u8>,
    /// Joining members that have not acked the base push yet.
    awaiting: BTreeSet<NodeId>,
    last_push: SimTime,
    started: bool,
}

/// A replica of the stop-the-world reconfigurable machine.
pub struct StwNode<S: StateMachine> {
    me: NodeId,
    tun: PaxosTunables,
    chain: Option<ConfigChain>,
    instances: BTreeMap<Epoch, Instance<S::Op>>,
    /// The epoch this replica currently executes.
    current: Option<Epoch>,
    sm: S,
    sessions: SessionTable<S::Output>,
    /// Next slot of `current` to apply.
    applied_next: Slot,
    /// Committed-but-unapplied entries of `current` (out-of-creation-order
    /// arrivals after a switch).
    buffer: BTreeMap<Slot, Arc<Cmd<S::Op>>>,
    waiting: BTreeMap<(NodeId, u64), ()>,
    /// Leader-side: reconfiguration accepted, draining before proposing.
    draining: Option<(Vec<NodeId>, NodeId)>,
    /// The admin to notify when the pending reconfiguration goes live.
    pending_admin: Option<NodeId>,
    /// Post-close handoff state (every member tracks it; the old epoch's
    /// leader drives it).
    handoff: Option<Handoff>,
    /// Joining member: base installed, waiting for the start signal.
    base_installed: bool,
    /// Start signals received for epochs this replica has not finished
    /// applying up to yet (a lagging follower must drain its current epoch
    /// through the close before switching, or it would lose suffix
    /// commands).
    pending_starts: BTreeMap<Epoch, StaticConfig>,
    applied_count: u64,
    /// Highest epoch that has applied a command — the watermark behind the
    /// `FirstCommit` event ending each handoff gap.
    commit_seen_epoch: Option<Epoch>,
    /// Queue of commands proposed but discarded by a close; kept for
    /// accounting only.
    _parked: VecDeque<(NodeId, u64)>,
}

impl<S: StateMachine + Default> StwNode<S> {
    /// Creates a genesis member.
    pub fn genesis(me: NodeId, initial: StaticConfig, tun: PaxosTunables) -> Self {
        Self::genesis_with(me, initial, tun, S::default())
    }

    /// Creates a joining member that waits for a pushed base state.
    pub fn joining(me: NodeId, tun: PaxosTunables) -> Self {
        Self::bare(me, tun, S::default())
    }
}

impl<S: StateMachine> StwNode<S> {
    /// Creates a genesis member with an explicit initial application state.
    pub fn genesis_with(me: NodeId, initial: StaticConfig, tun: PaxosTunables, sm: S) -> Self {
        assert!(initial.contains(me));
        let mut node = Self::bare(me, tun, sm);
        node.chain = Some(ConfigChain::genesis(initial.clone()));
        node.current = Some(Epoch::ZERO);
        node.instances.insert(
            Epoch::ZERO,
            Instance {
                paxos: MultiPaxos::new(me, initial, SimTime::ZERO, node.tun.clone()),
                retire_at: None,
            },
        );
        node
    }

    fn bare(me: NodeId, tun: PaxosTunables, sm: S) -> Self {
        StwNode {
            me,
            tun,
            chain: None,
            instances: BTreeMap::new(),
            current: None,
            sm,
            sessions: SessionTable::new(),
            applied_next: Slot::ZERO,
            buffer: BTreeMap::new(),
            waiting: BTreeMap::new(),
            draining: None,
            pending_admin: None,
            handoff: None,
            base_installed: false,
            pending_starts: BTreeMap::new(),
            applied_count: 0,
            commit_seen_epoch: None,
            _parked: VecDeque::new(),
        }
    }

    /// The epoch this replica executes, if any.
    pub fn current_epoch(&self) -> Option<Epoch> {
        self.current
    }

    /// True while a reconfiguration blocks the service at this replica.
    pub fn is_blocked(&self) -> bool {
        self.draining.is_some() || self.handoff.as_ref().map(|h| !h.started).unwrap_or(false)
    }

    /// Read access to the application state.
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// Commands applied by this replica.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// True if this replica leads its current instance.
    pub fn is_current_leader(&self) -> bool {
        self.current
            .and_then(|e| self.instances.get(&e))
            .map(|i| i.paxos.is_leader())
            .unwrap_or(false)
    }

    fn members(&self) -> Vec<NodeId> {
        self.chain
            .as_ref()
            .map(|c| c.latest_config().members().to_vec())
            .unwrap_or_default()
    }

    fn process_effects(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        fx: consensus::Effects<Cmd<S::Op>>,
    ) {
        for (to, inner) in fx.outbound {
            ctx.send(to, RsmrMsg::Paxos { epoch, inner });
        }
        if fx.became_leader {
            ctx.metrics().incr("stw.leader_elections", 1);
        }
        for slot in fx.proposed {
            ctx.emit_event(DomainEvent::CmdProposed {
                epoch: epoch.0,
                slot: slot.0,
            });
        }
        if Some(epoch) == self.current && !fx.committed.is_empty() {
            for (slot, cmd) in fx.committed {
                ctx.emit_event(DomainEvent::CmdCommitted {
                    epoch: epoch.0,
                    slot: slot.0,
                });
                self.buffer.insert(slot, cmd);
            }
            self.drain_applies(ctx);
        }
    }

    fn drain_applies(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        while let Some(cmd) = self.buffer.remove(&self.applied_next) {
            let slot = self.applied_next;
            self.applied_next = self.applied_next.next();
            match &*cmd {
                Cmd::Noop => {}
                Cmd::App { client, seq, op } => {
                    self.note_first_commit(ctx, slot);
                    self.apply_app(ctx, slot, *client, *seq, op);
                }
                Cmd::Batch { entries } => {
                    // Batch-aware close: apply the prefix before the first
                    // intra-batch `Reconfigure`, then close there. stw
                    // drops the tail (clients retransmit), matching its
                    // slot-granular prefix rule below.
                    let close = entries
                        .iter()
                        .position(|e| matches!(e, BatchEntry::Reconfigure { .. }));
                    let prefix_end = close.unwrap_or(entries.len());
                    if prefix_end > 0 {
                        self.note_first_commit(ctx, slot);
                    }
                    for entry in &entries[..prefix_end] {
                        if let BatchEntry::App { client, seq, op } = entry {
                            self.apply_app(ctx, slot, *client, *seq, op);
                        }
                    }
                    if let Some(idx) = close {
                        let BatchEntry::Reconfigure { members } = &entries[idx] else {
                            unreachable!("position() found a Reconfigure");
                        };
                        let members = members.clone();
                        self.on_close(ctx, slot, members);
                        self.buffer.clear();
                        break;
                    }
                }
                Cmd::Reconfigure { members } => {
                    let members = members.clone();
                    self.on_close(ctx, slot, members);
                    // Prefix rule: nothing after the first close is applied.
                    self.buffer.clear();
                    break;
                }
            }
        }
    }

    /// Emits `FirstCommit` the first time an application command applies in
    /// the current epoch (epochs only move forward, so one watermark
    /// suffices).
    fn note_first_commit(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>, slot: Slot) {
        let Some(epoch) = self.current else { return };
        if self.commit_seen_epoch.is_none_or(|e| e < epoch) {
            self.commit_seen_epoch = Some(epoch);
            ctx.emit_event(DomainEvent::FirstCommit {
                epoch: epoch.0,
                slot: slot.0,
            });
        }
    }

    fn apply_app(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        slot: Slot,
        client: NodeId,
        seq: u64,
        op: &S::Op,
    ) {
        let output = match self.sessions.check(client, seq) {
            SessionDecision::Fresh => {
                let out = self.sm.apply(op);
                self.sessions.record(client, seq, out.clone());
                self.applied_count += 1;
                ctx.metrics().incr("stw.applied", 1);
                ctx.emit_event(DomainEvent::CmdApplied {
                    client,
                    seq,
                    epoch: self.current.map(|e| e.0).unwrap_or(0),
                    slot: slot.0,
                });
                let now = ctx.now();
                ctx.metrics().timeline_push("rsmr.commits", now, 1.0);
                out
            }
            SessionDecision::Duplicate(out) => out,
            SessionDecision::Stale => {
                self.waiting.remove(&(client, seq));
                return;
            }
        };
        if self.waiting.remove(&(client, seq)).is_some() {
            let members = self.members();
            ctx.send(
                client,
                RsmrMsg::Reply {
                    seq,
                    output,
                    members,
                },
            );
        }
    }

    /// The close command applied: freeze, capture the base, begin (or
    /// await) the leader-driven handoff.
    fn on_close(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        slot: Slot,
        members: Vec<NodeId>,
    ) {
        let old = self.current.expect("applying implies a current epoch");
        let successor = old.next();
        let cfg = StaticConfig::new(members);
        self.chain
            .as_mut()
            .expect("executing nodes have a chain")
            .append(successor, cfg.clone());
        // The control deliberately stays monolithic: every page is
        // encoded fresh at seal time and shipped as one blob — the cost
        // the chunked/incremental composition is measured against.
        let base = BaseState::<S::Output> {
            epoch: successor,
            pages: (0..self.sm.snapshot_pages())
                .map(|i| Arc::new(self.sm.snapshot_page(i)))
                .collect(),
            sessions: self.sessions.clone(),
            chain: self.chain.clone().expect("just used"),
        };
        let joiners: BTreeSet<NodeId> = cfg
            .members()
            .iter()
            .copied()
            .filter(|&m| {
                !self
                    .chain
                    .as_ref()
                    .and_then(|c| c.config(old))
                    .map(|c| c.contains(m))
                    .unwrap_or(false)
            })
            .collect();
        let base_bytes = base.encode_bytes();
        ctx.metrics()
            .incr("transfer.encode_bytes", base_bytes.len() as u64);
        self.handoff = Some(Handoff {
            epoch: successor,
            cfg,
            base: base_bytes,
            awaiting: joiners,
            last_push: SimTime::ZERO,
            started: false,
        });
        self.draining = None;
        let now = ctx.now();
        ctx.metrics().incr("stw.epochs_closed", 1);
        ctx.metrics()
            .timeline_push("rsmr.epoch_closed", now, old.0 as f64);
        ctx.emit_event(DomainEvent::EpochSealed {
            epoch: old.0,
            seal_slot: slot.0,
        });
        self.pump_handoff(ctx);
        self.maybe_start(ctx);
    }

    /// Leader-only: push bases, collect acks, broadcast the start signal.
    fn pump_handoff(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let old = match self.current {
            Some(e) => e,
            None => return,
        };
        let am_leader = self
            .instances
            .get(&old)
            .map(|i| i.paxos.is_leader())
            .unwrap_or(false);
        let Some(handoff) = &mut self.handoff else {
            return;
        };
        if handoff.started || !am_leader {
            return;
        }
        if !handoff.awaiting.is_empty() {
            // The retransmit timeout must scale with the blob: a fixed
            // interval shorter than the blob's own wire time would queue
            // duplicate multi-megabyte copies behind the egress port long
            // before the first copy can possibly be acked. One `PUSH_RETRY`
            // per 64 KiB models a pessimistic transport floor (~640 KB/s at
            // the 100 ms default) while keeping small-state retries prompt.
            let units = 1 + handoff.base.len() as u64 / (64 * 1024);
            let timeout = PUSH_RETRY * units;
            if ctx.now().since(handoff.last_push) >= timeout || handoff.last_push == SimTime::ZERO {
                handoff.last_push = ctx.now();
                for &m in handoff.awaiting.iter() {
                    ctx.metrics()
                        .incr("rsmr.transfer_bytes", handoff.base.len() as u64);
                    ctx.emit_event(DomainEvent::TransferServed {
                        epoch: handoff.epoch.0,
                        to: m,
                        bytes: handoff.base.len() as u64,
                    });
                    ctx.send(
                        m,
                        RsmrMsg::TransferReply {
                            epoch: handoff.epoch,
                            base: Some(handoff.base.clone()),
                        },
                    );
                }
            }
            return;
        }
        // Every joiner installed the base: start the successor everywhere.
        handoff.started = true;
        let epoch = handoff.epoch;
        let members = handoff.cfg.members().to_vec();
        for &m in &members {
            if m != self.me {
                ctx.send(
                    m,
                    RsmrMsg::Activate {
                        epoch,
                        members: members.clone(),
                    },
                );
            }
        }
        if let Some(admin) = self.pending_admin.take() {
            ctx.send(
                admin,
                RsmrMsg::ReconfigureReply {
                    epoch,
                    ok: true,
                    leader: None,
                },
            );
        }
        self.start_successor(ctx, epoch);
    }

    /// Switch execution to the successor instance.
    fn start_successor(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>, epoch: Epoch) {
        let Some(handoff) = self.handoff.take() else {
            return;
        };
        debug_assert_eq!(handoff.epoch, epoch);
        if let Some(old) = self.current.take() {
            if let Some(inst) = self.instances.get_mut(&old) {
                inst.retire_at = Some(ctx.now() + RETIRE_GRACE);
            }
        }
        if handoff.cfg.contains(self.me) {
            self.instances.entry(epoch).or_insert_with(|| Instance {
                paxos: MultiPaxos::new(self.me, handoff.cfg.clone(), ctx.now(), self.tun.clone()),
                retire_at: None,
            });
            self.current = Some(epoch);
        } else {
            self.current = None; // removed from service
        }
        self.applied_next = Slot::ZERO;
        self.buffer.clear();
        self.waiting.clear(); // bounced clients will retransmit
        let now = ctx.now();
        ctx.metrics().incr("stw.epochs_started", 1);
        ctx.metrics()
            .timeline_push("rsmr.epoch_finalized", now, epoch.0 as f64);
        ctx.emit_event(DomainEvent::Anchored { epoch: epoch.0 });
    }

    fn handle_request(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        client: NodeId,
        seq: u64,
        op: S::Op,
    ) {
        match self.sessions.check(client, seq) {
            SessionDecision::Duplicate(output) => {
                let members = self.members();
                ctx.send(
                    client,
                    RsmrMsg::Reply {
                        seq,
                        output,
                        members,
                    },
                );
                return;
            }
            SessionDecision::Stale => return,
            SessionDecision::Fresh => {}
        }
        // The whole point of this baseline: reconfiguration blocks service.
        if self.is_blocked() {
            ctx.metrics().incr("stw.bounced_requests", 1);
            let members = self.members();
            ctx.send(
                client,
                RsmrMsg::Redirect {
                    seq,
                    leader: None,
                    members,
                },
            );
            return;
        }
        let Some(current) = self.current else {
            return;
        };
        let inst = self.instances.get_mut(&current).expect("current exists");
        let (fx, outcome) = inst.paxos.propose(Cmd::App { client, seq, op }, ctx.now());
        match outcome {
            ProposeOutcome::Accepted => {
                self.waiting.insert((client, seq), ());
            }
            ProposeOutcome::NotLeader(leader) => {
                let members = self.members();
                ctx.send(
                    client,
                    RsmrMsg::Redirect {
                        seq,
                        leader,
                        members,
                    },
                );
            }
        }
        self.process_effects(ctx, current, fx);
    }

    fn handle_reconfigure(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        admin: NodeId,
        members: Vec<NodeId>,
    ) {
        let Some(current) = self.current else { return };
        if members.is_empty() {
            ctx.send(
                admin,
                RsmrMsg::ReconfigureReply {
                    epoch: current,
                    ok: false,
                    leader: None,
                },
            );
            return;
        }
        let requested = StaticConfig::new(members.clone());
        if self
            .chain
            .as_ref()
            .map(|c| c.latest_config() == &requested)
            .unwrap_or(false)
        {
            let epoch = self.chain.as_ref().expect("checked").latest_epoch();
            ctx.send(
                admin,
                RsmrMsg::ReconfigureReply {
                    epoch,
                    ok: true,
                    leader: None,
                },
            );
            return;
        }
        if self.is_blocked() {
            ctx.send(
                admin,
                RsmrMsg::ReconfigureReply {
                    epoch: current,
                    ok: false,
                    leader: Some(self.me),
                },
            );
            return;
        }
        let inst = self.instances.get(&current).expect("current exists");
        if !inst.paxos.is_leader() {
            let hint = inst.paxos.leader_hint();
            ctx.send(
                admin,
                RsmrMsg::ReconfigureReply {
                    epoch: current,
                    ok: false,
                    leader: hint,
                },
            );
            return;
        }
        // Enter the drain phase: stop admitting, wait for in-flight
        // proposals to finish, then append the close command.
        self.draining = Some((members, admin));
        self.pending_admin = Some(admin);
        let now = ctx.now();
        ctx.metrics().incr("stw.reconfigs_accepted", 1);
        ctx.metrics()
            .timeline_push("rsmr.reconfig_proposed", now, current.0 as f64);
        ctx.emit_event(DomainEvent::ReconfigProposed { epoch: current.0 });
        self.try_finish_drain(ctx);
    }

    fn try_finish_drain(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let Some(current) = self.current else { return };
        let Some((members, _admin)) = self.draining.clone() else {
            return;
        };
        let drained = {
            let inst = self.instances.get(&current).expect("current exists");
            inst.paxos.is_leader()
                && inst.paxos.inflight_len() == 0
                && inst.paxos.pending_len() == 0
                && inst.paxos.accum_len() == 0
                && inst.paxos.chosen_upto() == self.applied_next
        };
        if !drained {
            return;
        }
        let inst = self.instances.get_mut(&current).expect("current exists");
        let (fx, outcome) = inst.paxos.propose(Cmd::Reconfigure { members }, ctx.now());
        if let ProposeOutcome::NotLeader(_) = outcome {
            // Lost leadership between checks; the admin will retry.
            self.draining = None;
            self.pending_admin = None;
        }
        self.process_effects(ctx, current, fx);
    }

    fn handle_activate(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        epoch: Epoch,
        members: Vec<NodeId>,
    ) {
        if self.current.map(|c| c >= epoch).unwrap_or(false) {
            return; // already switched
        }
        let cfg = StaticConfig::new(members);
        // A joiner with an installed base starts the activated epoch
        // directly: its base *is* the epoch's initial state.
        if self.current.is_none() {
            if !self.base_installed {
                return;
            }
            self.handoff = Some(Handoff {
                epoch,
                cfg,
                base: Vec::new(),
                awaiting: BTreeSet::new(),
                last_push: ctx.now(),
                started: true,
            });
            self.start_successor(ctx, epoch);
            return;
        }
        // An existing member: record the start signal and switch only once
        // the close has been applied locally (otherwise suffix commands of
        // the current epoch would be lost).
        self.pending_starts.insert(epoch, cfg);
        self.maybe_start(ctx);
    }

    /// Switches to the successor if its close has been applied locally and
    /// its start signal has arrived.
    fn maybe_start(&mut self, ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>) {
        let Some(h) = &mut self.handoff else { return };
        if !h.started {
            if self.pending_starts.remove(&h.epoch).is_none() {
                return;
            }
            h.started = true;
        }
        let epoch = h.epoch;
        self.pending_starts.retain(|&e, _| e > epoch);
        self.start_successor(ctx, epoch);
    }

    fn handle_pushed_base(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
        bytes: Vec<u8>,
    ) {
        // Only joiners (no current instance) install pushed bases.
        if self.current.is_some() {
            ctx.send(from, RsmrMsg::TransferAck { epoch });
            return;
        }
        if !self.base_installed {
            let Some(base) = BaseState::<S::Output>::decode_bytes(&bytes) else {
                return;
            };
            let Some(sm) = S::restore_pages(&base.pages) else {
                return;
            };
            self.sm = sm;
            self.sessions = base.sessions.clone();
            self.chain = Some(base.chain.clone());
            self.base_installed = true;
            ctx.metrics().incr("stw.bases_installed", 1);
        }
        ctx.send(from, RsmrMsg::TransferAck { epoch });
    }

    fn handle_ack(
        &mut self,
        ctx: &mut Context<'_, RsmrMsg<S::Op, S::Output>>,
        from: NodeId,
        epoch: Epoch,
    ) {
        if let Some(h) = &mut self.handoff {
            if h.epoch == epoch {
                h.awaiting.remove(&from);
            }
        }
        self.pump_handoff(ctx);
    }
}

impl<S: StateMachine> Actor for StwNode<S> {
    type Msg = RsmrMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            RsmrMsg::Paxos { epoch, inner } => {
                if let Some(inst) = self.instances.get_mut(&epoch) {
                    let fx = inst.paxos.on_message(from, inner, ctx.now());
                    self.process_effects(ctx, epoch, fx);
                } else if self.current == Some(epoch.prev()) || self.current.is_none() {
                    // Either not switched yet (traffic for the successor
                    // races the Activate) or a joiner pre-start: drop; the
                    // protocol's retries recover.
                    ctx.metrics().incr("stw.unroutable_paxos", 1);
                }
            }
            RsmrMsg::Request { seq, op } => self.handle_request(ctx, from, seq, op),
            RsmrMsg::Reconfigure { members } => self.handle_reconfigure(ctx, from, members),
            RsmrMsg::Activate { epoch, members } => self.handle_activate(ctx, epoch, members),
            RsmrMsg::TransferReply {
                epoch,
                base: Some(bytes),
            } => self.handle_pushed_base(ctx, from, epoch, bytes),
            RsmrMsg::TransferAck { epoch } => self.handle_ack(ctx, from, epoch),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        let now = ctx.now();
        let epochs: Vec<Epoch> = self.instances.keys().copied().collect();
        for epoch in epochs {
            let fx = {
                let Some(inst) = self.instances.get_mut(&epoch) else {
                    continue;
                };
                if let Some(at) = inst.retire_at {
                    if now >= at {
                        inst.paxos.halt();
                        self.instances.remove(&epoch);
                        continue;
                    }
                }
                inst.paxos.tick(now)
            };
            self.process_effects(ctx, epoch, fx);
        }
        self.try_finish_drain(ctx);
        self.pump_handoff(ctx);
        ctx.set_timer(TICK, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsmr_core::state_machine::CounterSm;

    #[test]
    fn genesis_node_serves_epoch_zero() {
        let cfg = StaticConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let node: StwNode<CounterSm> = StwNode::genesis(NodeId(0), cfg, PaxosTunables::default());
        assert_eq!(node.current_epoch(), Some(Epoch::ZERO));
        assert!(!node.is_blocked());
        assert_eq!(node.applied_count(), 0);
    }

    #[test]
    fn joining_node_has_no_epoch() {
        let node: StwNode<CounterSm> = StwNode::joining(NodeId(5), PaxosTunables::default());
        assert_eq!(node.current_epoch(), None);
        assert!(!node.is_blocked());
    }
}
