//! `simnet` actors for the Raft baseline: replica, client and admin.

use std::collections::BTreeMap;

use consensus::StaticConfig;
use rsmr_core::command::{BatchEntry, Cmd};
use rsmr_core::session::{SessionDecision, SessionTable};
use rsmr_core::state_machine::StateMachine;
use simnet::wire;
use simnet::{Actor, Context, DomainEvent, NodeId, RetryBackoff, SimDuration, SimTime, Timer};

use super::core::{RaftCore, RaftEffects, RaftPropose};
use super::msg::{Index, RaftMsg};

/// How often the replica pumps the core's timers.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Compact the log once this many applied entries accumulate.
const COMPACT_THRESHOLD: u64 = 1024;
/// Namespace prefix for the core's hard-state keys in the stable store.
const PERSIST_PREFIX: &str = "raft/";

/// Batching knob of the Raft replica.
#[derive(Clone, Debug, Default)]
pub struct RaftTunables {
    /// Leader-side command batching: accumulate up to this many client
    /// commands and append them as one `Cmd::Batch` log entry (flushed
    /// when the buffer fills or at the next tick). `0` disables batching.
    pub cmd_batch: usize,
}

/// A Raft replica hosting a [`StateMachine`].
pub struct RaftNode<S: StateMachine> {
    core: RaftCore<S::Op>,
    sm: S,
    sessions: SessionTable<S::Output>,
    waiting: BTreeMap<(NodeId, u64), ()>,
    /// An admin's pending config change: `(admin, config entry index)`.
    pending_admin: Option<(NodeId, Index)>,
    applied_count: u64,
    /// Configuration era: how many `Reconfigure` entries this replica has
    /// applied. Raft has no epochs; the era stands in for one in the typed
    /// event stream so cross-system span derivations line up.
    config_era: u64,
    /// Leader-side command batching threshold ([`RaftTunables::cmd_batch`]).
    cmd_batch: usize,
    /// Commands accumulated toward the next `Cmd::Batch` entry.
    batch_buf: Vec<(NodeId, u64, S::Op)>,
}

impl<S: StateMachine + Default> RaftNode<S> {
    /// Creates a member of the initial cluster.
    pub fn new(me: NodeId, initial: StaticConfig, tun: RaftTunables) -> Self {
        Self::with_core(RaftCore::new(me, initial, SimTime::ZERO), S::default(), tun)
    }

    /// Creates a blank joining node, brought up by the leader via snapshot
    /// and log replication after it is added to the configuration.
    pub fn joining(me: NodeId, tun: RaftTunables) -> Self {
        Self::with_core(RaftCore::blank(me), S::default(), tun)
    }

    /// Rebuilds a replica from its stable store after a crash: hard state
    /// (term/vote), snapshot and log come back from storage; the app state
    /// and session table are restored from the snapshot payload, and the
    /// suffix above the snapshot re-applies as the new leader's commit
    /// index reaches this node.
    pub fn recover(me: NodeId, tun: RaftTunables, store: &simnet::StableStore) -> Self {
        let items: Vec<(String, Vec<u8>)> = store
            .keys_with_prefix(PERSIST_PREFIX)
            .map(|k| {
                (
                    k[PERSIST_PREFIX.len()..].to_owned(),
                    store.get(k).expect("key just listed").to_vec(),
                )
            })
            .collect();
        let core = RaftCore::recover(me, SimTime::ZERO, items);
        let mut node = Self::with_core(core, S::default(), tun);
        // Resume era labelling from the snapshot: `Reconfigure` entries
        // compacted into it are no longer in the log to be re-counted.
        node.config_era = node.core.snap_eras();
        let payload = node.core.snapshot_data().to_vec();
        if !payload.is_empty() {
            node.restore_payload(&payload);
        }
        node
    }
}

impl<S: StateMachine> RaftNode<S> {
    /// Creates a member of the initial cluster with an explicit initial
    /// application state. The state is carried as a genesis snapshot so
    /// that later joiners receive it through `InstallSnapshot`.
    pub fn with_state(me: NodeId, initial: StaticConfig, tun: RaftTunables, sm: S) -> Self {
        let sessions: SessionTable<S::Output> = SessionTable::new();
        let payload = wire::to_bytes(&(sm.snapshot(), sessions));
        let core = RaftCore::with_genesis_snapshot(me, initial, payload, SimTime::ZERO);
        Self::with_core(core, sm, tun)
    }

    fn with_core(core: RaftCore<S::Op>, sm: S, tun: RaftTunables) -> Self {
        RaftNode {
            core,
            sm,
            sessions: SessionTable::new(),
            waiting: BTreeMap::new(),
            pending_admin: None,
            applied_count: 0,
            config_era: 0,
            cmd_batch: tun.cmd_batch,
            batch_buf: Vec::new(),
        }
    }

    /// The protocol core (read-only).
    pub fn core(&self) -> &RaftCore<S::Op> {
        &self.core
    }

    /// Read access to the application state.
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// Commands applied by this replica.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    fn snapshot_payload(&self) -> Vec<u8> {
        wire::to_bytes(&(self.sm.snapshot(), self.sessions.clone()))
    }

    fn restore_payload(&mut self, data: &[u8]) -> bool {
        let Some((app, sessions)) = wire::from_bytes::<(Vec<u8>, SessionTable<S::Output>)>(data)
        else {
            return false;
        };
        let Some(sm) = S::restore(&app) else {
            return false;
        };
        self.sm = sm;
        self.sessions = sessions;
        true
    }

    fn process_effects(
        &mut self,
        ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>,
        fx: RaftEffects<S::Op>,
    ) {
        // Write-ahead: in the simulator, outbound messages emitted below are
        // not delivered until this callback returns, so persisting here
        // (before or after `send`) is equivalent to persisting first.
        for (key, value) in fx.persist {
            ctx.storage().put(&format!("{PERSIST_PREFIX}{key}"), value);
        }
        for key in fx.unpersist {
            ctx.storage().remove(&format!("{PERSIST_PREFIX}{key}"));
        }
        for (to, rpc) in fx.outbound {
            ctx.send(to, RaftMsg::Rpc(rpc));
        }
        if fx.became_leader {
            ctx.metrics().incr("raft.leader_elections", 1);
        }
        if let Some(data) = fx.installed_snapshot {
            if self.restore_payload(&data) {
                // The snapshot may absorb `Reconfigure` entries this node
                // never applied; jump the era counter to match.
                self.config_era = self.core.snap_eras();
                ctx.metrics().incr("raft.snapshots_installed", 1);
            } else {
                ctx.metrics().incr("raft.snapshot_decode_failures", 1);
            }
        }
        for (index, cmd) in fx.committed {
            let era = self.config_era;
            ctx.emit_event(DomainEvent::CmdCommitted {
                epoch: era,
                slot: index,
            });
            match &*cmd {
                Cmd::Noop => {}
                Cmd::App { client, seq, op } => self.apply_app(ctx, index, *client, *seq, op),
                Cmd::Batch { entries } => {
                    // Raft applies the whole log, so an intra-batch
                    // `Reconfigure` needs no truncation: apps before and
                    // after it apply in order, and the config entry bumps
                    // the era exactly like a top-level one.
                    for entry in entries {
                        match entry {
                            BatchEntry::App { client, seq, op } => {
                                self.apply_app(ctx, index, *client, *seq, op)
                            }
                            BatchEntry::Reconfigure { .. } => self.commit_config(ctx, index),
                        }
                    }
                }
                Cmd::Reconfigure { .. } => self.commit_config(ctx, index),
            }
        }
        // Compaction keeps the log bounded (and exercises InstallSnapshot
        // for joiners). A margin of recent entries is retained so healthy
        // followers that lag by a few in-flight entries are served from
        // the log rather than with a full snapshot.
        const COMPACT_MARGIN: u64 = 64;
        let upto = self.core.delivered_index().saturating_sub(COMPACT_MARGIN);
        if upto.saturating_sub(self.core.snapshot_index()) > COMPACT_THRESHOLD {
            let payload = self.snapshot_payload();
            let cfx = self.core.compact(upto, payload);
            for (key, value) in cfx.persist {
                ctx.storage().put(&format!("{PERSIST_PREFIX}{key}"), value);
            }
            for key in cfx.unpersist {
                ctx.storage().remove(&format!("{PERSIST_PREFIX}{key}"));
            }
            ctx.metrics().incr("raft.compactions", 1);
        }
    }

    /// Appends the accumulated commands as one `Cmd::Batch` log entry.
    fn flush_cmd_batch(&mut self, ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>) {
        if self.batch_buf.is_empty() {
            return;
        }
        let buffered = std::mem::take(&mut self.batch_buf);
        let keys: Vec<(NodeId, u64)> = buffered.iter().map(|(c, s, _)| (*c, *s)).collect();
        let entries: Vec<BatchEntry<S::Op>> = buffered
            .into_iter()
            .map(|(client, seq, op)| BatchEntry::App { client, seq, op })
            .collect();
        let (fx, res) = self.core.propose(Cmd::Batch { entries }, ctx.now());
        match res {
            RaftPropose::Appended(_) => {
                ctx.metrics().incr("raft.batches_appended", 1);
                ctx.metrics().incr("raft.batched_cmds", keys.len() as u64);
                for key in keys {
                    self.waiting.insert(key, ());
                }
            }
            RaftPropose::NotLeader(_) | RaftPropose::BadReconfigure => {
                // Lost leadership between accumulation and flush: redirect
                // so the clients retry against the new leader.
                for (client, seq) in keys {
                    ctx.send(
                        client,
                        RaftMsg::Redirect {
                            seq,
                            leader: self.core.leader_hint(),
                            members: self.core.current_members(),
                        },
                    );
                }
            }
        }
        self.process_effects(ctx, fx);
    }

    /// A committed configuration entry (top-level or intra-batch): the era
    /// ends where the entry commits; the next one is live immediately (no
    /// transfer phase in Raft).
    fn commit_config(&mut self, ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>, index: Index) {
        let era = self.config_era;
        let now = ctx.now();
        ctx.metrics().incr("raft.config_commits", 1);
        ctx.metrics()
            .timeline_push("rsmr.epoch_finalized", now, index as f64);
        ctx.emit_event(DomainEvent::EpochSealed {
            epoch: era,
            seal_slot: index,
        });
        self.config_era += 1;
        ctx.emit_event(DomainEvent::Anchored {
            epoch: self.config_era,
        });
        // Resolve the admin waiting on this entry.
        if let Some((admin, at)) = self.pending_admin {
            if index >= at {
                self.pending_admin = None;
                ctx.send(
                    admin,
                    RaftMsg::ReconfigureReply {
                        ok: true,
                        leader: Some(self.core.id()),
                        members: self.core.current_members(),
                    },
                );
            }
        }
        // A leader removed by the committed config steps down.
        if self.core.is_leader() && !self.core.current_members().contains(&self.core.id()) {
            self.core.abdicate();
        }
    }

    fn apply_app(
        &mut self,
        ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>,
        index: Index,
        client: NodeId,
        seq: u64,
        op: &S::Op,
    ) {
        let output = match self.sessions.check(client, seq) {
            SessionDecision::Fresh => {
                let out = self.sm.apply(op);
                self.sessions.record(client, seq, out.clone());
                self.applied_count += 1;
                ctx.metrics().incr("raft.applied", 1);
                ctx.emit_event(DomainEvent::CmdApplied {
                    client,
                    seq,
                    epoch: self.config_era,
                    slot: index,
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
            ctx.send(
                client,
                RaftMsg::Reply {
                    seq,
                    output,
                    members: self.core.current_members(),
                },
            );
        }
    }
}

impl<S: StateMachine> Actor for RaftNode<S> {
    type Msg = RaftMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // Persist the genesis hard state so a crash before the first
        // protocol step still recovers the configuration and app image.
        if ctx
            .storage()
            .get(&format!("{PERSIST_PREFIX}snap"))
            .is_none()
        {
            for (key, value) in self.core.bootstrap_persist() {
                ctx.storage().put(&format!("{PERSIST_PREFIX}{key}"), value);
            }
        }
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            RaftMsg::Rpc(rpc) => {
                let fx = self.core.on_message(from, rpc, ctx.now());
                self.process_effects(ctx, fx);
            }
            RaftMsg::Request { seq, op } => {
                match self.sessions.check(from, seq) {
                    SessionDecision::Duplicate(output) => {
                        ctx.send(
                            from,
                            RaftMsg::Reply {
                                seq,
                                output,
                                members: self.core.current_members(),
                            },
                        );
                        return;
                    }
                    SessionDecision::Stale => return,
                    SessionDecision::Fresh => {}
                }
                // Leader-side batching: accumulate and append one
                // `Cmd::Batch` entry when the buffer fills (or at the next
                // tick), amortizing per-entry replication overhead.
                if self.cmd_batch > 0 && self.core.is_leader() {
                    self.batch_buf.push((from, seq, op));
                    if self.batch_buf.len() >= self.cmd_batch {
                        self.flush_cmd_batch(ctx);
                    }
                    return;
                }
                let (fx, res) = self.core.propose(
                    Cmd::App {
                        client: from,
                        seq,
                        op,
                    },
                    ctx.now(),
                );
                match res {
                    RaftPropose::Appended(_) => {
                        self.waiting.insert((from, seq), ());
                    }
                    RaftPropose::NotLeader(_) | RaftPropose::BadReconfigure => {
                        ctx.send(
                            from,
                            RaftMsg::Redirect {
                                seq,
                                leader: self.core.leader_hint(),
                                members: self.core.current_members(),
                            },
                        );
                    }
                }
                self.process_effects(ctx, fx);
            }
            RaftMsg::Reconfigure { members } => {
                let current = self.core.current_members();
                if members == current {
                    ctx.send(
                        from,
                        RaftMsg::ReconfigureReply {
                            ok: true,
                            leader: self.core.leader_hint(),
                            members: current,
                        },
                    );
                    return;
                }
                if !self.core.is_leader() {
                    ctx.send(
                        from,
                        RaftMsg::ReconfigureReply {
                            ok: false,
                            leader: self.core.leader_hint(),
                            members: current,
                        },
                    );
                    return;
                }
                let (fx, res) = self.core.propose(Cmd::Reconfigure { members }, ctx.now());
                match res {
                    RaftPropose::Appended(index) => {
                        self.pending_admin = Some((from, index));
                        let now = ctx.now();
                        ctx.metrics().incr("raft.reconfigs_accepted", 1);
                        ctx.metrics()
                            .timeline_push("rsmr.reconfig_proposed", now, index as f64);
                        ctx.emit_event(DomainEvent::ReconfigProposed {
                            epoch: self.config_era,
                        });
                    }
                    _ => {
                        ctx.send(
                            from,
                            RaftMsg::ReconfigureReply {
                                ok: false,
                                leader: self.core.leader_hint(),
                                members: self.core.current_members(),
                            },
                        );
                    }
                }
                self.process_effects(ctx, fx);
            }
            RaftMsg::Reply { .. } | RaftMsg::Redirect { .. } | RaftMsg::ReconfigureReply { .. } => {
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        if !self.batch_buf.is_empty() {
            self.flush_cmd_batch(ctx);
        }
        let fx = self.core.tick(ctx.now());
        self.process_effects(ctx, fx);
        ctx.set_timer(TICK, 0);
    }
}

/// A closed-loop Raft client (mirrors `rsmr_core::RsmrClient`).
pub struct RaftClient<S: StateMachine> {
    servers: Vec<NodeId>,
    target: NodeId,
    gen: Box<dyn FnMut(u64) -> S::Op>,
    next_seq: u64,
    inflight: Option<(u64, S::Op, SimTime, SimTime)>,
    limit: Option<u64>,
    completed: u64,
    retransmit_after: SimDuration,
    backoff: RetryBackoff,
    record_history: bool,
    history: Vec<rsmr_core::client::HistoryEntry<S::Op, S::Output>>,
}

impl<S: StateMachine> RaftClient<S> {
    /// Creates a client issuing `gen` operations, at most `limit` of them.
    pub fn new(
        servers: Vec<NodeId>,
        gen: impl FnMut(u64) -> S::Op + 'static,
        limit: Option<u64>,
    ) -> Self {
        assert!(!servers.is_empty());
        let target = servers[0];
        RaftClient {
            servers,
            target,
            gen: Box::new(gen),
            next_seq: 0,
            inflight: None,
            limit,
            completed: 0,
            retransmit_after: SimDuration::from_millis(300),
            backoff: RetryBackoff::new(SimDuration::from_millis(300)),
            record_history: false,
            history: Vec::new(),
        }
    }

    /// Enables per-operation history recording (for linearizability
    /// checking), builder-style. Mirrors `RsmrClient::with_history`.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// The recorded history of completed operations (empty unless
    /// [`RaftClient::with_history`] was used).
    pub fn history(&self) -> &[rsmr_core::client::HistoryEntry<S::Op, S::Output>] {
        &self.history
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>) {
        if let Some(limit) = self.limit {
            if self.next_seq >= limit {
                return;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.backoff.reset();
        let op = (self.gen)(seq);
        self.inflight = Some((seq, op.clone(), ctx.now(), ctx.now()));
        // Fresh submission only; retransmits and redirects re-send without
        // reopening the command's latency span.
        ctx.emit_event(DomainEvent::CmdSubmitted {
            client: ctx.node_id(),
            seq,
        });
        ctx.send(self.target, RaftMsg::Request { seq, op });
    }

    fn rotate(&mut self) {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == self.target)
            .unwrap_or(0);
        self.target = self.servers[(idx + 1) % self.servers.len()];
    }

    fn adopt_members(&mut self, members: &[NodeId]) {
        if !members.is_empty() && self.servers != members {
            self.servers = members.to_vec();
            if !self.servers.contains(&self.target) {
                self.target = self.servers[0];
            }
        }
    }
}

impl<S: StateMachine> Actor for RaftClient<S> {
    type Msg = RaftMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.issue_next(ctx);
        ctx.set_timer(self.retransmit_after, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        match msg {
            RaftMsg::Reply {
                seq,
                output,
                members,
            } => {
                self.adopt_members(&members);
                let Some((cur, op, _, first)) = self.inflight.clone() else {
                    return;
                };
                if seq != cur {
                    return;
                }
                let latency = ctx.now().since(first);
                ctx.metrics()
                    .observe("client.latency_us", latency.as_micros() as f64);
                let now = ctx.now();
                ctx.metrics().timeline_push("client.completes", now, 1.0);
                if self.record_history {
                    self.history.push((seq, op, output, first, now));
                }
                self.inflight = None;
                self.completed += 1;
                self.issue_next(ctx);
            }
            RaftMsg::Redirect {
                seq,
                leader,
                members,
            } => {
                self.adopt_members(&members);
                let Some((cur, op, _, first)) = self.inflight.clone() else {
                    return;
                };
                if seq != cur {
                    return;
                }
                match leader {
                    Some(l) if self.servers.contains(&l) && l != self.target => self.target = l,
                    _ => self.rotate(),
                }
                // Fresh routing information: restart the backoff.
                self.backoff.reset();
                self.inflight = Some((seq, op.clone(), ctx.now(), first));
                ctx.send(self.target, RaftMsg::Request { seq, op });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        if let Some((seq, op, sent, first)) = self.inflight.clone() {
            let salt = ctx.node_id().0 ^ seq.rotate_left(20);
            if ctx.now().since(sent) >= self.backoff.current_delay(salt) {
                if self.backoff.record_attempt() {
                    ctx.metrics().incr("client.backoff_exhausted", 1);
                }
                self.rotate();
                ctx.metrics().incr("client.retransmits", 1);
                self.inflight = Some((seq, op.clone(), ctx.now(), first));
                ctx.send(self.target, RaftMsg::Request { seq, op });
            }
        }
        ctx.set_timer(self.retransmit_after, 0);
    }
}

/// Drives scripted membership changes, decomposing an arbitrary target set
/// into Raft-legal single-server steps (additions first, then removals).
pub struct RaftAdmin<S: StateMachine> {
    servers: Vec<NodeId>,
    target: NodeId,
    script: Vec<(SimTime, Vec<NodeId>)>,
    step: usize,
    /// When the current script step started (for latency measurement).
    step_started: Option<SimTime>,
    /// Members as last reported by the cluster.
    known: Vec<NodeId>,
    inflight: bool,
    last_send: SimTime,
    retry: SimDuration,
    results: Vec<(SimTime, SimTime)>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: StateMachine> RaftAdmin<S> {
    /// Creates an admin executing `script` against an initial member set.
    pub fn new(initial: Vec<NodeId>, script: Vec<(SimTime, Vec<NodeId>)>) -> Self {
        assert!(!initial.is_empty());
        let target = initial[0];
        RaftAdmin {
            servers: initial.clone(),
            target,
            script,
            step: 0,
            step_started: None,
            known: initial,
            inflight: false,
            last_send: SimTime::ZERO,
            retry: SimDuration::from_millis(100),
            results: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Completed script steps as `(started, finished)`.
    pub fn results(&self) -> &[(SimTime, SimTime)] {
        &self.results
    }

    /// True when the whole script has executed.
    pub fn is_done(&self) -> bool {
        self.step >= self.script.len()
    }

    /// The next single-server member set moving `known` toward `target`.
    fn next_single_step(known: &[NodeId], target: &[NodeId]) -> Option<Vec<NodeId>> {
        let cur: std::collections::BTreeSet<NodeId> = known.iter().copied().collect();
        let tgt: std::collections::BTreeSet<NodeId> = target.iter().copied().collect();
        if cur == tgt {
            return None;
        }
        // Additions first: keeps quorums as large as possible mid-change.
        if let Some(&add) = tgt.difference(&cur).next() {
            let mut next = cur.clone();
            next.insert(add);
            return Some(next.into_iter().collect());
        }
        let &remove = cur.difference(&tgt).next().expect("sets differ");
        let mut next = cur;
        next.remove(&remove);
        Some(next.into_iter().collect())
    }

    fn rotate(&mut self) {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == self.target)
            .unwrap_or(0);
        self.target = self.servers[(idx + 1) % self.servers.len()];
    }

    fn pump(&mut self, ctx: &mut Context<'_, RaftMsg<S::Op, S::Output>>) {
        if self.inflight || self.is_done() {
            return;
        }
        let (at, target) = self.script[self.step].clone();
        if ctx.now() < at {
            return;
        }
        if self.step_started.is_none() {
            self.step_started = Some(ctx.now());
        }
        match Self::next_single_step(&self.known, &target) {
            None => {
                // Target reached: record and move on.
                let started = self.step_started.take().expect("step was started");
                let finished = ctx.now();
                self.results.push((started, finished));
                ctx.metrics().observe(
                    "admin.reconfig_latency_us",
                    finished.since(started).as_micros() as f64,
                );
                self.step += 1;
                self.pump(ctx);
            }
            Some(next_set) => {
                self.inflight = true;
                self.last_send = ctx.now();
                ctx.send(self.target, RaftMsg::Reconfigure { members: next_set });
            }
        }
    }
}

impl<S: StateMachine> Actor for RaftAdmin<S> {
    type Msg = RaftMsg<S::Op, S::Output>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.pump(ctx);
        ctx.set_timer(self.retry, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        if let RaftMsg::ReconfigureReply {
            ok,
            leader,
            members,
        } = msg
        {
            if !members.is_empty() {
                self.known = members.clone();
                self.servers = members;
                if !self.servers.contains(&self.target) {
                    self.target = self.servers[0];
                }
            }
            self.inflight = false;
            if !ok {
                match leader {
                    Some(l) if self.servers.contains(&l) => self.target = l,
                    _ => self.rotate(),
                }
            }
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, _timer: Timer) {
        if self.inflight && ctx.now().since(self.last_send) >= self.retry * 3 {
            // Lost request or crashed target: retry elsewhere.
            self.inflight = false;
            self.rotate();
        }
        self.pump(ctx);
        ctx.set_timer(self.retry, 0);
    }
}
