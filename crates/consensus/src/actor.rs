//! `simnet` adapters for a *standalone* static SMR deployment: a replica
//! actor wrapping [`MultiPaxos`] and a closed-loop client.
//!
//! The composition layer (`rsmr-core`) embeds the same [`MultiPaxos`] core
//! directly; these actors exist so the building block can be deployed,
//! tested and benchmarked on its own (experiments E1/E7/E8 use them as the
//! static baseline).

use std::collections::BTreeMap;

use simnet::wire::{self, Wire};
use simnet::{
    Actor, Context, DomainEvent, Message, NodeId, RetryBackoff, SimDuration, SimTime, StableStore,
    Timer,
};

use crate::config::StaticConfig;
use crate::effects::Effects;
use crate::msg::PaxosMsg;
use crate::multipaxos::{MultiPaxos, PaxosTunables, ProposeOutcome};
use crate::types::{Command, Slot};

/// How often replica actors pump [`MultiPaxos::tick`].
pub const TICK_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// Storage namespace for persisted Paxos state.
const PERSIST_PREFIX: &str = "px/";

/// A command wrapper that carries client correlation through the log.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedCmd<C> {
    /// The submitting client (or [`NodeId::EXTERNAL`] for no-ops).
    pub client: NodeId,
    /// The client's request number.
    pub req_id: u64,
    /// The application payload.
    pub payload: C,
}

impl<C: Wire> Wire for TaggedCmd<C> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.req_id.encode(buf);
        self.payload.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(TaggedCmd {
            client: NodeId::decode(buf)?,
            req_id: u64::decode(buf)?,
            payload: C::decode(buf)?,
        })
    }
}

impl<C: Command> Command for TaggedCmd<C> {
    fn noop() -> Self {
        TaggedCmd {
            client: NodeId::EXTERNAL,
            req_id: 0,
            payload: C::noop(),
        }
    }
}

/// Messages of a standalone static SMR world.
#[derive(Clone, Debug)]
pub enum SmrMsg<C: Command> {
    /// Replica ↔ replica protocol traffic.
    Paxos(PaxosMsg<TaggedCmd<C>>),
    /// Client → replica: order this command.
    Request {
        /// Client request number (for retransmission and reply matching).
        req_id: u64,
        /// The command to replicate.
        cmd: C,
    },
    /// Replica → client: your command committed at `slot`.
    Reply {
        /// Echo of the request number.
        req_id: u64,
        /// The log position the command occupies.
        slot: Slot,
    },
    /// Replica → client: not the leader, try `leader`.
    Redirect {
        /// Echo of the request number.
        req_id: u64,
        /// Best-known leader, if any.
        leader: Option<NodeId>,
    },
}

impl<C: Command> Message for SmrMsg<C> {
    fn label(&self) -> &'static str {
        match self {
            SmrMsg::Paxos(inner) => inner.label(),
            SmrMsg::Request { .. } => "smr.request",
            SmrMsg::Reply { .. } => "smr.reply",
            SmrMsg::Redirect { .. } => "smr.redirect",
        }
    }
    fn size_hint(&self) -> usize {
        match self {
            SmrMsg::Paxos(inner) => inner.size_hint(),
            SmrMsg::Request { .. } => 40,
            SmrMsg::Reply { .. } => 24,
            SmrMsg::Redirect { .. } => 24,
        }
    }
}

/// A replica of a standalone static SMR instance.
pub struct ReplicaActor<C: Command> {
    core: MultiPaxos<TaggedCmd<C>>,
    /// Commands this replica proposed, awaiting commit: `req → client`.
    waiting: BTreeMap<(NodeId, u64), ()>,
    /// Total commands this replica has observed committing.
    committed: u64,
}

impl<C: Command> ReplicaActor<C> {
    /// Creates a fresh replica.
    pub fn new(me: NodeId, cfg: StaticConfig, tun: PaxosTunables) -> Self {
        ReplicaActor {
            core: MultiPaxos::new(me, cfg, SimTime::ZERO, tun),
            waiting: BTreeMap::new(),
            committed: 0,
        }
    }

    /// Rebuilds a replica from stable storage after a crash.
    pub fn recover(me: NodeId, cfg: StaticConfig, tun: PaxosTunables, store: &StableStore) -> Self {
        let items: Vec<(String, Vec<u8>)> = store
            .keys_with_prefix(PERSIST_PREFIX)
            .map(|k| {
                (
                    k[PERSIST_PREFIX.len()..].to_owned(),
                    store.get(k).expect("key just listed").to_vec(),
                )
            })
            .collect();
        ReplicaActor {
            core: MultiPaxos::recover(me, cfg, SimTime::ZERO, tun, items),
            waiting: BTreeMap::new(),
            committed: 0,
        }
    }

    /// The embedded protocol core (read-only).
    pub fn core(&self) -> &MultiPaxos<TaggedCmd<C>> {
        &self.core
    }

    /// Commands observed committing at this replica.
    pub fn committed_count(&self) -> u64 {
        self.committed
    }

    fn apply_effects(&mut self, ctx: &mut Context<'_, SmrMsg<C>>, fx: Effects<TaggedCmd<C>>) {
        fx.record_stats(ctx.metrics());
        // Write-ahead: persist before anything leaves the node.
        for (key, value) in fx.persist {
            ctx.storage().put(&format!("{PERSIST_PREFIX}{key}"), value);
        }
        for (to, msg) in fx.outbound {
            ctx.send(to, SmrMsg::Paxos(msg));
        }
        // A static deployment never reconfigures: everything lives in epoch 0.
        for slot in fx.proposed {
            ctx.emit_event(DomainEvent::CmdProposed {
                epoch: 0,
                slot: slot.0,
            });
        }
        for (slot, cmd) in fx.committed {
            self.committed += 1;
            let now = ctx.now();
            ctx.metrics().incr("smr.committed", 1);
            ctx.metrics().timeline_push("smr.commits", now, 1.0);
            ctx.emit_event(DomainEvent::CmdCommitted {
                epoch: 0,
                slot: slot.0,
            });
            if !cmd.is_noop() {
                ctx.emit_event(DomainEvent::CmdApplied {
                    client: cmd.client,
                    seq: cmd.req_id,
                    epoch: 0,
                    slot: slot.0,
                });
            }
            if !cmd.is_noop() && self.waiting.remove(&(cmd.client, cmd.req_id)).is_some() {
                ctx.send(
                    cmd.client,
                    SmrMsg::Reply {
                        req_id: cmd.req_id,
                        slot,
                    },
                );
            }
        }
        if fx.became_leader {
            ctx.metrics().incr("smr.leader_elections", 1);
        }
    }
}

impl<C: Command> Actor for ReplicaActor<C> {
    type Msg = SmrMsg<C>;

    fn on_start(&mut self, ctx: &mut Context<'_, SmrMsg<C>>) {
        ctx.set_timer(TICK_INTERVAL, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SmrMsg<C>>, from: NodeId, msg: SmrMsg<C>) {
        match msg {
            SmrMsg::Paxos(inner) => {
                let fx = self.core.on_message(from, inner, ctx.now());
                self.apply_effects(ctx, fx);
            }
            SmrMsg::Request { req_id, cmd } => {
                let tagged = TaggedCmd {
                    client: from,
                    req_id,
                    payload: cmd,
                };
                let (fx, outcome) = self.core.propose(tagged, ctx.now());
                match outcome {
                    ProposeOutcome::Accepted => {
                        self.waiting.insert((from, req_id), ());
                    }
                    ProposeOutcome::NotLeader(leader) => {
                        ctx.send(from, SmrMsg::Redirect { req_id, leader });
                    }
                }
                self.apply_effects(ctx, fx);
            }
            SmrMsg::Reply { .. } | SmrMsg::Redirect { .. } => {
                // Client-bound messages mis-delivered to a replica: ignore.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SmrMsg<C>>, _timer: Timer) {
        let fx = self.core.tick(ctx.now());
        self.apply_effects(ctx, fx);
        ctx.set_timer(TICK_INTERVAL, 0);
    }
}

/// A closed-loop client for standalone deployments: keeps exactly one
/// request in flight, retransmitting on timeout and following redirects.
pub struct SmrClient<C: Command> {
    servers: Vec<NodeId>,
    target: NodeId,
    gen: Box<dyn FnMut(u64) -> C>,
    next_req: u64,
    /// `(req_id, command, sent_at, first_sent_at)` of the in-flight request.
    inflight: Option<(u64, C, SimTime, SimTime)>,
    /// Stop issuing after this many completions (`None` = run forever).
    limit: Option<u64>,
    completed: u64,
    retransmit_after: SimDuration,
    backoff: RetryBackoff,
}

impl<C: Command> SmrClient<C> {
    /// Creates a client that will issue commands produced by `gen` to the
    /// given servers, completing at most `limit` requests.
    pub fn new(
        servers: Vec<NodeId>,
        gen: impl FnMut(u64) -> C + 'static,
        limit: Option<u64>,
    ) -> Self {
        let target = servers[0];
        SmrClient {
            servers,
            target,
            gen: Box::new(gen),
            next_req: 0,
            inflight: None,
            limit,
            completed: 0,
            retransmit_after: SimDuration::from_millis(300),
            backoff: RetryBackoff::new(SimDuration::from_millis(300)),
        }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, SmrMsg<C>>) {
        if let Some(limit) = self.limit {
            if self.next_req >= limit {
                return;
            }
        }
        let req_id = self.next_req;
        self.next_req += 1;
        self.backoff.reset();
        let cmd = (self.gen)(req_id);
        self.inflight = Some((req_id, cmd.clone(), ctx.now(), ctx.now()));
        // Fresh submission only — retransmits and redirects re-send the
        // same request and do not reopen the command's latency span.
        ctx.emit_event(DomainEvent::CmdSubmitted {
            client: ctx.node_id(),
            seq: req_id,
        });
        ctx.send(self.target, SmrMsg::Request { req_id, cmd });
    }

    fn rotate_target(&mut self) {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == self.target)
            .unwrap_or(0);
        self.target = self.servers[(idx + 1) % self.servers.len()];
    }
}

impl<C: Command> Actor for SmrClient<C> {
    type Msg = SmrMsg<C>;

    fn on_start(&mut self, ctx: &mut Context<'_, SmrMsg<C>>) {
        self.issue_next(ctx);
        ctx.set_timer(self.retransmit_after, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SmrMsg<C>>, from: NodeId, msg: SmrMsg<C>) {
        match msg {
            SmrMsg::Reply { req_id, .. } => {
                let Some((inflight_id, _, _, first_sent)) = self.inflight else {
                    return;
                };
                if req_id != inflight_id {
                    return; // stale duplicate
                }
                let latency = ctx.now().since(first_sent);
                ctx.metrics()
                    .observe("client.latency_us", latency.as_micros() as f64);
                let now = ctx.now();
                ctx.metrics().timeline_push("client.completes", now, 1.0);
                self.inflight = None;
                self.completed += 1;
                self.issue_next(ctx);
            }
            SmrMsg::Redirect { req_id, leader } => {
                let Some((inflight_id, cmd, _, first_sent)) = self.inflight.clone() else {
                    return;
                };
                if req_id != inflight_id {
                    return;
                }
                match leader {
                    Some(l) if self.servers.contains(&l) => self.target = l,
                    _ => self.rotate_target(),
                }
                // Fresh routing information: restart the backoff.
                self.backoff.reset();
                self.inflight = Some((req_id, cmd.clone(), ctx.now(), first_sent));
                ctx.send(self.target, SmrMsg::Request { req_id, cmd });
                let _ = from;
            }
            SmrMsg::Paxos(_) | SmrMsg::Request { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SmrMsg<C>>, _timer: Timer) {
        if let Some((req_id, cmd, sent_at, first_sent)) = self.inflight.clone() {
            let salt = ctx.node_id().0 ^ req_id.rotate_left(20);
            if ctx.now().since(sent_at) >= self.backoff.current_delay(salt) {
                if self.backoff.record_attempt() {
                    ctx.metrics().incr("client.backoff_exhausted", 1);
                }
                self.rotate_target();
                ctx.metrics().incr("client.retransmits", 1);
                self.inflight = Some((req_id, cmd.clone(), ctx.now(), first_sent));
                ctx.send(self.target, SmrMsg::Request { req_id, cmd });
            }
        }
        ctx.set_timer(self.retransmit_after, 0);
    }
}

/// Re-export used by recovery tests.
pub use wire::to_bytes as encode_for_test;

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetConfig, Sim};

    type World = Sim<Box<dyn SmrWorldActor>>;

    /// Object-safe erasure so replicas and clients share one `Sim` world.
    trait SmrWorldActor {
        fn start(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>);
        fn message(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, from: NodeId, msg: SmrMsg<u64>);
        fn timer(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, timer: Timer);
        fn completed(&self) -> u64 {
            0
        }
        fn committed(&self) -> u64 {
            0
        }
        fn is_leader(&self) -> bool {
            false
        }
    }

    impl SmrWorldActor for ReplicaActor<u64> {
        fn start(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>) {
            Actor::on_start(self, ctx)
        }
        fn message(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, from: NodeId, msg: SmrMsg<u64>) {
            Actor::on_message(self, ctx, from, msg)
        }
        fn timer(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, timer: Timer) {
            Actor::on_timer(self, ctx, timer)
        }
        fn committed(&self) -> u64 {
            self.committed_count()
        }
        fn is_leader(&self) -> bool {
            self.core().is_leader()
        }
    }

    impl SmrWorldActor for SmrClient<u64> {
        fn start(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>) {
            Actor::on_start(self, ctx)
        }
        fn message(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, from: NodeId, msg: SmrMsg<u64>) {
            Actor::on_message(self, ctx, from, msg)
        }
        fn timer(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, timer: Timer) {
            Actor::on_timer(self, ctx, timer)
        }
        fn completed(&self) -> u64 {
            SmrClient::completed(self)
        }
    }

    impl Actor for Box<dyn SmrWorldActor> {
        type Msg = SmrMsg<u64>;
        fn on_start(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>) {
            (**self).start(ctx)
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, SmrMsg<u64>>,
            from: NodeId,
            msg: SmrMsg<u64>,
        ) {
            (**self).message(ctx, from, msg)
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, SmrMsg<u64>>, timer: Timer) {
            (**self).timer(ctx, timer)
        }
    }

    fn build_world(
        n: u64,
        n_clients: u64,
        limit: u64,
        seed: u64,
    ) -> (World, Vec<NodeId>, Vec<NodeId>) {
        let mut sim: World = Sim::new(seed, NetConfig::lan());
        let servers: Vec<NodeId> = (0..n).map(NodeId).collect();
        let cfg = StaticConfig::new(servers.clone());
        for &s in &servers {
            sim.add_node_with_id(
                s,
                Box::new(ReplicaActor::<u64>::new(
                    s,
                    cfg.clone(),
                    PaxosTunables::default(),
                )),
            );
        }
        let mut clients = Vec::new();
        for c in 0..n_clients {
            let id = NodeId(100 + c);
            sim.add_node_with_id(
                id,
                Box::new(SmrClient::new(servers.clone(), |i| i + 1, Some(limit))),
            );
            clients.push(id);
        }
        (sim, servers, clients)
    }

    #[test]
    fn end_to_end_commands_complete_through_the_simulated_network() {
        let (mut sim, _servers, clients) = build_world(3, 2, 20, 11);
        sim.run_for(SimDuration::from_secs(10));
        for &c in &clients {
            assert_eq!(sim.actor(c).unwrap().completed(), 20);
        }
        assert!(sim.metrics().counter("smr.committed") >= 40);
        let lat = sim.metrics().histogram("client.latency_us").unwrap();
        assert!(lat.count() >= 40);
        assert!(lat.mean() > 0.0);
    }

    #[test]
    fn client_survives_leader_crash_via_retransmission() {
        let (mut sim, servers, clients) = build_world(3, 1, 2000, 13);
        // Crash the leader mid-workload, while requests are in flight.
        sim.run_for(SimDuration::from_millis(400));
        let leader = servers
            .iter()
            .copied()
            .find(|&s| sim.actor(s).map(|a| a.is_leader()).unwrap_or(false))
            .expect("a leader exists");
        let before = sim.actor(clients[0]).unwrap().completed();
        assert!(before < 2000, "crash must interrupt the workload");
        sim.crash(leader);
        sim.run_for(SimDuration::from_secs(30));
        let done = sim.actor(clients[0]).unwrap().completed();
        assert_eq!(done, 2000, "client must finish despite the crash");
        assert!(sim.metrics().counter("client.retransmits") > 0);
    }

    #[test]
    fn crashed_replica_recovers_from_stable_storage_and_rejoins() {
        let (mut sim, servers, clients) = build_world(3, 1, 300, 17);
        sim.run_for(SimDuration::from_secs(2));
        let victim = servers
            .iter()
            .copied()
            .find(|&s| sim.actor(s).map(|a| !a.is_leader()).unwrap_or(false))
            .unwrap();
        sim.crash(victim);
        sim.run_for(SimDuration::from_secs(2));
        let cfg = StaticConfig::new(servers.clone());
        let recovered = ReplicaActor::<u64>::recover(
            victim,
            cfg,
            PaxosTunables::default(),
            sim.storage(victim),
        );
        sim.restart(victim, Box::new(recovered));
        sim.run_for(SimDuration::from_secs(20));
        assert_eq!(sim.actor(clients[0]).unwrap().completed(), 300);
        // The recovered node caught up: it has observed commits.
        assert!(sim.actor(victim).unwrap().committed() > 0);
    }

    #[test]
    fn tagged_cmd_wire_round_trip_and_noop() {
        let c = TaggedCmd {
            client: NodeId(3),
            req_id: 9,
            payload: 77u64,
        };
        let bytes = wire::to_bytes(&c);
        assert_eq!(wire::from_bytes::<TaggedCmd<u64>>(&bytes), Some(c));
        assert!(TaggedCmd::<u64>::noop().is_noop());
    }
}
