//! The log roll: once an epoch's applied prefix passes
//! `ROLL_AFTER_SLOTS`, its leader closes the epoch with a `Reconfigure` to
//! the same members. Memory stays bounded because retired instances take
//! their logs and `px/` keys with them. The histories stay linearizable
//! and the protocol invariants hold, including when the leader crashes
//! mid-roll and when a joiner's base transfer outlasts several rolls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use consensus::StaticConfig;
use kvstore::{linearizable, HistoryOp, KvOp, KvOutput, KvStore};
use rsmr_core::harness::World;
use rsmr_core::{
    AdminActor, Epoch, InvariantObserver, RsmrClient, RsmrNode, RsmrTunables, RETIRE_GRACE,
    ROLL_AFTER_SLOTS,
};
use simnet::observe::{shared, DomainEvent, Observer, SimEvent};
use simnet::{NetConfig, NodeId, Sim, SimDuration, SimTime};

/// Reconfiguration proposals and anchorings, in order, as
/// `(at, node, epoch)`. With no admin in a world, every proposal is a
/// roll.
#[derive(Default)]
struct Events {
    proposals: Vec<(SimTime, NodeId, u64)>,
    anchored: Vec<(SimTime, NodeId, u64)>,
}

impl Observer for Events {
    fn on_event(&mut self, at: SimTime, ev: &SimEvent) {
        match ev {
            SimEvent::Domain {
                node,
                event: DomainEvent::ReconfigProposed { epoch },
            } => self.proposals.push((at, *node, *epoch)),
            SimEvent::Domain {
                node,
                event: DomainEvent::Anchored { epoch },
            } => self.anchored.push((at, *node, *epoch)),
            _ => {}
        }
    }
}

const SERVERS: u64 = 3;
const CLIENTS: u64 = 16;
const KEYS: u64 = 64;
/// The blank replica an admin adds in [`RollWorld::with_slow_joiner`].
const JOINER: NodeId = NodeId(3);
const ADMIN: NodeId = NodeId(90);

struct RollWorld {
    sim: Sim<World<KvStore>>,
    /// Every replica, the joiner included.
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    ops_per_client: u64,
    checker: Rc<RefCell<InvariantObserver>>,
    events: Rc<RefCell<Events>>,
}

impl RollWorld {
    /// Three genesis servers and closed-loop clients issuing `total` puts
    /// and gets (one slot each) over a small keyspace.
    fn new(seed: u64, total: u64) -> Self {
        Self::build(seed, total, None)
    }

    /// As [`RollWorld::new`], plus a blank replica that an admin adds at
    /// 200 ms. The genesis state holds `filler` keys and every link to the
    /// joiner is thin, so its base transfer outlasts the first roll.
    fn with_slow_joiner(seed: u64, total: u64, filler: usize) -> Self {
        Self::build(seed, total, Some(filler))
    }

    fn build(seed: u64, total: u64, joiner_filler: Option<usize>) -> Self {
        let mut sim: Sim<World<KvStore>> = Sim::new(seed, NetConfig::lan());
        let checker = shared(InvariantObserver::strict());
        sim.add_observer(checker.clone());
        let events = shared(Events::default());
        sim.add_observer(events.clone());
        let genesis_ids: Vec<NodeId> = (0..SERVERS).map(NodeId).collect();
        let genesis = StaticConfig::new(genesis_ids.clone());
        let state = || joiner_filler.map_or_else(KvStore::new, |n| KvStore::with_filler(n, 64));
        for &s in &genesis_ids {
            sim.add_node_with_id(
                s,
                World::server(RsmrNode::genesis_with(
                    s,
                    genesis.clone(),
                    RsmrTunables::default(),
                    state(),
                )),
            );
        }
        let mut servers = genesis_ids.clone();
        if joiner_filler.is_some() {
            sim.add_node_with_id(
                JOINER,
                World::server(RsmrNode::joining(JOINER, RsmrTunables::default())),
            );
            let thin = NetConfig::lan().with_bandwidth(Some(250_000));
            for &s in &genesis_ids {
                sim.set_link(s, JOINER, thin.clone());
            }
            servers.push(JOINER);
            let script = vec![(SimTime::from_millis(200), servers.clone())];
            sim.add_node_with_id(
                ADMIN,
                World::admin(AdminActor::new(genesis_ids.clone(), script)),
            );
        }
        let ops_per_client = total.div_ceil(CLIENTS);
        let clients: Vec<NodeId> = (0..CLIENTS).map(|c| NodeId(100 + c)).collect();
        for (i, &c) in clients.iter().enumerate() {
            let i = i as u64;
            let gen = move |seq: u64| {
                let key = format!("k{}", (i * 7 + seq) % KEYS);
                if seq.is_multiple_of(2) {
                    KvOp::Put(key, format!("{i}:{seq}").into_bytes())
                } else {
                    KvOp::Get(key)
                }
            };
            sim.add_node_with_id(
                c,
                World::client(
                    RsmrClient::new(genesis_ids.clone(), gen, Some(ops_per_client)).with_history(),
                ),
            );
        }
        RollWorld {
            sim,
            servers,
            clients,
            ops_per_client,
            checker,
            events,
        }
    }

    fn server(&self, id: NodeId) -> &RsmrNode<KvStore> {
        self.sim
            .actor(id)
            .and_then(World::as_server)
            .unwrap_or_else(|| panic!("{id} is not a live server"))
    }

    /// Rebuilds a crashed server from its stable store.
    fn restart(&mut self, id: NodeId) {
        let recovered = RsmrNode::recover(id, RsmrTunables::default(), self.sim.storage(id))
            .expect("a persisted base");
        self.sim.restart(id, World::server(recovered));
    }

    fn all_completed(&self) -> bool {
        self.clients
            .iter()
            .all(|&c| self.sim.actor(c).map(World::completed) == Some(self.ops_per_client))
    }

    /// Runs until every client finished (bounded), then past the retire
    /// grace so closed instances are dropped.
    fn run_to_completion(&mut self, limit: SimDuration) {
        let deadline = self.sim.now() + limit;
        while !self.all_completed() && self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(100));
        }
        assert!(self.all_completed(), "every client finished its script");
        self.sim.run_for(RETIRE_GRACE * 2);
    }

    /// Linearizability is local: the history is linearizable iff each
    /// key's projection is.
    fn assert_linearizable(&self) {
        let mut by_key: BTreeMap<String, Vec<HistoryOp<KvOp, KvOutput>>> = BTreeMap::new();
        for &c in &self.clients {
            let Some(cl) = self.sim.actor(c).and_then(World::as_client) else {
                unreachable!("clients never crash");
            };
            for (_seq, op, out, invoke, response) in cl.history() {
                let (KvOp::Put(key, _) | KvOp::Get(key)) = op else {
                    unreachable!("the workload issues puts and gets");
                };
                by_key.entry(key.clone()).or_default().push(HistoryOp {
                    process: c.0,
                    invoke: *invoke,
                    response: *response,
                    input: op.clone(),
                    output: out.clone(),
                });
            }
        }
        for (key, history) in &by_key {
            assert!(
                linearizable(KvStore::new(), history),
                "history of {key} is not linearizable"
            );
        }
        self.checker.borrow().assert_clean();
    }

    /// Every replica anchored in one epoch, with every replica as a
    /// member, the same application state, and `px/` keys of that epoch
    /// only.
    fn assert_rolled_and_reclaimed(&self) -> Epoch {
        let members = StaticConfig::new(self.servers.clone());
        let epoch = self
            .server(self.servers[0])
            .anchored_epoch()
            .expect("anchored");
        let state = self.server(self.servers[0]).state_machine().content_hash();
        for &s in &self.servers {
            let node = self.server(s);
            assert_eq!(node.anchored_epoch(), Some(epoch), "{s} anchored");
            assert_eq!(node.active_epoch(), Some(epoch), "{s} runs one instance");
            assert_eq!(node.state_machine().content_hash(), state, "{s} converged");
            let chain = node.chain().expect("anchored nodes have a chain");
            assert_eq!(chain.latest_config(), &members, "{s}: membership");
            let live = format!("px/{:08x}/", epoch.0);
            let stale: Vec<&str> = self
                .sim
                .storage(s)
                .keys_with_prefix("px/")
                .filter(|k| !k.starts_with(&live))
                .collect();
            assert!(
                stale.is_empty(),
                "{s} kept retired keys: {:?}",
                &stale[..3.min(stale.len())]
            );
        }
        epoch
    }
}

#[test]
fn rolls_bound_the_log_without_changing_membership_or_electing() {
    let mut w = RollWorld::new(0x5011, 3 * ROLL_AFTER_SLOTS + 2_000);
    w.run_to_completion(SimDuration::from_secs(60));
    w.assert_linearizable();
    let epoch = w.assert_rolled_and_reclaimed();

    let m = w.sim.metrics();
    let rolls = m.counter("rsmr.log_rolls");
    assert!(rolls >= 3, "{rolls} rolls");
    assert_eq!(epoch.0, rolls, "every epoch change was a roll");
    assert_eq!(
        m.counter("rsmr.leader_elections"),
        1 + rolls,
        "each roll hands leadership off without an election timeout"
    );
    assert_eq!(m.counter("rsmr.instances_retired"), SERVERS * rolls);
}

#[test]
fn crashes_mid_roll_and_inside_the_retire_grace_lose_nothing() {
    let mut w = RollWorld::new(0xC0115, ROLL_AFTER_SLOTS + 4_000);
    // Step until the first roll is proposed, then crash its proposer
    // before the epoch can finalize there.
    let deadline = w.sim.now() + SimDuration::from_secs(30);
    while w.events.borrow().proposals.is_empty() && w.sim.now() < deadline {
        w.sim.step();
    }
    let (_, leader, epoch) = *w
        .events
        .borrow()
        .proposals
        .first()
        .expect("a roll was proposed");
    assert_eq!(epoch, 0);
    assert_eq!(w.server(leader).anchored_epoch(), Some(Epoch(0)));
    w.sim.crash(leader);
    w.sim.run_for(SimDuration::from_millis(500));
    w.restart(leader);
    // A survivor that already finalized the roll crashes inside the retire
    // grace: after its restart it must drop the retired epoch's keys
    // itself.
    let survivor = w
        .servers
        .clone()
        .into_iter()
        .find(|&s| s != leader && w.server(s).anchored_epoch() == Some(Epoch(1)))
        .expect("a survivor finalized the roll");
    w.sim.crash(survivor);
    w.sim.run_for(SimDuration::from_millis(300));
    w.restart(survivor);

    w.run_to_completion(SimDuration::from_secs(60));
    w.assert_linearizable();
    let epoch = w.assert_rolled_and_reclaimed();
    assert!(
        epoch >= Epoch(1),
        "the interrupted roll still closed epoch 0"
    );
}

/// A blank joiner whose base transfer outlasts several log rolls finishes
/// that transfer and replays the logs it buffered as a member, instead of
/// restarting against each newer epoch's base (which would never end). Its
/// donor keeps serving the stream after the rolls evict that base.
#[test]
fn a_join_that_outlasts_log_rolls_finishes_its_transfer() {
    let mut w = RollWorld::with_slow_joiner(0x101, 5 * ROLL_AFTER_SLOTS, 50_000);
    w.run_to_completion(SimDuration::from_secs(60));
    // The joiner anchors after the clients finish: let its own retire
    // grace and key reclaim run out too.
    w.sim.run_for(RETIRE_GRACE * 2);
    w.assert_linearizable();
    let epoch = w.assert_rolled_and_reclaimed();

    let events = w.events.borrow();
    let &(joined_at, _, installed) = events
        .anchored
        .iter()
        .find(|&&(_, n, _)| n == JOINER)
        .expect("the joiner anchored");
    assert_eq!(installed, 1, "the joiner installed the base it started on");
    // A donor keeps four bases; the fourth roll evicts the joiner's.
    let rolled = events
        .proposals
        .iter()
        .filter(|&&(at, _, e)| e >= 1 && at < joined_at)
        .count();
    assert!(rolled >= 4, "{rolled} rolls while the base was in flight");
    assert!(epoch >= Epoch(5), "anchored at {epoch}");
    let m = w.sim.metrics();
    assert_eq!(m.counter("rsmr.transfer_requests"), 1, "never restarted");
    assert_eq!(m.counter("rsmr.transfers_installed"), 1);
}

/// The joiner's link to the leader is cut before it joins, so it learns
/// none of its first epoch's commits while that epoch's base streams from
/// another member, and the leader is the only peer that would serve it
/// catch-up. A roll closes the epoch and, after the retire grace, every
/// peer drops its log: the installed base can never be replayed forward.
/// The stuck-anchor check pulls the newest base instead, as a delta.
#[test]
fn a_joiner_cut_off_from_its_epochs_log_pulls_the_newest_base() {
    let mut w = RollWorld::with_slow_joiner(0x102, 2 * ROLL_AFTER_SLOTS, 20_000);
    let genesis = w.servers[..SERVERS as usize].to_vec();
    let leader = loop {
        if let Some(&l) = genesis.iter().find(|&&s| w.server(s).is_active_leader()) {
            break l;
        }
        w.sim.step();
    };
    w.sim.block_link(leader, JOINER);
    w.run_to_completion(SimDuration::from_secs(60));
    let deadline = w.sim.now() + SimDuration::from_secs(10);
    while w.sim.metrics().counter("rsmr.stuck_anchor_transfers") == 0 && w.sim.now() < deadline {
        w.sim.run_for(SimDuration::from_millis(100));
    }
    assert_eq!(
        w.server(JOINER).anchored_epoch(),
        Some(Epoch(1)),
        "stuck on the first base"
    );
    // The newest epoch's commits still come from the leader alone.
    w.sim.unblock_link(leader, JOINER);
    w.sim.run_for(RETIRE_GRACE * 2);

    w.assert_linearizable();
    w.assert_rolled_and_reclaimed();
    let m = w.sim.metrics();
    assert_eq!(m.counter("rsmr.stuck_anchor_transfers"), 1);
    assert_eq!(m.counter("rsmr.transfers_installed"), 2);
    assert!(m.counter("transfer.delta_chunk_bytes") > 0, "a delta");
}
