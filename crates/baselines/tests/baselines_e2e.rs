//! End-to-end tests for the two comparison systems, mirroring the
//! `rsmr-core` reconfiguration suite so behaviour is comparable.

use baselines::raft::{RaftAdmin, RaftClient, RaftMsg, RaftNode, RaftTunables};
use baselines::stw::StwNode;
use consensus::{PaxosTunables, StaticConfig};
use rsmr_core::{AdminActor, CounterSm, Epoch, RsmrClient, RsmrMsg};
use simnet::{Actor, Context, NetConfig, NodeId, Sim, SimDuration, SimTime, Timer};

// ---------------------------------------------------------------------------
// Stop-the-world world
// ---------------------------------------------------------------------------

type SMsg = RsmrMsg<u64, u64>;

#[allow(clippy::large_enum_variant)] // one value per node, stored once
enum SNode {
    Server(StwNode<CounterSm>),
    Client(RsmrClient<CounterSm>),
    Admin(AdminActor<CounterSm>),
}

impl Actor for SNode {
    type Msg = SMsg;
    fn on_start(&mut self, ctx: &mut Context<'_, SMsg>) {
        match self {
            SNode::Server(a) => a.on_start(ctx),
            SNode::Client(a) => a.on_start(ctx),
            SNode::Admin(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, SMsg>, from: NodeId, msg: SMsg) {
        match self {
            SNode::Server(a) => a.on_message(ctx, from, msg),
            SNode::Client(a) => a.on_message(ctx, from, msg),
            SNode::Admin(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, SMsg>, timer: Timer) {
        match self {
            SNode::Server(a) => a.on_timer(ctx, timer),
            SNode::Client(a) => a.on_timer(ctx, timer),
            SNode::Admin(a) => a.on_timer(ctx, timer),
        }
    }
}

#[test]
fn stw_steady_state_serves_clients() {
    let mut sim: Sim<SNode> = Sim::new(21, NetConfig::lan());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            SNode::Server(StwNode::genesis(
                s,
                genesis.clone(),
                PaxosTunables::default(),
            )),
        );
    }
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        SNode::Client(RsmrClient::new(servers.clone(), |_| 1, Some(100))),
    );
    sim.run_for(SimDuration::from_secs(10));
    match sim.actor(client) {
        Some(SNode::Client(c)) => assert_eq!(c.completed(), 100),
        _ => unreachable!(),
    }
    for &s in &servers {
        match sim.actor(s) {
            Some(SNode::Server(n)) => assert_eq!(n.state_machine().value(), 100),
            _ => unreachable!(),
        }
    }
}

#[test]
fn stw_add_member_blocks_then_recovers() {
    let mut sim: Sim<SNode> = Sim::new(22, NetConfig::lan());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            SNode::Server(StwNode::genesis(
                s,
                genesis.clone(),
                PaxosTunables::default(),
            )),
        );
    }
    let joiner = NodeId(3);
    sim.add_node_with_id(
        joiner,
        SNode::Server(StwNode::joining(joiner, PaxosTunables::default())),
    );
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        SNode::Client(RsmrClient::new(servers.clone(), |_| 1, Some(500))),
    );
    sim.add_node_with_id(
        NodeId(99),
        SNode::Admin(AdminActor::new(
            servers.clone(),
            vec![(
                SimTime::from_millis(400),
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            )],
        )),
    );

    sim.run_for(SimDuration::from_secs(30));

    match sim.actor(NodeId(99)) {
        Some(SNode::Admin(a)) => {
            assert_eq!(a.results().len(), 1, "reconfig must complete");
            assert_eq!(a.results()[0].2, Epoch(1));
        }
        _ => unreachable!(),
    }
    match sim.actor(client) {
        Some(SNode::Client(c)) => assert_eq!(c.completed(), 500),
        _ => unreachable!(),
    }
    // The joiner is serving the new epoch with the full state.
    match sim.actor(joiner) {
        Some(SNode::Server(n)) => {
            assert_eq!(n.current_epoch(), Some(Epoch(1)));
            assert_eq!(n.state_machine().value(), 500);
        }
        _ => unreachable!(),
    }
    // The defining property of this baseline: requests bounced during the
    // blocked window.
    assert!(
        sim.metrics().counter("stw.bounced_requests") > 0
            || sim.metrics().counter("client.retransmits") > 0,
        "a stop-the-world reconfig should visibly disturb the client"
    );
}

#[test]
fn stw_full_replacement() {
    let mut sim: Sim<SNode> = Sim::new(23, NetConfig::lan());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            SNode::Server(StwNode::genesis(
                s,
                genesis.clone(),
                PaxosTunables::default(),
            )),
        );
    }
    for id in [3u64, 4, 5] {
        sim.add_node_with_id(
            NodeId(id),
            SNode::Server(StwNode::joining(NodeId(id), PaxosTunables::default())),
        );
    }
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        SNode::Client(RsmrClient::new(servers.clone(), |_| 1, Some(400))),
    );
    sim.add_node_with_id(
        NodeId(99),
        SNode::Admin(AdminActor::new(
            servers.clone(),
            vec![(
                SimTime::from_millis(400),
                vec![NodeId(3), NodeId(4), NodeId(5)],
            )],
        )),
    );
    sim.run_for(SimDuration::from_secs(40));
    match sim.actor(client) {
        Some(SNode::Client(c)) => assert_eq!(c.completed(), 400),
        _ => unreachable!(),
    }
    for id in [3u64, 4, 5] {
        match sim.actor(NodeId(id)) {
            Some(SNode::Server(n)) => {
                assert_eq!(n.current_epoch(), Some(Epoch(1)), "n{id}");
                assert_eq!(n.state_machine().value(), 400, "n{id}");
            }
            _ => unreachable!(),
        }
    }
}

// ---------------------------------------------------------------------------
// Raft world
// ---------------------------------------------------------------------------

type RMsg = RaftMsg<u64, u64>;

#[allow(clippy::large_enum_variant)] // one value per node, stored once
enum RNode {
    Server(RaftNode<CounterSm>),
    Client(RaftClient<CounterSm>),
    Admin(RaftAdmin<CounterSm>),
}

impl Actor for RNode {
    type Msg = RMsg;
    fn on_start(&mut self, ctx: &mut Context<'_, RMsg>) {
        match self {
            RNode::Server(a) => a.on_start(ctx),
            RNode::Client(a) => a.on_start(ctx),
            RNode::Admin(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, RMsg>, from: NodeId, msg: RMsg) {
        match self {
            RNode::Server(a) => a.on_message(ctx, from, msg),
            RNode::Client(a) => a.on_message(ctx, from, msg),
            RNode::Admin(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, RMsg>, timer: Timer) {
        match self {
            RNode::Server(a) => a.on_timer(ctx, timer),
            RNode::Client(a) => a.on_timer(ctx, timer),
            RNode::Admin(a) => a.on_timer(ctx, timer),
        }
    }
}

fn raft_world(seed: u64, n: u64) -> (Sim<RNode>, Vec<NodeId>) {
    let mut sim: Sim<RNode> = Sim::new(seed, NetConfig::lan());
    let servers: Vec<NodeId> = (0..n).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            RNode::Server(RaftNode::new(s, genesis.clone(), RaftTunables::default())),
        );
    }
    (sim, servers)
}

#[test]
fn raft_steady_state_serves_clients() {
    let (mut sim, servers) = raft_world(31, 3);
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        RNode::Client(RaftClient::new(servers.clone(), |_| 1, Some(100))),
    );
    sim.run_for(SimDuration::from_secs(10));
    match sim.actor(client) {
        Some(RNode::Client(c)) => assert_eq!(c.completed(), 100),
        _ => unreachable!(),
    }
    for &s in &servers {
        match sim.actor(s) {
            Some(RNode::Server(n)) => assert_eq!(n.state_machine().value(), 100, "{s}"),
            _ => unreachable!(),
        }
    }
}

#[test]
fn raft_leader_crash_failover() {
    let (mut sim, servers) = raft_world(32, 3);
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        RNode::Client(RaftClient::new(servers.clone(), |_| 1, Some(1500))),
    );
    sim.run_for(SimDuration::from_millis(400));
    let leader = servers
        .iter()
        .copied()
        .find(|&s| match sim.actor(s) {
            Some(RNode::Server(n)) => n.core().is_leader(),
            _ => false,
        })
        .expect("leader exists");
    sim.crash(leader);
    sim.run_for(SimDuration::from_secs(30));
    match sim.actor(client) {
        Some(RNode::Client(c)) => assert_eq!(c.completed(), 1500),
        _ => unreachable!(),
    }
}

#[test]
fn raft_membership_change_under_load() {
    let (mut sim, servers) = raft_world(33, 3);
    let joiner = NodeId(3);
    sim.add_node_with_id(
        joiner,
        RNode::Server(RaftNode::joining(joiner, RaftTunables::default())),
    );
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        RNode::Client(RaftClient::new(servers.clone(), |_| 1, Some(600))),
    );
    sim.add_node_with_id(
        NodeId(99),
        RNode::Admin(RaftAdmin::new(
            servers.clone(),
            vec![(
                SimTime::from_millis(400),
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            )],
        )),
    );
    sim.run_for(SimDuration::from_secs(30));
    match sim.actor(NodeId(99)) {
        Some(RNode::Admin(a)) => assert_eq!(a.results().len(), 1, "change must complete"),
        _ => unreachable!(),
    }
    match sim.actor(client) {
        Some(RNode::Client(c)) => assert_eq!(c.completed(), 600),
        _ => unreachable!(),
    }
    match sim.actor(joiner) {
        Some(RNode::Server(n)) => {
            assert!(n.core().current_members().contains(&joiner));
            assert_eq!(n.state_machine().value(), 600, "joiner must converge");
        }
        _ => unreachable!(),
    }
}

#[test]
fn raft_full_replacement_via_single_steps() {
    let (mut sim, servers) = raft_world(34, 3);
    for id in [3u64, 4, 5] {
        sim.add_node_with_id(
            NodeId(id),
            RNode::Server(RaftNode::joining(NodeId(id), RaftTunables::default())),
        );
    }
    let client = NodeId(100);
    sim.add_node_with_id(
        client,
        RNode::Client(RaftClient::new(servers.clone(), |_| 1, Some(800))),
    );
    sim.add_node_with_id(
        NodeId(99),
        RNode::Admin(RaftAdmin::new(
            servers.clone(),
            vec![(
                SimTime::from_millis(400),
                vec![NodeId(3), NodeId(4), NodeId(5)],
            )],
        )),
    );
    sim.run_for(SimDuration::from_secs(60));
    match sim.actor(NodeId(99)) {
        Some(RNode::Admin(a)) => assert!(a.is_done(), "six single steps must all land"),
        _ => unreachable!(),
    }
    match sim.actor(client) {
        Some(RNode::Client(c)) => assert_eq!(c.completed(), 800),
        _ => unreachable!(),
    }
    for id in [3u64, 4, 5] {
        match sim.actor(NodeId(id)) {
            Some(RNode::Server(n)) => {
                assert_eq!(n.state_machine().value(), 800, "n{id} diverged")
            }
            _ => unreachable!(),
        }
    }
}
