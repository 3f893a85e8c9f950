//! Workspace-spanning tests: the three systems (speculative composition,
//! stop-the-world composition, raft-lite) replicate the same application to
//! the same final state, and their operational differences show up where
//! the design predicts.

use reconfigurable_smr::baselines::{
    RaftAdmin, RaftClient, RaftNode, RaftTunables, RaftWorld, StwNode, StwWorld,
};
use reconfigurable_smr::consensus::{PaxosTunables, StaticConfig};
use reconfigurable_smr::kvstore::{KeyDist, KvStore, WorkloadGen};
use reconfigurable_smr::rsmr::harness::World;
use reconfigurable_smr::rsmr::{AdminActor, RsmrClient, RsmrNode, RsmrTunables};
use reconfigurable_smr::simnet::{NetConfig, NodeId, Sim, SimDuration, SimTime};

const OPS: u64 = 300;

fn workload(seed: u64) -> impl FnMut(u64) -> reconfigurable_smr::kvstore::KvOp {
    WorkloadGen::new(seed, KeyDist::Uniform(64), 0.3, 16).into_fn()
}

fn reconfig_script() -> Vec<(SimTime, Vec<NodeId>)> {
    vec![(
        SimTime::from_millis(400),
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
    )]
}

/// Runs the speculative composition; returns (client completions, final
/// state snapshot from one replica, retransmits). Every run is checked
/// online by the protocol-invariant observer — a violation panics.
fn run_rsmr(seed: u64) -> (u64, Vec<u8>, u64) {
    use reconfigurable_smr::rsmr::InvariantObserver;
    use reconfigurable_smr::simnet::observe::shared;

    let mut sim: Sim<World<KvStore>> = Sim::new(seed, NetConfig::lan());
    let checker = shared(InvariantObserver::strict());
    sim.add_observer(checker.clone());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            World::server(RsmrNode::genesis(
                s,
                genesis.clone(),
                RsmrTunables::default(),
            )),
        );
    }
    sim.add_node_with_id(
        NodeId(3),
        World::server(RsmrNode::joining(NodeId(3), RsmrTunables::default())),
    );
    sim.add_node_with_id(
        NodeId(100),
        World::client(RsmrClient::new(servers.clone(), workload(seed), Some(OPS))),
    );
    sim.add_node_with_id(
        NodeId(99),
        World::admin(AdminActor::new(servers, reconfig_script())),
    );
    sim.run_for(SimDuration::from_secs(40));
    let done = sim.actor(NodeId(100)).unwrap().completed();
    let snap = {
        use reconfigurable_smr::rsmr::StateMachine;
        sim.actor(NodeId(3))
            .unwrap()
            .as_server()
            .unwrap()
            .state_machine()
            .snapshot()
    };
    let checker = checker.borrow();
    checker.assert_clean();
    assert!(
        checker.domain_events_seen() > 0,
        "the invariant observer saw no domain events"
    );
    (done, snap, sim.metrics().counter("client.retransmits"))
}

fn run_stw(seed: u64) -> (u64, Vec<u8>, u64) {
    let mut sim: Sim<StwWorld<KvStore>> = Sim::new(seed, NetConfig::lan());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            StwWorld::Server(StwNode::genesis(
                s,
                genesis.clone(),
                PaxosTunables::default(),
            )),
        );
    }
    sim.add_node_with_id(
        NodeId(3),
        StwWorld::Server(StwNode::joining(NodeId(3), PaxosTunables::default())),
    );
    sim.add_node_with_id(
        NodeId(100),
        StwWorld::Client(RsmrClient::new(servers.clone(), workload(seed), Some(OPS))),
    );
    sim.add_node_with_id(
        NodeId(99),
        StwWorld::Admin(AdminActor::new(servers, reconfig_script())),
    );
    sim.run_for(SimDuration::from_secs(40));
    let done = sim.actor(NodeId(100)).unwrap().completed();
    let snap = {
        use reconfigurable_smr::rsmr::StateMachine;
        sim.actor(NodeId(3))
            .unwrap()
            .as_server()
            .unwrap()
            .state_machine()
            .snapshot()
    };
    (done, snap, sim.metrics().counter("client.retransmits"))
}

fn run_raft(seed: u64) -> (u64, Vec<u8>, u64) {
    let mut sim: Sim<RaftWorld<KvStore>> = Sim::new(seed, NetConfig::lan());
    let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            RaftWorld::Server(RaftNode::new(s, genesis.clone(), RaftTunables::default())),
        );
    }
    sim.add_node_with_id(
        NodeId(3),
        RaftWorld::Server(RaftNode::joining(NodeId(3), RaftTunables::default())),
    );
    sim.add_node_with_id(
        NodeId(100),
        RaftWorld::Client(RaftClient::new(servers.clone(), workload(seed), Some(OPS))),
    );
    sim.add_node_with_id(
        NodeId(99),
        RaftWorld::Admin(RaftAdmin::new(
            servers,
            vec![(
                SimTime::from_millis(400),
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            )],
        )),
    );
    sim.run_for(SimDuration::from_secs(40));
    let done = sim.actor(NodeId(100)).unwrap().completed();
    let snap = {
        use reconfigurable_smr::rsmr::StateMachine;
        sim.actor(NodeId(3))
            .unwrap()
            .as_server()
            .unwrap()
            .state_machine()
            .snapshot()
    };
    (done, snap, sim.metrics().counter("client.retransmits"))
}

#[test]
fn all_three_systems_converge_to_the_same_state() {
    // Same deterministic workload against all three systems: the joiner
    // replica must end up with byte-identical application state.
    let (d1, s1, _) = run_rsmr(7);
    let (d2, s2, _) = run_stw(7);
    let (d3, s3, _) = run_raft(7);
    assert_eq!(d1, OPS);
    assert_eq!(d2, OPS);
    assert_eq!(d3, OPS);
    assert_eq!(s1, s2, "rsmr vs stop-the-world state mismatch");
    assert_eq!(s1, s3, "rsmr vs raft state mismatch");
}

#[test]
fn speculative_composition_disturbs_clients_least() {
    // The STW baseline bounces requests during its blocking window; the
    // speculative composition should disturb the client no more than it.
    let (_, _, rsmr_rtx) = run_rsmr(11);
    let (_, _, stw_rtx) = run_stw(11);
    assert!(
        rsmr_rtx <= stw_rtx,
        "speculative composition retransmits ({rsmr_rtx}) exceed stop-the-world ({stw_rtx})"
    );
}

#[test]
fn runs_are_deterministic_per_system() {
    assert_eq!(run_rsmr(5).1, run_rsmr(5).1);
    assert_eq!(run_stw(5).1, run_stw(5).1);
    assert_eq!(run_raft(5).1, run_raft(5).1);
}

#[test]
fn facade_reexports_are_usable() {
    // The root crate exposes every layer a downstream user needs.
    use reconfigurable_smr::consensus::Ballot;
    use reconfigurable_smr::rsmr::Epoch;
    use reconfigurable_smr::simnet::SimTime;
    let _ = Ballot::new(1, NodeId(1));
    let _ = Epoch(1);
    let _ = SimTime::ZERO;
}
