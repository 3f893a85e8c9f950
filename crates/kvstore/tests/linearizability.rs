//! The reproduction's headline safety property, machine-checked: histories
//! observed by concurrent clients of the composed reconfigurable machine
//! are **linearizable**, including across membership changes, leader
//! crashes and lossy networks.

use consensus::StaticConfig;
use kvstore::{linearizable, HistoryOp, KvOp, KvOutput, KvStore};
use rsmr_core::{AdminActor, RsmrClient, RsmrMsg, RsmrNode, RsmrTunables};
use simnet::{Actor, Context, NetConfig, NodeId, Sim, SimDuration, SimRng, SimTime, Timer};

type Msg = RsmrMsg<KvOp, KvOutput>;

#[allow(clippy::large_enum_variant)] // one value per node, stored once
enum Node {
    Server(RsmrNode<KvStore>),
    Client(RsmrClient<KvStore>),
    Admin(AdminActor<KvStore>),
}

impl Actor for Node {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        match self {
            Node::Server(a) => a.on_start(ctx),
            Node::Client(a) => a.on_start(ctx),
            Node::Admin(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            Node::Server(a) => a.on_message(ctx, from, msg),
            Node::Client(a) => a.on_message(ctx, from, msg),
            Node::Admin(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
        match self {
            Node::Server(a) => a.on_timer(ctx, timer),
            Node::Client(a) => a.on_timer(ctx, timer),
            Node::Admin(a) => a.on_timer(ctx, timer),
        }
    }
}

/// A contended mixed workload over a tiny keyspace (maximal interleaving):
/// puts, gets and CAS on 3 keys.
fn contended_gen(client: u64) -> impl FnMut(u64) -> KvOp {
    move |seq| {
        let key = format!("k{}", (client + seq) % 3);
        match seq % 4 {
            0 => KvOp::Put(key, vec![client as u8, seq as u8]),
            1 | 2 => KvOp::Get(key),
            _ => KvOp::Append(key, vec![seq as u8]),
        }
    }
}

struct RunResult {
    histories: Vec<HistoryOp<KvOp, KvOutput>>,
    all_completed: bool,
}

#[derive(Clone, Copy, Default)]
struct Faults {
    /// Crash the active leader at this time (ms).
    crash_leader_at_ms: Option<u64>,
    /// Partition the active leader away at this time (ms), healing 500ms
    /// later — the stale-read-lease hazard.
    partition_leader_at_ms: Option<u64>,
    /// Enable lease-based local reads (100ms leases).
    local_reads: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_world(
    seed: u64,
    n_servers: u64,
    n_clients: u64,
    ops_per_client: u64,
    drop_rate: f64,
    reconfig: Option<(u64, Vec<u64>)>, // (at_ms, member ids)
    faults: Faults,
    horizon_secs: u64,
) -> RunResult {
    let net = if drop_rate > 0.0 {
        NetConfig::lossy(drop_rate)
    } else {
        NetConfig::lan()
    };
    let mut tun = RsmrTunables::default();
    if faults.local_reads {
        tun.paxos.lease_duration = Some(simnet::SimDuration::from_millis(100));
    }
    let mut sim: Sim<Node> = Sim::new(seed, net);
    let servers: Vec<NodeId> = (0..n_servers).map(NodeId).collect();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(
            s,
            Node::Server(RsmrNode::genesis(s, genesis.clone(), tun.clone())),
        );
    }
    // Joiners mentioned by the reconfig target but not in genesis.
    if let Some((_, target)) = &reconfig {
        for &m in target {
            if m >= n_servers {
                sim.add_node_with_id(
                    NodeId(m),
                    Node::Server(RsmrNode::joining(NodeId(m), tun.clone())),
                );
            }
        }
    }
    let clients: Vec<NodeId> = (0..n_clients).map(|c| NodeId(100 + c)).collect();
    for (i, &c) in clients.iter().enumerate() {
        sim.add_node_with_id(
            c,
            Node::Client(
                RsmrClient::new(
                    servers.clone(),
                    contended_gen(i as u64),
                    Some(ops_per_client),
                )
                .with_history(),
            ),
        );
    }
    if let Some((at_ms, target)) = &reconfig {
        sim.add_node_with_id(
            NodeId(99),
            Node::Admin(AdminActor::new(
                servers.clone(),
                vec![(
                    SimTime::from_millis(*at_ms),
                    target.iter().map(|&m| NodeId(m)).collect(),
                )],
            )),
        );
    }

    let find_leader = |sim: &Sim<Node>| {
        servers
            .iter()
            .copied()
            .find(|&s| matches!(sim.actor(s), Some(Node::Server(n)) if n.is_active_leader()))
    };
    if let Some(at) = faults.crash_leader_at_ms {
        sim.run_for(SimDuration::from_millis(at));
        if let Some(l) = find_leader(&sim) {
            sim.crash(l);
        }
    }
    if let Some(at) = faults.partition_leader_at_ms {
        sim.run_for(SimDuration::from_millis(at));
        if let Some(l) = find_leader(&sim) {
            let rest: Vec<NodeId> = sim.node_ids().into_iter().filter(|&n| n != l).collect();
            sim.partition(&[l], &rest);
            sim.run_for(SimDuration::from_millis(500));
            sim.heal_all();
        }
    }
    sim.run_for(SimDuration::from_secs(horizon_secs));

    let mut histories = Vec::new();
    let mut all_completed = true;
    for &c in &clients {
        match sim.actor(c) {
            Some(Node::Client(cl)) => {
                all_completed &= cl.completed() == ops_per_client;
                for (_seq, op, out, invoke, response) in cl.history() {
                    histories.push(HistoryOp {
                        process: c.0,
                        invoke: *invoke,
                        response: *response,
                        input: op.clone(),
                        output: out.clone(),
                    });
                }
            }
            _ => unreachable!(),
        }
    }
    RunResult {
        histories,
        all_completed,
    }
}

#[test]
fn linearizable_in_steady_state() {
    let r = run_world(1, 3, 4, 30, 0.0, None, Faults::default(), 30);
    assert!(r.all_completed);
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_across_a_membership_change() {
    let r = run_world(
        2,
        3,
        4,
        40,
        0.0,
        Some((400, vec![0, 1, 2, 3])),
        Faults::default(),
        40,
    );
    assert!(r.all_completed, "clients must finish");
    assert!(
        linearizable(KvStore::new(), &r.histories),
        "history across the reconfiguration must be linearizable"
    );
}

#[test]
fn linearizable_across_full_replacement() {
    let r = run_world(
        3,
        3,
        3,
        40,
        0.0,
        Some((400, vec![3, 4, 5])),
        Faults::default(),
        40,
    );
    assert!(r.all_completed);
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_with_leader_crash_during_reconfig() {
    let r = run_world(
        4,
        3,
        3,
        40,
        0.0,
        Some((400, vec![0, 1, 2, 3])),
        Faults {
            crash_leader_at_ms: Some(420),
            ..Faults::default()
        },
        60,
    );
    assert!(r.all_completed);
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_on_a_lossy_network() {
    let r = run_world(
        5,
        3,
        3,
        25,
        0.02,
        Some((400, vec![0, 1, 2, 3])),
        Faults::default(),
        60,
    );
    // Completion is best-effort under loss; the *completed* prefix must
    // still be linearizable.
    assert!(!r.histories.is_empty());
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_with_local_reads_in_steady_state() {
    let r = run_world(
        6,
        3,
        4,
        40,
        0.0,
        None,
        Faults {
            local_reads: true,
            ..Faults::default()
        },
        30,
    );
    assert!(r.all_completed);
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_with_local_reads_across_a_reconfiguration() {
    let r = run_world(
        7,
        3,
        4,
        40,
        0.0,
        Some((400, vec![0, 1, 2, 3])),
        Faults {
            local_reads: true,
            ..Faults::default()
        },
        40,
    );
    assert!(r.all_completed);
    assert!(linearizable(KvStore::new(), &r.histories));
}

#[test]
fn linearizable_with_local_reads_despite_a_partitioned_leaseholder() {
    // The stale-read hazard: the lease-holding leader is partitioned away
    // while a new leader commits writes. The lease (100ms) expires before
    // any new leader can be elected (150ms+ timeout), so reads the old
    // leader served must still linearize.
    for seed in [8u64, 88, 888] {
        let r = run_world(
            seed,
            3,
            4,
            60,
            0.0,
            None,
            Faults {
                partition_leader_at_ms: Some(300),
                local_reads: true,
                ..Faults::default()
            },
            60,
        );
        assert!(r.all_completed, "seed {seed}");
        assert!(
            linearizable(KvStore::new(), &r.histories),
            "stale leased read detected with seed {seed}"
        );
    }
}

/// Randomized schedules: seeds, loss, reconfiguration timing and target,
/// optional leader crash — the history must always check out. Cases come
/// from a seeded generator so every failure is reproducible.
#[test]
fn linearizable_under_random_faults() {
    let mut gen = SimRng::seed_from_u64(0x11EA12);
    for _case in 0..12 {
        let seed = gen.gen_range(0u64..100_000);
        let drop_permille = gen.gen_range(0u64..30);
        let reconfig_at = gen.gen_range(200u64..1_000);
        let target_kind = gen.gen_range(0usize..3);
        let crash = gen.gen_bool(0.5);

        let target = match target_kind {
            0 => vec![0, 1, 2, 3], // add one
            1 => vec![0, 1],       // remove one
            _ => vec![1, 2, 3],    // rotate one
        };
        let r = run_world(
            seed,
            3,
            3,
            25,
            drop_permille as f64 / 1000.0,
            Some((reconfig_at, target)),
            Faults {
                crash_leader_at_ms: if crash { Some(reconfig_at + 30) } else { None },
                ..Faults::default()
            },
            90,
        );
        assert!(
            linearizable(KvStore::new(), &r.histories),
            "non-linearizable history with seed={seed}"
        );
        if drop_permille == 0 && !crash {
            assert!(r.all_completed, "benign run must complete, seed={seed}");
        }
    }
}
