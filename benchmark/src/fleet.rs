//! The benchmark's own client fleet, assembled from the public client
//! pieces: `RsmrClient::with_history` / `OpenLoopClient` sessions and
//! `AdminActor`s inside `MultiGroup`s, each thread one `NodeRuntime` over
//! a `TcpTransport`. Unlike `loadgen::run_fleet` it keeps every
//! operation's input and output, so the run can be checked afterwards.

use std::cell::RefCell;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::Duration;

use kvstore::{HistoryOp, KeyDist, KvOp, KvOutput, KvStore, WorkloadGen};
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, OpenLoopClient, RsmrClient};
use simnet::{
    Clock, GroupId, MemStorage, MultiGroup, NodeId, NodeRuntime, RuntimeConfig, SimDuration,
    SimTime, StableStore, TcpConfig, TcpTransport, WallClock,
};

use crate::spec::KEYSPACE;
use crate::stats::SessionTimes;

/// Node id of the admin actor.
const ADMIN: NodeId = NodeId(99);
/// Node id of the one-operation session that times a bring-up.
const PROBE: NodeId = NodeId(98);
/// First client thread's node id.
const CLIENT_BASE: u64 = 100;
/// How often a client thread looks up from its runtime to check the time.
const SLICE: Duration = Duration::from_millis(10);

type ClientActor = MultiGroup<World<KvStore>>;

/// An operation sent but not answered when the fleet stopped.
#[derive(Clone, Debug)]
pub struct Pending {
    pub op: KvOp,
    pub invoked: SimTime,
}

/// Everything one session did.
pub struct SessionLog {
    /// Completed operations in issue order, `process` set to the session.
    pub ops: Vec<HistoryOp<KvOp, KvOutput>>,
    pub pending: Option<Pending>,
}

/// One acknowledged reconfiguration, microseconds on the fleet clock.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfigAck {
    pub group: u32,
    pub sent_us: u64,
    pub acked_us: u64,
    pub epoch: u64,
}

#[derive(Clone)]
pub struct FleetPlan {
    pub servers: Vec<(NodeId, SocketAddr)>,
    pub members: Vec<NodeId>,
    pub groups: u32,
    pub threads: u64,
    pub read_ratio: f64,
    pub value_size: usize,
    pub seed: u64,
    /// Per-session open-loop rate; `None` = closed loop.
    pub open_loop_rate: Option<f64>,
    /// Shared by every thread, so timestamps merge into one timeline.
    pub clock: WallClock,
    /// End of the measured window: from here on the fleet only waits for
    /// what it sent before.
    pub w1: SimTime,
    /// Give up waiting for in-window operations at this instant.
    pub drain_until: SimTime,
    /// `(at, members)` steps every group's admin executes.
    pub reconfigs: Vec<(SimTime, Vec<NodeId>)>,
}

impl FleetPlan {
    pub fn arrival_interval_us(&self) -> Option<u64> {
        self.open_loop_rate.map(|r| (1e6 / r.max(1e-3)) as u64)
    }
}

pub struct FleetResult {
    /// One log per session, thread-major then group.
    pub sessions: Vec<SessionLog>,
    pub reconfigs: Vec<ReconfigAck>,
    /// Every admin finished its script.
    pub admin_done: bool,
}

impl FleetResult {
    pub fn session_times(&self, plan: &FleetPlan) -> Vec<SessionTimes> {
        self.sessions
            .iter()
            .map(|s| SessionTimes {
                completed: s
                    .ops
                    .iter()
                    .map(|o| (o.invoke.as_micros(), o.response.as_micros()))
                    .collect(),
                pending_since: s.pending.as_ref().map(|p| p.invoked.as_micros()),
                arrival_interval_us: plan.arrival_interval_us(),
            })
            .collect()
    }
}

fn runtime(
    node: NodeId,
    actor: ClientActor,
    plan_clock: WallClock,
    servers: &[(NodeId, SocketAddr)],
    seed: u64,
) -> io::Result<NodeRuntime<ClientActor>> {
    let mut tcp = TcpConfig::new(node);
    for &(id, addr) in servers {
        tcp = tcp.peer(id, addr);
    }
    Ok(NodeRuntime::new(
        node,
        actor,
        plan_clock,
        TcpTransport::bind(tcp)?,
        MemStorage,
        StableStore::new(),
        RuntimeConfig {
            seed: seed ^ node.0,
            ..RuntimeConfig::default()
        },
    ))
}

/// Writes the issuing session into bytes 8..16 of a written value, next
/// to the sequence number `WorkloadGen` stamps into bytes 0..8, so no two
/// writes of a run carry the same value and a read pins down which write
/// it saw.
fn stamp_session(op: &mut KvOp, process: u64) {
    if let KvOp::Put(_, value) = op {
        if let Some(slot) = value.get_mut(8..16) {
            slot.copy_from_slice(&process.to_le_bytes());
        }
    }
}

type LastIssued = Rc<RefCell<Option<(u64, Pending)>>>;

/// The seeded operation stream of session `process`, recording the last
/// operation handed to the client so an unanswered one is known.
fn session_gen(
    plan: &FleetPlan,
    thread: u64,
    group: u32,
    last: LastIssued,
) -> impl FnMut(u64) -> KvOp {
    let process = thread * u64::from(plan.groups) + u64::from(group);
    let mut gen = WorkloadGen::new(
        plan.seed ^ (0x10AD_6E00 + thread * 64 + u64::from(group)),
        KeyDist::Uniform(KEYSPACE),
        plan.read_ratio,
        plan.value_size,
    )
    .for_shard(group, plan.groups);
    let clock = plan.clock;
    move |seq| {
        let mut op = gen.next_op(seq);
        stamp_session(&mut op, process);
        *last.borrow_mut() = Some((
            seq,
            Pending {
                op: op.clone(),
                invoked: clock.now(),
            },
        ));
        op
    }
}

fn history_of(world: &World<KvStore>) -> &[rsmr_core::HistoryEntry<KvOp, KvOutput>] {
    match world {
        World::Client(c) => c.history(),
        World::Paced(c) => c.history(),
        _ => &[],
    }
}

/// True once every session answered an operation sent at or after `w1`:
/// sessions issue in order, so nothing sent inside the window is left.
fn drained(actor: &ClientActor, w1: SimTime) -> bool {
    actor
        .entries()
        .all(|(_, w)| history_of(w).last().is_some_and(|e| e.3 >= w1))
}

fn client_thread(plan: &FleetPlan, thread: u64) -> io::Result<Vec<SessionLog>> {
    // The actor holds non-Send closures, so it is built on this thread.
    let mut actor = ClientActor::sealed();
    let mut issued: Vec<LastIssued> = Vec::new();
    for group in 0..plan.groups {
        let last: LastIssued = Rc::new(RefCell::new(None));
        let gen = session_gen(plan, thread, group, Rc::clone(&last));
        issued.push(last);
        let world = match plan.arrival_interval_us() {
            Some(interval) => World::paced(
                OpenLoopClient::new(
                    plan.members.clone(),
                    gen,
                    SimDuration::from_micros(interval),
                    None,
                )
                .with_history(),
            ),
            None => World::client(RsmrClient::new(plan.members.clone(), gen, None).with_history()),
        };
        actor.insert(GroupId(group), world);
    }
    let node = NodeId(CLIENT_BASE + thread);
    let mut rt = runtime(node, actor, plan.clock, &plan.servers, plan.seed)?;
    rt.start();
    loop {
        rt.run_for(SLICE);
        let now = rt.now();
        if now >= plan.drain_until || (now >= plan.w1 && drained(rt.actor(), plan.w1)) {
            break;
        }
    }
    let actor = rt.shutdown();
    let mut logs = Vec::new();
    for ((group, world), last) in actor.entries().zip(issued) {
        let process = thread * u64::from(plan.groups) + u64::from(group.0);
        let ops: Vec<HistoryOp<KvOp, KvOutput>> = history_of(world)
            .iter()
            .map(|(_, op, output, invoke, response)| HistoryOp {
                process,
                invoke: *invoke,
                response: *response,
                input: op.clone(),
                output: output.clone(),
            })
            .collect();
        // Sequence numbers count from 0 without holes, so the last issued
        // operation is unanswered exactly when its number equals the
        // count of answered ones.
        let pending = last
            .borrow_mut()
            .take()
            .filter(|(seq, _)| *seq == ops.len() as u64)
            .map(|(_, p)| p);
        logs.push(SessionLog { ops, pending });
    }
    Ok(logs)
}

/// What the admin thread reports: the acknowledgements, and whether every
/// group's script ran to its end.
type AdminLog = (Vec<ReconfigAck>, bool);

fn admin_thread(plan: &FleetPlan) -> io::Result<AdminLog> {
    let mut actor = ClientActor::sealed();
    for group in 0..plan.groups {
        actor.insert(
            GroupId(group),
            World::admin(AdminActor::new(
                plan.members.clone(),
                plan.reconfigs.clone(),
            )),
        );
    }
    let mut rt = runtime(ADMIN, actor, plan.clock, &plan.servers, plan.seed)?;
    rt.start();
    let all_done = |a: &ClientActor| {
        a.entries()
            .all(|(_, w)| w.as_admin().is_none_or(|ad| ad.is_done()))
    };
    while rt.now() < plan.drain_until && !rt.run_until(all_done, SLICE) {}
    let actor = rt.shutdown();
    let mut acks = Vec::new();
    for (group, world) in actor.entries() {
        if let Some(admin) = world.as_admin() {
            for &(sent, acked, epoch) in admin.results() {
                acks.push(ReconfigAck {
                    group: group.0,
                    sent_us: sent.as_micros(),
                    acked_us: acked.as_micros(),
                    epoch: epoch.0,
                });
            }
        }
    }
    Ok((acks, all_done(&actor)))
}

/// A running fleet; [`Fleet::join`] collects what it did.
pub struct Fleet {
    clients: Vec<JoinHandle<io::Result<Vec<SessionLog>>>>,
    admin: Option<JoinHandle<io::Result<AdminLog>>>,
}

impl Fleet {
    pub fn start(plan: &FleetPlan) -> io::Result<Fleet> {
        let mut clients = Vec::new();
        for thread in 0..plan.threads {
            let plan = plan.clone();
            clients.push(
                std::thread::Builder::new()
                    .name(format!("client-{thread}"))
                    .spawn(move || client_thread(&plan, thread))?,
            );
        }
        let admin = if plan.reconfigs.is_empty() {
            None
        } else {
            let plan = plan.clone();
            Some(
                std::thread::Builder::new()
                    .name("admin".into())
                    .spawn(move || admin_thread(&plan))?,
            )
        };
        Ok(Fleet { clients, admin })
    }

    pub fn join(self) -> io::Result<FleetResult> {
        let panicked = |_| io::Error::other("fleet thread panicked");
        let mut sessions = Vec::new();
        for h in self.clients {
            sessions.extend(h.join().map_err(panicked)??);
        }
        let (reconfigs, admin_done) = match self.admin {
            Some(h) => h.join().map_err(panicked)??,
            None => (Vec::new(), true),
        };
        Ok(FleetResult {
            sessions,
            reconfigs,
            admin_done,
        })
    }
}

/// Sends one write to group 0 and waits for its acknowledgement: the
/// client-visible proof that a freshly spawned cluster serves. Returns
/// whether the reply came within `timeout`.
pub fn first_ack(
    servers: &[(NodeId, SocketAddr)],
    members: &[NodeId],
    timeout: Duration,
) -> io::Result<bool> {
    let op = |_| KvOp::Put("setup/probe".into(), vec![1]);
    let actor = ClientActor::sealed().with_group(
        GroupId(0),
        World::client(RsmrClient::new(members.to_vec(), op, Some(1))),
    );
    let mut rt = runtime(PROBE, actor, WallClock::new(), servers, 0)?;
    let acked = rt.run_until(|a| a.entries().all(|(_, w)| w.completed() >= 1), timeout);
    rt.shutdown();
    Ok(acked)
}
