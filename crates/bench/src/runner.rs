//! Scenario definitions, the `System` trait every system under test
//! implements, and the generic driver that runs a scenario on one.

use std::cell::RefCell;
use std::rc::Rc;

use baselines::{RaftAdmin, RaftClient, RaftNode, RaftTunables, RaftWorld, StwNode, StwWorld};
use consensus::actor::{ReplicaActor, SmrClient, SmrMsg};
use consensus::{PaxosTunables, StaticConfig};
use kvstore::{HistoryOp, KeyDist, KvOp, KvOutput, KvStore, WorkloadGen};
use rsmr_core::client::HistoryEntry;
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, InvariantObserver, RsmrClient, RsmrNode, RsmrTunables};
use simnet::observe::shared;
use simnet::{
    Actor, ChaosDriver, Context, EventDigest, FaultPlan, FaultTarget, LatencyModel,
    LifecycleCoverage, Metrics, NetConfig, NodeId, Sim, SimDuration, SimTime, Spans, StableStore,
    Timer,
};

/// Which system a scenario runs on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// The bare static Multi-Paxos block (no reconfiguration support).
    Static,
    /// The composed reconfigurable machine, speculation on.
    Rsmr,
    /// The composition with speculative handoff disabled (ablation).
    RsmrNoSpec,
    /// The composition with in-core leader batching and a pipelined
    /// proposal window (64 commands/slot, 1ms flush deadline, 8-slot
    /// window by default; [`Scenario::batching`] overrides).
    RsmrBatched,
    /// Stop-the-world composition baseline.
    Stw,
    /// Raft-lite (natively reconfigurable).
    Raft,
}

impl SystemKind {
    /// Short display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Static => "static-paxos",
            SystemKind::Rsmr => "rsmr (spec)",
            SystemKind::RsmrNoSpec => "rsmr (no-spec)",
            SystemKind::RsmrBatched => "rsmr (batched)",
            SystemKind::Stw => "stop-the-world",
            SystemKind::Raft => "raft-lite",
        }
    }

    /// Every reconfigurable system.
    pub fn reconfigurable() -> [SystemKind; 4] {
        [
            SystemKind::Rsmr,
            SystemKind::RsmrNoSpec,
            SystemKind::Stw,
            SystemKind::Raft,
        ]
    }
}

/// A parameterized experiment run. Construct with [`Scenario::new`] and
/// chain the builder methods.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// RNG seed (a run is a pure function of the scenario).
    pub seed: u64,
    /// Genesis cluster size (ids `0..n_servers`).
    pub n_servers: u64,
    /// Ids of standby joiners to spawn (must appear in `script` targets).
    pub joiners: Vec<u64>,
    /// Number of closed-loop clients (ids `100..`).
    pub n_clients: u64,
    /// Per-client operation limit (`None` = run until the horizon).
    pub ops_per_client: Option<u64>,
    /// Virtual time at which clients are added.
    pub client_start: SimTime,
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Value size for writes, bytes.
    pub value_size: usize,
    /// Keyspace size.
    pub keyspace: usize,
    /// Pre-filled application state `(keys, bytes_per_key)` — controls
    /// state-transfer size.
    pub filler: Option<(usize, usize)>,
    /// Reconfiguration script: `(at, target member ids)`.
    pub script: Vec<(SimTime, Vec<u64>)>,
    /// Declarative fault schedule, applied by a [`ChaosDriver`]. Role
    /// targets (leader, donor, joiner) are resolved against the system
    /// under test at fire time.
    pub faults: FaultPlan,
    /// Install a collecting [`InvariantObserver`]; violations surface in
    /// [`RunOut::invariant_violations`].
    pub check_invariants: bool,
    /// End of the run.
    pub horizon: SimTime,
    /// Record client histories (for linearizability checking).
    pub record_history: bool,
    /// Link bandwidth override in bytes/second (`None` keeps the LAN
    /// default).
    pub bandwidth: Option<u64>,
    /// Model each sender's egress port as a serial queue (see
    /// [`NetConfig::with_egress_queueing`]). Needs a finite `bandwidth`
    /// to matter; turns the cap into a real throughput ceiling instead
    /// of a per-message delay.
    pub egress_queueing: bool,
    /// Cap the replication fabric: every server↔server (and joiner) link
    /// gets this bandwidth in bytes/second *with egress queueing*, while
    /// client links keep the scenario default. Models a constrained
    /// cross-replica backbone (e.g. cross-AZ) with local client access —
    /// the regime where per-message framing caps a leader's throughput.
    pub fabric_cap: Option<u64>,
    /// Use the wide-area network profile (20ms ± 4ms one-way, light loss)
    /// instead of the datacenter LAN.
    pub wan: bool,
    /// Enable lease-based local reads on the composed machine (100ms
    /// leases; only affects `Rsmr*` kinds).
    pub local_reads: bool,
    /// Record the event trace (for determinism digests). Off by default —
    /// tracing allocates a line per event.
    pub record_trace: bool,
    /// Install structured-event observers ([`EventDigest`] + [`Spans`]).
    /// Off by default — with no observer the event path costs one branch.
    pub record_events: bool,
    /// Restrict the workload to one hash partition `(shard, groups)` of the
    /// keyspace (see [`kvstore::shard_of`]) — the split-mode sharded driver
    /// runs each group as its own scenario with this set.
    pub shard: Option<(u32, u32)>,
    /// In-core leader batching `(max_batch, max_delay_ms, window)`:
    /// commands per proposal, flush deadline, and pipelined in-flight
    /// slots (see [`consensus::PaxosTunables`]). Applies to `Rsmr*` and
    /// `Stw` via the embedded Paxos tunables and to `Raft` via its
    /// `cmd_batch` knob (`max_batch` only). `None` = unbatched.
    pub batching: Option<(usize, u64, usize)>,
    /// Fixed-delay link permutation for DPOR-flavoured delivery-order
    /// exploration (see [`simnet::link_delay_permutation`]): the three
    /// links among the first three servers get fixed one-way delays chosen
    /// by this index. `None` = the scenario's default links.
    pub delay_perm: Option<u64>,
}

impl Scenario {
    /// A 3-server, 4-client scenario with a 10s horizon.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            n_servers: 3,
            joiners: Vec::new(),
            n_clients: 4,
            ops_per_client: None,
            client_start: SimTime::ZERO,
            read_ratio: 0.5,
            value_size: 64,
            keyspace: 1024,
            filler: None,
            script: Vec::new(),
            faults: FaultPlan::new(),
            check_invariants: false,
            horizon: SimTime::from_secs(10),
            record_history: false,
            bandwidth: None,
            egress_queueing: false,
            fabric_cap: None,
            wan: false,
            local_reads: false,
            record_trace: false,
            record_events: false,
            shard: None,
            batching: None,
            delay_perm: None,
        }
    }

    /// Pins the inter-server link delays to permutation `perm`,
    /// builder-style (see [`simnet::link_delay_permutation`]).
    pub fn delay_perm(mut self, perm: u64) -> Self {
        self.delay_perm = Some(perm);
        self
    }

    /// Enables in-core leader batching, builder-style: up to `max_batch`
    /// commands per proposal, flushed within `max_delay_ms`, with a
    /// pipelined window of `window` outstanding slots (`0` = unbounded).
    pub fn batching(mut self, max_batch: usize, max_delay_ms: u64, window: usize) -> Self {
        self.batching = Some((max_batch, max_delay_ms, window));
        self
    }

    /// Enables the structured-event observers, builder-style.
    pub fn with_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Sets the genesis cluster size.
    pub fn servers(mut self, n: u64) -> Self {
        self.n_servers = n;
        self
    }

    /// Sets the client count.
    pub fn clients(mut self, n: u64) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets standby joiners.
    pub fn joiners(mut self, ids: &[u64]) -> Self {
        self.joiners = ids.to_vec();
        self
    }

    /// Appends a reconfiguration step.
    pub fn reconfigure_at(mut self, at: SimTime, target: &[u64]) -> Self {
        self.script.push((at, target.to_vec()));
        self
    }

    /// Replaces the fault schedule, builder-style.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Schedules a permanent crash of whoever leads at `at` (the old
    /// `crash_leader_at` knob, now one [`simnet::FaultPlan`] event).
    pub fn crash_leader_at(mut self, at: SimTime) -> Self {
        self.faults = self.faults.crash_at(at, FaultTarget::CurrentLeader, None);
        self
    }

    /// Enables invariant checking, builder-style.
    pub fn checked(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Sets the run horizon.
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Pre-fills the application state.
    pub fn filler(mut self, keys: usize, bytes: usize) -> Self {
        self.filler = Some((keys, bytes));
        self
    }

    /// Overrides the link bandwidth (bytes/second).
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Serializes each sender's egress port, builder-style — with a
    /// finite [`Scenario::bandwidth`], concurrent sends queue behind one
    /// another and the cap becomes a throughput ceiling.
    pub fn egress_queueing(mut self) -> Self {
        self.egress_queueing = true;
        self
    }

    /// Caps the server↔server fabric at `bytes_per_sec` with serialized
    /// egress ports, builder-style. Client links keep the scenario
    /// default, so replies stay off the capped resource.
    pub fn fabric_cap(mut self, bytes_per_sec: u64) -> Self {
        self.fabric_cap = Some(bytes_per_sec);
        self
    }

    /// Switches to the WAN profile, builder-style.
    pub fn over_wan(mut self) -> Self {
        self.wan = true;
        self
    }

    /// Restricts the workload to hash shard `shard` of `groups`,
    /// builder-style.
    pub fn sharded_workload(mut self, shard: u32, groups: u32) -> Self {
        self.shard = Some((shard, groups));
        self
    }

    fn net(&self) -> NetConfig {
        let base = if self.wan {
            NetConfig::wan()
        } else {
            NetConfig::lan()
        };
        let base = match self.bandwidth {
            Some(bw) => base.with_bandwidth(Some(bw)),
            None => base,
        };
        base.with_egress_queueing(self.egress_queueing)
    }

    fn initial_state(&self) -> KvStore {
        match self.filler {
            Some((n, sz)) => KvStore::with_filler(n, sz),
            None => KvStore::new(),
        }
    }

    fn server_ids(&self) -> Vec<NodeId> {
        (0..self.n_servers).map(NodeId).collect()
    }

    fn client_ids(&self) -> Vec<NodeId> {
        (0..self.n_clients).map(|c| NodeId(100 + c)).collect()
    }

    fn gen_for(&self, client_idx: u64) -> WorkloadGen {
        let gen = WorkloadGen::new(
            self.seed ^ (0xC11E57 + client_idx),
            KeyDist::Uniform(self.keyspace),
            self.read_ratio,
            self.value_size,
        );
        match self.shard {
            Some((s, g)) => gen.for_shard(s, g),
            None => gen,
        }
    }

    fn admin_script(&self) -> AdminScript {
        self.script
            .iter()
            .map(|(at, ids)| (*at, ids.iter().map(|&i| NodeId(i)).collect()))
            .collect()
    }

    /// Genesis servers plus joiners, in id order: every replica id.
    fn replica_ids(&self) -> Vec<NodeId> {
        let mut ids = self.server_ids();
        ids.extend(self.joiners.iter().map(|&j| NodeId(j)));
        ids
    }

    /// Every node a partition or degradation window severs the target from.
    fn chaos_scope(&self) -> Vec<NodeId> {
        let mut scope = self.replica_ids();
        scope.extend(self.client_ids());
        if !self.script.is_empty() {
            scope.push(ADMIN);
        }
        scope
    }
}

pub(crate) const ADMIN: NodeId = NodeId(99);

/// Digest, span aggregator and lifecycle coverage over the structured
/// event stream.
type EventProbes = (
    Rc<RefCell<EventDigest>>,
    Rc<RefCell<Spans>>,
    Rc<RefCell<LifecycleCoverage>>,
);

/// What a driver observes a run with, each part only when the scenario
/// asks for it: the event trace, the structured-event probes and a
/// collecting [`InvariantObserver`]. [`Observers::finish`] drains them
/// into a [`RunOut`].
pub(crate) struct Observers {
    events: Option<EventProbes>,
    invariants: Option<Rc<RefCell<InvariantObserver>>>,
}

impl Observers {
    /// Installs on `sim` the observers the three flags ask for.
    pub(crate) fn install<A: Actor>(
        sim: &mut Sim<A>,
        trace: bool,
        events: bool,
        invariants: bool,
    ) -> Self {
        if trace {
            sim.enable_trace();
        }
        let events = events.then(|| {
            let probes = (
                shared(EventDigest::new()),
                shared(Spans::new()),
                shared(LifecycleCoverage::new()),
            );
            sim.add_observer(probes.0.clone());
            sim.add_observer(probes.1.clone());
            sim.add_observer(probes.2.clone());
            probes
        });
        let invariants = invariants.then(|| {
            let inv = shared(InvariantObserver::new());
            sim.add_observer(inv.clone());
            inv
        });
        Observers { events, invariants }
    }

    /// Drains one finished simulation into a [`RunOut`]. The metrics sink
    /// is moved out of the simulator rather than cloned — at the end of a
    /// long run it holds every counter, timeline and histogram map, and
    /// the sim is about to be dropped anyway.
    pub(crate) fn finish<A: Actor>(
        self,
        sim: &mut Sim<A>,
        horizon: SimTime,
        chaos_log: Vec<(SimTime, String)>,
        completed: u64,
        admin: Vec<(SimTime, SimTime)>,
        histories: Vec<HistoryOp<KvOp, KvOutput>>,
    ) -> RunOut {
        let mut out = RunOut {
            completed,
            metrics: sim.take_metrics(),
            admin,
            horizon,
            histories,
            trace_digest: sim.trace().digest(),
            event_digest: 0,
            event_count: 0,
            digest_prefixes: Vec::new(),
            lifecycle_signature: 0,
            spans: None,
            invariant_violations: self
                .invariants
                .map(|o| o.borrow().violations().to_vec())
                .unwrap_or_default(),
            chaos_log,
        };
        if let Some((digest, spans, lifecycle)) = self.events {
            let digest = digest.borrow();
            out.event_digest = digest.value();
            out.event_count = digest.count();
            out.digest_prefixes = digest.prefix_digests().to_vec();
            out.lifecycle_signature = lifecycle.borrow().signature();
            out.spans = Some(spans.borrow().clone());
        }
        out
    }
}

/// Everything extracted from one run.
pub struct RunOut {
    /// Total client completions.
    pub completed: u64,
    /// The full metrics sink of the run.
    pub metrics: Metrics,
    /// Admin reconfiguration results as `(started, finished)`.
    pub admin: Vec<(SimTime, SimTime)>,
    /// The run's horizon.
    pub horizon: SimTime,
    /// Client histories (empty unless `record_history`).
    pub histories: Vec<HistoryOp<KvOp, KvOutput>>,
    /// FNV-1a digest of the event trace (0 unless `record_trace`).
    pub trace_digest: u64,
    /// FNV-1a digest of the structured event stream (0 unless
    /// `record_events`).
    pub event_digest: u64,
    /// Number of structured events folded into `event_digest`.
    pub event_count: u64,
    /// `(event_count, digest)` checkpoints captured at power-of-two event
    /// counts — the coverage-guided sweep's prefix-coverage signal (empty
    /// unless `record_events`).
    pub digest_prefixes: Vec<(u64, u64)>,
    /// Lifecycle-interleaving signature bitmask (see
    /// [`simnet::LifecycleCoverage`]; 0 unless `record_events`).
    pub lifecycle_signature: u64,
    /// Span aggregation over the event stream (`None` unless
    /// `record_events`).
    pub spans: Option<Spans>,
    /// Safety violations collected by the [`InvariantObserver`] (empty
    /// unless `check_invariants`).
    pub invariant_violations: Vec<String>,
    /// The chaos driver's applied/skipped fault log (empty without faults).
    pub chaos_log: Vec<(SimTime, String)>,
}

impl RunOut {
    /// Client-observed latency quantile, microseconds.
    pub fn latency_us(&mut self, q: f64) -> f64 {
        self.metrics
            .histogram_mut("client.latency_us")
            .map(|h| h.quantile(q))
            .unwrap_or(0.0)
    }

    /// Mean client latency, microseconds.
    pub fn latency_mean_us(&self) -> f64 {
        self.metrics
            .histogram("client.latency_us")
            .map(|h| h.mean())
            .unwrap_or(0.0)
    }

    /// Completions per second of virtual time over `[from, to)`.
    pub fn throughput(&self, from: SimTime, to: SimTime) -> f64 {
        let Some(t) = self.metrics.timeline("client.completes") else {
            return 0.0;
        };
        let n: f64 = t
            .points()
            .iter()
            .filter(|(at, _)| *at >= from && *at < to)
            .map(|(_, v)| v)
            .sum();
        let span = to.since(from).as_secs_f64();
        if span > 0.0 {
            n / span
        } else {
            0.0
        }
    }

    /// Completes summed into `bin`-wide buckets over the whole run.
    pub fn completes_bins(&self, bin: SimDuration) -> Vec<f64> {
        self.metrics
            .timeline("client.completes")
            .map(|t| {
                t.binned(SimTime::ZERO, self.horizon, bin)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The longest run of empty `bin`-wide buckets within `[from, to)` —
    /// the service-interruption window, in milliseconds.
    pub fn longest_gap_ms(&self, from: SimTime, to: SimTime, bin: SimDuration) -> u64 {
        self.metrics
            .timeline("client.completes")
            .map(|t| t.longest_gap_bins(from, to, bin) as u64 * bin.as_millis())
            .unwrap_or(u64::MAX)
    }

    /// Total protocol messages sent whose label starts with `prefix`.
    pub fn msgs_with_prefix(&self, prefix: &str) -> u64 {
        self.metrics
            .labels_with_prefix(prefix)
            .iter()
            .map(|(_, v)| v)
            .sum()
    }

    /// The first admin reconfiguration's latency, microseconds.
    pub fn reconfig_latency_us(&self) -> Option<u64> {
        self.admin.first().map(|(s, f)| f.since(*s).as_micros())
    }

    /// FNV-1a fingerprint of the run's entire metrics state. Two runs of
    /// the same scenario must produce equal fingerprints.
    pub fn metrics_fingerprint(&self) -> u64 {
        self.metrics.fingerprint()
    }
}

/// Installs the scenario's fabric cap (if any): every pair of server and
/// joiner ids gets a link override with the capped bandwidth and a
/// serialized egress port. Client links are untouched.
fn apply_fabric_cap<A: Actor>(sim: &mut Sim<A>, sc: &Scenario) {
    let Some(bw) = sc.fabric_cap else { return };
    let cfg = sc.net().with_bandwidth(Some(bw)).with_egress_queueing(true);
    let ids = sc.replica_ids();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            sim.set_link(a, b, cfg.clone());
        }
    }
}

/// Pins the three links among the first three servers to the fixed delays
/// of the scenario's `delay_perm` (DPOR-flavoured delivery-order
/// exploration). A chaos window that later degrades one of these links
/// resets it to the default on heal — acceptable, since the permutation's
/// job is to diversify the pre-fault prefix.
fn apply_delay_perm<A: Actor>(sim: &mut Sim<A>, sc: &Scenario) {
    let Some(perm) = sc.delay_perm else { return };
    let ids = sc.server_ids();
    if ids.len() < 3 {
        return;
    }
    let delays = simnet::link_delay_permutation(perm);
    let pairs = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])];
    for (&(a, b), &d) in pairs.iter().zip(delays.iter()) {
        sim.set_link(a, b, sc.net().with_latency(LatencyModel::Fixed(d)));
    }
}

/// Runs `scenario` on `kind` and extracts the results.
pub fn run(kind: SystemKind, sc: &Scenario) -> RunOut {
    match kind {
        SystemKind::Static => drive(StaticSystem(StaticConfig::new(sc.server_ids())), sc),
        SystemKind::Rsmr => drive(RsmrSystem::new(sc, true, sc.batching), sc),
        SystemKind::RsmrNoSpec => drive(RsmrSystem::new(sc, false, sc.batching), sc),
        // The batched composition defaults to in-core batching (64
        // commands/slot, 1ms flush deadline, 8-slot window) unless the
        // scenario pins its own points.
        SystemKind::RsmrBatched => drive(
            RsmrSystem::new(sc, true, sc.batching.or(Some((64, 1, 8)))),
            sc,
        ),
        SystemKind::Stw => drive(StwSystem::new(sc), sc),
        SystemKind::Raft => drive(RaftSystem::new(sc), sc),
    }
}

/// One admin's reconfiguration script: `(fire at, target members)` steps.
pub(crate) type AdminScript = Vec<(SimTime, Vec<NodeId>)>;

/// Everything a driver decides about one closed-loop client.
pub(crate) struct ClientSpec {
    /// The servers it first contacts.
    pub(crate) servers: Vec<NodeId>,
    /// Its operation stream.
    pub(crate) gen: WorkloadGen,
    /// Operation limit (`None` = until the horizon).
    pub(crate) ops: Option<u64>,
    /// Record a history for linearizability checking.
    pub(crate) history: bool,
    /// An extra completion timeline (the sharded driver's per-group series).
    pub(crate) completes_key: Option<&'static str>,
}

/// One node's actor as the drivers read it back: role targets for the
/// chaos driver, results for [`RunOut`].
pub(crate) enum NodeView<'a> {
    /// A replica: whether it currently leads, and the donor a
    /// `TransferDonor` fault target resolves to through it.
    Replica { leads: bool, donor: Option<NodeId> },
    /// A client: operations completed and its recorded history.
    Client(u64, &'a [HistoryEntry<KvOp, KvOutput>]),
    /// The admin's finished reconfigurations as `(started, finished)`.
    Admin(Vec<(SimTime, SimTime)>),
}

impl NodeView<'_> {
    /// Replica `id` of a system whose leader ships state itself, so the
    /// leader is also the donor.
    fn leader_donor(id: NodeId, leads: bool) -> Self {
        NodeView::Replica {
            leads,
            donor: leads.then_some(id),
        }
    }
}

/// One system under test, as the simulation drivers see it: how to build
/// each kind of node, how to rebuild a crashed one, and how to read its
/// actors back out.
///
/// This is the one place a system plugs into the harness. [`drive`] and
/// the sharded driver are generic over it, so whatever sets a system apart
/// (no joiners, no persisted state, no histories) lives in its impl. The
/// defaults describe a system that cannot reconfigure.
pub(crate) trait System {
    /// The per-node actor: one enum over replica, client and admin.
    type World: Actor;

    /// A genesis member of `config`, starting from application `state`.
    fn genesis(&self, id: NodeId, config: StaticConfig, state: KvStore) -> Self::World;

    /// A blank replica that waits to be named a member; `None` when the
    /// system cannot add members.
    fn joiner(&self, _id: NodeId) -> Option<Self::World> {
        None
    }

    /// A closed-loop client built from `spec`.
    fn client(&self, spec: ClientSpec) -> Self::World;

    /// The admin running `script` against the genesis `members`; `None`
    /// when the system cannot reconfigure.
    fn admin(&self, _members: Vec<NodeId>, _script: AdminScript) -> Option<Self::World> {
        None
    }

    /// Rebuilds a crashed replica from its surviving stable store; `None`
    /// means it re-enters as a [`System::joiner`].
    fn rebuild(&self, _id: NodeId, _store: &StableStore) -> Option<Self::World> {
        None
    }

    /// Node `id`'s actor `w`, read back.
    fn view(id: NodeId, w: &Self::World) -> NodeView<'_>;
}

/// Resolves fault target `t`: the positional targets against the chaos
/// `pool` and `joiners`, the role targets against each pool node's actor
/// as `view` reads it.
pub(crate) fn resolve<'w>(
    pool: &[NodeId],
    joiners: &[NodeId],
    t: &FaultTarget,
    view: impl Fn(NodeId) -> Option<NodeView<'w>>,
) -> Option<NodeId> {
    match t {
        FaultTarget::Node(n) => Some(*n),
        FaultTarget::ServerIdx(k) => pool.get((*k as usize) % pool.len().max(1)).copied(),
        FaultTarget::Joiner => joiners.first().copied(),
        FaultTarget::CurrentLeader => pool
            .iter()
            .copied()
            .find(|&s| matches!(view(s), Some(NodeView::Replica { leads: true, .. }))),
        FaultTarget::TransferDonor => pool.iter().find_map(|&s| match view(s) {
            Some(NodeView::Replica { donor, .. }) => donor,
            _ => None,
        }),
    }
}

/// Applies a scenario's `(max_batch, max_delay_ms, window)` batching point.
fn set_batching(paxos: &mut PaxosTunables, batching: Option<(usize, u64, usize)>) {
    if let Some((max_batch, max_delay_ms, window)) = batching {
        paxos.max_batch = max_batch;
        paxos.max_delay = SimDuration::from_millis(max_delay_ms);
        paxos.window = window;
    }
}

/// The composed machine's client, which stop-the-world shares.
fn rsmr_client(spec: ClientSpec) -> RsmrClient<KvStore> {
    let mut client = RsmrClient::new(spec.servers, spec.gen.into_fn(), spec.ops);
    if spec.history {
        client = client.with_history();
    }
    match spec.completes_key {
        Some(key) => client.with_completes_key(key),
        None => client,
    }
}

/// The `(started, finished)` spans of the composed machine's admin, which
/// stop-the-world shares.
fn admin_spans(admin: &AdminActor<KvStore>) -> Vec<(SimTime, SimTime)> {
    admin.results().iter().map(|&(s, f, _)| (s, f)).collect()
}

/// The composed machine. `Rsmr`, `RsmrNoSpec` and `RsmrBatched` differ only
/// in the tunables it carries.
#[derive(Clone)]
pub(crate) struct RsmrSystem(pub(crate) RsmrTunables);

impl RsmrSystem {
    fn new(sc: &Scenario, fast_handoff: bool, batching: Option<(usize, u64, usize)>) -> Self {
        let mut tun = RsmrTunables {
            fast_handoff,
            ..RsmrTunables::default()
        };
        tun.paxos.lease_duration = sc.local_reads.then(|| SimDuration::from_millis(100));
        set_batching(&mut tun.paxos, batching);
        RsmrSystem(tun)
    }
}

impl System for RsmrSystem {
    type World = World<KvStore>;

    fn genesis(&self, id: NodeId, config: StaticConfig, state: KvStore) -> Self::World {
        World::server(RsmrNode::genesis_with(id, config, self.0.clone(), state))
    }

    fn joiner(&self, id: NodeId) -> Option<Self::World> {
        Some(World::server(RsmrNode::joining(id, self.0.clone())))
    }

    fn client(&self, spec: ClientSpec) -> Self::World {
        World::client(rsmr_client(spec))
    }

    fn admin(&self, members: Vec<NodeId>, script: AdminScript) -> Option<Self::World> {
        Some(World::admin(AdminActor::new(members, script)))
    }

    /// A replica that never anchored has no base to recover from.
    fn rebuild(&self, id: NodeId, store: &StableStore) -> Option<Self::World> {
        RsmrNode::recover(id, self.0.clone(), store).map(World::server)
    }

    fn view(_id: NodeId, w: &Self::World) -> NodeView<'_> {
        match w {
            World::Server(n) => NodeView::Replica {
                leads: n.is_active_leader(),
                donor: n.transfer_provider(),
            },
            World::Client(c) => NodeView::Client(c.completed(), c.history()),
            World::Paced(c) => NodeView::Client(c.completed(), c.history()),
            World::Admin(a) => NodeView::Admin(admin_spans(a)),
        }
    }
}

/// The stop-the-world baseline. It speaks the composed machine's client
/// protocol but records no histories, and its sealing leader ships the
/// snapshot. `StwNode` keeps nothing in stable storage: a restarted
/// replica always re-enters as a joiner and is re-seeded by the next
/// epoch's snapshot broadcast.
#[derive(Clone)]
pub(crate) struct StwSystem(pub(crate) PaxosTunables);

impl StwSystem {
    fn new(sc: &Scenario) -> Self {
        let mut tun = PaxosTunables::default();
        set_batching(&mut tun, sc.batching);
        StwSystem(tun)
    }
}

impl System for StwSystem {
    type World = StwWorld<KvStore>;

    fn genesis(&self, id: NodeId, config: StaticConfig, state: KvStore) -> Self::World {
        StwWorld::Server(StwNode::genesis_with(id, config, self.0.clone(), state))
    }

    fn joiner(&self, id: NodeId) -> Option<Self::World> {
        Some(StwWorld::Server(StwNode::joining(id, self.0.clone())))
    }

    fn client(&self, spec: ClientSpec) -> Self::World {
        StwWorld::Client(rsmr_client(ClientSpec {
            history: false,
            ..spec
        }))
    }

    fn admin(&self, members: Vec<NodeId>, script: AdminScript) -> Option<Self::World> {
        Some(StwWorld::Admin(AdminActor::new(members, script)))
    }

    fn view(id: NodeId, w: &Self::World) -> NodeView<'_> {
        match w {
            StwWorld::Server(n) => NodeView::leader_donor(id, n.is_current_leader()),
            StwWorld::Client(c) => NodeView::Client(c.completed(), c.history()),
            StwWorld::Admin(a) => NodeView::Admin(admin_spans(a)),
        }
    }
}

/// Raft-lite. Its snapshot donor is the leader; it batches through
/// `cmd_batch` (`max_batch` only), and its clients keep only the aggregate
/// completion timeline.
struct RaftSystem(RaftTunables);

impl RaftSystem {
    fn new(sc: &Scenario) -> Self {
        let mut tun = RaftTunables::default();
        if let Some((max_batch, _, _)) = sc.batching {
            tun.cmd_batch = max_batch;
        }
        RaftSystem(tun)
    }
}

impl System for RaftSystem {
    type World = RaftWorld<KvStore>;

    fn genesis(&self, id: NodeId, config: StaticConfig, state: KvStore) -> Self::World {
        RaftWorld::Server(RaftNode::with_state(id, config, self.0.clone(), state))
    }

    fn joiner(&self, id: NodeId) -> Option<Self::World> {
        Some(RaftWorld::Server(RaftNode::joining(id, self.0.clone())))
    }

    fn client(&self, spec: ClientSpec) -> Self::World {
        let client = RaftClient::new(spec.servers, spec.gen.into_fn(), spec.ops);
        RaftWorld::Client(if spec.history {
            client.with_history()
        } else {
            client
        })
    }

    fn admin(&self, members: Vec<NodeId>, script: AdminScript) -> Option<Self::World> {
        Some(RaftWorld::Admin(RaftAdmin::new(members, script)))
    }

    /// Term, vote, snapshot and log come back from the stable store,
    /// exactly as a real raft process restarts.
    fn rebuild(&self, id: NodeId, store: &StableStore) -> Option<Self::World> {
        let tun = self.0.clone();
        Some(RaftWorld::Server(RaftNode::recover(id, tun, store)))
    }

    fn view(id: NodeId, w: &Self::World) -> NodeView<'_> {
        match w {
            RaftWorld::Server(n) => NodeView::leader_donor(id, n.core().is_leader()),
            RaftWorld::Client(c) => NodeView::Client(c.completed(), c.history()),
            RaftWorld::Admin(a) => NodeView::Admin(a.results().to_vec()),
        }
    }
}

/// World actor for the static system. Unboxed like the other worlds:
/// one value per node, stored once in the sim's slot table.
#[allow(clippy::large_enum_variant)]
pub enum StaticWorld {
    /// A replica of the static block.
    Server(ReplicaActor<u64>),
    /// A closed-loop client.
    Client(SmrClient<u64>),
}

impl Actor for StaticWorld {
    type Msg = SmrMsg<u64>;
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            StaticWorld::Server(a) => a.on_start(ctx),
            StaticWorld::Client(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match self {
            StaticWorld::Server(a) => a.on_message(ctx, from, msg),
            StaticWorld::Client(a) => a.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: Timer) {
        match self {
            StaticWorld::Server(a) => a.on_timer(ctx, timer),
            StaticWorld::Client(a) => a.on_timer(ctx, timer),
        }
    }
}

/// The static building block (non-reconfigurable, the E1/E7/E8 reference),
/// carrying its one configuration. It has no joiners and no admin, its
/// clients issue counter commands instead of the KV workload, and with no
/// reconfiguration the leader is the only donor.
struct StaticSystem(StaticConfig);

impl System for StaticSystem {
    type World = StaticWorld;

    fn genesis(&self, id: NodeId, config: StaticConfig, _state: KvStore) -> Self::World {
        StaticWorld::Server(ReplicaActor::new(id, config, PaxosTunables::default()))
    }

    fn client(&self, spec: ClientSpec) -> Self::World {
        StaticWorld::Client(SmrClient::new(spec.servers, |i| i + 1, spec.ops))
    }

    fn rebuild(&self, id: NodeId, store: &StableStore) -> Option<Self::World> {
        let replica = ReplicaActor::recover(id, self.0.clone(), PaxosTunables::default(), store);
        Some(StaticWorld::Server(replica))
    }

    fn view(id: NodeId, w: &Self::World) -> NodeView<'_> {
        match w {
            StaticWorld::Server(a) => NodeView::leader_donor(id, a.core().is_leader()),
            StaticWorld::Client(c) => NodeView::Client(c.completed(), &[]),
        }
    }
}

/// Runs `sc` on system `sys`: genesis servers, then whatever joiners and
/// admin the system can host, a chaos driver over the fault plan, and the
/// clients at `client_start`.
fn drive<S: System>(sys: S, sc: &Scenario) -> RunOut {
    let mut sim: Sim<S::World> = Sim::new(sc.seed, sc.net());
    apply_fabric_cap(&mut sim, sc);
    apply_delay_perm(&mut sim, sc);
    let observers = Observers::install(
        &mut sim,
        sc.record_trace,
        sc.record_events,
        sc.check_invariants,
    );
    let servers = sc.server_ids();
    let genesis = StaticConfig::new(servers.clone());
    for &s in &servers {
        sim.add_node_with_id(s, sys.genesis(s, genesis.clone(), sc.initial_state()));
    }
    // The chaos pool: genesis servers plus every joiner actually hosted.
    let mut pool = servers.clone();
    for j in sc.joiners.iter().map(|&j| NodeId(j)) {
        if let Some(w) = sys.joiner(j) {
            sim.add_node_with_id(j, w);
            pool.push(j);
        }
    }
    let joiners = pool[servers.len()..].to_vec();
    if !sc.script.is_empty() {
        if let Some(admin) = sys.admin(servers.clone(), sc.admin_script()) {
            sim.add_node_with_id(ADMIN, admin);
        }
    }
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        |sim: &Sim<S::World>, t| {
            resolve(&pool, &joiners, t, |s| sim.actor(s).map(|w| S::view(s, w)))
        },
        |sim: &Sim<S::World>, n| {
            sys.rebuild(n, sim.storage(n))
                .or_else(|| sys.joiner(n))
                .expect("a system without joiners rebuilds every replica")
        },
    );
    driver.run_until(&mut sim, sc.client_start);
    for (i, &c) in sc.client_ids().iter().enumerate() {
        let client = sys.client(ClientSpec {
            servers: servers.clone(),
            gen: sc.gen_for(i as u64),
            ops: sc.ops_per_client,
            history: sc.record_history,
            completes_key: None,
        });
        sim.add_node_with_id(c, client);
    }
    driver.run_until(&mut sim, sc.horizon);

    let mut completed = 0;
    let mut histories = Vec::new();
    for &c in &sc.client_ids() {
        if let Some(NodeView::Client(n, history)) = sim.actor(c).map(|w| S::view(c, w)) {
            completed += n;
            for (_seq, op, out, invoke, response) in history {
                histories.push(HistoryOp {
                    process: c.0,
                    invoke: *invoke,
                    response: *response,
                    input: op.clone(),
                    output: out.clone(),
                });
            }
        }
    }
    let admin = match sim.actor(ADMIN).map(|w| S::view(ADMIN, w)) {
        Some(NodeView::Admin(spans)) => spans,
        _ => Vec::new(),
    };
    let chaos_log = driver.applied().to_vec();
    observers.finish(&mut sim, sc.horizon, chaos_log, completed, admin, histories)
}

/// Runs every `(kind, scenario)` job, fanning out across cores, and returns
/// the outputs **in input order**.
///
/// Each simulation is single-threaded and deterministic in its scenario, so
/// running jobs concurrently cannot change any individual result — the
/// parallelism is purely wall-clock. Worker threads claim jobs through an
/// atomic cursor (no per-thread job partitioning, so one slow scenario
/// doesn't strand the rest behind it).
pub fn run_many(jobs: Vec<(SystemKind, Scenario)>) -> Vec<RunOut> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = jobs.len();
    if n <= 1 {
        return jobs.into_iter().map(|(k, sc)| run(k, &sc)).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((kind, sc)) = jobs.get(i) else { break };
                let out = run(*kind, sc);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unpoisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_completes_a_small_scenario() {
        let sc = Scenario::new(1).clients(2).until(SimTime::from_secs(8));
        let sc = Scenario {
            ops_per_client: Some(50),
            ..sc
        };
        for kind in [
            SystemKind::Static,
            SystemKind::Rsmr,
            SystemKind::RsmrNoSpec,
            SystemKind::Stw,
            SystemKind::Raft,
        ] {
            let out = run(kind, &sc);
            assert_eq!(out.completed, 100, "{} failed to finish", kind.name());
        }
    }

    #[test]
    fn reconfiguration_scenarios_complete_on_all_reconfigurable_systems() {
        let sc = Scenario::new(2)
            .clients(2)
            .joiners(&[3])
            .reconfigure_at(SimTime::from_millis(400), &[0, 1, 2, 3])
            .until(SimTime::from_secs(20));
        let sc = Scenario {
            ops_per_client: Some(100),
            ..sc
        };
        for kind in SystemKind::reconfigurable() {
            let out = run(kind, &sc);
            assert_eq!(out.completed, 200, "{}", kind.name());
            assert_eq!(out.admin.len(), 1, "{}", kind.name());
            assert!(out.reconfig_latency_us().unwrap() > 0);
        }
    }

    #[test]
    fn run_out_helpers_produce_sane_numbers() {
        let sc = Scenario::new(3).clients(2).until(SimTime::from_secs(5));
        let mut out = run(SystemKind::Rsmr, &sc);
        assert!(out.completed > 100);
        assert!(out.throughput(SimTime::from_secs(1), SimTime::from_secs(5)) > 10.0);
        assert!(out.latency_us(0.5) > 0.0);
        assert!(out.latency_us(0.99) >= out.latency_us(0.5));
        assert!(out.msgs_with_prefix("paxos.") > 0);
        assert_eq!(
            out.longest_gap_ms(
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimDuration::from_millis(100)
            ),
            0
        );
    }
}
