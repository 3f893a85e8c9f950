//! Sharded multi-group composition runners.
//!
//! The keyspace is hash-partitioned over `G` independent composition
//! groups (see [`kvstore::shard_of`]); each group runs its own epoch chain
//! `S_0, S_1, …` exactly as the single-group system does. Two execution
//! modes are provided:
//!
//! * **Coupled** ([`run_sharded`]): every group lives in *one*
//!   deterministic [`Sim`] on a shared pool of server nodes, multiplexed
//!   by [`MultiGroup`]. Messages carry their [`GroupId`] in the wire
//!   envelope, timers and stable storage are namespaced per group, and
//!   egress bandwidth is shared per node — this is the mode that shows
//!   real throughput scaling (E11) and per-shard reconfiguration while
//!   the other shards keep committing.
//! * **Split** ([`run_split`]): each group runs as its own single-group
//!   scenario, fanned across the existing bounded thread pool, and the
//!   per-group results are merged deterministically in group order. The
//!   merged digest is byte-identical between serial and parallel
//!   execution — the wall-clock accelerator for fault-free sweeps.
//!
//! Client-side routing ("ShardRouter" in the issue): each client node
//! hosts one sub-client bound to the group its key range hashes to; the
//! per-group [`RsmrClient`](rsmr_core::RsmrClient) already tracks that
//! group's leader and member set across reconfigurations, so routing hints
//! come for free.

use consensus::{PaxosTunables, StaticConfig};
use kvstore::{KeyDist, KvStore, WorkloadGen};
use rsmr_core::{RsmrTunables, GROUP_COMPLETES_KEYS};
use simnet::{
    ChaosDriver, FaultPlan, GroupId, MultiGroup, NetConfig, NodeId, Sim, SimDuration, SimTime,
};

use crate::runner::{
    resolve, run, run_many, AdminScript, ClientSpec, NodeView, Observers, RsmrSystem, RunOut,
    Scenario, StwSystem, System, SystemKind, ADMIN,
};

/// Which sharded system a scenario runs on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ShardSystem {
    /// Per-shard reconfiguration: each group is the composed machine, so a
    /// shard reconfigures while the others keep committing.
    Rsmr,
    /// Stop-the-world baseline per shard: the reconfiguring shard freezes.
    Stw,
}

impl ShardSystem {
    /// Short display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ShardSystem::Rsmr => "rsmr-sharded",
            ShardSystem::Stw => "stw-sharded",
        }
    }
}

/// A sharded experiment run: `groups` epoch chains over a `pool`-node
/// server pool inside one simulation.
///
/// Group `g`'s members are pool nodes `{3g, 3g+1, 3g+2} mod pool` — with
/// the default 8-node pool every group of `G ≤ 8` gets a distinct leader,
/// which is what makes aggregate throughput scale once per-node egress
/// bandwidth is capped. The designated joiner for per-shard churn is pool
/// node `(3g+3) mod pool`.
#[derive(Clone, Debug)]
pub struct ShardScenario {
    /// RNG seed (a run is a pure function of the scenario).
    pub seed: u64,
    /// Number of composition groups (1..=8; bounded by the per-group
    /// completion-metric key table).
    pub groups: u32,
    /// Physical server pool size (node ids `0..pool`).
    pub pool: u64,
    /// Number of client nodes (ids `100..`); client `i` drives group
    /// `i % groups`, so the total offered load is constant across `G`.
    pub n_clients: u64,
    /// Per-client operation limit (`None` = run until the horizon).
    pub ops_per_client: Option<u64>,
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Value size for writes, bytes.
    pub value_size: usize,
    /// Keyspace size (hash-partitioned over the groups).
    pub keyspace: usize,
    /// End of the run.
    pub horizon: SimTime,
    /// Per-node egress bandwidth in bytes/second; enables sender-side
    /// queueing so a saturated leader is an actual bottleneck.
    pub bandwidth: Option<u64>,
    /// Per-group reconfiguration steps: `(group, at, target member ids)`.
    pub scripts: Vec<(u32, SimTime, Vec<u64>)>,
    /// Declarative fault schedule; role targets (leader, donor, joiner)
    /// resolve against `fault_group`.
    pub faults: FaultPlan,
    /// The group the fault plan's role targets refer to.
    pub fault_group: u32,
    /// Record the event trace (for determinism digests).
    pub record_trace: bool,
    /// Install structured-event observers.
    pub record_events: bool,
}

impl ShardScenario {
    /// An 8-node pool, 16-client scenario over `groups` groups with a 10s
    /// horizon.
    pub fn new(seed: u64, groups: u32) -> Self {
        assert!(
            groups >= 1 && (groups as usize) <= GROUP_COMPLETES_KEYS.len(),
            "1..=8 groups supported"
        );
        ShardScenario {
            seed,
            groups,
            pool: 8,
            n_clients: 16,
            ops_per_client: None,
            read_ratio: 0.5,
            value_size: 64,
            keyspace: 4096,
            horizon: SimTime::from_secs(10),
            bandwidth: None,
            scripts: Vec::new(),
            faults: FaultPlan::new(),
            fault_group: 0,
            record_trace: false,
            record_events: false,
        }
    }

    /// Sets the client-node count, builder-style.
    pub fn clients(mut self, n: u64) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets the run horizon, builder-style.
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Caps per-node egress bandwidth (bytes/second) with sender-side
    /// queueing, builder-style. This is the "same per-node load limits"
    /// of E11: one saturated leader caps `G=1`, while `G` distinct
    /// leaders lift the aggregate.
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Appends a reconfiguration step for one group, builder-style.
    pub fn reconfigure_group_at(mut self, group: u32, at: SimTime, target: &[u64]) -> Self {
        assert!(group < self.groups);
        self.scripts.push((group, at, target.to_vec()));
        self
    }

    /// Schedules rolling churn: starting at `start`, every group replaces
    /// its first member with its designated joiner, one group every
    /// `stagger`. With the composed machine the aggregate client timeline
    /// should show no gap at all.
    pub fn rolling(mut self, start: SimTime, stagger: SimDuration) -> Self {
        for g in 0..self.groups {
            let at = start + SimDuration::from_micros(stagger.as_micros() * g as u64);
            let target: Vec<u64> = (1..=3).map(|k| (3 * g as u64 + k) % self.pool).collect();
            self.scripts.push((g, at, target));
        }
        self
    }

    /// Replaces the fault schedule; role targets resolve against `group`.
    pub fn with_faults(mut self, plan: FaultPlan, group: u32) -> Self {
        assert!(group < self.groups);
        self.faults = plan;
        self.fault_group = group;
        self
    }

    /// Enables the structured-event observers, builder-style.
    pub fn with_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Enables event tracing, builder-style.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Group `g`'s genesis members.
    pub fn members(&self, g: u32) -> Vec<NodeId> {
        (0..3)
            .map(|k| NodeId((3 * g as u64 + k) % self.pool))
            .collect()
    }

    /// Group `g`'s designated joiner for churn scripts.
    pub fn joiner(&self, g: u32) -> NodeId {
        NodeId((3 * g as u64 + 3) % self.pool)
    }

    /// The groups pool node `node` hosts from genesis.
    fn hosted_groups(&self, node: NodeId) -> Vec<u32> {
        (0..self.groups)
            .filter(|&g| self.members(g).contains(&node))
            .collect()
    }

    fn net(&self) -> NetConfig {
        match self.bandwidth {
            Some(bw) => NetConfig::lan()
                .with_bandwidth(Some(bw))
                .with_egress_queueing(true),
            None => NetConfig::lan(),
        }
    }

    fn client_ids(&self) -> Vec<NodeId> {
        (0..self.n_clients).map(|c| NodeId(100 + c)).collect()
    }

    fn group_of_client(&self, i: u64) -> u32 {
        (i % self.groups as u64) as u32
    }

    fn gen_for(&self, client_idx: u64) -> WorkloadGen {
        WorkloadGen::new(
            self.seed ^ (0x5AADE0 + client_idx),
            KeyDist::Uniform(self.keyspace),
            self.read_ratio,
            self.value_size,
        )
        .for_shard(self.group_of_client(client_idx), self.groups)
    }

    fn chaos_scope(&self) -> Vec<NodeId> {
        let mut scope: Vec<NodeId> = (0..self.pool).map(NodeId).collect();
        scope.extend(self.client_ids());
        if !self.scripts.is_empty() {
            scope.push(ADMIN);
        }
        scope
    }

    /// The single-group scenario split mode runs for group `g`.
    fn split_scenario(&self, g: u32) -> Scenario {
        let clients = (0..self.n_clients)
            .filter(|&i| self.group_of_client(i) == g)
            .count() as u64;
        let mut sc = Scenario::new(self.seed ^ (0x51717D + g as u64))
            .servers(3)
            .clients(clients.max(1))
            .until(self.horizon)
            .sharded_workload(g, self.groups);
        sc.ops_per_client = self.ops_per_client;
        sc.read_ratio = self.read_ratio;
        sc.value_size = self.value_size;
        sc.keyspace = self.keyspace;
        sc.record_trace = self.record_trace;
        sc.record_events = self.record_events;
        sc
    }
}

/// Everything extracted from one coupled sharded run.
pub struct ShardRunOut {
    /// The aggregate view (metrics, digests, flattened admin steps).
    pub run: RunOut,
    /// Group count of the scenario.
    pub groups: u32,
    /// Completions per group, indexed by group id.
    pub per_group_completed: Vec<u64>,
    /// Reconfiguration steps per group as `(started, finished)`.
    pub per_group_admin: Vec<Vec<(SimTime, SimTime)>>,
}

impl ShardRunOut {
    /// The longest run of empty `bin`-wide buckets in group `g`'s own
    /// completion timeline within `[from, to)`, in milliseconds.
    pub fn group_gap_ms(&self, g: u32, from: SimTime, to: SimTime, bin: SimDuration) -> u64 {
        self.run
            .metrics
            .timeline(GROUP_COMPLETES_KEYS[g as usize])
            .map(|t| t.longest_gap_bins(from, to, bin) as u64 * bin.as_millis())
            .unwrap_or(u64::MAX)
    }

    /// The worst per-shard gap over all groups (the reconfiguring shard's
    /// stall under a stop-the-world baseline shows up here).
    pub fn max_group_gap_ms(&self, from: SimTime, to: SimTime, bin: SimDuration) -> u64 {
        (0..self.groups)
            .map(|g| self.group_gap_ms(g, from, to, bin))
            .max()
            .unwrap_or(u64::MAX)
    }

    /// The aggregate client gap — what a shard-unaware caller of the whole
    /// keyspace observes. "≈ 0" here while shards reconfigure back-to-back
    /// is the payoff of per-shard reconfiguration.
    pub fn aggregate_gap_ms(&self, from: SimTime, to: SimTime, bin: SimDuration) -> u64 {
        self.run.longest_gap_ms(from, to, bin)
    }
}

/// Runs `scenario` on the sharded `kind` (coupled mode: one `Sim`).
pub fn run_sharded(kind: ShardSystem, sc: &ShardScenario) -> ShardRunOut {
    match kind {
        ShardSystem::Rsmr => drive_sharded(RsmrSystem(RsmrTunables::default()), sc),
        ShardSystem::Stw => drive_sharded(StwSystem(PaxosTunables::default()), sc),
    }
}

/// A pool node's group multiplexer: a group first contacting the node
/// (an `Activate` naming it a member, speculative successor traffic)
/// spawns a joining replica.
fn group_host<S: System + Clone + 'static>(sys: &S, node: NodeId) -> MultiGroup<S::World> {
    let sys = sys.clone();
    MultiGroup::new(move |_g, _m| sys.joiner(node))
}

/// Runs `sc` on system `sys` with every node wrapped in a [`MultiGroup`]:
/// pool nodes host their genesis groups, one admin node multiplexes every
/// scripted group's admin, and each client node drives one group.
fn drive_sharded<S: System + Clone + 'static>(sys: S, sc: &ShardScenario) -> ShardRunOut {
    let mut sim: Sim<MultiGroup<S::World>> = Sim::new(sc.seed, sc.net());
    let observers = Observers::install(&mut sim, sc.record_trace, sc.record_events, false);

    for p in 0..sc.pool {
        let node = NodeId(p);
        let mut mg = group_host(&sys, node);
        for g in sc.hosted_groups(node) {
            let genesis = StaticConfig::new(sc.members(g));
            mg.insert(GroupId(g), sys.genesis(node, genesis, KvStore::new()));
        }
        sim.add_node_with_id(node, mg);
    }
    // One admin node multiplexes an admin for every scripted group, so
    // per-shard reconfigurations run concurrently.
    let mut admins = MultiGroup::sealed();
    for g in 0..sc.groups {
        let script: AdminScript = sc
            .scripts
            .iter()
            .filter(|(sg, _, _)| *sg == g)
            .map(|(_, at, ids)| (*at, ids.iter().map(|&i| NodeId(i)).collect()))
            .collect();
        if script.is_empty() {
            continue;
        }
        if let Some(admin) = sys.admin(sc.members(g), script) {
            admins.insert(GroupId(g), admin);
        }
    }
    if !admins.is_empty() {
        sim.add_node_with_id(ADMIN, admins);
    }

    let pool: Vec<NodeId> = (0..sc.pool).map(NodeId).collect();
    let fg = GroupId(sc.fault_group);
    let joiners = [sc.joiner(sc.fault_group)];
    let mut driver = ChaosDriver::new(
        &sc.faults,
        sc.chaos_scope(),
        sc.net(),
        // Role targets are group-scoped: the leader/donor of the fault
        // group, wherever in the pool it currently lives.
        |sim: &Sim<MultiGroup<S::World>>, t| {
            let view = |s| {
                sim.actor(s)
                    .and_then(|mg| mg.get(fg))
                    .map(|w| S::view(s, w))
            };
            resolve(&pool, &joiners, t, view)
        },
        // A restarted pool node recovers every group with persisted state
        // under its scope; any other group re-enters as a joiner on first
        // contact.
        |sim: &Sim<MultiGroup<S::World>>, n| {
            let store = sim.storage(n);
            let mut mg = group_host(&sys, n);
            for g in MultiGroup::<S::World>::persisted_groups(store) {
                if let Some(w) = sys.rebuild(n, &store.subtree(&g.scope())) {
                    mg.insert(g, w);
                }
            }
            mg
        },
    );

    for (i, &c) in sc.client_ids().iter().enumerate() {
        let g = sc.group_of_client(i as u64);
        let client = sys.client(ClientSpec {
            servers: sc.members(g),
            gen: sc.gen_for(i as u64),
            ops: sc.ops_per_client,
            history: false,
            completes_key: Some(GROUP_COMPLETES_KEYS[g as usize]),
        });
        sim.add_node_with_id(c, MultiGroup::sealed().with_group(GroupId(g), client));
    }
    driver.run_until(&mut sim, sc.horizon);

    let mut per_group_completed = vec![0u64; sc.groups as usize];
    for (i, &c) in sc.client_ids().iter().enumerate() {
        for (_, w) in sim.actor(c).into_iter().flat_map(MultiGroup::entries) {
            if let NodeView::Client(n, _) = S::view(c, w) {
                per_group_completed[sc.group_of_client(i as u64) as usize] += n;
            }
        }
    }
    let completed = per_group_completed.iter().sum();
    let mut per_group_admin = vec![Vec::new(); sc.groups as usize];
    for (g, w) in sim.actor(ADMIN).into_iter().flat_map(MultiGroup::entries) {
        if let NodeView::Admin(spans) = S::view(ADMIN, w) {
            per_group_admin[g.0 as usize] = spans;
        }
    }
    let mut admin: Vec<(SimTime, SimTime)> = per_group_admin.iter().flatten().copied().collect();
    admin.sort();
    let chaos_log = driver.applied().to_vec();
    let run = observers.finish(
        &mut sim,
        sc.horizon,
        chaos_log,
        completed,
        admin,
        Vec::new(),
    );
    ShardRunOut {
        run,
        groups: sc.groups,
        per_group_completed,
        per_group_admin,
    }
}

/// The deterministic merge of split-mode per-group runs.
pub struct MergedOut {
    /// Total completions over every group.
    pub completed: u64,
    /// Completions per group, indexed by group id.
    pub per_group_completed: Vec<u64>,
    /// FNV-1a fold of every group's `(completed, metrics fingerprint,
    /// trace digest, event digest, event count)` in group order — the
    /// byte-identity witness between serial and parallel execution.
    pub digest: u64,
}

/// Runs every group of `sc` as its own single-group scenario — serially
/// or on the bounded worker pool — and merges the results
/// deterministically in group order.
///
/// Fault-free only: the merge is exact because nothing couples the
/// groups. Scenarios with faults or cross-group admin scripts must run
/// coupled ([`run_sharded`]).
pub fn run_split(sc: &ShardScenario, parallel: bool) -> MergedOut {
    assert!(
        sc.faults.is_empty() && sc.scripts.is_empty(),
        "split mode only runs fault-free, script-free scenarios"
    );
    let jobs: Vec<(SystemKind, Scenario)> = (0..sc.groups)
        .map(|g| (SystemKind::Rsmr, sc.split_scenario(g)))
        .collect();
    let outs: Vec<RunOut> = if parallel {
        run_many(jobs)
    } else {
        jobs.iter().map(|(k, s)| run(*k, s)).collect()
    };
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let fold = |d: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *d ^= b as u64;
            *d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut completed = 0;
    let mut per_group_completed = Vec::with_capacity(outs.len());
    for out in &outs {
        completed += out.completed;
        per_group_completed.push(out.completed);
        fold(&mut digest, out.completed);
        fold(&mut digest, out.metrics_fingerprint());
        fold(&mut digest, out.trace_digest);
        fold(&mut digest, out.event_digest);
        fold(&mut digest, out.event_count);
    }
    MergedOut {
        completed,
        per_group_completed,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(groups: u32) -> ShardScenario {
        let sc = ShardScenario::new(0x511A6D, groups)
            .clients(groups as u64 * 2)
            .until(SimTime::from_secs(3));
        ShardScenario {
            ops_per_client: Some(40),
            ..sc
        }
    }

    #[test]
    fn membership_gives_distinct_leaders_up_to_eight_groups() {
        let sc = ShardScenario::new(1, 8);
        let leaders: std::collections::BTreeSet<NodeId> =
            (0..8).map(|g| sc.members(g)[0]).collect();
        assert_eq!(leaders.len(), 8);
        for g in 0..8 {
            assert!(!sc.members(g).contains(&sc.joiner(g)));
        }
    }

    #[test]
    fn coupled_sharded_runs_complete_on_both_systems() {
        for kind in [ShardSystem::Rsmr, ShardSystem::Stw] {
            let sc = small(2);
            let out = run_sharded(kind, &sc);
            assert_eq!(out.run.completed, 160, "{}", kind.name());
            assert_eq!(out.per_group_completed, vec![80, 80], "{}", kind.name());
        }
    }

    #[test]
    fn per_shard_reconfiguration_completes_while_other_shards_commit() {
        let mut sc = small(2).reconfigure_group_at(1, SimTime::from_millis(500), &[4, 5, 6]);
        sc.ops_per_client = None; // keep committing across the whole horizon
        let out = run_sharded(ShardSystem::Rsmr, &sc);
        assert!(out.run.completed > 0);
        assert_eq!(out.per_group_admin[0].len(), 0);
        assert_eq!(out.per_group_admin[1].len(), 1);
        let (started, finished) = out.per_group_admin[1][0];
        assert!(finished > started);
        // The non-reconfiguring shard never pauses.
        assert_eq!(
            out.group_gap_ms(
                0,
                SimTime::from_millis(200),
                SimTime::from_millis(1500),
                SimDuration::from_millis(100),
            ),
            0
        );
    }

    #[test]
    fn split_merge_is_identical_serial_and_parallel() {
        let sc = small(4);
        let serial = run_split(&sc, false);
        let parallel = run_split(&sc, true);
        assert_eq!(serial.digest, parallel.digest);
        assert_eq!(serial.completed, parallel.completed);
        assert_eq!(serial.per_group_completed, parallel.per_group_completed);
        assert_eq!(serial.completed, 320);
    }
}
