//! Deterministic fault injection: declarative fault plans, a seeded chaos
//! generator, and a driver that applies plans to a running [`Sim`].
//!
//! A [`FaultPlan`] is pure data: a schedule of crash/restart, partition/heal
//! and link-degradation windows, each aimed at a [`FaultTarget`]. Targets
//! may be concrete node ids or *roles* ("the current leader", "the transfer
//! donor", "the joiner") that the harness resolves at fire time, so one plan
//! applies to any system under test. [`ChaosGen`] samples random plans from
//! a seeded [`SimRng`], which makes every chaos run a replayable seed: a
//! failure reproduces from `(scenario, chaos seed)` alone.
//!
//! [`ChaosDriver`] executes a plan against a [`Sim`]: it advances virtual
//! time to each fault, resolves the target through a harness-supplied
//! closure, applies the fault through the simulator's own fault API
//! ([`Sim::crash`], [`Sim::block_link`], [`Sim::set_link`]), and schedules
//! the matching cure (restart, heal, clear) as a follow-up action. Crashed
//! nodes are rebuilt through a second closure — the *restart factory* —
//! which recovers the actor from its surviving [`StableStore`], exactly as
//! a real process restarts from disk.
//!
//! Everything here is deterministic: resolution is a pure function of sim
//! state, actions are totally ordered by `(time, insertion seq)`, and the
//! generator consumes only its own RNG.
//!
//! [`StableStore`]: crate::StableStore

use std::collections::{BTreeMap, BTreeSet};

use crate::actor::Actor;
use crate::net::NetConfig;
use crate::observe::{DomainEvent, DropReason, Observer, SimEvent};
use crate::rng::SimRng;
use crate::sim::{NodeId, Sim};
use crate::time::{SimDuration, SimTime};

/// Who a fault hits. Role targets are resolved by the harness when the
/// fault fires, against the live simulation state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A specific node id.
    Node(NodeId),
    /// The `k % n`-th of the harness's `n` server nodes (joiners included).
    /// Lets a seeded generator pick "some server" without knowing ids.
    ServerIdx(u64),
    /// Whoever leads the active consensus instance at fire time.
    CurrentLeader,
    /// The node serving (or about to serve) a state transfer.
    TransferDonor,
    /// The first configured joiner.
    Joiner,
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultTarget::Node(n) => write!(f, "{n}"),
            FaultTarget::ServerIdx(k) => write!(f, "server#{k}"),
            FaultTarget::CurrentLeader => write!(f, "leader"),
            FaultTarget::TransferDonor => write!(f, "donor"),
            FaultTarget::Joiner => write!(f, "joiner"),
        }
    }
}

/// What happens to the target.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Crash the node. With `restart_after` set, the harness's restart
    /// factory rebuilds it from stable storage after that delay; `None`
    /// leaves it down for the rest of the run.
    Crash {
        /// Delay until the restart, `None` = never.
        restart_after: Option<SimDuration>,
    },
    /// Isolate the target from every other node for the window.
    Partition {
        /// How long the target stays cut off.
        heal_after: SimDuration,
    },
    /// Degrade every link of the target (loss, duplication, extra delay)
    /// for the window.
    Degrade {
        /// Probability each message on the link is dropped.
        drop_rate: f64,
        /// Probability each message on the link is duplicated.
        duplicate_rate: f64,
        /// Added one-way delay on the link.
        extra_delay: SimDuration,
        /// How long the degradation lasts.
        heal_after: SimDuration,
    },
    /// Corrupt traffic on every link of the target for the window: bit
    /// flips and truncations (both caught by the CRC32C frame check, so
    /// they surface as detected drops) plus spurious duplicates. On the
    /// real backend the same parameters drive a
    /// [`FaultyTransport`](crate::transport::FaultyTransport) wrapper.
    Corrupt {
        /// Probability each message has a bit flipped in flight.
        bit_flip_rate: f64,
        /// Probability each message is truncated in flight.
        truncate_rate: f64,
        /// Probability each message is duplicated in flight.
        duplicate_rate: f64,
        /// How long the corruption window lasts.
        heal_after: SimDuration,
    },
    /// A disk fault at the target. The simulator's stable store is
    /// synchronously durable, so every flavour degenerates to the same
    /// observable outcome the integrity layer guarantees on the real
    /// backend: the node crashes now and recovers from its last consistent
    /// prefix (torn tails and rotten records are truncated at detection,
    /// never applied). The byte-level flavours are exercised for real
    /// against `FileStorage` in its own tests (`simnet/src/wal.rs`).
    Disk {
        /// Which byte-level failure this models.
        fault: DiskFault,
        /// Delay until the node restarts from its surviving store.
        restart_after: SimDuration,
    },
}

/// The byte-level disk failure a [`FaultKind::Disk`] event models.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The WAL tail was torn mid-record by the crash.
    TornWalTail,
    /// A snapshot record rotted on disk (CRC mismatch on replay).
    SnapshotBitRot,
    /// An fsync reported success without reaching the platter.
    LyingFsync,
}

impl DiskFault {
    /// Stable lower-case name, used in replay logs.
    pub fn name(self) -> &'static str {
        match self {
            DiskFault::TornWalTail => "torn_wal_tail",
            DiskFault::SnapshotBitRot => "snapshot_bit_rot",
            DiskFault::LyingFsync => "lying_fsync",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// Who it hits (resolved at fire time for role targets).
    pub target: FaultTarget,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// When this fault's effect is fully cured (restart or heal). A crash
    /// without a restart never cures; its fire time is returned.
    fn cured_at(&self) -> SimTime {
        match self.kind {
            FaultKind::Crash { restart_after } => {
                self.at + restart_after.unwrap_or(SimDuration::ZERO)
            }
            FaultKind::Partition { heal_after } => self.at + heal_after,
            FaultKind::Degrade { heal_after, .. } => self.at + heal_after,
            FaultKind::Corrupt { heal_after, .. } => self.at + heal_after,
            FaultKind::Disk { restart_after, .. } => self.at + restart_after,
        }
    }
}

/// A declarative, deterministic schedule of faults. Pure data: apply it
/// with a [`ChaosDriver`], or build scenarios around it by hand.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults (any order; the driver sorts by fire time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a crash (with optional restart), builder-style.
    pub fn crash_at(
        mut self,
        at: SimTime,
        target: FaultTarget,
        restart_after: Option<SimDuration>,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Crash { restart_after },
        });
        self
    }

    /// Adds a full isolation window, builder-style.
    pub fn partition_at(
        mut self,
        at: SimTime,
        target: FaultTarget,
        heal_after: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Partition { heal_after },
        });
        self
    }

    /// Adds a link-degradation window, builder-style.
    pub fn degrade_at(
        mut self,
        at: SimTime,
        target: FaultTarget,
        drop_rate: f64,
        duplicate_rate: f64,
        extra_delay: SimDuration,
        heal_after: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Degrade {
                drop_rate,
                duplicate_rate,
                extra_delay,
                heal_after,
            },
        });
        self
    }

    /// Adds a corruption window, builder-style.
    pub fn corrupt_at(
        mut self,
        at: SimTime,
        target: FaultTarget,
        bit_flip_rate: f64,
        truncate_rate: f64,
        duplicate_rate: f64,
        heal_after: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Corrupt {
                bit_flip_rate,
                truncate_rate,
                duplicate_rate,
                heal_after,
            },
        });
        self
    }

    /// Adds a disk fault, builder-style.
    pub fn disk_at(
        mut self,
        at: SimTime,
        target: FaultTarget,
        fault: DiskFault,
        restart_after: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Disk {
                fault,
                restart_after,
            },
        });
        self
    }

    /// The time by which every fault in the plan has been cured (every
    /// crashed node restarted, every window closed). Crashes without a
    /// restart count as cured at their fire time — the cluster is expected
    /// to survive them on the remaining nodes.
    pub fn healed_by(&self) -> SimTime {
        self.events
            .iter()
            .map(FaultEvent::cured_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The events sorted by fire time (stable, so same-time events keep
    /// their plan order).
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// A compact human-readable description, used in replay logs.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .sorted()
            .iter()
            .map(|e| {
                let what = match e.kind {
                    FaultKind::Crash {
                        restart_after: Some(d),
                    } => format!("crash+restart@{d}"),
                    FaultKind::Crash {
                        restart_after: None,
                    } => "crash".to_owned(),
                    FaultKind::Partition { heal_after } => format!("partition@{heal_after}"),
                    FaultKind::Degrade {
                        drop_rate,
                        heal_after,
                        ..
                    } => format!("degrade(p={drop_rate:.2})@{heal_after}"),
                    FaultKind::Corrupt {
                        bit_flip_rate,
                        truncate_rate,
                        heal_after,
                        ..
                    } => {
                        format!(
                            "corrupt(p={:.2})@{heal_after}",
                            bit_flip_rate + truncate_rate
                        )
                    }
                    FaultKind::Disk {
                        fault,
                        restart_after,
                    } => format!("disk({})+restart@{restart_after}", fault.name()),
                };
                format!("[{} {} {}]", e.at, e.target, what)
            })
            .collect();
        parts.join(" ")
    }
}

/// Seeded sampler of random-but-replayable fault plans.
///
/// Two generators with the same seed produce identical plans, so a failing
/// chaos run is fully described by its seed.
pub struct ChaosGen {
    rng: SimRng,
}

impl ChaosGen {
    /// A generator producing the deterministic plan sequence for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosGen {
            rng: SimRng::seed_from_u64(seed ^ 0xC4A0_5FA0_17AD_D00D),
        }
    }

    /// Samples a plan of `n_faults` events, each firing in `[from, until)`,
    /// mixing crashes (always with a restart), partitions, degradation and
    /// corruption windows, and disk faults over role and indexed-server
    /// targets.
    pub fn sample(&mut self, from: SimTime, until: SimTime, n_faults: usize) -> FaultPlan {
        let span = until.since(from).as_micros().max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..n_faults {
            let at = from + SimDuration::from_micros(self.rng.gen_range(0..span));
            let target = sample_target(&mut self.rng);
            let kind = sample_kind(&mut self.rng);
            plan.events.push(FaultEvent { at, target, kind });
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }
}

/// Draws a fault target from the generator distribution.
fn sample_target(rng: &mut SimRng) -> FaultTarget {
    match rng.gen_range(0..10u32) {
        0..=2 => FaultTarget::CurrentLeader,
        3..=4 => FaultTarget::TransferDonor,
        5..=6 => FaultTarget::Joiner,
        _ => FaultTarget::ServerIdx(rng.next_u64()),
    }
}

/// Draws a fault kind from the generator distribution.
fn sample_kind(rng: &mut SimRng) -> FaultKind {
    match rng.gen_range(0..14u32) {
        0..=3 => FaultKind::Crash {
            restart_after: Some(SimDuration::from_micros(rng.gen_range(100_000..600_000u64))),
        },
        4..=7 => FaultKind::Partition {
            heal_after: SimDuration::from_micros(rng.gen_range(100_000..400_000u64)),
        },
        8..=9 => FaultKind::Degrade {
            drop_rate: 0.1 + 0.4 * rng.next_f64(),
            duplicate_rate: 0.2 * rng.next_f64(),
            extra_delay: SimDuration::from_micros(rng.gen_range(0..20_000u64)),
            heal_after: SimDuration::from_micros(rng.gen_range(100_000..400_000u64)),
        },
        10..=11 => FaultKind::Corrupt {
            bit_flip_rate: 0.05 + 0.25 * rng.next_f64(),
            truncate_rate: 0.15 * rng.next_f64(),
            duplicate_rate: 0.15 * rng.next_f64(),
            heal_after: SimDuration::from_micros(rng.gen_range(100_000..400_000u64)),
        },
        _ => FaultKind::Disk {
            fault: match rng.gen_range(0..3u32) {
                0 => DiskFault::TornWalTail,
                1 => DiskFault::SnapshotBitRot,
                _ => DiskFault::LyingFsync,
            },
            restart_after: SimDuration::from_micros(rng.gen_range(100_000..600_000u64)),
        },
    }
}

/// Identity of a (possibly mutated) chaos plan: a base seed plus the chain
/// of mutation indices applied to it, and a link-delay permutation for the
/// bounded delivery-order exploration. Everything a coverage-guided sweep
/// discovers is replayable from this value alone — printing only the base
/// seed would lose the mutations, which is exactly the replay bug this
/// type fixes.
///
/// Rendered as `BASE[:m1,m2,...][#perm]` with `BASE` in hex, e.g.
/// `0xfa17:3,12#5`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanLineage {
    /// The seed the root plan was sampled from ([`ChaosGen::new`]).
    pub base_seed: u64,
    /// Mutation indices applied in order; each child plan is a pure
    /// function of the parent plan and its index.
    pub mutations: Vec<u32>,
    /// Link-delay permutation index (see [`link_delay_permutation`]);
    /// `0` = the scenario's default links.
    pub perm: u64,
}

impl PlanLineage {
    /// The lineage of an unmutated plan for `base_seed`.
    pub fn seed(base_seed: u64) -> Self {
        PlanLineage {
            base_seed,
            mutations: Vec::new(),
            perm: 0,
        }
    }

    /// This lineage with one more mutation appended.
    pub fn child(&self, mutation: u32) -> Self {
        let mut next = self.clone();
        next.mutations.push(mutation);
        next
    }

    /// This lineage with a different link-delay permutation.
    pub fn with_perm(&self, perm: u64) -> Self {
        let mut next = self.clone();
        next.perm = perm;
        next
    }

    /// Materializes the concrete [`FaultPlan`]: sample the root plan from
    /// the base seed, then replay every mutation in order. Deterministic —
    /// equal lineages always produce equal plans, on any host.
    pub fn materialize(&self, from: SimTime, until: SimTime, n_faults: usize) -> FaultPlan {
        let mut plan = ChaosGen::new(self.base_seed).sample(from, until, n_faults);
        let mut state = self.base_seed;
        for &m in &self.mutations {
            state = mix_seed(state, m);
            plan = mutate_plan(&plan, state, from, until);
        }
        plan
    }

    /// Parses the `BASE[:m1,m2][#perm]` form produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        let (body, perm) = match s.split_once('#') {
            Some((body, p)) => (body, p.parse().ok()?),
            None => (s, 0),
        };
        let (base, muts) = match body.split_once(':') {
            Some((base, rest)) => {
                let muts: Option<Vec<u32>> = rest.split(',').map(|m| m.parse().ok()).collect();
                (base, muts?)
            }
            None => (body, Vec::new()),
        };
        let base_seed = match base.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok()?,
            None => base.parse().ok()?,
        };
        Some(PlanLineage {
            base_seed,
            mutations: muts,
            perm,
        })
    }
}

impl std::fmt::Display for PlanLineage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.base_seed)?;
        for (i, m) in self.mutations.iter().enumerate() {
            write!(f, "{}{m}", if i == 0 { ':' } else { ',' })?;
        }
        if self.perm != 0 {
            write!(f, "#{}", self.perm)?;
        }
        Ok(())
    }
}

/// Mixes a mutation index into the lineage seed chain (splitmix64 step, so
/// sibling mutations and successive generations never share RNG streams).
fn mix_seed(state: u64, mutation: u32) -> u64 {
    let mut z = state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(mutation) << 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies one deterministic mutation to a parent plan: jitter a fire
/// time, retarget an event, resample a kind, add, remove, or race a copy
/// of an event at a nearby time. Pure in `(parent, seed)`.
pub fn mutate_plan(parent: &FaultPlan, seed: u64, from: SimTime, until: SimTime) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0C0F_FEE0_5EED_F00D);
    let span = until.since(from).as_micros().max(1);
    let mut plan = parent.clone();
    if plan.events.is_empty() {
        let at = from + SimDuration::from_micros(rng.gen_range(0..span));
        plan.events.push(FaultEvent {
            at,
            target: sample_target(&mut rng),
            kind: sample_kind(&mut rng),
        });
        return plan;
    }
    let idx = rng.gen_range(0..plan.events.len() as u64) as usize;
    match rng.gen_range(0..6u32) {
        0 => {
            plan.events[idx].at = from + SimDuration::from_micros(rng.gen_range(0..span));
        }
        1 => {
            plan.events[idx].target = sample_target(&mut rng);
        }
        2 => {
            plan.events[idx].kind = sample_kind(&mut rng);
        }
        3 => {
            let at = from + SimDuration::from_micros(rng.gen_range(0..span));
            plan.events.push(FaultEvent {
                at,
                target: sample_target(&mut rng),
                kind: sample_kind(&mut rng),
            });
        }
        4 => {
            if plan.events.len() > 1 {
                plan.events.remove(idx);
            } else {
                plan.events[idx].kind = sample_kind(&mut rng);
            }
        }
        _ => {
            // Race a copy of the event close to the original — the cheap
            // way to manufacture two faults landing inside one lifecycle
            // window (e.g. two hits on the seal/anchor gap).
            let mut copy = plan.events[idx].clone();
            let jitter = rng.gen_range(0..50_000u64);
            copy.at = from
                + SimDuration::from_micros(
                    (copy.at.since(from).as_micros() + jitter) % span.max(1),
                );
            copy.target = sample_target(&mut rng);
            plan.events.push(copy);
        }
    }
    plan.events.sort_by_key(|e| e.at);
    plan
}

/// The per-link one-way delays for bounded delivery-order exploration of
/// 3-node configurations (DPOR-flavoured: instead of random jitter, the
/// sweep systematically enumerates delay assignments that realize distinct
/// relative delivery orders between the three replicas).
///
/// Each of the three inter-node links gets one of three fixed delays,
/// giving 27 assignments; `perm` indexes them (taken modulo 27). Index 0
/// is the all-fastest assignment. Returns delays for links
/// `(n0,n1), (n0,n2), (n1,n2)` in that order.
pub fn link_delay_permutation(perm: u64) -> [SimDuration; 3] {
    const CHOICES: [u64; 3] = [150, 400, 900]; // µs
    let mut p = perm % 27;
    let mut out = [SimDuration::ZERO; 3];
    for slot in &mut out {
        *slot = SimDuration::from_micros(CHOICES[(p % 3) as usize]);
        p /= 3;
    }
    out
}

/// A scheduled driver action: fire a plan event, or cure an applied fault.
#[derive(Debug)]
enum Action {
    Fire(FaultEvent),
    Restart(NodeId),
    HealPartition(NodeId),
    ClearDegrade(NodeId),
    ClearCorrupt(NodeId),
}

/// Applies a [`FaultPlan`] to a [`Sim`], resolving role targets and
/// rebuilding crashed actors through harness-supplied hooks.
///
/// `resolve` maps a [`FaultTarget`] to a live node (returning `None` skips
/// the event — e.g. no leader exists at that instant). `rebuild`
/// reconstructs a crashed node's actor from the simulation (typically from
/// [`Sim::storage`]). Both are called at deterministic points, so a driven
/// run remains a pure function of `(actors, seed, plan)`.
pub struct ChaosDriver<'h, A: Actor> {
    /// Pending actions ordered by `(time, seq)`; `seq` breaks ties by
    /// insertion order.
    queue: Vec<(SimTime, u64, Action)>,
    next_seq: u64,
    /// Every node the harness wants isolated targets cut off from.
    scope: Vec<NodeId>,
    /// Reference-counted severed pairs, so overlapping partitions heal
    /// correctly (a pair reopens only when its last partition lifts).
    cuts: BTreeMap<(NodeId, NodeId), u32>,
    /// Reference-counted degraded pairs (last clear removes the override).
    degrades: BTreeMap<(NodeId, NodeId), u32>,
    /// Reference-counted corrupted pairs (last clear removes the override).
    corrupts: BTreeMap<(NodeId, NodeId), u32>,
    /// Base link config degraded windows derive from.
    base_net: NetConfig,
    #[allow(clippy::type_complexity)]
    resolve: Box<dyn FnMut(&Sim<A>, &FaultTarget) -> Option<NodeId> + 'h>,
    #[allow(clippy::type_complexity)]
    rebuild: Box<dyn FnMut(&Sim<A>, NodeId) -> A + 'h>,
    /// Log of applied (and skipped) actions, for failure reports.
    applied: Vec<(SimTime, String)>,
}

impl<'h, A: Actor> ChaosDriver<'h, A> {
    /// Builds a driver for `plan`. `scope` lists every node that partition
    /// and degradation windows sever the target from (servers, clients,
    /// admin). `base_net` is the config degraded links derive from.
    pub fn new(
        plan: &FaultPlan,
        scope: Vec<NodeId>,
        base_net: NetConfig,
        resolve: impl FnMut(&Sim<A>, &FaultTarget) -> Option<NodeId> + 'h,
        rebuild: impl FnMut(&Sim<A>, NodeId) -> A + 'h,
    ) -> Self {
        let mut driver = ChaosDriver {
            queue: Vec::new(),
            next_seq: 0,
            scope,
            cuts: BTreeMap::new(),
            degrades: BTreeMap::new(),
            corrupts: BTreeMap::new(),
            base_net,
            resolve: Box::new(resolve),
            rebuild: Box::new(rebuild),
            applied: Vec::new(),
        };
        for ev in plan.sorted() {
            driver.push(ev.at, Action::Fire(ev));
        }
        driver
    }

    /// True when no fault or cure remains scheduled.
    pub fn done(&self) -> bool {
        self.queue.is_empty()
    }

    /// The log of applied/skipped actions, for replay diagnostics.
    pub fn applied(&self) -> &[(SimTime, String)] {
        &self.applied
    }

    fn push(&mut self, at: SimTime, action: Action) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.queue.partition_point(|&(t, s, _)| (t, s) <= (at, seq));
        self.queue.insert(idx, (at, seq, action));
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Advances the simulation to `until`, firing every scheduled fault and
    /// cure on the way.
    pub fn run_until(&mut self, sim: &mut Sim<A>, until: SimTime) {
        while let Some(&(at, _, _)) = self.queue.first() {
            if at > until {
                break;
            }
            sim.run_until(at);
            let (_, _, action) = self.queue.remove(0);
            self.apply(sim, at, action);
        }
        sim.run_until(until);
    }

    fn note(&mut self, at: SimTime, line: String) {
        self.applied.push((at, line));
    }

    fn apply(&mut self, sim: &mut Sim<A>, at: SimTime, action: Action) {
        match action {
            Action::Fire(ev) => {
                let Some(node) = (self.resolve)(sim, &ev.target) else {
                    self.note(at, format!("skip {} (unresolved)", ev.target));
                    return;
                };
                match ev.kind {
                    FaultKind::Crash { restart_after } => {
                        if !sim.is_up(node) {
                            self.note(at, format!("skip crash {node} (already down)"));
                            return;
                        }
                        sim.crash(node);
                        sim.metrics_mut().incr("chaos.crashes", 1);
                        self.note(at, format!("crash {node} (as {})", ev.target));
                        if let Some(d) = restart_after {
                            self.push(at + d, Action::Restart(node));
                        }
                    }
                    FaultKind::Partition { heal_after } => {
                        for peer in self.scope.clone() {
                            if peer == node {
                                continue;
                            }
                            let k = Self::key(node, peer);
                            let count = self.cuts.entry(k).or_insert(0);
                            *count += 1;
                            if *count == 1 {
                                sim.block_link(node, peer);
                            }
                        }
                        sim.metrics_mut().incr("chaos.partitions", 1);
                        self.note(
                            at,
                            format!("partition {node} (as {}) for {heal_after}", ev.target),
                        );
                        self.push(at + heal_after, Action::HealPartition(node));
                    }
                    FaultKind::Degrade {
                        drop_rate,
                        duplicate_rate,
                        extra_delay,
                        heal_after,
                    } => {
                        let cfg = self
                            .base_net
                            .clone()
                            .with_drop_rate(drop_rate)
                            .with_duplicate_rate(duplicate_rate)
                            .with_extra_delay(extra_delay);
                        for peer in self.scope.clone() {
                            if peer == node {
                                continue;
                            }
                            *self.degrades.entry(Self::key(node, peer)).or_insert(0) += 1;
                            sim.set_link(node, peer, cfg.clone());
                        }
                        sim.metrics_mut().incr("chaos.degrades", 1);
                        self.note(
                            at,
                            format!("degrade {node} (as {}) for {heal_after}", ev.target),
                        );
                        self.push(at + heal_after, Action::ClearDegrade(node));
                    }
                    FaultKind::Corrupt {
                        bit_flip_rate,
                        truncate_rate,
                        duplicate_rate,
                        heal_after,
                    } => {
                        // Bit flips and truncations are both caught by the
                        // frame CRC, so in the simulation they collapse into
                        // one detected-corruption rate; duplicates pass the
                        // check and deliver twice.
                        let cfg = self
                            .base_net
                            .clone()
                            .with_corrupt_rate((bit_flip_rate + truncate_rate).clamp(0.0, 1.0))
                            .with_duplicate_rate(duplicate_rate);
                        for peer in self.scope.clone() {
                            if peer == node {
                                continue;
                            }
                            *self.corrupts.entry(Self::key(node, peer)).or_insert(0) += 1;
                            sim.set_link(node, peer, cfg.clone());
                        }
                        sim.metrics_mut().incr("chaos.corruptions", 1);
                        self.note(
                            at,
                            format!("corrupt {node} (as {}) for {heal_after}", ev.target),
                        );
                        self.push(at + heal_after, Action::ClearCorrupt(node));
                    }
                    FaultKind::Disk {
                        fault,
                        restart_after,
                    } => {
                        if !sim.is_up(node) {
                            self.note(at, format!("skip disk fault {node} (already down)"));
                            return;
                        }
                        // Stable storage in the simulator is synchronously
                        // durable, so every disk-fault flavour is its
                        // post-integrity-check outcome: crash now, restart
                        // from the last consistent prefix.
                        sim.crash(node);
                        sim.metrics_mut().incr("chaos.disk_faults", 1);
                        self.note(
                            at,
                            format!("disk fault {} on {node} (as {})", fault.name(), ev.target),
                        );
                        self.push(at + restart_after, Action::Restart(node));
                    }
                }
            }
            Action::Restart(node) => {
                if sim.is_up(node) {
                    self.note(at, format!("skip restart {node} (already up)"));
                    return;
                }
                let actor = (self.rebuild)(sim, node);
                sim.restart(node, actor);
                self.note(at, format!("restart {node}"));
            }
            Action::HealPartition(node) => {
                for peer in self.scope.clone() {
                    if peer == node {
                        continue;
                    }
                    let k = Self::key(node, peer);
                    if let Some(count) = self.cuts.get_mut(&k) {
                        *count -= 1;
                        if *count == 0 {
                            self.cuts.remove(&k);
                            sim.unblock_link(node, peer);
                        }
                    }
                }
                self.note(at, format!("heal {node}"));
            }
            Action::ClearDegrade(node) => {
                for peer in self.scope.clone() {
                    if peer == node {
                        continue;
                    }
                    let k = Self::key(node, peer);
                    if let Some(count) = self.degrades.get_mut(&k) {
                        *count -= 1;
                        if *count == 0 {
                            self.degrades.remove(&k);
                            sim.clear_link(node, peer);
                        }
                    }
                }
                self.note(at, format!("clear degrade {node}"));
            }
            Action::ClearCorrupt(node) => {
                for peer in self.scope.clone() {
                    if peer == node {
                        continue;
                    }
                    let k = Self::key(node, peer);
                    if let Some(count) = self.corrupts.get_mut(&k) {
                        *count -= 1;
                        if *count == 0 {
                            self.corrupts.remove(&k);
                            sim.clear_link(node, peer);
                        }
                    }
                }
                self.note(at, format!("clear corrupt {node}"));
            }
        }
    }
}

/// Folds the run's fault/lifecycle interleavings into a compact bitmask.
///
/// Each bit marks one of the adversarial windows the close-point rule has
/// to survive — a fault landing *inside* a lifecycle gap rather than
/// between gaps. The coverage-guided sweep treats a previously unseen
/// bitmask as novelty worth keeping in the corpus, because two runs with
/// the same fault count but different interleaving bits stress different
/// proofs.
#[derive(Clone, Debug, Default)]
pub struct LifecycleCoverage {
    bits: u64,
    /// Epochs sealed but whose successor has not anchored yet.
    sealed_open: BTreeSet<u64>,
    /// Epochs anchored but with no first commit yet.
    anchored_dry: BTreeSet<u64>,
    /// Outstanding transfer requests per provider node.
    pending_serves: BTreeMap<NodeId, u64>,
}

impl LifecycleCoverage {
    /// A `Reconfigure` was proposed while an earlier epoch was still in
    /// its seal→anchor gap: two reconfigurations racing.
    pub const OVERLAPPING_RECONFIGS: u64 = 1 << 0;
    /// A node crashed inside a seal→anchor gap.
    pub const CRASH_IN_SEAL_WINDOW: u64 = 1 << 1;
    /// A transfer donor died with a serve outstanding.
    pub const DONOR_DEATH_MID_TRANSFER: u64 = 1 << 2;
    /// A node restarted before the newest epoch produced its first commit.
    pub const RESTART_BEFORE_FIRST_COMMIT: u64 = 1 << 3;
    /// At least one corrupted message was detected and discarded.
    pub const CORRUPTION_DETECTED: u64 = 1 << 4;
    /// A partition swallowed traffic inside a seal→anchor gap.
    pub const PARTITION_IN_SEAL_WINDOW: u64 = 1 << 5;
    /// Any node crashed while some transfer was still outstanding.
    pub const CRASH_MID_TRANSFER: u64 = 1 << 6;

    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated signature bitmask.
    pub fn signature(&self) -> u64 {
        self.bits
    }

    /// Human-readable names of every set bit, for artifacts and logs.
    pub fn names(&self) -> Vec<&'static str> {
        const ALL: [(u64, &str); 7] = [
            (
                LifecycleCoverage::OVERLAPPING_RECONFIGS,
                "overlapping_reconfigs",
            ),
            (
                LifecycleCoverage::CRASH_IN_SEAL_WINDOW,
                "crash_in_seal_window",
            ),
            (
                LifecycleCoverage::DONOR_DEATH_MID_TRANSFER,
                "donor_death_mid_transfer",
            ),
            (
                LifecycleCoverage::RESTART_BEFORE_FIRST_COMMIT,
                "restart_before_first_commit",
            ),
            (
                LifecycleCoverage::CORRUPTION_DETECTED,
                "corruption_detected",
            ),
            (
                LifecycleCoverage::PARTITION_IN_SEAL_WINDOW,
                "partition_in_seal_window",
            ),
            (LifecycleCoverage::CRASH_MID_TRANSFER, "crash_mid_transfer"),
        ];
        ALL.iter()
            .filter(|(bit, _)| self.bits & bit != 0)
            .map(|&(_, name)| name)
            .collect()
    }
}

impl Observer for LifecycleCoverage {
    fn on_event(&mut self, _at: SimTime, ev: &SimEvent) {
        match ev {
            SimEvent::Domain { node, event } => match *event {
                DomainEvent::ReconfigProposed { .. } if !self.sealed_open.is_empty() => {
                    self.bits |= Self::OVERLAPPING_RECONFIGS;
                }
                DomainEvent::EpochSealed { epoch, .. } => {
                    self.sealed_open.insert(epoch);
                }
                DomainEvent::Anchored { epoch } => {
                    // Anchoring epoch e closes the gap opened by sealing
                    // its predecessor e-1.
                    self.sealed_open.remove(&epoch.saturating_sub(1));
                    self.anchored_dry.insert(epoch);
                }
                DomainEvent::FirstCommit { epoch, .. } => {
                    self.anchored_dry.remove(&epoch);
                }
                DomainEvent::TransferRequested { provider, .. } => {
                    *self.pending_serves.entry(provider).or_insert(0) += 1;
                }
                DomainEvent::TransferServed { .. } => {
                    // The serve is emitted by the provider itself.
                    if let Some(n) = self.pending_serves.get_mut(node) {
                        *n = n.saturating_sub(1);
                        if *n == 0 {
                            self.pending_serves.remove(node);
                        }
                    }
                }
                _ => {}
            },
            SimEvent::Crashed { node } => {
                if !self.sealed_open.is_empty() {
                    self.bits |= Self::CRASH_IN_SEAL_WINDOW;
                }
                if self.pending_serves.get(node).copied().unwrap_or(0) > 0 {
                    self.bits |= Self::DONOR_DEATH_MID_TRANSFER;
                }
                if !self.pending_serves.is_empty() {
                    self.bits |= Self::CRASH_MID_TRANSFER;
                }
            }
            SimEvent::Restarted { .. } if !self.anchored_dry.is_empty() => {
                self.bits |= Self::RESTART_BEFORE_FIRST_COMMIT;
            }
            SimEvent::MsgDropped { reason, .. } => match reason {
                DropReason::Corrupted => self.bits |= Self::CORRUPTION_DETECTED,
                DropReason::Partitioned if !self.sealed_open.is_empty() => {
                    self.bits |= Self::PARTITION_IN_SEAL_WINDOW;
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Coverage accumulated across a sweep: the set of distinct event-digest
/// prefix checkpoints (see
/// [`EventDigest::prefix_digests`](crate::observe::EventDigest::prefix_digests))
/// and distinct lifecycle signatures seen so far. A run that contributes
/// anything new to either set is *novel* and earns a slot in the mutation
/// corpus.
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    prefixes: BTreeSet<(u64, u64)>,
    signatures: BTreeSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one run's coverage in; returns the number of novel items
    /// (new prefix checkpoints plus a new signature counting 1).
    pub fn observe(&mut self, prefixes: &[(u64, u64)], signature: u64) -> u64 {
        let mut novel = 0;
        for &p in prefixes {
            if self.prefixes.insert(p) {
                novel += 1;
            }
        }
        if self.signatures.insert(signature) {
            novel += 1;
        }
        novel
    }

    /// Distinct `(event_count, digest)` prefix checkpoints seen.
    pub fn unique_prefixes(&self) -> usize {
        self.prefixes.len()
    }

    /// Distinct lifecycle signatures seen.
    pub fn unique_signatures(&self) -> usize {
        self.signatures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, Message, Timer};

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {}

    /// Counts deliveries; persists the count so a restart can prove it
    /// recovered from storage.
    struct Counter {
        received: u64,
    }

    impl Actor for Counter {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            self.received = ctx.storage().get_u64("received").unwrap_or(0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, _msg: Ping) {
            self.received += 1;
            ctx.storage().put_u64("received", self.received);
            if self.received < 20 {
                ctx.send(from, Ping);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _timer: Timer) {}
    }

    fn sim_pair() -> (Sim<Counter>, NodeId, NodeId) {
        let mut sim = Sim::new(3, NetConfig::lan());
        let a = sim.add_node(Counter { received: 0 });
        let b = sim.add_node(Counter { received: 0 });
        (sim, a, b)
    }

    fn driver_for<'h>(plan: &FaultPlan, scope: Vec<NodeId>) -> ChaosDriver<'h, Counter> {
        ChaosDriver::new(
            plan,
            scope,
            NetConfig::lan(),
            |_sim, t| match t {
                FaultTarget::Node(n) => Some(*n),
                _ => None,
            },
            |_sim, _n| Counter { received: 0 },
        )
    }

    #[test]
    fn same_seed_same_plan() {
        let (from, until) = (SimTime::ZERO, SimTime::from_secs(2));
        let a = ChaosGen::new(42).sample(from, until, 8);
        let b = ChaosGen::new(42).sample(from, until, 8);
        assert_eq!(a, b);
        let c = ChaosGen::new(43).sample(from, until, 8);
        assert_ne!(a, c, "different seeds should give different plans");
        // Sorted by fire time, all within the window.
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &a.events {
            assert!(e.at >= from && e.at < until);
        }
    }

    #[test]
    fn healed_by_covers_every_window() {
        let plan = FaultPlan::new()
            .crash_at(
                SimTime::from_millis(100),
                FaultTarget::CurrentLeader,
                Some(SimDuration::from_millis(500)),
            )
            .partition_at(
                SimTime::from_millis(300),
                FaultTarget::Joiner,
                SimDuration::from_millis(200),
            );
        assert_eq!(plan.healed_by(), SimTime::from_millis(600));
        assert!(!plan.describe().is_empty());
    }

    #[test]
    fn crash_and_restart_fire_at_the_scheduled_times() {
        let (mut sim, a, b) = sim_pair();
        let plan = FaultPlan::new().crash_at(
            SimTime::from_millis(10),
            FaultTarget::Node(b),
            Some(SimDuration::from_millis(50)),
        );
        let mut driver = driver_for(&plan, vec![a, b]);
        sim.inject(a, b, Ping);
        driver.run_until(&mut sim, SimTime::from_millis(9));
        assert!(sim.is_up(b));
        driver.run_until(&mut sim, SimTime::from_millis(30));
        assert!(!sim.is_up(b));
        driver.run_until(&mut sim, SimTime::from_millis(100));
        assert!(sim.is_up(b));
        assert!(driver.done());
        // The restarted actor recovered its count from stable storage.
        assert!(sim.actor(b).unwrap().received >= 1);
        assert_eq!(sim.metrics().counter("chaos.crashes"), 1);
    }

    #[test]
    fn overlapping_partitions_heal_only_when_the_last_lifts() {
        let (mut sim, a, b) = sim_pair();
        let plan = FaultPlan::new()
            .partition_at(
                SimTime::from_millis(10),
                FaultTarget::Node(b),
                SimDuration::from_millis(100),
            )
            .partition_at(
                SimTime::from_millis(50),
                FaultTarget::Node(b),
                SimDuration::from_millis(100),
            );
        let mut driver = driver_for(&plan, vec![a, b]);
        driver.run_until(&mut sim, SimTime::from_millis(60));
        // First heal at 110ms must not reopen the link: the second window
        // runs to 150ms.
        driver.run_until(&mut sim, SimTime::from_millis(120));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(140));
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
        driver.run_until(&mut sim, SimTime::from_millis(200));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(250));
        assert!(sim.metrics().counter("net.delivered") >= 1);
        assert!(driver.done());
    }

    #[test]
    fn degrade_window_drops_then_clears() {
        let (mut sim, a, b) = sim_pair();
        let plan = FaultPlan::new().degrade_at(
            SimTime::from_millis(10),
            FaultTarget::Node(b),
            1.0,
            0.0,
            SimDuration::ZERO,
            SimDuration::from_millis(100),
        );
        let mut driver = driver_for(&plan, vec![a, b]);
        driver.run_until(&mut sim, SimTime::from_millis(20));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        driver.run_until(&mut sim, SimTime::from_millis(200));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(300));
        assert!(sim.metrics().counter("net.delivered") >= 1);
    }

    #[test]
    fn corrupt_window_surfaces_as_detected_drops_then_clears() {
        let (mut sim, a, b) = sim_pair();
        let plan = FaultPlan::new().corrupt_at(
            SimTime::from_millis(10),
            FaultTarget::Node(b),
            1.0,
            0.0,
            0.0,
            SimDuration::from_millis(100),
        );
        let mut driver = driver_for(&plan, vec![a, b]);
        driver.run_until(&mut sim, SimTime::from_millis(20));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
        assert_eq!(sim.metrics().counter("net.corrupted"), 1);
        assert_eq!(sim.metrics().counter("chaos.corruptions"), 1);
        driver.run_until(&mut sim, SimTime::from_millis(200));
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(300));
        assert!(sim.metrics().counter("net.delivered") >= 1);
        assert_eq!(sim.metrics().counter("net.corrupted"), 1);
    }

    #[test]
    fn disk_faults_crash_and_recover_from_stable_storage() {
        let (mut sim, a, b) = sim_pair();
        sim.inject(a, b, Ping);
        sim.run_until(SimTime::from_millis(5));
        let plan = FaultPlan::new().disk_at(
            SimTime::from_millis(10),
            FaultTarget::Node(b),
            DiskFault::TornWalTail,
            SimDuration::from_millis(50),
        );
        let mut driver = ChaosDriver::new(
            &plan,
            vec![a, b],
            NetConfig::lan(),
            |_sim, t| match t {
                FaultTarget::Node(n) => Some(*n),
                _ => None,
            },
            // Rebuild from stable storage, as a real recovery would.
            |sim, n| Counter {
                received: sim.storage(n).get_u64("received").unwrap_or(0),
            },
        );
        driver.run_until(&mut sim, SimTime::from_millis(30));
        assert!(!sim.is_up(b));
        assert_eq!(sim.metrics().counter("chaos.disk_faults"), 1);
        driver.run_until(&mut sim, SimTime::from_millis(100));
        assert!(sim.is_up(b));
        assert!(driver.done());
        // The restart recovered the pre-fault count from the consistent
        // prefix (the sim store is synchronously durable).
        assert!(sim.actor(b).unwrap().received >= 1);
    }

    #[test]
    fn plan_mutation_is_deterministic_and_lineage_replays() {
        let (from, until) = (SimTime::ZERO, SimTime::from_secs(2));
        let lineage = PlanLineage::seed(0xFA17).child(3).child(12);
        let a = lineage.materialize(from, until, 6);
        let b = lineage.materialize(from, until, 6);
        assert_eq!(a, b, "equal lineages must materialize equal plans");
        let parent = PlanLineage::seed(0xFA17).materialize(from, until, 6);
        assert_ne!(a, parent, "mutations must actually change the plan");
        let sibling = PlanLineage::seed(0xFA17).child(4).child(12);
        assert_ne!(
            a,
            sibling.materialize(from, until, 6),
            "different mutation indices must diverge"
        );
    }

    #[test]
    fn lineage_display_and_parse_round_trip() {
        for lineage in [
            PlanLineage::seed(0xFA17),
            PlanLineage::seed(42).child(7),
            PlanLineage::seed(0xDEAD_BEEF)
                .child(0)
                .child(31)
                .with_perm(5),
        ] {
            let rendered = lineage.to_string();
            assert_eq!(
                PlanLineage::parse(&rendered),
                Some(lineage.clone()),
                "{rendered}"
            );
        }
        assert_eq!(
            PlanLineage::parse("0xfa17:3,12#5"),
            Some(PlanLineage::seed(0xFA17).child(3).child(12).with_perm(5))
        );
        assert_eq!(
            PlanLineage::parse("99"),
            Some(PlanLineage::seed(99)),
            "decimal base seeds parse too"
        );
        assert_eq!(PlanLineage::parse("0xzz"), None);
        assert_eq!(PlanLineage::parse("1:x"), None);
    }

    #[test]
    fn link_delay_permutations_enumerate_27_distinct_assignments() {
        let mut seen = std::collections::BTreeSet::new();
        for perm in 0..27 {
            seen.insert(link_delay_permutation(perm));
        }
        assert_eq!(seen.len(), 27);
        // Indexing wraps, so any u64 is a valid permutation id.
        assert_eq!(link_delay_permutation(27), link_delay_permutation(0));
    }

    #[test]
    fn lifecycle_coverage_flags_the_adversarial_interleavings() {
        use crate::observe::{DropReason, SimEvent};
        let t = SimTime::from_millis(1);
        let node = NodeId(0);
        let donor = NodeId(1);
        let mut cov = LifecycleCoverage::new();
        assert_eq!(cov.signature(), 0);
        // Seal epoch 1, then a second reconfigure races into the gap.
        let seal = |e| SimEvent::Domain {
            node,
            event: DomainEvent::EpochSealed {
                epoch: e,
                seal_slot: 9,
            },
        };
        cov.on_event(t, &seal(1));
        cov.on_event(
            t,
            &SimEvent::Domain {
                node,
                event: DomainEvent::ReconfigProposed { epoch: 2 },
            },
        );
        assert!(cov.signature() & LifecycleCoverage::OVERLAPPING_RECONFIGS != 0);
        // Crash and a partitioned drop inside the seal window.
        cov.on_event(t, &SimEvent::Crashed { node });
        cov.on_event(
            t,
            &SimEvent::MsgDropped {
                from: node,
                to: donor,
                label: "x",
                reason: DropReason::Partitioned,
            },
        );
        assert!(cov.signature() & LifecycleCoverage::CRASH_IN_SEAL_WINDOW != 0);
        assert!(cov.signature() & LifecycleCoverage::PARTITION_IN_SEAL_WINDOW != 0);
        // Anchoring epoch 2 closes the gap; a restart before its first
        // commit is flagged, and the first commit clears the dry set.
        cov.on_event(
            t,
            &SimEvent::Domain {
                node,
                event: DomainEvent::Anchored { epoch: 2 },
            },
        );
        cov.on_event(t, &SimEvent::Restarted { node });
        assert!(cov.signature() & LifecycleCoverage::RESTART_BEFORE_FIRST_COMMIT != 0);
        // Donor death mid-transfer.
        cov.on_event(
            t,
            &SimEvent::Domain {
                node,
                event: DomainEvent::TransferRequested {
                    epoch: 2,
                    provider: donor,
                },
            },
        );
        cov.on_event(t, &SimEvent::Crashed { node: donor });
        assert!(cov.signature() & LifecycleCoverage::DONOR_DEATH_MID_TRANSFER != 0);
        assert!(cov.signature() & LifecycleCoverage::CRASH_MID_TRANSFER != 0);
        // Corruption detection.
        cov.on_event(
            t,
            &SimEvent::MsgDropped {
                from: node,
                to: donor,
                label: "x",
                reason: DropReason::Corrupted,
            },
        );
        assert!(cov.signature() & LifecycleCoverage::CORRUPTION_DETECTED != 0);
        assert_eq!(cov.names().len(), 7);
    }

    #[test]
    fn coverage_map_counts_novelty_once() {
        let mut map = CoverageMap::new();
        let novel = map.observe(&[(1, 10), (2, 20)], 0b101);
        assert_eq!(novel, 3);
        // Re-observing the same run contributes nothing.
        assert_eq!(map.observe(&[(1, 10), (2, 20)], 0b101), 0);
        // A run sharing one checkpoint but diverging later is partially
        // novel.
        assert_eq!(map.observe(&[(1, 10), (2, 21)], 0b101), 1);
        assert_eq!(map.unique_prefixes(), 3);
        assert_eq!(map.unique_signatures(), 1);
        assert_eq!(map.observe(&[], 0b111), 1);
        assert_eq!(map.unique_signatures(), 2);
    }

    #[test]
    fn unresolved_targets_are_skipped_not_fatal() {
        let (mut sim, a, b) = sim_pair();
        let plan =
            FaultPlan::new().crash_at(SimTime::from_millis(10), FaultTarget::CurrentLeader, None);
        let mut driver = driver_for(&plan, vec![a, b]);
        driver.run_until(&mut sim, SimTime::from_millis(100));
        assert!(sim.is_up(a) && sim.is_up(b));
        assert!(driver
            .applied()
            .iter()
            .any(|(_, line)| line.contains("skip")));
    }
}
