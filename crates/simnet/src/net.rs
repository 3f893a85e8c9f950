//! The network model: latency distributions, loss, duplication and
//! partitions.

use std::collections::{BTreeMap, BTreeSet};

use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// How long a message spends in flight on a link.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(SimDuration),
    /// Uniformly distributed in `[min, max]` (inclusive).
    Uniform(SimDuration, SimDuration),
    /// Normally distributed with the given mean and standard deviation,
    /// clamped below at `min`.
    Normal {
        /// Mean one-way delay.
        mean: SimDuration,
        /// Standard deviation of the delay.
        std: SimDuration,
        /// Hard lower bound on the sampled delay.
        min: SimDuration,
    },
}

impl LatencyModel {
    /// Samples a one-way delay from the model.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(min, max) => {
                let (lo, hi) = (min.as_micros(), max.as_micros().max(min.as_micros()));
                SimDuration::from_micros(rng.gen_range(lo..=hi))
            }
            LatencyModel::Normal { mean, std, min } => {
                // Box–Muller transform; avoids pulling in rand_distr.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let sampled = mean.as_micros() as f64 + z * std.as_micros() as f64;
                let clamped = sampled.max(min.as_micros() as f64);
                SimDuration::from_micros(clamped.round() as u64)
            }
        }
    }
}

/// Parameters of a link (or of the whole network when used as the default).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way delay distribution.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a message is corrupted in flight.
    /// Every frame on the real wire carries a CRC32C, so a corrupted
    /// message is always *detected and discarded* by the receiver — the
    /// simulation models it as a distinct drop class
    /// ([`DropReason::Corrupted`](crate::observe::DropReason)), never as a
    /// mutated payload reaching the actor.
    pub corrupt_rate: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub duplicate_rate: f64,
    /// Link bandwidth in bytes/second (`None` = infinite). Adds a
    /// size-proportional serialization delay on top of the latency, so
    /// bulk transfers (snapshots) cost realistically more than RPCs.
    pub bandwidth: Option<u64>,
    /// When true (and `bandwidth` is finite), a sender's egress port is a
    /// serial resource: each outgoing message occupies it for its
    /// serialization time, and concurrent sends queue behind one another.
    /// Off by default — without it `bandwidth` is a pure per-message delay
    /// and a busy sender never backs up, which is fine for latency studies
    /// but hides every throughput ceiling.
    pub egress_queueing: bool,
}

impl NetConfig {
    /// A tight, reliable datacenter LAN: 50–200µs one-way, no loss,
    /// 10 Gbit/s links.
    pub fn lan() -> Self {
        NetConfig {
            latency: LatencyModel::Uniform(
                SimDuration::from_micros(50),
                SimDuration::from_micros(200),
            ),
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            bandwidth: Some(1_250_000_000),
            egress_queueing: false,
        }
    }

    /// A wide-area link: 20ms ± 4ms one-way, light loss.
    pub fn wan() -> Self {
        NetConfig {
            latency: LatencyModel::Normal {
                mean: SimDuration::from_millis(20),
                std: SimDuration::from_millis(4),
                min: SimDuration::from_millis(5),
            },
            drop_rate: 0.001,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            bandwidth: Some(12_500_000), // 100 Mbit/s
            egress_queueing: false,
        }
    }

    /// An adversarial network for stress tests: high jitter, loss and
    /// duplication.
    pub fn lossy(drop_rate: f64) -> Self {
        NetConfig {
            latency: LatencyModel::Uniform(
                SimDuration::from_micros(50),
                SimDuration::from_millis(30),
            ),
            drop_rate,
            corrupt_rate: 0.0,
            duplicate_rate: drop_rate / 2.0,
            bandwidth: Some(125_000_000), // 1 Gbit/s
            egress_queueing: false,
        }
    }

    /// Replaces the latency model, builder-style.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the drop rate, builder-style.
    pub fn with_drop_rate(mut self, drop_rate: f64) -> Self {
        self.drop_rate = drop_rate;
        self
    }

    /// Replaces the bandwidth, builder-style (`None` = infinite).
    pub fn with_bandwidth(mut self, bandwidth: Option<u64>) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Replaces the in-flight corruption rate, builder-style. Corrupted
    /// messages surface as detected drops, mirroring the CRC32C check on
    /// the real wire.
    pub fn with_corrupt_rate(mut self, corrupt_rate: f64) -> Self {
        self.corrupt_rate = corrupt_rate;
        self
    }

    /// Replaces the duplication rate, builder-style.
    pub fn with_duplicate_rate(mut self, duplicate_rate: f64) -> Self {
        self.duplicate_rate = duplicate_rate;
        self
    }

    /// Turns per-sender egress queueing on or off, builder-style. Requires
    /// a finite `bandwidth` to have any effect.
    pub fn with_egress_queueing(mut self, on: bool) -> Self {
        self.egress_queueing = on;
        self
    }

    /// Adds `extra` to the link's delay by shifting the latency model,
    /// builder-style. Used by fault windows that degrade a link.
    pub fn with_extra_delay(mut self, extra: SimDuration) -> Self {
        self.latency = match self.latency {
            LatencyModel::Fixed(d) => LatencyModel::Fixed(d + extra),
            LatencyModel::Uniform(lo, hi) => LatencyModel::Uniform(lo + extra, hi + extra),
            LatencyModel::Normal { mean, std, min } => LatencyModel::Normal {
                mean: mean + extra,
                std,
                min: min + extra,
            },
        };
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan()
    }
}

/// What the network decided to do with one message.
///
/// The delivery delays are inline (primary plus optional duplicate) so the
/// per-message fast path never allocates.
pub(crate) enum Fate {
    /// Deliver after the first delay; when the link duplicated the message,
    /// deliver a second copy after the second delay.
    Deliver(SimDuration, Option<SimDuration>),
    /// Drop silently.
    Drop,
    /// The message was corrupted in flight; the receiver's integrity check
    /// rejects it, so it is dropped (and counted as a detected corruption).
    Corrupted,
    /// The link is cut by a partition.
    Partitioned,
}

/// Mutable network state: the default link config, per-link overrides, and
/// the current set of severed pairs.
pub(crate) struct NetworkState {
    default: NetConfig,
    overrides: BTreeMap<(NodeId, NodeId), NetConfig>,
    /// Unordered severed pairs, stored with the smaller id first.
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Per-sender egress occupancy: the virtual time until which each
    /// node's outgoing port is busy serializing earlier messages. Only
    /// consulted when the resolved link config enables `egress_queueing`.
    busy_until: BTreeMap<NodeId, SimTime>,
}

impl NetworkState {
    pub(crate) fn new(default: NetConfig) -> Self {
        NetworkState {
            default,
            overrides: BTreeMap::new(),
            cut: BTreeSet::new(),
            busy_until: BTreeMap::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn set_default(&mut self, cfg: NetConfig) {
        self.default = cfg;
    }

    pub(crate) fn set_link(&mut self, a: NodeId, b: NodeId, cfg: NetConfig) {
        self.overrides.insert((a, b), cfg.clone());
        self.overrides.insert((b, a), cfg);
    }

    /// Removes a per-link override in both directions; traffic on the pair
    /// reverts to the default config. A no-op if no override exists.
    pub(crate) fn clear_link(&mut self, a: NodeId, b: NodeId) {
        self.overrides.remove(&(a, b));
        self.overrides.remove(&(b, a));
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    pub(crate) fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.insert(Self::key(a, b));
    }

    pub(crate) fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.remove(&Self::key(a, b));
    }

    /// Severs every link between a node in `a` and a node in `b`.
    pub(crate) fn partition(&mut self, a: &[NodeId], b: &[NodeId]) {
        for &x in a {
            for &y in b {
                if x != y {
                    self.block_link(x, y);
                }
            }
        }
    }

    pub(crate) fn heal_all(&mut self) {
        self.cut.clear();
    }

    pub(crate) fn is_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.cut.contains(&Self::key(a, b))
    }

    fn link_config(&self, from: NodeId, to: NodeId) -> &NetConfig {
        self.overrides.get(&(from, to)).unwrap_or(&self.default)
    }

    /// Decides the fate of a `size`-byte message from `from` to `to`,
    /// sent at virtual time `now`.
    pub(crate) fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Fate {
        if self.is_cut(from, to) {
            return Fate::Partitioned;
        }
        let cfg = self.overrides.get(&(from, to)).unwrap_or(&self.default);
        let serialization = match cfg.bandwidth {
            Some(bw) if bw > 0 && size > 0 => {
                SimDuration::from_micros((size as u64).saturating_mul(1_000_000) / bw)
            }
            _ => SimDuration::ZERO,
        };
        // With egress queueing the message waits for the sender's port,
        // occupies it for its serialization time, and only then enters the
        // link — so a loaded sender backs up instead of fanning out for
        // free. Dropped messages still occupy the port (they left the NIC).
        let departure_delay = if cfg.egress_queueing && serialization > SimDuration::ZERO {
            let busy = self.busy_until.entry(from).or_insert(now);
            let done = (*busy).max(now) + serialization;
            *busy = done;
            done - now
        } else {
            serialization
        };
        let cfg = self.link_config(from, to);
        if cfg.drop_rate > 0.0 && rng.gen_bool(cfg.drop_rate.clamp(0.0, 1.0)) {
            return Fate::Drop;
        }
        // Corruption is drawn after loss: the frame made it onto the wire,
        // got mangled, and the receiver's CRC32C check rejects it. Like a
        // drop, it still occupied the sender's egress port.
        if cfg.corrupt_rate > 0.0 && rng.gen_bool(cfg.corrupt_rate.clamp(0.0, 1.0)) {
            return Fate::Corrupted;
        }
        let first = cfg.latency.sample(rng) + departure_delay;
        let dup = if cfg.duplicate_rate > 0.0 && rng.gen_bool(cfg.duplicate_rate.clamp(0.0, 1.0)) {
            Some(cfg.latency.sample(rng) + departure_delay)
        } else {
            None
        };
        Fate::Deliver(first, dup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    #[test]
    fn fixed_latency_is_fixed() {
        let m = LatencyModel::Fixed(SimDuration::from_millis(3));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let lo = SimDuration::from_micros(100);
        let hi = SimDuration::from_micros(500);
        let m = LatencyModel::Uniform(lo, hi);
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r);
            assert!(d >= lo && d <= hi, "{d} out of bounds");
        }
    }

    #[test]
    fn normal_latency_respects_floor() {
        let m = LatencyModel::Normal {
            mean: SimDuration::from_micros(100),
            std: SimDuration::from_micros(400),
            min: SimDuration::from_micros(50),
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(m.sample(&mut r) >= SimDuration::from_micros(50));
        }
    }

    #[test]
    fn partitions_cut_both_directions_and_heal() {
        let mut net = NetworkState::new(NetConfig::lan());
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        net.partition(&[a], &[b, c]);
        assert!(net.is_cut(a, b));
        assert!(net.is_cut(b, a));
        assert!(net.is_cut(a, c));
        assert!(!net.is_cut(b, c));
        net.unblock_link(a, b);
        assert!(!net.is_cut(a, b));
        net.partition(&[a], &[b]);
        net.heal_all();
        assert!(!net.is_cut(a, b) && !net.is_cut(a, c));
    }

    #[test]
    fn route_drops_on_lossy_links() {
        let mut net = NetworkState::new(NetConfig::lan().with_drop_rate(1.0));
        let mut r = rng();
        match net.route(NodeId(1), NodeId(2), 0, SimTime::ZERO, &mut r) {
            Fate::Drop => {}
            _ => panic!("expected drop"),
        }
        net.set_default(NetConfig::lan());
        match net.route(NodeId(1), NodeId(2), 0, SimTime::ZERO, &mut r) {
            Fate::Deliver(_, dup) => assert!(dup.is_none()),
            _ => panic!("expected delivery"),
        }
    }

    #[test]
    fn per_link_overrides_take_precedence() {
        let mut net = NetworkState::new(NetConfig::lan());
        let (a, b) = (NodeId(1), NodeId(2));
        net.set_link(a, b, NetConfig::lan().with_drop_rate(1.0));
        let mut r = rng();
        assert!(matches!(
            net.route(a, b, 0, SimTime::ZERO, &mut r),
            Fate::Drop
        ));
        assert!(matches!(
            net.route(b, a, 0, SimTime::ZERO, &mut r),
            Fate::Drop
        ));
        assert!(matches!(
            net.route(a, NodeId(3), 0, SimTime::ZERO, &mut r),
            Fate::Deliver(..)
        ));
    }

    #[test]
    fn clear_link_restores_the_default_in_both_directions() {
        let mut net = NetworkState::new(NetConfig::lan());
        let (a, b) = (NodeId(1), NodeId(2));
        net.set_link(a, b, NetConfig::lan().with_drop_rate(1.0));
        net.clear_link(a, b);
        let mut r = rng();
        assert!(matches!(
            net.route(a, b, 0, SimTime::ZERO, &mut r),
            Fate::Deliver(..)
        ));
        assert!(matches!(
            net.route(b, a, 0, SimTime::ZERO, &mut r),
            Fate::Deliver(..)
        ));
        // Clearing an absent override is a no-op.
        net.clear_link(a, NodeId(9));
    }

    #[test]
    fn duplicate_rate_builder_forces_duplicates() {
        let mut net = NetworkState::new(NetConfig::lan().with_duplicate_rate(1.0));
        let mut r = rng();
        match net.route(NodeId(1), NodeId(2), 0, SimTime::ZERO, &mut r) {
            Fate::Deliver(_, dup) => assert!(dup.is_some()),
            _ => panic!("expected duplicated delivery"),
        }
    }

    #[test]
    fn extra_delay_shifts_every_latency_model() {
        let extra = SimDuration::from_millis(10);
        let mut r = rng();
        let fixed = NetConfig::lan()
            .with_latency(LatencyModel::Fixed(SimDuration::from_millis(1)))
            .with_extra_delay(extra);
        assert_eq!(fixed.latency.sample(&mut r), SimDuration::from_millis(11));
        let uniform = NetConfig::lan().with_extra_delay(extra);
        assert!(uniform.latency.sample(&mut r) >= extra);
        let normal = NetConfig::wan().with_extra_delay(extra);
        assert!(normal.latency.sample(&mut r) >= SimDuration::from_millis(15));
    }

    #[test]
    fn duplicate_partitions_do_not_accumulate() {
        // The cut set is normalized and deduplicated: partitioning the same
        // pair twice stores one entry, and a single unblock fully heals it.
        let mut net = NetworkState::new(NetConfig::lan());
        let (a, b) = (NodeId(1), NodeId(2));
        net.partition(&[a], &[b]);
        net.partition(&[b], &[a]);
        assert_eq!(net.cut.len(), 1);
        net.unblock_link(a, b);
        assert!(!net.is_cut(a, b));
        assert!(net.cut.is_empty());
    }
}
