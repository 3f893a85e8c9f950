//! The simulation driver.

use std::collections::BTreeSet;
use std::fmt;

use crate::actor::{Actor, Context, Emit, Message, Timer, TimerId};
use crate::event::{Ev, EventQueue};
use crate::metrics::Metrics;
use crate::net::{Fate, NetConfig, NetworkState};
use crate::observe::{DropReason, EventBus, Observer, SimEvent};
use crate::rng::SimRng;
use crate::storage::StableStore;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifies a node (server or client) in a simulation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// A reserved id for messages injected from outside the simulation.
    pub const EXTERNAL: NodeId = NodeId(u64::MAX);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

struct Slot<A> {
    actor: Option<A>,
    up: bool,
    storage: StableStore,
    /// Bumped on every restart; timer events from earlier incarnations are
    /// discarded when they fire.
    incarnation: u64,
    cancelled: BTreeSet<TimerId>,
}

/// A deterministic discrete-event simulation of a set of [`Actor`]s
/// connected by a modelled network.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Sim<A: Actor> {
    time: SimTime,
    queue: EventQueue<A::Msg>,
    // Dense slot table indexed by `NodeId.0`: node ids are small and
    // contiguous-ish (servers from 0, admin/clients in the low hundreds), so
    // the per-event lookup in `step` is a bounds check + index instead of a
    // tree walk. `NodeId::EXTERNAL` never owns a slot.
    nodes: Vec<Option<Slot<A>>>,
    rng: SimRng,
    net: NetworkState,
    metrics: Metrics,
    trace: Trace,
    next_timer_id: u64,
    next_node_id: u64,
    // Reused across callbacks so the per-event emit collection never
    // allocates once it has warmed up.
    emit_scratch: Vec<Emit<A::Msg>>,
    bus: EventBus,
}

impl<A: Actor> Sim<A> {
    /// Creates an empty simulation with the given RNG seed and default
    /// network configuration.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        Sim {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            net: NetworkState::new(net),
            metrics: Metrics::new(),
            trace: Trace::default(),
            next_timer_id: 0,
            next_node_id: 0,
            emit_scratch: Vec::new(),
            bus: EventBus::new(),
        }
    }

    /// Installs an [`Observer`] on the typed event stream (see
    /// [`crate::observe`]). Observers run synchronously, in installation
    /// order; install before adding nodes to see startup events.
    pub fn add_observer(&mut self, obs: impl Observer + 'static) {
        self.bus.add(obs);
    }

    fn slot(&self, id: NodeId) -> Option<&Slot<A>> {
        self.nodes.get(id.0 as usize)?.as_ref()
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut Slot<A>> {
        self.nodes.get_mut(id.0 as usize)?.as_mut()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Adds a node with the next free id and invokes its
    /// [`Actor::on_start`].
    pub fn add_node(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.next_node_id);
        self.next_node_id += 1;
        self.add_node_with_id(id, actor);
        id
    }

    /// Adds a node under an explicit id (which must be unused) and invokes
    /// its [`Actor::on_start`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present or is [`NodeId::EXTERNAL`].
    pub fn add_node_with_id(&mut self, id: NodeId, actor: A) {
        assert!(id != NodeId::EXTERNAL, "the external id is reserved");
        let idx = id.0 as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, || None);
        }
        assert!(self.nodes[idx].is_none(), "node {id} already exists");
        self.next_node_id = self.next_node_id.max(id.0 + 1);
        self.nodes[idx] = Some(Slot {
            actor: Some(actor),
            up: true,
            storage: StableStore::new(),
            incarnation: 0,
            cancelled: BTreeSet::new(),
        });
        self.run_callback(id, |actor, ctx| actor.on_start(ctx));
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u64)))
            .collect()
    }

    /// True if the node exists and is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.slot(id).map(|s| s.up).unwrap_or(false)
    }

    /// Crashes a node: its volatile state (the actor) is dropped, pending
    /// timers die, and in-flight messages to it will be discarded on
    /// arrival. Stable storage is retained for [`Sim::restart`].
    pub fn crash(&mut self, id: NodeId) {
        let slot = self.slot_mut(id).expect("unknown node");
        slot.up = false;
        slot.actor = None;
        slot.cancelled.clear();
        self.metrics.incr("sim.crashes", 1);
        self.bus
            .emit_with(self.time, || SimEvent::Crashed { node: id });
    }

    /// Restarts a crashed node with a fresh actor (typically rebuilt from
    /// [`Sim::storage`]) and invokes its [`Actor::on_start`].
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown or still up.
    pub fn restart(&mut self, id: NodeId, actor: A) {
        let slot = self.slot_mut(id).expect("unknown node");
        assert!(!slot.up, "node {id} is already up");
        slot.up = true;
        slot.actor = Some(actor);
        slot.incarnation += 1;
        self.metrics.incr("sim.restarts", 1);
        self.bus
            .emit_with(self.time, || SimEvent::Restarted { node: id });
        self.run_callback(id, |actor, ctx| actor.on_start(ctx));
    }

    /// Read access to a node's stable storage (e.g. to rebuild an actor for
    /// [`Sim::restart`]).
    pub fn storage(&self, id: NodeId) -> &StableStore {
        &self.slot(id).expect("unknown node").storage
    }

    /// Severs all links between the two groups.
    pub fn partition(&mut self, a: &[NodeId], b: &[NodeId]) {
        self.net.partition(a, b);
    }

    /// Severs the single link `a — b`.
    pub fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.net.block_link(a, b);
    }

    /// Restores the single link `a — b`.
    pub fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.net.unblock_link(a, b);
    }

    /// Restores every severed link.
    pub fn heal_all(&mut self) {
        self.net.heal_all();
    }

    /// Overrides the configuration of one (bidirectional) link.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: NetConfig) {
        self.net.set_link(a, b, cfg);
    }

    /// Removes a per-link override set with [`Sim::set_link`]; the pair
    /// reverts to the default config. Used to close loss/delay fault
    /// windows.
    pub fn clear_link(&mut self, a: NodeId, b: NodeId) {
        self.net.clear_link(a, b);
    }

    /// Injects a message into the network as if `from` had sent it.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.apply_emits(from, &mut vec![Emit::Send { to, msg }]);
    }

    /// Runs a closure against a node with a full [`Context`], applying any
    /// emitted effects — the escape hatch harnesses use to hand work to an
    /// actor at a scripted time. Returns `None` if the node is down.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R,
    ) -> Option<R> {
        if !self.is_up(id) {
            return None;
        }
        let mut result = None;
        self.run_callback(id, |actor, ctx| {
            result = Some(f(actor, ctx));
        });
        result
    }

    /// Immutable access to a node's actor (down nodes yield `None`).
    pub fn actor(&self, id: NodeId) -> Option<&A> {
        self.slot(id).and_then(|s| s.actor.as_ref())
    }

    /// The global metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics sink.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Moves the metrics sink out, leaving an empty one behind. For
    /// end-of-run reporting this avoids cloning every counter, timeline
    /// and histogram map when the simulation is about to be dropped.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// The simulation trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables trace recording (off by default).
    pub fn enable_trace(&mut self) {
        self.trace.set_enabled(true);
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        self.dispatch(ev);
        true
    }

    /// Processes every event scheduled at or before `deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.time = self.time.max(deadline);
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.time + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains or `limit` of virtual time elapses,
    /// whichever comes first. Returns `true` if the queue drained.
    pub fn run_until_quiet(&mut self, limit: SimDuration) -> bool {
        let deadline = self.time + limit;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                self.time = deadline;
                return false;
            }
            self.step();
        }
        true
    }

    fn dispatch(&mut self, ev: Ev<A::Msg>) {
        match ev {
            Ev::Deliver { to, from, msg } => {
                let Some(slot) = self.slot(to) else {
                    self.metrics.net.dropped_unknown += 1;
                    self.bus.emit_with(self.time, || SimEvent::MsgDropped {
                        from,
                        to,
                        label: msg.label(),
                        reason: DropReason::DestUnknown,
                    });
                    return;
                };
                if !slot.up {
                    self.metrics.net.dropped_down += 1;
                    self.bus.emit_with(self.time, || SimEvent::MsgDropped {
                        from,
                        to,
                        label: msg.label(),
                        reason: DropReason::DestDown,
                    });
                    return;
                }
                self.metrics.net.delivered += 1;
                self.bus.emit_with(self.time, || SimEvent::MsgDelivered {
                    from,
                    to,
                    label: msg.label(),
                });
                self.run_callback(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            Ev::TimerFire {
                node,
                id,
                kind,
                incarnation,
            } => {
                let Some(slot) = self.slot_mut(node) else {
                    return;
                };
                if !slot.up || slot.incarnation != incarnation {
                    return;
                }
                if slot.cancelled.remove(&id) {
                    return;
                }
                self.bus
                    .emit_with(self.time, || SimEvent::TimerFired { node, kind });
                self.run_callback(node, |actor, ctx| actor.on_timer(ctx, Timer { id, kind }));
            }
        }
    }

    /// Runs `f` as a callback on node `id` with a context, then applies the
    /// emitted effects. No-op if the node is down or missing.
    fn run_callback(&mut self, id: NodeId, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        let mut out = std::mem::take(&mut self.emit_scratch);
        {
            let Some(slot) = self.nodes.get_mut(id.0 as usize).and_then(|s| s.as_mut()) else {
                self.emit_scratch = out;
                return;
            };
            if !slot.up {
                self.emit_scratch = out;
                return;
            }
            let Some(actor) = slot.actor.as_mut() else {
                self.emit_scratch = out;
                return;
            };
            let mut ctx = Context {
                node: id,
                now: self.time,
                rng: &mut self.rng,
                out: &mut out,
                storage: &mut slot.storage,
                key_prefix: "",
                metrics: &mut self.metrics,
                next_timer_id: &mut self.next_timer_id,
                trace: &mut self.trace,
                bus: &mut self.bus,
            };
            f(actor, &mut ctx);
        }
        self.apply_emits(id, &mut out);
        self.emit_scratch = out;
    }

    fn apply_emits(&mut self, origin: NodeId, emits: &mut Vec<Emit<A::Msg>>) {
        for emit in emits.drain(..) {
            match emit {
                Emit::Send { to, msg } => {
                    let size = msg.size_hint();
                    let label = msg.label();
                    self.metrics.net.sent += 1;
                    self.metrics.incr_label(label, 1);
                    self.metrics.net.bytes += size as u64;
                    self.bus.emit_with(self.time, || SimEvent::MsgSent {
                        from: origin,
                        to,
                        label,
                        bytes: size as u64,
                    });
                    if to == origin {
                        // Local self-send: deliver next step with no latency.
                        self.queue.push(
                            self.time,
                            Ev::Deliver {
                                to,
                                from: origin,
                                msg,
                            },
                        );
                        continue;
                    }
                    match self.net.route(origin, to, size, self.time, &mut self.rng) {
                        Fate::Deliver(delay, dup) => {
                            // The primary copy takes ownership of the
                            // payload: the common single-delivery case
                            // enqueues without cloning. The duplicate (rare)
                            // pays the clone.
                            let dup = dup.map(|d| (d, msg.clone()));
                            self.queue.push(
                                self.time + delay,
                                Ev::Deliver {
                                    to,
                                    from: origin,
                                    msg,
                                },
                            );
                            if let Some((dup_delay, dup_msg)) = dup {
                                self.queue.push(
                                    self.time + dup_delay,
                                    Ev::Deliver {
                                        to,
                                        from: origin,
                                        msg: dup_msg,
                                    },
                                );
                            }
                        }
                        Fate::Drop => {
                            self.metrics.net.dropped += 1;
                            self.bus.emit_with(self.time, || SimEvent::MsgDropped {
                                from: origin,
                                to,
                                label,
                                reason: DropReason::Loss,
                            });
                        }
                        Fate::Corrupted => {
                            self.metrics.net.corrupted += 1;
                            self.bus.emit_with(self.time, || SimEvent::MsgDropped {
                                from: origin,
                                to,
                                label,
                                reason: DropReason::Corrupted,
                            });
                        }
                        Fate::Partitioned => {
                            self.metrics.net.partitioned += 1;
                            self.bus.emit_with(self.time, || SimEvent::MsgDropped {
                                from: origin,
                                to,
                                label,
                                reason: DropReason::Partitioned,
                            });
                        }
                    }
                }
                Emit::SetTimer { id, at, kind } => {
                    let incarnation = self.slot(origin).map(|s| s.incarnation).unwrap_or(0);
                    self.queue.push(
                        at,
                        Ev::TimerFire {
                            node: origin,
                            id,
                            kind,
                            incarnation,
                        },
                    );
                }
                Emit::CancelTimer(id) => {
                    if let Some(slot) = self.slot_mut(origin) {
                        slot.cancelled.insert(id);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Message;

    #[derive(Clone, Debug)]
    enum TestMsg {
        Ping(u32),
        Save(u64),
    }
    impl Message for TestMsg {
        fn label(&self) -> &'static str {
            match self {
                TestMsg::Ping(_) => "ping",
                TestMsg::Save(_) => "save",
            }
        }
        fn size_hint(&self) -> usize {
            4
        }
    }

    /// Echoes pings back with an incremented counter until 5; persists
    /// `Save` payloads; a `kind=1` timer re-sends the last ping.
    struct TestActor {
        peer: Option<NodeId>,
        received: u32,
        timer_fired: bool,
    }

    impl TestActor {
        fn new(peer: Option<NodeId>) -> Self {
            TestActor {
                peer,
                received: 0,
                timer_fired: false,
            }
        }
    }

    impl Actor for TestActor {
        type Msg = TestMsg;

        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            match msg {
                TestMsg::Ping(n) => {
                    self.received += 1;
                    if n < 5 {
                        ctx.send(from, TestMsg::Ping(n + 1));
                    }
                }
                TestMsg::Save(v) => ctx.storage().put_u64("saved", v),
            }
            let _ = self.peer;
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, TestMsg>, _timer: Timer) {
            self.timer_fired = true;
        }
    }

    fn pair() -> (Sim<TestActor>, NodeId, NodeId) {
        let mut sim = Sim::new(1, NetConfig::lan());
        let a = sim.add_node(TestActor::new(None));
        let b = sim.add_node(TestActor::new(Some(a)));
        (sim, a, b)
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let (mut sim, a, b) = pair();
        sim.inject(a, b, TestMsg::Ping(0));
        assert!(sim.run_until_quiet(SimDuration::from_secs(1)));
        // Ping(0)..Ping(5) = 6 deliveries total.
        assert_eq!(sim.metrics().counter("net.delivered"), 6);
        assert_eq!(sim.metrics().label_count("ping"), 6);
        let total: u32 = [a, b].iter().map(|&n| sim.actor(n).unwrap().received).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn duplicate_partitions_count_once_and_heal_all_restores() {
        // Partitioning the same pair repeatedly must not inflate the
        // partition-drop count: the cut set is deduplicated, so each blocked
        // send increments `net.partitioned` exactly once, and a single
        // `heal_all` restores everything.
        let (mut sim, a, b) = pair();
        sim.partition(&[a], &[b]);
        sim.partition(&[a], &[b]);
        sim.partition(&[b], &[a]);
        sim.inject(a, b, TestMsg::Ping(0));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.partitioned"), 1);
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
        sim.heal_all();
        sim.inject(a, b, TestMsg::Ping(0));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.partitioned"), 1);
        assert_eq!(sim.metrics().counter("net.delivered"), 6);
    }

    #[test]
    fn clear_link_reverts_an_override_to_the_default() {
        let (mut sim, a, b) = pair();
        sim.set_link(a, b, NetConfig::lan().with_drop_rate(1.0));
        sim.inject(a, b, TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
        sim.clear_link(a, b);
        sim.inject(a, b, TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.delivered"), 1);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed, NetConfig::lossy(0.2));
            let a = sim.add_node(TestActor::new(None));
            let b = sim.add_node(TestActor::new(None));
            for i in 0..50 {
                sim.inject(a, b, TestMsg::Ping(i % 5));
            }
            sim.run_until_quiet(SimDuration::from_secs(10));
            (
                sim.metrics().counter("net.delivered"),
                sim.metrics().counter("net.dropped"),
                sim.now(),
            )
        };
        assert_eq!(run(99), run(99));
        // And a different seed should (with overwhelming likelihood) differ.
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn crashed_nodes_drop_messages_and_keep_storage() {
        let (mut sim, a, b) = pair();
        sim.inject(a, b, TestMsg::Save(42));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.storage(b).get_u64("saved"), Some(42));

        sim.crash(b);
        assert!(!sim.is_up(b));
        sim.inject(a, b, TestMsg::Ping(0));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.dropped_down"), 1);

        // Storage survives; a restarted actor can read it.
        assert_eq!(sim.storage(b).get_u64("saved"), Some(42));
        sim.restart(b, TestActor::new(None));
        assert!(sim.is_up(b));
        sim.inject(a, b, TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.actor(b).unwrap().received, 1);
    }

    #[test]
    fn timers_from_old_incarnations_do_not_fire() {
        let (mut sim, _a, b) = pair();
        sim.with_node(b, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        });
        sim.crash(b);
        sim.restart(b, TestActor::new(None));
        sim.run_for(SimDuration::from_millis(50));
        assert!(!sim.actor(b).unwrap().timer_fired);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let (mut sim, _a, b) = pair();
        let id = sim
            .with_node(b, |_, ctx| ctx.set_timer(SimDuration::from_millis(10), 1))
            .unwrap();
        sim.with_node(b, |_, ctx| ctx.cancel_timer(id));
        sim.run_for(SimDuration::from_millis(50));
        assert!(!sim.actor(b).unwrap().timer_fired);
    }

    #[test]
    fn live_timers_fire_once() {
        let (mut sim, _a, b) = pair();
        sim.with_node(b, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), 7);
        });
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim.actor(b).unwrap().timer_fired);
    }

    #[test]
    fn partitions_stop_traffic_until_healed() {
        let (mut sim, a, b) = pair();
        sim.partition(&[a], &[b]);
        sim.inject(a, b, TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.partitioned"), 1);
        assert_eq!(sim.actor(b).unwrap().received, 0);

        sim.heal_all();
        sim.inject(a, b, TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.actor(b).unwrap().received, 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _a, _b) = pair();
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn explicit_ids_are_respected_and_unique() {
        let mut sim: Sim<TestActor> = Sim::new(0, NetConfig::lan());
        sim.add_node_with_id(NodeId(10), TestActor::new(None));
        let next = sim.add_node(TestActor::new(None));
        assert_eq!(next, NodeId(11));
        assert_eq!(sim.node_ids(), vec![NodeId(10), NodeId(11)]);
    }

    #[test]
    fn self_sends_are_delivered_immediately() {
        let (mut sim, a, _b) = pair();
        sim.inject(a, a, TestMsg::Ping(5));
        let before = sim.now();
        sim.step();
        assert_eq!(sim.now(), before);
        assert_eq!(sim.actor(a).unwrap().received, 1);
    }

    #[test]
    fn observers_see_transport_events_and_digest_is_seed_stable() {
        use crate::observe::{shared, EventDigest, EventLog, SimEvent};
        let run = |seed: u64| {
            let mut sim: Sim<TestActor> = Sim::new(seed, NetConfig::lossy(0.2));
            let digest = shared(EventDigest::new());
            let log = shared(EventLog::new());
            sim.add_observer(digest.clone());
            sim.add_observer(log.clone());
            let a = sim.add_node(TestActor::new(None));
            let b = sim.add_node(TestActor::new(None));
            for i in 0..20 {
                sim.inject(a, b, TestMsg::Ping(i % 5));
            }
            sim.crash(b);
            sim.inject(a, b, TestMsg::Ping(5));
            sim.run_until_quiet(SimDuration::from_secs(10));
            sim.restart(b, TestActor::new(None));
            sim.run_until_quiet(SimDuration::from_secs(10));
            let sent = log
                .borrow()
                .events()
                .iter()
                .filter(|(_, ev)| matches!(ev, SimEvent::MsgSent { .. }))
                .count() as u64;
            let delivered = log
                .borrow()
                .events()
                .iter()
                .filter(|(_, ev)| matches!(ev, SimEvent::MsgDelivered { .. }))
                .count() as u64;
            let crashes = log
                .borrow()
                .events()
                .iter()
                .filter(|(_, ev)| {
                    matches!(ev, SimEvent::Crashed { .. } | SimEvent::Restarted { .. })
                })
                .count();
            let digest_value = digest.borrow().value();
            (
                digest_value,
                sent,
                delivered,
                crashes,
                sim.metrics().fingerprint(),
            )
        };
        let (d1, sent, delivered, crashes, fp1) = run(7);
        let (d2, _, _, _, fp2) = run(7);
        assert_eq!(d1, d2, "event digest must be seed-stable");
        assert_eq!(fp1, fp2);
        assert_eq!(crashes, 2, "one crash + one restart observed");
        assert!(sent >= 21);
        assert!(delivered <= sent, "lossy net: {delivered} of {sent}");
        let (d3, ..) = run(8);
        assert_ne!(d1, d3, "different seeds should diverge");
    }

    #[test]
    fn uninstalled_observers_change_nothing() {
        // Identical runs with and without an observer installed: metrics and
        // trace must match exactly — observation is read-only.
        let run = |observe: bool| {
            let mut sim: Sim<TestActor> = Sim::new(11, NetConfig::lossy(0.1));
            if observe {
                sim.add_observer(crate::observe::EventDigest::new());
            }
            let a = sim.add_node(TestActor::new(None));
            let b = sim.add_node(TestActor::new(None));
            for i in 0..30 {
                sim.inject(a, b, TestMsg::Ping(i % 5));
            }
            sim.run_until_quiet(SimDuration::from_secs(10));
            (sim.metrics().fingerprint(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn domain_events_flow_from_context_to_observers() {
        use crate::observe::{shared, DomainEvent, EventLog};
        let mut sim: Sim<TestActor> = Sim::new(1, NetConfig::lan());
        let log = shared(EventLog::new());
        sim.add_observer(log.clone());
        let a = sim.add_node(TestActor::new(None));
        sim.with_node(a, |_, ctx| {
            assert!(ctx.observed());
            ctx.emit_event(DomainEvent::Anchored { epoch: 3 });
        });
        let domain = log.borrow().domain_events();
        assert_eq!(domain.len(), 1);
        let (_, node, ev) = domain[0];
        assert_eq!(node, a);
        assert_eq!(ev, DomainEvent::Anchored { epoch: 3 });
    }

    #[test]
    fn sparse_ids_and_external_never_alias_a_slot() {
        let mut sim: Sim<TestActor> = Sim::new(0, NetConfig::lan());
        let a = sim.add_node(TestActor::new(None));
        sim.add_node_with_id(NodeId(99), TestActor::new(None));
        assert_eq!(sim.node_ids(), vec![NodeId(0), NodeId(99)]);
        assert!(!sim.is_up(NodeId(50)));
        assert!(!sim.is_up(NodeId::EXTERNAL));
        // Messages to ids without a slot are counted, not delivered.
        sim.inject(a, NodeId(50), TestMsg::Ping(5));
        sim.run_until_quiet(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().counter("net.dropped_unknown"), 1);
    }
}
