//! Drives an unmodified [`Actor`] on real backends: a [`Clock`], a
//! [`Transport`] and a [`StorageBackend`].
//!
//! [`NodeRuntime`] is the real-world twin of [`crate::Sim`]: the same
//! callback discipline (`on_start` / `on_message` / `on_timer`, effects
//! buffered in a [`crate::Context`] and applied afterwards), the same
//! metrics counters, the same typed event stream — but messages travel as
//! [`crate::wire::Wire`] frames over a transport, timers fire off the
//! wall clock, and every storage mutation is written through to the
//! backend *before* the frames emitted in the same drain pass leave the
//! process (the write-ahead discipline consensus actors assume). A pass
//! dispatches every frame already queued, so one flush (one fsync)
//! covers all of them.
//!
//! The actor cannot tell the difference; that is the point. A protocol is
//! developed and model-checked under the simulator, then deployed by
//! handing the very same type to a `NodeRuntime` (see the `rsmr-server`
//! binary).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use crate::actor::{Actor, Context, Emit, Message, Timer, TimerId};
use crate::metrics::Metrics;
use crate::observe::{DropReason, EventBus, Observer, SimEvent};
use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::storage::StableStore;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::transport::{Clock, StorageBackend, Transport, TransportEvent};
use crate::wire::{self, Wire};

/// Tuning for a [`NodeRuntime`].
#[derive(Clone, Debug, Default)]
pub struct RuntimeConfig {
    /// Seed for the actor's deterministic RNG (protocol randomness such as
    /// retry jitter; real-runtime scheduling is of course not seeded).
    pub seed: u64,
}

/// Longest single transport wait; shorter waits are used when a timer is
/// due sooner. Bounds how late a timer can fire.
const POLL_SLICE: Duration = Duration::from_millis(5);

/// Most transport events one drain pass dispatches before it flushes:
/// bounds how long the pass holds its first frame's reply, and keeps a
/// frame flood from starving timers and the caller's deadline.
const MAX_FRAMES_PER_PASS: usize = 256;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    id: TimerId,
    kind: u32,
}

/// Hosts one [`Actor`] on real backends. See the module docs.
pub struct NodeRuntime<A: Actor> {
    node: NodeId,
    actor: A,
    clock: Box<dyn Clock>,
    transport: Box<dyn Transport>,
    backend: Box<dyn StorageBackend>,
    store: StableStore,
    rng: SimRng,
    metrics: Metrics,
    trace: Trace,
    bus: EventBus,
    next_timer_id: u64,
    next_timer_seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    cancelled: BTreeSet<TimerId>,
    selfq: VecDeque<A::Msg>,
    emit_scratch: Vec<Emit<A::Msg>>,
    started: bool,
}

impl<A: Actor> NodeRuntime<A>
where
    A::Msg: Wire,
{
    /// Builds a runtime around an actor and its backends.
    ///
    /// `store` is the node's recovery state, normally obtained from
    /// [`StorageBackend::load`] on the same `backend` *before* building the
    /// actor (so the actor can be reconstructed from it — the real-world
    /// analogue of [`crate::Sim::restart`]). The runtime takes ownership
    /// and writes every mutation through to `backend`.
    ///
    /// The actor's `on_start` runs on the first [`NodeRuntime::step`] (or
    /// explicit [`NodeRuntime::start`]), so observers can be installed
    /// first.
    pub fn new(
        node: NodeId,
        actor: A,
        clock: impl Clock + 'static,
        transport: impl Transport + 'static,
        backend: impl StorageBackend + 'static,
        mut store: StableStore,
        cfg: RuntimeConfig,
    ) -> Self {
        store.enable_journal();
        store.take_dirty(); // loading is not a mutation
        NodeRuntime {
            node,
            actor,
            clock: Box::new(clock),
            transport: Box::new(transport),
            backend: Box::new(backend),
            store,
            rng: SimRng::seed_from_u64(cfg.seed ^ node.0),
            metrics: Metrics::new(),
            trace: Trace::default(),
            bus: EventBus::new(),
            next_timer_id: 0,
            next_timer_seq: 0,
            timers: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            selfq: VecDeque::new(),
            emit_scratch: Vec::new(),
            started: false,
        }
    }

    /// Installs an [`Observer`] on the typed event stream — the same
    /// machinery as [`crate::Sim::add_observer`], so span/latency
    /// aggregators like [`crate::observe::Spans`] work unchanged on real
    /// runs. Install before the first step to see startup events.
    pub fn add_observer(&mut self, obs: impl Observer + 'static) {
        self.bus.add(obs);
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current instant according to the runtime's clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The hosted actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// The metrics sink (same counters as the simulator where they apply:
    /// `net.sent`, `net.delivered`, per-label counts, …).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Read access to the node's stable store.
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// The transport's listening address, if it has one.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.transport.local_addr()
    }

    /// Runs the actor's `on_start` if it has not run yet. Idempotent;
    /// called implicitly by the stepping methods.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.run_callback(|actor, ctx| actor.on_start(ctx));
    }

    /// One drain pass: wait up to `max_wait` for a transport event, then
    /// dispatch it and every further event already queued (at most
    /// `MAX_FRAMES_PER_PASS`), fire due timers and drain self-sends.
    /// Every handler of the pass emits into one buffer; the pass then
    /// flushes storage once and releases the buffered frames. Returns
    /// `true` when any callback ran.
    pub fn step(&mut self, max_wait: Duration) -> bool {
        self.start();
        let mut out = std::mem::take(&mut self.emit_scratch);

        // Nothing is dispatched before the poll, so the pass never blocks
        // while it holds unflushed effects.
        let mut wait = max_wait.min(POLL_SLICE);
        if !self.selfq.is_empty() {
            wait = Duration::ZERO;
        }
        if let Some(Reverse(next)) = self.timers.peek() {
            let until = next
                .at
                .as_micros()
                .saturating_sub(self.clock.now().as_micros());
            wait = wait.min(Duration::from_micros(until));
        }
        let mut progressed = false;
        for _ in 0..MAX_FRAMES_PER_PASS {
            let Some(event) = self.transport.poll(wait) else {
                break;
            };
            wait = Duration::ZERO;
            progressed |= self.dispatch_event(event, &mut out);
        }
        progressed |= self.fire_due_timers(&mut out);
        progressed |= self.drain_self_sends(&mut out);
        self.finish_pass(&mut out);
        self.emit_scratch = out;
        progressed
    }

    /// Pumps for `wall` of real time.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.step(left);
        }
    }

    /// Pumps until `pred(actor)` holds or `timeout` of real time elapses.
    /// Returns whether the predicate was met.
    pub fn run_until(&mut self, mut pred: impl FnMut(&A) -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.actor) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.step(left);
        }
    }

    /// Runs a closure against the actor with a full [`Context`], applying
    /// the emitted effects — how harnesses hand work (e.g. an initial
    /// request) to the actor, mirroring [`crate::Sim::with_node`].
    pub fn with_actor<R>(&mut self, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) -> R) -> R {
        self.start();
        let mut result = None;
        self.run_callback(|actor, ctx| result = Some(f(actor, ctx)));
        result.expect("callback ran")
    }

    /// Flushes and syncs storage, then tears down the transport and
    /// returns the actor for inspection.
    pub fn shutdown(mut self) -> A {
        self.flush_storage();
        self.actor
    }

    fn fire_due_timers(&mut self, out: &mut Vec<Emit<A::Msg>>) -> bool {
        let mut fired = false;
        // Bounded pass: only timers due when the pass began, and at most
        // as many firings as the heap held at entry. A callback that
        // outlasts its own re-arm interval (a 5ms tick doing a restart's
        // worth of catch-up) would otherwise be due again by the time the
        // loop re-peeks, and the pass would spin forever — the transport
        // never polled, inbound starved, `run_for` deadlines and the stop
        // flag never checked. Re-armed timers fire on the next step.
        let horizon = self.clock.now();
        let mut budget = self.timers.len();
        loop {
            if budget == 0 {
                return fired;
            }
            match self.timers.peek() {
                Some(Reverse(e)) if e.at <= horizon => {}
                _ => return fired,
            }
            budget -= 1;
            let Reverse(e) = self.timers.pop().expect("peeked");
            if self.cancelled.remove(&e.id) {
                continue;
            }
            let now = self.clock.now();
            let node = self.node;
            let kind = e.kind;
            self.bus
                .emit_with(now, || SimEvent::TimerFired { node, kind });
            self.callback(out, |actor, ctx| {
                actor.on_timer(ctx, Timer { id: e.id, kind });
            });
            fired = true;
        }
    }

    fn drain_self_sends(&mut self, out: &mut Vec<Emit<A::Msg>>) -> bool {
        let mut any = false;
        // Same bounding as `fire_due_timers`: deliver only the self-sends
        // queued when the pass began, so a handler that replies to itself
        // cannot starve the transport poll.
        let mut budget = self.selfq.len();
        while budget > 0 {
            budget -= 1;
            let Some(msg) = self.selfq.pop_front() else {
                break;
            };
            let now = self.clock.now();
            let node = self.node;
            let label = msg.label();
            self.metrics.net.delivered += 1;
            self.bus.emit_with(now, || SimEvent::MsgDelivered {
                from: node,
                to: node,
                label,
            });
            self.callback(out, |actor, ctx| actor.on_message(ctx, node, msg));
            any = true;
        }
        any
    }

    /// Dispatches one transport event into the pass's emit buffer.
    /// Returns `true` when it ran a callback.
    fn dispatch_event(&mut self, event: TransportEvent, out: &mut Vec<Emit<A::Msg>>) -> bool {
        match event {
            TransportEvent::Frame { from, payload } => {
                let Some(msg) = wire::from_bytes::<A::Msg>(&payload) else {
                    self.metrics.incr("rt.decode_errors", 1);
                    return false;
                };
                self.metrics.net.delivered += 1;
                self.metrics.net.bytes += payload.len() as u64;
                let label = msg.label();
                let to = self.node;
                self.bus
                    .emit_with(self.clock.now(), || SimEvent::MsgDelivered {
                        from,
                        to,
                        label,
                    });
                self.callback(out, |actor, ctx| actor.on_message(ctx, from, msg));
                true
            }
            TransportEvent::PeerConnected(_) => {
                self.metrics.incr("rt.peer_connects", 1);
                false
            }
            TransportEvent::PeerDisconnected(_) => {
                self.metrics.incr("rt.peer_disconnects", 1);
                false
            }
        }
    }

    /// Runs one callback as a pass of its own.
    fn run_callback(&mut self, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        let mut out = std::mem::take(&mut self.emit_scratch);
        self.callback(&mut out, f);
        self.finish_pass(&mut out);
        self.emit_scratch = out;
    }

    /// Runs one actor callback, buffering its effects in `out`. Storage
    /// mutations stay in the in-memory store until the pass flushes.
    fn callback(
        &mut self,
        out: &mut Vec<Emit<A::Msg>>,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
    ) {
        let mut ctx = Context {
            node: self.node,
            now: self.clock.now(),
            rng: &mut self.rng,
            out,
            storage: &mut self.store,
            key_prefix: "",
            metrics: &mut self.metrics,
            next_timer_id: &mut self.next_timer_id,
            trace: &mut self.trace,
            bus: &mut self.bus,
        };
        f(&mut self.actor, &mut ctx);
    }

    /// Durability before visibility: every mutation of the pass hits the
    /// backend before any frame the pass emitted leaves the process.
    fn finish_pass(&mut self, out: &mut Vec<Emit<A::Msg>>) {
        self.flush_storage();
        let now = self.clock.now();
        self.apply_emits(now, out);
    }

    fn flush_storage(&mut self) {
        let dirty = self.store.take_dirty();
        if dirty.is_empty() {
            return;
        }
        for key in &dirty {
            let value = self.store.get(key);
            self.backend
                .apply(key, value)
                .unwrap_or_else(|e| panic!("storage backend failed writing {key:?}: {e}"));
        }
        self.backend
            .sync()
            .unwrap_or_else(|e| panic!("storage backend failed to sync: {e}"));
        self.metrics.incr("rt.storage_flushes", 1);
        self.metrics
            .incr("rt.storage_keys_written", dirty.len() as u64);
    }

    fn apply_emits(&mut self, now: SimTime, emits: &mut Vec<Emit<A::Msg>>) {
        for emit in emits.drain(..) {
            match emit {
                Emit::Send { to, msg } => {
                    let label = msg.label();
                    let origin = self.node;
                    self.metrics.net.sent += 1;
                    self.metrics.incr_label(label, 1);
                    if to == origin {
                        // Self-sends never cross the transport; they are
                        // delivered on the same pump iteration.
                        self.bus.emit_with(now, || SimEvent::MsgSent {
                            from: origin,
                            to,
                            label,
                            bytes: 0,
                        });
                        self.selfq.push_back(msg);
                        continue;
                    }
                    let payload = wire::to_bytes(&msg);
                    let bytes = payload.len() as u64;
                    self.metrics.net.bytes += bytes;
                    self.bus.emit_with(now, || SimEvent::MsgSent {
                        from: origin,
                        to,
                        label,
                        bytes,
                    });
                    if !self.transport.send(to, payload) {
                        self.metrics.net.dropped += 1;
                        self.bus.emit_with(now, || SimEvent::MsgDropped {
                            from: origin,
                            to,
                            label,
                            reason: DropReason::Loss,
                        });
                    }
                }
                Emit::SetTimer { id, at, kind } => {
                    self.timers.push(Reverse(TimerEntry {
                        at,
                        seq: self.next_timer_seq,
                        id,
                        kind,
                    }));
                    self.next_timer_seq += 1;
                }
                Emit::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::transport::{ChannelHub, ChannelTransport, ManualClock, MemStorage, NullTransport};
    use crate::SimDuration;

    /// Echoes pings back incremented; persists the highest value seen; a
    /// timer (kind 7) set at start records its firing.
    struct Echo {
        received: u32,
        timer_fired: bool,
    }

    #[derive(Clone, Debug)]
    struct Ping(u32);
    impl Message for Ping {
        fn label(&self) -> &'static str {
            "ping"
        }
    }
    impl Wire for Ping {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut &[u8]) -> Option<Self> {
            Some(Ping(u32::decode(buf)?))
        }
    }

    impl Actor for Echo {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::from_millis(10), 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.received += 1;
            ctx.storage().put_u64("max", u64::from(msg.0));
            if msg.0 < 3 {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, timer: Timer) {
            assert_eq!(timer.kind, 7);
            self.timer_fired = true;
        }
    }

    fn echo_runtime(hub: &ChannelHub, id: u64, clock: ManualClock) -> NodeRuntime<Echo> {
        NodeRuntime::new(
            NodeId(id),
            Echo {
                received: 0,
                timer_fired: false,
            },
            clock,
            hub.endpoint(NodeId(id)),
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        )
    }

    #[test]
    fn two_runtimes_ping_pong_over_channels() {
        let hub = ChannelHub::new();
        let clock = ManualClock::new();
        let mut a = echo_runtime(&hub, 1, clock.clone());
        let mut b = echo_runtime(&hub, 2, clock.clone());
        a.with_actor(|_, ctx| ctx.send(NodeId(2), Ping(0)));
        // Alternate stepping until the volley (0,1,2,3) completes.
        for _ in 0..50 {
            b.step(Duration::from_millis(5));
            a.step(Duration::from_millis(5));
        }
        assert_eq!(b.actor().received + a.actor().received, 4);
        assert_eq!(b.store().get_u64("max"), Some(2));
        assert_eq!(a.store().get_u64("max"), Some(3));
        assert!(a.metrics().counter("net.sent") >= 2);
        assert_eq!(
            a.metrics().label_count("ping") + b.metrics().label_count("ping"),
            4
        );
    }

    #[test]
    fn timers_fire_on_the_manual_clock_and_cancel() {
        let clock = ManualClock::new();
        let mut rt = NodeRuntime::new(
            NodeId(1),
            Echo {
                received: 0,
                timer_fired: false,
            },
            clock.clone(),
            NullTransport,
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        );
        rt.step(Duration::from_micros(100));
        assert!(!rt.actor().timer_fired, "clock has not moved");
        clock.advance(9_999);
        rt.step(Duration::from_micros(100));
        assert!(!rt.actor().timer_fired, "one microsecond early");
        clock.advance(1);
        rt.step(Duration::from_micros(100));
        assert!(rt.actor().timer_fired, "due timers fire");

        // A cancelled timer never fires.
        let id = rt.with_actor(|_, ctx| ctx.set_timer(SimDuration::from_millis(1), 7));
        rt.with_actor(|_, ctx| ctx.cancel_timer(id));
        let fired_before = rt.actor().timer_fired;
        clock.advance(10_000);
        rt.step(Duration::from_micros(100));
        assert_eq!(rt.actor().timer_fired, fired_before);
    }

    #[test]
    fn self_sends_deliver_without_a_transport() {
        let clock = ManualClock::new();
        let mut rt = NodeRuntime::new(
            NodeId(5),
            Echo {
                received: 0,
                timer_fired: false,
            },
            clock,
            NullTransport,
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        );
        rt.with_actor(|_, ctx| {
            let me = ctx.node_id();
            ctx.send(me, Ping(3));
        });
        rt.step(Duration::from_millis(1));
        assert_eq!(rt.actor().received, 1);
    }

    #[test]
    fn storage_writes_through_to_the_backend() {
        use crate::transport::{FileStorage, StorageBackend};
        let dir = std::env::temp_dir().join(format!("rsmr-rt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = ManualClock::new();
        {
            let mut backend = FileStorage::open(&dir, false).unwrap();
            let store = backend.load().unwrap();
            let mut rt = NodeRuntime::new(
                NodeId(1),
                Echo {
                    received: 0,
                    timer_fired: false,
                },
                clock.clone(),
                NullTransport,
                backend,
                store,
                RuntimeConfig::default(),
            );
            rt.with_actor(|_, ctx| ctx.storage().put_u64("acceptor/promised", 42));
            rt.shutdown();
        }
        // A fresh process sees the write.
        let mut backend = FileStorage::open(&dir, false).unwrap();
        let store = backend.load().unwrap();
        assert_eq!(store.get_u64("acceptor/promised"), Some(42));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An actor whose timer callback re-arms an immediately-due timer and
    /// whose message handler replies to itself. Either pattern (or a tick
    /// whose work outlasts the tick interval, the real-world shape) used
    /// to trap `step` in an unbounded drain pass: the transport was never
    /// polled again and `run_for` never regained control. The regression
    /// check is that `step` *returns at all*.
    struct Storm {
        ticks: u32,
        echoes: u32,
    }

    impl Actor for Storm {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::ZERO, 1);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
            self.echoes += 1;
            let me = ctx.node_id();
            ctx.send(me, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _timer: Timer) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::ZERO, 1);
        }
    }

    #[test]
    fn always_due_timers_cannot_starve_a_step() {
        // The manual clock never advances, so the re-armed timer is due
        // the instant it is set — the worst case of "callback outlasts
        // its own re-arm interval".
        let clock = ManualClock::new();
        let mut rt = NodeRuntime::new(
            NodeId(1),
            Storm {
                ticks: 0,
                echoes: 0,
            },
            clock,
            NullTransport,
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        );
        for _ in 0..5 {
            assert!(rt.step(Duration::ZERO), "bounded progress each step");
        }
        // Each step fires the one due timer once, never more: the re-armed
        // duplicate waits for the next step.
        let ticks = rt.actor().ticks;
        assert!((1..=10).contains(&ticks), "got {ticks} ticks");
    }

    type Log = Arc<Mutex<Vec<&'static str>>>;

    /// Records every backend write and sync into a shared log.
    struct LoggedStorage(Log);

    impl StorageBackend for LoggedStorage {
        fn load(&mut self) -> std::io::Result<StableStore> {
            Ok(StableStore::new())
        }
        fn apply(&mut self, _key: &str, _value: Option<&[u8]>) -> std::io::Result<()> {
            self.0.lock().unwrap().push("apply");
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.0.lock().unwrap().push("sync");
            Ok(())
        }
    }

    /// Records every outgoing frame into the same log as the storage.
    struct LoggedTransport(ChannelTransport, Log);

    impl Transport for LoggedTransport {
        fn send(&mut self, to: NodeId, payload: Vec<u8>) -> bool {
            self.1.lock().unwrap().push("send");
            self.0.send(to, payload)
        }
        fn poll(&mut self, timeout: Duration) -> Option<TransportEvent> {
            self.0.poll(timeout)
        }
    }

    #[test]
    fn a_drain_pass_syncs_once_before_any_reply_leaves() {
        const N: usize = 8;
        let hub = ChannelHub::new();
        let log = Log::default();
        let mut rt = NodeRuntime::new(
            NodeId(1),
            Echo {
                received: 0,
                timer_fired: false,
            },
            ManualClock::new(),
            LoggedTransport(hub.endpoint(NodeId(1)), Arc::clone(&log)),
            LoggedStorage(Arc::clone(&log)),
            StableStore::new(),
            RuntimeConfig::default(),
        );
        rt.start();
        let mut peer = hub.endpoint(NodeId(2));
        for _ in 0..N {
            assert!(peer.send(NodeId(1), wire::to_bytes(&Ping(0))));
        }
        assert!(rt.step(Duration::ZERO));
        assert_eq!(rt.actor().received as usize, N, "one pass takes them all");
        // Every handler wrote the same key: one write, one sync, and only
        // then the N replies.
        let mut expected = vec!["apply", "sync"];
        expected.extend(["send"; N]);
        assert_eq!(*log.lock().unwrap(), expected);
        assert_eq!(rt.metrics().counter("rt.storage_flushes"), 1);
        for _ in 0..N {
            assert!(matches!(
                peer.poll(Duration::ZERO),
                Some(TransportEvent::Frame { .. })
            ));
        }
    }

    #[test]
    fn a_frame_flood_larger_than_the_cap_still_returns_from_step() {
        let hub = ChannelHub::new();
        let mut rt = echo_runtime(&hub, 1, ManualClock::new());
        let mut peer = hub.endpoint(NodeId(2));
        let flood = MAX_FRAMES_PER_PASS + 10;
        for _ in 0..flood {
            // Ping(3) needs no reply.
            assert!(peer.send(NodeId(1), wire::to_bytes(&Ping(3))));
        }
        assert!(rt.step(Duration::ZERO));
        assert_eq!(rt.actor().received as usize, MAX_FRAMES_PER_PASS);
        assert!(rt.step(Duration::ZERO));
        assert_eq!(rt.actor().received as usize, flood);
    }

    #[test]
    fn self_send_loops_cannot_starve_a_step() {
        let clock = ManualClock::new();
        let mut rt = NodeRuntime::new(
            NodeId(1),
            Storm {
                ticks: 0,
                echoes: 0,
            },
            clock,
            NullTransport,
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        );
        rt.with_actor(|_, ctx| {
            let me = ctx.node_id();
            ctx.send(me, Ping(0));
        });
        for _ in 0..5 {
            assert!(rt.step(Duration::ZERO), "bounded progress each step");
        }
        let echoes = rt.actor().echoes;
        assert!((1..=11).contains(&echoes), "got {echoes} echoes");
    }

    #[test]
    fn observers_see_runtime_events() {
        use crate::observe::{shared, EventLog};
        let hub = ChannelHub::new();
        let clock = ManualClock::new();
        let mut a = echo_runtime(&hub, 1, clock.clone());
        let mut b = echo_runtime(&hub, 2, clock.clone());
        let log = shared(EventLog::new());
        a.add_observer(log.clone());
        a.with_actor(|_, ctx| ctx.send(NodeId(2), Ping(2)));
        for _ in 0..10 {
            b.step(Duration::from_millis(2));
            a.step(Duration::from_millis(2));
        }
        let events = log.borrow().events().to_vec();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SimEvent::MsgSent { label: "ping", .. })),
            "sends observed: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SimEvent::MsgDelivered { .. })),
            "deliveries observed"
        );
    }
}
