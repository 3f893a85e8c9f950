//! # simnet — deterministic discrete-event simulation for distributed protocols
//!
//! `simnet` is the substrate every protocol in this workspace runs on. It
//! provides:
//!
//! * a **virtual clock** ([`SimTime`], [`SimDuration`]) with microsecond
//!   granularity;
//! * an **actor model** ([`Actor`], [`Context`]): nodes receive messages and
//!   timer callbacks, and emit messages/timers through their context;
//! * a **network model** ([`NetConfig`], [`LatencyModel`]): per-link latency
//!   distributions, probabilistic loss and duplication, and explicit
//!   partitions;
//! * **fault injection**: crash and restart of nodes, with a per-node
//!   [`StableStore`] that survives restarts (simulated stable storage), and
//!   declarative seeded fault schedules ([`FaultPlan`], [`ChaosGen`],
//!   [`ChaosDriver`]) for replayable chaos runs;
//! * **observability**: counters, histograms and timelines ([`Metrics`]), a
//!   bounded textual [`Trace`], and a typed event stream ([`SimEvent`],
//!   [`observe::Observer`]) covering transport actions and protocol-emitted
//!   [`DomainEvent`]s.
//!
//! Everything is single-threaded and seeded, so a run is a pure function of
//! `(actors, seed, script)` — property tests and experiments are exactly
//! reproducible.
//!
//! The same actors also run **for real**: the [`transport`] module defines
//! the narrow [`Clock`]/[`Transport`]/[`StorageBackend`] boundary (wall
//! clocks, length-prefixed TCP framing with reconnect, file-backed
//! [`StableStore`]), and [`NodeRuntime`] drives an unmodified actor on
//! those backends with the same callback/effect discipline as [`Sim`].
//! Develop and model-check under the simulator; deploy the identical type.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Context, Message, NetConfig, NodeId, Sim, SimDuration, Timer};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {
//!     fn label(&self) -> &'static str { "ping" }
//! }
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = Ping;
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _timer: Timer) {}
//! }
//!
//! let mut sim = Sim::new(42, NetConfig::lan());
//! let a = sim.add_node(Echo);
//! let b = sim.add_node(Echo);
//! sim.inject(a, b, Ping(0));
//! sim.run_until_quiet(SimDuration::from_secs(1));
//! assert!(sim.metrics().counter("net.delivered") >= 3);
//! ```

mod actor;
pub mod backoff;
pub mod chaos;
mod event;
mod metrics;
mod net;
pub mod observe;
pub mod rng;
pub mod runtime;
pub mod shard;
mod sim;
mod storage;
pub mod telemetry;
mod time;
mod trace;
pub mod transport;
mod wal;
pub mod wire;

pub use actor::{Actor, Context, Message, Timer, TimerId};
pub use backoff::RetryBackoff;
pub use chaos::{
    link_delay_permutation, mutate_plan, ChaosDriver, ChaosGen, CoverageMap, DiskFault, FaultEvent,
    FaultKind, FaultPlan, FaultTarget, LifecycleCoverage, PlanLineage,
};
pub use metrics::{Histogram, HistogramSummary, Metrics, MetricsSnapshot, Timeline};
pub use net::{LatencyModel, NetConfig};
pub use observe::{DomainEvent, DropReason, EventDigest, EventLog, Observer, SimEvent, Spans};
pub use rng::SimRng;
pub use runtime::{NodeRuntime, RuntimeConfig};
pub use shard::{GroupId, Grouped, MultiGroup};
pub use sim::{NodeId, Sim};
pub use storage::{ScopedStore, StableStore};
pub use telemetry::{
    render_prometheus, Counter, Export, Gauge, HistogramHandle, LogHistogram, Registry,
};
pub use time::{SimDuration, SimTime};
pub use trace::Trace;
pub use transport::{
    ChannelHub, ChannelTransport, Clock, FaultyStorage, FaultyTransport, FileStorage, FrameBuffer,
    FrameError, ManualClock, MemStorage, NullTransport, StorageBackend, TcpConfig, TcpTransport,
    Transport, TransportEvent, WallClock,
};
