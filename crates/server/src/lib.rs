//! # rsmr-server — a deployable replica of the reconfigurable machine
//!
//! This crate assembles the *unmodified* protocol actors — the same
//! [`rsmr_core::RsmrNode`] / [`rsmr_core::harness::World`] /
//! [`simnet::MultiGroup`] types every simulated experiment runs — onto
//! real backends via [`simnet::NodeRuntime`]: TCP transport with
//! length-prefixed frames and reconnect, a wall clock, and a file-backed
//! [`simnet::StableStore`] that survives crashes.
//!
//! The library exposes the assembly ([`build_actor`]) and the serve loop
//! ([`serve`]) so integration tests and the load generator can host
//! replicas in-process; the `rsmr-server` binary is a thin CLI wrapper.
//! See `OPERATIONS.md` at the repository root for the operator's guide.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kvstore::KvStore;
use rsmr_core::harness::World;
use rsmr_core::{RsmrNode, RsmrTunables};
use simnet::observe::shared;
use simnet::{
    Counter, FileStorage, Gauge, GroupId, HistogramHandle, MemStorage, MultiGroup, NodeId,
    NodeRuntime, Registry, RuntimeConfig, Spans, StableStore, StorageBackend, TcpConfig,
    TcpTransport, WallClock,
};

pub mod config;
pub mod http;
pub use config::ServerConfig;
pub use http::HttpServer;

use consensus::StaticConfig;

/// The actor a replica hosts: every group's reconfigurable node,
/// multiplexed over one runtime — identical to the sharded simulation
/// worlds.
pub type ReplicaActor = MultiGroup<World<KvStore>>;

/// What [`serve`] reports after a clean shutdown.
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// This replica's id.
    pub node: u64,
    /// Groups rebuilt from the storage dir (vs. started fresh).
    pub recovered_groups: usize,
    /// Per-group `(group, anchored epoch)` at shutdown; `None` when the
    /// group never anchored (e.g. a joiner that was never activated).
    pub anchored_epochs: Vec<(u32, Option<u64>)>,
    /// Application operations applied across all groups.
    pub ops_applied: u64,
    /// Messages sent / delivered by the runtime.
    pub net_sent: u64,
    /// Messages delivered to this replica.
    pub net_delivered: u64,
    /// Most keys the stable store held, sampled once per serve-loop
    /// iteration. Log rolls keep it bounded however long the run.
    pub store_keys_max: usize,
}

/// Builds the replica's actor from its (possibly recovered) stable store.
///
/// Per group: a node with persisted state recovers from it
/// ([`RsmrNode::recover`]); otherwise a member of the genesis
/// configuration boots as a genesis replica and anyone else boots
/// *joining* — it waits for an `Activate` naming it a member. Returns the
/// actor and how many groups were recovered.
pub fn build_actor(cfg: &ServerConfig, store: &StableStore) -> (ReplicaActor, usize) {
    let me = NodeId(cfg.node_id);
    let mut tun = RsmrTunables::default();
    tun.paxos.max_batch = cfg.max_batch as usize;
    tun.paxos.max_delay = simnet::SimDuration::from_millis(cfg.max_delay_ms);
    tun.paxos.window = cfg.window as usize;
    let initial: Vec<NodeId> = cfg.initial_members.iter().map(|&n| NodeId(n)).collect();
    let persisted = ReplicaActor::persisted_groups(store);
    let mut actor = ReplicaActor::sealed();
    let mut recovered = 0;
    for g in 0..cfg.groups {
        let gid = GroupId(g);
        let from_disk = persisted.contains(&gid).then(|| {
            let sub = store.subtree(&gid.scope());
            RsmrNode::recover(me, tun.clone(), &sub)
        });
        let node = match from_disk.flatten() {
            Some(node) => {
                recovered += 1;
                node
            }
            None if initial.contains(&me) => {
                RsmrNode::genesis(me, StaticConfig::new(initial.clone()), tun.clone())
            }
            None => RsmrNode::joining(me, tun.clone()),
        };
        actor.insert(gid, World::server(node));
    }
    (actor, recovered)
}

fn io_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Runs one replica until `stop` is set or the configured
/// `run_for_secs` deadline passes, then flushes storage and reports.
///
/// This is the whole server: load the store, rebuild the actor, bind the
/// transport, and pump the runtime. The binary calls it with a
/// never-set stop flag; tests set the flag to orchestrate shutdown.
pub fn serve(cfg: &ServerConfig, stop: &AtomicBool) -> io::Result<ServerSummary> {
    cfg.validate().map_err(io_err)?;
    let me = NodeId(cfg.node_id);
    let listen = cfg.listen_addr().map_err(io_err)?;
    let metrics_listen = cfg.metrics_listen_addr().map_err(io_err)?;
    let peers = cfg.peer_addrs().map_err(io_err)?;
    let registry = Registry::new();

    let mut backend: Box<dyn StorageBackend> = match &cfg.storage_dir {
        Some(dir) => Box::new(FileStorage::open(dir, cfg.fsync)?.with_telemetry(&registry)),
        None => Box::new(MemStorage),
    };
    let store = backend.load()?;
    let (actor, recovered_groups) = build_actor(cfg, &store);

    let mut tcp = TcpConfig::new(me).telemetry(registry.clone());
    if let Some(addr) = listen {
        tcp = tcp.listen(addr);
    }
    for (id, addr) in peers {
        tcp = tcp.peer(NodeId(id), addr);
    }
    for &n in &cfg.corrupt_frames {
        tcp = tcp.corrupt_frame(n);
    }
    let transport = TcpTransport::bind(tcp)?;

    let mut rt = NodeRuntime::new(
        me,
        actor,
        WallClock::new(),
        transport,
        backend,
        store,
        RuntimeConfig { seed: cfg.seed },
    );
    let spans = shared(Spans::new());
    rt.add_observer(spans.clone());

    // Live telemetry: the serve loop refreshes the registry and a
    // pre-rendered status JSON; the HTTP thread only reads snapshots.
    let mut pump = TelemetryPump::new(registry.clone());
    let _http = match metrics_listen {
        Some(addr) => Some(
            HttpServer::bind(addr, registry.clone(), Arc::clone(&pump.status))
                .map_err(|e| io::Error::new(e.kind(), format!("metrics endpoint: {e}")))?,
        ),
        None => None,
    };
    let mut events_file = match &cfg.events_out {
        Some(path) => Some(std::fs::File::create(path)?),
        None => None,
    };

    let started = Instant::now();
    let deadline = cfg
        .run_for_secs
        .map(|s| Instant::now() + Duration::from_secs(s));
    let stats_every =
        (cfg.stats_interval_secs > 0).then(|| Duration::from_secs(cfg.stats_interval_secs));
    let mut next_refresh = Instant::now();
    let mut next_stats = stats_every.map(|d| started + d);
    let mut store_keys_max = rt.store().len();
    while !stop.load(Ordering::SeqCst) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        rt.run_for(Duration::from_millis(50));
        store_keys_max = store_keys_max.max(rt.store().len());
        if Instant::now() >= next_refresh {
            pump.refresh(cfg.node_id, &rt, &spans.borrow());
            next_refresh = Instant::now() + REFRESH_INTERVAL;
        }
        if let (Some(every), Some(at)) = (stats_every, next_stats) {
            if Instant::now() >= at {
                if let Some(f) = &mut events_file {
                    let _ = f.write_all(stats_line(cfg.node_id, started, &rt).as_bytes());
                }
                next_stats = Some(at + every);
            }
        }
    }

    pump.refresh(cfg.node_id, &rt, &spans.borrow());
    let summary = summarize(cfg, recovered_groups, store_keys_max, &rt);
    if let Some(f) = &mut events_file {
        let spans = spans.borrow();
        f.write_all(events_jsonl(&summary, &spans).as_bytes())?;
    }
    rt.shutdown();
    Ok(summary)
}

/// How often the serve loop pushes actor-thread metrics and status into
/// the scrape-side registry. Publishing clones the actor's histogram
/// records, so this trades staleness against copying.
const REFRESH_INTERVAL: Duration = Duration::from_millis(250);

/// Pushes the replica's live state into the registry: the actor thread's
/// [`simnet::Metrics`] batch (so `paxos.*` / `rsmr.*` series appear next
/// to the atomic `storage.*` / `net.*` handles), a per-group
/// `rsmr.epoch` gauge, per-phase reconfiguration-span histograms, and
/// the pre-rendered `/status` JSON.
struct TelemetryPump {
    registry: Registry,
    status: Arc<Mutex<String>>,
    epoch_gauges: HashMap<u32, Gauge>,
    seal_us: HistogramHandle,
    transfer_us: HistogramHandle,
    handoff_us: HistogramHandle,
    transfer_bytes: Counter,
    /// `(epoch, phase)` pairs already recorded — spans fill in phase by
    /// phase, and each phase must count exactly once.
    recorded: BTreeSet<(u64, u8)>,
}

impl TelemetryPump {
    fn new(registry: Registry) -> Self {
        TelemetryPump {
            status: Arc::new(Mutex::new("{}".to_owned())),
            epoch_gauges: HashMap::new(),
            seal_us: registry.histogram("reconfig.seal_latency_us"),
            transfer_us: registry.histogram("reconfig.transfer_time_us"),
            handoff_us: registry.histogram("reconfig.handoff_gap_us"),
            transfer_bytes: registry.counter("reconfig.transfer_bytes"),
            recorded: BTreeSet::new(),
            registry,
        }
    }

    fn refresh(&mut self, node: u64, rt: &NodeRuntime<ReplicaActor>, spans: &Spans) {
        self.registry.publish("actor", rt.metrics().export());
        for b in spans.epoch_breakdowns() {
            let mut phase = |id: u8, value: Option<simnet::SimDuration>, h: &HistogramHandle| {
                if let Some(d) = value {
                    if self.recorded.insert((b.epoch, id)) {
                        h.record(d.as_micros());
                        if id == 1 {
                            self.transfer_bytes.add(b.transfer_bytes);
                        }
                    }
                }
            };
            phase(0, b.seal_latency, &self.seal_us);
            phase(1, b.transfer_time, &self.transfer_us);
            phase(2, b.handoff_gap, &self.handoff_us);
        }

        use std::fmt::Write as _;
        let mut json = String::with_capacity(256);
        let _ = write!(json, "{{\"node\":{node},\"groups\":[");
        let mut first = true;
        for (gid, world) in rt.actor().entries() {
            let Some(n) = world.as_server() else { continue };
            if !std::mem::take(&mut first) {
                json.push(',');
            }
            let anchored = n.anchored_epoch().map(|e| e.0);
            let epoch = |e: Option<u64>| match e {
                Some(e) => e.to_string(),
                None => "null".to_owned(),
            };
            let role = if n.is_active_leader() {
                "leader"
            } else if anchored.is_some() {
                "follower"
            } else {
                "joining"
            };
            let _ = write!(
                json,
                "{{\"group\":{},\"epoch\":{},\"active_epoch\":{},\"role\":\"{role}\",\"members\":[",
                gid.0,
                epoch(anchored),
                epoch(n.active_epoch().map(|e| e.0)),
            );
            if let Some(chain) = n.chain() {
                for (i, m) in chain.latest_config().members().iter().enumerate() {
                    if i > 0 {
                        json.push(',');
                    }
                    let _ = write!(json, "{}", m.0);
                }
            }
            json.push_str("]}");
            if let Some(e) = anchored {
                self.epoch_gauges
                    .entry(gid.0)
                    .or_insert_with(|| {
                        self.registry
                            .gauge(&format!("rsmr.epoch{{group=\"{}\"}}", gid.0))
                    })
                    .set(e);
            }
        }
        json.push_str("]}");
        *self.status.lock().unwrap_or_else(|e| e.into_inner()) = json;
    }
}

/// One periodic `server_stats` JSONL line: liveness counters an operator
/// (or the CI smoke job) can tail without scraping.
fn stats_line(node: u64, started: Instant, rt: &NodeRuntime<ReplicaActor>) -> String {
    let mut ops = 0;
    for (_, world) in rt.actor().entries() {
        if let Some(n) = world.as_server() {
            ops += n.state_machine().ops_applied();
        }
    }
    format!(
        "{{\"event\":\"server_stats\",\"node\":{},\"uptime_ms\":{},\"ops_applied\":{},\"net_sent\":{},\"net_delivered\":{}}}\n",
        node,
        started.elapsed().as_millis(),
        ops,
        rt.metrics().counter("net.sent"),
        rt.metrics().counter("net.delivered"),
    )
}

fn summarize(
    cfg: &ServerConfig,
    recovered_groups: usize,
    store_keys_max: usize,
    rt: &NodeRuntime<ReplicaActor>,
) -> ServerSummary {
    let mut anchored = Vec::new();
    let mut ops = 0;
    for (gid, world) in rt.actor().entries() {
        if let Some(node) = world.as_server() {
            anchored.push((gid.0, node.anchored_epoch().map(|e| e.0)));
            ops += node.state_machine().ops_applied();
        }
    }
    ServerSummary {
        node: cfg.node_id,
        recovered_groups,
        anchored_epochs: anchored,
        ops_applied: ops,
        net_sent: rt.metrics().counter("net.sent"),
        net_delivered: rt.metrics().counter("net.delivered"),
        store_keys_max,
    }
}

/// Renders the shutdown event file: one summary line, one line per
/// observed reconfiguration span, one command-latency line. Values are
/// microseconds; absent phases are `null`.
fn events_jsonl(summary: &ServerSummary, spans: &Spans) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"event\":\"server_summary\",\"node\":{},\"recovered_groups\":{},\"ops_applied\":{},\"net_sent\":{},\"net_delivered\":{},\"store_keys_max\":{}}}",
        summary.node, summary.recovered_groups, summary.ops_applied, summary.net_sent,
        summary.net_delivered, summary.store_keys_max
    );
    let opt = |d: Option<simnet::SimDuration>| match d {
        Some(d) => d.as_micros().to_string(),
        None => "null".to_owned(),
    };
    for b in spans.epoch_breakdowns() {
        let _ = writeln!(
            out,
            "{{\"event\":\"reconfig_span\",\"node\":{},\"epoch\":{},\"seal_latency_us\":{},\"transfer_time_us\":{},\"transfer_bytes\":{},\"handoff_gap_us\":{}}}",
            summary.node,
            b.epoch,
            opt(b.seal_latency),
            opt(b.transfer_time),
            b.transfer_bytes,
            opt(b.handoff_gap)
        );
    }
    let _ = writeln!(
        out,
        "{{\"event\":\"command_latency\",\"node\":{},\"completed\":{},\"mean_us\":{}}}",
        summary.node,
        spans.commands_completed(),
        spans.mean_command_latency_us()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ServerConfig {
        ServerConfig {
            node_id: 0,
            initial_members: vec![0, 1, 2],
            groups: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn genesis_members_and_joiners_assemble_differently() {
        let store = StableStore::new();
        let (actor, recovered) = build_actor(&base_cfg(), &store);
        assert_eq!(recovered, 0);
        let groups: Vec<_> = actor.entries().map(|(g, _)| g).collect();
        assert_eq!(groups, vec![GroupId(0), GroupId(1)]);
        for (_, world) in actor.entries() {
            let node = world.as_server().expect("server world");
            assert_eq!(
                node.anchored_epoch().map(|e| e.0),
                Some(0),
                "genesis anchors epoch 0"
            );
        }
        // A node outside the genesis set starts joining (no chain yet).
        let cfg = ServerConfig {
            node_id: 9,
            ..base_cfg()
        };
        let (actor, _) = build_actor(&cfg, &store);
        for (_, world) in actor.entries() {
            assert!(world.as_server().is_some());
        }
    }

    #[test]
    fn events_jsonl_is_valid_shape() {
        let summary = ServerSummary {
            node: 3,
            recovered_groups: 1,
            anchored_epochs: vec![(0, Some(2))],
            ops_applied: 17,
            net_sent: 5,
            net_delivered: 6,
            store_keys_max: 7,
        };
        let text = events_jsonl(&summary, &Spans::new());
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"server_summary\""));
        assert!(lines[0].contains("\"node\":3"));
        assert!(lines[1].contains("\"command_latency\""));
    }
}
