//! # loadgen — closed-loop kv clients for the real-transport backend
//!
//! Drives a fleet of the *same* [`rsmr_core::RsmrClient`] actors the
//! simulator uses — wrapped in [`simnet::NodeRuntime`] over TCP — against
//! a cluster of `rsmr-server` replicas, and reports wall-clock
//! throughput, a latency histogram, live-reconfiguration latency and the
//! client-observed handoff gap.
//!
//! Each client thread hosts one [`simnet::MultiGroup`] with a single
//! closed-loop client bound to the group its key range hashes to (the
//! same per-shard routing as the E11 simulation). All threads share one
//! [`simnet::WallClock`] origin, so invocation/response timestamps are
//! comparable across clients — which is what makes the merged completion
//! timeline (and the gap measurement) meaningful.
//!
//! The `loadgen` binary wraps [`run_fleet`]; the `e12_tcp` binary
//! orchestrates the full E12 experiment (spawn servers, drive load
//! through a reconfiguration, emit the JSONL artifact).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kvstore::{KeyDist, KvStore, WorkloadGen};
use rsmr_core::harness::World;
use rsmr_core::{AdminActor, OpenLoopClient, RsmrClient};
use simnet::{
    GroupId, LogHistogram, MemStorage, MultiGroup, NodeId, NodeRuntime, RuntimeConfig, SimTime,
    StableStore, TcpConfig, TcpTransport, WallClock,
};

/// Node id of the fleet's admin actor (mirrors the simulation harness).
pub const ADMIN: NodeId = NodeId(99);
/// First client node id; client `i` is `CLIENT_BASE + i`.
pub const CLIENT_BASE: u64 = 100;

/// One reconfiguration step the fleet drives while load is running.
#[derive(Clone, Debug)]
pub struct ReconfigStep {
    /// Issue the `Reconfigure` this long after the fleet starts.
    pub after: Duration,
    /// Target member ids of the successor configuration.
    pub target: Vec<u64>,
}

/// Everything a fleet run needs to know.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Every server as `(node id, "host:port")`.
    pub servers: Vec<(u64, String)>,
    /// Member ids of the configuration clients contact first.
    pub initial_members: Vec<u64>,
    /// Replication groups on the cluster; every client thread hosts one
    /// closed-loop session per group.
    pub groups: u32,
    /// Number of closed-loop client threads.
    pub clients: u64,
    /// First client node id; client `i` is `client_base + i`. Reruns
    /// against a live cluster must pick fresh ids — servers deduplicate
    /// per-client sequence numbers, so a reused id starting over at seq 0
    /// looks like stale retransmissions.
    pub client_base: u64,
    /// Per-client operation cap (`None` = run until the deadline).
    pub ops_per_client: Option<u64>,
    /// Fraction of reads in the workload.
    pub read_ratio: f64,
    /// Value size for writes, bytes.
    pub value_size: usize,
    /// Keyspace size (hash-partitioned over the groups).
    pub keyspace: usize,
    /// Workload seed.
    pub seed: u64,
    /// Open-loop mode: each session *intends* to issue this many
    /// operations per second, queueing overflow arrivals locally and
    /// measuring latency from the intended send time (coordinated-
    /// omission-safe — server stalls surface in the tail instead of
    /// silently thinning the arrival stream). `None` = closed loop.
    pub open_loop_rate: Option<f64>,
    /// Wall-clock run duration.
    pub run_for: Duration,
    /// Completions earlier than this offset are excluded from throughput
    /// and gap statistics (connection establishment, leader warm-up).
    pub warmup: Duration,
    /// Reconfigurations to drive (every group, same schedule).
    pub reconfigs: Vec<ReconfigStep>,
    /// Print a live progress line (completions, instantaneous rate) to
    /// stderr this often during the run; `None` = silent.
    pub stats_interval: Option<Duration>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            servers: Vec::new(),
            initial_members: Vec::new(),
            groups: 1,
            clients: 8,
            client_base: CLIENT_BASE,
            ops_per_client: None,
            read_ratio: 0.5,
            value_size: 64,
            keyspace: 4096,
            seed: 0,
            open_loop_rate: None,
            run_for: Duration::from_secs(10),
            warmup: Duration::from_secs(1),
            reconfigs: Vec::new(),
            stats_interval: None,
        }
    }
}

/// Latency percentiles over the measured window, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Arithmetic mean.
    pub mean: u64,
    /// Worst observed.
    pub max: u64,
}

/// One observed reconfiguration, client-side.
#[derive(Clone, Debug)]
pub struct ReconfigResult {
    /// The group that reconfigured.
    pub group: u32,
    /// `Reconfigure` sent, microseconds since fleet start.
    pub started_us: u64,
    /// Acknowledged by the new configuration's leader.
    pub finished_us: u64,
    /// The successor epoch that acknowledged.
    pub epoch: u64,
}

/// What a fleet run reports.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Operations completed inside the measured window.
    pub completed: u64,
    /// Operations completed over the whole run (including warmup).
    pub completed_total: u64,
    /// Measured window length, seconds.
    pub window_secs: f64,
    /// Sustained throughput over the measured window.
    pub ops_per_sec: f64,
    /// Latency summary over the measured window.
    pub latency: LatencySummary,
    /// Longest gap between consecutive completions (any client) inside
    /// the measured window — the client-observed handoff gap when a
    /// reconfiguration ran.
    pub max_gap_us: u64,
    /// Where that gap started, microseconds since fleet start.
    pub max_gap_at_us: u64,
    /// Admin-observed reconfigurations.
    pub reconfigs: Vec<ReconfigResult>,
    /// Completions per client thread.
    pub per_client_completed: Vec<u64>,
}

impl FleetReport {
    /// Renders the report as JSONL: one `loadgen_summary` line, one
    /// `reconfig` line per admin-observed step.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"event\":\"loadgen_summary\",\"completed\":{},\"completed_total\":{},\"window_secs\":{:.3},\"ops_per_sec\":{:.1},\"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"max\":{}}},\"max_gap_us\":{},\"max_gap_at_us\":{}}}",
            self.completed,
            self.completed_total,
            self.window_secs,
            self.ops_per_sec,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.mean,
            self.latency.max,
            self.max_gap_us,
            self.max_gap_at_us
        );
        for r in &self.reconfigs {
            let _ = writeln!(
                out,
                "{{\"event\":\"reconfig\",\"group\":{},\"started_us\":{},\"finished_us\":{},\"latency_us\":{},\"epoch\":{}}}",
                r.group,
                r.started_us,
                r.finished_us,
                r.finished_us.saturating_sub(r.started_us),
                r.epoch
            );
        }
        out
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{addr}: no usable address"),
        )
    })
}

fn tcp_config(me: NodeId, servers: &[(u64, String)]) -> io::Result<TcpConfig> {
    let mut cfg = TcpConfig::new(me);
    for (id, addr) in servers {
        cfg = cfg.peer(NodeId(*id), resolve(addr)?);
    }
    Ok(cfg)
}

/// The per-thread world: one closed-loop client *per group*, multiplexed
/// on one node id / one transport. Sessions are keyed by `(node, group)`
/// server-side, so each group's client is an independent session — a
/// thread carries `groups` concurrent operations, which is what makes a
/// small fleet saturate the cluster without a thread per session.
type ClientActor = MultiGroup<World<KvStore>>;

fn client_actor(cfg: &LoadgenConfig, i: u64) -> ClientActor {
    let members: Vec<NodeId> = cfg.initial_members.iter().map(|&n| NodeId(n)).collect();
    let mut mg = MultiGroup::sealed();
    for group in 0..cfg.groups {
        let gen = WorkloadGen::new(
            cfg.seed ^ (0x10AD_6E00 + i * 64 + group as u64),
            KeyDist::Uniform(cfg.keyspace),
            cfg.read_ratio,
            cfg.value_size,
        )
        .for_shard(group, cfg.groups)
        .into_fn();
        let world = match cfg.open_loop_rate {
            Some(rate) => {
                let interval = simnet::SimDuration::from_micros((1e6 / rate.max(1e-3)) as u64);
                World::paced(
                    OpenLoopClient::new(members.clone(), gen, interval, cfg.ops_per_client)
                        .with_history(),
                )
            }
            None => World::client(
                RsmrClient::new(members.clone(), gen, cfg.ops_per_client).with_history(),
            ),
        };
        mg.insert(GroupId(group), world);
    }
    mg
}

fn admin_actor(cfg: &LoadgenConfig) -> ClientActor {
    let members: Vec<NodeId> = cfg.initial_members.iter().map(|&n| NodeId(n)).collect();
    let mut mg = MultiGroup::sealed();
    for g in 0..cfg.groups {
        let script: Vec<(SimTime, Vec<NodeId>)> = cfg
            .reconfigs
            .iter()
            .map(|r| {
                let at = SimTime::from_micros(r.after.as_micros() as u64);
                (at, r.target.iter().map(|&n| NodeId(n)).collect())
            })
            .collect();
        mg.insert(
            GroupId(g),
            World::admin(AdminActor::new(members.clone(), script)),
        );
    }
    mg
}

fn runtime(
    node: NodeId,
    actor: ClientActor,
    clock: WallClock,
    servers: &[(u64, String)],
    seed: u64,
) -> io::Result<NodeRuntime<ClientActor>> {
    let transport = TcpTransport::bind(tcp_config(node, servers)?)?;
    Ok(NodeRuntime::new(
        node,
        actor,
        clock,
        transport,
        MemStorage,
        StableStore::new(),
        RuntimeConfig {
            seed: seed ^ node.0,
        },
    ))
}

/// Runs the whole fleet to completion and aggregates the report.
///
/// Spawns one thread per client (node ids [`CLIENT_BASE`]`..`) plus an
/// admin thread ([`ADMIN`]) when reconfigurations are scheduled; all
/// share one wall-clock origin. Returns after every thread has shut
/// down cleanly.
pub fn run_fleet(cfg: &LoadgenConfig) -> io::Result<FleetReport> {
    if cfg.servers.is_empty() || cfg.initial_members.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one server and one initial member",
        ));
    }
    let clock = WallClock::new();
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + cfg.run_for;
    // One progress cell per client thread; the reporter sums them. Each
    // thread owns its cell, so relaxed stores are race-free per cell.
    let progress: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.clients).map(|_| AtomicU64::new(0)).collect());

    let mut handles = Vec::new();
    for i in 0..cfg.clients {
        let node = NodeId(cfg.client_base + i);
        let cfg = cfg.clone();
        let stop = stop.clone();
        let progress = Arc::clone(&progress);
        handles.push(thread::spawn(move || -> io::Result<Vec<(u64, u64)>> {
            // The actor holds non-Send closures, so it is built on this
            // thread rather than moved in.
            let actor = client_actor(&cfg, i);
            let limit = cfg.ops_per_client;
            let mut rt = runtime(node, actor, clock, &cfg.servers, cfg.seed)?;
            rt.start();
            while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                let done = if let Some(limit) = limit {
                    rt.run_until(
                        |a| a.entries().all(|(_, w)| w.completed() >= limit),
                        Duration::from_millis(50),
                    )
                } else {
                    rt.run_for(Duration::from_millis(50));
                    false
                };
                progress[i as usize].store(
                    rt.actor().entries().map(|(_, w)| w.completed()).sum(),
                    Ordering::Relaxed,
                );
                if done {
                    break;
                }
            }
            let actor = rt.shutdown();
            let mut times = Vec::new();
            for (_, world) in actor.entries() {
                let history = world
                    .as_client()
                    .map(|c| c.history())
                    .or_else(|| world.as_paced().map(|c| c.history()));
                if let Some(history) = history {
                    times.extend(history.iter().map(|&(_, _, _, invoked, responded)| {
                        (invoked.as_micros(), responded.as_micros())
                    }));
                }
            }
            Ok(times)
        }));
    }

    let admin_handle = (!cfg.reconfigs.is_empty()).then(|| {
        let cfg = cfg.clone();
        let stop = stop.clone();
        thread::spawn(move || -> io::Result<Vec<ReconfigResult>> {
            let actor = admin_actor(&cfg);
            let mut rt = runtime(ADMIN, actor, clock, &cfg.servers, cfg.seed)?;
            rt.start();
            while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                let done = rt.run_until(
                    |a| {
                        a.entries()
                            .all(|(_, w)| w.as_admin().map(|ad| ad.is_done()).unwrap_or(true))
                    },
                    Duration::from_millis(50),
                );
                if done {
                    break;
                }
            }
            let actor = rt.shutdown();
            let mut results = Vec::new();
            for (g, world) in actor.entries() {
                if let Some(admin) = world.as_admin() {
                    for &(started, finished, epoch) in admin.results() {
                        results.push(ReconfigResult {
                            group: g.0,
                            started_us: started.as_micros(),
                            finished_us: finished.as_micros(),
                            epoch: epoch.0,
                        });
                    }
                }
            }
            Ok(results)
        })
    });

    // Live progress readout: total completions and the instantaneous
    // rate since the previous line, printed to stderr so the JSONL
    // report stays clean.
    let reporter = cfg.stats_interval.map(|every| {
        let stop = stop.clone();
        let progress = Arc::clone(&progress);
        let started = Instant::now();
        thread::spawn(move || {
            let mut last = 0u64;
            let mut last_at = started;
            while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                thread::sleep(every.min(Duration::from_millis(200)));
                if Instant::now() < last_at + every {
                    continue;
                }
                let total: u64 = progress.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let now = Instant::now();
                let rate = (total - last) as f64 / now.duration_since(last_at).as_secs_f64();
                eprintln!(
                    "loadgen: t={:.0}s completed={total} rate={rate:.0} ops/s",
                    now.duration_since(started).as_secs_f64()
                );
                (last, last_at) = (total, now);
            }
        })
    });

    let mut per_client = Vec::new();
    let mut all_times: Vec<(u64, u64)> = Vec::new();
    let mut first_err = None;
    for h in handles {
        match h.join().expect("client thread panicked") {
            Ok(times) => {
                per_client.push(times.len() as u64);
                all_times.extend(times);
            }
            Err(e) => {
                per_client.push(0);
                first_err.get_or_insert(e);
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = reporter {
        let _ = h.join();
    }
    let reconfigs = match admin_handle {
        Some(h) => h.join().expect("admin thread panicked")?,
        None => Vec::new(),
    };
    if let Some(e) = first_err {
        return Err(e);
    }

    Ok(aggregate(cfg, all_times, per_client, reconfigs))
}

fn aggregate(
    cfg: &LoadgenConfig,
    mut all_times: Vec<(u64, u64)>,
    per_client_completed: Vec<u64>,
    mut reconfigs: Vec<ReconfigResult>,
) -> FleetReport {
    reconfigs.sort_by_key(|r| (r.group, r.started_us));
    let completed_total = all_times.len() as u64;
    // Sort by response time: the merged completion timeline.
    all_times.sort_by_key(|&(_, responded)| responded);
    let warmup_us = cfg.warmup.as_micros() as u64;
    let window: Vec<(u64, u64)> = all_times
        .iter()
        .copied()
        .filter(|&(_, responded)| responded >= warmup_us)
        .collect();
    let window_end = window.last().map(|&(_, r)| r).unwrap_or(warmup_us);
    let window_secs = (window_end.saturating_sub(warmup_us)) as f64 / 1e6;

    // The same mergeable log-scale histogram the servers export
    // (`simnet::LogHistogram`), replacing the old sort-the-raw-Vec
    // percentile pass: constant memory however long the run, and its
    // quantile() uses the identical rank convention the sort used.
    let mut latencies = LogHistogram::new();
    for &(invoked, responded) in &window {
        latencies.record(responded.saturating_sub(invoked));
    }
    let latency = LatencySummary {
        p50: latencies.quantile(0.50),
        p95: latencies.quantile(0.95),
        p99: latencies.quantile(0.99),
        mean: if latencies.is_empty() {
            0
        } else {
            latencies.sum() / latencies.count()
        },
        max: latencies.max().unwrap_or(0),
    };

    let (mut max_gap_us, mut max_gap_at_us) = (0, 0);
    for pair in window.windows(2) {
        let gap = pair[1].1 - pair[0].1;
        if gap > max_gap_us {
            max_gap_us = gap;
            max_gap_at_us = pair[0].1;
        }
    }

    FleetReport {
        completed: window.len() as u64,
        completed_total,
        window_secs,
        ops_per_sec: if window_secs > 0.0 {
            window.len() as f64 / window_secs
        } else {
            0.0
        },
        latency,
        max_gap_us,
        max_gap_at_us,
        reconfigs,
        per_client_completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        pairs.to_vec()
    }

    #[test]
    fn aggregate_computes_throughput_latency_and_gap() {
        let cfg = LoadgenConfig {
            warmup: Duration::from_micros(100),
            ..LoadgenConfig::default()
        };
        // Four completions after warmup, 1s window, one 700ms gap.
        let report = aggregate(
            &cfg,
            times(&[
                (0, 50),          // warmup, excluded
                (100, 200),       // 100us latency
                (150, 300),       // 150us
                (200, 1_000_100), // the gap: 300 -> 1_000_100
                (999_000, 1_000_200),
            ]),
            vec![5],
            Vec::new(),
        );
        assert_eq!(report.completed, 4);
        assert_eq!(report.completed_total, 5);
        assert_eq!(report.max_gap_us, 1_000_100 - 300);
        assert_eq!(report.max_gap_at_us, 300);
        // Latencies sorted: [100, 150, 1200, 999900]; p50 rounds to idx 2.
        assert_eq!(report.latency.p50, 1_200);
        assert!(report.ops_per_sec > 3.9 && report.ops_per_sec < 4.1);
    }

    #[test]
    fn histogram_percentiles_match_an_exact_sort_at_small_n() {
        // The LogHistogram path must agree with the old sort-the-Vec
        // percentiles on a small sample whose ranks land on exact
        // values (min, max, width-1 buckets, bucket boundaries).
        let cfg = LoadgenConfig {
            warmup: Duration::ZERO,
            ..LoadgenConfig::default()
        };
        let samples: [u64; 5] = [40, 100, 128, 255, 1 << 20];
        let pairs: Vec<(u64, u64)> = samples.iter().map(|&l| (1, 1 + l)).collect();
        let mut sorted = samples;
        sorted.sort_unstable();
        let exact = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        let report = aggregate(&cfg, pairs, vec![5], Vec::new());
        assert_eq!(report.latency.p50, exact(0.50));
        assert_eq!(report.latency.p95, exact(0.95));
        assert_eq!(report.latency.p99, exact(0.99));
        assert_eq!(report.latency.max, 1 << 20);
        assert_eq!(report.latency.mean, samples.iter().sum::<u64>() / 5);
    }

    #[test]
    fn report_jsonl_has_summary_and_reconfig_lines() {
        let report = FleetReport {
            completed: 10,
            reconfigs: vec![ReconfigResult {
                group: 0,
                started_us: 100,
                finished_us: 400,
                epoch: 1,
            }],
            ..FleetReport::default()
        };
        let text = report.to_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"loadgen_summary\""));
        assert!(lines[1].contains("\"latency_us\":300"));
    }

    #[test]
    fn open_loop_rate_builds_paced_sessions() {
        let cfg = LoadgenConfig {
            servers: vec![(0, "127.0.0.1:1".into())],
            initial_members: vec![0, 1, 2],
            groups: 2,
            open_loop_rate: Some(500.0),
            ..LoadgenConfig::default()
        };
        let actor = client_actor(&cfg, 0);
        assert!(actor.entries().all(|(_, w)| w.as_paced().is_some()));
        assert!(actor.entries().all(|(_, w)| w.as_client().is_none()));
    }

    #[test]
    fn client_actors_host_one_session_per_group() {
        let cfg = LoadgenConfig {
            servers: vec![(0, "127.0.0.1:1".into())],
            initial_members: vec![0, 1, 2],
            groups: 4,
            ..LoadgenConfig::default()
        };
        for i in 0..3 {
            let actor = client_actor(&cfg, i);
            let groups: Vec<GroupId> = actor.entries().map(|(g, _)| g).collect();
            assert_eq!(groups, (0..4).map(GroupId).collect::<Vec<_>>());
            assert!(actor.entries().all(|(_, w)| w.as_client().is_some()));
        }
    }
}
