//! Runs one workload segment: bring a cluster up, drive the fleet through
//! warm-up, measured window and drain, stop everything, check the
//! outputs, and reduce the history to numbers.

use std::io;
use std::time::{Duration, Instant};

use simnet::{Clock, NodeId, SimTime, WallClock};

use crate::check::{check_admin, check_convergence, check_linearizable};
use crate::cluster::{Cluster, ClusterSpec};
use crate::fleet::{first_ack, Fleet, FleetPlan, ReconfigAck};
use crate::scrape::{fetch_metrics, Samples};
use crate::span::Spans;
use crate::spec::{Workload, CLIENT_THREADS, GENESIS, OP_TIMEOUT_US, SWAPPED, WARMUP_SECS};
use crate::stats::WindowStats;

const BRING_UP_ATTEMPTS: usize = 5;
const BRING_UP_TIMEOUT: Duration = Duration::from_secs(10);

/// Spawns a cluster and times it to its first acknowledged operation.
/// A replica that lost its port to another process between probing and
/// binding takes the whole bring-up with it; that is retried with fresh
/// ports.
pub fn bring_up(spec: &ClusterSpec) -> io::Result<(Cluster, f64)> {
    let members: Vec<NodeId> = spec.members.iter().map(|&m| NodeId(m)).collect();
    let mut last_err = None;
    for _ in 0..BRING_UP_ATTEMPTS {
        let cluster = Cluster::spawn(spec)?;
        let acked = first_ack(&cluster.addrs, &members, BRING_UP_TIMEOUT)?;
        let setup_s = cluster.spawned_at.elapsed().as_secs_f64();
        if cluster.early_exit().is_none() && acked {
            return Ok((cluster, setup_s));
        }
        let err = cluster
            .stop()
            .into_iter()
            .find_map(Result::err)
            .unwrap_or_else(|| {
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no operation acknowledged within {BRING_UP_TIMEOUT:?} of spawning"),
                )
            });
        if err.kind() != io::ErrorKind::AddrInUse {
            return Err(err);
        }
        last_err = Some(err);
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// Sleeps until `deadline`, or not at all when it has passed.
fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// User plus system CPU time of this process so far, microseconds.
/// `/proc/self/stat` counts in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 for every architecture it exposes the file on.
pub fn process_cpu_us() -> u64 {
    const TICK_US: u64 = 10_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let field = |i: usize| {
        rest.split(' ')
            .nth(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field(11) + field(12)) * TICK_US
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How one segment is to run.
#[derive(Clone, Copy, Debug)]
pub struct SegmentPlan {
    pub seed: u64,
    /// Measured window, seconds.
    pub window_s: f64,
    /// Replicas serve `/metrics` and the segment scrapes them at the end.
    pub metrics: bool,
    /// Client threads, each hosting one session per group.
    pub threads: u64,
}

impl SegmentPlan {
    /// The fleet every workload runs: [`CLIENT_THREADS`] threads.
    pub fn fleet(seed: u64, window_s: f64, metrics: bool) -> Self {
        SegmentPlan {
            seed,
            window_s,
            metrics,
            threads: CLIENT_THREADS,
        }
    }

    /// Warm-up length: the full [`WARMUP_SECS`] for windows of 10 s and
    /// more, a fifth of the window below that (smoke runs).
    pub fn warmup_s(&self) -> f64 {
        WARMUP_SECS.min(self.window_s / 5.0)
    }

    /// When the admin reconfigures, seconds after the window opens: every
    /// 2 s from 1 s in, leaving the last 4 s undisturbed so the final
    /// configuration settles inside the window. Windows shorter than 9 s
    /// (the traced run, smoke runs) shrink the period to keep three swaps.
    pub fn reconfig_offsets_s(&self) -> Vec<f64> {
        let period = 2.0f64.min(self.window_s / 4.5);
        let mut at = period / 2.0;
        let mut out = Vec::new();
        while at <= self.window_s - 2.0 * period + 1e-9 {
            out.push(at);
            at += period;
        }
        out
    }
}

/// What a segment measured. Times are microseconds on the fleet clock.
pub struct SegmentResult {
    pub window: WindowStats,
    /// Operations acknowledged from the fleet's start to its stop: the
    /// base of every per-operation figure taken from cumulative counters.
    pub ops_completed: u64,
    pub w0_us: u64,
    pub w1_us: u64,
    /// Process CPU spent between the window's edges.
    pub cpu_us: u64,
    /// `VmHWM` after the drain, before the history is checked.
    pub rss_peak_mb: f64,
    pub reconfigs: Vec<ReconfigAck>,
    /// How far the slowest member of the final configuration was behind
    /// when the replicas stopped; `None` when the check itself failed.
    pub member_lag_ops: Option<u64>,
    pub keys_checked: usize,
    /// Cluster-wide sums of the replicas' `/metrics`, when scraped.
    pub scraped: Option<Samples>,
    /// Everything the correctness check objected to; empty = correct.
    pub problems: Vec<String>,
}

impl SegmentResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn throughput_ops_s(&self) -> f64 {
        self.window.throughput_ops_s(self.w0_us, self.w1_us)
    }
}

/// Drives `w` on `cluster` (already serving, brought up from `spec`) and
/// tears the cluster down.
pub fn run_segment(
    w: &Workload,
    plan: SegmentPlan,
    spec: &ClusterSpec,
    cluster: Cluster,
    spans: &mut Spans,
) -> io::Result<SegmentResult> {
    let clock = WallClock::new();
    let (sim_now, inst_now) = (clock.now(), Instant::now());
    let at = |offset_s: f64| SimTime::from_micros(sim_now.as_micros() + (offset_s * 1e6) as u64);
    let instant_of =
        |t: SimTime| inst_now + Duration::from_micros(t.as_micros() - sim_now.as_micros());

    let warmup_s = plan.warmup_s();
    let (w0, w1) = (at(warmup_s), at(warmup_s + plan.window_s));
    let reconfigs: Vec<(SimTime, Vec<NodeId>)> = if w.reconfig {
        plan.reconfig_offsets_s()
            .iter()
            .enumerate()
            .map(|(i, off)| {
                let target = if i % 2 == 0 { SWAPPED } else { GENESIS };
                (
                    at(warmup_s + off),
                    target.iter().map(|&m| NodeId(m)).collect(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let steps = reconfigs.len();
    let final_members = if steps % 2 == 1 {
        SWAPPED.to_vec()
    } else {
        spec.members.clone()
    };
    let fleet_plan = FleetPlan {
        servers: cluster.addrs.clone(),
        members: spec.members.iter().map(|&m| NodeId(m)).collect(),
        groups: spec.groups,
        threads: plan.threads,
        read_ratio: w.read_ratio,
        value_size: w.value_size,
        seed: plan.seed,
        open_loop_rate: w.open_loop_rate,
        clock,
        w1,
        drain_until: at(warmup_s + plan.window_s + OP_TIMEOUT_US as f64 / 1e6),
        reconfigs,
    };

    let fleet = Fleet::start(&fleet_plan)?;
    spans.scope("warm-up", |_| {
        sleep_until(instant_of(w0));
        ((), 0)
    });
    let cpu_us = spans.scope("window", |_| {
        let cpu0 = process_cpu_us();
        sleep_until(instant_of(w1));
        (process_cpu_us() - cpu0, 0)
    });
    let result = spans.scope("drain", |_| (fleet.join(), 0))?;
    let rss_peak_mb = rss_peak_mb();

    let mut problems = Vec::new();
    if let Some(node) = cluster.early_exit() {
        problems.push(format!("replica {node} stopped serving during the run"));
    }
    // Followers apply what the leaders already acknowledged, and the
    // replicas' telemetry pump (250 ms) publishes its last batch.
    std::thread::sleep(Duration::from_millis(400));
    let scraped = if plan.metrics {
        Some(spans.scope("scrape", |_| {
            let mut sum = Samples::default();
            for &port in &cluster.metrics_ports {
                match fetch_metrics(port) {
                    Ok(body) => sum.merge(&Samples::parse(&body)),
                    Err(e) => problems.push(format!("scraping port {port}: {e}")),
                }
            }
            (sum, cluster.metrics_ports.len() as u64)
        }))
    } else {
        None
    };
    let summaries = cluster.stop();

    let times = result.session_times(&fleet_plan);
    let window = WindowStats::compute(&times, w0.as_micros(), w1.as_micros(), OP_TIMEOUT_US);
    let ops_completed = times.iter().map(|s| s.completed.len() as u64).sum();
    drop(times);

    let (keys_checked, member_lag_ops) = spans.scope("check", |_| {
        if !result.admin_done {
            problems.push("the admin did not finish its script".into());
        }
        if let Err(e) = check_admin(&result.reconfigs, spec.groups, steps) {
            problems.push(e);
        }
        let mut applied = Vec::new();
        for (node, summary) in summaries.into_iter().enumerate() {
            match summary {
                Ok(s) => applied.push((node as u64, s.ops_applied)),
                Err(e) => problems.push(format!("replica {node} failed: {e}")),
            }
        }
        let lag = match check_convergence(&applied, &final_members) {
            Ok(lag) => Some(lag),
            Err(e) => {
                problems.push(e);
                None
            }
        };
        let keys = match check_linearizable(result.sessions, plan.seed) {
            Ok(keys) => keys,
            Err(e) => {
                problems.push(e);
                0
            }
        };
        ((keys, lag), keys as u64)
    });

    Ok(SegmentResult {
        window,
        ops_completed,
        w0_us: w0.as_micros(),
        w1_us: w1.as_micros(),
        cpu_us,
        rss_peak_mb,
        reconfigs: result.reconfigs,
        member_lag_ops,
        keys_checked,
        scraped,
        problems,
    })
}
