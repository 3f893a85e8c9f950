//! The two ways one workload is run: untraced for the end-to-end metrics,
//! traced for the per-layer ones. End-to-end numbers are only ever taken
//! from the untraced run.

use std::collections::BTreeMap;
use std::io;

use crate::cluster::{Cluster, ClusterSpec};
use crate::probes::{self, Budget};
use crate::scrape::Samples;
use crate::span::Spans;
use crate::spec::{self, Workload, PER_LAYER, SETUP_REPEATS};
use crate::stats::{handoff_gaps, mean, median_f64, percentile};
use crate::workload::{bring_up, run_segment, SegmentPlan, SegmentResult};

/// What one invocation reports: the driver's result line, unrendered.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the tables in `spec`.
    pub metrics: Vec<(&'static str, f64)>,
    /// What the correctness check objected to, for the human reader.
    pub problems: Vec<String>,
    /// Sample count behind the latency figures.
    pub samples: u64,
    /// Keys whose history the linearizability check covered.
    pub keys_checked: usize,
}

impl Outcome {
    fn of(segment: &SegmentResult) -> Outcome {
        Outcome {
            correct: segment.correct(),
            attempted: segment.window.attempted.max(1),
            // A run that fails its correctness check vouches for nothing.
            failed: if segment.correct() {
                segment.window.failed
            } else {
                segment.window.attempted.max(1)
            },
            metrics: Vec::new(),
            problems: segment.problems.clone(),
            samples: segment.window.latencies_us.len() as u64,
            keys_checked: segment.keys_checked,
        }
    }
}

/// The untraced run: [`SETUP_REPEATS`] bring-ups (the last one serves the
/// workload), warm-up, the measured window, drain and check.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> io::Result<Outcome> {
    let spec = ClusterSpec::of(w, seed, false);
    let mut setups = Vec::new();
    let mut serving: Option<Cluster> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = serving.take() {
            previous.stop();
        }
        let (cluster, setup_s) = spans.try_scope("spawn", |_| bring_up(&spec).map(|up| (up, 1)))?;
        setups.push(setup_s);
        serving = Some(cluster);
    }
    let cluster = serving.expect("SETUP_REPEATS is at least 1");
    let segment = run_segment(
        w,
        SegmentPlan::fleet(seed, seconds, false),
        &spec,
        cluster,
        spans,
    )?;

    let lat = &segment.window.latencies_us;
    let acked = segment.window.acked_in_window.max(1) as f64;
    let mut out = Outcome::of(&segment);
    out.metrics = vec![
        ("setup_s", median_f64(&setups)),
        ("throughput_ops_s", segment.throughput_ops_s()),
        ("latency_p50_us", percentile(lat, 0.50) as f64),
        ("latency_mean_us", segment.window.mean_latency_us()),
        ("cpu_us_per_op", segment.cpu_us as f64 / acked),
        ("rss_peak_mb", segment.rss_peak_mb),
    ];
    Ok(out)
}

/// The figures a traced segment yields about the servers, per
/// acknowledged operation where the counter is cumulative.
fn server_metrics(segment: &SegmentResult, scraped: &Samples) -> Vec<(&'static str, f64)> {
    let per_op = |v: f64| v / segment.ops_completed.max(1) as f64;
    vec![
        (
            "server.commit_slot_us_mean",
            scraped.hist_mean("paxos_commit_slot_us"),
        ),
        ("server.net_msgs_per_op", per_op(scraped.get("net_sent"))),
        ("server.net_bytes_per_op", per_op(scraped.get("net_bytes"))),
        (
            "server.storage_flushes_per_op",
            per_op(scraped.get("rt_storage_flushes")),
        ),
        (
            "server.fsync_us_mean",
            scraped.hist_mean("storage_fsync_us"),
        ),
        (
            "server.wal_bytes_per_op",
            per_op(scraped.get("storage_wal_append_bytes_sum")),
        ),
        (
            "server.compaction_ms_total",
            scraped.get("storage_compaction_us_sum") / 1e3,
        ),
        (
            "server.coalesced_write_bytes_mean",
            scraped.hist_mean("net_coalesced_write_bytes"),
        ),
        (
            "server.leader_elections",
            scraped.get("rsmr_leader_elections"),
        ),
        (
            "server.member_lag_ops",
            segment.member_lag_ops.map_or(f64::NAN, |l| l as f64),
        ),
    ]
}

fn loadgen_metrics(w: &Workload, segment: &SegmentResult) -> Vec<(&'static str, f64)> {
    let lat = &segment.window.latencies_us;
    let window_s = (segment.w1_us - segment.w0_us) as f64 / 1e6;
    // How late the open-loop generator ran: operations it got to send in
    // the window over the operations the schedule called for.
    let offered = w.open_loop_rate.map_or(1.0, |rate| {
        let sessions = (spec::CLIENT_THREADS * u64::from(spec::GROUPS)) as f64;
        segment.window.attempted as f64 / (rate * sessions * window_s)
    });
    vec![
        ("loadgen.latency_mean_us", mean(lat)),
        ("loadgen.latency_p95_us", percentile(lat, 0.95) as f64),
        ("loadgen.latency_p99_us", percentile(lat, 0.99) as f64),
        (
            "loadgen.latency_max_ms",
            lat.last().copied().unwrap_or(0) as f64 / 1e3,
        ),
        (
            "loadgen.max_gap_ms",
            segment.window.max_gap_us(segment.w0_us, segment.w1_us) as f64 / 1e3,
        ),
        ("loadgen.offered_ratio", offered),
        ("loadgen.samples", lat.len() as f64),
        (
            "loadgen.traced_throughput_ops_s",
            segment.throughput_ops_s(),
        ),
    ]
}

/// Client-side and scraped figures of the reconfigurations a traced
/// `reconfig_swap` segment drove.
fn reconfig_metrics(segment: &SegmentResult, scraped: &Samples) -> Vec<(&'static str, f64)> {
    let mut acks: Vec<u64> = segment
        .reconfigs
        .iter()
        .map(|r| r.acked_us - r.sent_us)
        .collect();
    acks.sort_unstable();
    let spans: Vec<(u64, u64)> = segment
        .reconfigs
        .iter()
        .map(|r| (r.sent_us, r.acked_us))
        .collect();
    let mut gaps = handoff_gaps(&segment.window.completions_us, &spans, segment.w1_us);
    gaps.sort_unstable();
    let ms = |us: u64| us as f64 / 1e3;
    vec![
        ("core.reconfig_ack_p50_ms", ms(percentile(&acks, 0.5))),
        (
            "core.reconfig_ack_max_ms",
            ms(acks.last().copied().unwrap_or(0)),
        ),
        ("core.handoff_gap_p50_ms", ms(percentile(&gaps, 0.5))),
        (
            "core.handoff_gap_max_ms",
            ms(gaps.last().copied().unwrap_or(0)),
        ),
        (
            "core.seal_latency_mean_us",
            scraped.hist_mean("reconfig_seal_latency_us"),
        ),
        (
            "core.transfer_time_mean_us",
            scraped.hist_mean("reconfig_transfer_time_us"),
        ),
        (
            "core.transfer_bytes_per_reconfig",
            scraped.get("rsmr_transfer_bytes") / segment.reconfigs.len().max(1) as f64,
        ),
    ]
}

fn traced_segment(
    w: &Workload,
    seed: u64,
    window_s: f64,
    metrics: bool,
    spans: &mut Spans,
) -> io::Result<SegmentResult> {
    let name = if metrics { "traced" } else { "untraced" };
    spans.try_scope(&format!("{name}:{}", w.name), |spans| {
        let spec = ClusterSpec::of(w, seed, metrics);
        let (cluster, _) = spans.try_scope("spawn", |_| bring_up(&spec).map(|up| (up, 1)))?;
        let plan = SegmentPlan::fleet(seed, window_s, metrics);
        let segment = run_segment(w, plan, &spec, cluster, spans)?;
        let ops = segment.ops_completed;
        Ok((segment, ops))
    })
}

/// The traced run: the workload with `/metrics` on for a quarter of
/// `seconds`, the same again untraced (the pair gives the tracing
/// overhead), a 0.3 `reconfig_swap` segment when the workload is not that
/// itself, then the layer probes and the single-session budget line.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> io::Result<Outcome> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    let traced = traced_segment(w, seed, 0.25 * seconds, true, spans)?;
    let scraped = traced.scraped.clone().unwrap_or_default();
    values.extend(server_metrics(&traced, &scraped));
    values.extend(loadgen_metrics(w, &traced));
    let mut out = Outcome::of(&traced);

    let untraced = traced_segment(w, seed, 0.25 * seconds, false, spans)?;
    values.insert(
        "trace.overhead_ratio",
        traced.throughput_ops_s() / untraced.throughput_ops_s(),
    );
    out.problems.extend(untraced.problems.iter().cloned());

    if w.reconfig {
        values.extend(reconfig_metrics(&traced, &scraped));
    } else {
        let swap = spec::workload("reconfig_swap").expect("reconfig_swap is a workload");
        let segment = traced_segment(swap, seed, 0.3 * seconds, true, spans)?;
        let scraped = segment.scraped.clone().unwrap_or_default();
        values.extend(reconfig_metrics(&segment, &scraped));
        out.problems.extend(segment.problems.iter().cloned());
    }

    let budget = Budget {
        scale: (seconds / 15.0).clamp(0.02, 2.0),
        seed,
    };
    spans.try_scope("probes", |spans| -> io::Result<((), u64)> {
        values.extend(probes::wire(spans, budget));
        values.extend(probes::framing(spans, budget));
        values.extend(probes::transport(spans, budget)?);
        values.extend(probes::storage(spans, budget)?);
        values.extend(probes::runtime(spans, budget)?);
        values.extend(probes::consensus(spans, budget));
        values.extend(probes::core(spans, budget));
        values.extend(probes::kvstore(spans, budget));
        Ok(((), 8))
    })?;

    // One operation of one session, with nothing queued, accounted for
    // from the layers below it: two round trips (client to leader, leader
    // to a follower) plus the processor time of the commit, of encoding
    // and decoding the four messages on that path, and of the apply.
    let v = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    let budget_sum_us = 2.0 * v("transport.tcp_rtt_p50_us")
        + (v("consensus.commit_ns_per_op")
            + 4.0 * (v("wire.encode_ns_64b") + v("wire.decode_ns_64b"))
            + v("kvstore.apply_put_ns_64b"))
            / 1e3;
    let explained = budget_sum_us / v("runtime.tcp_cluster_op_us");
    let fsync_us = v("storage.fsync_p50_us");
    values.insert("trace.budget_sum_us", budget_sum_us);
    values.insert("trace.explained_ratio", explained);

    if fsync_us < 20.0 {
        eprintln!(
            "warning: fsync takes {fsync_us} us here, which is no disk: durable_small is unresolved on this filesystem"
        );
    }

    out.correct &= out.problems.is_empty();
    for m in &PER_LAYER {
        match values.get(m.name) {
            Some(&value) => out.metrics.push((m.name, value)),
            None => return Err(io::Error::other(format!("no probe reported {}", m.name))),
        }
    }
    Ok(out)
}
