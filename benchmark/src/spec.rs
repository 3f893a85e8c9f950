//! What the benchmark measures: the five workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metric table.
//! `BENCHMARK.json` at the repository root repeats the names; a self-test
//! keeps the two in step.

/// Replication groups multiplexed on every replica.
pub const GROUPS: u32 = 4;
/// Load-generating threads; each hosts one session per group, so the
/// fleet is `CLIENT_THREADS * GROUPS` = 8 concurrent sessions — sized for
/// the 2-vCPU box this benchmark is recorded on.
pub const CLIENT_THREADS: u64 = 2;
/// Keys, uniformly popular, hash-partitioned over the groups.
pub const KEYSPACE: usize = 4096;
/// An operation with no reply this long after its (intended) send failed.
/// The fleet also waits this long past the window's end for what was
/// sent inside it, so the last operation gets the time the first one got
/// (a request that meets a leader change goes through retransmissions
/// 0.3, 0.9 and 2.1 s after it was sent).
pub const OP_TIMEOUT_US: u64 = 5_000_000;
/// Warm-up before the measured window at the full run length; shorter
/// runs scale it down.
pub const WARMUP_SECS: f64 = 2.0;
/// Per-session rate of the open-loop workload, operations per second.
pub const PACED_RATE_PER_SESSION: f64 = 750.0;
/// Cluster bring-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Storage {
    /// `storage_dir = None`: nothing is written.
    Volatile,
    /// `FileStorage` under `benchmark/target/bench-data/`.
    File { fsync: bool },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this traffic mix is in the benchmark.
    pub why: &'static str,
    /// Replica processes hosted (ids `0..replicas`).
    pub replicas: u64,
    /// Fraction of reads.
    pub read_ratio: f64,
    /// Bytes per written value.
    pub value_size: usize,
    pub storage: Storage,
    /// `Some(rate)`: open loop at `rate` ops/s per session, latency from
    /// the intended send time. `None`: closed loop.
    pub open_loop_rate: Option<f64>,
    /// The admin alternates every group between `{1,2,3}` and `{0,1,2}`.
    pub reconfig: bool,
}

/// Members of the genesis configuration of every workload.
pub const GENESIS: [u64; 3] = [0, 1, 2];
/// The configuration `reconfig_swap` alternates with [`GENESIS`].
pub const SWAPPED: [u64; 3] = [1, 2, 3];

const STEADY: Workload = Workload {
    name: "steady_small",
    why: "64 B values, 50% reads, closed loop, no storage: socket hops, thread hand-offs and the Paxos round; a storage gain must not show here",
    replicas: 3,
    read_ratio: 0.5,
    value_size: 64,
    storage: Storage::Volatile,
    open_loop_rate: None,
    reconfig: false,
};

pub const WORKLOADS: [Workload; 5] = [
    STEADY,
    Workload {
        name: "paced_small",
        why: "steady_small's traffic sent open loop at 6000 ops/s: throughput is pinned, so batching that helps elsewhere shows its latency and CPU cost here",
        open_loop_rate: Some(PACED_RATE_PER_SESSION),
        ..STEADY
    },
    Workload {
        name: "durable_small",
        why: "steady_small's traffic on FileStorage with fsync on: one flush per applied op, so group commit shows here and nowhere else",
        storage: Storage::File { fsync: true },
        ..STEADY
    },
    Workload {
        name: "large_values",
        why: "writes only, 1 KiB values, WAL without fsync: per-byte encode, CRC, copy, WAL append and compaction; catches small-op gains bought by copying more",
        read_ratio: 0.0,
        value_size: 1024,
        storage: Storage::File { fsync: false },
        ..STEADY
    },
    Workload {
        name: "reconfig_swap",
        why: "steady_small's traffic while every group swaps between {0,1,2} and {1,2,3} every 2 s: the paper's path, so its gap to steady_small is the price of reconfiguring",
        replicas: 4,
        reconfig: true,
        ..STEADY
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

/// Every workload reports all of these from an untraced run.
///
/// One bound for all: 0.25, the widest the driver allows. On the shared
/// 2-vCPU box this was recorded on, ten runs of one commit spread (first
/// to third quartile) 3-13% of their median on these metrics, and two
/// sets recorded forty minutes apart moved 10-15% on all of them together,
/// so a tighter bound would reject the commit against itself.
///
/// Two metrics the issue proposed are not here. `failed_ratio` is 0 on a
/// healthy run and a bounded metric must never be 0, so failures travel
/// as the result line's `attempted` / `failed` counts and `compare`
/// rejects any rise. `latency_p95_us` spread 15-20% on `paced_small` and
/// `reconfig_swap`, too close to any bound allowed, so by the issue's own
/// rule it is reported with the other tail figures under `loadgen.*`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition:
            "first replica thread spawned to first client op acknowledged; median of 5 bring-ups",
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "operations acknowledged inside the measured window divided by the window",
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition:
            "median, send (intended send when paced) to reply, of operations sent in the window",
    },
    EndToEnd {
        name: "latency_mean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition: "mean on the same clock, of the median of five slices of the window; carries the stalls that recur (hand-off, compaction) and p50 hides",
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition: "process user+system CPU over the window divided by acknowledged operations",
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM of the workload's process after the drain",
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The module the number belongs to.
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const WIRE: &str = "simnet::wire";
const WIRE_MOVES: &str =
    "throughput_ops_s, latency_p50_us on large_values; no change on steady_small";
const TRANSPORT: &str = "simnet::transport";
const RTT_MOVES: &str =
    "latency_p50_us on steady_small and paced_small (an op is two round trips deep); little on durable_small";
const STREAM_MOVES: &str = "throughput_ops_s on large_values";
const STORAGE: &str = "simnet::transport::FileStorage";
const FSYNC_MOVES: &str = "latency_p50_us, latency_mean_us, throughput_ops_s on durable_small only";
const APPEND_MOVES: &str =
    "latency_mean_us, throughput_ops_s on large_values; none on steady_small, paced_small, reconfig_swap";
const RUNTIME: &str = "simnet::runtime";
const RUNTIME_MOVES: &str = "latency_p50_us on steady_small and paced_small";
const CONSENSUS: &str = "consensus";
const CONSENSUS_MOVES: &str = "cpu_us_per_op, throughput_ops_s on steady_small";
const CORE: &str = "rsmr-core";
const RECONFIG_MOVES: &str = "latency_mean_us, throughput_ops_s on reconfig_swap only";
const KV: &str = "kvstore";
const KV_MOVES: &str = "nothing end to end (hundreds of ns against hundreds of us)";
const SERVER: &str = "rsmr-server";
const LOADGEN: &str = "benchmark fleet";
const LOADGEN_MOVES: &str = "tail and stall detail behind the end-to-end latencies";

/// Every traced run reports all of these.
pub const PER_LAYER: [PerLayer; 61] = [
    pl("wire.encode_ns_64b", "ns", Lower, WIRE, WIRE_MOVES),
    pl("wire.encode_ns_1k", "ns", Lower, WIRE, WIRE_MOVES),
    pl("wire.decode_ns_64b", "ns", Lower, WIRE, WIRE_MOVES),
    pl("wire.decode_ns_1k", "ns", Lower, WIRE, WIRE_MOVES),
    pl("wire.crc32c_ns_per_kib", "ns", Lower, WIRE, WIRE_MOVES),
    pl(
        "transport.frame_encode_ns_1k",
        "ns",
        Lower,
        TRANSPORT,
        STREAM_MOVES,
    ),
    pl(
        "transport.frame_reassemble_ns_1k",
        "ns",
        Lower,
        TRANSPORT,
        STREAM_MOVES,
    ),
    pl(
        "transport.tcp_rtt_p50_us",
        "us",
        Lower,
        TRANSPORT,
        RTT_MOVES,
    ),
    pl(
        "transport.tcp_rtt_p95_us",
        "us",
        Lower,
        TRANSPORT,
        RTT_MOVES,
    ),
    pl(
        "transport.channel_rtt_p50_us",
        "us",
        Lower,
        TRANSPORT,
        RTT_MOVES,
    ),
    pl(
        "transport.tcp_stream_mb_s",
        "MB/s",
        Higher,
        TRANSPORT,
        STREAM_MOVES,
    ),
    pl("storage.append_ns_128b", "ns", Lower, STORAGE, APPEND_MOVES),
    pl("storage.append_ns_1k", "ns", Lower, STORAGE, APPEND_MOVES),
    pl("storage.fsync_p50_us", "us", Lower, STORAGE, FSYNC_MOVES),
    pl("storage.fsync_p95_us", "us", Lower, STORAGE, FSYNC_MOVES),
    pl(
        "storage.compaction_stall_max_ms",
        "ms",
        Lower,
        STORAGE,
        APPEND_MOVES,
    ),
    pl(
        "runtime.tcp_single_node_op_us",
        "us",
        Lower,
        RUNTIME,
        RUNTIME_MOVES,
    ),
    pl(
        "runtime.tcp_cluster_op_us",
        "us",
        Lower,
        RUNTIME,
        RUNTIME_MOVES,
    ),
    pl(
        "runtime.channel_cluster_op_us",
        "us",
        Lower,
        RUNTIME,
        RUNTIME_MOVES,
    ),
    pl(
        "consensus.commit_ns_per_op",
        "ns",
        Lower,
        CONSENSUS,
        CONSENSUS_MOVES,
    ),
    pl(
        "consensus.commit_ns_per_op_batch8",
        "ns",
        Lower,
        CONSENSUS,
        CONSENSUS_MOVES,
    ),
    pl(
        "consensus.msgs_per_op",
        "count",
        Lower,
        CONSENSUS,
        CONSENSUS_MOVES,
    ),
    pl(
        "consensus.bytes_per_op_64b",
        "B",
        Lower,
        CONSENSUS,
        CONSENSUS_MOVES,
    ),
    pl(
        "consensus.bytes_per_op_1k",
        "B",
        Lower,
        CONSENSUS,
        "throughput_ops_s on large_values",
    ),
    pl("core.sim_cpu_us_per_op", "us", Lower, CORE, CONSENSUS_MOVES),
    pl(
        "core.sim_msgs_per_op",
        "count",
        Lower,
        CORE,
        CONSENSUS_MOVES,
    ),
    pl("core.sim_bytes_per_op", "B", Lower, CORE, CONSENSUS_MOVES),
    pl(
        "core.sim_store_keys_per_op",
        "count",
        Lower,
        CORE,
        CONSENSUS_MOVES,
    ),
    pl(
        "core.base_encode_ms_100k",
        "ms",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl(
        "core.transfer_roundtrip_ms_100k",
        "ms",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl(
        "core.reconfig_ack_p50_ms",
        "ms",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl(
        "core.reconfig_ack_max_ms",
        "ms",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl("core.handoff_gap_p50_ms", "ms", Lower, CORE, RECONFIG_MOVES),
    pl("core.handoff_gap_max_ms", "ms", Lower, CORE, RECONFIG_MOVES),
    pl(
        "core.seal_latency_mean_us",
        "us",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl(
        "core.transfer_time_mean_us",
        "us",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl(
        "core.transfer_bytes_per_reconfig",
        "B",
        Lower,
        CORE,
        RECONFIG_MOVES,
    ),
    pl("kvstore.apply_put_ns_64b", "ns", Lower, KV, KV_MOVES),
    pl("kvstore.apply_put_ns_1k", "ns", Lower, KV, KV_MOVES),
    pl("kvstore.apply_get_ns", "ns", Lower, KV, KV_MOVES),
    pl(
        "server.commit_slot_us_mean",
        "us",
        Lower,
        SERVER,
        "latency_p50_us on steady_small, paced_small",
    ),
    pl(
        "server.net_msgs_per_op",
        "count",
        Lower,
        SERVER,
        "cpu_us_per_op, throughput_ops_s on steady_small, large_values",
    ),
    pl(
        "server.net_bytes_per_op",
        "B",
        Lower,
        SERVER,
        "throughput_ops_s on large_values",
    ),
    pl(
        "server.storage_flushes_per_op",
        "count",
        Lower,
        SERVER,
        "throughput_ops_s, latency_p50_us on durable_small",
    ),
    pl(
        "server.fsync_us_mean",
        "us",
        Lower,
        SERVER,
        "latency_p50_us on durable_small",
    ),
    pl(
        "server.wal_bytes_per_op",
        "B",
        Lower,
        SERVER,
        "throughput_ops_s on large_values, durable_small",
    ),
    pl(
        "server.compaction_ms_total",
        "ms",
        Lower,
        SERVER,
        "latency_mean_us on large_values",
    ),
    pl(
        "server.coalesced_write_bytes_mean",
        "B",
        Higher,
        SERVER,
        "cpu_us_per_op on steady_small, large_values",
    ),
    pl(
        "server.leader_elections",
        "count",
        Lower,
        SERVER,
        "latency_mean_us on reconfig_swap",
    ),
    pl(
        "server.member_lag_ops",
        "count",
        Lower,
        SERVER,
        "nothing directly; a lagging member narrows the fault margin on reconfig_swap",
    ),
    pl(
        "loadgen.latency_mean_us",
        "us",
        Lower,
        LOADGEN,
        "the plain mean of the traced window, one-off stalls included; latency_mean_us is its slice-median form",
    ),
    pl(
        "loadgen.latency_p95_us",
        "us",
        Lower,
        LOADGEN,
        LOADGEN_MOVES,
    ),
    pl(
        "loadgen.latency_p99_us",
        "us",
        Lower,
        LOADGEN,
        LOADGEN_MOVES,
    ),
    pl(
        "loadgen.latency_max_ms",
        "ms",
        Lower,
        LOADGEN,
        LOADGEN_MOVES,
    ),
    pl("loadgen.max_gap_ms", "ms", Lower, LOADGEN, LOADGEN_MOVES),
    pl(
        "loadgen.offered_ratio",
        "ratio",
        Higher,
        LOADGEN,
        "how late the open-loop generator ran (paced_small; 1 on closed-loop workloads)",
    ),
    pl(
        "loadgen.samples",
        "count",
        Higher,
        LOADGEN,
        "sample count behind every latency figure of the traced window",
    ),
    pl(
        "loadgen.traced_throughput_ops_s",
        "1/s",
        Higher,
        LOADGEN,
        "the traced window's own throughput; numerator of trace.overhead_ratio",
    ),
    pl(
        "trace.overhead_ratio",
        "ratio",
        Higher,
        "benchmark trace",
        "traced divided by untraced throughput_ops_s of this workload",
    ),
    pl(
        "trace.budget_sum_us",
        "us",
        Lower,
        "benchmark trace",
        "2*tcp_rtt + commit + wire + kvstore terms: the explained part of one cluster op",
    ),
    pl(
        "trace.explained_ratio",
        "ratio",
        Higher,
        "benchmark trace",
        "trace.budget_sum_us divided by runtime.tcp_cluster_op_us; reported, not gated",
    ),
];

/// True when `name` is spelled from the characters the driver accepts.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_owned();

        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, j) in WORKLOADS.iter().zip(listed) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(listed) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            let bound = j.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
            assert!(bound > 0.0 && bound <= 0.25);
        }

        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (m, j) in PER_LAYER.iter().zip(listed) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }
}
