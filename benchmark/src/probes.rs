//! The per-layer probes: each times calls into one layer's public
//! functions from outside, on inputs made from the seed. Every call batch
//! is a span. README.md lists the functions called here; they are the
//! surface later changes must keep callable.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use consensus::{
    Command, Effects, MultiPaxos, PaxosMsg, PaxosTunables, ProposeOutcome, StaticConfig,
};
use kvstore::{key_name, KeyDist, KvOp, KvOutput, KvStore, WorkloadGen};
use rsmr_core::harness::World;
use rsmr_core::transfer::{
    assemble_full_pages, ChunkAssembly, ChunkOutcome, TransferPlan, CHUNK_TARGET,
};
use rsmr_core::{
    BaseState, Cmd, ConfigChain, Epoch, RsmrClient, RsmrMsg, RsmrNode, RsmrTunables, SessionTable,
    StateMachine,
};
use rsmr_server::{build_actor, ServerConfig};
use simnet::wire::{self, crc32c, Wire};
use simnet::{
    ChannelHub, FileStorage, FrameBuffer, GroupId, MemStorage, MultiGroup, NetConfig, NodeId,
    NodeRuntime, RuntimeConfig, Sim, SimDuration, SimRng, SimTime, StableStore, StorageBackend,
    TcpConfig, TcpTransport, Transport, TransportEvent, WallClock,
};

use crate::cluster::{data_root, ClusterSpec};
use crate::span::Spans;
use crate::spec::{Storage, Workload, KEYSPACE};
use crate::stats::{median_f64, percentile};
use crate::workload::{bring_up, run_segment, SegmentPlan};

/// Named results, in the order measured.
pub type Metrics = Vec<(&'static str, f64)>;

type Msg = RsmrMsg<KvOp, KvOutput>;

/// How long each probe may measure. `scale` is 1 on a full traced run and
/// shrinks with `--seconds` so a smoke run stays short.
#[derive(Clone, Copy)]
pub struct Budget {
    pub scale: f64,
    pub seed: u64,
}

impl Budget {
    fn secs(&self, full: f64) -> Duration {
        Duration::from_secs_f64((full * self.scale).max(0.01))
    }
}

/// Calls `f` in batches of `batch` until `budget` has passed (at least
/// three batches) and returns the median batch's nanoseconds per call.
/// One span covers the probe, counting calls.
fn ns_per_call(
    spans: &mut Spans,
    name: &'static str,
    budget: Duration,
    batch: u64,
    mut f: impl FnMut(),
) -> f64 {
    spans.scope(name, |_| {
        let started = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < 3 || started.elapsed() < budget {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        (median_f64(&per_call), per_call.len() as u64 * batch)
    })
}

fn put_op(rng: &mut SimRng, value_size: usize) -> KvOp {
    let mut value = vec![0u8; value_size];
    for chunk in value.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    KvOp::Put(key_name(rng.gen_range(0..KEYSPACE)), value)
}

fn request(rng: &mut SimRng, value_size: usize) -> Msg {
    RsmrMsg::Request {
        seq: rng.next_u64() >> 32,
        op: put_op(rng, value_size),
    }
}

/// `simnet::wire`: `to_bytes` / `from_bytes` of the client `Request`
/// carrying a `Put`, and `crc32c::checksum`.
pub fn wire(spans: &mut Spans, b: Budget) -> Metrics {
    let mut rng = SimRng::seed_from_u64(b.seed);
    let mut out = Metrics::new();
    for (size, enc, dec) in [
        (64, "wire.encode_ns_64b", "wire.decode_ns_64b"),
        (1024, "wire.encode_ns_1k", "wire.decode_ns_1k"),
    ] {
        let msg = request(&mut rng, size);
        let bytes = wire::to_bytes(&msg);
        out.push((
            enc,
            ns_per_call(spans, enc, b.secs(0.1), 2000, || {
                std::hint::black_box(wire::to_bytes(std::hint::black_box(&msg)));
            }),
        ));
        out.push((
            dec,
            ns_per_call(spans, dec, b.secs(0.1), 2000, || {
                std::hint::black_box(wire::from_bytes::<Msg>(std::hint::black_box(&bytes)));
            }),
        ));
    }
    let block: Vec<u8> = (0..64 * 1024).map(|_| rng.next_u64() as u8).collect();
    let per_64k = ns_per_call(spans, "wire.crc32c_ns_per_kib", b.secs(0.1), 50, || {
        std::hint::black_box(crc32c::checksum(std::hint::black_box(&block)));
    });
    out.push(("wire.crc32c_ns_per_kib", per_64k / 64.0));
    out
}

/// `simnet::transport` framing: `encode_frame` and `FrameBuffer`
/// reassembly of 1 KiB payloads fed in 64 KiB slices, as a socket read
/// delivers them.
pub fn framing(spans: &mut Spans, b: Budget) -> Metrics {
    let mut rng = SimRng::seed_from_u64(b.seed ^ 1);
    let payload: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    let encode = ns_per_call(
        spans,
        "transport.frame_encode_ns_1k",
        b.secs(0.1),
        2000,
        || {
            std::hint::black_box(simnet::transport::encode_frame(std::hint::black_box(
                &payload,
            )));
        },
    );
    const FRAMES: usize = 512;
    let stream: Vec<u8> = (0..FRAMES)
        .flat_map(|_| simnet::transport::encode_frame(&payload))
        .collect();
    let per_stream = ns_per_call(
        spans,
        "transport.frame_reassemble_ns_1k",
        b.secs(0.1),
        4,
        || {
            let mut frames = FrameBuffer::new(1 << 20);
            let mut seen = 0;
            for slice in stream.chunks(64 * 1024) {
                frames.extend(slice);
                while let Ok(Some(frame)) = frames.next_frame() {
                    std::hint::black_box(frame);
                    seen += 1;
                }
            }
            assert_eq!(seen, FRAMES, "every frame reassembles");
        },
    );
    vec![
        ("transport.frame_encode_ns_1k", encode),
        (
            "transport.frame_reassemble_ns_1k",
            per_stream / FRAMES as f64,
        ),
    ]
}

/// Echoes every frame back to its sender until `stop`; counts frames.
fn echo_loop(mut t: impl Transport, stop: &AtomicBool, seen: &AtomicU64, reply: bool) {
    while !stop.load(Ordering::SeqCst) {
        if let Some(TransportEvent::Frame { from, payload }) = t.poll(Duration::from_millis(20)) {
            seen.fetch_add(1, Ordering::Relaxed);
            if reply {
                t.send(from, payload);
            }
        }
    }
}

/// Round trips of a 64 B frame through `send`/`poll` against an echoing
/// peer, microseconds, ascending.
fn ping_pong(t: &mut impl Transport, peer: NodeId, budget: Duration) -> Vec<u64> {
    let payload = vec![7u8; 64];
    let started = Instant::now();
    let mut rtts = Vec::new();
    while rtts.len() < 50 || started.elapsed() < budget {
        let sent = Instant::now();
        if !t.send(peer, payload.clone()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let deadline = sent + Duration::from_millis(200);
        while Instant::now() < deadline {
            if let Some(TransportEvent::Frame { .. }) = t.poll(Duration::from_millis(50)) {
                rtts.push(sent.elapsed().as_micros() as u64);
                break;
            }
        }
        if started.elapsed() > budget + Duration::from_secs(5) {
            break; // a peer that never answers must not hang the run
        }
    }
    rtts.sort_unstable();
    rtts
}

/// `simnet::transport` sockets and channels: 64 B ping-pong over two
/// `TcpTransport`s, the same over a `ChannelHub` (the difference is the
/// socket; what remains is the thread hand-off), and a one-way stream of
/// 1 KiB frames.
pub fn transport(spans: &mut Spans, b: Budget) -> io::Result<Metrics> {
    let (a_id, b_id) = (NodeId(1), NodeId(2));
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let mut out = Metrics::new();

    // TCP ping-pong.
    let server = TcpTransport::bind(TcpConfig::new(a_id).listen("127.0.0.1:0".parse().unwrap()))?;
    let addr = server.local_addr().expect("listening");
    let echo = {
        let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
        std::thread::spawn(move || echo_loop(server, &stop, &seen, true))
    };
    let mut client = TcpTransport::bind(TcpConfig::new(b_id).peer(a_id, addr))?;
    let rtts = spans.scope("transport.tcp_rtt", |_| {
        let rtts = ping_pong(&mut client, a_id, b.secs(0.4));
        let n = rtts.len() as u64;
        (rtts, n)
    });
    out.push(("transport.tcp_rtt_p50_us", percentile(&rtts, 0.5) as f64));
    out.push(("transport.tcp_rtt_p95_us", percentile(&rtts, 0.95) as f64));
    stop.store(true, Ordering::SeqCst);
    echo.join().expect("echo thread");
    drop(client);

    // Channel ping-pong.
    stop.store(false, Ordering::SeqCst);
    let hub = ChannelHub::new();
    let server = hub.endpoint(a_id);
    let mut client = hub.endpoint(b_id);
    let echo = {
        let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
        std::thread::spawn(move || echo_loop(server, &stop, &seen, true))
    };
    let rtts = spans.scope("transport.channel_rtt", |_| {
        let rtts = ping_pong(&mut client, a_id, b.secs(0.3));
        let n = rtts.len() as u64;
        (rtts, n)
    });
    out.push((
        "transport.channel_rtt_p50_us",
        percentile(&rtts, 0.5) as f64,
    ));
    stop.store(true, Ordering::SeqCst);
    echo.join().expect("echo thread");

    // One-way TCP stream.
    stop.store(false, Ordering::SeqCst);
    seen.store(0, Ordering::SeqCst);
    let server = TcpTransport::bind(TcpConfig::new(a_id).listen("127.0.0.1:0".parse().unwrap()))?;
    let addr = server.local_addr().expect("listening");
    let sink = {
        let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
        std::thread::spawn(move || echo_loop(server, &stop, &seen, false))
    };
    let mut client = TcpTransport::bind(TcpConfig::new(b_id).peer(a_id, addr))?;
    // The first frames are dropped until the connector is up.
    while seen.load(Ordering::Relaxed) == 0 {
        client.send(a_id, vec![0u8; 1024]);
        std::thread::sleep(Duration::from_millis(2));
    }
    let mb_s = spans.scope("transport.tcp_stream", |_| {
        let payload = vec![9u8; 1024];
        let budget = b.secs(0.4);
        let before = seen.load(Ordering::Relaxed);
        let started = Instant::now();
        while started.elapsed() < budget {
            // A full egress queue refuses the frame; yield to the writer.
            if !client.send(a_id, payload.clone()) {
                std::thread::yield_now();
            }
        }
        // What arrived within the budget, so a backlog is not credited.
        let arrived = seen.load(Ordering::Relaxed) - before;
        let secs = started.elapsed().as_secs_f64();
        (arrived as f64 * 1024.0 / 1e6 / secs, arrived)
    });
    out.push(("transport.tcp_stream_mb_s", mb_s));
    stop.store(true, Ordering::SeqCst);
    drop(client);
    sink.join().expect("sink thread");
    Ok(out)
}

/// `FileStorage`: `apply` + `sync` appends with fsync off, fsync latency
/// with it on (also the device floor), and the longest single call while
/// 1 KiB overwrites of 4096 keys push the WAL through its compactions.
pub fn storage(spans: &mut Spans, b: Budget) -> io::Result<Metrics> {
    let mut rng = SimRng::seed_from_u64(b.seed ^ 2);
    let root = data_root().join("probe");
    let mut out = Metrics::new();
    let fresh = |name: &str, fsync: bool| -> io::Result<FileStorage> {
        let mut s = FileStorage::open(root.join(name), fsync)?;
        s.load()?;
        Ok(s)
    };

    for (size, name) in [
        (128, "storage.append_ns_128b"),
        (1024, "storage.append_ns_1k"),
    ] {
        let mut s = fresh(name, false)?;
        let value: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let mut i = 0usize;
        let ns = ns_per_call(spans, name, b.secs(0.2), 500, || {
            i += 1;
            s.apply(&key_name(i % KEYSPACE), Some(&value))
                .expect("wal append");
            s.sync().expect("wal flush");
        });
        out.push((name, ns));
    }

    let mut s = fresh("fsync", true)?;
    let value = vec![5u8; 128];
    let mut fsyncs = spans.scope("storage.fsync", |_| {
        let budget = b.secs(0.5);
        let started = Instant::now();
        let mut us = Vec::new();
        while us.len() < 20 || started.elapsed() < budget {
            let t = Instant::now();
            s.apply(&key_name(us.len() % KEYSPACE), Some(&value))
                .expect("wal append");
            s.sync().expect("fsync");
            us.push(t.elapsed().as_micros() as u64);
        }
        let n = us.len() as u64;
        (us, n)
    });
    fsyncs.sort_unstable();
    out.push(("storage.fsync_p50_us", percentile(&fsyncs, 0.5) as f64));
    out.push(("storage.fsync_p95_us", percentile(&fsyncs, 0.95) as f64));
    drop(s);

    let mut s = fresh("compaction", false)?;
    let value: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    let stall_us = spans.scope("storage.compaction_stall", |_| {
        // 200k overwrites at full scale: about 50 compactions of a 4 MiB
        // snapshot; never fewer than two WAL fills.
        let writes = ((200_000.0 * b.scale) as usize).max(10_000);
        let mut longest = 0;
        for i in 0..writes {
            let t = Instant::now();
            s.apply(&key_name(i % KEYSPACE), Some(&value))
                .expect("wal append");
            s.sync().expect("wal flush");
            longest = longest.max(t.elapsed().as_micros() as u64);
        }
        (longest, writes as u64)
    });
    out.push(("storage.compaction_stall_max_ms", stall_us as f64 / 1e3));
    drop(s);
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

/// Median operation latency of one closed-loop session against a cluster
/// of `replicas` in-process `rsmr_server::serve` threads over TCP.
fn tcp_op_us(spans: &mut Spans, name: &'static str, replicas: u64, b: Budget) -> io::Result<f64> {
    const SINGLE: Workload = Workload {
        name: "probe",
        why: "",
        replicas: 0,
        read_ratio: 0.5,
        value_size: 64,
        storage: Storage::Volatile,
        open_loop_rate: None,
        reconfig: false,
    };
    spans.try_scope(name, |spans| {
        let spec = ClusterSpec {
            replicas,
            members: (0..replicas).collect(),
            groups: 1,
            storage: Storage::Volatile,
            metrics: false,
            seed: b.seed,
        };
        let (cluster, _) = bring_up(&spec)?;
        let plan = SegmentPlan {
            threads: 1,
            ..SegmentPlan::fleet(b.seed, b.secs(0.6).as_secs_f64(), false)
        };
        let r = run_segment(&SINGLE, plan, &spec, cluster, spans)?;
        if !r.correct() {
            return Err(io::Error::other(format!(
                "{name}: {}",
                r.problems.join("; ")
            )));
        }
        let latencies = &r.window.latencies_us;
        Ok((percentile(latencies, 0.5) as f64, latencies.len() as u64))
    })
}

/// The same replica actors (`rsmr_server::build_actor`) on
/// `ChannelTransport` + `MemStorage`: what `runtime.tcp_cluster_op_us`
/// costs without sockets.
fn channel_op_us(spans: &mut Spans, b: Budget) -> f64 {
    const NAME: &str = "runtime.channel_cluster_op_us";
    spans.scope(NAME, |_| {
        let hub = ChannelHub::new();
        let stop = Arc::new(AtomicBool::new(false));
        let clock = WallClock::new();
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let replicas: Vec<_> = (0..3u64)
            .map(|node| {
                let endpoint = hub.endpoint(NodeId(node));
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let cfg = ServerConfig {
                        node_id: node,
                        initial_members: vec![0, 1, 2],
                        groups: 1,
                        ..ServerConfig::default()
                    };
                    let store = StableStore::new();
                    let (actor, _) = build_actor(&cfg, &store);
                    let mut rt = NodeRuntime::new(
                        NodeId(node),
                        actor,
                        clock,
                        endpoint,
                        MemStorage,
                        store,
                        RuntimeConfig::default(),
                    );
                    while !stop.load(Ordering::SeqCst) {
                        rt.run_for(Duration::from_millis(10));
                    }
                    rt.shutdown();
                })
            })
            .collect();
        let gen = WorkloadGen::new(b.seed, KeyDist::Uniform(KEYSPACE), 0.5, 64).into_fn();
        let actor = MultiGroup::sealed().with_group(
            GroupId(0),
            World::<KvStore>::client(RsmrClient::new(members, gen, None).with_history()),
        );
        let mut rt = NodeRuntime::new(
            NodeId(100),
            actor,
            clock,
            hub.endpoint(NodeId(100)),
            MemStorage,
            StableStore::new(),
            RuntimeConfig::default(),
        );
        // Leader election first; then measure for the budget.
        rt.run_until(
            |a| a.entries().all(|(_, w)| w.completed() >= 1),
            Duration::from_secs(5),
        );
        let warm = rt
            .actor()
            .entries()
            .map(|(_, w)| w.completed())
            .sum::<u64>() as usize;
        rt.run_for(b.secs(0.6));
        stop.store(true, Ordering::SeqCst);
        for r in replicas {
            r.join().expect("replica thread");
        }
        let actor = rt.shutdown();
        let mut latencies: Vec<u64> = actor
            .entries()
            .filter_map(|(_, w)| w.as_client())
            .flat_map(|c| c.history().iter().skip(warm))
            .map(|e| e.4.as_micros() - e.3.as_micros())
            .collect();
        latencies.sort_unstable();
        (percentile(&latencies, 0.5) as f64, latencies.len() as u64)
    })
}

/// `simnet::runtime` end to end with no queueing: one session against a
/// single replica, against three, and against three without sockets.
pub fn runtime(spans: &mut Spans, b: Budget) -> io::Result<Metrics> {
    Ok(vec![
        (
            "runtime.tcp_single_node_op_us",
            tcp_op_us(spans, "runtime.tcp_single_node_op_us", 1, b)?,
        ),
        (
            "runtime.tcp_cluster_op_us",
            tcp_op_us(spans, "runtime.tcp_cluster_op_us", 3, b)?,
        ),
        ("runtime.channel_cluster_op_us", channel_op_us(spans, b)),
    ])
}

/// Three `MultiPaxos` cores wired back to back in memory, as
/// `crates/bench/benches/paxos_core.rs` does: no clock, no sockets.
struct PaxosLoop<C: Command> {
    cores: BTreeMap<NodeId, MultiPaxos<C>>,
    inbox: VecDeque<(NodeId, NodeId, PaxosMsg<C>)>,
    now: SimTime,
    msgs: u64,
    bytes: u64,
}

impl<C: Command + Wire> PaxosLoop<C> {
    fn new(tun: PaxosTunables) -> Self {
        let members: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(members.clone());
        let mut l = PaxosLoop {
            cores: members
                .iter()
                .map(|&m| {
                    (
                        m,
                        MultiPaxos::new(m, cfg.clone(), SimTime::ZERO, tun.clone()),
                    )
                })
                .collect(),
            inbox: VecDeque::new(),
            now: SimTime::ZERO,
            msgs: 0,
            bytes: 0,
        };
        while l.leader().is_none() {
            l.tick_all();
        }
        (l.msgs, l.bytes) = (0, 0);
        l
    }

    fn leader(&self) -> Option<NodeId> {
        self.cores.values().find(|c| c.is_leader()).map(|c| c.me())
    }

    fn absorb(&mut self, from: NodeId, fx: Effects<C>) {
        for (to, m) in fx.outbound {
            self.msgs += 1;
            self.bytes += m.encoded_size() as u64;
            self.inbox.push_back((from, to, m));
        }
    }

    fn drain(&mut self) {
        while let Some((from, to, m)) = self.inbox.pop_front() {
            let fx = self
                .cores
                .get_mut(&to)
                .expect("member")
                .on_message(from, m, self.now);
            self.absorb(to, fx);
        }
    }

    fn tick_all(&mut self) {
        self.now += SimDuration::from_millis(10);
        let ids: Vec<NodeId> = self.cores.keys().copied().collect();
        for id in ids {
            let fx = self.cores.get_mut(&id).expect("member").tick(self.now);
            self.absorb(id, fx);
        }
        self.drain();
    }

    /// Proposes `cmds` at the leader before draining, then ticks until
    /// the accumulator and the in-flight window are empty.
    fn commit(&mut self, cmds: impl IntoIterator<Item = C>) {
        let l = self.leader().expect("a leader was elected");
        for c in cmds {
            let (fx, outcome) = self.cores.get_mut(&l).expect("leader").propose(c, self.now);
            assert_eq!(outcome, ProposeOutcome::Accepted);
            self.absorb(l, fx);
        }
        self.drain();
        while {
            let core = &self.cores[&l];
            core.accum_len() > 0 || core.inflight_len() > 0
        } {
            self.now += SimDuration::from_millis(10);
            let fx = self.cores.get_mut(&l).expect("leader").tick(self.now);
            self.absorb(l, fx);
            self.drain();
        }
    }
}

fn app_cmd(rng: &mut SimRng, seq: u64, value_size: usize) -> Cmd<KvOp> {
    Cmd::App {
        client: NodeId(100),
        seq,
        op: put_op(rng, value_size),
    }
}

/// `consensus`: nanoseconds per committed command one at a time and in
/// bursts of eight through the batch accumulator, and the exact message
/// and byte counts of a commit.
pub fn consensus(spans: &mut Spans, b: Budget) -> Metrics {
    let mut rng = SimRng::seed_from_u64(b.seed ^ 3);
    let mut out = Metrics::new();

    let mut single = PaxosLoop::<Cmd<KvOp>>::new(PaxosTunables::default());
    let cmd = app_cmd(&mut rng, 0, 64);
    let ns = ns_per_call(
        spans,
        "consensus.commit_ns_per_op",
        b.secs(0.2),
        200,
        || {
            single.commit([cmd.clone()]);
        },
    );
    out.push(("consensus.commit_ns_per_op", ns));

    let mut batched = PaxosLoop::<Cmd<KvOp>>::new(PaxosTunables {
        max_batch: 8,
        window: 1,
        max_delay: SimDuration::from_millis(1),
        ..PaxosTunables::default()
    });
    let burst: Vec<Cmd<KvOp>> = (0..8).map(|i| app_cmd(&mut rng, i, 64)).collect();
    let ns = ns_per_call(
        spans,
        "consensus.commit_ns_per_op_batch8",
        b.secs(0.2),
        50,
        || {
            batched.commit(burst.iter().cloned());
        },
    );
    out.push(("consensus.commit_ns_per_op_batch8", ns / 8.0));

    // Counts: 1000 commits from a freshly elected leader repeat exactly.
    const COMMITS: u64 = 1000;
    for (size, name) in [
        (64, "consensus.bytes_per_op_64b"),
        (1024, "consensus.bytes_per_op_1k"),
    ] {
        let mut l = PaxosLoop::<Cmd<KvOp>>::new(PaxosTunables::default());
        for i in 0..COMMITS {
            l.commit([app_cmd(&mut rng, i, size)]);
        }
        if size == 64 {
            out.push(("consensus.msgs_per_op", l.msgs as f64 / COMMITS as f64));
        }
        out.push((name, l.bytes as f64 / COMMITS as f64));
    }
    out
}

/// `rsmr-core` under `Sim` (virtual clock, fixed seed, so the counts
/// repeat exactly on every run and every `--seed`), and the state
/// transfer path on a 100k-key store.
pub fn core(spans: &mut Spans, b: Budget) -> Metrics {
    let mut out = Metrics::new();

    const SIM_SEED: u64 = 7;
    const CLIENTS: u64 = 4;
    const OPS_PER_CLIENT: u64 = 2500;
    let (wall_us, ops, msgs, bytes, keys) = spans.scope("core.sim", |_| {
        let mut sim: Sim<World<KvStore>> = Sim::new(SIM_SEED, NetConfig::lan());
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let cfg = StaticConfig::new(servers.clone());
        for &s in &servers {
            sim.add_node_with_id(
                s,
                World::server(RsmrNode::genesis(s, cfg.clone(), RsmrTunables::default())),
            );
        }
        for c in 0..CLIENTS {
            let gen = WorkloadGen::new(SIM_SEED + c, KeyDist::Uniform(KEYSPACE), 0.5, 64).into_fn();
            sim.add_node_with_id(
                NodeId(100 + c),
                World::client(RsmrClient::new(servers.clone(), gen, Some(OPS_PER_CLIENT))),
            );
        }
        let started = Instant::now();
        sim.run_for(SimDuration::from_secs(60));
        let wall_us = started.elapsed().as_micros() as f64;
        let ops: u64 = (0..CLIENTS)
            .map(|c| sim.actor(NodeId(100 + c)).map_or(0, World::completed))
            .sum();
        let keys: usize = servers.iter().map(|&s| sim.storage(s).len()).sum();
        (
            (
                wall_us,
                ops,
                sim.metrics().counter("net.sent"),
                sim.metrics().counter("net.bytes"),
                keys,
            ),
            ops,
        )
    });
    let per_op = |v: f64| v / ops.max(1) as f64;
    out.push(("core.sim_cpu_us_per_op", per_op(wall_us)));
    out.push(("core.sim_msgs_per_op", per_op(msgs as f64)));
    out.push(("core.sim_bytes_per_op", per_op(bytes as f64)));
    out.push(("core.sim_store_keys_per_op", per_op(keys as f64)));

    let base = spans.scope("core.base_build_100k", |_| {
        let kv = KvStore::with_filler(100_000, 64);
        let pages = (0..kv.snapshot_pages())
            .map(|p| Arc::new(kv.snapshot_page(p)))
            .collect();
        let mut chain = ConfigChain::genesis(StaticConfig::new((0..3).map(NodeId).collect()));
        chain.append(Epoch(1), StaticConfig::new((1..4).map(NodeId).collect()));
        let base: BaseState<KvOutput> = BaseState {
            epoch: Epoch(1),
            pages,
            sessions: SessionTable::new(),
            chain,
        };
        (base, 100_000)
    });
    let ns = ns_per_call(spans, "core.base_encode_ms_100k", b.secs(0.15), 1, || {
        std::hint::black_box(base.encode_bytes());
    });
    out.push(("core.base_encode_ms_100k", ns / 1e6));
    let ns = ns_per_call(
        spans,
        "core.transfer_roundtrip_ms_100k",
        b.secs(0.15),
        1,
        || {
            let plan = TransferPlan::full(&base, CHUNK_TARGET);
            let mut assembly = ChunkAssembly::new(plan.manifest.clone());
            for (i, chunk) in plan.chunks.iter().enumerate() {
                assert_eq!(assembly.accept(i, Arc::clone(chunk)), ChunkOutcome::Stored);
            }
            let pages = assemble_full_pages(&assembly.into_chunks(), base.pages.len());
            assert_eq!(pages.as_ref().map(Vec::len), Some(base.pages.len()));
        },
    );
    out.push(("core.transfer_roundtrip_ms_100k", ns / 1e6));
    out
}

/// `kvstore`: `StateMachine::apply` of puts and gets on a store holding
/// the workloads' 4096 keys.
pub fn kvstore(spans: &mut Spans, b: Budget) -> Metrics {
    let mut rng = SimRng::seed_from_u64(b.seed ^ 4);
    let mut kv = KvStore::new();
    for i in 0..KEYSPACE {
        kv.apply(&KvOp::Put(key_name(i), vec![1u8; 64]));
    }
    let mut out = Metrics::new();
    for (size, name) in [
        (64, "kvstore.apply_put_ns_64b"),
        (1024, "kvstore.apply_put_ns_1k"),
    ] {
        let ops: Vec<KvOp> = (0..512).map(|_| put_op(&mut rng, size)).collect();
        let mut i = 0;
        let ns = ns_per_call(spans, name, b.secs(0.1), 2000, || {
            i += 1;
            std::hint::black_box(kv.apply(&ops[i % ops.len()]));
        });
        out.push((name, ns));
    }
    let gets: Vec<KvOp> = (0..512)
        .map(|_| KvOp::Get(key_name(rng.gen_range(0..KEYSPACE))))
        .collect();
    let mut i = 0;
    let ns = ns_per_call(spans, "kvstore.apply_get_ns", b.secs(0.1), 2000, || {
        i += 1;
        std::hint::black_box(kv.apply(&gets[i % gets.len()]));
    });
    out.push(("kvstore.apply_get_ns", ns));
    out
}
