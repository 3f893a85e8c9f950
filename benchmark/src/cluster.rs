//! In-process replicas on the production path: one `rsmr_server::serve`
//! per thread, every protocol tunable left at `ServerConfig::default()`,
//! loopback TCP with no injected delay.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rsmr_server::{serve, ServerConfig, ServerSummary};
use simnet::NodeId;

use crate::spec::{Storage, Workload, GENESIS, GROUPS};

/// Everything the benchmark writes at run time lives under here.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Storage directories of every cluster this process starts. Removed by
/// [`remove_data_root`] on every exit path.
pub fn data_root() -> PathBuf {
    target_dir()
        .join("bench-data")
        .join(format!("p{}", std::process::id()))
}

pub fn remove_data_root() {
    let _ = std::fs::remove_dir_all(data_root());
    // The shared parent goes too once the last process is done with it.
    let _ = std::fs::remove_dir(target_dir().join("bench-data"));
}

/// The filesystem type holding the storage directories, from
/// `/proc/self/mountinfo` (longest mount point that prefixes the path).
pub fn storage_fs_type() -> String {
    let dir = target_dir();
    let dir = dir.canonicalize().unwrap_or(dir);
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> <source> ..."
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Ports the kernel just handed out for `127.0.0.1:0`. They are released
/// before the replicas bind them, so a bind can still lose the race;
/// `workload::bring_up` retries the whole bring-up on `AddrInUse`.
fn free_ports(n: usize) -> io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

struct Replica {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<ServerSummary>>,
}

/// What a cluster is asked to be.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub replicas: u64,
    pub members: Vec<u64>,
    pub groups: u32,
    pub storage: Storage,
    /// Serve `/metrics` on every replica (the traced run).
    pub metrics: bool,
    pub seed: u64,
}

impl ClusterSpec {
    pub fn of(w: &Workload, seed: u64, metrics: bool) -> Self {
        ClusterSpec {
            replicas: w.replicas,
            members: GENESIS.to_vec(),
            groups: GROUPS,
            storage: w.storage,
            metrics,
            seed,
        }
    }
}

pub struct Cluster {
    replicas: Vec<Replica>,
    pub addrs: Vec<(NodeId, SocketAddr)>,
    pub metrics_ports: Vec<u16>,
    /// When the first replica thread was spawned.
    pub spawned_at: Instant,
}

static NEXT_CLUSTER: AtomicU64 = AtomicU64::new(0);

impl Cluster {
    /// Spawns the replicas. Does not wait for them: the caller's first
    /// acknowledged operation is what proves the cluster is up.
    pub fn spawn(spec: &ClusterSpec) -> io::Result<Cluster> {
        let n = spec.replicas as usize;
        let ports = free_ports(if spec.metrics { 2 * n } else { n })?;
        let (listen, scrape) = ports.split_at(n);
        let peers: Vec<(u64, String)> = listen
            .iter()
            .enumerate()
            .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
            .collect();
        let id = NEXT_CLUSTER.fetch_add(1, Ordering::Relaxed);
        let spawned_at = Instant::now();
        let mut replicas = Vec::with_capacity(n);
        for node in 0..spec.replicas {
            let (storage_dir, fsync) = match spec.storage {
                Storage::Volatile => (None, ServerConfig::default().fsync),
                Storage::File { fsync } => (
                    Some(data_root().join(format!("c{id}")).join(format!("n{node}"))),
                    fsync,
                ),
            };
            let cfg = ServerConfig {
                node_id: node,
                listen: Some(peers[node as usize].1.clone()),
                peers: peers.clone(),
                initial_members: spec.members.clone(),
                groups: spec.groups,
                storage_dir,
                fsync,
                seed: spec.seed ^ node,
                metrics_listen: spec
                    .metrics
                    .then(|| format!("127.0.0.1:{}", scrape[node as usize])),
                ..ServerConfig::default()
            };
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name(format!("replica-{node}"))
                .spawn(move || serve(&cfg, &flag))?;
            replicas.push(Replica { stop, handle });
        }
        Ok(Cluster {
            replicas,
            addrs: listen
                .iter()
                .enumerate()
                .map(|(id, &port)| (NodeId(id as u64), SocketAddr::from(([127, 0, 0, 1], port))))
                .collect(),
            metrics_ports: scrape.to_vec(),
            spawned_at,
        })
    }

    /// A replica whose serve loop already returned (a failed bind, a
    /// storage error). `None` while all are serving.
    pub fn early_exit(&self) -> Option<u64> {
        self.replicas
            .iter()
            .position(|r| r.handle.is_finished())
            .map(|i| i as u64)
    }

    /// Stops every replica and returns what each reported, by node id.
    pub fn stop(self) -> Vec<io::Result<ServerSummary>> {
        for r in &self.replicas {
            r.stop.store(true, Ordering::SeqCst);
        }
        self.replicas
            .into_iter()
            .map(|r| {
                r.handle
                    .join()
                    .unwrap_or_else(|_| Err(io::Error::other("replica thread panicked")))
            })
            .collect()
    }
}
