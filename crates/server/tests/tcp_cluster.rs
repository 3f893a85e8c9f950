//! End-to-end cluster tests over real localhost sockets.
//!
//! These boot in-process replicas with [`rsmr_server::serve`] — the same
//! code path as the `rsmr-server` binary — and drive them with the real
//! client fleet from the `loadgen` crate. They are the CI smoke for the
//! TCP backend: commands commit through a live reconfiguration, a killed
//! replica recovers its groups from the storage directory and the
//! survivors reconnect to it.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use loadgen::{run_fleet, FleetReport, LoadgenConfig, ReconfigStep};
use rsmr_server::{serve, ServerConfig, ServerSummary};

/// Each test boots a whole cluster plus a client fleet (dozens of
/// threads); running them concurrently starves the closed-loop clients
/// on small CI machines. Serialize.
static SERIAL: Mutex<()> = Mutex::new(());

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsmr-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Replica {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<ServerSummary>>,
}

impl Replica {
    fn spawn(cfg: ServerConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || serve(&cfg, &flag));
        Replica { stop, handle }
    }

    fn stop(self) -> ServerSummary {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("replica thread panicked")
            .expect("replica failed")
    }
}

/// Stops every replica once load has ended. The pause lets a log roll the
/// last commands triggered finalize everywhere, so all members report the
/// same anchored epoch; with no more commands, no further roll starts.
fn stop_after_load(replicas: Vec<Replica>) -> Vec<ServerSummary> {
    std::thread::sleep(Duration::from_secs(1));
    for r in &replicas {
        r.stop.store(true, Ordering::SeqCst);
    }
    replicas.into_iter().map(Replica::stop).collect()
}

fn cluster_config(
    node: u64,
    ports: &[u16],
    initial: &[u64],
    storage: Option<PathBuf>,
) -> ServerConfig {
    ServerConfig {
        node_id: node,
        listen: Some(format!("127.0.0.1:{}", ports[node as usize])),
        peers: ports
            .iter()
            .enumerate()
            .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
            .collect(),
        initial_members: initial.to_vec(),
        groups: 1,
        storage_dir: storage,
        fsync: false,
        max_batch: 1,
        max_delay_ms: 0,
        window: 0,
        seed: node,
        run_for_secs: None,
        events_out: None,
        metrics_listen: None,
        stats_interval_secs: 0,
        corrupt_frames: Vec::new(),
    }
}

fn fleet(
    ports: &[u16],
    initial: &[u64],
    client_base: u64,
    secs: u64,
    reconfigs: Vec<ReconfigStep>,
) -> FleetReport {
    run_fleet(&LoadgenConfig {
        servers: ports
            .iter()
            .enumerate()
            .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
            .collect(),
        initial_members: initial.to_vec(),
        groups: 1,
        clients: 4,
        client_base,
        run_for: Duration::from_secs(secs),
        warmup: Duration::from_millis(500),
        reconfigs,
        ..LoadgenConfig::default()
    })
    .expect("fleet failed")
}

/// The CI smoke: a three-member cluster plus a standby joiner commits
/// at least a hundred commands through a live reconfiguration that
/// retires node 0 and admits node 3, then everyone shuts down cleanly.
#[test]
fn three_node_cluster_commits_through_a_reconfiguration() {
    let _serial = SERIAL.lock().unwrap();
    let ports = free_ports(4);
    let initial = [0, 1, 2];
    let replicas: Vec<Replica> = (0..4)
        .map(|n| Replica::spawn(cluster_config(n, &ports, &initial, None)))
        .collect();

    let report = fleet(
        &ports,
        &initial,
        100,
        6,
        vec![ReconfigStep {
            after: Duration::from_secs(2),
            target: vec![1, 2, 3],
        }],
    );

    assert!(
        report.completed_total >= 100,
        "want >= 100 commands, got {}",
        report.completed_total
    );
    assert_eq!(
        report.reconfigs.len(),
        1,
        "one reconfiguration acknowledged"
    );
    // Log rolls may close epochs before the admin's step does, so the
    // acknowledged epoch is any successor of the genesis one.
    let admitted = report.reconfigs[0].epoch;
    assert!(admitted >= 1, "successor epoch {admitted}");

    let summaries = stop_after_load(replicas);
    // The joiner was admitted, anchored the same epoch as the surviving
    // members and applied commands committed after the handoff.
    let joiner = &summaries[3];
    assert_eq!(joiner.anchored_epochs, summaries[1].anchored_epochs);
    assert_eq!(joiner.anchored_epochs, summaries[2].anchored_epochs);
    let anchored = joiner.anchored_epochs[0].1;
    assert!(
        anchored >= Some(admitted),
        "joiner anchored at {anchored:?}"
    );
    assert!(
        joiner.ops_applied > 0,
        "the admitted joiner applied commands"
    );
    // Everyone exchanged real frames.
    for s in &summaries {
        assert!(s.net_sent > 0 && s.net_delivered > 0, "node {}", s.node);
    }
}

/// Kill a replica mid-cluster, restart it on the same storage directory:
/// it recovers its group from disk and the surviving peers' connectors
/// reconnect to the fresh listener, after which it keeps applying.
#[test]
fn restarted_replica_recovers_from_disk_and_peers_reconnect() {
    let _serial = SERIAL.lock().unwrap();
    let ports = free_ports(3);
    let initial = [0, 1, 2];
    let root = scratch_dir("restart");
    let dir = |n: u64| Some(root.join(format!("n{n}")));

    let mut replicas: Vec<Option<Replica>> = (0..3)
        .map(|n| Some(Replica::spawn(cluster_config(n, &ports, &initial, dir(n)))))
        .collect();

    let phase1 = fleet(&ports, &initial, 100, 3, Vec::new());
    assert!(phase1.completed_total > 0, "phase 1 committed");

    // Crash-and-restart node 2 (stop() is the orderly flavor; the state
    // it recovers from was written through the journal write-ahead of
    // every emit, so an abrupt kill recovers the same way — see the
    // chaos suite for the simulated version).
    let down = replicas[2].take().unwrap().stop();
    assert!(down.ops_applied > 0, "node 2 applied before the restart");
    let restarted = Replica::spawn(cluster_config(2, &ports, &initial, dir(2)));

    // Fresh client ids: servers deduplicate per-client sequence numbers,
    // so phase 2 must not reuse phase 1's identities.
    let phase2 = fleet(&ports, &initial, 200, 3, Vec::new());
    assert!(
        phase2.completed_total > 0,
        "phase 2 committed after restart"
    );

    replicas[2] = Some(restarted);
    let summaries = stop_after_load(replicas.into_iter().map(Option::unwrap).collect());
    let back = &summaries[2];
    assert_eq!(back.recovered_groups, 1, "group recovered from disk");
    // Log rolls advance the epoch with no admin action; the recovered
    // replica must have followed its peers into whichever epoch they hold.
    assert!(
        back.anchored_epochs[0].1.is_some(),
        "recovered group anchored"
    );
    assert_eq!(back.anchored_epochs, summaries[0].anchored_epochs);
    assert_eq!(back.anchored_epochs, summaries[1].anchored_epochs);
    assert!(
        back.ops_applied >= down.ops_applied,
        "recovered state machine did not regress: {} -> {}",
        down.ops_applied,
        back.ops_applied
    );
    assert!(
        back.net_delivered > 0,
        "survivors reconnected and delivered"
    );

    let _ = std::fs::remove_dir_all(&root);
}
