//! Replica memory plateaus on the real backend: three in-process `serve`
//! replicas take more than two log rolls' worth of operations, and no
//! replica's stable store ever holds more than one full epoch, the
//! commits of the retire grace, and the snapshot pages.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kvstore::kv::PAGES;
use loadgen::{run_fleet, LoadgenConfig};
use rsmr_core::{RETIRE_GRACE, ROLL_AFTER_SLOTS};
use rsmr_server::{serve, ServerConfig, ServerSummary};

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

#[test]
fn store_size_plateaus_across_log_rolls() {
    let ports = free_ports(3);
    let members = vec![0, 1, 2];
    let peers: Vec<(u64, String)> = ports
        .iter()
        .enumerate()
        .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
        .collect();
    let replicas: Vec<(Arc<AtomicBool>, std::thread::JoinHandle<_>)> = (0..3)
        .map(|node| {
            let cfg = ServerConfig {
                node_id: node,
                listen: Some(peers[node as usize].1.clone()),
                peers: peers.clone(),
                initial_members: members.clone(),
                stats_interval_secs: 0,
                ..ServerConfig::default()
            };
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            (stop, std::thread::spawn(move || serve(&cfg, &flag)))
        })
        .collect();

    // One full epoch, plus what commits while the previous one serves
    // catch-up, plus the base pages and a few bookkeeping keys.
    let grace = Duration::from_micros(RETIRE_GRACE.as_micros());
    let bound = |rate: f64| {
        ROLL_AFTER_SLOTS as usize + (grace.as_secs_f64() * rate * 1.5) as usize + PAGES + 64
    };
    // Closed-loop phases with fresh client ids until the group has
    // committed past two rolls (one slot per operation), and past the
    // bound, so that a log that never rolled would exceed it.
    let (mut done, mut peak_rate, mut phase) = (0u64, 0f64, 0u64);
    while done < 2 * ROLL_AFTER_SLOTS || done as usize <= bound(peak_rate) + 4_096 {
        assert!(phase < 60, "only {done} operations in {phase} phases");
        let report = run_fleet(&LoadgenConfig {
            servers: peers.clone(),
            initial_members: members.clone(),
            groups: 1,
            clients: 8,
            client_base: 1_000 * (phase + 1),
            run_for: Duration::from_secs(3),
            warmup: Duration::ZERO,
            ..LoadgenConfig::default()
        })
        .expect("fleet failed");
        done += report.completed_total;
        peak_rate = peak_rate.max(report.ops_per_sec);
        phase += 1;
    }
    // Let the last closed epoch outlive its retire grace.
    std::thread::sleep(grace + Duration::from_millis(500));

    let summaries: Vec<ServerSummary> = replicas
        .into_iter()
        .map(|(stop, handle)| {
            stop.store(true, Ordering::SeqCst);
            handle.join().expect("replica thread").expect("replica")
        })
        .collect();
    let bound = bound(peak_rate);
    for s in &summaries {
        let epoch = s.anchored_epochs[0].1.expect("anchored");
        assert!(epoch >= 2, "node {} rolled twice: epoch {epoch}", s.node);
        assert!(
            s.store_keys_max <= bound,
            "node {} held {} keys (bound {bound}) after {done} operations",
            s.node,
            s.store_keys_max
        );
    }
}
