//! Live telemetry end-to-end: a real cluster over localhost sockets,
//! scraped over HTTP while it reconfigures.
//!
//! Boots the same in-process replicas as `tcp_cluster.rs`, each with a
//! `--metrics-listen` endpoint, drives a client fleet through a planned
//! reconfiguration, and asserts the *observable* story: `/healthz`
//! answers, the `rsmr_epoch` gauge advances past the genesis epoch, the
//! reconfiguration-span histogram gains a sample somewhere in the
//! cluster, and `/status` reports the post-change membership.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use loadgen::{run_fleet, LoadgenConfig, ReconfigStep};
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

/// A one-shot `GET` against a replica's metrics endpoint; returns
/// `(status_line, body)`.
fn http_get(port: u16, path: &str) -> std::io::Result<(String, String)> {
    let mut s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head.lines().next().unwrap_or_default().to_owned();
    Ok((status, body.to_owned()))
}

/// Polls `port` until `pred` holds for the `/metrics` body (panics on
/// deadline). Scrapes are cheap, the pump refreshes every 250ms.
fn await_metrics(port: u16, what: &str, deadline: Duration, pred: impl Fn(&str) -> bool) -> String {
    let until = Instant::now() + deadline;
    loop {
        if let Ok((status, body)) = http_get(port, "/metrics") {
            assert!(status.contains("200"), "scrape failed: {status}");
            if pred(&body) {
                return body;
            }
        }
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The gauge line `rsmr_epoch{group="0"} E`, parsed.
fn epoch_of(body: &str) -> Option<u64> {
    body.lines()
        .find(|l| l.starts_with("rsmr_epoch{group=\"0\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The `_count` sample of a histogram series, parsed.
fn count_of(body: &str, series: &str) -> u64 {
    let prefix = format!("{series}_count ");
    body.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn metrics_and_status_track_a_live_reconfiguration() {
    let ports = free_ports(4);
    let scrape = free_ports(4);
    let dir = scratch_dir("metrics");

    let config = |node: u64| ServerConfig {
        node_id: node,
        listen: Some(format!("127.0.0.1:{}", ports[node as usize])),
        peers: ports
            .iter()
            .enumerate()
            .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
            .collect(),
        initial_members: vec![0, 1, 2],
        groups: 1,
        storage_dir: Some(dir.join(format!("n{node}"))),
        fsync: false,
        max_batch: 8,
        max_delay_ms: 1,
        window: 4,
        seed: node,
        run_for_secs: None,
        events_out: None,
        metrics_listen: Some(format!("127.0.0.1:{}", scrape[node as usize])),
        stats_interval_secs: 0,
        corrupt_frames: Vec::new(),
    };
    let replicas: Vec<Replica> = (0..4).map(|n| Replica::spawn(config(n))).collect();

    // Genesis first: node 1 must anchor epoch 1 before the change so the
    // "gauge advances" assertion observes a real transition.
    let before = await_metrics(
        scrape[1],
        "genesis epoch gauge",
        Duration::from_secs(20),
        |b| epoch_of(b).is_some(),
    );
    let genesis = epoch_of(&before).unwrap();

    let (hstatus, hbody) = http_get(scrape[1], "/healthz").expect("healthz");
    assert!(hstatus.contains("200"), "{hstatus}");
    assert_eq!(hbody, "ok\n");

    // Drive load through a reconfiguration that retires node 0 and
    // admits node 3.
    let report = run_fleet(&LoadgenConfig {
        servers: ports
            .iter()
            .enumerate()
            .map(|(id, port)| (id as u64, format!("127.0.0.1:{port}")))
            .collect(),
        initial_members: vec![0, 1, 2],
        groups: 1,
        clients: 4,
        run_for: Duration::from_secs(4),
        warmup: Duration::from_millis(500),
        reconfigs: vec![ReconfigStep {
            after: Duration::from_secs(1),
            target: vec![1, 2, 3],
        }],
        ..LoadgenConfig::default()
    })
    .expect("fleet failed");
    assert!(
        !report.reconfigs.is_empty(),
        "reconfiguration never finished"
    );

    // The epoch gauge on a surviving member must move past genesis.
    let after = await_metrics(
        scrape[1],
        "advanced epoch gauge",
        Duration::from_secs(20),
        |b| epoch_of(b).is_some_and(|e| e > genesis),
    );
    assert!(epoch_of(&after).unwrap() > genesis);

    // Core series from every layer are present on the scrape.
    for series in [
        "rsmr_applied",
        "paxos_batch_size_count",
        "storage_wal_append_bytes_count",
    ] {
        assert!(after.contains(series), "missing series {series}:\n{after}");
    }
    assert!(!after.contains("NaN"), "NaN leaked into the exposition");

    // The reconfiguration span histogram gains a sample somewhere in the
    // cluster (phases are observed where the spans close, which depends
    // on leadership — poll every member).
    let until = Instant::now() + Duration::from_secs(20);
    'seal: loop {
        for &p in &scrape {
            if let Ok((_, body)) = http_get(p, "/metrics") {
                if count_of(&body, "reconfig_seal_latency_us") >= 1 {
                    break 'seal;
                }
            }
        }
        assert!(
            Instant::now() < until,
            "no reconfig.seal_latency_us sample on any member"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // `/status` reflects the new membership on a survivor.
    let (sstatus, sbody) = http_get(scrape[1], "/status").expect("status");
    assert!(sstatus.contains("200"), "{sstatus}");
    assert!(sbody.contains("\"node\":1"), "{sbody}");
    assert!(sbody.contains("\"members\":[1,2,3]"), "{sbody}");
    assert!(
        sbody.contains("\"role\":\"leader\"") || sbody.contains("\"role\":\"follower\""),
        "{sbody}"
    );

    let (nstatus, _) = http_get(scrape[1], "/nope").expect("404 route");
    assert!(nstatus.contains("404"), "{nstatus}");

    for r in replicas {
        r.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
