//! Replica configuration: a small TOML subset plus CLI overrides.
//!
//! The accepted file format is flat `key = value` TOML — strings,
//! integers, booleans, and arrays of integers or strings — which covers
//! everything a replica needs without pulling in a TOML crate:
//!
//! ```toml
//! # replica 0 of a three-node cluster
//! node_id = 0
//! listen = "127.0.0.1:7400"
//! peers = ["0@127.0.0.1:7400", "1@127.0.0.1:7401", "2@127.0.0.1:7402"]
//! initial_members = [0, 1, 2]
//! groups = 1
//! storage_dir = "data/n0"
//! fsync = true
//! run_for_secs = 60
//! events_out = "events-n0.jsonl"
//! metrics_listen = "127.0.0.1:9400"   # /metrics, /healthz, /status
//! ```
//!
//! Every key can also be set (or overridden) on the command line; see
//! [`ServerConfig::from_args`].

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;

/// Everything one replica process needs to know.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This replica's node id.
    pub node_id: u64,
    /// Address to listen on (e.g. `"127.0.0.1:7400"`).
    pub listen: Option<String>,
    /// Every cluster member as `(node id, "host:port")`, including this
    /// node (its own entry is ignored when connecting).
    pub peers: Vec<(u64, String)>,
    /// Member ids of the genesis configuration (epoch 0). A node not
    /// listed starts as a *joining* replica and waits to be added by a
    /// reconfiguration.
    pub initial_members: Vec<u64>,
    /// Number of independent replication groups multiplexed on this node.
    pub groups: u32,
    /// Directory for durable state; `None` runs storage-less (volatile).
    pub storage_dir: Option<PathBuf>,
    /// Fsync files and directory on every write batch.
    pub fsync: bool,
    /// Leader-side batching: commands per consensus proposal (`1` = one
    /// command per slot, batching off).
    pub max_batch: u64,
    /// Leader-side batching: how long a non-full batch may wait for more
    /// commands before it is flushed anyway (`0` = flush on next tick).
    pub max_delay_ms: u64,
    /// Pipelined proposal window: outstanding slots the leader keeps in
    /// flight (`0` = unbounded, the pre-batching behavior).
    pub window: u64,
    /// Seed for protocol-level randomness (retry jitter).
    pub seed: u64,
    /// Exit cleanly after this many wall-clock seconds; `None` = serve
    /// until killed.
    pub run_for_secs: Option<u64>,
    /// Write observed reconfiguration spans and command-latency stats to
    /// this JSONL file on shutdown (plus periodic `server_stats` lines
    /// during the run; see `stats_interval_secs`).
    pub events_out: Option<PathBuf>,
    /// Serve live telemetry over HTTP on this address: Prometheus text
    /// at `/metrics`, liveness at `/healthz`, a JSON replica snapshot at
    /// `/status`. `None` disables the endpoint.
    pub metrics_listen: Option<String>,
    /// Seconds between periodic `server_stats` lines appended to
    /// `events_out` during the run (`0` = only the shutdown summary).
    pub stats_interval_secs: u64,
    /// Fault injection for integrity smoke tests: 0-based indices (in
    /// send order, across all peers) of outgoing frames to bit-flip
    /// *after* the CRC trailer is computed. The receiving replica must
    /// detect every one (`net.frame_errors`), kill the connection, and
    /// resume after the reconnect. Empty in normal operation.
    pub corrupt_frames: Vec<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            node_id: 0,
            listen: None,
            peers: Vec::new(),
            initial_members: Vec::new(),
            groups: 1,
            storage_dir: None,
            fsync: true,
            max_batch: 1,
            max_delay_ms: 0,
            window: 0,
            seed: 0,
            run_for_secs: None,
            events_out: None,
            metrics_listen: None,
            stats_interval_secs: 10,
            corrupt_frames: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// Parses the TOML subset described in the module docs.
    pub fn parse_toml(text: &str) -> Result<Self, String> {
        let mut cfg = ServerConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            cfg.set(key.trim(), value.trim())
                .map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        }
        Ok(cfg)
    }

    /// Builds a config from CLI arguments. `--config FILE` loads the file
    /// first; later flags override it:
    ///
    /// `--node N`, `--listen ADDR`, `--peer ID@ADDR` (repeatable, resets
    /// the file's list on first use), `--initial-members 0,1,2`,
    /// `--groups N`, `--storage-dir DIR`, `--fsync`/`--no-fsync`,
    /// `--max-batch N`, `--max-delay-ms N`, `--window N`, `--seed N`,
    /// `--run-for-secs N`, `--events-out FILE`,
    /// `--metrics-listen ADDR`, `--stats-interval-secs N`,
    /// `--corrupt-frame N` (repeatable; injects link corruption into the
    /// n-th outgoing frame, for integrity smoke tests).
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = ServerConfig::default();
        // Load the file (if any) before applying overrides, regardless of
        // flag order.
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--config" {
                let path = it.next().ok_or("--config needs a file path")?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                cfg = ServerConfig::parse_toml(&text)?;
            }
        }
        let mut peers_overridden = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut next = |flag: &str| -> Result<&String, String> {
                it.next().ok_or(format!("{flag} needs a value"))
            };
            match a.as_str() {
                "--config" => {
                    next("--config")?;
                }
                "--node" => cfg.node_id = parse_u64(next("--node")?)?,
                "--listen" => cfg.listen = Some(next("--listen")?.clone()),
                "--peer" => {
                    if !peers_overridden {
                        cfg.peers.clear();
                        peers_overridden = true;
                    }
                    cfg.peers.push(parse_peer(next("--peer")?)?);
                }
                "--initial-members" => {
                    cfg.initial_members = next("--initial-members")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(parse_u64)
                        .collect::<Result<_, _>>()?;
                }
                "--groups" => cfg.groups = parse_u64(next("--groups")?)? as u32,
                "--storage-dir" => cfg.storage_dir = Some(PathBuf::from(next("--storage-dir")?)),
                "--fsync" => cfg.fsync = true,
                "--no-fsync" => cfg.fsync = false,
                "--max-batch" => cfg.max_batch = parse_u64(next("--max-batch")?)?,
                "--max-delay-ms" => cfg.max_delay_ms = parse_u64(next("--max-delay-ms")?)?,
                "--window" => cfg.window = parse_u64(next("--window")?)?,
                "--seed" => cfg.seed = parse_u64(next("--seed")?)?,
                "--run-for-secs" => cfg.run_for_secs = Some(parse_u64(next("--run-for-secs")?)?),
                "--events-out" => cfg.events_out = Some(PathBuf::from(next("--events-out")?)),
                "--metrics-listen" => {
                    cfg.metrics_listen = Some(next("--metrics-listen")?.clone());
                }
                "--stats-interval-secs" => {
                    cfg.stats_interval_secs = parse_u64(next("--stats-interval-secs")?)?;
                }
                "--corrupt-frame" => {
                    cfg.corrupt_frames
                        .push(parse_u64(next("--corrupt-frame")?)?);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cfg)
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "node_id" => self.node_id = parse_u64(value)?,
            "listen" => self.listen = Some(parse_string(value)?),
            "peers" => {
                self.peers = parse_string_array(value)?
                    .iter()
                    .map(|s| parse_peer(s))
                    .collect::<Result<_, _>>()?;
            }
            "initial_members" => self.initial_members = parse_u64_array(value)?,
            "groups" => self.groups = parse_u64(value)? as u32,
            "storage_dir" => self.storage_dir = Some(PathBuf::from(parse_string(value)?)),
            "fsync" => self.fsync = parse_bool(value)?,
            "max_batch" => self.max_batch = parse_u64(value)?,
            "max_delay_ms" => self.max_delay_ms = parse_u64(value)?,
            "window" => self.window = parse_u64(value)?,
            "seed" => self.seed = parse_u64(value)?,
            "run_for_secs" => self.run_for_secs = Some(parse_u64(value)?),
            "events_out" => self.events_out = Some(PathBuf::from(parse_string(value)?)),
            "metrics_listen" => self.metrics_listen = Some(parse_string(value)?),
            "stats_interval_secs" => self.stats_interval_secs = parse_u64(value)?,
            "corrupt_frames" => self.corrupt_frames = parse_u64_array(value)?,
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    }

    /// Resolves the configured listen address.
    pub fn listen_addr(&self) -> Result<Option<SocketAddr>, String> {
        self.listen.as_deref().map(resolve).transpose()
    }

    /// Resolves the configured telemetry endpoint address.
    pub fn metrics_listen_addr(&self) -> Result<Option<SocketAddr>, String> {
        self.metrics_listen.as_deref().map(resolve).transpose()
    }

    /// Resolves every peer (other than this node) to `(id, addr)`.
    pub fn peer_addrs(&self) -> Result<Vec<(u64, SocketAddr)>, String> {
        self.peers
            .iter()
            .filter(|(id, _)| *id != self.node_id)
            .map(|(id, host)| Ok((*id, resolve(host)?)))
            .collect()
    }

    /// Basic sanity checks, run before any socket is opened.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups == 0 {
            return Err("groups must be at least 1".into());
        }
        if self.initial_members.is_empty() {
            return Err("initial_members must not be empty".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        Ok(())
    }
}

/// Resolves `"host:port"` to the first socket address.
fn resolve(host: &str) -> Result<SocketAddr, String> {
    host.to_socket_addrs()
        .map_err(|e| format!("resolving {host:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{host:?} resolved to no addresses"))
}

fn parse_peer(s: &str) -> Result<(u64, String), String> {
    let (id, addr) = s
        .split_once('@')
        .ok_or_else(|| format!("peer {s:?} is not ID@HOST:PORT"))?;
    Ok((parse_u64(id)?, addr.to_owned()))
}

fn parse_u64(s: impl AsRef<str>) -> Result<u64, String> {
    let s = s.as_ref().trim();
    s.parse().map_err(|_| format!("{s:?} is not an integer"))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("{other:?} is not true/false")),
    }
}

fn parse_string(s: &str) -> Result<String, String> {
    let s = s.trim();
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Ok(s[1..s.len() - 1].to_owned())
    } else {
        Err(format!("{s:?} is not a quoted string"))
    }
}

fn array_items(s: &str) -> Result<Vec<&str>, String> {
    let s = s.trim();
    if !(s.starts_with('[') && s.ends_with(']')) {
        return Err(format!("{s:?} is not an array"));
    }
    Ok(s[1..s.len() - 1]
        .split(',')
        .map(str::trim)
        .filter(|i| !i.is_empty())
        .collect())
}

fn parse_u64_array(s: &str) -> Result<Vec<u64>, String> {
    array_items(s)?.into_iter().map(parse_u64).collect()
}

fn parse_string_array(s: &str) -> Result<Vec<String>, String> {
    array_items(s)?.into_iter().map(parse_string).collect()
}

/// Strips a trailing `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config_file() {
        let cfg = ServerConfig::parse_toml(
            r#"
            # replica zero
            node_id = 0
            listen = "127.0.0.1:7400"   # the accept address
            peers = ["0@127.0.0.1:7400", "1@127.0.0.1:7401"]
            initial_members = [0, 1, 2]
            groups = 4
            storage_dir = "data/n0"
            fsync = false
            seed = 7
            run_for_secs = 30
            events_out = "ev.jsonl"
            "#,
        )
        .unwrap();
        assert_eq!(cfg.node_id, 0);
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7400"));
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[1], (1, "127.0.0.1:7401".to_owned()));
        assert_eq!(cfg.initial_members, vec![0, 1, 2]);
        assert_eq!(cfg.groups, 4);
        assert_eq!(
            cfg.storage_dir.as_deref(),
            Some(std::path::Path::new("data/n0"))
        );
        assert!(!cfg.fsync);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.run_for_secs, Some(30));
        cfg.validate().unwrap();
        assert_eq!(
            cfg.peer_addrs().unwrap(),
            vec![(1, "127.0.0.1:7401".parse().unwrap())]
        );
        assert_eq!(
            cfg.listen_addr().unwrap(),
            Some("127.0.0.1:7400".parse().unwrap())
        );
    }

    #[test]
    fn cli_flags_override_the_file() {
        let dir = std::env::temp_dir().join(format!("rsmr-cfg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.toml");
        std::fs::write(&path, "node_id = 3\ngroups = 2\npeers = [\"3@a:1\"]\n").unwrap();
        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--node",
            "5",
            "--peer",
            "5@127.0.0.1:9000",
            "--peer",
            "6@127.0.0.1:9001",
            "--initial-members",
            "5,6",
            "--no-fsync",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = ServerConfig::from_args(&args).unwrap();
        assert_eq!(cfg.node_id, 5);
        assert_eq!(cfg.groups, 2, "file value survives");
        assert_eq!(cfg.peers.len(), 2, "--peer replaces the file's list");
        assert_eq!(cfg.initial_members, vec![5, 6]);
        assert!(!cfg.fsync);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_input_is_rejected_with_line_numbers() {
        assert!(ServerConfig::parse_toml("node_id 0")
            .unwrap_err()
            .contains("line 1"));
        assert!(ServerConfig::parse_toml("nope = 1")
            .unwrap_err()
            .contains("nope"));
        assert!(ServerConfig::parse_toml("listen = 127.0.0.1").is_err());
        assert!(ServerConfig::parse_toml("peers = [\"noatsign\"]").is_err());
        assert!(ServerConfig::from_args(&["--bogus".to_owned()]).is_err());
        let empty = ServerConfig::default();
        assert!(empty.validate().is_err(), "empty member set rejected");
    }
}
