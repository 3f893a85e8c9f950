//! Reads the series the replicas already export on `/metrics`
//! (Prometheus text) and sums them over the cluster.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// `GET /metrics` from a replica's telemetry endpoint; the response body.
pub fn fetch_metrics(port: u16) -> io::Result<String> {
    let mut s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header break"))?;
    if !head.lines().next().unwrap_or_default().contains("200") {
        return Err(io::Error::other(format!("scrape failed: {head}")));
    }
    Ok(body.to_owned())
}

/// Sample values by series name, label sets folded together by summing
/// (per-peer gauges, per-group epochs). Histogram `_bucket` lines are
/// dropped; `_sum` and `_count` are kept.
#[derive(Clone, Debug, Default)]
pub struct Samples(BTreeMap<String, f64>);

impl Samples {
    pub fn parse(body: &str) -> Samples {
        let mut out = BTreeMap::new();
        for line in body.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            if name.ends_with("_bucket") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                *out.entry(name.to_owned()).or_insert(0.0) += v;
            }
        }
        Samples(out)
    }

    /// Adds another replica's samples to these.
    pub fn merge(&mut self, other: &Samples) {
        for (name, v) in &other.0 {
            *self.0.entry(name.clone()).or_insert(0.0) += v;
        }
    }

    /// The value of `name`, 0 when the series is absent (a counter that
    /// never fired is not exported).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of histogram `name` (`_sum / _count`), 0 when empty.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count > 0.0 {
            self.get(&format!("{name}_sum")) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_labels_and_histograms() {
        let body = "\
# TYPE net_reconnects counter
net_reconnects 2
# TYPE net_outbound_queue_depth gauge
net_outbound_queue_depth{peer=\"1\"} 3
net_outbound_queue_depth{peer=\"2\"} 4
# TYPE storage_fsync_us histogram
storage_fsync_us_bucket{le=\"100\"} 1
storage_fsync_us_bucket{le=\"+Inf\"} 2
storage_fsync_us_sum 300
storage_fsync_us_count 2
";
        let mut s = Samples::parse(body);
        assert_eq!(s.get("net_reconnects"), 2.0);
        assert_eq!(s.get("net_outbound_queue_depth"), 7.0);
        assert_eq!(s.hist_mean("storage_fsync_us"), 150.0);
        assert_eq!(s.get("absent"), 0.0);
        assert_eq!(s.hist_mean("absent"), 0.0);
        assert!(s.0.keys().all(|n| !n.ends_with("_bucket")));
        let other = s.clone();
        s.merge(&other);
        assert_eq!(s.get("net_reconnects"), 4.0);
        assert_eq!(s.hist_mean("storage_fsync_us"), 150.0);
    }
}
