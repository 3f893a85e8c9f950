//! Counters, histograms and timelines for experiments.

use std::collections::BTreeMap;

use crate::telemetry::{Export, LogHistogram};
use crate::time::SimTime;

/// A raw-sample histogram with quantile queries.
///
/// Samples are stored verbatim (simulation scale makes this cheap) and
/// sorted lazily on query.
///
/// ```
/// use simnet::Histogram;
/// let mut h = Histogram::default();
/// for v in 0..=100 { h.observe(v as f64); }
/// assert_eq!(h.quantile(0.5), 50.0);
/// assert_eq!(h.max(), 100.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) using nearest-rank interpolation, or 0
    /// when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("histogram samples must not be NaN"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// The raw samples, unsorted.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A time-stamped series of values (e.g. commits per bin during a run).
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    points: Vec<(SimTime, f64)>,
}

impl Timeline {
    /// Appends a point. Points are expected in nondecreasing time order (the
    /// simulator's clock guarantees this for in-callback pushes).
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// The raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Sums point values into fixed-width bins over `[start, end)`; returns
    /// `(bin_start, sum)` for every bin, including empty ones. An empty or
    /// inverted window (`end <= start`) yields no bins.
    pub fn binned(
        &self,
        start: SimTime,
        end: SimTime,
        bin: crate::SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!bin.is_zero(), "bin width must be positive");
        if end <= start {
            // Don't rely on `since()` saturating: an inverted window is
            // explicitly empty, not a zero-width window starting at `start`.
            return Vec::new();
        }
        let width = bin.as_micros();
        let span = end.since(start).as_micros();
        let nbins = (span / width + u64::from(!span.is_multiple_of(width))) as usize;
        let mut out: Vec<(SimTime, f64)> =
            (0..nbins).map(|i| (start + bin * i as u64, 0.0)).collect();
        for &(t, v) in &self.points {
            if t < start || t >= end {
                continue;
            }
            let idx = (t.since(start).as_micros() / width) as usize;
            out[idx].1 += v;
        }
        out
    }

    /// The longest contiguous run of zero-valued bins, in bins, over
    /// `[start, end)` — the "service interruption window" measurement.
    /// An empty or inverted window (`end <= start`) has no gap (0 bins).
    pub fn longest_gap_bins(&self, start: SimTime, end: SimTime, bin: crate::SimDuration) -> usize {
        let bins = self.binned(start, end, bin);
        let mut longest = 0usize;
        let mut current = 0usize;
        for (_, v) in bins {
            if v == 0.0 {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        longest
    }
}

/// The network counters every simulation updates on the per-message fast
/// path; stored as plain fields to avoid map lookups.
#[derive(Clone, Debug, Default)]
pub(crate) struct NetCounters {
    pub(crate) sent: u64,
    pub(crate) delivered: u64,
    pub(crate) bytes: u64,
    pub(crate) dropped: u64,
    pub(crate) corrupted: u64,
    pub(crate) partitioned: u64,
    pub(crate) dropped_down: u64,
    pub(crate) dropped_unknown: u64,
}

/// The global metrics sink shared by every node in a simulation.
///
/// Every metric name in the workspace is a string literal, so all maps are
/// keyed by `&'static str`: recording a counter, sample or timeline point
/// never allocates. Lookups still accept any `&str`.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    /// Per-message-label counters, keyed by the `'static` label — the
    /// allocation-free fast path for the per-message accounting.
    labels: BTreeMap<&'static str, u64>,
    pub(crate) net: NetCounters,
    histograms: BTreeMap<&'static str, Histogram>,
    timelines: BTreeMap<&'static str, Timeline>,
    /// Integer-sample log-scale histograms (see [`LogHistogram`]): the
    /// shared representation for hot-path latency/size recording, used
    /// by both the simulator and the real backend.
    records: BTreeMap<&'static str, LogHistogram>,
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent. The
    /// `net.*` counters are backed by dedicated fields (the per-message
    /// fast path) but remain addressable by name.
    pub fn incr(&mut self, name: &'static str, n: u64) {
        match name {
            "net.sent" => self.net.sent += n,
            "net.delivered" => self.net.delivered += n,
            "net.bytes" => self.net.bytes += n,
            "net.dropped" => self.net.dropped += n,
            "net.corrupted" => self.net.corrupted += n,
            "net.partitioned" => self.net.partitioned += n,
            "net.dropped_down" => self.net.dropped_down += n,
            "net.dropped_unknown" => self.net.dropped_unknown += n,
            _ => *self.counters.entry(name).or_insert(0) += n,
        }
    }

    /// Adds `n` to a static-label counter (used for per-message-kind
    /// accounting; avoids allocating a key per event).
    pub fn incr_label(&mut self, label: &'static str, n: u64) {
        *self.labels.entry(label).or_insert(0) += n;
    }

    /// Value of a static-label counter.
    pub fn label_count(&self, label: &str) -> u64 {
        self.labels.get(label).copied().unwrap_or(0)
    }

    /// All static-label counters whose label starts with `prefix`.
    pub fn labels_with_prefix(&self, prefix: &str) -> Vec<(&'static str, u64)> {
        self.labels
            .iter()
            .filter(|(l, _)| l.starts_with(prefix))
            .map(|(&l, &v)| (l, v))
            .collect()
    }

    /// Current value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        match name {
            "net.sent" => self.net.sent,
            "net.delivered" => self.net.delivered,
            "net.bytes" => self.net.bytes,
            "net.dropped" => self.net.dropped,
            "net.corrupted" => self.net.corrupted,
            "net.partitioned" => self.net.partitioned,
            "net.dropped_down" => self.net.dropped_down,
            "net.dropped_unknown" => self.net.dropped_unknown,
            _ => self.counters.get(name).copied().unwrap_or(0),
        }
    }

    /// All **nonzero** counters whose name starts with `prefix`, in name
    /// order (including the field-backed `net.*` counters).
    ///
    /// Zero-valued counters are skipped uniformly: a `net.*` field that was
    /// never touched and a dynamic counter that only ever received
    /// `incr(name, 0)` are equally invisible here (query them directly with
    /// [`Metrics::counter`] if the distinction matters).
    ///
    /// Both sources are already sorted — the map by key, the `net.*` fields
    /// listed in name order — so this is a single ordered merge with no
    /// re-sort. `incr` routes `net.*` names to the fields, so the two
    /// sequences never share a key.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let net = [
            ("net.bytes", self.net.bytes),
            ("net.corrupted", self.net.corrupted),
            ("net.delivered", self.net.delivered),
            ("net.dropped", self.net.dropped),
            ("net.dropped_down", self.net.dropped_down),
            ("net.dropped_unknown", self.net.dropped_unknown),
            ("net.partitioned", self.net.partitioned),
            ("net.sent", self.net.sent),
        ];
        let mut dynamic = self
            .counters
            .iter()
            .filter(|&(k, &v)| v > 0 && k.starts_with(prefix))
            .map(|(&k, &v)| (k, v))
            .peekable();
        let mut fixed = net
            .into_iter()
            .filter(|&(k, v)| v > 0 && k.starts_with(prefix))
            .peekable();
        let mut out = Vec::new();
        loop {
            let take_dynamic = match (dynamic.peek(), fixed.peek()) {
                (Some(&(ka, _)), Some(&(kb, _))) => ka <= kb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (k, v) = if take_dynamic {
                dynamic.next().unwrap()
            } else {
                fixed.next().unwrap()
            };
            out.push((k.to_owned(), v));
        }
        out
    }

    /// Records a sample in the named histogram.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Mutable access (needed for quantile queries, which sort lazily).
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        self.histograms.get_mut(name)
    }

    /// Records an integer sample in the named [`LogHistogram`] — the
    /// fixed-bucket path for hot-path latencies and sizes. Unlike
    /// [`Metrics::observe`], memory stays bounded regardless of sample
    /// count, and recording never allocates after the first sample.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.records.entry(name).or_default().record(value);
    }

    /// Appends a point to the named timeline.
    pub fn timeline_push(&mut self, name: &'static str, t: SimTime, v: f64) {
        self.timelines.entry(name).or_default().push(t, v);
    }

    /// The named timeline, if any points were recorded.
    pub fn timeline(&self, name: &str) -> Option<&Timeline> {
        self.timelines.get(name)
    }

    /// An FNV-1a digest over every counter, label, net field, histogram
    /// sample and timeline point, in deterministic order. Two runs with the
    /// same seed must produce identical fingerprints — the determinism
    /// regression tests rely on this.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
            }
        };
        for (k, v) in &self.counters {
            eat(k.as_bytes());
            eat(&v.to_le_bytes());
        }
        for (k, v) in &self.labels {
            eat(k.as_bytes());
            eat(&v.to_le_bytes());
        }
        for v in [
            self.net.sent,
            self.net.delivered,
            self.net.bytes,
            self.net.dropped,
            self.net.corrupted,
            self.net.partitioned,
            self.net.dropped_down,
            self.net.dropped_unknown,
        ] {
            eat(&v.to_le_bytes());
        }
        for (k, hist) in &self.histograms {
            eat(k.as_bytes());
            for s in hist.samples() {
                eat(&s.to_bits().to_le_bytes());
            }
        }
        for (k, tl) in &self.timelines {
            eat(k.as_bytes());
            for &(t, v) in tl.points() {
                eat(&t.as_micros().to_le_bytes());
                eat(&v.to_bits().to_le_bytes());
            }
        }
        // Log-scale histograms fold last so a sink without any keeps the
        // exact fingerprint it had before they existed.
        for (k, lh) in &self.records {
            eat(k.as_bytes());
            for (upper, count) in lh.nonzero_buckets() {
                eat(&upper.to_le_bytes());
                eat(&count.to_le_bytes());
            }
            eat(&lh.sum().to_le_bytes());
        }
        h
    }

    /// A point-in-time, plain-data export of the sink — the machine-readable
    /// counterpart of the rendered experiment tables. Deterministic: entries
    /// are in name order and the embedded [`Metrics::fingerprint`] lets
    /// consumers pair a snapshot with a run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut histograms: Vec<HistogramSummary> = self
            .histograms
            .iter()
            .map(|(&name, h)| {
                // `quantile` sorts lazily and needs `&mut`; summarize a
                // clone so snapshots work from shared references.
                let mut h = h.clone();
                HistogramSummary {
                    name: name.to_owned(),
                    count: h.count() as u64,
                    mean: h.mean(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                }
            })
            .collect();
        // Log-scale histograms export through the same summary shape.
        // Empty ones are skipped — the zero-count guard that keeps every
        // summary's min/quantiles meaningful.
        histograms.extend(self.records.iter().filter(|(_, lh)| !lh.is_empty()).map(
            |(&name, lh)| HistogramSummary {
                name: name.to_owned(),
                count: lh.count(),
                mean: lh.mean(),
                min: lh.min().unwrap_or(0) as f64,
                max: lh.max().unwrap_or(0) as f64,
                p50: lh.quantile(0.50) as f64,
                p90: lh.quantile(0.90) as f64,
                p99: lh.quantile(0.99) as f64,
            },
        ));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters: self.counters_with_prefix(""),
            labels: self
                .labels_with_prefix("")
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            histograms,
            timelines: self
                .timelines
                .iter()
                .map(|(&name, tl)| {
                    let pts = tl.points();
                    TimelineSummary {
                        name: name.to_owned(),
                        points: pts.len() as u64,
                        first_us: pts.first().map(|&(t, _)| t.as_micros()).unwrap_or(0),
                        last_us: pts.last().map(|&(t, _)| t.as_micros()).unwrap_or(0),
                        total: pts.iter().map(|&(_, v)| v).sum(),
                    }
                })
                .collect(),
            fingerprint: self.fingerprint(),
        }
    }

    /// Packages the sink for [`crate::telemetry::Registry::publish`]:
    /// all nonzero counters (including the `net.*` fields) plus every
    /// non-empty log-scale histogram. This is how an actor thread's
    /// private sink becomes visible to a live `/metrics` scrape.
    pub fn export(&self) -> Export {
        Export {
            counters: self.counters_with_prefix(""),
            gauges: Vec::new(),
            histograms: self
                .records
                .iter()
                .filter(|(_, lh)| !lh.is_empty())
                .map(|(&k, lh)| (k.to_owned(), lh.clone()))
                .collect(),
        }
    }
}

/// Summary statistics of one histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// The histogram's metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summary of one timeline in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineSummary {
    /// The timeline's metric name.
    pub name: String,
    /// Number of recorded points.
    pub points: u64,
    /// Time of the first point, µs (0 when empty).
    pub first_us: u64,
    /// Time of the last point, µs (0 when empty).
    pub last_us: u64,
    /// Sum of all point values.
    pub total: f64,
}

/// A serializable export of a [`Metrics`] sink (see [`Metrics::snapshot`]).
///
/// All collections are sorted by name; zero-valued counters are omitted
/// (matching [`Metrics::counters_with_prefix`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// All nonzero counters, name order.
    pub counters: Vec<(String, u64)>,
    /// All per-message-label counters, label order.
    pub labels: Vec<(String, u64)>,
    /// Histogram summaries, name order.
    pub histograms: Vec<HistogramSummary>,
    /// Timeline summaries, name order.
    pub timelines: Vec<TimelineSummary>,
    /// The [`Metrics::fingerprint`] at snapshot time.
    pub fingerprint: u64,
}

/// Escapes `s` as the body of a JSON string literal (quotes not included).
/// Metric names are ASCII identifiers, but table cells pass through here
/// too, so the full control-character range is handled.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number. Histogram/timeline values are finite
/// by construction (NaN samples are rejected at quantile time); infinities
/// would not be valid JSON, so they are clamped to the largest finite value.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        format!("{}", f64::MIN)
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a single JSON object (no external
    /// dependencies, hence hand-rolled). Key order is fixed, so equal
    /// snapshots render byte-identically — the artifact determinism tests
    /// rely on this.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"fingerprint\":");
        out.push_str(&self.fingerprint.to_string());
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape_into(&mut out, &h.name);
            out.push_str(&format!(
                "\",\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count,
                json_f64(h.mean),
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.p50),
                json_f64(h.p90),
                json_f64(h.p99),
            ));
        }
        out.push_str("],\"timelines\":[");
        for (i, t) in self.timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape_into(&mut out, &t.name);
            out.push_str(&format!(
                "\",\"points\":{},\"first_us\":{},\"last_us\":{},\"total\":{}}}",
                t.points,
                t.first_us,
                t.last_us,
                json_f64(t.total),
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn counters_accumulate_and_scan_by_prefix() {
        let mut m = Metrics::new();
        m.incr("net.sent", 2);
        m.incr("net.sent", 3);
        m.incr("net.dropped", 1);
        m.incr("app.commit", 9);
        assert_eq!(m.counter("net.sent"), 5);
        assert_eq!(m.counter("missing"), 0);
        let net = m.counters_with_prefix("net.");
        assert_eq!(net, vec![("net.dropped".into(), 1), ("net.sent".into(), 5)]);
    }

    #[test]
    fn histogram_quantiles_on_known_data() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn timeline_binning_sums_and_pads() {
        let mut t = Timeline::default();
        t.push(SimTime::from_millis(1), 1.0);
        t.push(SimTime::from_millis(2), 1.0);
        t.push(SimTime::from_millis(25), 4.0);
        let bins = t.binned(
            SimTime::ZERO,
            SimTime::from_millis(30),
            SimDuration::from_millis(10),
        );
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0], (SimTime::ZERO, 2.0));
        assert_eq!(bins[1], (SimTime::from_millis(10), 0.0));
        assert_eq!(bins[2], (SimTime::from_millis(20), 4.0));
    }

    #[test]
    fn longest_gap_finds_the_interruption_window() {
        let mut t = Timeline::default();
        t.push(SimTime::from_millis(5), 1.0);
        // bins 1..=3 empty
        t.push(SimTime::from_millis(45), 1.0);
        t.push(SimTime::from_millis(55), 1.0);
        let gap = t.longest_gap_bins(
            SimTime::ZERO,
            SimTime::from_millis(60),
            SimDuration::from_millis(10),
        );
        assert_eq!(gap, 3);
    }

    #[test]
    fn zero_counters_are_filtered_uniformly_by_prefix_scan() {
        let mut m = Metrics::new();
        // A dynamic counter that only ever saw +0 and a never-touched
        // field-backed counter must both be invisible to the scan.
        m.incr("app.zero", 0);
        m.incr("app.commit", 9);
        m.incr("net.sent", 0);
        m.incr("net.dropped", 1);
        assert_eq!(
            m.counters_with_prefix(""),
            vec![("app.commit".into(), 9), ("net.dropped".into(), 1)]
        );
        // Direct lookups still see the zeros as zeros.
        assert_eq!(m.counter("app.zero"), 0);
        assert_eq!(m.counter("net.sent"), 0);
    }

    #[test]
    fn inverted_binning_window_yields_no_bins() {
        let mut t = Timeline::default();
        t.push(SimTime::from_millis(5), 1.0);
        let bin = SimDuration::from_millis(10);
        let (start, end) = (SimTime::from_millis(50), SimTime::from_millis(10));
        assert!(t.binned(start, end, bin).is_empty());
        assert_eq!(t.longest_gap_bins(start, end, bin), 0);
        // Degenerate zero-width window too.
        assert!(t.binned(start, start, bin).is_empty());
        assert_eq!(t.longest_gap_bins(start, start, bin), 0);
    }

    #[test]
    fn labels_scan_by_prefix_in_order() {
        let mut m = Metrics::new();
        m.incr_label("paxos.accept", 2);
        m.incr_label("paxos.prepare", 1);
        m.incr_label("rsmr.request", 5);
        assert_eq!(
            m.labels_with_prefix("paxos."),
            vec![("paxos.accept", 2), ("paxos.prepare", 1)]
        );
        assert_eq!(m.labels_with_prefix("raft."), vec![]);
        assert_eq!(m.labels_with_prefix("").len(), 3);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_source() {
        let base = || {
            let mut m = Metrics::new();
            m.incr("app.commit", 1);
            m.incr_label("paxos.accept", 1);
            m.incr("net.sent", 1);
            m.observe("lat", 3.0);
            m.timeline_push("tl", SimTime::from_millis(1), 1.0);
            m
        };
        let reference = base().fingerprint();
        assert_eq!(base().fingerprint(), reference, "fingerprint is stable");

        let mut m = base();
        m.incr("app.commit", 1);
        assert_ne!(m.fingerprint(), reference, "counter change must show");
        let mut m = base();
        m.incr_label("paxos.accept", 1);
        assert_ne!(m.fingerprint(), reference, "label change must show");
        let mut m = base();
        m.incr("net.sent", 1);
        assert_ne!(m.fingerprint(), reference, "net field change must show");
        let mut m = base();
        m.observe("lat", 4.0);
        assert_ne!(m.fingerprint(), reference, "histogram change must show");
        let mut m = base();
        m.timeline_push("tl", SimTime::from_millis(2), 1.0);
        assert_ne!(m.fingerprint(), reference, "timeline change must show");
    }

    #[test]
    fn snapshot_exports_everything_and_renders_stable_json() {
        let mut m = Metrics::new();
        m.incr("rsmr.applied", 3);
        m.incr("net.sent", 2);
        m.incr_label("paxos.accept", 4);
        for v in [1.0, 2.0, 3.0] {
            m.observe("lat_us", v);
        }
        m.timeline_push("rsmr.commits", SimTime::from_millis(5), 1.0);
        m.timeline_push("rsmr.commits", SimTime::from_millis(9), 2.0);

        let snap = m.snapshot();
        assert_eq!(
            snap.counters,
            vec![("net.sent".into(), 2), ("rsmr.applied".into(), 3)]
        );
        assert_eq!(snap.labels, vec![("paxos.accept".into(), 4)]);
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.mean, h.min, h.max), (3, 2.0, 1.0, 3.0));
        assert_eq!(snap.timelines.len(), 1);
        let t = &snap.timelines[0];
        assert_eq!(
            (t.points, t.first_us, t.last_us, t.total),
            (2, 5000, 9000, 3.0)
        );
        assert_eq!(snap.fingerprint, m.fingerprint());

        let json = snap.to_json();
        assert_eq!(json, m.snapshot().to_json(), "rendering is deterministic");
        assert!(json.starts_with("{\"fingerprint\":"));
        assert!(json.contains("\"rsmr.applied\":3"));
        assert!(json.contains("\"p50\":2"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn record_histograms_flow_through_fingerprint_snapshot_and_export() {
        let mut m = Metrics::new();
        m.incr("rsmr.applied", 1);
        m.observe("lat_us", 2.0);
        let before = m.fingerprint();
        m.record("paxos.batch_size", 0); // a zero-valued sample still counts
        assert_ne!(m.fingerprint(), before, "record change must show");
        m.record("paxos.batch_size", 64);

        let snap = m.snapshot();
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["lat_us", "paxos.batch_size"],
            "merged in name order"
        );
        let h = &snap.histograms[1];
        assert_eq!((h.count, h.min, h.max, h.p90), (2, 0.0, 64.0, 64.0));

        let export = m.export();
        assert_eq!(export.counters, vec![("rsmr.applied".into(), 1)]);
        assert_eq!(export.histograms.len(), 1);
        assert_eq!(export.histograms[0].0, "paxos.batch_size");
        assert_eq!(export.histograms[0].1.count(), 2);
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn out_of_range_points_are_ignored_by_binning() {
        let mut t = Timeline::default();
        t.push(SimTime::from_millis(100), 7.0);
        let bins = t.binned(
            SimTime::ZERO,
            SimTime::from_millis(50),
            SimDuration::from_millis(10),
        );
        assert!(bins.iter().all(|&(_, v)| v == 0.0));
    }
}
