//! Arithmetic on recorded histories: percentiles, means, completion gaps
//! and the attempted/failed accounting. Pure functions over microsecond
//! timestamps, so the self-tests can feed them synthetic histories.

/// The value at quantile `q` of an ascending slice, nearest rank (the
/// convention `loadgen` and `LogHistogram::quantile` use). 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Median of unsorted floats; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    Some((at(1), at(3)))
}

/// One session's view of the run, microseconds on the fleet clock.
#[derive(Clone, Debug, Default)]
pub struct SessionTimes {
    /// `(send, reply)` of every completed operation, in issue order.
    /// `send` is the intended send time on the open-loop workload.
    pub completed: Vec<(u64, u64)>,
    /// Send time of the operation still unanswered when the fleet
    /// stopped, if any.
    pub pending_since: Option<u64>,
    /// `Some(interval)` for an open-loop session: arrivals keep coming at
    /// this spacing behind a stuck operation, and each one is owed a reply.
    pub arrival_interval_us: Option<u64>,
}

/// The measured window's accounting over all sessions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Operations whose (intended) send fell in the window.
    pub attempted: u64,
    /// Of those: never answered by the end of the drain, or answered
    /// later than the operation timeout.
    pub failed: u64,
    /// Operations whose reply arrived inside the window.
    pub acked_in_window: u64,
    /// Latencies of answered operations sent in the window, ascending.
    pub latencies_us: Vec<u64>,
    /// Mean latency of the operations sent in each of [`MEAN_SLICES`]
    /// equal slices of the window, in time order.
    pub slice_means_us: Vec<f64>,
    /// Reply times inside the window, ascending: the merged completion
    /// timeline.
    pub completions_us: Vec<u64>,
}

/// Slices the window is cut into for [`WindowStats::mean_latency_us`].
pub const MEAN_SLICES: usize = 5;

impl WindowStats {
    pub fn compute(sessions: &[SessionTimes], w0: u64, w1: u64, timeout_us: u64) -> Self {
        let mut s = WindowStats::default();
        let mut slices = [(0u64, 0u64); MEAN_SLICES];
        for session in sessions {
            for &(send, reply) in &session.completed {
                if (w0..w1).contains(&reply) {
                    s.completions_us.push(reply);
                }
                if (w0..w1).contains(&send) {
                    s.attempted += 1;
                    let latency = reply.saturating_sub(send);
                    if latency > timeout_us {
                        s.failed += 1;
                    } else {
                        s.latencies_us.push(latency);
                        let slice = (send - w0) as usize * MEAN_SLICES / (w1 - w0) as usize;
                        slices[slice].0 += latency;
                        slices[slice].1 += 1;
                    }
                }
            }
            if let Some(since) = session.pending_since.filter(|t| *t < w1) {
                // The stuck operation itself, plus on an open loop every
                // arrival queued behind it up to the window's end.
                let from = since.max(w0);
                let owed = match session.arrival_interval_us {
                    Some(interval) => 1 + (w1 - 1 - from) / interval.max(1),
                    None => u64::from(since >= w0),
                };
                s.attempted += owed;
                s.failed += owed;
            }
        }
        s.slice_means_us = slices
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|&(sum, n)| sum as f64 / n as f64)
            .collect();
        s.acked_in_window = s.completions_us.len() as u64;
        s.latencies_us.sort_unstable();
        s.completions_us.sort_unstable();
        s
    }

    /// The median slice's mean latency. The mean is the one latency figure
    /// that carries stalls, and on an open loop a single stall of D
    /// seconds adds rate x D^2 / 2 operation-seconds of lateness: one
    /// 0.23 s hiccup of the machine quintuples the mean of a 15 s window.
    /// Taking the median over five slices keeps what recurs (compaction,
    /// a hand-off every 2 s) and drops what happened once.
    pub fn mean_latency_us(&self) -> f64 {
        median_f64(&self.slice_means_us)
    }

    pub fn throughput_ops_s(&self, w0: u64, w1: u64) -> f64 {
        self.acked_in_window as f64 / ((w1 - w0) as f64 / 1e6)
    }

    /// Longest stretch of the window without a single reply, counting the
    /// stretches from the window's start and to its end.
    pub fn max_gap_us(&self, w0: u64, w1: u64) -> u64 {
        longest_gap(&self.completions_us, w0, w1)
    }
}

/// Longest interval inside `[from, to]` containing no completion.
/// `completions` is ascending.
pub fn longest_gap(completions: &[u64], from: u64, to: u64) -> u64 {
    let lo = completions.partition_point(|&t| t < from);
    let hi = completions.partition_point(|&t| t <= to);
    let mut prev = from;
    let mut longest = 0;
    for &t in &completions[lo..hi] {
        longest = longest.max(t - prev);
        prev = t;
    }
    longest.max(to.saturating_sub(prev))
}

/// Per reconfiguration `(sent, acked)`: the longest completion gap in
/// `[sent, acked + 0.5 s]`, the client-observed hand-off gap. Measured on
/// the merged timeline of a closed-loop fleet, so coordinated omission
/// cannot hide it: a stalled service shows as a hole, whatever latency
/// the few in-flight operations report. `until` is where the timeline
/// ends; nothing past it counts as a hole.
pub fn handoff_gaps(completions: &[u64], reconfigs: &[(u64, u64)], until: u64) -> Vec<u64> {
    const TAIL_US: u64 = 500_000;
    reconfigs
        .iter()
        .map(|&(sent, acked)| longest_gap(completions, sent, (acked + TAIL_US).min(until)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51); // round(99 * 0.5) = 50 → v[50]
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[100, 200, 600]), 300.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates; we clamp to the data instead.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
        assert!(quartiles(&[1.0]).is_none());
    }

    fn closed(completed: &[(u64, u64)], pending: Option<u64>) -> SessionTimes {
        SessionTimes {
            completed: completed.to_vec(),
            pending_since: pending,
            arrival_interval_us: None,
        }
    }

    #[test]
    fn window_counts_by_send_for_latency_and_by_reply_for_throughput() {
        // Window [1000, 2000).
        let s = closed(
            &[
                (900, 950),   // warm-up: neither
                (980, 1010),  // sent before, replied inside: throughput only
                (1100, 1150), // both
                (1990, 2040), // sent inside, replied after: latency only
                (2050, 2100), // after: neither
            ],
            Some(2100),
        );
        let w = WindowStats::compute(&[s], 1000, 2000, 5_000_000);
        assert_eq!(w.attempted, 2);
        assert_eq!(w.failed, 0);
        assert_eq!(w.acked_in_window, 2);
        assert_eq!(w.latencies_us, vec![50, 50]);
        assert_eq!(w.throughput_ops_s(1000, 2000), 2000.0);
        // Sent at 1100 (first fifth) and 1990 (last fifth).
        assert_eq!(w.slice_means_us, vec![50.0, 50.0]);
    }

    #[test]
    fn the_mean_keeps_stalls_that_recur_and_drops_one_that_does_not() {
        // One operation per millisecond for 5 s, 100 us each; window
        // [0, 5 s), so a slice is 1 s.
        let ops = |slow: &dyn Fn(u64) -> bool| {
            let completed = (0..5000u64)
                .map(|i| {
                    let send = i * 1000;
                    (send, send + if slow(i) { 10_100 } else { 100 })
                })
                .collect::<Vec<_>>();
            WindowStats::compute(&[closed(&completed, None)], 0, 5_000_000, 5_000_000)
        };
        // A single 50-operation stall in the second slice.
        let once = ops(&|i| (1500..1550).contains(&i));
        assert_eq!(once.slice_means_us, vec![100.0, 600.0, 100.0, 100.0, 100.0]);
        assert_eq!(once.mean_latency_us(), 100.0);
        assert_eq!(mean(&once.latencies_us), 200.0);
        // The same stall in every slice.
        let recurring = ops(&|i| (500..550).contains(&(i % 1000)));
        assert_eq!(recurring.mean_latency_us(), 600.0);
    }

    #[test]
    fn unanswered_and_late_operations_fail() {
        // A closed-loop session stuck on an op sent inside the window.
        let stuck = closed(&[(1100, 1200)], Some(1200));
        // One whose only in-window reply took longer than the timeout.
        let late = closed(&[(1000, 1000 + 6_000_000)], None);
        // One stuck since before the window: not attempted inside it.
        let before = closed(&[], Some(500));
        let w = WindowStats::compute(&[stuck, late, before], 1000, 2000, 5_000_000);
        assert_eq!(w.attempted, 3);
        assert_eq!(w.failed, 2);
        assert_eq!(w.latencies_us, vec![100]);
    }

    #[test]
    fn open_loop_arrivals_behind_a_stuck_operation_all_fail() {
        // Arrivals every 100 us; the session stops answering at t=1500,
        // so the arrivals at 1500, 1600, ..., 1900 are owed replies.
        let s = SessionTimes {
            completed: vec![(1400, 1450)],
            pending_since: Some(1500),
            arrival_interval_us: Some(100),
        };
        let w = WindowStats::compute(&[s], 1000, 2000, 5_000_000);
        assert_eq!(w.attempted, 1 + 5);
        assert_eq!(w.failed, 5);
        // Stuck since before the window: every in-window arrival fails.
        let s = SessionTimes {
            completed: Vec::new(),
            pending_since: Some(0),
            arrival_interval_us: Some(100),
        };
        let w = WindowStats::compute(&[s], 1000, 2000, 5_000_000);
        assert_eq!((w.attempted, w.failed), (10, 10));
    }

    #[test]
    fn gaps_include_the_edges_of_the_interval() {
        let c = [100, 200, 900, 950];
        assert_eq!(longest_gap(&c, 0, 1000), 700);
        assert_eq!(longest_gap(&c, 0, 5000), 4050); // tail to the end
        assert_eq!(longest_gap(&c, 300, 800), 500); // nothing inside
        assert_eq!(longest_gap(&[], 10, 20), 10);
    }

    #[test]
    fn handoff_gap_is_the_hole_around_each_reconfiguration() {
        // Replies every 1 ms, except a 180 ms hole starting at t=2.0 s.
        let mut c: Vec<u64> = (0..4000).map(|i| i * 1000).collect();
        c.retain(|&t| !(2_000_000..2_180_000).contains(&t));
        let swaps = [(1_990_000, 2_010_000), (3_000_000, 3_005_000)];
        assert_eq!(handoff_gaps(&c, &swaps, 4_000_000), vec![181_000, 1000]);
        // A timeline that ends before the tail does is not a stall.
        c.retain(|&t| t < 3_100_000);
        assert_eq!(handoff_gaps(&c, &swaps, 3_100_000), vec![181_000, 1000]);
    }
}
