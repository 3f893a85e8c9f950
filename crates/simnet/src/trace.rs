//! A bounded textual trace of simulation events, for debugging failed runs.

use std::collections::VecDeque;

use crate::sim::NodeId;
use crate::time::SimTime;

/// A ring buffer of human-readable trace lines.
///
/// Tracing is off by default; [`crate::Sim::enable_trace`] turns it on. The
/// closure-based [`crate::Context::trace`] API means disabled tracing costs
/// only a branch.
#[derive(Clone, Debug)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    lines: VecDeque<String>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            enabled: false,
            capacity: 10_000,
            lines: VecDeque::new(),
        }
    }
}

impl Trace {
    /// Creates a disabled trace with the given line capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            enabled: false,
            capacity,
            lines: VecDeque::new(),
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a line if enabled, evicting the oldest line when full.
    pub fn record(&mut self, now: SimTime, node: NodeId, line: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back(format!("[{now} {node}] {}", line()));
    }

    /// The retained lines, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.lines.iter().map(String::as_str)
    }

    /// Renders the retained lines joined by newlines.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// An FNV-1a digest of the retained lines, for cheap equality checks in
    /// determinism tests (two runs with the same seed must produce the same
    /// digest).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for line in &self.lines {
            for b in line.as_bytes() {
                h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
            }
            h = (h ^ u64::from(b'\n')).wrapping_mul(0x100000001b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(SimTime::ZERO, NodeId(1), || "should not appear".into());
        assert_eq!(t.lines().count(), 0);
    }

    #[test]
    fn enabled_trace_records_with_context() {
        let mut t = Trace::default();
        t.set_enabled(true);
        t.record(SimTime::from_millis(1), NodeId(2), || "hello".into());
        let dump = t.dump();
        assert!(dump.contains("hello"), "{dump}");
        assert!(dump.contains("n2"), "{dump}");
    }

    #[test]
    fn digest_is_stable_across_clone_and_sensitive_to_content() {
        let mut t = Trace::default();
        t.set_enabled(true);
        t.record(SimTime::from_millis(1), NodeId(2), || "alpha".into());
        t.record(SimTime::from_millis(2), NodeId(3), || "beta".into());
        let cloned = t.clone();
        assert_eq!(t.digest(), cloned.digest(), "clone must hash identically");
        let mut extended = t.clone();
        extended.record(SimTime::from_millis(3), NodeId(2), || "gamma".into());
        assert_ne!(t.digest(), extended.digest());
    }

    #[test]
    fn trace_is_bounded() {
        let mut t = Trace::with_capacity(3);
        t.set_enabled(true);
        for i in 0..10 {
            t.record(SimTime::ZERO, NodeId(1), || format!("line{i}"));
        }
        let lines: Vec<_> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("line7"));
        assert!(lines[2].contains("line9"));
    }
}
