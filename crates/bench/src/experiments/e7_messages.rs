//! **E7 (Table 4)** — message cost: per command and per reconfiguration.
//!
//! The composition is a router over unmodified building-block traffic, so
//! its steady-state message count per command should match the bare block
//! exactly; a reconfiguration costs one command in the old epoch plus
//! activation, transfer and catch-up traffic, quantified here by
//! differencing an idle run with and without one reconfiguration.

use simnet::SimTime;

use super::ExpOutput;
use crate::runner::{run as run_scenario, Scenario, SystemKind};
use crate::table::Table;

/// Steady-state messages per committed command.
pub struct SteadyRow {
    /// System under test.
    pub kind: SystemKind,
    /// Protocol messages per completed command.
    pub msgs_per_cmd: f64,
    /// Completions measured.
    pub completed: u64,
}

/// Runs the steady-state half.
pub fn run_steady(quick: bool) -> Vec<SteadyRow> {
    let horizon = SimTime::from_secs(if quick { 5 } else { 10 });
    let systems = [
        SystemKind::Static,
        SystemKind::Rsmr,
        SystemKind::Stw,
        SystemKind::Raft,
    ];
    systems
        .into_iter()
        .map(|kind| {
            let sc = Scenario::new(0xE7).clients(4).until(horizon);
            let out = run_scenario(kind, &sc);
            let prefix = if kind == SystemKind::Raft {
                "raft."
            } else {
                "paxos."
            };
            let msgs = out.msgs_with_prefix(prefix);
            SteadyRow {
                kind,
                msgs_per_cmd: msgs as f64 / out.completed.max(1) as f64,
                completed: out.completed,
            }
        })
        .collect()
}

/// Extra messages caused by one add-one-member reconfiguration, by label.
pub struct ReconfigCost {
    /// System under test.
    pub kind: SystemKind,
    /// `(label, extra messages)` sorted by label.
    pub extra: Vec<(String, i64)>,
    /// Total extra messages.
    pub total_extra: i64,
}

/// Runs the reconfiguration-cost half: identical idle runs (no clients),
/// with and without one reconfiguration; the counter difference is the
/// cost of the reconfiguration itself.
pub fn run_reconfig_cost(quick: bool) -> Vec<ReconfigCost> {
    let _ = quick;
    [SystemKind::Rsmr, SystemKind::Stw, SystemKind::Raft]
        .into_iter()
        .map(|kind| {
            let horizon = SimTime::from_secs(6);
            let idle = {
                let sc = Scenario::new(0xE7C).clients(0).until(horizon);
                run_scenario(kind, &sc)
            };
            let reconfig = {
                let sc = Scenario::new(0xE7C)
                    .clients(0)
                    .joiners(&[3])
                    .reconfigure_at(SimTime::from_secs(2), &[0, 1, 2, 3])
                    .until(horizon);
                run_scenario(kind, &sc)
            };
            let base = idle.metrics.labels_with_prefix("");
            let with = reconfig.metrics.labels_with_prefix("");
            let mut extra: Vec<(String, i64)> = Vec::new();
            for (label, count) in &with {
                let before = base
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                let diff = *count as i64 - before as i64;
                if diff != 0 {
                    extra.push(((*label).to_owned(), diff));
                }
            }
            let total_extra = extra.iter().map(|(_, d)| d).sum();
            ReconfigCost {
                kind,
                extra,
                total_extra,
            }
        })
        .collect()
}

/// Runs E7, returning the rendered text plus both tables.
pub fn run_structured(quick: bool) -> ExpOutput {
    let steady = run_steady(quick);
    let mut t = Table::new(
        "E7 / Table 4a — protocol messages per command (steady state)",
        &["system", "msgs/cmd", "commands measured"],
    );
    for r in &steady {
        t.row(&[
            r.kind.name().into(),
            format!("{:.2}", r.msgs_per_cmd),
            r.completed.to_string(),
        ]);
    }
    let mut out = t.render();

    let costs = run_reconfig_cost(quick);
    let mut t2 = Table::new(
        "E7 / Table 4b — extra messages for one add-one-member reconfiguration",
        &["system", "total extra msgs", "dominant kinds"],
    );
    for c in &costs {
        let mut sorted = c.extra.clone();
        sorted.sort_by_key(|(_, d)| -d);
        let top: Vec<String> = sorted
            .iter()
            .take(4)
            .map(|(l, d)| format!("{l}:{d}"))
            .collect();
        t2.row(&[
            c.kind.name().into(),
            c.total_extra.to_string(),
            top.join(" "),
        ]);
    }
    out.push_str(&t2.render());
    out.push_str(
        "Shape expected from the paper: rsmr's steady-state msgs/cmd matches \
         the bare block's (the composition adds no protocol overhead per \
         command; a log roll adds one handoff's messages per 16384 \
         commands); a reconfiguration costs a bounded burst of activation + \
         transfer + election traffic. (Most of the composed systems' \
         heartbeat delta is the steady cost of the larger successor \
         configuration plus the retire-grace overlap of two instances, not \
         per-reconfiguration traffic.)\n\n",
    );
    ExpOutput {
        histograms: Vec::new(),
        rendered: out,
        tables: vec![t, t2],
    }
}

/// Renders E7.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_composition_matches_block_msgs_per_cmd() {
        let steady = run_steady(true);
        let get = |k: SystemKind| {
            steady
                .iter()
                .find(|r| r.kind == k)
                .map(|r| r.msgs_per_cmd)
                .unwrap()
        };
        let staticp = get(SystemKind::Static);
        let rsmr = get(SystemKind::Rsmr);
        assert!(
            (rsmr - staticp).abs() / staticp < 0.15,
            "composition per-command message cost diverges: static={staticp:.2} rsmr={rsmr:.2}"
        );
    }

    #[test]
    fn e7_reconfig_costs_messages_but_not_many() {
        for c in run_reconfig_cost(true) {
            assert!(c.total_extra > 0, "{}", c.kind.name());
            assert!(
                c.total_extra < 20_000,
                "{} reconfig message burst suspiciously large: {}",
                c.kind.name(),
                c.total_extra
            );
        }
    }
}
