//! `compare A.json B.json`: one verdict per (end-to-end metric, workload)
//! pair, using the bounds fixed in `spec`. A is the baseline. This is
//! the tool for the two-set acceptance check and for every later change.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median_f64, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Not decidable from these files: the metric is missing, a run was
    /// incorrect, or one side's own runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one workload, as read from a result file.
#[derive(Clone, Debug, Default)]
pub struct Side {
    pub all_correct: bool,
    pub attempted: f64,
    pub failed: f64,
    /// Per metric, the value of every run.
    pub values: Vec<(String, Vec<f64>)>,
}

impl Side {
    pub fn read(doc: &Json, workload: &str) -> Option<Side> {
        let runs = doc.get("workloads")?.get(workload)?.get("runs")?.as_arr()?;
        let mut side = Side {
            all_correct: !runs.is_empty(),
            ..Side::default()
        };
        for run in runs {
            side.all_correct &= run.get("correct").and_then(Json::as_bool) == Some(true);
            side.attempted += run.get("attempted").and_then(Json::as_f64)?;
            side.failed += run.get("failed").and_then(Json::as_f64)?;
            for (name, m) in run.get("metrics")?.as_obj()? {
                let value = m.get("value").and_then(Json::as_f64)?;
                match side.values.iter_mut().find(|(n, _)| n == name) {
                    Some((_, vs)) => vs.push(value),
                    None => side.values.push((name.clone(), vec![value])),
                }
            }
        }
        Some(side)
    }

    fn of(&self, metric: &str) -> Option<&[f64]> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| v.as_slice())
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Distance between the first and third quartile as a share of the
/// median; `None` below four values, where quartiles say nothing.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median_f64(values).abs().max(f64::MIN_POSITIVE))
}

/// How much worse `b` is than `a` as a share of `a`; negative = better.
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn verdict(m: &EndToEnd, a: Option<&Side>, b: Option<&Side>) -> (Verdict, String) {
    let (Some(a), Some(b)) = (a, b) else {
        return (Verdict::Unresolved, "workload missing on one side".into());
    };
    if !(a.all_correct && b.all_correct) {
        return (
            Verdict::Unresolved,
            "a run failed its correctness check".into(),
        );
    }
    let (Some(va), Some(vb)) = (a.of(m.name), b.of(m.name)) else {
        return (Verdict::Unresolved, "metric missing on one side".into());
    };
    let (ma, mb) = (median_f64(va), median_f64(vb));
    let change = worsening(m, ma, mb);
    let detail = format!("{ma:.4} -> {mb:.4} ({:+.1}% worse)", change * 100.0);
    let too_wide = [va, vb].into_iter().filter_map(spread).any(|s| s > m.bound);
    let v = if !change.is_finite() || too_wide {
        Verdict::Unresolved
    } else if change > m.bound {
        Verdict::Worse
    } else if change < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, detail)
}

/// Renders the verdict table; the flag says whether B may land: no
/// `worse` and no rise in the share of failed operations.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let (sa, sb) = (Side::read(a, w.name), Side::read(b, w.name));
        for m in &END_TO_END {
            let (v, detail) = verdict(m, sa.as_ref(), sb.as_ref());
            ok &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:<10} bound {:>4.0}%  {detail}",
                w.name,
                m.name,
                v.as_str(),
                m.bound * 100.0
            );
        }
        if let (Some(sa), Some(sb)) = (&sa, &sb) {
            let (fa, fb) = (sa.failed_ratio(), sb.failed_ratio());
            let rose = fb > fa;
            ok &= !rose;
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:<10} any rise    {fa:.6} -> {fb:.6}",
                w.name,
                "failed_ratio",
                if rose { "worse" } else { "same" }
            );
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(throughput: &[f64], failed: f64, correct: bool) -> Json {
        let runs = throughput
            .iter()
            .map(|&t| {
                Json::obj(vec![
                    ("correct", Json::Bool(correct)),
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(failed)),
                    (
                        "metrics",
                        Json::obj(vec![(
                            "throughput_ops_s",
                            Json::obj(vec![("value", Json::Num(t)), ("unit", Json::str("1/s"))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "steady_small",
                Json::obj(vec![("runs", Json::Arr(runs))]),
            )]),
        )])
    }

    fn throughput_verdict(a: &Json, b: &Json) -> Verdict {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_ops_s")
            .unwrap();
        let (sa, sb) = (Side::read(a, "steady_small"), Side::read(b, "steady_small"));
        verdict(m, sa.as_ref(), sb.as_ref()).0
    }

    #[test]
    fn higher_is_better_metrics_compare_the_right_way_round() {
        let base = doc(&[1000.0], 0.0, true);
        assert_eq!(
            throughput_verdict(&base, &doc(&[1050.0], 0.0, true)),
            Verdict::Same
        );
        assert_eq!(
            throughput_verdict(&base, &doc(&[700.0], 0.0, true)),
            Verdict::Worse
        );
        assert_eq!(
            throughput_verdict(&base, &doc(&[1300.0], 0.0, true)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_and_incorrect_runs_are_unresolved() {
        let base = doc(&[1000.0, 1010.0, 990.0, 1005.0], 0.0, true);
        let noisy = doc(&[600.0, 1000.0, 1400.0, 800.0, 1200.0], 0.0, true);
        assert_eq!(throughput_verdict(&base, &noisy), Verdict::Unresolved);
        assert_eq!(
            throughput_verdict(&base, &doc(&[1000.0], 0.0, false)),
            Verdict::Unresolved
        );
        assert_eq!(
            throughput_verdict(
                &base,
                &Json::obj(vec![("workloads", Json::Obj(Vec::new()))])
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_rise_in_failed_operations_blocks() {
        let base = doc(&[1000.0], 0.0, true);
        let (_, ok) = compare(&base, &doc(&[1000.0], 0.0, true));
        assert!(ok);
        let (table, ok) = compare(&base, &doc(&[1000.0], 1.0, true));
        assert!(!ok);
        assert!(table.contains("failed_ratio"));
        let (_, ok) = compare(&base, &doc(&[700.0], 0.0, true));
        assert!(!ok, "a worse metric blocks too");
    }
}
