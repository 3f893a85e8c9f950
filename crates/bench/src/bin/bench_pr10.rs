//! Gate for the large-state transfer work (E14): runs the state-size
//! sweep (chunked vs monolithic handoff) and the rejoin-delta scenario,
//! writes `BENCH_PR10.json`, and exits non-zero if a gate fails:
//!
//! - chunked handoff-gap growth across the axis must stay ≤
//!   [`GATE_MAX_RSMR_GAP_GROWTH`]×,
//! - the monolithic control must grow ≥ `gate_min_stw_gap_growth(quick)`×
//!   (10× on the full axis, 4× on the trimmed quick axis — otherwise the
//!   comparison is vacuous),
//! - the rejoin delta must move < [`GATE_MAX_DELTA_PCT`]% of the fresh
//!   joiner's full-snapshot bytes.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_pr10 -- [--quick] [--out PATH]
//! ```
//!
//! Full mode sweeps 10³ → 10⁶ keys and matches the committed repo-root
//! `BENCH_PR10.json`; `--quick` trims the axis to 10³ → 10⁵ for CI smoke.

use std::fmt::Write as _;

use bench::experiments::e14_large_state::{
    gap_growth, gate_min_stw_gap_growth, rejoin_row, size_rows, GATE_MAX_DELTA_PCT,
    GATE_MAX_RSMR_GAP_GROWTH,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_PR10.json");

    let rows = size_rows(quick);
    let rejoin = rejoin_row(quick);
    let (rsmr_growth, stw_growth) = gap_growth(&rows);
    let stw_gate = gate_min_stw_gap_growth(quick);

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"experiment\": \"e14_large_state\",\n  \"mode\": \"{}\",\n  \
         \"gate_max_rsmr_gap_growth\": {GATE_MAX_RSMR_GAP_GROWTH},\n  \
         \"gate_min_stw_gap_growth\": {stw_gate},\n  \
         \"gate_max_delta_pct\": {GATE_MAX_DELTA_PCT},\n  \
         \"rsmr_gap_growth\": {rsmr_growth:.3},\n  \
         \"stw_gap_growth\": {stw_growth:.3},",
        if quick { "quick" } else { "full" },
    );
    json.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"keys\": {}, \"system\": \"{}\", \"handoff_gap_ms\": {:.3}, \
             \"client_gap_ms\": {}, \"p99_ms\": {:.3}, \"chunk_kib\": {:.1}, \
             \"seal_pages_reused\": {}, \"completed\": {}}}{}",
            r.keys,
            r.kind.name(),
            r.handoff_gap_ms,
            r.client_gap_ms,
            r.p99_ms,
            r.chunk_kib,
            r.seal_pages_reused,
            r.completed,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"rejoin\": {{\"keys\": {}, \"full_kib\": {:.1}, \"delta_kib\": {:.1}, \
         \"delta_pct\": {:.2}, \"delta_fallbacks\": {}, \"completed\": {}}}\n}}",
        rejoin.keys,
        rejoin.full_kib,
        rejoin.delta_kib,
        rejoin.delta_pct,
        rejoin.delta_fallbacks,
        rejoin.completed,
    );
    std::fs::write(out_path, &json).expect("write artifact");
    print!("{json}");

    // A NaN measurement fails every gate.
    let mut failed = false;
    if rsmr_growth.is_nan() || rsmr_growth > GATE_MAX_RSMR_GAP_GROWTH {
        eprintln!(
            "FAIL: chunked handoff gap grew {rsmr_growth:.2}x across the state \
             axis (gate: <= {GATE_MAX_RSMR_GAP_GROWTH}x)"
        );
        failed = true;
    }
    if stw_growth.is_nan() || stw_growth < stw_gate {
        eprintln!(
            "FAIL: monolithic control gap grew only {stw_growth:.2}x (expected \
             >= {stw_gate}x) — the comparison lost its contrast"
        );
        failed = true;
    }
    if rejoin.delta_pct.is_nan() || rejoin.delta_pct >= GATE_MAX_DELTA_PCT {
        eprintln!(
            "FAIL: rejoin delta moved {:.1}% of the full snapshot (gate: < \
             {GATE_MAX_DELTA_PCT}%)",
            rejoin.delta_pct
        );
        failed = true;
    }
    if rejoin.delta_kib <= 0.0 {
        eprintln!("FAIL: the rejoiner never took the delta path");
        failed = true;
    }
    if rows.iter().any(|r| r.completed == 0) {
        eprintln!("FAIL: a sweep row completed no client work");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gate ok: rsmr gap growth {rsmr_growth:.2}x <= {GATE_MAX_RSMR_GAP_GROWTH}x, \
         stw control {stw_growth:.1}x >= {stw_gate}x, rejoin delta \
         {:.1}% < {GATE_MAX_DELTA_PCT}%",
        rejoin.delta_pct
    );
}
