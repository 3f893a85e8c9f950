//! Regenerates every experiment table and figure (see `EXPERIMENTS.md`).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_all            # all experiments
//! cargo run --release -p bench --bin exp_all -- --list  # ids + one-liners
//! cargo run --release -p bench --bin exp_all -- e2 e5   # a subset
//! cargo run --release -p bench --bin exp_all -- --quick # trimmed sweeps
//! cargo run --release -p bench --bin exp_all -- --json artifacts/
//! cargo run --release -p bench --bin exp_all -- chaos --seeds 64      # nightly sweep
//! cargo run --release -p bench --bin exp_all -- chaos --seeds 1@7     # replay seed 7
//! cargo run --release -p bench --bin exp_all -- chaos --coverage 24   # coverage comparison
//! cargo run --release -p bench --bin exp_all -- chaos --replay 0x1:4#13  # replay a lineage
//! ```
//!
//! `--json <dir>` additionally writes one machine-readable artifact per
//! experiment (`<dir>/<id>.jsonl`, schema in `EXPERIMENTS.md`). Artifacts
//! contain no timestamps or host data: two runs of the same build are
//! byte-identical.
//!
//! `--seeds N[@BASE]` overrides the chaos sweep's seed set with
//! `BASE..BASE+N` (default base 1). When any seed fails, the process exits
//! non-zero after printing a one-command replay line per failing seed.
//!
//! `--coverage N` runs only the coverage-guided-vs-uniform comparison at a
//! budget of N runs per arm, exiting non-zero if any run fails safety or
//! the guided arm misses the recorded coverage-gain gate. `--replay
//! <lineage>` replays one coverage candidate (`base[:m1,m2,..][#perm]`,
//! as printed in failure reports) across every swept system.

use std::time::Instant;

use bench::experiments::{self, chaos_sweep, ExpOutput};

/// One experiment's output and wall seconds.
type Slot = std::sync::Mutex<Option<(ExpOutput, f64)>>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in experiments::ALL {
            println!("{id:<6} {}", experiments::describe(id));
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir: Option<String> = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args.iter().any(|a| a == "--json") && json_dir.is_none() {
        eprintln!("--json requires a directory argument");
        std::process::exit(2);
    }
    // Create the artifact directory up front: an unwritable path should
    // fail before hours of experiments, not after.
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create artifact directory {dir}: {e}");
            std::process::exit(2);
        }
        let probe = format!("{dir}/.writable-probe");
        if let Err(e) = std::fs::write(&probe, b"") {
            eprintln!("artifact directory {dir} is not writable: {e}");
            std::process::exit(2);
        }
        let _ = std::fs::remove_file(&probe);
    }
    // `--seeds N[@BASE]` — chaos sweep seed-set override (nightly / replay).
    let seeds_arg: Option<String> = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let chaos_seeds: Option<Vec<u64>> = match (args.iter().any(|a| a == "--seeds"), &seeds_arg) {
        (false, _) => None,
        (true, None) => {
            eprintln!("--seeds requires N or N@BASE");
            std::process::exit(2);
        }
        (true, Some(spec)) => {
            let (n, base) = match spec.split_once('@') {
                Some((n, b)) => (n.parse::<u64>(), b.parse::<u64>()),
                None => (spec.parse::<u64>(), Ok(1)),
            };
            match (n, base) {
                (Ok(n), Ok(b)) => Some(chaos_sweep::seed_range(n, b)),
                _ => {
                    eprintln!("--seeds requires N or N@BASE (got {spec})");
                    std::process::exit(2);
                }
            }
        }
    };
    // `--coverage N` — run only the coverage comparison at budget N/arm.
    let coverage_arg: Option<usize> = match args.iter().position(|a| a == "--coverage") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|n| n.parse::<usize>().ok()) {
            Some(n) if n > 0 => Some(n),
            _ => {
                eprintln!("--coverage requires a positive run budget");
                std::process::exit(2);
            }
        },
    };
    // `--replay LINEAGE` — replay one coverage candidate on every system.
    let replay_arg: Option<simnet::PlanLineage> = match args.iter().position(|a| a == "--replay") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|s| simnet::PlanLineage::parse(s)) {
            Some(l) => Some(l),
            None => {
                eprintln!("--replay requires a lineage (base[:m1,m2,..][#perm])");
                std::process::exit(2);
            }
        },
    };
    if let Some(lineage) = replay_arg {
        std::process::exit(replay_lineage(&lineage));
    }
    if let Some(budget) = coverage_arg {
        std::process::exit(run_coverage_only(budget, &json_dir, quick));
    }
    let mut skip_next = false;
    let selected: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--json" || *a == "--seeds" || *a == "--coverage" || *a == "--replay" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .cloned()
        .collect();
    let ids: Vec<&str> = if selected.is_empty() {
        experiments::ALL.to_vec()
    } else {
        selected.iter().map(String::as_str).collect()
    };
    // A typo must fail the run before any experiment does.
    if let Some(bad) = ids.iter().find(|id| !experiments::ALL.contains(id)) {
        eprintln!(
            "unknown experiment id: {bad} (valid: {:?})",
            experiments::ALL
        );
        std::process::exit(2);
    }
    // The chaos sweep runs outside the experiment pool: it fans its own
    // `(seed, system)` jobs across cores and needs its failing-seed list
    // for the exit code.
    let chaos_selected = ids.contains(&"chaos");
    let ids: Vec<&str> = ids.into_iter().filter(|&id| id != "chaos").collect();

    println!("# Reconfigurable SMR — experiment suite");
    println!(
        "# mode: {}; all measurements are in deterministic virtual time\n",
        if quick { "quick" } else { "full" }
    );
    let total = Instant::now();
    // Experiments are independent of one another (each builds its own
    // simulations from fixed seeds), so fan them across the available cores
    // — bounded by `available_parallelism` so a small box is not thrashed —
    // and print the finished outputs in presentation order.
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(ids.len().max(1));
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Slot> = ids.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&id) = ids.get(i) else { break };
                let start = Instant::now();
                let out = experiments::run_structured(id, quick).expect("ids were validated");
                *slots[i].lock().expect("result slot") = Some((out, start.elapsed().as_secs_f64()));
            });
        }
    });
    let results: Vec<(&str, ExpOutput, f64)> = ids
        .iter()
        .zip(slots)
        .map(|(&id, slot)| {
            let (out, secs) = slot
                .into_inner()
                .expect("unpoisoned")
                .expect("worker filled every slot");
            (id, out, secs)
        })
        .collect();
    for (id, output, secs) in results {
        print!("{}", output.rendered);
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.jsonl");
            match std::fs::write(&path, output.to_jsonl(id, quick)) {
                Ok(()) => eprintln!("[{id} artifact: {path}]"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!("[{id} done in {secs:.1}s wall]");
    }
    let mut failed = false;
    if chaos_selected {
        // A `--seeds` override is a replay / custom sweep: uniform arm
        // only. The default run adds the coverage comparison.
        let coverage_budget = match &chaos_seeds {
            Some(_) => None,
            None => Some(if quick { 8 } else { 24 }),
        };
        let seeds =
            chaos_seeds.unwrap_or_else(|| chaos_sweep::seed_range(if quick { 8 } else { 24 }, 1));
        let start = Instant::now();
        let outcome = chaos_sweep::run_sweep(&seeds, coverage_budget);
        print!("{}", outcome.output.rendered);
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/chaos.jsonl");
            match std::fs::write(&path, outcome.output.to_jsonl("chaos", quick)) {
                Ok(()) => eprintln!("[chaos artifact: {path}]"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!(
            "[chaos done in {:.1}s wall, {} seeds]",
            start.elapsed().as_secs_f64(),
            seeds.len()
        );
        if !outcome.failing_seeds.is_empty() {
            eprintln!("chaos sweep FAILED on seeds {:?}", outcome.failing_seeds);
            failed = true;
        }
        if !outcome.failing_lineages.is_empty() {
            let lineages: Vec<String> = outcome
                .failing_lineages
                .iter()
                .map(|l| l.to_string())
                .collect();
            eprintln!("chaos coverage runs FAILED on lineages {lineages:?}");
            failed = true;
        }
        if !outcome.coverage_gate_ok {
            eprintln!(
                "chaos coverage gate FAILED: guided coverage gain below {}%",
                chaos_sweep::GATE_MIN_COVERAGE_GAIN_PCT
            );
            failed = true;
        }
    }
    eprintln!("[suite done in {:.1}s wall]", total.elapsed().as_secs_f64());
    if failed {
        std::process::exit(1);
    }
}

/// Replays one coverage lineage on every swept system; returns the exit
/// code (0 iff safety and liveness held everywhere).
fn replay_lineage(lineage: &simnet::PlanLineage) -> i32 {
    use bench::runner::run;
    use kvstore::{linearizable, KvStore};

    let sc = chaos_sweep::lineage_scenario(lineage);
    println!("# replay lineage {lineage}");
    println!("# plan: {}", sc.faults.describe());
    let mut ok = true;
    for kind in chaos_sweep::SWEPT {
        let out = run(kind, &sc);
        let linear = linearizable(KvStore::new(), &out.histories);
        let expected = sc.n_clients * sc.ops_per_client.unwrap_or(0);
        let passed = out.invariant_violations.is_empty() && linear && out.completed == expected;
        println!(
            "{:<14} completed {}/{} invariants {} linearizable {} signature {:#04x} -> {}",
            kind.name(),
            out.completed,
            expected,
            if out.invariant_violations.is_empty() {
                "clean".to_string()
            } else {
                format!("{} VIOLATIONS", out.invariant_violations.len())
            },
            if linear { "PASS" } else { "FAIL" },
            out.lifecycle_signature,
            if passed { "ok" } else { "FAILED" },
        );
        for v in &out.invariant_violations {
            println!("  violation: {v}");
        }
        if !passed {
            for (at, line) in &out.chaos_log {
                println!("  chaos @{at:?}: {line}");
            }
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// Runs only the coverage comparison; returns the exit code (0 iff every
/// run was safe + live and the guided arm held the coverage-gain gate).
fn run_coverage_only(budget: usize, json_dir: &Option<String>, quick: bool) -> i32 {
    let start = Instant::now();
    let report = chaos_sweep::run_coverage(budget, 1);
    let (runs, summary) = chaos_sweep::coverage_tables(&report);
    print!("{}", runs.render());
    print!("{}", summary.render());
    println!(
        "corpus ({} lineages with novel coverage):",
        report.corpus.len()
    );
    for l in &report.corpus {
        println!("  {l}");
    }
    if let Some(dir) = json_dir {
        let output = ExpOutput {
            histograms: Vec::new(),
            rendered: String::new(),
            tables: vec![runs, summary],
        };
        let path = format!("{dir}/chaos_coverage.jsonl");
        match std::fs::write(&path, output.to_jsonl("chaos_coverage", quick)) {
            Ok(()) => eprintln!("[chaos_coverage artifact: {path}]"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    eprintln!(
        "[coverage comparison done in {:.1}s wall, {} runs/arm]",
        start.elapsed().as_secs_f64(),
        budget
    );
    let mut code = 0;
    let failing = report.failing_lineages();
    if !failing.is_empty() {
        eprintln!("coverage runs FAILED — replay with --replay <lineage>:");
        for l in &failing {
            eprintln!("  cargo run --release -p bench --bin exp_all -- chaos --replay {l}");
        }
        code = 1;
    }
    if !report.gate_ok() {
        eprintln!(
            "coverage gate FAILED: {:+.1}% gain is below the recorded {}% gate",
            report.gain_pct(),
            chaos_sweep::GATE_MIN_COVERAGE_GAIN_PCT
        );
        code = 1;
    } else {
        eprintln!(
            "coverage gate ok: {:+.1}% gain >= {}%",
            report.gain_pct(),
            chaos_sweep::GATE_MIN_COVERAGE_GAIN_PCT
        );
    }
    code
}
