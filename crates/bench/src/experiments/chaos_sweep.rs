//! **Chaos** — seeded fault-schedule sweep plus a coverage-guided mode.
//!
//! ## Uniform safety sweep
//!
//! Every seed deterministically expands (via [`simnet::ChaosGen`]) into a
//! [`simnet::FaultPlan`] of crashes-with-restart, partitions, link
//! degradation, message-corruption windows and disk faults aimed at role
//! targets (leader, transfer donor, joiner), fired while a reconfiguration
//! and a client workload are in flight. For each seed the composed machine
//! and the raft baseline must stay *safe* (invariant observer clean,
//! client history linearizable) and *live* (every client op completes once
//! the faults heal).
//!
//! A failing seed is fully described by its number: replay it with
//!
//! ```sh
//! cargo run --release -p bench --bin exp_all -- chaos --seeds 1@<seed>
//! ```
//!
//! ## Coverage-guided mode
//!
//! The uniform sweep draws every fault plan independently; it has no
//! notion of which executions it has already seen. The coverage-guided
//! mode closes that loop: each run reports its event-digest prefix
//! checkpoints ([`simnet::EventDigest::prefix_digests`]) and its
//! lifecycle-interleaving signature ([`simnet::LifecycleCoverage`]), a
//! [`simnet::CoverageMap`] accumulates them across runs, and candidates
//! that contributed *novel* coverage join a corpus. Subsequent candidates
//! are deterministic mutations of corpus parents
//! ([`simnet::mutate_plan`] via [`PlanLineage::child`]) combined with a
//! DPOR-flavoured sweep of the 27 fixed delivery-order assignments for
//! the three inter-server links ([`simnet::link_delay_permutation`] via
//! [`PlanLineage::with_perm`]).
//!
//! The comparison harness holds the *simulator* seed fixed
//! ([`COVERAGE_SIM_SEED`]) in both arms so the measured quantity is the
//! exploration power of the *sweep strategy* — how plans and delivery
//! orders are chosen — not the incidental entropy of network latency
//! draws. Under a fixed simulator seed every uniform run replays the same
//! event prefix until its first fault fires (the plan only diverges the
//! execution from `FAULTS_FROM` onwards), while guided candidates also
//! diverge *before* the first fault through the delivery-order
//! permutation. The gate: at equal run budget, guided coverage must find
//! at least [`GATE_MIN_COVERAGE_GAIN_PCT`]% more unique digest prefixes
//! than uniform sampling.
//!
//! A coverage candidate is fully described by its printed lineage
//! (`base[:m1,m2,..][#perm]`): replay it with
//!
//! ```sh
//! cargo run --release -p bench --bin exp_all -- chaos --replay <lineage>
//! ```

use kvstore::{linearizable, KvStore};
use simnet::{ChaosGen, CoverageMap, PlanLineage, SimTime};

use super::ExpOutput;
use crate::runner::{run_many, Scenario, SystemKind};
use crate::table::Table;

const RECONFIG_AT: SimTime = SimTime::from_millis(400);
/// Faults fire inside this window — before, during and after the handoff.
const FAULTS_FROM: SimTime = SimTime::from_millis(200);
const FAULTS_UNTIL: SimTime = SimTime::from_millis(1_500);
const FAULTS_PER_SEED: usize = 3;
const OPS_PER_CLIENT: u64 = 600;
const N_CLIENTS: u64 = 2;

/// Fixed simulator seed for both arms of the coverage comparison (see the
/// module docs for why the simulator seed is held constant).
pub const COVERAGE_SIM_SEED: u64 = 0x5EED;
/// The nightly gate: guided coverage must beat uniform unique-prefix
/// coverage by at least this much at equal run budget.
pub const GATE_MIN_COVERAGE_GAIN_PCT: f64 = 25.0;
/// Candidates per guided generation: the corpus is consulted between
/// generations (runs within a generation fan across cores).
const GENERATION: usize = 8;

/// The systems the sweep holds to the safety + liveness bar. The batched
/// composition runs the same fault plans with the leader accumulator and
/// pipelined window live, so crashes land mid-batch-flush.
pub const SWEPT: [SystemKind; 3] = [SystemKind::Rsmr, SystemKind::RsmrBatched, SystemKind::Raft];

/// One `(seed, system)` outcome.
pub struct SeedRow {
    /// The chaos seed (fully determines the fault plan).
    pub seed: u64,
    /// System under test.
    pub kind: SystemKind,
    /// Human-readable plan, for failure reports.
    pub plan: String,
    /// Client completions observed / expected.
    pub completed: u64,
    /// Expected completions (all clients finish once faults heal).
    pub expected: u64,
    /// Safety violations from the invariant observer.
    pub invariant_violations: Vec<String>,
    /// Linearizability of the recorded client history.
    pub linearizable: bool,
}

impl SeedRow {
    /// Safety and liveness both held.
    pub fn passed(&self) -> bool {
        self.invariant_violations.is_empty() && self.linearizable && self.completed == self.expected
    }
}

/// The deterministic scenario a chaos seed expands into.
pub fn scenario_for(seed: u64) -> Scenario {
    let plan = ChaosGen::new(seed).sample(FAULTS_FROM, FAULTS_UNTIL, FAULTS_PER_SEED);
    let mut sc = Scenario::new(seed)
        .clients(N_CLIENTS)
        .joiners(&[3])
        .reconfigure_at(RECONFIG_AT, &[0, 1, 2, 3])
        .with_faults(plan)
        .checked()
        .until(SimTime::from_secs(30));
    sc.ops_per_client = Some(OPS_PER_CLIENT);
    sc.record_history = true;
    sc
}

/// The deterministic scenario a coverage lineage expands into: same
/// workload and safety checks as [`scenario_for`], but the simulator seed
/// is pinned to [`COVERAGE_SIM_SEED`], event probes are on (the coverage
/// signals come from them), and a non-zero `perm` pins the inter-server
/// delivery orders.
pub fn lineage_scenario(l: &PlanLineage) -> Scenario {
    let plan = l.materialize(FAULTS_FROM, FAULTS_UNTIL, FAULTS_PER_SEED);
    let mut sc = Scenario::new(COVERAGE_SIM_SEED)
        .clients(N_CLIENTS)
        .joiners(&[3])
        .reconfigure_at(RECONFIG_AT, &[0, 1, 2, 3])
        .with_faults(plan)
        .checked()
        .with_events()
        .until(SimTime::from_secs(30));
    if l.perm != 0 {
        sc = sc.delay_perm(l.perm);
    }
    sc.ops_per_client = Some(OPS_PER_CLIENT);
    sc.record_history = true;
    sc
}

/// Runs the sweep over `seeds`, fanning `(seed, system)` jobs across cores.
pub fn run_rows(seeds: &[u64]) -> Vec<SeedRow> {
    let jobs: Vec<(SystemKind, Scenario)> = seeds
        .iter()
        .flat_map(|&s| SWEPT.into_iter().map(move |k| (k, scenario_for(s))))
        .collect();
    let outs = run_many(jobs.clone());
    jobs.iter()
        .zip(outs)
        .map(|((kind, sc), out)| SeedRow {
            seed: sc.seed,
            kind: *kind,
            plan: sc.faults.describe(),
            completed: out.completed,
            expected: N_CLIENTS * OPS_PER_CLIENT,
            invariant_violations: out.invariant_violations,
            linearizable: linearizable(KvStore::new(), &out.histories),
        })
        .collect()
}

/// The seeds whose runs failed on any system, deduplicated, in order.
pub fn failing_seeds(rows: &[SeedRow]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for r in rows.iter().filter(|r| !r.passed()) {
        if !out.contains(&r.seed) {
            out.push(r.seed);
        }
    }
    out
}

/// The default seed set: `base..base+n`.
pub fn seed_range(n: u64, base: u64) -> Vec<u64> {
    (base..base.saturating_add(n)).collect()
}

/// One coverage-comparison run outcome.
pub struct CoverageRow {
    /// `"uniform"` or `"coverage"`.
    pub mode: &'static str,
    /// The full plan lineage — the replay key.
    pub lineage: PlanLineage,
    /// Human-readable plan, for failure reports.
    pub plan: String,
    /// Novel coverage units (digest prefixes + signatures) this run
    /// contributed to its arm's map.
    pub novel: u64,
    /// Digest-prefix checkpoints the run recorded.
    pub checkpoints: usize,
    /// The run's lifecycle-interleaving signature bitmask.
    pub signature: u64,
    /// Client completions observed / expected.
    pub completed: u64,
    /// Expected completions.
    pub expected: u64,
    /// Safety violations from the invariant observer.
    pub invariant_violations: Vec<String>,
    /// Linearizability of the recorded client history.
    pub linearizable: bool,
}

impl CoverageRow {
    /// Safety and liveness both held.
    pub fn passed(&self) -> bool {
        self.invariant_violations.is_empty() && self.linearizable && self.completed == self.expected
    }
}

/// The uniform-vs-guided comparison at equal run budget.
pub struct CoverageReport {
    /// Runs per arm.
    pub budget: usize,
    /// Uniform-arm rows followed by guided-arm rows.
    pub rows: Vec<CoverageRow>,
    /// Unique digest prefixes the uniform arm accumulated.
    pub uniform_prefixes: usize,
    /// Unique lifecycle signatures the uniform arm accumulated.
    pub uniform_signatures: usize,
    /// Unique digest prefixes the guided arm accumulated.
    pub guided_prefixes: usize,
    /// Unique lifecycle signatures the guided arm accumulated.
    pub guided_signatures: usize,
    /// Lineages that contributed novel coverage, in discovery order —
    /// the corpus a longer guided run would keep mutating from.
    pub corpus: Vec<PlanLineage>,
}

impl CoverageReport {
    /// Percentage gain of guided over uniform unique-prefix coverage.
    pub fn gain_pct(&self) -> f64 {
        if self.uniform_prefixes == 0 {
            return 0.0;
        }
        (self.guided_prefixes as f64 / self.uniform_prefixes as f64 - 1.0) * 100.0
    }

    /// The nightly coverage gate.
    pub fn gate_ok(&self) -> bool {
        self.gain_pct() >= GATE_MIN_COVERAGE_GAIN_PCT
    }

    /// Lineages of failing runs (safety or liveness), deduplicated.
    pub fn failing_lineages(&self) -> Vec<PlanLineage> {
        let mut out: Vec<PlanLineage> = Vec::new();
        for r in self.rows.iter().filter(|r| !r.passed()) {
            if !out.contains(&r.lineage) {
                out.push(r.lineage.clone());
            }
        }
        out
    }
}

/// Runs `cands` (one run each, composed machine) and folds their coverage
/// into `map` in candidate order.
fn coverage_rows(
    mode: &'static str,
    cands: &[PlanLineage],
    map: &mut CoverageMap,
) -> Vec<CoverageRow> {
    let jobs: Vec<(SystemKind, Scenario)> = cands
        .iter()
        .map(|l| (SystemKind::Rsmr, lineage_scenario(l)))
        .collect();
    let outs = run_many(jobs);
    cands
        .iter()
        .zip(outs)
        .map(|(l, out)| CoverageRow {
            mode,
            lineage: l.clone(),
            plan: l
                .materialize(FAULTS_FROM, FAULTS_UNTIL, FAULTS_PER_SEED)
                .describe(),
            novel: map.observe(&out.digest_prefixes, out.lifecycle_signature),
            checkpoints: out.digest_prefixes.len(),
            signature: out.lifecycle_signature,
            completed: out.completed,
            expected: N_CLIENTS * OPS_PER_CLIENT,
            invariant_violations: out.invariant_violations,
            linearizable: linearizable(KvStore::new(), &out.histories),
        })
        .collect()
}

/// Runs both arms of the comparison at `budget` runs each.
///
/// The uniform arm draws fresh independent chaos seeds `base..base+budget`
/// — exactly the plans the uniform sweep would use. The guided arm starts
/// from `base` and evolves a corpus: generation 0 spreads the base plan
/// across delivery-order permutations, every run that contributes novel
/// coverage joins the corpus, and later generations mutate corpus parents
/// round-robin while cycling through the remaining permutations. Both the
/// candidate schedule and the runs themselves are deterministic: the whole
/// report is a pure function of `(budget, base)`.
pub fn run_coverage(budget: usize, base: u64) -> CoverageReport {
    // Uniform arm.
    let mut umap = CoverageMap::new();
    let ucands: Vec<PlanLineage> = (0..budget as u64)
        .map(|i| PlanLineage::seed(base + i))
        .collect();
    let mut rows = coverage_rows("uniform", &ucands, &mut umap);

    // Guided arm.
    let mut gmap = CoverageMap::new();
    let mut corpus: Vec<PlanLineage> = Vec::new();
    let mut next_mutation: u32 = 0;
    // Stride 5 is coprime with 27, so successive candidates cycle through
    // every delivery-order assignment before repeating one.
    let mut next_perm: u64 = 1;
    let mut parent_cursor = 0usize;
    let mut remaining = budget;
    let mut gen: Vec<PlanLineage> = (0..GENERATION.min(remaining) as u64)
        .map(|i| PlanLineage::seed(base).with_perm((i * 5) % 27))
        .collect();
    while remaining > 0 {
        gen.truncate(remaining);
        let batch = coverage_rows("coverage", &gen, &mut gmap);
        remaining -= batch.len();
        for r in &batch {
            if r.novel > 0 {
                corpus.push(r.lineage.clone());
            }
        }
        rows.extend(batch);
        if remaining == 0 {
            break;
        }
        if corpus.is_empty() {
            corpus.push(PlanLineage::seed(base));
        }
        gen = (0..GENERATION.min(remaining))
            .map(|_| {
                let parent = corpus[parent_cursor % corpus.len()].clone();
                parent_cursor += 1;
                let child = parent.child(next_mutation);
                next_mutation += 1;
                let perm = next_perm % 27;
                next_perm += 5;
                child.with_perm(perm)
            })
            .collect();
    }

    CoverageReport {
        budget,
        rows,
        uniform_prefixes: umap.unique_prefixes(),
        uniform_signatures: umap.unique_signatures(),
        guided_prefixes: gmap.unique_prefixes(),
        guided_signatures: gmap.unique_signatures(),
        corpus,
    }
}

/// Renders the coverage comparison as two tables (per-run rows, then the
/// summary with the gate verdict).
pub fn coverage_tables(report: &CoverageReport) -> (Table, Table) {
    let mut runs = Table::new(
        "Chaos coverage — per-run novelty (uniform vs coverage-guided)",
        &[
            "mode",
            "lineage",
            "perm",
            "checkpoints",
            "novel",
            "signature",
            "completed",
            "verdict",
        ],
    );
    for r in &report.rows {
        runs.row(&[
            r.mode.into(),
            r.lineage.to_string(),
            r.lineage.perm.to_string(),
            r.checkpoints.to_string(),
            r.novel.to_string(),
            format!("{:#04x}", r.signature),
            format!("{}/{}", r.completed, r.expected),
            if r.passed() { "ok" } else { "FAILED" }.into(),
        ]);
    }
    let mut summary = Table::new(
        "Chaos coverage — summary (equal run budget)",
        &[
            "mode",
            "runs",
            "unique_prefixes",
            "unique_signatures",
            "gain_pct",
            "gate",
        ],
    );
    summary.row(&[
        "uniform".into(),
        report.budget.to_string(),
        report.uniform_prefixes.to_string(),
        report.uniform_signatures.to_string(),
        String::new(),
        String::new(),
    ]);
    summary.row(&[
        "coverage".into(),
        report.budget.to_string(),
        report.guided_prefixes.to_string(),
        report.guided_signatures.to_string(),
        format!("{:+.1}", report.gain_pct()),
        if report.gate_ok() {
            format!("ok (>= {GATE_MIN_COVERAGE_GAIN_PCT:.0}%)")
        } else {
            format!("FAILED (< {GATE_MIN_COVERAGE_GAIN_PCT:.0}%)")
        },
    ]);
    (runs, summary)
}

/// Renders `report`, appending replay lines for failing lineages.
fn render_coverage(report: &CoverageReport) -> (String, Vec<Table>) {
    let (runs, summary) = coverage_tables(report);
    let mut out = runs.render();
    out.push_str(&summary.render());
    out.push_str(&format!(
        "Coverage-guided exploration found {} unique digest prefixes vs {} \
         uniform ({:+.1}% at equal budget of {} runs each); {} corpus \
         entries contributed novel coverage.\n\n",
        report.guided_prefixes,
        report.uniform_prefixes,
        report.gain_pct(),
        report.budget,
        report.corpus.len(),
    ));
    let failing = report.failing_lineages();
    if !failing.is_empty() {
        out.push_str("FAILING LINEAGES — replay each with:\n");
        for l in &failing {
            out.push_str(&format!(
                "  cargo run --release -p bench --bin exp_all -- chaos --replay {l}\n"
            ));
        }
        for r in report.rows.iter().filter(|r| !r.passed()) {
            out.push_str(&format!("  lineage {} plan {}\n", r.lineage, r.plan));
            for v in &r.invariant_violations {
                out.push_str(&format!("    violation: {v}\n"));
            }
        }
        out.push('\n');
    }
    (out, vec![runs, summary])
}

/// The full sweep outcome: rendered output plus everything the CLI needs
/// for exit codes and replay lines.
pub struct SweepOutcome {
    /// Rendered tables + artifact tables.
    pub output: ExpOutput,
    /// Uniform-sweep seeds that failed safety or liveness.
    pub failing_seeds: Vec<u64>,
    /// Coverage-run lineages that failed safety or liveness.
    pub failing_lineages: Vec<PlanLineage>,
    /// Whether the coverage gate held (`true` when no coverage arm ran).
    pub coverage_gate_ok: bool,
}

impl SweepOutcome {
    /// Every run safe + live and the coverage gate held.
    pub fn passed(&self) -> bool {
        self.failing_seeds.is_empty() && self.failing_lineages.is_empty() && self.coverage_gate_ok
    }
}

/// Runs the uniform sweep over `seeds` and, when `coverage_budget` is
/// set, the coverage comparison alongside.
pub fn run_sweep(seeds: &[u64], coverage_budget: Option<usize>) -> SweepOutcome {
    let rows = run_rows(seeds);
    let mut t = Table::new(
        "Chaos — seeded fault-schedule sweep (safety + liveness)",
        &[
            "seed",
            "system",
            "completed",
            "invariants",
            "linearizable",
            "verdict",
        ],
    );
    for r in &rows {
        t.row(&[
            r.seed.to_string(),
            r.kind.name().into(),
            format!("{}/{}", r.completed, r.expected),
            if r.invariant_violations.is_empty() {
                "clean".into()
            } else {
                format!("{} VIOLATIONS", r.invariant_violations.len())
            },
            if r.linearizable { "PASS" } else { "FAIL" }.into(),
            if r.passed() { "ok" } else { "FAILED" }.into(),
        ]);
    }
    let mut out = t.render();
    let failing = failing_seeds(&rows);
    if failing.is_empty() {
        out.push_str(&format!(
            "All {} seeds passed on {} systems: no invariant violations, \
             every history linearizable, all client work completed after the \
             faults healed.\n\n",
            seeds.len(),
            SWEPT.len()
        ));
    } else {
        out.push_str("FAILING SEEDS — replay each with:\n");
        for s in &failing {
            out.push_str(&format!(
                "  cargo run --release -p bench --bin exp_all -- chaos --seeds 1@{s}\n"
            ));
        }
        for r in rows.iter().filter(|r| !r.passed()) {
            out.push_str(&format!(
                "  seed {} on {}: plan {}\n",
                r.seed,
                r.kind.name(),
                r.plan
            ));
            for v in &r.invariant_violations {
                out.push_str(&format!("    violation: {v}\n"));
            }
        }
        out.push('\n');
    }
    let mut tables = vec![t];
    let mut failing_lineages = Vec::new();
    let mut coverage_gate_ok = true;
    if let Some(budget) = coverage_budget {
        let report = run_coverage(budget, seeds.first().copied().unwrap_or(1));
        let (rendered, cov_tables) = render_coverage(&report);
        out.push_str(&rendered);
        tables.extend(cov_tables);
        failing_lineages = report.failing_lineages();
        coverage_gate_ok = report.gate_ok();
    }
    SweepOutcome {
        output: ExpOutput {
            histograms: Vec::new(),
            rendered: out,
            tables,
        },
        failing_seeds: failing,
        failing_lineages,
        coverage_gate_ok,
    }
}

/// Runs the sweep over the default seed set, coverage comparison included.
pub fn run_structured(quick: bool) -> ExpOutput {
    let seeds = seed_range(if quick { 8 } else { 24 }, 1);
    run_sweep(&seeds, Some(if quick { 8 } else { 24 })).output
}

/// Renders the sweep.
pub fn run(quick: bool) -> String {
    run_structured(quick).rendered
}
