//! Same-seed determinism regression tests.
//!
//! The perf work on the hot path (shared `Arc` payloads, the dense slot
//! table, `'static` metric keys, the parallel experiment driver) is only
//! admissible because it provably does not change simulation outcomes. These
//! tests pin that down: a scenario is a pure function of its seed, so two
//! runs must agree *bit for bit* — same metrics fingerprint, same event
//! trace digest — whether they execute serially or on worker threads.

use bench::runner::{run, run_many, RunOut, Scenario, SystemKind};
use bench::sharded::{run_sharded, run_split, ShardScenario, ShardSystem};
use simnet::{ChaosGen, FaultPlan, FaultTarget, SimDuration, SimTime};

/// A mid-size scenario exercising every hot path at once: elections,
/// steady-state commits, a reconfiguration with a joiner, and client
/// histories.
fn scenario() -> Scenario {
    let mut sc = Scenario::new(0xD37E_2817)
        .servers(5)
        .clients(4)
        .joiners(&[5])
        .reconfigure_at(SimTime::from_secs(1), &[0, 1, 2, 3, 5])
        .until(SimTime::from_secs(2))
        .with_events();
    sc.record_trace = true;
    sc
}

/// Systems covered by the determinism check (all of them).
const SYSTEMS: [SystemKind; 6] = [
    SystemKind::Static,
    SystemKind::Rsmr,
    SystemKind::RsmrNoSpec,
    SystemKind::RsmrBatched,
    SystemKind::Stw,
    SystemKind::Raft,
];

#[test]
fn same_seed_same_fingerprint_and_trace() {
    for kind in SYSTEMS {
        let sc = scenario();
        let a = run(kind, &sc);
        let b = run(kind, &sc);
        assert!(a.completed > 0, "{}: no completed ops", kind.name());
        assert_ne!(a.trace_digest, 0, "{}: trace not recorded", kind.name());
        assert_eq!(
            a.metrics_fingerprint(),
            b.metrics_fingerprint(),
            "{}: metrics diverge across same-seed runs",
            kind.name()
        );
        assert_eq!(
            a.trace_digest,
            b.trace_digest,
            "{}: event traces diverge across same-seed runs",
            kind.name()
        );
        assert!(
            a.event_count > 0,
            "{}: no structured events recorded",
            kind.name()
        );
        assert_eq!(
            (a.event_digest, a.event_count),
            (b.event_digest, b.event_count),
            "{}: structured event streams diverge across same-seed runs",
            kind.name()
        );
    }
}

#[test]
fn parallel_driver_matches_serial_runs() {
    let serial: Vec<_> = SYSTEMS.iter().map(|&k| run(k, &scenario())).collect();
    let jobs: Vec<(SystemKind, Scenario)> = SYSTEMS.iter().map(|&k| (k, scenario())).collect();
    let parallel = run_many(jobs);
    assert_eq!(serial.len(), parallel.len());
    for ((kind, s), p) in SYSTEMS.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            s.metrics_fingerprint(),
            p.metrics_fingerprint(),
            "{}: parallel driver changed the metrics",
            kind.name()
        );
        assert_eq!(
            s.trace_digest,
            p.trace_digest,
            "{}: parallel driver changed the event order",
            kind.name()
        );
        assert_eq!(
            s.event_digest,
            p.event_digest,
            "{}: parallel driver changed the structured event stream",
            kind.name()
        );
        // The rendered telemetry snapshot (counters, labels, histogram
        // summaries incl. the log-scale record histograms, timelines) must
        // be byte-identical, not merely fingerprint-equal: this is the
        // JSON that flows into artifacts and the live `/metrics` path.
        assert_eq!(
            s.metrics.snapshot().to_json(),
            p.metrics.snapshot().to_json(),
            "{}: telemetry snapshots diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(s.completed, p.completed);
    }
}

/// The scenario above, plus a seeded fault schedule (crashes with restart,
/// partitions, degraded links against role targets). Chaos must not cost
/// determinism: the driver resolves roles and rebuilds actors at fixed
/// points in virtual time, so it is as replayable as the fault-free path.
fn chaos_scenario() -> Scenario {
    let plan =
        ChaosGen::new(0xFA17).sample(SimTime::from_millis(300), SimTime::from_millis(1_500), 3);
    let mut sc = scenario().with_faults(plan).checked();
    sc.record_trace = true;
    sc
}

#[test]
fn chaos_runs_are_deterministic_serial_and_parallel() {
    let serial: Vec<_> = SYSTEMS.iter().map(|&k| run(k, &chaos_scenario())).collect();
    let jobs: Vec<(SystemKind, Scenario)> =
        SYSTEMS.iter().map(|&k| (k, chaos_scenario())).collect();
    let parallel = run_many(jobs);
    for ((kind, s), p) in SYSTEMS.iter().zip(&serial).zip(&parallel) {
        assert!(
            !s.chaos_log.is_empty(),
            "{}: the fault plan never fired",
            kind.name()
        );
        assert_eq!(
            s.chaos_log,
            p.chaos_log,
            "{}: applied faults diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(
            (s.event_digest, s.event_count),
            (p.event_digest, p.event_count),
            "{}: chaos event streams diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(
            s.metrics_fingerprint(),
            p.metrics_fingerprint(),
            "{}: chaos metrics diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(s.completed, p.completed, "{}", kind.name());
    }
}

/// Pre-filled state, a fresh joiner *and* a member restart: one run that
/// exercises the full chunked-stream path (manifest, windowed chunk
/// fetch) and the rejoin delta path (watermark advertise, delta chunks)
/// under a fault plan. The new transfer layer must be as deterministic
/// as everything else — byte-identical metrics, events and applied-fault
/// log whether the run executes serially or on the worker pool.
fn transfer_scenario() -> Scenario {
    // The member stays down past `retire_grace`, so when it returns the
    // survivors have retired its epoch and the only way back is a
    // transfer — a *delta* one, since it recovers an anchored base.
    let plan = FaultPlan::new().crash_at(
        SimTime::from_millis(600),
        FaultTarget::ServerIdx(2),
        Some(SimDuration::from_millis(2_600)),
    );
    let mut sc = Scenario::new(0xC0A57)
        .clients(2)
        .joiners(&[3])
        .filler(1_200, 512)
        .bandwidth(400_000)
        .reconfigure_at(SimTime::from_secs(1), &[0, 1, 2, 3])
        .with_faults(plan)
        .checked()
        .until(SimTime::from_secs(10))
        .with_events();
    sc.ops_per_client = Some(100);
    sc.record_trace = true;
    sc
}

#[test]
fn chunked_and_delta_transfers_are_deterministic_serial_and_parallel() {
    let kinds = [SystemKind::Rsmr, SystemKind::RsmrBatched];
    let serial: Vec<_> = kinds
        .iter()
        .map(|&k| run(k, &transfer_scenario()))
        .collect();
    let jobs: Vec<(SystemKind, Scenario)> =
        kinds.iter().map(|&k| (k, transfer_scenario())).collect();
    let parallel = run_many(jobs);
    for ((kind, s), p) in kinds.iter().zip(&serial).zip(&parallel) {
        // The paths under test actually ran: chunks streamed to the fresh
        // joiner, and the restarted member came back over the delta path.
        assert!(
            s.metrics.counter("transfer.chunk_bytes") > 0,
            "{}: no chunked transfer happened",
            kind.name()
        );
        assert!(
            s.metrics.counter("transfer.delta_chunk_bytes") > 0,
            "{}: the rejoiner never took the delta path (log: {:?})",
            kind.name(),
            s.chaos_log
        );
        assert!(
            !s.chaos_log.is_empty(),
            "{}: the restart plan never fired",
            kind.name()
        );
        assert_eq!(
            s.chaos_log,
            p.chaos_log,
            "{}: applied faults diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(
            s.metrics_fingerprint(),
            p.metrics_fingerprint(),
            "{}: transfer metrics diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(
            (s.trace_digest, s.event_digest, s.event_count),
            (p.trace_digest, p.event_digest, p.event_count),
            "{}: transfer event streams diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(
            s.metrics.snapshot().to_json(),
            p.metrics.snapshot().to_json(),
            "{}: telemetry snapshots diverge between serial and parallel runs",
            kind.name()
        );
        assert_eq!(s.completed, p.completed, "{}", kind.name());
    }
}

#[test]
fn jsonl_artifacts_are_byte_identical_across_runs() {
    // The artifact path must be as deterministic as the simulations
    // beneath it: same experiment, same mode ⇒ the same bytes. E3 is the
    // interesting one — its table includes spans-derived columns, so this
    // also pins the observer pipeline end to end.
    let a = bench::experiments::run_structured("e3", true).expect("e3 exists");
    let b = bench::experiments::run_structured("e3", true).expect("e3 exists");
    assert_eq!(a.rendered, b.rendered, "rendered output diverges");
    assert_eq!(
        a.to_jsonl("e3", true),
        b.to_jsonl("e3", true),
        "JSONL artifacts diverge across same-seed runs"
    );
    assert!(!a.tables.is_empty());
    assert!(a.to_jsonl("e3", true).lines().count() > a.tables.len());
}

/// A coupled sharded scenario exercising the multi-group hot paths:
/// two epoch chains on the shared pool, capped egress, a rolling
/// reconfiguration of every shard, traces and structured events on.
fn sharded_scenario() -> ShardScenario {
    ShardScenario::new(0x5AADD37, 2)
        .until(SimTime::from_secs(3))
        .bandwidth(150_000)
        .rolling(SimTime::from_secs(1), SimDuration::from_millis(400))
        .with_events()
        .with_trace()
}

#[test]
fn sharded_coupled_runs_are_deterministic() {
    for kind in [ShardSystem::Rsmr, ShardSystem::Stw] {
        let sc = sharded_scenario();
        let a = run_sharded(kind, &sc);
        let b = run_sharded(kind, &sc);
        assert!(a.run.completed > 0, "{}: no completed ops", kind.name());
        assert_ne!(a.run.trace_digest, 0, "{}: trace not recorded", kind.name());
        assert_eq!(
            a.run.metrics_fingerprint(),
            b.run.metrics_fingerprint(),
            "{}: sharded metrics diverge across same-seed runs",
            kind.name()
        );
        assert_eq!(
            (a.run.trace_digest, a.run.event_digest, a.run.event_count),
            (b.run.trace_digest, b.run.event_digest, b.run.event_count),
            "{}: sharded event streams diverge across same-seed runs",
            kind.name()
        );
        assert_eq!(
            a.per_group_completed,
            b.per_group_completed,
            "{}",
            kind.name()
        );
        assert_eq!(a.per_group_admin, b.per_group_admin, "{}", kind.name());
    }
}

#[test]
fn sharded_split_driver_matches_serial_execution() {
    // Group independence is what licenses the parallel split driver; the
    // merged digest folds per-group metrics fingerprints, trace digests
    // and structured-event digests, so any cross-thread nondeterminism
    // would surface here.
    let sc = ShardScenario::new(0x5AAD5911, 4).until(SimTime::from_secs(2));
    let serial = run_split(&sc, false);
    let parallel = run_split(&sc, true);
    assert!(serial.completed > 0);
    assert_eq!(
        serial.digest, parallel.digest,
        "split-driver digest diverges between serial and parallel group execution"
    );
    assert_eq!(serial.per_group_completed, parallel.per_group_completed);
}

#[test]
fn e11_jsonl_artifact_is_byte_identical_across_runs() {
    // E11 runs coupled simulations on scoped threads *and* the split
    // driver on the worker pool — the artifact must still be a pure
    // function of the build.
    let a = bench::experiments::run_structured("e11", true).expect("e11 exists");
    let b = bench::experiments::run_structured("e11", true).expect("e11 exists");
    assert_eq!(a.rendered, b.rendered, "rendered output diverges");
    assert_eq!(
        a.to_jsonl("e11", true),
        b.to_jsonl("e11", true),
        "E11 JSONL artifacts diverge across same-seed runs"
    );
    assert_eq!(a.tables.len(), 3);
}

/// `(completed, metrics_fingerprint, trace_digest, event_digest,
/// event_count)` of one run.
type Digests = (u64, u64, u64, u64, u64);

fn digests(out: &RunOut) -> Digests {
    (
        out.completed,
        out.metrics_fingerprint(),
        out.trace_digest,
        out.event_digest,
        out.event_count,
    )
}

/// Literal digests recorded once and compared on every later commit. Every
/// other test here compares a run with itself; this one pins behaviour
/// *across* commits, so a refactor of the harness or the protocol that
/// claims "no behaviour change" must leave every row untouched. All five
/// values repeat to the bit across fresh processes. A trace digest of
/// `0xcbf29ce484222325` is the FNV-1a offset basis: that system writes no
/// trace lines.
#[rustfmt::skip]
const GOLDEN: &[(&str, Digests)] = &[
    ("scenario / static-paxos", (14737, 0x4fcf09cc3dd62e63, 0xcbf29ce484222325, 0xaff75eb6973bdcc5, 606703)),
    ("scenario / rsmr (spec)", (14732, 0xf1d4022869c241d, 0xd37b7184bb7e59d4, 0xc503e82dd4167a88, 607822)),
    ("scenario / rsmr (no-spec)", (13000, 0x23aa41ba5e8c05aa, 0xda936c3b8901ff28, 0x4182d64cd7b9ebfe, 551936)),
    ("scenario / rsmr (batched)", (12248, 0xe4c769e440e951e5, 0x30d71ed916e043c8, 0xddf0a8cb9ae899e8, 363448)),
    ("scenario / stop-the-world", (11761, 0xb42ecb027d1545f6, 0xcbf29ce484222325, 0x492e63115c32293f, 502626)),
    ("scenario / raft-lite", (14540, 0x201de8e912c3f089, 0xcbf29ce484222325, 0xfe0504115ad73500, 513879)),
    ("chaos / static-paxos", (6155, 0x823e6ab51c38ce5a, 0xcbf29ce484222325, 0xf011efcd7026484e, 284447)),
    ("chaos / rsmr (spec)", (9988, 0xa87169084279e1bc, 0x60d1e92b9290276b, 0x753ba5f21c5666b1, 414193)),
    ("chaos / rsmr (no-spec)", (9996, 0x8304af6c077735fd, 0x959621121ef4419d, 0x134661de259a0ec6, 414612)),
    ("chaos / rsmr (batched)", (8248, 0x8803db4559c3405c, 0x8f35549637f52e99, 0x80f57945eb1bc195, 255214)),
    ("chaos / stop-the-world", (4521, 0x72009aff7ab54f77, 0xcbf29ce484222325, 0x465f9c39c626d847, 197035)),
    ("chaos / raft-lite", (6148, 0xd68b63157c27de9a, 0xcbf29ce484222325, 0x7206f230f5010f17, 228828)),
    ("sharded / rsmr-sharded", (1496, 0x28b80aa05c69e00d, 0x8a13bd196d6bb756, 0xd9e0c92b7eee0c2a, 56613)),
    ("sharded / stw-sharded", (1218, 0xba38ac1911b9e105, 0xcbf29ce484222325, 0x5416ab6073b5285f, 49937)),
];

#[test]
fn golden_digests_are_unchanged() {
    let jobs: Vec<(SystemKind, Scenario)> = SYSTEMS
        .iter()
        .map(|&k| (k, scenario()))
        .chain(SYSTEMS.iter().map(|&k| (k, chaos_scenario())))
        .collect();
    let labels = SYSTEMS
        .iter()
        .map(|k| format!("scenario / {}", k.name()))
        .chain(SYSTEMS.iter().map(|k| format!("chaos / {}", k.name())));
    let mut actual: Vec<(String, Digests)> =
        labels.zip(run_many(jobs).iter().map(digests)).collect();
    for kind in [ShardSystem::Rsmr, ShardSystem::Stw] {
        let out = run_sharded(kind, &sharded_scenario());
        actual.push((format!("sharded / {}", kind.name()), digests(&out.run)));
    }
    let expected: Vec<(String, Digests)> =
        GOLDEN.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    let table: String = actual
        .iter()
        .map(|(l, (c, m, t, e, n))| format!("    (\"{l}\", ({c}, {m:#x}, {t:#x}, {e:#x}, {n})),\n"))
        .collect();
    assert!(
        actual == expected,
        "simulation behaviour changed: the golden digests no longer match.\n\
         A change meant to be behaviour-neutral (a refactor, a pure \
         optimisation) must keep every row; find what moved. A change that \
         alters behaviour on purpose re-records `GOLDEN` with these rows and \
         says why in its description:\n{table}"
    );
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a degenerate fingerprint (e.g. hashing nothing): two
    // different seeds must not collide on both digests.
    let a = run(SystemKind::Rsmr, &scenario());
    let mut sc = scenario();
    sc.seed ^= 0x5EED;
    let b = run(SystemKind::Rsmr, &sc);
    assert!(
        a.metrics_fingerprint() != b.metrics_fingerprint() || a.trace_digest != b.trace_digest,
        "different seeds produced identical fingerprints and traces"
    );
}

/// Coverage-guided chaos candidates must be as replayable as plain seeds:
/// the same parent seed and mutation index always derive the *identical*
/// child fault plan, a printed lineage parses back to the same plan, and
/// permutations never leak into the plan itself (they only pin delivery
/// orders).
#[test]
fn mutated_chaos_plans_are_deterministic_and_replayable() {
    use simnet::PlanLineage;
    let from = SimTime::from_millis(200);
    let until = SimTime::from_millis(1_500);
    for base in [1u64, 0xFA17, 0xDEAD_BEEF] {
        for m in 0u32..6 {
            let a = PlanLineage::seed(base).child(m).materialize(from, until, 3);
            let b = PlanLineage::seed(base).child(m).materialize(from, until, 3);
            assert_eq!(
                a, b,
                "base {base:#x} mutation {m}: child plans diverge across \
                 materializations"
            );
        }
        // Distinct mutation indices must actually explore: at least one
        // neighbouring pair differs (mutations include no-op-prone jitter,
        // so only a fully-constant chain would be a bug).
        let plans: Vec<_> = (0u32..6)
            .map(|m| {
                PlanLineage::seed(base)
                    .child(m)
                    .materialize(from, until, 3)
                    .describe()
            })
            .collect();
        assert!(
            plans.windows(2).any(|w| w[0] != w[1]),
            "base {base:#x}: six different mutations produced identical plans"
        );
    }
    // The printed replay key is the whole identity: parse(to_string)
    // rebuilds the same lineage and the same plan, perm included.
    let lineage = PlanLineage::seed(0xFA17).child(3).child(12).with_perm(5);
    let parsed = PlanLineage::parse(&lineage.to_string()).expect("lineage parses");
    assert_eq!(parsed, lineage);
    assert_eq!(
        parsed.materialize(from, until, 3),
        lineage.materialize(from, until, 3),
        "replayed lineage materializes a different plan"
    );
    assert_eq!(
        lineage.materialize(from, until, 3),
        lineage.with_perm(19).materialize(from, until, 3),
        "the delivery-order permutation must not change the fault plan"
    );
}

/// The whole coverage comparison — candidate schedule, runs fanned across
/// the worker pool, novelty accounting — is a pure function of
/// `(budget, base)`: two invocations agree on every per-run novelty count,
/// the corpus, and both arms' unique-coverage totals.
#[test]
fn coverage_comparison_is_deterministic_run_to_run() {
    use bench::experiments::chaos_sweep::run_coverage;
    let a = run_coverage(3, 1);
    let b = run_coverage(3, 1);
    let key = |r: &bench::experiments::chaos_sweep::CoverageReport| {
        (
            r.uniform_prefixes,
            r.uniform_signatures,
            r.guided_prefixes,
            r.guided_signatures,
            r.corpus.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
            r.rows
                .iter()
                .map(|row| (row.lineage.to_string(), row.novel, row.signature))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(key(&a), key(&b), "coverage comparison diverges across runs");
    assert!(
        a.rows.iter().all(|r| r.checkpoints > 0),
        "a coverage run recorded no digest-prefix checkpoints"
    );
}
