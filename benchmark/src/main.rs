//! `rsmr-benchmark`: one wall-clock benchmark for the real backend.
//!
//! ```text
//! rsmr-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! rsmr-benchmark run   [--seed N] [--seconds S] [--repeat K] [--out FILE] [--smoke]
//! rsmr-benchmark trace [--seed N] [--seconds S] [--out FILE] [--smoke]
//! rsmr-benchmark compare A.json B.json
//! rsmr-benchmark describe
//! ```
//!
//! The first form runs one workload in this process and prints its result
//! as one JSON object on the last line of standard output; `run` and
//! `trace` run every workload that way, each in a fresh child process.
//! See `README.md` beside this crate for what each workload and metric
//! means and why it is there.

mod check;
mod cluster;
mod compare;
mod fleet;
mod json;
mod probes;
mod scrape;
mod span;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Json;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Outcome;

/// The measured window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        Some("describe") => Ok(describe()),
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => Err(format!(
            "usage: rsmr-benchmark run|trace|compare ... (see {}/README.md)",
            env!("CARGO_MANIFEST_DIR")
        )),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rsmr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--switch`es.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

fn result_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|&(name, value)| {
            (
                name.to_owned(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Turns a stuck run into a non-zero exit instead of a hang.
fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("rsmr-benchmark: still running after {limit:?}; giving up");
        cluster::remove_data_root();
        std::process::exit(3);
    });
}

/// The driver's form: one workload, result line last.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let name = flags
        .value("--workload")
        .ok_or("--workload NAME is required")?;
    let w = spec::workload(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: want 0 < seconds <= 60"));
    }
    let traced = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };

    // Bring-ups, warm-up, drain and check come to well under 45 s; a
    // traced run adds its probes.
    arm_watchdog(Duration::from_secs_f64(
        seconds + if traced { 75.0 } else { 45.0 },
    ));
    let mut spans = span::Spans::default();
    let outcome = if traced {
        trace::run_traced(w, seed, seconds, &mut spans)
    } else {
        trace::run_untraced(w, seed, seconds, &mut spans)
    };
    cluster::remove_data_root();
    let outcome = outcome.map_err(|e| format!("{name}: {e}"))?;

    if traced {
        let path = cluster::target_dir().join(format!("trace-{name}.json"));
        std::fs::create_dir_all(cluster::target_dir())
            .and_then(|()| std::fs::write(&path, format!("{}\n", spans.to_json())))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for problem in &outcome.problems {
        eprintln!("{name}: INCORRECT: {problem}");
    }
    eprintln!(
        "{name}: {} attempted, {} failed, history linearizable on {} keys: {}",
        outcome.attempted,
        outcome.failed,
        outcome.keys_checked,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for &(metric, value) in &outcome.metrics {
        eprintln!(
            "{name:<14} {metric:<34} {value:>14.3} {:<6} (samples {})",
            unit_of(metric),
            outcome.samples
        );
    }
    println!("{}", result_json(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Where and when a result file was recorded.
fn machine_stamp() -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into())
    };
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = read(&repo.join(".git/HEAD").to_string_lossy());
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => read(&repo.join(".git").join(reference).to_string_lossy()),
        None => head,
    };
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj(vec![
        ("commit", Json::str(commit)),
        ("date_unix_s", Json::Num(unix_s as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("storage_fs", Json::str(cluster::storage_fs_type())),
        ("clock", Json::str("wall")),
        ("injected_delay", Json::str("none")),
    ])
}

/// Runs `w` in a fresh child process and returns its parsed result line.
fn run_child(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("{}: child exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed nothing", w.name))?;
    Json::parse(line).map_err(|e| format!("{}: result line: {e}", w.name))
}

/// Every named metric is present, finite and unit-tagged, under a name
/// the driver accepts. Returns what is wrong.
fn validate(result: &Json, traced: bool) -> Vec<String> {
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut wrong = Vec::new();
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for name in &expected {
        match metrics.iter().find(|(n, _)| n == name) {
            None => wrong.push(format!("{name} is missing")),
            Some((_, m)) => {
                if !m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    wrong.push(format!("{name} is not a finite number"));
                }
                if m.get("unit")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    wrong.push(format!("{name} has no unit"));
                }
            }
        }
    }
    for (name, _) in metrics {
        if !spec::valid_name(name) {
            wrong.push(format!("{name:?} is not a valid metric name"));
        }
        if !expected.contains(&name.as_str()) {
            wrong.push(format!("{name} is not a named metric"));
        }
    }
    wrong
}

/// `run` / `trace`: every workload, each in a child process.
fn suite(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let seed: u64 = flags.parsed("--seed", 1)?;
    let default_seconds = if flags.has("--smoke") {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds: f64 = flags.parsed("--seconds", default_seconds)?;
    let repeat: u64 = flags.parsed("--repeat", 1)?;

    let mut healthy = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for k in 0..repeat {
            match run_child(w, seed + k, seconds, traced) {
                Ok(mut result) => {
                    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                    let wrong = validate(&result, traced);
                    for problem in &wrong {
                        eprintln!("{}: {problem}", w.name);
                    }
                    healthy &= correct && failed == 0.0 && wrong.is_empty();
                    if let Json::Obj(fields) = &mut result {
                        fields.insert(0, ("seed".into(), Json::Num((seed + k) as f64)));
                    }
                    runs.push(result);
                }
                Err(e) => {
                    // A child that hung or crashed vouches for nothing:
                    // every operation of that run counts as failed.
                    eprintln!("rsmr-benchmark: {e}");
                    healthy = false;
                    runs.push(Json::obj(vec![
                        ("seed", Json::Num((seed + k) as f64)),
                        ("correct", Json::Bool(false)),
                        ("attempted", Json::Num(1.0)),
                        ("failed", Json::Num(1.0)),
                        ("metrics", Json::Obj(Vec::new())),
                    ]));
                }
            }
        }
        workloads.push((
            w.name.to_owned(),
            Json::obj(vec![("runs", Json::Arr(runs))]),
        ));
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("rsmr-benchmark/1")),
        ("mode", Json::str(if traced { "trace" } else { "run" })),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("stamp", machine_stamp()),
        ("workloads", Json::Obj(workloads)),
    ]);
    print_summary(&doc, traced);
    if traced {
        merge_traces()?;
    }
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(if healthy {
        ExitCode::SUCCESS
    } else {
        eprintln!("rsmr-benchmark: a workload failed, was incorrect or misreported; see above");
        ExitCode::FAILURE
    })
}

/// Every metric by name with its unit, the median over the repeats, and
/// with repeats the spread the acceptance rule looks at.
fn print_summary(doc: &Json, traced: bool) {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for w in &WORKLOADS {
        let Some(side) = compare::Side::read(doc, w.name) else {
            continue;
        };
        println!(
            "{}: attempted {} failed {} correct {}",
            w.name, side.attempted, side.failed, side.all_correct
        );
        for name in &names {
            let Some((_, values)) = side.values.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let spread = compare::spread(values)
                .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
            println!(
                "  {name:<34} {:>14.3} {:<6}{spread}",
                stats::median_f64(values),
                unit_of(name)
            );
        }
    }
}

/// Gathers the children's span files into `benchmark/target/trace.json`.
fn merge_traces() -> Result<(), String> {
    let dir = cluster::target_dir();
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let path = dir.join(format!("trace-{}.json", w.name));
        if let Ok(text) = std::fs::read_to_string(&path) {
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            workloads.push((w.name.to_owned(), doc));
        }
    }
    let path = dir.join("trace.json");
    std::fs::write(&path, format!("{}\n", Json::Obj(workloads)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// The glossary: why each workload is there, what each end-to-end metric
/// means and may lose, and which end-to-end metric each layer metric
/// should move on which workload.
fn describe() -> ExitCode {
    println!(
        "workloads ({} client threads x {} groups, {} keys):",
        spec::CLIENT_THREADS,
        spec::GROUPS,
        spec::KEYSPACE
    );
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run):");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<4} {} is better, may worsen {:.0}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.definition
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6} [{}] -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        );
    }
    ExitCode::SUCCESS
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: rsmr-benchmark compare A.json B.json".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, ok) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
