//! `exp_all` argument handling.

use std::process::Command;

/// A typo in an experiment list fails the whole run, before the valid ids
/// in it run and print anything.
#[test]
fn an_unknown_experiment_id_exits_2_before_anything_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(["--quick", "e1", "e99"])
        .output()
        .expect("exp_all starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id: e99"), "{stderr}");
}
