//! Golden-artifact check for the fault and schedule studies: each bench
//! bin is run end to end and its JSON must match the committed artifact
//! byte for byte. The only line allowed to differ is `host_threads`,
//! which records the machine the file was generated on.
//!
//! These files pin every simulator engine (phased, overlapped and
//! adaptive schedules; clean, faulty and recovering runs; per-call and
//! compiled replay), so a refactor of the machine crate that changes any
//! simulated number fails here.

use std::path::PathBuf;
use std::process::Command;

/// Run `bin --out <tmp>` and compare its output with the committed
/// `artifact` at the repository root.
fn assert_regenerates(bin: &str, artifact: &str) {
    let out =
        std::env::temp_dir().join(format!("rescomm-golden-{}-{artifact}", std::process::id()));
    let run = Command::new(bin)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("bench bin runs");
    assert!(run.status.success(), "{bin} failed: {run:?}");
    let got = std::fs::read_to_string(&out).expect("bin wrote its artifact");
    let _ = std::fs::remove_file(&out);
    let committed: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", artifact]
        .iter()
        .collect();
    let want = std::fs::read_to_string(&committed).expect("committed artifact");
    let keep = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.trim_start().starts_with("\"host_threads\""))
            .map(str::to_owned)
            .collect()
    };
    let (got, want) = (keep(&got), keep(&want));
    assert_eq!(got.len(), want.len(), "{artifact}: line count differs");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{artifact}: first difference at kept line {}", i + 1);
    }
}

#[test]
fn faultsweep_matches_committed() {
    assert_regenerates(env!("CARGO_BIN_EXE_faultsweep"), "BENCH_faults.json");
}

#[test]
fn recoverysweep_matches_committed() {
    assert_regenerates(env!("CARGO_BIN_EXE_recoverysweep"), "BENCH_recovery.json");
}

#[test]
fn faultsched_matches_committed() {
    assert_regenerates(env!("CARGO_BIN_EXE_faultsched"), "BENCH_faultsched.json");
}

#[test]
fn schedule_baseline_matches_committed() {
    assert_regenerates(
        env!("CARGO_BIN_EXE_schedule_baseline"),
        "BENCH_schedule.json",
    );
}
