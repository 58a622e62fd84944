//! Integration tests of the `rescomm-cli` binary (run end to end via
//! `CARGO_BIN_EXE_*`, the standard Cargo mechanism).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rescomm-cli"))
}

fn write_nest(contents: &str) -> tempfile_path::TempPath {
    tempfile_path::write(contents)
}

/// Minimal self-cleaning temp-file helper (no external crates).
mod tempfile_path {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tests run in parallel inside one process: the counter keeps two
    /// tests writing the same contents from sharing (and deleting) one
    /// path.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    pub fn write(contents: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        let unique = format!(
            "rescomm-cli-test-{}-{}.nest",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        p.push(unique);
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

const NEST: &str = "\
nest demo
array a 2
array r 2
stmt S depth 2 domain 0..7 0..7
  write r [1 0; 0 1]
  read  a [1 0; 0 1] + [1 0]
";

#[test]
fn maps_a_nest_and_reports() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mapping report for `demo`"));
    assert!(text.contains("local"));
}

#[test]
fn dot_output_is_graphviz() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).arg("--dot").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"));
    assert!(text.contains("style=bold"), "branching edges in bold");
}

#[test]
fn compare_runs_baselines() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).arg("--compare").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Platonoff"));
    assert!(text.contains("step 1 only"));
}

#[test]
fn parse_error_is_reported_with_line() {
    let f = write_nest("nest x\narray a 2\nstmt S depth 2 domain 0..3\n");
    let out = cli().arg(f.as_str()).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 3"), "stderr: {err}");
}

#[test]
fn missing_file_fails_gracefully() {
    let out = cli().arg("/nonexistent/nest.file").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"));
}

#[test]
fn unknown_flag_rejected() {
    let out = cli().arg("--bogus").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn m_flag_changes_target_dimension() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).args(["--m", "1"]).output().unwrap();
    assert!(out.status.success());
}

#[test]
fn recover_remaps_and_verifies_on_survivors() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "5", "--grid", "4x4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("remapping around dead node(s) [5]"), "{text}");
    assert!(text.contains("node-loss remap(s) survived"), "{text}");
    assert!(text.contains("degraded run verified"), "{text}");
    assert!(text.contains("15 survivors"), "{text}");
}

#[test]
fn recover_rejects_killing_every_node() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "0,1,2,3", "--grid", "2x2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("recovery failed"), "stderr: {err}");
}

#[test]
fn replications_prints_monte_carlo_stats() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--replications", "4", "--grid", "4x4", "--drop", "0.2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("monte carlo: 4 replications on a 4x4 mesh, drop 0.20"),
        "{text}"
    );
    assert!(text.contains("healthy makespan:"), "{text}");
    assert!(text.contains("faulty makespan:"), "{text}");
    assert!(text.contains("delivered:"), "{text}");
}

#[test]
fn replications_is_deterministic_across_runs() {
    let f = write_nest(NEST);
    let run = || {
        let out = cli()
            .arg(f.as_str())
            .args(["--replications", "3", "--drop", "0.3"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run(), run(), "seeded Monte Carlo must be reproducible");
}

#[test]
fn replications_rejects_bad_drop_probability() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--replications", "2", "--drop", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--drop"), "stderr: {err}");
}

#[test]
fn closed_plan_simulates_huge_virtual_grid() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--vgrid", "4096x4096", "--grid", "8x8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("closed plan:"), "{text}");
    assert!(text.contains("affine"), "{text}");
    assert!(
        text.contains("closed-plan makespan at 4096x4096 (phased):"),
        "{text}"
    );
}

#[test]
fn closed_plan_overlapped_schedule_reports_both_makespans() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args([
            "--closed-plan",
            "--vgrid",
            "256x256",
            "--grid",
            "8x4",
            "--schedule",
            "overlapped",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("closed-plan makespan at 256x256 (overlapped):"),
        "{text}"
    );
    assert!(text.contains("phased makespan:"), "{text}");
}

#[test]
fn schedule_rejects_unknown_mode() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--schedule", "chaotic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--schedule"), "stderr: {err}");
}

#[test]
fn closed_plan_rejects_malformed_vgrid_spec() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--vgrid", "huge"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--vgrid"), "stderr: {err}");
}

#[test]
fn recover_rejects_malformed_grid_spec() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "1", "--grid", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
