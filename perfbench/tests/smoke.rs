//! Runs every workload at smoke size, untraced and traced, on the
//! default seed and on the held-out seed: each run must pass its output
//! checks and print its metrics.

use std::process::Command;

const DEFAULT_SEED: &str = "1";
const HELD_OUT_SEED: &str = "20261017";

fn smoke(seed: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcr-perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            seed,
            "--seconds",
            "0.5",
            "--smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Four workloads, untraced and traced, plus the summary line.
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .count();
    assert_eq!(results, 9, "{stdout}");
    for metric in [
        "op_ms_p90",
        "setup_s",
        "peak_rss_mib",
        "trace.overhead_frac",
    ] {
        assert!(
            stdout.contains(&format!("\"{metric}\"")),
            "{metric} missing:\n{stdout}"
        );
    }
}

#[test]
fn smoke_default_seed() {
    smoke(DEFAULT_SEED);
}

#[test]
fn smoke_held_out_seed() {
    smoke(HELD_OUT_SEED);
}

#[test]
fn rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcr-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
