//! Byte-for-byte pins of `mia optimize` reports. The fixtures under
//! `tests/fixtures/` were written by the build before the DSE hot loop
//! patched its working problem per move (`Problem::apply_move`) instead
//! of rebuilding it; a search must still visit the same designs, count
//! the same work and return the same result. Wall-clock fields
//! (`wall_seconds`, `seconds`) are stripped on both sides, and the
//! thread count is pinned so the report does not depend on the host.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one test (tests run in parallel).
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mia-optimize-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `mia <args>` in `dir`, panicking with its stderr on failure.
fn mia(dir: &PathBuf, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_mia"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mia runs");
    assert!(
        out.status.success(),
        "mia {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The report without its wall-clock lines (the pretty writer puts one
/// field per line).
fn strip_wall_clock(report: &str) -> String {
    report
        .lines()
        .filter(|line| {
            let field = line.trim_start();
            !field.starts_with("\"wall_seconds\":") && !field.starts_with("\"seconds\":")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

fn assert_report(dir: &PathBuf, fixture: &str) {
    let got = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(strip_wall_clock(&got), fixture);
}

#[test]
fn pareto_search_on_rosace_matches_the_recorded_report() {
    let dir = scratch_dir("rosace");
    mia(
        &dir,
        &[
            "optimize",
            "rosace",
            "--pareto",
            "--budget-evals",
            "300",
            "--seed",
            "7",
            "--threads",
            "2",
            "-o",
            "report.json",
        ],
    );
    assert_report(&dir, include_str!("fixtures/optimize_rosace_pareto.json"));
}

#[test]
fn scalar_search_on_a_generated_nl16_file_matches_the_recorded_report() {
    let dir = scratch_dir("nl16");
    mia(
        &dir,
        &[
            "generate",
            "--family",
            "NL16",
            "-n",
            "300",
            "--seed",
            "3",
            "-o",
            "nl16_300.json",
        ],
    );
    mia(
        &dir,
        &[
            "optimize",
            "nl16_300.json",
            "--budget-evals",
            "300",
            "--seed",
            "7",
            "--threads",
            "2",
            "-o",
            "report.json",
        ],
    );
    assert_report(&dir, include_str!("fixtures/optimize_nl16_300.json"));
}
