//! The `mia sweep` subcommand: batch-measure an arbiter × DAG-family ×
//! size grid and emit one JSON report.
//!
//! This is a thin layer over the engine in [`mia_bench::sweep`], which
//! also parses the flags.
//!
//! ```text
//! mia sweep --families tobita,layered --arbiters rr,mppa \
//!           --sizes 1000,8000,32000 -o report.json
//! ```
//!
//! Flags (all optional — defaults in brackets):
//!
//! | Flag | Meaning | Default |
//! |------|---------|---------|
//! | `--families A,B,…` | workload families: `LS<k>`/`NL<k>` labels, the presets `tobita` (= LS16, deep Tobita–Kasahara graphs) and `layered` (= NL16, wide layered graphs), the `rosace` avionics case study, or `sdf3:<path>` for SDF3 benchmark files | `tobita,layered` |
//! | `--arbiters A,B,…` | arbiter names (`rr`, `mppa`, `tdm`, `fifo`, `fp`, `wrr`, `regulated`) | `rr` |
//! | `--sizes N,M,…` | task counts (SDF families round up to whole graph iterations) | `1000,4000` |
//! | `--algorithms …` | `incremental` and/or `baseline` | `incremental` |
//! | `--seed N` | base PRNG seed (mixed per point) | `2020` |
//! | `--budget SECS` | per-point wall-clock budget; a point over budget is recorded as a timeout | `120` |
//! | `--jobs N` | concurrent points per (family, size) group (`0` = all cores) | `0` |
//! | `--repeats N` | timed runs per point; the fastest is reported (best-of-N strips scheduler noise from deterministic analyses) | `1` |
//! | `--csv` | emit a flat CSV table (one row per grid point) instead of JSON — ready for plotting trajectory curves | JSON |
//! | `-o FILE` | write the report to `FILE` | stdout |
//! | `--profile FILE` | write a Chrome trace of the run to `FILE` | off |

use std::fs;

use mia_bench::sweep::{parse_spec, render_report, run_sweep};

use crate::commands::{profile_finish, profile_start, CliError};

/// Runs `mia sweep` with the raw arguments after the subcommand name.
///
/// Returns the rendered output: a short human summary plus either the
/// report (no `-o`, JSON or CSV per `--csv`) or the path it was written
/// to.
///
/// # Errors
///
/// [`CliError::Usage`] for unknown flags or malformed grid tokens,
/// [`CliError::Io`] if the report cannot be written.
pub fn sweep_cmd(args: &[String]) -> Result<String, CliError> {
    let (spec, out, format) = parse_spec(args).map_err(CliError::Usage)?;
    let profile = profile_start(args);
    let report = run_sweep(&spec, &|_| {});
    let rendered = render_report(&report, format);

    let mut summary = String::new();
    summary.push_str(&format!(
        "sweep: {} points ({} families × {} arbiters × {} sizes × {} algorithms) in {:.1}s\n",
        report.points.len(),
        report.families.len(),
        report.arbiters.len(),
        report.sizes.len(),
        report.algorithms.len(),
        report.wall_seconds,
    ));
    let timeouts = report
        .points
        .iter()
        .filter(|p| p.outcome.timed_out())
        .count();
    let failures = report
        .points
        .iter()
        .filter(|p| matches!(p.outcome, mia_bench::Outcome::Failed { .. }))
        .count();
    summary.push_str(&format!(
        "completed: {}   timeouts: {timeouts}   failures: {failures}\n",
        report.points.len() - timeouts - failures
    ));
    if let Some(profile) = profile {
        profile_finish(profile, None, &mut summary)?;
    }

    match out {
        Some(path) => {
            fs::write(&path, &rendered)?;
            summary.push_str(&format!("report written to {path}\n"));
            Ok(summary)
        }
        None => {
            summary.push('\n');
            summary.push_str(&rendered);
            summary.push('\n');
            Ok(summary)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tiny_sweep_emits_json_to_stdout() {
        let out = sweep_cmd(&args(&[
            "--families",
            "tobita,layered",
            "--arbiters",
            "rr,mppa",
            "--sizes",
            "16,32",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("sweep: 8 points"), "{out}");
        assert!(out.contains("\"points\""));
        assert!(out.contains("LS16"));
        assert!(out.contains("NL16"));
        assert!(out.contains("timeouts: 0"));
    }

    #[test]
    fn sweep_writes_report_file() {
        let dir = crate::commands::tests::scratch_dir();
        let path = dir.join("sweep-report.json");
        let path_str = path.to_str().unwrap().to_owned();
        let out = sweep_cmd(&args(&[
            "--families",
            "LS4",
            "--sizes",
            "16",
            "-o",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("report written"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"family\": \"LS4\""), "{json}");
        std::fs::remove_file(path).ok();

        let path = dir.join("sweep-report.csv");
        let path_str = path.to_str().unwrap().to_owned();
        let out = sweep_cmd(&args(&[
            "--families",
            "LS4",
            "--sizes",
            "16",
            "--csv",
            "-o",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("report written"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(
            csv.starts_with(&format!("{}\n", mia_bench::sweep::CSV_HEADER)),
            "{csv}"
        );
        assert!(csv.contains("\nLS4,rr,16,new,completed,"), "{csv}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_family_is_usage_error() {
        let err = sweep_cmd(&args(&["--families", "XX"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn csv_flag_emits_the_flat_table() {
        let out = sweep_cmd(&args(&["--families", "LS4", "--sizes", "16,32", "--csv"])).unwrap();
        assert!(out.contains("sweep: 2 points"), "{out}");
        assert!(
            out.contains(mia_bench::sweep::CSV_HEADER),
            "missing CSV header: {out}"
        );
        assert!(out.contains("LS4,rr,16,new,completed,"), "{out}");
        assert!(!out.contains("\"points\""), "JSON leaked into CSV: {out}");
    }

    #[test]
    fn rosace_and_sdf3_families_sweep_to_the_pinned_shape() {
        // The acceptance-criteria command shape:
        //   mia sweep --families rosace,sdf3:<path> --sizes … --csv
        let dir = crate::commands::tests::scratch_dir();
        let path = dir.join("fixture.sdf3");
        std::fs::write(&path, mia_sdf::to_sdf3(&mia_sdf::rosace(), "rosace")).unwrap();
        let families = format!("rosace,sdf3:{}", path.to_str().unwrap());

        let out = sweep_cmd(&args(&["--families", &families, "--sizes", "25,100"])).unwrap();
        assert!(out.contains("sweep: 4 points"), "{out}");
        assert!(out.contains("timeouts: 0   failures: 0"), "{out}");
        assert!(out.contains("\"rosace\""), "{out}");

        let out = sweep_cmd(&args(&[
            "--families",
            &families,
            "--sizes",
            "25,100",
            "--csv",
        ]))
        .unwrap();
        assert!(out.contains(mia_bench::sweep::CSV_HEADER), "{out}");
        assert!(out.contains("rosace,rr,25,new,completed,"), "{out}");
        std::fs::remove_file(path).ok();
    }
}
