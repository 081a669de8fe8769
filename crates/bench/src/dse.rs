//! The DSE grid driver: optimize a workload-family × arbiter grid and
//! emit one report (`BENCH_dse.json`).
//!
//! This is the machinery behind the `dse` binary
//! (`cargo run --release -p mia-bench --bin dse`). It reuses the sweep's
//! family vocabulary ([`parse_family_token`]) and grid flags
//! ([`parse_grid_flag`]) so every sweep workload — generated Figure 3
//! families, `rosace`, `sdf3:<path>` — can be optimized, each from the
//! same layered-cyclic seed mapping the sweep measures, and reports the
//! before/after analyzed makespans per grid point:
//!
//! ```text
//! cargo run --release -p mia-bench --bin dse -- \
//!     --families rosace,layered --arbiters rr,mppa --sizes 150,300 \
//!     --budget-evals 2000 --seed 7 -o BENCH_dse.json
//! ```

use std::str::FromStr;
use std::time::Instant;

use mia_dse::{
    run_arbiters, DseConfig, OptimizeReport, OptimizeRun, ParetoConfig, SearchSpace, Strategy,
};
use mia_model::BankPolicy;

use mia_cli::sweep::{parse_family_token, parse_grid_flag, SweepFamily};

/// The grid a DSE batch covers, plus the shared search knobs.
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Workload families (sweep vocabulary: `LS<k>`/`NL<k>`, `tobita`,
    /// `layered`, `rosace`, `sdf3:<path>`).
    pub families: Vec<SweepFamily>,
    /// Arbiter names (one independent search per arbiter, or one joint
    /// search per grid point when `config.pareto` is set).
    pub arbiters: Vec<String>,
    /// Task counts (SDF families round up to whole graph iterations).
    pub sizes: Vec<usize>,
    /// The search every grid point runs; its `seed` also mixes the
    /// generated workloads.
    pub config: DseConfig,
}

impl Default for DseSpec {
    /// `rosace` + `layered` × round-robin at one size, the default
    /// 8-chain portfolio with 2000 evaluations and seed 7.
    fn default() -> Self {
        DseSpec {
            families: vec![
                SweepFamily::Rosace,
                parse_family_token("layered").expect("preset token"),
            ],
            arbiters: vec!["rr".to_owned()],
            sizes: vec![150],
            config: DseConfig {
                seed: 7,
                ..DseConfig::default()
            },
        }
    }
}

/// Runs every `family × size × arbiter` point of `spec` through
/// [`run_arbiters`], the driver `mia optimize` uses too, and assembles
/// the report. Grid points run sequentially — each search already
/// parallelises over its portfolio chains.
///
/// # Errors
///
/// A human-readable message when a workload cannot be built (missing
/// SDF file, unknown arbiter) or a search fails.
pub fn run_dse(spec: &DseSpec, progress: &dyn Fn(&OptimizeRun)) -> Result<OptimizeReport, String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    for family in &spec.families {
        for &n in &spec.sizes {
            let problem = family
                .grid_problem(n, spec.config.seed)
                .map_err(|e| e.to_string())?;
            let space = SearchSpace::new(problem, BankPolicy::PerCoreBank);
            runs.extend(run_arbiters(
                &space,
                &family.label(),
                &spec.arbiters,
                &spec.config,
                false,
                progress,
            )?);
        }
    }
    Ok(OptimizeReport::new(
        &spec.config,
        started.elapsed().as_secs_f64(),
        runs,
    ))
}

/// Parses the `dse` binary's flags. Returns the spec, the `-o`/`--out`
/// path (if any) and whether `--csv` was given.
///
/// ```text
/// --families rosace,layered,sdf3:app.sdf3   [rosace,layered]
/// --arbiters rr,mppa,…                      [rr]
/// --sizes 150,300                           [150]
/// --strategy anneal|portfolio               [portfolio]
/// --chains N                                [8]
/// --seed N                                  [7]
/// --budget-evals N                          [2000]
/// --threads N (0 = all cores)               [0]
/// --pareto                                  scalar by default
/// --csv                                     JSON by default
/// -o, --out FILE                            [stdout]
/// ```
///
/// # Errors
///
/// A human-readable message naming the offending flag or token.
pub fn parse_dse_spec(args: &[String]) -> Result<(DseSpec, Option<String>, bool), String> {
    fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} must be a number"))
    }
    let mut spec = DseSpec::default();
    let (mut out, mut csv, mut chains, mut strategy) = (None, false, None, "portfolio");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        if parse_grid_flag(
            flag,
            &mut args,
            &mut spec.families,
            &mut spec.arbiters,
            &mut spec.sizes,
        )? {
            continue;
        }
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--strategy" => strategy = value()?,
            "--chains" => chains = Some(num(flag, value()?)?),
            "--seed" => spec.config.seed = num(flag, value()?)?,
            "--budget-evals" => spec.config.budget_evals = num(flag, value()?)?,
            "--threads" => spec.config.threads = num(flag, value()?)?,
            "-o" | "--out" => out = Some(value()?.clone()),
            "--pareto" => spec.config.pareto = Some(ParetoConfig::default()),
            "--csv" => csv = true,
            other => return Err(format!("unknown dse flag `{other}`")),
        }
    }
    spec.config.strategy = Strategy::parse(strategy, chains)?;
    Ok((spec, out, csv))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_optimizes_and_reports() {
        let spec = DseSpec {
            families: vec![SweepFamily::Rosace],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![25],
            config: DseConfig {
                strategy: Strategy::Portfolio { chains: 2 },
                seed: 7,
                budget_evals: 40,
                threads: 1,
                pareto: None,
                ..DseConfig::default()
            },
        };
        let seen = std::cell::Cell::new(0);
        let report = run_dse(&spec, &|_| seen.set(seen.get() + 1)).unwrap();
        assert_eq!(report.runs.len(), 2);
        assert_eq!(seen.get(), 2);
        for run in &report.runs {
            assert!(run.optimized_makespan <= run.seed_makespan, "{run:?}");
            assert_eq!(run.evaluations, 41);
            assert_eq!(run.workload, "rosace");
        }
        // The report records the resolved worker count, not the spec's
        // raw value (here they agree: 1 thread requested, 1 used).
        assert_eq!(report.threads, 1);
        assert_eq!(report.requested_threads, 1);
        let json = mia_dse::report_json(&report);
        assert!(json.contains("\"optimized_makespan\""));
        assert!(json.contains("\"delta_resumes\""));
    }

    #[test]
    fn grid_points_are_deterministic() {
        let spec = DseSpec {
            families: vec![SweepFamily::Rosace],
            arbiters: vec!["rr".to_owned()],
            sizes: vec![25],
            config: DseConfig {
                strategy: Strategy::Portfolio { chains: 3 },
                seed: 2,
                budget_evals: 60,
                threads: 2,
                pareto: None,
                ..DseConfig::default()
            },
        };
        let a = run_dse(&spec, &|_| {}).unwrap();
        let b = run_dse(&spec, &|_| {}).unwrap();
        assert_eq!(a.runs[0].seed_makespan, b.runs[0].seed_makespan);
        assert_eq!(a.runs[0].optimized_makespan, b.runs[0].optimized_makespan);
        assert_eq!(a.runs[0].cache_hits, b.runs[0].cache_hits);
        assert_eq!(a.runs[0].best_chain, b.runs[0].best_chain);
    }

    #[test]
    fn spec_parsing_round_trips() {
        let args: Vec<String> = [
            "--families",
            "rosace,layered",
            "--arbiters",
            "rr,mppa",
            "--sizes",
            "100,200",
            "--strategy",
            "anneal",
            "--seed",
            "9",
            "--budget-evals",
            "500",
            "--threads",
            "4",
            "--pareto",
            "--csv",
            "-o",
            "x.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (spec, out, csv) = parse_dse_spec(&args).unwrap();
        assert_eq!(spec.families.len(), 2);
        assert_eq!(spec.arbiters, vec!["rr", "mppa"]);
        assert_eq!(spec.sizes, vec![100, 200]);
        assert_eq!(spec.config.strategy, Strategy::Anneal);
        assert_eq!(spec.config.seed, 9);
        assert_eq!(spec.config.budget_evals, 500);
        assert_eq!(spec.config.threads, 4);
        assert_eq!(spec.config.pareto, Some(ParetoConfig::default()));
        assert!(csv);
        assert_eq!(out.as_deref(), Some("x.json"));
    }

    #[test]
    fn spec_parsing_rejects_bad_tokens() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_dse_spec(&args).unwrap_err()
        };
        assert!(bad(&["--families", "XX"]).contains("bad family"));
        assert!(bad(&["--arbiters", "bogus"]).contains("unknown arbiter"));
        assert!(bad(&["--strategy", "quantum"]).contains("unknown strategy"));
        assert!(bad(&["--chains", "0"]).contains("--chains"));
        assert!(bad(&["--strategy", "anneal", "--chains", "3"])
            .contains("--chains only applies to the portfolio strategy"));
        assert!(bad(&["--frobnicate", "1"]).contains("unknown dse flag"));
    }

    #[test]
    fn pareto_grids_fold_the_arbiters_and_report_fronts() {
        let spec = DseSpec {
            families: vec![SweepFamily::Rosace],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![25],
            config: DseConfig {
                strategy: Strategy::Portfolio { chains: 3 },
                seed: 7,
                budget_evals: 90,
                threads: 1,
                pareto: Some(ParetoConfig::default()),
                ..DseConfig::default()
            },
        };
        let report = run_dse(&spec, &|_| {}).unwrap();
        // One joint run per grid point, not one per arbiter.
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        assert_eq!(run.arbiter, "rr+mppa");
        assert!(run.front_size >= 1, "{run:?}");
        assert_eq!(run.front.len(), run.front_size);
        assert!(run.hypervolume >= 0.0);
        // The front's best makespan is the scalar result.
        let best = run.front.iter().map(|f| f.makespan).min().unwrap();
        assert_eq!(best, run.optimized_makespan);
        let json = mia_dse::report_json(&report);
        assert!(json.contains("\"front\""));
        assert!(json.contains("\"min_slack\""));
    }

    #[test]
    fn missing_sdf_file_is_an_error() {
        let spec = DseSpec {
            families: vec![SweepFamily::Sdf("/nonexistent/app.sdf3".to_owned())],
            sizes: vec![16],
            ..DseSpec::default()
        };
        let err = run_dse(&spec, &|_| {}).unwrap_err();
        assert!(err.contains("/nonexistent/app.sdf3"), "{err}");
    }

    /// `mia optimize rosace` sizes its seed problem by `--iterations`,
    /// the `dse` grid's `rosace` point at size 25 by its task count; both
    /// expand through the same step and run the same driver, so they
    /// must report the same runs, apart from wall-clock seconds.
    #[test]
    fn optimize_and_the_dse_grid_agree() {
        // Pretty JSON puts each field on its own line.
        let without_clock = |json: &str| -> Vec<String> {
            json.lines()
                .filter(|l| {
                    let l = l.trim_start();
                    !l.starts_with("\"seconds\":") && !l.starts_with("\"wall_seconds\":")
                })
                .map(str::to_owned)
                .collect()
        };
        for pareto in [false, true] {
            let cli = "optimize rosace --arbiters rr,mppa --budget-evals 200 --seed 7 --threads 1";
            let mut cli: Vec<String> = cli.split(' ').map(str::to_owned).collect();
            if pareto {
                cli.push("--pareto".to_owned());
            }
            let out = mia_cli::run(&cli).unwrap();
            let cli_json = &out[out.find("\n{").expect("report JSON") + 1..];
            let spec = DseSpec {
                families: vec![SweepFamily::Rosace],
                arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
                sizes: vec![25],
                config: DseConfig {
                    seed: 7,
                    budget_evals: 200,
                    threads: 1,
                    pareto: pareto.then(ParetoConfig::default),
                    ..DseConfig::default()
                },
            };
            let report = run_dse(&spec, &|_| {}).unwrap();
            assert_eq!(report.runs.len(), if pareto { 1 } else { 2 });
            assert_eq!(
                without_clock(cli_json.trim_end()),
                without_clock(&mia_dse::report_json(&report)),
                "pareto = {pareto}"
            );
        }
    }
}
