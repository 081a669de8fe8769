//! The DSE grid driver: optimize a workload-family × arbiter grid and
//! emit one report (`BENCH_dse.json`).
//!
//! This is the machinery behind the `dse` binary
//! (`cargo run --release -p mia-bench --bin dse`). It reuses the sweep's
//! family vocabulary ([`parse_sweep_family_token`]) so every sweep
//! workload — generated Figure 3 families, `rosace`, `sdf3:<path>` —
//! can be optimized, each from the same layered-cyclic seed mapping the
//! sweep measures, and reports the before/after analyzed makespans per
//! grid point:
//!
//! ```text
//! cargo run --release -p mia-bench --bin dse -- \
//!     --families rosace,layered --arbiters rr,mppa --sizes 150,300 \
//!     --budget-evals 2000 --seed 7 -o BENCH_dse.json
//! ```

use std::time::Instant;

use mia_dse::{
    optimize, optimize_joint, AnnealTuning, DseConfig, FrontRow, OptimizeReport, OptimizeRun,
    ParetoConfig, SearchSpace, Strategy,
};
use mia_model::BankPolicy;

use crate::sweep::{parse_sweep_family_token, SweepFamily};

/// The grid a DSE batch covers, plus the shared search knobs.
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Workload families (sweep vocabulary: `LS<k>`/`NL<k>`, `tobita`,
    /// `layered`, `rosace`, `sdf3:<path>`).
    pub families: Vec<SweepFamily>,
    /// Arbiter names (one independent search per arbiter).
    pub arbiters: Vec<String>,
    /// Task counts (SDF families round up to whole graph iterations).
    pub sizes: Vec<usize>,
    /// The search strategy.
    pub strategy: Strategy,
    /// Base PRNG seed (both the generator mix and the search).
    pub seed: u64,
    /// Evaluation budget per grid point.
    pub budget_evals: usize,
    /// Worker threads per search (0 = all cores). Wall-clock only.
    pub threads: usize,
    /// Multi-objective mode: fold the arbiter list into one joint
    /// search per grid point and report the Pareto front.
    pub pareto: bool,
}

impl Default for DseSpec {
    /// `rosace` + `layered` × round-robin at one size, the default
    /// 8-chain portfolio with 2000 evaluations.
    fn default() -> Self {
        DseSpec {
            families: vec![
                SweepFamily::Rosace,
                parse_sweep_family_token("layered").expect("preset token"),
            ],
            arbiters: vec!["rr".to_owned()],
            sizes: vec![150],
            strategy: Strategy::Portfolio { chains: 8 },
            seed: 7,
            budget_evals: 2_000,
            threads: 0,
            pareto: false,
        }
    }
}

/// Runs every `family × size × arbiter` point of `spec` and assembles
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
    let make_config = || DseConfig {
        strategy: spec.strategy,
        seed: spec.seed,
        budget_evals: spec.budget_evals,
        threads: spec.threads,
        tuning: AnnealTuning::default(),
        pareto: spec.pareto.then(ParetoConfig::default),
    };
    let make_run = |space: &SearchSpace,
                    family_label: String,
                    arbiter: String,
                    result: &mia_dse::DseResult,
                    seconds: f64| OptimizeRun {
        workload: family_label,
        arbiter,
        strategy: spec.strategy.label().to_owned(),
        n: space.seed_problem().len(),
        cores: space.seed_problem().platform().cores(),
        chains: result.chains,
        seed_makespan: result.seed_makespan,
        optimized_makespan: result.best_makespan,
        improvement_pct: result.improvement_pct(),
        evaluations: result.stats.evaluations,
        analyses: result.stats.analyses,
        cache_hits: result.stats.cache_hits,
        feasible_hits: result.stats.feasible_hits,
        infeasible_hits: result.stats.infeasible_hits,
        delta_resumes: result.stats.delta_resumes,
        bound_cutoffs: result.stats.bound_cutoffs,
        cache_hit_rate: result.stats.hit_rate(),
        infeasible: result.stats.infeasible,
        accepted: result.accepted,
        best_chain: result.best_chain,
        seconds,
        mapping: None,
        orders: None,
        front_size: result.front.len(),
        hypervolume: result.hypervolume,
        front: result.front.iter().map(FrontRow::from_point).collect(),
    };
    for family in &spec.families {
        for &n in &spec.sizes {
            let problem = family.problem(n, spec.seed)?;
            let space = SearchSpace::new(problem, BankPolicy::PerCoreBank);
            let config = make_config();
            if spec.pareto {
                // One joint search per grid point: the arbiter list
                // becomes a search axis instead of an outer loop.
                let boxed: Vec<_> = spec
                    .arbiters
                    .iter()
                    .map(|name| mia_arbiter::by_name_or_err(name))
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&(dyn mia_model::arbiter::Arbiter + Send + Sync)> =
                    boxed.iter().map(std::convert::AsRef::as_ref).collect();
                let arbiter_label = spec.arbiters.join("+");
                let run_started = Instant::now();
                let result = optimize_joint(&space, &refs, &config)
                    .map_err(|e| format!("{} / {arbiter_label}: {e}", family.label()))?;
                let run = make_run(
                    &space,
                    family.label(),
                    arbiter_label,
                    &result,
                    run_started.elapsed().as_secs_f64(),
                );
                progress(&run);
                runs.push(run);
            } else {
                for arbiter_name in &spec.arbiters {
                    let arbiter = mia_arbiter::by_name_or_err(arbiter_name)?;
                    let run_started = Instant::now();
                    let result = optimize(&space, arbiter.as_ref(), &config)
                        .map_err(|e| format!("{} / {arbiter_name}: {e}", family.label()))?;
                    let run = make_run(
                        &space,
                        family.label(),
                        arbiter_name.clone(),
                        &result,
                        run_started.elapsed().as_secs_f64(),
                    );
                    progress(&run);
                    runs.push(run);
                }
            }
        }
    }
    // Every grid point shares one worker resolution — record what the
    // searches actually ran with, and the raw spec separately.
    let resolved = make_config().resolved_workers();
    Ok(OptimizeReport {
        seed: spec.seed,
        budget_evals: spec.budget_evals,
        strategy: spec.strategy.label().to_owned(),
        threads: resolved,
        requested_threads: spec.threads,
        wall_seconds: started.elapsed().as_secs_f64(),
        runs,
    })
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
    let mut spec = DseSpec::default();
    let mut out = None;
    let mut csv = false;
    let mut chains = 8usize;
    let mut strategy_token = "portfolio".to_owned();
    let value_of = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--families" => {
                spec.families = value_of(args, i, flag)?
                    .split(',')
                    .map(parse_sweep_family_token)
                    .collect::<Result<_, _>>()?;
            }
            "--arbiters" => {
                spec.arbiters = value_of(args, i, flag)?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
                for name in &spec.arbiters {
                    mia_arbiter::by_name_or_err(name)?;
                }
            }
            "--sizes" => {
                spec.sizes = value_of(args, i, flag)?
                    .split(',')
                    .map(|tok| {
                        tok.parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad size `{tok}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--strategy" => strategy_token = value_of(args, i, flag)?,
            "--chains" => {
                chains = value_of(args, i, flag)?
                    .parse()
                    .ok()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| "--chains must be a positive number".to_owned())?;
            }
            "--seed" => {
                spec.seed = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_owned())?;
            }
            "--budget-evals" => {
                spec.budget_evals = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--budget-evals must be a number".to_owned())?;
            }
            "--threads" => {
                spec.threads = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--threads must be a number".to_owned())?;
            }
            "-o" | "--out" => out = Some(value_of(args, i, flag)?),
            "--pareto" => {
                spec.pareto = true;
                i += 1;
                continue;
            }
            "--csv" => {
                csv = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown dse flag `{other}`")),
        }
        i += 2;
    }
    spec.strategy = match strategy_token.as_str() {
        "anneal" => Strategy::Anneal,
        "portfolio" => Strategy::Portfolio { chains },
        other => return Err(format!("unknown strategy `{other}` (anneal, portfolio)")),
    };
    if spec.families.is_empty() || spec.arbiters.is_empty() || spec.sizes.is_empty() {
        return Err("families, arbiters and sizes must all be non-empty".to_owned());
    }
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
            strategy: Strategy::Portfolio { chains: 2 },
            seed: 7,
            budget_evals: 40,
            threads: 1,
            pareto: false,
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
            strategy: Strategy::Portfolio { chains: 3 },
            seed: 2,
            budget_evals: 60,
            threads: 2,
            pareto: false,
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
        assert_eq!(spec.strategy, Strategy::Anneal);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.budget_evals, 500);
        assert_eq!(spec.threads, 4);
        assert!(spec.pareto);
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
        assert!(bad(&["--frobnicate", "1"]).contains("unknown dse flag"));
    }

    #[test]
    fn pareto_grids_fold_the_arbiters_and_report_fronts() {
        let spec = DseSpec {
            families: vec![SweepFamily::Rosace],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![25],
            strategy: Strategy::Portfolio { chains: 3 },
            seed: 7,
            budget_evals: 90,
            threads: 1,
            pareto: true,
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
}
