//! The `mia optimize` subcommand: interference-aware design-space
//! exploration with the incremental analysis as the objective.
//!
//! ```text
//! mia optimize rosace --budget-evals 200 --seed 7
//! mia optimize app.sdf3 --iterations 4 --arbiters rr,mppa --csv
//! mia optimize workload.json --strategy anneal --budget-evals 500
//! mia optimize layered -n 300 --arbiters rr,mppa -o report.json
//! ```
//!
//! The positional workload accepts every form the rest of the CLI takes
//! — a JSON workload file (its mapping is the seed the search must beat),
//! an SDF input (`rosace`, `.sdf`/`.sdf3`/`.xml`; seeded by
//! `--seed-strategy`, default the paper's layered-cyclic) — plus a
//! generator family token (`LS16`, `NL4`, `tobita`, `layered`) sized by
//! `-n` and seeded by `--gen-seed`.
//!
//! Flags (all optional):
//!
//! | Flag | Meaning | Default |
//! |------|---------|---------|
//! | `--strategy anneal\|portfolio` | search strategy | `portfolio` |
//! | `--chains N` | portfolio chains | `8` |
//! | `--seed N` | search PRNG seed (runs are deterministic per seed) | `0` |
//! | `--budget-evals N` | total evaluation budget across chains | `2000` |
//! | `--threads N` | worker threads (`0` = all cores); wall-clock only, never results | `0` |
//! | `--arbiters A,B,…` | one independent search per arbiter (folded into *one* joint search under `--pareto`) | `rr` |
//! | `--pareto` | multi-objective joint search; the report gains the Pareto front | off |
//! | `--objectives A,B,…` | dominance axes (`makespan`, `slack`, `bank`); implies `--pareto` | all three |
//! | `--front-capacity N` | cap on reported front points (`0` = unbounded) | `64` |
//! | `--seed-strategy S` | seed mapping for SDF/generated inputs (`etf`, `cyclic`, `balanced`, `heft`) | `cyclic` |
//! | `--gen-seed N` | generator PRNG seed for family tokens | `0` |
//! | `--cores N` / `--iterations K` / `--deadline C` | shared SDF expansion flags | 16 / 1 / — |
//! | `--with-mapping` | include the optimized core assignment (`mapping`) and per-core execution orders (`orders`) in the JSON report; both go into a workload file as they are | off |
//! | `--csv` | emit the flat CSV table instead of JSON | JSON |
//! | `-o FILE` | write the report to `FILE` | stdout |

use std::fs;
use std::time::Instant;

use mia_core::AnalysisOptions;
use mia_dse::{
    render_dse_report, run_arbiters, AnnealTuning, DseConfig, DseReportFormat, ObjMask,
    OptimizeReport, ParetoConfig, SearchSpace, Strategy,
};
use mia_model::{BankPolicy, Cycles, Problem};

use crate::commands::{
    has_flag, is_sdf_input, mapping_by_name, opt, positional, profile_finish, profile_start,
    sdf_problem_full, seed_opt, task_count, CliError,
};
use crate::sweep::{parse_family_token, SweepFamily};
use crate::workload::WorkloadFile;

/// Runs `mia optimize` with the raw arguments after the subcommand name.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed flags, [`CliError::Io`]/
/// [`CliError::Parse`] for unreadable workloads, [`CliError::Analysis`]
/// when the search itself fails (e.g. the seed mapping is infeasible).
pub fn optimize_cmd(args: &[String]) -> Result<String, CliError> {
    let token = positional(args).ok_or_else(|| {
        CliError::Usage("optimize needs a workload (file, SDF input or family token)".into())
    })?;
    let (problem, policy, label) = load_optimize_problem(token, args)?;
    optimize_loaded(problem, policy, &label, args)
}

/// Everything `optimize` does after the seed problem is loaded. Shared
/// by the one-shot command and the `mia serve` engine — a served
/// `optimize` against a resident handle runs exactly this code, so the
/// reply differs from the CLI only in the wall-clock fields.
pub(crate) fn optimize_loaded(
    problem: Problem,
    policy: BankPolicy,
    label: &str,
    args: &[String],
) -> Result<String, CliError> {
    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
        opt(args, flag)
            .map(str::parse)
            .transpose()
            .map_err(|_| CliError::Usage(format!("{flag} must be a number")))
    }
    let strategy = opt(args, "--strategy").unwrap_or("portfolio");
    let strategy = Strategy::parse(strategy, num(args, "--chains")?).map_err(CliError::Usage)?;
    let seed = num(args, "--seed")?.unwrap_or(0);
    let budget_evals = num(args, "--budget-evals")?.unwrap_or(2_000);
    let threads = num(args, "--threads")?.unwrap_or(0);
    let arbiters: Vec<String> = opt(args, "--arbiters")
        .unwrap_or("rr")
        .split(',')
        .map(str::to_owned)
        .collect();
    for name in &arbiters {
        mia_arbiter::by_name_or_err(name).map_err(CliError::Usage)?;
    }

    let mut options = AnalysisOptions::new();
    if let Some(deadline) = num(args, "--deadline")? {
        options = options.deadline(Cycles(deadline));
    }
    // Multi-objective mode: `--pareto` (or an explicit `--objectives`
    // mask, which implies it) switches the search to the joint-axis
    // front-reporting driver. Without either flag, the scalar path is
    // byte-identical to the pre-Pareto CLI.
    let pareto_requested = has_flag(args, "--pareto") || opt(args, "--objectives").is_some();
    let mask = match opt(args, "--objectives") {
        Some(spec) => ObjMask::parse(spec).map_err(CliError::Usage)?,
        None => ObjMask::all(),
    };
    let front_capacity = num(args, "--front-capacity")?.unwrap_or(64);

    // Arm telemetry before the search starts: the evaluator resolves
    // its metric handles in `Evaluator::new`.
    let profile = profile_start(args);

    let space = SearchSpace::new(problem, policy).with_options(options);
    let config = DseConfig {
        strategy,
        seed,
        budget_evals,
        threads,
        tuning: AnnealTuning::default(),
        pareto: pareto_requested.then_some(ParetoConfig {
            mask,
            capacity: front_capacity,
        }),
    };

    let started = Instant::now();
    let with_mapping = has_flag(args, "--with-mapping");
    let runs = run_arbiters(&space, label, &arbiters, &config, with_mapping, |_| {})
        .map_err(CliError::Analysis)?;
    let report = OptimizeReport::new(&config, started.elapsed().as_secs_f64(), runs);
    let mut summary = String::new();
    for run in &report.runs {
        let detail = if pareto_requested {
            let (size, axes, hv) = (run.front_size, mask.label(), run.hypervolume);
            format!(
                "front {size} ({axes})  hypervolume {hv:.4}  evals {}",
                run.evaluations
            )
        } else {
            let (resumes, rate) = (run.delta_resumes, run.cache_hit_rate * 100.0);
            format!(
                "evals {}  delta resumes {resumes}  cache hit rate {rate:.1}%",
                run.evaluations
            )
        };
        summary.push_str(&format!(
            "{label} / {}: makespan {} -> {} ({:+.2}%)  {detail}  {:.2}s\n",
            run.arbiter,
            run.seed_makespan,
            run.optimized_makespan,
            run.makespan_change_pct(),
            run.seconds,
        ));
    }

    let format = if has_flag(args, "--csv") {
        DseReportFormat::Csv
    } else {
        DseReportFormat::Json
    };
    let rendered = render_dse_report(&report, format);

    if let Some(profile) = profile {
        profile_finish(profile, None, &mut summary)?;
    }
    match opt(args, "-o").or_else(|| opt(args, "--out")) {
        Some(path) => {
            fs::write(path, &rendered)?;
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

/// Resolves the positional workload of `mia optimize` into a seed
/// problem, the bank policy candidates are re-derived under, and a
/// report label. Also the `load` method of the `mia serve` engine: it
/// accepts every workload form any served method needs (JSON files, SDF
/// inputs, generator family tokens).
pub(crate) fn load_optimize_problem(
    token: &str,
    args: &[String],
) -> Result<(Problem, BankPolicy, String), CliError> {
    let family = parse_family_token(token);
    // `rosace` is a family token too, but here it stays the SDF input
    // every analysis command takes, sized by `--iterations`.
    if is_sdf_input(token) && !matches!(family, Ok(SweepFamily::Sdf(_))) {
        // The shared SDF pipeline, seeded from `--seed-strategy`
        // (default the paper's layered-cyclic — the incumbent the
        // acceptance criteria measure against; `--strategy` names the
        // *search* strategy here).
        let (problem, _) = sdf_problem_full(token, args, "--seed-strategy", "cyclic")?;
        return Ok((problem, BankPolicy::PerCoreBank, token.to_owned()));
    }
    if let Ok(family) = family {
        let n = task_count(args, &format!("optimize {token}"))?;
        let mut problem = family.problem(n, seed_opt(args, "--gen-seed")?)?;
        // The family ships its own layered-cyclic mapping; an explicit
        // `--seed-strategy` replaces it.
        if let Some(strategy) = opt(args, "--seed-strategy") {
            let platform = problem.platform().clone();
            let mapping = mapping_by_name(problem.graph(), platform.cores(), strategy)?;
            problem = Problem::new(problem.graph().clone(), mapping, platform)
                .map_err(|e| CliError::Analysis(e.to_string()))?;
        }
        return Ok((problem, BankPolicy::PerCoreBank, family.label()));
    }
    // A JSON workload file: its own mapping is the seed, its bank policy
    // governs candidate re-derivation.
    let text = fs::read_to_string(token)?;
    let file: WorkloadFile =
        serde_json::from_str(&text).map_err(|e| CliError::Parse(format!("{token}: {e}")))?;
    let policy = file.parsed_policy().map_err(|_| {
        CliError::Parse(format!(
            "{token}: unknown bank policy `{}`",
            file.bank_policy
        ))
    })?;
    let problem = file
        .into_problem()
        .map_err(|e| CliError::Parse(format!("{token}: {e}")))?;
    Ok((problem, policy, token.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rosace_optimizes_deterministically_and_never_regresses() {
        // The acceptance-criteria invocation.
        let out = run(&args(&[
            "optimize",
            "rosace",
            "--budget-evals",
            "200",
            "--seed",
            "7",
        ]))
        .unwrap();
        let again = run(&args(&[
            "optimize",
            "rosace",
            "--budget-evals",
            "200",
            "--seed",
            "7",
        ]))
        .unwrap();
        // Deterministic apart from wall-clock: compare the summary line's
        // makespans and the JSON's stable fields.
        let stable = |s: &str| -> (String, String) {
            let summary = s
                .lines()
                .next()
                .unwrap()
                .split("  ")
                .next()
                .unwrap()
                .to_owned();
            let makespans = s
                .lines()
                .filter(|l| l.contains("\"seed_makespan\"") || l.contains("\"optimized_makespan\""))
                .collect::<Vec<_>>()
                .join("\n");
            (summary, makespans)
        };
        assert_eq!(stable(&out), stable(&again));
        assert!(out.contains("cache hit rate"), "{out}");
        assert!(out.contains("\"cache_hit_rate\""), "{out}");

        // Never worse: parse the two makespans from the summary.
        let line = out.lines().next().unwrap();
        let grab = |marker: &str| -> u64 {
            let rest = &line[line.find(marker).unwrap() + marker.len()..];
            rest.split_whitespace().next().unwrap().parse().unwrap()
        };
        let seed_makespan = grab("makespan ");
        let optimized = grab("-> ");
        assert!(optimized <= seed_makespan, "{line}");
    }

    #[test]
    fn optimize_accepts_family_tokens_and_multiple_arbiters() {
        let out = run(&args(&[
            "optimize",
            "LS4",
            "-n",
            "24",
            "--arbiters",
            "rr,mppa",
            "--budget-evals",
            "60",
            "--csv",
        ]))
        .unwrap();
        assert!(out.contains(mia_dse::DSE_CSV_HEADER), "{out}");
        assert!(out.contains("LS4,rr,portfolio,24,"), "{out}");
        assert!(out.contains("LS4,mppa,portfolio,24,"), "{out}");
        // `sdf3:<path>` is sized by `-n`, as in `mia sweep`.
        let out = run(&args(&[
            "optimize",
            "sdf3:../../examples/fixture.sdf3",
            "-n",
            "24",
            "--budget-evals",
            "20",
            "--csv",
        ]))
        .unwrap();
        assert!(
            out.contains("sdf3:../../examples/fixture.sdf3,rr,portfolio,"),
            "{out}"
        );
    }

    #[test]
    fn optimize_accepts_json_workloads_and_writes_reports() {
        let dir = crate::commands::tests::scratch_dir();
        let w_path = dir.join("opt-w.json");
        let r_path = dir.join("opt-r.json");
        run(&args(&[
            "generate",
            "--family",
            "LS4",
            "-n",
            "24",
            "-o",
            w_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&args(&[
            "optimize",
            w_path.to_str().unwrap(),
            "--budget-evals",
            "50",
            "--with-mapping",
            "-o",
            r_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("report written"), "{out}");
        let json = std::fs::read_to_string(&r_path).unwrap();
        assert!(json.contains("\"optimized_makespan\""), "{json}");
        assert!(json.contains("\"mapping\""), "{json}");
        std::fs::remove_file(w_path).ok();
        std::fs::remove_file(r_path).ok();
    }

    /// The `--with-mapping` export carries each core's order as well as
    /// its tasks: written back into the workload, it analyses to exactly
    /// the reported optimized makespan. (With the cores alone, the tasks
    /// of a core run in task order, which here gives 24,843 cycles
    /// instead of the reported 24,884.)
    #[test]
    fn exported_mapping_reproduces_the_optimized_makespan() {
        #[derive(serde::Deserialize)]
        struct Report {
            runs: Vec<Run>,
        }
        #[derive(serde::Deserialize)]
        struct Run {
            optimized_makespan: u64,
            mapping: Vec<u32>,
            orders: Vec<Vec<u32>>,
        }
        let dir = crate::commands::tests::scratch_dir();
        let w_path = dir.join("export-w.json");
        let r_path = dir.join("export-r.json");
        let (w, r) = (w_path.to_str().unwrap(), r_path.to_str().unwrap());
        run(&args(&[
            "generate", "--family", "LS16", "-n", "300", "--seed", "7", "-o", w,
        ]))
        .unwrap();
        run(&args(&[
            "optimize",
            w,
            "--arbiters",
            "rr",
            "--budget-evals",
            "200",
            "--seed",
            "7",
            "--with-mapping",
            "-o",
            r,
        ]))
        .unwrap();
        let report: Report = serde_json::from_str(&std::fs::read_to_string(r).unwrap()).unwrap();
        let best = &report.runs[0];
        let mut file: WorkloadFile =
            serde_json::from_str(&std::fs::read_to_string(w).unwrap()).unwrap();
        assert_ne!(file.mapping, best.mapping, "the search must move a task");
        file.mapping = best.mapping.clone();
        file.orders = Some(best.orders.clone());
        std::fs::write(w, serde_json::to_string(&file).unwrap()).unwrap();
        let out = run(&args(&["analyze", w])).unwrap();
        let expected = format!("makespan: {}cy ", best.optimized_makespan);
        assert!(out.contains(&expected), "expected {expected}:\n{out}");
        std::fs::remove_file(w_path).ok();
        std::fs::remove_file(r_path).ok();
    }

    #[test]
    fn seed_strategy_changes_the_family_token_baseline() {
        // Generated inputs default to the generator's layered-cyclic
        // mapping; an explicit --seed-strategy replaces the seed and so
        // shifts the reported seed_makespan baseline.
        let base = |extra: &[&str]| -> String {
            let mut a = vec![
                "optimize",
                "NL4",
                "-n",
                "48",
                "--budget-evals",
                "0",
                "--csv",
            ];
            a.extend_from_slice(extra);
            run(&args(&a)).unwrap()
        };
        let cyclic = base(&[]);
        let balanced = base(&["--seed-strategy", "balanced"]);
        let seed_of = |out: &str| -> String {
            out.lines()
                .find(|l| l.starts_with("NL4,"))
                .unwrap()
                .split(',')
                .nth(5)
                .unwrap()
                .to_owned()
        };
        // Different seed mappings analyze differently (48 tasks, 4
        // layers: balancing visibly departs from cyclic).
        assert_ne!(seed_of(&cyclic), seed_of(&balanced), "{cyclic}\n{balanced}");
    }

    #[test]
    fn bad_optimize_flags_are_usage_errors() {
        for bad in [
            vec!["optimize"],
            vec!["optimize", "rosace", "--strategy", "quantum"],
            vec!["optimize", "rosace", "--budget-evals", "many"],
            vec!["optimize", "rosace", "--arbiters", "bogus"],
            vec!["optimize", "LS4"], // family without -n
            vec!["optimize", "rosace", "--seed-strategy", "nope"],
            vec!["optimize", "rosace", "--chains", "0"],
            vec![
                "optimize",
                "rosace",
                "--strategy",
                "anneal",
                "--chains",
                "4",
            ],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn pareto_mode_folds_the_arbiters_into_one_front_reporting_run() {
        let out = run(&args(&[
            "optimize",
            "LS4",
            "-n",
            "24",
            "--arbiters",
            "rr,mppa",
            "--budget-evals",
            "240",
            "--seed",
            "7",
            "--pareto",
        ]))
        .unwrap();
        // One joint run, not one per arbiter.
        assert!(out.contains("LS4 / rr+mppa:"), "{out}");
        assert!(out.contains("front "), "{out}");
        for field in [
            "\"front_size\"",
            "\"hypervolume\"",
            "\"front\"",
            "\"min_slack\"",
        ] {
            assert!(out.contains(field), "missing {field}: {out}");
        }
        // The front's makespan-best never exceeds the scalar result of
        // a single-arbiter search; the joint run gets a proportionally
        // larger budget since it spreads chains over two variants and
        // the full weight-profile rotation.
        let scalar = run(&args(&[
            "optimize",
            "LS4",
            "-n",
            "24",
            "--arbiters",
            "rr",
            "--budget-evals",
            "120",
            "--seed",
            "7",
            "--csv",
        ]))
        .unwrap();
        let grab = |s: &str, marker: &str| -> u64 {
            let line = s.lines().find(|l| l.contains(marker)).unwrap();
            let rest = &line[line.find("-> ").unwrap() + 3..];
            rest.split_whitespace().next().unwrap().parse().unwrap()
        };
        let joint_best = grab(&out, "rr+mppa");
        let scalar_best: u64 = scalar
            .lines()
            .find(|l| l.starts_with("LS4,rr,"))
            .unwrap()
            .split(',')
            .nth(6)
            .unwrap()
            .parse()
            .unwrap();
        assert!(joint_best <= scalar_best, "{joint_best} > {scalar_best}");
    }

    #[test]
    fn objectives_flag_masks_dominance_and_implies_pareto() {
        let out = run(&args(&[
            "optimize",
            "LS4",
            "-n",
            "24",
            "--budget-evals",
            "60",
            "--objectives",
            "makespan,bank",
            "--csv",
        ]))
        .unwrap();
        // CSV rows carry the front columns (13 = front_size).
        let row = out.lines().find(|l| l.starts_with("LS4,rr,")).unwrap();
        let front_size: usize = row.split(',').nth(13).unwrap().parse().unwrap();
        assert!(front_size >= 1, "{out}");
        let err = run(&args(&[
            "optimize",
            "LS4",
            "-n",
            "24",
            "--objectives",
            "latency",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn optimize_threads_do_not_change_the_report() {
        let one = run(&args(&[
            "optimize",
            "rosace",
            "--budget-evals",
            "120",
            "--seed",
            "3",
            "--threads",
            "1",
            "--csv",
        ]))
        .unwrap();
        let many = run(&args(&[
            "optimize",
            "rosace",
            "--budget-evals",
            "120",
            "--seed",
            "3",
            "--threads",
            "8",
            "--csv",
        ]))
        .unwrap();
        // All CSV columns except the wall-clock column match.
        let stable = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with("rosace,"))
                .map(|l| {
                    l.rsplit_once(',').expect("csv row").0.to_owned() // drop seconds
                })
                .collect()
        };
        assert_eq!(stable(&one), stable(&many));
    }
}
