//! The optimize driver shared by `mia optimize` and the `mia-bench`
//! `dse` grid, and the report it produces.

use std::time::Instant;

use mia_model::arbiter::Arbiter;
use mia_model::{CoreId, TaskId};
use serde::Serialize;

use crate::pareto::ParetoPoint;
use crate::{optimize, optimize_joint, DseConfig, SearchSpace};

/// One point of a reported Pareto front: the objective triple plus the
/// design that achieves it. Rows are emitted in the archive's canonical
/// (deterministic) order.
#[derive(Debug, Clone, Serialize)]
pub struct FrontRow {
    /// Analyzed makespan in cycles.
    pub makespan: u64,
    /// Minimum slack over deadlined tasks (negative = a deadline would
    /// be missed under a tighter bound; `None`-deadline tasks ignored).
    pub min_slack: i64,
    /// Peak per-bank demand in words.
    pub bank_peak: u64,
    /// Index of the arbiter variant this design runs under.
    pub arbiter: u32,
    /// Cores the design actually uses.
    pub active_cores: u32,
    /// Task-to-core assignment, task-id order.
    pub assignment: Vec<u32>,
    /// Explicit task-to-bank placement, when the search remapped banks.
    pub banks: Option<Vec<u32>>,
}

impl FrontRow {
    /// Flattens an archive point into the report row.
    pub fn from_point(p: &ParetoPoint) -> Self {
        FrontRow {
            makespan: p.obj.makespan,
            min_slack: -p.obj.neg_slack,
            bank_peak: p.obj.bank_peak,
            arbiter: p.arbiter,
            active_cores: p.active_cores,
            assignment: p.assignment.clone(),
            banks: p.banks.clone(),
        }
    }
}

/// One optimization run: a workload × arbiter point of a DSE grid,
/// before/after makespans and the search's work counters. This is the
/// row format of `BENCH_dse.json`.
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeRun {
    /// Workload label ("rosace", "NL16", "sdf3:app.sdf3", a file path…).
    pub workload: String,
    /// Arbiter name.
    pub arbiter: String,
    /// Strategy label ("anneal" / "portfolio").
    pub strategy: String,
    /// Task count of the analyzed DAG.
    pub n: usize,
    /// Cores of the platform searched over.
    pub cores: usize,
    /// Chains the strategy ran.
    pub chains: usize,
    /// Analyzed makespan of the seed mapping.
    pub seed_makespan: u64,
    /// Analyzed makespan of the optimized mapping (≤ seed).
    pub optimized_makespan: u64,
    /// Relative improvement in percent.
    pub improvement_pct: f64,
    /// Cost lookups (including cache hits) plus the seed analysis.
    pub evaluations: usize,
    /// Analyses actually run (full or delta-resumed).
    pub analyses: usize,
    /// Lookups served by the memo cache (all outcomes).
    pub cache_hits: usize,
    /// Cache hits that returned a feasible cost.
    pub feasible_hits: usize,
    /// Cache hits that returned a known-infeasible verdict.
    pub infeasible_hits: usize,
    /// Analyses that resumed from a checkpoint instead of starting over.
    pub delta_resumes: usize,
    /// Evaluations aborted early because the cost passed the Metropolis
    /// rejection bound.
    pub bound_cutoffs: usize,
    /// `feasible_hits / evaluations` — useful cache work only.
    pub cache_hit_rate: f64,
    /// Candidates rejected as infeasible.
    pub infeasible: usize,
    /// Accepted annealing moves.
    pub accepted: usize,
    /// Chain that found the winner.
    pub best_chain: usize,
    /// Wall-clock seconds of the whole search.
    pub seconds: f64,
    /// The optimized core assignment (task-id order), when requested.
    pub mapping: Option<Vec<u32>>,
    /// The optimized execution order of each core (task ids), when
    /// requested with `mapping`; left out of the JSON otherwise.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub orders: Option<Vec<Vec<u32>>>,
    /// Points on the reported Pareto front (0 in scalar mode).
    pub front_size: usize,
    /// Hypervolume proxy of the front against the seed objectives (0 in
    /// scalar mode).
    pub hypervolume: f64,
    /// The front itself (empty in scalar mode).
    pub front: Vec<FrontRow>,
}

impl OptimizeRun {
    /// The makespan change in percent, as the one-line summaries print
    /// it: negative when the search improved on the seed, and `+0.00`,
    /// never `-0.00`, when it did not.
    pub fn makespan_change_pct(&self) -> f64 {
        if self.improvement_pct == 0.0 {
            0.0
        } else {
            -self.improvement_pct
        }
    }
}

/// A batch of runs plus the knobs they shared — serialized as one JSON
/// document (`BENCH_dse.json`).
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeReport {
    /// Base PRNG seed.
    pub seed: u64,
    /// Evaluation budget per run.
    pub budget_evals: usize,
    /// Strategy label.
    pub strategy: String,
    /// Worker threads actually used (the resolved count, never the `0 =
    /// all cores` sentinel); wall-clock only, results are
    /// thread-invariant.
    pub threads: usize,
    /// The raw `--threads` spec as given (`0` = all cores).
    pub requested_threads: usize,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Every run, in deterministic workload × arbiter order.
    pub runs: Vec<OptimizeRun>,
}

impl OptimizeReport {
    /// Wraps `runs` with the knobs `config` gave them. `threads` records
    /// the worker count the searches actually ran with; the raw `0 = all
    /// cores` spec goes to `requested_threads`.
    pub fn new(config: &DseConfig, wall_seconds: f64, runs: Vec<OptimizeRun>) -> Self {
        OptimizeReport {
            seed: config.seed,
            budget_evals: config.budget_evals,
            strategy: config.strategy.label().to_owned(),
            threads: config.resolved_workers(),
            requested_threads: config.threads,
            wall_seconds,
            runs,
        }
    }
}

/// Optimizes `space` under each named arbiter and returns one report row
/// per search, labelled `label`. With [`DseConfig::pareto`] set, the
/// whole list is one joint search ([`optimize_joint`]) reported as
/// `rr+mppa+…`; otherwise each arbiter gets its own [`optimize`] run.
/// `with_mapping` fills the rows' `mapping` and `orders`. `on_run` sees
/// each row as soon as its search ends.
///
/// # Errors
///
/// An unknown arbiter name, or a failed search as `label / arbiter:
/// error`.
pub fn run_arbiters(
    space: &SearchSpace,
    label: &str,
    arbiters: &[String],
    config: &DseConfig,
    with_mapping: bool,
    mut on_run: impl FnMut(&OptimizeRun),
) -> Result<Vec<OptimizeRun>, String> {
    let boxed = arbiters
        .iter()
        .map(|name| mia_arbiter::by_name_or_err(name))
        .collect::<Result<Vec<_>, _>>()?;
    let pareto = config.pareto.is_some();
    let width = if pareto { arbiters.len().max(1) } else { 1 };
    let n = space.seed_problem().len();
    let mut runs = Vec::new();
    for (names, group) in arbiters.chunks(width).zip(boxed.chunks(width)) {
        let name = names.join("+");
        let refs: Vec<&(dyn Arbiter + Send + Sync)> =
            group.iter().map(std::convert::AsRef::as_ref).collect();
        let started = Instant::now();
        let result = if pareto {
            optimize_joint(space, &refs, config)
        } else {
            optimize(space, refs[0], config)
        }
        .map_err(|e| format!("{label} / {name}: {e}"))?;
        let seconds = started.elapsed().as_secs_f64();
        let best = &result.best_mapping;
        let run = OptimizeRun {
            workload: label.to_owned(),
            arbiter: name,
            strategy: config.strategy.label().to_owned(),
            n,
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
            mapping: with_mapping.then(|| {
                (0..n)
                    .map(|i| best.core_of(TaskId::from_index(i)).0)
                    .collect()
            }),
            orders: with_mapping.then(|| {
                (0..best.cores())
                    .map(|c| {
                        best.order(CoreId::from_index(c))
                            .iter()
                            .map(|t| t.0)
                            .collect()
                    })
                    .collect()
            }),
            front_size: result.front.len(),
            hypervolume: result.hypervolume,
            front: result.front.iter().map(FrontRow::from_point).collect(),
        };
        on_run(&run);
        runs.push(run);
    }
    Ok(runs)
}

/// Header row of [`report_csv`] — consumers can pin against it. New
/// columns are inserted *before* the trailing `cache_hit_rate,seconds`
/// pair so `rsplit`-based consumers keep working.
pub const DSE_CSV_HEADER: &str = "workload,arbiter,strategy,n,chains,seed_makespan,optimized_makespan,improvement_pct,evaluations,cache_hits,feasible_hits,infeasible_hits,delta_resumes,front_size,hypervolume,cache_hit_rate,seconds";

/// Output format of an optimize report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DseReportFormat {
    /// Pretty-printed JSON (the artefact format). The default.
    #[default]
    Json,
    /// A flat CSV table, one row per run (see [`DSE_CSV_HEADER`]).
    Csv,
}

/// Serializes a report as pretty-printed JSON.
pub fn report_json(report: &OptimizeReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Flattens a report into CSV: the [`DSE_CSV_HEADER`] columns, one row
/// per run. Workload labels are sanitised (commas/newlines replaced) so
/// every row has exactly seventeen columns.
pub fn report_csv(report: &OptimizeReport) -> String {
    let mut csv = String::from(DSE_CSV_HEADER);
    csv.push('\n');
    for r in &report.runs {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{:.4},{:.4},{:.6}\n",
            r.workload.replace(['\n', '\r'], " ").replace(',', ";"),
            r.arbiter,
            r.strategy,
            r.n,
            r.chains,
            r.seed_makespan,
            r.optimized_makespan,
            r.improvement_pct,
            r.evaluations,
            r.cache_hits,
            r.feasible_hits,
            r.infeasible_hits,
            r.delta_resumes,
            r.front_size,
            r.hypervolume,
            r.cache_hit_rate,
            r.seconds,
        ));
    }
    csv
}

/// Renders a report in `format`.
pub fn render_dse_report(report: &OptimizeReport, format: DseReportFormat) -> String {
    match format {
        DseReportFormat::Json => report_json(report),
        DseReportFormat::Csv => report_csv(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OptimizeReport {
        OptimizeReport {
            seed: 7,
            budget_evals: 200,
            strategy: "portfolio".into(),
            threads: 4,
            requested_threads: 0,
            wall_seconds: 1.5,
            runs: vec![OptimizeRun {
                workload: "rosace, the avionics one".into(),
                arbiter: "rr".into(),
                strategy: "portfolio".into(),
                n: 25,
                cores: 16,
                chains: 8,
                seed_makespan: 1000,
                optimized_makespan: 900,
                improvement_pct: 10.0,
                evaluations: 201,
                analyses: 150,
                cache_hits: 51,
                feasible_hits: 44,
                infeasible_hits: 7,
                delta_resumes: 120,
                bound_cutoffs: 18,
                cache_hit_rate: 0.2189,
                infeasible: 3,
                accepted: 40,
                best_chain: 2,
                seconds: 0.7,
                mapping: Some(vec![0, 1, 2]),
                orders: Some(vec![vec![0], vec![1], vec![2]]),
                front_size: 2,
                hypervolume: 0.125,
                front: vec![FrontRow {
                    makespan: 900,
                    min_slack: 40,
                    bank_peak: 12,
                    arbiter: 0,
                    active_cores: 16,
                    assignment: vec![0, 1, 2],
                    banks: None,
                }],
            }],
        }
    }

    #[test]
    fn json_has_the_pinned_fields() {
        let json = report_json(&sample());
        for field in [
            "\"runs\"",
            "\"seed_makespan\"",
            "\"optimized_makespan\"",
            "\"cache_hit_rate\"",
            "\"improvement_pct\"",
            "\"feasible_hits\"",
            "\"infeasible_hits\"",
            "\"delta_resumes\"",
            "\"bound_cutoffs\"",
            "\"requested_threads\"",
            "\"front_size\"",
            "\"hypervolume\"",
            "\"front\"",
            "\"min_slack\"",
            "\"bank_peak\"",
            "\"active_cores\"",
            "\"orders\"",
        ] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
    }

    #[test]
    fn an_unimproved_run_prints_a_positive_zero_change() {
        let mut run = sample().runs.remove(0);
        assert_eq!(format!("{:+.2}%", run.makespan_change_pct()), "-10.00%");
        run.improvement_pct = 0.0;
        assert_eq!(format!("{:+.2}%", run.makespan_change_pct()), "+0.00%");
    }

    #[test]
    fn csv_rows_always_have_seventeen_columns() {
        let csv = report_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "workload,arbiter,strategy,n,chains,seed_makespan,optimized_makespan,\
             improvement_pct,evaluations,cache_hits,feasible_hits,infeasible_hits,\
             delta_resumes,front_size,hypervolume,cache_hit_rate,seconds"
        );
        assert_eq!(lines[0], DSE_CSV_HEADER);
        assert_eq!(lines.len(), 2);
        // The comma inside the workload label was sanitised away.
        assert_eq!(
            lines[1].matches(',').count(),
            DSE_CSV_HEADER.matches(',').count()
        );
        assert_eq!(DSE_CSV_HEADER.matches(',').count(), 16);
        assert!(lines[1].starts_with("rosace; the avionics one,rr,portfolio,25,8,1000,900,"));
        // The counter columns land where the header says they do.
        let cols: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cols[9], "51"); // cache_hits
        assert_eq!(cols[10], "44"); // feasible_hits
        assert_eq!(cols[11], "7"); // infeasible_hits
        assert_eq!(cols[12], "120"); // delta_resumes
        assert_eq!(cols[13], "2"); // front_size
        assert_eq!(cols[14], "0.1250"); // hypervolume
                                        // The trailing pair is still `cache_hit_rate,seconds` — rsplit
                                        // consumers keep working.
        let (rest, seconds) = lines[1].rsplit_once(',').unwrap();
        let (_, rate) = rest.rsplit_once(',').unwrap();
        assert_eq!(seconds, "0.700000");
        assert_eq!(rate, "0.2189");
        assert_eq!(render_dse_report(&sample(), DseReportFormat::Csv), csv);
        assert!(render_dse_report(&sample(), DseReportFormat::Json).contains("\"runs\""));
    }
}
