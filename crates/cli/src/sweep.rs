//! The workload-family vocabulary every front end shares, and the
//! batch sweep engine behind `mia sweep`.
//!
//! # Family tokens
//!
//! [`parse_family_token`] is the one parser of family tokens, and
//! [`SweepFamily::problem`] the one `(family, n, seed)` problem builder:
//! `mia generate`, `mia optimize <family>`, `mia sweep`, a served `load`,
//! the `mia-bench` `dse` grid and its figure binaries all resolve tokens
//! here. The parser accepts the explicit Figure 3 labels (`LS4`, `LS16`,
//! `LS64`, `NL4`, `NL16`, `NL64`, case-insensitive, any positive
//! parameter), two named presets for the random generator, and two
//! **real-benchmark families** that turn a sweep from a synthetic grid
//! into a benchmark harness:
//!
//! * `tobita` — `LS16`: the Tobita–Kasahara standard-task-graph shape,
//!   fixed layer size 16 (one task per core of the MPPA cluster), the
//!   number of layers grows with the task count (deep DAGs),
//! * `layered` — `NL16`: 16 fixed layers whose width grows with the task
//!   count (wide DAGs),
//! * `rosace` — the ROSACE avionics case study ([`mia_sdf::rosace()`]):
//!   the requested size is met by expanding ⌈n / 25⌉ hyper-periods of
//!   the flight controller into a temporal DAG,
//! * `sdf3:<path>` — any SDF3 benchmark file ([`mia_sdf::parse_sdf3`];
//!   a `.sdf` suffix selects the text format instead), expanded the same
//!   way: ⌈n / firings-per-iteration⌉ graph iterations.
//!
//! SDF-derived families are deterministic (the seed only affects the
//! generated families) and are mapped onto the 16-core MPPA cluster
//! with the layered-cyclic strategy — the paper's mapping discipline.
//! `mia generate` and `mia optimize` pass their seed to the builder as
//! given; the grids (`mia sweep`, the `dse` grid, the figure binaries)
//! mix it per point through [`SweepFamily::grid_problem`].
//!
//! # The sweep
//!
//! A [`SweepSpec`] names an arbiter × family × size × algorithm grid;
//! [`run_sweep`] measures every point — the points of one (family, size)
//! group are **independent analyses** of one shared problem, so they run
//! concurrently on a scoped thread pool (`jobs`) — and returns a single
//! [`SweepReport`] that serializes to one JSON document
//! ([`report_json`]) or a flat CSV table ([`report_csv`]). Reproducing
//! the paper's Figure 3 sweep is one command:
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
//! | `--families A,B,…` | workload families (the tokens above) | `tobita,layered` |
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
//!
//! # Example
//!
//! ```
//! use mia_cli::sweep::{parse_family_token, run_sweep, SweepSpec};
//!
//! let spec = SweepSpec {
//!     families: vec![parse_family_token("tobita").unwrap()],
//!     sizes: vec![32, 64],
//!     ..SweepSpec::default()
//! };
//! let report = run_sweep(&spec, &|_| {});
//! assert_eq!(report.points.len(), 2);
//! assert!(report.points.iter().all(|p| p.outcome.seconds().is_some()));
//! ```

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mia_dag_gen::{Family, LayeredDag};
use mia_model::{Platform, Problem};
use serde::Serialize;

use crate::commands::{expand_sdf, profile_finish, profile_start, read_sdf_file, CliError};
use crate::{time_algorithm, Algorithm, Outcome};

/// One workload family: a random-DAG generator configuration or a real
/// SDF benchmark expanded to the requested task count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepFamily {
    /// A Figure 3 generator family (`LS<k>` / `NL<k>` and the `tobita` /
    /// `layered` presets).
    Generated(Family),
    /// The ROSACE avionics case study ([`mia_sdf::rosace()`]).
    Rosace,
    /// An SDF application file: `.sdf3` / `.xml` parsed as SDF3 XML,
    /// anything else as the [`mia_sdf::parse`] text format.
    Sdf(String),
}

impl SweepFamily {
    /// The label used in reports ("LS16", "rosace", "sdf3:app.sdf3").
    pub fn label(&self) -> String {
        match self {
            SweepFamily::Generated(f) => f.label(),
            SweepFamily::Rosace => "rosace".to_owned(),
            SweepFamily::Sdf(path) => format!("sdf3:{path}"),
        }
    }

    /// Builds the problem this family stands for at size `n`, on the
    /// 16-core MPPA cluster.
    ///
    /// Generated families draw a layered DAG from `seed`, mapped by the
    /// generator's own layered-cyclic mapping. SDF families ignore the
    /// seed: the source graph is expanded for ⌈n / firings-per-iteration⌉
    /// iterations — so the task count is `n` rounded up to whole
    /// hyper-periods — and mapped with the layered-cyclic strategy.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when `n` is 0; [`CliError::Io`] /
    /// [`CliError::Parse`] for unreadable or malformed SDF files and
    /// failed expansions; [`CliError::Analysis`] when the mapped problem
    /// does not validate.
    pub fn problem(&self, n: usize, seed: u64) -> Result<Problem, CliError> {
        if n == 0 {
            return Err(CliError::Usage(format!(
                "{}: the task count must be positive",
                self.label()
            )));
        }
        let graph = match self {
            SweepFamily::Generated(family) => {
                return LayeredDag::new(family.config(n, seed))
                    .generate()
                    .into_problem(&Platform::mppa256_cluster())
                    .map_err(|e| CliError::Analysis(e.to_string()));
            }
            SweepFamily::Rosace => mia_sdf::rosace(),
            SweepFamily::Sdf(path) => read_sdf_file(path)?,
        };
        let label = self.label();
        let per_iteration: u64 = graph
            .repetition_vector()
            .map_err(|e| CliError::Parse(format!("{label}: {e}")))?
            .iter()
            .sum();
        let iterations = (n as u64).div_ceil(per_iteration.max(1));
        let cores = Platform::mppa256_cluster().cores();
        expand_sdf(&graph, &label, iterations, cores, "cyclic")
    }

    /// [`SweepFamily::problem`] with `seed` mixed with the family label
    /// and the size, so every point of a grid is an independent draw,
    /// reproducibly.
    ///
    /// # Errors
    ///
    /// As [`SweepFamily::problem`].
    pub fn grid_problem(&self, n: usize, seed: u64) -> Result<Problem, CliError> {
        let mixed = seed ^ ((n as u64) << 20) ^ self.label().bytes().map(u64::from).sum::<u64>();
        self.problem(n, mixed)
    }
}

impl From<Family> for SweepFamily {
    fn from(family: Family) -> Self {
        SweepFamily::Generated(family)
    }
}

/// Parses one family token: `LS<k>` / `NL<k>` (case-insensitive, `k`
/// positive), the presets `tobita` (= LS16) and `layered` (= NL16),
/// `rosace` (the built-in avionics case study) or `sdf3:<path>` (an SDF3
/// XML file; a path ending in `.sdf` selects the text format). See the
/// [module documentation](self).
///
/// # Errors
///
/// A human-readable message naming the offending token.
pub fn parse_family_token(token: &str) -> Result<SweepFamily, String> {
    if let Some(path) = token.strip_prefix("sdf3:") {
        if path.is_empty() {
            return Err("sdf3: needs a file path (sdf3:<path>)".to_owned());
        }
        return Ok(SweepFamily::Sdf(path.to_owned()));
    }
    let upper = token.to_ascii_uppercase();
    let generated = match upper.as_str() {
        "ROSACE" => return Ok(SweepFamily::Rosace),
        "TOBITA" => Some(Family::FixedLayerSize(16)),
        "LAYERED" => Some(Family::FixedLayers(16)),
        _ => {
            let positive = |k: &str| k.parse::<usize>().ok().filter(|&k| k > 0);
            if let Some(k) = upper.strip_prefix("LS").and_then(positive) {
                Some(Family::FixedLayerSize(k))
            } else {
                upper
                    .strip_prefix("NL")
                    .and_then(positive)
                    .map(Family::FixedLayers)
            }
        }
    };
    generated.map(SweepFamily::Generated).ok_or_else(|| {
        format!("bad family `{token}` (try tobita, layered, LS64, NL16, rosace or sdf3:<path>)")
    })
}

/// Parses `flag` when it is one of the grid axes `mia sweep` and the
/// `dse` grid share, taking its comma-separated value from `rest`:
/// `--families` (tokens of [`parse_family_token`]), `--arbiters`
/// (registry names) or `--sizes` (positive task counts). Returns
/// `Ok(false)`, consuming nothing, for any other flag.
///
/// # Errors
///
/// A human-readable message naming the offending flag or token.
pub fn parse_grid_flag(
    flag: &str,
    rest: &mut std::slice::Iter<'_, String>,
    families: &mut Vec<SweepFamily>,
    arbiters: &mut Vec<String>,
    sizes: &mut Vec<usize>,
) -> Result<bool, String> {
    if !matches!(flag, "--families" | "--arbiters" | "--sizes") {
        return Ok(false);
    }
    let tokens = rest
        .next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .split(',');
    match flag {
        "--families" => *families = tokens.map(parse_family_token).collect::<Result<_, _>>()?,
        "--arbiters" => {
            *arbiters = tokens.map(str::to_owned).collect();
            for name in arbiters.iter() {
                mia_arbiter::by_name_or_err(name)?;
            }
        }
        _ => {
            *sizes = tokens
                .map(|tok| {
                    tok.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad size `{tok}`"))
                })
                .collect::<Result<_, _>>()?;
        }
    }
    Ok(true)
}

/// The grid a sweep covers, plus its execution knobs.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload families (see [`parse_family_token`]).
    pub families: Vec<SweepFamily>,
    /// Arbiter names, resolved through [`mia_arbiter::by_name`].
    pub arbiters: Vec<String>,
    /// Task counts.
    pub sizes: Vec<usize>,
    /// Algorithms to time per point.
    pub algorithms: Vec<Algorithm>,
    /// Base PRNG seed (mixed per point, see
    /// [`SweepFamily::grid_problem`]).
    pub seed: u64,
    /// Per-point wall-clock budget; a point exceeding it is recorded as
    /// [`Outcome::TimedOut`] and the sweep continues.
    pub budget: Duration,
    /// Concurrent points of one (family, size) group (0 = the machine's
    /// available parallelism).
    pub jobs: usize,
    /// Timed runs per point; the **fastest** is reported (the analyses
    /// are deterministic, so repeats only strip scheduler/timer noise
    /// from the wall-clock — standard best-of-N practice). The budget
    /// applies per run. 0 is treated as 1.
    pub repeats: usize,
}

impl Default for SweepSpec {
    /// `tobita` + `layered`, round-robin, two small sizes, incremental
    /// only, 120 s budget, automatic job count, one run per point.
    fn default() -> Self {
        SweepSpec {
            families: vec![
                Family::FixedLayerSize(16).into(),
                Family::FixedLayers(16).into(),
            ],
            arbiters: vec!["rr".to_owned()],
            sizes: vec![1000, 4000],
            algorithms: vec![Algorithm::Incremental],
            seed: 2020,
            budget: Duration::from_secs(120),
            jobs: 0,
            repeats: 1,
        }
    }
}

/// One measured grid point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Family label ("LS16", "NL64", "rosace", …).
    pub family: String,
    /// Arbiter name as given in the spec.
    pub arbiter: String,
    /// Task count.
    pub n: usize,
    /// Which algorithm was timed — [`Algorithm::label`] ("new"/"old"),
    /// matching the vocabulary of [`SweepReport::algorithms`] so
    /// consumers can cross-reference header and points.
    pub algorithm: String,
    /// What happened.
    pub outcome: Outcome,
}

/// A completed sweep: the grid, its knobs and every measured point, in
/// deterministic `family × arbiter × size × algorithm` order.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Family labels of the grid.
    pub families: Vec<String>,
    /// Arbiter names of the grid.
    pub arbiters: Vec<String>,
    /// Task counts of the grid.
    pub sizes: Vec<usize>,
    /// Algorithm labels ("new"/"old").
    pub algorithms: Vec<String>,
    /// Base seed.
    pub seed: u64,
    /// Per-point budget in seconds.
    pub budget_seconds: f64,
    /// Timed runs per point (the fastest is reported).
    pub repeats: usize,
    /// Wall-clock of the measuring phases in seconds (problem builds
    /// are excluded).
    pub wall_seconds: f64,
    /// Every measured point.
    pub points: Vec<SweepPoint>,
}

/// Runs every grid point of `spec` and assembles the report. `progress`
/// is invoked from worker threads as each point completes (pass
/// `&|_| {}` to ignore).
///
/// Every family is deterministic per (family, size): generated families
/// mix the seed from the family label and size only, and SDF families
/// ignore the seed entirely. So the grid is walked one (family, size)
/// group at a time: the group's problem is built once, its arbiter ×
/// algorithm points run concurrently on `spec.jobs` scoped threads, and
/// the problem is dropped before the next group is built. The sweep's
/// memory is bounded by its largest problem, not by the whole grid.
///
/// Unknown arbiter names and families that fail to build yield
/// [`Outcome::Failed`] points rather than aborting the sweep.
pub fn run_sweep(spec: &SweepSpec, progress: &(dyn Fn(&SweepPoint) + Sync)) -> SweepReport {
    let (arbiters, sizes, algorithms) =
        (spec.arbiters.len(), spec.sizes.len(), spec.algorithms.len());
    let jobs = if spec.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        spec.jobs
    };

    // Report slots in `family × arbiter × size × algorithm` order.
    let results: Vec<Mutex<Option<SweepPoint>>> =
        (0..spec.families.len() * arbiters * sizes * algorithms)
            .map(|_| Mutex::new(None))
            .collect();
    let mut measuring = Duration::ZERO;
    for (family_idx, family) in spec.families.iter().enumerate() {
        for (size_idx, &n) in spec.sizes.iter().enumerate() {
            let group: Vec<(usize, &str, Algorithm)> = (0..arbiters)
                .flat_map(|arbiter_idx| {
                    spec.algorithms
                        .iter()
                        .enumerate()
                        .map(move |(algorithm_idx, &algorithm)| {
                            let slot = ((family_idx * arbiters + arbiter_idx) * sizes + size_idx)
                                * algorithms
                                + algorithm_idx;
                            (slot, spec.arbiters[arbiter_idx].as_str(), algorithm)
                        })
                })
                .collect();
            let problem = family.grid_problem(n, spec.seed).map_err(|e| e.to_string());
            let started = Instant::now();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(group.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(slot, arbiter, algorithm)) = group.get(i) else {
                            break;
                        };
                        let point = run_point(family, &problem, arbiter, n, algorithm, spec);
                        progress(&point);
                        *results[slot].lock().expect("unshared result slot") = Some(point);
                    });
                }
            });
            measuring += started.elapsed();
        }
    }

    SweepReport {
        families: spec.families.iter().map(SweepFamily::label).collect(),
        arbiters: spec.arbiters.clone(),
        sizes: spec.sizes.clone(),
        algorithms: spec
            .algorithms
            .iter()
            .map(|a| a.label().to_owned())
            .collect(),
        seed: spec.seed,
        budget_seconds: spec.budget.as_secs_f64(),
        repeats: spec.repeats.max(1),
        wall_seconds: measuring.as_secs_f64(),
        points: results
            .into_iter()
            .map(|slot| slot.into_inner().expect("pool joined").expect("point ran"))
            .collect(),
    }
}

/// Measures one grid point on its (family, size) group's problem, or
/// records the group's build error as a failed point.
fn run_point(
    family: &SweepFamily,
    problem: &Result<Problem, String>,
    arbiter_name: &str,
    n: usize,
    algorithm: Algorithm,
    spec: &SweepSpec,
) -> SweepPoint {
    let problem = problem.as_ref().map_err(String::clone);
    let outcome = match (mia_arbiter::by_name_or_err(arbiter_name), problem) {
        (Err(error), _) | (_, Err(error)) => Outcome::Failed { error },
        (Ok(arbiter), Ok(problem)) => {
            let measure = || time_algorithm(algorithm, problem, arbiter.as_ref(), spec.budget);
            // Best-of-N: the analyses are deterministic, so the fastest
            // of `repeats` runs is the least noise-polluted measurement.
            // A non-completed first run is reported as-is; later noise
            // (e.g. a marginal-budget timeout) never displaces a
            // completed best.
            let mut best = measure();
            for _ in 1..spec.repeats.max(1) {
                if !matches!(best, Outcome::Completed { .. }) {
                    break;
                }
                let next = measure();
                if let (
                    Outcome::Completed { seconds: b, .. },
                    Outcome::Completed { seconds: n, .. },
                ) = (&best, &next)
                {
                    if n < b {
                        best = next;
                    }
                }
            }
            best
        }
    };
    SweepPoint {
        family: family.label(),
        arbiter: arbiter_name.to_owned(),
        n,
        algorithm: algorithm.label().to_owned(),
        outcome,
    }
}

/// Serializes a report as pretty-printed JSON (the one-document artefact
/// `mia sweep` emits).
pub fn report_json(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Output format of a sweep report (`--csv` selects CSV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// The full pretty-printed JSON document. The default.
    #[default]
    Json,
    /// A flat CSV table, one row per grid point (see [`report_csv`]).
    Csv,
}

/// Header row of [`report_csv`] — consumers can pin against it.
pub const CSV_HEADER: &str = "family,arbiter,n,algorithm,status,seconds,makespan,error";

/// Flattens a report into CSV for plotting the paper's trajectory
/// curves: the [`CSV_HEADER`] columns, one row per grid point, in the
/// report's deterministic `family × arbiter × size × algorithm` order.
///
/// `status` is `completed`, `timeout` or `failed`; `seconds` is the
/// wall-clock runtime (the exhausted budget for timeouts, empty for
/// failures); `makespan` is only set for completed points. Family
/// labels and error texts are sanitised (commas and newlines replaced)
/// so every row always has exactly eight columns.
pub fn report_csv(report: &SweepReport) -> String {
    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    for p in &report.points {
        let (status, seconds, makespan, error) = match &p.outcome {
            Outcome::Completed { seconds, makespan } => (
                "completed",
                format!("{seconds:.6}"),
                makespan.to_string(),
                String::new(),
            ),
            Outcome::TimedOut { budget } => (
                "timeout",
                format!("{budget:.6}"),
                String::new(),
                String::new(),
            ),
            Outcome::Failed { error } => (
                "failed",
                String::new(),
                String::new(),
                error.replace(['\n', '\r'], " ").replace(',', ";"),
            ),
        };
        csv.push_str(&format!(
            "{},{},{},{},{status},{seconds},{makespan},{error}\n",
            p.family.replace(['\n', '\r'], " ").replace(',', ";"),
            p.arbiter,
            p.n,
            p.algorithm,
        ));
    }
    csv
}

/// Renders a report in `format`.
pub fn render_report(report: &SweepReport, format: ReportFormat) -> String {
    match format {
        ReportFormat::Json => report_json(report),
        ReportFormat::Csv => report_csv(report),
    }
}

/// Parses the `mia sweep` command-line flags (see the [module
/// documentation](self)). Returns the spec, the `-o`/`--out` path (if
/// any) and the requested output format. `--profile FILE` is skipped
/// here: `mia sweep` arms profiling itself.
///
/// # Errors
///
/// A human-readable message naming the offending flag or token.
pub fn parse_spec(args: &[String]) -> Result<(SweepSpec, Option<String>, ReportFormat), String> {
    let mut spec = SweepSpec::default();
    let (mut out, mut format) = (None, ReportFormat::Json);
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
            "--algorithms" => {
                spec.algorithms = value()?
                    .split(',')
                    .map(|tok| match tok {
                        "incremental" | "new" => Ok(Algorithm::Incremental),
                        "baseline" | "original" | "old" => Ok(Algorithm::Original),
                        other => Err(format!("bad algorithm `{other}`")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                spec.seed = value()?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_owned())?;
            }
            "--budget" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| "--budget must be seconds".to_owned())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--budget must be positive".to_owned());
                }
                spec.budget = Duration::from_secs_f64(secs);
            }
            "--jobs" => {
                spec.jobs = value()?
                    .parse()
                    .map_err(|_| "--jobs must be a number".to_owned())?;
            }
            "--repeats" => {
                spec.repeats = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| "--repeats must be a positive number".to_owned())?;
            }
            "-o" | "--out" => out = Some(value()?.clone()),
            "--profile" => {
                value()?;
            }
            "--csv" => format = ReportFormat::Csv,
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
    }
    Ok((spec, out, format))
}

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
pub(crate) fn sweep_cmd(args: &[String]) -> Result<String, CliError> {
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
        .filter(|p| matches!(p.outcome, Outcome::Failed { .. }))
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

    use crate::commands::tests::scratch_dir;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn family_tokens() {
        let generated = |token: &str| match parse_family_token(token) {
            Ok(SweepFamily::Generated(family)) => Some(family),
            _ => None,
        };
        assert_eq!(generated("tobita"), Some(Family::FixedLayerSize(16)));
        assert_eq!(generated("layered"), Some(Family::FixedLayers(16)));
        assert_eq!(generated("ls64"), Some(Family::FixedLayerSize(64)));
        assert_eq!(generated("NL4"), Some(Family::FixedLayers(4)));
        for bad in ["XX9", "LS0", "", "L", "LSx", "xé1", "é"] {
            assert!(
                parse_family_token(bad).unwrap_err().contains("bad family"),
                "{bad}"
            );
        }
    }

    #[test]
    fn sweep_family_tokens() {
        assert_eq!(parse_family_token("rosace"), Ok(SweepFamily::Rosace));
        assert_eq!(parse_family_token("ROSACE"), Ok(SweepFamily::Rosace));
        assert_eq!(
            parse_family_token("sdf3:examples/app.sdf3"),
            Ok(SweepFamily::Sdf("examples/app.sdf3".to_owned()))
        );
        assert!(parse_family_token("sdf3:").unwrap_err().contains("path"));
        assert_eq!(SweepFamily::Rosace.label(), "rosace");
        assert_eq!(SweepFamily::Sdf("a.sdf3".into()).label(), "sdf3:a.sdf3");
        // The builder refuses an empty problem for every family.
        for family in [
            SweepFamily::Generated(Family::FixedLayerSize(4)),
            SweepFamily::Rosace,
        ] {
            assert!(matches!(family.problem(0, 1), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn rosace_family_builds_whole_hyperperiods() {
        // n = 50 is exactly two hyper-periods; n = 60 rounds up to three.
        let p = SweepFamily::Rosace.problem(50, 0).unwrap();
        assert_eq!(p.len(), 50);
        let p = SweepFamily::Rosace.problem(60, 7).unwrap();
        assert_eq!(p.len(), 75);
        // Deterministic: the seed only affects generated families.
        let a = SweepFamily::Rosace.problem(50, 1).unwrap();
        let b = SweepFamily::Rosace.problem(50, 2).unwrap();
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.mapping(), b.mapping());
    }

    #[test]
    fn sdf_file_family_matches_the_builtin_preset() {
        // A ROSACE graph exported to an .sdf3 file measures identically
        // to the built-in `rosace` family.
        let dir = scratch_dir();
        let path = dir.join("rosace-export.sdf3");
        std::fs::write(&path, mia_sdf::to_sdf3(&mia_sdf::rosace(), "rosace")).unwrap();
        let from_file = SweepFamily::Sdf(path.to_str().unwrap().to_owned())
            .problem(50, 0)
            .unwrap();
        let builtin = SweepFamily::Rosace.problem(50, 0).unwrap();
        assert_eq!(from_file.graph(), builtin.graph());
        assert_eq!(from_file.mapping(), builtin.mapping());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_sdf_file_becomes_failed_point() {
        let spec = SweepSpec {
            families: vec![SweepFamily::Sdf("/nonexistent/app.sdf3".to_owned())],
            sizes: vec![16],
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        assert!(
            matches!(&report.points[0].outcome, Outcome::Failed { error } if error.contains("/nonexistent/app.sdf3")),
            "{:?}",
            report.points[0].outcome
        );
    }

    #[test]
    fn new_families_sweep_end_to_end() {
        let dir = scratch_dir();
        let path = dir.join("sweep-rosace.sdf3");
        std::fs::write(&path, mia_sdf::to_sdf3(&mia_sdf::rosace(), "rosace")).unwrap();
        let spec = SweepSpec {
            families: vec![
                SweepFamily::Rosace,
                SweepFamily::Sdf(path.to_str().unwrap().to_owned()),
            ],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![25, 100],
            jobs: 2,
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        assert_eq!(report.points.len(), 8);
        let completed: Vec<u64> = report
            .points
            .iter()
            .map(|p| match &p.outcome {
                Outcome::Completed { makespan, .. } => *makespan,
                other => panic!("{}/{} n={}: {other:?}", p.family, p.arbiter, p.n),
            })
            .collect();
        // The file-based family reproduces the built-in one bit for bit
        // (same grid order within each family block).
        assert_eq!(completed[..4], completed[4..]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn repeats_report_best_of_n_and_reach_the_report() {
        let spec = SweepSpec {
            families: vec![Family::FixedLayerSize(4).into()],
            sizes: vec![48],
            repeats: 3,
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        assert_eq!(report.repeats, 3);
        assert!(
            matches!(report.points[0].outcome, Outcome::Completed { .. }),
            "{:?}",
            report.points[0].outcome
        );
        assert!(parse_spec(&["--repeats".to_owned(), "0".to_owned()])
            .unwrap_err()
            .contains("--repeats"));
    }

    #[test]
    fn spec_parsing_round_trip() {
        let args: Vec<String> = [
            "--families",
            "tobita,LS4",
            "--arbiters",
            "rr,mppa",
            "--sizes",
            "64,128",
            "--algorithms",
            "incremental,baseline",
            "--seed",
            "7",
            "--budget",
            "30",
            "--jobs",
            "2",
            "--profile",
            "p.json",
            "-o",
            "x.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (spec, out, format) = parse_spec(&args).unwrap();
        assert_eq!(spec.families.len(), 2);
        assert_eq!(spec.jobs, 2);
        assert_eq!(spec.arbiters, vec!["rr", "mppa"]);
        assert_eq!(spec.sizes, vec![64, 128]);
        assert_eq!(spec.algorithms.len(), 2);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.budget, Duration::from_secs(30));
        assert_eq!(out.as_deref(), Some("x.json"));
        assert_eq!(format, ReportFormat::Json);
    }

    #[test]
    fn csv_flag_switches_the_format_anywhere_in_the_args() {
        for args in [
            vec!["--csv"],
            vec!["--csv", "--sizes", "16"],
            vec!["--sizes", "16", "--csv"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let (spec, _, format) = parse_spec(&args).unwrap();
            assert_eq!(format, ReportFormat::Csv);
            if args.len() > 1 {
                assert_eq!(spec.sizes, vec![16]);
            }
        }
    }

    #[test]
    fn spec_parsing_rejects_bad_tokens() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_spec(&args).unwrap_err()
        };
        assert!(bad(&["--families", "XX"]).contains("bad family"));
        assert!(bad(&["--arbiters", "bogus"]).contains("unknown arbiter"));
        assert!(bad(&["--sizes", "0"]).contains("bad size"));
        assert!(bad(&["--frobnicate", "1"]).contains("unknown sweep flag"));
        assert!(bad(&["--threads", "4"]).contains("unknown sweep flag"));
        assert!(bad(&["--sizes"]).contains("needs a value"));
        assert!(bad(&["--profile"]).contains("needs a value"));
    }

    #[test]
    fn tiny_grid_runs_and_serializes() {
        let spec = SweepSpec {
            families: vec![Family::FixedLayerSize(4).into()],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![16, 32],
            algorithms: vec![Algorithm::Incremental, Algorithm::Original],
            jobs: 2,
            ..SweepSpec::default()
        };
        let count = std::sync::atomic::AtomicUsize::new(0);
        let report = run_sweep(&spec, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(report.points.len(), 8);
        assert_eq!(count.load(Ordering::Relaxed), 8);
        // Deterministic ordering: family × arbiter × size × algorithm.
        assert_eq!(report.points[0].arbiter, "rr");
        assert_eq!(report.points[0].n, 16);
        assert!(report.points.iter().all(|p| p.outcome.seconds().is_some()));
        let json = report_json(&report);
        assert!(json.contains("\"points\""));
        assert!(json.contains("LS4"));
    }

    /// Walking the grid one (family, size) group at a time keeps the
    /// report in grid order, and a family that cannot be built fails
    /// only its own points.
    #[test]
    fn grouped_walk_keeps_grid_order_and_isolates_build_failures() {
        let missing = "/nonexistent/app.sdf3";
        let spec = SweepSpec {
            families: vec![
                SweepFamily::Sdf(missing.to_owned()),
                Family::FixedLayerSize(4).into(),
            ],
            arbiters: vec!["rr".to_owned(), "mppa".to_owned()],
            sizes: vec![16, 32],
            jobs: 2,
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        let order: Vec<(String, &str, usize)> = report
            .points
            .iter()
            .map(|p| (p.family.clone(), p.arbiter.as_str(), p.n))
            .collect();
        let mut expected = Vec::new();
        for family in ["sdf3:/nonexistent/app.sdf3", "LS4"] {
            for arbiter in ["rr", "mppa"] {
                for n in [16, 32] {
                    expected.push((family.to_owned(), arbiter, n));
                }
            }
        }
        assert_eq!(order, expected);
        for point in &report.points[..4] {
            assert!(
                matches!(&point.outcome, Outcome::Failed { error } if error.contains(missing)),
                "{point:?}"
            );
        }
        // The buildable family measures exactly as it does alone.
        let makespan = |outcome: &Outcome| match outcome {
            Outcome::Completed { makespan, .. } => Some(*makespan),
            _ => None,
        };
        let alone = run_sweep(
            &SweepSpec {
                families: vec![Family::FixedLayerSize(4).into()],
                ..spec.clone()
            },
            &|_| {},
        );
        for (point, solo) in report.points[4..].iter().zip(&alone.points) {
            assert_eq!((&point.arbiter, point.n), (&solo.arbiter, solo.n));
            assert!(makespan(&point.outcome).is_some(), "{point:?}");
            assert_eq!(makespan(&point.outcome), makespan(&solo.outcome));
        }
    }

    #[test]
    fn unknown_arbiter_in_spec_becomes_failed_point() {
        let spec = SweepSpec {
            families: vec![Family::FixedLayerSize(4).into()],
            arbiters: vec!["nope".to_owned()],
            sizes: vec![16],
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        assert!(matches!(report.points[0].outcome, Outcome::Failed { .. }));
    }

    /// The CSV artefact has a fixed shape: the pinned header, one row
    /// per point in deterministic grid order, exactly eight columns per
    /// row, numeric `seconds`/`makespan` for completed points — and
    /// embedded error texts cannot smuggle in extra columns or rows.
    #[test]
    fn csv_report_has_the_pinned_shape() {
        let spec = SweepSpec {
            families: vec![Family::FixedLayerSize(4).into()],
            arbiters: vec!["rr".to_owned(), "definitely-unknown".to_owned()],
            sizes: vec![16],
            algorithms: vec![Algorithm::Incremental, Algorithm::Original],
            jobs: 2,
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &|_| {});
        let csv = report_csv(&report);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + report.points.len());
        for line in &lines[1..] {
            assert_eq!(
                line.matches(',').count(),
                CSV_HEADER.matches(',').count(),
                "ragged row: {line}"
            );
        }
        // Deterministic grid order: rr first, then the unknown arbiter.
        let rr_row: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(&rr_row[..5], &["LS4", "rr", "16", "new", "completed"]);
        assert!(rr_row[5].parse::<f64>().is_ok(), "seconds: {}", rr_row[5]);
        assert!(rr_row[6].parse::<u64>().is_ok(), "makespan: {}", rr_row[6]);
        let failed_row: Vec<&str> = lines[3].split(',').collect();
        assert_eq!(failed_row[1], "definitely-unknown");
        assert_eq!(failed_row[4], "failed");
        assert!(
            failed_row[7].contains("unknown arbiter"),
            "{}",
            failed_row[7]
        );
        // The same report renders to either format.
        assert_eq!(render_report(&report, ReportFormat::Csv), csv);
        assert!(render_report(&report, ReportFormat::Json).contains("\"points\""));
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
        let dir = scratch_dir();
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
        assert!(csv.starts_with(&format!("{}\n", CSV_HEADER)), "{csv}");
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
        assert!(out.contains(CSV_HEADER), "missing CSV header: {out}");
        assert!(out.contains("LS4,rr,16,new,completed,"), "{out}");
        assert!(!out.contains("\"points\""), "JSON leaked into CSV: {out}");
    }

    #[test]
    fn rosace_and_sdf3_families_sweep_to_the_pinned_shape() {
        // The acceptance-criteria command shape:
        //   mia sweep --families rosace,sdf3:<path> --sizes … --csv
        let dir = scratch_dir();
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
        assert!(out.contains(CSV_HEADER), "{out}");
        assert!(out.contains("rosace,rr,25,new,completed,"), "{out}");
        std::fs::remove_file(path).ok();
    }
}
