//! The batch sweep driver: arbiter × DAG-family × size grids in one run.
//!
//! This is the machinery behind `mia sweep` and the `sweep` binary
//! (`cargo run --release -p mia-bench --bin sweep`). A [`SweepSpec`]
//! names the grid; [`run_sweep`] measures every point — grid points are
//! **independent analyses**, so they run concurrently on a scoped thread
//! pool (`jobs`) — and returns a single [`SweepReport`] that serializes
//! to one JSON document ([`report_json`]). Reproducing the paper's
//! Figure 3 sweep is one command:
//!
//! ```text
//! mia sweep --families tobita,layered --arbiters rr,mppa \
//!           --sizes 1000,8000,32000 -o report.json
//! ```
//!
//! # Family tokens
//!
//! [`parse_sweep_family_token`] accepts the explicit Figure 3 labels
//! (`LS4`, `LS16`, `LS64`, `NL4`, `NL16`, `NL64`, case-insensitive, any
//! positive parameter), two named presets for the random generator, and
//! two **real-benchmark families** that turn the sweep from a synthetic
//! grid into a benchmark harness:
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
//!
//! # Example
//!
//! ```
//! use mia_bench::sweep::{parse_sweep_family_token, run_sweep, SweepSpec};
//!
//! let spec = SweepSpec {
//!     families: vec![parse_sweep_family_token("tobita").unwrap()],
//!     sizes: vec![32, 64],
//!     ..SweepSpec::default()
//! };
//! let report = run_sweep(&spec, &|_| {});
//! assert_eq!(report.points.len(), 2);
//! assert!(report.points.iter().all(|p| p.outcome.seconds().is_some()));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mia_dag_gen::Family;
use mia_model::{Platform, Problem};
use serde::Serialize;

use crate::{benchmark_problem, run_timed, Algorithm, Outcome};

/// One family of the sweep grid: a random-DAG generator configuration or
/// a real SDF benchmark expanded to the requested task count.
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

    /// Builds the problem this family measures at size `n`.
    ///
    /// Generated families draw a fresh layered DAG (the seed is mixed per
    /// point, see [`benchmark_problem`]). SDF families are deterministic:
    /// the source graph is expanded for ⌈n / firings-per-iteration⌉
    /// iterations — so the task count is `n` rounded up to whole
    /// hyper-periods — and mapped onto the 16-core MPPA cluster with the
    /// layered-cyclic strategy.
    ///
    /// # Errors
    ///
    /// A human-readable message for unreadable/malformed SDF files and
    /// expansion or mapping failures.
    pub fn problem(&self, n: usize, seed: u64) -> Result<Problem, String> {
        let graph = match self {
            SweepFamily::Generated(family) => return Ok(benchmark_problem(*family, n, seed)),
            SweepFamily::Rosace => mia_sdf::rosace(),
            SweepFamily::Sdf(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                mia_sdf::parse_named(path, &text).map_err(|e| format!("{path}: {e}"))?
            }
        };
        let per_iteration: u64 = graph
            .repetition_vector()
            .map_err(|e| format!("{}: {e}", self.label()))?
            .iter()
            .sum();
        let iterations = (n as u64).div_ceil(per_iteration).max(1);
        let expansion = graph
            .expand(iterations)
            .map_err(|e| format!("{}: {e}", self.label()))?;
        let platform = Platform::mppa256_cluster();
        let mapping = mia_mapping::layered_cyclic(&expansion.graph, platform.cores())
            .map_err(|e| format!("{}: {e}", self.label()))?;
        Problem::new(expansion.graph, mapping, platform)
            .map_err(|e| format!("{}: {e}", self.label()))
    }
}

impl From<Family> for SweepFamily {
    fn from(family: Family) -> Self {
        SweepFamily::Generated(family)
    }
}

/// The grid a sweep covers, plus its execution knobs.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload families (see [`parse_sweep_family_token`]).
    pub families: Vec<SweepFamily>,
    /// Arbiter names, resolved through [`mia_arbiter::by_name`].
    pub arbiters: Vec<String>,
    /// Task counts.
    pub sizes: Vec<usize>,
    /// Algorithms to time per point.
    pub algorithms: Vec<Algorithm>,
    /// Base PRNG seed (mixed per point, see [`benchmark_problem`]).
    pub seed: u64,
    /// Per-point wall-clock budget; a point exceeding it is recorded as
    /// [`Outcome::TimedOut`] and the sweep continues.
    pub budget: Duration,
    /// Concurrent grid points (0 = the machine's available parallelism).
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
    /// Total sweep wall-clock in seconds.
    pub wall_seconds: f64,
    /// Every measured point.
    pub points: Vec<SweepPoint>,
}

/// Parses one generator family token: `LS<k>` / `NL<k>`
/// (case-insensitive) or the presets `tobita` (= LS16) and `layered`
/// (= NL16). See the [module documentation](self); for the full token
/// vocabulary including `rosace` and `sdf3:<path>`, use
/// [`parse_sweep_family_token`].
pub fn parse_family_token(token: &str) -> Option<Family> {
    match token.to_ascii_lowercase().as_str() {
        "tobita" => return Some(Family::FixedLayerSize(16)),
        "layered" => return Some(Family::FixedLayers(16)),
        _ => {}
    }
    let upper = token.to_ascii_uppercase();
    let (kind, value) = upper.split_at(upper.len().min(2));
    let value: usize = value.parse().ok().filter(|&v| v > 0)?;
    match kind {
        "LS" => Some(Family::FixedLayerSize(value)),
        "NL" => Some(Family::FixedLayers(value)),
        _ => None,
    }
}

/// Parses one sweep family token: everything [`parse_family_token`]
/// accepts plus `rosace` (the built-in avionics case study) and
/// `sdf3:<path>` (an SDF3 XML file; a path ending in `.sdf` selects the
/// text format).
///
/// # Errors
///
/// A human-readable message naming the offending token.
pub fn parse_sweep_family_token(token: &str) -> Result<SweepFamily, String> {
    if token.eq_ignore_ascii_case("rosace") {
        return Ok(SweepFamily::Rosace);
    }
    if let Some(path) = token.strip_prefix("sdf3:") {
        if path.is_empty() {
            return Err("sdf3: needs a file path (sdf3:<path>)".to_owned());
        }
        return Ok(SweepFamily::Sdf(path.to_owned()));
    }
    parse_family_token(token)
        .map(SweepFamily::Generated)
        .ok_or_else(|| {
            format!("bad family `{token}` (try tobita, layered, LS64, NL16, rosace or sdf3:<path>)")
        })
}

/// Runs every grid point of `spec`, farming points out to `spec.jobs`
/// scoped threads, and assembles the report. `progress` is invoked from
/// worker threads as each point completes (pass `&|_| {}` to ignore).
///
/// Unknown arbiter names yield [`Outcome::Failed`] points rather than
/// aborting the sweep.
pub fn run_sweep(spec: &SweepSpec, progress: &(dyn Fn(&SweepPoint) + Sync)) -> SweepReport {
    struct PointSpec<'a> {
        family: &'a SweepFamily,
        family_idx: usize,
        arbiter: String,
        n: usize,
        algorithm: Algorithm,
    }
    // Every family is deterministic per (family, size): generated
    // families mix the seed from the family label and size only, and
    // SDF families ignore the seed entirely. So each (often large)
    // generation / expansion + mapping is built once per family × size
    // and shared by every arbiter × algorithm point, instead
    // of being redrawn outside the timed budget per point.
    let mut problems: std::collections::HashMap<(usize, usize), Result<Problem, String>> =
        std::collections::HashMap::new();
    for (family_idx, family) in spec.families.iter().enumerate() {
        for &n in &spec.sizes {
            problems.insert((family_idx, n), family.problem(n, spec.seed));
        }
    }

    let mut grid: Vec<PointSpec> = Vec::new();
    for (family_idx, family) in spec.families.iter().enumerate() {
        for arbiter in &spec.arbiters {
            for &n in &spec.sizes {
                for &algorithm in &spec.algorithms {
                    grid.push(PointSpec {
                        family,
                        family_idx,
                        arbiter: arbiter.clone(),
                        n,
                        algorithm,
                    });
                }
            }
        }
    }

    let jobs = if spec.jobs == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        spec.jobs
    }
    .min(grid.len().max(1));

    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<SweepPoint>>> = grid.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point_spec) = grid.get(i) else { break };
                let point = run_point(
                    point_spec.family,
                    problems.get(&(point_spec.family_idx, point_spec.n)),
                    &point_spec.arbiter,
                    point_spec.n,
                    point_spec.algorithm,
                    spec,
                );
                progress(&point);
                *results[i].lock().expect("unshared result slot") = Some(point);
            });
        }
    });

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
        wall_seconds: started.elapsed().as_secs_f64(),
        points: results
            .into_iter()
            .map(|slot| slot.into_inner().expect("pool joined").expect("point ran"))
            .collect(),
    }
}

/// Measures one grid point. `prebuilt` carries the shared problem of an
/// SDF family (built once per family × size); generated families build
/// their seed-mixed problem here.
fn run_point(
    family: &SweepFamily,
    prebuilt: Option<&Result<Problem, String>>,
    arbiter_name: &str,
    n: usize,
    algorithm: Algorithm,
    spec: &SweepSpec,
) -> SweepPoint {
    let mut local = None;
    let problem: Result<&Problem, String> = match prebuilt {
        Some(Ok(problem)) => Ok(problem),
        Some(Err(error)) => Err(error.clone()),
        None => family
            .problem(n, spec.seed)
            .map(|problem| &*local.insert(problem)),
    };
    let outcome = match (mia_arbiter::by_name_or_err(arbiter_name), problem) {
        (Err(error), _) | (_, Err(error)) => Outcome::Failed { error },
        (Ok(arbiter), Ok(problem)) => {
            let measure = || match algorithm {
                Algorithm::Incremental => run_timed(spec.budget, |token| {
                    let options = mia_core::AnalysisOptions::new().cancel_token(token);
                    mia_core::analyze_with(
                        problem,
                        arbiter.as_ref(),
                        &options,
                        &mut mia_core::NoopObserver,
                    )
                    .map(|r| r.schedule.makespan())
                }),
                Algorithm::Original => run_timed(spec.budget, |token| {
                    let options = mia_baseline::BaselineOptions::new().cancel_token(token);
                    mia_baseline::analyze_with(problem, arbiter.as_ref(), &options)
                        .map(|r| r.schedule.makespan())
                }),
            };
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
/// `mia sweep` and the `sweep` binary emit).
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

/// Parses sweep command-line flags, shared by `mia sweep` and the
/// `sweep` binary. Returns the spec, the `-o`/`--out` path (if any) and
/// the requested output format.
///
/// Recognised flags (all optional):
///
/// ```text
/// --families tobita,layered,LS64,NL4,rosace,sdf3:app.sdf3  [tobita,layered]
/// --arbiters rr,mppa,tdm,fifo,fp,wrr,regulated             [rr]
/// --sizes 1000,8000,32000              task counts         [1000,4000]
/// --algorithms incremental,baseline    algorithms          [incremental]
/// --seed N                             base PRNG seed      [2020]
/// --budget SECS                        per-point budget    [120]
/// --jobs N                             concurrent points   [0 = auto]
/// --repeats N                          best-of-N timing    [1]
/// --csv                                emit CSV instead of JSON
/// -o, --out FILE                       write the report here [stdout]
/// ```
///
/// # Errors
///
/// A human-readable message naming the offending flag or token.
pub fn parse_spec(args: &[String]) -> Result<(SweepSpec, Option<String>, ReportFormat), String> {
    let mut spec = SweepSpec::default();
    let mut out = None;
    let mut format = ReportFormat::Json;
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
                let v = value_of(args, i, flag)?;
                spec.families = v
                    .split(',')
                    .map(parse_sweep_family_token)
                    .collect::<Result<_, _>>()?;
            }
            "--arbiters" => {
                let v = value_of(args, i, flag)?;
                spec.arbiters = v.split(',').map(str::to_owned).collect();
                for name in &spec.arbiters {
                    mia_arbiter::by_name_or_err(name)?;
                }
            }
            "--sizes" => {
                let v = value_of(args, i, flag)?;
                spec.sizes = v
                    .split(',')
                    .map(|tok| {
                        tok.parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad size `{tok}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--algorithms" => {
                let v = value_of(args, i, flag)?;
                spec.algorithms = v
                    .split(',')
                    .map(|tok| match tok {
                        "incremental" | "new" => Ok(Algorithm::Incremental),
                        "baseline" | "original" | "old" => Ok(Algorithm::Original),
                        other => Err(format!("bad algorithm `{other}`")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                spec.seed = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_owned())?;
            }
            "--budget" => {
                let secs: f64 = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--budget must be seconds".to_owned())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--budget must be positive".to_owned());
                }
                spec.budget = Duration::from_secs_f64(secs);
            }
            "--jobs" => {
                spec.jobs = value_of(args, i, flag)?
                    .parse()
                    .map_err(|_| "--jobs must be a number".to_owned())?;
            }
            "--repeats" => {
                spec.repeats = value_of(args, i, flag)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| "--repeats must be a positive number".to_owned())?;
            }
            "-o" | "--out" => out = Some(value_of(args, i, flag)?),
            "--csv" => {
                format = ReportFormat::Csv;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
        i += 2;
    }
    if spec.families.is_empty() || spec.arbiters.is_empty() || spec.sizes.is_empty() {
        return Err("families, arbiters and sizes must all be non-empty".to_owned());
    }
    Ok((spec, out, format))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This test process's scratch directory: the pid keeps two test
    /// processes on one host out of each other's files.
    fn scratch_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mia-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn family_tokens() {
        assert_eq!(
            parse_family_token("tobita"),
            Some(Family::FixedLayerSize(16))
        );
        assert_eq!(parse_family_token("layered"), Some(Family::FixedLayers(16)));
        assert_eq!(parse_family_token("ls64"), Some(Family::FixedLayerSize(64)));
        assert_eq!(parse_family_token("NL4"), Some(Family::FixedLayers(4)));
        assert_eq!(parse_family_token("XX9"), None);
        assert_eq!(parse_family_token("LS0"), None);
        assert_eq!(parse_family_token(""), None);
    }

    #[test]
    fn sweep_family_tokens() {
        assert_eq!(
            parse_sweep_family_token("tobita"),
            Ok(SweepFamily::Generated(Family::FixedLayerSize(16)))
        );
        assert_eq!(parse_sweep_family_token("rosace"), Ok(SweepFamily::Rosace));
        assert_eq!(parse_sweep_family_token("ROSACE"), Ok(SweepFamily::Rosace));
        assert_eq!(
            parse_sweep_family_token("sdf3:examples/app.sdf3"),
            Ok(SweepFamily::Sdf("examples/app.sdf3".to_owned()))
        );
        assert!(parse_sweep_family_token("sdf3:")
            .unwrap_err()
            .contains("path"));
        assert!(parse_sweep_family_token("XX9")
            .unwrap_err()
            .contains("bad family"));
        assert_eq!(SweepFamily::Rosace.label(), "rosace");
        assert_eq!(SweepFamily::Sdf("a.sdf3".into()).label(), "sdf3:a.sdf3");
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
}
