//! Subcommand implementations and argument parsing (dependency-free).

use std::fmt;
use std::fs;

use mia_core::{analyze_with, AnalysisOptions, NoopObserver};
use mia_dag_gen::{Family, LayeredDag};
use mia_model::{Arbiter, Cycles, Platform, Problem};
use mia_sim::{simulate, AccessPattern, SimConfig};

use crate::workload::WorkloadFile;

/// Errors surfaced to the terminal with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing / usage problems.
    Usage(String),
    /// File IO problems.
    Io(std::io::Error),
    /// Malformed JSON / SDF input.
    Parse(String),
    /// Model or analysis failure.
    Analysis(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
            CliError::Analysis(m) => write!(f, "analysis error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

const USAGE: &str = "mia <command> [options]

workload inputs: every command taking <workload> accepts a JSON workload
file, an SDF application (.sdf text format, .sdf3/.xml SDF3 format) or
the literal `rosace` (the built-in ROSACE avionics case study). SDF
inputs are expanded to a task DAG first and take [--iterations K]
[--cores N] [--strategy etf|cyclic|balanced|heft]; when --iterations is
absent and the graph declares a hyper-period, --deadline <cycles>
derives the smallest iteration count covering the deadline.

commands:
  generate --family <LS4|NL64|...> -n <tasks> [--seed S] [-o FILE]
  analyze  <workload> [--algorithm incremental|baseline]
           [--arbiter rr|mppa|tdm|fifo|fp|wrr|regulated] [--deadline N]
           [--gantt] [--dot] [--json FILE] [--chrome FILE]
           [--profile FILE]  (runtime telemetry as a Chrome trace)
  optimize <workload|family> [-n <tasks>] [--strategy anneal|portfolio]
           [--chains N] [--seed N] [--budget-evals N] [--threads N]
           [--arbiters rr,mppa,...] [--seed-strategy etf|cyclic|balanced|heft]
           [--gen-seed N] [--deadline N] [--pareto] [--objectives LIST]
           [--front-capacity N] [--with-mapping] [--csv] [-o FILE]
           [--profile FILE]
           (search mappings with the real interference analysis as the
            objective; never returns a mapping worse than the seed)
  sweep    [--families tobita,layered,LS64,rosace,sdf3:app.sdf3,...]
           [--arbiters rr,mppa,...] [--sizes 1000,8000,32000]
           [--algorithms incremental,baseline] [--seed N] [--budget SECS]
           [--jobs N] [--repeats N] [--csv] [-o FILE] [--profile FILE]
           (batch grid -> one JSON/CSV report; tobita = LS16, layered = NL16)
  simulate <workload> [--pattern burst-start|burst-end|uniform|random] [--seed S]
  exec     <workload> [--arbiter ...] [--prefix NAME] [--c FILE] [--json FILE]
  sdf      <app.sdf|app.sdf3|rosace> [--cores N] [--iterations K]
           [--strategy etf|cyclic|balanced|heft] [--arbiter ...]
  dot      <workload>
  serve    [--addr HOST:PORT] [--workers N] [--max-pending N]
           [--request-budget-ms MS] [--port-file FILE]
           (persistent analysis daemon: holds problems resident, serves
            analyze/simulate/optimize/sweep over length-prefixed JSON)
  client   <method> [workload] [--addr HOST:PORT] [--handle H] [options...]
           (one request against a running `mia serve`; method is one of
            load, analyze, simulate, optimize, sweep, ping, stats, metrics,
            shutdown)

An option a command does not take is a usage error.";

/// The text `mia help` and `mia <command> --help` print.
fn help() -> String {
    format!("usage: {USAGE}")
}

/// Entry point used by the `mia` binary; returns the rendered output.
///
/// # Errors
///
/// [`CliError`] for usage, IO, parse and analysis failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    // `mia <command> --help` asks for the usage, not for a run.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(help());
    }
    check_flags(command, rest)?;
    match command.as_str() {
        "generate" => generate(rest),
        "analyze" => analyze_cmd(rest),
        "optimize" => crate::optimize::optimize_cmd(rest),
        "sweep" => crate::sweep::sweep_cmd(rest),
        "simulate" => simulate_cmd(rest),
        "exec" => exec_cmd(rest),
        "sdf" => sdf_cmd(rest),
        "dot" => dot_cmd(rest),
        "serve" => crate::serve::serve_cmd(rest),
        "client" => crate::serve::client_cmd(rest),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// The options one subcommand takes.
struct Flags {
    /// Options followed by a value (`--arbiter rr`).
    valued: &'static [&'static str],
    /// Switches that stand alone (`--gantt`).
    bare: &'static [&'static str],
}

/// The options `command` takes, or `None` when its arguments are checked
/// elsewhere: `client` forwards them to the daemon, which checks them
/// against the method they are for. The SDF front end adds `--cores`,
/// `--iterations`, `--strategy` and `--deadline` to every command that
/// loads a workload.
fn declared_flags(command: &str) -> Option<Flags> {
    let (valued, bare): (&[&str], &[&str]) = match command {
        "generate" => (&["--family", "-n", "--tasks", "--seed", "-o", "--out"], &[]),
        "analyze" => (
            &[
                "--algorithm",
                "--arbiter",
                "--deadline",
                "--json",
                "--chrome",
                "--profile",
                "--cores",
                "--iterations",
                "--strategy",
            ],
            &["--gantt", "--dot"],
        ),
        "optimize" => (
            &[
                "-n",
                "--tasks",
                "--strategy",
                "--chains",
                "--seed",
                "--budget-evals",
                "--threads",
                "--arbiters",
                "--seed-strategy",
                "--gen-seed",
                "--deadline",
                "--objectives",
                "--front-capacity",
                "--cores",
                "--iterations",
                "-o",
                "--out",
                "--profile",
            ],
            &["--pareto", "--with-mapping", "--csv"],
        ),
        "sweep" => (
            &[
                "--families",
                "--arbiters",
                "--sizes",
                "--algorithms",
                "--seed",
                "--budget",
                "--jobs",
                "--repeats",
                "-o",
                "--out",
                "--profile",
            ],
            &["--csv"],
        ),
        "simulate" => (
            &[
                "--arbiter",
                "--pattern",
                "--seed",
                "--cores",
                "--iterations",
                "--strategy",
                "--deadline",
            ],
            &[],
        ),
        "exec" => (
            &[
                "--arbiter",
                "--prefix",
                "--c",
                "--json",
                "--cores",
                "--iterations",
                "--strategy",
                "--deadline",
            ],
            &[],
        ),
        "sdf" => (
            &[
                "--arbiter",
                "--cores",
                "--iterations",
                "--strategy",
                "--deadline",
            ],
            &[],
        ),
        "dot" => (
            &["--cores", "--iterations", "--strategy", "--deadline"],
            &[],
        ),
        "serve" => (
            &[
                "--addr",
                "--workers",
                "--max-pending",
                "--request-budget-ms",
                "--port-file",
            ],
            &[],
        ),
        _ => return None,
    };
    Some(Flags { valued, bare })
}

/// Rejects every `-…` argument `command` does not take. The commands read
/// their options by lookup ([`opt`], [`has_flag`]), which on its own would
/// silently ignore a misspelt or unsupported one.
///
/// # Errors
///
/// [`CliError::Usage`] naming the first undeclared option.
pub(crate) fn check_flags(command: &str, args: &[String]) -> Result<(), CliError> {
    let Some(flags) = declared_flags(command) else {
        return Ok(());
    };
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if flags.valued.contains(&arg) {
            rest.next();
        } else if arg.starts_with('-') && !flags.bare.contains(&arg) {
            return Err(CliError::Usage(format!(
                "{command} does not take `{arg}` (see mia {command} --help)"
            )));
        }
    }
    Ok(())
}

/// Fetches the value following a `--flag`.
pub(crate) fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A `--profile` run armed by [`profile_start`].
pub(crate) struct Profile<'a> {
    path: &'a str,
    /// [`mia_obs::spans_dropped`] when the run was armed.
    dropped_before: u64,
}

/// Arms the process-global telemetry when the caller passed
/// `--profile <out.json>`. Spans buffered by earlier runs in this process
/// are dropped so the trace covers this command only. The gate is left on
/// afterwards: one-shot commands exit right away, and the served surface
/// rejects `--profile` outright.
pub(crate) fn profile_start(args: &[String]) -> Option<Profile<'_>> {
    let path = opt(args, "--profile")?;
    mia_obs::set_enabled(true);
    drop(mia_obs::take_spans());
    Some(Profile {
        path,
        dropped_before: mia_obs::spans_dropped(),
    })
}

/// Drains the spans recorded since [`profile_start`] and writes them to
/// the profile path as Chrome trace JSON — runtime-only, or side by side
/// with a schedule when the caller has one. Appends the confirmation
/// line to `out`, and says so when spans were dropped at the per-thread
/// cap (the trace's `spans_dropped` metadata event carries the count too).
pub(crate) fn profile_finish(
    profile: Profile<'_>,
    schedule: Option<(&Problem, &mia_model::Schedule)>,
    out: &mut String,
) -> Result<(), CliError> {
    let spans = mia_obs::take_spans();
    let dropped = mia_obs::spans_dropped() - profile.dropped_before;
    let trace = match schedule {
        Some((problem, schedule)) => {
            mia_trace::to_chrome_trace_with_runtime(problem, schedule, &spans, dropped)
        }
        None => mia_trace::spans_to_chrome_trace(&spans, dropped),
    };
    let path = profile.path;
    fs::write(path, trace)?;
    out.push_str(&format!(
        "\nruntime profile written to {path} ({} spans; open in chrome://tracing or ui.perfetto.dev)\n",
        spans.len()
    ));
    if dropped > 0 {
        out.push_str(&format!(
            "warning: {dropped} spans dropped at the cap of {} per thread; the profile is incomplete\n",
            mia_obs::MAX_SPANS_PER_THREAD
        ));
    }
    Ok(())
}

pub(crate) fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

pub(crate) fn positional(args: &[String]) -> Option<&str> {
    args.iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .next()
}

fn parse_family(label: &str) -> Result<Family, CliError> {
    let label = label.to_uppercase();
    let (kind, value) = label.split_at(2);
    let value: usize = value
        .parse()
        .map_err(|_| CliError::Usage(format!("bad family `{label}` (try LS64 or NL16)")))?;
    match kind {
        "LS" => Ok(Family::FixedLayerSize(value)),
        "NL" => Ok(Family::FixedLayers(value)),
        _ => Err(CliError::Usage(format!("bad family `{label}`"))),
    }
}

fn parse_arbiter(name: Option<&str>) -> Result<Box<dyn Arbiter + Send + Sync>, CliError> {
    mia_arbiter::by_name_or_err(name.unwrap_or("rr")).map_err(CliError::Usage)
}

/// True when the input names an SDF workload (to expand) rather than a
/// JSON workload file.
pub(crate) fn is_sdf_input(path: &str) -> bool {
    path == "rosace" || path.ends_with(".sdf") || path.ends_with(".sdf3") || path.ends_with(".xml")
}

/// Loads the SDF graph behind an input token: the built-in `rosace`
/// preset, an `.sdf3`/`.xml` SDF3 document, or the `.sdf` text format.
pub(crate) fn load_sdf_graph(path: &str) -> Result<mia_sdf::SdfGraph, CliError> {
    if path == "rosace" {
        return Ok(mia_sdf::rosace());
    }
    let text = {
        let _span = mia_obs::span("workload.read");
        fs::read_to_string(path)?
    };
    let _span = mia_obs::span("workload.parse");
    mia_sdf::parse_named(path, &text).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

/// Parses the shared `--iterations` flag (default 1).
fn parse_iterations(args: &[String]) -> Result<u64, CliError> {
    opt(args, "--iterations")
        .unwrap_or("1")
        .parse()
        .ok()
        .filter(|&k| k > 0)
        .ok_or_else(|| CliError::Usage("--iterations must be a positive number".into()))
}

/// The iteration count of an SDF input: an explicit `--iterations`, or —
/// when absent, the graph declares a hyper-period (like the `rosace`
/// preset and any SDF3 file carrying the `<hyperPeriod>` property) and a
/// `--deadline <cycles>` is given — the smallest count whose
/// hyper-period covers the deadline. Graphs without a hyper-period keep
/// the historical behaviour (one iteration; `--deadline` still bounds
/// the schedule); a deadline whose derived count would overflow the
/// expansion is an error. Default: 1.
pub(crate) fn sdf_iterations(
    graph: &mia_sdf::SdfGraph,
    path: &str,
    args: &[String],
) -> Result<u64, CliError> {
    if opt(args, "--iterations").is_some() {
        return parse_iterations(args);
    }
    let Some(deadline) = opt(args, "--deadline") else {
        return Ok(1);
    };
    // Parse before the hyper-period check so a typo'd deadline is a
    // usage error on every input, not just period-declaring ones.
    let deadline: u64 = deadline
        .parse()
        .map_err(|_| CliError::Usage("--deadline must be a number".into()))?;
    if graph.hyper_period().is_none() {
        return Ok(1);
    }
    graph
        .iterations_for_deadline(Cycles(deadline))
        .map_err(|e| {
            CliError::Usage(format!(
                "{path}: cannot derive --iterations from --deadline {deadline}: {e}"
            ))
        })
}

/// Builds the mapping of an expanded SDF graph from a strategy-name
/// flag (`--strategy` for the analysis commands, `--seed-strategy` for
/// `mia optimize`, which repurposes `--strategy` for the search).
pub(crate) fn sdf_mapping(
    graph: &mia_model::TaskGraph,
    cores: usize,
    args: &[String],
    strategy_flag: &str,
    default_strategy: &str,
) -> Result<mia_model::Mapping, CliError> {
    match opt(args, strategy_flag).unwrap_or(default_strategy) {
        "etf" => mia_mapping::earliest_finish(graph, cores),
        "cyclic" => mia_mapping::layered_cyclic(graph, cores),
        "balanced" => mia_mapping::load_balanced(graph, cores),
        "heft" => mia_mapping::heft(graph, cores, 1),
        other => {
            return Err(CliError::Usage(format!(
                "unknown strategy `{other}` (etf, cyclic, balanced, heft)"
            )))
        }
    }
    .map_err(|e| CliError::Analysis(e.to_string()))
}

/// Expands an SDF input into an analysable problem, honouring the
/// shared SDF flags (`--iterations`/`--deadline`, `--cores`, and the
/// mapping strategy read from `strategy_flag`). Returns the problem
/// plus the iteration count used.
pub(crate) fn sdf_problem_full(
    path: &str,
    args: &[String],
    strategy_flag: &str,
    default_strategy: &str,
) -> Result<(Problem, u64), CliError> {
    let cores: usize = opt(args, "--cores")
        .unwrap_or("16")
        .parse()
        .map_err(|_| CliError::Usage("--cores must be a number".into()))?;
    let graph = load_sdf_graph(path)?;
    let iterations = sdf_iterations(&graph, path, args)?;
    let _span = mia_obs::span("model.build");
    let expansion = graph
        .expand(iterations)
        .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    let mapping = sdf_mapping(
        &expansion.graph,
        cores,
        args,
        strategy_flag,
        default_strategy,
    )?;
    let problem = Problem::new(expansion.graph, mapping, Platform::new(cores, cores))
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    Ok((problem, iterations))
}

/// [`sdf_problem_full`] with the analysis commands' `--strategy` flag.
pub(crate) fn sdf_problem_with_iterations(
    path: &str,
    args: &[String],
) -> Result<(Problem, u64), CliError> {
    sdf_problem_full(path, args, "--strategy", "etf")
}

/// [`sdf_problem_with_iterations`] without the iteration count.
fn sdf_problem(path: &str, args: &[String]) -> Result<Problem, CliError> {
    sdf_problem_with_iterations(path, args).map(|(p, _)| p)
}

pub(crate) fn load_problem(path: &str, args: &[String]) -> Result<Problem, CliError> {
    if is_sdf_input(path) {
        return sdf_problem(path, args);
    }
    let text = {
        let _span = mia_obs::span("workload.read");
        fs::read_to_string(path)?
    };
    let file: WorkloadFile = {
        let _span = mia_obs::span("workload.parse");
        serde_json::from_str(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))?
    };
    // Free the text before the build, so the two are never held at once.
    drop(text);
    let _span = mia_obs::span("model.build");
    file.into_problem()
        .map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

fn generate(args: &[String]) -> Result<String, CliError> {
    let family = parse_family(
        opt(args, "--family").ok_or_else(|| CliError::Usage("generate needs --family".into()))?,
    )?;
    let n: usize = opt(args, "-n")
        .or_else(|| opt(args, "--tasks"))
        .ok_or_else(|| CliError::Usage("generate needs -n <tasks>".into()))?
        .parse()
        .map_err(|_| CliError::Usage("-n must be a number".into()))?;
    let seed: u64 = opt(args, "--seed").unwrap_or("0").parse().unwrap_or(0);
    let workload = LayeredDag::new(family.config(n, seed)).generate();
    let platform = Platform::mppa256_cluster();
    let file = WorkloadFile::from_workload(&workload, &platform);
    let json = serde_json::to_string_pretty(&file).expect("workload serializes");
    if let Some(path) = opt(args, "-o").or_else(|| opt(args, "--out")) {
        fs::write(path, &json)?;
        Ok(format!(
            "wrote {} tasks / {} edges ({family}) to {path}",
            workload.graph.len(),
            workload.graph.edge_count()
        ))
    } else {
        Ok(json)
    }
}

fn analyze_cmd(args: &[String]) -> Result<String, CliError> {
    let path =
        positional(args).ok_or_else(|| CliError::Usage("analyze needs a workload file".into()))?;
    // Armed before the load, so the profile covers the front end too.
    let profile = profile_start(args);
    let problem = load_problem(path, args)?;
    render_analysis_profiled(&problem, args, profile)
}

/// Everything `analyze` does after the workload is loaded. Shared by
/// the one-shot command and the `mia serve` engine, so a served
/// `analyze` reply is byte-identical to the CLI's output for the same
/// problem and flags.
pub(crate) fn render_analysis(problem: &Problem, args: &[String]) -> Result<String, CliError> {
    // Arm telemetry before the analysis dispatch: the engine resolves
    // its metric handles once at run start, so the gate must be on by
    // then for the run's spans to be recorded at all.
    render_analysis_profiled(problem, args, profile_start(args))
}

/// [`render_analysis`] with telemetry already armed (or not) by the
/// caller.
fn render_analysis_profiled(
    problem: &Problem,
    args: &[String],
    profile: Option<Profile<'_>>,
) -> Result<String, CliError> {
    let arbiter = parse_arbiter(opt(args, "--arbiter"))?;
    let mut options = AnalysisOptions::new().task_deadlines(true);
    if let Some(d) = opt(args, "--deadline") {
        let d: u64 = d
            .parse()
            .map_err(|_| CliError::Usage("--deadline must be a number".into()))?;
        options = options.deadline(Cycles(d));
    }
    let algorithm = opt(args, "--algorithm").unwrap_or("incremental");
    let schedule = match algorithm {
        "incremental" | "new" => {
            analyze_with(problem, arbiter.as_ref(), &options, &mut NoopObserver)
                .map_err(|e| CliError::Analysis(e.to_string()))?
                .schedule
        }
        "baseline" | "original" | "old" => {
            let mut opts = mia_baseline::BaselineOptions::new();
            if let Some(d) = options.deadline {
                opts = opts.deadline(d);
            }
            mia_baseline::analyze_with(problem, arbiter.as_ref(), &opts)
                .map_err(|e| CliError::Analysis(e.to_string()))?
                .schedule
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm `{other}` (incremental, baseline)"
            )))
        }
    };
    let render_span = mia_obs::span("render");
    let mut out = String::new();
    out.push_str(&format!(
        "algorithm: {algorithm}   arbiter: {}   tasks: {}\n",
        arbiter.name(),
        problem.len()
    ));
    out.push_str(&format!(
        "makespan: {}   total interference: {}\n\n",
        schedule.makespan(),
        schedule.total_interference()
    ));
    out.push_str(&mia_trace::schedule_table(problem, &schedule));
    if has_flag(args, "--gantt") {
        out.push('\n');
        out.push_str(&mia_trace::gantt(problem, &schedule));
    }
    if has_flag(args, "--dot") {
        out.push('\n');
        out.push_str(&mia_trace::to_dot(problem.graph()));
    }
    if let Some(path) = opt(args, "--json") {
        fs::write(path, mia_trace::schedule_json(problem, &schedule))?;
        out.push_str(&format!("\nschedule written to {path}\n"));
    }
    if let Some(path) = opt(args, "--chrome") {
        fs::write(path, mia_trace::to_chrome_trace(problem, &schedule))?;
        out.push_str(&format!(
            "\nChrome trace written to {path} (open in chrome://tracing or ui.perfetto.dev)\n"
        ));
    }
    drop(render_span);
    if let Some(profile) = profile {
        profile_finish(profile, Some((problem, &schedule)), &mut out)?;
    }
    Ok(out)
}

/// `exec`: analyse and emit time-triggered dispatch tables.
fn exec_cmd(args: &[String]) -> Result<String, CliError> {
    let path =
        positional(args).ok_or_else(|| CliError::Usage("exec needs a workload file".into()))?;
    let problem = load_problem(path, args)?;
    let arbiter = parse_arbiter(opt(args, "--arbiter"))?;
    let schedule = mia_core::analyze(&problem, arbiter.as_ref())
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let table = mia_exec::DispatchTable::from_schedule(&problem, &schedule)
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let prefix = opt(args, "--prefix").unwrap_or("mia");
    let mut out = format!(
        "dispatch tables: {} entries over {} cores, horizon {}\n",
        table.len(),
        table.cores(),
        table.makespan()
    );
    for core in 0..table.cores() {
        let core = mia_model::CoreId::from_index(core);
        out.push_str(&format!(
            "  {core}: {} entries, utilization {:.1}%\n",
            table.entries(core).len(),
            table.utilization(core) * 100.0
        ));
    }
    if let Some(file) = opt(args, "--c") {
        fs::write(file, table.to_c_source(prefix))?;
        out.push_str(&format!("C tables written to {file}\n"));
    }
    if let Some(file) = opt(args, "--json") {
        fs::write(file, table.to_json())?;
        out.push_str(&format!("JSON tables written to {file}\n"));
    }
    if opt(args, "--c").is_none() && opt(args, "--json").is_none() {
        out.push('\n');
        out.push_str(&table.to_c_source(prefix));
    }
    Ok(out)
}

fn simulate_cmd(args: &[String]) -> Result<String, CliError> {
    let path =
        positional(args).ok_or_else(|| CliError::Usage("simulate needs a workload file".into()))?;
    let problem = load_problem(path, args)?;
    render_simulation(&problem, args)
}

/// Everything `simulate` does after the workload is loaded (shared with
/// the `mia serve` engine; see [`render_analysis`]).
pub(crate) fn render_simulation(problem: &Problem, args: &[String]) -> Result<String, CliError> {
    let arbiter = parse_arbiter(opt(args, "--arbiter"))?;
    let schedule = mia_core::analyze(problem, arbiter.as_ref())
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let pattern = match opt(args, "--pattern").unwrap_or("burst-start") {
        "burst-start" | "burst" => AccessPattern::BurstStart,
        "burst-end" => AccessPattern::BurstEnd,
        "uniform" => AccessPattern::Uniform,
        "random" => AccessPattern::Random,
        other => {
            return Err(CliError::Usage(format!(
                "unknown pattern `{other}` (burst-start, burst-end, uniform, random)"
            )))
        }
    };
    let seed: u64 = opt(args, "--seed").unwrap_or("0").parse().unwrap_or(0);
    let run = simulate(problem, &schedule, &SimConfig::new(pattern).seed(seed))
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let mut out = format!(
        "simulated ({pattern:?}, seed {seed}): makespan {} vs analysed {}\n",
        run.makespan(),
        schedule.makespan()
    );
    out.push_str(&format!(
        "observed stalls: {} vs analysed interference {}\n",
        run.total_stall(),
        schedule.total_interference()
    ));
    match run.first_violation(&schedule) {
        None => out.push_str("soundness: OK — no task exceeded its analysed response time\n"),
        Some(t) => out.push_str(&format!("soundness: VIOLATED by task {t}\n")),
    }
    Ok(out)
}

fn sdf_cmd(args: &[String]) -> Result<String, CliError> {
    let path = positional(args)
        .ok_or_else(|| CliError::Usage("sdf needs an .sdf/.sdf3 file or `rosace`".into()))?;
    let (problem, iterations) = sdf_problem_with_iterations(path, args)?;
    let arbiter = parse_arbiter(opt(args, "--arbiter"))?;
    let schedule = mia_core::analyze(&problem, arbiter.as_ref())
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let mut out = format!(
        "expanded {iterations} iteration(s): {} firings, makespan {}\n\n",
        problem.len(),
        schedule.makespan()
    );
    out.push_str(&mia_trace::gantt(&problem, &schedule));
    Ok(out)
}

fn dot_cmd(args: &[String]) -> Result<String, CliError> {
    let path =
        positional(args).ok_or_else(|| CliError::Usage("dot needs a workload file".into()))?;
    let problem = load_problem(path, args)?;
    Ok(mia_trace::to_dot(problem.graph()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// This test process's scratch directory: the pid keeps two test
    /// processes on one host out of each other's files.
    pub(crate) fn scratch_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mia-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn no_args_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("generate"));
        assert!(out.contains("simulate"));
    }

    #[test]
    fn help_after_a_command_prints_usage_instead_of_running() {
        for command in ["analyze", "optimize", "serve"] {
            for flag in ["--help", "-h"] {
                let out = run(&args(&[command, flag])).unwrap();
                assert_eq!(out, help(), "{command} {flag}");
            }
        }
        // Also after other arguments: nothing is loaded or analysed.
        let out = run(&args(&["analyze", "no-such-file.json", "--help"])).unwrap();
        assert_eq!(out, help());
        assert!(out.starts_with("usage: mia <command>"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn family_parsing() {
        assert_eq!(parse_family("LS64").unwrap(), Family::FixedLayerSize(64));
        assert_eq!(parse_family("nl16").unwrap(), Family::FixedLayers(16));
        assert!(parse_family("XX4").is_err());
        assert!(parse_family("LSxx").is_err());
    }

    #[test]
    fn arbiter_parsing() {
        for name in ["rr", "mppa", "tdm", "fifo", "fp", "wrr"] {
            assert!(parse_arbiter(Some(name)).is_ok(), "{name}");
        }
        assert!(parse_arbiter(Some("bogus")).is_err());
        assert_eq!(parse_arbiter(None).unwrap().name(), "round-robin");
    }

    #[test]
    fn generate_analyze_simulate_round_trip() {
        let dir = scratch_dir();
        let path = dir.join("w.json");
        let path_str = path.to_str().unwrap().to_owned();

        let out = run(&args(&[
            "generate", "--family", "LS4", "-n", "32", "--seed", "5", "-o", &path_str,
        ]))
        .unwrap();
        assert!(out.contains("32 tasks"));

        let out = run(&args(&["analyze", &path_str, "--gantt"])).unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("PE0"));

        let out = run(&args(&["analyze", &path_str, "--algorithm", "baseline"])).unwrap();
        assert!(out.contains("baseline"));

        let out = run(&args(&["dot", &path_str])).unwrap();
        assert!(out.contains("digraph"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn undeclared_options_are_usage_errors() {
        let dir = scratch_dir();
        let path = dir.join("flags.json");
        let path_str = path.to_str().unwrap().to_owned();
        run(&args(&[
            "generate", "--family", "LS4", "-n", "16", "--seed", "5", "-o", &path_str,
        ]))
        .unwrap();
        for (bad, flag) in [
            (
                vec!["analyze", &path_str, "--bogus-flag", "3"],
                "--bogus-flag",
            ),
            // `analyze` has one engine and no thread count.
            (vec!["analyze", &path_str, "--threads", "2"], "--threads"),
            // No option selects the interference mode.
            (
                vec!["analyze", &path_str, "--interference", "pairwise"],
                "--interference",
            ),
            (vec!["analyze", &path_str, "-x"], "-x"),
            (vec!["simulate", &path_str, "--gantt"], "--gantt"),
            (
                vec!["generate", "--family", "LS4", "--verbose"],
                "--verbose",
            ),
            (vec!["sweep", "--threads", "1,4"], "--threads"),
            (vec!["serve", "--port", "4117"], "--port"),
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
            assert!(err.to_string().contains(&format!("`{flag}`")), "{err}");
        }
        // A declared option's value may itself start with `-`.
        let err = run(&args(&["serve", "--max-pending", "-2"])).unwrap_err();
        assert!(err.to_string().contains("--max-pending"), "{err}");
        // Every option the one-shot commands are documented with is
        // still taken.
        let out = run(&args(&[
            "analyze",
            &path_str,
            "--arbiter",
            "mppa",
            "--algorithm",
            "incremental",
            "--deadline",
            "100000000",
            "--gantt",
            "--dot",
        ]))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_generated_workload_simulates() {
        // Regression for the ROADMAP-flagged mismatch: `mia simulate`
        // used to reject every `mia generate` workload with the paper's
        // default parameters (DemandExceedsWcet). The generator now caps
        // total demand at the WCET budget.
        let dir = scratch_dir();
        let path = dir.join("gen-sim.json");
        let path_str = path.to_str().unwrap().to_owned();
        for (family, seed) in [("LS16", "1"), ("NL4", "9"), ("LS4", "42")] {
            run(&args(&[
                "generate", "--family", family, "-n", "48", "--seed", seed, "-o", &path_str,
            ]))
            .unwrap();
            let out = run(&args(&["simulate", &path_str, "--pattern", "burst-start"]))
                .unwrap_or_else(|e| panic!("{family} seed {seed}: {e}"));
            assert!(out.contains("soundness: OK"), "{family} seed {seed}: {out}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_reports_soundness() {
        // Hand-build a sim-friendly workload (small demands).
        let dir = scratch_dir();
        let path = dir.join("sim.json");
        std::fs::write(
            &path,
            r#"{
                "platform": { "cores": 2, "banks": 2 },
                "bank_policy": "single",
                "tasks": [
                    { "name": "a", "wcet": 50, "accesses": 10 },
                    { "name": "b", "wcet": 50, "accesses": 10 }
                ],
                "mapping": [0, 1]
            }"#,
        )
        .unwrap();
        let out = run(&args(&[
            "simulate",
            path.to_str().unwrap(),
            "--pattern",
            "random",
        ]))
        .unwrap();
        assert!(out.contains("soundness: OK"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sdf_subcommand_runs_end_to_end() {
        let dir = scratch_dir();
        let path = dir.join("app.sdf");
        std::fs::write(
            &path,
            "actor a wcet=10 accesses=2\nactor b wcet=20\nchannel a -> b produce=2 consume=1 words=4\n",
        )
        .unwrap();
        let out = run(&args(&[
            "sdf",
            path.to_str().unwrap(),
            "--cores",
            "2",
            "--iterations",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("firings"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn analyze_accepts_sdf3_and_rosace_inputs() {
        let dir = scratch_dir();
        let path = dir.join("app.sdf3");
        std::fs::write(&path, mia_sdf::to_sdf3(&mia_sdf::rosace(), "rosace")).unwrap();
        let path_str = path.to_str().unwrap().to_owned();

        // The .sdf3 file and the built-in preset are the same workload,
        // so with identical flags the analyses agree.
        let from_file = run(&args(&["analyze", &path_str, "--iterations", "2"])).unwrap();
        let builtin = run(&args(&["analyze", "rosace", "--iterations", "2"])).unwrap();
        assert!(from_file.contains("makespan"), "{from_file}");
        assert!(from_file.contains("tasks: 50"), "{from_file}");
        let makespan = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("makespan"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(makespan(&from_file), makespan(&builtin));

        // The whole toolchain accepts SDF inputs: dot, simulate, sdf.
        let out = run(&args(&["dot", "rosace"])).unwrap();
        assert!(out.contains("digraph"), "{out}");
        assert!(out.contains("aircraft_dynamics"), "{out}");
        let out = run(&args(&["simulate", "rosace", "--pattern", "uniform"])).unwrap();
        assert!(out.contains("soundness: OK"), "{out}");
        let out = run(&args(&["sdf", "rosace", "--iterations", "2"])).unwrap();
        assert!(out.contains("50 firings"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn deadline_derives_sdf_iterations() {
        // ROSACE's hyper-period is 2_000_000 cycles (20 ms): a deadline
        // within one period expands one iteration, 3_000_000 needs two.
        let out = run(&args(&["sdf", "rosace", "--deadline", "2000000"])).unwrap();
        assert!(out.contains("expanded 1 iteration(s): 25 firings"), "{out}");
        let out = run(&args(&["sdf", "rosace", "--deadline", "3000000"])).unwrap();
        assert!(out.contains("expanded 2 iteration(s): 50 firings"), "{out}");
        // An explicit --iterations always wins over the derivation.
        let out = run(&args(&[
            "sdf",
            "rosace",
            "--deadline",
            "3000000",
            "--iterations",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("expanded 1 iteration(s)"), "{out}");
        // `analyze` shares the derivation (and still enforces the
        // deadline on the schedule, which rosace meets comfortably).
        let out = run(&args(&["analyze", "rosace", "--deadline", "3000000"])).unwrap();
        assert!(out.contains("tasks: 50"), "{out}");
    }

    #[test]
    fn deadline_without_hyper_period_keeps_the_old_behaviour() {
        // The .sdf text format declares no hyper-period: `--deadline`
        // cannot derive iterations there, so it falls back to one
        // iteration (and, under `analyze`, still bounds the schedule) —
        // exactly what the flag did before the derivation existed.
        let dir = scratch_dir();
        let path = dir.join("bare.sdf");
        std::fs::write(&path, "actor a wcet=10\nactor b wcet=20\n").unwrap();
        let out = run(&args(&[
            "sdf",
            path.to_str().unwrap(),
            "--deadline",
            "1000",
        ]))
        .unwrap();
        assert!(out.contains("expanded 1 iteration(s)"), "{out}");
        // …but a typo'd deadline is still a usage error, period or not.
        let err = run(&args(&[
            "sdf",
            path.to_str().unwrap(),
            "--deadline",
            "12O0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        // The schedule deadline itself is still enforced by `analyze`.
        let err = run(&args(&[
            "analyze",
            path.to_str().unwrap(),
            "--deadline",
            "5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
        std::fs::remove_file(path).ok();
        // An infeasibly far deadline on a period-declaring graph is
        // rejected before expansion.
        let err = run(&args(&[
            "sdf",
            "rosace",
            "--deadline",
            &u64::MAX.to_string(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn malformed_iterations_is_a_usage_error() {
        // A typo like `--iterations 1O` must not silently analyze one
        // hyper-period as if nothing happened.
        for bad in ["1O", "0", "-3", "abc"] {
            let err = run(&args(&["analyze", "rosace", "--iterations", bad])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_sdf3_input_is_a_parse_error_with_line() {
        let dir = scratch_dir();
        let path = dir.join("bad.sdf3");
        std::fs::write(&path, "<sdf3>\n<actor name=\"a\"").unwrap();
        let err = run(&args(&["analyze", path.to_str().unwrap()])).unwrap_err();
        match err {
            CliError::Parse(msg) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exec_subcommand_emits_tables() {
        let dir = scratch_dir();
        let path = dir.join("exec.json");
        let c_path = dir.join("tables.c");
        std::fs::write(
            &path,
            r#"{
                "platform": { "cores": 2, "banks": 2 },
                "tasks": [
                    { "name": "a", "wcet": 10, "accesses": 2 },
                    { "name": "b", "wcet": 20, "accesses": 3 }
                ],
                "mapping": [0, 1],
                "edges": [ { "src": 0, "dst": 1, "words": 4 } ]
            }"#,
        )
        .unwrap();
        let out = run(&args(&[
            "exec",
            path.to_str().unwrap(),
            "--prefix",
            "app",
            "--c",
            c_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("2 entries over 2 cores"), "{out}");
        let c = std::fs::read_to_string(&c_path).unwrap();
        assert!(c.contains("app_core0"));
        assert!(c.contains("app_core1"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(c_path).ok();
    }

    #[test]
    fn analyze_chrome_export_writes_a_trace() {
        let dir = scratch_dir();
        let w_path = dir.join("chrome-w.json");
        let t_path = dir.join("trace.json");
        run(&args(&[
            "generate",
            "--family",
            "LS4",
            "-n",
            "16",
            "-o",
            w_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&args(&[
            "analyze",
            w_path.to_str().unwrap(),
            "--chrome",
            t_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("Chrome trace written"));
        let trace = std::fs::read_to_string(&t_path).unwrap();
        assert!(trace.contains("\"ph\":\"X\""));
        std::fs::remove_file(w_path).ok();
        std::fs::remove_file(t_path).ok();
    }

    #[test]
    fn profile_flag_exports_runtime_spans_on_all_three_commands() {
        // One test drives every `--profile` surface *sequentially*:
        // `take_spans` drains the process-global span buffers, so
        // concurrent profile runs would steal each other's spans.
        let dir = scratch_dir();
        let path = dir.join("profile.json");
        let path_str = path.to_str().unwrap().to_owned();

        let out = run(&args(&["analyze", "rosace", "--profile", &path_str])).unwrap();
        assert!(out.contains("runtime profile written"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("\"analysis.run\""), "{trace}");
        assert!(trace.contains("\"analysis.close_open\""), "{trace}");
        // The schedule rides along in the same trace file.
        assert!(trace.contains("schedule"), "{trace}");

        let out = run(&args(&[
            "optimize",
            "rosace",
            "--budget-evals",
            "40",
            "--profile",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("runtime profile written"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(
            trace.contains("\"dse.validate\"") || trace.contains("\"dse.full_analysis\""),
            "{trace}"
        );

        let out = run(&args(&[
            "sweep",
            "--families",
            "LS4",
            "--sizes",
            "16",
            "--profile",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("runtime profile written"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"analysis.run\""), "{trace}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&args(&["analyze", "/nonexistent/x.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn malformed_json_is_parse_error() {
        let dir = scratch_dir();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = run(&args(&["analyze", path.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        std::fs::remove_file(path).ok();
    }
}
