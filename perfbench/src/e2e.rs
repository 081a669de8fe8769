//! The end-to-end workloads: the release `mia` binary, run as a user runs
//! it, timed from outside and checked against its inputs.

use std::cell::LazyCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mia_obs::RegistrySnapshot;
use mia_serve::{Client, StatsSnapshot};

use crate::check::{self, Reference};
use crate::gen;
use crate::proc;
use crate::stats::median;

/// Tasks of the front-end workload's LS16 file (about 70 MB of JSON).
pub const LS16_TASKS: usize = 100_000;
/// Tasks of the downscaled copies the baseline and the simulator check.
pub const SMALL_TASKS: usize = 400;
/// The many-core workload: H.263 on 64 cores under the MPPA tree.
pub const H263_CORES: &str = "64";
pub const H263_ITERATIONS: &str = "50";
const H263_SMALL_ITERATIONS: &str = "2";
/// The DSE workload: a 600-task NL16 file, one thread, a fixed budget.
pub const NL16_TASKS: usize = 600;
pub const OPTIMIZE_BUDGET: u64 = 1_000;
/// The served workload: a 2,000-task LS16 problem held resident.
pub const SERVE_TASKS: usize = 2_000;
/// Requests per `--seconds` of run length. The count is fixed by the run
/// length alone, never by how fast the daemon answers, so a faster
/// program does not store more memo entries and read as using more
/// memory.
pub const REQUESTS_PER_SECOND: f64 = 160.0;
/// Requests in every ten that repeat an earlier query of the same
/// connection (memo hits); the rest are new queries (memo misses, each a
/// full analysis). An assumed mix of a design session: `perfbench/README.md`
/// shows how the serve figures change with it.
pub const REPEATS_PER_TEN: usize = 3;
/// Every what-if deadline lies far above any makespan of the problem,
/// so each request is a full, feasible analysis.
const DEADLINE_BASE: u64 = 1_000_000_000;
/// Fewest timed operations per run, however long each one takes.
const MIN_OPS: usize = 3;

/// Where and how one benchmark run works.
pub struct Ctx {
    pub mia: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// When the run started, after the build: set-up is timed from here.
    pub started: Instant,
}

impl Ctx {
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    fn mia(&self) -> Command {
        Command::new(&self.mia)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The result line of one run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Collects failed checks without stopping the run; each is reported on
/// stderr.
#[derive(Debug, Default)]
pub struct Verdict {
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("check failed: {what}: {e}");
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

pub fn os(s: impl AsRef<Path>) -> String {
    s.as_ref().display().to_string()
}

/// Timings of the one-shot operations of a run.
#[derive(Debug, Default)]
struct Samples {
    walls_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    makespans: Vec<f64>,
    attempted: u64,
    failed: u64,
    setup_s: f64,
}

impl Samples {
    fn outcome(self, verdict: &Verdict) -> Outcome {
        let ok = !self.walls_ms.is_empty();
        // The run's fastest process: the one least disturbed by other
        // work on the host, which slows whole stretches of a run.
        let wall_ms = self.walls_ms.iter().copied().fold(f64::INFINITY, f64::min);
        Outcome {
            correct: verdict.ok() && ok,
            attempted: self.attempted,
            failed: self.failed,
            metrics: if ok {
                vec![
                    metric("setup_s", self.setup_s, "s"),
                    metric("wall_ms", wall_ms, "ms"),
                    metric("ops_per_s", 1e3 / wall_ms, "1/s"),
                    metric("peak_rss_mb", median(&self.rss_mb), "MB"),
                    metric("makespan_cycles", median(&self.makespans), "cycles"),
                ]
            } else {
                Vec::new()
            },
        }
    }
}

/// Runs whole operations until their summed wall time reaches the run
/// length (and at least [`MIN_OPS`] of them). `op` returns the finished
/// process and the makespan its checked output reports.
fn timed_loop(ctx: &Ctx, mut op: impl FnMut() -> Result<(proc::Run, u64), String>) -> Samples {
    let mut s = Samples {
        setup_s: ctx.started.elapsed().as_secs_f64(),
        ..Samples::default()
    };
    let mut measured = Duration::ZERO;
    while measured.as_secs_f64() < ctx.seconds || (s.attempted as usize) < MIN_OPS {
        s.attempted += 1;
        let began = Instant::now();
        match op() {
            Ok((run, makespan)) => {
                measured += run.wall;
                s.walls_ms.push(run.wall.as_secs_f64() * 1e3);
                s.rss_mb.push(run.exit.peak_rss_mb);
                s.makespans.push(makespan as f64);
            }
            Err(e) => {
                eprintln!("operation failed: {e}");
                measured += began.elapsed();
                s.failed += 1;
            }
        }
    }
    s
}

/// A check reference, built on first use. The first use comes after the
/// first timed process has ended, so building the reference is the
/// checker's work and never counts as set-up.
type LazyRef<F> = LazyCell<Result<Reference, String>, F>;

/// One finished `mia analyze … --json` process and its JSON export. The
/// files are named after `name`.
fn analyze_process(ctx: &Ctx, args: &[String], name: &str) -> Result<(proc::Run, String), String> {
    let json = ctx.file(&format!("{name}.json"));
    let _ = fs::remove_file(&json);
    let run = proc::run(
        ctx.mia().arg("analyze").args(args).arg("--json").arg(&json),
        &ctx.file(&format!("{name}.out")),
    )?;
    let text = fs::read_to_string(&json).map_err(|e| format!("schedule export: {e}"))?;
    Ok((run, text))
}

/// Checks one analyze process against `reference`; its makespan, or 0
/// when a check failed.
fn check_analyze_process<F: FnOnce() -> Result<Reference, String>>(
    (run, json): &(proc::Run, String),
    reference: &LazyRef<F>,
    verdict: &mut Verdict,
) -> u64 {
    let checked = reference
        .as_ref()
        .map_err(|e| format!("reference: {e}"))
        .and_then(|r| check::check_analyze(r, &run.stdout, json));
    verdict
        .check("analyze output", checked)
        .map_or(0, |h| h.makespan)
}

/// One timed `mia analyze` operation, checked against `reference`.
fn analyze_once<F: FnOnce() -> Result<Reference, String>>(
    ctx: &Ctx,
    args: &[String],
    reference: &LazyRef<F>,
    verdict: &mut Verdict,
) -> Result<(proc::Run, u64), String> {
    let done = analyze_process(ctx, args, "schedule")?;
    let makespan = check_analyze_process(&done, reference, verdict);
    Ok((done.0, makespan))
}

/// The last step of a one-shot workload's set-up: the program's first,
/// cold start, on a small input. Its output is checked after the timed
/// loop.
fn cold_start(ctx: &Ctx, args: &[String]) -> Result<String, String> {
    proc::run(ctx.mia().arg("analyze").args(args), &ctx.file("small.out")).map(|r| r.stdout)
}

/// On a downscaled copy: the incremental schedule of the cold start
/// equals the baseline's task for task (the paper's claim), and the
/// simulator finds the analysed bounds sound.
fn downscaled_checks(
    ctx: &Ctx,
    args: &[String],
    reference: &Reference,
    incremental: Result<String, String>,
    verdict: &mut Verdict,
) {
    let run = |command: &str, extra: &[&str], name: &str| {
        proc::run(
            ctx.mia().arg(command).args(args).args(extra),
            &ctx.file(name),
        )
        .map(|r| r.stdout)
    };
    let incremental = verdict.check("downscaled analyze", incremental);
    let baseline = verdict.check(
        "downscaled baseline",
        run("analyze", &["--algorithm", "baseline"], "baseline.out"),
    );
    if let (Some(inc), Some(base)) = (incremental, baseline) {
        verdict.check(
            "incremental equals baseline",
            check::check_same_schedule(&inc, &base),
        );
        let rows = check::parse_table(&inc);
        verdict.check(
            "downscaled schedule",
            rows.and_then(|rows| check::check_schedule(reference, &rows)),
        );
    }
    if let Some(sim) = verdict.check("downscaled simulate", run("simulate", &[], "simulate.out")) {
        verdict.check("simulation soundness", check::check_simulation(&sim));
    }
}

/// `analyze-ls16-100k`: one-shot analysis of a 100k-task LS16 file under
/// round-robin.
pub fn analyze_ls16(ctx: &Ctx) -> Result<Outcome, String> {
    let dag = gen::ls16(LS16_TASKS, ctx.seed);
    let input = ctx.file("ls16.json");
    fs::write(&input, dag.to_json()).map_err(|e| e.to_string())?;
    let small = gen::ls16(SMALL_TASKS, ctx.seed);
    let small_input = ctx.file("ls16-small.json");
    fs::write(&small_input, small.to_json()).map_err(|e| e.to_string())?;
    let small_args = vec![os(&small_input), "--arbiter".into(), "rr".into()];
    let cold = cold_start(ctx, &small_args);

    let reference = LazyCell::new(|| Ok(Reference::of_dag(&dag)));
    let args = vec![os(&input), "--arbiter".into(), "rr".into()];
    let mut verdict = Verdict::default();
    let samples = timed_loop(ctx, || analyze_once(ctx, &args, &reference, &mut verdict));
    drop(reference);
    drop(dag);

    downscaled_checks(
        ctx,
        &small_args,
        &Reference::of_dag(&small),
        cold,
        &mut verdict,
    );
    Ok(samples.outcome(&verdict))
}

/// The reference of an SDF input: its expansion by the SDF front-end,
/// with the mapping left to the program.
fn sdf_reference(text: &str, iterations: &str, cores: &str) -> Result<Reference, String> {
    let graph = mia_sdf::parse_named("h263.sdf3", text).map_err(|e| e.to_string())?;
    let expansion = graph
        .expand(iterations.parse().expect("numeric iterations"))
        .map_err(|e| e.to_string())?;
    let g = &expansion.graph;
    Ok(Reference {
        wcet: g.iter().map(|(_, t)| t.wcet().as_u64()).collect(),
        min_release: g.iter().map(|(_, t)| t.min_release().as_u64()).collect(),
        edges: g.edges().iter().map(|e| (e.src.0, e.dst.0)).collect(),
        mapping: None,
        cores: cores.parse().expect("numeric cores"),
    })
}

fn h263_args(input: &Path, iterations: &str) -> Vec<String> {
    [
        os(input).as_str(),
        "--cores",
        H263_CORES,
        "--iterations",
        iterations,
        "--arbiter",
        "mppa",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// `analyze-h263-64c-mppa`: one-shot analysis of the H.263 decoder
/// expanded on 64 cores under the MPPA arbitration tree.
pub fn analyze_h263(ctx: &Ctx) -> Result<Outcome, String> {
    let text = gen::h263(ctx.seed);
    let input = ctx.file("h263.sdf3");
    fs::write(&input, &text).map_err(|e| e.to_string())?;
    let small_args = h263_args(&input, H263_SMALL_ITERATIONS);
    let cold = cold_start(ctx, &small_args);

    let reference = LazyCell::new(|| sdf_reference(&text, H263_ITERATIONS, H263_CORES));
    let args = h263_args(&input, H263_ITERATIONS);
    let mut verdict = Verdict::default();
    let samples = timed_loop(ctx, || analyze_once(ctx, &args, &reference, &mut verdict));

    let small = sdf_reference(&text, H263_SMALL_ITERATIONS, H263_CORES)?;
    downscaled_checks(ctx, &small_args, &small, cold, &mut verdict);
    Ok(samples.outcome(&verdict))
}

/// The `mia optimize` invocation of the DSE workload.
fn optimize_args(input: &Path, seed: u64, budget: u64) -> Vec<String> {
    let (seed, budget) = (seed.to_string(), budget.to_string());
    [
        os(input).as_str(),
        "--arbiters",
        "rr",
        "--threads",
        "1",
        "--seed",
        &seed,
        "--budget-evals",
        &budget,
    ]
    .map(str::to_owned)
    .to_vec()
}

/// `optimize-nl16-600`: a single-threaded mapping search over a 600-task
/// NL16 file at a fixed evaluation budget.
pub fn optimize_nl16(ctx: &Ctx) -> Result<Outcome, String> {
    let dag = gen::nl16(NL16_TASKS, ctx.seed);
    let input = ctx.file("nl16.json");
    fs::write(&input, dag.to_json()).map_err(|e| e.to_string())?;
    // The cold start: a one-shot analysis of the same file, whose
    // makespan every search must report as its seed.
    let one_shot = vec![os(&input), "--arbiter".into(), "rr".into()];
    let cold = analyze_process(ctx, &one_shot, "one-shot");

    let args = optimize_args(&input, ctx.seed, OPTIMIZE_BUDGET);
    let mut verdict = Verdict::default();
    let mut outcomes = Vec::new();
    let samples = timed_loop(ctx, || {
        let run = proc::run(
            ctx.mia().arg("optimize").args(&args),
            &ctx.file("optimize.out"),
        )?;
        let out = verdict.check("optimize report", check::parse_optimize(&run.stdout));
        outcomes.push(out);
        Ok((run, out.map_or(0, |o| o.optimized_makespan)))
    });

    let reference = LazyCell::new(|| Ok(Reference::of_dag(&dag)));
    if let Some(cold) = verdict.check("one-shot analyze", cold) {
        let makespan = check_analyze_process(&cold, &reference, &mut verdict);
        for out in outcomes.iter().flatten() {
            verdict.check(
                "optimize outcome",
                check::check_optimize(out, makespan, OPTIMIZE_BUDGET),
            );
        }
    }
    if outcomes.windows(2).any(|w| w[0] != w[1]) {
        verdict.check::<()>(
            "optimize determinism",
            Err("one seed gave two results".into()),
        );
    }
    Ok(samples.outcome(&verdict))
}

/// The running daemon; killed on drop unless it was shut down and reaped.
struct Daemon {
    child: Child,
    reaped: bool,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One what-if query: an arbiter and a deadline.
type Query = (&'static str, u64);

/// What one client connection saw.
#[derive(Debug, Default)]
struct ConnLog {
    latencies_ms: Vec<f64>,
    cached: Vec<bool>,
    makespans: Vec<f64>,
    failed: u64,
    /// The first reply per arbiter, for the one-shot comparison.
    firsts: Vec<(Query, String)>,
    /// Digest of the first reply per query, for the memo-hit check.
    seen: HashMap<Query, u64>,
    verdict: Verdict,
}

/// A deterministic closed-loop plan for connection `conn`: mostly new
/// queries, [`REPEATS_PER_TEN`] in ten repeats of this connection's
/// earlier ones, picked by the seed. Connections never share a query, so
/// whether a request hits the memo depends only on the plan, not on
/// thread timing.
fn plan(seed: u64, conn: u64, requests: usize) -> Vec<Query> {
    let arbiters: Vec<&'static str> = mia_arbiter::REGISTRY.iter().map(|e| e.canonical).collect();
    let mut rng = gen::Rng::new(seed ^ (conn + 1).wrapping_mul(0x9e37_79b9));
    let mut issued: Vec<Query> = Vec::new();
    let mut plan = Vec::with_capacity(requests);
    for i in 0..requests {
        let query = if !issued.is_empty() && i % 10 >= 10 - REPEATS_PER_TEN {
            issued[rng.range(0, issued.len() as u64 - 1) as usize]
        } else {
            // New queries cycle through the whole registry, so the cost
            // mix is the same in every run and every arbiter is served.
            let j = issued.len();
            let query = (
                arbiters[j % arbiters.len()],
                DEADLINE_BASE + 2 * j as u64 + conn,
            );
            issued.push(query);
            query
        };
        plan.push(query);
    }
    plan
}

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Sends `plan` in a closed loop, recording into `log`.
fn drive(client: &mut Client, handle: u64, plan: &[Query], log: &mut ConnLog) {
    for &query in plan {
        let args = [
            "--arbiter".to_owned(),
            query.0.to_owned(),
            "--deadline".to_owned(),
            query.1.to_string(),
        ];
        let began = Instant::now();
        let reply = client.run_resident("analyze", handle, &args);
        let latency = began.elapsed().as_secs_f64() * 1e3;
        let body = match reply {
            Ok(body) => body,
            Err(e) => {
                eprintln!("request failed: {e}");
                log.failed += 1;
                continue;
            }
        };
        log.latencies_ms.push(latency);
        log.cached.push(body.cached);
        if let Some(header) = log
            .verdict
            .check("served analyze", check::parse_header(&body.output))
        {
            log.makespans.push(header.makespan as f64);
        }
        let digest = digest(&body.output);
        match log.seen.get(&query) {
            Some(&first) if first != digest => {
                log.verdict
                    .check::<()>("memo hit", Err(format!("reply for {query:?} changed")));
            }
            Some(_) => {}
            None => {
                if body.cached {
                    log.verdict.check::<()>(
                        "memo miss",
                        Err(format!("first {query:?} came from the memo")),
                    );
                }
                if !log.firsts.iter().any(|((a, _), _)| *a == query.0) {
                    log.firsts.push((query, body.output));
                }
                log.seen.insert(query, digest);
            }
        }
    }
}

/// A closed-loop session against a live daemon.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: f64,
    pub load_s: f64,
    pub window_s: f64,
    pub latencies_ms: Vec<f64>,
    pub cached: Vec<bool>,
    pub makespans: Vec<f64>,
    pub failed: u64,
    pub stats: Option<StatsSnapshot>,
    /// The daemon's registry (`metrics` method).
    pub registry: Option<RegistrySnapshot>,
    pub peak_rss_mb: f64,
}

/// Starts `mia serve --workers 2`, loads a 2,000-task LS16 problem
/// resident, and sends `requests` what-if `analyze` requests over two
/// connections, each waiting for its reply before sending the next. The
/// connections are `mia_serve::Client`s, the client `mia client` uses.
pub fn serve_session(ctx: &Ctx, requests: usize, verdict: &mut Verdict) -> Result<Session, String> {
    let dag = gen::ls16(SERVE_TASKS, ctx.seed);
    let input = ctx.file("serve.json");
    fs::write(&input, dag.to_json()).map_err(|e| e.to_string())?;
    drop(dag);
    let port_file = ctx.file("addr");
    let _ = fs::remove_file(&port_file);
    let log = fs::File::create(ctx.file("serve.out")).map_err(|e| e.to_string())?;
    let child = ctx
        .mia()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--port-file",
        ])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(log.try_clone().map_err(|e| e.to_string())?)
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start mia serve: {e}"))?;
    let mut daemon = Daemon {
        child,
        reaped: false,
    };
    let waited = Instant::now();
    let addr = loop {
        match fs::read_to_string(&port_file) {
            Ok(a) if !a.is_empty() => break a,
            _ if waited.elapsed() > Duration::from_secs(30) => {
                return Err("mia serve did not start".into())
            }
            _ => std::thread::sleep(Duration::from_micros(500)),
        }
    };
    let connect = || Client::connect(addr.trim()).map_err(|e| format!("connect {addr}: {e}"));
    let mut clients = [connect()?, connect()?];
    let began = Instant::now();
    let handle = clients[0]
        .load(&os(&input), &[])
        .map_err(|e| format!("load: {e}"))?;
    let load_s = began.elapsed().as_secs_f64();

    let plans: Vec<Vec<Query>> = (0..2u64)
        .map(|c| plan(ctx.seed, c, (requests + 1 - c as usize) / 2))
        .collect();
    let setup_s = ctx.started.elapsed().as_secs_f64();
    let mut logs = [ConnLog::default(), ConnLog::default()];
    let began = Instant::now();
    std::thread::scope(|scope| {
        for ((client, plan), log) in clients.iter_mut().zip(&plans).zip(logs.iter_mut()) {
            scope.spawn(move || drive(client, handle, plan, log));
        }
    });
    let window_s = began.elapsed().as_secs_f64();

    let mut s = Session {
        setup_s,
        load_s,
        window_s,
        ..Session::default()
    };
    let mut firsts = Vec::new();
    for log in logs {
        verdict.problems.extend(log.verdict.problems);
        s.latencies_ms.extend(log.latencies_ms);
        s.cached.extend(log.cached);
        s.makespans.extend(log.makespans);
        s.failed += log.failed;
        firsts.extend(log.firsts);
    }
    let hits = s.cached.iter().filter(|&&c| c).count() as u64;
    s.stats = verdict.check(
        "daemon stats",
        clients[0].stats().map_err(|e| e.to_string()),
    );
    if let Some(stats) = &s.stats {
        // Sent and answered before the stats request: the load plus
        // every analyze.
        verdict.check(
            "daemon stats",
            check::check_serve_stats(stats, 1 + requests as u64 - s.failed, hits),
        );
    }
    s.registry = clients[0].metrics().ok();
    clients[0]
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(clients);
    let exit = proc::reap(&daemon.child).map_err(|e| e.to_string())?;
    daemon.reaped = true;
    s.peak_rss_mb = exit.peak_rss_mb;

    // One reply per arbiter against the one-shot CLI on the same file.
    // Both connections start with every arbiter; compare each once.
    firsts.sort_by_key(|((arbiter, _), _)| *arbiter);
    firsts.dedup_by_key(|((arbiter, _), _)| *arbiter);
    if firsts.len() != mia_arbiter::REGISTRY.len() {
        verdict.check::<()>(
            "arbiter coverage",
            Err(format!("{} arbiters served", firsts.len())),
        );
    }
    for ((arbiter, deadline), served) in &firsts {
        let cli = proc::run(
            ctx.mia().arg("analyze").arg(&input).args([
                "--arbiter",
                arbiter,
                "--deadline",
                &deadline.to_string(),
            ]),
            &ctx.file("one-shot.out"),
        );
        if let Some(cli) = verdict.check("one-shot analyze", cli) {
            verdict.check(
                &format!("served {arbiter} equals one-shot"),
                check::check_served_equals_cli(served, &cli.stdout),
            );
        }
    }
    Ok(s)
}

/// `serve-whatif`: the closed-loop what-if session, `REQUESTS_PER_SECOND`
/// requests per second of run length.
pub fn serve_whatif(ctx: &Ctx) -> Result<Outcome, String> {
    let requests = (REQUESTS_PER_SECOND * ctx.seconds).round().max(400.0) as usize;
    let mut verdict = Verdict::default();
    let s = serve_session(ctx, requests, &mut verdict)?;
    let ok = !s.latencies_ms.is_empty() && !s.makespans.is_empty();
    Ok(Outcome {
        correct: verdict.ok() && ok,
        attempted: requests as u64,
        failed: s.failed,
        metrics: if ok {
            vec![
                metric("setup_s", s.setup_s, "s"),
                metric("wall_ms", median(&s.latencies_ms), "ms"),
                metric("ops_per_s", s.latencies_ms.len() as f64 / s.window_s, "1/s"),
                metric("peak_rss_mb", s.peak_rss_mb, "MB"),
                metric("makespan_cycles", median(&s.makespans), "cycles"),
            ]
        } else {
            Vec::new()
        },
    })
}
