//! The traced run: per-layer numbers, timed from outside around calls
//! into each layer's public functions, plus the self times of the
//! program's existing `mia-obs` spans. It adds no tracing inside the
//! program.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

use mia_arbiter::{InterfererDemand, REGISTRY};
use mia_core::{AnalysisOptions, NoopObserver};
use mia_dse::{DseConfig, SearchSpace};
use mia_model::{BankPolicy, CoreId, Cycles, Platform, Problem};
use mia_obs::{HistogramSnapshot, SpanRecord};

use crate::e2e::{self, metric, Ctx, Metric, Outcome, Verdict};
use crate::gen;
use crate::stats::{median, quantile};

/// Platform widths of the arbiter microbench.
const ARBITER_CORES: [usize; 3] = [16, 64, 256];
/// Evaluation budget of the profiled search: small enough that its spans
/// fit the per-thread span buffer, so none is dropped.
const PROFILED_BUDGET: u64 = 300;
/// Requests of the traced serve session (at least 20 beyond its p95).
const SERVE_REQUESTS: usize = 400;

/// Seconds taken by `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let began = Instant::now();
    let out = f();
    (began.elapsed().as_secs_f64(), out)
}

/// Median seconds of three calls of `f`.
fn timed3<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..3).map(|_| timed(|| black_box(f())).0).collect();
    median(&samples)
}

/// Self time per span name: a span's duration minus the parts of it its
/// child spans (later, enclosed spans of the same thread) cover.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<String, u64> {
    let mut by_thread: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_thread.entry(s.tid).or_default().push(s);
    }
    let mut totals: HashMap<String, u64> = HashMap::new();
    for mut list in by_thread.into_values() {
        // Parents before children: earlier start first, longer first.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // (end, index into `own`) of the enclosing spans still open.
        let mut stack: Vec<(u64, usize)> = Vec::new();
        let mut own: Vec<(&str, u64)> = Vec::with_capacity(list.len());
        for s in list {
            let end = s.start_ns + s.dur_ns;
            while stack.last().is_some_and(|&(e, _)| e < end) {
                stack.pop();
            }
            if let Some(&(_, parent)) = stack.last() {
                own[parent].1 = own[parent].1.saturating_sub(s.dur_ns);
            }
            stack.push((end, own.len()));
            own.push((&s.name, s.dur_ns));
        }
        for (name, ns) in own {
            *totals.entry(name.to_owned()).or_default() += ns;
        }
    }
    totals
}

/// The `q`-quantile of a log2-bucket histogram, interpolated linearly
/// inside the bucket that holds it (bucket `i > 0` covers
/// `[2^(i-1), 2^i - 1]`). `HistogramSnapshot::quantile` returns the
/// bucket's upper bound, which moves only in factors of two: a 30% change
/// of the daemon's queue wait or execute time would not show in it.
pub fn bucket_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = q * h.count as f64;
    let mut below = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = ((1u128 << i) - 1) as f64;
            return (lo + (hi - lo) * ((rank - below) / n)).min(h.max as f64);
        }
        below += n;
    }
    h.max as f64
}

/// ns per `bank_interference` call, best of three calibrated batches.
fn arbiter_ns(arbiter: &dyn mia_arbiter::Arbiter, interferers: &[InterfererDemand]) -> f64 {
    let call = || {
        arbiter.bank_interference(
            black_box(CoreId(0)),
            black_box(400),
            black_box(interferers),
            Cycles(1),
        )
    };
    let mut batch = 1u64;
    loop {
        let (s, _) = timed(|| {
            (0..batch).for_each(|_| {
                black_box(call());
            })
        });
        if s > 0.01 {
            break;
        }
        batch *= 2;
    }
    (0..3)
        .map(|_| {
            timed(|| {
                (0..batch).for_each(|_| {
                    black_box(call());
                })
            })
            .0 * 1e9
                / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn arbiter_group(out: &mut Vec<Metric>) {
    for entry in REGISTRY {
        let arbiter = mia_arbiter::by_name(entry.canonical).expect("registered arbiter");
        for cores in ARBITER_CORES {
            let all: Vec<InterfererDemand> = (1..cores)
                .map(|c| InterfererDemand {
                    core: CoreId::from_index(c),
                    accesses: 100 + (c as u64 * 37) % 400,
                })
                .collect();
            for (mode, set) in [("one", &all[..1]), ("all", &all[..])] {
                let name = format!("arbiter.{}.c{cores}.{mode}_ns", entry.canonical);
                out.push(metric(&name, arbiter_ns(arbiter.as_ref(), set), "ns"));
            }
        }
    }
}

/// Workload parse, model build and render on the front-end workload's
/// 100k-task LS16 file.
fn front_end_group(ctx: &Ctx, out: &mut Vec<Metric>, verdict: &mut Verdict) -> Result<(), String> {
    let path = ctx.file("ls16.json");
    fs::write(&path, gen::ls16(e2e::LS16_TASKS, ctx.seed).to_json()).map_err(|e| e.to_string())?;
    let (read_s, text) = timed(|| fs::read_to_string(&path));
    let text = text.map_err(|e| e.to_string())?;
    let (parse_s, file) = timed(|| serde_json::from_str::<mia_cli::WorkloadFile>(&text));
    let file = file.map_err(|e| e.to_string())?;
    drop(text);
    let (build_s, problem) = timed(|| file.into_problem());
    let problem = problem.map_err(|e| e.to_string())?;
    let derive_s = timed3(|| {
        mia_model::derive_demands(
            problem.graph(),
            problem.mapping(),
            problem.platform(),
            BankPolicy::PerCoreBank,
        )
    });
    let table_s = timed3(|| mia_model::TaskTable::new(problem.graph()));
    let rr = mia_arbiter::by_name("rr").expect("rr");
    let (analyze_s, report) = timed(|| {
        mia_core::analyze_with(
            &problem,
            rr.as_ref(),
            &AnalysisOptions::new().task_deadlines(true),
            &mut NoopObserver,
        )
    });
    let schedule = report.map_err(|e| e.to_string())?.schedule;
    let render_s = timed3(|| mia_trace::schedule_table(&problem, &schedule));
    let json_s = timed3(|| mia_trace::schedule_json(&problem, &schedule));
    // The in-process stages of one `mia analyze --json` of this file;
    // the untraced wall time less this sum is process start, output
    // writing and the cost of timing each stage apart.
    eprintln!(
        "analyze-ls16-100k stages: read {read_s:.3} + parse {parse_s:.3} + build {build_s:.3} + analyze {analyze_s:.3} + table {render_s:.3} + json {json_s:.3} = {:.3} s",
        read_s + parse_s + build_s + analyze_s + render_s + json_s
    );
    if schedule.len() != e2e::LS16_TASKS {
        verdict.check::<()>(
            "front-end schedule",
            Err("schedule does not cover the file".into()),
        );
    }
    out.extend([
        metric("workload.read_s", read_s, "s"),
        metric("workload.parse_s", parse_s, "s"),
        metric("model.problem_build_s", build_s, "s"),
        metric("model.derive_demands_s", derive_s, "s"),
        metric("model.task_table_s", table_s, "s"),
        metric("trace.schedule_table_s", render_s, "s"),
        metric("trace.schedule_json_s", json_s, "s"),
    ]);
    Ok(())
}

/// SDF expansion, ETF mapping, the sequential and the 2-worker analysis,
/// and the analysis phases' span self times, on the many-core workload's
/// H.263 input (64 cores, MPPA tree).
fn many_core_group(
    ctx: &Ctx,
    out: &mut Vec<Metric>,
    verdict: &mut Verdict,
) -> Result<HashMap<String, u64>, String> {
    let text = gen::h263(ctx.seed);
    let iterations: u64 = e2e::H263_ITERATIONS.parse().expect("iterations");
    let cores: usize = e2e::H263_CORES.parse().expect("cores");
    let expand = || {
        mia_sdf::parse_named("h263.sdf3", &text)
            .and_then(|g| g.expand(iterations))
            .map_err(|e| e.to_string())
    };
    let expand_s = timed3(expand);
    let graph = expand()?.graph;
    let etf_s = timed3(|| mia_mapping::earliest_finish(&graph, cores));
    let mapping = mia_mapping::earliest_finish(&graph, cores).map_err(|e| e.to_string())?;
    let problem =
        Problem::new(graph, mapping, Platform::new(cores, cores)).map_err(|e| e.to_string())?;
    let mppa = mia_arbiter::by_name("mppa").expect("mppa");
    let options = AnalysisOptions::new().task_deadlines(true);
    let (analyze_s, seq) =
        timed(|| mia_core::analyze_with(&problem, mppa.as_ref(), &options, &mut NoopObserver));
    let (parallel_s, par) = timed(|| {
        mia_core::analyze_parallel_with(&problem, mppa.as_ref(), &options, 2, &mut NoopObserver)
    });
    let (seq, par) = (
        seq.map_err(|e| e.to_string())?,
        par.map_err(|e| e.to_string())?,
    );
    if seq.schedule != par.schedule {
        verdict.check::<()>(
            "parallel analysis",
            Err("2 workers changed the schedule".into()),
        );
    }

    // The same analysis again with the program's telemetry on, for the
    // self times of its phase spans.
    mia_obs::set_enabled(true);
    drop(mia_obs::take_spans());
    let profiled = mia_core::analyze_with(&problem, mppa.as_ref(), &options, &mut NoopObserver);
    let spans = mia_obs::take_spans();
    mia_obs::set_enabled(false);
    if profiled.map_err(|e| e.to_string())?.schedule != seq.schedule {
        verdict.check::<()>(
            "profiled analysis",
            Err("telemetry changed the schedule".into()),
        );
    }
    out.extend([
        metric("sdf.expand_s", expand_s, "s"),
        metric("mapping.etf_s", etf_s, "s"),
        metric("core.analyze_s", analyze_s, "s"),
        metric("core.analyze_parallel2_s", parallel_s, "s"),
    ]);
    Ok(self_times(&spans))
}

/// The mapping search on the DSE workload's NL16 file: counters and cost
/// per analysis at the workload's budget, then a profiled search for the
/// time split between full analyses, delta resumes and validation.
fn dse_group(
    ctx: &Ctx,
    out: &mut Vec<Metric>,
    verdict: &mut Verdict,
) -> Result<HashMap<String, u64>, String> {
    let path = ctx.file("nl16.json");
    fs::write(&path, gen::nl16(e2e::NL16_TASKS, ctx.seed).to_json()).map_err(|e| e.to_string())?;
    let text = fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let file: mia_cli::WorkloadFile = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let space = SearchSpace::new(
        file.into_problem().map_err(|e| e.to_string())?,
        BankPolicy::PerCoreBank,
    )
    .with_options(AnalysisOptions::new());
    let rr = mia_arbiter::by_name("rr").expect("rr");
    let config = |budget: u64| DseConfig {
        seed: ctx.seed,
        budget_evals: budget as usize,
        threads: 1,
        ..DseConfig::default()
    };
    let (wall_s, result) =
        timed(|| mia_dse::optimize(&space, rr.as_ref(), &config(e2e::OPTIMIZE_BUDGET)));
    let result = result.map_err(|e| e.to_string())?;
    if result.best_makespan > result.seed_makespan {
        verdict.check::<()>("search result", Err("worse than the seed".into()));
    }
    let stats = result.stats;

    mia_obs::set_enabled(true);
    drop(mia_obs::take_spans());
    let profiled = mia_dse::optimize(&space, rr.as_ref(), &config(PROFILED_BUDGET));
    let spans = mia_obs::take_spans();
    mia_obs::set_enabled(false);
    profiled.map_err(|e| e.to_string())?;
    let registry = mia_obs::global().snapshot();
    let sum_s = |name: &str| registry.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
    out.extend([
        metric("dse.analyses", stats.analyses as f64, "count"),
        metric("dse.delta_resumes", stats.delta_resumes as f64, "count"),
        metric("dse.bound_cutoffs", stats.bound_cutoffs as f64, "count"),
        metric("dse.infeasible", stats.infeasible as f64, "count"),
        metric(
            "dse.ms_per_analysis",
            wall_s * 1e3 / stats.analyses.max(1) as f64,
            "ms",
        ),
        metric("dse.full_analysis_s", sum_s("dse.full_analysis_ns"), "s"),
        metric("dse.delta_resume_s", sum_s("dse.delta_resume_ns"), "s"),
        metric("dse.validate_s", sum_s("dse.validate_ns"), "s"),
    ]);
    Ok(self_times(&spans))
}

/// The serve path: a short closed-loop session against the daemon, split
/// into memo hits and misses, plus the daemon's own queue-wait and
/// execute histograms and one frame round trip of a typical reply.
fn serve_group(ctx: &Ctx, out: &mut Vec<Metric>, verdict: &mut Verdict) -> Result<(), String> {
    let s = e2e::serve_session(ctx, SERVE_REQUESTS, verdict)?;
    let split = |hit: bool| -> Vec<f64> {
        s.latencies_ms
            .iter()
            .zip(&s.cached)
            .filter(|(_, &c)| c == hit)
            .map(|(&l, _)| l)
            .collect()
    };
    let (hits, misses) = (split(true), split(false));
    if crate::stats::beyond(&s.latencies_ms, 0.95) < 10 {
        verdict.check::<()>("serve p95", Err("fewer than ten samples beyond p95".into()));
    }
    if hits.is_empty() || misses.is_empty() {
        return Err("the serve session needs both memo hits and misses".into());
    }
    let registry = s
        .registry
        .as_ref()
        .ok_or("no metrics reply from the daemon")?;
    let p50_ms = |name: &str| {
        registry
            .histogram(name)
            .map_or(0.0, |h| bucket_quantile(h, 0.5) / 1e6)
    };
    let entries = s
        .stats
        .as_ref()
        .map(|stats| stats.cache_entries)
        .ok_or("no stats reply from the daemon")?;

    // A typical reply: a 2,000-task analysis, framed and read back.
    let reply = mia_cli::run(&[
        "analyze".to_owned(),
        crate::e2e::os(ctx.file("serve.json")),
        "--arbiter".to_owned(),
        "mppa".to_owned(),
    ])
    .map_err(|e| e.to_string())?;
    let bytes = mia_serve::Reply::ok(1, mia_serve::ReplyBody::output(reply)).to_bytes();
    let rounds = 200;
    let (frame_s, ok) = timed(|| {
        (0..rounds).all(|_| {
            let mut wire = Vec::with_capacity(bytes.len() + 4);
            mia_serve::write_frame(&mut wire, black_box(&bytes)).is_ok()
                && mia_serve::read_frame(&mut wire.as_slice(), mia_serve::MAX_FRAME_LEN)
                    .is_ok_and(|p| p.as_deref() == Some(&bytes[..]))
        })
    });
    if !ok {
        verdict.check::<()>("frame round trip", Err("a frame did not read back".into()));
    }
    out.extend([
        metric("serve.load_s", s.load_s, "s"),
        metric("serve.hit_p50_ms", median(&hits), "ms"),
        metric("serve.miss_p50_ms", median(&misses), "ms"),
        metric("serve.p95_ms", quantile(&s.latencies_ms, 0.95), "ms"),
        metric(
            "serve.queue_wait_p50_ms",
            p50_ms("serve.queue_wait_ns"),
            "ms",
        ),
        metric(
            "serve.execute_p50_ms",
            p50_ms("serve.request.analyze_ns"),
            "ms",
        ),
        metric("serve.cache_entries", entries as f64, "count"),
        metric(
            "serve.frame_roundtrip_us",
            frame_s * 1e6 / f64::from(rounds),
            "us",
        ),
    ]);
    Ok(())
}

/// Every per-layer metric, in one run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut verdict = Verdict::default();
    let mut out = Vec::new();
    front_end_group(ctx, &mut out, &mut verdict)?;
    let many_core = many_core_group(ctx, &mut out, &mut verdict)?;
    let dse = dse_group(ctx, &mut out, &mut verdict)?;
    let dropped = mia_obs::spans_dropped();
    if dropped > 0 {
        eprintln!("{dropped} spans dropped: the core.* span sums are incomplete, not totals");
    }
    let secs = |spans: &HashMap<String, u64>, name: &str| {
        spans.get(name).copied().unwrap_or(0) as f64 / 1e9
    };
    out.extend([
        metric(
            "core.close_open_self_s",
            secs(&many_core, "analysis.close_open"),
            "s",
        ),
        metric("core.account_s", secs(&many_core, "analysis.account"), "s"),
        metric("core.advance_s", secs(&many_core, "analysis.advance"), "s"),
        metric(
            "core.checkpoint_write_s",
            secs(&dse, "analysis.checkpoint_write"),
            "s",
        ),
        metric("obs.spans_dropped", dropped as f64, "count"),
    ]);
    serve_group(ctx, &mut out, &mut verdict)?;
    arbiter_group(&mut out);
    Ok(Outcome {
        correct: verdict.ok(),
        attempted: out.len() as u64,
        failed: 0,
        metrics: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            tid: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_enclosed_children() {
        let spans = [
            span("close_open", 0, 100),
            span("account", 10, 30),
            span("account", 50, 20),
            span("advance", 100, 5),
            span("close_open", 200, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t["close_open"], 100 - 50 + 10);
        assert_eq!(t["account"], 50);
        assert_eq!(t["advance"], 5);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_a_bucket() {
        // Four observations in bucket 3, i.e. [4, 7].
        let h = HistogramSnapshot {
            buckets: vec![0, 0, 0, 4],
            count: 4,
            sum: 22,
            max: 7,
        };
        assert_eq!(bucket_quantile(&h, 0.5), 5.5);
        assert_eq!(bucket_quantile(&h, 1.0), 7.0);
    }
}
