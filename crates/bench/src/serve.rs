//! Load generator for the `mia serve` daemon (the `serve` binary).
//!
//! Spawns an in-process daemon running the engine `mia serve` runs
//! ([`CliEngine`]) through the `mia-serve` testkit, then drives it with
//! N concurrent clients × M requests each and reports latency
//! percentiles and throughput per client count — committed as
//! `BENCH_serve.json` so the daemon's concurrency behaviour is tracked
//! like every other benchmark artefact.
//!
//! Two modes per client count:
//!
//! * `uncached` — every request targets the workload *token*, so the
//!   daemon parses, expands and analyses per request (token targets
//!   bypass the memo cache by design). This measures end-to-end
//!   analysis service latency under contention.
//! * `cached` — every request targets one resident handle with
//!   identical args, so after the first completion replies come from
//!   the shared memo cache. This isolates transport + queueing
//!   overhead.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mia_cli::CliEngine;
use mia_serve::{ServeConfig, ServeHandle};
use serde::Serialize;

/// What the `serve` binary measures.
#[derive(Debug, Clone)]
pub struct ServeBenchSpec {
    /// Concurrent client counts to sweep (≥3 for the committed report).
    pub clients: Vec<usize>,
    /// Requests each client issues per mode.
    pub requests_per_client: usize,
    /// Daemon worker threads (0 = available parallelism).
    pub workers: usize,
    /// Admission queue bound.
    pub max_pending: usize,
    /// Workload token every request targets: anything `mia analyze`
    /// takes (`rosace`, an SDF file or a JSON workload file).
    pub workload: String,
}

impl Default for ServeBenchSpec {
    fn default() -> Self {
        ServeBenchSpec {
            clients: vec![1, 4, 8],
            requests_per_client: 20,
            workers: 0,
            max_pending: 1024,
            workload: "rosace".to_owned(),
        }
    }
}

/// Parses the `serve` binary's flags into a spec plus output path.
///
/// # Errors
///
/// A usage message for unknown flags or malformed values.
pub fn parse_serve_spec(args: &[String]) -> Result<(ServeBenchSpec, Option<String>), String> {
    let mut spec = ServeBenchSpec::default();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--clients" => {
                spec.clients = value("--clients")?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad client count `{s}`")))
                    .collect::<Result<_, _>>()?;
                if spec.clients.is_empty() || spec.clients.contains(&0) {
                    return Err("--clients needs positive counts".into());
                }
            }
            "--requests" => {
                spec.requests_per_client = value("--requests")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--requests must be a positive number")?;
            }
            "--workers" => {
                spec.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a number")?;
            }
            "--max-pending" => {
                spec.max_pending = value("--max-pending")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--max-pending must be a positive number")?;
            }
            "--workload" => spec.workload = value("--workload")?,
            "-o" | "--out" => out = Some(value("-o")?),
            other => {
                return Err(format!(
                    "unknown flag `{other}` (--clients, --requests, --workers, --max-pending, --workload, -o)"
                ))
            }
        }
    }
    Ok((spec, out))
}

/// One measured (client count, mode) grid point.
#[derive(Debug, Clone, Serialize)]
pub struct ServePoint {
    /// Concurrent clients.
    pub clients: usize,
    /// `uncached` (token targets) or `cached` (one resident handle).
    pub mode: String,
    /// Requests that completed with an `ok` reply.
    pub requests: usize,
    /// Requests that failed (any client error).
    pub errors: usize,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per wall-clock second across all clients.
    pub throughput_rps: f64,
    /// Daemon memo-cache hits after the point (monotonic per daemon).
    pub cache_hits: u64,
    /// Log2-bucket histogram of per-request latency in *nanoseconds*.
    /// Its `count` equals `requests`; any quantile is derivable from the
    /// buckets, where the nearest-rank fields above pin exact samples.
    pub latency_hist: mia_obs::HistogramSnapshot,
}

/// The committed `BENCH_serve.json` schema.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// Workload token each request targeted.
    pub workload: String,
    /// Requests per client per mode.
    pub requests_per_client: usize,
    /// Daemon worker threads (0 = available parallelism).
    pub workers: usize,
    /// Total wall-clock of the whole sweep, seconds.
    pub wall_seconds: f64,
    /// One entry per (client count, mode).
    pub points: Vec<ServePoint>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted_ms.len() - 1) as f64;
    // Nearest-rank on the sorted sample; robust for small M.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let idx = rank.round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Measures one (client count, mode) point against a fresh daemon.
fn measure_point(
    spec: &ServeBenchSpec,
    clients: usize,
    cached: bool,
    progress: &dyn Fn(&ServePoint),
) -> ServePoint {
    let handle = ServeHandle::spawn(
        Arc::new(CliEngine),
        ServeConfig {
            workers: spec.workers,
            max_pending: spec.max_pending,
            ..ServeConfig::default()
        },
    );
    // Cached mode: one resident problem every client hammers with
    // identical args, so all but the first analysis are memo hits.
    let resident = cached.then(|| {
        handle
            .client()
            .load(&spec.workload, &[])
            .expect("bench workload loads")
    });

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let errors: Mutex<usize> = Mutex::new(0);
    // Every success lands in the histogram too (atomic, shared across
    // the client threads), so `latency_hist.count == requests` by
    // construction.
    let hist = mia_obs::Histogram::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = handle.client();
                let mut mine = Vec::with_capacity(spec.requests_per_client);
                let mut failed = 0usize;
                for _ in 0..spec.requests_per_client {
                    let t0 = Instant::now();
                    let reply = match resident {
                        Some(h) => client.run_resident("analyze", h, &[]),
                        None => client.run("analyze", &spec.workload, &[]),
                    };
                    match reply {
                        Ok(_) => {
                            let elapsed = t0.elapsed();
                            hist.observe_duration(elapsed);
                            mine.push(elapsed.as_secs_f64() * 1e3);
                        }
                        Err(_) => failed += 1,
                    }
                }
                latencies.lock().expect("latency lock").extend(mine);
                *errors.lock().expect("error lock") += failed;
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = handle.shutdown();

    let mut sorted = latencies.into_inner().expect("latency lock");
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let point = ServePoint {
        clients,
        mode: if cached { "cached" } else { "uncached" }.to_owned(),
        requests: sorted.len(),
        errors: errors.into_inner().expect("error lock"),
        p50_ms: percentile(&sorted, 50.0),
        p90_ms: percentile(&sorted, 90.0),
        p95_ms: percentile(&sorted, 95.0),
        p99_ms: percentile(&sorted, 99.0),
        max_ms: sorted.last().copied().unwrap_or(0.0),
        throughput_rps: if elapsed > 0.0 {
            sorted.len() as f64 / elapsed
        } else {
            0.0
        },
        cache_hits: stats.cache_hits,
        latency_hist: hist.snapshot().trimmed(),
    };
    progress(&point);
    point
}

/// Runs the full sweep: every client count × {uncached, cached}.
pub fn run_serve_bench(spec: &ServeBenchSpec, progress: &dyn Fn(&ServePoint)) -> ServeBenchReport {
    let started = Instant::now();
    let mut points = Vec::with_capacity(spec.clients.len() * 2);
    for &clients in &spec.clients {
        points.push(measure_point(spec, clients, false, progress));
        points.push(measure_point(spec, clients, true, progress));
    }
    ServeBenchReport {
        workload: spec.workload.clone(),
        requests_per_client: spec.requests_per_client,
        workers: spec.workers,
        wall_seconds: started.elapsed().as_secs_f64(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips() {
        let args: Vec<String> = ["--clients", "1,2", "--requests", "3", "--workload", "LS4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (spec, out) = parse_serve_spec(&args).unwrap();
        assert_eq!(spec.clients, vec![1, 2]);
        assert_eq!(spec.requests_per_client, 3);
        assert_eq!(spec.workload, "LS4");
        assert!(out.is_none());
        assert!(parse_serve_spec(&["--clients".to_owned(), "0".to_owned()]).is_err());
        assert!(parse_serve_spec(&["--bogus".to_owned()]).is_err());
    }

    #[test]
    fn percentiles_are_sane() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&sorted, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile(&sorted, 99.0) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tiny_bench_produces_a_full_report() {
        let spec = ServeBenchSpec {
            clients: vec![1, 2],
            requests_per_client: 2,
            workers: 2,
            max_pending: 64,
            workload: "rosace".to_owned(),
        };
        let report = run_serve_bench(&spec, &|_| {});
        assert_eq!(report.points.len(), 4);
        for p in &report.points {
            assert_eq!(p.errors, 0, "{p:?}");
            assert_eq!(p.requests, p.clients * 2, "{p:?}");
            assert!(p.p50_ms <= p.p90_ms && p.p90_ms <= p.p95_ms, "{p:?}");
            assert!(p.p95_ms <= p.p99_ms && p.p99_ms <= p.max_ms, "{p:?}");
            assert!(p.throughput_rps > 0.0, "{p:?}");
            // The histogram saw exactly the successful requests — same
            // `elapsed` per request as the sample list, so the exact max
            // agrees too (modulo f64 formatting of the ms figure).
            assert_eq!(p.latency_hist.count as usize, p.requests, "{p:?}");
            #[allow(clippy::cast_precision_loss)]
            let hist_max_ms = p.latency_hist.max as f64 / 1e6;
            assert!((hist_max_ms - p.max_ms).abs() < 1e-3, "{p:?}");
        }
        // The cached points actually hit the memo cache.
        let cached_hits: u64 = report
            .points
            .iter()
            .filter(|p| p.mode == "cached")
            .map(|p| p.cache_hits)
            .sum();
        assert!(cached_hits > 0, "{report:?}");
    }
}
