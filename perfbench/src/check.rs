//! Output checks, computed apart from the program.
//!
//! Every check returns `Err` with a one-line reason; the benchmark's own
//! tests feed each one a deliberately corrupted output.

use mia_serve::StatsSnapshot;
use serde_json::Value;

/// One schedule row, as `mia analyze` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub core: u32,
    pub release: u64,
    pub wcet: u64,
    pub interference: u64,
    pub finish: u64,
}

/// What the program was asked to schedule.
#[derive(Debug, Clone)]
pub struct Reference {
    pub wcet: Vec<u64>,
    pub min_release: Vec<u64>,
    /// `(src, dst)` dependency pairs.
    pub edges: Vec<(u32, u32)>,
    /// The input's mapping, when the input fixes one.
    pub mapping: Option<Vec<u32>>,
    /// Cores of the platform.
    pub cores: u32,
}

impl Reference {
    /// The reference of a generated workload.
    pub fn of_dag(dag: &crate::gen::Dag) -> Reference {
        Reference {
            wcet: dag.tasks.iter().map(|t| t.wcet).collect(),
            min_release: dag.tasks.iter().map(|t| t.min_release).collect(),
            edges: dag.edges.iter().map(|&(s, d, _)| (s, d)).collect(),
            mapping: Some(dag.mapping.clone()),
            cores: crate::gen::CORES as u32,
        }
    }
}

/// The `makespan:` line of `mia analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub makespan: u64,
    pub total_interference: u64,
}

fn cycles(token: &str) -> Result<u64, String> {
    token
        .strip_suffix("cy")
        .unwrap_or(token)
        .parse()
        .map_err(|_| format!("not a cycle count: `{token}`"))
}

/// Reads the header of an `analyze` output.
pub fn parse_header(stdout: &str) -> Result<Header, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("makespan: "))
        .ok_or("no makespan line")?;
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        ["makespan:", m, "total", "interference:", i] => Ok(Header {
            makespan: cycles(m)?,
            total_interference: cycles(i)?,
        }),
        _ => Err(format!("malformed makespan line `{line}`")),
    }
}

/// Reads the markdown schedule table of an `analyze` output.
pub fn parse_table(stdout: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for line in stdout.lines().filter(|l| l.starts_with("| ")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() != 8 || cells[1] == "task" {
            continue;
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad cell `{s}` in `{line}`"))
        };
        let core = cells[2]
            .strip_prefix("PE")
            .ok_or_else(|| format!("bad core in `{line}`"))?;
        rows.push(Row {
            core: num(core)? as u32,
            release: num(cells[3])?,
            wcet: num(cells[4])?,
            interference: num(cells[5])?,
            finish: num(cells[6])?,
        });
    }
    Ok(rows)
}

/// Reads the `--json` schedule export.
pub fn parse_schedule_json(text: &str) -> Result<Vec<Row>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("schedule JSON: {e}"))?;
    let items = value.as_array().ok_or("schedule JSON is not an array")?;
    let mut rows = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |k: &str| {
            item.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("row {i}: missing `{k}`"))
        };
        if field("task")? != i as u64 {
            return Err(format!("row {i} reports task {}", field("task")?));
        }
        rows.push(Row {
            core: field("core")? as u32,
            release: field("release")?,
            wcet: field("wcet")?,
            interference: field("interference")?,
            finish: field("finish")?,
        });
    }
    Ok(rows)
}

/// Checks a schedule against its input: timing arithmetic, WCETs,
/// release dates, precedence and per-core exclusion.
pub fn check_schedule(reference: &Reference, rows: &[Row]) -> Result<(), String> {
    let n = reference.wcet.len();
    if rows.len() != n {
        return Err(format!("{} rows for {n} tasks", rows.len()));
    }
    for (i, r) in rows.iter().enumerate() {
        if r.finish != r.release + r.wcet + r.interference {
            return Err(format!(
                "task {i}: finish {} != release + wcet + interference",
                r.finish
            ));
        }
        if r.wcet != reference.wcet[i] {
            return Err(format!(
                "task {i}: wcet {} but the input says {}",
                r.wcet, reference.wcet[i]
            ));
        }
        if r.release < reference.min_release[i] {
            return Err(format!(
                "task {i}: released at {} before its min_release",
                r.release
            ));
        }
        if r.core >= reference.cores {
            return Err(format!("task {i}: core {} outside the platform", r.core));
        }
        if let Some(mapping) = &reference.mapping {
            if r.core != mapping[i] {
                return Err(format!(
                    "task {i}: on core {} but mapped to {}",
                    r.core, mapping[i]
                ));
            }
        }
    }
    for &(s, d) in &reference.edges {
        let (src, dst) = (&rows[s as usize], &rows[d as usize]);
        if dst.release < src.finish {
            return Err(format!(
                "task {d} released at {} before predecessor {s} finished at {}",
                dst.release, src.finish
            ));
        }
    }
    let mut by_core: Vec<(u32, u64, u64, usize)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (r.core, r.release, r.finish, i))
        .collect();
    by_core.sort_unstable();
    for pair in by_core.windows(2) {
        let ((core_a, _, finish_a, a), (core_b, release_b, _, b)) = (pair[0], pair[1]);
        if core_a == core_b && release_b < finish_a {
            return Err(format!("tasks {a} and {b} overlap on core {core_a}"));
        }
    }
    Ok(())
}

/// The full check of one `mia analyze … --json` operation: the schedule
/// export against the input, the printed table against the export, and
/// the header against both. Returns the checked header.
pub fn check_analyze(reference: &Reference, stdout: &str, json: &str) -> Result<Header, String> {
    let rows = parse_schedule_json(json)?;
    check_schedule(reference, &rows)?;
    if parse_table(stdout)? != rows {
        return Err("printed table differs from the JSON schedule".into());
    }
    let header = parse_header(stdout)?;
    let makespan = rows.iter().map(|r| r.finish).max().unwrap_or(0);
    if header.makespan != makespan {
        return Err(format!(
            "makespan {} but the largest finish is {makespan}",
            header.makespan
        ));
    }
    let total: u64 = rows.iter().map(|r| r.interference).sum();
    if header.total_interference != total {
        return Err(format!(
            "total interference {} but the rows sum to {total}",
            header.total_interference
        ));
    }
    Ok(header)
}

/// The incremental schedule must equal the baseline's task for task.
pub fn check_same_schedule(incremental: &str, baseline: &str) -> Result<(), String> {
    let (a, b) = (parse_table(incremental)?, parse_table(baseline)?);
    if a.is_empty() || a.len() != b.len() {
        return Err(format!(
            "{} incremental rows against {} baseline rows",
            a.len(),
            b.len()
        ));
    }
    match a.iter().zip(&b).position(|(x, y)| x != y) {
        Some(i) => Err(format!(
            "task {i}: incremental {:?} != baseline {:?}",
            a[i], b[i]
        )),
        None if parse_header(incremental)? != parse_header(baseline)? => {
            Err("incremental and baseline headers differ".into())
        }
        None => Ok(()),
    }
}

/// `mia simulate` must report that no task exceeded its analysed bound.
pub fn check_simulation(stdout: &str) -> Result<(), String> {
    if stdout.lines().any(|l| l.starts_with("soundness: OK")) {
        Ok(())
    } else {
        Err("simulation did not report soundness: OK".into())
    }
}

/// The numbers an `optimize` check needs from its JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOutcome {
    pub seed_makespan: u64,
    pub optimized_makespan: u64,
    pub evaluations: u64,
}

/// Reads the single run of a scalar `mia optimize` report.
pub fn parse_optimize(stdout: &str) -> Result<OptimizeOutcome, String> {
    let start = stdout.find("\n{").ok_or("no JSON report")? + 1;
    let report: Value =
        serde_json::from_str(stdout[start..].trim_end()).map_err(|e| format!("report: {e}"))?;
    let runs = report
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no runs")?;
    let [run] = runs.as_slice() else {
        return Err(format!("{} runs, expected one", runs.len()));
    };
    let field = |k: &str| {
        run.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("run lacks `{k}`"))
    };
    Ok(OptimizeOutcome {
        seed_makespan: field("seed_makespan")?,
        optimized_makespan: field("optimized_makespan")?,
        evaluations: field("evaluations")?,
    })
}

/// The search never returns worse than its seed, starts from the
/// one-shot analysis of the same file, and spends exactly its budget
/// (plus the seed evaluation).
pub fn check_optimize(
    out: &OptimizeOutcome,
    one_shot_makespan: u64,
    budget: u64,
) -> Result<(), String> {
    if out.optimized_makespan > out.seed_makespan {
        return Err(format!(
            "optimized {} is worse than the seed {}",
            out.optimized_makespan, out.seed_makespan
        ));
    }
    if out.seed_makespan != one_shot_makespan {
        return Err(format!(
            "seed makespan {} but one-shot analyze gives {one_shot_makespan}",
            out.seed_makespan
        ));
    }
    if out.evaluations != budget + 1 {
        return Err(format!(
            "{} evaluations for a budget of {budget}",
            out.evaluations
        ));
    }
    Ok(())
}

/// A served reply must be byte-identical to the one-shot CLI's stdout,
/// which is the rendered output plus the newline `println!` adds.
pub fn check_served_equals_cli(served: &str, cli_stdout: &str) -> Result<(), String> {
    if cli_stdout.len() == served.len() + 1
        && cli_stdout.starts_with(served)
        && cli_stdout.ends_with('\n')
    {
        return Ok(());
    }
    let at = served
        .bytes()
        .zip(cli_stdout.bytes())
        .position(|(a, b)| a != b);
    Err(format!(
        "served reply differs from the one-shot output (first difference at byte {at:?})"
    ))
}

/// What the daemon counted, against what the client saw.
pub fn check_serve_stats(stats: &StatsSnapshot, sent: u64, hits: u64) -> Result<(), String> {
    if stats.cache_hits != hits {
        return Err(format!(
            "daemon counted {} cache hits, client saw {hits}",
            stats.cache_hits
        ));
    }
    if stats.replies_ok != sent {
        return Err(format!(
            "daemon wrote {} ok replies for {sent} requests",
            stats.replies_ok
        ));
    }
    if stats.replies_err != 0 {
        return Err(format!("daemon wrote {} error replies", stats.replies_err));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// A correct analysis of a small generated workload, produced by the
    /// workspace's own analysis and renderers (the program under test).
    fn analysed(dag: &gen::Dag) -> (String, String) {
        let file: mia_cli::WorkloadFile = serde_json::from_str(&dag.to_json()).unwrap();
        let problem = file.into_problem().unwrap();
        let arbiter = mia_arbiter::by_name("rr").unwrap();
        let schedule = mia_core::analyze(&problem, arbiter.as_ref()).unwrap();
        let stdout = format!(
            "algorithm: incremental   arbiter: round-robin   tasks: {}\nmakespan: {}   total interference: {}\n\n{}",
            problem.len(),
            schedule.makespan(),
            schedule.total_interference(),
            mia_trace::schedule_table(&problem, &schedule)
        );
        (stdout, mia_trace::schedule_json(&problem, &schedule))
    }

    fn fixture() -> (Reference, String, String) {
        let dag = gen::ls16(96, 11);
        let (stdout, json) = analysed(&dag);
        (Reference::of_dag(&dag), stdout, json)
    }

    /// Rewrites one numeric field of task `task` in the JSON export.
    fn edit_json(json: &str, task: usize, key: &str, f: impl Fn(u64) -> u64) -> String {
        let mut rows = parse_schedule_json(json).unwrap();
        let r = &mut rows[task];
        match key {
            "release" => r.release = f(r.release),
            "finish" => r.finish = f(r.finish),
            "wcet" => r.wcet = f(r.wcet),
            "core" => r.core = f(u64::from(r.core)) as u32,
            _ => unreachable!(),
        }
        let items: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                format!(
                    "{{\"task\": {i}, \"core\": {}, \"release\": {}, \"wcet\": {}, \"interference\": {}, \"finish\": {}}}",
                    r.core, r.release, r.wcet, r.interference, r.finish
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    #[test]
    fn a_correct_analysis_passes() {
        let (reference, stdout, json) = fixture();
        let header = check_analyze(&reference, &stdout, &json).unwrap();
        assert!(header.makespan > 0);
    }

    #[test]
    fn a_release_moved_earlier_is_rejected() {
        let (reference, _, json) = fixture();
        // Keep finish = release + wcet + interference, so only the
        // precedence check can catch it.
        let task = 40;
        let moved = edit_json(&json, task, "release", |r| r - 1);
        let moved = edit_json(&moved, task, "finish", |f| f - 1);
        let err = check_schedule(&reference, &parse_schedule_json(&moved).unwrap()).unwrap_err();
        assert!(
            err.contains("before predecessor") || err.contains("overlap"),
            "{err}"
        );
    }

    #[test]
    fn a_release_before_min_release_is_rejected() {
        let (mut reference, _, json) = fixture();
        let rows = parse_schedule_json(&json).unwrap();
        reference.min_release[0] = rows[0].release + 1;
        let err = check_schedule(&reference, &rows).unwrap_err();
        assert!(err.contains("min_release"), "{err}");
    }

    #[test]
    fn broken_timing_arithmetic_and_wcet_are_rejected() {
        let (reference, _, json) = fixture();
        let bad = edit_json(&json, 5, "finish", |f| f + 1);
        let err = check_schedule(&reference, &parse_schedule_json(&bad).unwrap()).unwrap_err();
        assert!(err.contains("finish"), "{err}");
        let bad = edit_json(&json, 5, "wcet", |w| w + 1);
        let bad = edit_json(&bad, 5, "finish", |f| f + 1);
        let err = check_schedule(&reference, &parse_schedule_json(&bad).unwrap()).unwrap_err();
        assert!(err.contains("wcet"), "{err}");
    }

    #[test]
    fn a_swapped_core_is_rejected() {
        let (mut reference, _, json) = fixture();
        let rows = parse_schedule_json(&json).unwrap();
        // Two tasks of the first layer trade cores.
        let swapped = edit_json(&json, 0, "core", |_| u64::from(rows[1].core));
        let swapped = edit_json(&swapped, 1, "core", |_| u64::from(rows[0].core));
        let swapped = parse_schedule_json(&swapped).unwrap();
        let err = check_schedule(&reference, &swapped).unwrap_err();
        assert!(err.contains("mapped to"), "{err}");
        // Without a fixed mapping (SDF inputs), the exclusion check
        // still catches two tasks sharing a core at once.
        reference.mapping = None;
        let err = check_schedule(&reference, &swapped).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn a_wrong_header_is_rejected() {
        let (reference, stdout, json) = fixture();
        let header = parse_header(&stdout).unwrap();
        let bad = stdout.replacen(
            &format!("makespan: {}cy", header.makespan),
            &format!("makespan: {}cy", header.makespan + 1),
            1,
        );
        let err = check_analyze(&reference, &bad, &json).unwrap_err();
        assert!(err.contains("largest finish"), "{err}");
        let bad = stdout.replacen(
            &format!("interference: {}cy", header.total_interference),
            &format!("interference: {}cy", header.total_interference - 1),
            1,
        );
        let err = check_analyze(&reference, &bad, &json).unwrap_err();
        assert!(err.contains("rows sum"), "{err}");
    }

    #[test]
    fn a_table_that_disagrees_with_the_export_is_rejected() {
        let (reference, stdout, json) = fixture();
        let row = stdout.lines().find(|l| l.starts_with("| L3T2 ")).unwrap();
        let bad = stdout.replacen(row, &row.replacen("| PE2 |", "| PE3 |", 1), 1);
        let err = check_analyze(&reference, &bad, &json).unwrap_err();
        assert!(err.contains("table differs"), "{err}");
    }

    #[test]
    fn schedules_must_match_task_for_task() {
        let (_, stdout, _) = fixture();
        check_same_schedule(&stdout, &stdout).unwrap();
        let row = stdout.lines().find(|l| l.starts_with("| L2T0 ")).unwrap();
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let late = format!(
            "| L2T0 | {} | {} | {} | {} | {} |",
            cells[2],
            cells[3],
            cells[4],
            cells[5].parse::<u64>().unwrap() + 1,
            cells[6].parse::<u64>().unwrap() + 1
        );
        let err = check_same_schedule(&stdout, &stdout.replacen(row, &late, 1)).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn simulation_must_report_soundness() {
        check_simulation("x\nsoundness: OK — no task exceeded its analysed response time\n")
            .unwrap();
        check_simulation("soundness: VIOLATED\n").unwrap_err();
    }

    #[test]
    fn optimize_outcomes_are_checked() {
        let stdout = "w / rr: makespan 10 -> 9\n\n{\n  \"runs\": [\n    {\"seed_makespan\": 10, \"optimized_makespan\": 9, \"evaluations\": 101}\n  ]\n}\n";
        let out = parse_optimize(stdout).unwrap();
        check_optimize(&out, 10, 100).unwrap();
        check_optimize(&out, 11, 100).unwrap_err();
        check_optimize(&out, 10, 200).unwrap_err();
        let worse = OptimizeOutcome {
            optimized_makespan: 11,
            ..out
        };
        check_optimize(&worse, 10, 100).unwrap_err();
    }

    #[test]
    fn a_changed_byte_in_a_reply_is_rejected() {
        let served = "makespan: 10cy\n| a | PE0 | 0 | 5 | 0 | 5 |";
        check_served_equals_cli(served, &format!("{served}\n")).unwrap();
        let cli = format!("{}\n", served.replacen("PE0", "PE1", 1));
        check_served_equals_cli(served, &cli).unwrap_err();
        check_served_equals_cli(served, served).unwrap_err();
    }

    #[test]
    fn daemon_counters_must_match_the_client() {
        let stats = StatsSnapshot {
            cache_hits: 3,
            replies_ok: 10,
            ..StatsSnapshot::default()
        };
        check_serve_stats(&stats, 10, 3).unwrap();
        check_serve_stats(&stats, 10, 4).unwrap_err();
        check_serve_stats(&stats, 11, 3).unwrap_err();
        let errors = StatsSnapshot {
            replies_err: 1,
            ..stats
        };
        check_serve_stats(&errors, 10, 3).unwrap_err();
    }
}
