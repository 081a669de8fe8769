//! Served-vs-CLI conformance: a reply from the daemon must be
//! byte-identical to the output of the one-shot `mia` command for the
//! same workload and flags (modulo wall-clock fields for `optimize`).
//!
//! Drives the real [`mia_cli::CliEngine`] through the daemon for three
//! workload shapes: an SDF3 file (`examples/fixture.sdf3`), the builtin
//! `rosace` preset, and a generated NL16 workload file.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mia_arbiter::RoundRobin;
use mia_cli::CliEngine;
use mia_core::testkit;
use mia_core::AnalysisOptions;
use mia_serve::testkit::{normalize_timings, ServeHandle};
use mia_serve::Engine as _;

/// Integration tests run with the crate root as cwd.
const FIXTURE: &str = "../../examples/fixture.sdf3";

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

/// A generated NL16 workload file, removed on drop.
///
/// Each instance owns a unique path (pid plus a process-wide counter):
/// the tests in this file run as parallel threads of one process, so a
/// shared path would let one test's `Drop` delete — or its `generate`
/// truncate — the file another test is still reading.
/// `tests/invalidation.rs` keeps its scratch files apart the same way.
struct Nl16File {
    path: PathBuf,
}

impl Nl16File {
    fn generate() -> Nl16File {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "mia_serve_conformance_nl16_{}_{}.json",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let path_str = path.to_str().expect("utf8 temp path").to_owned();
        mia_cli::run(&owned(&[
            "generate", "--family", "NL16", "-n", "48", "--seed", "7", "-o", &path_str,
        ]))
        .expect("generate NL16 workload");
        Nl16File { path }
    }

    fn token(&self) -> &str {
        self.path.to_str().expect("utf8 temp path")
    }
}

impl Drop for Nl16File {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn serve_cli() -> ServeHandle {
    ServeHandle::spawn_default(Arc::new(CliEngine))
}

#[test]
fn served_token_analyze_is_byte_identical_to_one_shot_cli() {
    let nl16 = Nl16File::generate();
    let handle = serve_cli();
    let mut client = handle.client();

    for token in [FIXTURE, "rosace", nl16.token()] {
        let one_shot = mia_cli::run(&owned(&["analyze", token])).expect("one-shot analyze");
        let served = client.run("analyze", token, &[]).expect("served analyze");
        assert_eq!(served.output, one_shot, "analyze {token}");
        assert!(!served.cached, "token targets never hit the memo cache");
    }

    // Flags ride along unchanged (same argument tail, same bytes).
    let args = owned(&["--arbiter", "rr", "--gantt"]);
    let one_shot = mia_cli::run(&owned(&["analyze", FIXTURE, "--arbiter", "rr", "--gantt"]))
        .expect("one-shot analyze with flags");
    let served = client
        .run("analyze", FIXTURE, &args)
        .expect("served analyze with flags");
    assert_eq!(served.output, one_shot);
}

/// An option the method does not take is a usage error over the wire,
/// just as it is for the one-shot command, for token and resident
/// targets alike.
#[test]
fn served_requests_with_an_unknown_option_get_an_error_reply() {
    let handle = serve_cli();
    let mut client = handle.client();
    let bad = owned(&["--bogus-flag", "3"]);
    let handle_id = client.load("rosace", &[]).expect("load resident");
    for method in ["analyze", "simulate", "optimize"] {
        let replies = [
            client.run(method, "rosace", &bad),
            client.run_resident(method, handle_id, &bad),
        ];
        for reply in replies {
            match reply {
                Err(mia_serve::ClientError::Server { kind, message }) => {
                    assert_eq!(kind, mia_serve::kind::USAGE, "{method}: {message}");
                    assert!(message.contains("--bogus-flag"), "{method}: {message}");
                }
                other => panic!("{method}: expected an error reply, got {other:?}"),
            }
        }
    }
    // The connection stays usable after the error replies.
    let ok = client
        .run("analyze", "rosace", &[])
        .expect("served analyze");
    assert!(ok.output.contains("makespan:"));
}

#[test]
fn served_token_simulate_is_byte_identical_to_one_shot_cli() {
    let nl16 = Nl16File::generate();
    let handle = serve_cli();
    let mut client = handle.client();

    for token in [FIXTURE, "rosace", nl16.token()] {
        let one_shot = mia_cli::run(&owned(&["simulate", token])).expect("one-shot simulate");
        let served = client.run("simulate", token, &[]).expect("served simulate");
        assert_eq!(served.output, one_shot, "simulate {token}");
    }
}

#[test]
fn resident_analyze_matches_one_shot_cli() {
    // `load` goes through the optimize loader, whose SDF seed-mapping
    // strategy defaults to `cyclic`; one-shot `analyze` defaults to
    // `etf`. Loading with an explicit `--seed-strategy etf` pins the
    // resident problem to the one the one-shot command builds.
    let nl16 = Nl16File::generate();
    let handle = serve_cli();
    let mut client = handle.client();

    for token in [FIXTURE, "rosace", nl16.token()] {
        let handle_id = client
            .load(token, &owned(&["--seed-strategy", "etf"]))
            .expect("load resident");
        let one_shot = mia_cli::run(&owned(&["analyze", token])).expect("one-shot analyze");
        let served = client
            .run_resident("analyze", handle_id, &[])
            .expect("resident analyze");
        assert_eq!(served.output, one_shot, "resident analyze {token}");

        // The same identity again is a memo hit with identical bytes.
        let again = client
            .run_resident("analyze", handle_id, &[])
            .expect("repeat resident analyze");
        assert!(again.cached, "identical resident request hits the cache");
        assert_eq!(again.output, one_shot);
    }

    let stats = handle.shutdown();
    assert_eq!(stats.loads, 3);
    assert_eq!(stats.resident, 3);
    assert!(stats.cache_hits >= 3);
}

#[test]
fn served_optimize_matches_one_shot_cli_modulo_timing() {
    // Fixed seed + one thread makes the search deterministic; only the
    // embedded wall-clock fields differ between the two runs.
    let nl16 = Nl16File::generate();
    let handle = serve_cli();
    let mut client = handle.client();

    let flags = ["--seed", "7", "--budget-evals", "40", "--threads", "1"];
    let mut one_shot_args = vec!["optimize".to_owned(), nl16.token().to_owned()];
    one_shot_args.extend(owned(&flags));
    let one_shot = mia_cli::run(&one_shot_args).expect("one-shot optimize");

    let served = client
        .run("optimize", nl16.token(), &owned(&flags))
        .expect("served optimize");
    assert_eq!(
        normalize_timings(&served.output),
        normalize_timings(&one_shot),
        "token-target optimize"
    );

    // The resident path runs the same search on the held problem.
    let handle_id = client.load(nl16.token(), &[]).expect("load resident");
    let resident = client
        .run_resident("optimize", handle_id, &owned(&flags))
        .expect("resident optimize");
    assert_eq!(
        normalize_timings(&resident.output),
        normalize_timings(&one_shot),
        "resident optimize"
    );
    handle.shutdown();
}

#[test]
fn served_makespan_agrees_with_the_sequential_oracle() {
    // Independent check against the reference engine from
    // `mia_core::testkit`: the makespan the daemon reports is the one
    // the sequential oracle computes on the same problem.
    let nl16 = Nl16File::generate();
    let handle = serve_cli();
    let mut client = handle.client();

    for token in ["rosace", nl16.token()] {
        let loaded = CliEngine
            .load(token, &owned(&["--seed-strategy", "etf"]))
            .expect("load for oracle");
        let options = AnalysisOptions::new().task_deadlines(true);
        let reference =
            testkit::run(&loaded.problem, &RoundRobin::new(), &options).expect("oracle run");

        let served = client.run("analyze", token, &[]).expect("served analyze");
        let makespan_line = served
            .output
            .lines()
            .find(|l| l.starts_with("makespan:"))
            .expect("reply carries a makespan line");
        // `Cycles` renders as e.g. `1234cy`.
        let makespan: u64 = makespan_line
            .split_whitespace()
            .nth(1)
            .expect("makespan value")
            .trim_end_matches("cy")
            .parse()
            .expect("makespan is a number");
        assert_eq!(
            makespan,
            reference.schedule.makespan().0,
            "served makespan vs sequential oracle for {token}"
        );
    }
    handle.shutdown();
}
