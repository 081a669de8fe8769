//! The `mia serve` and `mia client` subcommands, and the production
//! [`Engine`] the daemon runs.
//!
//! [`CliEngine`] routes every served method through the *same* code
//! paths as the one-shot subcommands — `analyze` against a workload
//! token literally calls the `analyze` command implementation — so a
//! served reply is byte-identical to `mia analyze …` output for the
//! same workload and flags. The conformance suite in `mia-serve` pins
//! that property.
//!
//! ```text
//! mia serve --addr 127.0.0.1:4117 --workers 4 --max-pending 32
//! mia client analyze rosace --addr 127.0.0.1:4117 --iterations 2
//! mia client load rosace --addr 127.0.0.1:4117      # -> handle: 1
//! mia client analyze --handle 1 --addr 127.0.0.1:4117
//! mia client shutdown --addr 127.0.0.1:4117
//! ```

use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use mia_serve::{
    kind, Client, ClientError, Engine, EngineError, Loaded, Request, ServeConfig, Server, Target,
    MAX_FRAME_LEN,
};

use crate::commands::{opt, render_analysis, render_simulation, CliError};
use crate::optimize::{load_optimize_problem, optimize_loaded};

/// Flags that make a subcommand write files *on the server*; rejected
/// over the wire so a remote client cannot scribble on the daemon's
/// filesystem and so replies always carry the full output.
const FILE_FLAGS: &[&str] = &["--json", "--chrome", "--profile", "-o", "--out", "--c"];

/// The production engine: the full CLI surface behind the daemon.
pub struct CliEngine;

fn engine_error(e: CliError) -> EngineError {
    let kind = match &e {
        CliError::Usage(_) => kind::USAGE,
        CliError::Io(_) => kind::IO,
        CliError::Parse(_) => kind::PARSE_WORKLOAD,
        CliError::Analysis(_) => kind::ANALYSIS,
    };
    EngineError {
        kind,
        message: e.to_string(),
    }
}

impl Engine for CliEngine {
    fn load(&self, token: &str, args: &[String]) -> Result<Loaded, EngineError> {
        // The optimize loader is the most general one: JSON workload
        // files (their mapping and bank policy are kept), SDF inputs and
        // generator family tokens.
        let (problem, policy, label) = load_optimize_problem(token, args).map_err(engine_error)?;
        Ok(Loaded {
            problem,
            policy,
            label,
        })
    }

    fn run(
        &self,
        method: &str,
        target: Target<'_>,
        args: &[String],
        _budget: Option<Duration>,
    ) -> Result<String, EngineError> {
        if let Some(flag) = FILE_FLAGS.iter().find(|f| args.iter().any(|a| a == *f)) {
            return Err(EngineError::usage(format!(
                "{flag} writes a file on the server and is not available over the wire"
            )));
        }
        let result = match (method, target) {
            ("analyze", Target::Token(token)) => {
                crate::commands::run(&with_token("analyze", token, args))
            }
            ("analyze", Target::Resident(loaded)) => render_analysis(&loaded.problem, args),
            ("simulate", Target::Token(token)) => {
                crate::commands::run(&with_token("simulate", token, args))
            }
            ("simulate", Target::Resident(loaded)) => render_simulation(&loaded.problem, args),
            ("optimize", Target::Token(token)) => {
                crate::commands::run(&with_token("optimize", token, args))
            }
            ("optimize", Target::Resident(loaded)) => {
                optimize_loaded(loaded.problem.clone(), loaded.policy, &loaded.label, args)
            }
            ("sweep", Target::None) => crate::sweep::sweep_cmd(args),
            ("sweep", _) => Err(CliError::Usage(
                "sweep builds its own workloads; pass no workload or handle".into(),
            )),
            (_, Target::None) => Err(CliError::Usage(format!(
                "{method} needs a workload token or a resident handle"
            ))),
            _ => Err(CliError::Usage(format!("unknown method `{method}`"))),
        };
        result.map_err(engine_error)
    }

    fn methods(&self) -> &'static [&'static str] {
        &["analyze", "simulate", "optimize", "sweep"]
    }
}

/// Rebuilds the one-shot argv `<command> <token> <args…>` so
/// token-target requests run the exact one-shot code path.
fn with_token(command: &str, token: &str, args: &[String]) -> Vec<String> {
    let mut argv = Vec::with_capacity(args.len() + 2);
    argv.push(command.to_owned());
    argv.push(token.to_owned());
    argv.extend_from_slice(args);
    argv
}

fn parse_usize(args: &[String], flag: &str, default: usize) -> Result<usize, CliError> {
    opt(args, flag)
        .map_or(Ok(default), str::parse)
        .map_err(|_| CliError::Usage(format!("{flag} must be a number")))
}

/// Runs `mia serve`: binds, prints the listening line immediately (so
/// scripts can wait on it), then blocks until a client sends
/// `shutdown`.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed flags, [`CliError::Io`] when the
/// address cannot be bound or the `--port-file` cannot be written.
pub fn serve_cmd(args: &[String]) -> Result<String, CliError> {
    let config = ServeConfig {
        addr: opt(args, "--addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: parse_usize(args, "--workers", 0)?,
        max_pending: parse_usize(args, "--max-pending", 64)?,
        request_budget: match opt(args, "--request-budget-ms") {
            None => None,
            Some(ms) => Some(Duration::from_millis(ms.parse().map_err(|_| {
                CliError::Usage("--request-budget-ms must be a number".into())
            })?)),
        },
        max_frame_len: MAX_FRAME_LEN,
    };
    let server = Server::start(Arc::new(CliEngine), &config)?;
    let bound = server.local_addr();
    if let Some(path) = opt(args, "--port-file") {
        fs::write(path, bound.to_string())?;
    }
    // The banner is informational: a closed stdout must not stop the
    // daemon, so write errors are ignored.
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "mia serve listening on {bound} (workers {}, max-pending {}, budget {})",
        config.resolved_workers(),
        config.max_pending,
        config
            .request_budget
            .map_or("none".to_owned(), |b| format!("{} ms", b.as_millis())),
    )
    .and_then(|()| stdout.flush());
    let stats = server.wait();
    Ok(format!(
        "mia serve stopped: {} connections, {} requests ({} ok, {} errors), \
         cache {} hits / {} misses, {} loads",
        stats.connections,
        stats.requests,
        stats.replies_ok,
        stats.replies_err,
        stats.cache_hits,
        stats.cache_misses,
        stats.loads,
    ))
}

fn client_error(e: ClientError) -> CliError {
    match e {
        ClientError::Server { kind, message } => {
            if kind == "usage" {
                CliError::Usage(message)
            } else {
                CliError::Analysis(format!("server replied {kind}: {message}"))
            }
        }
        other => CliError::Analysis(other.to_string()),
    }
}

/// Runs `mia client`: one request against a running daemon.
///
/// The first positional is the method, the second (before any flag) the
/// workload token; `--addr` and `--handle` address the daemon and a
/// resident problem, every other flag is forwarded verbatim.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, [`CliError::Analysis`]
/// for transport failures and structured server errors.
pub fn client_cmd(args: &[String]) -> Result<String, CliError> {
    let Some((method, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "client needs a method (load, analyze, simulate, optimize, sweep, ping, stats, \
             metrics, shutdown)"
                .into(),
        ));
    };
    if method.starts_with('-') {
        return Err(CliError::Usage(format!(
            "client needs a method before flags, got `{method}`"
        )));
    }

    let mut addr = "127.0.0.1:4117".to_owned();
    let mut handle = None;
    let mut workload = None;
    let mut forwarded = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--addr needs a value".into()))?
                    .clone();
            }
            "--handle" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--handle needs a value".into()))?;
                handle = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage("--handle must be a number".into()))?,
                );
            }
            token if !token.starts_with('-') && workload.is_none() && forwarded.is_empty() => {
                workload = Some(token.to_owned());
            }
            other => forwarded.push(other.to_owned()),
        }
    }

    let mut request = Request::new(0, method).args(&forwarded);
    if let Some(token) = &workload {
        request = request.workload(token);
    }
    if let Some(handle) = handle {
        request = request.handle(handle);
    }

    let mut client = Client::connect(&addr)
        .map_err(|e| CliError::Analysis(format!("cannot reach mia serve at {addr}: {e}")))?;
    let body = client.request(request).map_err(client_error)?;
    let mut out = body.output;
    if method == "load" {
        if let Some(handle) = body.handle {
            out.push_str(&format!("\nhandle: {handle}"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn file_writing_flags_are_rejected_over_the_wire() {
        let engine = CliEngine;
        for flag in FILE_FLAGS {
            let err = engine
                .run(
                    "analyze",
                    Target::Token("rosace"),
                    &args(&[flag, "/tmp/x"]),
                    None,
                )
                .unwrap_err();
            assert_eq!(err.kind, kind::USAGE, "{flag}: {err}");
        }
    }

    #[test]
    fn token_requests_share_the_one_shot_code_path() {
        let engine = CliEngine;
        let served = engine
            .run("analyze", Target::Token("rosace"), &[], None)
            .unwrap();
        let one_shot = crate::commands::run(&args(&["analyze", "rosace"])).unwrap();
        assert_eq!(served, one_shot);
    }

    #[test]
    fn resident_analysis_matches_the_loaded_problem() {
        let engine = CliEngine;
        let loaded = engine
            .load("rosace", &args(&["--seed-strategy", "etf"]))
            .unwrap();
        let served = engine
            .run("analyze", Target::Resident(&loaded), &[], None)
            .unwrap();
        // The resident problem was seeded with the analysis commands'
        // default strategy, so the one-shot output matches exactly.
        let one_shot = crate::commands::run(&args(&["analyze", "rosace"])).unwrap();
        assert_eq!(served, one_shot);
    }

    #[test]
    fn client_flag_parsing_catches_bad_invocations() {
        for bad in [
            vec!["client"],
            vec!["client", "--addr", "x"],
            vec!["client", "analyze", "--handle", "zero?"],
            vec!["client", "analyze", "--addr"],
        ] {
            let err = crate::commands::run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn serve_rejects_malformed_flags() {
        for bad in [
            vec!["serve", "--workers", "many"],
            vec!["serve", "--max-pending", "-2"],
            vec!["serve", "--request-budget-ms", "soon"],
        ] {
            let err = crate::commands::run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
    }
}
