//! Child processes timed from outside: wall time and peak RSS.
//!
//! Peak RSS comes from `wait4`'s resource usage of the reaped child, the
//! same number `/usr/bin/time` reports; the standard library does not
//! expose it, so the call is declared here.

use std::fs::File;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` and reports its exit and peak RSS. Reaps it with
/// `wait4`, so `child.wait()` must not be called afterwards.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes and outlive
        // the call; `pid` is our own unreaped child.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// One timed run of a command to completion.
#[derive(Debug, Clone)]
pub struct Run {
    pub wall: Duration,
    pub exit: Exit,
    pub stdout: String,
}

/// Runs `cmd` with stdout captured to `stdout_path` and stderr to
/// `stdout_path` + `.err`; times it from spawn to reap.
pub fn run(cmd: &mut Command, stdout_path: &Path) -> Result<Run, String> {
    let out = File::create(stdout_path).map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let err_path = stdout_path.with_extension("err");
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let started = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let exit = reap(&child).map_err(|e| format!("wait for {cmd:?}: {e}"))?;
    let wall = started.elapsed();
    let stdout = std::fs::read_to_string(stdout_path).map_err(|e| e.to_string())?;
    if exit.code != Some(0) {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        return Err(format!(
            "{cmd:?} exited with {:?}: {}",
            exit.code,
            stderr.trim()
        ));
    }
    Ok(Run { wall, exit, stdout })
}
