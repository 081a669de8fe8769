//! `mia` must stop quietly when the reader of its output goes away, as
//! in `mia analyze w.json --gantt | head -1`.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_not_a_panic() {
    // Close the read end before the child starts, so its write meets a
    // pipe with no reader whatever the timing.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_mia"))
        .args(["analyze", "rosace", "--gantt"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("mia runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
}
