//! End-to-end runs of the `bfl` binary: a reader that closes the pipe
//! early and counts past the 128-bit range end in a quiet exit or a
//! one-line error, never in a panic.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bfl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfl"))
}

/// Path of a model shipped under `examples/models`.
fn shipped_model(name: &str) -> String {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("../../examples/models");
    path.push(name);
    path.to_string_lossy().into_owned()
}

/// Asserts a clean failure: exit status 1 and a single `error:` line
/// containing `needle` on stderr.
fn assert_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
}

#[test]
fn closed_stdout_pipe_exits_quietly() {
    // About 1.5 MB of cut sets: far more than a pipe buffers, so the
    // write after the reader hangs up fails with a broken pipe.
    let mut child = bfl()
        .args(["mcs", "--ft", &shipped_model("industrial-400.dft")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "30922 minimal cut sets of top\n");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn count_past_u128_is_an_error() {
    // `top` of the 400-event tree has about 2^400 satisfying vectors.
    let out = bfl()
        .args(["count", "--ft", &shipped_model("industrial-400.dft"), "top"])
        .output()
        .unwrap();
    assert_error(&out, "too many satisfying vectors");
}

#[test]
fn cause_count_past_u128_is_an_error() {
    // VOT(67/133) with every event failed: C(133, 67) ≈ 7.5·10³⁸ minimal
    // causes, more than `u128::MAX`.
    let names: Vec<String> = (0..133).map(|i| format!("e{i}")).collect();
    let mut path = std::env::temp_dir();
    path.push(format!("bfl-cli-vote-{}.dft", std::process::id()));
    std::fs::write(
        &path,
        format!("toplevel top;\ntop 67of133 {};\n", names.join(" ")),
    )
    .unwrap();
    let out = bfl()
        .args(["cause", "--ft", &path.to_string_lossy()])
        .args(["--failed", &names.join(","), "top", "2"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_error(&out, "too many minimal causes");
}
