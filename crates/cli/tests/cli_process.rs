//! End-to-end runs of the `bfl` binary: a reader that closes the pipe
//! early, counts past the 128-bit range and listings of too many cut or
//! path sets end in a quiet exit or a one-line error, never in a panic,
//! and gates of a few hundred thousand children compile without
//! overflowing a stack. Each run is its own process, so an abort fails
//! an assertion instead of the test harness.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// Runs `bfl args` under a 2 GiB address-space cap, killed if it has not
/// exited after `limit`: a listing that is not refused dies on the cap
/// or the clock, not on the host's memory. Returns the output and the
/// time to exit.
fn bfl_capped(args: &[&str], limit: Duration) -> (Output, Duration) {
    let mut child = Command::new("sh")
        .args(["-c", r#"ulimit -v 2097152; exec "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_bfl"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let start = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > limit {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    (child.wait_with_output().unwrap(), start.elapsed())
}

#[test]
fn listings_of_too_many_sets_are_refused_with_their_count() {
    // `top` of the 400-event tree has ~10^20 minimal path sets, and under
    // the support scope ~1.7·10^16 minimal cut sets: the 39 events outside
    // its cone are free.
    let model = shipped_model("industrial-400.dft");
    for (args, needle) in [
        (
            vec!["mps", "--ft", &model],
            "`top` has 105102678385520640000 minimal path sets",
        ),
        (
            vec!["mcs", "--support-scope", "--ft", &model],
            "`top` has 16999549277044736 minimal cut sets",
        ),
    ] {
        let (out, took) = bfl_capped(&args, Duration::from_secs(60));
        assert_error(&out, needle);
        assert!(took < Duration::from_secs(10), "{args:?} took {took:?}");
    }
}

#[test]
fn sat_of_too_many_vectors_is_refused_with_its_count() {
    // `top` of the 400-event tree has about 2^400 satisfying vectors:
    // counted first, the listing is refused before a vector is built.
    let model = shipped_model("industrial-400.dft");
    let (out, took) = bfl_capped(&["sat", "--ft", &model, "top"], Duration::from_secs(60));
    assert_error(&out, "`top` has more than 2^128 - 1 satisfying vectors");
    assert_error(&out, "bfl count 'top'");
    assert!(took < Duration::from_secs(10), "took {took:?}");
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

/// A Galileo model whose top event `T` is one OR gate over `n` basic
/// events `e0 … e(n-1)`, on one line.
fn wide_or_gate(n: usize) -> String {
    let mut model = String::from("toplevel T; T or");
    for i in 0..n {
        model.push_str(&format!(" e{i}"));
    }
    model.push_str(";\n");
    model
}

/// [`wide_or_gate`] with every event failing with probability `p`, one
/// annotation per line.
fn wide_or_gate_with_probability(n: usize, p: f64) -> String {
    let mut model = wide_or_gate(n);
    for i in 0..n {
        model.push_str(&format!("e{i} prob={p};\n"));
    }
    model
}

/// `P(T)` of [`wide_or_gate_with_probability`]: `1 − (1 − p)^n`.
fn wide_or_gate_probability(n: usize, p: f64) -> f64 {
    1.0 - (1.0 - p).powi(n as i32)
}

#[test]
fn wide_or_gate_checks_without_overflowing_the_stack() {
    let mut path = std::env::temp_dir();
    path.push(format!("bfl-cli-wide-{}.dft", std::process::id()));
    std::fs::write(&path, wide_or_gate(200_000)).unwrap();
    // `forall T` and `exists !T` negate the gate's 200,000-node chain,
    // and a binding deep in it restricts all of the chain above.
    let runs = [
        ("exists T", "true\n"),
        ("forall T", "false\n"),
        ("exists !T", "true\n"),
        ("exists T[e199990 := 0]", "true\n"),
    ]
    .map(|(query, expected)| {
        let out = bfl()
            .args(["check", "--ft", &path.to_string_lossy(), query])
            .output()
            .unwrap();
        (query, expected, out)
    });
    std::fs::remove_file(&path).unwrap();
    for (query, expected, out) in runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{query}: {:?}: {stderr}", out.status);
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{query}");
    }
}

#[test]
fn wide_or_gate_counts_and_weighs_without_overflowing_the_stack() {
    // The probability and the model count walk the gate's 200,000-node
    // chain from its root down to its last event.
    let (n, p) = (200_000, 0.00001);
    let mut annotated = std::env::temp_dir();
    annotated.push(format!("bfl-cli-wide-prob-{}.dft", std::process::id()));
    std::fs::write(&annotated, wide_or_gate_with_probability(n, p)).unwrap();
    let mut plain = std::env::temp_dir();
    plain.push(format!("bfl-cli-wide-count-{}.dft", std::process::id()));
    std::fs::write(&plain, wide_or_gate(n)).unwrap();
    let run = |args: &[&str]| bfl().args(args).output().unwrap();
    let prob = run(&["prob", "--ft", &annotated.to_string_lossy()]);
    let models_of_not = run(&["count", "--ft", &plain.to_string_lossy(), "!T"]);
    let models = run(&["count", "--ft", &plain.to_string_lossy(), "T"]);
    std::fs::remove_file(&annotated).unwrap();
    std::fs::remove_file(&plain).unwrap();

    let stderr = String::from_utf8_lossy(&prob.stderr);
    assert!(prob.status.success(), "prob: {:?}: {stderr}", prob.status);
    let value: f64 = String::from_utf8_lossy(&prob.stdout)
        .trim()
        .parse()
        .unwrap();
    let expected = wide_or_gate_probability(n, p);
    assert!((value - expected).abs() < 1e-9, "{value} vs {expected}");
    // Only the all-operational vector leaves the gate working.
    let stderr = String::from_utf8_lossy(&models_of_not.stderr);
    assert!(models_of_not.status.success(), "count: {stderr}");
    assert_eq!(String::from_utf8_lossy(&models_of_not.stdout), "1\n");
    // 2^200,000 − 1 vectors fail it: a refusal, counted to the end.
    assert_error(&models, "too many satisfying vectors");
}

/// A `bfl serve` child, killed if the test fails before its shutdown.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `bfl serve` with one worker and connects to it; returns the
/// child, a writer and a reader on one connection.
fn one_worker_server() -> (Server, TcpStream, BufReader<TcpStream>) {
    let mut server = Server(
        bfl()
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stderr.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (server, writer, BufReader::new(stream))
}

/// Sends one request line and returns its answer line, which must be ok.
fn served(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    op: &str,
    request: &str,
) -> String {
    writer.write_all(request.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    let head = answer.chars().take(300).collect::<String>();
    assert!(answer.starts_with(r#"{"ok":true"#), "{op}: {head:?}");
    answer
}

#[test]
fn server_weighs_a_wide_or_gate_and_keeps_serving() {
    let (mut server, mut writer, mut reader) = one_worker_server();
    let (n, p) = (40_000, 0.00001);
    // The model has no quote or backslash; its newlines are the only
    // characters JSON needs escaped.
    let model = wide_or_gate_with_probability(n, p).replace('\n', "\\n");
    served(
        &mut writer,
        &mut reader,
        "load",
        &format!(r#"{{"op":"load","model":"{model}"}}"#),
    );
    served(
        &mut writer,
        &mut reader,
        "prepare",
        r#"{"op":"prepare","session":"s1","query":"P(T) <= 0.5"}"#,
    );
    let answer = served(
        &mut writer,
        &mut reader,
        "prob",
        r#"{"op":"prob","session":"s1","plan":"p1"}"#,
    );
    let value: f64 = answer
        .split("\"probability\":")
        .nth(1)
        .and_then(|rest| rest.split(['}', ',']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no probability in {answer:?}"));
    let expected = wide_or_gate_probability(n, p);
    assert!((value - expected).abs() < 1e-9, "{value} vs {expected}");
    // The verdict walks the restricted chain again, and the session keeps
    // serving.
    let answer = served(
        &mut writer,
        &mut reader,
        "eval",
        r#"{"op":"eval","session":"s1","plan":"p1","scenario":"e39990 = 0"}"#,
    );
    assert!(answer.contains("\"holds\":true"), "{answer}");
    served(
        &mut writer,
        &mut reader,
        "stats",
        r#"{"op":"stats","session":"s1"}"#,
    );
    served(&mut writer, &mut reader, "shutdown", r#"{"op":"shutdown"}"#);
    let status = server.0.wait().unwrap();
    assert!(status.success(), "{status:?}");
}

#[test]
fn server_prepares_a_wide_or_gate_and_keeps_serving() {
    let (mut server, mut writer, mut reader) = one_worker_server();
    // The model has no quote or backslash, and its one newline is the
    // only character JSON needs escaped.
    let model = wide_or_gate(40_000).replace('\n', "\\n");
    // `forall T` negates the restricted gate for its counterexamples.
    for (op, request, holds) in [
        (
            "load",
            format!(r#"{{"op":"load","model":"{model}"}}"#),
            None,
        ),
        (
            "prepare",
            r#"{"op":"prepare","session":"s1","query":"exists T"}"#.into(),
            None,
        ),
        (
            "eval",
            r#"{"op":"eval","session":"s1","plan":"p1","scenario":"e5 = 0"}"#.into(),
            Some(true),
        ),
        (
            "prepare",
            r#"{"op":"prepare","session":"s1","query":"forall T"}"#.into(),
            None,
        ),
        (
            "eval",
            r#"{"op":"eval","session":"s1","plan":"p2","scenario":"e5 = 0"}"#.into(),
            Some(false),
        ),
        (
            "eval",
            r#"{"op":"eval","session":"s1","plan":"p1","scenario":"e39990 = 0"}"#.into(),
            Some(true),
        ),
        (
            "eval",
            r#"{"op":"eval","session":"s1","plan":"p2","scenario":"e39990 = 0"}"#.into(),
            Some(false),
        ),
        ("stats", r#"{"op":"stats"}"#.into(), None),
        ("shutdown", r#"{"op":"shutdown"}"#.into(), None),
    ] {
        let answer = served(&mut writer, &mut reader, op, &request);
        let head = answer.chars().take(300).collect::<String>();
        if let Some(holds) = holds {
            assert!(
                answer.contains(&format!("\"holds\":{holds}")),
                "{op}: {head:?}"
            );
        }
    }
    let status = server.0.wait().unwrap();
    assert!(status.success(), "{status:?}");
}
