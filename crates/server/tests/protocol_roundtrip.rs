//! Protocol property tests: canonical serialisation round-trips
//! byte-identically, and a live server answers malformed, truncated and
//! oversized lines with structured errors — never by dropping the
//! connection or killing a worker.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use bfl_core::MinimalityScope;
use bfl_fault_tree::generator::{industrial_model, IndustrialConfig};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{galileo, VariableOrdering};
use bfl_server::json::Json;
use bfl_server::{
    Client, ErrorCode, Op, ProbOptions, ProbTarget, Request, Response, Server, ServerConfig,
    SessionOptions,
};

/// A corpus of requests covering every operation and option shape.
fn request_corpus() -> Vec<Request> {
    let full_options = SessionOptions {
        ordering: Some(VariableOrdering::Declaration),
        scope: Some(MinimalityScope::FormulaSupport),
        witness_limit: Some(5),
    };
    vec![
        Request::new(Op::Load {
            model: "toplevel T;\nT and A B;\n\"we\u{eb}rd/name\" prob=0.1;\n".to_string(),
            options: SessionOptions::default(),
        }),
        Request::with_id(
            1,
            Op::Load {
                model: "toplevel T;".to_string(),
                options: full_options,
            },
        ),
        Request::with_id(
            2,
            Op::Prepare {
                session: "s1".to_string(),
                query: "exists MCS(IWoS) & H4".to_string(),
            },
        ),
        Request::with_id(
            3,
            Op::Check {
                session: "s1".to_string(),
                query: "P1: forall IS => MoT\nP4: [IW, H3] MCS(\"CP/R\")\n".to_string(),
            },
        ),
        Request::with_id(
            4,
            Op::Eval {
                session: "s1".to_string(),
                plan: "p1".to_string(),
                scenario: "what-if: IW = 1, H3 = 0".to_string(),
            },
        ),
        Request::with_id(
            5,
            Op::Cause {
                session: "s1".to_string(),
                plan: "p3".to_string(),
                scenario: "IT = 1, H2 = 0".to_string(),
                stream: false,
            },
        ),
        Request::new(Op::Cause {
            session: "s1".to_string(),
            plan: "p3".to_string(),
            scenario: String::new(),
            stream: false,
        }),
        Request::with_id(
            44,
            Op::Cause {
                session: "s1".to_string(),
                plan: "p3".to_string(),
                scenario: "IT = 1".to_string(),
                stream: true,
            },
        ),
        Request::with_id(
            5,
            Op::Sweep {
                session: "s1".to_string(),
                plan: "p1".to_string(),
                scenarios: "baseline:\nworst: IW = 1, H5 = 1\n".to_string(),
                stream: false,
            },
        ),
        Request::with_id(
            55,
            Op::Sweep {
                session: "s1".to_string(),
                plan: "p1".to_string(),
                scenarios: "baseline:\nworst: IW = 1, H5 = 1\n".to_string(),
                stream: true,
            },
        ),
        Request::with_id(
            6,
            Op::Prob {
                session: "s1".to_string(),
                target: ProbTarget::Plan {
                    plan: "p1".to_string(),
                    scenario: Some("IW = 1".to_string()),
                },
                options: ProbOptions::default(),
            },
        ),
        Request::with_id(
            7,
            Op::Prob {
                session: "s1".to_string(),
                target: ProbTarget::Plan {
                    plan: "p2".to_string(),
                    scenario: None,
                },
                options: ProbOptions {
                    method: Some("interval".to_string()),
                    ..ProbOptions::default()
                },
            },
        ),
        Request::with_id(
            8,
            Op::Prob {
                session: "s1".to_string(),
                target: ProbTarget::Formula {
                    formula: "MCS(IWoS)".to_string(),
                    given: Some("H1 | H2".to_string()),
                },
                options: ProbOptions {
                    method: Some("mc".to_string()),
                    samples: Some(50000),
                    seed: Some(7),
                    confidence: Some(0.95),
                },
            },
        ),
        Request::with_id(
            9,
            Op::Importance {
                session: "s1".to_string(),
                formula: "IWoS".to_string(),
            },
        ),
        Request::with_id(
            10,
            Op::Explain {
                session: "s1".to_string(),
                plan: "p1".to_string(),
            },
        ),
        Request::with_id(11, Op::Stats { session: None }),
        Request::with_id(
            12,
            Op::Stats {
                session: Some("s1".to_string()),
            },
        ),
        Request::with_id(
            14,
            Op::Lint {
                session: "s1".to_string(),
                spec: None,
            },
        ),
        Request::with_id(
            15,
            Op::Lint {
                session: "s1".to_string(),
                spec: Some("P1: exists T\nP2: forall T | !T\n".to_string()),
            },
        ),
        Request::with_id(
            16,
            Op::Unload {
                session: "s1".to_string(),
            },
        ),
        Request::with_id(u64::MAX, Op::Shutdown),
    ]
}

#[test]
fn every_request_round_trips_byte_identically() {
    for request in request_corpus() {
        let line = request.to_json_line();
        let parsed = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        assert_eq!(parsed, request, "{line}");
        assert_eq!(parsed.to_json_line(), line, "second serialisation drifted");
    }
}

#[test]
fn every_response_round_trips_byte_identically() {
    let responses = vec![
        Response::ok(None, "{\"session\":\"s1\"}"),
        Response::ok(Some(3), "{\"outcomes\":[{\"holds\":true,\"probability\":0.020000000000000004}],\"totals\":{\"cache_hits\":12}}"),
        Response::ok(Some(4), "[[\"A\",\"B\"],[\"C\"]]"),
        Response::ok(Some(5), "null"),
        Response::error(None, ErrorCode::ParseError, "invalid JSON: x at byte 0"),
        Response::error(Some(6), ErrorCode::Busy, "request queue is full, retry later"),
        Response::error(Some(7), ErrorCode::UnknownSession, "no session `s9`"),
        Response::error(Some(8), ErrorCode::Oversized, "line too long"),
        Response::error(Some(9), ErrorCode::ShuttingDown, "server is draining"),
        Response::error(Some(10), ErrorCode::Internal, "handler panicked: ?"),
    ];
    for response in responses {
        let line = response.to_json_line();
        let parsed = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(parsed, response, "{line}");
        assert_eq!(parsed.to_json_line(), line, "second serialisation drifted");
    }
}

#[test]
fn live_responses_reparse_to_the_same_bytes() {
    // End-to-end: every document a real server produces survives the
    // client-side parse → serialise cycle byte-identically.
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let model = "toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n";
    let lines = [
        format!(
            "{{\"id\":1,\"op\":\"load\",\"model\":{}}}",
            bfl_core::report::json_str(model)
        ),
        "{\"id\":2,\"op\":\"prepare\",\"session\":\"s1\",\"query\":\"exists MCS(T)\"}".to_string(),
        "{\"id\":3,\"op\":\"check\",\"session\":\"s1\",\"query\":\"Q: forall A & B => T\"}"
            .to_string(),
        "{\"id\":4,\"op\":\"eval\",\"session\":\"s1\",\"plan\":\"p1\",\"scenario\":\"A = 1\"}"
            .to_string(),
        "{\"id\":5,\"op\":\"sweep\",\"session\":\"s1\",\"plan\":\"p1\",\"scenarios\":\"a: A = 1\\nb: B = 0\"}"
            .to_string(),
        "{\"id\":6,\"op\":\"prob\",\"session\":\"s1\",\"plan\":\"p1\"}".to_string(),
        "{\"id\":7,\"op\":\"prob\",\"session\":\"s1\",\"formula\":\"T\",\"given\":\"A\"}"
            .to_string(),
        "{\"id\":8,\"op\":\"importance\",\"session\":\"s1\",\"formula\":\"T\"}".to_string(),
        "{\"id\":9,\"op\":\"explain\",\"session\":\"s1\",\"plan\":\"p1\"}".to_string(),
        "{\"id\":10,\"op\":\"stats\",\"session\":\"s1\"}".to_string(),
        "{\"id\":90,\"op\":\"lint\",\"session\":\"s1\"}".to_string(),
        "{\"id\":91,\"op\":\"lint\",\"session\":\"s1\",\"spec\":\"P: exists T | !T\"}".to_string(),
        "{\"id\":12,\"op\":\"stats\"}".to_string(),
        "{\"id\":13,\"op\":\"unload\",\"session\":\"s1\"}".to_string(),
        "{\"id\":14,\"op\":\"eval\",\"session\":\"s1\",\"plan\":\"p1\"}".to_string(),
    ];
    for line in &lines {
        let raw = client.round_trip(line).expect("round trip");
        let response = Response::parse(&raw).unwrap_or_else(|e| panic!("{raw}: {e}"));
        assert_eq!(response.to_json_line(), raw, "{line}");
    }
    handle.shutdown();
}

#[test]
fn lint_diagnostics_round_trip_through_the_typed_client() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    // `A prob=1.0` is a certain event (L006) and `G` has one child
    // (L002), so the model lint is deterministically non-empty.
    let model = "toplevel T;\nT and G B;\nG or A;\nA prob=1.0;\nB prob=0.2;\n";
    client.load(model).expect("loads");

    let diags = client.lint("s1", None).expect("lints");
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"L002"), "{codes:?}");
    assert!(codes.contains(&"L006"), "{codes:?}");

    // The typed diagnostics re-serialise to the exact document the
    // engine produces locally for the same model: the round trip
    // through the wire is lossless.
    let parsed = bfl_fault_tree::galileo::parse(model).expect("parses");
    let local = bfl_core::engine::AnalysisSession::builder()
        .probabilities(parsed.probabilities)
        .build(parsed.tree)
        .lint();
    assert_eq!(
        bfl_core::lint::to_json(&diags),
        bfl_core::lint::to_json(&local)
    );

    // Spec lint flows through the same channel: a tautology earns L008.
    let diags = client
        .lint("s1", Some("P: exists B | !B\n"))
        .expect("lints spec");
    assert!(
        diags.iter().any(|d| d.code == "L008"),
        "{:?}",
        diags.iter().map(|d| &d.code).collect::<Vec<_>>()
    );

    handle.shutdown();
}

#[test]
fn uncertainty_fields_flow_through_the_protocol() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut ask = |line: &str| -> String { client.round_trip(line).expect("round trip") };

    // Session s1: ranged annotations. Exact evaluation refuses with a
    // structured error naming the offending event; interval propagation
    // answers with bracket fields.
    let ranged = "toplevel T;\nT or A B;\nA prob=0.1..0.3;\nB prob=0.2;\n";
    let raw = ask(&format!(
        "{{\"op\":\"load\",\"model\":{}}}",
        bfl_core::report::json_str(ranged)
    ));
    assert!(raw.contains("\"session\":\"s1\""), "{raw}");
    let raw = ask("{\"op\":\"prob\",\"session\":\"s1\",\"formula\":\"T\"}");
    assert!(raw.contains("\"code\":\"eval_error\""), "{raw}");
    assert!(raw.contains('A'), "{raw}");
    let raw = ask("{\"op\":\"prob\",\"session\":\"s1\",\"formula\":\"T\",\"method\":\"interval\"}");
    assert!(
        raw.contains("\"interval\":{\"lo\":0.28,\"hi\":0.43999999999999995}"),
        "{raw}"
    );
    assert!(raw.contains("\"method\":\"interval\""), "{raw}");
    // The compiled-plan arm carries the same fields.
    let raw = ask("{\"op\":\"prepare\",\"session\":\"s1\",\"query\":\"P(T) >= 0.3\"}");
    assert!(raw.contains("\"plan\":\"p1\""), "{raw}");
    let raw = ask(
        "{\"op\":\"prob\",\"session\":\"s1\",\"plan\":\"p1\",\"scenario\":\"A = 1\",\"method\":\"interval\"}",
    );
    assert!(raw.contains("\"interval\":{\"lo\":1,\"hi\":1}"), "{raw}");

    // Session s2: point annotations. Monte Carlo answers carry the
    // estimate with its confidence interval, and a warm plan repeats
    // the estimate byte-identically (chunk-owned seed streams).
    let point = "toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n";
    let raw = ask(&format!(
        "{{\"op\":\"load\",\"model\":{}}}",
        bfl_core::report::json_str(point)
    ));
    assert!(raw.contains("\"session\":\"s2\""), "{raw}");
    let mc = "{\"op\":\"prob\",\"session\":\"s2\",\"formula\":\"T\",\"method\":\"mc\",\"samples\":20000,\"seed\":7,\"confidence\":0.95}";
    let first = ask(mc);
    assert!(first.contains("\"estimate\":{\"point\":"), "{first}");
    assert!(first.contains("\"confidence\":0.95"), "{first}");
    assert!(first.contains("\"samples\":20000"), "{first}");
    assert!(first.contains("\"method\":\"mc\""), "{first}");
    for _ in 0..2 {
        assert_eq!(ask(mc), first, "warm Monte Carlo answers must repeat");
    }
    // The sampler totals surface in the session stats.
    let raw = ask("{\"op\":\"stats\",\"session\":\"s2\"}");
    assert!(
        raw.contains("\"sampler\":{\"runs\":3,\"samples\":60000}"),
        "{raw}"
    );

    // Malformed method fields: structured bad_field errors, never a
    // dropped connection or a silent default.
    for (line, needle) in [
        (
            "{\"op\":\"prob\",\"session\":\"s2\",\"formula\":\"T\",\"method\":\"bogus\"}",
            "unknown method `bogus`",
        ),
        (
            "{\"op\":\"prob\",\"session\":\"s2\",\"formula\":\"T\",\"method\":\"exact\",\"samples\":10}",
            "apply to method `mc`",
        ),
        (
            "{\"op\":\"prob\",\"session\":\"s2\",\"formula\":\"T\",\"samples\":\"many\"}",
            "`samples` must be a non-negative integer",
        ),
        (
            "{\"op\":\"prob\",\"session\":\"s2\",\"formula\":\"T\",\"confidence\":true}",
            "`confidence` must be a number",
        ),
    ] {
        let raw = ask(line);
        let response = Response::parse(&raw).unwrap_or_else(|e| panic!("{raw}: {e}"));
        match response.body {
            bfl_server::ResponseBody::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadField, "{raw}");
                assert!(message.contains(needle), "{raw}");
            }
            other => panic!("expected bad_field for {line}, got {other:?}"),
        }
    }

    // Every uncertainty-bearing response survives the client-side
    // parse → serialise cycle byte-identically, like the rest of the
    // protocol.
    for line in [
        "{\"op\":\"prob\",\"session\":\"s1\",\"formula\":\"T\",\"method\":\"interval\"}",
        mc,
        "{\"op\":\"stats\",\"session\":\"s2\"}",
    ] {
        let raw = ask(line);
        let response = Response::parse(&raw).unwrap_or_else(|e| panic!("{raw}: {e}"));
        assert_eq!(response.to_json_line(), raw, "{line}");
    }
    handle.shutdown();
}

/// Sends raw bytes and reads one response line.
fn raw_round_trip(stream: &mut TcpStream, reader: &mut impl BufRead, bytes: &[u8]) -> String {
    stream.write_all(bytes).expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    line.trim_end().to_string()
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_line_bytes: 1 << 16,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let cases: Vec<(&[u8], &str)> = vec![
        (b"this is not json\n", "parse_error"),
        (b"{\"op\":\n", "parse_error"),
        (b"{\"op\":\"load\"} trailing\n", "parse_error"),
        (b"[1,2,3]\n", "parse_error"),
        (b"\"just a string\"\n", "parse_error"),
        (b"{\"id\":\"x\",\"op\":\"stats\"}\n", "parse_error"),
        (b"{\"op\":\"frobnicate\"}\n", "unknown_op"),
        (b"{\"no_op\":1}\n", "unknown_op"),
        (
            b"{\"op\":\"prepare\",\"session\":\"s1\"}\n",
            "missing_field",
        ),
        (
            b"{\"op\":\"eval\",\"session\":9,\"plan\":\"p\"}\n",
            "bad_field",
        ),
        (
            b"{\"op\":\"stats\",\"session\":\"s99\"}\n",
            "unknown_session",
        ),
        (
            b"{\"op\":\"load\",\"model\":\"not galileo\"}\n",
            "model_error",
        ),
        // Invalid UTF-8 in the middle of a line.
        (b"{\"op\":\"stats\xff}\n", "parse_error"),
    ];
    for (bytes, expected_code) in cases {
        let raw = raw_round_trip(&mut stream, &mut reader, bytes);
        let response = Response::parse(&raw).unwrap_or_else(|e| panic!("{raw}: {e}"));
        match response.body {
            bfl_server::ResponseBody::Error { code, .. } => {
                assert_eq!(code.as_str(), expected_code, "{raw}");
            }
            other => panic!("expected an error for {bytes:?}, got {other:?}"),
        }
    }

    // The same connection still serves valid requests afterwards.
    let raw = raw_round_trip(&mut stream, &mut reader, b"{\"id\":42,\"op\":\"stats\"}\n");
    let response = Response::parse(&raw).expect("parses");
    assert!(response.is_ok(), "{raw}");
    assert_eq!(response.id, Some(42));
    handle.shutdown();
}

#[test]
fn deleted_orderings_are_bad_fields_and_the_server_keeps_serving() {
    // Removed orderings (`bfs` and `bouissou` asked for multi-gigabyte
    // tables on scaled models) answer like any other unknown ordering,
    // and nothing is loaded.
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let model = r#""toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n""#;
    for name in ["bfs", "bouissou", "sifted"] {
        let line = format!("{{\"op\":\"load\",\"model\":{model},\"ordering\":\"{name}\"}}\n");
        let raw = raw_round_trip(&mut stream, &mut reader, line.as_bytes());
        match Response::parse(&raw).expect("parses").body {
            bfl_server::ResponseBody::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadField, "{raw}");
                assert!(message.contains(name), "{raw}");
            }
            other => panic!("expected bad_field for `{name}`, got {other:?}"),
        }
    }

    let mut client = Client::connect(handle.addr()).expect("connects");
    let stats = client.stats(None).expect("stats");
    let sessions = stats
        .get("sessions")
        .and_then(|s| s.as_array())
        .expect("sessions");
    assert!(sessions.is_empty(), "{stats}");
    // The same connection, and a new one, still serve. `reorder` and
    // `gc` are no longer `load` keys: they are ignored like any other
    // unknown key.
    let line = format!(
        "{{\"op\":\"load\",\"model\":{model},\"ordering\":\"dfs\",\"reorder\":\"prepare\",\"gc\":true}}\n"
    );
    let raw = raw_round_trip(&mut stream, &mut reader, line.as_bytes());
    let loaded = match Response::parse(&raw).expect("parses").body {
        bfl_server::ResponseBody::Result(doc) => Json::parse(&doc).expect("json"),
        other => panic!("expected a session, got {other:?}"),
    };
    let session = loaded
        .get("session")
        .and_then(Json::as_str)
        .expect("session id");
    // `maintain` is no longer an op, even on a live session.
    let line = format!("{{\"op\":\"maintain\",\"session\":\"{session}\"}}\n");
    let raw = raw_round_trip(&mut stream, &mut reader, line.as_bytes());
    match Response::parse(&raw).expect("parses").body {
        bfl_server::ResponseBody::Error { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownOp, "{raw}")
        }
        other => panic!("expected unknown_op for `maintain`, got {other:?}"),
    }
    let line = format!("{{\"op\":\"stats\",\"session\":\"{session}\"}}\n");
    let raw = raw_round_trip(&mut stream, &mut reader, line.as_bytes());
    assert!(Response::parse(&raw).expect("parses").is_ok(), "{raw}");
    let session = client.load("toplevel T;\nT and A B;\n").expect("loads");
    let plan = client.prepare(&session, "exists T").expect("prepares");
    let outcome = client.eval(&session, &plan, "A = 1, B = 1").expect("evals");
    assert!(outcome.to_string().contains("\"holds\":true"), "{outcome}");
    handle.shutdown();
}

#[test]
fn oversized_lines_are_rejected_without_killing_the_connection() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_line_bytes: 4096,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A 1 MiB line against a 4 KiB limit: rejected as `oversized`, and
    // the server never buffers more than the limit.
    let mut big = Vec::with_capacity(1 << 20);
    big.extend_from_slice(b"{\"op\":\"load\",\"model\":\"");
    big.resize((1 << 20) - 3, b'x');
    big.extend_from_slice(b"\"}\n");
    let raw = raw_round_trip(&mut stream, &mut reader, &big);
    let response = Response::parse(&raw).expect("parses");
    match response.body {
        bfl_server::ResponseBody::Error { code, .. } => {
            assert_eq!(code, ErrorCode::Oversized, "{raw}");
        }
        other => panic!("{other:?}"),
    }

    // The connection survives and the next request works.
    let raw = raw_round_trip(&mut stream, &mut reader, b"{\"id\":1,\"op\":\"stats\"}\n");
    assert!(Response::parse(&raw).expect("parses").is_ok(), "{raw}");
    handle.shutdown();
}

#[test]
fn truncated_final_line_is_answered_before_eof() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("binds");
    // A request cut off mid-document with no trailing newline: the
    // reader treats the fragment as a final line, answers the parse
    // error, and closes cleanly after the peer's EOF.
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.write_all(b"{\"id\":5,\"op\":\"che").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    BufReader::new(stream)
        .read_to_string(&mut raw)
        .expect("read");
    let line = raw.lines().next().expect("one response");
    let response = Response::parse(line).expect("parses");
    match response.body {
        bfl_server::ResponseBody::Error { code, .. } => {
            assert_eq!(code, ErrorCode::ParseError, "{line}")
        }
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

#[test]
fn cause_past_the_count_range_is_an_eval_error_and_the_session_stays_loaded() {
    // VOT(67/133) with every event failed: C(133, 67) ≈ 7.5·10³⁸ minimal
    // causes, more than `u128::MAX`.
    let names: Vec<String> = (0..133).map(|i| format!("e{i}")).collect();
    let model = format!("toplevel top;\ntop 67of133 {};\n", names.join(" "));
    let observation: Vec<String> = names.iter().map(|n| format!("{n} = 1")).collect();
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let session = client.load(&model).expect("loads");
    let plan = client
        .prepare(&session, "causes(top, 2)")
        .expect("prepares");
    let arena = arena_nodes(&mut client, &session);
    let err = client
        .cause(&session, &plan, &observation.join(", "))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::EvalError), "{err}");
    assert!(err.to_string().contains("2^128"), "{err}");
    // The failed attempt's nodes were rolled back with it.
    assert_eq!(arena_nodes(&mut client, &session), arena);

    // Not quarantined: still listed, and still answering.
    let stats = client.stats(None).expect("stats");
    let sessions = stats
        .get("sessions")
        .and_then(|s| s.as_array())
        .expect("sessions");
    assert!(
        sessions
            .iter()
            .any(|s| s.as_str() == Some(session.as_str())),
        "{stats}"
    );
    let outcome = client.check(&session, "exists top").expect("checks");
    assert!(outcome.to_string().contains("\"holds\":true"), "{outcome}");
    handle.shutdown();
}

/// The session's `stats.arena_nodes`, read over the wire.
fn arena_nodes(client: &mut Client, session: &str) -> u64 {
    let stats = client.stats(Some(session)).expect("stats");
    stats
        .get("stats")
        .and_then(|s| s.get("arena_nodes"))
        .and_then(Json::as_u64)
        .expect("arena_nodes")
}

#[test]
fn cold_what_ifs_leave_the_session_arena_as_they_found_it() {
    let model = industrial_model(&IndustrialConfig {
        num_basic: 120,
        num_modules: 4,
        seed: 0xC01D,
        ..IndustrialConfig::default()
    });
    let tree = &model.tree;
    let top = tree.name(tree.top()).to_string();
    let events: Vec<String> = tree
        .basic_event_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let observed: Vec<String> = events
        .iter()
        .step_by(3)
        .map(|e| format!("{e} := 1"))
        .collect();
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("binds");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let session = client
        .load(&galileo::to_galileo(tree, Some(&model.probabilities)))
        .expect("loads");
    let exists = client
        .prepare(&session, &format!("exists {top}"))
        .expect("prepares");
    let prob = client
        .prepare(&session, &format!("P({top}) <= 0.5"))
        .expect("prepares");
    let cause = client
        .prepare(
            &session,
            &format!("causes({top}, {}, 2)", observed.join(", ")),
        )
        .expect("prepares");
    let arena = arena_nodes(&mut client, &session);

    let mut rng = Prng::seed_from_u64(0x3_00);
    for i in 0..300 {
        let scenario: Vec<String> = (0..8)
            .map(|_| {
                let e = &events[rng.gen_range(0..events.len())];
                format!("{e} = {}", u8::from(rng.gen_bool(0.5)))
            })
            .collect();
        let scenario = scenario.join(", ");
        match i % 3 {
            0 => {
                client.eval(&session, &exists, &scenario).expect("evals");
            }
            1 => {
                let p = client
                    .prob_plan(&session, &prob, Some(&scenario))
                    .expect("probs");
                assert!(p.is_some(), "{scenario}");
            }
            _ => {
                client.cause(&session, &cause, &scenario).expect("causes");
            }
        }
    }
    assert_eq!(arena_nodes(&mut client, &session), arena);
    handle.shutdown();
}
