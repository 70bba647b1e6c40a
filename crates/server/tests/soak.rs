//! Soak and overload coverage for the sharded serving layer: hundreds
//! of concurrent connections against a small, fixed shard count, with
//! assertions on no lost responses, bounded thread count, LRU session
//! eviction, per-session admission control, the connection cap's
//! structured `overloaded` rejection, idle-connection reaping, response
//! streaming, and a graceful shutdown that drains every shard.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use bfl_core::report::json_str;
use bfl_server::{Client, ErrorCode, Response, ResponseBody, Server, ServerConfig, ServerHandle};

mod support;

const MODEL: &str = "toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n";

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("binds")
}

/// Threads of this process whose name starts with `bfl-` (acceptor,
/// shards, workers — every thread the server owns). `None` where
/// `/proc` is unavailable.
fn bfl_thread_count() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        let mut count = 0;
        for task in tasks.flatten() {
            if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
                if name.trim().starts_with("bfl-") {
                    count += 1;
                }
            }
        }
        Some(count)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[test]
fn soak_220_connections_on_two_shards_loses_nothing() {
    // 220 concurrent connections multiplexed over 2 shard threads and
    // 2 workers: every request answered with its own id, and the
    // server-side thread count must not grow with the connections.
    let handle = start_server(ServerConfig {
        workers: 2,
        shards: 2,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");
    let plan = setup.prepare(&session, "exists T").expect("prepares");

    let threads_before = bfl_thread_count();

    const CONNS: usize = 220;
    const DRIVERS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        let session = &session;
        let plan = &plan;
        let mut joins = Vec::new();
        for d in 0..DRIVERS {
            joins.push(scope.spawn(move || {
                // Each driver owns a subset of the connections, keeps
                // them ALL open at once, and round-robins requests.
                let mine = (CONNS + DRIVERS - 1 - d) / DRIVERS;
                let mut clients: Vec<Client> = (0..mine)
                    .map(|_| Client::connect(addr).expect("connects"))
                    .collect();
                for round in 0..ROUNDS {
                    for (c, client) in clients.iter_mut().enumerate() {
                        let scenario = if (c + round) % 2 == 0 {
                            "A = 1, B = 1"
                        } else {
                            "A = 0"
                        };
                        let holds = client
                            .eval(session, plan, scenario)
                            .expect("evals")
                            .get("holds")
                            .and_then(|v| v.as_bool())
                            .expect("bool");
                        assert_eq!(holds, (c + round) % 2 == 0, "driver {d} conn {c}");
                    }
                }
                // Hold the connections open until every driver is done
                // measuring, so the peak genuinely has 220 sockets.
                clients
            }));
        }
        // All 220 connections are open while drivers run; the server
        // must still be running its fixed thread set.
        if let (Some(before), Some(during)) = (threads_before, bfl_thread_count()) {
            assert!(
                during <= before + 4,
                "server threads grew with connections: {before} -> {during}"
            );
        }
        for join in joins {
            drop(join.join().expect("driver"));
        }
    });

    // Peak connection accounting saw the soak (220 clients + setup).
    let stats = setup.stats(None).expect("stats");
    let peak = stats
        .get("connections")
        .and_then(|c| c.get("peak"))
        .and_then(|v| v.as_u64())
        .expect("peak");
    assert!(
        peak >= 100,
        "peak connections {peak} never reached the soak"
    );
    handle.shutdown();
}

#[test]
fn lru_eviction_is_observable_over_the_wire() {
    let handle = start_server(ServerConfig {
        workers: 2,
        shards: 1,
        max_sessions: Some(2),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connects");
    let s1 = client.load(MODEL).expect("loads s1");
    let s2 = client.load(MODEL).expect("loads s2");
    // Touch s1 so s2 becomes the least-recently-used entry...
    client.stats(Some(&s1)).expect("stats s1");
    // ...then a third load over the cap evicts exactly s2.
    let s3 = client.load(MODEL).expect("loads s3");
    let stats = client.stats(None).expect("stats");
    assert_eq!(
        stats
            .get("counters")
            .and_then(|c| c.get("evictions"))
            .and_then(|v| v.as_u64()),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        stats
            .get("limits")
            .and_then(|l| l.get("max_sessions"))
            .and_then(|v| v.as_u64()),
        Some(2),
        "{stats}"
    );
    let sessions = format!("{}", stats.get("sessions").expect("sessions"));
    assert!(
        sessions.contains(&s1) && sessions.contains(&s3),
        "{sessions}"
    );
    assert!(!sessions.contains(&s2), "{sessions}");
    // The evicted session answers like any unloaded one.
    let err = client.stats(Some(&s2)).expect_err("s2 evicted");
    assert_eq!(err.code(), Some(ErrorCode::UnknownSession));
    handle.shutdown();
}

#[test]
fn session_inflight_cap_answers_busy_at_admission() {
    // One slot per session. A gate sweep holds the session's slot (its
    // worker cannot finish until the gate is drained), so a pipelined
    // burst on that session bounces with `busy` at admission, before it
    // ever touches the worker queue, even though a second worker is idle.
    let handle = start_server(ServerConfig {
        workers: 2,
        shards: 1,
        queue_capacity: 256,
        session_inflight: Some(1),
        write_high_water: 64 << 10,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let (session, plan) = support::gate_session(&mut setup);
    let admission_rejects = |client: &mut Client| {
        let stats = client.stats(None).expect("stats");
        stats
            .get("counters")
            .and_then(|c| c.get("admission_rejects"))
            .and_then(|v| v.as_u64())
            .expect("counter") as usize
    };
    // A job frees its slot just after its answer is buffered, so a
    // request sent right after an answer may still find the slot taken.
    let mut retries = 0usize;
    let gate = loop {
        match support::WorkerGate::hold(addr, &session, &plan) {
            Ok(gate) => break gate,
            Err(code) => {
                assert_eq!(code, ErrorCode::Busy);
                retries += 1;
                assert!(retries < 1_000, "the session's slot never freed");
            }
        }
    };

    let sweep = |id: u64| {
        format!(
            "{{\"id\":{id},\"op\":\"sweep\",\"session\":{},\"plan\":{},\"scenarios\":\"s0:\\n\"}}\n",
            json_str(&session),
            json_str(&plan)
        )
    };
    let burst: String = (1..=8).map(sweep).collect();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(burst.as_bytes()).expect("write");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Response::parse(line.trim_end()).expect("parses")
    };
    let mut seen_ids = Vec::new();
    for _ in 0..8 {
        let response = read_response();
        match response.body {
            ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
            ResponseBody::Result(_) => panic!("admitted past the session's cap"),
        }
        seen_ids.push(response.id.expect("echoed id"));
    }
    seen_ids.sort_unstable();
    assert_eq!(seen_ids, (1..=8).collect::<Vec<u64>>(), "lost responses");
    // Every bounce was an admission reject: none reached the queue.
    assert_eq!(admission_rejects(&mut setup), retries + 8);

    // Once the gate drains, the slot frees and the session serves again.
    gate.release();
    let mut id = 9;
    loop {
        stream.write_all(sweep(id).as_bytes()).expect("write");
        stream.flush().expect("flush");
        let response = read_response();
        assert_eq!(response.id, Some(id));
        match response.body {
            ResponseBody::Result(_) => break,
            ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        }
        id += 1;
        assert!(id < 1_009, "the session's slot never freed");
    }
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_a_structured_overloaded_error() {
    // Regression for the silently-dropped-connection bug: past the
    // connection cap the client must receive a structured `overloaded`
    // error before the close, never a wordless EOF.
    let handle = start_server(ServerConfig {
        workers: 1,
        shards: 1,
        max_connections: 3,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut held: Vec<Client> = (0..3)
        .map(|_| Client::connect(addr).expect("connects"))
        .collect();
    // A round trip on each proves the acceptor registered all three
    // (connecting alone only fills the listen backlog).
    for client in &mut held {
        client.stats(None).expect("stats");
    }

    let fourth = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(fourth);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = Response::parse(line.trim_end()).expect("parses");
    let ResponseBody::Error { code, message } = response.body else {
        panic!("expected an error response, got {line}");
    };
    assert_eq!(code, ErrorCode::Overloaded, "{line}");
    assert!(message.contains("connection limit"), "{message}");
    // ...and then the close.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read"), 0, "{line}");

    let stats = held[0].stats(None).expect("stats");
    assert_eq!(
        stats
            .get("counters")
            .and_then(|c| c.get("overload_rejects"))
            .and_then(|v| v.as_u64()),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        stats
            .get("connections")
            .and_then(|c| c.get("max"))
            .and_then(|v| v.as_u64()),
        Some(3),
        "{stats}"
    );

    // A burst of over-cap peers that never read their rejection must
    // not serialize the acceptor: the notices are flushed by the shards'
    // nonblocking loops, so a later well-behaved over-cap client still
    // gets its structured `overloaded` line promptly, admitted
    // connections keep round-tripping, and the rejects never consume
    // `open` connection slots.
    let lagging: Vec<TcpStream> = (0..5)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect();
    let started = std::time::Instant::now();
    let prompt = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(prompt);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = Response::parse(line.trim_end()).expect("parses");
    let ResponseBody::Error { code, .. } = response.body else {
        panic!("expected an error response, got {line}");
    };
    assert_eq!(code, ErrorCode::Overloaded, "{line}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "rejection took {:?} behind non-reading peers",
        started.elapsed()
    );
    let stats = held[0].stats(None).expect("stats");
    assert_eq!(
        stats
            .get("connections")
            .and_then(|c| c.get("open"))
            .and_then(|v| v.as_u64()),
        Some(3),
        "rejects must not hold open-connection slots: {stats}"
    );
    drop(lagging);
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_with_a_structured_notice() {
    // Regression for idle connections pinning buffers forever: with
    // `--idle-timeout` set, a silent connection gets a structured
    // `idle_timeout` error, the socket closes, and `stats` counts it.
    let handle = start_server(ServerConfig {
        workers: 1,
        shards: 1,
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // The connection works while active...
    let mut stream = stream;
    stream
        .write_all(b"{\"id\":1,\"op\":\"stats\"}\n")
        .expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(Response::parse(line.trim_end()).expect("parses").is_ok());

    // ...then goes silent past the timeout.
    std::thread::sleep(Duration::from_millis(700));
    line.clear();
    reader.read_line(&mut line).expect("read");
    let response = Response::parse(line.trim_end()).expect("parses");
    let ResponseBody::Error { code, message } = response.body else {
        panic!("expected the idle notice, got {line}");
    };
    assert_eq!(code, ErrorCode::IdleTimeout, "{line}");
    assert!(message.contains("idle"), "{message}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read"), 0, "{line}");

    // A fresh connection sees the reap in the counters.
    let mut admin = Client::connect(addr).expect("connects");
    let stats = admin.stats(None).expect("stats");
    let reaped = stats
        .get("counters")
        .and_then(|c| c.get("idle_reaped"))
        .and_then(|v| v.as_u64())
        .expect("counter");
    assert!(reaped >= 1, "{stats}");
    handle.shutdown();
}

/// Zeroes the per-execution counters (timings, cache hit/miss tallies)
/// that legitimately differ between two runs of the same request, so
/// the rest of the document can be compared byte-for-byte.
fn scrub_run_counters(doc: &str) -> String {
    let mut out = doc.to_string();
    for key in [
        "\"duration_micros\":",
        "\"cache_hits\":",
        "\"cache_misses\":",
        "\"memo_hits\":",
        "\"memo_misses\":",
        "\"translation_misses\":",
    ] {
        let mut scrubbed = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            let after = pos + key.len();
            scrubbed.push_str(&rest[..after]);
            scrubbed.push('0');
            rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        scrubbed.push_str(rest);
        out = scrubbed;
    }
    out
}

#[test]
fn streamed_sweeps_reassemble_byte_identically() {
    let handle = start_server(ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connects");
    let session = client.load(MODEL).expect("loads");
    let plan = client.prepare(&session, "exists T").expect("prepares");
    // 2000 scenario rows make the report span several 64 KiB chunks.
    let scenarios: String = (0..2000)
        .map(|i| format!("s{i}: A = {}, B = {}\n", i % 2, (i / 2) % 2))
        .collect();
    let plain = client.sweep(&session, &plan, &scenarios).expect("sweep");
    let streamed = client
        .sweep_streamed(&session, &plan, &scenarios)
        .expect("streamed sweep");
    // Canonical rendering: the documents are byte-identical once the
    // per-run counters (timings, cache tallies) are zeroed out.
    assert_eq!(
        scrub_run_counters(&format!("{plain}")),
        scrub_run_counters(&format!("{streamed}"))
    );

    // The raw framing: a `begin` announcing >1 chunks, each chunk in
    // sequence, and an `end` — all sharing the request id.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let line = format!(
        "{{\"id\":7,\"op\":\"sweep\",\"session\":{},\"plan\":{},\"scenarios\":{},\"stream\":true}}\n",
        json_str(&session),
        json_str(&plan),
        json_str(&scenarios)
    );
    stream.write_all(line.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut raw = String::new();
    reader.read_line(&mut raw).expect("read");
    let begin = Response::parse(raw.trim_end()).expect("parses");
    assert_eq!(begin.id, Some(7));
    let ResponseBody::Result(doc) = &begin.body else {
        panic!("{raw}");
    };
    assert!(doc.contains("\"stream\":\"begin\""), "{doc}");
    let chunks: u64 = doc
        .split("\"chunks\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .expect("chunk count");
    assert!(chunks >= 2, "large sweep must split: {doc}");
    for seq in 1..=chunks {
        raw.clear();
        reader.read_line(&mut raw).expect("read");
        assert!(raw.contains(&format!("\"seq\":{seq}")), "{raw}");
    }
    raw.clear();
    reader.read_line(&mut raw).expect("read");
    assert!(raw.contains("\"stream\":\"end\""), "{raw}");

    // Streamed causes flow through the same frames.
    let cause_plan = client
        .prepare(&session, "cause(T)")
        .expect("prepares cause");
    let plain = client
        .cause(&session, &cause_plan, "A = 1, B = 1")
        .expect("cause");
    let streamed = client
        .cause_streamed(&session, &cause_plan, "A = 1, B = 1")
        .expect("streamed cause");
    assert_eq!(
        scrub_run_counters(&format!("{plain}")),
        scrub_run_counters(&format!("{streamed}"))
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_shard() {
    // Pipelined work spread over several shards, then `shutdown`: every
    // request accepted before the shutdown is answered, every shard
    // thread exits, and the handle joins.
    let handle = start_server(ServerConfig {
        workers: 2,
        shards: 3,
        queue_capacity: 256,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");
    let plan = setup.prepare(&session, "exists T").expect("prepares");

    // Six connections (two per shard), five strict round trips each.
    let mut clients: Vec<Client> = (0..6)
        .map(|_| Client::connect(addr).expect("connects"))
        .collect();
    for round in 0..5 {
        for (c, client) in clients.iter_mut().enumerate() {
            let outcome = client
                .eval(&session, &plan, "A = 1, B = 1")
                .expect("evals")
                .get("holds")
                .and_then(|v| v.as_bool());
            assert_eq!(outcome, Some(true), "conn {c} round {round}");
        }
    }
    setup.shutdown().expect("shutdown acknowledged");
    handle.join();
    // The listener is gone: nothing serves anymore.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            assert!(client.stats(None).is_err(), "server must be stopped");
        }
    }
}
