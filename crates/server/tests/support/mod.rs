//! A deterministic way to keep one server worker busy.
//!
//! Backpressure tests need a worker that stays occupied while they
//! probe the queue or a session's in-flight cap. A merely slow request
//! races the prober: on a loaded host the worker may finish first, or
//! not even have started. [`WorkerGate`] instead relies on output flow
//! control. It sends a *streamed* sweep whose response is several times
//! larger than the loopback socket buffers (about 4 MiB to a peer that
//! does not read, under Linux's default `tcp_wmem`), and then does not
//! read. The worker answering it stalls between chunks until the test
//! drains the stream, or until the server's 10 s write-stall timeout
//! expires.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bfl_core::report::json_str;
use bfl_server::json::Json;
use bfl_server::{Client, ErrorCode, Response, ResponseBody, SessionOptions};

/// Basic events under the gate model's OR top; `2^EVENTS - 1` witnesses.
const EVENTS: usize = 10;
/// Scenarios in the gate sweep, all the baseline: one compute, the rest
/// memo hits, each rendering every witness again.
const SCENARIOS: usize = 40;
/// The gate sweep's response must exceed this many bytes.
const MIN_RESPONSE_BYTES: u64 = 16 << 20;

/// The gate model: `G = OR(e0..e9)` with 100-character event names.
fn gate_model() -> String {
    let names: Vec<String> = (0..EVENTS)
        .map(|i| format!("e{i}{}", "x".repeat(98)))
        .collect();
    let mut text = format!("toplevel G;\nG or {};\n", names.join(" "));
    for name in &names {
        text.push_str(&format!("{name} prob=0.5;\n"));
    }
    text
}

/// Loads the gate model with every witness listed and prepares
/// `exists G` on it; returns `(session, plan)`.
pub fn gate_session(client: &mut Client) -> (String, String) {
    let session = client
        .load_with(
            &gate_model(),
            SessionOptions {
                witness_limit: Some((1 << EVENTS) - 1),
                ..SessionOptions::default()
            },
        )
        .expect("loads the gate model");
    let plan = client.prepare(&session, "exists G").expect("prepares");
    (session, plan)
}

/// A streamed sweep of a [`gate_session`] plan that the test has not read
/// yet: while it is open, the worker answering it cannot finish.
pub struct WorkerGate {
    reader: BufReader<TcpStream>,
    /// Chunk frames announced by the `begin` frame.
    chunks: u64,
}

impl WorkerGate {
    /// Sends the gate sweep on a fresh connection and waits for its
    /// `begin` frame, which a worker sends only after it has computed
    /// the sweep. From then on that worker is held until
    /// [`WorkerGate::release`]. Returns the error code instead when the
    /// server refused the sweep.
    pub fn hold(addr: SocketAddr, session: &str, plan: &str) -> Result<WorkerGate, ErrorCode> {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let scenarios: String = (0..SCENARIOS).map(|i| format!("s{i}:\n")).collect();
        let request = format!(
            "{{\"id\":1,\"op\":\"sweep\",\"session\":{},\"plan\":{},\"scenarios\":{},\"stream\":true}}\n",
            json_str(session),
            json_str(plan),
            json_str(&scenarios)
        );
        stream.write_all(request.as_bytes()).expect("write");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let begin = read_result(&mut reader)?;
        assert_eq!(
            begin.get("stream").and_then(Json::as_str),
            Some("begin"),
            "{begin}"
        );
        let bytes = begin.get("bytes").and_then(Json::as_u64).expect("bytes");
        assert!(
            bytes > MIN_RESPONSE_BYTES,
            "gate response of {bytes} bytes is too small to stall a worker"
        );
        let chunks = begin.get("chunks").and_then(Json::as_u64).expect("chunks");
        Ok(WorkerGate { reader, chunks })
    }

    /// Drains the stream to its `end` frame, freeing the worker.
    pub fn release(mut self) {
        // The chunk frames are skipped unparsed; the stream tests check
        // their content.
        let mut line = String::new();
        for _ in 0..self.chunks {
            line.clear();
            self.reader.read_line(&mut line).expect("read chunk");
            assert!(line.ends_with('\n'), "stream cut short");
        }
        let end = read_result(&mut self.reader).expect("end frame");
        assert_eq!(
            end.get("stream").and_then(Json::as_str),
            Some("end"),
            "{end}"
        );
    }
}

/// Reads one response line and returns its parsed result document, or
/// the error code it carries.
fn read_result(reader: &mut BufReader<TcpStream>) -> Result<Json, ErrorCode> {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = Response::parse(line.trim_end()).expect("parses");
    match response.body {
        ResponseBody::Result(doc) => Ok(Json::parse(&doc).expect("result parses")),
        ResponseBody::Error { code, .. } => Err(code),
    }
}
