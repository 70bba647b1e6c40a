//! A blocking client for the `bfl-server` protocol.
//!
//! [`Client`] speaks strict request/response over one connection: each
//! call assigns a fresh `id`, sends one line, reads one line and checks
//! the echoed id. It is both the programmatic API (the load generator in
//! `bfl-bench` and the test suites drive it) and the engine behind
//! `bfl client`.
//!
//! ```no_run
//! use bfl_server::client::Client;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let session = client.load("toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n")?;
//! let plan = client.prepare(&session, "exists T")?;
//! let outcome = client.eval(&session, &plan, "A = 1, B = 1")?;
//! assert_eq!(outcome.get("holds").and_then(|v| v.as_bool()), Some(true));
//! client.shutdown()?;
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::Json;
use crate::protocol::{
    ErrorCode, Op, ProbOptions, ProbTarget, Request, Response, ResponseBody, SessionOptions,
};

/// A client-side failure: transport, protocol or a server-reported
/// error.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server's bytes did not form a valid response.
    Protocol(String),
    /// The server answered with a structured error.
    Server {
        /// The error class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, when the failure is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A connected protocol client. See the [module docs](self).
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// The connect/clone error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // One-line requests: Nagle would trade ~40 ms latency for
        // nothing.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Sends one operation and returns the parsed `result` document.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for structured server errors, otherwise
    /// transport/protocol failures.
    pub fn request(&mut self, op: Op) -> Result<Json, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let line = Request::with_id(id, op).to_json_line();
        let raw = self.round_trip(&line)?;
        let response = Response::parse(&raw).map_err(ClientError::Protocol)?;
        if response.id != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id {:?} does not match request id {id}",
                response.id
            )));
        }
        match response.body {
            ResponseBody::Result(result) => {
                Json::parse(&result).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            ResponseBody::Error { code, message } => Err(ClientError::Server { code, message }),
        }
    }

    /// Sends one raw line and returns the raw response line — the
    /// pass-through mode `bfl client` uses.
    ///
    /// # Errors
    ///
    /// Transport failures; a server-side error still comes back as the
    /// raw error line.
    pub fn round_trip(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Reads one response line for request `id` and returns its parsed
    /// result document.
    fn read_frame(&mut self, id: u64) -> Result<Json, ClientError> {
        let mut raw = String::new();
        let n = self.reader.read_line(&mut raw)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection mid-stream".to_string(),
            ));
        }
        let response = Response::parse(raw.trim_end()).map_err(ClientError::Protocol)?;
        if response.id != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id {:?} does not match request id {id}",
                response.id
            )));
        }
        match response.body {
            ResponseBody::Result(result) => {
                Json::parse(&result).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            ResponseBody::Error { code, message } => Err(ClientError::Server { code, message }),
        }
    }

    /// Sends a `stream:true` operation and reassembles its
    /// `begin`/`chunk`/`end` frames back into the full result document.
    /// A server that answers with a plain structured error (unknown
    /// session, busy, …) surfaces it as [`ClientError::Server`] exactly
    /// like an unstreamed request.
    fn streamed_request(&mut self, op: Op) -> Result<Json, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let line = Request::with_id(id, op).to_json_line();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let begin = self.read_frame(id)?;
        if begin.get("stream").and_then(Json::as_str) != Some("begin") {
            return Err(ClientError::Protocol(
                "expected a `begin` stream frame".to_string(),
            ));
        }
        let chunks = begin.get("chunks").and_then(Json::as_u64).ok_or_else(|| {
            ClientError::Protocol("`begin` frame lacks a `chunks` count".to_string())
        })?;
        let bytes = begin.get("bytes").and_then(Json::as_u64).unwrap_or(0);
        let mut doc = String::with_capacity(bytes as usize);
        for seq in 1..=chunks {
            let frame = self.read_frame(id)?;
            if frame.get("stream").and_then(Json::as_str) != Some("chunk")
                || frame.get("seq").and_then(Json::as_u64) != Some(seq)
            {
                return Err(ClientError::Protocol(format!(
                    "expected stream chunk {seq} of {chunks}"
                )));
            }
            let part = frame.get("part").and_then(Json::as_str).ok_or_else(|| {
                ClientError::Protocol("stream chunk lacks a `part` string".to_string())
            })?;
            doc.push_str(part);
        }
        let end = self.read_frame(id)?;
        if end.get("stream").and_then(Json::as_str) != Some("end") {
            return Err(ClientError::Protocol(
                "expected an `end` stream frame".to_string(),
            ));
        }
        if doc.len() as u64 != bytes {
            return Err(ClientError::Protocol(format!(
                "stream delivered {} bytes but `begin` announced {bytes}",
                doc.len()
            )));
        }
        Json::parse(&doc).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Convenience wrappers (one method per op).
    // ------------------------------------------------------------------

    /// Loads a Galileo model with default options; returns the session
    /// id.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn load(&mut self, model: &str) -> Result<String, ClientError> {
        self.load_with(model, SessionOptions::default())
    }

    /// Loads a Galileo model with explicit session options; returns the
    /// session id.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn load_with(
        &mut self,
        model: &str,
        options: SessionOptions,
    ) -> Result<String, ClientError> {
        let result = self.request(Op::Load {
            model: model.to_string(),
            options,
        })?;
        field_str(&result, "session")
    }

    /// Compiles a query; returns the plan id.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn prepare(&mut self, session: &str, query: &str) -> Result<String, ClientError> {
        let result = self.request(Op::Prepare {
            session: session.to_string(),
            query: query.to_string(),
        })?;
        field_str(&result, "plan")
    }

    /// Evaluates a spec text; returns the report document.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn check(&mut self, session: &str, query: &str) -> Result<Json, ClientError> {
        self.request(Op::Check {
            session: session.to_string(),
            query: query.to_string(),
        })
    }

    /// Evaluates a plan under a scenario; returns the outcome document.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn eval(&mut self, session: &str, plan: &str, scenario: &str) -> Result<Json, ClientError> {
        self.request(Op::Eval {
            session: session.to_string(),
            plan: plan.to_string(),
            scenario: scenario.to_string(),
        })
    }

    /// Sweeps a plan over a scenario-set text; returns the sweep report.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn sweep(
        &mut self,
        session: &str,
        plan: &str,
        scenarios: &str,
    ) -> Result<Json, ClientError> {
        self.request(Op::Sweep {
            session: session.to_string(),
            plan: plan.to_string(),
            scenarios: scenarios.to_string(),
            stream: false,
        })
    }

    /// Like [`Client::sweep`], but asks the server to deliver the
    /// report as `begin`/`chunk`/`end` stream frames and reassembles
    /// them; the parsed document is byte-identical to the unstreamed
    /// one. Use for sweeps whose reports run to many megabytes.
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus [`ClientError::Protocol`] when the
    /// stream framing is malformed.
    pub fn sweep_streamed(
        &mut self,
        session: &str,
        plan: &str,
        scenarios: &str,
    ) -> Result<Json, ClientError> {
        self.streamed_request(Op::Sweep {
            session: session.to_string(),
            plan: plan.to_string(),
            scenarios: scenarios.to_string(),
            stream: true,
        })
    }

    /// Actual causes of a `cause(ϕ, evidence)` plan under a scenario
    /// (extra observational evidence; empty = the plan's own evidence
    /// only); returns the outcome document — the `causes` field carries
    /// the observation, the cause sets and their repair witnesses.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn cause(
        &mut self,
        session: &str,
        plan: &str,
        scenario: &str,
    ) -> Result<Json, ClientError> {
        self.request(Op::Cause {
            session: session.to_string(),
            plan: plan.to_string(),
            scenario: scenario.to_string(),
            stream: false,
        })
    }

    /// Like [`Client::cause`], but streamed — see
    /// [`Client::sweep_streamed`].
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus [`ClientError::Protocol`] when the
    /// stream framing is malformed.
    pub fn cause_streamed(
        &mut self,
        session: &str,
        plan: &str,
        scenario: &str,
    ) -> Result<Json, ClientError> {
        self.streamed_request(Op::Cause {
            session: session.to_string(),
            plan: plan.to_string(),
            scenario: scenario.to_string(),
            stream: true,
        })
    }

    /// `P(plan | scenario)` on the compiled diagram; `None` when the
    /// condition has probability zero.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn prob_plan(
        &mut self,
        session: &str,
        plan: &str,
        scenario: Option<&str>,
    ) -> Result<Option<f64>, ClientError> {
        let result = self.prob_plan_with(session, plan, scenario, ProbOptions::default())?;
        Ok(result.get("probability").and_then(Json::as_f64))
    }

    /// `P(plan | scenario)` with explicit method options; returns the
    /// full result document (`probability`, or `interval`/`estimate`
    /// plus `method` under the non-exact methods).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn prob_plan_with(
        &mut self,
        session: &str,
        plan: &str,
        scenario: Option<&str>,
        options: ProbOptions,
    ) -> Result<Json, ClientError> {
        self.request(Op::Prob {
            session: session.to_string(),
            target: ProbTarget::Plan {
                plan: plan.to_string(),
                scenario: scenario.map(str::to_string),
            },
            options,
        })
    }

    /// `P(formula [ | given])` through the session; `None` when the
    /// condition has probability zero.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn prob_formula(
        &mut self,
        session: &str,
        formula: &str,
        given: Option<&str>,
    ) -> Result<Option<f64>, ClientError> {
        let result = self.prob_formula_with(session, formula, given, ProbOptions::default())?;
        Ok(result.get("probability").and_then(Json::as_f64))
    }

    /// `P(formula [ | given])` with explicit method options; returns the
    /// full result document (`probability`, or `interval`/`estimate`
    /// plus `method` under the non-exact methods).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn prob_formula_with(
        &mut self,
        session: &str,
        formula: &str,
        given: Option<&str>,
        options: ProbOptions,
    ) -> Result<Json, ClientError> {
        self.request(Op::Prob {
            session: session.to_string(),
            target: ProbTarget::Formula {
                formula: formula.to_string(),
                given: given.map(str::to_string),
            },
            options,
        })
    }

    /// The ranked importance table for a formula.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn importance(&mut self, session: &str, formula: &str) -> Result<Json, ClientError> {
        self.request(Op::Importance {
            session: session.to_string(),
            formula: formula.to_string(),
        })
    }

    /// The compiled plan document of a prepared query.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn explain(&mut self, session: &str, plan: &str) -> Result<Json, ClientError> {
        self.request(Op::Explain {
            session: session.to_string(),
            plan: plan.to_string(),
        })
    }

    /// Server-wide (`None`) or per-session statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self, session: Option<&str>) -> Result<Json, ClientError> {
        self.request(Op::Stats {
            session: session.map(str::to_string),
        })
    }

    /// Lints a session's model — and, when `spec` is given, the spec
    /// against the model — returning typed diagnostics.
    ///
    /// The server answers with the canonical lint document
    /// ([`bfl_core::lint::to_json`]); this method parses its
    /// `diagnostics` array back into [`bfl_core::lint::Diagnostic`]
    /// values, so the round trip is exact by construction.
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus [`ClientError::Protocol`] when the
    /// response does not carry a well-formed lint document.
    pub fn lint(
        &mut self,
        session: &str,
        spec: Option<&str>,
    ) -> Result<Vec<bfl_core::lint::Diagnostic>, ClientError> {
        let doc = self.request(Op::Lint {
            session: session.to_string(),
            spec: spec.map(str::to_string),
        })?;
        let items = doc
            .get("lint")
            .and_then(|l| l.get("diagnostics"))
            .and_then(Json::as_array)
            .ok_or_else(|| {
                ClientError::Protocol("response lacks a `lint.diagnostics` array".to_string())
            })?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let severity = item
                .get("severity")
                .and_then(Json::as_str)
                .and_then(bfl_core::lint::Severity::parse)
                .ok_or_else(|| {
                    ClientError::Protocol("diagnostic lacks a valid `severity`".to_string())
                })?;
            let text = |name: &str| field_str(item, name);
            let opt = |name: &str| item.get(name).and_then(Json::as_str).map(str::to_string);
            out.push(bfl_core::lint::Diagnostic {
                code: text("code")?,
                severity,
                subject: text("subject")?,
                message: text("message")?,
                suggestion: opt("suggestion"),
                location: opt("location"),
            });
        }
        Ok(out)
    }

    /// Drops a session.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn unload(&mut self, session: &str) -> Result<Json, ClientError> {
        self.request(Op::Unload {
            session: session.to_string(),
        })
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(Op::Shutdown).map(|_| ())
    }
}

fn field_str(doc: &Json, name: &str) -> Result<String, ClientError> {
    doc.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ClientError::Protocol(format!("response lacks a `{name}` string field")))
}
