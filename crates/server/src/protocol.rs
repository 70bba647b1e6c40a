//! The `bfl-server` wire protocol: line-oriented JSON messages.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry an optional numeric `"id"`
//! that the response echoes, so clients may pipeline. The full message
//! reference (with a `netcat` transcript) lives in `docs/server.md`;
//! the type-level summary:
//!
//! ```text
//! {"id":1,"op":"load","model":"toplevel T;\n..."}      -> session id
//! {"id":2,"op":"prepare","session":"s1","query":"..."} -> plan id
//! {"id":3,"op":"eval","session":"s1","plan":"p1","scenario":"IW = 1"}
//! {"id":4,"op":"sweep","session":"s1","plan":"p1","scenarios":"..."}
//! {"id":4,"op":"cause","session":"s1","plan":"p1","scenario":"IW = 1"}
//! {"id":5,"op":"check","session":"s1","query":"P1: forall IS => MoT"}
//! {"id":6,"op":"prob","session":"s1","formula":"IWoS","given":"H1"}
//!            (+ optional "method":"exact|interval|mc", "samples",
//!               "seed", "confidence" — the uncertainty engine)
//! {"id":7,"op":"importance","session":"s1","formula":"IWoS"}
//! {"id":8,"op":"explain","session":"s1","plan":"p1"}
//! {"id":9,"op":"stats","session":"s1"}   (session optional)
//! {"id":10,"op":"unload","session":"s1"}
//! {"id":11,"op":"shutdown"}
//! ```
//!
//! Responses are `{"id":N,"ok":true,"result":…}` or
//! `{"id":N,"ok":false,"error":{"code":"…","message":"…"}}`.
//!
//! Serialisation is **canonical**: fixed field order, compact rendering,
//! report-style string escaping. The protocol suite asserts that
//! `serialize → parse → serialize` reproduces every message
//! byte-identically.

use std::fmt;

use bfl_core::report::json_str;
use bfl_core::uncertainty::{Method, DEFAULT_MC_CONFIDENCE, DEFAULT_MC_SAMPLES, DEFAULT_MC_SEED};
use bfl_core::MinimalityScope;
use bfl_fault_tree::VariableOrdering;

use crate::json::Json;

/// Machine-readable error classes, carried in the `"code"` field of an
/// error response. `docs/server.md` documents when each is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The line is not a well-formed protocol request (bad JSON, no
    /// object, bad `id`).
    ParseError,
    /// The `"op"` field is missing or names no known operation.
    UnknownOp,
    /// A field the operation requires is absent.
    MissingField,
    /// A field is present but malformed (wrong type, unknown enum name).
    BadField,
    /// The named session is not (or no longer) loaded.
    UnknownSession,
    /// The named plan does not exist in the session.
    UnknownPlan,
    /// The Galileo model failed to parse or validate.
    ModelError,
    /// The BFL query/formula/spec/scenario text failed to parse.
    QueryError,
    /// Evaluation failed (unknown element, missing probabilities, …).
    EvalError,
    /// The bounded request queue is full — back off and retry.
    Busy,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// The request line exceeded the configured size limit.
    Oversized,
    /// The server is at its connection limit; the connection is closed
    /// after this response.
    Overloaded,
    /// The connection was idle past the configured timeout and is being
    /// closed after this response.
    IdleTimeout,
    /// An engine invariant was violated; the connection survives.
    Internal,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::BadField => "bad_field",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::UnknownPlan => "unknown_plan",
            ErrorCode::ModelError => "model_error",
            ErrorCode::QueryError => "query_error",
            ErrorCode::EvalError => "eval_error",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name back into a code.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "parse_error" => ErrorCode::ParseError,
            "unknown_op" => ErrorCode::UnknownOp,
            "missing_field" => ErrorCode::MissingField,
            "bad_field" => ErrorCode::BadField,
            "unknown_session" => ErrorCode::UnknownSession,
            "unknown_plan" => ErrorCode::UnknownPlan,
            "model_error" => ErrorCode::ModelError,
            "query_error" => ErrorCode::QueryError,
            "eval_error" => ErrorCode::EvalError,
            "busy" => ErrorCode::Busy,
            "shutting_down" => ErrorCode::ShuttingDown,
            "oversized" => ErrorCode::Oversized,
            "overloaded" => ErrorCode::Overloaded,
            "idle_timeout" => ErrorCode::IdleTimeout,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request-shaped failure: the (best-effort) request id plus the code
/// and message that will be sent back.
pub type RequestError = (Option<u64>, ErrorCode, String);

/// Session configuration carried by a `load` request; every knob is
/// optional and defaults to the [`SessionBuilder`] default.
///
/// [`SessionBuilder`]: bfl_core::engine::SessionBuilder
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionOptions {
    /// BDD variable ordering: `dfs` or `declaration`.
    pub ordering: Option<VariableOrdering>,
    /// Minimality scope: `global` or `support`.
    pub scope: Option<MinimalityScope>,
    /// Witness/counterexample cap per outcome.
    pub witness_limit: Option<u64>,
}

/// The probability target of a `prob` request: a compiled plan under a
/// scenario, or an ad-hoc (conditional) formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbTarget {
    /// `P(plan | scenario)` on the compiled diagram.
    Plan {
        /// The plan id.
        plan: String,
        /// Scenario bindings (`A = 1, B = 0`), empty/absent = baseline.
        scenario: Option<String>,
    },
    /// `P(formula [ | given])` through the session.
    Formula {
        /// The formula.
        formula: String,
        /// Optional conditioning formula.
        given: Option<String>,
    },
}

/// Method selection of a `prob` request; every field is optional and
/// the exact wire presence is preserved (canonical serialisation emits
/// exactly the fields that were sent, in `method`, `samples`, `seed`,
/// `confidence` order). [`ProbOptions::resolve`] combines them into a
/// typed [`Method`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbOptions {
    /// `exact`, `interval` or `mc`; validated at parse time.
    pub method: Option<String>,
    /// `mc`: status vectors to draw.
    pub samples: Option<u64>,
    /// `mc`: base seed; equal `(seed, samples)` reproduce the estimate
    /// bit-for-bit regardless of worker count.
    pub seed: Option<u64>,
    /// `mc`: Wilson confidence level in `(0, 1)`.
    pub confidence: Option<f64>,
}

impl ProbOptions {
    /// Whether any method field was sent at all.
    pub fn is_default(&self) -> bool {
        *self == ProbOptions::default()
    }

    /// Combines the fields into a [`Method`] override (`None` = use the
    /// session default). Sampler fields alone imply `mc`; combined with
    /// an explicit non-`mc` method they are an error.
    ///
    /// # Errors
    ///
    /// A message naming the unknown method or the invalid combination.
    pub fn resolve(&self) -> Result<Option<Method>, String> {
        let sampler = self.samples.is_some() || self.seed.is_some() || self.confidence.is_some();
        let method = match self.method.as_deref() {
            Some(name) => Some(name.parse::<Method>()?),
            None if sampler => Some(Method::mc()),
            None => None,
        };
        match method {
            Some(Method::Mc { .. }) => Ok(Some(Method::Mc {
                samples: self.samples.unwrap_or(DEFAULT_MC_SAMPLES),
                seed: self.seed.unwrap_or(DEFAULT_MC_SEED),
                confidence: self.confidence.unwrap_or(DEFAULT_MC_CONFIDENCE),
            })),
            Some(other) if sampler => Err(format!(
                "`samples`/`seed`/`confidence` apply to method `mc`, not `{other}`"
            )),
            other => Ok(other),
        }
    }
}

/// One protocol operation (the `"op"` field plus its arguments).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Parse a Galileo model and open an [`AnalysisSession`] for it.
    ///
    /// [`AnalysisSession`]: bfl_core::engine::AnalysisSession
    Load {
        /// Galileo source text.
        model: String,
        /// Session configuration.
        options: SessionOptions,
    },
    /// Compile a layer-2 query into a shared `PreparedQuery`.
    Prepare {
        /// Session id.
        session: String,
        /// BFL query source.
        query: String,
    },
    /// Evaluate a spec (one or many lines) through the session.
    Check {
        /// Session id.
        session: String,
        /// Spec text (`label: query` lines, `[A,B] formula` vectors).
        query: String,
    },
    /// Evaluate a compiled plan under one scenario.
    Eval {
        /// Session id.
        session: String,
        /// Plan id.
        plan: String,
        /// Scenario bindings (`A = 1, B = 0`); empty = baseline.
        scenario: String,
    },
    /// Actual causes of a compiled `cause(ϕ, evidence)` plan under one
    /// scenario (extra observational evidence).
    Cause {
        /// Session id.
        session: String,
        /// Plan id (must be a cause plan).
        plan: String,
        /// Scenario bindings (`A = 1, B = 0`); empty = the plan's own
        /// evidence only.
        scenario: String,
        /// Deliver the result as `begin`/`chunk`/`end` stream frames
        /// instead of one response line.
        stream: bool,
    },
    /// Sweep a compiled plan over a scenario-set text.
    Sweep {
        /// Session id.
        session: String,
        /// Plan id.
        plan: String,
        /// Scenario file text (one scenario per line).
        scenarios: String,
        /// Deliver the result as `begin`/`chunk`/`end` stream frames
        /// instead of one response line.
        stream: bool,
    },
    /// Probability of a plan-under-scenario or an ad-hoc formula.
    Prob {
        /// Session id.
        session: String,
        /// What to take the probability of.
        target: ProbTarget,
        /// Method selection (`method`/`samples`/`seed`/`confidence`);
        /// all-absent = the session default.
        options: ProbOptions,
    },
    /// Rank every basic event by quantitative importance.
    Importance {
        /// Session id.
        session: String,
        /// The formula to rank against.
        formula: String,
    },
    /// The compiled plan of a prepared query.
    Explain {
        /// Session id.
        session: String,
        /// Plan id.
        plan: String,
    },
    /// Server-wide (no session) or per-session statistics.
    Stats {
        /// Session id; absent = server-wide.
        session: Option<String>,
    },
    /// Lint the session's model (and optionally a spec) for defects.
    Lint {
        /// Session id.
        session: String,
        /// Spec source to lint against the model; absent = model only.
        spec: Option<String>,
    },
    /// Drop a session (in-flight queries holding it complete safely).
    Unload {
        /// Session id.
        session: String,
    },
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

impl Op {
    /// The session the operation targets, when it targets one.
    pub fn session_id(&self) -> Option<&str> {
        match self {
            Op::Load { .. } | Op::Shutdown => None,
            Op::Stats { session } => session.as_deref(),
            Op::Prepare { session, .. }
            | Op::Check { session, .. }
            | Op::Eval { session, .. }
            | Op::Cause { session, .. }
            | Op::Sweep { session, .. }
            | Op::Prob { session, .. }
            | Op::Importance { session, .. }
            | Op::Explain { session, .. }
            | Op::Lint { session, .. }
            | Op::Unload { session } => Some(session),
        }
    }

    /// The wire name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Load { .. } => "load",
            Op::Prepare { .. } => "prepare",
            Op::Check { .. } => "check",
            Op::Eval { .. } => "eval",
            Op::Cause { .. } => "cause",
            Op::Sweep { .. } => "sweep",
            Op::Prob { .. } => "prob",
            Op::Importance { .. } => "importance",
            Op::Explain { .. } => "explain",
            Op::Stats { .. } => "stats",
            Op::Lint { .. } => "lint",
            Op::Unload { .. } => "unload",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One protocol request: optional id plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response, when present.
    pub id: Option<u64>,
    /// The operation.
    pub op: Op,
}

impl Request {
    /// Wraps an operation without an id.
    pub fn new(op: Op) -> Request {
        Request { id: None, op }
    }

    /// Wraps an operation with an id.
    pub fn with_id(id: u64, op: Op) -> Request {
        Request { id: Some(id), op }
    }

    /// Canonical one-line serialisation (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = self.id {
            out.push_str(&format!("\"id\":{id},"));
        }
        out.push_str(&format!("\"op\":{}", json_str(self.op.name())));
        fn field(out: &mut String, name: &str, value: &str) {
            out.push_str(&format!(",{}:{}", json_str(name), json_str(value)));
        }
        match &self.op {
            Op::Load { model, options } => {
                field(&mut out, "model", model);
                if let Some(o) = options.ordering {
                    field(&mut out, "ordering", ordering_name(o));
                }
                if let Some(s) = options.scope {
                    field(&mut out, "scope", scope_name(s));
                }
                if let Some(w) = options.witness_limit {
                    out.push_str(&format!(",\"witness_limit\":{w}"));
                }
            }
            Op::Prepare { session, query } | Op::Check { session, query } => {
                field(&mut out, "session", session);
                field(&mut out, "query", query);
            }
            Op::Eval {
                session,
                plan,
                scenario,
            } => {
                field(&mut out, "session", session);
                field(&mut out, "plan", plan);
                field(&mut out, "scenario", scenario);
            }
            Op::Cause {
                session,
                plan,
                scenario,
                stream,
            } => {
                field(&mut out, "session", session);
                field(&mut out, "plan", plan);
                field(&mut out, "scenario", scenario);
                // Canonical form omits the default, so pre-streaming
                // request lines round-trip byte-identically.
                if *stream {
                    out.push_str(",\"stream\":true");
                }
            }
            Op::Sweep {
                session,
                plan,
                scenarios,
                stream,
            } => {
                field(&mut out, "session", session);
                field(&mut out, "plan", plan);
                field(&mut out, "scenarios", scenarios);
                if *stream {
                    out.push_str(",\"stream\":true");
                }
            }
            Op::Prob {
                session,
                target,
                options,
            } => {
                field(&mut out, "session", session);
                match target {
                    ProbTarget::Plan { plan, scenario } => {
                        field(&mut out, "plan", plan);
                        if let Some(s) = scenario {
                            field(&mut out, "scenario", s);
                        }
                    }
                    ProbTarget::Formula { formula, given } => {
                        field(&mut out, "formula", formula);
                        if let Some(g) = given {
                            field(&mut out, "given", g);
                        }
                    }
                }
                if let Some(m) = &options.method {
                    field(&mut out, "method", m);
                }
                if let Some(n) = options.samples {
                    out.push_str(&format!(",\"samples\":{n}"));
                }
                if let Some(n) = options.seed {
                    out.push_str(&format!(",\"seed\":{n}"));
                }
                if let Some(c) = options.confidence {
                    out.push_str(&format!(",\"confidence\":{c}"));
                }
            }
            Op::Importance { session, formula } => {
                field(&mut out, "session", session);
                field(&mut out, "formula", formula);
            }
            Op::Explain { session, plan } => {
                field(&mut out, "session", session);
                field(&mut out, "plan", plan);
            }
            Op::Stats { session } => {
                if let Some(s) = session {
                    field(&mut out, "session", s);
                }
            }
            Op::Unload { session } => {
                field(&mut out, "session", session);
            }
            Op::Lint { session, spec } => {
                field(&mut out, "session", session);
                if let Some(s) = spec {
                    field(&mut out, "spec", s);
                }
            }
            Op::Shutdown => {}
        }
        out.push('}');
        out
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A [`RequestError`] carrying the request id when it could be
    /// extracted (so the error response still correlates), the error
    /// code and a message.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let mut doc = Json::parse(line)
            .map_err(|e| (None, ErrorCode::ParseError, format!("invalid JSON: {e}")))?;
        if !matches!(doc, Json::Object(_)) {
            return Err((
                None,
                ErrorCode::ParseError,
                "request must be a JSON object".to_string(),
            ));
        }
        // A `load` model is the whole Galileo text: move it out of the
        // document instead of cloning it. Only `load` reads the field.
        let model = doc.take_str("model");
        let id = match doc.get("id") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or((
                None,
                ErrorCode::ParseError,
                "`id` must be a non-negative integer".to_string(),
            ))?),
        };
        let fail = |code: ErrorCode, message: String| (id, code, message);
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(ErrorCode::UnknownOp, "missing `op` field".to_string()))?;
        let required = |name: &str| -> Result<String, RequestError> {
            match doc.get(name) {
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(_) => Err(fail(
                    ErrorCode::BadField,
                    format!("`{name}` must be a string"),
                )),
                None => Err(fail(
                    ErrorCode::MissingField,
                    format!("`{op_name}` requires a `{name}` field"),
                )),
            }
        };
        let optional = |name: &str| -> Result<Option<String>, RequestError> {
            match doc.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(fail(
                    ErrorCode::BadField,
                    format!("`{name}` must be a string"),
                )),
            }
        };
        let op = match op_name {
            "load" => {
                let model = match model {
                    Some(model) => model,
                    None => required("model")?,
                };
                let options = SessionOptions {
                    ordering: optional("ordering")?
                        .map(|s| {
                            parse_ordering(&s).ok_or_else(|| {
                                fail(ErrorCode::BadField, format!("unknown ordering `{s}`"))
                            })
                        })
                        .transpose()?,
                    scope: optional("scope")?
                        .map(|s| {
                            parse_scope(&s).ok_or_else(|| {
                                fail(ErrorCode::BadField, format!("unknown scope `{s}`"))
                            })
                        })
                        .transpose()?,
                    witness_limit: match doc.get("witness_limit") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            fail(
                                ErrorCode::BadField,
                                "`witness_limit` must be a non-negative integer".to_string(),
                            )
                        })?),
                    },
                };
                Op::Load { model, options }
            }
            "prepare" => Op::Prepare {
                session: required("session")?,
                query: required("query")?,
            },
            "check" => Op::Check {
                session: required("session")?,
                query: required("query")?,
            },
            "eval" => Op::Eval {
                session: required("session")?,
                plan: required("plan")?,
                scenario: optional("scenario")?.unwrap_or_default(),
            },
            "cause" => Op::Cause {
                session: required("session")?,
                plan: required("plan")?,
                scenario: optional("scenario")?.unwrap_or_default(),
                stream: bool_field(&doc, "stream", &fail)?,
            },
            "sweep" => Op::Sweep {
                session: required("session")?,
                plan: required("plan")?,
                scenarios: required("scenarios")?,
                stream: bool_field(&doc, "stream", &fail)?,
            },
            "prob" => {
                let session = required("session")?;
                let target = match (optional("plan")?, optional("formula")?) {
                    (Some(plan), None) => ProbTarget::Plan {
                        plan,
                        scenario: optional("scenario")?,
                    },
                    (None, Some(formula)) => ProbTarget::Formula {
                        formula,
                        given: optional("given")?,
                    },
                    (Some(_), Some(_)) => {
                        return Err(fail(
                            ErrorCode::BadField,
                            "`prob` takes `plan` or `formula`, not both".to_string(),
                        ))
                    }
                    (None, None) => {
                        return Err(fail(
                            ErrorCode::MissingField,
                            "`prob` requires a `plan` or a `formula` field".to_string(),
                        ))
                    }
                };
                let u64_field = |name: &str| -> Result<Option<u64>, RequestError> {
                    match doc.get(name) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => Ok(Some(v.as_u64().ok_or_else(|| {
                            fail(
                                ErrorCode::BadField,
                                format!("`{name}` must be a non-negative integer"),
                            )
                        })?)),
                    }
                };
                let options = ProbOptions {
                    method: match optional("method")? {
                        Some(name) => {
                            // Validate eagerly: a malformed method is a
                            // structured bad_field, with the core
                            // parser's message.
                            name.parse::<Method>()
                                .map_err(|e| fail(ErrorCode::BadField, e))?;
                            Some(name)
                        }
                        None => None,
                    },
                    samples: u64_field("samples")?,
                    seed: u64_field("seed")?,
                    confidence: match doc.get("confidence") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.as_f64().ok_or_else(|| {
                            fail(
                                ErrorCode::BadField,
                                "`confidence` must be a number".to_string(),
                            )
                        })?),
                    },
                };
                // Reject invalid combinations at the protocol boundary
                // so they never reach a worker.
                options
                    .resolve()
                    .map_err(|e| fail(ErrorCode::BadField, e))?;
                Op::Prob {
                    session,
                    target,
                    options,
                }
            }
            "importance" => Op::Importance {
                session: required("session")?,
                formula: required("formula")?,
            },
            "explain" => Op::Explain {
                session: required("session")?,
                plan: required("plan")?,
            },
            "stats" => Op::Stats {
                session: optional("session")?,
            },
            "lint" => Op::Lint {
                session: required("session")?,
                spec: optional("spec")?,
            },
            "unload" => Op::Unload {
                session: required("session")?,
            },
            "shutdown" => Op::Shutdown,
            other => {
                return Err(fail(
                    ErrorCode::UnknownOp,
                    format!("unknown operation `{other}`"),
                ))
            }
        };
        Ok(Request { id, op })
    }
}

/// One protocol response: the echoed id plus a result document or a
/// structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id, echoed.
    pub id: Option<u64>,
    /// Result or error.
    pub body: ResponseBody,
}

/// The two response shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Success; the payload is a pre-rendered JSON document.
    Result(String),
    /// Failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// A success response around a pre-rendered JSON payload.
    pub fn ok(id: Option<u64>, result: impl Into<String>) -> Response {
        Response {
            id,
            body: ResponseBody::Result(result.into()),
        }
    }

    /// An error response.
    pub fn error(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> Response {
        Response {
            id,
            body: ResponseBody::Error {
                code,
                message: message.into(),
            },
        }
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        matches!(self.body, ResponseBody::Result(_))
    }

    /// Canonical one-line serialisation (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = self.id {
            out.push_str(&format!("\"id\":{id},"));
        }
        match &self.body {
            ResponseBody::Result(result) => {
                out.push_str(&format!("\"ok\":true,\"result\":{result}"));
            }
            ResponseBody::Error { code, message } => {
                out.push_str(&format!(
                    "\"ok\":false,\"error\":{{\"code\":{},\"message\":{}}}",
                    json_str(code.as_str()),
                    json_str(message)
                ));
            }
        }
        out.push('}');
        out
    }

    /// Parses one response line (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// A description of the malformation.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if !matches!(doc, Json::Object(_)) {
            return Err("response must be a JSON object".to_string());
        }
        let id = match doc.get("id") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "`id` must be a non-negative integer".to_string())?,
            ),
        };
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "missing Boolean `ok` field".to_string())?;
        if ok {
            let result = doc
                .get("result")
                .ok_or_else(|| "missing `result` field".to_string())?;
            Ok(Response::ok(id, result.to_string()))
        } else {
            let error = doc
                .get("error")
                .ok_or_else(|| "missing `error` field".to_string())?;
            let code_name = error
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| "missing `error.code` field".to_string())?;
            let code = ErrorCode::parse(code_name)
                .ok_or_else(|| format!("unknown error code `{code_name}`"))?;
            let message = error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            Ok(Response::error(id, code, message))
        }
    }
}

// ---------------------------------------------------------------------------
// Parse helpers.
// ---------------------------------------------------------------------------

/// Parses an optional Boolean request field; absent/`null` = `false`.
fn bool_field(
    doc: &Json,
    name: &str,
    fail: &impl Fn(ErrorCode, String) -> RequestError,
) -> Result<bool, RequestError> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(fail(
            ErrorCode::BadField,
            format!("`{name}` must be a Boolean"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Enum-name tables (wire names for the session knobs).
// ---------------------------------------------------------------------------

pub(crate) fn ordering_name(o: VariableOrdering) -> &'static str {
    match o {
        VariableOrdering::DfsPreorder => "dfs",
        VariableOrdering::Declaration => "declaration",
        // `VariableOrdering` is non_exhaustive; new orderings must be
        // added to the wire tables before the protocol can carry them.
        _ => "dfs",
    }
}

pub(crate) fn parse_ordering(name: &str) -> Option<VariableOrdering> {
    Some(match name {
        "dfs" => VariableOrdering::DfsPreorder,
        "declaration" => VariableOrdering::Declaration,
        _ => return None,
    })
}

pub(crate) fn scope_name(s: MinimalityScope) -> &'static str {
    match s {
        MinimalityScope::GlobalUniverse => "global",
        MinimalityScope::FormulaSupport => "support",
    }
}

pub(crate) fn parse_scope(name: &str) -> Option<MinimalityScope> {
    Some(match name {
        "global" => MinimalityScope::GlobalUniverse,
        "support" => MinimalityScope::FormulaSupport,
        _ => return None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn request_parse_extracts_id_even_on_bad_op() {
        let err = Request::parse(r#"{"id":7,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.0, Some(7));
        assert_eq!(err.1, ErrorCode::UnknownOp);
    }

    #[test]
    fn missing_and_bad_fields_are_distinguished() {
        let err = Request::parse(r#"{"op":"prepare","session":"s1"}"#).unwrap_err();
        assert_eq!(err.1, ErrorCode::MissingField);
        let err = Request::parse(r#"{"op":"prepare","session":1,"query":"q"}"#).unwrap_err();
        assert_eq!(err.1, ErrorCode::BadField);
        // `load` moves its model out of the document; a missing or
        // non-string model still gets the field's own error.
        let err = Request::parse(r#"{"op":"load","witness_limit":3}"#).unwrap_err();
        assert_eq!(
            (err.1, err.2.as_str()),
            (ErrorCode::MissingField, "`load` requires a `model` field")
        );
        let err = Request::parse(r#"{"op":"load","model":["toplevel T;"]}"#).unwrap_err();
        assert_eq!(
            (err.1, err.2.as_str()),
            (ErrorCode::BadField, "`model` must be a string")
        );
    }

    #[test]
    fn prob_requires_exactly_one_target() {
        let err = Request::parse(r#"{"op":"prob","session":"s1"}"#).unwrap_err();
        assert_eq!(err.1, ErrorCode::MissingField);
        let err = Request::parse(r#"{"op":"prob","session":"s1","plan":"p1","formula":"T"}"#)
            .unwrap_err();
        assert_eq!(err.1, ErrorCode::BadField);
    }

    #[test]
    fn load_options_round_trip_typed() {
        let line = r#"{"op":"load","model":"toplevel T;","ordering":"declaration","scope":"support","witness_limit":5}"#;
        let req = Request::parse(line).unwrap();
        let Op::Load { options, .. } = &req.op else {
            panic!("{req:?}");
        };
        assert_eq!(options.ordering, Some(VariableOrdering::Declaration));
        assert_eq!(options.scope, Some(MinimalityScope::FormulaSupport));
        assert_eq!(options.witness_limit, Some(5));
        assert_eq!(req.to_json_line(), line);
        // A key `load` does not read, such as `backend`, `reorder` or
        // `gc`, is ignored.
        for key in ["backend", "reorder", "gc"] {
            let line = format!(r#"{{"op":"load","model":"m","{key}":"auto"}}"#);
            let req = Request::parse(&line).unwrap();
            assert_eq!(req.to_json_line(), r#"{"op":"load","model":"m"}"#);
        }
    }

    #[test]
    fn bad_enum_names_are_bad_field() {
        for line in [
            r#"{"op":"load","model":"m","ordering":"alphabetical"}"#,
            r#"{"op":"load","model":"m","scope":"galactic"}"#,
            r#"{"op":"load","model":"m","witness_limit":-1}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.1, ErrorCode::BadField, "{line}");
        }
    }

    #[test]
    fn cause_requests_round_trip() {
        let line = r#"{"id":4,"op":"cause","session":"s1","plan":"p1","scenario":"IW = 1"}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(
            req.op,
            Op::Cause {
                session: "s1".to_string(),
                plan: "p1".to_string(),
                scenario: "IW = 1".to_string(),
                stream: false,
            }
        );
        assert_eq!(req.op.session_id(), Some("s1"));
        assert_eq!(req.to_json_line(), line);
        // The scenario is optional (baseline = the plan's own evidence).
        let req = Request::parse(r#"{"op":"cause","session":"s1","plan":"p1"}"#).unwrap();
        let Op::Cause { scenario, .. } = &req.op else {
            panic!("{req:?}");
        };
        assert!(scenario.is_empty());
        let err = Request::parse(r#"{"op":"cause","session":"s1"}"#).unwrap_err();
        assert_eq!(err.1, ErrorCode::MissingField);
    }

    #[test]
    fn stream_flag_parses_and_round_trips() {
        // Absent / null / false all mean "one response line", and the
        // canonical form omits the field in every such case.
        for line in [
            r#"{"op":"sweep","session":"s1","plan":"p1","scenarios":"IW = 1"}"#,
            r#"{"op":"sweep","session":"s1","plan":"p1","scenarios":"IW = 1","stream":null}"#,
            r#"{"op":"sweep","session":"s1","plan":"p1","scenarios":"IW = 1","stream":false}"#,
        ] {
            let req = Request::parse(line).unwrap();
            let Op::Sweep { stream, .. } = &req.op else {
                panic!("{req:?}");
            };
            assert!(!stream, "{line}");
            assert_eq!(
                req.to_json_line(),
                r#"{"op":"sweep","session":"s1","plan":"p1","scenarios":"IW = 1"}"#
            );
        }
        let line =
            r#"{"id":6,"op":"cause","session":"s1","plan":"p1","scenario":"","stream":true}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(
            req.op,
            Op::Cause {
                session: "s1".to_string(),
                plan: "p1".to_string(),
                scenario: String::new(),
                stream: true,
            }
        );
        assert_eq!(req.to_json_line(), line);
        let err = Request::parse(
            r#"{"op":"sweep","session":"s1","plan":"p1","scenarios":"IW = 1","stream":"yes"}"#,
        )
        .unwrap_err();
        assert_eq!(err.1, ErrorCode::BadField);
    }

    #[test]
    fn lint_requests_round_trip() {
        let line = r#"{"id":9,"op":"lint","session":"s1","spec":"P1: exists T"}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(
            req.op,
            Op::Lint {
                session: "s1".to_string(),
                spec: Some("P1: exists T".to_string()),
            }
        );
        assert_eq!(req.op.session_id(), Some("s1"));
        assert_eq!(req.op.name(), "lint");
        assert_eq!(req.to_json_line(), line);
        // The spec is optional (model-only lint).
        let line = r#"{"op":"lint","session":"s1"}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(
            req.op,
            Op::Lint {
                session: "s1".to_string(),
                spec: None,
            }
        );
        assert_eq!(req.to_json_line(), line);
        let err = Request::parse(r#"{"op":"lint"}"#).unwrap_err();
        assert_eq!(err.1, ErrorCode::MissingField);
    }

    #[test]
    fn response_round_trips() {
        let ok = Response::ok(Some(3), r#"{"session":"s1"}"#);
        let line = ok.to_json_line();
        assert_eq!(line, r#"{"id":3,"ok":true,"result":{"session":"s1"}}"#);
        assert_eq!(Response::parse(&line).unwrap(), ok);
        let err = Response::error(None, ErrorCode::Busy, "queue full");
        let line = err.to_json_line();
        assert_eq!(Response::parse(&line).unwrap(), err);
        assert!(!err.is_ok());
    }

    #[test]
    fn unknown_error_codes_are_rejected_by_the_client_parser() {
        let line = r#"{"ok":false,"error":{"code":"weird","message":"?"}}"#;
        assert!(Response::parse(line).unwrap_err().contains("weird"));
    }

    #[test]
    fn session_id_targets_the_right_ops() {
        let targeted = Request::parse(r#"{"op":"eval","session":"s7","plan":"p1"}"#).unwrap();
        assert_eq!(targeted.op.session_id(), Some("s7"));
        let optional = Request::parse(r#"{"op":"stats","session":"s2"}"#).unwrap();
        assert_eq!(optional.op.session_id(), Some("s2"));
        let global = Request::parse(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(global.op.session_id(), None);
        let load = Request::parse(r#"{"op":"load","model":"toplevel T;"}"#).unwrap();
        assert_eq!(load.op.session_id(), None);
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#)
                .unwrap()
                .op
                .session_id(),
            None
        );
    }

    #[test]
    fn error_code_names_round_trip() {
        for code in [
            ErrorCode::ParseError,
            ErrorCode::UnknownOp,
            ErrorCode::MissingField,
            ErrorCode::BadField,
            ErrorCode::UnknownSession,
            ErrorCode::UnknownPlan,
            ErrorCode::ModelError,
            ErrorCode::QueryError,
            ErrorCode::EvalError,
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
            ErrorCode::Oversized,
            ErrorCode::Overloaded,
            ErrorCode::IdleTimeout,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
