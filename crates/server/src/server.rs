//! The concurrent analysis server: TCP acceptor, a fixed set of
//! connection *shards*, a fixed worker pool over a bounded job queue,
//! and the op handlers.
//!
//! ## Threading model
//!
//! * **acceptor** — one thread accepting connections, with exponential
//!   backoff on accept errors (EMFILE under fd exhaustion must cost
//!   sleeps, not a hot-spinning core) and a hard connection cap
//!   (excess connections get a structured `overloaded` error, never a
//!   silent drop);
//! * **shards** — `shards` threads, each owning a bounded set of
//!   *nonblocking* connections multiplexed by a readiness loop
//!   (the private `shard` module): read-accumulate lines → parse →
//!   answer a memo hit, or admit and enqueue → drain what is left in
//!   per-connection output buffers. Thread count is fixed regardless of
//!   connection count;
//! * **workers** — a fixed pool of `workers` threads popping jobs off
//!   one bounded [`BoundedQueue`]; all analysis runs here, over the
//!   shared [`Registry`], and each worker writes its response to the
//!   connection's socket itself, leaving to the shard only what the
//!   socket refuses.
//!
//! A request whose answer a plan has already memoised (an `eval`, an
//! unstreamed `cause`, an exact `prob`) is answered by the shard that
//! read it, when nothing is pending on the connection: it takes only the
//! plan's memo locks and never waits for a worker. It may therefore
//! overtake a miss queued earlier on the same connection, and it takes
//! no queue or session in-flight slot.
//!
//! Backpressure is explicit at every layer: a full queue answers
//! `busy`, a session past its in-flight cap answers `busy`, a server
//! past its connection cap answers `overloaded`, and a connection whose
//! client stops reading has its output buffer capped (workers stall
//! briefly, then the connection is declared dead). Graceful shutdown
//! (`shutdown` op or [`ServerHandle::shutdown`]) stops intake,
//! **drains** every job already accepted — no lost responses — and then
//! joins acceptor, workers and shards.
//!
//! ## Sharing
//!
//! Sessions and plans live in the [`Registry`] behind `Arc`s, so every
//! connection shares one `AnalysisSession` per model and one
//! `PreparedQuery` (with its scenario/probability memos) per plan id:
//! a scenario any connection has evaluated is a pure cache lookup for
//! all of them. A `--max-sessions` cap turns the registry into an LRU:
//! loading past the cap evicts the least-recently-used session
//! (counted in `stats`), safely — in-flight queries finish on their
//! own `Arc`.
//!
//! ## Streaming
//!
//! `sweep` and `cause` accept `"stream":true`: the (possibly huge)
//! result document is then delivered as bounded `begin`/`chunk`/`end`
//! frames sharing the request id, so one giant reply flows through the
//! per-connection output buffer in pieces instead of sitting in memory
//! whole — see [`docs/server.md`](https://example.invalid) for the
//! frame shapes.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use bfl_core::engine::AnalysisSession;
use bfl_core::error::BflError;
use bfl_core::report::{
    json_estimate, json_importance, json_interval, json_outcome, json_stats, json_str, Spec,
};
use bfl_core::scenario::{Scenario, ScenarioSet};
use bfl_core::uncertainty::{Method, ProbValue};
use bfl_core::PreparedQuery;
use bfl_fault_tree::galileo;

use crate::protocol::{ErrorCode, Op, ProbOptions, ProbTarget, Request, Response, SessionOptions};
use crate::queue::{BoundedQueue, TryPushError};
use crate::registry::{AdmissionGuard, Registry, SessionEntry};
use crate::shard::{
    shard_loop, AcceptBackoff, ConnOut, Handoff, ServeCounters, ShardInbox, ShardOptions,
    SHUTDOWN_DRAIN_GRACE,
};

/// Response bytes per streamed `chunk` frame (before JSON escaping).
const STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// Server configuration; every field has a serving-friendly default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads (analysis parallelism).
    pub workers: usize,
    /// Shard threads (connection multiplexing); thread count stays
    /// fixed no matter how many connections are open.
    pub shards: usize,
    /// Bounded request-queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Maximum accepted request-line length in bytes; longer lines
    /// answer `oversized` (and are discarded without buffering).
    pub max_line_bytes: usize,
    /// Maximum concurrently open connections; excess connections are
    /// answered with a structured `overloaded` error and closed.
    pub max_connections: usize,
    /// Resident-session cap (`None` = unbounded): loading past it
    /// evicts the least-recently-used session.
    pub max_sessions: Option<usize>,
    /// Per-session in-flight request cap (`None` = unbounded): a
    /// session at its cap answers `busy` at admission time.
    pub session_inflight: Option<usize>,
    /// Reap connections with no read activity and no pending work for
    /// this long (`None` = never): each gets a structured
    /// `idle_timeout` error before the close, counted in `stats`.
    pub idle_timeout: Option<Duration>,
    /// Per-connection output-buffer high-water mark in bytes: above it
    /// the shard stops reading from the connection and workers stall
    /// (bounded memory per slow client).
    pub write_high_water: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: parallelism,
            shards: parallelism.clamp(1, 4),
            queue_capacity: 64,
            max_line_bytes: 4 << 20,
            max_connections: 1024,
            max_sessions: None,
            session_inflight: None,
            idle_timeout: None,
            write_high_water: 8 << 20,
        }
    }
}

/// The acceptor's handle to one shard: where to drop accepted streams,
/// and which thread to wake afterwards.
#[derive(Debug, Clone)]
struct ShardLink {
    inbox: Arc<ShardInbox>,
    thread: Thread,
}

/// Shared state of one running server.
#[derive(Debug)]
pub(crate) struct Shared {
    registry: Registry,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    shard_count: usize,
    queue_capacity: usize,
    max_line_bytes: usize,
    max_connections: usize,
    session_inflight: Option<usize>,
    idle_timeout: Option<Duration>,
    counters: ServeCounters,
    /// Set once in [`Server::bind`] after the shards spawn, before the
    /// acceptor does; the acceptor and `begin_shutdown` read it.
    shards: OnceLock<Vec<ShardLink>>,
}

/// Holds one slot of a connection's in-flight count from enqueue to
/// response, so shards know when a connection has quiesced (safe to
/// close on EOF/shutdown) — released on drop, whatever path the job
/// takes.
#[derive(Debug)]
struct JobTicket {
    out: Arc<ConnOut>,
}

impl JobTicket {
    fn new(out: Arc<ConnOut>) -> JobTicket {
        out.job_started();
        JobTicket { out }
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        self.out.job_finished();
    }
}

/// One enqueued request.
#[derive(Debug)]
struct Job {
    id: Option<u64>,
    op: Op,
    out: Arc<ConnOut>,
    /// Connection in-flight accounting (drop = done); never read, held
    /// for its `Drop`.
    _ticket: JobTicket,
    /// Session in-flight slot, when admission control is on; held for
    /// its `Drop`.
    _admission: Option<AdmissionGuard>,
}

/// The server entry point.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds the listener and starts the acceptor, shard and worker
    /// threads. Returns immediately; use the handle to learn the bound
    /// address and to wait or shut down.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn bind(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: Registry::with_capacity(config.max_sessions),
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            shutdown: AtomicBool::new(false),
            addr,
            workers: config.workers.max(1),
            shard_count: config.shards.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_line_bytes: config.max_line_bytes.max(1024),
            max_connections: config.max_connections.max(1),
            session_inflight: config.session_inflight.map(|c| c.max(1)),
            idle_timeout: config.idle_timeout,
            counters: ServeCounters::default(),
            shards: OnceLock::new(),
        });
        let mut workers = Vec::with_capacity(shared.workers);
        for i in 0..shared.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bfl-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let opts = ShardOptions {
            max_line_bytes: shared.max_line_bytes,
            high_water: config.write_high_water.max(64 * 1024),
            idle_timeout: shared.idle_timeout,
            drain_grace: SHUTDOWN_DRAIN_GRACE,
        };
        let mut shard_handles = Vec::with_capacity(shared.shard_count);
        let mut links = Vec::with_capacity(shared.shard_count);
        for i in 0..shared.shard_count {
            let inbox = Arc::new(ShardInbox::default());
            let handle = {
                let inbox = Arc::clone(&inbox);
                let shared = Arc::clone(&shared);
                let opts = opts.clone();
                std::thread::Builder::new()
                    .name(format!("bfl-shard-{i}"))
                    .spawn(move || {
                        shard_loop(
                            &inbox,
                            &shared.shutdown,
                            &opts,
                            &shared.counters,
                            |out, line| process_request_line(&shared, out, line),
                        );
                    })?
            };
            links.push(ShardLink {
                inbox,
                thread: handle.thread().clone(),
            });
            shard_handles.push(handle);
        }
        let _ = shared.shards.set(links);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bfl-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
            shards: shard_handles,
        })
    }
}

/// A running server: bound address plus join/shutdown control.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server stops (a client sent `shutdown`), then
    /// joins every worker and shard — all accepted requests have been
    /// answered and flushed when this returns.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Initiates a graceful shutdown programmatically (equivalent to
    /// the `shutdown` op): stops intake, drains the queue and every
    /// shard's output buffers, joins.
    pub fn shutdown(mut self) {
        begin_shutdown(&self.shared);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers first: their final responses land in shard output
        // buffers, which the shards flush before exiting.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

/// Flags the shutdown, closes the queue (poppers drain it), unparks
/// every shard so it observes the flag, and pokes the acceptor awake.
/// The poke targets the loopback of the *bound family* — an IPv6
/// listener may not accept IPv4-mapped connections.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    shared.queue.close();
    if let Some(links) = shared.shards.get() {
        for link in links {
            link.thread.unpark();
        }
    }
    let poke = if shared.addr.ip().is_unspecified() {
        match shared.addr {
            SocketAddr::V4(_) => SocketAddr::from(([127, 0, 0, 1], shared.addr.port())),
            SocketAddr::V6(_) => {
                SocketAddr::from((std::net::Ipv6Addr::LOCALHOST, shared.addr.port()))
            }
        }
    } else {
        shared.addr
    };
    let _ = TcpStream::connect(poke);
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let Some(links) = shared.shards.get() else {
        return;
    };
    let mut backoff = AcceptBackoff::new();
    let mut next_shard = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                stream
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // EMFILE/ENFILE and friends persist across retries:
                // back off exponentially instead of hot-spinning a
                // core, and account for the error in `stats`.
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.on_error());
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Responses are one small line each; Nagle + delayed ACK would
        // add ~40 ms to every round trip.
        let _ = stream.set_nodelay(true);
        let open = shared.counters.open_connections.load(Ordering::Acquire);
        let reject = if open >= shared.max_connections {
            // Never drop a connection silently: past the cap the client
            // gets a structured `overloaded` error before the close.
            // The notice is written by a shard's nonblocking loop, not
            // here — a burst of rejects from peers that don't read must
            // never serialize the acceptor behind blocking writes.
            shared
                .counters
                .overload_rejects
                .fetch_add(1, Ordering::Relaxed);
            Some(Response::error(
                None,
                ErrorCode::Overloaded,
                format!(
                    "server is at its connection limit ({}), retry later",
                    shared.max_connections
                ),
            ))
        } else {
            shared
                .counters
                .open_connections
                .fetch_add(1, Ordering::AcqRel);
            shared
                .counters
                .peak_connections
                .fetch_max(open + 1, Ordering::AcqRel);
            None
        };
        let link = &links[next_shard % links.len()];
        next_shard = next_shard.wrapping_add(1);
        link.inbox
            .handoffs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Handoff { stream, reject });
        link.thread.unpark();
    }
}

/// Handles one complete request line on its shard thread: parse, then
/// either the answer a plan has memoised or admission and enqueue.
/// Never blocks — immediate answers (memo hits, `busy`, parse errors,
/// `shutting_down`) go straight into the connection's output buffer.
/// Returns whether the request was answered on the spot.
fn process_request_line(shared: &Shared, out: &Arc<ConnOut>, bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        out.push_line(&Response::error(
            None,
            ErrorCode::ParseError,
            "request line is not valid UTF-8",
        ));
        return true;
    };
    let line = text.trim();
    if line.is_empty() {
        return false;
    }
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err((id, code, message)) => {
            out.push_line(&Response::error(id, code, message));
            return true;
        }
    };
    if shared.shutdown.load(Ordering::Acquire) {
        out.push_line(&Response::error(
            request.id,
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
        return true;
    }
    // A memo hit needs no worker. It is answered here, ahead of any
    // request of this connection still queued, and takes no queue or
    // session slot. Behind pending output it goes to a worker, whose
    // send waits for space; the shard must never wait.
    if out.pending() == 0 {
        if let Some(doc) = memoised_answer(shared, &request.op) {
            out.send_now(&Response::ok(request.id, doc));
            return true;
        }
    }
    let admission = match admit(shared, &request) {
        Ok(admission) => admission,
        Err(response) => {
            out.push_line(&response);
            return true;
        }
    };
    let job = Job {
        id: request.id,
        op: request.op,
        out: Arc::clone(out),
        _ticket: JobTicket::new(Arc::clone(out)),
        _admission: admission,
    };
    match shared.queue.try_push(job) {
        Ok(()) => return false,
        Err(TryPushError::Full(job)) => job.out.push_line(&Response::error(
            job.id,
            ErrorCode::Busy,
            "request queue is full, retry later",
        )),
        Err(TryPushError::Closed(job)) => job.out.push_line(&Response::error(
            job.id,
            ErrorCode::ShuttingDown,
            "server is draining",
        )),
    }
    true
}

/// The answer to `op` when a plan has memoised it: an `eval`, an
/// unstreamed `cause`, or an exact `prob` of a plan, rendered by the
/// helpers [`handle_op`] uses. `None` leaves the request to a worker:
/// misses, errors, every other op, and panics, which the worker then
/// reproduces and answers by quarantining the session.
fn memoised_answer(shared: &Shared, op: &Op) -> Option<String> {
    let lookup = || match op {
        Op::Eval {
            session,
            plan,
            scenario,
        }
        | Op::Cause {
            session,
            plan,
            scenario,
            stream: false,
        } => {
            let prepared = shared.registry.get(session)?.plan(plan)?;
            let scenario = parse_scenario(scenario).ok()?;
            let outcome = match op {
                Op::Cause { .. } => prepared.memoised_cause(&scenario),
                _ => prepared.memoised_eval(&scenario),
            }?;
            Some(json_outcome(prepared.tree(), &outcome))
        }
        Op::Prob {
            session,
            target: ProbTarget::Plan { plan, scenario },
            options,
        } => {
            let method = options.resolve().ok()?;
            let prepared = shared.registry.get(session)?.plan(plan)?;
            let scenario = parse_scenario(scenario.as_deref().unwrap_or("")).ok()?;
            let value = prepared.memoised_probability_value(&scenario, method)?;
            Some(plan_prob_json(&prepared, value.as_ref(), Method::Exact))
        }
        _ => None,
    };
    std::panic::catch_unwind(AssertUnwindSafe(lookup))
        .ok()
        .flatten()
}

/// Per-session admission control: with `--session-inflight` set and the
/// request addressing a loaded session, claim one of its in-flight
/// slots (released when the job drops). A session at its cap answers
/// `busy` without touching the queue, so one swamped session cannot
/// monopolise the worker pool.
fn admit(shared: &Shared, request: &Request) -> Result<Option<AdmissionGuard>, Response> {
    let Some(cap) = shared.session_inflight else {
        return Ok(None);
    };
    let Some(session) = request.op.session_id() else {
        return Ok(None);
    };
    // An unknown session is not an admission matter: let the job fail
    // downstream with the structured `unknown_session` error.
    let Some(entry) = shared.registry.get(session) else {
        return Ok(None);
    };
    match entry.try_admit(cap) {
        Some(guard) => Ok(Some(guard)),
        None => {
            shared
                .counters
                .admission_rejects
                .fetch_add(1, Ordering::Relaxed);
            Err(Response::error(
                request.id,
                ErrorCode::Busy,
                format!("session `{session}` is at its in-flight limit ({cap}), retry later"),
            ))
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if matches!(job.op, Op::Shutdown) {
            // Flag first so shards reject new work, answer, then close
            // the queue: poppers drain what was already accepted.
            shared.shutdown.store(true, Ordering::Release);
            job.out.send(&Response::ok(job.id, "{\"stopping\":true}"));
            begin_shutdown(shared);
            continue;
        }
        // A handler panic must never take the worker (and with it the
        // whole pool's capacity) down; every shared lock recovers from
        // poisoning via `into_inner`. The panicking request's *session*,
        // however, may have been left half-mutated (e.g. scratch nodes a
        // request built before it panicked, never rolled back), so it is
        // quarantined: unloaded from the registry so later requests fail
        // loudly instead of serving corrupt state.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| handle_op(shared, &job.op)))
            .unwrap_or_else(|panic| {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                let quarantined = job
                    .op
                    .session_id()
                    .and_then(|id| shared.registry.remove(id).map(|_| id));
                match quarantined {
                    Some(id) => Err((
                        ErrorCode::Internal,
                        format!("handler panicked: {what}; session `{id}` quarantined"),
                    )),
                    None => Err((ErrorCode::Internal, format!("handler panicked: {what}"))),
                }
            });
        let streaming = matches!(
            &job.op,
            Op::Sweep { stream: true, .. } | Op::Cause { stream: true, .. }
        );
        match result {
            Ok(doc) if streaming => send_streamed(&job.out, job.id, &doc),
            Ok(doc) => job.out.send(&Response::ok(job.id, doc)),
            Err((code, message)) => job.out.send(&Response::error(job.id, code, message)),
        }
        // `job` drops here: the ticket marks the connection quiescent
        // (after the response is written or buffered), unparks its
        // shard, and any admission slot frees.
    }
}

/// Splits a result document at `size`-byte boundaries, never inside a
/// UTF-8 character.
fn stream_chunks(doc: &str, size: usize) -> Vec<&str> {
    // Floor of 4 so a multi-byte character can never stall the cut
    // below 1 (a UTF-8 scalar is at most 4 bytes).
    let size = size.max(4);
    let mut parts = Vec::with_capacity(doc.len() / size + 1);
    let mut rest = doc;
    while rest.len() > size {
        let mut cut = size;
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        parts.push(head);
        rest = tail;
    }
    parts.push(rest);
    parts
}

/// Delivers a large result as `begin`/`chunk`/`end` frames sharing the
/// request id. Each frame is a normal ok-response whose result carries
/// a `"stream"` tag; chunks are 1-based and the concatenated `part`s
/// reproduce the unstreamed document byte-for-byte. Flow control is the
/// connection's ordinary output buffer — the worker stalls between
/// chunks while the client catches up, and aborts if the connection
/// dies mid-stream.
fn send_streamed(out: &ConnOut, id: Option<u64>, doc: &str) {
    let parts = stream_chunks(doc, STREAM_CHUNK_BYTES);
    out.send(&Response::ok(
        id,
        format!(
            "{{\"stream\":\"begin\",\"chunks\":{},\"bytes\":{}}}",
            parts.len(),
            doc.len()
        ),
    ));
    for (seq, part) in parts.iter().enumerate() {
        if out.is_dead() {
            return;
        }
        out.send(&Response::ok(
            id,
            format!(
                "{{\"stream\":\"chunk\",\"seq\":{},\"part\":{}}}",
                seq + 1,
                json_str(part)
            ),
        ));
    }
    out.send(&Response::ok(
        id,
        format!("{{\"stream\":\"end\",\"chunks\":{}}}", parts.len()),
    ));
}

// ---------------------------------------------------------------------------
// Op handlers.
// ---------------------------------------------------------------------------

type OpError = (ErrorCode, String);

fn eval_error(e: &BflError) -> OpError {
    let code = match e {
        BflError::Internal { .. } => ErrorCode::Internal,
        _ => ErrorCode::EvalError,
    };
    (code, e.to_string())
}

fn handle_op(shared: &Shared, op: &Op) -> Result<String, OpError> {
    match op {
        Op::Load { model, options } => handle_load(shared, model, options),
        Op::Prepare { session, query } => {
            let entry = session_entry(shared, session)?;
            let q = bfl_core::parser::parse_query(query)
                .map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
            let prepared = entry.session.prepare(&q).map_err(|e| eval_error(&e))?;
            let explain = prepared.explain().to_json();
            let (plan_id, _) = entry.add_plan(prepared);
            Ok(format!(
                "{{\"session\":{},\"plan\":{},\"explain\":{explain}}}",
                json_str(&entry.id),
                json_str(&plan_id)
            ))
        }
        Op::Check { session, query } => {
            let entry = session_entry(shared, session)?;
            let spec = Spec::parse(query).map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
            if spec.is_empty() {
                return Err((
                    ErrorCode::QueryError,
                    "the spec contains no questions".to_string(),
                ));
            }
            let report = entry.session.run(&spec).map_err(|e| eval_error(&e))?;
            Ok(report.to_json())
        }
        Op::Eval {
            session,
            plan,
            scenario,
        } => {
            let entry = session_entry(shared, session)?;
            let prepared = plan_of(&entry, plan)?;
            let scenario = parse_scenario(scenario)?;
            let outcome = prepared.eval(&scenario).map_err(|e| eval_error(&e))?;
            Ok(json_outcome(prepared.tree(), &outcome))
        }
        Op::Cause {
            session,
            plan,
            scenario,
            ..
        } => {
            let entry = session_entry(shared, session)?;
            let prepared = plan_of(&entry, plan)?;
            let scenario = parse_scenario(scenario)?;
            let outcome = prepared.cause(&scenario).map_err(|e| eval_error(&e))?;
            Ok(json_outcome(prepared.tree(), &outcome))
        }
        Op::Sweep {
            session,
            plan,
            scenarios,
            ..
        } => {
            let entry = session_entry(shared, session)?;
            let prepared = plan_of(&entry, plan)?;
            let set = ScenarioSet::parse(scenarios)
                .map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
            if set.is_empty() {
                return Err((
                    ErrorCode::QueryError,
                    "the scenario set is empty".to_string(),
                ));
            }
            let report = prepared.sweep(&set).map_err(|e| eval_error(&e))?;
            Ok(report.to_json())
        }
        Op::Prob {
            session,
            target,
            options,
        } => handle_prob(shared, session, target, options),
        Op::Importance { session, formula } => {
            let entry = session_entry(shared, session)?;
            let phi = bfl_core::parser::parse_formula(formula)
                .map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
            let rows = entry
                .session
                .rank_events(&phi)
                .map_err(|e| eval_error(&e))?;
            Ok(format!(
                "{{\"formula\":{},\"importance\":{}}}",
                json_str(formula),
                json_importance(&rows)
            ))
        }
        Op::Explain { session, plan } => {
            let entry = session_entry(shared, session)?;
            let prepared = plan_of(&entry, plan)?;
            Ok(prepared.explain().to_json())
        }
        Op::Stats { session } => match session {
            None => Ok(global_stats(shared)),
            Some(id) => {
                let entry = session_entry(shared, id)?;
                Ok(session_stats(&entry))
            }
        },
        Op::Lint { session, spec } => {
            let entry = session_entry(shared, session)?;
            let diagnostics = match spec {
                None => entry.session.lint(),
                Some(source) => {
                    let spec =
                        Spec::parse(source).map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
                    entry.session.lint_spec(&spec)
                }
            };
            Ok(format!(
                "{{\"session\":{},\"lint\":{}}}",
                json_str(&entry.id),
                bfl_core::lint::to_json(&diagnostics)
            ))
        }
        Op::Unload { session } => {
            let entry = shared.registry.remove(session).ok_or_else(|| {
                (
                    ErrorCode::UnknownSession,
                    format!("no session `{session}` is loaded"),
                )
            })?;
            Ok(format!(
                "{{\"unloaded\":{},\"plans\":{}}}",
                json_str(&entry.id),
                entry.plan_count()
            ))
        }
        // Intercepted by the worker loop before dispatch; reaching this
        // arm is a dispatch bug, not a servable request.
        Op::Shutdown => Err((
            ErrorCode::Internal,
            "shutdown must be handled by the worker loop".to_string(),
        )),
    }
}

fn session_entry(shared: &Shared, id: &str) -> Result<Arc<SessionEntry>, OpError> {
    shared.registry.get(id).ok_or_else(|| {
        (
            ErrorCode::UnknownSession,
            format!("no session `{id}` is loaded"),
        )
    })
}

fn plan_of(entry: &SessionEntry, id: &str) -> Result<Arc<PreparedQuery>, OpError> {
    entry.plan(id).ok_or_else(|| {
        (
            ErrorCode::UnknownPlan,
            format!("no plan `{id}` in session `{}`", entry.id),
        )
    })
}

fn parse_scenario(text: &str) -> Result<Scenario, OpError> {
    if text.trim().is_empty() {
        return Ok(Scenario::new());
    }
    Scenario::parse(text).map_err(|e| (ErrorCode::QueryError, e.to_string()))
}

fn handle_load(shared: &Shared, model: &str, options: &SessionOptions) -> Result<String, OpError> {
    let parsed = galileo::parse(model).map_err(|e| (ErrorCode::ModelError, e.to_string()))?;
    let has_intervals = parsed.has_intervals();
    let mut builder = AnalysisSession::builder().probabilities(parsed.probabilities);
    if has_intervals {
        builder = builder.intervals(parsed.intervals);
    }
    if let Some(ordering) = options.ordering {
        builder = builder.ordering(ordering);
    }
    if let Some(scope) = options.scope {
        builder = builder.minimality_scope(scope);
    }
    if let Some(limit) = options.witness_limit {
        builder = builder.witness_limit(limit as usize);
    }
    let session = builder.build(parsed.tree);
    let tree_name = session.tree().name(session.tree().top()).to_string();
    let (basic, gates) = (
        session.tree().num_basic_events(),
        session.tree().num_gates(),
    );
    let entry = shared.registry.insert(session);
    Ok(format!(
        "{{\"session\":{},\"tree\":{},\"basic_events\":{basic},\"gates\":{gates}}}",
        json_str(&entry.id),
        json_str(&tree_name)
    ))
}

/// Renders the value fields of a `prob` response after the `head`
/// (`"query":…` / `"formula":…`). Exact answers keep the pre-method
/// `"probability":p` shape byte-for-byte; interval and Monte Carlo
/// answers carry `"interval"` / `"estimate"` plus a `"method"` tag.
fn prob_value_json(head: &str, value: Option<&ProbValue>, method: Method) -> String {
    let mut out = format!("{{{head}");
    match value {
        Some(ProbValue::Exact(p)) => out.push_str(&format!(",\"probability\":{p}")),
        Some(ProbValue::Interval(iv)) => out.push_str(&format!(
            ",\"probability\":null,\"interval\":{},\"method\":\"interval\"",
            json_interval(iv)
        )),
        Some(ProbValue::Estimate(e)) => out.push_str(&format!(
            ",\"probability\":null,\"estimate\":{},\"method\":\"mc\"",
            json_estimate(e)
        )),
        None => {
            out.push_str(",\"probability\":null");
            if !matches!(method, Method::Exact) {
                out.push_str(&format!(",\"method\":{}", json_str(method.name())));
            }
        }
    }
    out.push('}');
    out
}

/// The `prob` answer of a plan: its query, then the value fields.
fn plan_prob_json(prepared: &PreparedQuery, value: Option<&ProbValue>, method: Method) -> String {
    let head = format!("\"query\":{}", json_str(prepared.source()));
    prob_value_json(&head, value, method)
}

fn handle_prob(
    shared: &Shared,
    session: &str,
    target: &ProbTarget,
    options: &ProbOptions,
) -> Result<String, OpError> {
    let entry = session_entry(shared, session)?;
    // Parse-time validation makes this infallible for queued requests;
    // programmatic `Op` values still get the structured error.
    let method = options.resolve().map_err(|e| (ErrorCode::BadField, e))?;
    let effective = method.unwrap_or_else(|| entry.session.method());
    match target {
        ProbTarget::Plan { plan, scenario } => {
            let prepared = plan_of(&entry, plan)?;
            let scenario = parse_scenario(scenario.as_deref().unwrap_or(""))?;
            match prepared.probability_value(&scenario, method) {
                Ok(v) => Ok(plan_prob_json(&prepared, v.as_ref(), effective)),
                // A zero-probability condition is a well-defined "no
                // answer", matching the CLI and the sweep outcomes.
                Err(BflError::DivisionByZero { .. }) => {
                    Ok(plan_prob_json(&prepared, None, effective))
                }
                Err(e) => Err(eval_error(&e)),
            }
        }
        ProbTarget::Formula { formula, given } => {
            let phi = bfl_core::parser::parse_formula(formula)
                .map_err(|e| (ErrorCode::QueryError, e.to_string()))?;
            let given = match given {
                None => None,
                Some(g) => Some(
                    bfl_core::parser::parse_formula(g)
                        .map_err(|e| (ErrorCode::QueryError, e.to_string()))?,
                ),
            };
            let value = entry
                .session
                .probability_value(&phi, given.as_ref(), method)
                .map_err(|e| eval_error(&e))?;
            let head = format!("\"formula\":{}", json_str(formula));
            Ok(prob_value_json(&head, value.as_ref(), effective))
        }
    }
}

fn json_opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn global_stats(shared: &Shared) -> String {
    let ids: Vec<String> = shared
        .registry
        .ids()
        .iter()
        .map(|id| json_str(id))
        .collect();
    let c = &shared.counters;
    format!(
        "{{\"sessions\":[{}],\"workers\":{},\"queue_capacity\":{},\"queue_depth\":{},\"shards\":{},\"connections\":{{\"open\":{},\"peak\":{},\"max\":{}}},\"counters\":{{\"accept_errors\":{},\"overload_rejects\":{},\"idle_reaped\":{},\"admission_rejects\":{},\"evictions\":{}}},\"limits\":{{\"max_sessions\":{},\"session_inflight\":{},\"idle_timeout_ms\":{}}}}}",
        ids.join(","),
        shared.workers,
        shared.queue_capacity,
        shared.queue.len(),
        shared.shard_count,
        c.open_connections.load(Ordering::Acquire),
        c.peak_connections.load(Ordering::Acquire),
        shared.max_connections,
        c.accept_errors.load(Ordering::Relaxed),
        c.overload_rejects.load(Ordering::Relaxed),
        c.idle_reaped.load(Ordering::Relaxed),
        c.admission_rejects.load(Ordering::Relaxed),
        shared.registry.evictions(),
        json_opt_usize(shared.registry.max_sessions()),
        json_opt_usize(shared.session_inflight),
        shared
            .idle_timeout
            .map_or_else(|| "null".to_string(), |d| d.as_millis().to_string())
    )
}

fn session_stats(entry: &SessionEntry) -> String {
    let stats = entry.session.stats();
    let mut plans = String::new();
    for (id, plan) in entry.plans() {
        if !plans.is_empty() {
            plans.push(',');
        }
        let p = plan.stats();
        plans.push_str(&format!(
            "{}:{{\"query\":{},\"evals\":{},\"memo_hits\":{},\"memo_misses\":{},\"distinct_scenarios\":{}}}",
            json_str(&id),
            json_str(plan.source()),
            p.evals,
            p.memo_hits,
            p.memo_misses,
            p.distinct_scenarios
        ));
    }
    let tree_name = entry.session.tree().name(entry.session.tree().top());
    let sampler = entry.session.sampler_stats();
    format!(
        "{{\"session\":{},\"tree\":{},\"stats\":{},\"sampler\":{{\"runs\":{},\"samples\":{}}},\"plans\":{{{plans}}}}}",
        json_str(&entry.id),
        json_str(tree_name),
        json_stats(&stats),
        sampler.runs,
        sampler.samples
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn stream_chunks_reassemble_byte_identically() {
        let doc = "a".repeat(200_000);
        let parts = stream_chunks(&doc, STREAM_CHUNK_BYTES);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.concat(), doc);
        // Every chunk but the last is exactly the chunk size for pure
        // ASCII documents.
        assert!(parts[..3].iter().all(|p| p.len() == STREAM_CHUNK_BYTES));
    }

    #[test]
    fn stream_chunks_never_split_inside_a_character() {
        // Multi-byte characters straddling the cut must move the
        // boundary back, and a tiny chunk size must not loop forever
        // (the regression this test guards).
        let doc = "é".repeat(1000);
        for size in [1usize, 2, 3, 4, 5, 7, 64] {
            let parts = stream_chunks(&doc, size);
            assert_eq!(parts.concat(), doc, "size {size}");
            assert!(parts
                .iter()
                .all(|p| std::str::from_utf8(p.as_bytes()).is_ok()));
        }
        // Empty documents still produce one (empty) chunk.
        assert_eq!(stream_chunks("", 8), vec![""]);
    }
}
