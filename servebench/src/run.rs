//! One measured run of a workload against a fresh server: repeated
//! set-ups (for `setup_s`), then a closed-loop window over real sockets
//! with the server's counters, CPU and memory read before and after. The
//! window pauses after every slice for host speed samples.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use bfl_server::json::Json;

use crate::hostspeed;
use crate::inputs::{self, Ids, Inputs, Item, Model, Stream, Workload};
use crate::server::{self, Conn, CpuSnapshot, ServerProc};

/// Set-ups per run; `setup_s` is the fastest and the last one serves
/// the window.
pub const SETUP_REPS: usize = 21;
/// Warm-up requests pipelined per batch, below the default queue
/// capacity. Pipelining keeps `setup_s` about the work done rather than
/// about dozens of sequential wake-ups, which the host's CPU steal
/// stretches by up to 2x between runs.
const WARM_UP_BATCH: usize = 32;
/// Request ids of the window start here, above every set-up id.
const WINDOW_IDS: u64 = 1 << 32;
/// `peak_rss_mb` is read once the window completes this many ops: 1,000
/// what-ifs, or the first `load-scaled` chain (always the same corpus
/// model). Cold what-ifs grow the session without bound and its hash
/// maps double in steps, so a reading at the window's end follows how
/// many ops the host's speed allowed. On `load-scaled` the end reading
/// jumps by up to 50% at random ops as the two workers' allocator arenas
/// fill. A reading at a fixed op count follows the work. Both counts are
/// reached within 10 s even when the host is slow.
pub fn memory_ops(workload: Workload) -> usize {
    match workload {
        Workload::LoadScaled => 1,
        _ => 1000,
    }
}

/// Seconds between the CPU readings that cut the window into slices:
/// one second on the what-if workloads, and every op on `load-scaled`,
/// so each of its slices is one chain.
fn slice_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::LoadScaled => 0.0,
        _ => 1.0,
    }
}

/// How long the server is left idle after the window to measure its idle
/// CPU floor: what its shards burn per second polling open connections
/// that send nothing.
const IDLE_FLOOR: Duration = Duration::from_secs(1);

/// Host speed samples ([`hostspeed::sample`]) taken just before the
/// window, where the first slice begins.
const HOST_SAMPLES_BEFORE: usize = 5;

/// Host speed samples taken in each pause of the window, which comes
/// after every slice: one per `load-scaled` chain, three per second of
/// what-ifs.
fn host_samples_per_pause(workload: Workload) -> usize {
    match workload {
        Workload::LoadScaled => 1,
        _ => 3,
    }
}

/// Server CPU over one slice of the window.
#[derive(Debug, Clone, Copy)]
pub struct CpuSlice {
    /// Ops completed before the slice began; on `load-scaled` the index
    /// of the slice's one op.
    pub first_op: usize,
    /// Ops completed in the slice.
    pub ops: usize,
    /// The slice's length in seconds.
    pub seconds: f64,
    /// Server process CPU (user + sys) in the slice, in ms.
    pub cpu_ms: f64,
    /// The host speed around the slice: the mean of the mean samples of
    /// the pause before it and of the pause after it, in ms.
    pub host_ms: f64,
}

/// What a window op was.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// One what-if request.
    Item(Item),
    /// One `load-scaled` chain on `load_models[index]`.
    Model(usize),
}

/// One request line and its response, timed from the window start.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request line.
    pub line: String,
    /// The response line (empty after a transport failure).
    pub response: String,
    /// Seconds from the window start to the send.
    pub sent: f64,
    /// Seconds from the window start to the full response line.
    pub received: f64,
}

/// One op of the window: a what-if request, or a load→prepare→prob→
/// unload chain.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The load-generator connection that sent the op.
    pub conn: usize,
    /// The op.
    pub kind: OpKind,
    /// Its exchanges, in order.
    pub exchanges: Vec<Exchange>,
    /// A transport failure that cut the op short.
    pub transport_error: Option<String>,
}

impl OpRecord {
    /// The op's latency in ms: the request's round trip, or on
    /// `load-scaled` the time from sending `load` to the `prob` answer.
    pub fn latency_ms(&self) -> Option<f64> {
        let first = self.exchanges.first()?;
        let answer = match self.kind {
            OpKind::Item(_) => first,
            OpKind::Model(_) => self.exchanges.get(2)?,
        };
        Some((answer.received - first.sent) * 1000.0)
    }

    /// Seconds from the window start to the op's last response.
    pub fn end(&self) -> f64 {
        self.exchanges.last().map_or(0.0, |e| e.received)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Window {
    /// Seconds from server boot to ready, per set-up.
    pub setup_s: Vec<f64>,
    /// Seed-determined server counters after each set-up; they must all
    /// be equal.
    pub fingerprints: Vec<String>,
    /// The window's ops.
    pub ops: Vec<OpRecord>,
    /// Window wall time in seconds (first send to last response).
    pub wall_s: f64,
    /// Server CPU at the window's start and end.
    pub cpu: (CpuSnapshot, CpuSnapshot),
    /// Server CPU per slice of the window.
    pub cpu_slices: Vec<CpuSlice>,
    /// The idle server's CPU in ms per second, measured after the window.
    pub idle_cpu_ms_per_s: f64,
    /// The server's `VmHWM` in MiB once the window has completed
    /// [`memory_ops`] ops, or at its end if it completes fewer.
    pub peak_rss_mib: f64,
    /// The server's `VmHWM` in MiB at the window's end.
    pub peak_rss_end_mib: f64,
    /// Share of the host's CPU time the hypervisor stole during the
    /// window.
    pub steal_share: f64,
    /// Server-wide `stats` before and after the window.
    pub global: (Json, Json),
    /// Session `stats` before and after the window (what-if workloads).
    pub session: Option<(Json, Json)>,
    /// Driver connections (= driver threads).
    pub connections: usize,
    /// Host speed samples in ms, one group per pause: the first just
    /// before the window, then one after every slice.
    pub host_pauses: Vec<Vec<f64>>,
}

/// Runs `inputs` once: [`SETUP_REPS`] fresh servers, the last of which
/// serves a `seconds`-long closed-loop window.
pub fn run(
    bin: &Path,
    log: &Path,
    inputs: &Inputs,
    seconds: f64,
    nproc: usize,
) -> Result<Window, String> {
    let connections = inputs.workload.connections(nproc);
    let mut setup_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let proc = ServerProc::boot(bin, log)?;
        let (mut conns, ids) = set_up(&proc, inputs, connections)?;
        setup_s.push(started.elapsed().as_secs_f64());
        fingerprints.push(fingerprint(&mut conns[0], &ids)?);
        if rep + 1 == SETUP_REPS {
            kept = Some((proc, conns, ids));
        } else {
            proc.shutdown(&mut conns[0]);
        }
    }
    let (proc, mut conns, ids) = kept.ok_or("no set-up ran")?;

    let mut next_id = 1 << 31;
    let mut stats = |conn: &mut Conn, session: Option<&str>| {
        next_id += 1;
        conn.ok(&inputs::stats_line(next_id, session))
    };
    let session_of = |ids: &Ids| (!ids.session.is_empty()).then(|| ids.session.clone());
    let global_before = stats(&mut conns[0], None)?;
    let session_before = match session_of(&ids) {
        Some(s) => Some(stats(&mut conns[0], Some(&s))?),
        None => None,
    };
    let host_before = (0..HOST_SAMPLES_BEFORE)
        .map(|_| hostspeed::sample())
        .collect::<Result<Vec<f64>, String>>()?;
    let cpu_before = CpuSnapshot::read(proc.pid());
    let steal_before = server::host_steal_ms();
    let window = WindowClock {
        start: Instant::now(),
        gate: RwLock::new(()),
        paused_ns: AtomicU64::new(0),
        samples_per_pause: host_samples_per_pause(inputs.workload),
        host_pauses: Mutex::new(vec![host_before]),
        host_error: OnceLock::new(),
        seconds,
        pid: proc.pid(),
        done: AtomicUsize::new(0),
        memory_ops: memory_ops(inputs.workload),
        memory: OnceLock::new(),
        slice_seconds: slice_seconds(inputs.workload),
        marks: Mutex::new(vec![CpuMark {
            at: 0.0,
            done: 0,
            cpu_ms: cpu_before.process_ms,
        }]),
    };
    let ops = match inputs.workload {
        Workload::LoadScaled => drive_load_scaled(&mut conns[0], inputs, &window),
        _ => drive_whatif(&mut conns, inputs, &ids, &window),
    };
    let wall_s = ops.iter().map(OpRecord::end).fold(0.0, f64::max);
    let cpu_after = CpuSnapshot::read(proc.pid());
    let steal_share =
        (server::host_steal_ms() - steal_before) / (nproc as f64 * wall_s.max(1e-9) * 1000.0);
    let peak_rss_end_mib = server::peak_rss_mib(proc.pid());
    let peak_rss_mib = window.memory.get().copied().unwrap_or(peak_rss_end_mib);
    if let Some(e) = window.host_error.get() {
        return Err(format!("host speed sample: {e}"));
    }
    let cpu_slices = window.slices();
    let host_pauses =
        std::mem::take(&mut *window.host_pauses.lock().unwrap_or_else(|e| e.into_inner()));
    let idle_from = server::live_threads_cpu_ms(proc.pid());
    let idle_clock = Instant::now();
    std::thread::sleep(IDLE_FLOOR);
    let idle_cpu_ms_per_s =
        (server::live_threads_cpu_ms(proc.pid()) - idle_from) / idle_clock.elapsed().as_secs_f64();
    let global_after = stats(&mut conns[0], None)?;
    let session = match (session_before, session_of(&ids)) {
        (Some(before), Some(s)) => Some((before, stats(&mut conns[0], Some(&s))?)),
        _ => None,
    };
    proc.shutdown(&mut conns[0]);
    Ok(Window {
        setup_s,
        fingerprints,
        ops,
        wall_s,
        cpu: (cpu_before, cpu_after),
        cpu_slices,
        idle_cpu_ms_per_s,
        peak_rss_mib,
        peak_rss_end_mib,
        steal_share,
        global: (global_before, global_after),
        session,
        connections,
        host_pauses,
    })
}

/// Connects every driver socket and completes at least one request on
/// each; on the what-if workloads also loads the session, prepares its
/// plans and warms them.
fn set_up(
    proc: &ServerProc,
    inputs: &Inputs,
    connections: usize,
) -> Result<(Vec<Conn>, Ids), String> {
    let mut conns = (0..connections)
        .map(|_| Conn::connect(proc.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ids = Ids::default();
    let mut id = 0;
    let mut next = || {
        id += 1;
        id
    };
    let field = |doc: &Json, name: &str| -> Result<String, String> {
        doc.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("set-up response lacks `{name}`"))
    };
    if inputs.workload != Workload::LoadScaled {
        let conn = &mut conns[0];
        let load = inputs::load_line(next(), &inputs.model, inputs.witness_limit());
        ids.session = field(&conn.ok(&load)?, "session")?;
        let mut plans = Vec::new();
        for q in &inputs.queries {
            plans.push(field(
                &conn.ok(&inputs::prepare_line(next(), &ids.session, q))?,
                "plan",
            )?);
        }
        ids.eval_plan = plans[0].clone();
        ids.prob_plan = plans[1].clone();
        ids.cause_plan = plans.get(2).cloned().unwrap_or_default();
        let warm_up: Vec<String> = inputs
            .warm_up()
            .iter()
            .map(|item| inputs.line(next(), item, &ids))
            .collect();
        for batch in warm_up.chunks(WARM_UP_BATCH) {
            conn.ok_pipelined(batch)?;
        }
    } else {
        // One chain on the small model, so the window's first op does not
        // pay the server's one-time costs (code and allocator warm-up).
        let start = Instant::now();
        let (exchanges, error) = chain(&mut conns[0], &inputs.model, 1 << 20, &|| {
            start.elapsed().as_secs_f64()
        });
        if let Some(e) = error {
            return Err(e);
        }
        for ex in &exchanges {
            server::result_of(&ex.response)?;
        }
    }
    // One request on every socket, sent to all before any answer is read.
    for conn in conns.iter_mut() {
        conn.send(&inputs::stats_line(next(), None))
            .map_err(|e| e.to_string())?;
    }
    for conn in conns.iter_mut() {
        server::result_of(&conn.recv().map_err(|e| e.to_string())?)?;
    }
    Ok((conns, ids))
}

/// The seed-determined counters after a set-up: the session's arena and
/// translation-cache counts and its plans' memo counts.
fn fingerprint(conn: &mut Conn, ids: &Ids) -> Result<String, String> {
    if ids.session.is_empty() {
        let global = conn.ok(&inputs::stats_line(1 << 30, None))?;
        return Ok(format!("sessions={}", count_array(global.get("sessions"))));
    }
    let doc = conn.ok(&inputs::stats_line(1 << 30, Some(&ids.session)))?;
    let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(u64::MAX);
    let s = doc.get("stats");
    let mut out = format!(
        "arena_nodes={} cache_hits={} cache_misses={}",
        num(s.and_then(|s| s.get("arena_nodes"))),
        num(s.and_then(|s| s.get("cache_hits"))),
        num(s.and_then(|s| s.get("cache_misses"))),
    );
    if let Some(Json::Object(plans)) = doc.get("plans") {
        for (id, p) in plans {
            out.push_str(&format!(
                " {id}:memo_hits={},memo_misses={}",
                num(p.get("memo_hits")),
                num(p.get("memo_misses"))
            ));
        }
    }
    Ok(out)
}

fn count_array(v: Option<&Json>) -> usize {
    v.and_then(Json::as_array).map_or(0, <[Json]>::len)
}

/// The server's CPU read at an op boundary of the window.
#[derive(Debug, Clone, Copy)]
struct CpuMark {
    /// Seconds from the window start.
    at: f64,
    /// Ops completed by then.
    done: usize,
    /// Server process CPU in ms.
    cpu_ms: f64,
}

/// The timed window's shared state: its clock, the memory reading taken
/// when op `memory_ops` completes, the CPU readings that cut it into
/// slices, and the pauses between slices.
struct WindowClock {
    start: Instant,
    /// Held shared by each request in flight and exclusively by a pause.
    gate: RwLock<()>,
    /// Time spent in pauses, which the clock skips.
    paused_ns: AtomicU64,
    samples_per_pause: usize,
    /// Host speed samples by pause, starting with those taken just
    /// before the window.
    host_pauses: Mutex<Vec<Vec<f64>>>,
    /// The first host speed sample that failed.
    host_error: OnceLock<String>,
    seconds: f64,
    pid: u32,
    done: AtomicUsize,
    memory_ops: usize,
    memory: OnceLock<f64>,
    slice_seconds: f64,
    marks: Mutex<Vec<CpuMark>>,
}

impl WindowClock {
    /// Seconds of window time: since the start, less the pauses.
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_ns.load(Ordering::SeqCst) as f64 / 1e9
    }

    fn open(&self) -> bool {
        self.now() < self.seconds
    }

    /// Taken by a driver for each op it has in flight.
    fn in_flight(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the current slice has lasted long enough and completed
    /// an op.
    fn slice_due(&self) -> bool {
        let done = self.done.load(Ordering::SeqCst);
        let at = self.now();
        let marks = self.marks.lock().unwrap_or_else(|e| e.into_inner());
        marks
            .last()
            .is_none_or(|m| at - m.at >= self.slice_seconds && done > m.done)
    }

    fn mark(&self) {
        let mark = CpuMark {
            at: self.now(),
            done: self.done.load(Ordering::SeqCst),
            cpu_ms: server::process_cpu_ms(self.pid),
        };
        self.marks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(mark);
    }

    /// Counts the op `in_flight` was taken for. The op that completes op
    /// `memory_ops` reads the server's peak memory. The first op to
    /// complete a slice then pauses the window before its driver sends
    /// again: once no op is in flight, it reads the server's CPU, takes
    /// host speed samples with the clock stopped, and reads the CPU
    /// again, so that no slice spans a pause.
    fn op_done(&self, in_flight: RwLockReadGuard<'_, ()>) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        drop(in_flight);
        if done == self.memory_ops {
            let _ = self.memory.set(server::peak_rss_mib(self.pid));
        }
        if !self.slice_due() {
            return;
        }
        let _paused = self.gate.write().unwrap_or_else(|e| e.into_inner());
        // Another driver may have closed the slice while this one waited.
        if !self.slice_due() {
            return;
        }
        self.mark();
        let paused = Instant::now();
        let samples = (0..self.samples_per_pause)
            .map(|_| hostspeed::sample())
            .collect::<Result<Vec<f64>, String>>()
            .unwrap_or_else(|e| {
                let _ = self.host_error.set(e);
                Vec::new()
            });
        self.host_pauses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(samples);
        self.paused_ns
            .fetch_add(paused.elapsed().as_nanos() as u64, Ordering::SeqCst);
        self.mark();
    }

    /// The slices between consecutive CPU readings. The window's tail
    /// after the last pause is left out, and so are the pauses, which
    /// complete no op. Slice `j` runs from pause `j` to pause `j + 1`,
    /// where pause 0 is the set of samples taken before the window.
    fn slices(&self) -> Vec<CpuSlice> {
        let marks = self.marks.lock().unwrap_or_else(|e| e.into_inner());
        let pauses = self.host_pauses.lock().unwrap_or_else(|e| e.into_inner());
        let mean = |j: usize| pauses.get(j).map(|p| crate::stats::mean(p));
        marks
            .windows(2)
            .filter(|w| w[1].done > w[0].done)
            .enumerate()
            .map(|(j, w)| CpuSlice {
                first_op: w[0].done,
                ops: w[1].done - w[0].done,
                seconds: w[1].at - w[0].at,
                cpu_ms: w[1].cpu_ms - w[0].cpu_ms,
                host_ms: match (mean(j), mean(j + 1)) {
                    (Some(a), Some(b)) => (a + b) / 2.0,
                    (a, b) => a.or(b).unwrap_or(hostspeed::NOMINAL_MS),
                },
            })
            .collect()
    }
}

/// One exchange on `conn`, timed by `now` (seconds).
fn exchange(
    conn: &mut Conn,
    line: String,
    now: &dyn Fn() -> f64,
) -> Result<Exchange, (Exchange, String)> {
    let sent = now();
    let result = conn.round_trip(&line);
    let mut ex = Exchange {
        line,
        response: String::new(),
        sent,
        received: now(),
    };
    match result {
        Ok(response) => {
            ex.response = response;
            Ok(ex)
        }
        Err(e) => Err((ex, e.to_string())),
    }
}

/// The what-if window: one closed-loop thread per connection, each
/// sending its own seeded stream until the window closes.
fn drive_whatif(
    conns: &mut [Conn],
    inputs: &Inputs,
    ids: &Ids,
    clock: &WindowClock,
) -> Vec<OpRecord> {
    let n = conns.len() as u64;
    let mut ops: Vec<OpRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut stream =
                        Stream::new(inputs.workload, inputs.seed, c, inputs.pool.clone());
                    let mut ops = Vec::new();
                    let mut k = 0u64;
                    while clock.open() {
                        let item = stream.next_item();
                        let line = inputs.line(WINDOW_IDS + k * n + c as u64, &item, ids);
                        k += 1;
                        let in_flight = clock.in_flight();
                        let (ex, err) = match exchange(conn, line, &|| clock.now()) {
                            Ok(ex) => (ex, None),
                            Err((ex, e)) => (ex, Some(e)),
                        };
                        clock.op_done(in_flight);
                        let stop = err.is_some();
                        ops.push(OpRecord {
                            conn: c,
                            kind: OpKind::Item(item),
                            exchanges: vec![ex],
                            transport_error: err,
                        });
                        if stop {
                            break;
                        }
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    ops.sort_by(|a, b| a.exchanges[0].sent.total_cmp(&b.exchanges[0].sent));
    ops
}

/// One load → prepare `P(top) <= 0.5` → prob → unload chain on `model`,
/// with request ids `id..id + 4`, timed by `now` (seconds). Stops at the
/// first transport failure.
fn chain(
    conn: &mut Conn,
    model: &Model,
    id: u64,
    now: &dyn Fn() -> f64,
) -> (Vec<Exchange>, Option<String>) {
    let query = format!("P({}) <= 0.5", model.top());
    let mut exchanges = Vec::new();
    let mut session = String::new();
    let mut plan = String::new();
    for step in 0..4u64 {
        let line = match step {
            0 => inputs::load_line(id, model, None),
            1 => inputs::prepare_line(id + 1, &session, &query),
            2 => inputs::prob_line(id + 2, &session, &plan),
            _ => inputs::unload_line(id + 3, &session),
        };
        match exchange(conn, line, now) {
            Ok(ex) => {
                let text = |name: &str| {
                    server::result_of(&ex.response)
                        .ok()
                        .and_then(|d| d.get(name).and_then(Json::as_str).map(str::to_string))
                        .unwrap_or_default()
                };
                match step {
                    0 => session = text("session"),
                    1 => plan = text("plan"),
                    _ => {}
                }
                exchanges.push(ex);
            }
            Err((ex, e)) => {
                exchanges.push(ex);
                return (exchanges, Some(e));
            }
        }
    }
    (exchanges, None)
}

/// The `load-scaled` window: chains on one connection, each on the next
/// model of the corpus in the seed's order.
fn drive_load_scaled(conn: &mut Conn, inputs: &Inputs, clock: &WindowClock) -> Vec<OpRecord> {
    let mut ops = Vec::new();
    let mut k = 0u64;
    while clock.open() {
        let index = k as usize % inputs.load_models.len();
        let in_flight = clock.in_flight();
        let (exchanges, transport_error) = chain(
            conn,
            &inputs.load_models[index],
            WINDOW_IDS + 4 * k,
            &|| clock.now(),
        );
        k += 1;
        clock.op_done(in_flight);
        let stop = transport_error.is_some();
        ops.push(OpRecord {
            conn: 0,
            kind: OpKind::Model(index),
            exchanges,
            transport_error,
        });
        if stop {
            break;
        }
    }
    ops
}
