//! The sharded nonblocking connection layer (std-only).
//!
//! The server runs a **fixed** number of shard threads; every accepted
//! connection is handed to one shard and stays there for its lifetime.
//! A shard owns its connections outright and runs a readiness loop over
//! their nonblocking sockets:
//!
//! 1. adopt connections handed off by the acceptor;
//! 2. read-accumulate bytes into bounded line buffers
//!    ([`LineAccumulator`] — oversized lines are discarded and answered
//!    with a structured `oversized` error, exactly like the previous
//!    per-connection reader);
//! 3. hand complete lines to the server (parse → a memoised answer, or
//!    admission → enqueue);
//! 4. drain what is left in every connection's bounded output buffer
//!    ([`ConnOut`]): the shard's own error lines, and the bytes a
//!    worker's write could not place;
//! 5. reap idle connections and close finished ones.
//!
//! Responses leave from the thread that made them. A worker's
//! [`ConnOut::send`] writes its line to the nonblocking socket itself,
//! under the lock that orders the connection's output, so a reply to a
//! reading client reaches it without a thread switch. Only bytes the
//! socket refuses stay buffered, and only then is the shard unparked to
//! drain them. A request the shard answers itself from a plan's memo
//! leaves through [`ConnOut::send_now`], which never waits.
//!
//! Thread count is therefore **constant in the connection count**:
//! hundreds of concurrent connections are multiplexed over a handful of
//! shard threads with bounded memory per connection. With no readiness
//! syscall in std, the loop parks briefly when a full pass makes no
//! progress ([`PARK_INTERVAL`]); workers `unpark` the shard when output
//! is left pending or a job completes, and the acceptor when a new
//! connection is ready, so the loaded path never sleeps and the idle
//! path costs a few wakeups per millisecond.
//!
//! Flow control is explicit in both directions. A worker pushing a
//! response blocks (with a stall timeout) once the connection's output
//! buffer crosses its high-water mark, so one slow client throttles at
//! most the workers answering *its* requests, never a shard. A single
//! line larger than the mark is admitted whenever the buffer has
//! drained empty — memory per connection is bounded by
//! `max(high_water, one line)`, and a giant unstreamed response still
//! reaches its client. A shard stops *reading* from a connection whose
//! output buffer is above the high-water mark, so a pipelining client
//! that refuses to read its responses cannot grow server memory
//! without bound.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::protocol::{ErrorCode, Response};

/// How long a shard parks when a full pass over its connections made no
/// progress. Short enough that fresh request bytes (which cannot unpark
/// the shard — there is no readiness syscall in std) are picked up at
/// sub-millisecond latency; long enough that an idle shard burns ~0.1%
/// of a core.
pub(crate) const PARK_INTERVAL: Duration = Duration::from_micros(250);

/// How long a shard parks after a pass in which it answered a request
/// itself. A client waiting for each reply sends its next request tens
/// of microseconds after the reply, and no worker will unpark the shard
/// for it, as a worker's finished job does: a full [`PARK_INTERVAL`]
/// would leave that request waiting.
pub(crate) const REPLY_PARK_INTERVAL: Duration = Duration::from_micros(50);

/// How long a worker may wait for a connection's output buffer to drain
/// below its high-water mark before the connection is declared dead —
/// the successor of the old per-write 10 s socket timeout.
pub(crate) const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Default for [`ShardOptions::drain_grace`]: how long a finishing
/// connection (peer EOF, idle reap, shutdown) with **no jobs in
/// flight** may keep unflushed output before it is force-closed. The
/// grace covers flushing only — a connection whose requests are still
/// computing is not on the clock.
pub(crate) const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Read chunk size per `read` call, and the per-connection fairness cap
/// (at most `READ_BURST` chunks per pass, so one firehose connection
/// cannot starve its shard siblings).
const READ_CHUNK: usize = 16 * 1024;
const READ_BURST: usize = 4;

// ---------------------------------------------------------------------------
// Accept backoff.
// ---------------------------------------------------------------------------

/// Exponential backoff for `accept` errors (EMFILE/ENFILE under fd
/// exhaustion): without it the acceptor hot-spins at 100% CPU on a
/// persistent error. Delays double from [`AcceptBackoff::INITIAL`] to
/// [`AcceptBackoff::CAP`] and reset on the next successful accept.
#[derive(Debug)]
pub(crate) struct AcceptBackoff {
    next_delay: Duration,
}

impl AcceptBackoff {
    pub(crate) const INITIAL: Duration = Duration::from_millis(1);
    pub(crate) const CAP: Duration = Duration::from_millis(100);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff {
            next_delay: Self::INITIAL,
        }
    }

    /// A successful accept resets the backoff.
    pub(crate) fn on_success(&mut self) {
        self.next_delay = Self::INITIAL;
    }

    /// An accept error: returns how long to sleep before retrying, and
    /// doubles the next delay up to the cap.
    pub(crate) fn on_error(&mut self) -> Duration {
        let delay = self.next_delay;
        self.next_delay = (self.next_delay * 2).min(Self::CAP);
        delay
    }
}

// ---------------------------------------------------------------------------
// Line accumulation.
// ---------------------------------------------------------------------------

/// One event produced by feeding bytes into a [`LineAccumulator`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineEvent {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// A line exceeded the byte limit; it was discarded up to (and
    /// including) its newline.
    Oversized,
}

/// Incremental bounded line splitter: the nonblocking twin of the old
/// blocking `read_bounded_line`. Bytes arrive in arbitrary chunks; the
/// accumulator buffers at most `max` bytes of the current line, streams
/// past anything longer (reporting it as one [`LineEvent::Oversized`]
/// per offending line) and treats a trailing unterminated fragment at
/// EOF as a line — netcat without a final newline still gets answered.
#[derive(Debug)]
pub(crate) struct LineAccumulator {
    max: usize,
    buf: Vec<u8>,
    oversized: bool,
}

impl LineAccumulator {
    pub(crate) fn new(max: usize) -> LineAccumulator {
        LineAccumulator {
            max,
            buf: Vec::new(),
            oversized: false,
        }
    }

    /// Feeds one chunk, invoking `on_event` for every completed line.
    pub(crate) fn feed(&mut self, chunk: &[u8], mut on_event: impl FnMut(LineEvent)) {
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let part = &rest[..pos];
            if self.oversized || self.buf.len() + part.len() > self.max {
                self.buf.clear();
                self.oversized = false;
                on_event(LineEvent::Oversized);
            } else {
                self.buf.extend_from_slice(part);
                on_event(LineEvent::Line(std::mem::take(&mut self.buf)));
            }
            rest = &rest[pos + 1..];
        }
        if !rest.is_empty() {
            if self.oversized || self.buf.len() + rest.len() > self.max {
                self.oversized = true;
                self.buf.clear();
            } else {
                self.buf.extend_from_slice(rest);
            }
        }
    }

    /// EOF: the trailing unterminated fragment, if any.
    pub(crate) fn finish(&mut self) -> Option<LineEvent> {
        if self.oversized {
            self.oversized = false;
            self.buf.clear();
            Some(LineEvent::Oversized)
        } else if self.buf.is_empty() {
            None
        } else {
            Some(LineEvent::Line(std::mem::take(&mut self.buf)))
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection output buffer.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct OutBuf {
    bytes: Vec<u8>,
    written: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.bytes.len() - self.written
    }

    /// Reclaims the consumed prefix: a cheap `clear` once fully
    /// drained, and a memmove compaction once the prefix alone reaches
    /// `threshold` — without the latter, a connection that stays
    /// backlogged (workers refilling as fast as the client reads)
    /// would grow `bytes` toward the full response size even though
    /// `pending()` stays bounded.
    fn compact(&mut self, threshold: usize) {
        if self.written == 0 {
            return;
        }
        if self.pending() == 0 {
            self.bytes.clear();
            self.written = 0;
        } else if self.written >= threshold {
            self.bytes.drain(..self.written);
            self.written = 0;
        }
    }
}

/// One connection's nonblocking socket and the output buffer in front
/// of it, shared between its shard (which reads requests and drains
/// leftovers) and every worker answering its jobs (which write
/// response lines through).
///
/// Every write to the socket happens under the buffer's lock, so bytes
/// leave in the order they were appended, whichever thread writes
/// them. A worker's `send` writes its line straight to the socket when
/// nothing is pending; only what the socket refuses stays buffered,
/// and only then is the shard unparked to drain it.
///
/// Appends by workers are flow-controlled: past `high_water` pending
/// bytes the worker blocks on a condvar until the buffer drains, with
/// [`WRITE_STALL_TIMEOUT`] as the overall deadline after which the
/// connection is marked dead — a client that stops reading its socket
/// stalls the workers answering its own requests for at most that long,
/// and never wedges a shard (the lock is only ever held for nonblocking
/// byte shuffling).
#[derive(Debug)]
pub(crate) struct ConnOut {
    /// The one handle on the socket: the shard reads through
    /// `&TcpStream`, and writers write under `state`'s lock.
    stream: TcpStream,
    state: Mutex<OutBuf>,
    space: Condvar,
    dead: AtomicBool,
    /// Jobs enqueued for this connection and not yet answered.
    in_flight: AtomicUsize,
    /// The owning shard's thread, unparked when a `send` leaves bytes
    /// the socket refused, when a write fails, and when a job completes.
    shard: Thread,
    high_water: usize,
}

impl ConnOut {
    /// Wraps a socket already switched to nonblocking mode.
    pub(crate) fn new(stream: TcpStream, shard: Thread, high_water: usize) -> ConnOut {
        ConnOut {
            stream,
            state: Mutex::new(OutBuf::default()),
            space: Condvar::new(),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            shard,
            high_water: high_water.max(1),
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        // Free any worker waiting for buffer space.
        self.space.notify_all();
    }

    /// Marks the connection dead and shuts its socket down, so the peer
    /// sees the close now even while a job still holds this `ConnOut`.
    fn close(&self) {
        self.mark_dead();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Reads request bytes; only the owning shard calls this.
    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        (&self.stream).read(buf)
    }

    pub(crate) fn pending(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    pub(crate) fn job_started(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn job_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.shard.unpark();
    }

    /// Sends a response line from a worker: appends it, then writes
    /// what the socket takes at once, so a reply to a reading client
    /// leaves without waking the shard. The shard is unparked only for
    /// bytes the socket refused or a failed write. Blocks above the
    /// high-water mark until the buffer drains (or the stall timeout
    /// declares the connection dead). A line larger than the high-water
    /// mark on its own is admitted once the buffer is empty — waiting
    /// for `pending + line` to fit would be unsatisfiable and would kill
    /// the connection after the stall timeout — so memory stays bounded
    /// at `max(high_water, one line)` and large unstreamed responses
    /// drain incrementally.
    pub(crate) fn send(&self, response: &Response) {
        let mut line = response.to_json_line();
        line.push('\n');
        if self.is_dead() {
            return;
        }
        let deadline = Instant::now() + WRITE_STALL_TIMEOUT;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.pending() > 0
            && state.pending() + line.len() > self.high_water
            && !self.is_dead()
        {
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                self.mark_dead();
                self.shard.unpark();
                return;
            }
            let (guard, _) = self
                .space
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
        if self.is_dead() {
            return;
        }
        self.write_line(state, &line);
    }

    /// Sends a response line from the shard itself, for a request it
    /// answered without a worker: appends and writes through like
    /// [`ConnOut::send`], but never waits for space, since the shard is
    /// what drains the buffer. The shard sends only into an empty buffer,
    /// so the high-water mark holds to within this one line.
    pub(crate) fn send_now(&self, response: &Response) {
        let mut line = response.to_json_line();
        line.push('\n');
        if self.is_dead() {
            return;
        }
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.write_line(state, &line);
    }

    /// Appends `line` under the held state lock and writes what the
    /// socket takes. Unparks the shard for bytes the socket refused or a
    /// failed write.
    fn write_line(&self, mut state: MutexGuard<'_, OutBuf>, line: &str) {
        let backlog = state.pending() > 0;
        state.bytes.extend_from_slice(line.as_bytes());
        let progress = self.drain(&mut state);
        let pending = state.pending();
        drop(state);
        // Workers wait for space only behind a backlog; draining one
        // may have made room for them.
        if backlog && progress && pending < self.high_water {
            self.space.notify_all();
        }
        if pending > 0 || self.is_dead() {
            self.shard.unpark();
        }
    }

    /// Appends a response line from the shard itself — immediate
    /// protocol errors (`busy`, `oversized`, parse errors). Never
    /// blocks: the shard enforces flow control by not *reading* from a
    /// connection whose buffer is above the high-water mark, so these
    /// appends are bounded too.
    pub(crate) fn push_line(&self, response: &Response) {
        if self.is_dead() {
            return;
        }
        let mut line = response.to_json_line();
        line.push('\n');
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.bytes.extend_from_slice(line.as_bytes());
    }

    /// The shard's drain: writes buffered bytes to the socket and frees
    /// any worker waiting for the space it made. Returns whether any
    /// bytes moved.
    fn write_to(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let progress = self.drain(&mut state);
        let room = progress && state.pending() < self.high_water;
        drop(state);
        if room {
            self.space.notify_all();
        }
        progress
    }

    /// Writes pending bytes into the nonblocking socket until it would
    /// block, under the caller's hold of the state lock. Returns whether
    /// any bytes moved; a hard write error marks the connection dead.
    fn drain(&self, state: &mut OutBuf) -> bool {
        let mut progress = false;
        while state.pending() > 0 {
            match (&self.stream).write(&state.bytes[state.written..]) {
                Ok(0) => {
                    self.mark_dead();
                    break;
                }
                Ok(n) => {
                    state.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.mark_dead();
                    break;
                }
            }
        }
        state.compact(self.high_water);
        progress
    }
}

// ---------------------------------------------------------------------------
// The shard itself.
// ---------------------------------------------------------------------------

/// Serving-layer counters surfaced in the global `stats` document.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    pub accept_errors: AtomicU64,
    pub overload_rejects: AtomicU64,
    pub idle_reaped: AtomicU64,
    pub admission_rejects: AtomicU64,
    pub open_connections: AtomicUsize,
    pub peak_connections: AtomicUsize,
}

/// Static configuration a shard loop needs.
#[derive(Debug, Clone)]
pub(crate) struct ShardOptions {
    pub max_line_bytes: usize,
    pub high_water: usize,
    pub idle_timeout: Option<Duration>,
    /// Flush grace for finishing connections with nothing in flight;
    /// [`SHUTDOWN_DRAIN_GRACE`] in production, shrunk by tests.
    pub drain_grace: Duration,
}

/// One stream the acceptor hands to a shard.
#[derive(Debug)]
pub(crate) struct Handoff {
    pub stream: TcpStream,
    /// `Some`: an over-cap connection the acceptor rejected. The shard
    /// writes this one notice nonblockingly and closes — rejection
    /// never blocks the acceptor, and the stream is not counted in
    /// `open_connections`.
    pub reject: Option<Response>,
}

/// The acceptor's handoff slot for one shard: accepted streams land in
/// the inbox, then the shard's thread is unparked to adopt them.
#[derive(Debug, Default)]
pub(crate) struct ShardInbox {
    pub handoffs: Mutex<Vec<Handoff>>,
}

/// One connection owned by a shard.
struct Conn {
    accum: LineAccumulator,
    out: Arc<ConnOut>,
    last_activity: Instant,
    /// Peer closed its write half; drain our output, then close.
    eof: bool,
    /// We decided to close (idle reap, overload reject); drain the
    /// notice, then close.
    closing: bool,
    /// Whether this connection holds an `open_connections` slot
    /// (overload rejects don't — they were never admitted).
    counted: bool,
    /// Force-close deadline once the connection is finishing *and* has
    /// no jobs in flight, so a peer that never reads its final bytes
    /// cannot pin the slot. The grace covers flushing output only —
    /// requests still computing keep the connection alive, preserving
    /// the "drains every accepted job" shutdown contract.
    drain_deadline: Option<Instant>,
}

impl Conn {
    fn quiesced(&self) -> bool {
        self.out.in_flight() == 0 && self.out.pending() == 0
    }
}

/// Runs one shard until shutdown completes. `on_line` receives every
/// complete request line (parse → a memoised answer, or admission →
/// enqueue, lives with the caller) and returns whether it answered the
/// request on the spot; oversized lines are answered here.
pub(crate) fn shard_loop<F>(
    inbox: &ShardInbox,
    shutdown: &AtomicBool,
    opts: &ShardOptions,
    counters: &ServeCounters,
    mut on_line: F,
) where
    F: FnMut(&Arc<ConnOut>, &[u8]) -> bool,
{
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Whether a pass since the last park answered a request on the spot.
    let mut answered = false;
    loop {
        let mut progress = false;

        // Adopt connections handed off by the acceptor.
        {
            let mut incoming = inbox.handoffs.lock().unwrap_or_else(|e| e.into_inner());
            for handoff in incoming.drain(..) {
                progress = true;
                let counted = handoff.reject.is_none();
                if handoff.stream.set_nonblocking(true).is_err() {
                    if counted {
                        counters.open_connections.fetch_sub(1, Ordering::AcqRel);
                    }
                    continue;
                }
                let out = Arc::new(ConnOut::new(
                    handoff.stream,
                    std::thread::current(),
                    opts.high_water,
                ));
                let closing = match &handoff.reject {
                    Some(notice) => {
                        out.push_line(notice);
                        true
                    }
                    None => false,
                };
                conns.push(Conn {
                    accum: LineAccumulator::new(opts.max_line_bytes),
                    out,
                    last_activity: Instant::now(),
                    eof: false,
                    closing,
                    counted,
                    drain_deadline: None,
                });
            }
        }

        let shutting_down = shutdown.load(Ordering::Acquire);

        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];

            // Read + split lines, unless the peer is done or its output
            // buffer is over the high-water mark (read-side flow
            // control: a client that won't read its responses stops
            // being read from).
            if !conn.eof
                && !conn.closing
                && !conn.out.is_dead()
                && conn.out.pending() < conn.out.high_water
            {
                for _ in 0..READ_BURST {
                    match conn.out.read(&mut scratch) {
                        Ok(0) => {
                            conn.eof = true;
                            if let Some(event) = conn.accum.finish() {
                                answered |= handle_event(conn, event, opts, &mut on_line);
                            }
                            progress = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.last_activity = now;
                            let mut events = Vec::new();
                            conn.accum.feed(&scratch[..n], |ev| events.push(ev));
                            for event in events {
                                answered |= handle_event(conn, event, opts, &mut on_line);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.out.mark_dead();
                            break;
                        }
                    }
                }
            }

            // Drain what workers' writes left buffered, and this pass's
            // own error lines.
            if !conn.out.is_dead() {
                progress |= conn.out.write_to();
            }

            // Idle reaping: a connection with nothing in flight, nothing
            // buffered and no read activity for the timeout gets a
            // structured notice and is closed.
            if let Some(idle) = opts.idle_timeout {
                if !conn.eof
                    && !conn.closing
                    && !conn.out.is_dead()
                    && conn.quiesced()
                    && now.duration_since(conn.last_activity) >= idle
                {
                    counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    conn.out.push_line(&Response::error(
                        None,
                        ErrorCode::IdleTimeout,
                        format!(
                            "connection idle for more than {} ms, closing",
                            idle.as_millis()
                        ),
                    ));
                    conn.out.write_to();
                    conn.closing = true;
                    progress = true;
                }
            }

            // Close bookkeeping: once a connection is finishing (peer
            // EOF, reaped, or server shutdown) *and* its jobs have all
            // completed, give it a bounded grace period to flush and
            // then drop it. The clock starts only when nothing is in
            // flight: a request still computing when its client
            // half-closes (a normal send-then-shutdown(WR) client) or
            // when shutdown begins is never on the clock — the grace
            // bounds flushing to a non-reading peer, not analysis time.
            let finishing = conn.eof || conn.closing || shutting_down;
            if finishing && conn.drain_deadline.is_none() && conn.out.in_flight() == 0 {
                conn.drain_deadline = Some(now + opts.drain_grace);
            }
            let overdue = conn.drain_deadline.is_some_and(|d| now >= d);
            if conn.out.is_dead() || (finishing && (conn.quiesced() || overdue)) {
                conn.out.close();
                if conn.counted {
                    counters.open_connections.fetch_sub(1, Ordering::AcqRel);
                }
                conns.swap_remove(i);
                progress = true;
            } else {
                i += 1;
            }
        }

        if shutting_down && conns.is_empty() {
            return;
        }

        if !progress {
            std::thread::park_timeout(if answered {
                REPLY_PARK_INTERVAL
            } else {
                PARK_INTERVAL
            });
            answered = false;
        }
    }
}

/// Hands one line event on; returns whether the request was answered on
/// the spot.
fn handle_event<F>(conn: &mut Conn, event: LineEvent, opts: &ShardOptions, on_line: &mut F) -> bool
where
    F: FnMut(&Arc<ConnOut>, &[u8]) -> bool,
{
    match event {
        LineEvent::Oversized => {
            conn.out.push_line(&Response::error(
                None,
                ErrorCode::Oversized,
                format!(
                    "request line exceeds the {} byte limit",
                    opts.max_line_bytes
                ),
            ));
            true
        }
        LineEvent::Line(bytes) => on_line(&conn.out, &bytes),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_grows_to_cap_and_resets_on_success() {
        let mut b = AcceptBackoff::new();
        // Injected failure burst: delays double from the initial value…
        assert_eq!(b.on_error(), Duration::from_millis(1));
        assert_eq!(b.on_error(), Duration::from_millis(2));
        assert_eq!(b.on_error(), Duration::from_millis(4));
        // …and saturate at the cap instead of growing without bound.
        for _ in 0..16 {
            b.on_error();
        }
        assert_eq!(b.on_error(), AcceptBackoff::CAP);
        assert_eq!(b.on_error(), AcceptBackoff::CAP);
        // One successful accept resets the schedule.
        b.on_success();
        assert_eq!(b.on_error(), Duration::from_millis(1));
    }

    #[test]
    fn accept_backoff_total_sleep_is_bounded_per_error() {
        // The hot-spin bug: a persistent EMFILE must cost sleeps, not
        // CPU. Sum of delays over N errors is Θ(N · cap) — i.e. the
        // loop runs at most ~10 accept attempts per second once
        // saturated, not millions.
        let mut b = AcceptBackoff::new();
        let total: Duration = (0..50).map(|_| b.on_error()).sum();
        assert!(total >= Duration::from_secs(4), "{total:?}");
        assert!(total <= Duration::from_secs(5), "{total:?}");
    }

    fn collect(acc: &mut LineAccumulator, chunk: &[u8]) -> Vec<LineEvent> {
        let mut events = Vec::new();
        acc.feed(chunk, |e| events.push(e));
        events
    }

    #[test]
    fn accumulator_splits_lines_across_chunks() {
        let mut acc = LineAccumulator::new(64);
        assert_eq!(collect(&mut acc, b"hel"), vec![]);
        assert_eq!(
            collect(&mut acc, b"lo\nwor"),
            vec![LineEvent::Line(b"hello".to_vec())]
        );
        assert_eq!(collect(&mut acc, b"ld"), vec![]);
        // EOF: the trailing fragment still counts as a line.
        assert_eq!(acc.finish(), Some(LineEvent::Line(b"world".to_vec())));
        assert_eq!(acc.finish(), None);
    }

    #[test]
    fn accumulator_discards_oversized_lines_and_recovers() {
        let mut acc = LineAccumulator::new(8);
        // One oversized line arriving in many chunks is one event, and
        // the following line still parses.
        assert_eq!(collect(&mut acc, b"xxxxxxx"), vec![]);
        assert_eq!(collect(&mut acc, b"xxxxxxx"), vec![]);
        assert_eq!(
            collect(&mut acc, b"x\nok\n"),
            vec![LineEvent::Oversized, LineEvent::Line(b"ok".to_vec())]
        );
        // A line of exactly the limit is kept.
        assert_eq!(
            collect(&mut acc, b"12345678\n"),
            vec![LineEvent::Line(b"12345678".to_vec())]
        );
        // An oversized trailing fragment at EOF is reported too.
        assert_eq!(collect(&mut acc, b"yyyyyyyyyyyy"), vec![]);
        assert_eq!(acc.finish(), Some(LineEvent::Oversized));
    }

    /// A connected loopback pair: the client's end, and the served end
    /// in nonblocking mode, as a shard adopts it.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (client, served)
    }

    fn line_of(response: &Response) -> Vec<u8> {
        let mut line = response.to_json_line().into_bytes();
        line.push(b'\n');
        line
    }

    #[test]
    fn send_admits_a_line_larger_than_high_water_into_an_empty_buffer() {
        // Regression: `send` used to wait for `pending + line` to fit
        // under the high-water mark — unsatisfiable for a single line
        // larger than the mark, so the worker stalled the full
        // WRITE_STALL_TIMEOUT and then killed the connection, silently
        // dropping any unstreamed response bigger than the mark. An
        // oversized line must be admitted immediately when the buffer
        // is empty.
        let (client, served) = socket_pair();
        let out = ConnOut::new(served, std::thread::current(), 64);
        let response = Response::ok(Some(1), "x".repeat(4096));
        let started = Instant::now();
        out.send(&response);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "oversized line stalled: {:?}",
            started.elapsed()
        );
        assert!(!out.is_dead(), "oversized line killed the connection");
        let expected = line_of(&response);
        let mut got = vec![0u8; expected.len()];
        (&client).read_exact(&mut got).unwrap();
        assert_eq!(got, expected, "line was not delivered whole");
    }

    #[test]
    fn a_response_into_an_empty_buffer_reaches_the_client_without_a_shard() {
        // No shard loop runs at all: the worker's own write delivers the
        // line, nothing stays buffered, and the shard is not woken.
        let (client, served) = socket_pair();
        let out = ConnOut::new(served, std::thread::current(), 1 << 20);
        std::thread::park_timeout(Duration::ZERO); // clear any stale token
        let response = Response::ok(Some(3), "{\"holds\":true}");
        out.send(&response);
        assert_eq!(out.pending(), 0);
        let expected = line_of(&response);
        let mut got = vec![0u8; expected.len()];
        (&client).read_exact(&mut got).unwrap();
        assert_eq!(got, expected);
        let parked = Instant::now();
        std::thread::park_timeout(Duration::from_millis(100));
        assert!(
            parked.elapsed() >= Duration::from_millis(90),
            "a fully written send unparked the shard"
        );
    }

    #[test]
    fn a_peer_that_stops_reading_leaves_the_rest_for_the_shard() {
        // The socket takes what its buffers hold; the rest stays
        // pending and the shard is unparked. A later line queues behind
        // that rest even when the socket has room again, and once the
        // peer reads, the shard's drain delivers both byte for byte.
        let (client, served) = socket_pair();
        // A mark above both lines, so the second `send` never waits.
        let out = Arc::new(ConnOut::new(served, std::thread::current(), 32 << 20));
        std::thread::park_timeout(Duration::ZERO);
        let body: String = (0..16 << 20)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        let first = Response::ok(Some(9), format!("\"{body}\""));
        let second = Response::ok(Some(10), "{\"holds\":false}");
        let mut expected = line_of(&first);
        expected.extend_from_slice(&line_of(&second));
        out.send(&first);
        let pending = out.pending();
        assert!(
            pending > 0 && pending < expected.len(),
            "{pending} of {} bytes pending",
            expected.len()
        );
        let parked = Instant::now();
        std::thread::park_timeout(Duration::from_secs(5));
        assert!(
            parked.elapsed() < Duration::from_secs(4),
            "bytes were left pending without unparking the shard"
        );
        let mut got = vec![0u8; expected.len()];
        let head = 1 << 20;
        (&client).read_exact(&mut got[..head]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        out.send(&second);
        let reader = std::thread::spawn(move || {
            (&client).read_exact(&mut got[head..]).unwrap();
            got == expected
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while out.pending() > 0 && Instant::now() < deadline {
            if !out.write_to() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(out.pending(), 0);
        assert!(
            reader.join().unwrap(),
            "delivered bytes differ from the lines"
        );
        assert!(!out.is_dead());
    }

    #[test]
    fn a_send_after_the_connection_died_is_dropped() {
        // A peer that went away: writes fail, the connection is marked
        // dead, and later sends are dropped without panicking.
        let (client, served) = socket_pair();
        let out = ConnOut::new(served, std::thread::current(), 1 << 20);
        drop(client);
        let response = Response::ok(Some(1), "{}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !out.is_dead() && Instant::now() < deadline {
            out.send(&response);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(out.is_dead(), "writes to a closed peer never failed");
        let pending = out.pending();
        out.send(&response);
        assert_eq!(out.pending(), pending);

        // A connection the shard closed while a job still holds it: the
        // peer sees the close at once, and the job's send is dropped.
        let (client, served) = socket_pair();
        let out = ConnOut::new(served, std::thread::current(), 1 << 20);
        out.close();
        out.send(&response);
        assert_eq!(out.pending(), 0);
        let mut buf = [0u8; 16];
        assert_eq!((&client).read(&mut buf).unwrap(), 0, "peer not closed");
    }

    #[test]
    fn concurrent_sends_arrive_as_whole_lines() {
        // Four workers answer one connection at once with ~8 MB of
        // lines. The client reads only after a pause, so the socket
        // fills, a backlog builds, workers wait for space, and then
        // write-through and the shard's drain race while it empties.
        // Each line must arrive whole, and each worker's lines in its
        // order.
        use std::io::BufRead;
        const WORKERS: usize = 4;
        const LINES: usize = 40;
        let doc = |t: usize, seq: usize| {
            let pad: String = "0123456789".repeat(1_000 + 700 * ((t * 7 + seq) % 13));
            format!("{{\"t\":{t},\"seq\":{seq},\"pad\":\"{pad}\"}}")
        };
        let (mut client, shutdown, _counters, handle) =
            one_conn_shard(None, Duration::from_millis(25), move |out, _line| {
                for t in 0..WORKERS {
                    out.job_started();
                    let out = Arc::clone(out);
                    std::thread::spawn(move || {
                        for seq in 0..LINES {
                            out.send(&Response::ok(Some(t as u64), doc(t, seq)));
                        }
                        out.job_finished();
                    });
                }
            });
        client.write_all(b"{\"id\":1}\n").unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let mut reader = std::io::BufReader::new(client);
        let mut next = [0usize; WORKERS];
        for _ in 0..WORKERS * LINES {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let response = Response::parse(line.trim_end()).expect("a whole line");
            let t = response.id.unwrap() as usize;
            let expected = line_of(&Response::ok(Some(t as u64), doc(t, next[t])));
            assert!(
                line.as_bytes() == expected,
                "line of worker {t} out of order or torn"
            );
            next[t] += 1;
        }
        assert_eq!(next, [LINES; WORKERS]);
        shutdown.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().unwrap();
    }

    #[test]
    fn out_buf_reclaims_consumed_prefix_under_backlog() {
        // Regression: the consumed prefix was only reclaimed once the
        // buffer fully drained, so a connection that stayed backlogged
        // grew `bytes` toward the full response size.
        let mut buf = OutBuf::default();
        buf.bytes.extend_from_slice(&[7u8; 1000]);
        buf.written = 900;
        // Below the threshold nothing moves (no memmove churn on every
        // partial write)...
        buf.compact(1024);
        assert_eq!(buf.bytes.len(), 1000);
        assert_eq!(buf.written, 900);
        // ...past it the prefix is dropped and pending is preserved...
        buf.compact(512);
        assert_eq!(buf.bytes.len(), 100);
        assert_eq!(buf.written, 0);
        assert_eq!(buf.pending(), 100);
        // ...and a fully drained buffer clears outright, whatever the
        // threshold.
        buf.written = 100;
        buf.compact(1 << 20);
        assert!(buf.bytes.is_empty());
        assert_eq!(buf.written, 0);
    }

    /// Spawns `shard_loop` over one adopted handoff with a tiny drain
    /// grace; returns the client-side stream, the shutdown flag, the
    /// counters and the join handle.
    fn one_conn_shard<F>(
        handoff_reject: Option<Response>,
        drain_grace: Duration,
        on_line: F,
    ) -> (
        TcpStream,
        Arc<AtomicBool>,
        Arc<ServeCounters>,
        std::thread::JoinHandle<()>,
    )
    where
        F: FnMut(&Arc<ConnOut>, &[u8]) + Send + 'static,
    {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        let counted = handoff_reject.is_none();
        let inbox = Arc::new(ShardInbox::default());
        inbox.handoffs.lock().unwrap().push(Handoff {
            stream: served,
            reject: handoff_reject,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        if counted {
            counters.open_connections.store(1, Ordering::Release);
        }
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let opts = ShardOptions {
                max_line_bytes: 1024,
                high_water: 1 << 20,
                idle_timeout: None,
                drain_grace,
            };
            let mut on_line = on_line;
            std::thread::spawn(move || {
                shard_loop(&inbox, &shutdown, &opts, &counters, |out, line| {
                    on_line(out, line);
                    false
                });
            })
        };
        (client, shutdown, counters, handle)
    }

    #[test]
    fn half_close_drain_waits_for_jobs_still_computing() {
        // Regression: the drain grace used to start the moment the peer
        // half-closed, covering computation as well as flushing — any
        // request whose analysis outlived the grace after a normal
        // send-then-shutdown(WR) client closed its write half was
        // force-closed and its response lost. The deadline must start
        // only once the connection has no jobs in flight.
        use std::io::BufRead;
        let grace = Duration::from_millis(25);
        let (mut client, shutdown, _counters, handle) =
            one_conn_shard(None, grace, move |out, _line| {
                // "Worker": answers after 8x the drain grace, holding
                // the in-flight slot the whole time (mirrors JobTicket).
                out.job_started();
                let out = Arc::clone(out);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(200));
                    out.send(&Response::ok(Some(1), "{\"slow\":true}"));
                    out.job_finished();
                });
            });
        client.write_all(b"{\"id\":1}\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = std::io::BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"slow\":true"),
            "slow response lost after half-close: {line:?}"
        );
        shutdown.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().unwrap();
    }

    #[test]
    fn reject_handoffs_get_the_notice_without_an_open_slot() {
        // An over-cap reject is flushed by the shard's nonblocking loop
        // and closed, and never touches `open_connections` (it was
        // never admitted).
        use std::io::BufRead;
        let notice = Response::error(None, ErrorCode::Overloaded, "server is at its limit");
        let (client, shutdown, counters, handle) =
            one_conn_shard(Some(notice), Duration::from_millis(25), |_out, _line| {
                panic!("a rejected connection must not serve requests");
            });
        let mut reader = std::io::BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("overloaded"), "{line:?}");
        // ...then the close.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line:?}");
        assert_eq!(counters.open_connections.load(Ordering::Acquire), 0);
        shutdown.store(true, Ordering::Release);
        handle.thread().unpark();
        handle.join().unwrap();
    }

    #[test]
    fn conn_out_appends_and_tracks_in_flight() {
        let (_client, served) = socket_pair();
        let out = ConnOut::new(served, std::thread::current(), 1 << 20);
        assert_eq!(out.pending(), 0);
        // The shard's own lines are only appended; its pass drains them.
        out.push_line(&Response::ok(Some(1), "{}"));
        assert!(out.pending() > 0);
        assert_eq!(out.in_flight(), 0);
        out.job_started();
        out.job_started();
        assert_eq!(out.in_flight(), 2);
        out.job_finished();
        assert_eq!(out.in_flight(), 1);
        out.mark_dead();
        assert!(out.is_dead());
        // Dead connections ignore further sends.
        out.send(&Response::ok(Some(2), "{}"));
    }
}
