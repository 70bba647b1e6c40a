//! The server under test as a child process: building and booting a
//! release `bfl serve`, talking to it, and reading its counters and its
//! CPU and memory use from outside.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfl_server::json::Json;
use bfl_server::{Response, ResponseBody};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 by
/// the kernel ABI on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Where cargo puts build outputs: `$CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds the release `bfl` binary of the workspace in the current
/// directory and returns its path.
pub fn build_bfl() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "bfl-cli",
            "--bin",
            "bfl",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building `bfl` failed: {status}"));
    }
    let bin = target_dir().join("release").join("bfl");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("`{}` was not built", bin.display()))
    }
}

/// One line-oriented protocol connection. Unlike `bfl_server::Client`,
/// it sends each request line with its newline in one write, as the
/// `reproduce serve` driver does, and can pipeline a batch.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off (one-line requests).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line, newline included, in one write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    /// Reads one response line (without its newline).
    pub fn recv(&mut self) -> io::Result<String> {
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Sends one request line and waits for its response line.
    pub fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// A round trip whose response must be ok; returns the parsed result.
    pub fn ok(&mut self, line: &str) -> Result<Json, String> {
        let raw = self.round_trip(line).map_err(|e| e.to_string())?;
        result_of(&raw)
    }

    /// Pipelines `lines` in one write, then reads one response per line;
    /// every response must be ok. Keep batches below the server's queue
    /// capacity (64 by default) or the excess is refused as `busy`.
    pub fn ok_pipelined(&mut self, lines: &[String]) -> Result<(), String> {
        let framed: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| e.to_string())?;
        for _ in lines {
            result_of(&self.recv().map_err(|e| e.to_string())?)?;
        }
        Ok(())
    }
}

/// The parsed `result` document of an ok response line, or the error.
pub fn result_of(raw: &str) -> Result<Json, String> {
    match Response::parse(raw)?.body {
        ResponseBody::Result(doc) => Json::parse(&doc).map_err(|e| e.to_string()),
        ResponseBody::Error { code, message } => Err(format!("{code}: {message}")),
    }
}

/// A running `bfl serve` child.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Copies the server's stderr into the log until the server exits.
    stderr_copier: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bfl serve` on a free loopback port with every other
    /// setting at its default, and waits until its banner says it
    /// listens. Its stderr goes to `log`.
    pub fn boot(bin: &Path, log: &Path) -> Result<ServerProc, String> {
        let mut log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
        // The copier hands over the first line, the banner, as soon as it
        // is written: a blocking read, so boot time is not rounded up to
        // a polling interval.
        let (banner_tx, banner_rx) = mpsc::channel();
        let stderr_copier = std::thread::spawn(move || {
            let mut banner = String::new();
            let _ = stderr.read_line(&mut banner);
            let _ = log.write_all(banner.as_bytes());
            let _ = banner_tx.send(banner);
            let _ = io::copy(&mut stderr, &mut log);
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_copier: Some(stderr_copier),
        };
        let banner = banner_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_default();
        server.addr = listening_addr(&banner)
            .ok_or_else(|| format!("server did not start: {}", banner.trim()))?;
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on `conn` and waits for the process to exit,
    /// killing it if it does not within ten seconds.
    pub fn shutdown(mut self, conn: &mut Conn) {
        let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    /// Kills the server if it still runs, reaps it and joins the stderr
    /// copier, which ends when the server's stderr closes.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(copier) = self.stderr_copier.take() {
            let _ = copier.join();
        }
    }
}

/// The address in `bfl serve`'s "listening on ADDR (…" banner. The
/// banner may be read half-written, so the address counts only once the
/// ` (` after it has arrived.
fn listening_addr(log: &str) -> Option<SocketAddr> {
    let rest = log.split("listening on ").nth(1)?;
    rest.split_once(" (")?.0.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `(comm, utime + stime ticks)` from a `/proc/<pid>[/task/<tid>]/stat`
/// line. The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    // After ")": state(3) ppid(4) … utime(14) stime(15).
    let fields: Vec<&str> = stat.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// The thread group a server thread's CPU is reported under.
fn thread_group(comm: &str) -> &'static str {
    if comm.starts_with("bfl-shard") {
        "shard"
    } else if comm.starts_with("bfl-worker") {
        "worker"
    } else if comm.starts_with("bfl-acceptor") {
        "acceptor"
    } else {
        "other"
    }
}

/// CPU time of the server process and of its live threads by group, in
/// milliseconds.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    /// The whole process, exited threads included.
    pub process_ms: f64,
    /// Live threads grouped as `acceptor`, `shard`, `worker`, `other`.
    pub groups_ms: BTreeMap<&'static str, f64>,
}

fn ticks_ms(ticks: u64) -> f64 {
    ticks as f64 * 1000.0 / TICKS_PER_SEC
}

/// The whole server process's user+sys CPU in ms, exited threads
/// included, from `/proc/<pid>/stat` (10 ms ticks).
pub fn process_cpu_ms(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |(_, t)| ticks_ms(t))
}

/// Time on CPU in ns, the first field of a `/proc/<pid>/task/<tid>/schedstat`
/// line.
pub fn schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time of the process's live threads in ms, to the nanosecond:
/// the sum of their `schedstat` times. Exact for an interval in which no
/// thread starts or exits, such as an idle server's.
pub fn live_threads_cpu_ms(pid: u32) -> f64 {
    let ns: u64 = std::fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| schedstat_ns(&s))
        .sum();
    ns as f64 / 1e6
}

impl CpuSnapshot {
    /// Reads `/proc/<pid>/stat` and `/proc/<pid>/task/*/stat`.
    pub fn read(pid: u32) -> CpuSnapshot {
        let mut groups_ms = BTreeMap::new();
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))
            .into_iter()
            .flatten()
            .flatten()
        {
            if let Some((comm, t)) = std::fs::read_to_string(task.path().join("stat"))
                .ok()
                .and_then(|s| stat_cpu_ticks(&s))
            {
                *groups_ms.entry(thread_group(&comm)).or_insert(0.0) += ticks_ms(t);
            }
        }
        CpuSnapshot {
            process_ms: process_cpu_ms(pid),
            groups_ms,
        }
    }

    /// Milliseconds of `group` spent between `earlier` and `self`.
    pub fn group_delta(&self, earlier: &CpuSnapshot, group: &str) -> f64 {
        let get = |s: &CpuSnapshot| s.groups_ms.get(group).copied().unwrap_or(0.0);
        get(self) - get(earlier)
    }
}

/// Host CPU time stolen by the hypervisor, all CPUs, in ms: the `steal`
/// column of `/proc/stat`'s `cpu` line.
pub fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| steal_ticks(&s))
        .map_or(0.0, |t| t as f64 * 1000.0 / TICKS_PER_SEC)
}

fn steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal …
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The server's peak resident set in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tbfl\nVmPeak:\t  120000 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(45678));
        assert_eq!(vm_hwm_kib("Name:\tbfl\n"), None);
    }

    #[test]
    fn reads_utime_and_stime_past_odd_command_names() {
        let stat = "4242 (bfl-worker-1) S 1 4242 4242 0 -1 4194560 300 0 0 0 \
                    731 129 0 0 20 0 5 0 12345 1000000 500 18446744073709551615";
        assert_eq!(
            stat_cpu_ticks(stat),
            Some(("bfl-worker-1".to_string(), 860))
        );
        let odd = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(stat_cpu_ticks(odd), Some(("a) b (c)".to_string(), 11)));
        assert_eq!(stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn reads_schedstat_time_on_cpu() {
        assert_eq!(schedstat_ns("77687123 4521 12\n"), Some(77_687_123));
        assert_eq!(schedstat_ns(""), None);
        assert_eq!(schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn reads_host_steal() {
        let stat = "cpu  59001 0 9367 258803 578 0 1056 21780 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(steal_ticks(stat), Some(21780));
        assert_eq!(steal_ticks("intr 1 2\n"), None);
    }

    #[test]
    fn groups_server_threads_by_name() {
        assert_eq!(thread_group("bfl-shard-0"), "shard");
        assert_eq!(thread_group("bfl-worker-12"), "worker");
        assert_eq!(thread_group("bfl-acceptor"), "acceptor");
        assert_eq!(thread_group("bfl"), "other");
    }

    #[test]
    fn reads_this_process() {
        let me = CpuSnapshot::read(std::process::id());
        assert!(me.process_ms >= 0.0);
        assert!(!me.groups_ms.is_empty());
        assert!(live_threads_cpu_ms(std::process::id()) > 0.0);
        assert!(peak_rss_mib(std::process::id()) > 0.0);
    }

    #[test]
    fn parses_the_listening_banner() {
        let log = "bfl-server listening on 127.0.0.1:40123 (2 workers, 2 shards); send …\n";
        assert_eq!(
            listening_addr(log),
            Some("127.0.0.1:40123".parse().expect("addr"))
        );
        assert_eq!(listening_addr(""), None);
        assert_eq!(listening_addr("bfl-server listening on 127.0.0.1:40"), None);
    }
}
