//! The benchmark command: runs, checks, and the printed report ending in
//! the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bfl_server::json::Json;

use crate::hostspeed;
use crate::inputs::{Inputs, Workload};
use crate::oracle::{self, Checked};
use crate::run::{self, CpuSlice, OpKind, Window};
use crate::server;
use crate::stats::{mean, median, tail};
use crate::trace;

/// End-to-end metrics of one window.
#[derive(Debug, Clone)]
struct EndToEnd {
    setup_s: f64,
    setup_median_s: f64,
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p99_ms: Result<f64, usize>,
    first_answer_p90_ms: Result<f64, usize>,
    cpu_ms_per_op: f64,
    cpu_scaled_ms_per_op: f64,
    cpu_unscaled_ms_per_op: f64,
    cpu_gross_ms_per_op: f64,
    peak_rss_mb: f64,
    peak_rss_end_mb: f64,
    attempted: usize,
    failed: usize,
}

/// The median over corpus models of `per_model` of each model's values,
/// so that every model counts once however often the seed's order let
/// the window load it.
fn median_over_models(
    values: impl Iterator<Item = (usize, f64)>,
    per_model: fn(&[f64]) -> f64,
) -> f64 {
    let mut by_model: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (model, v) in values {
        by_model.entry(model).or_default().push(v);
    }
    median(&by_model.values().map(|v| per_model(v)).collect::<Vec<_>>())
}

/// Server CPU per op above the idle floor. Each slice's CPU, less what
/// the idle server burns in as long, is divided by the slice's ops and,
/// if `scaled`, brought to the nominal host speed by the host speed
/// samples around the slice. The result is the median over slices; on
/// `load-scaled`, whose slices are single chains, the median over models
/// of each model's mean chain. A model is loaded two or three times per
/// window, and a mean treats both counts alike where a nearest-rank
/// median of two would take the lower.
fn net_cpu_ms_per_op(window: &Window, scaled: bool) -> f64 {
    let net = |s: &CpuSlice| {
        let per_op = (s.cpu_ms - window.idle_cpu_ms_per_s * s.seconds) / s.ops as f64;
        if scaled {
            per_op * hostspeed::NOMINAL_MS / s.host_ms
        } else {
            per_op
        }
    };
    let slices = window.cpu_slices.iter().filter(|s| s.ops > 0);
    if window
        .ops
        .iter()
        .any(|op| matches!(op.kind, OpKind::Model(_)))
    {
        median_over_models(
            slices.filter_map(|s| match window.ops.get(s.first_op)?.kind {
                OpKind::Model(i) => Some((i, net(s))),
                OpKind::Item(_) => None,
            }),
            mean,
        )
    } else {
        median(&slices.map(net).collect::<Vec<_>>())
    }
}

/// Whether `cpu_ms_per_op` is brought to the nominal host speed on
/// `workload`. Not on `whatif-cold`: its service time followed the
/// host's load less than the reference kernel did, so scaling ranked the
/// fastest host's runs slowest (NOTES.md, *Host speed*).
fn scales_cpu(workload: Workload) -> bool {
    workload != Workload::WhatifCold
}

impl EndToEnd {
    fn of(window: &Window, checked: &Checked, workload: Workload) -> EndToEnd {
        let latencies: Vec<f64> = window.ops.iter().filter_map(|op| op.latency_ms()).collect();
        let latency_p50_ms = if window
            .ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Model(_)))
        {
            median_over_models(
                window.ops.iter().filter_map(|op| match op.kind {
                    OpKind::Model(i) => Some((i, op.latency_ms()?)),
                    OpKind::Item(_) => None,
                }),
                median,
            )
        } else {
            median(&latencies)
        };
        let ok = window.ops.len() - checked.failed();
        let (cpu0, cpu1) = &window.cpu;
        let cpu_scaled_ms_per_op = net_cpu_ms_per_op(window, true);
        let cpu_unscaled_ms_per_op = net_cpu_ms_per_op(window, false);
        EndToEnd {
            setup_s: window.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            setup_median_s: median(&window.setup_s),
            throughput_rps: ok as f64 / window.wall_s.max(1e-9),
            latency_p50_ms,
            latency_p99_ms: tail(&latencies, 0.99),
            first_answer_p90_ms: tail(&latencies, 0.9),
            cpu_ms_per_op: if scales_cpu(workload) {
                cpu_scaled_ms_per_op
            } else {
                cpu_unscaled_ms_per_op
            },
            cpu_scaled_ms_per_op,
            cpu_unscaled_ms_per_op,
            cpu_gross_ms_per_op: (cpu1.process_ms - cpu0.process_ms) / (ok.max(1) as f64),
            peak_rss_mb: window.peak_rss_mib,
            peak_rss_end_mb: window.peak_rss_end_mib,
            attempted: window.ops.len(),
            failed: checked.failed(),
        }
    }

    /// The metrics `BENCHMARK.json` bounds, in its order. Wall-clock
    /// latency and throughput are reported but not bounded: see NOTES.md.
    fn bounded(&self) -> [(&'static str, f64, &'static str); 3] {
        [
            ("setup_s", self.setup_s, "s"),
            ("cpu_ms_per_op", self.cpu_ms_per_op, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    /// Tracing overhead: the traced window minus the untraced one.
    fn overheads(&self, untraced: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "trace.overhead.setup_s",
                self.setup_s - untraced.setup_s,
                "s",
            ),
            (
                "trace.overhead.throughput_rps",
                self.throughput_rps - untraced.throughput_rps,
                "1/s",
            ),
            (
                "trace.overhead.latency_p50_ms",
                self.latency_p50_ms - untraced.latency_p50_ms,
                "ms",
            ),
            (
                "trace.overhead.cpu_ms_per_op",
                self.cpu_ms_per_op - untraced.cpu_ms_per_op,
                "ms",
            ),
            (
                "trace.overhead.peak_rss_mb",
                self.peak_rss_mb - untraced.peak_rss_mb,
                "MiB",
            ),
        ]
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every end-to-end metric by name and unit, with the ones a
    /// workload does not define marked as such.
    fn print(&self, workload: Workload) {
        let load = workload == Workload::LoadScaled;
        let refused = |r: &Result<f64, usize>| match r {
            Ok(v) => format!("{v:.4} ms"),
            Err(n) => format!("refused: {n} samples leave fewer than 10 beyond it"),
        };
        println!(
            "  setup_s              {:.4} s (fastest of {} set-ups; median {:.4} s)",
            self.setup_s,
            run::SETUP_REPS,
            self.setup_median_s
        );
        println!(
            "  throughput_rps       {:.3} 1/s (ok ops per second)",
            self.throughput_rps
        );
        if load {
            println!(
                "  latency_p50_ms       {:.4} ms (= first_answer_p50_ms: median over corpus models of each model's median load→prob time)",
                self.latency_p50_ms
            );
            println!("  latency_p99_ms       n/a (applies to the whatif-* workloads)");
            println!("  first_answer_p50_ms  {:.4} ms", self.latency_p50_ms);
            println!(
                "  first_answer_p90_ms  {}",
                refused(&self.first_answer_p90_ms)
            );
        } else {
            println!("  latency_p50_ms       {:.4} ms", self.latency_p50_ms);
            println!("  latency_p99_ms       {}", refused(&self.latency_p99_ms));
            println!("  first_answer_p50_ms  n/a (applies to load-scaled)");
            println!("  first_answer_p90_ms  n/a (applies to load-scaled)");
        }
        println!(
            "  cpu_ms_per_op        {:.4} ms (server user+sys CPU per op above the idle floor, median over slices, {} on this workload; {:.4} ms scaled, {:.4} ms unscaled, {:.4} ms per ok op gross)",
            self.cpu_ms_per_op,
            if scales_cpu(workload) {
                "at the nominal host speed"
            } else {
                "unscaled"
            },
            self.cpu_scaled_ms_per_op,
            self.cpu_unscaled_ms_per_op,
            self.cpu_gross_ms_per_op
        );
        println!(
            "  peak_rss_mb          {:.2} MiB (server VmHWM after {} ops; {:.2} MiB at the window's end)",
            self.peak_rss_mb,
            run::memory_ops(workload),
            self.peak_rss_end_mb
        );
        println!(
            "  error_rate           {:.6} ({} of {} ops failed, refused or mismatched)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
    }
}

/// A number with all its digits, as JSON (non-finite values as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One measured and checked window.
struct Measured {
    window: Window,
    checked: Checked,
    e2e: EndToEnd,
}

fn measure(
    bin: &Path,
    log: &Path,
    inputs: &Inputs,
    seconds: f64,
    nproc: usize,
) -> Result<Measured, String> {
    let window = run::run(bin, log, inputs, seconds, nproc)?;
    let checked = oracle::check(inputs, &window.ops)?;
    let e2e = EndToEnd::of(&window, &checked, inputs.workload);
    Ok(Measured {
        window,
        checked,
        e2e,
    })
}

/// `name before→after` for every integer field of the object at `path`
/// in two `stats` documents.
fn counter_changes(before: &Json, after: &Json, path: &[&str]) -> String {
    let at = |doc: &Json| {
        path.iter()
            .try_fold(doc.clone(), |d, key| d.get(key).cloned())
    };
    let (Some(b), Some(Json::Object(fields))) = (at(before), at(after)) else {
        return "unavailable".to_string();
    };
    fields
        .iter()
        .filter_map(|(name, value)| {
            let now = value.as_u64()?;
            let was = b.get(name).and_then(Json::as_u64).unwrap_or(0);
            Some(format!("{name} {was}→{now}"))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Latency by op kind: count, mean, median and p90 in ms.
fn print_op_latencies(window: &Window) {
    let mut per_second = vec![0usize; window.wall_s.ceil() as usize + 1];
    for op in &window.ops {
        per_second[op.end() as usize] += 1;
    }
    println!("    ops completed per second: {per_second:?}");
    let mut by_op: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for op in &window.ops {
        let name = match &op.kind {
            OpKind::Item(item) => item.op(),
            OpKind::Model(_) => "load→prob",
        };
        by_op.entry(name).or_default().extend(op.latency_ms());
    }
    for (name, l) in by_op {
        let mean = mean(&l);
        let p90 = tail(&l, 0.9).map_or("refused".to_string(), |v| format!("{v:.4}"));
        println!(
            "    {name:<10} n={:<7} mean={mean:.4} p50={:.4} p90={p90} ms",
            l.len(),
            median(&l)
        );
    }
}

/// Prints a window's end-to-end metrics, latency by op and checks;
/// returns whether every check passed.
fn print_window(label: &str, r: &Measured, workload: Workload) -> bool {
    println!(
        "{label} window ({} ops in {:.3} s; the hypervisor stole {:.1}% of host CPU):",
        r.window.ops.len(),
        r.window.wall_s,
        100.0 * r.window.steal_share
    );
    r.e2e.print(workload);
    let setups: Vec<String> = r
        .window
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1000.0))
        .collect();
    println!("  set-ups in run order (ms): {}", setups.join(", "));
    let (before, after) = &r.window.global;
    println!(
        "  server counters over the window: {}",
        counter_changes(before, after, &["counters"])
    );
    // The warm window must only hit memos: no formula compiled afresh
    // (`cache_misses`, the plan-rebuild counter) and no memo miss.
    let mut warm_path_ok = true;
    if let Some((before, after)) = &r.window.session {
        println!(
            "  session counters over the window: {}",
            counter_changes(before, after, &["stats"])
        );
        let grew = |path: &[&str]| {
            let at = |doc: &Json| {
                path.iter()
                    .try_fold(doc, |d, key| d.get(key))
                    .and_then(Json::as_u64)
            };
            at(after) != at(before)
        };
        warm_path_ok &= !grew(&["stats", "cache_misses"]);
        if let Some(Json::Object(plans)) = after.get("plans") {
            for (id, _) in plans {
                println!(
                    "  plan {id} over the window: {}",
                    counter_changes(before, after, &["plans", id])
                );
                warm_path_ok &= !grew(&["plans", id, "memo_misses"]);
            }
        }
    }
    let warm_path_ok = workload != Workload::WhatifWarm || warm_path_ok;
    if !warm_path_ok {
        println!("  failure: the warm window rebuilt a plan or missed a memo");
    }
    // Every load-scaled chain ends with `unload`, so no session may
    // outlive the window; the what-if workloads keep their one session.
    let sessions = after
        .get("sessions")
        .and_then(Json::as_array)
        .map_or(usize::MAX, <[Json]>::len);
    let sessions_expected = usize::from(workload != Workload::LoadScaled);
    let sessions_ok = sessions == sessions_expected;
    if !sessions_ok {
        println!(
            "  failure: {sessions} sessions loaded after the window, expected {sessions_expected}"
        );
    }
    println!(
        "  idle floor: {:.2} ms/s of server CPU over one idle second after the window; {} CPU slices",
        r.window.idle_cpu_ms_per_s,
        r.window.cpu_slices.len()
    );
    let samples: Vec<f64> = r.window.host_pauses.iter().flatten().copied().collect();
    let around: Vec<f64> = r.window.cpu_slices.iter().map(|s| s.host_ms).collect();
    println!(
        "  host speed: the reference kernel took {:.3} ms of CPU (median of {} samples in {} pauses; nominal {} ms); around the slices {:.3} to {:.3} ms",
        median(&samples),
        samples.len(),
        r.window.host_pauses.len(),
        hostspeed::NOMINAL_MS,
        around.iter().copied().fold(f64::INFINITY, f64::min),
        around.iter().copied().fold(0.0, f64::max)
    );
    let (cpu0, cpu1) = &r.window.cpu;
    let ok = (r.window.ops.len() - r.checked.failed()).max(1) as f64;
    let groups: Vec<String> = cpu1
        .groups_ms
        .keys()
        .map(|g| format!("{g} {:.4}", cpu1.group_delta(cpu0, g) / ok))
        .collect();
    println!(
        "  server CPU per ok op by live thread group (ms): {}",
        groups.join(", ")
    );
    print_op_latencies(&r.window);
    let same_fingerprint = r.window.fingerprints.windows(2).all(|w| w[0] == w[1]);
    println!(
        "  checks: {} oracle comparisons over {} ops, {} failed; {} busy refusals",
        r.checked.comparisons,
        r.window.ops.len(),
        r.checked.failed(),
        r.checked.busy
    );
    if same_fingerprint {
        println!(
            "  counters after set-up, equal in all {}: {}",
            r.window.fingerprints.len(),
            r.window.fingerprints.first().map_or("", String::as_str)
        );
    } else {
        println!(
            "  counters after set-up DIFFER: {}",
            r.window.fingerprints.join(" | ")
        );
    }
    if let Some(msg) = &r.checked.first_internal {
        println!("  first internal error: {msg}");
    }
    for p in &r.checked.problems {
        println!("  failure: {p}");
    }
    warm_path_ok
        && sessions_ok
        && same_fingerprint
        && r.checked.failed() == 0
        && !r.window.ops.is_empty()
}

/// Runs the benchmark and prints its report and result line.
pub fn bench(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let bin = server::build_bfl()?;
    let dir = server::target_dir().join("servebench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = dir.join(format!("server-{}.log", workload.name()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs = Inputs::generate(workload, seed);
    let seconds = seconds as f64;

    let plain = measure(&bin, &log, &inputs, seconds, nproc)?;
    let global = &plain.window.global.0;
    let field = |name: &str| global.get(name).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "servebench {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(traced)
    );
    println!(
        "  host nproc={nproc}; server workers={} shards={} (defaults); driver threads={} connections={}",
        field("workers"),
        field("shards"),
        plain.window.connections,
        plain.window.connections
    );
    println!(
        "  commit {}",
        git_commit().unwrap_or_else(|| "unknown (not run from a git checkout)".to_string())
    );
    let mut correct = print_window("untraced", &plain, workload);

    let mut out = String::new();
    let (attempted, failed) = if traced {
        let traced_run = measure(&bin, &log, &inputs, seconds, nproc)?;
        correct &= print_window("traced", &traced_run, workload);
        let spans = dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
        let layers = trace::replay(
            &inputs,
            &traced_run.window,
            &traced_run.checked,
            seconds,
            &spans,
        )?;
        println!(
            "per-layer metrics (in-process replay of {} traced ops; spans in {}):",
            layers.replayed,
            spans.display()
        );
        let mut metrics = layers.metrics;
        metrics.extend(traced_run.e2e.overheads(&plain.e2e));
        for (name, value, unit) in &metrics {
            println!("  {name:<30} {value:.4} {unit}");
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}},",
                json_number(*value)
            );
        }
        (
            plain.e2e.attempted + traced_run.e2e.attempted,
            plain.e2e.failed + traced_run.e2e.failed,
        )
    } else {
        for (name, value, unit) in plain.e2e.bounded() {
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}},",
                json_number(value)
            );
        }
        (plain.e2e.attempted, plain.e2e.failed)
    };
    out.pop();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{out}}}}}"
    );
    Ok(())
}

/// `git rev-parse HEAD`, when the current directory is the root of a git
/// checkout (not merely inside some other repository).
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn load_scaled_ops_time_the_first_answer() {
        let ex = |sent: f64, received: f64| run::Exchange {
            line: String::new(),
            response: String::new(),
            sent,
            received,
        };
        let op = run::OpRecord {
            conn: 0,
            kind: OpKind::Model(0),
            exchanges: vec![ex(1.0, 1.1), ex(1.1, 1.4), ex(1.4, 1.5), ex(1.5, 1.6)],
            transport_error: None,
        };
        assert!((op.latency_ms().expect("answered") - 500.0).abs() < 1e-9);
        assert!((op.end() - 1.6).abs() < 1e-12);
    }
}
