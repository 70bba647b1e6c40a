//! The traced replay: the request lines of a traced window, replayed
//! in-process through each layer's public functions with a span around
//! every call, plus the BDD kernels timed on the benchmark's own compiled
//! top root. Spans stay in memory and are written out at the end.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use bfl_bdd::Var;
use bfl_core::engine::AnalysisSession;
use bfl_core::parser::parse_query;
use bfl_core::report::{json_outcome, json_str, Spec};
use bfl_core::{PreparedQuery, Scenario, ScenarioSet};
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::{galileo, VariableOrdering};
use bfl_server::{Op, ProbTarget, Request, Response};

use crate::inputs::{Inputs, Workload};
use crate::oracle::Checked;
use crate::run::{OpKind, OpRecord, Window};
use crate::stats::median;

/// Replayed ops per workload: enough for stable medians, bounded so the
/// replay stays short next to the window.
fn replay_cap(workload: Workload) -> usize {
    match workload {
        Workload::LoadScaled => 6,
        Workload::WhatifWarm => 2000,
        Workload::WhatifCold => 600,
    }
}

/// One span: a layer call made while replaying request `request`.
#[derive(Debug, Clone)]
struct Span {
    /// The request (op) id the call serves.
    request: u64,
    /// The layer call.
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Microseconds from the replay's start.
    start_us: f64,
    /// Microseconds from the replay's start.
    end_us: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Self time per request and layer: each span's duration minus its
    /// children's, summed over the request's spans of that name.
    fn self_times(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name)
                .or_default()
                .entry(s.request)
                .or_insert(0.0) += s.end_us - s.start_us - children;
        }
        out
    }

    /// Total duration of each request's root span.
    fn roots(&self, name: &str) -> HashMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.request, s.end_us - s.start_us))
            .collect()
    }
}

/// The in-process twin of the served session: the session and its plans
/// in preparation order, addressed by the server's ids.
struct Replica {
    session: AnalysisSession,
    plans: HashMap<String, PreparedQuery>,
}

/// Serves one request line in-process the way the server's worker
/// does, with a span around each layer call. Returns the response line.
fn serve(t: &mut Tracer, line: &str, replica: &mut Option<Replica>) -> Result<String, String> {
    let request = t
        .span("protocol.parse", |_| Request::parse(line))
        .map_err(|e| e.2)?;
    let doc = match &request.op {
        Op::Load { model, options } => {
            let parsed = t
                .span("galileo.parse", |_| galileo::parse(model))
                .map_err(|e| e.to_string())?;
            let session = t.span("engine.load", |_| {
                let mut builder = AnalysisSession::builder().probabilities(parsed.probabilities);
                if let Some(limit) = options.witness_limit {
                    builder = builder.witness_limit(limit as usize);
                }
                builder.build(parsed.tree)
            });
            *replica = Some(Replica {
                session,
                plans: HashMap::new(),
            });
            "{\"session\":\"s\"}".to_string()
        }
        Op::Prepare { query, .. } => {
            let r = replica.as_mut().ok_or("no session")?;
            let q = t
                .span("parser.spec", |_| parse_query(query))
                .map_err(|e| e.to_string())?;
            let prepared = t
                .span("plan.prepare", |_| r.session.prepare(&q))
                .map_err(|e| e.to_string())?;
            let explain = t.span("report.render", |_| prepared.explain().to_json());
            let id = format!("p{}", r.plans.len() + 1);
            r.plans.insert(id.clone(), prepared);
            format!("{{\"plan\":{},\"explain\":{explain}}}", json_str(&id))
        }
        Op::Check { query, .. } => {
            let r = replica.as_ref().ok_or("no session")?;
            let spec = t
                .span("parser.spec", |_| Spec::parse(query))
                .map_err(|e| e.to_string())?;
            let report = t
                .span("engine.check", |_| r.session.run(&spec))
                .map_err(|e| e.to_string())?;
            t.span("report.render", |_| report.to_json())
        }
        Op::Eval { plan, scenario, .. } | Op::Cause { plan, scenario, .. } => {
            let r = replica.as_ref().ok_or("no session")?;
            let p = r.plans.get(plan).ok_or("no plan")?;
            let s = parse_scenario(t, scenario)?;
            let cause = matches!(request.op, Op::Cause { .. });
            let outcome = if cause {
                t.span("plan.cause", |_| p.cause(&s))
            } else {
                t.span("plan.eval", |_| p.eval(&s))
            }
            .map_err(|e| e.to_string())?;
            t.span("report.render", |_| json_outcome(p.tree(), &outcome))
        }
        Op::Sweep {
            plan, scenarios, ..
        } => {
            let r = replica.as_ref().ok_or("no session")?;
            let p = r.plans.get(plan).ok_or("no plan")?;
            let set = t
                .span("parser.scenario", |_| ScenarioSet::parse(scenarios))
                .map_err(|e| e.to_string())?;
            let report = t
                .span("plan.sweep", |_| p.sweep(&set))
                .map_err(|e| e.to_string())?;
            t.span("report.render", |_| report.to_json())
        }
        Op::Prob {
            target: ProbTarget::Plan { plan, scenario },
            ..
        } => {
            let r = replica.as_ref().ok_or("no session")?;
            let p = r.plans.get(plan).ok_or("no plan")?;
            let s = parse_scenario(t, scenario.as_deref().unwrap_or(""))?;
            let value = t
                .span("plan.prob", |_| p.probability_value(&s, None))
                .map_err(|e| e.to_string())?;
            t.span("report.render", |_| {
                let p_text = match value {
                    Some(bfl_core::ProbValue::Exact(x)) => x.to_string(),
                    _ => "null".to_string(),
                };
                format!(
                    "{{\"query\":{},\"probability\":{p_text}}}",
                    json_str(p.source())
                )
            })
        }
        Op::Unload { .. } => {
            *replica = None;
            "{\"unloaded\":\"s\"}".to_string()
        }
        Op::Stats { .. } => "{}".to_string(),
        other => return Err(format!("the replay does not serve `{}`", other.name())),
    };
    Ok(t.span("protocol.render", |_| {
        Response::ok(request.id, doc).to_json_line()
    }))
}

fn parse_scenario(t: &mut Tracer, text: &str) -> Result<Scenario, String> {
    if text.trim().is_empty() {
        return Ok(Scenario::new());
    }
    t.span("parser.scenario", |_| Scenario::parse(text))
        .map_err(|e| e.to_string())
}

/// The benchmark's own compile of a model's top event: the diagram, its
/// root, and the compile's cost.
struct OwnCompile {
    tb: TreeBdd,
    root: bfl_bdd::Bdd,
    arena_nodes: usize,
    live_nodes: usize,
}

fn own_compile(t: &mut Tracer, tree: &bfl_fault_tree::FaultTree) -> OwnCompile {
    t.span("compile", |_| {
        let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
        let root = tb.element_bdd(tree, tree.top());
        let arena_nodes = tb.manager().arena_size();
        let live_nodes = tb.live_node_count(&[root]);
        OwnCompile {
            tb,
            root,
            arena_nodes,
            live_nodes,
        }
    })
}

/// Times `restrict_many` and the Shannon walk for one scenario on the
/// benchmark's own root; returns the nodes the restriction added.
fn bdd_kernels(
    t: &mut Tracer,
    own: &mut OwnCompile,
    tree: &bfl_fault_tree::FaultTree,
    probs: &[f64],
    scenario: &str,
    memo: &mut HashMap<u32, f64>,
) -> usize {
    let assignments: Vec<(Var, bool)> = Scenario::parse(scenario)
        .map(|s| {
            s.bindings()
                .iter()
                .filter_map(|(name, v)| {
                    let bi = tree.basic_index(tree.element(name)?)?;
                    Some((own.tb.var_of_basic(bi), *v))
                })
                .collect()
        })
        .unwrap_or_default();
    let before = own.tb.manager().arena_size();
    let root = own.root;
    let restricted = t.span("bdd.restrict", |_| {
        own.tb.manager_mut().restrict_many(root, &assignments)
    });
    let added = own.tb.manager().arena_size() - before;
    // Weights by variable index, so the span times the walk alone.
    let mut weights = vec![0.0; own.tb.manager().num_vars() as usize];
    for (bi, &p) in probs.iter().enumerate() {
        weights[own.tb.var_of_basic(bi).index() as usize] = p;
    }
    let manager = own.tb.manager();
    t.span("bdd.prob_walk", |_| {
        let weight = |v: Var| weights[v.index() as usize];
        std::hint::black_box(manager.probability_with_memo(restricted, &weight, memo))
    });
    added
}

/// Per-layer metrics of a traced window, from the in-process replay and
/// the server counters read around the window.
pub struct Layers {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops replayed.
    pub replayed: usize,
}

/// Replays the traced window's requests in-process and derives the
/// per-layer metrics; writes every span to `spans_path`.
pub fn replay(
    inputs: &Inputs,
    window: &Window,
    checked: &Checked,
    budget_s: f64,
    spans_path: &Path,
) -> Result<Layers, String> {
    let started = Instant::now();
    let mut t = Tracer::new();
    let mut replica = None;
    let mut restrict_added = Vec::new();
    let mut session_arena = Vec::new();
    let mut compiles = Vec::new();

    // The what-if session, set up in-process exactly as on the server.
    // The load and prepare spans count (the window reuses that work);
    // the warm-up's do not.
    let mut own = None;
    let mut memo = HashMap::new();
    if inputs.workload != Workload::LoadScaled {
        let load = crate::inputs::load_line(0, &inputs.model, inputs.witness_limit());
        serve(&mut t, &load, &mut replica)?;
        for (i, q) in inputs.queries.iter().enumerate() {
            t.request = i as u64 + 1;
            serve(
                &mut t,
                &crate::inputs::prepare_line(0, "s", q),
                &mut replica,
            )?;
        }
        let own_compiled = own_compile(&mut t, &inputs.model.tree);
        compiles.push((own_compiled.arena_nodes, own_compiled.live_nodes));
        own = Some(own_compiled);
        let ids = crate::inputs::Ids {
            session: "s".into(),
            eval_plan: "p1".into(),
            prob_plan: "p2".into(),
            cause_plan: "p3".into(),
        };
        let set_up_spans = t.spans.len();
        for item in &inputs.warm_up() {
            serve(&mut t, &inputs.line(0, item, &ids), &mut replica)?;
        }
        t.spans.truncate(set_up_spans);
    }

    let mut replayed = Vec::new();
    for (op, _) in window.ops.iter().zip(&checked.ok).filter(|(_, ok)| **ok) {
        if replayed.len() >= replay_cap(inputs.workload)
            || started.elapsed().as_secs_f64() > budget_s
        {
            break;
        }
        t.request = request_id(op);
        t.span("request", |t| -> Result<(), String> {
            for (step, ex) in op.exchanges.iter().enumerate() {
                serve(t, &ex.line, &mut replica)?;
                // A load-scaled session's whole arena, read after `prob`.
                if let (OpKind::Model(_), 2, Some(r)) = (&op.kind, step, &replica) {
                    session_arena.push(r.session.stats().arena_nodes as f64);
                }
            }
            Ok(())
        })?;
        match (&op.kind, own.as_mut()) {
            (OpKind::Item(item), Some(own)) => {
                let added = bdd_kernels(
                    &mut t,
                    own,
                    &inputs.model.tree,
                    &inputs.model.probs,
                    item.scenario().unwrap_or(""),
                    &mut memo,
                );
                restrict_added.push(added as f64);
            }
            (OpKind::Model(i), _) => {
                let model = &inputs.load_models[*i];
                let mut own = own_compile(&mut t, &model.tree);
                compiles.push((own.arena_nodes, own.live_nodes));
                let mut fresh = HashMap::new();
                let added =
                    bdd_kernels(&mut t, &mut own, &model.tree, &model.probs, "", &mut fresh);
                restrict_added.push(added as f64);
            }
            _ => {}
        }
        replayed.push(op);
    }

    write_spans(&t, window, spans_path)?;
    let layers = t.self_times();
    let layer = |name: &str, scale: f64| -> f64 {
        layers.get(name).map_or(0.0, |per_request| {
            median(&per_request.values().map(|v| v * scale).collect::<Vec<_>>())
        })
    };
    let roots = t.roots("request");
    let served: Vec<f64> = roots.values().copied().collect();
    // Wire time minus in-process service time, per replayed op.
    let overhead: Vec<f64> = replayed
        .iter()
        .filter_map(|op| {
            let wire: f64 = op
                .exchanges
                .iter()
                .map(|e| (e.received - e.sent) * 1e6)
                .sum();
            Some(wire - roots.get(&request_id(op))?)
        })
        .collect();
    let ok_ops = (checked.ok.len() - checked.failed()) as f64;
    let mean_service_us = served.iter().sum::<f64>() / served.len().max(1) as f64;
    let (cpu0, cpu1) = &window.cpu;
    let per_op = |group: &str| cpu1.group_delta(cpu0, group) / ok_ops.max(1.0);
    let (arena_nodes, live_nodes) = {
        let arenas: Vec<f64> = compiles.iter().map(|c| c.0 as f64).collect();
        let lives: Vec<f64> = compiles.iter().map(|c| c.1 as f64).collect();
        (median(&arenas), median(&lives))
    };
    let counters = SessionCounters::of(window);
    let metrics = vec![
        ("galileo.parse_ms", layer("galileo.parse", 1e-3), "ms"),
        ("compile.ms", layer("compile", 1e-3), "ms"),
        ("compile.arena_nodes", arena_nodes, "count"),
        ("compile.live_nodes", live_nodes, "count"),
        (
            "compile.alloc_per_live",
            arena_nodes / live_nodes.max(1.0),
            "ratio",
        ),
        ("plan.prepare_ms", layer("plan.prepare", 1e-3), "ms"),
        ("plan.eval_us", layer("plan.eval", 1.0), "us"),
        ("plan.prob_us", layer("plan.prob", 1.0), "us"),
        ("plan.cause_us", layer("plan.cause", 1.0), "us"),
        ("plan.sweep_us", layer("plan.sweep", 1.0), "us"),
        ("plan.memo_hit_ratio", counters.memo_hit_ratio, "ratio"),
        ("engine.check_us", layer("engine.check", 1.0), "us"),
        (
            "engine.arena_growth_per_op",
            match inputs.workload {
                Workload::LoadScaled => median(&session_arena),
                _ => counters.arena_growth / ok_ops.max(1.0),
            },
            "count",
        ),
        ("engine.plan_rebuilds", counters.plan_rebuilds, "count"),
        ("bdd.restrict_us", layer("bdd.restrict", 1.0), "us"),
        ("bdd.restrict_new_nodes", median(&restrict_added), "count"),
        ("bdd.prob_walk_us", layer("bdd.prob_walk", 1.0), "us"),
        ("parser.scenario_us", layer("parser.scenario", 1.0), "us"),
        ("parser.spec_us", layer("parser.spec", 1.0), "us"),
        ("report.render_us", layer("report.render", 1.0), "us"),
        ("protocol.parse_us", layer("protocol.parse", 1.0), "us"),
        ("protocol.render_us", layer("protocol.render", 1.0), "us"),
        ("server.overhead_us", median(&overhead), "us"),
        (
            "server.parallelism",
            mean_service_us * ok_ops / (window.wall_s * 1e6).max(1.0),
            "ratio",
        ),
        ("server.shard_cpu_ms", per_op("shard"), "ms"),
        ("server.worker_cpu_ms", per_op("worker"), "ms"),
        ("server.busy_rejects", checked.busy as f64, "count"),
    ];
    Ok(Layers {
        metrics,
        replayed: replayed.len(),
    })
}

/// The id of an op's first request line.
fn request_id(op: &OpRecord) -> u64 {
    op.exchanges
        .first()
        .and_then(|e| Request::parse(&e.line).ok())
        .and_then(|r| r.id)
        .unwrap_or(0)
}

/// Session counters of a window, from the `stats` reads around it.
struct SessionCounters {
    memo_hit_ratio: f64,
    arena_growth: f64,
    plan_rebuilds: f64,
}

impl SessionCounters {
    fn of(window: &Window) -> SessionCounters {
        use bfl_server::json::Json;
        let num = |doc: &Json, path: &[&str]| -> f64 {
            let mut v = Some(doc);
            for key in path {
                v = v.and_then(|d| d.get(key));
            }
            v.and_then(Json::as_f64).unwrap_or(0.0)
        };
        let Some((before, after)) = &window.session else {
            return SessionCounters {
                memo_hit_ratio: 0.0,
                arena_growth: 0.0,
                plan_rebuilds: 0.0,
            };
        };
        let delta = |path: &[&str]| num(after, path) - num(before, path);
        let (mut hits, mut lookups) = (0.0, 0.0);
        if let Some(Json::Object(plans)) = after.get("plans") {
            for (id, _) in plans {
                hits += delta(&["plans", id, "memo_hits"]);
                lookups += delta(&["plans", id, "evals"]);
            }
        }
        SessionCounters {
            memo_hit_ratio: if lookups > 0.0 { hits / lookups } else { 0.0 },
            arena_growth: delta(&["stats", "arena_nodes"]),
            plan_rebuilds: delta(&["stats", "cache_misses"]),
        }
    }
}

/// Writes the replay's spans and the window's client spans, one JSON
/// object per line.
fn write_spans(t: &Tracer, window: &Window, path: &Path) -> Result<(), String> {
    let mut out = String::new();
    for s in &t.spans {
        let _ = writeln!(
            out,
            "{{\"request\":{},\"span\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.request,
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_us,
            s.end_us
        );
    }
    for op in &window.ops {
        for e in &op.exchanges {
            let id = Request::parse(&e.line).ok().and_then(|r| r.id).unwrap_or(0);
            let _ = writeln!(
                out,
                "{{\"request\":{id},\"span\":\"client\",\"conn\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                op.conn,
                e.sent * 1e6,
                e.received * 1e6
            );
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.request = 3;
        t.span("request", |t| {
            t.span("protocol.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("protocol.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = t.self_times();
        let parse = times["protocol.parse"][&3];
        let root_self = times["request"][&3];
        let root_total = t.roots("request")[&3];
        assert!(parse >= 4000.0);
        assert!((root_total - parse - root_self).abs() < 1e-6);
        assert!(root_self < parse);
    }
}
