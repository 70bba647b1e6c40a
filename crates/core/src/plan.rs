//! Compiled query plans: [`PreparedQuery`], [`Plan`] and [`SweepReport`].
//!
//! BFL's what-if workload ("does the property still hold, given that
//! these events are known failed/operational?") runs the *same* layer-2
//! query under many evidence hypotheses. Recompiling the whole pipeline
//! per hypothesis — wrap the formula in evidence operators, desugar,
//! translate to a BDD, minimise — wastes all the work that does not
//! depend on the evidence. This module is the prepared-statement answer:
//!
//! * [`AnalysisSession::prepare`](crate::engine::AnalysisSession::prepare)
//!   runs the pass pipeline **once** — desugar → NNF → simplify → BDD
//!   build (with the `MCS`/`MPS` primed-variable minimisation where the
//!   formula needs it) — and returns an owned, `Send + Sync`
//!   [`PreparedQuery`] sharing the session's caches;
//! * [`PreparedQuery::eval`] answers one [`Scenario`] by **restriction**
//!   (cofactoring) of the compiled diagram — the cheap operation on an
//!   already-built BDD — and memoises the result, so repeated scenarios
//!   are pure cache lookups. The restriction is scratch: once the answer
//!   is extracted as plain data, the arena rolls back to where the
//!   request found it, so no what-if grows the session;
//! * [`PreparedQuery::sweep`] evaluates a whole [`ScenarioSet`] in
//!   order over the shared caches and returns a [`SweepReport`];
//! * [`PreparedQuery::explain`] exposes the [`Plan`]: pass-by-pass
//!   formula sizes, compiled BDD node counts and whether the minimality
//!   machinery was needed, rendered as text or JSON.
//!
//! Soundness of evidence-as-restriction: the checker compiles an
//! outermost evidence chain `ϕ[e1↦v1]…[ek↦vk]` as
//! `restrict(…restrict(B(ϕ), v1, b1)…)`, and BDDs are canonical — so
//! restricting the *prepared* diagram yields the **identical** node the
//! recompile-per-scenario path ends at, witnesses included. The
//! cross-check suite (`tests/prepared_query.rs`) asserts this agreement
//! on the COVID case study and on randomized trees and formulas.
//!
//! # Migration: per-scenario recompile → prepare/sweep
//!
//! | before (evidence in the AST)                          | after (evidence as restriction)        |
//! |-------------------------------------------------------|----------------------------------------|
//! | `phi.with_evidence("IW", true)` per scenario          | `Scenario::named("s").bind("IW", true)`|
//! | loop { `session.check_query(&wrapped)?` }             | `prepared.sweep(&scenarios)?`          |
//! | one full pipeline run per scenario                    | one `session.prepare(&q)?`, then       |
//! |                                                       | restriction + memo per scenario        |
//! | stats scattered per query                             | `SweepReport` totals + `SweepStats`    |
//!
//! # Example
//!
//! ```
//! use bfl_core::engine::AnalysisSession;
//! use bfl_core::parser::parse_query;
//! use bfl_core::scenario::{Scenario, ScenarioSet};
//! use bfl_fault_tree::corpus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = AnalysisSession::new(corpus::covid());
//! let prepared = session.prepare(&parse_query("exists IWoS")?)?;
//!
//! // Is the top event still reachable if the vulnerable worker is
//! // protected? (No: VW is in every cut set.)
//! let protected = Scenario::named("protected").bind("VW", false);
//! assert!(!prepared.eval(&protected)?.holds);
//!
//! // Sweep: force each human error operational in turn.
//! let set = ScenarioSet::parse("no-H1: H1 = 0\nno-H4: H4 = 0\n")?;
//! let report = prepared.sweep(&set)?;
//! assert_eq!(report.outcomes.len(), 2);
//! assert_eq!(report.stats.translation_misses, 0); // no recompilation
//!
//! // The plan shows what `prepare` did, pass by pass.
//! println!("{}", prepared.explain());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bfl_bdd::{Bdd, Var, Watermark, WatermarkMemo};
use bfl_fault_tree::{FaultTree, StatusVector};

use crate::ast::{CmpOp, Formula, Query};
use crate::checker::ModelChecker;
use crate::engine::{default_mc_threads, SessionInner};
use crate::error::BflError;
use crate::quant;
use crate::report::{
    json_stats, json_str, write_estimate, write_interval, write_json_str, write_or_null,
    write_outcome, write_stats, EvalStats, Outcome,
};
use crate::rewrite::{desugar, simplify, to_nnf};
use crate::scenario::{Scenario, ScenarioSet};
use crate::uncertainty::{self, Estimate, Method, ProbInterval, ProbValue};

/// `VOT` operators wider than this skip the (exponential) desugar pass;
/// the native threshold translation compiles them directly.
const DESUGAR_VOT_LIMIT: usize = 8;

/// Formula renderings in the [`Plan`] are truncated to this many
/// characters; sizes are always exact.
const RENDER_LIMIT: usize = 96;

// ---------------------------------------------------------------------------
// The plan: what `prepare` did.
// ---------------------------------------------------------------------------

/// One rewriting pass over one operand formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStep {
    /// Pass name: `parse`, `desugar`, `nnf` or `simplify`.
    pub pass: &'static str,
    /// Whether the pass ran (`desugar` is skipped for very wide `VOT`
    /// operators, whose native threshold translation is exponentially
    /// smaller).
    pub applied: bool,
    /// AST size after the pass.
    pub size: usize,
    /// The formula after the pass, truncated to a display-friendly
    /// length.
    pub rendered: String,
}

/// The compilation record of one operand formula of a prepared query.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandPlan {
    /// The operand's role in the query (`operand`, `left`, `right`).
    pub role: &'static str,
    /// The rewriting passes, in execution order.
    pub passes: Vec<PassStep>,
    /// Node count of the compiled diagram.
    pub bdd_nodes: usize,
    /// Number of basic events in the diagram's support (= `IBE`).
    pub support: usize,
    /// `Some(b)` when the operand compiled to the constant `b` — the
    /// query is then scenario-independent.
    pub constant: Option<bool>,
}

/// The compiled query plan: pass-by-pass formula sizes, BDD statistics
/// and build cost. Rendered human-readably by [`fmt::Display`] and
/// machine-readably by [`Plan::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Concrete syntax of the prepared query.
    pub query: String,
    /// Query shape: `exists`, `forall`, `idp` or `sup`.
    pub kind: &'static str,
    /// `true` when no operand contains `MCS`/`MPS`, i.e. the compile
    /// skipped the primed-variable minimisation machinery entirely (the
    /// fast path Section V notes for minimality-free formulas).
    pub minimality_fast_path: bool,
    /// Per-operand compilation records.
    pub operands: Vec<OperandPlan>,
    /// Cost of the one-time compile: duration, translation-cache
    /// hits/misses and arena size after the build.
    pub prepare: EvalStats,
}

impl Plan {
    /// Serialises the plan as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"query\":{}", json_str(&self.query)));
        out.push_str(&format!(",\"kind\":{}", json_str(self.kind)));
        out.push_str(&format!(
            ",\"minimality_fast_path\":{}",
            self.minimality_fast_path
        ));
        out.push_str(",\"operands\":[");
        for (i, op) in self.operands.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"role\":{}", json_str(op.role)));
            out.push_str(",\"passes\":[");
            for (j, p) in op.passes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"pass\":{},\"applied\":{},\"size\":{},\"rendered\":{}}}",
                    json_str(p.pass),
                    p.applied,
                    p.size,
                    json_str(&p.rendered)
                ));
            }
            out.push(']');
            out.push_str(&format!(",\"bdd_nodes\":{}", op.bdd_nodes));
            out.push_str(&format!(",\"support\":{}", op.support));
            match op.constant {
                Some(b) => out.push_str(&format!(",\"constant\":{b}")),
                None => out.push_str(",\"constant\":null"),
            }
            out.push('}');
        }
        out.push_str(&format!("],\"prepare\":{}", json_stats(&self.prepare)));
        out.push('}');
        out
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for `{}`", self.query)?;
        writeln!(
            f,
            "  kind: {} · minimality fast path: {}",
            self.kind,
            if self.minimality_fast_path {
                "yes (no MCS/MPS operators)"
            } else {
                "no (primed-variable minimisation required)"
            }
        )?;
        for op in &self.operands {
            writeln!(f, "  {}:", op.role)?;
            for p in &op.passes {
                if p.applied {
                    writeln!(f, "    {:<9} size {:<4} {}", p.pass, p.size, p.rendered)?;
                } else {
                    writeln!(f, "    {:<9} (skipped)", p.pass)?;
                }
            }
            match op.constant {
                Some(b) => writeln!(f, "    BDD: constant {b} · scenario-independent")?,
                None => writeln!(
                    f,
                    "    BDD: {} nodes · support {} basic events",
                    op.bdd_nodes, op.support
                )?,
            }
        }
        writeln!(
            f,
            "  prepared in {} µs · {} cache hits / {} misses · arena {} nodes",
            self.prepare.duration_micros,
            self.prepare.cache_hits,
            self.prepare.cache_misses,
            self.prepare.arena_nodes
        )
    }
}

// ---------------------------------------------------------------------------
// The compiled query.
// ---------------------------------------------------------------------------

/// The compiled shape of a layer-2 query: everything scenario evaluation
/// needs is one or two BDD roots.
#[derive(Debug, Clone, Copy)]
enum Compiled {
    /// `∃ϕ` (`exists = true`) or `∀ϕ`.
    Quantifier { root: Bdd, exists: bool },
    /// `IDP(ϕ, ϕ′)`; `SUP(e)` compiles to its defining independence.
    Independence { left: Bdd, right: Bdd },
    /// `P(ϕ[ | ψ]) ▷◁ p`: `joint` is `B(ϕ ∧ ψ)` (just `B(ϕ)` when
    /// unconditioned), `given` is `B(ψ)`.
    Prob {
        joint: Bdd,
        given: Option<Bdd>,
        op: CmpOp,
        bound: f64,
    },
    /// `importance(ϕ)`.
    Importance { root: Bdd },
    /// `cause(ϕ, evidence)` / `causes(ϕ, evidence, k)`: the observation
    /// (query evidence + scenario bindings) and the enumeration bound
    /// live in the stored [`Query`]; `root` is `B(ϕ)`. Each request
    /// builds the maximality relation it needs over the support of its
    /// own cofactor (see [`causality`](mod@crate::causality)).
    Cause { root: Bdd },
}

/// A scenario evaluation, memoised under the resolved bindings.
#[derive(Debug, Clone)]
struct CachedEval {
    holds: bool,
    witnesses: Vec<StatusVector>,
    counterexamples: Vec<StatusVector>,
    shared_events: Vec<String>,
    probability: Option<f64>,
    importance: Vec<quant::EventImportance>,
    causes: Option<crate::causality::CauseReport>,
    bdd_nodes: usize,
    arena_nodes: usize,
}

impl CachedEval {
    fn bare(holds: bool, bdd_nodes: usize, arena_nodes: usize) -> Self {
        CachedEval {
            holds,
            witnesses: Vec::new(),
            counterexamples: Vec::new(),
            shared_events: Vec::new(),
            probability: None,
            importance: Vec::new(),
            causes: None,
            bdd_nodes,
            arena_nodes,
        }
    }
}

/// One scenario's probability evaluation, memoised under the resolved
/// bindings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ProbEval {
    /// The probability; `None` for conditionals whose condition has
    /// (effectively) zero probability.
    probability: Option<f64>,
    /// The threshold verdict for `P(…) ▷◁ p`-shaped plans, `None` for
    /// plans with no bound to judge.
    holds: Option<bool>,
}

/// The node-keyed Shannon memos of one prepared query. Point and
/// interval walks cache separately (they memoise different value types).
/// Between requests they hold only nodes that stay in the arena: a
/// node's value does not depend on the scenario that first reached it.
/// Each is a [`WatermarkMemo`]: it costs its own entries, not the
/// session's arena, and forgetting a request's nodes is a truncation.
#[derive(Debug, Default)]
struct ProbMemo {
    nodes: WatermarkMemo<f64>,
    interval_nodes: WatermarkMemo<(f64, f64)>,
}

impl ProbMemo {
    /// Drops the entries of the nodes a rollback removed: the next nodes
    /// reuse their ids.
    fn end_request(&mut self) {
        self.nodes.end_request();
        self.interval_nodes.end_request();
    }
}

/// A layer-2 query compiled once against a session, evaluable under
/// arbitrary evidence [`Scenario`]s without recompilation.
///
/// Created by
/// [`AnalysisSession::prepare`](crate::engine::AnalysisSession::prepare).
/// The handle is owned and `Send + Sync`: it keeps the session's shared
/// core (tree, BDD manager, translation caches) alive via an [`Arc`], so
/// it outlives the `AnalysisSession` value it came from and can be moved
/// freely across threads. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct PreparedQuery {
    inner: Arc<SessionInner>,
    query: Query,
    source: String,
    /// The compiled root(s), fixed at prepare. They sit below every
    /// later request's watermark, so no rollback drops them.
    compiled: Compiled,
    /// A `cause` plan's own evidence, resolved as [`resolve_bindings`]
    /// does; empty for other plans.
    evidence: Vec<(usize, bool)>,
    plan: Plan,
    memo: Mutex<HashMap<Vec<(usize, bool)>, CachedEval>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    /// Node-keyed Shannon memo shared by every probability evaluation of
    /// this plan (restrictions of one diagram share almost all nodes).
    prob_memo: Mutex<ProbMemo>,
    /// Scenario-keyed probability results.
    prob_scenarios: Mutex<HashMap<Vec<(usize, bool)>, ProbEval>>,
    prob_hits: AtomicU64,
    prob_misses: AtomicU64,
}

/// Cumulative evaluation statistics of one [`PreparedQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreparedStats {
    /// Total number of [`PreparedQuery::eval`] calls.
    pub evals: u64,
    /// Evaluations answered from the scenario memo (pure lookups).
    pub memo_hits: u64,
    /// Evaluations that computed a restriction (first sight of a
    /// scenario).
    pub memo_misses: u64,
    /// Distinct scenarios memoised.
    pub distinct_scenarios: usize,
}

impl PreparedQuery {
    /// Runs the full pass pipeline once and compiles the query. Called
    /// via [`AnalysisSession::prepare`](crate::engine::AnalysisSession::prepare).
    pub(crate) fn compile(inner: Arc<SessionInner>, psi: &Query) -> Result<Self, BflError> {
        let source = psi.to_string();
        let start = Instant::now();
        // A cause query's own evidence is resolved once, here, so a bad
        // binding fails at prepare, not on first eval. The bindings are
        // applied per scenario (observationally: they do not restrict the
        // compiled root).
        let evidence = match psi {
            Query::Cause { evidence, .. } => resolve_bindings(&inner.tree, evidence, &[])?,
            _ => Vec::new(),
        };
        let mut mc = inner.lock();
        let (hits0, misses0) = (mc.cache_hits(), mc.cache_misses());
        let (compiled, kind, operands, fast_path) = match psi {
            Query::Exists(phi) | Query::Forall(phi) => {
                let exists = matches!(psi, Query::Exists(_));
                let (op, root) = compile_operand(&mut mc, "operand", phi)?;
                (
                    Compiled::Quantifier { root, exists },
                    if exists { "exists" } else { "forall" },
                    vec![op],
                    !phi.has_minimality_operator(),
                )
            }
            Query::Idp(a, b) => {
                let (la, left) = compile_operand(&mut mc, "left", a)?;
                let (rb, right) = compile_operand(&mut mc, "right", b)?;
                (
                    Compiled::Independence { left, right },
                    "idp",
                    vec![la, rb],
                    !a.has_minimality_operator() && !b.has_minimality_operator(),
                )
            }
            Query::Sup(name) => {
                // SUP(e) ::= IDP(e, e_top).
                let a = Formula::atom(name.clone());
                let top = Formula::atom(inner.tree.name(inner.tree.top()));
                let (la, left) = compile_operand(&mut mc, "left", &a)?;
                let (rb, right) = compile_operand(&mut mc, "right", &top)?;
                (
                    Compiled::Independence { left, right },
                    "sup",
                    vec![la, rb],
                    true,
                )
            }
            Query::Prob {
                formula,
                given,
                op,
                bound,
            } => {
                let (op_plan, root) = compile_operand(&mut mc, "operand", formula)?;
                let mut operands = vec![op_plan];
                let mut fast = !formula.has_minimality_operator();
                let (joint, compiled_given) = match given {
                    None => (root, None),
                    Some(g) => {
                        let (gp, groot) = compile_operand(&mut mc, "given", g)?;
                        operands.push(gp);
                        fast = fast && !g.has_minimality_operator();
                        let joint = mc.tree_bdd_mut().manager_mut().and(root, groot);
                        (joint, Some(groot))
                    }
                };
                (
                    Compiled::Prob {
                        joint,
                        given: compiled_given,
                        op: *op,
                        bound: bound.get(),
                    },
                    "prob",
                    operands,
                    fast,
                )
            }
            Query::Importance(phi) => {
                let (op_plan, root) = compile_operand(&mut mc, "operand", phi)?;
                (
                    Compiled::Importance { root },
                    "importance",
                    vec![op_plan],
                    !phi.has_minimality_operator(),
                )
            }
            Query::Cause { formula, .. } => {
                let (op_plan, root) = compile_operand(&mut mc, "operand", formula)?;
                (
                    Compiled::Cause { root },
                    "cause",
                    vec![op_plan],
                    !formula.has_minimality_operator(),
                )
            }
        };
        let prepare = EvalStats {
            bdd_nodes: 0,
            arena_nodes: mc.manager().arena_size(),
            cache_hits: mc.cache_hits() - hits0,
            cache_misses: mc.cache_misses() - misses0,
            duration_micros: start.elapsed().as_micros(),
        };
        let plan = Plan {
            query: source.clone(),
            kind,
            minimality_fast_path: fast_path,
            operands,
            prepare,
        };
        drop(mc);
        Ok(PreparedQuery {
            inner,
            query: psi.clone(),
            source,
            compiled,
            evidence,
            plan,
            memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            prob_memo: Mutex::new(ProbMemo::default()),
            prob_scenarios: Mutex::new(HashMap::new()),
            prob_hits: AtomicU64::new(0),
            prob_misses: AtomicU64::new(0),
        })
    }

    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Concrete syntax of the prepared query.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The fault tree the query was compiled against.
    pub fn tree(&self) -> &FaultTree {
        &self.inner.tree
    }

    /// The compiled query plan (pass sizes, BDD statistics, build cost).
    pub fn explain(&self) -> &Plan {
        &self.plan
    }

    /// Cumulative evaluation statistics since `prepare`.
    pub fn stats(&self) -> PreparedStats {
        let hits = self.memo_hits.load(Ordering::Relaxed);
        let misses = self.memo_misses.load(Ordering::Relaxed);
        PreparedStats {
            evals: hits + misses,
            memo_hits: hits,
            memo_misses: misses,
            distinct_scenarios: self.memo.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Resolves a scenario's bindings against the tree: basic indices,
    /// first-binding-wins for repeated events, sorted for memo keying.
    ///
    /// `cause` plans carry evidence of their own, resolved at prepare;
    /// it wins conflicts with scenario bindings, so a scenario-extended
    /// observation and a query spelling the same evidence inline share
    /// one memo entry.
    fn resolve(&self, scenario: &Scenario) -> Result<Vec<(usize, bool)>, BflError> {
        let mut key = resolve_bindings(&self.inner.tree, scenario.bindings(), &self.evidence)?;
        if !self.evidence.is_empty() {
            key.extend_from_slice(&self.evidence);
            // Two sorted runs over distinct events: the stable sort merges
            // them.
            key.sort_by_key(|&(bi, _)| bi);
        }
        Ok(key)
    }

    /// Evaluates the prepared query under one scenario — BDD restriction
    /// on the compiled diagram, memoised so repeated scenarios are pure
    /// cache lookups.
    ///
    /// The returned [`Outcome`] agrees exactly (verdict *and*
    /// witnesses/counterexamples) with wrapping the query in the
    /// scenario's evidence and re-checking it from scratch; its
    /// `stats.cache_hits`/`cache_misses` count the **scenario memo** (1
    /// hit for a memoised scenario, 1 miss for a fresh restriction).
    ///
    /// # Errors
    ///
    /// [`BflError::UnknownElement`] / [`BflError::EvidenceOnGate`] for
    /// bindings that do not name a basic event of the tree;
    /// [`BflError::MissingProbabilities`] /
    /// [`BflError::InvalidProbability`] when a probabilistic plan
    /// (`P(…) ▷◁ p`, `importance(…)`) runs on a session without valid
    /// annotations; [`BflError::CountOverflow`] when a `cause` plan has
    /// more than `u128::MAX` minimal causes.
    pub fn eval(&self, scenario: &Scenario) -> Result<Outcome, BflError> {
        let key = self.resolve(scenario)?;
        let probs = self.probabilities_if_needed()?;
        self.eval_resolved(scenario, key, probs)
    }

    /// [`PreparedQuery::eval`] answered from the scenario memo alone: the
    /// outcome `eval` returns when the plan has memoised `scenario`, and
    /// `None` on a miss or on any error, which only `eval` reports. It
    /// counts as the same memo hit. It takes only the memo's lock, never
    /// the session's checker, so a server can answer a repeated what-if
    /// without queueing it behind computations.
    pub fn memoised_eval(&self, scenario: &Scenario) -> Option<Outcome> {
        let start = Instant::now();
        let key = self.resolve(scenario).ok()?;
        self.probabilities_if_needed().ok()?;
        self.memo_hit(scenario, &key, start)
    }

    /// Whether the plan compiles a `P(…) ▷◁ p` judgement — the shape
    /// whose scenario rows [`sweep_probabilities`] judges against the
    /// bound. Callers use this to route such plans through the
    /// method-aware probability sweep instead of the Boolean one.
    ///
    /// [`sweep_probabilities`]: PreparedQuery::sweep_probabilities
    pub fn is_probability_judgement(&self) -> bool {
        matches!(self.compiled, Compiled::Prob { .. })
    }

    /// Whether the compiled shape needs probability annotations.
    fn needs_probabilities(&self) -> bool {
        matches!(
            self.compiled,
            Compiled::Prob { .. } | Compiled::Importance { .. }
        )
    }

    /// The session's validated probability vector, fetched only for
    /// plans that evaluate probabilities.
    fn probabilities_if_needed(&self) -> Result<Option<&[f64]>, BflError> {
        if self.needs_probabilities() {
            Ok(Some(self.inner.full_probabilities()?))
        } else {
            Ok(None)
        }
    }

    /// The post-resolution evaluation core — shared by [`eval`] and
    /// [`sweep`], which validates (and thereby resolves) every scenario
    /// up front and hands the keys through.
    ///
    /// [`eval`]: PreparedQuery::eval
    /// [`sweep`]: PreparedQuery::sweep
    fn eval_resolved(
        &self,
        scenario: &Scenario,
        key: Vec<(usize, bool)>,
        probs: Option<&[f64]>,
    ) -> Result<Outcome, BflError> {
        let start = Instant::now();
        if let Some(outcome) = self.memo_hit(scenario, &key, start) {
            return Ok(outcome);
        }
        let computed = self.restrict_and_judge(&key, probs)?;
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        self.memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| computed.clone());
        Ok(self.outcome(scenario, computed, false, start))
    }

    /// The hit path of [`PreparedQuery::eval_resolved`], shared with
    /// [`PreparedQuery::memoised_eval`]: the outcome memoised under
    /// `key`, counted as a hit.
    fn memo_hit(
        &self,
        scenario: &Scenario,
        key: &[(usize, bool)],
        start: Instant,
    ) -> Option<Outcome> {
        let cached = self.lookup(key)?;
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(self.outcome(scenario, cached, true, start))
    }

    /// The outcome of one scenario evaluation; `start` is when the
    /// request began.
    fn outcome(
        &self,
        scenario: &Scenario,
        cached: CachedEval,
        memo_hit: bool,
        start: Instant,
    ) -> Outcome {
        let label = scenario.name().map(str::to_string);
        let source = if scenario.is_baseline() {
            self.source.clone()
        } else {
            format!("{} [{}]", self.source, scenario.bindings_string())
        };
        let mut o = Outcome::bare(label, source, cached.holds);
        o.witnesses = cached.witnesses;
        o.counterexamples = cached.counterexamples;
        o.shared_events = cached.shared_events;
        o.probability = cached.probability;
        o.importance = cached.importance;
        o.causes = cached.causes;
        o.stats = EvalStats {
            bdd_nodes: cached.bdd_nodes,
            arena_nodes: cached.arena_nodes,
            cache_hits: u64::from(memo_hit),
            cache_misses: u64::from(!memo_hit),
            duration_micros: start.elapsed().as_micros(),
        };
        o
    }

    fn lookup(&self, key: &[(usize, bool)]) -> Option<CachedEval> {
        self.memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// The restriction core: specialises the compiled diagram(s) to the
    /// resolved bindings in one traversal each and judges the result.
    /// `probs` is `Some` exactly for probabilistic shapes (the callers
    /// fetch and validate it up front). Fails only with
    /// [`BflError::CountOverflow`] from a `cause` plan.
    ///
    /// Everything the request builds is scratch: the answer leaves as
    /// plain data, then the arena rolls back to the watermark taken right
    /// after the lock, on the error path too.
    fn restrict_and_judge(
        &self,
        key: &[(usize, bool)],
        probs: Option<&[f64]>,
    ) -> Result<CachedEval, BflError> {
        let mut mc = self.inner.lock();
        let mark = mc.manager().watermark();
        let judged = self.judge_locked(&mut mc, key, probs, mark);
        self.roll_back(&mut mc, mark);
        judged
    }

    /// The body of [`PreparedQuery::restrict_and_judge`], run under the
    /// checker lock; `mark` is the request's watermark.
    fn judge_locked(
        &self,
        mc: &mut ModelChecker,
        key: &[(usize, bool)],
        probs: Option<&[f64]>,
        mark: Watermark,
    ) -> Result<CachedEval, BflError> {
        let arena_nodes = mark.arena_size();
        let limit = self.inner.witness_limit;
        let assignments = to_vars(mc, key);
        let cached = match self.compiled {
            Compiled::Quantifier { root, exists } => {
                let r = mc
                    .tree_bdd_mut()
                    .manager_mut()
                    .restrict_many(root, &assignments);
                let holds = if exists { !r.is_false() } else { r.is_true() };
                let mut witnesses = Vec::new();
                let mut counterexamples = Vec::new();
                if exists && holds && limit > 0 {
                    witnesses = mc.vectors_of_bdd(r, limit);
                } else if !exists && !holds && limit > 0 {
                    let nr = mc.tree_bdd_mut().manager_mut().not(r);
                    counterexamples = mc.vectors_of_bdd(nr, limit);
                }
                let mut c = CachedEval::bare(holds, mc.bdd_size(r), arena_nodes);
                c.witnesses = witnesses;
                c.counterexamples = counterexamples;
                c
            }
            Compiled::Independence { left, right } => {
                let m = mc.tree_bdd_mut().manager_mut();
                let ra = m.restrict_many(left, &assignments);
                let rb = m.restrict_many(right, &assignments);
                let ia = mc.support_basic_names(ra);
                let ib = mc.support_basic_names(rb);
                let shared: Vec<String> = ia.into_iter().filter(|e| ib.contains(e)).collect();
                let mut c = CachedEval::bare(
                    shared.is_empty(),
                    mc.bdd_size(ra) + mc.bdd_size(rb),
                    arena_nodes,
                );
                c.shared_events = shared;
                c
            }
            Compiled::Prob {
                joint,
                given,
                op,
                bound,
            } => match probs {
                Some(probs) => {
                    // Boolean eval and the probability entry points share
                    // one computation per scenario: reuse a result the
                    // probability path already memoised, and publish
                    // fresh ones back so `probability`/
                    // `sweep_probabilities` find them.
                    let prior = self.prob_scenario_lookup(key);
                    let (pe, r) = match prior {
                        Some(pe) => {
                            // Only the restriction is redone, for the
                            // bdd_nodes statistic; the Shannon walks are
                            // skipped.
                            let r = mc
                                .tree_bdd_mut()
                                .manager_mut()
                                .restrict_many(joint, &assignments);
                            (pe, r)
                        }
                        None => {
                            let (pe, r) = self.prob_judge_locked(
                                mc,
                                mark,
                                joint,
                                given,
                                op,
                                bound,
                                &assignments,
                                probs,
                            );
                            self.prob_scenario_insert(key, pe);
                            (pe, r)
                        }
                    };
                    let mut c =
                        CachedEval::bare(pe.holds.unwrap_or(false), mc.bdd_size(r), arena_nodes);
                    c.probability = pe.probability;
                    c
                }
                // Unreachable: `eval`/`sweep` fetch the vector first.
                None => CachedEval::bare(false, 0, arena_nodes),
            },
            Compiled::Cause { root } => {
                // The resolved key IS the observation: bound events at
                // their value, everything else operational. The causality
                // core pins the non-failed events itself, so no separate
                // restriction pass is needed.
                let mut b = StatusVector::all_operational(self.inner.tree.num_basic_events());
                for &(bi, v) in key {
                    b.set(bi, v);
                }
                let cap = match &self.query {
                    Query::Cause { limit: Some(k), .. } => *k as usize,
                    _ => limit,
                };
                let report = crate::causality::causes_from_bdd(mc, root, &b, cap)?;
                // The root never changes: its size is the one prepare
                // measured.
                let bdd_nodes = self.plan.operands[0].bdd_nodes;
                let mut c = CachedEval::bare(report.holds(), bdd_nodes, arena_nodes);
                c.causes = Some(report);
                c
            }
            Compiled::Importance { root } => match probs {
                Some(probs) => {
                    let r = mc
                        .tree_bdd_mut()
                        .manager_mut()
                        .restrict_many(root, &assignments);
                    let ranked = self
                        .with_prob_memo(mark, |memo| quant::rank_events_bdd(mc, r, probs, memo));
                    let mut c = CachedEval::bare(ranked.is_ok(), mc.bdd_size(r), arena_nodes);
                    // A ranking of an (almost-surely) false restricted
                    // formula is undefined: "does not hold" with an
                    // empty table, the same policy as the session
                    // evaluator and `quant::check_query`. (`probs` are
                    // pre-validated, so `DivisionByZero` is the only
                    // error `rank_events_bdd` can produce here.)
                    c.importance = ranked.unwrap_or_default();
                    c
                }
                None => CachedEval::bare(false, 0, arena_nodes),
            },
        };
        Ok(cached)
    }

    /// Ends a request that took `mark` right after the checker lock: rolls
    /// the arena back to it and drops the plan-memo entries of the nodes
    /// that went. No handle past the mark may outlive this call.
    fn roll_back(&self, mc: &mut ModelChecker, mark: Watermark) {
        let dropped = mc.rollback(mark);
        if dropped > 0 {
            self.prob_memo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .end_request();
        }
    }

    /// Runs `f` over the node-keyed probability memo of the request that
    /// took `mark`. Must be called with the checker lock held, so node
    /// ids cannot move while `f` walks.
    fn with_prob_memo<R>(
        &self,
        mark: Watermark,
        f: impl FnOnce(&mut WatermarkMemo<f64>) -> R,
    ) -> R {
        let mut memo = self.prob_memo.lock().unwrap_or_else(|e| e.into_inner());
        memo.nodes.begin_request(mark);
        f(&mut memo.nodes)
    }

    /// The interval twin of [`PreparedQuery::with_prob_memo`] — same
    /// locking, separate node-keyed cache.
    fn with_interval_memo<R>(
        &self,
        mark: Watermark,
        f: impl FnOnce(&mut WatermarkMemo<(f64, f64)>) -> R,
    ) -> R {
        let mut memo = self.prob_memo.lock().unwrap_or_else(|e| e.into_inner());
        memo.interval_nodes.begin_request(mark);
        f(&mut memo.interval_nodes)
    }

    /// The probability core shared by Boolean `eval` on `P(…)`-shaped
    /// plans and the probability sweeps: restrict, walk with the plan
    /// memo, judge the bound. Caller holds the checker lock and took
    /// `mark`. Returns the evaluation plus the restricted joint diagram
    /// (for statistics).
    #[allow(clippy::too_many_arguments)]
    fn prob_judge_locked(
        &self,
        mc: &mut ModelChecker,
        mark: Watermark,
        joint: Bdd,
        given: Option<Bdd>,
        op: CmpOp,
        bound: f64,
        assignments: &[(Var, bool)],
        probs: &[f64],
    ) -> (ProbEval, Bdd) {
        let r_joint = mc
            .tree_bdd_mut()
            .manager_mut()
            .restrict_many(joint, assignments);
        let p_joint = self.with_prob_memo(mark, |memo| {
            quant::bdd_probability_with_memo(mc, r_joint, probs, memo)
        });
        let probability = match given {
            None => Some(p_joint),
            Some(g) => {
                let r_given = mc
                    .tree_bdd_mut()
                    .manager_mut()
                    .restrict_many(g, assignments);
                let base = self.with_prob_memo(mark, |memo| {
                    quant::bdd_probability_with_memo(mc, r_given, probs, memo)
                });
                if base < quant::MIN_CONDITIONING_PROBABILITY {
                    None
                } else {
                    Some(p_joint / base)
                }
            }
        };
        let eval = ProbEval {
            probability,
            holds: Some(quant::judge_bound(probability, op, bound)),
        };
        (eval, r_joint)
    }

    /// **Sweeps** a whole scenario set: validates every scenario up
    /// front, then evaluates them in order on the caller's thread,
    /// sharing this query's memo and the session's caches.
    ///
    /// Fresh restrictions mutate the session's shared BDD manager under
    /// its lock (as all session queries do — see
    /// [`AnalysisSession`](crate::engine::AnalysisSession)); memoised
    /// scenarios are lookups. To spread work over cores, run sweeps of
    /// different sessions on different threads.
    ///
    /// # Errors
    ///
    /// The first scenario whose bindings fail to resolve aborts the sweep
    /// before any scenario is evaluated; a [`BflError::CountOverflow`]
    /// from a `cause` plan aborts it at that scenario.
    pub fn sweep(&self, set: &ScenarioSet) -> Result<SweepReport, BflError> {
        // Validate everything first; the resolved keys (and, for
        // probabilistic plans, the probability vector) are handed through
        // so nothing is resolved twice.
        let keys: Vec<Vec<(usize, bool)>> = set
            .iter()
            .map(|s| self.resolve(s))
            .collect::<Result<_, _>>()?;
        let probs = self.probabilities_if_needed()?;
        let before = self.stats();
        let (arena_before, translation_misses0) = {
            let mc = self.inner.lock();
            (mc.manager().arena_size(), mc.cache_misses())
        };

        let mut totals = EvalStats::default();
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(set.len());
        for (scenario, key) in set.iter().zip(keys) {
            let outcome = self.eval_resolved(scenario, key, probs)?;
            totals.absorb(&outcome.stats);
            outcomes.push(outcome);
        }

        let after = self.stats();
        let (translation_misses, arena_after) = {
            let mc = self.inner.lock();
            (
                mc.cache_misses() - translation_misses0,
                mc.manager().arena_size(),
            )
        };
        Ok(SweepReport {
            tree: Arc::clone(&self.inner.tree),
            query: self.source.clone(),
            outcomes,
            totals,
            stats: SweepStats {
                scenarios: set.len(),
                memo_hits: after.memo_hits - before.memo_hits,
                memo_misses: after.memo_misses - before.memo_misses,
                translation_misses,
                arena_before,
                arena_after,
            },
        })
    }

    // ------------------------------------------------------------------
    // Causality on compiled plans.
    // ------------------------------------------------------------------

    /// Whether the plan compiles a `cause(…)` / `causes(…, k)` judgement —
    /// the shape [`PreparedQuery::cause`] and
    /// [`PreparedQuery::sweep_causes`] operate on.
    pub fn is_cause_plan(&self) -> bool {
        matches!(self.compiled, Compiled::Cause { .. })
    }

    /// Evaluates a `cause(…)` plan under one scenario: the scenario's
    /// bindings **extend the observation** (the query's own evidence wins
    /// conflicts), the compiled `B(ϕ)` is cofactored on the non-failed
    /// events, and the minimal actual causes come out of the `MPS`
    /// maximality machinery — memoised in the plan's scenario memo, so
    /// repeated observations are pure lookups. The outcome's `causes`
    /// field carries the [`CauseReport`](crate::causality::CauseReport).
    ///
    /// # Errors
    ///
    /// [`BflError::PlanShapeMismatch`] when the plan was not prepared
    /// from a `cause(…)` query; binding resolution errors as for
    /// [`PreparedQuery::eval`].
    pub fn cause(&self, scenario: &Scenario) -> Result<Outcome, BflError> {
        if !self.is_cause_plan() {
            return Err(BflError::PlanShapeMismatch {
                expected: "cause",
                query: self.source.clone(),
            });
        }
        self.eval(scenario)
    }

    /// [`PreparedQuery::cause`] answered from the scenario memo alone, as
    /// [`PreparedQuery::memoised_eval`] answers `eval`: `None` on a miss,
    /// on any error, and on plans that are not `cause(…)` plans.
    pub fn memoised_cause(&self, scenario: &Scenario) -> Option<Outcome> {
        if !self.is_cause_plan() {
            return None;
        }
        self.memoised_eval(scenario)
    }

    /// **Sweeps causes**: [`PreparedQuery::cause`] for every scenario of
    /// the set, sharing the scenario memo exactly as
    /// [`PreparedQuery::sweep`] does — a warm sweep over seen observations
    /// is pure cache lookups.
    ///
    /// # Errors
    ///
    /// [`BflError::PlanShapeMismatch`] on non-`cause` plans; otherwise as
    /// for [`PreparedQuery::sweep`].
    pub fn sweep_causes(&self, set: &ScenarioSet) -> Result<SweepReport, BflError> {
        if !self.is_cause_plan() {
            return Err(BflError::PlanShapeMismatch {
                expected: "cause",
                query: self.source.clone(),
            });
        }
        self.sweep(set)
    }

    // ------------------------------------------------------------------
    // Probability on compiled plans.
    // ------------------------------------------------------------------

    /// `P(ϕ | scenario)` on the compiled diagram: the scenario's
    /// bindings are applied by `restrict_many` cofactoring and the
    /// result is walked with this plan's node-keyed Shannon memo —
    /// **never** recompiled per scenario. For `P(…)`-shaped plans the
    /// conditional form is honoured; for `exists`/`forall`/`importance`
    /// plans this is the probability of the (restricted) operand.
    ///
    /// # Errors
    ///
    /// [`BflError::UnsupportedProbability`] for `IDP`/`SUP` plans;
    /// [`BflError::MissingProbabilities`] /
    /// [`BflError::InvalidProbability`] for the session's annotations;
    /// [`BflError::DivisionByZero`] when a conditional plan's condition
    /// has (effectively) zero probability under the scenario; binding
    /// resolution errors as for [`PreparedQuery::eval`].
    pub fn probability(&self, scenario: &Scenario) -> Result<f64, BflError> {
        if matches!(
            self.compiled,
            Compiled::Independence { .. } | Compiled::Cause { .. }
        ) {
            return Err(BflError::UnsupportedProbability {
                query: self.source.clone(),
            });
        }
        let key = self.resolve(scenario)?;
        let probs = self.inner.full_probabilities()?;
        match self.prob_eval_resolved(&key, probs).probability {
            Some(p) => Ok(p),
            None => Err(BflError::DivisionByZero {
                context: format!(
                    "conditional `{}` has a zero-probability condition under [{}]",
                    self.source,
                    scenario.bindings_string()
                ),
            }),
        }
    }

    /// `P(ϕ | scenario)` under `method` — or the session's default when
    /// `None` — as a method-shaped [`ProbValue`]. The three methods
    /// share the compiled plan but answer differently:
    ///
    /// * [`Method::Exact`] — restriction + memoised Shannon walk, like
    ///   [`PreparedQuery::probability`] (but zero-probability conditions
    ///   return `Ok(None)` instead of erroring);
    /// * [`Method::Interval`] — the same restriction, walked with the
    ///   plan's node-keyed **interval** memo;
    /// * [`Method::Mc`] — deterministic sampling of the prepared
    ///   query's formula; the scenario's bindings **pin the sampled
    ///   bits**, the Monte Carlo analogue of BDD restriction. No
    ///   diagram is touched.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::probability`], plus the method-specific
    /// annotation errors of
    /// [`AnalysisSession::probability_value`](crate::engine::AnalysisSession::probability_value).
    pub fn probability_value(
        &self,
        scenario: &Scenario,
        method: Option<Method>,
    ) -> Result<Option<ProbValue>, BflError> {
        if matches!(
            self.compiled,
            Compiled::Independence { .. } | Compiled::Cause { .. }
        ) {
            return Err(BflError::UnsupportedProbability {
                query: self.source.clone(),
            });
        }
        let method = method.unwrap_or(self.inner.method);
        let key = self.resolve(scenario)?;
        self.probability_value_resolved(&key, method)
    }

    /// [`PreparedQuery::probability_value`] answered from the plan's
    /// memos alone: `Some(value)` where `probability_value` returns
    /// `Ok(value)` for a scenario the plan has memoised under the exact
    /// method, and `None` for the interval and Monte Carlo methods, on a
    /// miss, and on any error. It reads the probability memo, then, on
    /// `P(…) ▷◁ p` plans, the Boolean one, and counts the same hit. Like
    /// [`PreparedQuery::memoised_eval`], it never takes the checker lock
    /// or the node-keyed Shannon memo.
    pub fn memoised_probability_value(
        &self,
        scenario: &Scenario,
        method: Option<Method>,
    ) -> Option<Option<ProbValue>> {
        if !matches!(method.unwrap_or(self.inner.method), Method::Exact)
            || matches!(
                self.compiled,
                Compiled::Independence { .. } | Compiled::Cause { .. }
            )
        {
            return None;
        }
        let key = self.resolve(scenario).ok()?;
        self.inner.full_probabilities().ok()?;
        let pe = self.prob_memo_hit(&key)?;
        Some(pe.probability.map(ProbValue::Exact))
    }

    /// The prepared query's operand formulae for per-sample Monte Carlo
    /// evaluation: the target and (for conditional `P` plans) the
    /// condition.
    fn mc_operands(&self) -> Result<(&Formula, Option<&Formula>), BflError> {
        match &self.query {
            Query::Prob { formula, given, .. } => Ok((formula, given.as_ref())),
            Query::Exists(phi) | Query::Forall(phi) | Query::Importance(phi) => Ok((phi, None)),
            Query::Idp(..) | Query::Sup(..) | Query::Cause { .. } => {
                Err(BflError::UnsupportedProbability {
                    query: self.source.clone(),
                })
            }
        }
    }

    /// The post-resolution method dispatch behind
    /// [`PreparedQuery::probability_value`] and the method-aware sweeps.
    fn probability_value_resolved(
        &self,
        key: &[(usize, bool)],
        method: Method,
    ) -> Result<Option<ProbValue>, BflError> {
        match method {
            Method::Exact => {
                let probs = self.inner.full_probabilities()?;
                Ok(self
                    .prob_eval_resolved(key, probs)
                    .probability
                    .map(ProbValue::Exact))
            }
            Method::Interval => {
                let intervals = self.inner.full_intervals()?;
                let mut mc = self.inner.lock();
                let mark = mc.manager().watermark();
                let assignments = to_vars(&mc, key);
                let value = match self.compiled {
                    Compiled::Quantifier { root, .. } | Compiled::Importance { root } => {
                        let r = mc
                            .tree_bdd_mut()
                            .manager_mut()
                            .restrict_many(root, &assignments);
                        Some(self.with_interval_memo(mark, |memo| {
                            quant::bdd_probability_interval_with_memo(&mc, r, intervals, memo)
                        }))
                    }
                    Compiled::Prob { joint, given, .. } => {
                        let r_joint = mc
                            .tree_bdd_mut()
                            .manager_mut()
                            .restrict_many(joint, &assignments);
                        let iv_joint = self.with_interval_memo(mark, |memo| {
                            quant::bdd_probability_interval_with_memo(&mc, r_joint, intervals, memo)
                        });
                        match given {
                            None => Some(iv_joint),
                            Some(g) => {
                                let r_given = mc
                                    .tree_bdd_mut()
                                    .manager_mut()
                                    .restrict_many(g, &assignments);
                                let base = self.with_interval_memo(mark, |memo| {
                                    quant::bdd_probability_interval_with_memo(
                                        &mc, r_given, intervals, memo,
                                    )
                                });
                                quant::interval_conditional(iv_joint, base)
                            }
                        }
                    }
                    // `probability_value` rejects independence and cause
                    // plans before resolving.
                    Compiled::Independence { .. } | Compiled::Cause { .. } => None,
                };
                self.roll_back(&mut mc, mark);
                drop(mc);
                self.prob_misses.fetch_add(1, Ordering::Relaxed);
                Ok(value.map(ProbValue::Interval))
            }
            Method::Mc {
                samples,
                seed,
                confidence,
            } => {
                let probs = self.inner.full_probabilities()?;
                let (phi, given) = self.mc_operands()?;
                let est = uncertainty::estimate_probability(
                    &self.inner.tree,
                    probs,
                    phi,
                    given,
                    key,
                    samples,
                    seed,
                    confidence,
                    default_mc_threads(),
                )?;
                self.inner.sampler.record(samples);
                self.prob_misses.fetch_add(1, Ordering::Relaxed);
                Ok(est.map(ProbValue::Estimate))
            }
        }
    }

    /// Looks up one scenario's memoised probability evaluation.
    fn prob_scenario_lookup(&self, key: &[(usize, bool)]) -> Option<ProbEval> {
        self.prob_scenarios
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .copied()
    }

    /// Publishes one scenario's probability evaluation to the shared
    /// scenario memo.
    fn prob_scenario_insert(&self, key: &[(usize, bool)], pe: ProbEval) {
        self.prob_scenarios
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_vec(), pe);
    }

    /// The scenario-memoised probability core (resolved key → result).
    /// `Independence` shapes are rejected by the callers; `probs` is
    /// validated by them.
    fn prob_eval_resolved(&self, key: &[(usize, bool)], probs: &[f64]) -> ProbEval {
        if let Some(pe) = self.prob_memo_hit(key) {
            return pe;
        }
        let mut mc = self.inner.lock();
        let mark = mc.manager().watermark();
        let assignments = to_vars(&mc, key);
        let pe = match self.compiled {
            Compiled::Quantifier { root, .. } | Compiled::Importance { root } => {
                let r = mc
                    .tree_bdd_mut()
                    .manager_mut()
                    .restrict_many(root, &assignments);
                let p = self.with_prob_memo(mark, |memo| {
                    quant::bdd_probability_with_memo(&mc, r, probs, memo)
                });
                ProbEval {
                    probability: Some(p),
                    holds: None,
                }
            }
            Compiled::Prob {
                joint,
                given,
                op,
                bound,
            } => {
                self.prob_judge_locked(&mut mc, mark, joint, given, op, bound, &assignments, probs)
                    .0
            }
            // Callers reject independence and cause plans before
            // resolving.
            Compiled::Independence { .. } | Compiled::Cause { .. } => ProbEval {
                probability: None,
                holds: None,
            },
        };
        self.roll_back(&mut mc, mark);
        drop(mc);
        self.prob_misses.fetch_add(1, Ordering::Relaxed);
        self.prob_scenario_insert(key, pe);
        pe
    }

    /// The hit path of [`PreparedQuery::prob_eval_resolved`], shared with
    /// [`PreparedQuery::memoised_probability_value`]: the memoised
    /// evaluation of `key`, counted as a hit.
    fn prob_memo_hit(&self, key: &[(usize, bool)]) -> Option<ProbEval> {
        let pe = match self.prob_scenario_lookup(key) {
            Some(pe) => pe,
            // On `P(…)`-shaped plans the Boolean evaluator shares the
            // computation: a scenario it has already judged carries the
            // probability and verdict.
            None if self.is_probability_judgement() => {
                let c = self.lookup(key)?;
                let pe = ProbEval {
                    probability: c.probability,
                    holds: Some(c.holds),
                };
                self.prob_scenario_insert(key, pe);
                pe
            }
            None => return None,
        };
        self.prob_hits.fetch_add(1, Ordering::Relaxed);
        Some(pe)
    }

    /// **Sweeps probabilities**: `P(ϕ | scenario)` for every scenario of
    /// the set, in order on the caller's thread, sharing the plan's
    /// scenario memo and node-keyed Shannon memo. A warm sweep
    /// (every scenario seen before) is pure cache lookups — the
    /// `reproduce -- quant` artifact benchmarks this against the
    /// recompute-per-scenario path.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::probability`], except that zero-probability
    /// conditions are reported per-outcome (`probability: None`) rather
    /// than as an error.
    pub fn sweep_probabilities(&self, set: &ScenarioSet) -> Result<ProbSweepReport, BflError> {
        self.sweep_probabilities_with(set, None)
    }

    /// [`PreparedQuery::sweep_probabilities`] under an explicit
    /// [`Method`] (`None` = the session's default). Interval sweeps
    /// share the plan's node-keyed interval memo; Monte Carlo sweeps
    /// sample each scenario on every core, with the scenario's bindings
    /// pinning the sampled bits — results are byte-identical to
    /// evaluating each scenario alone.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::probability_value`]; the first failing
    /// scenario aborts the sweep.
    pub fn sweep_probabilities_with(
        &self,
        set: &ScenarioSet,
        method: Option<Method>,
    ) -> Result<ProbSweepReport, BflError> {
        if matches!(
            self.compiled,
            Compiled::Independence { .. } | Compiled::Cause { .. }
        ) {
            return Err(BflError::UnsupportedProbability {
                query: self.source.clone(),
            });
        }
        let method = method.unwrap_or(self.inner.method);
        let keys: Vec<Vec<(usize, bool)>> = set
            .iter()
            .map(|s| self.resolve(s))
            .collect::<Result<_, _>>()?;
        // Validate the annotations and (for Monte Carlo) the query shape
        // once, before any scenario is evaluated.
        match method {
            Method::Exact => {
                self.inner.full_probabilities()?;
            }
            Method::Interval => {
                self.inner.full_intervals()?;
            }
            Method::Mc { .. } => {
                self.inner.full_probabilities()?;
                self.mc_operands()?;
            }
        }
        // The threshold to judge, for `P(…) ▷◁ p`-shaped plans.
        let judgement = match self.compiled {
            Compiled::Prob { op, bound, .. } => Some((op, bound)),
            _ => None,
        };
        let (hits0, misses0) = (
            self.prob_hits.load(Ordering::Relaxed),
            self.prob_misses.load(Ordering::Relaxed),
        );
        let memo_len = |m: &ProbMemo| m.nodes.len() + m.interval_nodes.len();
        let fresh0 = memo_len(&self.prob_memo.lock().unwrap_or_else(|e| e.into_inner()));

        let outcomes = set
            .iter()
            .zip(&keys)
            .map(|(s, key)| {
                let value = self.probability_value_resolved(key, method)?;
                // Impossible conditions satisfy no bound; interval
                // judgements straddling the bound stay undecided (`None`).
                let holds = match (&judgement, &value) {
                    (Some((op, bound)), Some(v)) => v.judge(*op, *bound),
                    (Some(_), None) => Some(false),
                    (None, _) => None,
                };
                let mut o = ProbOutcome {
                    label: s.name().map(str::to_string),
                    bindings: s.bindings_string(),
                    probability: None,
                    interval: None,
                    estimate: None,
                    holds,
                };
                match value {
                    Some(ProbValue::Exact(p)) => o.probability = Some(p),
                    Some(ProbValue::Interval(iv)) => o.interval = Some(iv),
                    Some(ProbValue::Estimate(e)) => o.estimate = Some(e),
                    None => {}
                }
                Ok(o)
            })
            .collect::<Result<Vec<_>, BflError>>()?;

        let fresh1 = memo_len(&self.prob_memo.lock().unwrap_or_else(|e| e.into_inner()));
        let stats = ProbSweepStats {
            scenarios: set.len(),
            memo_hits: self.prob_hits.load(Ordering::Relaxed) - hits0,
            memo_misses: self.prob_misses.load(Ordering::Relaxed) - misses0,
            fresh_nodes: fresh1.saturating_sub(fresh0),
        };
        Ok(ProbSweepReport {
            query: self.source.clone(),
            method,
            outcomes,
            stats,
        })
    }
}

/// Resolves `bindings` to `(basic index, value)` pairs sorted by basic
/// index, the first binding of an event winning, and leaves out the
/// events `bound` (sorted the same way) already binds.
///
/// # Errors
///
/// [`BflError::UnknownElement`] / [`BflError::EvidenceOnGate`] for the
/// first binding that does not name a basic event of `tree`.
fn resolve_bindings(
    tree: &FaultTree,
    bindings: &[(String, bool)],
    bound: &[(usize, bool)],
) -> Result<Vec<(usize, bool)>, BflError> {
    let mut resolved = Vec::with_capacity(bindings.len());
    for (name, value) in bindings {
        let e = tree
            .element(name)
            .ok_or_else(|| BflError::UnknownElement(name.clone()))?;
        let bi = tree
            .basic_index(e)
            .ok_or_else(|| BflError::EvidenceOnGate(name.clone()))?;
        if bound.binary_search_by_key(&bi, |&(b, _)| b).is_err() {
            resolved.push((bi, *value));
        }
    }
    // The stable sort keeps an event's first binding ahead of the rest.
    resolved.sort_by_key(|&(bi, _)| bi);
    resolved.dedup_by_key(|&mut (bi, _)| bi);
    Ok(resolved)
}

/// Maps resolved `(basic index, value)` bindings to BDD variables.
fn to_vars(mc: &ModelChecker, key: &[(usize, bool)]) -> Vec<(Var, bool)> {
    key.iter()
        .map(|&(bi, value)| (mc.var_of_basic(bi), value))
        .collect()
}

/// Runs the rewriting pipeline on one operand and compiles it.
fn compile_operand(
    mc: &mut ModelChecker,
    role: &'static str,
    phi: &Formula,
) -> Result<(OperandPlan, Bdd), BflError> {
    let mut passes = vec![PassStep {
        pass: "parse",
        applied: true,
        size: phi.size(),
        rendered: truncate(&phi.to_string()),
    }];
    let mut current = phi.clone();
    if max_vot_arity(&current) <= DESUGAR_VOT_LIMIT {
        current = desugar(&current);
        passes.push(PassStep {
            pass: "desugar",
            applied: true,
            size: current.size(),
            rendered: truncate(&current.to_string()),
        });
    } else {
        passes.push(PassStep {
            pass: "desugar",
            applied: false,
            size: current.size(),
            rendered: String::new(),
        });
    }
    current = to_nnf(&current);
    passes.push(PassStep {
        pass: "nnf",
        applied: true,
        size: current.size(),
        rendered: truncate(&current.to_string()),
    });
    current = simplify(&current);
    passes.push(PassStep {
        pass: "simplify",
        applied: true,
        size: current.size(),
        rendered: truncate(&current.to_string()),
    });
    // BDD canonicity makes the rewritten formula compile to the same
    // diagram as the original; compiling the rewritten form keeps the
    // plan honest about what was built.
    let root = mc.formula_bdd(&current)?;
    let support = mc.manager().support(root).len();
    let constant = if root.is_true() {
        Some(true)
    } else if root.is_false() {
        Some(false)
    } else {
        None
    };
    Ok((
        OperandPlan {
            role,
            passes,
            bdd_nodes: mc.bdd_size(root),
            support,
            constant,
        },
        root,
    ))
}

fn max_vot_arity(phi: &Formula) -> usize {
    let mut max = 0;
    phi.visit(&mut |f| {
        if let Formula::Vot { operands, .. } = f {
            max = max.max(operands.len());
        }
    });
    max
}

fn truncate(s: &str) -> String {
    if s.chars().count() <= RENDER_LIMIT {
        s.to_string()
    } else {
        let mut t: String = s.chars().take(RENDER_LIMIT).collect();
        t.push('…');
        t
    }
}

// ---------------------------------------------------------------------------
// The sweep report.
// ---------------------------------------------------------------------------

/// Aggregate statistics of one [`PreparedQuery::sweep`].
///
/// The counts are before/after deltas over the session's shared
/// counters, attributed to this sweep's window: if *other* queries run
/// on the same session (or prepared query) concurrently with the sweep,
/// their translations, memo traffic and arena growth land in the window
/// too. For attribution-grade numbers, let the sweep be the session's
/// only activity while it runs (as the test-suite's assertions do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of scenarios evaluated.
    pub scenarios: usize,
    /// Evaluations answered from the scenario memo.
    pub memo_hits: u64,
    /// Evaluations that computed a fresh restriction.
    pub memo_misses: u64,
    /// Formula-translation cache misses during the sweep — **0**: the
    /// sweep path never recompiles a formula (asserted by the
    /// cross-check suite).
    pub translation_misses: u64,
    /// BDD arena size when the sweep started.
    pub arena_before: usize,
    /// BDD arena size when the sweep finished.
    pub arena_after: usize,
}

impl SweepStats {
    /// Nodes added to the shared arena during the sweep. Every prepared
    /// evaluation rolls its restriction back, so a sweep that is the
    /// session's only activity adds none, cold or memoised.
    pub fn arena_growth(&self) -> usize {
        self.arena_after - self.arena_before
    }
}

/// The result of sweeping a prepared query over a scenario set: one
/// [`Outcome`] per scenario (in set order) plus sweep-level statistics,
/// rendered as text ([`fmt::Display`]) or JSON ([`SweepReport::to_json`]).
#[derive(Debug, Clone)]
pub struct SweepReport {
    tree: Arc<FaultTree>,
    /// Concrete syntax of the prepared query.
    pub query: String,
    /// Per-scenario outcomes, in scenario-set order.
    pub outcomes: Vec<Outcome>,
    /// Component-wise aggregate of every outcome's statistics.
    pub totals: EvalStats,
    /// Sweep-level cache and arena statistics.
    pub stats: SweepStats,
}

impl SweepReport {
    /// The tree the sweep ran against.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }

    /// Number of scenarios under which the query holds.
    pub fn holding(&self) -> usize {
        self.outcomes.iter().filter(|o| o.holds).count()
    }

    /// Serialises the report as a self-contained JSON document (the
    /// outcome schema matches [`Report::to_json`](crate::report::Report::to_json)).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"query\":");
        write_json_str(&mut out, &self.query);
        out.push_str(",\"tree\":");
        write_json_str(&mut out, self.tree.name(self.tree.top()));
        out.push_str(",\"outcomes\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_outcome(&mut out, &self.tree, o);
        }
        out.push_str("],\"totals\":");
        write_stats(&mut out, &self.totals);
        let s = &self.stats;
        let _ = write!(
            out,
            ",\"sweep\":{{\"scenarios\":{},\"memo_hits\":{},\"memo_misses\":{},\"translation_misses\":{},\"arena_before\":{},\"arena_after\":{}}}}}",
            s.scenarios, s.memo_hits, s.memo_misses, s.translation_misses,
            s.arena_before, s.arena_after
        );
        out
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep `{}` over {} scenarios",
            self.query, self.stats.scenarios
        )?;
        let failed_names = |v: &StatusVector| v.failed_names(&self.tree).join(", ");
        for o in &self.outcomes {
            writeln!(
                f,
                "{}  {}",
                if o.holds { "PASS" } else { "FAIL" },
                o.title()
            )?;
            for w in &o.witnesses {
                writeln!(f, "      witness {{{}}}", failed_names(w))?;
            }
            for c in &o.counterexamples {
                writeln!(f, "      refuted by {{{}}}", failed_names(c))?;
            }
            if !o.shared_events.is_empty() {
                writeln!(f, "      shared events {{{}}}", o.shared_events.join(", "))?;
            }
        }
        writeln!(
            f,
            "{}/{} hold · {} restrictions / {} memoised · {} translation misses · arena {} → {}",
            self.holding(),
            self.outcomes.len(),
            self.stats.memo_misses,
            self.stats.memo_hits,
            self.stats.translation_misses,
            self.stats.arena_before,
            self.stats.arena_after
        )
    }
}

// ---------------------------------------------------------------------------
// The probability-sweep report.
// ---------------------------------------------------------------------------

/// One scenario's probability in a [`ProbSweepReport`]. Exactly one of
/// `probability` / `interval` / `estimate` is populated, matching the
/// sweep's [`Method`] (all may be `None` when a conditional plan's
/// condition is impossible under the scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbOutcome {
    /// The scenario's name, if any.
    pub label: Option<String>,
    /// The scenario's bindings, rendered (`A = 1, B = 0`; empty for the
    /// baseline).
    pub bindings: String,
    /// `P(ϕ | scenario)` under [`Method::Exact`]; `None` when a
    /// conditional plan's condition has (effectively) zero probability
    /// under the scenario.
    pub probability: Option<f64>,
    /// Conservative bounds under [`Method::Interval`].
    pub interval: Option<ProbInterval>,
    /// The Monte Carlo estimate under [`Method::Mc`].
    pub estimate: Option<Estimate>,
    /// For `P(…) ▷◁ p`-shaped plans: the threshold verdict. `None` for
    /// plans with no bound (`exists`/`forall`/`importance` operands),
    /// and for interval judgements whose bounds straddle the threshold
    /// (undecidable from the annotations).
    pub holds: Option<bool>,
}

impl ProbOutcome {
    /// `label [bindings]`, or whichever half is present.
    pub fn title(&self) -> String {
        match (&self.label, self.bindings.is_empty()) {
            (Some(l), true) => l.clone(),
            (Some(l), false) => format!("{l} [{}]", self.bindings),
            (None, true) => "(baseline)".to_string(),
            (None, false) => format!("[{}]", self.bindings),
        }
    }
}

/// Cache statistics of one [`PreparedQuery::sweep_probabilities`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbSweepStats {
    /// Number of scenarios evaluated.
    pub scenarios: usize,
    /// Scenarios answered from the scenario memo (pure lookups — a warm
    /// sweep is all hits).
    pub memo_hits: u64,
    /// Scenarios computed by restriction + Shannon walk.
    pub memo_misses: u64,
    /// Nodes newly entered into the plan's node-keyed Shannon memo
    /// during the sweep. Only nodes that stay in the arena count: each
    /// scenario's restricted nodes are rolled back and leave the memo
    /// with it, so this counts the compiled diagram's nodes a walk
    /// reached for the first time. **0** on a warm sweep.
    pub fresh_nodes: usize,
}

/// The result of sweeping probabilities over a scenario set: one
/// [`ProbOutcome`] per scenario (in set order) plus cache statistics,
/// rendered as text ([`fmt::Display`]) or JSON
/// ([`ProbSweepReport::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbSweepReport {
    /// Concrete syntax of the prepared query.
    pub query: String,
    /// The evaluation method the sweep ran under.
    pub method: Method,
    /// Per-scenario probabilities, in scenario-set order.
    pub outcomes: Vec<ProbOutcome>,
    /// Sweep-level cache statistics.
    pub stats: ProbSweepStats,
}

impl ProbSweepReport {
    /// Serialises the report as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"query\":");
        write_json_str(&mut out, &self.query);
        out.push_str(",\"method\":");
        write_json_str(&mut out, self.method.name());
        out.push_str(",\"outcomes\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            write_or_null(&mut out, o.label.as_deref(), write_json_str);
            out.push_str(",\"bindings\":");
            write_json_str(&mut out, &o.bindings);
            out.push_str(",\"probability\":");
            write_or_null(&mut out, o.probability, |out, p| {
                let _ = write!(out, "{p}");
            });
            out.push_str(",\"interval\":");
            write_or_null(&mut out, o.interval.as_ref(), write_interval);
            out.push_str(",\"estimate\":");
            write_or_null(&mut out, o.estimate.as_ref(), write_estimate);
            out.push_str(",\"holds\":");
            write_or_null(&mut out, o.holds, |out, h| {
                let _ = write!(out, "{h}");
            });
            out.push('}');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "],\"sweep\":{{\"scenarios\":{},\"memo_hits\":{},\"memo_misses\":{},\"fresh_nodes\":{}}}",
            s.scenarios, s.memo_hits, s.memo_misses, s.fresh_nodes
        ));
        out.push('}');
        out
    }
}

impl fmt::Display for ProbSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "probability sweep `{}` over {} scenarios (method {})",
            self.query, self.stats.scenarios, self.method
        )?;
        for o in &self.outcomes {
            let verdict = match o.holds {
                Some(true) => "PASS  ",
                Some(false) => "FAIL  ",
                None => "      ",
            };
            if let Some(p) = o.probability {
                writeln!(f, "{verdict}{:<40} {p}", o.title())?;
            } else if let Some(iv) = &o.interval {
                writeln!(f, "{verdict}{:<40} [{}, {}]", o.title(), iv.lo, iv.hi)?;
            } else if let Some(e) = &o.estimate {
                writeln!(
                    f,
                    "{verdict}{:<40} ≈{} CI [{}, {}]",
                    o.title(),
                    e.point,
                    e.ci_lo,
                    e.ci_hi
                )?;
            } else {
                writeln!(f, "{verdict}{:<40} (condition impossible)", o.title())?;
            }
        }
        writeln!(
            f,
            "{} computed / {} memoised · {} fresh memo nodes",
            self.stats.memo_misses, self.stats.memo_hits, self.stats.fresh_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisSession;
    use crate::parser::parse_query;
    use bfl_fault_tree::corpus;

    #[test]
    fn prepared_query_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<SweepReport>();
    }

    #[test]
    fn prepared_outlives_its_session() {
        let prepared;
        {
            let session = AnalysisSession::new(corpus::covid());
            prepared = session
                .prepare(&parse_query("exists IWoS").unwrap())
                .unwrap();
            // `session` drops here; the prepared query keeps the core alive.
        }
        assert!(prepared.eval(&Scenario::new()).unwrap().holds);
        assert!(
            !prepared
                .eval(&Scenario::new().bind("VW", false))
                .unwrap()
                .holds
        );
    }

    #[test]
    fn eval_is_memoised() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session
            .prepare(&parse_query("exists IWoS").unwrap())
            .unwrap();
        let s = Scenario::named("s").bind("IW", true);
        let first = prepared.eval(&s).unwrap();
        assert_eq!(first.stats.cache_misses, 1);
        assert_eq!(first.stats.cache_hits, 0);
        let second = prepared.eval(&s).unwrap();
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(first.holds, second.holds);
        let stats = prepared.stats();
        assert_eq!(stats.evals, 2);
        assert_eq!(stats.distinct_scenarios, 1);
    }

    /// `o` with its timing zeroed, the one field two answers may differ in.
    fn untimed(mut o: Outcome) -> Outcome {
        o.stats.duration_micros = 0;
        o
    }

    #[test]
    fn memo_lookups_answer_exactly_what_the_evaluators_would() {
        let tree = corpus::covid();
        let n = tree.num_basic_events();
        let session = AnalysisSession::builder()
            .probabilities((0..n).map(|i| Some(0.05 + 0.03 * i as f64)).collect())
            .build(tree);
        let s = Scenario::named("s").bind("IW", true);

        let exists = session
            .prepare(&parse_query("exists MCS(IWoS) & H4").unwrap())
            .unwrap();
        assert_eq!(exists.memoised_eval(&s), None);
        let computed = exists.eval(&s).unwrap();
        let hit = exists.memoised_eval(&s).expect("memoised by the eval");
        assert_eq!(hit.stats.cache_hits, 1);
        assert_eq!(untimed(hit), untimed(exists.eval(&s).unwrap()));
        assert_eq!(computed.witnesses, exists.eval(&s).unwrap().witnesses);
        let stats = exists.stats();
        assert_eq!((stats.evals, stats.memo_hits), (4, 3));
        // Errors are left to the evaluator.
        let unknown = Scenario::new().bind("nope", true);
        assert_eq!(exists.memoised_eval(&unknown), None);
        assert!(exists.eval(&unknown).is_err());
        assert_eq!(exists.memoised_cause(&s), None, "not a cause plan");

        // A probability the exists plan memoised under the exact method.
        assert_eq!(exists.memoised_probability_value(&s, None), None);
        let p = exists.probability_value(&s, None).unwrap();
        assert_eq!(exists.memoised_probability_value(&s, None), Some(p));
        for method in [Method::Interval, Method::mc()] {
            assert_eq!(exists.memoised_probability_value(&s, Some(method)), None);
        }

        // A `P(…) ▷◁ p` plan's eval memoises its probability too.
        let judged = session
            .prepare(&parse_query("P(IWoS) <= 0.05").unwrap())
            .unwrap();
        judged.eval(&s).unwrap();
        let p = judged.probability_value(&s, Some(Method::Exact)).unwrap();
        assert_eq!(judged.memoised_probability_value(&s, None), Some(p));
        assert_eq!(
            untimed(judged.memoised_eval(&s).unwrap()),
            untimed(judged.eval(&s).unwrap())
        );

        let cause = session
            .prepare(&parse_query("causes(IWoS, IW := 1, 2)").unwrap())
            .unwrap();
        assert_eq!(cause.memoised_cause(&s), None);
        cause.cause(&s).unwrap();
        assert_eq!(
            untimed(cause.memoised_cause(&s).unwrap()),
            untimed(cause.cause(&s).unwrap())
        );
        assert_eq!(cause.memoised_probability_value(&s, None), None);

        // Without annotations there is nothing to look up a probability
        // with.
        let bare = AnalysisSession::new(corpus::covid())
            .prepare(&parse_query("exists IWoS").unwrap())
            .unwrap();
        assert!(bare.probability_value(&s, None).is_err());
        assert_eq!(bare.memoised_probability_value(&s, None), None);
    }

    #[test]
    fn a_cause_plans_own_evidence_wins_over_the_scenario() {
        let session = AnalysisSession::new(corpus::covid());
        let cause = session
            .prepare(&parse_query("causes(IWoS, IW := 1, H3 := 0, IW := 0, 3)").unwrap())
            .unwrap();
        let tree = cause.tree();
        let bi = |name: &str| tree.basic_index(tree.element(name).unwrap()).unwrap();
        let scenario =
            Scenario::from_pairs([("H3", true), ("PP", true), ("IT", true), ("PP", false)]);
        let mut expected = vec![
            (bi("IW"), true),
            (bi("H3"), false),
            (bi("PP"), true),
            (bi("IT"), true),
        ];
        expected.sort_unstable();
        assert_eq!(cause.resolve(&scenario).unwrap(), expected);
        // Spelling the scenario inline reaches the same memo entry.
        let inline = session
            .prepare(&parse_query("causes(IWoS, IW := 1, H3 := 0, PP := 1, IT := 1, 3)").unwrap())
            .unwrap();
        assert_eq!(inline.resolve(&Scenario::new()).unwrap(), expected);
        assert!(matches!(
            cause.resolve(&Scenario::new().bind("CP", true)),
            Err(BflError::EvidenceOnGate(name)) if name == "CP"
        ));
    }

    #[test]
    fn binding_order_does_not_matter_for_memoisation() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session
            .prepare(&parse_query("exists IWoS").unwrap())
            .unwrap();
        let a = Scenario::from_pairs([("IW", true), ("H5", false)]);
        let b = Scenario::from_pairs([("H5", false), ("IW", true)]);
        let _ = prepared.eval(&a).unwrap();
        let o = prepared.eval(&b).unwrap();
        assert_eq!(o.stats.cache_hits, 1);
        assert_eq!(prepared.stats().distinct_scenarios, 1);
    }

    #[test]
    fn invalid_bindings_are_rejected() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session
            .prepare(&parse_query("exists IWoS").unwrap())
            .unwrap();
        assert_eq!(
            prepared.eval(&Scenario::new().bind("ghost", true)),
            Err(BflError::UnknownElement("ghost".into()))
        );
        assert_eq!(
            prepared.eval(&Scenario::new().bind("MoT", true)),
            Err(BflError::EvidenceOnGate("MoT".into()))
        );
        // A bad scenario aborts a sweep before any evaluation.
        let set = ScenarioSet::from_scenarios([
            Scenario::new().bind("IW", true),
            Scenario::new().bind("ghost", true),
        ]);
        assert!(prepared.sweep(&set).is_err());
        assert_eq!(prepared.stats().evals, 0);
    }

    #[test]
    fn plan_records_passes_and_fast_path() {
        let session = AnalysisSession::new(corpus::covid());
        let plain = session
            .prepare(&parse_query("forall IS => MoT").unwrap())
            .unwrap();
        let plan = plain.explain();
        assert_eq!(plan.kind, "forall");
        assert!(plan.minimality_fast_path);
        assert_eq!(plan.operands.len(), 1);
        let passes: Vec<&str> = plan.operands[0].passes.iter().map(|p| p.pass).collect();
        assert_eq!(passes, ["parse", "desugar", "nnf", "simplify"]);
        assert!(plan.operands[0].bdd_nodes > 0);
        assert!(plan.prepare.cache_misses > 0);

        let minimal = session
            .prepare(&parse_query("exists MCS(IWoS)").unwrap())
            .unwrap();
        assert!(!minimal.explain().minimality_fast_path);

        let text = plan.to_string();
        assert!(text.contains("forall"), "{text}");
        assert!(text.contains("simplify"), "{text}");
        let json = plan.to_json();
        assert!(json.contains("\"kind\":\"forall\""), "{json}");
        assert!(json.contains("\"minimality_fast_path\":true"), "{json}");
    }

    #[test]
    fn wide_vot_skips_desugar() {
        let mut b = bfl_fault_tree::FaultTreeBuilder::new();
        let names: Vec<String> = (0..10).map(|i| format!("e{i}")).collect();
        b.basic_events(names.iter().map(String::as_str)).unwrap();
        b.gate(
            "top",
            bfl_fault_tree::GateType::Or,
            names.iter().map(String::as_str),
        )
        .unwrap();
        let tree = b.build("top").unwrap();
        let session = AnalysisSession::new(tree);
        let operands = names.iter().map(|n| Formula::atom(n.clone()));
        let q = Query::exists(Formula::vot(crate::ast::CmpOp::Ge, 9, operands));
        let prepared = session.prepare(&q).unwrap();
        let desugar_step = &prepared.explain().operands[0].passes[1];
        assert_eq!(desugar_step.pass, "desugar");
        assert!(!desugar_step.applied);
        assert!(prepared.eval(&Scenario::new()).unwrap().holds);
    }

    #[test]
    fn sup_compiles_to_independence() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session.prepare(&parse_query("SUP(PP)").unwrap()).unwrap();
        assert_eq!(prepared.explain().kind, "sup");
        let o = prepared.eval(&Scenario::new()).unwrap();
        assert!(!o.holds);
        assert!(o.shared_events.contains(&"PP".to_string()));
    }

    #[test]
    fn probability_value_methods_agree_on_plans() {
        let tree = corpus::covid();
        let n = tree.num_basic_events();
        let probs: Vec<Option<f64>> = (0..n).map(|i| Some(0.02 + (i as f64) * 0.05)).collect();
        let session = AnalysisSession::builder().probabilities(probs).build(tree);
        let prepared = session
            .prepare(&parse_query("P(IWoS) >= 0.5").unwrap())
            .unwrap();
        let scenario = Scenario::named("s").bind("H4", true);
        let exact = prepared.probability(&scenario).unwrap();
        // Exact through the method dispatch: same number.
        let v = prepared
            .probability_value(&scenario, None)
            .unwrap()
            .unwrap();
        assert_eq!(v, ProbValue::Exact(exact));
        // Degenerate interval propagation: bit-identical to exact.
        let v = prepared
            .probability_value(&scenario, Some(Method::Interval))
            .unwrap()
            .unwrap();
        let ProbValue::Interval(iv) = v else {
            panic!("{v:?}")
        };
        assert_eq!(iv.lo.to_bits(), exact.to_bits());
        assert_eq!(iv.hi.to_bits(), exact.to_bits());
        // Monte Carlo with the scenario pinning H4: deterministic, CI
        // brackets the exact restricted probability.
        let mc = Method::Mc {
            samples: 40_000,
            seed: 7,
            confidence: 0.99,
        };
        let a = prepared
            .probability_value(&scenario, Some(mc))
            .unwrap()
            .unwrap();
        let b = prepared
            .probability_value(&scenario, Some(mc))
            .unwrap()
            .unwrap();
        assert_eq!(a, b);
        let ProbValue::Estimate(e) = a else {
            panic!("{a:?}")
        };
        assert!(e.ci_lo <= exact && exact <= e.ci_hi, "{e:?} vs {exact}");
        assert!(session.sampler_stats().runs >= 2);
    }

    #[test]
    fn method_sweeps_share_plans_and_stay_deterministic() {
        let tree = corpus::covid();
        let n = tree.num_basic_events();
        let probs: Vec<Option<f64>> = (0..n).map(|i| Some(0.02 + (i as f64) * 0.05)).collect();
        let session = AnalysisSession::builder().probabilities(probs).build(tree);
        let prepared = session
            .prepare(&parse_query("P(IWoS) >= 0.5").unwrap())
            .unwrap();
        let set = ScenarioSet::parse("baseline:\nworst: IW = 1\nsafe: VW = 0\n").unwrap();
        let exact = prepared.sweep_probabilities(&set).unwrap();
        assert_eq!(exact.method, Method::Exact);
        // Interval sweep with degenerate intervals reproduces exact.
        let interval = prepared
            .sweep_probabilities_with(&set, Some(Method::Interval))
            .unwrap();
        for (e, iv) in exact.outcomes.iter().zip(&interval.outcomes) {
            let p = e.probability.unwrap();
            let iv = iv.interval.unwrap();
            assert_eq!(iv.lo.to_bits(), p.to_bits());
            assert_eq!(iv.hi.to_bits(), p.to_bits());
        }
        // Monte Carlo sweep: reproducible run to run, and each scenario
        // byte-identical to its standalone evaluation (workers pin the
        // scenario's bits; seeding is per chunk, not per worker).
        let mc = Method::Mc {
            samples: 20_000,
            seed: 42,
            confidence: 0.95,
        };
        let s1 = prepared.sweep_probabilities_with(&set, Some(mc)).unwrap();
        let s2 = prepared.sweep_probabilities_with(&set, Some(mc)).unwrap();
        assert_eq!(s1.outcomes, s2.outcomes);
        for (i, o) in s1.outcomes.iter().enumerate() {
            let standalone = prepared
                .probability_value(&set.scenarios[i], Some(mc))
                .unwrap()
                .unwrap();
            let ProbValue::Estimate(e) = standalone else {
                panic!("{standalone:?}")
            };
            assert_eq!(o.estimate, Some(e));
            // The sweep judged the threshold from the estimate.
            assert_eq!(o.holds, Some(e.point >= 0.5));
        }
        let json = s1.to_json();
        assert!(json.contains("\"method\":\"mc\""), "{json}");
        assert!(json.contains("\"estimate\":{\"point\":"), "{json}");
        let text = s1.to_string();
        assert!(text.contains("method mc"), "{text}");
    }

    #[test]
    fn interval_session_drives_prepared_plans() {
        // A session whose model carries real intervals: exact plans
        // refuse, interval plans bracket, and the undecidable judgement
        // stays unresolved in the sweep.
        let session = AnalysisSession::builder()
            .intervals(vec![
                ProbInterval::new(0.1, 0.3).ok(),
                ProbInterval::new(0.2, 0.2).ok(),
            ])
            .method(Method::Interval)
            .build(corpus::or2());
        let prepared = session
            .prepare(&parse_query("P(Top) >= 0.3").unwrap())
            .unwrap();
        assert!(matches!(
            prepared.probability(&Scenario::new()),
            Err(BflError::IntervalProbabilities { .. })
        ));
        // The session default (interval) applies when no override given.
        let v = prepared
            .probability_value(&Scenario::new(), None)
            .unwrap()
            .unwrap();
        let ProbValue::Interval(iv) = v else {
            panic!("{v:?}")
        };
        assert!((iv.lo - 0.28).abs() < 1e-12 && (iv.hi - 0.44).abs() < 1e-12);
        let report = prepared
            .sweep_probabilities(&ScenarioSet::parse("base:\npinned: e1 = 1\n").unwrap())
            .unwrap();
        // [0.28, 0.44] straddles 0.3: undecided. Pinning e1 failed
        // forces P(Top) = 1 under every annotation choice: decided.
        assert_eq!(report.outcomes[0].holds, None);
        assert_eq!(report.outcomes[1].holds, Some(true));
        assert_eq!(
            report.outcomes[1].interval,
            ProbInterval::new(1.0, 1.0).ok()
        );
    }

    #[test]
    fn sweep_report_renders_text_and_json() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session
            .prepare(&parse_query("exists IWoS").unwrap())
            .unwrap();
        let set = ScenarioSet::parse("baseline:\nprotected: VW = 0\n").unwrap();
        let report = prepared.sweep(&set).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.holding(), 1);
        let text = report.to_string();
        assert!(text.contains("PASS  baseline"), "{text}");
        assert!(text.contains("FAIL  protected"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"sweep\""), "{json}");
        assert!(json.contains("\"translation_misses\":0"), "{json}");
    }
}
