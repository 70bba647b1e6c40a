//! The `AnalysisSession` engine — an owned, thread-safe, batch-first
//! façade over the whole BFL stack.
//!
//! The paper's workflow is *session-shaped*: one fault tree, many
//! layer-1/layer-2 questions, with Algorithms 1–3 explicitly designed to
//! share BDD translations across questions. [`AnalysisSession`] is that
//! workflow as a type:
//!
//! * **owned** — the session holds its tree behind an
//!   [`Arc<FaultTree>`], so it has no borrow lifetime and moves freely
//!   across threads and into services;
//! * **thread-safe** — `AnalysisSession: Send + Sync`; interior
//!   mutability of the shared BDD caches is a private [`Mutex`];
//! * **configurable** — [`SessionBuilder`] selects the BDD variable
//!   ordering, the `MCS`/`MPS` minimality scope and probability
//!   annotations up front;
//! * **batch-first** — [`AnalysisSession::run`] evaluates a whole
//!   [`Spec`] in one pass over shared caches, and every question returns
//!   a structured [`Outcome`] (verdict, witness vectors, counterexample,
//!   [`EvalStats`]) instead of a bare `bool`.
//!
//! [`ModelChecker`] remains the internal workhorse (Algorithms 1–3); the
//! session wraps one and layers batch evaluation, cut-set enumeration,
//! statistics and probability on top.
//!
//! # Migration from `ModelChecker`
//!
//! | before (lifetime-bound)             | after (owned)                          |
//! |-------------------------------------|----------------------------------------|
//! | `ModelChecker::new(&tree)`          | `AnalysisSession::new(tree)`           |
//! | `mc.check_query(&q)? -> bool`       | `s.check_query(&q)?.holds` + stats     |
//! | `mc.holds(&b, &phi)?`               | `s.check_vector(&b, &phi)?.holds`      |
//! | `counterexample(&mut mc, &b, &phi)` | `s.counterexample(&b, &phi)?`          |
//! | `mc.minimal_cut_sets("Top")`        | `s.minimal_cut_sets("Top")?` (ZDD)     |
//! | per-query loops                     | `s.run(&spec)? -> Report`              |
//!
//! # Example
//!
//! ```
//! use bfl_core::engine::AnalysisSession;
//! use bfl_core::report::Spec;
//! use bfl_fault_tree::corpus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = AnalysisSession::new(corpus::covid());
//! assert_eq!(session.minimal_cut_sets("IWoS")?.len(), 12);
//!
//! // One question, structured result:
//! let q = bfl_core::parser::parse_query("forall IS => MoT")?;
//! let outcome = session.check_query(&q)?;
//! assert!(!outcome.holds);
//! assert!(!outcome.counterexamples.is_empty());
//!
//! // A whole batch in one pass over shared caches:
//! let spec = Spec::parse("P1: forall IS => MoT\nP9: SUP(PP)\n")?;
//! let report = session.run(&spec)?;
//! assert_eq!(report.outcomes.len(), 2);
//! assert!(report.totals.cache_hits > 0); // `IS => MoT` shares sub-BDDs
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use bfl_fault_tree::{prob, FaultTree, StatusVector, VariableOrdering};

use crate::ast::{Formula, Query};
use crate::checker::{MinimalityScope, ModelChecker, MAX_LISTED_SETS};
use crate::counterexample::{counterexample, Counterexample, CounterexampleSet};
use crate::error::BflError;
use crate::lint;
use crate::plan::PreparedQuery;
use crate::quant;
use crate::report::{EvalStats, Outcome, Report, Spec, SpecItem, SpecKind};
use crate::uncertainty::{self, Method, ProbInterval, ProbValue};

/// Cumulative Monte Carlo sampler counters of one session (see
/// [`AnalysisSession::sampler_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerStats {
    /// Monte Carlo estimations run (session calls, prepared plans and
    /// sweeps alike).
    pub runs: u64,
    /// Total status vectors drawn across all runs.
    pub samples: u64,
}

/// Lock-free accumulator behind [`SamplerStats`].
#[derive(Debug, Default)]
pub(crate) struct SamplerCounters {
    runs: AtomicU64,
    samples: AtomicU64,
}

impl SamplerCounters {
    pub(crate) fn record(&self, samples: u64) {
        self.runs.fetch_add(1, AtomicOrdering::Relaxed);
        self.samples.fetch_add(samples, AtomicOrdering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SamplerStats {
        SamplerStats {
            runs: self.runs.load(AtomicOrdering::Relaxed),
            samples: self.samples.load(AtomicOrdering::Relaxed),
        }
    }
}

/// Worker threads for Monte Carlo estimation: one per available core.
/// Estimates are byte-identical at any thread count.
pub(crate) fn default_mc_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Configures and builds an [`AnalysisSession`].
///
/// Every knob has a sensible default; `build` is infallible.
///
/// ```
/// use bfl_core::engine::AnalysisSession;
/// use bfl_core::MinimalityScope;
/// use bfl_fault_tree::{corpus, VariableOrdering};
///
/// let session = AnalysisSession::builder()
///     .ordering(VariableOrdering::Declaration)
///     .minimality_scope(MinimalityScope::FormulaSupport)
///     .witness_limit(5)
///     .build(corpus::fig1());
/// assert_eq!(session.minimality_scope(), MinimalityScope::FormulaSupport);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    ordering: VariableOrdering,
    scope: MinimalityScope,
    witness_limit: usize,
    probabilities: Option<Vec<Option<f64>>>,
    intervals: Option<Vec<Option<ProbInterval>>>,
    method: Method,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            ordering: VariableOrdering::DfsPreorder,
            scope: MinimalityScope::default(),
            witness_limit: 3,
            probabilities: None,
            intervals: None,
            method: Method::Exact,
        }
    }
}

impl SessionBuilder {
    /// A builder with all defaults (DFS ordering, global-universe scope,
    /// witness limit 3, no probabilities).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// The BDD variable ordering.
    pub fn ordering(mut self, ordering: VariableOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// The `MCS`/`MPS` minimality scope (see [`MinimalityScope`]).
    pub fn minimality_scope(mut self, scope: MinimalityScope) -> Self {
        self.scope = scope;
        self
    }

    /// Maximum number of witness / refuting vectors attached to each
    /// [`Outcome`] (default 3; `0` disables witness extraction).
    pub fn witness_limit(mut self, limit: usize) -> Self {
        self.witness_limit = limit;
        self
    }

    /// Per-basic-event failure probabilities (basic-index order, `None`
    /// for unannotated events), e.g. from
    /// [`galileo::GalileoModel`](bfl_fault_tree::galileo::GalileoModel).
    pub fn probabilities(mut self, probabilities: Vec<Option<f64>>) -> Self {
        self.probabilities = Some(probabilities);
        self
    }

    /// Per-basic-event failure-probability **intervals** (basic-index
    /// order, `None` for events without a `prob=lo..hi` annotation),
    /// e.g. from
    /// [`galileo::GalileoModel::intervals`](bfl_fault_tree::galileo::GalileoModel).
    ///
    /// An event carries a point *or* an interval, never both; the
    /// interval path widens points to degenerate `[p, p]` intervals,
    /// while exact evaluation rejects any session holding intervals with
    /// [`BflError::IntervalProbabilities`].
    pub fn intervals(mut self, intervals: Vec<Option<ProbInterval>>) -> Self {
        self.intervals = Some(intervals);
        self
    }

    /// The default evaluation [`Method`] for probability queries
    /// (default [`Method::Exact`]); individual calls can override it.
    ///
    /// ```
    /// use bfl_core::engine::AnalysisSession;
    /// use bfl_core::uncertainty::Method;
    /// use bfl_fault_tree::corpus;
    ///
    /// let session = AnalysisSession::builder()
    ///     .probabilities(vec![Some(0.1), Some(0.2)])
    ///     .method(Method::mc())
    ///     .build(corpus::or2());
    /// assert_eq!(session.method().name(), "mc");
    /// ```
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Builds the session. Accepts a `FaultTree` by value or an existing
    /// `Arc<FaultTree>`.
    ///
    /// # Panics
    ///
    /// Panics if probabilities (or intervals) were given and their
    /// length differs from the tree's basic-event count.
    pub fn build(self, tree: impl Into<Arc<FaultTree>>) -> AnalysisSession {
        let tree: Arc<FaultTree> = tree.into();
        if let Some(p) = &self.probabilities {
            assert_eq!(
                p.len(),
                tree.num_basic_events(),
                "one probability slot per basic event"
            );
        }
        if let Some(iv) = &self.intervals {
            assert_eq!(
                iv.len(),
                tree.num_basic_events(),
                "one interval slot per basic event"
            );
        }
        let mut checker = ModelChecker::from_arc(Arc::clone(&tree), self.ordering);
        checker.set_minimality_scope(self.scope);
        AnalysisSession {
            inner: Arc::new(SessionInner {
                tree,
                ordering: self.ordering,
                scope: self.scope,
                witness_limit: self.witness_limit,
                probabilities: self.probabilities,
                intervals: self.intervals,
                method: self.method,
                sampler: SamplerCounters::default(),
                point_vector: OnceLock::new(),
                interval_vector: OnceLock::new(),
                checker: Mutex::new(checker),
            }),
        }
    }
}

/// The shared core of a session: configuration plus the synchronised
/// model checker. [`AnalysisSession`] and every [`PreparedQuery`] hold it
/// behind an [`Arc`], so prepared queries stay valid (and keep sharing
/// the translation caches) independently of the session value itself.
#[derive(Debug)]
pub(crate) struct SessionInner {
    pub(crate) tree: Arc<FaultTree>,
    pub(crate) ordering: VariableOrdering,
    pub(crate) scope: MinimalityScope,
    pub(crate) witness_limit: usize,
    pub(crate) probabilities: Option<Vec<Option<f64>>>,
    pub(crate) intervals: Option<Vec<Option<ProbInterval>>>,
    pub(crate) method: Method,
    /// Cumulative Monte Carlo counters (lock-free: estimation runs
    /// outside the checker lock).
    pub(crate) sampler: SamplerCounters,
    /// [`SessionInner::full_probabilities`]' answer, built on first use:
    /// the annotations never change after the build.
    point_vector: OnceLock<Result<Vec<f64>, BflError>>,
    /// [`SessionInner::full_intervals`]' answer, likewise.
    interval_vector: OnceLock<Result<Vec<ProbInterval>, BflError>>,
    pub(crate) checker: Mutex<ModelChecker>,
}

impl SessionInner {
    pub(crate) fn lock(&self) -> MutexGuard<'_, ModelChecker> {
        // A poisoned lock only means another query panicked; the checker's
        // caches are append-only and remain valid.
        self.checker.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The complete, validated probability vector — the gate every
    /// *exact* probabilistic evaluation (session or prepared-plan)
    /// passes through, including Monte Carlo sampling (which needs a
    /// point distribution to draw from). Built and validated once per
    /// session, on first use, and lent out from then on; a failed
    /// validation is kept too, so every call returns the same error.
    ///
    /// # Errors
    ///
    /// [`BflError::IntervalProbabilities`] naming every basic event
    /// annotated with an interval — a point answer would silently
    /// collapse the modelled uncertainty, so the importance suite and
    /// every other exact quantity refuse instead;
    /// [`BflError::MissingProbabilities`] naming every unannotated basic
    /// event (or all of them when no annotations were configured);
    /// [`BflError::InvalidProbability`] if an annotation is outside
    /// `[0, 1]` or not finite.
    pub(crate) fn full_probabilities(&self) -> Result<&[f64], BflError> {
        self.point_vector
            .get_or_init(|| self.build_point_vector())
            .as_deref()
            .map_err(BflError::clone)
    }

    /// Builds and validates the vector [`SessionInner::full_probabilities`]
    /// lends out.
    fn build_point_vector(&self) -> Result<Vec<f64>, BflError> {
        let ranged = self.interval_event_names();
        if !ranged.is_empty() {
            return Err(BflError::IntervalProbabilities { events: ranged });
        }
        let slots = self.probabilities.as_deref().unwrap_or(&[]);
        let mut missing = Vec::new();
        let mut out = Vec::with_capacity(self.tree.num_basic_events());
        for i in 0..self.tree.num_basic_events() {
            match slots.get(i).copied().flatten() {
                Some(p) => out.push(p),
                None => missing.push(self.tree.name(self.tree.basic_events()[i]).to_string()),
            }
        }
        if !missing.is_empty() {
            return Err(BflError::MissingProbabilities { events: missing });
        }
        prob::validate_probabilities(&self.tree, &out)
            .map_err(|reason| BflError::InvalidProbability { reason })?;
        Ok(out)
    }

    /// Names of the basic events carrying an interval annotation, in
    /// basic-index order.
    fn interval_event_names(&self) -> Vec<String> {
        let slots = self.intervals.as_deref().unwrap_or(&[]);
        (0..self.tree.num_basic_events())
            .filter(|&i| slots.get(i).copied().flatten().is_some())
            .map(|i| self.tree.name(self.tree.basic_events()[i]).to_string())
            .collect()
    }

    /// The complete, validated interval vector — the gate of
    /// [`Method::Interval`] evaluations. Point annotations widen to
    /// degenerate `[p, p]` intervals, so interval propagation over a
    /// point-only model reproduces the exact walk bit for bit. Built once
    /// per session, like [`SessionInner::full_probabilities`].
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`] naming every basic event with
    /// neither a point nor an interval annotation;
    /// [`BflError::InvalidProbability`] if any annotation is malformed.
    pub(crate) fn full_intervals(&self) -> Result<&[ProbInterval], BflError> {
        self.interval_vector
            .get_or_init(|| self.build_interval_vector())
            .as_deref()
            .map_err(BflError::clone)
    }

    /// Builds and validates the vector [`SessionInner::full_intervals`]
    /// lends out.
    fn build_interval_vector(&self) -> Result<Vec<ProbInterval>, BflError> {
        let points = self.probabilities.as_deref().unwrap_or(&[]);
        let ranges = self.intervals.as_deref().unwrap_or(&[]);
        let mut missing = Vec::new();
        let mut out = Vec::with_capacity(self.tree.num_basic_events());
        for i in 0..self.tree.num_basic_events() {
            let slot = match ranges.get(i).copied().flatten() {
                Some(iv) => Some(Ok(iv)),
                None => points.get(i).copied().flatten().map(ProbInterval::point),
            };
            match slot {
                Some(Ok(iv)) => out.push(iv),
                Some(Err(reason)) => return Err(BflError::InvalidProbability { reason }),
                None => missing.push(self.tree.name(self.tree.basic_events()[i]).to_string()),
            }
        }
        if !missing.is_empty() {
            return Err(BflError::MissingProbabilities { events: missing });
        }
        prob::validate_intervals(&self.tree, &out)
            .map_err(|reason| BflError::InvalidProbability { reason })?;
        Ok(out)
    }

    /// Evaluates `P(ϕ)` (or `P(ϕ | given)`) under `method` — the single
    /// dispatch point shared by the session, prepared plans and the
    /// server. `pins` fixes sampled basic events (scenario evidence) for
    /// the Monte Carlo path; exact and interval evaluation receive
    /// evidence through the formula instead. Returns `None` when the
    /// condition has zero probability.
    ///
    /// The caller holds the checker lock for `Exact`/`Interval`; the
    /// Monte Carlo path never touches the BDD manager (that is the
    /// point) but records its sampler counters.
    pub(crate) fn probability_value(
        &self,
        mc: &mut ModelChecker,
        phi: &Formula,
        given: Option<&Formula>,
        method: Method,
        pins: &[(usize, bool)],
    ) -> Result<Option<ProbValue>, BflError> {
        match method {
            Method::Exact => {
                let probs = self.full_probabilities()?;
                let p = match given {
                    None => Some(quant::probability(mc, phi, probs)?),
                    Some(g) => quant::conditional_probability(mc, phi, g, probs)?,
                };
                Ok(p.map(ProbValue::Exact))
            }
            Method::Interval => {
                let intervals = self.full_intervals()?;
                let iv = match given {
                    None => Some(quant::probability_interval(mc, phi, intervals)?),
                    Some(g) => quant::conditional_probability_interval(mc, phi, g, intervals)?,
                };
                Ok(iv.map(ProbValue::Interval))
            }
            Method::Mc {
                samples,
                seed,
                confidence,
            } => {
                let probs = self.full_probabilities()?;
                let est = uncertainty::estimate_probability(
                    &self.tree,
                    probs,
                    phi,
                    given,
                    pins,
                    samples,
                    seed,
                    confidence,
                    default_mc_threads(),
                )?;
                self.sampler.record(samples);
                Ok(est.map(ProbValue::Estimate))
            }
        }
    }
}

/// An owned, thread-safe analysis session over one fault tree.
///
/// See the [module docs](self) for the design and a migration table. All
/// query methods take `&self`; the shared BDD state is synchronised
/// internally, so a session can serve queries from many threads (queries
/// are serialised — for parallelism across *trees*, use one session per
/// tree).
#[derive(Debug)]
pub struct AnalysisSession {
    inner: Arc<SessionInner>,
}

impl AnalysisSession {
    /// A session with default configuration (see [`SessionBuilder`]).
    pub fn new(tree: impl Into<Arc<FaultTree>>) -> Self {
        SessionBuilder::new().build(tree)
    }

    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The fault tree under analysis.
    pub fn tree(&self) -> &FaultTree {
        &self.inner.tree
    }

    /// Shared handle to the fault tree (cheap to clone into other
    /// sessions or threads).
    pub fn tree_arc(&self) -> Arc<FaultTree> {
        Arc::clone(&self.inner.tree)
    }

    /// The configured BDD variable ordering.
    pub fn ordering(&self) -> VariableOrdering {
        self.inner.ordering
    }

    /// The configured minimality scope.
    pub fn minimality_scope(&self) -> MinimalityScope {
        self.inner.scope
    }

    /// The configured probability annotations, if any.
    pub fn probabilities(&self) -> Option<&[Option<f64>]> {
        self.inner.probabilities.as_deref()
    }

    /// The configured interval annotations, if any.
    pub fn intervals(&self) -> Option<&[Option<ProbInterval>]> {
        self.inner.intervals.as_deref()
    }

    /// The session's default evaluation [`Method`] for probability
    /// queries.
    pub fn method(&self) -> Method {
        self.inner.method
    }

    /// Cumulative Monte Carlo sampler counters since the session was
    /// built.
    pub fn sampler_stats(&self) -> SamplerStats {
        self.inner.sampler.snapshot()
    }

    fn lock(&self) -> MutexGuard<'_, ModelChecker> {
        self.inner.lock()
    }

    /// Statically analyses the model: structural rules over the tree
    /// and its probability/interval annotations, plus support-based
    /// detection of absorbed basic events. Diagnostics come back in
    /// canonical order (code, subject, message); an empty vector means
    /// the model is clean. See the [`lint`] module docs
    /// and `docs/lint.md` for every rule.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_core::engine::AnalysisSession;
    /// use bfl_fault_tree::corpus;
    ///
    /// let session = AnalysisSession::new(corpus::covid());
    /// assert!(session.lint().is_empty(), "the case-study model is clean");
    /// ```
    pub fn lint(&self) -> Vec<lint::Diagnostic> {
        let mut mc = self.lock();
        let mut out = lint::lint_model(mc.tree(), self.probabilities(), self.intervals());
        out.extend(lint::lint_support(&mut mc));
        lint::finish(&mut out);
        out
    }

    /// [`AnalysisSession::lint`] plus the semantic rules over every item
    /// of `spec`: formulas are compiled through this session's shared
    /// BDD caches, so tautology/contradiction detection and evidence
    /// analysis are exact.
    pub fn lint_spec(&self, spec: &Spec) -> Vec<lint::Diagnostic> {
        let mut mc = self.lock();
        let mut out = lint::lint_model(mc.tree(), self.probabilities(), self.intervals());
        out.extend(lint::lint_support(&mut mc));
        out.extend(lint::lint_spec_items(&mut mc, spec));
        lint::finish(&mut out);
        out
    }

    /// **Compiles a layer-2 query once** into an owned, `Send + Sync`
    /// [`PreparedQuery`] sharing this session's caches — the
    /// prepared-statement analogue of [`AnalysisSession::run`].
    ///
    /// The full pass pipeline (desugar → NNF → simplify → BDD build)
    /// runs here, once; afterwards
    /// [`PreparedQuery::eval`](crate::plan::PreparedQuery::eval)
    /// answers each what-if [`Scenario`](crate::scenario::Scenario) by
    /// *restricting* the compiled diagram (BDD cofactoring) instead of
    /// rewriting the AST and recompiling, and
    /// [`PreparedQuery::sweep`](crate::plan::PreparedQuery::sweep) runs a
    /// whole scenario set over the shared caches.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::formula_bdd`] — unknown elements and evidence
    /// on gates are reported at prepare time.
    pub fn prepare(&self, psi: &Query) -> Result<PreparedQuery, BflError> {
        PreparedQuery::compile(Arc::clone(&self.inner), psi)
    }

    /// Cumulative statistics since the session was built: current arena
    /// size and total translation-cache hits/misses.
    pub fn stats(&self) -> EvalStats {
        let mc = self.lock();
        EvalStats {
            bdd_nodes: 0,
            arena_nodes: mc.manager().arena_size(),
            cache_hits: mc.cache_hits(),
            cache_misses: mc.cache_misses(),
            duration_micros: 0,
        }
    }

    // ------------------------------------------------------------------
    // Single questions, structured results.
    // ------------------------------------------------------------------

    /// Evaluates a layer-2 query `T ⊨ ψ` into a structured [`Outcome`].
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::check_query`].
    pub fn check_query(&self, psi: &Query) -> Result<Outcome, BflError> {
        let mut mc = self.lock();
        self.query_outcome(&mut mc, None, psi.to_string(), psi)
    }

    /// Checks `b, T ⊨ χ` (Algorithm 2) into a structured [`Outcome`];
    /// failed checks carry the Definition-7 counterexample of
    /// Algorithm 4.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::holds`].
    ///
    /// # Panics
    ///
    /// Panics if `b` does not cover the tree's basic events.
    pub fn check_vector(&self, b: &StatusVector, phi: &Formula) -> Result<Outcome, BflError> {
        let mut mc = self.lock();
        self.vector_outcome(&mut mc, None, phi.to_string(), b, phi)
    }

    /// The **actual-causality judgement**: which minimal sets of failed
    /// events actually caused `ϕ` to hold under the observation
    /// `evidence` (bound events at their value, everything else
    /// operational)? Equivalent to
    /// [`check_query`](AnalysisSession::check_query) on
    /// [`Query::cause`]; the outcome's `causes` field carries the
    /// [`CauseReport`](crate::causality::CauseReport), with witness
    /// enumeration capped at the session's witness limit (the exact
    /// cause count is always reported).
    ///
    /// ```
    /// use bfl_core::engine::AnalysisSession;
    /// use bfl_core::Formula;
    /// use bfl_fault_tree::corpus;
    ///
    /// # fn main() -> Result<(), bfl_core::BflError> {
    /// let session = AnalysisSession::new(corpus::fig1());
    /// let evidence: Vec<(String, bool)> =
    ///     vec![("IW".into(), true), ("H3".into(), true)];
    /// let o = session.cause(&Formula::atom("CP/R"), &evidence)?;
    /// assert!(o.holds);
    /// assert_eq!(o.causes.unwrap().total, 2); // {IW} and {H3}
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::formula_bdd`]; bad evidence bindings surface as
    /// [`BflError::UnknownElement`] / [`BflError::EvidenceOnGate`], and
    /// more than `u128::MAX` minimal causes as [`BflError::CountOverflow`].
    pub fn cause(&self, phi: &Formula, evidence: &[(String, bool)]) -> Result<Outcome, BflError> {
        self.check_query(&Query::cause(phi.clone(), evidence.iter().cloned()))
    }

    /// Evaluates one prepared [`SpecItem`].
    ///
    /// # Errors
    ///
    /// As the underlying algorithms; unknown failed-event names in a
    /// vector item surface as [`BflError::UnknownElement`].
    pub fn eval(&self, item: &SpecItem) -> Result<Outcome, BflError> {
        let mut mc = self.lock();
        self.item_outcome(&mut mc, item)
    }

    /// **Batch evaluation**: runs every item of `spec` in one pass over
    /// the shared translation caches and returns a [`Report`].
    ///
    /// Equivalent to calling [`AnalysisSession::eval`] per item (the
    /// test-suite asserts this), but the lock is taken once and repeated
    /// sub-formulae across items hit the shared cache.
    ///
    /// # Errors
    ///
    /// The first item error aborts the batch.
    pub fn run(&self, spec: &Spec) -> Result<Report, BflError> {
        let mut mc = self.lock();
        let mut report = Report::new(Arc::clone(&self.inner.tree));
        for item in &spec.items {
            let outcome = self.item_outcome(&mut mc, item)?;
            report.push(outcome);
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Capabilities previously scattered across the stack.
    // ------------------------------------------------------------------

    /// The satisfaction set `⟦χ⟧` (Algorithm 3), ascending.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::satisfying_vectors`].
    pub fn satisfying_vectors(&self, phi: &Formula) -> Result<Vec<StatusVector>, BflError> {
        self.lock().satisfying_vectors(phi)
    }

    /// `|⟦χ⟧|` without enumeration.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::count_satisfying`].
    pub fn count_satisfying(&self, phi: &Formula) -> Result<u128, BflError> {
        self.lock().count_satisfying(phi)
    }

    /// The influencing basic events `IBE(ϕ)`, in basic-index order.
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::influencing_basic_events`].
    pub fn influencing_basic_events(&self, phi: &Formula) -> Result<Vec<String>, BflError> {
        self.lock().influencing_basic_events(phi)
    }

    /// Minimal cut sets of `element` as sorted name lists.
    ///
    /// Under the default [`MinimalityScope::GlobalUniverse`] the ZDD
    /// engine enumerates them; under [`MinimalityScope::FormulaSupport`]
    /// the shared checker computes `⟦MCS(element)⟧`, whose events outside
    /// the cone are don't-cares.
    ///
    /// # Errors
    ///
    /// [`BflError::UnknownElement`] if `element` is not in the tree, and
    /// [`BflError::TooManySets`] past [`MAX_LISTED_SETS`] sets, which are
    /// counted before any is listed.
    pub fn minimal_cut_sets(&self, element: &str) -> Result<Vec<Vec<String>>, BflError> {
        self.cut_or_path_sets(element, true)
    }

    /// Minimal path sets of `element` as sorted name lists of the
    /// *operational* events, scoped as [`AnalysisSession::minimal_cut_sets`]
    /// (the ZDD engine computes them on the dual tree).
    ///
    /// # Errors
    ///
    /// As [`AnalysisSession::minimal_cut_sets`].
    pub fn minimal_path_sets(&self, element: &str) -> Result<Vec<Vec<String>>, BflError> {
        self.cut_or_path_sets(element, false)
    }

    fn cut_or_path_sets(&self, element: &str, cuts: bool) -> Result<Vec<Vec<String>>, BflError> {
        use bfl_fault_tree::analysis;
        // The branch is semantic: the ZDD engine implements the formal
        // global-universe minimality only.
        if self.inner.scope == MinimalityScope::FormulaSupport {
            let mut mc = self.lock();
            return if cuts {
                mc.minimal_cut_sets(element)
            } else {
                mc.minimal_path_sets(element)
            };
        }
        let tree = &self.inner.tree;
        let e = tree
            .element(element)
            .ok_or_else(|| BflError::UnknownElement(element.to_string()))?;
        let sets = if cuts {
            analysis::minimal_cut_sets_within(tree, e, MAX_LISTED_SETS)
        } else {
            analysis::minimal_path_sets_within(tree, e, MAX_LISTED_SETS)
        }
        .map_err(|count| BflError::TooManySets {
            element: element.to_string(),
            cuts,
            count,
        })?;
        Ok(analysis::index_sets_to_names(tree, &sets))
    }

    /// Algorithm 4: a Definition-7 counterexample for a vector that fails
    /// `χ`.
    ///
    /// # Errors
    ///
    /// As the underlying [`counterexample`].
    pub fn counterexample(
        &self,
        b: &StatusVector,
        phi: &Formula,
    ) -> Result<Counterexample, BflError> {
        counterexample(&mut self.lock(), b, phi)
    }

    /// All Definition-7-valid counterexamples for `b, T ⊭ χ`, capped at
    /// the session's witness limit. The returned set carries the exact
    /// total, so a capped enumeration is reported as truncated rather
    /// than passing silently as complete.
    ///
    /// # Errors
    ///
    /// As the underlying
    /// [`some_counterexamples`](crate::counterexample::some_counterexamples).
    pub fn all_counterexamples(
        &self,
        b: &StatusVector,
        phi: &Formula,
    ) -> Result<CounterexampleSet, BflError> {
        crate::counterexample::some_counterexamples(
            &mut self.lock(),
            b,
            phi,
            self.inner.witness_limit,
        )
    }

    /// Renders vectors as sorted lists of failed-event names.
    pub fn vectors_to_failed_sets(&self, vectors: &[StatusVector]) -> Vec<Vec<String>> {
        self.lock().vectors_to_failed_sets(vectors)
    }

    /// Resolves failed basic-event names into a [`StatusVector`].
    ///
    /// # Errors
    ///
    /// [`BflError::UnknownElement`] for unknown names and
    /// [`BflError::EvidenceOnGate`] for gates.
    pub fn vector_of_failed(&self, failed: &[String]) -> Result<StatusVector, BflError> {
        let mut v = StatusVector::all_operational(self.inner.tree.num_basic_events());
        for name in failed {
            let e = self
                .inner
                .tree
                .element(name)
                .ok_or_else(|| BflError::UnknownElement(name.clone()))?;
            let bi = self
                .inner
                .tree
                .basic_index(e)
                .ok_or_else(|| BflError::EvidenceOnGate(name.clone()))?;
            v.set(bi, true);
        }
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Probability (requires annotations at build time).
    // ------------------------------------------------------------------

    /// The complete, validated probability vector (see
    /// [`SessionInner::full_probabilities`]).
    fn full_probabilities(&self) -> Result<&[f64], BflError> {
        self.inner.full_probabilities()
    }

    /// Top-event failure probability from the configured annotations.
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`] if any annotation is absent.
    pub fn top_event_probability(&self) -> Result<f64, BflError> {
        let probs = self.full_probabilities()?;
        prob::top_event_probability(&self.inner.tree, probs)
            .map_err(|reason| BflError::InvalidProbability { reason })
    }

    /// `P(⟦χ⟧)` — the probability that a random status vector satisfies
    /// `χ` under the configured annotations.
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`] or the checker's errors.
    pub fn formula_probability(&self, phi: &Formula) -> Result<f64, BflError> {
        let probs = self.full_probabilities()?;
        quant::probability(&mut self.lock(), phi, probs)
    }

    /// Conditional probability `P(ϕ | ψ) = P(ϕ ∧ ψ) / P(ψ)` under the
    /// configured annotations; `None` when `P(ψ) = 0`.
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`] or the checker's errors.
    pub fn conditional_probability(
        &self,
        phi: &Formula,
        given: &Formula,
    ) -> Result<Option<f64>, BflError> {
        let probs = self.full_probabilities()?;
        quant::conditional_probability(&mut self.lock(), phi, given, probs)
    }

    /// `P(ϕ)` (or `P(ϕ | given)`) under `method` — or the session's
    /// default method when `None` — as a method-shaped [`ProbValue`]:
    /// an exact point, conservative interval bounds, or a Monte Carlo
    /// estimate with its confidence interval. `None` when the condition
    /// has zero probability.
    ///
    /// ```
    /// use bfl_core::engine::AnalysisSession;
    /// use bfl_core::uncertainty::{Method, ProbValue};
    /// use bfl_core::Formula;
    /// use bfl_fault_tree::corpus;
    ///
    /// # fn main() -> Result<(), bfl_core::BflError> {
    /// let session = AnalysisSession::builder()
    ///     .probabilities(vec![Some(0.1), Some(0.2)])
    ///     .build(corpus::or2());
    /// let top = Formula::atom("Top");
    /// let exact = session.probability_value(&top, None, None)?.unwrap();
    /// let mc = session
    ///     .probability_value(&top, None, Some(Method::mc()))?
    ///     .unwrap();
    /// if let (ProbValue::Exact(p), ProbValue::Estimate(e)) = (exact, mc) {
    ///     assert!(e.ci_lo <= p && p <= e.ci_hi);
    /// } else {
    ///     unreachable!()
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`BflError::IntervalProbabilities`] when an exact or Monte Carlo
    /// evaluation meets interval annotations,
    /// [`BflError::MissingProbabilities`] /
    /// [`BflError::InvalidProbability`] for incomplete or malformed
    /// annotations, [`BflError::UnsupportedMethod`] for Monte Carlo on
    /// `MCS`/`MPS` formulae or malformed sampler parameters, plus the
    /// checker's errors.
    pub fn probability_value(
        &self,
        phi: &Formula,
        given: Option<&Formula>,
        method: Option<Method>,
    ) -> Result<Option<ProbValue>, BflError> {
        let method = method.unwrap_or(self.inner.method);
        let mut mc = self.lock();
        self.inner
            .probability_value(&mut mc, phi, given, method, &[])
    }

    /// Birnbaum importance of basic event `be` for `ϕ`:
    /// `P(ϕ | be failed) − P(ϕ | be operational)`, computed by evidence
    /// cofactoring under the configured annotations.
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`], plus
    /// [`BflError::UnknownElement`] / [`BflError::EvidenceOnGate`] if
    /// `be` is not a basic event of the tree.
    pub fn birnbaum(&self, phi: &Formula, be: &str) -> Result<f64, BflError> {
        let probs = self.full_probabilities()?;
        quant::birnbaum(&mut self.lock(), phi, be, probs)
    }

    /// The batched importance suite: every basic event ranked by
    /// Birnbaum importance for `ϕ`, with criticality, Fussell-Vesely,
    /// RAW and RRW, under the configured annotations — the engine behind
    /// the `importance(ϕ)` judgement and the CLI `importance` command.
    ///
    /// # Errors
    ///
    /// [`BflError::MissingProbabilities`] /
    /// [`BflError::InvalidProbability`] for the annotations,
    /// [`BflError::DivisionByZero`] when `P(ϕ)` vanishes, plus the
    /// checker's errors.
    pub fn rank_events(&self, phi: &Formula) -> Result<Vec<quant::EventImportance>, BflError> {
        let probs = self.full_probabilities()?;
        quant::rank_events(&mut self.lock(), phi, probs)
    }

    // ------------------------------------------------------------------
    // Outcome construction.
    // ------------------------------------------------------------------

    fn item_outcome(&self, mc: &mut ModelChecker, item: &SpecItem) -> Result<Outcome, BflError> {
        match &item.kind {
            SpecKind::Query(q) => {
                self.query_outcome(mc, item.label.clone(), item.source.clone(), q)
            }
            SpecKind::Vector { failed, formula } => {
                let b = self.vector_of_failed(failed)?;
                self.vector_outcome(mc, item.label.clone(), item.source.clone(), &b, formula)
            }
        }
    }

    fn query_outcome(
        &self,
        mc: &mut ModelChecker,
        label: Option<String>,
        source: String,
        psi: &Query,
    ) -> Result<Outcome, BflError> {
        let start = Instant::now();
        let (hits0, misses0) = (mc.cache_hits(), mc.cache_misses());
        let mut outcome = match psi {
            Query::Exists(phi) => {
                let f = mc.formula_bdd(phi)?;
                let holds = !f.is_false();
                let mut o = Outcome::bare(label, source, holds);
                o.stats.bdd_nodes = mc.bdd_size(f);
                if holds && self.inner.witness_limit > 0 {
                    o.witnesses = mc.some_satisfying_vectors(phi, self.inner.witness_limit)?;
                }
                o
            }
            Query::Forall(phi) => {
                let f = mc.formula_bdd(phi)?;
                let holds = f.is_true();
                let mut o = Outcome::bare(label, source, holds);
                o.stats.bdd_nodes = mc.bdd_size(f);
                if !holds && self.inner.witness_limit > 0 {
                    let negated = phi.clone().not();
                    o.counterexamples =
                        mc.some_satisfying_vectors(&negated, self.inner.witness_limit)?;
                }
                o
            }
            Query::Idp(a, b) => self.idp_outcome(mc, label, source, a, b)?,
            Query::Sup(name) => {
                let top = Formula::atom(self.inner.tree.name(self.inner.tree.top()));
                self.idp_outcome(mc, label, source, &Formula::atom(name.clone()), &top)?
            }
            Query::Prob {
                formula,
                given,
                op,
                bound,
            } => {
                let method = self.inner.method;
                let value =
                    self.inner
                        .probability_value(mc, formula, given.as_ref(), method, &[])?;
                // An undecidable interval judgement (the bounds straddle
                // the threshold) conservatively does not hold, like a
                // zero-probability condition.
                let holds = value
                    .as_ref()
                    .and_then(|v| v.judge(*op, bound.get()))
                    .unwrap_or(false);
                let mut o = Outcome::bare(label, source, holds);
                o.method = Some(method);
                match value {
                    Some(ProbValue::Exact(p)) => o.probability = Some(p),
                    Some(ProbValue::Interval(iv)) => o.interval = Some(iv),
                    Some(ProbValue::Estimate(e)) => o.estimate = Some(e),
                    None => {}
                }
                // Monte Carlo never builds the diagram — that is the
                // point — so BDD size is only reported for the walks.
                if !matches!(method, Method::Mc { .. }) {
                    o.stats.bdd_nodes = {
                        let f = mc.formula_bdd(formula)?;
                        mc.bdd_size(f)
                    };
                }
                o
            }
            Query::Cause {
                formula,
                evidence,
                limit,
            } => {
                // `cause(…)` caps witnesses at the session limit;
                // `causes(…, k)` carries its own enumeration bound.
                let cap = limit.map_or(self.inner.witness_limit, |k| k as usize);
                let report = crate::causality::actual_causes(mc, formula, evidence, cap)?;
                let mut o = Outcome::bare(label, source, report.holds());
                o.stats.bdd_nodes = {
                    let f = mc.formula_bdd(formula)?;
                    mc.bdd_size(f)
                };
                o.causes = Some(report);
                o
            }
            Query::Importance(phi) => {
                let probs = self.inner.full_probabilities()?;
                // A ranking of an (almost surely) false formula is
                // undefined: "does not hold" with an empty table, the
                // same policy as the prepared-plan evaluator.
                let rows = match quant::rank_events(mc, phi, probs) {
                    Ok(rows) => Some(rows),
                    Err(BflError::DivisionByZero { .. }) => None,
                    Err(e) => return Err(e),
                };
                let mut o = Outcome::bare(label, source, rows.is_some());
                o.stats.bdd_nodes = {
                    let f = mc.formula_bdd(phi)?;
                    mc.bdd_size(f)
                };
                o.importance = rows.unwrap_or_default();
                o
            }
        };
        outcome.stats.arena_nodes = mc.manager().arena_size();
        outcome.stats.cache_hits = mc.cache_hits() - hits0;
        outcome.stats.cache_misses = mc.cache_misses() - misses0;
        outcome.stats.duration_micros = start.elapsed().as_micros();
        Ok(outcome)
    }

    fn idp_outcome(
        &self,
        mc: &mut ModelChecker,
        label: Option<String>,
        source: String,
        a: &Formula,
        b: &Formula,
    ) -> Result<Outcome, BflError> {
        let ia = mc.influencing_basic_events(a)?;
        let ib = mc.influencing_basic_events(b)?;
        let shared: Vec<String> = ia.into_iter().filter(|e| ib.contains(e)).collect();
        let fa = mc.formula_bdd(a)?;
        let fb = mc.formula_bdd(b)?;
        let mut o = Outcome::bare(label, source, shared.is_empty());
        o.stats.bdd_nodes = mc.bdd_size(fa) + mc.bdd_size(fb);
        o.shared_events = shared;
        Ok(o)
    }

    fn vector_outcome(
        &self,
        mc: &mut ModelChecker,
        label: Option<String>,
        source: String,
        b: &StatusVector,
        phi: &Formula,
    ) -> Result<Outcome, BflError> {
        let start = Instant::now();
        let (hits0, misses0) = (mc.cache_hits(), mc.cache_misses());
        let holds = mc.holds(b, phi)?;
        let mut outcome = Outcome::bare(label, source, holds);
        let f = mc.formula_bdd(phi)?;
        outcome.stats.bdd_nodes = mc.bdd_size(f);
        if holds {
            if self.inner.witness_limit > 0 {
                outcome.witnesses = vec![b.clone()];
            }
        } else {
            outcome.counterexample = Some(counterexample(mc, b, phi)?);
        }
        outcome.stats.arena_nodes = mc.manager().arena_size();
        outcome.stats.cache_hits = mc.cache_hits() - hits0;
        outcome.stats.cache_misses = mc.cache_misses() - misses0;
        outcome.stats.duration_micros = start.elapsed().as_micros();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_formula, parse_query};
    use bfl_fault_tree::corpus;

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisSession>();
    }

    #[test]
    fn owns_its_tree() {
        let session;
        {
            let tree = corpus::fig1();
            session = AnalysisSession::new(tree);
            // `tree` moved in; the session survives any outer scope.
        }
        assert_eq!(session.tree().num_basic_events(), 4);
        let q = Query::forall(Formula::atom("CP").implies(Formula::atom("CP/R")));
        assert!(session.check_query(&q).unwrap().holds);
    }

    #[test]
    fn exists_outcome_carries_witnesses() {
        let session = AnalysisSession::new(corpus::fig1());
        let q = parse_query("exists CP & CR").unwrap();
        let o = session.check_query(&q).unwrap();
        assert!(o.holds);
        assert!(!o.witnesses.is_empty());
        assert!(o.witnesses.len() <= 3);
        assert!(o.stats.bdd_nodes > 0);
        // Every witness really satisfies the formula.
        let phi = parse_formula("CP & CR").unwrap();
        for w in &o.witnesses {
            assert!(session.check_vector(w, &phi).unwrap().holds);
        }
    }

    #[test]
    fn forall_failure_carries_refuting_vectors() {
        let session = AnalysisSession::new(corpus::covid());
        let q = parse_query("forall IS => MoT").unwrap();
        let o = session.check_query(&q).unwrap();
        assert!(!o.holds);
        assert!(!o.counterexamples.is_empty());
        let phi = parse_formula("!(IS => MoT)").unwrap();
        for c in &o.counterexamples {
            assert!(session.check_vector(c, &phi).unwrap().holds);
        }
    }

    #[test]
    fn idp_failure_names_shared_events() {
        let session = AnalysisSession::new(corpus::covid());
        let q = parse_query("IDP(CIO, CIS)").unwrap();
        let o = session.check_query(&q).unwrap();
        assert!(!o.holds);
        assert_eq!(o.shared_events, vec!["H1"]);
    }

    #[test]
    fn failed_vector_check_carries_definition7_counterexample() {
        let session = AnalysisSession::new(corpus::or2());
        let phi = Formula::atom("Top").mcs();
        let b = StatusVector::from_bits([true, true]);
        let o = session.check_vector(&b, &phi).unwrap();
        assert!(!o.holds);
        match o.counterexample {
            Some(Counterexample::Found(v)) => assert_eq!(v.count_failed(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_shares_caches_across_items() {
        let session = AnalysisSession::new(corpus::covid());
        let spec = Spec::parse(
            "P1: forall IS => MoT\n\
             P1b: forall IS => MoT\n\
             P3: forall H4 => IWoS\n",
        )
        .unwrap();
        let report = session.run(&spec).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        // The repeated query is answered wholly from cache.
        assert_eq!(report.outcomes[1].stats.cache_misses, 0);
        assert!(report.outcomes[1].stats.cache_hits > 0);
        assert!(report.outcomes[1].holds == report.outcomes[0].holds);
    }

    /// The session's scope-dependent enumeration agrees with `⟦MCS(e)⟧` /
    /// `⟦MPS(e)⟧` through the checker under the same scope.
    fn assert_sets_match_checker(tree: FaultTree, scope: MinimalityScope) {
        let tree = Arc::new(tree);
        let session = AnalysisSession::builder()
            .minimality_scope(scope)
            .build(Arc::clone(&tree));
        let mut mc = ModelChecker::new(&tree);
        mc.set_minimality_scope(scope);
        for e in tree.iter() {
            let name = tree.name(e);
            assert_eq!(
                session.minimal_cut_sets(name).unwrap(),
                mc.minimal_cut_sets(name).unwrap(),
                "mcs of {name} under {scope:?}"
            );
            assert_eq!(
                session.minimal_path_sets(name).unwrap(),
                mc.minimal_path_sets(name).unwrap(),
                "mps of {name} under {scope:?}"
            );
        }
    }

    #[test]
    fn global_scope_equals_checker() {
        assert_sets_match_checker(corpus::covid(), MinimalityScope::GlobalUniverse);
        assert_sets_match_checker(corpus::table1_tree(), MinimalityScope::GlobalUniverse);
    }

    #[test]
    fn support_scope_equals_checker() {
        assert_sets_match_checker(corpus::covid(), MinimalityScope::FormulaSupport);
        assert_sets_match_checker(corpus::table1_tree(), MinimalityScope::FormulaSupport);
        // e3 = OR(e4, e5) does not depend on e2: only the support scope
        // leaves it free, so the two scopes give different sets.
        let tree = Arc::new(corpus::table1_tree());
        let global = AnalysisSession::new(Arc::clone(&tree));
        let support = AnalysisSession::builder()
            .minimality_scope(MinimalityScope::FormulaSupport)
            .build(tree);
        assert_ne!(
            global.minimal_cut_sets("e3").unwrap(),
            support.minimal_cut_sets("e3").unwrap()
        );
    }

    #[test]
    fn listings_past_the_cap_are_refused_after_counting() {
        // An AND of 21 two-event ORs: 2^21 minimal cut sets, one event
        // from each OR, and 21 minimal path sets, one OR's pair each.
        let mut b = bfl_fault_tree::FaultTreeBuilder::new();
        let mut ors = Vec::new();
        for i in 0..21 {
            let (l, r, g) = (format!("l{i}"), format!("r{i}"), format!("or{i}"));
            b.basic_events([&l, &r]).unwrap();
            b.gate(&g, bfl_fault_tree::GateType::Or, [&l, &r]).unwrap();
            ors.push(g);
        }
        b.gate("top", bfl_fault_tree::GateType::And, &ors).unwrap();
        let tree = Arc::new(b.build("top").unwrap());
        for scope in [
            MinimalityScope::GlobalUniverse,
            MinimalityScope::FormulaSupport,
        ] {
            let session = AnalysisSession::builder()
                .minimality_scope(scope)
                .build(Arc::clone(&tree));
            match session.minimal_cut_sets("top") {
                Err(BflError::TooManySets {
                    element,
                    cuts: true,
                    count: Some(count),
                }) => {
                    assert_eq!((element.as_str(), count), ("top", 1 << 21), "{scope:?}");
                }
                other => panic!("{scope:?}: {other:?}"),
            }
            assert_eq!(session.minimal_path_sets("top").unwrap().len(), 21);
            // Each OR holds in 3 of its 4 vectors: 3^21 satisfy `top`.
            match session.satisfying_vectors(&Formula::atom("top")) {
                Err(BflError::TooManyVectors {
                    formula,
                    count: Some(count),
                }) => assert_eq!((formula.as_str(), count), ("top", 3u128.pow(21))),
                other => panic!("{scope:?}: {other:?}"),
            }
            // `or0` has two minimal cut sets; the support scope leaves the
            // 40 events outside its cone free, 2 · 2^40 vectors.
            let or0 = session.minimal_cut_sets("or0").map(|sets| sets.len());
            match scope {
                MinimalityScope::GlobalUniverse => assert_eq!(or0, Ok(2)),
                MinimalityScope::FormulaSupport => assert!(
                    matches!(or0, Err(BflError::TooManySets { count: Some(n), .. }) if n == 2 << 40),
                    "{or0:?}"
                ),
            }
        }
    }

    #[test]
    fn probability_requires_annotations() {
        let session = AnalysisSession::new(corpus::or2());
        match session.top_event_probability() {
            Err(BflError::MissingProbabilities { events }) => {
                assert_eq!(events.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        let with = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(0.2)])
            .build(corpus::or2());
        let p = with.top_event_probability().unwrap();
        assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn annotation_vectors_are_built_once_and_lent_out() {
        let session = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(0.2)])
            .build(corpus::or2());
        let first = session.inner.full_probabilities().unwrap();
        let again = session.inner.full_probabilities().unwrap();
        assert_eq!(first, [0.1, 0.2]);
        assert!(std::ptr::eq(first, again), "one vector per session");
        let intervals = session.inner.full_intervals().unwrap();
        assert!(std::ptr::eq(
            intervals,
            session.inner.full_intervals().unwrap()
        ));
        assert_eq!(intervals[1], ProbInterval::point(0.2).unwrap());
        // A failed validation is kept: every call reports the same error.
        let partial = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), None])
            .build(corpus::or2());
        let missing = BflError::MissingProbabilities {
            events: vec!["e2".to_string()],
        };
        for _ in 0..2 {
            assert_eq!(partial.inner.full_probabilities(), Err(missing.clone()));
            assert_eq!(partial.inner.full_intervals(), Err(missing.clone()));
        }
        let invalid = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(1.5)])
            .build(corpus::or2());
        let first = invalid.inner.full_probabilities().unwrap_err();
        assert!(matches!(first, BflError::InvalidProbability { .. }));
        assert_eq!(invalid.inner.full_probabilities().unwrap_err(), first);
    }

    #[test]
    fn conditional_probability_and_birnbaum_on_the_session() {
        // Previously only reachable as free `quant::*` functions over a
        // hand-built ModelChecker; now first-class on the session.
        let session = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(0.2)])
            .build(corpus::or2());
        let top = Formula::atom("Top");
        let e1 = Formula::atom("e1");
        // P(Top | e1) = 1.
        let p = session.conditional_probability(&top, &e1).unwrap().unwrap();
        assert!((p - 1.0).abs() < 1e-12);
        // Conditioning on an impossible event yields None.
        let none = session
            .conditional_probability(&top, &e1.clone().and(e1.clone().not()))
            .unwrap();
        assert!(none.is_none());
        // Birnbaum importance of e1 for an OR gate: 1 - P(e2) = 0.8.
        let b = session.birnbaum(&top, "e1").unwrap();
        assert!((b - 0.8).abs() < 1e-12);
        // Without annotations both report the missing events.
        let bare = AnalysisSession::new(corpus::or2());
        assert!(matches!(
            bare.conditional_probability(&top, &e1),
            Err(BflError::MissingProbabilities { .. })
        ));
        assert!(matches!(
            bare.birnbaum(&top, "e1"),
            Err(BflError::MissingProbabilities { .. })
        ));
    }

    #[test]
    fn prepare_compiles_through_the_session() {
        let session = AnalysisSession::new(corpus::covid());
        let prepared = session
            .prepare(&parse_query("forall IS => MoT").unwrap())
            .unwrap();
        let outcome = prepared.eval(&crate::scenario::Scenario::new()).unwrap();
        // Baseline scenario agrees with the direct query path.
        let direct = session
            .check_query(&parse_query("forall IS => MoT").unwrap())
            .unwrap();
        assert_eq!(outcome.holds, direct.holds);
        assert_eq!(outcome.counterexamples, direct.counterexamples);
    }

    #[test]
    fn probability_value_dispatches_on_method() {
        let session = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(0.2)])
            .build(corpus::or2());
        let top = Formula::atom("Top");
        // Exact (the session default).
        let exact = session
            .probability_value(&top, None, None)
            .unwrap()
            .unwrap();
        let ProbValue::Exact(p) = exact else {
            panic!("{exact:?}")
        };
        assert!((p - 0.28).abs() < 1e-12);
        // Interval over a point-only model: degenerate, bit-identical.
        let iv = session
            .probability_value(&top, None, Some(Method::Interval))
            .unwrap()
            .unwrap();
        let ProbValue::Interval(iv) = iv else {
            panic!("{iv:?}")
        };
        assert_eq!(iv.lo.to_bits(), p.to_bits());
        assert_eq!(iv.hi.to_bits(), p.to_bits());
        // Monte Carlo: CI covers the exact answer, counters advance.
        assert_eq!(session.sampler_stats(), SamplerStats::default());
        let mc = session
            .probability_value(&top, None, Some(Method::mc()))
            .unwrap()
            .unwrap();
        let ProbValue::Estimate(e) = mc else {
            panic!("{mc:?}")
        };
        assert!(e.ci_lo <= p && p <= e.ci_hi);
        let stats = session.sampler_stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.samples, crate::uncertainty::DEFAULT_MC_SAMPLES);
    }

    #[test]
    fn interval_annotations_reject_exact_paths() {
        // Satellite fix: an interval-annotated model must refuse exact
        // quantities (and Monte Carlo, which samples a point
        // distribution) with a structured error naming the events —
        // never silently collapse the interval to a point.
        let session = AnalysisSession::builder()
            .probabilities(vec![None, Some(0.2)])
            .intervals(vec![ProbInterval::new(0.1, 0.3).ok(), None])
            .build(corpus::or2());
        let top = Formula::atom("Top");
        for result in [
            session.top_event_probability(),
            session.formula_probability(&top),
            session.birnbaum(&top, "e1"),
        ] {
            match result {
                Err(BflError::IntervalProbabilities { events }) => {
                    assert_eq!(events, vec!["e1"]);
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            session.rank_events(&top),
            Err(BflError::IntervalProbabilities { .. })
        ));
        assert!(matches!(
            session.probability_value(&top, None, Some(Method::mc())),
            Err(BflError::IntervalProbabilities { .. })
        ));
        // The interval method is the supported way in: mixed point +
        // interval annotations propagate, bracketing every point choice.
        let iv = session
            .probability_value(&top, None, Some(Method::Interval))
            .unwrap()
            .unwrap();
        let ProbValue::Interval(iv) = iv else {
            panic!("{iv:?}")
        };
        let lo = 1.0 - 0.9 * 0.8; // P(e1) = 0.1
        let hi = 1.0 - 0.7 * 0.8; // P(e1) = 0.3
        assert!((iv.lo - lo).abs() < 1e-12);
        assert!((iv.hi - hi).abs() < 1e-12);
    }

    #[test]
    fn prob_query_outcome_carries_method_fields() {
        let tree = Arc::new(corpus::or2());
        let q = parse_query("P(Top) >= 0.3").unwrap();
        // Interval session: [0.28, 0.44] straddles 0.3 → undecided,
        // conservatively does not hold; interval lands in the outcome.
        let session = AnalysisSession::builder()
            .intervals(vec![
                ProbInterval::new(0.1, 0.3).ok(),
                ProbInterval::new(0.2, 0.2).ok(),
            ])
            .method(Method::Interval)
            .build(Arc::clone(&tree));
        let o = session.check_query(&q).unwrap();
        assert!(!o.holds);
        assert_eq!(o.method, Some(Method::Interval));
        assert_eq!(o.probability, None);
        let iv = o.interval.expect("interval outcome");
        assert!((iv.lo - 0.28).abs() < 1e-12 && (iv.hi - 0.44).abs() < 1e-12);
        // A bound below the whole interval is decidedly true.
        let o = session
            .check_query(&parse_query("P(Top) >= 0.2").unwrap())
            .unwrap();
        assert!(o.holds);
        // Monte Carlo session: estimate + CI land in the outcome, and no
        // BDD is built for the judgement.
        let session = AnalysisSession::builder()
            .probabilities(vec![Some(0.1), Some(0.2)])
            .method(Method::mc())
            .build(tree);
        let o = session
            .check_query(&parse_query("P(Top) >= 0.2").unwrap())
            .unwrap();
        assert!(o.holds);
        assert_eq!(o.method, Some(Method::mc()));
        let e = o.estimate.expect("estimate outcome");
        assert!(e.ci_lo <= 0.28 && 0.28 <= e.ci_hi);
        assert_eq!(o.stats.bdd_nodes, 0);
    }

    #[test]
    fn queries_work_across_threads() {
        let session = Arc::new(AnalysisSession::new(corpus::covid()));
        let q = parse_query("exists MCS(IWoS) & H4").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&session);
                let q = q.clone();
                std::thread::spawn(move || s.check_query(&q).unwrap().holds)
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
