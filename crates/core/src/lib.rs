//! # `bfl-core` — Boolean Fault tree Logic
//!
//! A faithful, production-quality implementation of
//! *"BFL: a Logic to Reason about Fault Trees"* (Nicoletti, Hahn &
//! Stoelinga, DSN 2022):
//!
//! * the two-layer logic of Section III — [`Formula`] (layer 1: element
//!   atoms, Boolean connectives, evidence, `MCS`/`MPS`) and [`Query`]
//!   (layer 2: `∃`, `∀`, `IDP`), plus all the paper's syntactic sugar
//!   (`⇒ ≡ ≢ SUP VOT▷◁k`);
//! * reference semantics by direct recursion ([`semantics`]);
//! * the BDD-based model-checking algorithms of Section V
//!   ([`ModelChecker`]): formula compilation with caching (Algorithm 1),
//!   vector checking (Algorithm 2), satisfaction sets (Algorithm 3);
//! * counterexample generation per Section VI ([`counterexample()`],
//!   Algorithm 4 and Definition 7) with the four patterns of Table I
//!   ([`patterns`]) and failure-propagation rendering ([`render`]);
//! * a textual DSL for the logic ([`parser`]) — the paper's third
//!   future-work item;
//! * a fault-tree synthesis prototype for the Section V-E discussion
//!   ([`synthesis`]);
//! * an **actual-causality layer** ([`causality`]) — `cause(ϕ, evidence)`
//!   computes the minimal event sets that actually caused a failing
//!   observation, by BDD cofactoring and the `MPS` maximality machinery;
//! * the **[`AnalysisSession`] engine** ([`engine`], [`report`]) — an
//!   owned, `Send + Sync`, batch-first façade over all of the above;
//! * **compiled query plans** ([`plan`], [`scenario`]) — prepare a
//!   layer-2 query once, then evaluate it under arbitrary what-if
//!   [`Scenario`]s (evidence bindings `e←b`) by BDD restriction, sweep
//!   whole scenario sets across threads, and [`explain`] the compiled
//!   plan pass by pass.
//!
//! [`explain`]: plan::PreparedQuery::explain
//!
//! ## Quickstart
//!
//! ```
//! use bfl_core::engine::AnalysisSession;
//! use bfl_core::report::Spec;
//! use bfl_core::parser;
//! use bfl_fault_tree::corpus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = AnalysisSession::new(corpus::covid());
//!
//! // Property 1 of the case study: is an infected surface sufficient for
//! // the transmission of COVID? (It is not — and the outcome says why.)
//! let q = parser::parse_query("forall IS => MoT")?;
//! let outcome = session.check_query(&q)?;
//! assert!(!outcome.holds);
//! assert!(!outcome.counterexamples.is_empty());
//!
//! // Which minimal cut sets involve the object-disinfection error H4?
//! let phi = parser::parse_formula("MCS(IWoS) & H4")?;
//! let sets = session.satisfying_vectors(&phi)?;
//! assert_eq!(sets.len(), 2);
//!
//! // Whole specs evaluate in one pass over shared BDD caches.
//! let report = session.run(&Spec::parse("P8: IDP(CIO, CIS)\nP9: SUP(PP)\n")?)?;
//! assert_eq!(report.holding(), 0);
//!
//! // What-if sweeps: prepare once, evaluate scenarios by restriction.
//! let prepared = session.prepare(&parser::parse_query("exists IWoS")?)?;
//! let scenarios = bfl_core::scenario::ScenarioSet::parse("protected: VW = 0\nworst: IW = 1\n")?;
//! let sweep = prepared.sweep(&scenarios)?;
//! assert_eq!(sweep.holding(), 1);
//! assert_eq!(sweep.stats.translation_misses, 0); // no recompilation
//! # Ok(())
//! # }
//! ```
//!
//! ## Migration note: per-scenario `with_evidence` loops → `prepare`/`sweep`
//!
//! Before, every what-if hypothesis was baked into the AST and paid the
//! whole pipeline again; now evidence is applied to the *compiled*
//! diagram by restriction (cofactoring):
//!
//! | before (recompile per scenario)                       | after (compile once)                     |
//! |-------------------------------------------------------|------------------------------------------|
//! | `let phi2 = phi.clone().with_evidence("IW", true);`   | `session.prepare(&q)?` once, then        |
//! | `session.check_query(&Query::Exists(phi2))?`          | `prepared.eval(&Scenario::new().bind("IW", true))?` |
//! | loop over hypotheses, one compile each                | `prepared.sweep(&ScenarioSet::parse(..)?)?` |
//! | no visibility into the pipeline                       | `prepared.explain()` → [`Plan`] (text/JSON) |
//!
//! The two paths agree exactly — verdicts *and* witnesses — because the
//! checker compiles outermost evidence as BDD restriction and BDDs are
//! canonical; `tests/prepared_query.rs` asserts the agreement on the
//! case study and on randomized trees.
//!
//! ## Migration note: `ModelChecker` → `AnalysisSession`
//!
//! [`ModelChecker`] (lifetime-bound, `&mut`, bare `bool` answers) remains
//! available as the session's internal workhorse, but the public face is
//! now [`AnalysisSession`]: owned tree (`Arc<FaultTree>`, no lifetime
//! parameter), `Send + Sync`, structured [`report::Outcome`]s with
//! witnesses/counterexamples/statistics, ZDD cut-set enumeration, and
//! batch evaluation via
//! [`AnalysisSession::run`](engine::AnalysisSession::run). See the
//! migration table in the [`engine`] module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod causality;
pub mod checker;
pub mod counterexample;
pub mod engine;
pub mod error;
pub mod lint;
pub mod parser;
pub mod patterns;
pub mod plan;
pub mod quant;
pub mod render;
pub mod report;
pub mod rewrite;
pub mod scenario;
pub mod semantics;
pub mod synthesis;
pub mod uncertainty;

pub use ast::{CmpOp, Formula, Prob, Query};
pub use causality::{ActualCause, CauseReport};
pub use checker::{MinimalityScope, ModelChecker};
pub use counterexample::{
    counterexample, is_valid_counterexample, some_counterexamples, Counterexample,
    CounterexampleSet,
};
pub use engine::{AnalysisSession, SamplerStats, SessionBuilder};
pub use error::BflError;
pub use lint::{Diagnostic, Severity};
pub use patterns::{Pattern, Table1Row};
pub use plan::{
    Plan, PreparedQuery, PreparedStats, ProbOutcome, ProbSweepReport, ProbSweepStats, SweepReport,
    SweepStats,
};
pub use quant::{EventImportance, ProbQuery};
pub use report::{EvalStats, Outcome, Report, Spec, SpecItem, SpecKind};
pub use scenario::{Scenario, ScenarioSet};
pub use uncertainty::{Estimate, Method, ProbInterval, ProbValue};
