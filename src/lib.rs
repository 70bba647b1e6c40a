//! # `bfl` — Boolean Fault tree Logic
//!
//! Umbrella crate for the BFL suite, a from-scratch Rust implementation of
//! *"BFL: a Logic to Reason about Fault Trees"* (Nicoletti, Hahn &
//! Stoelinga, DSN 2022). It re-exports the three member crates:
//!
//! * [`bdd`] ([`bfl_bdd`]) — the reduced ordered BDD engine;
//! * [`ft`] ([`bfl_fault_tree`]) — fault trees: model, structure function,
//!   Galileo parser, BDD translation, ZDD cut-set engine, probability;
//! * [`logic`] ([`bfl_core`]) — the BFL logic: syntax, DSL, semantics,
//!   model checking, counterexamples, patterns, synthesis, and the
//!   [`AnalysisSession`](bfl_core::engine::AnalysisSession) engine.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! `EXPERIMENTS.md` for the paper-reproduction results.
//!
//! ## Quickstart
//!
//! The entry point is the **`AnalysisSession`**: an owned, thread-safe,
//! batch-first façade over the whole stack. Configure once, query many
//! times — repeated sub-formulae share one BDD cache.
//!
//! ```
//! use bfl::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The COVID-19 fault tree of the paper's case study (Fig. 2).
//! let session = AnalysisSession::new(bfl::ft::corpus::covid());
//!
//! // "Are at least 2 human errors sufficient for the top event?" — no,
//! // and the outcome carries refuting vectors and evaluation stats:
//! let q = parse_query("forall VOT(>=2; H1, H2, H3, H4, H5) => IWoS")?;
//! let outcome = session.check_query(&q)?;
//! assert!(!outcome.holds);
//! assert!(!outcome.counterexamples.is_empty());
//!
//! // "What are the minimal ways to prevent the top event?"
//! let mps = session.minimal_path_sets("IWoS")?;
//! assert_eq!(mps.len(), 12);
//!
//! // Whole batches evaluate in one pass over shared caches:
//! let spec = Spec::parse("P1: forall IS => MoT\nP9: SUP(PP)\n")?;
//! let report = session.run(&spec)?;
//! assert_eq!(report.holding(), 0); // both properties fail, as in the paper
//! # Ok(())
//! # }
//! ```
//!
//! ## Migration note (`ModelChecker` → `AnalysisSession`)
//!
//! Before this release the public face was the lifetime-bound
//! [`ModelChecker<'t>`](bfl_core::ModelChecker) plus free functions
//! (`counterexample`, the `analysis` and `zdd_engine` modules). Those
//! APIs remain available — `ModelChecker` is the session's internal
//! workhorse — but new code should build an
//! [`AnalysisSession`](bfl_core::engine::AnalysisSession): it owns its
//! tree (`Arc<FaultTree>`, no lifetime), is `Send + Sync`, returns
//! structured [`Outcome`](bfl_core::report::Outcome)s instead of bare
//! `bool`s, and answers cut-set questions through the same session
//! methods as every other query. See the migration table in
//! [`bfl_core::engine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bfl_bdd as bdd;
pub use bfl_core as logic;
pub use bfl_fault_tree as ft;

/// One-stop imports for applications using the suite.
pub mod prelude {
    pub use bfl_core::engine::{AnalysisSession, SessionBuilder};
    pub use bfl_core::parser::{parse_formula, parse_query, parse_spec};
    pub use bfl_core::plan::{
        Plan, PreparedQuery, PreparedStats, ProbOutcome, ProbSweepReport, ProbSweepStats,
        SweepReport, SweepStats,
    };
    pub use bfl_core::quant::{EventImportance, ProbQuery};
    pub use bfl_core::report::{EvalStats, Outcome, Report, Spec, SpecItem, SpecKind};
    pub use bfl_core::scenario::{Scenario, ScenarioSet};
    pub use bfl_core::uncertainty::{Estimate, Method, ProbInterval, ProbValue};
    pub use bfl_core::{
        counterexample, is_valid_counterexample, some_counterexamples, ActualCause, BflError,
        CauseReport, CmpOp, Counterexample, CounterexampleSet, Formula, MinimalityScope,
        ModelChecker, Pattern, Prob, Query,
    };
    pub use bfl_fault_tree::{
        FaultTree, FaultTreeBuilder, GateType, StatusVector, VariableOrdering,
    };
}
