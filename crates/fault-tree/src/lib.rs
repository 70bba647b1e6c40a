//! # `bfl-fault-tree` — static fault trees and their analysis
//!
//! This crate implements the fault-tree substrate of *"BFL: a Logic to
//! Reason about Fault Trees"* (Nicoletti, Hahn & Stoelinga, DSN 2022):
//!
//! * the fault-tree formalism of Definition 1 — directed acyclic graphs of
//!   *basic events* and *intermediate events* with `AND`, `OR` and
//!   `VOT(k/N)` gates, shared subtrees and repeated basic events
//!   ([`FaultTree`], [`FaultTreeBuilder`]);
//! * the structure function `Φ_T` of Definition 2 ([`FaultTree::evaluate`]);
//! * cut sets, path sets and their minimal variants (Definitions 3 and 4):
//!   bottom-up ZDD cut-set families answer the enumeration
//!   ([`zdd_engine`]), and the paper's primed-variable BDD construction
//!   serves the logic and the cross-checks ([`analysis`]);
//! * the `Ψ_FT` BDD translation of Definition 6 ([`bdd`]);
//! * variable-ordering heuristics for the translation ([`order`]);
//! * a Galileo-style textual format ([`galileo`]);
//! * a probability layer (the paper's first future-work item) computing
//!   exact top-event probabilities and importance measures ([`prob`]);
//! * a seeded random fault-tree generator for benchmarks and
//!   property-based tests ([`generator`]);
//! * the paper's example trees, including the reconstructed COVID-19 case
//!   study of Fig. 2 ([`corpus`]).
//!
//! ## Quickstart
//!
//! ```
//! use bfl_fault_tree::{FaultTreeBuilder, GateType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The fault tree of Fig. 1: existence of COVID-19 pathogens/reservoir.
//! let mut b = FaultTreeBuilder::new();
//! b.basic_events(["IW", "H3", "IT", "H2"])?;
//! b.gate("CP", GateType::And, ["IW", "H3"])?;
//! b.gate("CR", GateType::And, ["IT", "H2"])?;
//! b.gate("CP/R", GateType::Or, ["CP", "CR"])?;
//! let tree = b.build("CP/R")?;
//!
//! let mcs = bfl_fault_tree::analysis::minimal_cut_sets_names(&tree, tree.top());
//! assert_eq!(mcs, vec![
//!     vec!["IT".to_string(), "H2".to_string()],
//!     vec!["IW".to_string(), "H3".to_string()],
//! ].into_iter().map(|mut v| { v.sort(); v }).collect::<Vec<_>>());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bdd;
pub mod builder;
pub mod corpus;
pub mod dot;
pub mod galileo;
pub mod generator;
pub mod model;
pub mod modules;
mod names;
pub mod order;
pub mod prob;
pub mod rng;
pub mod status;
pub mod structure;
pub mod zdd_engine;

pub use builder::FaultTreeBuilder;
pub use model::{ElementId, FaultTree, FaultTreeError, GateType};
pub use order::VariableOrdering;
pub use status::StatusVector;
