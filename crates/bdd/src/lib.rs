//! # `bfl-bdd` — a reduced ordered binary decision diagram engine
//!
//! This crate implements the BDD substrate required by the BFL model-checking
//! algorithms of *"BFL: a Logic to Reason about Fault Trees"* (Nicoletti,
//! Hahn & Stoelinga, DSN 2022). It is a self-contained, from-scratch
//! implementation in the style of classical BDD packages
//! (Brace–Rudell–Bryant 1990, Andersen 1997, Ben-Ari 2012):
//!
//! * hash-consed node storage with a unique table, so every Boolean function
//!   has exactly one reduced representation per [`Manager`];
//! * [`ite`](Manager::ite)-based `apply` operations (`∧ ∨ ⊕ ⇒ ≡ ¬`),
//!   memoised in one lossy computed table;
//! * [`restrict`](Manager::restrict) (cofactor), existential/universal
//!   quantification, the combined *relational product*
//!   [`and_exists`](Manager::and_exists), variable
//!   [`rename`](Manager::rename) (used for the `V ↷ V′` priming step of the
//!   paper's `MCS` construction) and [`compose`](Manager::compose);
//! * satisfiability services: [`eval`](Manager::eval),
//!   [`any_sat`](Manager::any_sat), the `AllSat` path iterator
//!   ([`sat_paths`](Manager::sat_paths)), full-vector enumeration
//!   ([`sat_vectors`](Manager::sat_vectors)) and model counting
//!   ([`sat_count`](Manager::sat_count));
//! * the subset/superset vector relations of the paper's Algorithm 1
//!   ([`strict_subset`](Manager::strict_subset),
//!   [`strict_superset`](Manager::strict_superset));
//! * Graphviz export ([`to_dot`](Manager::to_dot)) used to reproduce the
//!   BDD figures of the paper;
//! * **arena rollback**: [`Manager::watermark`] and
//!   [`Manager::rollback`] drop every node a request built and unlink
//!   it from the unique table, so scratch work leaves the arena as it
//!   found it; no computed-table entry that names a dropped node hits
//!   again. It is the one way the arena shrinks;
//! * **self-auditing**: [`Manager::audit`] verifies the whole arena
//!   (unique-table canonicity and chains, reduction, order, topological
//!   sortedness, sampled computed-table soundness) and returns an
//!   [`AuditReport`].
//!
//! A variable is its own level: [`Var(k)`](Var) sits at level `k` of the
//! order for the manager's whole life. Clients that need a
//! domain-specific order (e.g. fault-tree orderings) choose it by mapping
//! domain objects to variable ids; see the `bfl-fault-tree` crate.
//!
//! ## Example
//!
//! ```
//! use bfl_bdd::{Manager, Var};
//!
//! let mut m = Manager::new(2);
//! let x = m.var(Var(0));
//! let y = m.var(Var(1));
//! let f = m.or(x, y);
//!
//! assert!(m.eval(f, |v| v == Var(1)));
//! assert_eq!(m.sat_count(f, 2), Some(3)); // 01, 10, 11
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod computed;
mod dot;
mod hash;
mod manager;
mod memo;
mod ops;
mod prob;
mod rollback;
mod sat;
mod subset;
pub mod zdd;

pub use audit::AuditReport;
pub use hash::{WordHasher, WordMap};
pub use manager::{Bdd, Manager, Node, Var};
pub use memo::{NodeMemo, WatermarkMemo};
pub use rollback::Watermark;
pub use sat::{SatPath, SatPaths, SatVectors};
pub use zdd::{Zdd, ZddManager};
