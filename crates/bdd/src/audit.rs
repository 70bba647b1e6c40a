//! Deep self-audit of the manager's arena invariants.
//!
//! Every other module of this crate *relies* on the invariants checked
//! here — hash-consing canonicity, the variable order, the arena's
//! topological order, cache soundness — but none of them can afford to
//! verify the whole arena on every operation. [`Manager::audit`] is the
//! offline verifier: one linear pass over the arena plus a sampled
//! semantic check of the operation caches, producing an [`AuditReport`]
//! that lists every violation found. The test suites run it after
//! builds and rollbacks as their oracle of arena health.
//!
//! The checks:
//!
//! 1. **terminal integrity** — the two terminals sit at indices 0/1 with
//!    the sentinel level;
//! 2. **unique-table canonicity** — every interior node is interned
//!    exactly once under exactly its `(var, low, high)` triple, the
//!    table holds no stray entries, and no two nodes share a triple;
//! 3. **reduction** — no node tests a variable with identical children
//!    (redundant-test elimination held);
//! 4. **order** — every node's variable sits strictly above both
//!    children's (a variable is its own level), which also proves the
//!    diagram acyclic and every child slot in bounds (no live edge into
//!    a freed/out-of-range slot);
//! 5. **topological order** — every child's index is below its
//!    parent's. Nodes are appended after their children and truncated
//!    by a rollback, and rollback relies on the order: nothing below a
//!    watermark may name a node above it;
//! 6. **cache soundness** — sampled entries of the and/or/xor, ite and
//!    not caches are re-checked *semantically*: the cached result must
//!    agree with the operands under pseudo-random assignments.

use std::fmt;

use crate::manager::{Bdd, Manager, Op, Var, TERMINAL_LEVEL};

/// Violations reported before the audit stops collecting (the count
/// keeps incrementing; a corrupt arena can fail almost everywhere).
const MAX_REPORTED: usize = 16;

/// Default number of entries sampled per operation cache.
const DEFAULT_CACHE_SAMPLES: usize = 64;

/// Pseudo-random assignments evaluated per sampled cache entry.
const ASSIGNMENTS_PER_ENTRY: u64 = 4;

/// The outcome of one [`Manager::audit`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Arena size at audit time (terminals included).
    pub nodes: usize,
    /// Unique-table entries inspected.
    pub unique_entries: usize,
    /// Operation-cache entries semantically re-checked (sampled).
    pub cache_entries_checked: usize,
    /// Total violations found (may exceed `violations.len()`).
    pub violation_count: usize,
    /// The first violations found, human-readable (capped).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether the audit found no invariant violations.
    pub fn is_ok(&self) -> bool {
        self.violation_count == 0
    }

    fn push(&mut self, violation: String) {
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(violation);
        }
        self.violation_count += 1;
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} nodes, {} unique entries, {} cache entries checked: ",
            self.nodes, self.unique_entries, self.cache_entries_checked
        )?;
        if self.is_ok() {
            return f.write_str("ok");
        }
        write!(f, "{} violations", self.violation_count)?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        if self.violation_count > self.violations.len() {
            write!(
                f,
                "\n  … and {} more",
                self.violation_count - self.violations.len()
            )?;
        }
        Ok(())
    }
}

/// Deterministic per-(entry, variable) assignment bit — a SplitMix64
/// finaliser over the sample index and variable id, so cache sampling
/// is reproducible without any global random state.
fn assignment_bit(sample: u64, v: Var) -> bool {
    let mut z = sample
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(v.0).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

impl Manager {
    /// Verifies the arena invariants (see the module docs above),
    /// sampling `DEFAULT_CACHE_SAMPLES` entries per operation cache.
    ///
    /// The audit never mutates the manager and never panics on a corrupt
    /// arena — every violation is collected into the report (use
    /// [`Manager::assert_audit`] for the panicking form).
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let _ = m.and(a, b);
    /// let report = m.audit();
    /// assert!(report.is_ok(), "{report}");
    /// ```
    pub fn audit(&self) -> AuditReport {
        self.audit_with(DEFAULT_CACHE_SAMPLES)
    }

    /// [`Manager::audit`] with an explicit per-cache sample budget
    /// (`usize::MAX` re-checks every cache entry).
    pub fn audit_with(&self, cache_samples: usize) -> AuditReport {
        let mut report = AuditReport {
            nodes: self.nodes.len(),
            ..AuditReport::default()
        };
        let n = self.nodes.len();
        let num_vars = self.num_vars() as usize;

        // 1. Terminal integrity.
        if n < 2 {
            report.push(format!("arena holds {n} nodes; terminals missing"));
            return report;
        }
        for t in 0..2u32 {
            let node = self.nodes[t as usize];
            if node.var.0 != TERMINAL_LEVEL || node.low.0 != t || node.high.0 != t {
                report.push(format!("terminal {t} corrupted: {node:?}"));
            }
        }

        // Level of a node id, robust against a corrupt arena: out-of-
        // bounds children and undeclared variables sort as "deepest".
        let level_of_id = |id: u32| -> u32 {
            match self.nodes.get(id as usize) {
                Some(node) if (node.var.0 as usize) < num_vars => node.var.0,
                _ => TERMINAL_LEVEL,
            }
        };

        // 2–5. Per-node structure, reduction and both orders.
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            let i32u = i as u32;
            if node.var.0 as usize >= num_vars {
                report.push(format!("node {i} tests undeclared variable {}", node.var));
                continue;
            }
            let (lo, hi) = (node.low.0, node.high.0);
            if lo as usize >= n || hi as usize >= n {
                report.push(format!(
                    "node {i} has out-of-bounds child ({lo}, {hi}) in an arena of {n}"
                ));
                continue;
            }
            if lo >= i32u || hi >= i32u {
                report.push(format!(
                    "node {i} has a child at a higher index ({lo}, {hi}): \
                     arena not topologically sorted"
                ));
            }
            if lo == hi {
                report.push(format!(
                    "node {i} is redundant: both children are {lo} (reduction violated)"
                ));
            }
            let level = node.var.0;
            if level >= level_of_id(lo) || level >= level_of_id(hi) {
                report.push(format!(
                    "node {i} ({} at level {level}) not strictly above its children \
                     (levels {}, {})",
                    node.var,
                    level_of_id(lo),
                    level_of_id(hi)
                ));
            }
            // Unique-table canonicity, node side: this exact triple must
            // resolve back to this index. A duplicate triple can only
            // resolve to one of its nodes, so duplicates are caught here
            // without a second hash pass.
            match self.unique.get(&(node.var.0, lo, hi)) {
                Some(&id) if id == i32u => {}
                Some(&id) => report.push(format!(
                    "nodes {i} and {id} share the triple ({}, {lo}, {hi}) — \
                     hash-consing violated",
                    node.var
                )),
                None => report.push(format!(
                    "node {i} ({}, {lo}, {hi}) missing from the unique table",
                    node.var
                )),
            }
        }

        // Unique-table canonicity, table side: no stray entries.
        report.unique_entries = self.unique.len();
        if self.unique.len() != n.saturating_sub(2) {
            report.push(format!(
                "unique table holds {} entries for {} interior nodes",
                self.unique.len(),
                n - 2
            ));
        }
        for (&(var, lo, hi), &id) in &self.unique {
            match self.nodes.get(id as usize) {
                Some(node) if id >= 2 && (node.var.0, node.low.0, node.high.0) == (var, lo, hi) => {
                }
                _ => report.push(format!(
                    "unique entry ({var}, {lo}, {hi}) -> {id} names no matching node"
                )),
            }
        }

        // 6. Sampled semantic cache soundness. A cached entry whose
        // operands or result fell out of bounds would already be a
        // use-after-free; in-bounds entries are re-checked by evaluation
        // under deterministic pseudo-random assignments.
        let in_bounds = |id: u32| (id as usize) < n;
        let mut checked = 0usize;
        let mut check = |report: &mut AuditReport,
                         label: String,
                         operands: &[u32],
                         result: u32,
                         semantics: &dyn Fn(&[bool]) -> bool| {
            checked += 1;
            if !operands.iter().copied().all(in_bounds) || !in_bounds(result) {
                report.push(format!(
                    "{label}: cache entry references out-of-bounds nodes"
                ));
                return;
            }
            for sample in 0..ASSIGNMENTS_PER_ENTRY {
                let assign = |v: Var| assignment_bit(sample, v);
                let inputs: Vec<bool> = operands
                    .iter()
                    .map(|&f| self.eval(Bdd(f), assign))
                    .collect();
                let expect = semantics(&inputs);
                if self.eval(Bdd(result), assign) != expect {
                    report.push(format!(
                        "{label}: cached result disagrees with its operands \
                         (assignment sample {sample})"
                    ));
                    return;
                }
            }
        };
        for (&(op, f, g), &r) in self.op_cache.iter().take(cache_samples) {
            let semantics: fn(&[bool]) -> bool = match op {
                Op::And => |x| x[0] && x[1],
                Op::Or => |x| x[0] || x[1],
                Op::Xor => |x| x[0] ^ x[1],
            };
            check(
                &mut report,
                format!("op cache {op:?}({f}, {g}) -> {r}"),
                &[f, g],
                r,
                &semantics,
            );
        }
        for (&(f, g, h), &r) in self.ite_cache.iter().take(cache_samples) {
            check(
                &mut report,
                format!("ite cache ({f}, {g}, {h}) -> {r}"),
                &[f, g, h],
                r,
                &|x| if x[0] { x[1] } else { x[2] },
            );
        }
        for (&f, &r) in self.not_cache.iter().take(cache_samples) {
            check(
                &mut report,
                format!("not cache {f} -> {r}"),
                &[f],
                r,
                &|x| !x[0],
            );
        }
        report.cache_entries_checked = checked;
        report
    }

    /// Runs [`Manager::audit`] and panics with the full report on any
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics if the audit finds a violation.
    pub fn assert_audit(&self) {
        let report = self.audit();
        assert!(report.is_ok(), "BDD arena audit failed: {report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Node;

    fn sample_manager() -> Manager {
        let mut m = Manager::new(6);
        let vars: Vec<Bdd> = (0..6).map(|i| m.var(Var(i))).collect();
        let ab = m.and(vars[0], vars[1]);
        let cd = m.or(vars[2], vars[3]);
        let ef = m.xor(vars[4], vars[5]);
        let t = m.ite(ab, cd, ef);
        m.not(t);
        m
    }

    #[test]
    fn clean_manager_audits_ok() {
        let m = sample_manager();
        let report = m.audit_with(usize::MAX);
        assert!(report.is_ok(), "{report}");
        assert!(report.cache_entries_checked > 0);
        assert_eq!(report.unique_entries, m.arena_size() - 2);
    }

    #[test]
    fn audit_detects_injected_duplicate_node() {
        let mut m = sample_manager();
        // Clone an interior node verbatim: two nodes now share a triple.
        let node = m.nodes[2];
        m.nodes.push(node);
        let report = m.audit();
        assert!(!report.is_ok());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("triple") || v.contains("unique table")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_redundant_node() {
        let mut m = sample_manager();
        let bot = m.bot();
        m.nodes.push(Node {
            var: Var(0),
            low: bot,
            high: bot,
        });
        let report = m.audit();
        assert!(
            report.violations.iter().any(|v| v.contains("redundant")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_order_violation() {
        let mut m = sample_manager();
        // A Var(5) node whose child tests Var(0): upside-down in the
        // identity order.
        let above = m.nodes.len() as u32;
        let child = Node {
            var: Var(0),
            low: Bdd(0),
            high: Bdd(1),
        };
        m.nodes.push(child);
        m.unique.insert((0, 0, 1), above);
        let parent = Node {
            var: Var(5),
            low: Bdd(above),
            high: Bdd(1),
        };
        m.nodes.push(parent);
        m.unique.insert((5, above, 1), above + 1);
        let report = m.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("strictly above")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_stale_op_cache_entry() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let _ = m.and(a, b);
        // Poison the cache: claim a ∧ b is ⊤.
        m.op_cache.insert((Op::And, a.0, b.0), 1);
        let report = m.audit_with(usize::MAX);
        assert!(
            report.violations.iter().any(|v| v.contains("op cache")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_stale_ite_and_not_entries() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let _ = m.ite(a, b, c);
        let _ = m.not(a);
        m.ite_cache.insert((a.0, b.0, c.0), 0);
        m.not_cache.insert(a.0, a.0);
        let report = m.audit_with(usize::MAX);
        assert!(
            report.violations.iter().any(|v| v.contains("ite cache")),
            "{report}"
        );
        assert!(
            report.violations.iter().any(|v| v.contains("not cache")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_child_above_parent() {
        // x0 ? x1 : ⊤ with the x1 node stored after its parent: ordered,
        // reduced and interned, but not topologically sorted.
        let mut m = Manager::new(2);
        m.nodes.push(Node {
            var: Var(0),
            low: Bdd(3),
            high: Bdd(1),
        });
        m.unique.insert((0, 3, 1), 2);
        m.nodes.push(Node {
            var: Var(1),
            low: Bdd(0),
            high: Bdd(1),
        });
        m.unique.insert((1, 0, 1), 3);
        let report = m.audit_with(usize::MAX);
        assert_eq!(report.violation_count, 1, "{report}");
        assert!(
            report.violations[0].contains("not topologically sorted"),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_unique_table_strays_and_gaps() {
        let mut m = sample_manager();
        // A stray entry naming no node.
        m.unique.insert((0, 7, 8), 9999);
        let report = m.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("no matching node")),
            "{report}"
        );
        // Remove a legitimate entry: node side now flags the gap.
        let mut m = sample_manager();
        let node = m.nodes[2];
        m.unique.remove(&(node.var.0, node.low.0, node.high.0));
        let report = m.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("missing from the unique table")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_out_of_bounds_children() {
        let mut m = sample_manager();
        let bogus = m.nodes.len() as u32 + 100;
        m.nodes.push(Node {
            var: Var(0),
            low: Bdd(bogus),
            high: Bdd(1),
        });
        let report = m.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("out-of-bounds child")),
            "{report}"
        );
    }

    #[test]
    fn violation_count_keeps_counting_past_the_report_cap() {
        let mut m = sample_manager();
        let node = m.nodes[2];
        for _ in 0..(MAX_REPORTED * 3) {
            m.nodes.push(node);
        }
        let report = m.audit();
        assert!(report.violation_count > report.violations.len());
        assert_eq!(report.violations.len(), MAX_REPORTED);
        let rendered = report.to_string();
        assert!(rendered.contains("more"), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "audit failed")]
    fn assert_audit_panics_on_corruption() {
        let mut m = sample_manager();
        let node = m.nodes[2];
        m.nodes.push(node);
        m.assert_audit();
    }
}
