//! Deep self-audit of the manager's arena invariants.
//!
//! Every other module of this crate *relies* on the invariants checked
//! here — hash-consing canonicity, the variable order, the arena's
//! topological order, cache soundness — but none of them can afford to
//! verify the whole arena on every operation. [`Manager::audit`] is the
//! offline verifier: one linear pass over the arena plus a sampled
//! semantic check of the computed table, producing an [`AuditReport`]
//! that lists every violation found. The test suites run it after
//! builds and rollbacks as their oracle of arena health.
//!
//! The checks:
//!
//! 1. **terminal integrity** — the two terminals sit at indices 0/1 with
//!    the sentinel level;
//! 2. **unique-table canonicity** — every interior node is found under
//!    exactly its `(var, low, high)` triple, and no two nodes share a
//!    triple. The chains link every interior node exactly once: each
//!    linked id sits in its own key's bucket, each chain's ids descend
//!    (newest first, which rollback's unlinking relies on), and the link
//!    count equals the interior node count;
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
//! 6. **cache soundness** — sampled entries of the computed table that
//!    may still hit (see the `computed` module) are re-checked
//!    *semantically*: the cached result of the and/or/xor, ite or not
//!    must agree with the operands under pseudo-random assignments.

use std::fmt;

use crate::computed::Cached;
use crate::manager::{Bdd, Manager, Op, Var, TERMINAL_LEVEL};

/// Violations reported before the audit stops collecting (the count
/// keeps incrementing; a corrupt arena can fail almost everywhere).
const MAX_REPORTED: usize = 16;

/// Default number of computed-table entries sampled.
const DEFAULT_CACHE_SAMPLES: usize = 64;

/// Pseudo-random assignments evaluated per sampled cache entry.
const ASSIGNMENTS_PER_ENTRY: u64 = 4;

/// The outcome of one [`Manager::audit`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Arena size at audit time (terminals included).
    pub nodes: usize,
    /// Unique-table links walked.
    pub unique_entries: usize,
    /// Computed-table entries semantically re-checked (sampled).
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
    /// sampling `DEFAULT_CACHE_SAMPLES` computed-table entries.
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

    /// [`Manager::audit`] with an explicit sample budget (`usize::MAX`
    /// re-checks every computed-table entry that may hit).
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
            // without a second pass.
            match self.find(node) {
                Some(id) if id == i32u => {}
                Some(id) => report.push(format!(
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

        // Unique-table canonicity, table side: every chain descends
        // through interior nodes of its own bucket, and links each once.
        let mut linked = 0usize;
        for (bucket, &head) in self.heads.iter().enumerate() {
            let (mut id, mut above) = (head, u32::MAX);
            while id != 0 {
                if id >= above {
                    report.push(format!(
                        "bucket {bucket} links {id} after {above}: chain ids do not descend"
                    ));
                    break;
                }
                let Some(node) = self.nodes.get(id as usize).filter(|_| id >= 2) else {
                    report.push(format!(
                        "bucket {bucket} links {id}, which names no interior node"
                    ));
                    break;
                };
                let own = self.bucket(node);
                if own != bucket {
                    report.push(format!(
                        "node {id} is linked in bucket {bucket}, not in its key's bucket {own}"
                    ));
                }
                linked += 1;
                above = id;
                id = self.next.get(id as usize).copied().unwrap_or(0);
            }
        }
        report.unique_entries = linked;
        if linked != n - 2 {
            report.push(format!(
                "unique table links {linked} nodes for {} interior nodes",
                n - 2
            ));
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
        for slot in self.computed.valid_entries().take(cache_samples) {
            let r = slot.result;
            match slot.key.decode() {
                Some(Cached::Apply(op, f, g)) => {
                    let semantics: fn(&[bool]) -> bool = match op {
                        Op::And => |x| x[0] && x[1],
                        Op::Or => |x| x[0] || x[1],
                        Op::Xor => |x| x[0] ^ x[1],
                    };
                    check(
                        &mut report,
                        format!("computed {op:?}({f}, {g}) -> {r}"),
                        &[f, g],
                        r,
                        &semantics,
                    );
                }
                Some(Cached::Ite(f, g, h)) => check(
                    &mut report,
                    format!("computed ite({f}, {g}, {h}) -> {r}"),
                    &[f, g, h],
                    r,
                    &|x| if x[0] { x[1] } else { x[2] },
                ),
                Some(Cached::Not(f)) => check(
                    &mut report,
                    format!("computed not({f}) -> {r}"),
                    &[f],
                    r,
                    &|x| !x[0],
                ),
                None => report.push(format!(
                    "computed entry {:?} -> {r} names no operation",
                    slot.key.0
                )),
            }
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
    use crate::computed::Key;
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

    /// Appends `node` to the arena and links it at the head of its chain,
    /// as `mk` does, but without `mk`'s reduction and order checks.
    fn push_linked(m: &mut Manager, node: Node) -> u32 {
        let id = m.nodes.len() as u32;
        m.nodes.push(node);
        let bucket = m.bucket(&node);
        m.next.push(m.heads[bucket]);
        m.heads[bucket] = id;
        id
    }

    #[test]
    fn audit_detects_order_violation() {
        let mut m = sample_manager();
        // A Var(5) node whose child tests Var(0): upside-down in the
        // identity order.
        let child = Node {
            var: Var(0),
            low: Bdd(0),
            high: Bdd(1),
        };
        let child = m.find(&child).unwrap_or_else(|| push_linked(&mut m, child));
        push_linked(
            &mut m,
            Node {
                var: Var(5),
                low: Bdd(child),
                high: Bdd(1),
            },
        );
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
        assert!(m.audit_with(usize::MAX).is_ok());
        // Poison the slot: claim a ∧ b is ⊤.
        m.computed.put(Key::apply(Op::And, a, b), m.top());
        let report = m.audit_with(usize::MAX);
        assert!(
            report.violations.iter().any(|v| v.contains("computed And")),
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
        m.computed.put(Key::ite(a, b, c), m.bot());
        m.computed.put(Key::not(a), a);
        let report = m.audit_with(usize::MAX);
        assert!(
            report.violations.iter().any(|v| v.contains("computed ite")),
            "{report}"
        );
        assert!(
            report.violations.iter().any(|v| v.contains("computed not")),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_child_above_parent() {
        // x0 ? x1 : ⊤ with the x1 node stored after its parent: ordered,
        // reduced and interned, but not topologically sorted.
        let mut m = Manager::new(2);
        push_linked(
            &mut m,
            Node {
                var: Var(0),
                low: Bdd(3),
                high: Bdd(1),
            },
        );
        push_linked(
            &mut m,
            Node {
                var: Var(1),
                low: Bdd(0),
                high: Bdd(1),
            },
        );
        let report = m.audit_with(usize::MAX);
        assert_eq!(report.violation_count, 1, "{report}");
        assert!(
            report.violations[0].contains("not topologically sorted"),
            "{report}"
        );
    }

    /// A manager of several hundred nodes in 4,096 buckets: dozens of
    /// chains link two or more.
    fn crowded_manager() -> Manager {
        let mut m = Manager::new(16);
        let vars: Vec<Bdd> = (0..16).map(|i| m.var(Var(i))).collect();
        for (i, &x) in vars.iter().enumerate() {
            for &y in &vars[i + 1..] {
                let _ = m.and(x, y);
                let _ = m.or(x, y);
                let _ = m.xor(x, y);
            }
        }
        assert_eq!(m.heads.len(), 4_096, "{} nodes", m.arena_size());
        assert!(m.audit_with(usize::MAX).is_ok());
        m
    }

    fn assert_flags(m: &Manager, needle: &str) {
        let report = m.audit();
        assert!(
            report.violations.iter().any(|v| v.contains(needle)),
            "{needle}: {report}"
        );
    }

    #[test]
    fn audit_detects_unique_table_strays_and_gaps() {
        // Unlink the newest node, the head of its chain.
        let mut m = crowded_manager();
        let newest = m.nodes.len() - 1;
        let bucket = m.bucket(&m.nodes[newest]);
        m.heads[bucket] = m.next[newest];
        assert_flags(&m, "missing from the unique table");
        assert_flags(&m, "links");
        // A stray link naming no node.
        let mut m = crowded_manager();
        let empty = m.heads.iter().position(|&h| h == 0).unwrap();
        m.heads[empty] = 9999;
        assert_flags(&m, "names no interior node");
    }

    #[test]
    fn audit_detects_chain_links_out_of_order() {
        // Swap the first two links of a chain: older above newer.
        let mut m = crowded_manager();
        let bucket = (0..m.heads.len())
            .find(|&b| m.heads[b] != 0 && m.next[m.heads[b] as usize] != 0)
            .expect("a chain of two");
        let newer = m.heads[bucket];
        let older = m.next[newer as usize];
        m.next[newer as usize] = m.next[older as usize];
        m.next[older as usize] = newer;
        m.heads[bucket] = older;
        assert_flags(&m, "do not descend");
    }

    #[test]
    fn audit_detects_a_node_linked_in_the_wrong_bucket() {
        // Move the newest node to the head of another chain: the chain
        // still descends, but the node is not where `mk` looks for it.
        let mut m = crowded_manager();
        let newest = m.nodes.len() - 1;
        let own = m.bucket(&m.nodes[newest]);
        m.heads[own] = m.next[newest];
        let other = (own + 1) % m.heads.len();
        m.next[newest] = m.heads[other];
        m.heads[other] = newest as u32;
        assert_flags(&m, "not in its key's bucket");
        assert_flags(&m, "missing from the unique table");
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
