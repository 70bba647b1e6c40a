//! Seeded random fault-tree generation for benchmarks and property-based
//! tests.
//!
//! Two generators live here:
//!
//! * [`random_tree`] — small unshaped trees for property tests (kept
//!   byte-compatible with earlier releases: equal seeds generate equal
//!   trees);
//! * [`industrial_tree`] / [`industrial_model`] — shaped industrial-scale
//!   trees in the style of the "BDDs Strike Back" corpus: a configurable
//!   number of *independent modules* built bottom-up in layers, with
//!   tunable fan-in, AND/OR mix, VOT density, intra-module DAG sharing
//!   and log-uniform probability annotations. By construction every
//!   module root is a module in the sense of [`crate::modules`], which
//!   makes these trees the corpus for modular decomposition.

// The generators mint their own `g{i}`/`b{i}` names from counters, so
// every builder insert is fresh and every `expect` documents an
// unreachable state (the differential suite re-parses each emission).
#![allow(clippy::expect_used)]

use crate::builder::FaultTreeBuilder;
use crate::galileo::GalileoModel;
use crate::model::{FaultTree, GateType};
use crate::rng::Prng;

/// Parameters for [`random_tree`].
#[derive(Debug, Clone)]
pub struct RandomTreeConfig {
    /// Number of basic events (≥ 1).
    pub num_basic: usize,
    /// Number of gates (≥ 1); the first generated gate becomes the top.
    pub num_gates: usize,
    /// Children per gate are drawn uniformly from `2..=max_children`.
    pub max_children: usize,
    /// Probability that a gate is `VOT` (with random `k`); the remainder
    /// splits evenly between `AND` and `OR`.
    pub vot_probability: f64,
    /// RNG seed — equal configs with equal seeds generate equal trees.
    pub seed: u64,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            num_basic: 12,
            num_gates: 8,
            max_children: 4,
            vot_probability: 0.15,
            seed: 0xB0F1,
        }
    }
}

/// Generates a pseudo-random well-formed fault tree.
///
/// Gates are generated top-down: gate `i` draws children from gates
/// `i+1..` and the basic events, which guarantees acyclicity; a repair
/// pass attaches any unreachable element to a random reachable gate, so
/// the result always passes validation. Basic events may be shared by
/// several gates (repeated events, as in the paper's Fig. 2).
///
/// # Panics
///
/// Panics if `num_basic` or `num_gates` is zero, or `max_children < 2`.
pub fn random_tree(config: &RandomTreeConfig) -> FaultTree {
    assert!(config.num_basic >= 1, "need at least one basic event");
    assert!(config.num_gates >= 1, "need at least one gate");
    assert!(config.max_children >= 2, "need max_children >= 2");
    let mut rng = Prng::seed_from_u64(config.seed);
    let basic_names: Vec<String> = (0..config.num_basic).map(|i| format!("be{i}")).collect();
    let gate_names: Vec<String> = (0..config.num_gates).map(|i| format!("g{i}")).collect();

    // children[i] = names drawn for gate i.
    let mut children: Vec<Vec<usize>> = Vec::with_capacity(config.num_gates);
    // Universe indices: 0..num_gates are gates, then basic events.
    let universe = config.num_gates + config.num_basic;
    for i in 0..config.num_gates {
        let later_gates = config.num_gates - i - 1;
        let pool = later_gates + config.num_basic;
        let arity = rng.gen_range(2..=config.max_children.min(pool.max(2)));
        let mut picked = Vec::new();
        while picked.len() < arity.min(pool) {
            // Draw from later gates and basics, no duplicate children.
            let raw = rng.gen_range(0..pool);
            let idx = if raw < later_gates {
                i + 1 + raw
            } else {
                config.num_gates + (raw - later_gates)
            };
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        children.push(picked);
    }

    // Reachability repair: attach unreached elements to random reached
    // gates (keeping acyclicity: element j attaches to a gate i < j for
    // gates, or to any gate for basics).
    let mut reached = vec![false; universe];
    let mut stack = vec![0usize];
    while let Some(x) = stack.pop() {
        if reached[x] {
            continue;
        }
        reached[x] = true;
        if x < config.num_gates {
            stack.extend(children[x].iter().copied());
        }
    }
    for j in 0..universe {
        if reached[j] {
            continue;
        }
        let host = if j < config.num_gates {
            // Attach gate j under some reached gate with smaller index.
            (0..j).filter(|&i| reached[i]).max().unwrap_or(0)
        } else {
            rng.gen_range(0..config.num_gates.min(j))
        };
        children[host].push(j);
        // Newly reached subtree:
        let mut stack = vec![j];
        while let Some(x) = stack.pop() {
            if reached[x] {
                continue;
            }
            reached[x] = true;
            if x < config.num_gates {
                stack.extend(children[x].iter().copied());
            }
        }
    }

    let mut b = FaultTreeBuilder::new();
    b.basic_events(basic_names.iter().map(String::as_str))
        .expect("fresh names");
    for i in 0..config.num_gates {
        let n = children[i].len() as u32;
        let gate_type = if rng.gen_bool(config.vot_probability.clamp(0.0, 1.0)) && n >= 2 {
            GateType::Vot {
                k: rng.gen_range(1..=n as usize) as u32,
            }
        } else if rng.gen_bool(0.5) {
            GateType::And
        } else {
            GateType::Or
        };
        let child_names: Vec<&str> = children[i]
            .iter()
            .map(|&idx| {
                if idx < config.num_gates {
                    gate_names[idx].as_str()
                } else {
                    basic_names[idx - config.num_gates].as_str()
                }
            })
            .collect();
        b.gate(&gate_names[i], gate_type, child_names)
            .expect("fresh name");
    }
    b.build(&gate_names[0])
        .expect("generated tree is well-formed")
}

/// Parameters for [`industrial_tree`].
///
/// The generated tree is a disjunction (`top`, an `OR` gate) over
/// `num_modules` structurally independent modules. Each module is built
/// bottom-up from its share of the basic events: the current layer is
/// chunked into gates of `fan_in` children until one root remains, with
/// `depth` capping the number of layers (the final layer collapses into
/// a single wide gate). Sharing adds extra child edges *within* a module
/// to already-built elements, so modules stay independent of each other
/// (their descendant sets are disjoint) while each module is internally a
/// DAG, not a tree.
#[derive(Debug, Clone)]
pub struct IndustrialConfig {
    /// Total number of basic events across all modules (≥ `num_modules`).
    pub num_basic: usize,
    /// Number of independent top-level modules (≥ 1).
    pub num_modules: usize,
    /// Maximum gate layers per module (≥ 1); layer `depth` collapses the
    /// remaining elements into one gate.
    pub depth: usize,
    /// Inclusive fan-in range for gates, `(min, max)` with `min ≥ 2`.
    pub fan_in: (usize, usize),
    /// Probability that a non-VOT gate is `AND` (the rest are `OR`).
    pub and_bias: f64,
    /// Probability that a gate with ≥ 3 children is a strict `VOT`
    /// (`2 ≤ k < n`).
    pub vot_density: f64,
    /// Probability that a gate gains one extra child shared with an
    /// already-built element of the same module (DAG sharing).
    pub sharing: f64,
    /// Probabilities are drawn log-uniformly from this range
    /// (`0 < lo ≤ hi ≤ 1`); only used by [`industrial_model`].
    pub prob_range: (f64, f64),
    /// RNG seed — equal configs with equal seeds generate equal trees.
    pub seed: u64,
}

impl Default for IndustrialConfig {
    fn default() -> Self {
        IndustrialConfig {
            num_basic: 1_000,
            num_modules: 16,
            depth: 6,
            fan_in: (2, 4),
            and_bias: 0.4,
            vot_density: 0.1,
            sharing: 0.15,
            prob_range: (1.0e-5, 1.0e-2),
            seed: 0x5CA1E,
        }
    }
}

/// Generates a shaped industrial-scale fault tree; see
/// [`IndustrialConfig`] for the knobs.
///
/// Structural guarantees, by construction:
///
/// * well-formed (validates, every element reachable from `top`);
/// * `top` is an `OR` gate whose children are the `num_modules` module
///   roots, and the modules' descendant sets are pairwise disjoint — so
///   each module root is a *module* in the Dutuit–Rauzy sense;
/// * acyclic even with sharing enabled, because shared edges only point
///   at already-built elements.
///
/// # Panics
///
/// Panics on degenerate configurations: `num_modules == 0`,
/// `num_basic < 2 * num_modules`, `depth == 0` or a bad `fan_in` range.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::generator::{industrial_tree, IndustrialConfig};
/// let tree = industrial_tree(&IndustrialConfig {
///     num_basic: 200,
///     num_modules: 4,
///     ..Default::default()
/// });
/// assert_eq!(tree.num_basic_events(), 200);
/// assert_eq!(tree.children(tree.top()).len(), 4);
/// ```
pub fn industrial_tree(config: &IndustrialConfig) -> FaultTree {
    build_industrial(config).0
}

/// [`industrial_tree`] plus log-uniform probability annotations, packed
/// as a [`GalileoModel`] ready for [`crate::galileo::to_galileo`] or the
/// probability layer.
pub fn industrial_model(config: &IndustrialConfig) -> GalileoModel {
    let (tree, probabilities) = build_industrial(config);
    let intervals = vec![None; tree.num_basic_events()];
    // Generated models have no source text to point into.
    let locations = vec![None; tree.len()];
    GalileoModel {
        tree,
        probabilities,
        intervals,
        locations,
    }
}

fn build_industrial(config: &IndustrialConfig) -> (FaultTree, Vec<Option<f64>>) {
    assert!(config.num_modules >= 1, "need at least one module");
    assert!(
        config.num_basic >= 2 * config.num_modules,
        "need at least two basic events per module"
    );
    assert!(config.depth >= 1, "need depth >= 1");
    let (fan_lo, fan_hi) = config.fan_in;
    assert!(
        fan_lo >= 2 && fan_hi >= fan_lo,
        "need 2 <= fan_in.0 <= fan_in.1"
    );
    let (p_lo, p_hi) = config.prob_range;
    assert!(
        p_lo > 0.0 && p_lo <= p_hi && p_hi <= 1.0,
        "need 0 < prob_range.0 <= prob_range.1 <= 1"
    );

    let mut rng = Prng::seed_from_u64(config.seed);
    let mut b = FaultTreeBuilder::new();

    // Basic events first, in module-major order: the Galileo emitter
    // writes basics in declaration order, so this keeps emitted text
    // stable and readable.
    let per_module = config.num_basic / config.num_modules;
    let remainder = config.num_basic % config.num_modules;
    let mut module_basics: Vec<Vec<String>> = Vec::with_capacity(config.num_modules);
    for mi in 0..config.num_modules {
        let count = per_module + usize::from(mi < remainder);
        let names: Vec<String> = (0..count).map(|j| format!("m{mi}_e{j}")).collect();
        b.basic_events(names.iter().map(String::as_str))
            .expect("fresh names");
        module_basics.push(names);
    }

    // Each module: chunk the current layer into gates until one root
    // remains; shared extra children point only at elements of the same
    // module that already exist, so modules stay pairwise independent.
    let mut module_roots: Vec<String> = Vec::with_capacity(config.num_modules);
    for (mi, basics) in module_basics.iter().enumerate() {
        let mut layer: Vec<String> = basics.clone();
        let mut pool: Vec<String> = basics.clone();
        let mut level = 0usize;
        while layer.len() > 1 {
            let collapse = level + 1 >= config.depth;
            let mut next: Vec<String> = Vec::new();
            let mut i = 0usize;
            let mut idx = 0usize;
            while i < layer.len() {
                let remaining = layer.len() - i;
                let mut take = if collapse {
                    remaining
                } else {
                    rng.gen_range(fan_lo..=fan_hi).min(remaining)
                };
                // Never strand a single element: it would form a trivial
                // one-child gate on the next pass.
                if remaining - take == 1 {
                    take += 1;
                }
                let mut kids: Vec<String> = layer[i..i + take].to_vec();
                i += take;
                if rng.gen_bool(config.sharing) && pool.len() > kids.len() {
                    // One extra shared edge into the module's DAG.
                    for _ in 0..8 {
                        let extra = pool[rng.gen_range(0..pool.len())].clone();
                        if !kids.contains(&extra) {
                            kids.push(extra);
                            break;
                        }
                    }
                }
                let n = kids.len();
                let gate_type = if n >= 3 && rng.gen_bool(config.vot_density) {
                    GateType::Vot {
                        k: rng.gen_range(2..=n - 1) as u32,
                    }
                } else if rng.gen_bool(config.and_bias) {
                    GateType::And
                } else {
                    GateType::Or
                };
                let name = format!("m{mi}_g{level}_{idx}");
                b.gate(&name, gate_type, kids.iter().map(String::as_str))
                    .expect("fresh name");
                next.push(name.clone());
                pool.push(name);
                idx += 1;
            }
            layer = next;
            level += 1;
        }
        module_roots.push(layer.pop().expect("module has a root"));
    }

    let top_name = "top";
    b.gate(
        top_name,
        GateType::Or,
        module_roots.iter().map(String::as_str),
    )
    .expect("fresh name");
    let tree = b.build(top_name).expect("generated tree is well-formed");

    let probabilities: Vec<Option<f64>> = (0..tree.num_basic_events())
        .map(|_| {
            // Log-uniform in [p_lo, p_hi].
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Some(p_lo * (p_hi / p_lo).powf(u))
        })
        .collect();
    (tree, probabilities)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomTreeConfig::default();
        let t1 = random_tree(&cfg);
        let t2 = random_tree(&cfg);
        assert_eq!(t1.len(), t2.len());
        let names1: Vec<_> = t1.iter().map(|e| t1.name(e).to_string()).collect();
        let names2: Vec<_> = t2.iter().map(|e| t2.name(e).to_string()).collect();
        assert_eq!(names1, names2);
    }

    #[test]
    fn different_seeds_differ() {
        let t1 = random_tree(&RandomTreeConfig {
            seed: 1,
            ..Default::default()
        });
        let t2 = random_tree(&RandomTreeConfig {
            seed: 2,
            ..Default::default()
        });
        // Extremely unlikely to coincide: compare child structure.
        let shape = |t: &FaultTree| -> Vec<Vec<usize>> {
            t.iter()
                .map(|e| t.children(e).iter().map(|c| c.index()).collect())
                .collect()
        };
        assert_ne!(shape(&t1), shape(&t2));
    }

    #[test]
    fn generated_trees_validate_across_sizes() {
        for seed in 0..20 {
            for (nb, ng) in [(3, 2), (10, 6), (25, 15), (60, 40)] {
                let cfg = RandomTreeConfig {
                    num_basic: nb,
                    num_gates: ng,
                    max_children: 5,
                    vot_probability: 0.2,
                    seed,
                };
                let t = random_tree(&cfg);
                assert_eq!(t.num_basic_events(), nb);
                assert_eq!(t.num_gates(), ng);
            }
        }
    }

    #[test]
    fn industrial_modules_are_real_modules() {
        let cfg = IndustrialConfig {
            num_basic: 200,
            num_modules: 4,
            ..Default::default()
        };
        let t = industrial_tree(&cfg);
        assert_eq!(t.num_basic_events(), 200);
        let roots = t.children(t.top()).to_vec();
        assert_eq!(roots.len(), 4);
        let deco = crate::modules::Decomposition::new(&t);
        for &r in &roots {
            assert!(deco.is_module(r), "module root {} not a module", t.name(r));
        }
    }

    #[test]
    fn industrial_generation_is_deterministic() {
        let cfg = IndustrialConfig {
            num_basic: 120,
            num_modules: 3,
            ..Default::default()
        };
        let m1 = industrial_model(&cfg);
        let m2 = industrial_model(&cfg);
        let shape = |t: &FaultTree| -> Vec<Vec<usize>> {
            t.iter()
                .map(|e| t.children(e).iter().map(|c| c.index()).collect())
                .collect()
        };
        assert_eq!(shape(&m1.tree), shape(&m2.tree));
        assert_eq!(m1.probabilities, m2.probabilities);
    }

    #[test]
    fn industrial_probabilities_are_in_range() {
        let cfg = IndustrialConfig {
            num_basic: 64,
            num_modules: 2,
            prob_range: (1.0e-4, 1.0e-1),
            ..Default::default()
        };
        let m = industrial_model(&cfg);
        for p in &m.probabilities {
            let p = p.expect("annotated");
            assert!((1.0e-4..=1.0e-1).contains(&p), "{p} out of range");
        }
    }

    #[test]
    fn industrial_respects_depth_cap() {
        let cfg = IndustrialConfig {
            num_basic: 256,
            num_modules: 2,
            depth: 3,
            sharing: 0.0,
            ..Default::default()
        };
        let t = industrial_tree(&cfg);
        // Longest path from top: top -> module root (layer <= depth-1
        // within each module) -> ... -> basic. Depth 3 per module plus
        // the top gate bounds every path by 4 gate hops.
        fn height(t: &FaultTree, e: crate::model::ElementId) -> usize {
            t.children(e)
                .iter()
                .map(|&c| 1 + height(t, c))
                .max()
                .unwrap_or(0)
        }
        assert!(height(&t, t.top()) <= 4, "height {}", height(&t, t.top()));
    }
}
