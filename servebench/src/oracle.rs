//! Answer checks, run after the timed window. The what-if workloads are
//! checked against BDD-free oracles: brute force on the 13-event COVID
//! tree, and on the coherent scaled trees the structure function
//! evaluated at the scenario's extreme completions. `load-scaled` is
//! checked bit for bit against a fresh in-process compile.

use std::collections::HashMap;

use bfl_bench::covid_properties;
use bfl_core::parser::parse_query;
use bfl_core::{quant, semantics, Formula, Query, Scenario};
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{prob, FaultTree, StatusVector, VariableOrdering};
use bfl_server::json::Json;
use bfl_server::{ErrorCode, Response, ResponseBody};

use crate::inputs::{self, Inputs, Item, Model, COLD_CAUSES};
use crate::run::{OpKind, OpRecord};

/// Relative tolerance between a served probability (BDD Shannon walk)
/// and the brute-force sum over all status vectors.
const PROB_TOLERANCE: f64 = 1e-9;
/// Vectors on which each `load-scaled` oracle diagram is re-checked
/// against the structure function.
const DIAGRAM_VECTORS: usize = 20;

/// The checked outcome of a window.
#[derive(Debug, Default)]
pub struct Checked {
    /// Per op: every response ok and matching its oracle.
    pub ok: Vec<bool>,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// The first `internal` error message the server sent.
    pub first_internal: Option<String>,
    /// `busy` refusals seen.
    pub busy: usize,
    /// Individual comparisons made.
    pub comparisons: usize,
}

impl Checked {
    fn fail(&mut self, what: String) {
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }

    /// Ops that failed, were refused or answered wrongly.
    pub fn failed(&self) -> usize {
        self.ok.iter().filter(|ok| !**ok).count()
    }
}

/// Checks every op of a window against its oracle.
pub fn check(inputs: &Inputs, ops: &[OpRecord]) -> Result<Checked, String> {
    let mut checked = Checked::default();
    let expect = Expect::new(inputs, ops)?;
    for op in ops {
        let mut results = Vec::new();
        let mut failure = op.transport_error.clone();
        for ex in &op.exchanges {
            match Response::parse(&ex.response).map(|r| r.body) {
                Ok(ResponseBody::Result(doc)) => match Json::parse(&doc) {
                    Ok(doc) => results.push(doc),
                    Err(e) => failure = Some(format!("unparsable result: {e}")),
                },
                Ok(ResponseBody::Error { code, message }) => {
                    if code == ErrorCode::Internal && checked.first_internal.is_none() {
                        checked.first_internal = Some(message.clone());
                    }
                    checked.busy += usize::from(code == ErrorCode::Busy);
                    failure = Some(format!("{code}: {message}"));
                }
                Err(e) if failure.is_none() => failure = Some(e),
                Err(_) => {}
            }
        }
        let verdict = match failure {
            Some(f) => Err(f),
            None => expect.judge(op, &results, &mut checked.comparisons),
        };
        if let Err(what) = &verdict {
            checked.fail(format!(
                "{}: {what}",
                op.exchanges[0].line.chars().take(120).collect::<String>()
            ));
        }
        checked.ok.push(verdict.is_ok());
    }
    Ok(checked)
}

/// The expected answers of one run.
enum Expect<'a> {
    Warm(WarmOracle),
    Cold(ColdOracle<'a>),
    Load(HashMap<usize, f64>),
}

impl<'a> Expect<'a> {
    fn new(inputs: &'a Inputs, ops: &[OpRecord]) -> Result<Expect<'a>, String> {
        Ok(match inputs.workload {
            inputs::Workload::WhatifWarm => {
                Expect::Warm(WarmOracle::new(&inputs.model, &inputs.pool)?)
            }
            inputs::Workload::WhatifCold => Expect::Cold(ColdOracle::new(&inputs.model)),
            inputs::Workload::LoadScaled => {
                let mut probs = HashMap::new();
                for op in ops {
                    if let OpKind::Model(i) = op.kind {
                        if let std::collections::hash_map::Entry::Vacant(slot) = probs.entry(i) {
                            slot.insert(load_scaled_probability(&inputs.load_models[i], i as u64)?);
                        }
                    }
                }
                Expect::Load(probs)
            }
        })
    }

    fn judge(
        &self,
        op: &OpRecord,
        results: &[Json],
        comparisons: &mut usize,
    ) -> Result<(), String> {
        let result = results.first().ok_or("no result")?;
        *comparisons += 1;
        match (self, &op.kind) {
            (Expect::Warm(o), OpKind::Item(item)) => o.judge(item, result),
            (Expect::Cold(o), OpKind::Item(item)) => o.judge(item, result),
            (Expect::Load(probs), OpKind::Model(i)) => {
                if results.len() != 4 {
                    return Err(format!("{} of 4 steps answered", results.len()));
                }
                let got = number(results[2].get("probability"))?;
                let want = probs[i];
                if got.to_bits() == want.to_bits() {
                    Ok(())
                } else {
                    Err(format!("probability {got:e}, fresh compile gives {want:e}"))
                }
            }
            _ => Err("op does not belong to this workload".to_string()),
        }
    }
}

fn number(v: Option<&Json>) -> Result<f64, String> {
    v.and_then(Json::as_f64)
        .ok_or_else(|| "missing number".to_string())
}

fn holds(doc: &Json) -> Result<bool, String> {
    doc.get("holds")
        .and_then(Json::as_bool)
        .ok_or_else(|| "missing `holds`".to_string())
}

fn outcomes(doc: &Json) -> Result<&[Json], String> {
    doc.get("outcomes")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing `outcomes`".to_string())
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: served {got:?}, oracle {want:?}"))
    }
}

/// Brute-force answers for every request the warm workload can send.
#[derive(Debug)]
pub struct WarmOracle {
    eval: HashMap<String, bool>,
    prob: HashMap<String, f64>,
    check: Vec<bool>,
    sweep: Vec<bool>,
}

impl WarmOracle {
    /// Evaluates every warm scenario, spec line and the sweep set with
    /// `semantics::eval_query` and `quant::probability_naive`, and
    /// checks the spec lines the paper decides against its verdicts.
    pub fn new(model: &Model, scenarios: &[String]) -> Result<WarmOracle, String> {
        let tree = &model.tree;
        let top = model.top();
        let err = |e: bfl_core::BflError| e.to_string();
        let eval_query = parse_query(inputs::WARM_EVAL_QUERY).map_err(|e| e.to_string())?;
        let mut eval = HashMap::new();
        let mut prob = HashMap::new();
        for text in scenarios {
            let s = Scenario::parse(text).map_err(|e| e.to_string())?;
            let q = s.specialise_query(&eval_query, top);
            eval.insert(text.clone(), semantics::eval_query(tree, &q).map_err(err)?);
            let phi = s.specialise(&Formula::atom(top));
            prob.insert(
                text.clone(),
                quant::probability_naive(tree, &phi, &model.probs).map_err(err)?,
            );
        }
        let mut check = Vec::new();
        for line in inputs::WARM_SPECS {
            let verdict = match parse_query(line).map_err(|e| e.to_string())? {
                Query::Prob {
                    formula,
                    given,
                    op,
                    bound,
                } => {
                    let joint = match &given {
                        Some(g) => formula.clone().and(g.clone()),
                        None => formula.clone(),
                    };
                    let p = quant::probability_naive(tree, &joint, &model.probs).map_err(err)?;
                    let base = match &given {
                        Some(g) => quant::probability_naive(tree, g, &model.probs).map_err(err)?,
                        None => 1.0,
                    };
                    let ratio = (base >= quant::MIN_CONDITIONING_PROBABILITY).then(|| p / base);
                    quant::judge_bound(ratio, op, bound.get())
                }
                q => semantics::eval_query(tree, &q).map_err(err)?,
            };
            if let Some(paper) = covid_properties()
                .iter()
                .find(|p| p.source == line)
                .and_then(|p| p.expected)
            {
                expect_eq(
                    &format!("oracle verdict of `{line}` against the paper"),
                    verdict,
                    paper,
                )?;
            }
            check.push(verdict);
        }
        let sweep = scenarios.iter().take(8).map(|s| eval[s]).collect();
        Ok(WarmOracle {
            eval,
            prob,
            check,
            sweep,
        })
    }

    fn judge(&self, item: &Item, doc: &Json) -> Result<(), String> {
        match item {
            Item::Eval(s) => expect_eq("holds", holds(doc)?, self.eval[s]),
            Item::Check(i) => {
                let got: Vec<bool> = outcomes(doc)?.iter().map(holds).collect::<Result<_, _>>()?;
                expect_eq("verdicts", got, vec![self.check[*i]])
            }
            Item::Prob(s) => {
                let (got, want) = (number(doc.get("probability"))?, self.prob[s]);
                if (got - want).abs() <= PROB_TOLERANCE * want.abs().max(f64::MIN_POSITIVE) {
                    Ok(())
                } else {
                    Err(format!("probability {got:e}, brute force {want:e}"))
                }
            }
            Item::Sweep => {
                let got: Vec<bool> = outcomes(doc)?.iter().map(holds).collect::<Result<_, _>>()?;
                expect_eq("sweep verdicts", got, self.sweep.clone())
            }
            Item::Cause(_) => Err("no cause requests on this workload".to_string()),
        }
    }
}

/// Exact oracles for the coherent scaled tree: the top event can fail
/// under a scenario iff it fails with every unbound event failed, and is
/// certain iff it fails with every unbound event operational.
pub struct ColdOracle<'a> {
    tree: &'a FaultTree,
    /// Basic indices the cause plan observes failed.
    observed: Vec<bool>,
}

impl<'a> ColdOracle<'a> {
    /// The oracle of the cold model; the cause plan's own evidence marks
    /// every third basic event failed.
    pub fn new(model: &'a Model) -> ColdOracle<'a> {
        let n = model.tree.num_basic_events();
        ColdOracle {
            tree: &model.tree,
            observed: (0..n).map(|i| i % 3 == 0).collect(),
        }
    }

    /// Scenario bindings as basic indices, first binding winning.
    fn bindings(&self, text: &str) -> Result<Vec<(usize, bool)>, String> {
        if text.trim().is_empty() {
            return Ok(Vec::new());
        }
        let s = Scenario::parse(text).map_err(|e| e.to_string())?;
        let mut out: Vec<(usize, bool)> = Vec::new();
        for (name, value) in s.bindings() {
            let bi = self.basic_index(name)?;
            if !out.iter().any(|&(b, _)| b == bi) {
                out.push((bi, *value));
            }
        }
        Ok(out)
    }

    fn basic_index(&self, name: &str) -> Result<usize, String> {
        self.tree
            .element(name)
            .and_then(|e| self.tree.basic_index(e))
            .ok_or_else(|| format!("`{name}` is not a basic event"))
    }

    /// The top event's status with the bindings applied and every other
    /// event at `rest`.
    pub fn top_with(&self, bindings: &[(usize, bool)], rest: bool) -> bool {
        let n = self.tree.num_basic_events();
        let mut b = if rest {
            StatusVector::all_failed(n)
        } else {
            StatusVector::all_operational(n)
        };
        for &(bi, v) in bindings {
            b.set(bi, v);
        }
        self.tree.evaluate(&b, self.tree.top())
    }

    fn judge(&self, item: &Item, doc: &Json) -> Result<(), String> {
        let bindings = self.bindings(item.scenario().unwrap_or(""))?;
        let possible = self.top_with(&bindings, true);
        match item {
            Item::Eval(_) => expect_eq("holds", holds(doc)?, possible),
            Item::Prob(_) => {
                let p = number(doc.get("probability"))?;
                let certain = self.top_with(&bindings, false);
                let fine = match (possible, certain) {
                    (false, _) => p == 0.0,
                    (true, true) => p == 1.0,
                    (true, false) => p > 0.0 && p < 1.0,
                };
                if fine {
                    Ok(())
                } else {
                    Err(format!(
                        "probability {p:e} (possible {possible}, certain {certain})"
                    ))
                }
            }
            Item::Cause(_) => self.judge_cause(&bindings, doc),
            Item::Check(_) | Item::Sweep => Err("no such requests on this workload".to_string()),
        }
    }

    /// Re-checks a cause report with the structure function: the
    /// observation, whether it fails, and that every listed cause flips
    /// the top event when repaired and is minimal.
    fn judge_cause(&self, bindings: &[(usize, bool)], doc: &Json) -> Result<(), String> {
        let report = doc.get("causes").ok_or("missing `causes`")?;
        let mut observation = StatusVector::all_operational(self.tree.num_basic_events());
        for (bi, &failed) in self.observed.iter().enumerate() {
            observation.set(bi, failed);
        }
        for &(bi, v) in bindings {
            if !self.observed[bi] {
                observation.set(bi, v);
            }
        }
        let names = |v: Option<&Json>| -> Result<Vec<usize>, String> {
            let mut out = v
                .and_then(Json::as_array)
                .ok_or("missing event list")?
                .iter()
                .map(|n| self.basic_index(n.as_str().unwrap_or_default()))
                .collect::<Result<Vec<_>, _>>()?;
            out.sort_unstable();
            Ok(out)
        };
        expect_eq(
            "observation",
            names(report.get("observation"))?,
            observation.failed_indices(),
        )?;
        let top = self.tree.top();
        let failing = self.tree.evaluate(&observation, top);
        expect_eq(
            "failing",
            report
                .get("failing")
                .and_then(Json::as_bool)
                .ok_or("missing `failing`")?,
            failing,
        )?;
        let sets = report
            .get("sets")
            .and_then(Json::as_array)
            .ok_or("missing `sets`")?;
        let total: u128 = match report.get("total") {
            Some(Json::Number(n)) => n.parse().map_err(|_| format!("bad total `{n}`"))?,
            _ => return Err("missing `total`".to_string()),
        };
        // A failing observation of a coherent tree always has a cause.
        expect_eq("has causes", total > 0, failing)?;
        expect_eq(
            "causes listed",
            sets.len() as u128,
            total.min(COLD_CAUSES as u128),
        )?;
        for set in sets {
            let cause = names(set.get("events"))?;
            let repaired = |skip: Option<usize>| {
                let mut b = observation.clone();
                for &bi in cause.iter().filter(|&&bi| Some(bi) != skip) {
                    b.set(bi, false);
                }
                b
            };
            if cause.is_empty() || self.tree.evaluate(&repaired(None), top) {
                return Err(format!("repairing {cause:?} does not stop the top event"));
            }
            if let Some(&bi) = cause
                .iter()
                .find(|&&bi| !self.tree.evaluate(&repaired(Some(bi)), top))
            {
                return Err(format!(
                    "cause {cause:?} is not minimal: {bi} is not needed"
                ));
            }
            expect_eq(
                "witness",
                names(set.get("witness"))?,
                repaired(None).failed_indices(),
            )?;
        }
        Ok(())
    }
}

/// The probability a fresh in-process compile gives a `load-scaled`
/// model, after checking that diagram against the structure function on
/// seeded vectors.
pub fn load_scaled_probability(model: &Model, salt: u64) -> Result<f64, String> {
    let tree = &model.tree;
    let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
    let f = tb.element_bdd(tree, tree.top());
    let mut rng = Prng::seed_from_u64(inputs::derive(salt, 0xD1A6));
    for i in 0..DIAGRAM_VECTORS {
        // Failure odds sweep from sparse to dense so both verdicts occur.
        let odds = 0.002 + 0.3 * i as f64 / DIAGRAM_VECTORS as f64;
        let b = StatusVector::from_bits((0..tree.num_basic_events()).map(|_| rng.gen_bool(odds)));
        let want = tree.evaluate(&b, tree.top());
        expect_eq(
            "diagram against the structure function",
            tb.eval_vector(tree, f, &b),
            want,
        )?;
    }
    prob::bdd_probability(tree, &tb, f, &model.probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_fault_tree::generator::{random_tree, RandomTreeConfig};

    /// Seeded coherent trees with at most 16 events and probabilities.
    fn small_models() -> Vec<Model> {
        (0..12u64)
            .map(|seed| {
                let tree = random_tree(&RandomTreeConfig {
                    num_basic: 4 + (seed as usize % 13),
                    seed,
                    ..RandomTreeConfig::default()
                });
                let n = tree.num_basic_events();
                let probs = (0..n).map(|i| 0.05 + 0.9 * i as f64 / n as f64).collect();
                let text = bfl_fault_tree::galileo::to_galileo(&tree, None);
                Model { tree, probs, text }
            })
            .collect()
    }

    #[test]
    fn extreme_completions_match_brute_force() {
        for model in small_models() {
            let oracle = ColdOracle::new(&model);
            let top = Formula::atom(model.top());
            let events = model.events();
            let mut rng = Prng::seed_from_u64(model.tree.num_basic_events() as u64);
            for _ in 0..20 {
                let mut bound: Vec<(String, bool)> = Vec::new();
                for e in &events {
                    if rng.gen_bool(0.3) {
                        bound.push((e.clone(), rng.gen_bool(0.5)));
                    }
                }
                let scenario = bound
                    .iter()
                    .fold(Scenario::new(), |s, (e, v)| s.bind(e.clone(), *v));
                let bindings = oracle
                    .bindings(&scenario.bindings_string())
                    .expect("bindings resolve");
                let phi = scenario.specialise(&top);
                assert_eq!(
                    oracle.top_with(&bindings, true),
                    semantics::eval_query(&model.tree, &Query::Exists(phi.clone())).expect("naive"),
                    "possible under {bound:?}"
                );
                assert_eq!(
                    oracle.top_with(&bindings, false),
                    semantics::eval_query(&model.tree, &Query::Forall(phi.clone())).expect("naive"),
                    "certain under {bound:?}"
                );
                // Exactly 0 and exactly 1 on the served side are the
                // empty sums of the brute force over ϕ and over ¬ϕ.
                let naive = |f: &Formula| {
                    quant::probability_naive(&model.tree, f, &model.probs).expect("naive")
                };
                assert_eq!(naive(&phi) == 0.0, !oracle.top_with(&bindings, true));
                assert_eq!(
                    naive(&phi.clone().not()) == 0.0,
                    oracle.top_with(&bindings, false)
                );
            }
        }
    }

    #[test]
    fn warm_oracle_agrees_with_the_paper() {
        let model = inputs::covid_model();
        let scenarios = inputs::warm_scenarios(&model);
        let oracle = WarmOracle::new(&model, &scenarios).expect("oracle builds");
        assert_eq!(oracle.check, vec![false, true, false, oracle.check[3]]);
        assert_eq!(oracle.eval.len(), 26);
        // H4 repaired makes `MCS(IWoS) & H4` unsatisfiable.
        assert!(!oracle.eval["H4 = 0"]);
    }

    #[test]
    fn load_scaled_oracle_matches_brute_force_on_small_models() {
        for model in small_models() {
            let p = load_scaled_probability(&model, 1).expect("compiles");
            let naive =
                quant::probability_naive(&model.tree, &Formula::atom(model.top()), &model.probs)
                    .expect("naive");
            assert!((p - naive).abs() <= 1e-12, "{p} vs {naive}");
        }
    }
}
