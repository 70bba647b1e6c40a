//! Seeded workload inputs: the models a run loads and the request lines
//! it sends. Everything here is a pure function of the workload and the
//! seed, so equal seeds give byte-identical request streams.

use bfl_fault_tree::generator::{industrial_model, IndustrialConfig};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, galileo, FaultTree};
use bfl_server::{Op, ProbOptions, ProbTarget, Request, SessionOptions};

/// The benchmark's workloads; see NOTES.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Load a fresh 5,000-event model, prepare `P(top) <= 0.5`, answer
    /// one `prob`, unload — one connection.
    LoadScaled,
    /// Memoised what-ifs on the paper's COVID tree — two connections.
    WhatifWarm,
    /// Never-seen what-ifs on one scaled-1000 session — two connections.
    WhatifCold,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "load-scaled" => Some(Workload::LoadScaled),
            "whatif-warm" => Some(Workload::WhatifWarm),
            "whatif-cold" => Some(Workload::WhatifCold),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoadScaled => "load-scaled",
            Workload::WhatifWarm => "whatif-warm",
            Workload::WhatifCold => "whatif-cold",
        }
    }

    /// Driver connections (one closed-loop thread each), capped at the
    /// host's CPU count.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::LoadScaled => 1,
            Workload::WhatifWarm | Workload::WhatifCold => nproc.clamp(1, 2),
        }
    }
}

/// Basic events of each `load-scaled` model.
pub const LOAD_SCALED_EVENTS: usize = 5_000;
/// The `load-scaled` corpus: this many generator seeds, each a distinct
/// 5,000-event model. A run loads them in a seed-determined order,
/// cycling; every load still builds a new session that shares nothing.
/// A fixed corpus that a run covers in full keeps the metrics from
/// following which models a seed happened to draw (with models drawn
/// per run, the largest one drawn set `peak_rss_mb`), and bounds the
/// in-process oracle's compile time after the window.
pub const LOAD_SCALED_POOL: usize = 16;
/// Basic events of the `whatif-cold` model.
pub const COLD_EVENTS: usize = 1_000;
/// Bindings per `whatif-cold` scenario.
pub const COLD_BINDINGS: usize = 8;
/// Causes enumerated per `whatif-cold` cause request; the session's
/// witness limit is 0, so the plan names its own bound.
pub const COLD_CAUSES: usize = 2;

/// A fault tree with point probabilities and its Galileo text.
#[derive(Debug, Clone)]
pub struct Model {
    /// The tree.
    pub tree: FaultTree,
    /// One probability per basic event, by basic index.
    pub probs: Vec<f64>,
    /// The Galileo source sent in `load`.
    pub text: String,
}

impl Model {
    fn new(tree: FaultTree, probs: Vec<Option<f64>>) -> Model {
        let text = galileo::to_galileo(&tree, Some(&probs));
        let probs = probs.into_iter().map(|p| p.unwrap_or(0.0)).collect();
        Model { tree, probs, text }
    }

    /// The top event's name.
    pub fn top(&self) -> &str {
        self.tree.name(self.tree.top())
    }

    /// Basic-event names by basic index.
    pub fn events(&self) -> Vec<String> {
        self.tree
            .basic_event_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }
}

/// The COVID case study with the `reproduce serve` probability profile.
pub fn covid_model() -> Model {
    let tree = corpus::covid();
    let n = tree.num_basic_events();
    let probs = (0..n)
        .map(|i| Some(0.02 + 0.9 * (i as f64) / (n as f64)))
        .collect();
    Model::new(tree, probs)
}

/// `corpus::scaled_config(events)` with its generator seed replaced.
pub fn scaled_model(events: usize, seed: u64) -> Model {
    let m = industrial_model(&IndustrialConfig {
        seed,
        ..corpus::scaled_config(events)
    });
    Model::new(m.tree, m.probabilities)
}

/// The fixed `whatif-cold` model (the corpus' own scaled-1000 seed).
pub fn cold_model() -> Model {
    scaled_model(COLD_EVENTS, corpus::scaled_config(COLD_EVENTS).seed)
}

/// A well-mixed 64-bit value derived from a seed and a stream index.
pub fn derive(seed: u64, index: u64) -> u64 {
    Prng::seed_from_u64(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The generator seeds of the `load-scaled` corpus in the order a run
/// seeded with `seed` loads them: the corpus' first model, then the
/// others in a seed-drawn order. A fixed first op gives `peak_rss_mb`
/// (read after it) the same model in every run.
pub fn load_scaled_seeds(seed: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..LOAD_SCALED_POOL as u64)
        .map(|k| derive(corpus::scaled_config(LOAD_SCALED_EVENTS).seed, k))
        .collect();
    let mut rng = Prng::seed_from_u64(derive(seed, 2 << 32));
    for i in (2..seeds.len()).rev() {
        seeds.swap(i, rng.gen_range(1..=i));
    }
    seeds
}

/// The paper's four spec lines of the warm `check` mix.
pub const WARM_SPECS: [&str; 4] = [
    "forall IS => MoT",
    "exists MCS(IWoS) & H4",
    "IDP(CIO, CIS)",
    "P(IWoS | H1) <= 0.5",
];
/// The warm `eval`/`sweep` plan.
pub const WARM_EVAL_QUERY: &str = "exists MCS(IWoS) & H4";
/// The warm `prob` plan.
pub const WARM_PROB_QUERY: &str = "P(IWoS) <= 0.05";

/// The 26 single-event fail/repair scenarios of the warm workload.
pub fn warm_scenarios(model: &Model) -> Vec<String> {
    model
        .events()
        .iter()
        .flat_map(|e| [format!("{e} = 1"), format!("{e} = 0")])
        .collect()
}

/// The warm 8-scenario sweep set.
pub fn warm_sweep_set(scenarios: &[String]) -> String {
    scenarios
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, s)| format!("w{i}: {s}\n"))
        .collect()
}

/// The cold plans: `exists`, `P(…) <= 0.5` and the bounded cause query
/// observing every third basic event failed.
pub fn cold_queries(model: &Model) -> [String; 3] {
    let top = model.top();
    let evidence: Vec<String> = model
        .events()
        .iter()
        .step_by(3)
        .map(|e| format!("{e} := 1"))
        .collect();
    [
        format!("exists {top}"),
        format!("P({top}) <= 0.5"),
        format!("causes({top}, {}, {COLD_CAUSES})", evidence.join(", ")),
    ]
}

/// One request of a what-if workload, before session and plan ids are
/// filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// `eval` of the eval plan under a scenario.
    Eval(String),
    /// `check` of one of the warm spec lines.
    Check(usize),
    /// `prob` of the probability plan under a scenario.
    Prob(String),
    /// `sweep` of the eval plan over the warm sweep set.
    Sweep,
    /// `cause` of the cause plan under a scenario.
    Cause(String),
}

impl Item {
    /// The protocol op name.
    pub fn op(&self) -> &'static str {
        match self {
            Item::Eval(_) => "eval",
            Item::Check(_) => "check",
            Item::Prob(_) => "prob",
            Item::Sweep => "sweep",
            Item::Cause(_) => "cause",
        }
    }

    /// The scenario text, for items that carry one.
    pub fn scenario(&self) -> Option<&str> {
        match self {
            Item::Eval(s) | Item::Prob(s) | Item::Cause(s) => Some(s),
            Item::Check(_) | Item::Sweep => None,
        }
    }
}

/// The request stream of one driver connection: an endless, seeded
/// sequence of [`Item`]s following the workload's mix.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: Prng,
    /// Warm scenario pool or cold event names.
    pool: Vec<String>,
}

impl Stream {
    /// The stream of connection `conn` in a run seeded with `seed`.
    /// `pool` is [`warm_scenarios`] on `whatif-warm` and the model's
    /// basic-event names on `whatif-cold`.
    pub fn new(workload: Workload, seed: u64, conn: usize, pool: Vec<String>) -> Stream {
        Stream {
            workload,
            rng: Prng::seed_from_u64(derive(seed, 1 << 32 | conn as u64)),
            pool,
        }
    }

    /// The next item: the warm mix on `whatif-warm`, the cold mix
    /// otherwise.
    pub fn next_item(&mut self) -> Item {
        let roll = self.rng.gen_range(0..100);
        if self.workload == Workload::WhatifWarm {
            let scenario = self.pool[self.rng.gen_range(0..self.pool.len())].clone();
            match roll {
                0..=49 => Item::Eval(scenario),
                50..=69 => Item::Check(self.rng.gen_range(0..WARM_SPECS.len())),
                70..=89 => Item::Prob(scenario),
                _ => Item::Sweep,
            }
        } else {
            let scenario = self.cold_scenario();
            match roll {
                0..=44 => Item::Eval(scenario),
                45..=89 => Item::Prob(scenario),
                _ => Item::Cause(scenario),
            }
        }
    }

    /// Eight bindings on distinct events drawn uniformly, each failed or
    /// operational with equal odds.
    fn cold_scenario(&mut self) -> String {
        let mut picked: Vec<usize> = Vec::with_capacity(COLD_BINDINGS);
        while picked.len() < COLD_BINDINGS {
            let e = self.rng.gen_range(0..self.pool.len());
            if !picked.contains(&e) {
                picked.push(e);
            }
        }
        picked
            .iter()
            .map(|&e| format!("{} = {}", self.pool[e], u8::from(self.rng.gen_bool(0.5))))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Session and plan ids a what-if workload's requests address.
#[derive(Debug, Clone, Default)]
pub struct Ids {
    /// The session.
    pub session: String,
    /// The `exists …` plan (eval and sweep).
    pub eval_plan: String,
    /// The `P(…)` plan.
    pub prob_plan: String,
    /// The cause plan (`whatif-cold` only).
    pub cause_plan: String,
}

/// The protocol op of one item.
pub fn item_op(item: &Item, ids: &Ids, sweep_set: &str) -> Op {
    let session = ids.session.clone();
    match item {
        Item::Eval(s) => Op::Eval {
            session,
            plan: ids.eval_plan.clone(),
            scenario: s.clone(),
        },
        Item::Check(i) => Op::Check {
            session,
            query: WARM_SPECS[*i].to_string(),
        },
        Item::Prob(s) => Op::Prob {
            session,
            target: ProbTarget::Plan {
                plan: ids.prob_plan.clone(),
                scenario: Some(s.clone()),
            },
            options: ProbOptions::default(),
        },
        Item::Sweep => Op::Sweep {
            session,
            plan: ids.eval_plan.clone(),
            scenarios: sweep_set.to_string(),
            stream: false,
        },
        Item::Cause(s) => Op::Cause {
            session,
            plan: ids.cause_plan.clone(),
            scenario: s.clone(),
            stream: false,
        },
    }
}

/// A `load` request line.
pub fn load_line(id: u64, model: &Model, witness_limit: Option<u64>) -> String {
    Request::with_id(
        id,
        Op::Load {
            model: model.text.clone(),
            options: SessionOptions {
                witness_limit,
                ..SessionOptions::default()
            },
        },
    )
    .to_json_line()
}

/// A `prepare` request line.
pub fn prepare_line(id: u64, session: &str, query: &str) -> String {
    Request::with_id(
        id,
        Op::Prepare {
            session: session.to_string(),
            query: query.to_string(),
        },
    )
    .to_json_line()
}

/// A baseline `prob` request line on a plan.
pub fn prob_line(id: u64, session: &str, plan: &str) -> String {
    Request::with_id(
        id,
        Op::Prob {
            session: session.to_string(),
            target: ProbTarget::Plan {
                plan: plan.to_string(),
                scenario: None,
            },
            options: ProbOptions::default(),
        },
    )
    .to_json_line()
}

/// An `unload` request line.
pub fn unload_line(id: u64, session: &str) -> String {
    Request::with_id(
        id,
        Op::Unload {
            session: session.to_string(),
        },
    )
    .to_json_line()
}

/// A `stats` request line (server-wide, or one session's).
pub fn stats_line(id: u64, session: Option<&str>) -> String {
    Request::with_id(
        id,
        Op::Stats {
            session: session.map(str::to_string),
        },
    )
    .to_json_line()
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// The what-if session's model: COVID on `whatif-warm`, the fixed
    /// scaled-1000 tree on `whatif-cold` (and, for the set-up's warm-up
    /// chain, on `load-scaled`).
    pub model: Model,
    /// The `load-scaled` models; op `k` loads `load_models[k % len]`.
    pub load_models: Vec<Model>,
    /// Warm scenarios, or cold event names: what [`Stream`]s draw from.
    pub pool: Vec<String>,
    /// The warm sweep set.
    pub sweep_set: String,
    /// The plans a what-if session prepares, in order: eval, prob and
    /// (cold) cause.
    pub queries: Vec<String>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let warm = workload == Workload::WhatifWarm;
        let model = if warm { covid_model() } else { cold_model() };
        let load_models = match workload {
            Workload::LoadScaled => load_scaled_seeds(seed)
                .into_iter()
                .map(|s| scaled_model(LOAD_SCALED_EVENTS, s))
                .collect(),
            _ => Vec::new(),
        };
        let (pool, queries) = if warm {
            (
                warm_scenarios(&model),
                vec![WARM_EVAL_QUERY.to_string(), WARM_PROB_QUERY.to_string()],
            )
        } else {
            (model.events(), cold_queries(&model).to_vec())
        };
        let sweep_set = warm_sweep_set(&pool);
        Inputs {
            workload,
            seed,
            model,
            load_models,
            pool,
            sweep_set,
            queries,
        }
    }

    /// The request line of a what-if item.
    pub fn line(&self, id: u64, item: &Item, ids: &Ids) -> String {
        Request::with_id(id, item_op(item, ids, &self.sweep_set)).to_json_line()
    }

    /// The `witness_limit` the what-if session is loaded with: 0 on
    /// `whatif-cold` (see NOTES.md), the server default otherwise.
    pub fn witness_limit(&self) -> Option<u64> {
        (self.workload == Workload::WhatifCold).then_some(0)
    }

    /// The requests a what-if set-up sends after preparing its plans.
    /// Warm: every scenario, spec line and the sweep, so the window only
    /// hits memos. Cold: the baselines only, so no window scenario is
    /// ever seen twice.
    pub fn warm_up(&self) -> Vec<Item> {
        match self.workload {
            Workload::WhatifWarm => self
                .pool
                .iter()
                .flat_map(|s| [Item::Eval(s.clone()), Item::Prob(s.clone())])
                .chain((0..WARM_SPECS.len()).map(Item::Check))
                .chain([Item::Sweep])
                .collect(),
            _ => vec![
                Item::Eval(String::new()),
                Item::Prob(String::new()),
                Item::Cause(String::new()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: Workload, seed: u64, pool: &[String], n: usize) -> Vec<String> {
        let ids = Ids {
            session: "s1".into(),
            eval_plan: "p1".into(),
            prob_plan: "p2".into(),
            cause_plan: "p3".into(),
        };
        let mut stream = Stream::new(workload, seed, 0, pool.to_vec());
        (0..n as u64)
            .map(|id| Request::with_id(id, item_op(&stream.next_item(), &ids, "w0: A = 1\n")))
            .map(|r| r.to_json_line())
            .collect()
    }

    #[test]
    fn equal_seeds_give_byte_identical_streams() {
        let warm = warm_scenarios(&covid_model());
        let events = cold_model().events();
        for (workload, pool) in [
            (Workload::WhatifWarm, &warm),
            (Workload::WhatifCold, &events),
        ] {
            let a = lines(workload, 7, pool, 500);
            assert_eq!(a, lines(workload, 7, pool, 500));
            assert_ne!(a, lines(workload, 8, pool, 500));
        }
        assert_eq!(load_scaled_seeds(3), load_scaled_seeds(3));
        assert_ne!(load_scaled_seeds(3), load_scaled_seeds(4));
        let mut a = load_scaled_seeds(3);
        let mut b = load_scaled_seeds(4);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every seed loads the same corpus");
        assert_eq!(load_scaled_seeds(3)[0], load_scaled_seeds(4)[0]);
        let a = scaled_model(200, derive(3, 0));
        let b = scaled_model(200, derive(3, 0));
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, scaled_model(200, derive(3, 1)).text);
    }

    #[test]
    fn connections_get_distinct_streams() {
        let pool = cold_model().events();
        let mut a = Stream::new(Workload::WhatifCold, 1, 0, pool.clone());
        let mut b = Stream::new(Workload::WhatifCold, 1, 1, pool);
        let a: Vec<Item> = (0..50).map(|_| a.next_item()).collect();
        let b: Vec<Item> = (0..50).map(|_| b.next_item()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mixes_follow_the_workload_shares() {
        let mut warm = Stream::new(Workload::WhatifWarm, 5, 0, warm_scenarios(&covid_model()));
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..10_000 {
            *counts.entry(warm.next_item().op()).or_insert(0usize) += 1;
        }
        let share = |op: &str| counts.get(op).copied().unwrap_or(0) as f64 / 10_000.0;
        assert!((share("eval") - 0.5).abs() < 0.03);
        assert!((share("check") - 0.2).abs() < 0.03);
        assert!((share("prob") - 0.2).abs() < 0.03);
        assert!((share("sweep") - 0.1).abs() < 0.03);

        let mut cold = Stream::new(Workload::WhatifCold, 5, 0, cold_model().events());
        let item = cold.next_item();
        let scenario = item.scenario().expect("cold items carry a scenario");
        assert_eq!(scenario.split(", ").count(), COLD_BINDINGS);
    }
}
