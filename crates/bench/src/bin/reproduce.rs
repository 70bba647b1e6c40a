//! `reproduce` — regenerates every table and figure of the paper and
//! prints our result next to the paper's expected value.
//!
//! ```text
//! cargo run -p bfl-bench --bin reproduce             # everything
//! cargo run -p bfl-bench --bin reproduce -- fig1     # one artifact
//! cargo run -p bfl-bench --bin reproduce -- scale --smoke    # small sizes
//! ```
//!
//! Artifacts: `fig1 fig2 fig3 ex2 ex3 table1 covid scaling sweep quant
//! serve mc cause scale`. The `quant` artifact writes
//! `BENCH_quant.json` (warm prepared probability sweeps vs naive
//! recompute-per-scenario), the `serve` artifact boots an in-process
//! sharded `bfl-server`, replays a mixed check/eval/sweep/prob workload
//! over 1→250 concurrent connections (multiplexed onto a bounded pool
//! of driver threads) three times per connection count and writes
//! `BENCH_serve.json` (the median and range of the wall time, p50 and
//! p99 latency, p999 latency with log-bucketed histograms over every
//! run, connect time kept out of the
//! timed window and reported on its own, throughput scaling, proof the
//! server thread count stays fixed as connections grow, warm vs cold
//! plan hit rates, zero plan rebuilds on the warm path), and the `mc`
//! artifact exercises
//! the Monte Carlo estimator and writes `BENCH_mc.json` (samples/sec vs
//! worker count with a byte-identity cross-check, the MC-vs-exact error
//! curve over growing sample budgets, and an estimate + CI on a random
//! tree far beyond what the exact BDD path is asked to compile), and the
//! `cause` artifact sweeps a prepared `cause(ϕ, evidence)` plan over
//! per-event what-if scenarios and writes `BENCH_cause.json` (causes/sec
//! cold vs warm plan via the scenario memo, and witness counts vs tree
//! size), and the `scale` artifact compiles the industrial-scale corpus
//! (1k–10k basic events) sequentially under each variable ordering,
//! cross-checks the top-event diagram against the tree's structure
//! function on 20 seeded status vectors, and writes `BENCH_scale.json`
//! (per size and ordering: min and median compile time over 3 compiles,
//! top-event and live nodes; for the default DFS order also the
//! allocated arena nodes, `P(top)`, and the min and median time to parse
//! the model's Galileo text); `--smoke` restricts all five to small
//! configurations for CI.

// A reproduction harness, not a library: every `expect` is an assertion
// that the paper's artifact can be rebuilt — failing loudly with the
// offending step in the message is exactly the desired behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl_bench::{covid_properties, parse, property_6};
use bfl_core::parser::{parse_formula, Spec};
use bfl_core::patterns::{table1_rows, table1_tree};
use bfl_core::{
    counterexample, is_valid_counterexample, Counterexample, MinimalityScope, ModelChecker,
};
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::generator::{random_tree, RandomTreeConfig};
use bfl_fault_tree::{analysis, corpus, StatusVector, VariableOrdering};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig3") {
        fig3();
    }
    if want("ex2") {
        ex2();
    }
    if want("ex3") {
        ex3();
    }
    if want("table1") {
        table1();
    }
    if want("covid") {
        covid();
    }
    if want("scaling") {
        scaling();
    }
    if want("sweep") {
        sweep();
    }
    if want("quant") {
        quant_bench(args.iter().any(|a| a == "--smoke"));
    }
    if want("serve") {
        serve_bench(args.iter().any(|a| a == "--smoke"));
    }
    if want("mc") {
        mc_bench(args.iter().any(|a| a == "--smoke"));
    }
    if want("cause") {
        cause_bench(args.iter().any(|a| a == "--smoke"));
    }
    if want("scale") {
        scale_bench(args.iter().any(|a| a == "--smoke"));
    }
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn print_sets(prefix: &str, sets: &[Vec<String>]) {
    for s in sets {
        println!("{prefix}{{{}}}", s.join(", "));
    }
}

/// Fig. 1 / Section II: MCS and MPS of the pathogens/reservoir subtree.
fn fig1() {
    banner("FIG1 — Fig. 1 subtree: minimal cut sets and path sets (Sec. II)");
    let tree = corpus::fig1();
    let mcs = analysis::minimal_cut_sets_names(&tree, tree.top());
    println!("paper MCS : {{IW, H3}}, {{IT, H2}}");
    print_sets("ours  MCS : ", &mcs);
    let mps = analysis::minimal_path_sets_names(&tree, tree.top());
    println!("paper MPS : {{IW, IT}}, {{IW, H2}}, {{H3, IT}}, {{H3, H2}}");
    print_sets("ours  MPS : ", &mps);
}

/// Fig. 2: shape of the reconstructed COVID-19 fault tree.
fn fig2() {
    banner("FIG2 — the COVID-19 fault tree (reconstruction, see DESIGN.md §3)");
    let tree = corpus::covid();
    println!("paper: 'medium-sized' FT, repeated events IT, PP, H1, IW (Sec. IV)");
    println!(
        "ours : {} basic events, {} gates, top = {}",
        tree.num_basic_events(),
        tree.num_gates(),
        tree.name(tree.top())
    );
    let mut counts = std::collections::HashMap::new();
    for g in tree.gates() {
        for &c in tree.children(g) {
            if tree.is_basic(c) {
                *counts.entry(tree.name(c)).or_insert(0) += 1;
            }
        }
    }
    let mut repeated: Vec<&str> = counts
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&k, _)| k)
        .collect();
    repeated.sort();
    println!("ours : repeated events {repeated:?}");
    for ordering in VariableOrdering::all() {
        let mut tb = TreeBdd::new(&tree, ordering);
        let top = tb.element_bdd(&tree, tree.top());
        println!(
            "       BDD size under {:?}: {} nodes",
            ordering,
            tb.manager().node_count(top)
        );
    }
}

/// Fig. 3: the OR-gate and its BDD.
fn fig3() {
    banner("FIG3 — a simple FT (OR-gate) and its BDD");
    let tree = corpus::or2();
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let top = tb.element_bdd(&tree, tree.top());
    println!("paper: decision nodes e1, e2 over terminals 0/1 (4 nodes)");
    println!("ours : {} nodes; DOT:", tb.manager().node_count(top));
    print!(
        "{}",
        tb.manager()
            .to_dot(top, |v| format!("e{}", v.index() / 2 + 1))
    );
}

/// Example 2: walking B(MCS(Top)) with b = (0, 1).
fn ex2() {
    banner("EX2 — Algorithm 2 on MCS(e_top), b = (0,1) (Sec. V-C)");
    let tree = corpus::or2();
    let mut mc = ModelChecker::new(&tree);
    let phi = parse_formula("MCS(Top)").expect("parses");
    let b = StatusVector::from_bits([false, true]);
    println!("paper: b = (0,1) ⊨ MCS(e_top)  ->  true");
    println!("ours : {}", mc.holds(&b, &phi).expect("checks"));
}

/// Example 3: AllSat of B(MCS(Top)).
fn ex3() {
    banner("EX3 — Algorithm 3 on MCS(e_top) (Sec. V-D)");
    let tree = corpus::or2();
    let mut mc = ModelChecker::new(&tree);
    let phi = parse_formula("MCS(Top)").expect("parses");
    let sats = mc.satisfying_vectors(&phi).expect("enumerates");
    println!("paper: ⟦MCS(e_top)⟧ = {{(0,1), (1,0)}}");
    let rendered: Vec<String> = sats.iter().map(|v| format!("({v})")).collect();
    println!("ours : {{{}}}", rendered.join(", "));
}

/// Table I: the four patterns with example vectors and counterexamples.
fn table1() {
    banner("TABLE I — counterexample patterns (Sec. VI)");
    let tree = table1_tree();
    println!("tree: e1 = AND(e2, e3), e3 = OR(e4, e5); vectors over (e2, e4, e5)\n");
    println!(
        "{:10} {:24} {:10} {:12} {:12} {:7}",
        "pattern", "formula", "example", "paper cex", "our cex", "valid"
    );
    for row in table1_rows() {
        let mut mc = ModelChecker::new(&tree);
        if row.needs_support_scope {
            mc.set_minimality_scope(MinimalityScope::FormulaSupport);
        }
        let ours = counterexample(&mut mc, &row.example, &row.formula).expect("checks");
        let (ours_str, valid) = match &ours {
            Counterexample::Found(v) => (
                format!("({v})"),
                is_valid_counterexample(&mut mc, &row.example, v, &row.formula).expect("checks"),
            ),
            other => (format!("{other:?}"), false),
        };
        let scope_note = if row.needs_support_scope { "*" } else { " " };
        println!(
            "{:10} {:24} ({})      ({})        {:12} {:7}",
            format!("{}{}", row.pattern.name(), scope_note),
            row.formula.to_string(),
            row.example,
            row.paper_counterexample,
            ours_str,
            valid
        );
    }
    println!("\n(*) pattern3 needs the support-relative minimality scope; under the");
    println!("    paper's formal semantics the conjunction is unsatisfiable (DESIGN.md §4).");
}

/// Section VII: the full case-study analysis.
fn covid() {
    banner("SEC VII — COVID-19 case study: all nine properties");
    let tree = corpus::covid();
    let mut mc = ModelChecker::new(&tree);
    for p in covid_properties() {
        match parse(p.source) {
            Spec::Query(q) => {
                let got = mc.check_query(&q).expect("checks");
                let expected = p
                    .expected
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "-".into());
                println!(
                    "P{} {:55} paper: {:5}  ours: {}",
                    p.id, p.question, expected, got
                );
            }
            Spec::Formula(f) => {
                let vectors = mc.satisfying_vectors(&f).expect("enumerates");
                println!("P{} {:55} ({} results)", p.id, p.question, vectors.len());
                if p.id == 5 {
                    println!("   paper: {{IW,H3,IT,H1,H4,VW}}, {{IT,H2,H1,H4,VW}}");
                    print_sets("   ours : ", &mc.vectors_to_failed_sets(&vectors));
                } else if p.id == 7 {
                    println!("   paper: 12 MPSs incl. {{H1}}, {{VW}}, {{IW,IT}}, {{H3,H2}}, …");
                    print_sets(
                        "   ours : ",
                        &mc.minimal_path_sets("IWoS").expect("enumerates"),
                    );
                }
            }
        }
        // Follow-ups the paper discusses inline.
        match p.id {
            1 => {
                let f = parse_formula("MCS(MoT) & IS").expect("parses");
                let v = mc.satisfying_vectors(&f).expect("enumerates");
                println!("   follow-up ⟦MCS(MoT) ∧ IS⟧: paper {{IS, H1, H5}}");
                print_sets("   ours : ", &mc.vectors_to_failed_sets(&v));
            }
            4 => {
                let f = parse_formula(
                    "MCS(IWoS) & H1 | MCS(IWoS) & H2 | MCS(IWoS) & H3 | MCS(IWoS) & H4 | MCS(IWoS) & H5",
                )
                .expect("parses");
                println!(
                    "   follow-up: MCSs requiring human error — paper: 12, ours: {}",
                    mc.count_satisfying(&f).expect("counts")
                );
            }
            _ => {}
        }
    }
    // Property 6, built programmatically.
    let q6 = property_6(&tree);
    println!(
        "P6 {:55} paper: false  ours: {}",
        "Is avoiding all human errors a *minimal* prevention?",
        mc.check_query(&q6).expect("checks")
    );
    println!("   pattern-2 counterexamples: paper {{H1}} and {{H2, H3}} — both are MPSs:");
    let mps = mc.minimal_path_sets("IWoS").expect("enumerates");
    for target in [
        vec!["H1".to_string()],
        vec!["H2".to_string(), "H3".to_string()],
    ] {
        println!(
            "   {{{}}} in ⟦MPS(IWoS)⟧: {}",
            target.join(", "),
            mps.contains(&target)
        );
    }
    // Property 8 follow-up.
    println!("P8 follow-up IBEs: paper — CIO and CIS both depend on H1");
    println!(
        "   ours: IBE(CIO) = {:?}, IBE(CIS) = {:?}",
        mc.influencing_basic_events(&parse_formula("CIO").expect("parses"))
            .expect("checks"),
        mc.influencing_basic_events(&parse_formula("CIS").expect("parses"))
            .expect("checks")
    );
}

/// Methodological scaling series (not in the paper; documents our
/// implementation's behaviour — see EXPERIMENTS.md).
fn scaling() {
    banner("SCALING — BDD construction and MCS enumeration on random trees");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "basic", "gates", "bdd nodes", "#MCS", "ms"
    );
    for &(nb, ng) in &[(10, 6), (20, 12), (40, 25), (80, 50), (160, 100)] {
        let tree = random_tree(&RandomTreeConfig {
            num_basic: nb,
            num_gates: ng,
            max_children: 4,
            vot_probability: 0.1,
            seed: 42,
        });
        let start = std::time::Instant::now();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let top = tb.element_bdd(&tree, tree.top());
        let nodes = tb.manager().node_count(top);
        // Counting instead of enumeration: random trees can have
        // astronomically many cut sets.
        let mcs_count = analysis::count_minimal_cut_sets(&tree, tree.top())
            .map_or_else(|| "> u128::MAX".to_string(), |c| c.to_string());
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        println!(
            "{:>8} {:>8} {:>12} {:>12} {:>10.2}",
            nb, ng, nodes, mcs_count, elapsed
        );
    }
}

/// PREP: prepared queries vs per-scenario recompilation (the Section VI
/// what-if workload, timed offline).
fn sweep() {
    use bfl_core::scenario::{Scenario, ScenarioSet};
    use bfl_core::AnalysisSession;

    banner("SWEEP — evidence-as-restriction vs recompile-per-scenario");
    let query = "exists MCS(IWoS) & H4";
    let session = AnalysisSession::new(corpus::covid());
    let q = bfl_core::parser::parse_query(query).expect("parses");
    let top = session.tree().name(session.tree().top()).to_string();
    let mut set = ScenarioSet::new();
    for name in session.tree().basic_event_names() {
        set.push(Scenario::new().bind(name, true));
        set.push(Scenario::new().bind(name, false));
    }
    println!("query: {query} · {} scenarios", set.len());

    let start = std::time::Instant::now();
    let fresh = AnalysisSession::new(corpus::covid());
    let mut recompiled = 0usize;
    for s in &set {
        if fresh
            .check_query(&s.specialise_query(&q, &top))
            .expect("checks")
            .holds
        {
            recompiled += 1;
        }
    }
    let t_recompile = start.elapsed();

    let start = std::time::Instant::now();
    let prepared = session.prepare(&q).expect("prepares");
    let cold = prepared.sweep(&set).expect("sweeps");
    let t_cold = start.elapsed();

    let start = std::time::Instant::now();
    let warm = prepared.sweep(&set).expect("sweeps");
    let t_warm = start.elapsed();

    assert_eq!(recompiled, cold.holding());
    assert_eq!(cold.holding(), warm.holding());
    println!(
        "recompile per scenario: {:>9.3} ms",
        t_recompile.as_secs_f64() * 1000.0
    );
    println!(
        "prepare + cold sweep:   {:>9.3} ms  ({} restrictions, {} translation misses)",
        t_cold.as_secs_f64() * 1000.0,
        cold.stats.memo_misses,
        cold.stats.translation_misses
    );
    println!(
        "warm sweep:             {:>9.3} ms  ({} memo hits, arena growth {})",
        t_warm.as_secs_f64() * 1000.0,
        warm.stats.memo_hits,
        warm.stats.arena_growth()
    );
}

/// QUANT: warm prepared probability sweeps (`sweep_probabilities` on a
/// compiled plan with its node-keyed Shannon memo) vs the naive
/// recompute-per-scenario path (fresh checker + evidence-wrapped formula
/// per scenario). Writes the `BENCH_quant.json` artifact.
fn quant_bench(smoke: bool) {
    use bfl_core::engine::AnalysisSession;
    use bfl_core::quant;
    use bfl_core::scenario::ScenarioSet;
    use bfl_core::{Formula, Query};
    use bfl_fault_tree::FaultTree;

    banner("QUANT — prepared probability sweeps vs recompute-per-scenario");
    let mut trees: Vec<(String, FaultTree)> = vec![
        ("fig1".into(), corpus::fig1()),
        ("covid".into(), corpus::covid()),
    ];
    if !smoke {
        trees.push(("pressure_tank".into(), corpus::pressure_tank()));
        trees.push(("attack_tree".into(), corpus::attack_tree()));
        for &(nb, ng, seed) in &[(20, 12, 1u64), (40, 25, 7), (60, 40, 13)] {
            let tree = random_tree(&RandomTreeConfig {
                num_basic: nb,
                num_gates: ng,
                max_children: 4,
                vot_probability: 0.1,
                seed,
            });
            trees.push((format!("rand-{nb}x{ng}-s{seed}"), tree));
        }
    }

    println!(
        "{:<18} {:>6} {:>10} {:>11} {:>11} {:>11} {:>9}",
        "tree", "basic", "scenarios", "naive ms", "cold ms", "warm ms", "speedup"
    );
    let mut rows = String::new();
    let mut min_speedup = f64::INFINITY;
    for (name, tree) in &trees {
        let n = tree.num_basic_events();
        // A deterministic probability profile (no annotations needed on
        // the corpus trees).
        let probs: Vec<f64> = (0..n)
            .map(|i| 0.02 + 0.9 * (i as f64) / (n as f64))
            .collect();
        let top = Formula::atom(tree.name(tree.top()));
        // MCS(top) makes the per-scenario recompile genuinely expensive.
        let phi = top.mcs();
        let query = Query::exists(phi.clone());
        // Fail and fix each basic event in turn — the Section VI what-if
        // sweep, quantitatively.
        let mut set = ScenarioSet::new();
        for event in tree.basic_event_names() {
            set.push(bfl_core::Scenario::new().bind(event, true));
            set.push(bfl_core::Scenario::new().bind(event, false));
        }

        // Naive: fresh checker + evidence-wrapped formula per scenario.
        let start = std::time::Instant::now();
        let mut naive_values = Vec::with_capacity(set.len());
        for s in &set {
            let mut mc = bfl_core::ModelChecker::new(tree);
            let wrapped = s.specialise(&phi);
            naive_values.push(quant::probability(&mut mc, &wrapped, &probs).expect("naive"));
        }
        let t_naive = start.elapsed();

        // Prepared: compile once, sweep twice (cold fills the memos,
        // warm is pure lookups).
        let session = AnalysisSession::builder()
            .probabilities(probs.iter().map(|&p| Some(p)).collect())
            .build(tree.clone());
        let start = std::time::Instant::now();
        let prepared = session.prepare(&query).expect("prepares");
        let cold = prepared.sweep_probabilities(&set).expect("sweeps");
        let t_cold = start.elapsed();
        let start = std::time::Instant::now();
        let warm = prepared.sweep_probabilities(&set).expect("sweeps");
        let t_warm = start.elapsed();

        // Cross-check: both paths computed the same probabilities.
        for (i, o) in cold.outcomes.iter().enumerate() {
            let p = o.probability.expect("unconditional");
            assert!(
                (p - naive_values[i]).abs() < 1e-9,
                "{name} scenario {i}: prepared {p} vs naive {}",
                naive_values[i]
            );
        }
        assert_eq!(warm.stats.memo_hits as usize, set.len());
        assert_eq!(warm.stats.fresh_nodes, 0);

        let naive_ms = t_naive.as_secs_f64() * 1000.0;
        let cold_ms = t_cold.as_secs_f64() * 1000.0;
        let warm_ms = t_warm.as_secs_f64() * 1000.0;
        let speedup = naive_ms / warm_ms.max(1e-6);
        min_speedup = min_speedup.min(speedup);
        println!(
            "{:<18} {:>6} {:>10} {:>11.3} {:>11.3} {:>11.3} {:>8.1}x",
            name,
            n,
            set.len(),
            naive_ms,
            cold_ms,
            warm_ms,
            speedup
        );
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            "{{\"tree\":\"{name}\",\"basic_events\":{n},\"scenarios\":{},\
             \"naive_ms\":{naive_ms:.3},\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
             \"warm_speedup\":{speedup:.2},\"cold_memo_misses\":{},\"warm_memo_hits\":{},\
             \"warm_fresh_nodes\":{}}}",
            set.len(),
            cold.stats.memo_misses,
            warm.stats.memo_hits,
            warm.stats.fresh_nodes,
        ));
    }
    let json = format!(
        "{{\"artifact\":\"quant\",\"mode\":\"{}\",\"baseline\":\"recompute-per-scenario\",\
         \"query\":\"exists MCS(top)\",\"min_warm_speedup\":{min_speedup:.2},\"trees\":[{rows}]}}\n",
        if smoke { "smoke" } else { "full" }
    );
    let path = "BENCH_quant.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path} (min warm speedup {min_speedup:.1}x)"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// Latency histogram bucket upper bounds, in microseconds; the last
/// implicit bucket is `> 100ms`.
const HIST_BOUNDS_US: [u64; 10] = [
    100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000,
];

/// Buckets a latency sample set into [`HIST_BOUNDS_US`] + overflow.
fn latency_histogram(latencies_us: &[u64]) -> [u64; 11] {
    let mut hist = [0u64; 11];
    for &l in latencies_us {
        let idx = HIST_BOUNDS_US
            .iter()
            .position(|&bound| l <= bound)
            .unwrap_or(HIST_BOUNDS_US.len());
        hist[idx] += 1;
    }
    hist
}

/// Live threads of this process whose name starts with `bfl-` — the
/// server's acceptor + shard + worker threads (everything it spawns is
/// so prefixed). `None` off Linux, where `/proc` is unavailable.
#[cfg(target_os = "linux")]
fn server_thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.starts_with("bfl-") {
            count += 1;
        }
    }
    Some(count)
}

#[cfg(not(target_os = "linux"))]
fn server_thread_count() -> Option<usize> {
    None
}

/// Runs per connection count in the `serve` artifact.
const SERVE_REPEATS: usize = 3;

/// The value at quantile `q` of ascending `sorted` (nearest rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median and range of one figure over repeated runs.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut runs: Vec<f64>) -> Spread {
        runs.sort_by(f64::total_cmp);
        Spread {
            median: runs[runs.len() / 2],
            min: runs[0],
            max: runs[runs.len() - 1],
        }
    }

    /// `median [min–max]` with `decimals` digits.
    fn text(&self, decimals: usize) -> String {
        format!(
            "{:.d$} [{:.d$}–{:.d$}]",
            self.median,
            self.min,
            self.max,
            d = decimals
        )
    }

    /// `{"median":…,"min":…,"max":…}` with `decimals` digits.
    fn json(&self, decimals: usize) -> String {
        format!(
            "{{\"median\":{:.d$},\"min\":{:.d$},\"max\":{:.d$}}}",
            self.median,
            self.min,
            self.max,
            d = decimals
        )
    }
}

/// SERVE: the sharded analysis service under a mixed
/// check/eval/sweep/prob workload replayed over 1→250 concurrent
/// connections against an in-process `bfl-server`. A bounded pool of
/// driver threads multiplexes the connections in lock-step rounds, so
/// hundreds of sockets are genuinely open and in flight at once.
/// Measures throughput and p50/p99/p999 latency (plus a log-bucketed
/// latency histogram) per connection count, over [`SERVE_REPEATS`] runs
/// of each (median and range of the wall time, p50 and p99; p999 and the
/// histogram over every run's latencies), proves the server thread
/// count stays fixed while connections scale, and proves the warm path
/// never rebuilds a plan (zero translation-cache misses across the
/// measured phases). Writes the `BENCH_serve.json` artifact.
fn serve_bench(smoke: bool) {
    use bfl_server::{
        Client, Op, ProbOptions, ProbTarget, Request, Response, Server, ServerConfig,
    };
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    banner("SERVE — bfl-server: mixed workload over concurrent connections");
    let shards = if smoke { 2 } else { 4 };
    let workers = if smoke {
        2
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(2, 8)
    };
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        shards,
        queue_capacity: 4096,
        max_connections: 1024,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = handle.addr();

    // The COVID case study with a deterministic probability profile.
    let tree = corpus::covid();
    let n = tree.num_basic_events();
    let probs: Vec<Option<f64>> = (0..n)
        .map(|i| Some(0.02 + 0.9 * (i as f64) / (n as f64)))
        .collect();
    let model = bfl_fault_tree::galileo::to_galileo(&tree, Some(&probs));

    let mut admin = Client::connect(addr).expect("connect");
    let session = admin.load(&model).expect("load");
    let plan_bool = admin
        .prepare(&session, "exists MCS(IWoS) & H4")
        .expect("prepare");
    let plan_prob = admin.prepare(&session, "P(IWoS) <= 0.05").expect("prepare");

    // The request mix: 50% plan evals, 20% spec checks, 20% plan
    // probabilities, 10% small sweeps — every existing feature served.
    let scenario_pool: Vec<String> = tree
        .basic_event_names()
        .iter()
        .flat_map(|e| [format!("{e} = 1"), format!("{e} = 0")])
        .collect();
    let spec_pool = [
        "forall IS => MoT",
        "exists MCS(IWoS) & H4",
        "IDP(CIO, CIS)",
        "P(IWoS | H1) <= 0.5",
    ];
    let sweep_set: String = scenario_pool
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, s)| format!("w{i}: {s}\n"))
        .collect();
    #[derive(Clone, Copy)]
    enum Item {
        Eval(usize),
        Check(usize),
        Prob(usize),
        Sweep,
    }
    let total = if smoke { 400 } else { 2000 };
    let items: Vec<Item> = (0..total)
        .map(|i| match i % 10 {
            0..=4 => Item::Eval(i),
            5 | 6 => Item::Check(i),
            7 | 8 => Item::Prob(i),
            _ => Item::Sweep,
        })
        .collect();
    let run_item = |client: &mut Client, item: Item| match item {
        Item::Eval(i) => {
            client
                .eval(
                    &session,
                    &plan_bool,
                    &scenario_pool[i % scenario_pool.len()],
                )
                .expect("eval");
        }
        Item::Check(i) => {
            client
                .check(&session, spec_pool[i % spec_pool.len()])
                .expect("check");
        }
        Item::Prob(i) => {
            client
                .prob_plan(
                    &session,
                    &plan_prob,
                    Some(&scenario_pool[i % scenario_pool.len()]),
                )
                .expect("prob");
        }
        Item::Sweep => {
            client
                .sweep(&session, &plan_bool, &sweep_set)
                .expect("sweep");
        }
    };

    // Session-level translation-cache misses = plan/pipeline rebuilds.
    let cache_misses = |client: &mut Client| -> u64 {
        client
            .stats(Some(&session))
            .expect("stats")
            .get("stats")
            .and_then(|s| s.get("cache_misses"))
            .and_then(|v| v.as_u64())
            .expect("cache_misses")
    };
    let plan_memo = |client: &mut Client, plan: &str| -> (u64, u64) {
        let stats = client.stats(Some(&session)).expect("stats");
        let p = stats
            .get("plans")
            .and_then(|p| p.get(plan))
            .expect("plan stats");
        (
            p.get("memo_hits").and_then(|v| v.as_u64()).unwrap_or(0),
            p.get("memo_misses").and_then(|v| v.as_u64()).unwrap_or(0),
        )
    };

    // Cold phase: every distinct request once — fills the scenario and
    // probability memos (the translation caches were filled at prepare).
    let t = std::time::Instant::now();
    for i in 0..scenario_pool.len() {
        run_item(&mut admin, Item::Eval(i));
        run_item(&mut admin, Item::Prob(i));
    }
    for i in 0..spec_pool.len() {
        run_item(&mut admin, Item::Check(i));
    }
    run_item(&mut admin, Item::Sweep);
    let cold_ms = t.elapsed().as_secs_f64() * 1000.0;
    let misses_after_warmup = cache_misses(&mut admin);
    let (cold_hits, cold_misses) = plan_memo(&mut admin, &plan_bool);

    // The wire form of one workload item, for the raw multiplexed
    // drivers below (the `Client` convenience wrapper is one-at-a-time;
    // here we keep hundreds of sockets in flight from a few threads).
    let build_op = |item: Item| -> Op {
        match item {
            Item::Eval(i) => Op::Eval {
                session: session.clone(),
                plan: plan_bool.clone(),
                scenario: scenario_pool[i % scenario_pool.len()].clone(),
            },
            Item::Check(i) => Op::Check {
                session: session.clone(),
                query: spec_pool[i % spec_pool.len()].to_string(),
            },
            Item::Prob(i) => Op::Prob {
                session: session.clone(),
                target: ProbTarget::Plan {
                    plan: plan_prob.clone(),
                    scenario: Some(scenario_pool[i % scenario_pool.len()].clone()),
                },
                options: ProbOptions::default(),
            },
            Item::Sweep => Op::Sweep {
                session: session.clone(),
                plan: plan_bool.clone(),
                scenarios: sweep_set.clone(),
                stream: false,
            },
        }
    };

    // One measured phase: `connections` open sockets driven by at most
    // 8 threads. Each driver owns a slice of the connections and runs
    // them in lock-step rounds — send one pipelined request per owned
    // socket, then collect each response — so all sockets stay in
    // flight while the driver pool stays bounded. Every socket connects
    // and completes one untimed request before the clock starts, so a
    // connect (and at 250 sockets, a SYN retry off a full accept
    // backlog) is reported as its own time, not as request latency.
    // Returns the connect time, the measured wall time and the
    // latencies.
    struct DrivenConn {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        queue: Vec<usize>,
    }
    let send = |conn: &mut DrivenConn, item: usize| {
        let mut line = Request::with_id(item as u64, build_op(items[item])).to_json_line();
        line.push('\n');
        conn.writer.write_all(line.as_bytes()).expect("send");
    };
    let receive = |conn: &mut DrivenConn| {
        let mut line = String::new();
        conn.reader.read_line(&mut line).expect("recv");
        let response = Response::parse(line.trim_end()).expect("parse response");
        assert!(response.is_ok(), "request failed: {line}");
    };
    let drive_phase = |connections: usize| -> (f64, f64, Vec<u64>) {
        let drivers = connections.min(8);
        let connecting = Instant::now();
        let driven: Vec<Vec<DrivenConn>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..drivers)
                .map(|d| {
                    let (send, receive, items) = (&send, &receive, &items);
                    scope.spawn(move || {
                        let mut conns: Vec<DrivenConn> = (0..connections)
                            .filter(|c| c % drivers == d)
                            .map(|c| {
                                let writer = TcpStream::connect(addr).expect("connect");
                                writer.set_nodelay(true).ok();
                                let reader =
                                    BufReader::new(writer.try_clone().expect("clone stream"));
                                let queue: Vec<usize> =
                                    (0..items.len()).filter(|i| i % connections == c).collect();
                                DrivenConn {
                                    reader,
                                    writer,
                                    queue,
                                }
                            })
                            .collect();
                        // The untimed first request: the connection is
                        // accepted, adopted by its shard and answering.
                        for conn in &mut conns {
                            if let Some(&first) = conn.queue.first() {
                                send(conn, first);
                                receive(conn);
                            }
                        }
                        conns
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver"))
                .collect()
        });
        let connect_s = connecting.elapsed().as_secs_f64();
        let go = std::sync::Barrier::new(drivers + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = driven
                .into_iter()
                .map(|mut conns| {
                    let (send, receive, go) = (&send, &receive, &go);
                    scope.spawn(move || {
                        go.wait();
                        let mut latencies = Vec::new();
                        let mut round = 0usize;
                        loop {
                            let mut sent: Vec<(usize, Instant)> = Vec::new();
                            for (k, conn) in conns.iter_mut().enumerate() {
                                if let Some(&item_idx) = conn.queue.get(round) {
                                    let t = Instant::now();
                                    send(conn, item_idx);
                                    sent.push((k, t));
                                }
                            }
                            if sent.is_empty() {
                                break;
                            }
                            for (k, t) in sent {
                                receive(&mut conns[k]);
                                latencies.push(t.elapsed().as_micros() as u64);
                            }
                            round += 1;
                        }
                        latencies
                    })
                })
                .collect();
            go.wait();
            let started = Instant::now();
            let latencies: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("driver"))
                .collect();
            (connect_s, started.elapsed().as_secs_f64(), latencies)
        })
    };

    // Measured phases: the same mixed workload over a rising connection
    // count; every request is warm (scenario memos populated). Each count
    // runs `SERVE_REPEATS` times, and the artifact keeps the median and
    // the range of each figure, so one disturbed run shows as spread
    // instead of as the result. The server thread count is sampled at
    // each point — the whole point of the sharded architecture is that it
    // must not move.
    let connection_counts: Vec<usize> = if smoke {
        vec![1, 8, 100]
    } else {
        vec![1, 2, 8, 32, 100, 250]
    };
    println!(
        "workload: {total} requests (50% eval, 20% check, 20% prob, 10% sweep) · \
         {shards} shards · {workers} workers · medians [min–max] of {SERVE_REPEATS} runs"
    );
    println!(
        "{:>12} {:>12} {:>22} {:>10} {:>20} {:>22} {:>10} {:>8}",
        "connections", "connect ms", "total ms", "req/s", "p50 µs", "p99 µs", "p999 µs", "threads"
    );
    let mut scaling_rows = String::new();
    let mut throughputs: Vec<f64> = Vec::new();
    let mut thread_samples: Vec<usize> = Vec::new();
    for &connections in &connection_counts {
        let mut connect_ms = Vec::new();
        let mut total_ms = Vec::new();
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        let mut pooled: Vec<u64> = Vec::new();
        for _ in 0..SERVE_REPEATS {
            let (connect_s, wall_s, mut latencies) = drive_phase(connections);
            if let Some(n) = server_thread_count() {
                thread_samples.push(n);
            }
            latencies.sort_unstable();
            connect_ms.push(connect_s * 1000.0);
            total_ms.push(wall_s * 1000.0);
            p50s.push(percentile(&latencies, 0.50) as f64);
            p99s.push(percentile(&latencies, 0.99) as f64);
            pooled.extend(latencies);
        }
        pooled.sort_unstable();
        let p999 = percentile(&pooled, 0.999);
        let hist = latency_histogram(&pooled);
        let (connect, total_ms, p50, p99) = (
            Spread::of(connect_ms),
            Spread::of(total_ms),
            Spread::of(p50s),
            Spread::of(p99s),
        );
        let throughput = total as f64 / (total_ms.median / 1000.0);
        throughputs.push(throughput);
        let threads = thread_samples.last().copied();
        println!(
            "{:>12} {:>12.2} {:>22} {:>10.0} {:>20} {:>22} {:>10} {:>8}",
            connections,
            connect.median,
            total_ms.text(2),
            throughput,
            p50.text(0),
            p99.text(0),
            p999,
            threads.map_or("n/a".to_string(), |n| n.to_string()),
        );
        if !scaling_rows.is_empty() {
            scaling_rows.push(',');
        }
        let hist_json: Vec<String> = hist.iter().map(|c| c.to_string()).collect();
        scaling_rows.push_str(&format!(
            "{{\"connections\":{connections},\"driver_threads\":{},\"repeats\":{SERVE_REPEATS},\
             \"connect_ms\":{:.3},\"total_ms\":{},\"throughput_rps\":{throughput:.1},\
             \"p50_us\":{},\"p99_us\":{},\"p999_us\":{p999},\"server_threads\":{},\
             \"histogram\":[{}]}}",
            connections.min(8),
            connect.median,
            total_ms.json(3),
            p50.json(0),
            p99.json(0),
            threads.map_or("null".to_string(), |n| n.to_string()),
            hist_json.join(",")
        ));
    }

    // Acceptance: the serving layer is a fixed set of threads — the
    // 250-connection point must run on exactly the same acceptor +
    // shard + worker threads as the 1-connection point.
    let expected_threads = 1 + shards + workers;
    for &n in &thread_samples {
        assert_eq!(
            n, expected_threads,
            "server thread count must stay fixed at 1 acceptor + {shards} shards + \
             {workers} workers while connections scale"
        );
    }

    // Acceptance: the warm phases never rebuilt a plan or recompiled a
    // formula — the resident caches absorbed the whole workload.
    let misses_after_load = cache_misses(&mut admin);
    let plan_rebuilds = misses_after_load - misses_after_warmup;
    assert_eq!(
        plan_rebuilds, 0,
        "warm served workload must not recompile formulas"
    );
    let (warm_hits, warm_misses) = plan_memo(&mut admin, &plan_bool);
    assert_eq!(
        warm_misses, cold_misses,
        "warm served workload must not compute fresh restrictions"
    );
    println!(
        "plan rebuilds across {} warm requests: {plan_rebuilds} (cold: {cold_misses} \
         restrictions, {cold_hits} hits; warm: +{} hits)",
        total * connection_counts.len(),
        warm_hits - cold_hits
    );

    admin.shutdown().expect("shutdown");
    handle.join();

    // Scaling is only observable with real hardware parallelism; the
    // artifact records the host's CPU budget so readers can tell a flat
    // curve on a 1-core container from a saturated pool.
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let hist_bounds: Vec<String> = HIST_BOUNDS_US.iter().map(|b| b.to_string()).collect();
    let json = format!(
        "{{\"artifact\":\"serve\",\"mode\":\"{}\",\"tree\":\"covid\",\"workers\":{workers},\
         \"shards\":{shards},\"server_threads_expected\":{expected_threads},\"cpus\":{cpus},\
         \"requests_per_phase\":{total},\"mix\":{{\"eval\":0.5,\"check\":0.2,\"prob\":0.2,\"sweep\":0.1}},\
         \"histogram_bounds_us\":[{}],\
         \"cold\":{{\"warmup_ms\":{cold_ms:.3},\"plan_memo_misses\":{cold_misses},\"plan_memo_hits\":{cold_hits}}},\
         \"warm\":{{\"plan_rebuilds\":{plan_rebuilds},\"plan_memo_misses_added\":{},\"plan_memo_hits_added\":{}}},\
         \"scaling\":[{scaling_rows}]}}\n",
        if smoke { "smoke" } else { "full" },
        hist_bounds.join(","),
        warm_misses - cold_misses,
        warm_hits - cold_hits
    );
    let path = "BENCH_serve.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nwrote {path} (max throughput {:.0} req/s)",
            throughputs.iter().cloned().fold(0.0f64, f64::max)
        ),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// MC: the Monte Carlo estimator of the uncertainty engine —
/// samples/sec over 1→N workers (with the byte-identity determinism
/// cross-check the engine promises at any thread count), the
/// MC-vs-exact error curve over growing sample budgets, and an
/// estimate + Wilson CI on a random tree far beyond what this binary
/// ever hands to the exact BDD path. Writes the `BENCH_mc.json`
/// artifact.
fn mc_bench(smoke: bool) {
    use bfl_core::quant;
    use bfl_core::uncertainty::estimate_probability;
    use bfl_core::{Formula, ModelChecker};

    banner("MC — Monte Carlo estimator: throughput, error curve, beyond-exact scale");

    // Part 1: samples/sec vs worker count on the COVID tree. The same
    // (seed, samples) pair must produce a byte-identical estimate at
    // every worker count — chunk-owned seed streams, not per-thread
    // ones — so the scaling series doubles as a determinism check.
    let tree = corpus::covid();
    let n = tree.num_basic_events();
    let probs: Vec<f64> = (0..n)
        .map(|i| 0.02 + 0.9 * (i as f64) / (n as f64))
        .collect();
    let top_name = tree.name(tree.top()).to_string();
    let phi = Formula::atom(&top_name);
    let samples: u64 = if smoke { 40_000 } else { 2_000_000 };
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(1, 8);
    let mut thread_counts = vec![1usize];
    let mut t = 2usize;
    while t < max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    if max_threads > 1 {
        thread_counts.push(max_threads);
    }

    println!("throughput: P({top_name}) on covid · {samples} samples · seed 42");
    println!("{:>8} {:>10} {:>14}", "threads", "ms", "samples/s");
    let mut throughput_rows = String::new();
    let mut reference_bits: Option<u64> = None;
    for &threads in &thread_counts {
        let start = std::time::Instant::now();
        let est = estimate_probability(&tree, &probs, &phi, None, &[], samples, 42, 0.99, threads)
            .expect("estimates")
            .expect("unconditional");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let rate = samples as f64 / (ms / 1000.0).max(1e-9);
        match reference_bits {
            None => reference_bits = Some(est.point.to_bits()),
            Some(bits) => assert_eq!(
                bits,
                est.point.to_bits(),
                "estimate must be byte-identical at {threads} threads"
            ),
        }
        println!("{threads:>8} {ms:>10.2} {rate:>14.0}");
        if !throughput_rows.is_empty() {
            throughput_rows.push(',');
        }
        throughput_rows.push_str(&format!(
            "{{\"threads\":{threads},\"ms\":{ms:.3},\"samples_per_sec\":{rate:.0}}}"
        ));
    }
    // On a single-core host the timing loop only ran one worker count;
    // still prove byte-identity by re-running oversubscribed.
    if max_threads == 1 {
        for threads in [2usize, 8] {
            let est =
                estimate_probability(&tree, &probs, &phi, None, &[], samples, 42, 0.99, threads)
                    .expect("estimates")
                    .expect("unconditional");
            assert_eq!(
                reference_bits,
                Some(est.point.to_bits()),
                "estimate must be byte-identical at {threads} threads"
            );
        }
    }

    // Part 2: MC vs exact — absolute error and CI coverage over growing
    // sample budgets, against the exact Shannon-walk probability.
    let mut checker = ModelChecker::new(&tree);
    let exact = quant::probability(&mut checker, &phi, &probs).expect("exact");
    let budgets: &[u64] = if smoke {
        &[1_000, 4_000, 16_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    println!("\nerror curve: exact P({top_name}) = {exact:.6} · 99% CIs · seed 7");
    println!(
        "{:>10} {:>12} {:>12} {:>24} {:>7}",
        "samples", "estimate", "abs error", "99% CI", "covers"
    );
    let mut curve_rows = String::new();
    for &budget in budgets {
        let est =
            estimate_probability(&tree, &probs, &phi, None, &[], budget, 7, 0.99, max_threads)
                .expect("estimates")
                .expect("unconditional");
        let err = (est.point - exact).abs();
        let covers = est.ci_lo <= exact && exact <= est.ci_hi;
        println!(
            "{budget:>10} {:>12.6} {err:>12.6} [{:.6}, {:.6}]   {covers:>5}",
            est.point, est.ci_lo, est.ci_hi
        );
        if !curve_rows.is_empty() {
            curve_rows.push(',');
        }
        curve_rows.push_str(&format!(
            "{{\"samples\":{budget},\"estimate\":{},\"abs_error\":{err:.8},\
             \"ci_lo\":{},\"ci_hi\":{},\"ci_contains_exact\":{covers}}}",
            est.point, est.ci_lo, est.ci_hi
        ));
    }

    // Part 3: a random tree an order of magnitude beyond anything else
    // this binary compiles. The estimator never builds a BDD, so cost
    // stays linear in (tree size × samples) no matter how the ordering
    // heuristics would fare.
    let (nb, ng) = if smoke { (300, 200) } else { (2000, 1400) };
    let big = random_tree(&RandomTreeConfig {
        num_basic: nb,
        num_gates: ng,
        max_children: 4,
        vot_probability: 0.1,
        seed: 9,
    });
    let nb_actual = big.num_basic_events();
    let big_probs: Vec<f64> = (0..nb_actual)
        .map(|i| 0.001 + 0.05 * (i as f64) / (nb_actual as f64))
        .collect();
    let big_phi = Formula::atom(big.name(big.top()));
    let big_samples: u64 = if smoke { 5_000 } else { 200_000 };
    let start = std::time::Instant::now();
    let est = estimate_probability(
        &big,
        &big_probs,
        &big_phi,
        None,
        &[],
        big_samples,
        11,
        0.99,
        max_threads,
    )
    .expect("estimates")
    .expect("unconditional");
    let big_ms = start.elapsed().as_secs_f64() * 1000.0;
    let big_name = format!("rand-{nb}x{ng}-s9");
    println!(
        "\nbeyond-exact: {big_name} — {nb_actual} basic events, {} gates, no BDD compiled",
        big.num_gates()
    );
    println!(
        "P(top) ≈ {:.6} (99% CI [{:.6}, {:.6}], {big_samples} samples, {big_ms:.1} ms)",
        est.point, est.ci_lo, est.ci_hi
    );

    let json = format!(
        "{{\"artifact\":\"mc\",\"mode\":\"{}\",\"confidence\":0.99,\
         \"throughput\":{{\"tree\":\"covid\",\"samples\":{samples},\"seed\":42,\
         \"deterministic_across_threads\":true,\"threads\":[{throughput_rows}]}},\
         \"error_curve\":{{\"tree\":\"covid\",\"exact\":{exact},\"seed\":7,\
         \"points\":[{curve_rows}]}},\
         \"beyond_exact\":{{\"tree\":\"{big_name}\",\"basic_events\":{nb_actual},\
         \"gates\":{},\"bdd_compiled\":false,\"samples\":{big_samples},\"seed\":11,\
         \"estimate\":{},\"ci_lo\":{},\"ci_hi\":{},\"ms\":{big_ms:.3}}}}}\n",
        if smoke { "smoke" } else { "full" },
        big.num_gates(),
        est.point,
        est.ci_lo,
        est.ci_hi
    );
    let path = "BENCH_mc.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// CAUSE: the actual-causality layer — a prepared `cause(ϕ, evidence)`
/// plan swept over per-event what-if scenarios, cold (filling the
/// scenario memo, pinning + maximal-zeros per observation) vs warm
/// (pure memo lookups), plus a recompile-per-scenario baseline through
/// the session path. Records causes/sec and witness counts vs tree
/// size. Writes the `BENCH_cause.json` artifact.
fn cause_bench(smoke: bool) {
    use bfl_core::engine::AnalysisSession;
    use bfl_core::scenario::{Scenario, ScenarioSet};
    use bfl_core::{Formula, Query};
    use bfl_fault_tree::FaultTree;

    banner("CAUSE — actual causes: prepared sweep (cold vs warm) vs session path");
    let mut trees: Vec<(String, FaultTree)> = vec![
        ("fig1".into(), corpus::fig1()),
        ("covid".into(), corpus::covid()),
    ];
    if !smoke {
        trees.push(("pressure_tank".into(), corpus::pressure_tank()));
        trees.push(("attack_tree".into(), corpus::attack_tree()));
        for &(nb, ng, seed) in &[(16, 10, 1u64), (24, 16, 7), (32, 20, 13)] {
            let tree = random_tree(&RandomTreeConfig {
                num_basic: nb,
                num_gates: ng,
                max_children: 3,
                vot_probability: 0.1,
                seed,
            });
            trees.push((format!("rand-{nb}x{ng}-s{seed}"), tree));
        }
    }

    println!(
        "{:<18} {:>6} {:>10} {:>8} {:>11} {:>11} {:>11} {:>12}",
        "tree", "basic", "scenarios", "causes", "session ms", "cold ms", "warm ms", "warm c/s"
    );
    let mut rows = String::new();
    for (name, tree) in &trees {
        let n = tree.num_basic_events();
        let top = Formula::atom(tree.name(tree.top()));
        // The plan's own evidence fixes every other event as failed; the
        // scenarios vary the remaining half (query evidence wins any
        // conflict, so only the free half is swept). The all-failed
        // baseline makes the witness count track the cut-set structure.
        let names = tree.basic_event_names();
        let evidence: Vec<(String, bool)> = names
            .iter()
            .step_by(2)
            .map(|e| (e.to_string(), true))
            .collect();
        let free: Vec<&str> = names.iter().skip(1).step_by(2).copied().collect();
        let query = Query::cause(top, evidence);
        // Fail and repair each free event in turn, plus the all-failed
        // worst case — "which repairs still leave this event causal?".
        let mut set = ScenarioSet::new();
        for event in &free {
            set.push(Scenario::new().bind(*event, true));
            set.push(Scenario::new().bind(*event, false));
        }
        let mut all_failed = Scenario::new();
        for event in &free {
            all_failed = all_failed.bind(*event, true);
        }
        set.push(all_failed);
        let session = AnalysisSession::builder()
            .witness_limit(1 << 16)
            .build(tree.clone());

        // Session path: re-check the full query per scenario (fresh
        // restriction + enumeration each time, no plan reuse).
        let t = std::time::Instant::now();
        let topname = tree.name(tree.top()).to_string();
        let mut session_causes = 0usize;
        for s in &set {
            let o = session
                .check_query(&s.specialise_query(&query, &topname))
                .expect("session cause");
            session_causes += o.causes.as_ref().map_or(0, |r| r.causes.len());
        }
        let t_session = t.elapsed();

        // Prepared path: compile once, sweep cold (fills the scenario
        // memo) then warm (pure lookups).
        let t = std::time::Instant::now();
        let prepared = session.prepare(&query).expect("prepares");
        let cold = prepared.sweep_causes(&set).expect("cold sweep");
        let t_cold = t.elapsed();
        let t = std::time::Instant::now();
        let warm = prepared.sweep_causes(&set).expect("warm sweep");
        let t_warm = t.elapsed();

        // Cross-checks: all three passes agree, and the warm sweep never
        // computed a fresh restriction.
        let causes_of = |outcomes: &[bfl_core::report::Outcome]| -> usize {
            outcomes
                .iter()
                .map(|o| o.causes.as_ref().map_or(0, |r| r.causes.len()))
                .sum()
        };
        let total_causes = causes_of(&cold.outcomes);
        assert_eq!(total_causes, session_causes, "{name}: paths diverged");
        assert_eq!(total_causes, causes_of(&warm.outcomes));
        assert_eq!(warm.stats.memo_misses, 0, "{name}: warm sweep missed");
        let truncated = cold
            .outcomes
            .iter()
            .any(|o| o.causes.as_ref().is_some_and(|r| r.truncated));
        assert!(!truncated, "{name}: enumeration hit the witness limit");

        let session_ms = t_session.as_secs_f64() * 1000.0;
        let cold_ms = t_cold.as_secs_f64() * 1000.0;
        let warm_ms = t_warm.as_secs_f64() * 1000.0;
        let cold_cps = total_causes as f64 / (t_cold.as_secs_f64()).max(1e-9);
        let warm_cps = total_causes as f64 / (t_warm.as_secs_f64()).max(1e-9);
        println!(
            "{:<18} {:>6} {:>10} {:>8} {:>11.3} {:>11.3} {:>11.3} {:>12.0}",
            name,
            n,
            set.len(),
            total_causes,
            session_ms,
            cold_ms,
            warm_ms,
            warm_cps
        );
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            "{{\"tree\":\"{name}\",\"basic_events\":{n},\"scenarios\":{},\
             \"total_causes\":{total_causes},\"session_ms\":{session_ms:.3},\
             \"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
             \"cold_causes_per_sec\":{cold_cps:.0},\"warm_causes_per_sec\":{warm_cps:.0},\
             \"cold_memo_misses\":{},\"warm_memo_hits\":{}}}",
            set.len(),
            cold.stats.memo_misses,
            warm.stats.memo_hits,
        ));
    }
    let json = format!(
        "{{\"artifact\":\"cause\",\"mode\":\"{}\",\
         \"query\":\"cause(top, evens-failed)\",\"baseline\":\"recheck-per-scenario\",\
         \"trees\":[{rows}]}}\n",
        if smoke { "smoke" } else { "full" }
    );
    let path = "BENCH_cause.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// SCALE: the industrial corpus (1k–10k basic events) compiled by the
/// sequential `element_bdd` translation under each variable ordering,
/// timed over `COMPILES` fresh compiles (min and median), with the
/// top-event and live diagram sizes. For the default DFS order it also
/// reports the arena the compile allocated: a live count alone hides the
/// garbage that intermediate results leave behind. Every top-event
/// diagram is cross-checked against the tree's own structure function
/// (`FaultTree::evaluate`) on 20 seeded status vectors. Each model's
/// Galileo text with probabilities, what a served `load` carries, is
/// parsed `COMPILES` times (min and median), and the reparsed tree must
/// compile to the same `P(top)` bits. Writes the `BENCH_scale.json`
/// artifact.
fn scale_bench(smoke: bool) {
    use bfl_fault_tree::{galileo, prob};

    banner("SCALE — industrial corpus: sequential BDD construction");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    let sizes: &[usize] = if smoke {
        &[1_000, 5_000]
    } else {
        &[1_000, 2_000, 5_000, 10_000]
    };
    const VECTORS: u64 = 20;
    const COMPILES: usize = 3;
    println!(
        "\n{:<12} {:<11} {:>9} {:>11} {:>11} {:>10} {:>9} {:>9} {:>9} {:>9} {:>13}",
        "tree",
        "ordering",
        "top nodes",
        "live nodes",
        "arena nodes",
        "alloc/live",
        "min ms",
        "med ms",
        "parse min",
        "parse med",
        "P(top)"
    );
    let mut rows = String::new();
    for &n in sizes {
        let model = corpus::scaled_model(n);
        let tree = &model.tree;
        let probs: Vec<f64> = model.probabilities.iter().map(|p| p.unwrap()).collect();

        // Per ordering: the last compile and its min and median time.
        let compile = |ordering: VariableOrdering| {
            let mut times_ms = Vec::with_capacity(COMPILES);
            let mut compiled = None;
            for _ in 0..COMPILES {
                let t0 = std::time::Instant::now();
                let mut tb = TreeBdd::new(tree, ordering);
                let top = tb.element_bdd(tree, tree.top());
                times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                compiled = Some((tb, top));
            }
            let (tb, top) = compiled.expect("at least one compile");
            times_ms.sort_by(f64::total_cmp);
            // The compiled top event agrees with the structure function.
            for seed in 0..VECTORS {
                let bits: Vec<bool> = (0..n)
                    .map(|i| {
                        (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95))
                        .count_ones()
                        .is_multiple_of(2)
                    })
                    .collect();
                let b = StatusVector::from_bits(bits);
                assert_eq!(
                    tb.eval_vector(tree, top, &b),
                    tree.evaluate(&b, tree.top()),
                    "scaled-{n} ({ordering:?}): BDD verdict differs from the structure function"
                );
            }
            (tb, top, times_ms[0], times_ms[COMPILES / 2])
        };
        // The default order first, timed as the artifact always has.
        let (tb, top, min_ms, median_ms) = compile(VariableOrdering::DfsPreorder);
        let top_nodes = tb.manager().node_count(top);
        let live = tb.live_node_count(&[]);
        let arena = tb.manager().arena_size();
        let alloc_per_live = arena as f64 / live as f64;
        let p_top = prob::bdd_probability(tree, &tb, top, &probs).expect("probability");

        let text = galileo::to_galileo(tree, Some(&model.probabilities));
        let mut parse_ms = Vec::with_capacity(COMPILES);
        let mut reparsed = None;
        for _ in 0..COMPILES {
            let t0 = std::time::Instant::now();
            let parsed = galileo::parse(&text).expect("emitted model parses");
            parse_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            reparsed = Some(parsed);
        }
        parse_ms.sort_by(f64::total_cmp);
        let (parse_min, parse_median) = (parse_ms[0], parse_ms[COMPILES / 2]);
        let reparsed = reparsed.expect("at least one parse");
        let reprobs: Vec<f64> = reparsed.probabilities.iter().map(|p| p.unwrap()).collect();
        let mut retb = TreeBdd::new(&reparsed.tree, VariableOrdering::DfsPreorder);
        let retop = retb.element_bdd(&reparsed.tree, reparsed.tree.top());
        let p_reparsed =
            prob::bdd_probability(&reparsed.tree, &retb, retop, &reprobs).expect("probability");
        assert_eq!(
            p_reparsed.to_bits(),
            p_top.to_bits(),
            "scaled-{n}: the reparsed model's P(top) differs"
        );

        println!(
            "{:<12} {:<11} {:>9} {:>11} {:>11} {:>10.2} {:>9.1} {:>9.1} {:>9.2} {:>9.2} {:>13.6e}",
            format!("scaled-{n}"),
            "dfs",
            top_nodes,
            live,
            arena,
            alloc_per_live,
            min_ms,
            median_ms,
            parse_min,
            parse_median,
            p_top
        );
        let mut others = String::new();
        for ordering in VariableOrdering::all() {
            let name = match ordering {
                VariableOrdering::DfsPreorder => continue,
                VariableOrdering::Declaration => "declaration",
                other => unreachable!("unnamed ordering {other:?}"),
            };
            let (tb, top, min_ms, median_ms) = compile(ordering);
            let top_nodes = tb.manager().node_count(top);
            let live = tb.live_node_count(&[]);
            let arena = tb.manager().arena_size();
            println!(
                "{:<12} {name:<11} {top_nodes:>9} {live:>11} {arena:>11} {:>10.2} {min_ms:>9.1} \
                 {median_ms:>9.1}",
                "",
                arena as f64 / live as f64
            );
            others.push_str(&format!(
                ",\"{name}\":{{\"top_nodes\":{top_nodes},\"live_nodes\":{live},\
                 \"arena_nodes\":{arena},\"seq_ms_min\":{min_ms:.3},\"seq_ms_median\":{median_ms:.3}}}"
            ));
        }
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            "{{\"tree\":\"scaled-{n}\",\"basic_events\":{n},\"elements\":{},\
             \"top_nodes\":{top_nodes},\"live_nodes\":{live},\"arena_nodes\":{arena},\
             \"alloc_per_live\":{alloc_per_live:.3},\"probability\":{p_top:e},\
             \"compiles\":{COMPILES},\"seq_ms_min\":{min_ms:.3},\"seq_ms_median\":{median_ms:.3},\
             \"model_bytes\":{},\"parse_ms_min\":{parse_min:.3},\"parse_ms_median\":{parse_median:.3},\
             \"reparsed_probability_matches\":true,\
             \"vectors_checked\":{VECTORS},\"verdicts_match_evaluate\":true{others}}}",
            tree.len(),
            text.len(),
        ));
    }
    let json = format!(
        "{{\"artifact\":\"scale\",\"mode\":\"{}\",\"host_parallelism\":{host},\
         \"compile\":\"sequential element_bdd\",\"trees\":[{rows}]}}\n",
        if smoke { "smoke" } else { "full" }
    );
    let path = "BENCH_scale.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
