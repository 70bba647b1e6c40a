//! Argument parsing and command dispatch (no external dependencies).
//!
//! Every command is a thin veneer over one [`AnalysisSession`]: options
//! configure the session once (ordering, minimality scope,
//! probabilities from the model's `prob=` annotations) and the
//! command methods map 1:1 onto session methods. `--json` switches any
//! query command to the structured [`Report`](bfl_core::Report) schema.
//! The `sweep` and `explain` commands go through
//! [`AnalysisSession::prepare`]: compile the query once, evaluate a
//! scenario file by BDD restriction, or print the compiled
//! [`Plan`](bfl_core::Plan).

use std::fmt::Write as _;

use bfl_core::engine::AnalysisSession;
use bfl_core::parser::{parse_formula, parse_spec};
use bfl_core::report::{json_estimate, json_interval, json_name_sets, Spec, SpecItem};
use bfl_core::scenario::ScenarioSet;
use bfl_core::uncertainty::{
    Method, ProbValue, DEFAULT_MC_CONFIDENCE, DEFAULT_MC_SAMPLES, DEFAULT_MC_SEED,
};
use bfl_core::{Counterexample, MinimalityScope};
use bfl_fault_tree::{galileo, StatusVector, VariableOrdering};

const USAGE: &str = "\
bfl — Boolean Fault tree Logic (DSN 2022) command line

USAGE:
    bfl <COMMAND> --ft <FILE> [OPTIONS] [ARGS]

COMMANDS:
    check    check a formula against a status vector, or a query
    run      evaluate a batch spec file (one query per line) in one pass
    sweep    prepare a query once, evaluate it under a file of what-if
             scenarios (evidence bindings) by BDD restriction
    explain  show the compiled query plan (pass sizes, BDD statistics)
    sat      enumerate all satisfying status vectors of a formula
    count    count the satisfying status vectors of a formula
    mcs      minimal cut sets of an element (default: the top event)
    mps      minimal path sets of an element (default: the top event)
    cex      counterexample for a formula that the vector fails
    ibe      influencing basic events of a formula
    render   failure propagation of a status vector through the tree
    dot      Graphviz export of the tree (optionally with a vector)
    cause    actual causes of a failing observation: the subset-minimal
             sets of failed events whose repair flips the verdict of a
             formula (default: the top event); --failed gives the
             observation, an optional trailing count bounds the
             enumeration like `causes(ϕ, E, k)`
    prob     probability of a formula (default: the top event) from the
             model's prob= annotations; a second formula argument
             conditions it: prob 'FORMULA' ['GIVEN']; see --method for
             interval propagation and Monte Carlo estimation
    importance  rank every basic event by quantitative importance for a
             formula (Birnbaum, criticality, Fussell-Vesely, RAW, RRW)
    modules  list the gates that are independent modules
    lint     static analysis of a model (and optionally a spec file):
             structural defects, degenerate annotations, trivial or
             contradictory formulas; see LINT below and docs/lint.md
    generate emit a seeded industrial fault tree in Galileo format to
             stdout (no --ft); shape it with the GENERATOR flags below
    serve    run the concurrent analysis service (JSON-lines over TCP);
             no --ft — models are loaded over the protocol
    client   send JSON-lines requests to a running server (from the
             arguments, or stdin when none are given)
    help     print this message

OPTIONS:
    --ft <FILE>        fault tree in Galileo format (required)
    --failed <A,B,C>   comma-separated failed basic events (default: none)
    --support-scope    use support-relative MCS/MPS minimality (Table I reading)
    --ordering <ORD>   BDD variable ordering: dfs (default) or declaration
    --json             structured JSON output (check, run, sweep, explain,
                       sat, count, mcs, mps, ibe, prob, importance)

UNCERTAINTY (prob, check, run, sweep):
    --method <M>       probability method: exact (default), interval
                       (conservative [lo, hi] propagation of ranged
                       `prob=lo..hi` annotations), mc (deterministic
                       Monte Carlo estimation, no BDD compile)
    --samples <N>      mc: status vectors to draw (default 100000)
    --seed <N>         mc: base seed (default 42); equal (seed, samples)
                       reproduce the estimate bit-for-bit at any thread
                       count
    --confidence <X>   mc: Wilson confidence level in (0,1), default 0.99

LINT (lint):
    bfl lint --ft <FILE> [SPEC_FILE] [--json] [--deny warnings]
             [--select L001,L005] [--ignore L004]
    --deny <LEVEL>     exit with failure when a diagnostic at or above
                       LEVEL remains: `warnings` (the CI gate), `info`
                       (everything), `errors`
    --select <CODES>   check only these comma-separated codes
    --ignore <CODES>   drop these comma-separated codes
    diagnostics carry `file:line:col` locations when the model source
    declares the element explicitly; every code is documented with a
    triggering example and its fix in docs/lint.md

GENERATOR (generate):
    --events <N>       basic-event count (default 1000)
    --modules <M>      independent top-level modules (default events/64,
                       at least 2)
    --depth <D>        gate layers per module (default 5)
    --fan <LO:HI>      children per gate, inclusive range (default 2:4)
    --and-bias <X>     probability a gate is AND rather than OR, in
                       [0,1] (default 0.4)
    --vot <X>          VOT(k/N) gate density in [0,1] (default 0.1)
    --sharing <X>      intra-module DAG-sharing rate in [0,1]
                       (default 0.15)
    --prob <LO:HI>     log-uniform basic-event probability range
                       (default 1e-5:1e-2)
    --bare             omit prob= annotations
    --seed <N>         generator seed (default: derived from --events;
                       equal flags reproduce the tree byte-for-byte)

SERVING (serve, client):
    --addr <HOST:PORT> listen/connect address (default 127.0.0.1:7878;
                       port 0 picks a free port and prints it)
    --workers <N>      serve: worker threads (default: CPU count)
    --shards <N>       serve: connection shard threads (default: CPU
                       count capped at 4); connections scale without
                       growing the thread count
    --queue <N>        serve: bounded request-queue capacity (default 64);
                       a full queue answers `busy` instead of buffering
    --max-connections <N>  serve: connection cap (default 1024); beyond
                       it new sockets get a structured `overloaded`
    --max-sessions <N> serve: resident session cap; the least recently
                       used session is evicted at capacity
    --session-inflight <N>  serve: per-session concurrent-request cap;
                       over it requests answer `busy`
    --idle-timeout <SECS>  serve: reap connections silent this long
                       (default: never)
    see docs/server.md for the protocol reference

PROBABILISTIC QUERIES (check, run, sweep):
    layer-2 judgements `P(FORMULA) ▷◁ p`, `P(FORMULA | GIVEN) ▷◁ p` and
    `importance(FORMULA)` work wherever a query does, e.g.
    `bfl check --ft covid.dft 'P(IWoS) <= 0.01'` — the model must carry
    prob= annotations

SCENARIO FILES (sweep):
    one scenario per line: `label: event = 0|1, event = 0|1, ...`
    a label with no bindings is the baseline; `#` comments are skipped

EXAMPLES:
    bfl mcs --ft covid.dft
    bfl explain --ft covid.dft --ordering declaration 'exists MCS(IWoS)'
    bfl check --ft covid.dft 'forall IS => MoT'
    bfl check --ft covid.dft --failed IW,H3 'MCS(\"CP/R\")'
    bfl run --ft covid.dft properties.bfl --json
    bfl sweep --ft covid.dft 'exists IWoS' whatif.scenarios
    bfl explain --ft covid.dft 'forall VOT(>=2; H1, H2, H3, H4, H5) => IWoS'
    bfl cex --ft covid.dft --failed IW,H3,IT 'MCS(\"CP/R\")'
    bfl check --ft covid.dft 'P(IWoS | H1) <= 0.05'
    bfl cause --ft covid.dft --failed IW,H3,PP,H1,VW IWoS
    bfl check --ft covid.dft 'cause(IWoS, IW := 1, H3 := 1)'
    bfl prob --ft covid.dft 'MCS(IWoS)'
    bfl prob --ft ranged.dft --method interval
    bfl prob --ft huge.dft --method mc --samples 500000 --seed 7
    bfl importance --ft covid.dft IWoS --json
    bfl lint --ft covid.dft properties.bfl --deny warnings
    bfl lint --ft covid.dft --json --ignore L004
    bfl serve --addr 127.0.0.1:7878 --workers 8
    bfl client --addr 127.0.0.1:7878 '{\"op\":\"stats\"}'
";

/// Parsed common options: one configured session plus command arguments.
struct Options {
    session: AnalysisSession,
    failed: Vec<String>,
    json: bool,
    /// `Some` when any of the `--method`/sampler flags was given (the
    /// session default is already set from it); `sweep` uses this to
    /// route probability judgements through the method-aware sweep.
    method: Option<Method>,
    positional: Vec<String>,
}

/// Runs the CLI on `args`, returning the stdout payload.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(format!("missing command\n\n{USAGE}"));
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(USAGE.to_string());
    }
    // The serving commands have no fault-tree option (models are loaded
    // over the protocol), so they bypass the session setup entirely.
    // `lint` also parses its model itself: it needs the raw Galileo
    // parse (source locations) that `parse_options` discards.
    match command.as_str() {
        "serve" => return cmd_serve(&args[1..]),
        "client" => return cmd_client(&args[1..]),
        "generate" => return cmd_generate(&args[1..]),
        "lint" => return cmd_lint(&args[1..]),
        _ => {}
    }
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "check" => cmd_check(&opts),
        "run" => cmd_run(&opts),
        "sweep" => cmd_sweep(&opts),
        "explain" => cmd_explain(&opts),
        "sat" => cmd_sat(&opts),
        "count" => cmd_count(&opts),
        "mcs" => cmd_mcs(&opts, true),
        "mps" => cmd_mcs(&opts, false),
        "cex" => cmd_cex(&opts),
        "cause" => cmd_cause(&opts),
        "ibe" => cmd_ibe(&opts),
        "render" => cmd_render(&opts),
        "dot" => cmd_dot(&opts),
        "prob" => cmd_prob(&opts),
        "importance" => cmd_importance(&opts),
        "modules" => cmd_modules(&opts),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut ft_path = None;
    let mut failed = Vec::new();
    let mut support_scope = false;
    let mut ordering = VariableOrdering::DfsPreorder;
    let mut json = false;
    let mut method_name: Option<String> = None;
    let mut samples: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut confidence: Option<f64> = None;
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ft" => {
                i += 1;
                ft_path = Some(args.get(i).ok_or("--ft requires a file argument")?.clone());
            }
            "--failed" => {
                i += 1;
                let list = args.get(i).ok_or("--failed requires a list argument")?;
                failed = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--support-scope" => support_scope = true,
            "--json" => json = true,
            "--ordering" => {
                i += 1;
                let name = args.get(i).ok_or("--ordering requires an argument")?;
                ordering = match name.as_str() {
                    "dfs" => VariableOrdering::DfsPreorder,
                    "declaration" => VariableOrdering::Declaration,
                    other => return Err(format!("unknown ordering `{other}`")),
                };
            }
            "--method" => {
                i += 1;
                let name = args.get(i).ok_or("--method requires an argument")?;
                method_name = Some(name.clone());
            }
            "--samples" => {
                i += 1;
                let n = args.get(i).ok_or("--samples requires a number")?;
                samples = Some(
                    n.parse()
                        .map_err(|_| format!("invalid sample count `{n}`"))?,
                );
            }
            "--seed" => {
                i += 1;
                let n = args.get(i).ok_or("--seed requires a number")?;
                seed = Some(n.parse().map_err(|_| format!("invalid seed `{n}`"))?);
            }
            "--confidence" => {
                i += 1;
                let x = args.get(i).ok_or("--confidence requires a number")?;
                confidence = Some(x.parse().map_err(|_| format!("invalid confidence `{x}`"))?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let ft_path = ft_path.ok_or("missing required option --ft <FILE>")?;
    let method = resolve_method(method_name.as_deref(), samples, seed, confidence)?;
    let text =
        std::fs::read_to_string(&ft_path).map_err(|e| format!("cannot read `{ft_path}`: {e}"))?;
    let model = galileo::parse(&text).map_err(|e| e.to_string())?;
    let scope = if support_scope {
        MinimalityScope::FormulaSupport
    } else {
        MinimalityScope::GlobalUniverse
    };
    let has_intervals = model.has_intervals();
    let mut builder = AnalysisSession::builder()
        .ordering(ordering)
        .minimality_scope(scope)
        .probabilities(model.probabilities);
    if has_intervals {
        builder = builder.intervals(model.intervals);
    }
    if let Some(method) = method {
        builder = builder.method(method);
    }
    let session = builder.build(model.tree);
    Ok(Options {
        session,
        failed,
        json,
        method,
        positional,
    })
}

/// Combines `--method` with the sampler flags. Sampler flags alone
/// imply `--method mc`; with an explicit non-`mc` method they are an
/// error, not silently ignored.
fn resolve_method(
    name: Option<&str>,
    samples: Option<u64>,
    seed: Option<u64>,
    confidence: Option<f64>,
) -> Result<Option<Method>, String> {
    let sampler_flags = samples.is_some() || seed.is_some() || confidence.is_some();
    let method = match name {
        Some(name) => Some(name.parse::<Method>()?),
        None if sampler_flags => Some(Method::mc()),
        None => None,
    };
    match method {
        Some(Method::Mc { .. }) => Ok(Some(Method::Mc {
            samples: samples.unwrap_or(DEFAULT_MC_SAMPLES),
            seed: seed.unwrap_or(DEFAULT_MC_SEED),
            confidence: confidence.unwrap_or(DEFAULT_MC_CONFIDENCE),
        })),
        Some(other) if sampler_flags => Err(format!(
            "--samples/--seed/--confidence apply to --method mc, not `{other}`"
        )),
        other => Ok(other),
    }
}

fn vector(opts: &Options) -> Result<StatusVector, String> {
    opts.session
        .vector_of_failed(&opts.failed)
        .map_err(|e| match e {
            bfl_core::BflError::UnknownElement(n) => {
                format!("unknown element `{n}` in --failed")
            }
            bfl_core::BflError::EvidenceOnGate(n) => {
                format!("`{n}` is a gate; --failed takes basic events")
            }
            other => other.to_string(),
        })
}

fn spec_arg(opts: &Options) -> Result<&str, String> {
    opts.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "missing formula/query argument".to_string())
}

/// Runs a one-item spec through the session, rendering text or JSON.
fn report_one(opts: &Options, item: SpecItem) -> Result<String, String> {
    let spec = Spec::from_items([item]);
    let report = opts.session.run(&spec).map_err(|e| e.to_string())?;
    if opts.json {
        Ok(format!("{}\n", report.to_json()))
    } else {
        let o = &report.outcomes[0];
        Ok(format!("{}\n", o.holds))
    }
}

fn cmd_check(opts: &Options) -> Result<String, String> {
    let parsed = parse_spec(spec_arg(opts)?).map_err(|e| e.to_string())?;
    let item = match parsed {
        bfl_core::parser::Spec::Query(q) => SpecItem::query(q),
        bfl_core::parser::Spec::Formula(f) => SpecItem::vector(opts.failed.clone(), f),
    };
    report_one(opts, item)
}

fn cmd_run(opts: &Options) -> Result<String, String> {
    if !opts.failed.is_empty() {
        return Err(
            "--failed does not apply to `run`; give each formula line its own \
             `[A, B]` failed-events prefix in the spec file"
                .to_string(),
        );
    }
    let path = spec_arg(opts)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec `{path}`: {e}"))?;
    let spec = Spec::parse(&text).map_err(|e| e.to_string())?;
    let report = opts.session.run(&spec).map_err(|e| e.to_string())?;
    if opts.json {
        Ok(format!("{}\n", report.to_json()))
    } else {
        Ok(report.to_string())
    }
}

/// Prepares the positional query once; shared by `sweep` and `explain`.
fn prepare_query(opts: &Options, command: &str) -> Result<bfl_core::PreparedQuery, String> {
    if !opts.failed.is_empty() {
        return Err(format!(
            "--failed does not apply to `{command}`; evidence goes into the \
             scenario bindings (`event = 1` marks a failed event)"
        ));
    }
    let q = bfl_core::parser::parse_query(spec_arg(opts)?).map_err(|e| e.to_string())?;
    opts.session.prepare(&q).map_err(|e| e.to_string())
}

fn cmd_sweep(opts: &Options) -> Result<String, String> {
    let prepared = prepare_query(opts, "sweep")?;
    let path = opts
        .positional
        .get(1)
        .ok_or("sweep needs a scenarios file: bfl sweep --ft <FILE> '<QUERY>' <SCENARIOS>")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read scenarios `{path}`: {e}"))?;
    let set = ScenarioSet::parse(&text).map_err(|e| e.to_string())?;
    if set.is_empty() {
        return Err(format!("no scenarios in `{path}`"));
    }
    // An explicit --method routes probability judgements through the
    // method-aware sweep (probabilities, intervals or estimates per
    // scenario); everything else takes the Boolean sweep.
    if opts.method.is_some() && prepared.is_probability_judgement() {
        let report = prepared
            .sweep_probabilities_with(&set, None)
            .map_err(|e| e.to_string())?;
        return if opts.json {
            Ok(format!("{}\n", report.to_json()))
        } else {
            Ok(report.to_string())
        };
    }
    let report = prepared.sweep(&set).map_err(|e| e.to_string())?;
    if opts.json {
        Ok(format!("{}\n", report.to_json()))
    } else {
        Ok(report.to_string())
    }
}

fn cmd_explain(opts: &Options) -> Result<String, String> {
    let prepared = prepare_query(opts, "explain")?;
    let plan = prepared.explain();
    if opts.json {
        Ok(format!("{}\n", plan.to_json()))
    } else {
        Ok(plan.to_string())
    }
}

fn cmd_sat(opts: &Options) -> Result<String, String> {
    let f = parse_formula(spec_arg(opts)?).map_err(|e| e.to_string())?;
    let vectors = opts
        .session
        .satisfying_vectors(&f)
        .map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(format!(
            "{}\n",
            json_name_sets(&opts.session.vectors_to_failed_sets(&vectors))
        ));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} satisfying vectors", vectors.len());
    for v in &vectors {
        let _ = writeln!(
            out,
            "{v}  {{{}}}",
            v.failed_names(opts.session.tree()).join(", ")
        );
    }
    Ok(out)
}

fn cmd_count(opts: &Options) -> Result<String, String> {
    let f = parse_formula(spec_arg(opts)?).map_err(|e| e.to_string())?;
    let n = opts
        .session
        .count_satisfying(&f)
        .map_err(|e| e.to_string())?;
    if opts.json {
        Ok(format!("{{\"count\":{n}}}\n"))
    } else {
        Ok(format!("{n}\n"))
    }
}

fn cmd_mcs(opts: &Options, cuts: bool) -> Result<String, String> {
    let element = opts.positional.first().cloned().unwrap_or_else(|| {
        let tree = opts.session.tree();
        tree.name(tree.top()).to_string()
    });
    let sets = if cuts {
        opts.session.minimal_cut_sets(&element)
    } else {
        opts.session.minimal_path_sets(&element)
    }
    .map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(format!("{}\n", json_name_sets(&sets)));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} minimal {} sets of {element}",
        sets.len(),
        if cuts { "cut" } else { "path" }
    );
    for s in &sets {
        let _ = writeln!(out, "{{{}}}", s.join(", "));
    }
    Ok(out)
}

fn cmd_cex(opts: &Options) -> Result<String, String> {
    let f = parse_formula(spec_arg(opts)?).map_err(|e| e.to_string())?;
    let b = vector(opts)?;
    match opts
        .session
        .counterexample(&b, &f)
        .map_err(|e| e.to_string())?
    {
        Counterexample::AlreadySatisfies => Ok("vector already satisfies the formula\n".into()),
        Counterexample::Unsatisfiable => Ok("formula is unsatisfiable\n".into()),
        Counterexample::Found(v) => {
            let tree = opts.session.tree();
            let mut out = String::new();
            let _ = writeln!(
                out,
                "counterexample: {v}  {{{}}}",
                v.failed_names(tree).join(", ")
            );
            out.push_str(&bfl_core::render::counterexample_report(tree, &b, &v));
            Ok(out)
        }
    }
}

fn cmd_cause(opts: &Options) -> Result<String, String> {
    // The observation comes from --failed (everything else operational);
    // the formula defaults to the top event, and an optional trailing
    // count bounds the enumeration like the `causes(ϕ, E, k)` query.
    let phi = match opts.positional.first() {
        Some(src) => parse_formula(src).map_err(|e| e.to_string())?,
        None => {
            let tree = opts.session.tree();
            bfl_core::Formula::atom(tree.name(tree.top()))
        }
    };
    let evidence: Vec<(String, bool)> = opts.failed.iter().map(|n| (n.clone(), true)).collect();
    let q = match opts.positional.get(1) {
        Some(k) => {
            let k: u32 = k
                .parse()
                .map_err(|_| format!("invalid cause count `{k}`"))?;
            bfl_core::Query::causes(phi, evidence, k)
        }
        None => bfl_core::Query::cause(phi, evidence),
    };
    let spec = Spec::from_items([SpecItem::query(q)]);
    let report = opts.session.run(&spec).map_err(|e| e.to_string())?;
    if opts.json {
        Ok(format!("{}\n", report.to_json()))
    } else {
        Ok(report.to_string())
    }
}

fn cmd_ibe(opts: &Options) -> Result<String, String> {
    let f = parse_formula(spec_arg(opts)?).map_err(|e| e.to_string())?;
    let ibe = opts
        .session
        .influencing_basic_events(&f)
        .map_err(|e| e.to_string())?;
    if opts.json {
        let names: Vec<Vec<String>> = vec![ibe];
        Ok(format!("{}\n", json_name_sets(&names)))
    } else {
        Ok(format!("{{{}}}\n", ibe.join(", ")))
    }
}

fn cmd_render(opts: &Options) -> Result<String, String> {
    let b = vector(opts)?;
    Ok(bfl_core::render::propagation(opts.session.tree(), &b))
}

fn cmd_dot(opts: &Options) -> Result<String, String> {
    let tree = opts.session.tree();
    if opts.failed.is_empty() {
        Ok(bfl_fault_tree::dot::to_dot(tree))
    } else {
        let b = vector(opts)?;
        Ok(bfl_fault_tree::dot::to_dot_with_status(tree, Some(&b)))
    }
}

fn cmd_prob(opts: &Options) -> Result<String, String> {
    // Bare `prob` is the classic top-event unreliability.
    let phi = match opts.positional.first() {
        Some(src) => parse_formula(src).map_err(|e| e.to_string())?,
        None => {
            let tree = opts.session.tree();
            bfl_core::Formula::atom(tree.name(tree.top()))
        }
    };
    // `prob 'FORMULA' 'GIVEN'`: the conditional form.
    let given = match opts.positional.get(1) {
        Some(src) => Some(parse_formula(src).map_err(|e| e.to_string())?),
        None => None,
    };
    let value = opts
        .session
        .probability_value(&phi, given.as_ref(), None)
        .map_err(|e| e.to_string())?;
    match (value, opts.json) {
        // The exact renderings predate --method and stay byte-stable.
        (Some(ProbValue::Exact(p)), true) => Ok(format!("{{\"probability\":{p}}}\n")),
        (Some(ProbValue::Exact(p)), false) => Ok(format!("{p}\n")),
        (Some(ProbValue::Interval(iv)), true) => Ok(format!(
            "{{\"probability\":null,\"interval\":{},\"method\":\"interval\"}}\n",
            json_interval(&iv)
        )),
        (Some(ProbValue::Interval(iv)), false) => Ok(format!("[{}, {}]\n", iv.lo, iv.hi)),
        (Some(ProbValue::Estimate(e)), true) => Ok(format!(
            "{{\"probability\":null,\"estimate\":{},\"method\":\"mc\"}}\n",
            json_estimate(&e)
        )),
        (Some(ProbValue::Estimate(e)), false) => Ok(format!(
            "≈ {} ({}% CI [{}, {}], {} samples)\n",
            e.point,
            e.confidence * 100.0,
            e.ci_lo,
            e.ci_hi,
            e.samples
        )),
        (None, true) => Ok("{\"probability\":null}\n".to_string()),
        (None, false) => Ok("undefined (condition has probability 0)\n".to_string()),
    }
}

fn cmd_importance(opts: &Options) -> Result<String, String> {
    let phi = match opts.positional.first() {
        Some(src) => parse_formula(src).map_err(|e| e.to_string())?,
        None => {
            let tree = opts.session.tree();
            bfl_core::Formula::atom(tree.name(tree.top()))
        }
    };
    let rows = opts.session.rank_events(&phi).map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(format!("{}\n", bfl_core::report::json_importance(&rows)));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "importance ranking for `{phi}` ({} events)",
        rows.len()
    );
    for r in &rows {
        let _ = writeln!(out, "{}", bfl_core::report::importance_row(r));
    }
    Ok(out)
}

/// Parsed options of the serving commands (`serve`, `client`).
struct ServeOptions {
    addr: String,
    workers: Option<usize>,
    shards: Option<usize>,
    queue: Option<usize>,
    max_connections: Option<usize>,
    max_sessions: Option<usize>,
    session_inflight: Option<usize>,
    idle_timeout: Option<u64>,
    positional: Vec<String>,
}

impl ServeOptions {
    /// Whether any `serve`-only tuning flag was given (the `client`
    /// command shares the parser but rejects these).
    fn has_serve_flags(&self) -> bool {
        self.workers.is_some()
            || self.shards.is_some()
            || self.queue.is_some()
            || self.max_connections.is_some()
            || self.max_sessions.is_some()
            || self.session_inflight.is_some()
            || self.idle_timeout.is_some()
    }
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_string(),
        workers: None,
        shards: None,
        queue: None,
        max_connections: None,
        max_sessions: None,
        session_inflight: None,
        idle_timeout: None,
        positional: Vec::new(),
    };
    // `--flag N` with a ≥1 check shared by every count-valued knob.
    fn positive(args: &[String], i: usize, flag: &str, what: &str) -> Result<usize, String> {
        let n = args
            .get(i)
            .ok_or_else(|| format!("{flag} requires a number"))?;
        let n: usize = n.parse().map_err(|_| format!("invalid {what} `{n}`"))?;
        if n == 0 {
            return Err(format!("{what} must be at least 1"));
        }
        Ok(n)
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args
                    .get(i)
                    .ok_or("--addr requires a HOST:PORT argument")?
                    .clone();
            }
            "--workers" => {
                i += 1;
                opts.workers = Some(positive(args, i, "--workers", "worker count")?);
            }
            "--shards" => {
                i += 1;
                opts.shards = Some(positive(args, i, "--shards", "shard count")?);
            }
            "--queue" => {
                i += 1;
                opts.queue = Some(positive(args, i, "--queue", "queue capacity")?);
            }
            "--max-connections" => {
                i += 1;
                opts.max_connections =
                    Some(positive(args, i, "--max-connections", "connection cap")?);
            }
            "--max-sessions" => {
                i += 1;
                opts.max_sessions = Some(positive(args, i, "--max-sessions", "session cap")?);
            }
            "--session-inflight" => {
                i += 1;
                opts.session_inflight = Some(positive(
                    args,
                    i,
                    "--session-inflight",
                    "per-session in-flight cap",
                )?);
            }
            "--idle-timeout" => {
                i += 1;
                let n = args.get(i).ok_or("--idle-timeout requires seconds")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("invalid idle timeout `{n}`"))?;
                if n == 0 {
                    return Err("idle timeout must be at least 1 second".to_string());
                }
                opts.idle_timeout = Some(n);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => opts.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

/// `bfl lint`: model/spec static analysis. Parses the model itself so
/// diagnostics can point at `file:line:col` via the Galileo location
/// table, which the shared session setup does not keep.
fn cmd_lint(args: &[String]) -> Result<String, String> {
    use bfl_core::lint;

    let mut ft_path: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut json = false;
    let mut deny: Option<lint::Severity> = None;
    let mut select: Option<Vec<String>> = None;
    let mut ignore: Vec<String> = Vec::new();
    let parse_codes = |list: &str| -> Result<Vec<String>, String> {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|code| {
                lint::rule(code)
                    .map(|r| r.code.to_string())
                    .ok_or_else(|| format!("unknown lint code `{code}` (see docs/lint.md)"))
            })
            .collect()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ft" => {
                i += 1;
                ft_path = Some(args.get(i).ok_or("--ft requires a file argument")?.clone());
            }
            "--json" => json = true,
            "--deny" => {
                i += 1;
                let level = args.get(i).ok_or("--deny requires a level argument")?;
                deny = Some(match level.as_str() {
                    "warnings" | "warning" => lint::Severity::Warning,
                    "info" | "all" => lint::Severity::Info,
                    "errors" | "error" => lint::Severity::Error,
                    other => {
                        return Err(format!(
                            "unknown deny level `{other}` (use warnings, info or errors)"
                        ))
                    }
                });
            }
            "--select" => {
                i += 1;
                let list = args.get(i).ok_or("--select requires a code list")?;
                select = Some(parse_codes(list)?);
            }
            "--ignore" => {
                i += 1;
                let list = args.get(i).ok_or("--ignore requires a code list")?;
                ignore = parse_codes(list)?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => {
                if spec_path.is_some() {
                    return Err(format!("unexpected argument `{other}`"));
                }
                spec_path = Some(other.to_string());
            }
        }
        i += 1;
    }
    let ft_path = ft_path.ok_or("missing required option --ft <FILE>")?;
    let text =
        std::fs::read_to_string(&ft_path).map_err(|e| format!("cannot read `{ft_path}`: {e}"))?;
    let mut model = galileo::parse(&text).map_err(|e| e.to_string())?;
    let has_intervals = model.has_intervals();
    let mut builder =
        AnalysisSession::builder().probabilities(std::mem::take(&mut model.probabilities));
    if has_intervals {
        builder = builder.intervals(std::mem::take(&mut model.intervals));
    }
    // The model keeps its tree to resolve diagnostic subjects to source
    // locations.
    let session = builder.build(model.tree.clone());

    let mut diags = match &spec_path {
        None => session.lint(),
        Some(path) => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let spec = Spec::parse(&source).map_err(|e| e.to_string())?;
            session.lint_spec(&spec)
        }
    };
    for d in &mut diags {
        // Model rules subject the raw element name; point them at the
        // declaration when the source text has one.
        if let Some((line, col)) = model.location(&d.subject) {
            d.location = Some(format!("{ft_path}:{line}:{col}"));
        }
    }
    if let Some(keep) = &select {
        diags.retain(|d| keep.contains(&d.code));
    }
    diags.retain(|d| !ignore.contains(&d.code));

    let rendered = if json {
        format!("{}\n", lint::to_json(&diags))
    } else {
        format!("{}\n", lint::render_text(&diags))
    };
    if let Some(threshold) = deny {
        let outstanding = diags.iter().filter(|d| d.severity >= threshold).count();
        if outstanding > 0 {
            return Err(format!(
                "{rendered}lint: {outstanding} diagnostic(s) at or above `{threshold}` (--deny)"
            ));
        }
    }
    Ok(rendered)
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    use bfl_fault_tree::generator::industrial_model;

    fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
        *i += 1;
        args.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires an argument"))
    }
    fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("invalid {flag} value `{value}`"))
    }
    fn parse_unit(value: &str, flag: &str) -> Result<f64, String> {
        let x: f64 = parse_num(value, flag)?;
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{flag} must be in [0,1], got `{value}`"));
        }
        Ok(x)
    }
    fn parse_pair<T: std::str::FromStr>(value: &str, flag: &str) -> Result<(T, T), String> {
        let (lo, hi) = value
            .split_once(':')
            .ok_or_else(|| format!("{flag} takes LO:HI, got `{value}`"))?;
        Ok((parse_num(lo, flag)?, parse_num(hi, flag)?))
    }

    let mut events = 1_000usize;
    let mut modules: Option<usize> = None;
    let mut depth: Option<usize> = None;
    let mut fan: Option<(usize, usize)> = None;
    let mut and_bias: Option<f64> = None;
    let mut vot: Option<f64> = None;
    let mut sharing: Option<f64> = None;
    let mut prob: Option<(f64, f64)> = None;
    let mut seed: Option<u64> = None;
    let mut bare = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--events" => events = parse_num(flag_value(args, &mut i, "--events")?, "--events")?,
            "--modules" => {
                modules = Some(parse_num(
                    flag_value(args, &mut i, "--modules")?,
                    "--modules",
                )?);
            }
            "--depth" => {
                depth = Some(parse_num(flag_value(args, &mut i, "--depth")?, "--depth")?);
            }
            "--fan" => fan = Some(parse_pair(flag_value(args, &mut i, "--fan")?, "--fan")?),
            "--and-bias" => {
                and_bias = Some(parse_unit(
                    flag_value(args, &mut i, "--and-bias")?,
                    "--and-bias",
                )?);
            }
            "--vot" => vot = Some(parse_unit(flag_value(args, &mut i, "--vot")?, "--vot")?),
            "--sharing" => {
                sharing = Some(parse_unit(
                    flag_value(args, &mut i, "--sharing")?,
                    "--sharing",
                )?);
            }
            "--prob" => prob = Some(parse_pair(flag_value(args, &mut i, "--prob")?, "--prob")?),
            "--seed" => seed = Some(parse_num(flag_value(args, &mut i, "--seed")?, "--seed")?),
            "--bare" => bare = true,
            other => {
                return Err(format!(
                    "generate does not take `{other}` (see GENERATOR flags in `bfl help`)"
                ))
            }
        }
        i += 1;
    }

    // Start from the reference shape for this size, then apply overrides,
    // validating here so shape mistakes surface as errors, not panics.
    let mut config = bfl_fault_tree::corpus::scaled_config(events);
    if let Some(m) = modules {
        config.num_modules = m;
    }
    if let Some(d) = depth {
        config.depth = d;
    }
    if let Some(f) = fan {
        config.fan_in = f;
    }
    if let Some(x) = and_bias {
        config.and_bias = x;
    }
    if let Some(x) = vot {
        config.vot_density = x;
    }
    if let Some(x) = sharing {
        config.sharing = x;
    }
    if let Some(p) = prob {
        config.prob_range = p;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    if config.num_modules == 0 || config.depth == 0 {
        return Err("--modules and --depth must be at least 1".to_string());
    }
    if config.num_basic < 2 * config.num_modules {
        return Err(format!(
            "--events must be at least 2 per module (got {} events, {} modules)",
            config.num_basic, config.num_modules
        ));
    }
    if config.fan_in.0 < 2 || config.fan_in.0 > config.fan_in.1 {
        return Err(format!(
            "--fan must satisfy 2 <= LO <= HI, got {}:{}",
            config.fan_in.0, config.fan_in.1
        ));
    }
    if !(config.prob_range.0 > 0.0
        && config.prob_range.0 <= config.prob_range.1
        && config.prob_range.1 <= 1.0)
    {
        return Err(format!(
            "--prob must satisfy 0 < LO <= HI <= 1, got {}:{}",
            config.prob_range.0, config.prob_range.1
        ));
    }

    let model = industrial_model(&config);
    let annotations = if bare {
        None
    } else {
        Some(model.probabilities.as_slice())
    };
    Ok(galileo::to_galileo(&model.tree, annotations))
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let opts = parse_serve_options(args)?;
    if let Some(extra) = opts.positional.first() {
        return Err(format!(
            "serve takes no positional arguments, got `{extra}`"
        ));
    }
    let mut config = bfl_server::ServerConfig {
        addr: opts.addr,
        ..bfl_server::ServerConfig::default()
    };
    if let Some(workers) = opts.workers {
        config.workers = workers;
    }
    if let Some(shards) = opts.shards {
        config.shards = shards;
    }
    if let Some(queue) = opts.queue {
        config.queue_capacity = queue;
    }
    if let Some(max) = opts.max_connections {
        config.max_connections = max;
    }
    config.max_sessions = opts.max_sessions;
    config.session_inflight = opts.session_inflight;
    config.idle_timeout = opts.idle_timeout.map(std::time::Duration::from_secs);
    let (workers, shards) = (config.workers, config.shards);
    let handle =
        bfl_server::Server::bind(config).map_err(|e| format!("cannot bind server: {e}"))?;
    // Announce on stderr immediately — stdout is the command's result
    // and is only printed once the server has stopped.
    eprintln!(
        "bfl-server listening on {} ({} workers, {} shards); send {{\"op\":\"shutdown\"}} to stop",
        handle.addr(),
        workers,
        shards
    );
    let addr = handle.addr();
    handle.join();
    Ok(format!("server on {addr} stopped\n"))
}

fn cmd_client(args: &[String]) -> Result<String, String> {
    use std::io::Write as _;
    // Responses stream to stdout as they arrive — pipe mode must not
    // sit on output until EOF, and a mid-stream transport error must
    // not discard answers already received.
    let stdout = std::io::stdout();
    client_run(args, &mut |line| {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    })?;
    Ok(String::new())
}

/// The `client` engine: sends each request line and hands every
/// response line to `sink` as soon as it arrives.
fn client_run(args: &[String], sink: &mut dyn FnMut(&str)) -> Result<(), String> {
    let opts = parse_serve_options(args)?;
    if opts.has_serve_flags() {
        return Err(
            "--workers/--shards/--queue/--max-connections/--max-sessions/--session-inflight/\
             --idle-timeout configure `serve`, not `client`"
                .to_string(),
        );
    }
    let mut client = bfl_server::Client::connect(&opts.addr)
        .map_err(|e| format!("cannot connect to `{}`: {e}", opts.addr))?;
    let send = |client: &mut bfl_server::Client,
                line: &str,
                sink: &mut dyn FnMut(&str)|
     -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let response = client
            .round_trip(line)
            .map_err(|e| format!("request failed: {e}"))?;
        sink(&response);
        Ok(())
    };
    if opts.positional.is_empty() {
        // Pipe mode: one request per stdin line.
        let mut buffer = String::new();
        loop {
            buffer.clear();
            let n = std::io::stdin()
                .read_line(&mut buffer)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            if n == 0 {
                break;
            }
            send(&mut client, &buffer, sink)?;
        }
    } else {
        for line in &opts.positional {
            send(&mut client, line, sink)?;
        }
    }
    Ok(())
}

fn cmd_modules(opts: &Options) -> Result<String, String> {
    let tree = opts.session.tree();
    let mods = bfl_fault_tree::modules::modules(tree);
    let mut out = String::new();
    for g in mods {
        let _ = writeln!(out, "{}", tree.name(g));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_model() -> tempdir::TempFile {
        tempdir::TempFile::new("toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n", "dft")
    }

    /// Minimal self-contained temp-file helper (std only).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct TempFile {
            pub path: PathBuf,
        }

        impl TempFile {
            pub fn new(contents: &str, ext: &str) -> TempFile {
                let mut path = std::env::temp_dir();
                let unique = format!(
                    "bfl-cli-test-{}-{:?}-{}.{ext}",
                    std::process::id(),
                    std::thread::current().id(),
                    COUNTER.fetch_add(1, Ordering::Relaxed),
                );
                path.push(unique);
                std::fs::write(&path, contents).expect("write temp model");
                TempFile { path }
            }

            pub fn arg(&self) -> String {
                self.path.to_string_lossy().into_owned()
            }
        }

        impl Drop for TempFile {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args).expect("command succeeds")
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
    }

    #[test]
    fn missing_command_is_error() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn check_query() {
        let f = write_model();
        let out = run_ok(&["check", "--ft", &f.arg(), "forall A & B => T"]);
        assert_eq!(out, "true\n");
        let out = run_ok(&["check", "--ft", &f.arg(), "forall A => T"]);
        assert_eq!(out, "false\n");
    }

    #[test]
    fn check_formula_with_vector() {
        let f = write_model();
        let out = run_ok(&["check", "--ft", &f.arg(), "--failed", "A,B", "MCS(T)"]);
        assert_eq!(out, "true\n");
        let out = run_ok(&["check", "--ft", &f.arg(), "--failed", "A", "MCS(T)"]);
        assert_eq!(out, "false\n");
    }

    #[test]
    fn check_json_is_structured() {
        let f = write_model();
        let out = run_ok(&["check", "--ft", &f.arg(), "--json", "forall A & B => T"]);
        assert!(out.contains("\"holds\":true"), "{out}");
        assert!(out.contains("\"cache_misses\""), "{out}");
        let out = run_ok(&["check", "--ft", &f.arg(), "--json", "forall A => T"]);
        assert!(out.contains("\"holds\":false"), "{out}");
        assert!(out.contains("\"counterexamples\":[["), "{out}");
    }

    #[test]
    fn run_command_batches_a_spec_file() {
        let f = write_model();
        let spec = tempdir::TempFile::new(
            "# demo spec\nQ1: forall A & B => T\nQ2: forall A => T\nV1: [A, B] MCS(T)\n",
            "bfl",
        );
        let out = run_ok(&["run", "--ft", &f.arg(), &spec.arg()]);
        assert!(out.contains("PASS  Q1"), "{out}");
        assert!(out.contains("FAIL  Q2"), "{out}");
        assert!(out.contains("PASS  V1"), "{out}");
        assert!(out.contains("2/3 hold"), "{out}");
        let out = run_ok(&["run", "--ft", &f.arg(), &spec.arg(), "--json"]);
        assert!(out.contains("\"label\":\"Q1\""), "{out}");
        assert!(out.contains("\"totals\""), "{out}");
    }

    #[test]
    fn sweep_command_evaluates_scenarios() {
        let f = write_model();
        let scenarios = tempdir::TempFile::new(
            "# what-ifs\nbaseline:\nA-failed: A = 1\nA-fixed: A = 0\n",
            "scenarios",
        );
        let out = run_ok(&["sweep", "--ft", &f.arg(), "exists T", &scenarios.arg()]);
        assert!(out.contains("PASS  baseline"), "{out}");
        assert!(out.contains("PASS  A-failed"), "{out}");
        assert!(out.contains("FAIL  A-fixed"), "{out}");
        assert!(out.contains("2/3 hold"), "{out}");
        let out = run_ok(&[
            "sweep",
            "--ft",
            &f.arg(),
            "--json",
            "exists T",
            &scenarios.arg(),
        ]);
        assert!(out.contains("\"label\":\"A-fixed\""), "{out}");
        assert!(out.contains("\"translation_misses\":0"), "{out}");
    }

    #[test]
    fn sweep_and_explain_reject_failed_flag() {
        let f = write_model();
        for command in ["sweep", "explain"] {
            let args: Vec<String> = [command, "--ft", &f.arg(), "--failed", "A", "exists T"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains("--failed"), "{command}: {err}");
            assert!(err.contains(command), "{command}: {err}");
        }
    }

    #[test]
    fn sweep_requires_scenarios_file() {
        let f = write_model();
        let args: Vec<String> = ["sweep", "--ft", &f.arg(), "exists T"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("scenarios file"));
    }

    #[test]
    fn explain_command_shows_plan() {
        let f = write_model();
        let out = run_ok(&["explain", "--ft", &f.arg(), "forall A & B => T"]);
        assert!(out.contains("plan for"), "{out}");
        assert!(out.contains("minimality fast path: yes"), "{out}");
        assert!(out.contains("simplify"), "{out}");
        let out = run_ok(&["explain", "--ft", &f.arg(), "--json", "exists MCS(T)"]);
        assert!(out.contains("\"minimality_fast_path\":false"), "{out}");
        assert!(out.contains("\"kind\":\"exists\""), "{out}");
    }

    #[test]
    fn run_rejects_failed_flag() {
        let f = write_model();
        let spec = tempdir::TempFile::new("forall A => T\n", "bfl");
        let args: Vec<String> = ["run", "--ft", &f.arg(), "--failed", "A", &spec.arg()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--failed"), "{err}");
        assert!(err.contains("prefix"), "{err}");
    }

    #[test]
    fn support_scope_is_ordering_independent() {
        let f = write_model();
        for cmd in ["mcs", "mps"] {
            let base = run_ok(&[cmd, "--ft", &f.arg(), "--support-scope"]);
            let out = run_ok(&[
                cmd,
                "--ft",
                &f.arg(),
                "--support-scope",
                "--ordering",
                "declaration",
            ]);
            assert_eq!(out, base, "{cmd}");
        }
    }

    #[test]
    fn mcs_and_mps() {
        let f = write_model();
        let out = run_ok(&["mcs", "--ft", &f.arg()]);
        assert!(out.contains("{A, B}"), "{out}");
        let out = run_ok(&["mps", "--ft", &f.arg()]);
        assert!(out.contains("{A}"), "{out}");
        assert!(out.contains("{B}"), "{out}");
    }

    #[test]
    fn sat_and_count() {
        let f = write_model();
        let out = run_ok(&["count", "--ft", &f.arg(), "T"]);
        assert_eq!(out, "1\n");
        let out = run_ok(&["sat", "--ft", &f.arg(), "T"]);
        assert!(out.contains("1 satisfying vectors"));
        assert!(out.contains("{A, B}"));
        let out = run_ok(&["sat", "--ft", &f.arg(), "--json", "T"]);
        assert_eq!(out, "[[\"A\",\"B\"]]\n");
    }

    #[test]
    fn counterexample_command() {
        let f = write_model();
        let out = run_ok(&["cex", "--ft", &f.arg(), "--failed", "A", "MCS(T)"]);
        assert!(out.contains("counterexample"), "{out}");
        assert!(out.contains("changed"), "{out}");
    }

    #[test]
    fn cause_command() {
        let f = write_model();
        // AND gate with both inputs failed: repairing either one alone
        // flips the verdict, so the two singletons are the causes.
        let out = run_ok(&["cause", "--ft", &f.arg(), "--failed", "A,B"]);
        assert!(out.contains("observation {A, B} is failing"), "{out}");
        assert!(out.contains("cause {A}"), "{out}");
        assert!(out.contains("cause {B}"), "{out}");
        let out = run_ok(&["cause", "--ft", &f.arg(), "--failed", "A,B", "--json", "T"]);
        assert!(out.contains("\"causes\":{"), "{out}");
        assert!(out.contains("\"total\":2"), "{out}");
        assert!(out.contains("\"truncated\":false"), "{out}");
        // A trailing count bounds the enumeration and reports truncation.
        let out = run_ok(&["cause", "--ft", &f.arg(), "--failed", "A,B", "T", "1"]);
        assert!(out.contains("showing 1 of 2 causes"), "{out}");
        // A non-failing observation has no causes and the query fails.
        let out = run_ok(&["cause", "--ft", &f.arg(), "--failed", "A"]);
        assert!(out.contains("is not failing"), "{out}");
        assert!(out.contains("FAIL"), "{out}");
        let args: Vec<String> = ["cause", "--ft", &f.arg(), "T", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("invalid cause count"));
    }

    #[test]
    fn cause_queries_through_check_and_sweep() {
        let f = write_model();
        let out = run_ok(&["check", "--ft", &f.arg(), "cause(T, A := 1, B := 1)"]);
        assert_eq!(out, "true\n");
        let out = run_ok(&["check", "--ft", &f.arg(), "cause(T, A := 1)"]);
        assert_eq!(out, "false\n");
        // Sweeping a cause query: scenario bindings extend the evidence.
        let scenarios =
            tempdir::TempFile::new("baseline:\nB-failed: B = 1\nB-fixed: B = 0\n", "scenarios");
        let out = run_ok(&[
            "sweep",
            "--ft",
            &f.arg(),
            "cause(T, A := 1)",
            &scenarios.arg(),
        ]);
        assert!(out.contains("FAIL  baseline"), "{out}");
        assert!(out.contains("PASS  B-failed"), "{out}");
        assert!(out.contains("FAIL  B-fixed"), "{out}");
    }

    #[test]
    fn ibe_command() {
        let f = write_model();
        let out = run_ok(&["ibe", "--ft", &f.arg(), "T"]);
        assert_eq!(out, "{A, B}\n");
    }

    #[test]
    fn render_and_dot() {
        let f = write_model();
        let out = run_ok(&["render", "--ft", &f.arg(), "--failed", "A"]);
        assert!(out.contains("T ·"));
        assert!(out.contains("A ✗"));
        let out = run_ok(&["dot", "--ft", &f.arg()]);
        assert!(out.contains("digraph"));
    }

    #[test]
    fn prob_command() {
        let f = write_model();
        let out = run_ok(&["prob", "--ft", &f.arg()]);
        let p: f64 = out.trim().parse().unwrap();
        assert!((p - 0.02).abs() < 1e-12);
        // Any formula, not just the top event: P(A | B) = P(A).
        let out = run_ok(&["prob", "--ft", &f.arg(), "A | B"]);
        let p: f64 = out.trim().parse().unwrap();
        assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
        // Conditional form: P(T | A) = P(B) = 0.2.
        let out = run_ok(&["prob", "--ft", &f.arg(), "T", "A"]);
        let p: f64 = out.trim().parse().unwrap();
        assert!((p - 0.2).abs() < 1e-12);
        // Impossible condition is reported, not a garbage ratio.
        let out = run_ok(&["prob", "--ft", &f.arg(), "T", "A & !A"]);
        assert!(out.contains("undefined"), "{out}");
        let out = run_ok(&["prob", "--ft", &f.arg(), "--json", "T", "A & !A"]);
        assert_eq!(out, "{\"probability\":null}\n");
    }

    fn write_interval_model() -> tempdir::TempFile {
        tempdir::TempFile::new(
            "toplevel T;\nT or A B;\nA prob=0.1..0.3;\nB prob=0.2;\n",
            "dft",
        )
    }

    #[test]
    fn prob_method_interval() {
        // Ranged annotations: exact refuses with the offending events,
        // interval propagation brackets the OR.
        let f = write_interval_model();
        let args: Vec<String> = ["prob", "--ft", &f.arg()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("interval"), "{err}");
        assert!(err.contains('A'), "{err}");
        let out = run_ok(&["prob", "--ft", &f.arg(), "--method", "interval"]);
        assert_eq!(out, "[0.28, 0.43999999999999995]\n");
        let out = run_ok(&["prob", "--ft", &f.arg(), "--method", "interval", "--json"]);
        assert_eq!(
            out,
            "{\"probability\":null,\"interval\":{\"lo\":0.28,\"hi\":0.43999999999999995},\"method\":\"interval\"}\n"
        );
        // Degenerate intervals on a point model reproduce the exact number.
        let point = write_model();
        let out = run_ok(&["prob", "--ft", &point.arg(), "--method", "interval"]);
        assert_eq!(out, "[0.020000000000000004, 0.020000000000000004]\n");
    }

    #[test]
    fn prob_method_mc_is_deterministic() {
        let f = write_model();
        let mc = [
            "prob",
            "--ft",
            &f.arg(),
            "--method",
            "mc",
            "--samples",
            "20000",
            "--seed",
            "7",
        ];
        let a = run_ok(&mc);
        let b = run_ok(&mc);
        assert_eq!(a, b);
        assert!(a.starts_with("≈ 0.0"), "{a}");
        assert!(a.contains("99% CI ["), "{a}");
        assert!(a.contains("20000 samples"), "{a}");
        // Sampler flags alone imply --method mc; JSON carries the CI.
        let out = run_ok(&["prob", "--ft", &f.arg(), "--json", "--samples", "20000"]);
        assert!(out.contains("\"estimate\":{\"point\":"), "{out}");
        assert!(out.contains("\"method\":\"mc\""), "{out}");
        assert!(out.contains("\"samples\":20000"), "{out}");
    }

    #[test]
    fn method_flags_reject_bad_combinations() {
        let f = write_model();
        let cases: Vec<(Vec<&str>, &str)> = vec![
            (vec!["--method", "bogus"], "unknown method"),
            (vec!["--method", "exact", "--samples", "10"], "--method mc"),
            (vec!["--method", "interval", "--seed", "1"], "--method mc"),
            (vec!["--samples", "x"], "invalid sample count"),
            (vec!["--confidence", "y"], "invalid confidence"),
        ];
        for (extra, needle) in cases {
            let mut args: Vec<String> = vec!["prob".into(), "--ft".into(), f.arg()];
            args.extend(extra.iter().map(|s| s.to_string()));
            let err = run(&args).unwrap_err();
            assert!(err.contains(needle), "{extra:?}: {err}");
        }
    }

    #[test]
    fn method_flows_through_check_and_sweep() {
        // Session-wide --method: P(T) ∈ [0.28, 0.44] straddles 0.3, so
        // the judgement is undecided and conservatively does not hold.
        let f = write_interval_model();
        let out = run_ok(&[
            "check",
            "--ft",
            &f.arg(),
            "--method",
            "interval",
            "--json",
            "P(T) >= 0.3",
        ]);
        assert!(out.contains("\"holds\":false"), "{out}");
        assert!(
            out.contains("\"interval\":{\"lo\":0.28,\"hi\":0.43999999999999995}"),
            "{out}"
        );
        assert!(out.contains("\"method\":\"interval\""), "{out}");
        let scenarios = tempdir::TempFile::new("baseline:\nA-failed: A = 1\n", "scenarios");
        let out = run_ok(&[
            "sweep",
            "--ft",
            &f.arg(),
            "--method",
            "interval",
            "P(T) >= 0.3",
            &scenarios.arg(),
        ]);
        assert!(out.contains("method interval"), "{out}");
        assert!(out.contains("PASS  A-failed"), "{out}");
        // Monte Carlo through check: the estimate rides in the JSON.
        let point = write_model();
        let out = run_ok(&[
            "check",
            "--ft",
            &point.arg(),
            "--method",
            "mc",
            "--samples",
            "20000",
            "--json",
            "P(T) <= 0.05",
        ]);
        assert!(out.contains("\"holds\":true"), "{out}");
        assert!(out.contains("\"estimate\":{\"point\":"), "{out}");
    }

    #[test]
    fn prob_judgements_through_check() {
        let f = write_model();
        // P(T) = 0.02.
        let out = run_ok(&["check", "--ft", &f.arg(), "P(T) <= 0.05"]);
        assert_eq!(out, "true\n");
        let out = run_ok(&["check", "--ft", &f.arg(), "P(T) > 0.05"]);
        assert_eq!(out, "false\n");
        // Conditional judgement: P(T | A) = 0.2.
        let out = run_ok(&["check", "--ft", &f.arg(), "P(T | A) >= 0.2"]);
        assert_eq!(out, "true\n");
        // JSON carries the computed probability.
        let out = run_ok(&["check", "--ft", &f.arg(), "--json", "P(T) <= 0.05"]);
        assert!(
            out.contains("\"probability\":0.020000000000000004"),
            "{out}"
        );
        // Sweeping a probability judgement works through the plan layer.
        let scenarios = tempdir::TempFile::new("baseline:\nA-failed: A = 1\n", "scenarios");
        let out = run_ok(&["sweep", "--ft", &f.arg(), "P(T) <= 0.05", &scenarios.arg()]);
        assert!(out.contains("PASS  baseline"), "{out}");
        assert!(out.contains("FAIL  A-failed"), "{out}");
    }

    #[test]
    fn importance_command() {
        let f = write_model();
        let out = run_ok(&["importance", "--ft", &f.arg()]);
        assert!(out.contains("importance ranking"), "{out}");
        // AND gate: the rarer event (A, p=0.1) has the higher Birnbaum
        // importance (P(B)=0.2 > P(A)=0.1), so A ranks first.
        let a_pos = out.find("\nA ").unwrap();
        let b_pos = out.find("\nB ").unwrap();
        assert!(a_pos < b_pos, "{out}");
        assert!(out.contains("RRW=∞"), "{out}"); // both events are in the only cut set
        let out = run_ok(&["importance", "--ft", &f.arg(), "--json", "T"]);
        assert!(out.contains("\"event\":\"A\""), "{out}");
        assert!(out.contains("\"rrw\":null"), "{out}");
        // A model without annotations reports the missing events.
        let bare = tempdir::TempFile::new("toplevel T;\nT and A B;\n", "dft");
        let args: Vec<String> = ["importance", "--ft", &bare.arg()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("missing prob="), "{err}");
    }

    #[test]
    fn engines_and_orderings_agree() {
        let f = write_model();
        let base_mcs = run_ok(&["mcs", "--ft", &f.arg()]);
        let base_mps = run_ok(&["mps", "--ft", &f.arg()]);
        // The top event depends on every basic event, so the support
        // scope (the primed construction in the checker) must reproduce
        // the global scope (the ZDD engine).
        let out = run_ok(&["mcs", "--ft", &f.arg(), "--support-scope"]);
        assert_eq!(out, base_mcs);
        let out = run_ok(&["mps", "--ft", &f.arg(), "--support-scope"]);
        assert_eq!(out, base_mps);
        for ordering in ["dfs", "declaration"] {
            let out = run_ok(&["mcs", "--ft", &f.arg(), "--ordering", ordering]);
            assert_eq!(out, base_mcs, "{ordering}");
        }
    }

    #[test]
    fn generate_emits_a_parseable_deterministic_model() {
        let args = [
            "generate",
            "--events",
            "120",
            "--modules",
            "3",
            "--depth",
            "3",
            "--fan",
            "2:3",
            "--vot",
            "0.2",
            "--seed",
            "7",
        ];
        let out = run_ok(&args);
        let model = galileo::parse(&out).expect("generated model parses");
        assert_eq!(model.tree.num_basic_events(), 120);
        assert!(model.probabilities.iter().all(Option::is_some));
        assert_eq!(out, run_ok(&args), "same flags, same bytes");

        // --bare drops the annotations, the tree stays identical.
        let bare = run_ok(&["generate", "--events", "120", "--modules", "3", "--bare"]);
        let bare_model = galileo::parse(&bare).expect("bare model parses");
        assert!(bare_model.probabilities.iter().all(Option::is_none));
        assert!(!bare.contains("prob="));
    }

    #[test]
    fn generate_rejects_malformed_shapes() {
        for bad in [
            vec!["generate", "--events", "4", "--modules", "3"],
            vec!["generate", "--fan", "1:3"],
            vec!["generate", "--fan", "4:2"],
            vec!["generate", "--fan", "2"],
            vec!["generate", "--prob", "0:0.5"],
            vec!["generate", "--and-bias", "1.5"],
            vec!["generate", "--depth", "0"],
            vec!["generate", "--events"],
            vec!["generate", "--bogus"],
            vec!["generate", "--ft", "x.dft"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(run(&args).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        for bad in [
            vec!["serve", "--workers", "0"],
            vec!["serve", "--workers", "x"],
            vec!["serve", "--queue", "0"],
            vec!["serve", "--shards", "0"],
            vec!["serve", "--shards", "x"],
            vec!["serve", "--max-connections", "0"],
            vec!["serve", "--max-sessions", "0"],
            vec!["serve", "--session-inflight", "0"],
            vec!["serve", "--idle-timeout", "0"],
            vec!["serve", "--idle-timeout", "soon"],
            vec!["serve", "--bogus"],
            vec!["serve", "positional"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(run(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn serve_parses_every_tuning_knob() {
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--shards",
            "2",
            "--queue",
            "128",
            "--max-connections",
            "64",
            "--max-sessions",
            "8",
            "--session-inflight",
            "4",
            "--idle-timeout",
            "30",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_serve_options(&args).expect("parses");
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, Some(3));
        assert_eq!(opts.shards, Some(2));
        assert_eq!(opts.queue, Some(128));
        assert_eq!(opts.max_connections, Some(64));
        assert_eq!(opts.max_sessions, Some(8));
        assert_eq!(opts.session_inflight, Some(4));
        assert_eq!(opts.idle_timeout, Some(30));
        assert!(opts.has_serve_flags());
        assert!(opts.positional.is_empty());
    }

    #[test]
    fn client_round_trips_against_a_live_server() {
        let handle = bfl_server::Server::bind(bfl_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..bfl_server::ServerConfig::default()
        })
        .expect("binds");
        let addr = handle.addr().to_string();
        let model = "toplevel T;\\nT and A B;\\nA prob=0.1;\\nB prob=0.2;\\n";
        // Drive the streaming engine with a collecting sink (the real
        // `bfl client` writes each line straight to stdout).
        let client_ok = |args: &[&str]| -> Vec<String> {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut lines = Vec::new();
            client_run(&args, &mut |line| lines.push(line.to_string())).expect("client runs");
            lines
        };
        let out = client_ok(&[
            "--addr",
            &addr,
            &format!("{{\"id\":1,\"op\":\"load\",\"model\":\"{model}\"}}"),
            "{\"id\":2,\"op\":\"check\",\"session\":\"s1\",\"query\":\"forall A & B => T\"}",
            "{\"id\":3,\"op\":\"stats\"}",
        ]);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].contains("\"session\":\"s1\""), "{out:?}");
        assert!(out[1].contains("\"holds\":true"), "{out:?}");
        assert!(out[2].contains("\"sessions\":[\"s1\"]"), "{out:?}");
        // Errors come back as structured lines, not failures.
        let out = client_ok(&["--addr", &addr, "{\"op\":\"nope\"}"]);
        assert!(out[0].contains("\"code\":\"unknown_op\""), "{out:?}");
        // Comments and blank lines are skipped without a round trip.
        let out = client_ok(&["--addr", &addr, "# a comment", "   "]);
        assert!(out.is_empty(), "{out:?}");
        handle.shutdown();
    }

    #[test]
    fn client_rejects_serve_only_flags() {
        for flag in [
            ["--workers", "4"],
            ["--queue", "16"],
            ["--shards", "2"],
            ["--max-connections", "64"],
            ["--max-sessions", "8"],
            ["--session-inflight", "2"],
            ["--idle-timeout", "30"],
        ] {
            let args: Vec<String> = ["client", "--addr", "127.0.0.1:1", flag[0], flag[1]]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains("configure `serve`"), "{err}");
        }
    }

    #[test]
    fn client_reports_connection_errors() {
        // A port nothing listens on: connect fails with a clear error.
        let args: Vec<String> = ["client", "--addr", "127.0.0.1:1", "{\"op\":\"stats\"}"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn modules_command() {
        let f = write_model();
        let out = run_ok(&["modules", "--ft", &f.arg()]);
        assert_eq!(out, "T\n");
    }

    #[test]
    fn bad_reorder_policies_are_rejected() {
        let f = write_model();
        // Dynamic reordering is gone: the flag is refused as an unknown
        // option whatever policy follows it, formerly valid or not.
        let flag = "--reorder";
        for policy in ["bogus", "auto:0.5", "auto:x", "prepare", "never"] {
            let args: Vec<String> = ["check", "--ft", &f.arg(), flag, policy, "exists T"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = run(&args).unwrap_err();
            assert_eq!(err, format!("unknown option `{flag}`"));
        }
    }

    #[test]
    fn unknown_option_rejected() {
        let f = write_model();
        // A removed flag answers like any other unknown option.
        for flag in ["--bogus", "--no-gc", "--gc"] {
            let args: Vec<String> = ["mcs", "--ft", &f.arg(), flag]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = run(&args).unwrap_err();
            assert_eq!(err, format!("unknown option `{flag}`"));
        }
    }

    #[test]
    fn unknown_failed_element_rejected() {
        let f = write_model();
        let args: Vec<String> = ["render", "--ft", &f.arg(), "--failed", "ghost"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("ghost"));
    }

    #[test]
    fn lint_clean_model_and_deny_pass() {
        let f = write_model();
        assert_eq!(run_ok(&["lint", "--ft", &f.arg()]), "lint: clean\n");
        assert_eq!(
            run_ok(&["lint", "--ft", &f.arg(), "--deny", "warnings"]),
            "lint: clean\n"
        );
        let out = run_ok(&["lint", "--ft", &f.arg(), "--json"]);
        assert!(out.contains("\"diagnostics\":[]"), "{out}");
    }

    #[test]
    fn lint_reports_locations_and_denies_warnings() {
        let f = tempdir::TempFile::new(
            "toplevel T;\nT and G B;\nG or A;\nA prob=1.0;\nB prob=0.2;\n",
            "dft",
        );
        let out = run_ok(&["lint", "--ft", &f.arg()]);
        // L002: G has one child (declared line 3 col 1); L006: A is
        // certain (line 4 col 1). Locations point at the declarations.
        assert!(out.contains("L002"), "{out}");
        assert!(out.contains(&format!("{}:3:1", f.arg())), "{out}");
        assert!(out.contains("L006"), "{out}");
        assert!(out.contains(&format!("{}:4:1", f.arg())), "{out}");

        let args: Vec<String> = ["lint", "--ft", &f.arg(), "--deny", "warnings"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--deny"), "{err}");

        // --select narrows to one code; --ignore drops it again.
        let out = run_ok(&["lint", "--ft", &f.arg(), "--select", "L006"]);
        assert!(out.contains("L006") && !out.contains("L002"), "{out}");
        let out = run_ok(&["lint", "--ft", &f.arg(), "--ignore", "L002,L006"]);
        assert_eq!(out, "lint: clean\n");
        let args: Vec<String> = ["lint", "--ft", &f.arg(), "--select", "L999"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("L999"));
    }

    #[test]
    fn lint_checks_spec_files() {
        let f = write_model();
        let spec = tempdir::TempFile::new(
            "P1: forall T | !T\nP1: exists A & !A\nP3: exists T\n",
            "bfl",
        );
        let out = run_ok(&["lint", "--ft", &f.arg(), &spec.arg()]);
        assert!(out.contains("L008"), "{out}"); // tautology
        assert!(out.contains("L009"), "{out}"); // contradiction
        assert!(out.contains("L012"), "{out}"); // shadowed label P1
    }
}
