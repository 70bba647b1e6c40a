//! Batch specifications and structured analysis reports.
//!
//! The paper's workflow is *batch-shaped*: a user loads one fault tree
//! and fires many layer-1/layer-2 questions at it (all nine properties of
//! the COVID case study, the four patterns of Table I). A [`Spec`] holds
//! such a batch — one [`SpecItem`] per question, optionally labelled —
//! and [`AnalysisSession::run`](crate::engine::AnalysisSession::run)
//! evaluates it in one pass over shared BDD caches, returning a
//! [`Report`] of structured [`Outcome`]s.
//!
//! ## Spec text format
//!
//! One item per line; blank lines and `#` comments are skipped:
//!
//! ```text
//! # COVID case study, properties 1 and 8
//! P1: forall IS => MoT
//! P8: IDP(CIO, CIS)
//! # a layer-1 formula, checked against the vector failing IW and H3
//! P4: [IW, H3] MCS("CP/R")
//! ```
//!
//! Labels (`P1:`) are optional. A layer-1 formula line may carry a
//! leading `[A, B, C]` list of failed basic events; without one the
//! formula is checked against the all-operational vector.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use bfl_fault_tree::{FaultTree, StatusVector};

use crate::ast::{Formula, Query};
use crate::causality::CauseReport;
use crate::counterexample::Counterexample;
use crate::parser::{self, ParseError};
use crate::quant::EventImportance;
use crate::uncertainty::{Estimate, Method, ProbInterval};

/// A batch of BFL questions to be evaluated against one fault tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Spec {
    /// The questions, in evaluation order.
    pub items: Vec<SpecItem>,
}

/// One labelled question of a [`Spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecItem {
    /// Optional label (`P1`), carried into the [`Outcome`].
    pub label: Option<String>,
    /// The question's concrete syntax (pretty-printed for programmatic
    /// items).
    pub source: String,
    /// What to evaluate.
    pub kind: SpecKind,
}

/// The two shapes of a question.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecKind {
    /// A layer-2 query: `T ⊨ ψ`.
    Query(Query),
    /// A layer-1 formula checked against a status vector given as failed
    /// basic-event names: `b, T ⊨ χ`.
    Vector {
        /// Names of the failed basic events (the rest are operational).
        failed: Vec<String>,
        /// The formula to check.
        formula: Formula,
    },
}

impl SpecItem {
    /// Wraps a query as an unlabelled item.
    pub fn query(q: Query) -> Self {
        SpecItem {
            label: None,
            source: q.to_string(),
            kind: SpecKind::Query(q),
        }
    }

    /// Wraps a formula + failed-event vector as an unlabelled item.
    pub fn vector<S: Into<String>>(failed: impl IntoIterator<Item = S>, formula: Formula) -> Self {
        let failed: Vec<String> = failed.into_iter().map(Into::into).collect();
        let source = if failed.is_empty() {
            format!("[] {formula}")
        } else {
            format!("[{}] {formula}", failed.join(", "))
        };
        SpecItem {
            label: None,
            source,
            kind: SpecKind::Vector { failed, formula },
        }
    }

    /// Returns the item with a label attached.
    pub fn labelled<S: Into<String>>(mut self, label: S) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl From<Query> for SpecItem {
    fn from(q: Query) -> Self {
        SpecItem::query(q)
    }
}

impl From<parser::Spec> for SpecItem {
    fn from(s: parser::Spec) -> Self {
        match s {
            parser::Spec::Query(q) => SpecItem::query(q),
            parser::Spec::Formula(f) => SpecItem::vector(Vec::<String>::new(), f),
        }
    }
}

impl Spec {
    /// An empty batch.
    pub fn new() -> Self {
        Spec::default()
    }

    /// Builds a batch from anything convertible to items (queries,
    /// parsed [`parser::Spec`]s, prepared [`SpecItem`]s).
    pub fn from_items<I, T>(items: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<SpecItem>,
    {
        Spec {
            items: items.into_iter().map(Into::into).collect(),
        }
    }

    /// Appends an item.
    pub fn push(&mut self, item: impl Into<SpecItem>) -> &mut Self {
        self.items.push(item.into());
        self
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Parses the line-oriented spec format (see the module docs).
    ///
    /// # Errors
    ///
    /// The first [`ParseError`], with the line number of the offending
    /// item.
    pub fn parse(text: &str) -> Result<Spec, ParseError> {
        let mut items = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (label, rest) = split_label(line, false);
            // Character offset of `rest` within `raw`, so inner parse
            // errors report columns relative to the original line.
            let rest_start = raw.find(rest).unwrap_or(0);
            let col_offset = raw[..rest_start].chars().count();
            let item = parse_item(rest).map_err(|mut e| {
                e.line = lineno + 1;
                e.col += col_offset;
                e
            })?;
            items.push(SpecItem {
                label: label.map(str::to_string),
                source: rest.to_string(),
                ..item
            });
        }
        Ok(Spec { items })
    }
}

/// Splits an optional `label:` prefix off a spec or scenario line. A
/// label is a bare `[A-Za-z0-9_.-]+` (plus interior spaces when
/// `allow_spaces` — scenario files accept them, spec files do not)
/// immediately followed by `:` and not by `=` (so evidence `:=` never
/// masquerades as a label).
pub(crate) fn split_label(line: &str, allow_spaces: bool) -> (Option<&str>, &str) {
    let Some(colon) = line.find(':') else {
        return (None, line);
    };
    let head = line[..colon].trim();
    let tail = &line[colon + 1..];
    let is_label = !head.is_empty()
        && head.chars().all(|c| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') || (allow_spaces && c == ' ')
        })
        && !tail.starts_with('=');
    if is_label {
        (Some(head), tail.trim_start())
    } else {
        (None, line)
    }
}

fn parse_item(rest: &str) -> Result<SpecItem, ParseError> {
    if let Some(after) = rest.strip_prefix('[') {
        let close = after.find(']').ok_or(ParseError {
            line: 1,
            col: 1,
            message: "unclosed `[failed-events]` vector prefix".to_string(),
        })?;
        let failed: Vec<String> = after[..close]
            .split(',')
            .map(|s| s.trim().trim_matches('"').to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let formula = parser::parse_formula(&after[close + 1..]).map_err(|mut e| {
            // Shift past the `[…]` prefix so the column points into the
            // whole item, not the formula substring.
            e.col += after[..close].chars().count() + 2;
            e
        })?;
        Ok(SpecItem::vector(failed, formula))
    } else {
        Ok(parser::parse_spec(rest)?.into())
    }
}

impl fmt::Display for Spec {
    /// One line per item, re-parseable by [`Spec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            match &item.label {
                Some(l) => writeln!(f, "{l}: {}", item.source)?,
                None => writeln!(f, "{}", item.source)?,
            }
        }
        Ok(())
    }
}

/// Per-query evaluation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Nodes of the BDD(s) compiled for this query (`0` for queries that
    /// bypass the BDD layer).
    pub bdd_nodes: usize,
    /// Total nodes in the session's shared BDD arena after the query.
    /// Prepared evaluations roll their scratch nodes back, so for them
    /// this is also the arena they started on.
    pub arena_nodes: usize,
    /// Translation-cache hits during the query (shared sub-formulae).
    pub cache_hits: u64,
    /// Translation-cache misses (sub-formulae compiled for the first
    /// time).
    pub cache_misses: u64,
    /// Wall-clock evaluation time in microseconds.
    pub duration_micros: u128,
}

impl EvalStats {
    /// Component-wise accumulation (`arena_nodes` takes the maximum — it
    /// is a level, not a delta).
    pub fn absorb(&mut self, other: &EvalStats) {
        self.bdd_nodes += other.bdd_nodes;
        self.arena_nodes = self.arena_nodes.max(other.arena_nodes);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.duration_micros += other.duration_micros;
    }
}

/// The structured result of one question — verdict, explanatory vectors
/// and statistics, never a bare `bool`.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Label from the [`SpecItem`], if any.
    pub label: Option<String>,
    /// Concrete syntax of the question.
    pub source: String,
    /// The verdict.
    pub holds: bool,
    /// Vectors demonstrating a positive verdict (satisfying vectors of an
    /// `exists`, capped at the session's witness limit).
    pub witnesses: Vec<StatusVector>,
    /// Vectors refuting a negative `forall` (satisfying `¬ϕ`), capped at
    /// the witness limit.
    pub counterexamples: Vec<StatusVector>,
    /// For failed vector checks: the Definition-7 counterexample of
    /// Algorithm 4 (closest satisfying vector).
    pub counterexample: Option<Counterexample>,
    /// For failed `IDP`/`SUP` queries: the shared influencing basic
    /// events.
    pub shared_events: Vec<String>,
    /// For probability judgements `P(ϕ) ▷◁ p`: the computed probability
    /// (`None` for Boolean questions, and for conditionals whose
    /// condition has probability zero).
    pub probability: Option<f64>,
    /// For probability judgements evaluated with
    /// [`Method::Interval`]: the conservative bounds (`probability`
    /// stays `None`).
    pub interval: Option<ProbInterval>,
    /// For probability judgements evaluated with [`Method::Mc`]: the
    /// Monte Carlo estimate with its confidence interval
    /// (`probability` stays `None`).
    pub estimate: Option<Estimate>,
    /// The evaluation method of a probability judgement (`None` for
    /// Boolean questions).
    pub method: Option<Method>,
    /// For `importance(ϕ)` judgements: the ranked importance table.
    pub importance: Vec<EventImportance>,
    /// For `cause(…)` / `causes(…, k)` judgements: the observation, the
    /// minimal actual causes with their repaired-observation witnesses,
    /// and the exact cause count (`None` for other question shapes).
    pub causes: Option<CauseReport>,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl Outcome {
    /// A minimal outcome carrying only a verdict; the session fills the
    /// explanatory fields in.
    pub(crate) fn bare(label: Option<String>, source: String, holds: bool) -> Self {
        Outcome {
            label,
            source,
            holds,
            witnesses: Vec::new(),
            counterexamples: Vec::new(),
            counterexample: None,
            shared_events: Vec::new(),
            probability: None,
            interval: None,
            estimate: None,
            method: None,
            importance: Vec::new(),
            causes: None,
            stats: EvalStats::default(),
        }
    }

    /// `label: source` or just the source.
    pub fn title(&self) -> String {
        match &self.label {
            Some(l) => format!("{l}: {}", self.source),
            None => self.source.clone(),
        }
    }
}

/// The result of a batch [`Spec`] evaluation: one [`Outcome`] per item
/// plus aggregate statistics, rendered as text ([`fmt::Display`]) or JSON
/// ([`Report::to_json`]).
#[derive(Debug, Clone)]
pub struct Report {
    tree: Arc<FaultTree>,
    /// Per-item outcomes, in spec order.
    pub outcomes: Vec<Outcome>,
    /// Component-wise aggregate of every outcome's statistics.
    pub totals: EvalStats,
}

impl Report {
    pub(crate) fn new(tree: Arc<FaultTree>) -> Self {
        Report {
            tree,
            outcomes: Vec::new(),
            totals: EvalStats::default(),
        }
    }

    pub(crate) fn push(&mut self, outcome: Outcome) {
        self.totals.absorb(&outcome.stats);
        self.outcomes.push(outcome);
    }

    /// The tree the report was computed against.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }

    /// Number of questions that hold.
    pub fn holding(&self) -> usize {
        self.outcomes.iter().filter(|o| o.holds).count()
    }

    /// Renders a status vector as its failed-event names.
    fn failed_names(&self, v: &StatusVector) -> Vec<&str> {
        v.failed_names(&self.tree)
    }

    /// Serialises the report as a self-contained JSON document.
    ///
    /// The suite is dependency-free, so this is a small hand-rolled
    /// writer; the schema is stable:
    ///
    /// ```json
    /// {"tree": "...", "outcomes": [{"label": "P1", "source": "...",
    ///  "holds": true, "witnesses": [["A","B"]], "counterexamples": [],
    ///  "counterexample": null, "shared_events": [],
    ///  "stats": {"bdd_nodes": 1, "arena_nodes": 2, "cache_hits": 3,
    ///            "cache_misses": 4, "duration_micros": 5}}],
    ///  "totals": {...}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tree\":");
        write_json_str(&mut out, self.tree.name(self.tree.top()));
        out.push_str(",\"outcomes\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_outcome(&mut out, &self.tree, o);
        }
        out.push_str("],\"totals\":");
        write_stats(&mut out, &self.totals);
        out.push('}');
        out
    }
}

/// Serialises one [`Outcome`] as a JSON object (vectors rendered as
/// failed-event name lists against `tree`) — shared by [`Report`], the
/// sweep reports of the prepared-query layer, and the `bfl-server`
/// `eval` endpoint.
pub fn json_outcome(tree: &FaultTree, o: &Outcome) -> String {
    let mut out = String::new();
    write_outcome(&mut out, tree, o);
    out
}

/// Appends [`json_outcome`]'s object to `out`, so a report renders all
/// its outcomes into one buffer.
pub(crate) fn write_outcome(out: &mut String, tree: &FaultTree, o: &Outcome) {
    out.push_str("{\"label\":");
    write_or_null(out, o.label.as_deref(), write_json_str);
    out.push_str(",\"source\":");
    write_json_str(out, &o.source);
    let _ = write!(out, ",\"holds\":{}", o.holds);
    out.push_str(",\"witnesses\":");
    write_vectors(out, tree, &o.witnesses);
    out.push_str(",\"counterexamples\":");
    write_vectors(out, tree, &o.counterexamples);
    out.push_str(",\"counterexample\":");
    match &o.counterexample {
        Some(Counterexample::Found(v)) => write_vector(out, tree, v),
        Some(Counterexample::Unsatisfiable) => out.push_str("\"unsatisfiable\""),
        Some(Counterexample::AlreadySatisfies) => out.push_str("\"already-satisfies\""),
        None => out.push_str("null"),
    }
    out.push_str(",\"shared_events\":");
    write_names(out, o.shared_events.iter().map(String::as_str));
    out.push_str(",\"probability\":");
    write_or_null(out, o.probability, |out, p| {
        let _ = write!(out, "{p}");
    });
    out.push_str(",\"interval\":");
    write_or_null(out, o.interval.as_ref(), write_interval);
    out.push_str(",\"estimate\":");
    write_or_null(out, o.estimate.as_ref(), write_estimate);
    out.push_str(",\"method\":");
    write_or_null(out, o.method.as_ref(), |out, m| {
        write_json_str(out, m.name())
    });
    out.push_str(",\"importance\":");
    write_importance(out, &o.importance);
    out.push_str(",\"causes\":");
    write_or_null(out, o.causes.as_ref(), |out, r| write_causes(out, tree, r));
    out.push_str(",\"stats\":");
    write_stats(out, &o.stats);
    out.push('}');
}

/// Appends `value` through `write`, or `null`.
pub(crate) fn write_or_null<T>(
    out: &mut String,
    value: Option<T>,
    write: impl FnOnce(&mut String, T),
) {
    match value {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

/// Appends a status vector as the array of its failed events' names.
fn write_vector(out: &mut String, tree: &FaultTree, v: &StatusVector) {
    let failed = (0..v.len()).filter(|&i| v.get(i));
    write_names(out, failed.map(|i| tree.name(tree.basic_events()[i])));
}

/// Appends an array of status vectors (see [`write_vector`]).
fn write_vectors(out: &mut String, tree: &FaultTree, vectors: &[StatusVector]) {
    out.push('[');
    for (i, v) in vectors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_vector(out, tree, v);
    }
    out.push(']');
}

/// Appends a [`CauseReport`] as a JSON object (vectors rendered as
/// failed-event name lists against `tree`): an outcome's `causes`.
fn write_causes(out: &mut String, tree: &FaultTree, r: &CauseReport) {
    out.push_str("{\"observation\":");
    write_vector(out, tree, &r.observation);
    let _ = write!(
        out,
        ",\"failing\":{},\"total\":{},\"truncated\":{},\"sets\":[",
        r.failing, r.total, r.truncated
    );
    for (i, c) in r.causes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"events\":");
        write_names(out, c.events.iter().map(String::as_str));
        out.push_str(",\"witness\":");
        write_vector(out, tree, &c.witness);
        out.push('}');
    }
    out.push_str("]}");
}

/// Serialises a [`ProbInterval`] as `{"lo": …, "hi": …}` — the schema
/// shared by the report writers and the `bfl-server` `prob` endpoint.
pub fn json_interval(iv: &ProbInterval) -> String {
    let mut out = String::new();
    write_interval(&mut out, iv);
    out
}

/// Appends [`json_interval`]'s object to `out`.
pub(crate) fn write_interval(out: &mut String, iv: &ProbInterval) {
    let _ = write!(out, "{{\"lo\":{},\"hi\":{}}}", iv.lo, iv.hi);
}

/// Serialises a Monte Carlo [`Estimate`] as a JSON object (same sharing
/// as [`json_interval`]).
pub fn json_estimate(e: &Estimate) -> String {
    let mut out = String::new();
    write_estimate(&mut out, e);
    out
}

/// Appends [`json_estimate`]'s object to `out`.
pub(crate) fn write_estimate(out: &mut String, e: &Estimate) {
    let _ = write!(
        out,
        "{{\"point\":{},\"ci_lo\":{},\"ci_hi\":{},\"confidence\":{},\"samples\":{},\"hits\":{},\"trials\":{}}}",
        e.point, e.ci_lo, e.ci_hi, e.confidence, e.samples, e.hits, e.trials
    );
}

/// Serialises an importance table as a JSON array (rows in rank order).
/// A diverging RRW renders as `null` (JSON has no infinity).
pub fn json_importance(rows: &[EventImportance]) -> String {
    let mut out = String::new();
    write_importance(&mut out, rows);
    out
}

/// Appends [`json_importance`]'s array to `out`.
fn write_importance(out: &mut String, rows: &[EventImportance]) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"event\":");
        write_json_str(out, &r.event);
        let _ = write!(
            out,
            ",\"probability\":{},\"birnbaum\":{},\"criticality\":{},\"fussell_vesely\":{},\"raw\":{},\"rrw\":",
            r.probability, r.birnbaum, r.criticality, r.fussell_vesely, r.raw
        );
        write_or_null(out, r.rrw, |out, x| {
            let _ = write!(out, "{x}");
        });
        out.push('}');
    }
    out.push(']');
}

/// Serialises a string as a JSON string literal with full escaping —
/// the same writer [`Report::to_json`] uses. Exposed so front-ends
/// (e.g. the CLI) emit valid JSON for arbitrary element names.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Appends [`json_str`]'s literal to `out`.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON array of escaped names to `out`.
fn write_names<'a>(out: &mut String, names: impl IntoIterator<Item = &'a str>) {
    out.push('[');
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, name);
    }
    out.push(']');
}

/// Serialises a list of name sets as a JSON array of arrays (escaped).
pub fn json_name_sets(sets: &[Vec<String>]) -> String {
    let mut out = String::from("[");
    for (i, set) in sets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_names(&mut out, set.iter().map(String::as_str));
    }
    out.push(']');
    out
}

/// One human-readable importance-table line, shared by the report and
/// sweep renderers and the CLI.
pub fn importance_row(r: &EventImportance) -> String {
    format!(
        "{:<12} p={:<10.6} BB={:<12.6} CR={:<12.6} FV={:<12.6} RAW={:<10.4} RRW={}",
        r.event,
        r.probability,
        r.birnbaum,
        r.criticality,
        r.fussell_vesely,
        r.raw,
        r.rrw
            .map(|x| format!("{x:.4}"))
            .unwrap_or_else(|| "∞".into())
    )
}

/// Serialises [`EvalStats`] as a JSON object — the `stats` schema shared
/// by every report renderer and the `bfl-server` `stats` endpoint.
pub fn json_stats(s: &EvalStats) -> String {
    let mut out = String::new();
    write_stats(&mut out, s);
    out
}

/// Appends [`json_stats`]' object to `out`.
pub(crate) fn write_stats(out: &mut String, s: &EvalStats) {
    let _ = write!(
        out,
        "{{\"bdd_nodes\":{},\"arena_nodes\":{},\"cache_hits\":{},\"cache_misses\":{},\"duration_micros\":{}}}",
        s.bdd_nodes, s.arena_nodes, s.cache_hits, s.cache_misses, s.duration_micros
    );
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for o in &self.outcomes {
            writeln!(
                f,
                "{}  {}",
                if o.holds { "PASS" } else { "FAIL" },
                o.title()
            )?;
            for w in &o.witnesses {
                writeln!(f, "      witness {{{}}}", self.failed_names(w).join(", "))?;
            }
            for c in &o.counterexamples {
                writeln!(
                    f,
                    "      refuted by {{{}}}",
                    self.failed_names(c).join(", ")
                )?;
            }
            if let Some(Counterexample::Found(v)) = &o.counterexample {
                writeln!(
                    f,
                    "      counterexample {{{}}}",
                    self.failed_names(v).join(", ")
                )?;
            }
            if !o.shared_events.is_empty() {
                writeln!(f, "      shared events {{{}}}", o.shared_events.join(", "))?;
            }
            if let Some(p) = o.probability {
                writeln!(f, "      probability {p}")?;
            }
            if let Some(iv) = &o.interval {
                writeln!(f, "      probability in [{}, {}]", iv.lo, iv.hi)?;
            }
            if let Some(e) = &o.estimate {
                writeln!(
                    f,
                    "      probability ≈ {} ({:.0}% CI [{}, {}], {} samples)",
                    e.point,
                    e.confidence * 100.0,
                    e.ci_lo,
                    e.ci_hi,
                    e.samples
                )?;
            }
            for r in &o.importance {
                writeln!(f, "      {}", importance_row(r))?;
            }
            if let Some(r) = &o.causes {
                writeln!(
                    f,
                    "      observation {{{}}} {}",
                    self.failed_names(&r.observation).join(", "),
                    if r.failing {
                        "is failing"
                    } else {
                        "is not failing"
                    }
                )?;
                for c in &r.causes {
                    writeln!(
                        f,
                        "      cause {{{}}} · repaired {{{}}} no longer fails",
                        c.events.join(", "),
                        self.failed_names(&c.witness).join(", ")
                    )?;
                }
                if r.truncated {
                    writeln!(f, "      showing {} of {} causes", r.causes.len(), r.total)?;
                }
            }
        }
        writeln!(
            f,
            "{}/{} hold · {} arena nodes · {} cache hits / {} misses · {} µs",
            self.holding(),
            self.outcomes.len(),
            self.totals.arena_nodes,
            self.totals.cache_hits,
            self.totals.cache_misses,
            self.totals.duration_micros
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels_comments_and_vectors() {
        let spec = Spec::parse(
            "# header\n\
             P1: forall IS => MoT\n\
             \n\
             IDP(A, B)\n\
             P4: [IW, H3] MCS(\"CP/R\")\n\
             [] Top\n",
        )
        .unwrap();
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.items[0].label.as_deref(), Some("P1"));
        assert!(matches!(spec.items[0].kind, SpecKind::Query(_)));
        assert_eq!(spec.items[1].label, None);
        match &spec.items[2].kind {
            SpecKind::Vector { failed, .. } => assert_eq!(failed, &["IW", "H3"]),
            other => panic!("{other:?}"),
        }
        match &spec.items[3].kind {
            SpecKind::Vector { failed, .. } => assert!(failed.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn evidence_colon_is_not_a_label() {
        let spec = Spec::parse("exists Top[A := 1]\n").unwrap();
        assert_eq!(spec.items[0].label, None);
    }

    #[test]
    fn parse_error_carries_line_number() {
        let err = Spec::parse("forall A => B\n\nP2: forall (((\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn parse_error_column_accounts_for_prefixes() {
        // Without a prefix the column is the parser's own.
        let base = Spec::parse("forall (((\n").unwrap_err();
        // A `P2: ` label shifts the same error 4 characters right.
        let labelled = Spec::parse("P2: forall (((\n").unwrap_err();
        assert_eq!(labelled.col, base.col + 4);
        // A `[A] ` vector prefix shifts a formula error past the bracket.
        let plain = Spec::parse("[] &\n").unwrap_err();
        let vectored = Spec::parse("[ABC] &\n").unwrap_err();
        assert_eq!(vectored.col, plain.col + 3);
    }

    #[test]
    fn display_round_trips() {
        let text = "P1: forall IS => MoT\n[IW, H3] MCS(IWoS)\n";
        let spec = Spec::parse(text).unwrap();
        let again = Spec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let mut names = String::new();
        write_names(&mut names, ["x", "y\t"]);
        assert_eq!(names, "[\"x\",\"y\\t\"]");
    }
}
