//! A Galileo-style textual format for static fault trees.
//!
//! The grammar follows the classical Galileo dialect used by FTA tools
//! (Storm, DFTCalc), restricted to static gates and extended with an
//! optional `prob=` attribute feeding the probability layer:
//!
//! ```text
//! toplevel "IWoS";
//! "IWoS" and "CP/R" "MoT" "SH";
//! "MoT"  or  "CT" "DT" "AT" "CVT" "UT";
//! "V"    2of3 "a" "b" "c";
//! "IW"   prob=0.05;        // basic event with probability
//! "CT"   prob=0.1..0.3;    // basic event with interval bounds
//! "UT";                    // bare basic event
//! ```
//!
//! Names may be quoted (any characters except `"`) or bare identifiers.
//! A `//` outside a quoted name starts a comment that runs to the end of
//! the line; inside quotes it is part of the name, so `"http://x"` is a
//! name. Events that are referenced but never declared are implicitly
//! basic events. Elements are numbered explicit basic events first (in
//! declaration order), then implicit ones (in first-reference order),
//! then gates (in declaration order).

use std::error::Error;
use std::fmt;

use crate::model::{Element, ElementId, ElementKind, FaultTree, FaultTreeError, GateType};
use crate::names::NameTable;
use crate::prob::ProbInterval;

/// A parsed Galileo model: the tree plus any `prob=` annotations.
///
/// A basic event carries *either* a point probability (`prob=0.1`,
/// recorded in [`GalileoModel::probabilities`]) *or* an interval bound
/// (`prob=0.1..0.3`, recorded in [`GalileoModel::intervals`]) — never
/// both.
#[derive(Debug, Clone)]
pub struct GalileoModel {
    /// The fault tree.
    pub tree: FaultTree,
    /// Basic-event probabilities by basic index (1.0e0-bounded), `None`
    /// where no point `prob=` was given.
    pub probabilities: Vec<Option<f64>>,
    /// Basic-event interval bounds by basic index, `None` where no
    /// `prob=lo..hi` was given.
    pub intervals: Vec<Option<ProbInterval>>,
    /// Source location of each element's declaration, by
    /// [`ElementId::index`]: `(line, column)`, both 1-based. Implicitly
    /// declared basic events (referenced but never defined), and every
    /// element of a generated model, have `None`. Lint diagnostics and
    /// tooling use this to print `file:line:col`; [`GalileoModel::location`]
    /// looks one up by name.
    pub locations: Vec<Option<(usize, usize)>>,
}

impl GalileoModel {
    /// The source location of the declaration of the element `name`, as
    /// in [`GalileoModel::locations`]; `None` for an implicit or unknown
    /// element.
    pub fn location(&self, name: &str) -> Option<(usize, usize)> {
        let e = self.tree.element(name)?;
        self.locations.get(e.index()).copied().flatten()
    }

    /// Whether any basic event carries an interval annotation.
    pub fn has_intervals(&self) -> bool {
        self.intervals.iter().any(Option::is_some)
    }
}

/// Errors produced by the Galileo parser.
#[derive(Debug, Clone, PartialEq)]
pub struct GalileoError {
    /// 1-based source line of the offence (0 when global).
    pub line: usize,
    /// 1-based source column (in characters) of the offending token
    /// (0 when unknown or global).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for GalileoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "galileo: {}", self.message)
        } else if self.col == 0 {
            write!(f, "galileo: line {}: {}", self.line, self.message)
        } else {
            write!(
                f,
                "galileo: line {}:{}: {}",
                self.line, self.col, self.message
            )
        }
    }
}

impl Error for GalileoError {}

impl From<FaultTreeError> for GalileoError {
    fn from(e: FaultTreeError) -> Self {
        GalileoError {
            line: 0,
            col: 0,
            message: e.to_string(),
        }
    }
}

/// A token of one line. Error messages quote its `Debug` form, as in
/// `expected child name, found Vot(2, 3)`.
#[derive(Debug, Clone, Copy)]
enum Token<'a> {
    Name(&'a str),
    Keyword(&'static str),
    Prob(f64),
    ProbRange(f64, f64),
    Vot(u32, u32),
    Semicolon,
}

/// [`char::is_whitespace`] on the ASCII range.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// One source line: the lexer's cursor and a forward-only column count.
struct Line<'a> {
    text: &'a str,
    number: usize,
    /// Byte offset where the next token search starts.
    pos: usize,
    /// Byte offset and character column of the last column computed.
    counted: (usize, usize),
}

impl<'a> Line<'a> {
    fn new(text: &'a str, number: usize) -> Self {
        Line {
            text,
            number,
            pos: 0,
            counted: (0, 1),
        }
    }

    /// The 1-based character column of byte offset `at`. Counting resumes
    /// at the last column computed (the parser only asks for later
    /// offsets; an earlier one recounts from the line start), so a line
    /// is counted once however many declarations it holds.
    fn col(&mut self, at: usize) -> usize {
        if at < self.counted.0 {
            self.counted = (0, 1);
        }
        let (from, col) = self.counted;
        let chars = self.text.as_bytes()[from..at]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        self.counted = (at, col + chars);
        self.counted.1
    }

    fn error(&self, col: usize, message: impl Into<String>) -> GalileoError {
        GalileoError {
            line: self.number,
            col,
            message: message.into(),
        }
    }

    fn error_at(&mut self, at: usize, message: impl Into<String>) -> GalileoError {
        let col = self.col(at);
        self.error(col, message)
    }

    /// The next token and its byte offset, or `None` at the end of the
    /// line. A `//` outside a quoted name ends the line.
    fn next_token(&mut self) -> Result<Option<(Token<'a>, usize)>, GalileoError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut start = self.pos;
        loop {
            match bytes.get(start) {
                None => return Ok(None),
                Some(&b) if b.is_ascii() => {
                    if !is_ascii_space(b) {
                        break;
                    }
                    start += 1;
                }
                Some(_) => match text[start..].chars().next() {
                    Some(c) if c.is_whitespace() => start += c.len_utf8(),
                    _ => break,
                },
            }
        }
        let token = match bytes[start] {
            b';' => {
                self.pos = start + 1;
                Token::Semicolon
            }
            b'"' => {
                let body = start + 1;
                match bytes[body..].iter().position(|&b| b == b'"') {
                    None => return Err(self.error_at(start, "unterminated quoted name")),
                    Some(0) => return Err(self.error_at(start, "empty quoted name")),
                    Some(len) => {
                        self.pos = body + len + 1;
                        Token::Name(&text[body..body + len])
                    }
                }
            }
            b'/' if bytes.get(start + 1) == Some(&b'/') => {
                self.pos = bytes.len();
                return Ok(None);
            }
            _ => {
                let end = self.word_end(start);
                self.pos = end;
                word_token(&text[start..end]).map_err(|m| self.error_at(start, m))?
            }
        };
        Ok(Some((token, start)))
    }

    /// The end of the bare word starting at `start`: the next whitespace,
    /// `;`, `"` or `//`.
    fn word_end(&self, start: usize) -> usize {
        let bytes = self.text.as_bytes();
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            if b.is_ascii() {
                if is_ascii_space(b)
                    || b == b';'
                    || b == b'"'
                    || (b == b'/' && bytes.get(end + 1) == Some(&b'/'))
                {
                    break;
                }
                end += 1;
            } else {
                match self.text[end..].chars().next() {
                    Some(c) if !c.is_whitespace() => end += c.len_utf8(),
                    _ => break,
                }
            }
        }
        end
    }
}

/// Classifies a bare word: `prob=p`, `prob=lo..hi`, `KofN`, a keyword
/// (in any case), or else a name.
fn word_token(word: &str) -> Result<Token<'_>, String> {
    if let Some(rest) = word.strip_prefix("prob=") {
        return match rest.split_once("..") {
            Some((l, h)) => {
                let endpoint = |s: &str| {
                    s.parse::<f64>()
                        .map_err(|_| format!("invalid interval endpoint `{s}`"))
                };
                let (lo, hi) = (endpoint(l)?, endpoint(h)?);
                ProbInterval::new(lo, hi)?;
                Ok(Token::ProbRange(lo, hi))
            }
            None => {
                let p: f64 = rest
                    .parse()
                    .map_err(|_| format!("invalid probability `{rest}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} outside [0, 1]"));
                }
                Ok(Token::Prob(p))
            }
        };
    }
    if let Some((k, n)) = parse_kofn(word) {
        return Ok(Token::Vot(k, n));
    }
    Ok(["toplevel", "and", "or"]
        .into_iter()
        .find(|k| word.eq_ignore_ascii_case(k))
        .map_or(Token::Name(word), Token::Keyword))
}

/// `KofN`, with `of` in any case, as `(K, N)`.
fn parse_kofn(word: &str) -> Option<(u32, u32)> {
    let of = word
        .as_bytes()
        .windows(2)
        .position(|w| w.eq_ignore_ascii_case(b"of"))?;
    Some((word[..of].parse().ok()?, word[of + 2..].parse().ok()?))
}

/// An explicit declaration.
struct Decl {
    /// The declared name's slot in [`Names`].
    slot: usize,
    line: usize,
    col: usize,
    body: Body,
}

enum Body {
    Basic {
        prob: Option<f64>,
        interval: Option<ProbInterval>,
    },
    Gate {
        gate_type: GateType,
        /// Children as name slots.
        children: Vec<usize>,
        /// `N` of a `KofN` gate, checked against the children at the end.
        declared_n: Option<u32>,
    },
}

/// How far the current statement has got.
#[derive(Default)]
enum Stmt<'a> {
    #[default]
    Empty,
    /// `toplevel` at character column `col`, before its name.
    Toplevel { col: usize },
    /// `toplevel NAME`: only the statement's end may follow.
    TopNamed { col: usize, name: &'a str },
    /// A name at column `col` opened a declaration with no body yet.
    Named { slot: usize, col: usize },
    /// A declaration with its body; a gate gathers children.
    Body(Decl),
}

/// The names read so far: each name gets a slot, its id in the table,
/// the first time it appears, as a declaration or as a child.
struct Names {
    table: NameTable,
    /// Per slot: the line that declared it, 0 while it is only referenced.
    declared: Vec<usize>,
}

impl Names {
    /// The slot of the name token at byte `at` of `line`.
    fn slot(&mut self, name: &str, line: &mut Line<'_>, at: usize) -> Result<usize, GalileoError> {
        let (slot, new) = self
            .table
            .intern(name)
            .ok_or_else(|| line.error_at(at, FaultTreeError::NamesTooLong.to_string()))?;
        if new {
            self.declared.push(0);
        }
        Ok(slot)
    }
}

struct Parser<'a> {
    names: Names,
    /// Explicit declarations in source order.
    decls: Vec<Decl>,
    top: Option<&'a str>,
    stmt: Stmt<'a>,
}

impl<'a> Parser<'a> {
    /// A parser whose name table takes `names` names before it grows.
    fn new(names: usize) -> Self {
        Parser {
            names: Names {
                table: NameTable::with_capacity(names),
                declared: Vec::with_capacity(names),
            },
            decls: Vec::new(),
            top: None,
            stmt: Stmt::Empty,
        }
    }

    /// Reads one line. Errors come in the order of a reader that lexes a
    /// whole line before parsing it: a lexical error anywhere on the line
    /// wins over a grammar error before it.
    fn line(&mut self, line: &mut Line<'a>) -> Result<(), GalileoError> {
        let mut grammar_error = None;
        while let Some((token, at)) = line.next_token()? {
            if grammar_error.is_none() {
                let step = match token {
                    Token::Semicolon => self.end_statement(line),
                    token => self.token(line, token, at),
                };
                grammar_error = step.err();
            }
        }
        match grammar_error {
            Some(e) => Err(e),
            None => self.end_statement(line),
        }
    }

    fn token(
        &mut self,
        line: &mut Line<'a>,
        token: Token<'a>,
        at: usize,
    ) -> Result<(), GalileoError> {
        self.stmt = match (std::mem::take(&mut self.stmt), token) {
            (Stmt::Empty, Token::Keyword("toplevel")) => Stmt::Toplevel { col: line.col(at) },
            (Stmt::Empty, Token::Name(name)) => {
                let col = line.col(at);
                let slot = self.names.slot(name, line, at)?;
                let declared = &mut self.names.declared[slot];
                if *declared > 0 {
                    return Err(
                        line.error(col, format!("`{name}` already defined on line {declared}"))
                    );
                }
                *declared = line.number;
                Stmt::Named { slot, col }
            }
            (Stmt::Empty, other) => {
                return Err(line.error_at(at, format!("unexpected token {other:?}")))
            }
            (Stmt::Toplevel { col }, Token::Name(name)) => Stmt::TopNamed { col, name },
            (Stmt::Toplevel { col }, _) => {
                return Err(line.error(col, "expected name after `toplevel`"))
            }
            (Stmt::TopNamed { .. }, _) => {
                return Err(line.error_at(at, "unexpected tokens after toplevel name"))
            }
            (Stmt::Named { slot, col }, token) => {
                let gate = |gate_type, declared_n| Body::Gate {
                    gate_type,
                    children: Vec::new(),
                    declared_n,
                };
                let body = match token {
                    Token::Prob(p) => Body::Basic {
                        prob: Some(p),
                        interval: None,
                    },
                    Token::ProbRange(lo, hi) => Body::Basic {
                        prob: None,
                        interval: Some(ProbInterval { lo, hi }),
                    },
                    Token::Keyword("and") => gate(GateType::And, None),
                    Token::Keyword("or") => gate(GateType::Or, None),
                    Token::Vot(k, n) => gate(GateType::Vot { k }, Some(n)),
                    other => {
                        return Err(line.error_at(
                            at,
                            format!("expected gate keyword or probability, found {other:?}"),
                        ))
                    }
                };
                Stmt::Body(Decl {
                    slot,
                    line: line.number,
                    col,
                    body,
                })
            }
            (Stmt::Body(mut decl), token) => match (&mut decl.body, token) {
                (Body::Gate { children, .. }, Token::Name(name)) => {
                    children.push(self.names.slot(name, line, at)?);
                    Stmt::Body(decl)
                }
                (Body::Gate { .. }, other) => {
                    return Err(line.error_at(at, format!("expected child name, found {other:?}")))
                }
                (Body::Basic { .. }, _) => {
                    return Err(line.error_at(at, "unexpected tokens after probability"))
                }
            },
        };
        Ok(())
    }

    fn end_statement(&mut self, line: &Line<'a>) -> Result<(), GalileoError> {
        match std::mem::take(&mut self.stmt) {
            Stmt::Empty => {}
            Stmt::Toplevel { col } => return Err(line.error(col, "expected name after `toplevel`")),
            Stmt::TopNamed { col, name } => {
                if self.top.is_some() {
                    return Err(line.error(col, "duplicate `toplevel` declaration"));
                }
                self.top = Some(name);
            }
            Stmt::Named { slot, col } => self.decls.push(Decl {
                slot,
                line: line.number,
                col,
                body: Body::Basic {
                    prob: None,
                    interval: None,
                },
            }),
            Stmt::Body(decl) => {
                if let Body::Gate {
                    children,
                    declared_n: None,
                    ..
                } = &decl.body
                {
                    if children.is_empty() {
                        let name = self.names.table.name(decl.slot);
                        return Err(line.error(decl.col, format!("gate `{name}` has no children")));
                    }
                }
                self.decls.push(decl);
            }
        }
        Ok(())
    }

    /// Checks what needs the whole model and assembles the tree. Element
    /// ids: explicit basic events in declaration order, then implicit
    /// ones (referenced, never declared) in first-reference order, then
    /// gates in declaration order. The name table is renumbered into that
    /// order and becomes the tree's.
    fn finish(self) -> Result<GalileoModel, GalileoError> {
        let Parser {
            names, decls, top, ..
        } = self;
        let top = top.ok_or_else(|| GalileoError {
            line: 0,
            col: 0,
            message: "missing `toplevel` declaration".to_string(),
        })?;
        let Names {
            mut table,
            declared,
        } = names;
        for d in &decls {
            if let Body::Gate {
                children,
                declared_n: Some(n),
                ..
            } = &d.body
            {
                if children.len() != *n as usize {
                    return Err(GalileoError {
                        line: d.line,
                        col: d.col,
                        message: format!(
                            "gate `{}` declares VOT(_/{n}) but has {} children",
                            table.name(d.slot),
                            children.len()
                        ),
                    });
                }
            }
        }

        // `order[k]` is the slot of element `k`; `id` is its inverse.
        let mut order = Vec::with_capacity(table.len());
        let mut id = vec![ElementId(0); table.len()];
        let mut elements = Vec::with_capacity(table.len());
        let (mut probabilities, mut intervals) = (Vec::new(), Vec::new());
        let explicit = decls.iter().filter_map(|d| match d.body {
            Body::Basic { prob, interval } => Some((d.slot, prob, interval)),
            Body::Gate { .. } => None,
        });
        let implicit = (0..table.len())
            .filter(|&slot| declared[slot] == 0)
            .map(|slot| (slot, None, None));
        for (slot, prob, interval) in explicit.chain(implicit) {
            id[slot] = ElementId(order.len() as u32);
            order.push(slot);
            elements.push(Element {
                kind: ElementKind::Basic,
                children: Vec::new(),
            });
            probabilities.push(prob);
            intervals.push(interval);
        }
        let gates = || {
            decls.iter().filter_map(|d| match &d.body {
                Body::Gate {
                    gate_type,
                    children,
                    ..
                } => Some((d.slot, *gate_type, children)),
                Body::Basic { .. } => None,
            })
        };
        for (slot, ..) in gates() {
            id[slot] = ElementId(order.len() as u32);
            order.push(slot);
        }
        for (_, gate_type, children) in gates() {
            elements.push(Element {
                kind: ElementKind::Gate(gate_type),
                children: children.iter().map(|&c| id[c]).collect(),
            });
        }
        let mut locations = vec![None; order.len()];
        for d in &decls {
            locations[id[d.slot].index()] = Some((d.line, d.col));
        }
        let top = table
            .get(top)
            .map(|slot| id[slot])
            .ok_or_else(|| FaultTreeError::UnknownElement(top.to_owned()))?;
        table.renumber(&order);
        Ok(GalileoModel {
            tree: FaultTree::new(elements, table, top)?,
            probabilities,
            intervals,
            locations,
        })
    }
}

/// Parses a Galileo model from text, in one pass over each line.
///
/// # Errors
///
/// Returns a [`GalileoError`] with the offending line for lexical or
/// grammatical problems, a missing/duplicate `toplevel`, duplicate
/// definitions, or any well-formedness violation of the resulting tree.
pub fn parse(input: &str) -> Result<GalileoModel, GalileoError> {
    // Models usually declare one element per line: sizing the name table
    // for that spares it rehashing every name as it grows. The byte bound
    // keeps blank lines from inflating the reservation.
    let lines = input.bytes().filter(|&b| b == b'\n').count();
    let mut parser = Parser::new(lines.min(input.len() / 16));
    for (i, text) in input.lines().enumerate() {
        parser.line(&mut Line::new(text, i + 1))?;
    }
    parser.finish()
}

/// Serialises a fault tree (and optional probabilities by basic index)
/// back to Galileo text. The output round-trips through [`parse`].
pub fn to_galileo(tree: &FaultTree, probabilities: Option<&[Option<f64>]>) -> String {
    to_galileo_annotated(tree, probabilities, None)
}

/// [`to_galileo`] with optional interval annotations: basic events with
/// an interval are written `prob=lo..hi`, those with a point probability
/// `prob=p`, the rest bare. An interval wins over a point probability in
/// the same slot. The output round-trips through [`parse`].
pub fn to_galileo_annotated(
    tree: &FaultTree,
    probabilities: Option<&[Option<f64>]>,
    intervals: Option<&[Option<ProbInterval>]>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "toplevel \"{}\";", tree.name(tree.top()));
    for g in tree.gates() {
        let kw = match tree.gate_type(g).unwrap_or_else(|| unreachable!("gate")) {
            GateType::And => "and".to_string(),
            GateType::Or => "or".to_string(),
            GateType::Vot { k } => format!("{k}of{}", tree.children(g).len()),
        };
        let children: Vec<String> = tree
            .children(g)
            .iter()
            .map(|&c| format!("\"{}\"", tree.name(c)))
            .collect();
        let _ = writeln!(out, "\"{}\" {kw} {};", tree.name(g), children.join(" "));
    }
    for (bi, &e) in tree.basic_events().iter().enumerate() {
        let iv = intervals.and_then(|v| v.get(bi).copied().flatten());
        let p = probabilities.and_then(|v| v.get(bi).copied().flatten());
        match (iv, p) {
            (Some(iv), _) => {
                let _ = writeln!(out, "\"{}\" prob={}..{};", tree.name(e), iv.lo, iv.hi);
            }
            (None, Some(p)) => {
                let _ = writeln!(out, "\"{}\" prob={p};", tree.name(e));
            }
            (None, None) => {
                let _ = writeln!(out, "\"{}\";", tree.name(e));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, FaultTreeBuilder};

    #[test]
    fn parse_simple_model() {
        let model = parse(
            r#"
            toplevel "Top";
            "Top" and "A" "B"; // comment
            "A" prob=0.25;
            "B";
            "#,
        )
        .unwrap();
        assert_eq!(model.tree.num_basic_events(), 2);
        let a = model.tree.element("A").unwrap();
        let bi = model.tree.basic_index(a).unwrap();
        assert_eq!(model.probabilities[bi], Some(0.25));
    }

    #[test]
    fn implicit_basic_events() {
        let model = parse("toplevel T; T or x y;").unwrap();
        assert_eq!(model.tree.num_basic_events(), 2);
        assert!(model.probabilities.iter().all(Option::is_none));
    }

    #[test]
    fn vot_gate_parses() {
        let model = parse("toplevel T; T 2of3 a b c;").unwrap();
        assert_eq!(
            model.tree.gate_type(model.tree.top()),
            Some(GateType::Vot { k: 2 })
        );
    }

    #[test]
    fn vot_arity_mismatch_rejected() {
        let err = parse("toplevel T; T 2of3 a b;").unwrap_err();
        assert!(err.message.contains("VOT"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_definition_rejected() {
        let err = parse("toplevel T;\nT or a;\nT and b;").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("already defined"));
    }

    #[test]
    fn missing_toplevel_rejected() {
        let err = parse("\"T\" or a b;").unwrap_err();
        assert!(err.message.contains("missing `toplevel`"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = parse("toplevel \"T;").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn bad_probability_rejected() {
        let err = parse("toplevel T; T or a; a prob=1.5;").unwrap_err();
        assert!(err.message.contains("outside"));
    }

    #[test]
    fn covid_round_trips() {
        let tree = corpus::covid();
        let text = to_galileo(&tree, None);
        let model = parse(&text).unwrap();
        assert_eq!(model.tree.num_basic_events(), tree.num_basic_events());
        assert_eq!(model.tree.num_gates(), tree.num_gates());
        // Same minimal cut sets — structural equivalence.
        assert_eq!(
            crate::analysis::minimal_cut_sets_names(&tree, tree.top()),
            crate::analysis::minimal_cut_sets_names(&model.tree, model.tree.top()),
        );
    }

    #[test]
    fn probabilities_round_trip() {
        let model = parse("toplevel T; T or a b; a prob=0.125; b prob=0.5;").unwrap();
        let text = to_galileo(&model.tree, Some(&model.probabilities));
        let model2 = parse(&text).unwrap();
        assert_eq!(model.probabilities, model2.probabilities);
    }

    #[test]
    fn interval_annotations_parse() {
        let model = parse("toplevel T; T or a b; a prob=0.1..0.3; b prob=0.2;").unwrap();
        assert!(model.has_intervals());
        let a = model.tree.element("a").unwrap();
        let ai = model.tree.basic_index(a).unwrap();
        let b = model.tree.element("b").unwrap();
        let bi = model.tree.basic_index(b).unwrap();
        assert_eq!(
            model.intervals[ai],
            Some(crate::prob::ProbInterval { lo: 0.1, hi: 0.3 })
        );
        assert_eq!(model.probabilities[ai], None);
        assert_eq!(model.intervals[bi], None);
        assert_eq!(model.probabilities[bi], Some(0.2));
    }

    #[test]
    fn malformed_intervals_rejected() {
        for (src, needle) in [
            ("toplevel T; T or a; a prob=0.3..0.1;", "lo > hi"),
            ("toplevel T; T or a; a prob=0.1..1.5;", "outside"),
            ("toplevel T; T or a; a prob=x..0.5;", "invalid interval"),
            ("toplevel T; T or a; a prob=0.1..y;", "invalid interval"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains(needle), "{src}: {err}");
            assert_eq!(err.line, 1, "{src}");
        }
    }

    #[test]
    fn intervals_round_trip() {
        let model = parse("toplevel T; T or a b c; a prob=0.125..0.5; b prob=0.25; c;").unwrap();
        let text = to_galileo_annotated(
            &model.tree,
            Some(&model.probabilities),
            Some(&model.intervals),
        );
        let model2 = parse(&text).unwrap();
        assert_eq!(model.probabilities, model2.probabilities);
        assert_eq!(model.intervals, model2.intervals);
    }

    #[test]
    fn point_models_have_no_intervals() {
        let model = parse("toplevel T; T or a b; a prob=0.125; b prob=0.5;").unwrap();
        assert!(!model.has_intervals());
        assert!(model.intervals.iter().all(Option::is_none));
    }

    #[test]
    fn errors_carry_line_and_column() {
        // `prob=x` starts at character column 23 of line 1.
        let err = parse("toplevel T; T or a; a prob=x;").unwrap_err();
        assert_eq!((err.line, err.col), (1, 23), "{err}");
        assert_eq!(
            err.to_string(),
            "galileo: line 1:23: invalid probability `x`"
        );

        // The duplicate definition is the `T` opening line 3.
        let err = parse("toplevel T;\nT or a;\nT and b;").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1), "{err}");

        // VOT arity mismatch points at the gate's name token.
        let err = parse("toplevel T;\n  T 2of3 a b;").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3), "{err}");

        // The unterminated quote is the quote character itself.
        let err = parse("toplevel \"T;").unwrap_err();
        assert_eq!((err.line, err.col), (1, 10), "{err}");

        // Columns count characters, not bytes.
        let err = parse("toplevel Tö; Tö or a; a prob=x;").unwrap_err();
        assert_eq!((err.line, err.col), (1, 25), "{err}");

        // Global errors carry no location and render without one.
        let err = parse("\"T\" or a b;").unwrap_err();
        assert_eq!((err.line, err.col), (0, 0));
        assert_eq!(err.to_string(), "galileo: missing `toplevel` declaration");

        // Every error path, with its line, column and message.
        for &(src, line, col, message) in PINNED_ERRORS {
            let err = parse(src).unwrap_err();
            assert_eq!(
                (err.line, err.col, err.message.as_str()),
                (line, col, message),
                "{src:?}"
            );
        }
    }

    const PINNED_ERRORS: &[(&str, usize, usize, &str)] = &[
        // Quoted names, probabilities and intervals.
        ("toplevel \"T;", 1, 10, "unterminated quoted name"),
        ("toplevel \"\";", 1, 10, "empty quoted name"),
        ("toplevel T; T or a \"", 1, 20, "unterminated quoted name"),
        (
            "toplevel T; T or a; a prob=x;",
            1,
            23,
            "invalid probability `x`",
        ),
        (
            "toplevel T; T or a; a prob=;",
            1,
            23,
            "invalid probability ``",
        ),
        (
            "toplevel T; T or a; a prob=1.5;",
            1,
            23,
            "probability 1.5 outside [0, 1]",
        ),
        (
            "toplevel T; T or a; a prob=nan;",
            1,
            23,
            "probability NaN outside [0, 1]",
        ),
        (
            "toplevel T; T or a; a prob=1e400;",
            1,
            23,
            "probability inf outside [0, 1]",
        ),
        (
            "toplevel T; T or a; a prob=0.3..0.1;",
            1,
            23,
            "interval [0.3, 0.1] has lo > hi",
        ),
        (
            "toplevel T; T or a; a prob=0.1..1.5;",
            1,
            23,
            "interval [0.1, 1.5] has endpoints outside [0, 1]",
        ),
        (
            "toplevel T; T or a; a prob=x..0.5;",
            1,
            23,
            "invalid interval endpoint `x`",
        ),
        (
            "toplevel T; T or a; a prob=0.1..0.2..0.3;",
            1,
            23,
            "invalid interval endpoint `0.2..0.3`",
        ),
        // A lexical error anywhere on a line comes before a grammar error
        // earlier on that line, but not before one on an earlier line.
        (
            "toplevel T; toplevel U; a prob=x;",
            1,
            27,
            "invalid probability `x`",
        ),
        (
            "toplevel T; T or a prob=0.5 \"unterminated",
            1,
            29,
            "unterminated quoted name",
        ),
        (
            "toplevel T;\ntoplevel U;\na prob=x;",
            2,
            1,
            "duplicate `toplevel` declaration",
        ),
        // Statements.
        ("toplevel;", 1, 1, "expected name after `toplevel`"),
        ("toplevel and T;", 1, 1, "expected name after `toplevel`"),
        (
            "toplevel T U;",
            1,
            12,
            "unexpected tokens after toplevel name",
        ),
        (
            "toplevel T\"x\";",
            1,
            11,
            "unexpected tokens after toplevel name",
        ),
        (
            "toplevel T; T or a; a prob=0.1 b;",
            1,
            32,
            "unexpected tokens after probability",
        ),
        (
            "toplevel T; T or a; a prob=0.1..0.2 b;",
            1,
            37,
            "unexpected tokens after probability",
        ),
        (
            "toplevel T; toplevel T;",
            1,
            13,
            "duplicate `toplevel` declaration",
        ),
        (
            "toplevel T; T or a; T and b;",
            1,
            21,
            "`T` already defined on line 1",
        ),
        (
            "toplevel T; T or a;\n\n\na prob=0.1;\nb;\na;",
            6,
            1,
            "`a` already defined on line 4",
        ),
        (
            "toplevel T; T or a 2of3;",
            1,
            20,
            "expected child name, found Vot(2, 3)",
        ),
        (
            "toplevel T; T or a prob=0.5;",
            1,
            20,
            "expected child name, found Prob(0.5)",
        ),
        (
            "toplevel T; T or prob=0.1..0.2;",
            1,
            18,
            "expected child name, found ProbRange(0.1, 0.2)",
        ),
        (
            "toplevel T; T and a or;",
            1,
            21,
            "expected child name, found Keyword(\"or\")",
        ),
        ("toplevel T; T and;", 1, 13, "gate `T` has no children"),
        ("toplevel T; T or", 1, 13, "gate `T` has no children"),
        (
            "toplevel T; T a b;",
            1,
            15,
            "expected gate keyword or probability, found Name(\"a\")",
        ),
        (
            "toplevel T; T toplevel;",
            1,
            15,
            "expected gate keyword or probability, found Keyword(\"toplevel\")",
        ),
        (
            "toplevel T; and T a;",
            1,
            13,
            "unexpected token Keyword(\"and\")",
        ),
        ("toplevel T; 2of3 a;", 1, 13, "unexpected token Vot(2, 3)"),
        (
            "\u{feff}toplevel T; T or a;",
            1,
            11,
            "expected gate keyword or probability, found Name(\"T\")",
        ),
        // Checks over the whole model.
        ("T or a b;", 0, 0, "missing `toplevel` declaration"),
        ("", 0, 0, "missing `toplevel` declaration"),
        (
            "toplevel T;\n  T 2of3 a b;",
            2,
            3,
            "gate `T` declares VOT(_/3) but has 2 children",
        ),
        (
            "toplevel T; T or a; a 2of3;",
            1,
            21,
            "gate `a` declares VOT(_/3) but has 0 children",
        ),
        ("toplevel X; T or a;", 0, 0, "unknown element `X`"),
        (
            "toplevel a; T or a;",
            0,
            0,
            "top element `a` is a basic event",
        ),
        ("toplevel T; T 0of0;", 0, 0, "gate `T` has no children"),
        (
            "toplevel T; T 0of2 a b;",
            0,
            0,
            "gate `T` is VOT(0/2) but requires 1 <= k <= 2",
        ),
        (
            "toplevel T; T or A; A and T b;",
            0,
            0,
            "cycle through element `T`",
        ),
        (
            "toplevel T; T or a; U or b;",
            0,
            0,
            "element `b` is not reachable from the top element",
        ),
        (
            "toplevel T; T or a; c;",
            0,
            0,
            "element `c` is not reachable from the top element",
        ),
        (
            "toplevel T; T or a\n b;",
            0,
            0,
            "element `b` is not reachable from the top element",
        ),
        // Columns count characters, across non-ASCII names and spaces.
        (
            "toplevel \"Tö\"; \"Tö\" or \"日本\" b; b prob=zz;",
            1,
            34,
            "invalid probability `zz`",
        ),
        (
            "toplevel T;\u{a0}T\u{2003}or\u{3000}a b;\u{85}b prob=q;",
            1,
            25,
            "invalid probability `q`",
        ),
        (
            "toplevel T; éé or a prob=0.5;",
            1,
            21,
            "expected child name, found Prob(0.5)",
        ),
        (
            "toplevel G; G or \u{1F600} \"\u{1F600}x\"; \u{1F600} prob=w;",
            1,
            28,
            "invalid probability `w`",
        ),
    ];

    #[test]
    fn declaration_locations_recorded_and_round_trip() {
        let model =
            parse("toplevel T;\nT or g1 b;\n  g1 and \"x\" y;\nb prob=0.5;\n\"x\";\n").unwrap();
        assert_eq!(model.location("T"), Some((2, 1)));
        assert_eq!(model.location("g1"), Some((3, 3)));
        assert_eq!(model.location("b"), Some((4, 1)));
        assert_eq!(model.location("x"), Some((5, 1)));
        // `y` is implicit: referenced, never declared, no location.
        assert_eq!(model.location("y"), None);

        // Serialise and reparse: every element of the emitted text is an
        // explicit declaration, so the reparse locates all of them.
        let text = to_galileo(&model.tree, Some(&model.probabilities));
        let model2 = parse(&text).unwrap();
        for e in model2.tree.iter() {
            assert!(
                model2.location(model2.tree.name(e)).is_some(),
                "{} has no location after round-trip",
                model2.tree.name(e)
            );
        }
    }

    #[test]
    fn quoted_names_with_special_characters() {
        let model = parse("toplevel \"CP/R\"; \"CP/R\" or \"a b\" c;").unwrap();
        assert!(model.tree.element("a b").is_some());
        assert!(model.tree.element("CP/R").is_some());
    }

    #[test]
    fn a_comment_starts_only_outside_quotes() {
        let mut b = FaultTreeBuilder::new();
        b.gate("http://top", GateType::Or, ["a//b", "c"]).unwrap();
        b.basic_events(["a//b", "c"]).unwrap();
        let tree = b.build("http://top").unwrap();
        let model = parse(&to_galileo(&tree, None)).unwrap();
        assert_eq!(model.tree.name(model.tree.top()), "http://top");
        assert_eq!(model.tree.basic_event_names(), ["a//b", "c"]);

        let model =
            parse("toplevel T; T or \"c//d\" a//b \"e\"\n\"c//d\" prob=0.5; // \"x").unwrap();
        assert_eq!(model.tree.basic_event_names(), ["c//d", "a"]);
        assert_eq!(model.probabilities, [Some(0.5), None]);
    }

    #[test]
    fn implicit_basic_events_follow_explicit_ones_in_first_reference_order() {
        let model = parse("toplevel T; T or z a G x; G and x y a; a; x prob=0.5;").unwrap();
        let names: Vec<&str> = model.tree.iter().map(|e| model.tree.name(e)).collect();
        assert_eq!(names, ["a", "x", "z", "y", "T", "G"]);
        assert_eq!(model.probabilities, [None, Some(0.5), None, None]);
        assert_eq!(model.location("z"), None);
    }

    /// Asserts that two trees agree element for element: names, kinds,
    /// children, basic indices and the name index.
    fn assert_same_tree(got: &FaultTree, want: &FaultTree) {
        assert_eq!(got.len(), want.len());
        assert_eq!(got.top(), want.top());
        for e in want.iter() {
            assert_eq!(got.name(e), want.name(e));
            assert_eq!(got.gate_type(e), want.gate_type(e), "{}", want.name(e));
            assert_eq!(got.children(e), want.children(e), "{}", want.name(e));
            assert_eq!(got.basic_index(e), want.basic_index(e), "{}", want.name(e));
            assert_eq!(got.element(want.name(e)), Some(e));
        }
    }

    fn bits(p: Option<f64>) -> Option<u64> {
        p.map(f64::to_bits)
    }

    fn interval_bits(iv: Option<ProbInterval>) -> Option<(u64, u64)> {
        iv.map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()))
    }

    /// Emits `tree` with `to_galileo_annotated`, declaring only the basic
    /// events in `declared`, and checks the parse against the tree that
    /// `FaultTreeBuilder` makes from the same declarations: explicit basic
    /// events, then implicit ones in first-reference order, then gates.
    fn check_reparse(
        tree: &FaultTree,
        probabilities: &[Option<f64>],
        intervals: &[Option<ProbInterval>],
        declared: impl Fn(usize) -> bool,
    ) {
        let full = to_galileo_annotated(tree, Some(probabilities), Some(intervals));
        // Line 1 is `toplevel`, then one line per gate, then one per basic
        // event in basic-index order.
        let basic_lines = 1 + tree.num_gates()..;
        let text: String = full
            .lines()
            .enumerate()
            .filter(|(i, _)| !basic_lines.contains(i) || declared(i - basic_lines.start))
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let model = parse(&text).unwrap();

        // Basic events in the expected order, with their basic index in
        // `tree` if they are declared.
        let mut b = FaultTreeBuilder::new();
        let mut expected = Vec::new();
        for (bi, &e) in tree.basic_events().iter().enumerate() {
            if declared(bi) {
                b.basic_event(tree.name(e)).unwrap();
                expected.push((e, Some(bi)));
            }
        }
        let mut seen: std::collections::HashSet<_> = expected.iter().map(|&(e, _)| e).collect();
        for g in tree.gates() {
            for &c in tree.children(g) {
                if tree.is_basic(c) && seen.insert(c) {
                    b.basic_event(tree.name(c)).unwrap();
                    expected.push((c, None));
                }
            }
        }
        for g in tree.gates() {
            let children = tree.children(g).iter().map(|&c| tree.name(c));
            b.gate(tree.name(g), tree.gate_type(g).unwrap(), children)
                .unwrap();
        }
        let want = b.build(tree.name(tree.top())).unwrap();
        assert_same_tree(&model.tree, &want);

        // An interval wins over a point probability in the same slot;
        // an undeclared event carries neither.
        for (new_bi, &(_, bi)) in expected.iter().enumerate() {
            let (p, iv) = match bi.map(|bi| (probabilities[bi], intervals[bi])) {
                None => (None, None),
                Some((_, Some(iv))) => (None, Some(iv)),
                Some((p, None)) => (p, None),
            };
            assert_eq!(bits(model.probabilities[new_bi]), bits(p));
            assert_eq!(interval_bits(model.intervals[new_bi]), interval_bits(iv));
        }

        let mut locations = std::collections::HashMap::new();
        for (i, line) in text.lines().enumerate().skip(1) {
            let name = line.split('"').nth(1).unwrap();
            locations.insert(name, (i + 1, 1));
        }
        for e in model.tree.iter() {
            let name = model.tree.name(e);
            assert_eq!(model.location(name), locations.get(name).copied(), "{name}");
        }
        let located = model.locations.iter().filter(|l| l.is_some()).count();
        assert_eq!(located, locations.len());
    }

    #[test]
    fn reparse_matches_the_builder_element_for_element() {
        use crate::generator::{random_tree, RandomTreeConfig};
        use crate::rng::Prng;
        for seed in 0..40u64 {
            let tree = random_tree(&RandomTreeConfig {
                num_basic: 4 + seed as usize % 23,
                num_gates: 2 + seed as usize % 11,
                max_children: 2 + seed as usize % 5,
                vot_probability: 0.3,
                seed,
            });
            let mut rng = Prng::seed_from_u64(seed);
            let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let n = tree.num_basic_events();
            let probabilities: Vec<Option<f64>> =
                (0..n).map(|i| (i % 3 != 0).then(&mut unit)).collect();
            let intervals: Vec<Option<ProbInterval>> = (0..n)
                .map(|i| {
                    (i % 4 == 1).then(|| {
                        let (x, y) = (unit(), unit());
                        ProbInterval::new(x.min(y), x.max(y)).unwrap()
                    })
                })
                .collect();
            check_reparse(&tree, &probabilities, &intervals, |_| true);
            // A bare model: every other basic event is only referenced.
            check_reparse(&tree, &probabilities, &intervals, |bi| bi % 2 == 0);
        }
        for n in [1000, 5000] {
            let model = corpus::scaled_model(n);
            check_reparse(&model.tree, &model.probabilities, &model.intervals, |_| {
                true
            });
        }
    }

    #[test]
    fn a_model_on_one_line_parses_to_the_same_tree() {
        let model = corpus::scaled_model(5000);
        let text = to_galileo(&model.tree, Some(&model.probabilities));
        let lines = parse(&text).unwrap();
        let one_line = parse(&text.replace('\n', " ")).unwrap();
        assert_same_tree(&one_line.tree, &lines.tree);
        let all_bits =
            |m: &GalileoModel| m.probabilities.iter().map(|&p| bits(p)).collect::<Vec<_>>();
        assert_eq!(all_bits(&one_line), all_bits(&lines));
        // Line `k` of the original starts after the characters of lines
        // `1..k` and their joining spaces.
        let mut starts = vec![0];
        for line in text.lines() {
            starts.push(starts.last().unwrap() + line.chars().count() + 1);
        }
        for name in lines.tree.iter().map(|e| lines.tree.name(e)) {
            let (line, col) = lines.location(name).unwrap();
            assert_eq!(
                one_line.location(name),
                Some((1, starts[line - 1] + col)),
                "{name}"
            );
        }
    }
}
