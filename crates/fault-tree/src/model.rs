//! The fault-tree model of Definition 1: elements, gate types,
//! well-formedness.

use std::error::Error;
use std::fmt;

use crate::names::NameTable;

/// Identifier of a fault-tree element (basic or intermediate event).
///
/// Ids are dense indices into the owning [`FaultTree`]; they are stable for
/// the lifetime of the tree and order elements by declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub(crate) u32);

impl ElementId {
    /// The dense index of this element inside its tree.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Gate types of static fault trees (Definition 1, extended with
/// `VOT(k/N)` as described in Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Fails iff *all* children have failed.
    And,
    /// Fails iff *at least one* child has failed.
    Or,
    /// `VOT(k/N)`: fails iff at least `k` of its `N` children have failed.
    ///
    /// The arity `N` is the number of children of the gate; the
    /// well-formedness check enforces `1 ≤ k ≤ N`.
    Vot {
        /// The threshold `k`.
        k: u32,
    },
}

impl fmt::Display for GateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateType::And => write!(f, "and"),
            GateType::Or => write!(f, "or"),
            GateType::Vot { k } => write!(f, "vot({k})"),
        }
    }
}

/// The role of an element: a leaf or a gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ElementKind {
    Basic,
    Gate(GateType),
}

#[derive(Debug, Clone)]
pub(crate) struct Element {
    pub(crate) kind: ElementKind,
    /// Children in declaration order; empty for basic events.
    pub(crate) children: Vec<ElementId>,
}

/// Errors raised while constructing or validating a fault tree.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultTreeError {
    /// An element name was declared twice.
    DuplicateName(String),
    /// A referenced element name does not exist.
    UnknownElement(String),
    /// A gate was declared with no children (Def. 1 requires `ch(e) ≠ ∅`).
    EmptyChildren(String),
    /// A `VOT(k/N)` gate with `k = 0` or `k > N`.
    VotArity {
        /// Gate name.
        name: String,
        /// Declared threshold.
        k: u32,
        /// Number of children.
        n: usize,
    },
    /// The graph contains a cycle through the named element.
    Cycle(String),
    /// An element is not reachable from the top element.
    Unreachable(String),
    /// The chosen top element is a basic event, not a gate.
    BasicTop(String),
    /// A basic event was given children.
    BasicWithChildren(String),
    /// The element names total more than 4 GiB, the reach of the name
    /// table's offsets.
    NamesTooLong,
}

impl fmt::Display for FaultTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTreeError::DuplicateName(n) => write!(f, "duplicate element name `{n}`"),
            FaultTreeError::UnknownElement(n) => write!(f, "unknown element `{n}`"),
            FaultTreeError::EmptyChildren(n) => write!(f, "gate `{n}` has no children"),
            FaultTreeError::VotArity { name, k, n } => {
                write!(
                    f,
                    "gate `{name}` is VOT({k}/{n}) but requires 1 <= k <= {n}"
                )
            }
            FaultTreeError::Cycle(n) => write!(f, "cycle through element `{n}`"),
            FaultTreeError::Unreachable(n) => {
                write!(f, "element `{n}` is not reachable from the top element")
            }
            FaultTreeError::BasicTop(n) => write!(f, "top element `{n}` is a basic event"),
            FaultTreeError::BasicWithChildren(n) => {
                write!(f, "basic event `{n}` cannot have children")
            }
            FaultTreeError::NamesTooLong => write!(f, "element names exceed 4 GiB in total"),
        }
    }
}

impl Error for FaultTreeError {}

/// A well-formed static fault tree `T = ⟨BE, IE, t, ch⟩` (Definition 1).
///
/// Use [`FaultTreeBuilder`](crate::FaultTreeBuilder) or the
/// [`galileo`](crate::galileo) parser to construct trees; construction
/// validates well-formedness (acyclicity, a unique top gate from which all
/// elements are reachable, non-empty gate children, VOT arity).
///
/// Basic events carry a *basic index* — their position among basic events
/// in declaration order — which is the index used by
/// [`StatusVector`](crate::StatusVector)s (Definition 2).
#[derive(Debug, Clone)]
pub struct FaultTree {
    pub(crate) elements: Vec<Element>,
    /// Element names; a name's id is its element's index.
    pub(crate) names: NameTable,
    pub(crate) top: ElementId,
    /// Basic events in declaration order.
    pub(crate) basic: Vec<ElementId>,
    /// For each element: `Some(basic index)` if it is a basic event.
    pub(crate) basic_index: Vec<Option<usize>>,
}

impl FaultTree {
    /// Assembles a tree whose element ids are positions in `elements` and
    /// ids in `names`, derives the basic-event indices, and validates it.
    /// This is the one constructor behind [`FaultTreeBuilder::build`] and
    /// [`galileo::parse`]; both hand it a table with one name per
    /// element, in element order.
    ///
    /// [`FaultTreeBuilder::build`]: crate::FaultTreeBuilder::build
    /// [`galileo::parse`]: crate::galileo::parse
    pub(crate) fn new(
        elements: Vec<Element>,
        names: NameTable,
        top: ElementId,
    ) -> Result<FaultTree, FaultTreeError> {
        debug_assert_eq!(names.len(), elements.len(), "one name per element");
        let mut basic = Vec::new();
        let basic_index = elements
            .iter()
            .enumerate()
            .map(|(i, el)| {
                matches!(el.kind, ElementKind::Basic).then(|| {
                    basic.push(ElementId(i as u32));
                    basic.len() - 1
                })
            })
            .collect();
        let tree = FaultTree {
            elements,
            names,
            top,
            basic,
            basic_index,
        };
        tree.validate()?;
        Ok(tree)
    }

    /// The top element `e_top`.
    pub fn top(&self) -> ElementId {
        self.top
    }

    /// Total number of elements `|E| = |BE| + |IE|`.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the tree has no elements. Well-formed trees are never empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of basic events `|BE|`.
    pub fn num_basic_events(&self) -> usize {
        self.basic.len()
    }

    /// Number of intermediate events `|IE|`.
    pub fn num_gates(&self) -> usize {
        self.elements.len() - self.basic.len()
    }

    /// Looks an element up by name.
    pub fn element(&self, name: &str) -> Option<ElementId> {
        self.names.get(name).map(|i| ElementId(i as u32))
    }

    /// Looks an element up by name, as a `Result`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultTreeError::UnknownElement`] if absent.
    pub fn require(&self, name: &str) -> Result<ElementId, FaultTreeError> {
        self.element(name)
            .ok_or_else(|| FaultTreeError::UnknownElement(name.to_string()))
    }

    /// The name of an element.
    pub fn name(&self, e: ElementId) -> &str {
        self.names.name(e.index())
    }

    /// Whether `e` is a basic event.
    pub fn is_basic(&self, e: ElementId) -> bool {
        matches!(self.elements[e.index()].kind, ElementKind::Basic)
    }

    /// The gate type of an intermediate event (`t(e)`), `None` for basic
    /// events.
    pub fn gate_type(&self, e: ElementId) -> Option<GateType> {
        match self.elements[e.index()].kind {
            ElementKind::Basic => None,
            ElementKind::Gate(t) => Some(t),
        }
    }

    /// The children `ch(e)` of an element (empty for basic events).
    pub fn children(&self, e: ElementId) -> &[ElementId] {
        &self.elements[e.index()].children
    }

    /// All elements in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.elements.len() as u32).map(ElementId)
    }

    /// Basic events in declaration order — the universe of
    /// [`StatusVector`](crate::StatusVector)s.
    pub fn basic_events(&self) -> &[ElementId] {
        &self.basic
    }

    /// Intermediate events in declaration order.
    pub fn gates(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.iter().filter(|&e| !self.is_basic(e))
    }

    /// The basic index of a basic event (its position in
    /// [`FaultTree::basic_events`]), `None` for gates.
    pub fn basic_index(&self, e: ElementId) -> Option<usize> {
        self.basic_index[e.index()]
    }

    /// Names of all basic events, in basic-index order.
    pub fn basic_event_names(&self) -> Vec<&str> {
        self.basic.iter().map(|&e| self.name(e)).collect()
    }

    /// The set of basic events in the cone of `e` (the leaves of the
    /// subtree rooted at `e`), in basic-index order.
    pub fn basic_events_under(&self, e: ElementId) -> Vec<ElementId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![e];
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            if self.is_basic(x) {
                out.push(x);
            } else {
                stack.extend(self.children(x).iter().copied());
            }
        }
        out.sort_by_key(|&b| self.basic_index(b));
        out
    }

    /// Validates well-formedness; called by [`FaultTree::new`].
    fn validate(&self) -> Result<(), FaultTreeError> {
        // Top must be a gate.
        if self.is_basic(self.top) {
            return Err(FaultTreeError::BasicTop(self.name(self.top).to_string()));
        }
        for e in self.iter() {
            let el = &self.elements[e.index()];
            let name = || self.name(e).to_string();
            match el.kind {
                ElementKind::Basic => {
                    if !el.children.is_empty() {
                        return Err(FaultTreeError::BasicWithChildren(name()));
                    }
                }
                ElementKind::Gate(t) => {
                    if el.children.is_empty() {
                        return Err(FaultTreeError::EmptyChildren(name()));
                    }
                    if let GateType::Vot { k } = t {
                        let n = el.children.len();
                        if k == 0 || k as usize > n {
                            return Err(FaultTreeError::VotArity { name: name(), k, n });
                        }
                    }
                }
            }
        }
        // Acyclicity via iterative DFS with colouring, and reachability
        // from the top element.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.len()];
        let mut stack: Vec<(ElementId, usize)> = vec![(self.top, 0)];
        colour[self.top.index()] = Colour::Grey;
        while let Some(&mut (e, ref mut next)) = stack.last_mut() {
            let children = &self.elements[e.index()].children;
            if *next < children.len() {
                let c = children[*next];
                *next += 1;
                match colour[c.index()] {
                    Colour::White => {
                        colour[c.index()] = Colour::Grey;
                        stack.push((c, 0));
                    }
                    Colour::Grey => {
                        return Err(FaultTreeError::Cycle(self.name(c).to_string()));
                    }
                    Colour::Black => {}
                }
            } else {
                colour[e.index()] = Colour::Black;
                stack.pop();
            }
        }
        for e in self.iter() {
            if colour[e.index()] == Colour::White {
                return Err(FaultTreeError::Unreachable(self.name(e).to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{FaultTreeBuilder, FaultTreeError, GateType};

    #[test]
    fn accessors() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b"]).unwrap();
        b.gate("top", GateType::And, ["a", "b"]).unwrap();
        let t = b.build("top").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_basic_events(), 2);
        assert_eq!(t.num_gates(), 1);
        assert_eq!(t.name(t.top()), "top");
        assert_eq!(t.gate_type(t.top()), Some(GateType::And));
        let a = t.element("a").unwrap();
        assert!(t.is_basic(a));
        assert_eq!(t.basic_index(a), Some(0));
        assert_eq!(t.children(t.top()).len(), 2);
        assert_eq!(t.basic_event_names(), vec!["a", "b"]);
    }

    #[test]
    fn cycle_detected() {
        let mut b = FaultTreeBuilder::new();
        b.basic_event("x").unwrap();
        b.gate("g1", GateType::And, ["g2", "x"]).unwrap();
        b.gate("g2", GateType::Or, ["g1"]).unwrap();
        let err = b.build("g1").unwrap_err();
        assert!(matches!(err, FaultTreeError::Cycle(_)));
    }

    #[test]
    fn unreachable_detected() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b", "orphan"]).unwrap();
        b.gate("top", GateType::Or, ["a", "b"]).unwrap();
        let err = b.build("top").unwrap_err();
        assert_eq!(err, FaultTreeError::Unreachable("orphan".to_string()));
    }

    #[test]
    fn vot_arity_checked() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b"]).unwrap();
        b.gate("top", GateType::Vot { k: 3 }, ["a", "b"]).unwrap();
        let err = b.build("top").unwrap_err();
        assert!(matches!(err, FaultTreeError::VotArity { .. }));
    }

    #[test]
    fn basic_top_rejected() {
        let mut b = FaultTreeBuilder::new();
        b.basic_event("a").unwrap();
        let err = b.build("a").unwrap_err();
        assert!(matches!(err, FaultTreeError::BasicTop(_)));
    }

    #[test]
    fn dag_sharing_allowed() {
        // Repeated basic events and shared gates are legal (Fig. 2 uses
        // both).
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["x", "y"]).unwrap();
        b.gate("shared", GateType::Or, ["x", "y"]).unwrap();
        b.gate("g1", GateType::And, ["shared", "x"]).unwrap();
        b.gate("g2", GateType::And, ["shared", "y"]).unwrap();
        b.gate("top", GateType::Or, ["g1", "g2"]).unwrap();
        let t = b.build("top").unwrap();
        assert_eq!(t.num_gates(), 4);
    }

    #[test]
    fn cone_of_influence() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b", "c"]).unwrap();
        b.gate("g", GateType::And, ["a", "b"]).unwrap();
        b.gate("top", GateType::Or, ["g", "c"]).unwrap();
        let t = b.build("top").unwrap();
        let g = t.element("g").unwrap();
        let cone = t.basic_events_under(g);
        let names: Vec<&str> = cone.iter().map(|&e| t.name(e)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
