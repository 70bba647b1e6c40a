//! Incremental construction of well-formed fault trees.

use crate::model::{Element, ElementId, ElementKind, FaultTree, FaultTreeError, GateType};
use crate::names::NameTable;

/// A builder for [`FaultTree`]s.
///
/// Elements may be declared in any order; gates may reference children
/// declared later (forward references are resolved at
/// [`build`](FaultTreeBuilder::build) time). `build` validates
/// well-formedness per Definition 1.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{FaultTreeBuilder, GateType};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FaultTreeBuilder::new();
/// b.gate("top", GateType::Vot { k: 2 }, ["a", "b", "c"])?;
/// b.basic_events(["a", "b", "c"])?;
/// let tree = b.build("top")?;
/// assert_eq!(tree.num_basic_events(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FaultTreeBuilder {
    /// Declared names; a name's id is its declaration index.
    names: NameTable,
    /// Per declaration: `None` for a basic event, else the gate type and
    /// the child names.
    bodies: Vec<Option<(GateType, Vec<String>)>>,
}

impl FaultTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(
        &mut self,
        name: &str,
        body: Option<(GateType, Vec<String>)>,
    ) -> Result<(), FaultTreeError> {
        match self.names.intern(name) {
            None => Err(FaultTreeError::NamesTooLong),
            Some((_, false)) => Err(FaultTreeError::DuplicateName(name.to_string())),
            Some((_, true)) => {
                self.bodies.push(body);
                Ok(())
            }
        }
    }

    /// Declares a basic event.
    ///
    /// # Errors
    ///
    /// Returns [`FaultTreeError::DuplicateName`] if the name is taken, and
    /// [`FaultTreeError::NamesTooLong`] past 4 GiB of names.
    pub fn basic_event(&mut self, name: &str) -> Result<&mut Self, FaultTreeError> {
        self.declare(name, None)?;
        Ok(self)
    }

    /// Declares several basic events at once.
    ///
    /// # Errors
    ///
    /// As [`FaultTreeBuilder::basic_event`], on the first name refused.
    pub fn basic_events<I, S>(&mut self, names: I) -> Result<&mut Self, FaultTreeError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for n in names {
            self.basic_event(n.as_ref())?;
        }
        Ok(self)
    }

    /// Declares a gate with the given type and children (by name).
    ///
    /// # Errors
    ///
    /// As [`FaultTreeBuilder::basic_event`].
    pub fn gate<I, S>(
        &mut self,
        name: &str,
        gate_type: GateType,
        children: I,
    ) -> Result<&mut Self, FaultTreeError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let children: Vec<String> = children
            .into_iter()
            .map(|s| s.as_ref().to_string())
            .collect();
        self.declare(name, Some((gate_type, children)))?;
        Ok(self)
    }

    /// Finishes construction with `top` as the top element.
    ///
    /// # Errors
    ///
    /// Returns the first well-formedness violation found: unknown child or
    /// top names, duplicate names, empty gates, bad VOT arity, cycles, or
    /// elements unreachable from `top`.
    pub fn build(&self, top: &str) -> Result<FaultTree, FaultTreeError> {
        let id = |name: &str| {
            self.names
                .get(name)
                .map(|i| ElementId(i as u32))
                .ok_or_else(|| FaultTreeError::UnknownElement(name.to_string()))
        };
        let mut elements = Vec::with_capacity(self.bodies.len());
        for body in &self.bodies {
            let (kind, children) = match body {
                None => (ElementKind::Basic, Vec::new()),
                Some((t, child_names)) => (
                    ElementKind::Gate(*t),
                    child_names
                        .iter()
                        .map(|c| id(c))
                        .collect::<Result<_, _>>()?,
                ),
            };
            elements.push(Element { kind, children });
        }
        let top = id(top)?;
        FaultTree::new(elements, self.names.clone(), top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_references_resolve() {
        let mut b = FaultTreeBuilder::new();
        b.gate("top", GateType::Or, ["later"]).unwrap();
        b.basic_event("later").unwrap();
        let t = b.build("top").unwrap();
        assert_eq!(t.num_basic_events(), 1);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = FaultTreeBuilder::new();
        b.basic_event("x").unwrap();
        let err = b.basic_event("x").unwrap_err();
        assert_eq!(err, FaultTreeError::DuplicateName("x".to_string()));
    }

    #[test]
    fn unknown_child_rejected() {
        let mut b = FaultTreeBuilder::new();
        b.gate("top", GateType::And, ["ghost"]).unwrap();
        let err = b.build("top").unwrap_err();
        assert_eq!(err, FaultTreeError::UnknownElement("ghost".to_string()));
    }

    #[test]
    fn unknown_top_rejected() {
        let b = FaultTreeBuilder::new();
        let err = b.build("top").unwrap_err();
        assert_eq!(err, FaultTreeError::UnknownElement("top".to_string()));
    }

    #[test]
    fn basic_index_in_declaration_order() {
        let mut b = FaultTreeBuilder::new();
        b.basic_event("b0").unwrap();
        b.gate("g", GateType::Or, ["b0", "b1"]).unwrap();
        b.basic_event("b1").unwrap();
        let t = b.build("g").unwrap();
        assert_eq!(t.basic_event_names(), vec!["b0", "b1"]);
    }
}
