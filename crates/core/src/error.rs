//! Error type shared by the evaluator and model checker.

use std::error::Error;
use std::fmt;

use crate::ast::Formula;
use crate::checker::MAX_LISTED_SETS;

/// Errors raised when interpreting a BFL formula against a fault tree.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BflError {
    /// The formula mentions an element the tree does not contain.
    UnknownElement(String),
    /// Evidence (`ϕ[e↦v]`) targets an intermediate event; the semantics of
    /// Section III-B defines evidence on status vectors, i.e. on basic
    /// events only.
    EvidenceOnGate(String),
    /// A problem too large for the exhaustive reference evaluator.
    TooLarge {
        /// Number of basic events requested.
        actual: usize,
        /// The evaluator's limit.
        limit: usize,
    },
    /// A probabilistic query was issued against a session whose model
    /// lacks `prob=` annotations for the listed basic events.
    MissingProbabilities {
        /// Basic events without a probability annotation, in basic-index
        /// order.
        events: Vec<String>,
    },
    /// A probability vector does not fit the tree (wrong length, or a
    /// value outside `[0, 1]` / not finite). Replaces the panics the
    /// quantitative layer used to raise on malformed input.
    InvalidProbability {
        /// What was wrong, naming the offending event where possible.
        reason: String,
    },
    /// A probability bound `p` of a threshold judgement `P(ϕ) ▷◁ p` is
    /// outside `[0, 1]` or not finite.
    InvalidBound {
        /// The offending bound, rendered.
        bound: String,
    },
    /// A quantitative ratio is undefined because its denominator is zero
    /// (or too small to divide by safely): importance measures of an
    /// almost-surely-false formula, for example.
    DivisionByZero {
        /// The computation whose denominator vanished.
        context: String,
    },
    /// A probability was requested of a query shape that has none (e.g.
    /// `IDP`/`SUP`, which compare supports rather than describe an
    /// event).
    UnsupportedProbability {
        /// Concrete syntax of the offending query.
        query: String,
    },
    /// An exact (point) probability evaluation was requested against a
    /// model whose listed basic events carry **interval** annotations
    /// (`prob=lo..hi`). Exact quantities — including the importance
    /// suite — are undefined under interval uncertainty; re-run with
    /// `method=interval` or replace the intervals with points.
    IntervalProbabilities {
        /// Basic events annotated with an interval, in basic-index
        /// order.
        events: Vec<String>,
    },
    /// The requested evaluation [`Method`](crate::uncertainty::Method)
    /// cannot answer this query shape (e.g. Monte Carlo estimation of a
    /// formula containing `MCS`/`MPS`, or a non-exact importance
    /// ranking).
    UnsupportedMethod {
        /// The offending method, rendered (`exact`, `interval`, `mc`).
        method: String,
        /// Why the method does not apply.
        context: String,
    },
    /// A shape-specific prepared-query entry point (e.g.
    /// [`cause`](crate::plan::PreparedQuery::cause)) was called on a plan
    /// compiled from a query of a different shape.
    PlanShapeMismatch {
        /// The shape the entry point expects (`cause`).
        expected: &'static str,
        /// Concrete syntax of the offending query.
        query: String,
    },
    /// An exact count (satisfying vectors, minimal causes) exceeds
    /// `u128::MAX`, the range of the BDD model counter: 2^128 − 1, e.g.
    /// the 7.5·10³⁸ minimal causes of a 67-of-133 vote with every event
    /// failed.
    CountOverflow {
        /// What was counted, e.g. "satisfying vectors of `top`".
        what: String,
    },
    /// A listing of minimal cut or path sets was refused: the family has
    /// more than [`MAX_LISTED_SETS`] members. It is counted before
    /// anything is listed, so the refusal is cheap; `bfl count` on
    /// `MCS(element)`/`MPS(element)` gives the number.
    TooManySets {
        /// The element whose sets were asked for.
        element: String,
        /// Cut sets (`true`) or path sets (`false`).
        cuts: bool,
        /// The number of sets, `None` past `u128::MAX`.
        count: Option<u128>,
    },
    /// A listing of satisfying vectors was refused: the satisfaction
    /// set has more than [`MAX_LISTED_SETS`] members. It is counted
    /// before anything is listed, so the refusal is cheap; `bfl count`
    /// on the formula gives the number.
    TooManyVectors {
        /// Concrete syntax of the formula.
        formula: String,
        /// The number of satisfying vectors, `None` past `u128::MAX`.
        count: Option<u128>,
    },
    /// An engine invariant was violated (a worker thread died without
    /// delivering its result, a poisoned lock left shared state
    /// unreadable). Replaces the `expect`/panic paths the sweep
    /// machinery used to take: callers get a structured error instead of
    /// a crashed process.
    Internal {
        /// What went wrong, for the log line.
        context: String,
    },
}

impl fmt::Display for BflError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BflError::UnknownElement(n) => write!(f, "unknown fault tree element `{n}`"),
            BflError::EvidenceOnGate(n) => write!(
                f,
                "evidence on `{n}` is invalid: only basic events can be set in a status vector"
            ),
            BflError::TooLarge { actual, limit } => write!(
                f,
                "reference evaluator limited to {limit} basic events, tree has {actual}"
            ),
            BflError::MissingProbabilities { events } => {
                write!(f, "missing prob= annotations for: {}", events.join(", "))
            }
            BflError::InvalidProbability { reason } => {
                write!(f, "invalid probability vector: {reason}")
            }
            BflError::InvalidBound { bound } => {
                write!(f, "probability bound {bound} outside [0, 1]")
            }
            BflError::DivisionByZero { context } => {
                write!(f, "division by zero: {context}")
            }
            BflError::UnsupportedProbability { query } => {
                write!(
                    f,
                    "`{query}` has no probability (only formula-shaped queries do)"
                )
            }
            BflError::IntervalProbabilities { events } => {
                write!(
                    f,
                    "exact probabilities undefined: interval prob= annotations on: {}",
                    events.join(", ")
                )
            }
            BflError::UnsupportedMethod { method, context } => {
                write!(f, "method `{method}` cannot answer this query: {context}")
            }
            BflError::PlanShapeMismatch { expected, query } => {
                write!(f, "`{query}` is not a `{expected}` plan")
            }
            BflError::CountOverflow { what } => {
                write!(f, "too many {what} to count: more than 2^128 - 1")
            }
            BflError::TooManySets {
                element,
                cuts,
                count,
            } => {
                let atom = Formula::atom(element.as_str());
                let (kind, family) = if *cuts {
                    ("cut", atom.mcs())
                } else {
                    ("path", atom.mps())
                };
                let count = listing_count(*count);
                write!(
                    f,
                    "`{element}` has {count} minimal {kind} sets, more than the {MAX_LISTED_SETS} \
                     a listing may hold; count them with `bfl count '{family}'` under the same \
                     minimality scope"
                )
            }
            BflError::TooManyVectors { formula, count } => {
                let count = listing_count(*count);
                write!(
                    f,
                    "`{formula}` has {count} satisfying vectors, more than the {MAX_LISTED_SETS} \
                     a listing may hold; count them with `bfl count '{formula}'`"
                )
            }
            BflError::Internal { context } => {
                write!(f, "internal engine error: {context}")
            }
        }
    }
}

impl Error for BflError {}

/// The size of a refused listing, `None` being past `u128::MAX`.
fn listing_count(count: Option<u128>) -> String {
    count.map_or_else(|| "more than 2^128 - 1".to_string(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(BflError::UnknownElement("x".into())
            .to_string()
            .contains("`x`"));
        assert!(BflError::EvidenceOnGate("g".into())
            .to_string()
            .contains("basic events"));
        let e = BflError::TooLarge {
            actual: 30,
            limit: 20,
        };
        assert!(e.to_string().contains("30"));
        assert!(BflError::InvalidProbability {
            reason: "`x` is NaN".into()
        }
        .to_string()
        .contains("NaN"));
        assert!(BflError::InvalidBound {
            bound: "1.5".into()
        }
        .to_string()
        .contains("[0, 1]"));
        assert!(BflError::DivisionByZero {
            context: "P(phi) = 0".into()
        }
        .to_string()
        .contains("zero"));
        assert!(BflError::UnsupportedProbability {
            query: "SUP(PP)".into()
        }
        .to_string()
        .contains("SUP(PP)"));
        assert!(BflError::Internal {
            context: "sweep worker died".into()
        }
        .to_string()
        .contains("sweep worker died"));
        assert!(BflError::IntervalProbabilities {
            events: vec!["a".into(), "b".into()]
        }
        .to_string()
        .contains("a, b"));
        let e = BflError::PlanShapeMismatch {
            expected: "cause",
            query: "exists Top".into(),
        };
        assert!(e.to_string().contains("exists Top"));
        assert!(BflError::CountOverflow {
            what: "satisfying vectors of `top`".into()
        }
        .to_string()
        .contains("2^128"));
        assert_eq!(
            BflError::TooManySets {
                element: "pump A".into(),
                cuts: false,
                count: Some(1_000_001),
            }
            .to_string(),
            "`pump A` has 1000001 minimal path sets, more than the 1000000 a listing may hold; \
             count them with `bfl count 'MPS(\"pump A\")'` under the same minimality scope"
        );
        assert!(BflError::TooManySets {
            element: "top".into(),
            cuts: true,
            count: None,
        }
        .to_string()
        .starts_with("`top` has more than 2^128 - 1 minimal cut sets"));
        assert_eq!(
            BflError::TooManyVectors {
                formula: "top & !\"pump A\"".into(),
                count: Some(1_000_001),
            }
            .to_string(),
            "`top & !\"pump A\"` has 1000001 satisfying vectors, more than the 1000000 a \
             listing may hold; count them with `bfl count 'top & !\"pump A\"'`"
        );
        assert!(BflError::TooManyVectors {
            formula: "top".into(),
            count: None,
        }
        .to_string()
        .starts_with("`top` has more than 2^128 - 1 satisfying vectors"));
        assert!(e.to_string().contains("`cause`"));
        let e = BflError::UnsupportedMethod {
            method: "mc".into(),
            context: "formula contains MCS/MPS".into(),
        };
        assert!(e.to_string().contains("`mc`"));
        assert!(e.to_string().contains("MCS/MPS"));
    }
}
