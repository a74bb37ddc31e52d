//! Error taxonomy for the fallible LSGraph API.
//!
//! The engine's original entry points (`with_config`, `from_edges`,
//! `insert_batch`, `delete_batch`) panic on misuse and are kept for
//! ergonomic in-process use. Production callers use the `try_` variants,
//! which surface failures as values:
//!
//! * [`GraphError`] — the caller did something wrong (bad config, bad
//!   vertex id, repairing a healthy vertex).
//! * [`BatchOutcome`] — the batch itself succeeded, but one or more
//!   per-vertex apply tasks panicked and were contained; the affected
//!   vertices are quarantined and listed here.
//!
//! A structural self-check is not an error value: `check_invariants` panics
//! on the first violated invariant, and
//! `DynamicGraph::validate_structure` reports that panic as `Err`.

use std::error::Error;
use std::fmt;

use lsgraph_api::VertexId;

use crate::config::ConfigError;

/// A caller-visible failure from the fallible graph API.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// The supplied [`Config`](crate::Config) failed validation.
    InvalidConfig(ConfigError),
    /// `repair_vertex` was called on a vertex that is not quarantined.
    NotQuarantined(VertexId),
    /// A vertex id at or beyond `num_vertices` was supplied.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex-count bound.
        num_vertices: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidConfig(e) => write!(f, "invalid LSGraph configuration: {e}"),
            GraphError::NotQuarantined(v) => {
                write!(f, "vertex {v} is not quarantined and cannot be repaired")
            }
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for GraphError {
    fn from(e: ConfigError) -> Self {
        GraphError::InvalidConfig(e)
    }
}

/// What happened to a batch applied through `try_insert_batch` /
/// `try_delete_batch` / `try_from_edges`.
///
/// A non-clean outcome is still a *committed* batch: every run whose apply
/// task did not panic took effect, `num_edges` is exact, and the panicked
/// sources are quarantined (degree 0) rather than left half-written.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Edges actually added/removed by the runs that committed.
    pub applied: usize,
    /// Sources whose apply task panicked during *this* batch, now
    /// quarantined. Sorted ascending.
    pub quarantined: Vec<VertexId>,
    /// Edges dropped by quarantining (the pre-batch degrees of the newly
    /// quarantined sources).
    pub edges_lost: usize,
    /// Runs skipped because their source was already quarantined by an
    /// earlier batch.
    pub skipped_quarantined: usize,
}

impl BatchOutcome {
    /// Whether the batch applied with no faults and no skipped runs.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.skipped_quarantined == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4,
        };
        assert!(e.to_string().contains("vertex 9"));
        assert!(e.to_string().contains("4 vertices"));
        let e = GraphError::NotQuarantined(3);
        assert!(e.to_string().contains("not quarantined"));
    }

    #[test]
    fn config_error_converts() {
        let c = crate::Config {
            alpha: 0.5,
            ..Default::default()
        };
        let err = c.validate().unwrap_err();
        let g: GraphError = err.into();
        assert_eq!(g, GraphError::InvalidConfig(err));
        assert!(g.to_string().contains("invalid LSGraph configuration"));
    }

    #[test]
    fn outcome_cleanliness() {
        let mut o = BatchOutcome {
            applied: 10,
            ..Default::default()
        };
        assert!(o.is_clean());
        o.skipped_quarantined = 1;
        assert!(!o.is_clean());
        o.skipped_quarantined = 0;
        o.quarantined.push(5);
        assert!(!o.is_clean());
    }
}
