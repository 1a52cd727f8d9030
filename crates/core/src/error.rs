//! Errors of the joint budget/buffer computation.

use bbs_conic::ConicError;
use bbs_taskgraph::{BufferRef, MemoryId, ModelError, ProcessorId, TaskGraphId};
use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::compute_mapping`] and related entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingError {
    /// The input configuration failed validation.
    Model(ModelError),
    /// The underlying conic solver failed numerically.
    Solver(ConicError),
    /// A processor cannot host its tasks even with the minimum budgets
    /// implied by the throughput requirements.
    ProcessorOverloaded {
        /// The overloaded processor.
        processor: ProcessorId,
        /// Minimum cycles needed per replenishment interval (budgets at
        /// their throughput-implied minima, plus granularity and overhead).
        required: f64,
        /// Cycles available per replenishment interval.
        available: f64,
    },
    /// A memory cannot hold even the minimum-size buffers placed in it.
    MemoryOverflow {
        /// The overflowing memory.
        memory: MemoryId,
        /// Minimum storage needed.
        required: u64,
        /// Storage available.
        available: u64,
    },
    /// A buffer's capacity cap is smaller than its number of initially
    /// filled containers, so no feasible capacity exists.
    CapBelowInitialTokens {
        /// The offending buffer.
        buffer: BufferRef,
        /// The configured cap.
        cap: u64,
        /// The number of initially filled containers.
        initial_tokens: u64,
    },
    /// The optimiser ended without an optimum. This is not always a proof
    /// of infeasibility: every non-optimal interior-point status lands
    /// here, `iteration limit reached` included, and so does a
    /// cutting-plane loop that did not converge. Only a `primal infeasible`
    /// status rests on a certificate that no budget and buffer assignment
    /// meets every constraint. ROADMAP.md plans a separate `Undecided`
    /// outcome for the points the solver did not decide.
    Infeasible {
        /// Why, naming the solver's termination status (`primal
        /// infeasible`, `dual infeasible (unbounded)` or `iteration limit
        /// reached`): the status alone, or with the failed phase of the
        /// two-phase baseline or the rounds of a cutting-plane loop.
        detail: String,
    },
    /// The solver returned an answer, but the independently verified rounded
    /// mapping violates a constraint (this indicates a bug and is surfaced
    /// loudly instead of being papered over).
    VerificationFailed {
        /// The task graph whose throughput check failed, if any.
        graph: Option<TaskGraphId>,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Model(e) => write!(f, "invalid configuration: {e}"),
            MappingError::Solver(e) => write!(f, "conic solver failure: {e}"),
            MappingError::ProcessorOverloaded {
                processor,
                required,
                available,
            } => write!(
                f,
                "processor {processor} is overloaded: the throughput requirements already \
                 imply {required} cycles per replenishment interval but only {available} are available"
            ),
            MappingError::MemoryOverflow {
                memory,
                required,
                available,
            } => write!(
                f,
                "memory {memory} cannot hold the minimum-size buffers: needs {required}, has {available}"
            ),
            MappingError::CapBelowInitialTokens {
                buffer,
                cap,
                initial_tokens,
            } => write!(
                f,
                "buffer {buffer} is capped at {cap} containers but starts with {initial_tokens} filled containers"
            ),
            MappingError::Infeasible { detail } => {
                write!(f, "no feasible budget/buffer assignment exists: {detail}")
            }
            MappingError::VerificationFailed { graph, detail } => match graph {
                Some(g) => write!(f, "verification of the computed mapping failed for graph {g}: {detail}"),
                None => write!(f, "verification of the computed mapping failed: {detail}"),
            },
        }
    }
}

impl Error for MappingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MappingError::Model(e) => Some(e),
            MappingError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for MappingError {
    fn from(e: ModelError) -> Self {
        MappingError::Model(e)
    }
}

impl From<ConicError> for MappingError {
    fn from(e: ConicError) -> Self {
        MappingError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_taskgraph::BufferId;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<MappingError> = vec![
            MappingError::Model(ModelError::EmptyConfiguration),
            MappingError::Solver(ConicError::NonFiniteData),
            MappingError::ProcessorOverloaded {
                processor: ProcessorId::new(0),
                required: 50.0,
                available: 40.0,
            },
            MappingError::MemoryOverflow {
                memory: MemoryId::new(1),
                required: 100,
                available: 64,
            },
            MappingError::CapBelowInitialTokens {
                buffer: BufferRef::new(TaskGraphId::new(0), BufferId::new(0)),
                cap: 1,
                initial_tokens: 3,
            },
            MappingError::Infeasible {
                detail: "primal infeasible".into(),
            },
            MappingError::VerificationFailed {
                graph: Some(TaskGraphId::new(0)),
                detail: "period exceeded".into(),
            },
            MappingError::VerificationFailed {
                graph: None,
                detail: "memory".into(),
            },
        ];
        for case in cases {
            assert!(!case.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_preserve_source() {
        let e: MappingError = ModelError::NoProcessors.into();
        assert!(matches!(e, MappingError::Model(_)));
        assert!(e.source().is_some());
        let e: MappingError = ConicError::Unbounded.into();
        assert!(matches!(e, MappingError::Solver(_)));
        let plain = MappingError::Infeasible { detail: "x".into() };
        assert!(plain.source().is_none());
    }
}
