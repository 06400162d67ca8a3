//! Errors of the task-graph runtime.

use cypress_core::CompileError;
use cypress_sim::SimError;
use cypress_tensor::DType;
use std::fmt;

/// Anything that can go wrong building or executing a task graph.
#[derive(Debug)]
pub enum RuntimeError {
    /// A node's program failed to compile.
    Compile(CompileError),
    /// The simulator rejected or failed a launch.
    Sim(SimError),
    /// A node referenced a node id the graph does not contain.
    UnknownNode {
        /// The offending id.
        id: usize,
    },
    /// A node was added with the wrong number of bindings.
    ArityMismatch {
        /// Node name.
        node: String,
        /// Parameters the program declares.
        expected: usize,
        /// Bindings supplied.
        actual: usize,
    },
    /// A tensor-buffer edge connects parameters of different shapes.
    ShapeMismatch {
        /// Consumer node name.
        node: String,
        /// Consumer parameter name.
        param: String,
        /// Expected `(rows, cols)`.
        expected: (usize, usize),
        /// Bound `(rows, cols)`.
        actual: (usize, usize),
    },
    /// A tensor-buffer edge connects parameters of different dtypes.
    DtypeMismatch {
        /// Consumer node name.
        node: String,
        /// Consumer parameter name.
        param: String,
        /// The consumer parameter's dtype.
        expected: DType,
        /// The producer parameter's dtype.
        actual: DType,
    },
    /// An `Output` binding referenced a parameter index the producer
    /// doesn't have.
    BadOutputIndex {
        /// Producer node name.
        node: String,
        /// The out-of-range parameter index.
        param: usize,
    },
    /// A functional launch was missing an external input tensor.
    MissingInput {
        /// The unbound input name.
        name: String,
    },
    /// An external tensor's shape or dtype didn't match the parameter.
    BadInput {
        /// The input name.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Two graph nodes were given the same name.
    DuplicateNode {
        /// The repeated name.
        name: String,
    },
    /// Autotuning was requested for a program that carries no
    /// [`crate::SpaceBinding`] (only programs a space built, through
    /// [`crate::Program::from_space`] or
    /// [`crate::Program::from_space_at`], are tunable).
    NoMappingSpace {
        /// The program's entry task.
        entry: String,
    },
    /// A program's mapping space has no valid candidate for the
    /// session's machine and shape (e.g. the program was built for a
    /// different machine). `MappingPolicy::Autotune` launches fall back
    /// to the program's own mapping instead of surfacing this.
    Untunable {
        /// The program's entry task.
        entry: String,
        /// Why the space's default mapping is invalid here.
        reason: CompileError,
    },
    /// A serialized [`crate::TuningTable`] could not be read.
    BadTuningTable {
        /// What was wrong.
        reason: String,
    },
    /// A sharded launch's device topology was rejected: the topology
    /// failed its own validation, or a cross-device edge connects two
    /// devices with no link between them.
    BadTopology {
        /// What was wrong.
        what: String,
    },
    /// A node failed under the fault policy: a transient injected fault
    /// under [`crate::FaultPolicy::FailFast`], or a node whose retry
    /// budget ran out under [`crate::FaultPolicy::Retry`]. Carries the
    /// partial [`crate::GraphReport`] so callers can see how far the
    /// schedule got.
    NodeFailed {
        /// The failed node's name.
        node: String,
        /// The device the failing attempt ran on.
        device: usize,
        /// Attempts consumed (1 under `FailFast`).
        attempts: u32,
        /// The partial timing report up to the failure.
        report: Box<crate::GraphReport>,
    },
    /// A simulated device was lost permanently and the fault policy
    /// could not (or was not allowed to) recover: `FailFast`, or no
    /// surviving device to re-shard onto. Carries the partial
    /// [`crate::GraphReport`].
    DeviceLost {
        /// The dead device.
        device: usize,
        /// The cycle it died at.
        cycle: f64,
        /// The partial timing report up to the loss.
        report: Box<crate::GraphReport>,
    },
    /// A runtime invariant was violated (a bug in the runtime itself,
    /// not in the caller's graph) — surfaced as a typed error instead
    /// of a panic so long-lived serving sessions degrade gracefully.
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "compile error: {e}"),
            RuntimeError::Sim(e) => write!(f, "simulation error: {e}"),
            RuntimeError::UnknownNode { id } => write!(f, "unknown node id {id}"),
            RuntimeError::ArityMismatch { node, expected, actual } => write!(
                f,
                "node `{node}`: program declares {expected} parameters but {actual} bindings were supplied"
            ),
            RuntimeError::ShapeMismatch { node, param, expected, actual } => write!(
                f,
                "node `{node}` parameter `{param}`: expected {}x{}, bound {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            RuntimeError::DtypeMismatch {
                node,
                param,
                expected,
                actual,
            } => write!(
                f,
                "node `{node}` parameter `{param}`: expected dtype {expected:?}, bound {actual:?}"
            ),
            RuntimeError::BadOutputIndex { node, param } => {
                write!(f, "node `{node}` has no parameter index {param}")
            }
            RuntimeError::MissingInput { name } => {
                write!(f, "functional launch missing external input `{name}`")
            }
            RuntimeError::BadInput { name, reason } => {
                write!(f, "external input `{name}` rejected: {reason}")
            }
            RuntimeError::DuplicateNode { name } => {
                write!(f, "duplicate node name `{name}`")
            }
            RuntimeError::NoMappingSpace { entry } => write!(
                f,
                "program `{entry}` carries no mapping space; build it with \
                 Program::from_space or Program::from_space_at to autotune"
            ),
            RuntimeError::Untunable { entry, reason } => write!(
                f,
                "program `{entry}` has no valid mapping candidate on this machine: {reason}"
            ),
            RuntimeError::BadTuningTable { reason } => {
                write!(f, "bad tuning table: {reason}")
            }
            RuntimeError::BadTopology { what } => {
                write!(f, "bad device topology: {what}")
            }
            RuntimeError::NodeFailed {
                node,
                device,
                attempts,
                ..
            } => write!(
                f,
                "node `{node}` failed on device {device} after {attempts} attempt(s)"
            ),
            RuntimeError::DeviceLost { device, cycle, .. } => {
                write!(f, "device {device} lost at cycle {cycle} and not recovered")
            }
            RuntimeError::Internal { what } => {
                write!(f, "runtime invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::Sim(e) => Some(e),
            RuntimeError::Untunable { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

impl From<SimError> for RuntimeError {
    fn from(e: SimError) -> Self {
        RuntimeError::Sim(e)
    }
}
