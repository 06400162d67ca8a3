//! Compiler error types.

use std::error::Error;
use std::fmt;

/// Error produced by the Cypress compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A task or variant name was not found in the registry.
    UnknownTask(String),
    /// A mapping instance name was not found.
    UnknownInstance(String),
    /// The mapping has no (or more than one) entrypoint.
    BadEntrypoint,
    /// Two mapping instances share a name.
    DuplicateInstance(String),
    /// A launch site had no mapping dispatch for the launched task.
    NoDispatch {
        /// Instance performing the launch.
        from: String,
        /// Task being launched.
        task: String,
    },
    /// A tunable required by a variant was not bound by the mapping.
    UnboundTunable {
        /// Variant name.
        variant: String,
        /// Tunable name.
        tunable: String,
    },
    /// A scalar variable was referenced before definition.
    UnboundVariable(String),
    /// A tensor or partition name was referenced before definition.
    UnboundName(String),
    /// Argument count mismatch at a launch site.
    ArityMismatch {
        /// Task launched.
        task: String,
        /// Parameters expected.
        expected: usize,
        /// Arguments given.
        actual: usize,
    },
    /// A task accessed or launched with privileges exceeding its own.
    PrivilegeViolation {
        /// Task variant at fault.
        variant: String,
        /// Parameter involved.
        param: String,
        /// Explanation.
        detail: String,
    },
    /// Parallel tasks launched by `prange` perform aliasing writes.
    AliasingWrites {
        /// Variant containing the `prange`.
        variant: String,
        /// Tensor written.
        tensor: String,
    },
    /// Inner task variants may not access tensor elements or call external
    /// functions; leaf variants may not launch sub-tasks (§3.2).
    KindViolation {
        /// Variant at fault.
        variant: String,
        /// Explanation.
        detail: String,
    },
    /// A partition operator failed (shape indivisible, unsupported MMA
    /// fragment, ...).
    Partition(String),
    /// Scalar evaluation failed (division by zero, negative extent).
    Scalar(String),
    /// A tensor mapped to the `none` memory survived copy elimination
    /// (§3.3: the mapping must be changed).
    NoneMemoryMaterialized {
        /// Tensor name in the IR.
        tensor: String,
    },
    /// Copy elimination was still rewriting the program when it ran out of
    /// fixpoint rounds (§4.2.3); the half-eliminated program is not handed
    /// to warp specialization.
    CopyElimDiverged {
        /// Rounds executed (the pass's fixed bound).
        rounds: usize,
    },
    /// A CTA stages more shared memory than the machine has: reported by
    /// the emitted kernel's validation, or predicted by a mapping space's
    /// footprint before compiling. Shared tensors are never aliased.
    OutOfSharedMemory {
        /// Bytes one CTA stages.
        required: usize,
        /// The machine's shared memory per SM.
        limit: usize,
    },
    /// The program shape is outside what the prototype compiler lowers.
    Unsupported(String),
    /// The generated kernel failed simulator validation.
    Backend(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTask(t) => write!(f, "unknown task or variant `{t}`"),
            CompileError::UnknownInstance(i) => write!(f, "unknown mapping instance `{i}`"),
            CompileError::BadEntrypoint => {
                write!(f, "mapping must declare exactly one entrypoint instance")
            }
            CompileError::DuplicateInstance(i) => {
                write!(
                    f,
                    "mapping declares instance `{i}` more than once; instance names must be unique"
                )
            }
            CompileError::NoDispatch { from, task } => {
                write!(
                    f,
                    "instance `{from}` launches task `{task}` but maps no instance for it"
                )
            }
            CompileError::UnboundTunable { variant, tunable } => {
                write!(
                    f,
                    "variant `{variant}` requires tunable `{tunable}` not bound by the mapping"
                )
            }
            CompileError::UnboundVariable(v) => write!(f, "unbound scalar variable `{v}`"),
            CompileError::UnboundName(n) => write!(f, "unbound tensor or partition `{n}`"),
            CompileError::ArityMismatch {
                task,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "task `{task}` expects {expected} arguments, got {actual}"
                )
            }
            CompileError::PrivilegeViolation {
                variant,
                param,
                detail,
            } => {
                write!(
                    f,
                    "privilege violation in `{variant}` on `{param}`: {detail}"
                )
            }
            CompileError::AliasingWrites { variant, tensor } => {
                write!(
                    f,
                    "prange in `{variant}` performs aliasing writes to `{tensor}`"
                )
            }
            CompileError::KindViolation { variant, detail } => {
                write!(f, "task-kind violation in `{variant}`: {detail}")
            }
            CompileError::Partition(d) => write!(f, "partition error: {d}"),
            CompileError::Scalar(d) => write!(f, "scalar evaluation error: {d}"),
            CompileError::NoneMemoryMaterialized { tensor } => write!(
                f,
                "tensor `{tensor}` is mapped to the none memory but could not be eliminated; \
                 change the partitioning or mapping strategy"
            ),
            CompileError::CopyElimDiverged { rounds } => write!(
                f,
                "copy elimination was still rewriting after {rounds} rounds; flatten the \
                 task tree or split it into smaller tasks"
            ),
            CompileError::OutOfSharedMemory { required, limit } => write!(
                f,
                "out of shared memory: a CTA stages {required} bytes, limit is {limit}; map \
                 fewer tensors to shared memory or choose smaller tiles or a shallower pipeline"
            ),
            CompileError::Unsupported(d) => write!(f, "unsupported program shape: {d}"),
            CompileError::Backend(d) => write!(f, "backend validation failed: {d}"),
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = CompileError::NoneMemoryMaterialized {
            tensor: "Cacc".into(),
        };
        assert!(e.to_string().contains("change the partitioning"));
        let e = CompileError::OutOfSharedMemory {
            required: 100,
            limit: 10,
        };
        assert!(e.to_string().contains("100"));
        let e = CompileError::DuplicateInstance("gemm_tile".into());
        assert!(e.to_string().contains("`gemm_tile` more than once"));
        let e = CompileError::CopyElimDiverged { rounds: 512 };
        assert!(e.to_string().contains("512"));
        assert!(e.to_string().contains("flatten the task tree"));
    }
}
