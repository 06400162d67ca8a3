//! The Cypress programming model and compiler.
//!
//! This crate reproduces the primary contribution of *Task-Based Tensor
//! Computations on Modern GPUs* (PLDI 2025): a task-based programming
//! model with sequential semantics for GPUs with asynchronous
//! fixed-function units, and a compiler that lowers task trees to
//! warp-specialized device code with all communication and synchronization
//! inferred.
//!
//! A Cypress program has two parts (§3):
//!
//! - the **logical description** ([`front::task`], [`front::Stmt`]): tasks
//!   over tensors with declared privileges, decomposed via `srange` /
//!   `prange` and the `blocks` / `mma` partitioning operators;
//! - the **mapping specification** ([`front::mapping`]): which variant
//!   runs at which processor level, where each tensor lives, tunable
//!   values, warp specialization and pipeline depth.
//!
//! [`compile::CypressCompiler`] runs the pass pipeline of Fig. 6 —
//! dependence analysis, vectorization, copy elimination, warp
//! specialization — and emits a [`cypress_sim::Kernel`] plus
//! pseudo-CUDA; its first three passes form a [`Front`] that every
//! schedule of one tile finishes from. Shared tensors are not aliased
//! (§4.2.4's allocator is not reproduced): the emitted kernel's
//! validation is the shared-memory check. [`kernels`] contains the
//! evaluation programs (GEMM, batched/dual GEMM, GEMM+reduction,
//! FlashAttention-2/3), each behind a [`MappingSpace`] that enumerates,
//! validates and prices its mappings.
//!
//! # Example
//!
//! ```
//! use cypress_core::kernels::gemm::{self, GemmSpace};
//! use cypress_core::compile::{CompilerOptions, CypressCompiler};
//! use cypress_core::{MappingSpace, Shape};
//! use cypress_sim::MachineConfig;
//!
//! let machine = MachineConfig::test_gpu();
//! let (registry, mapping, args) = gemm::build(256, 256, 128, &machine)?;
//! let compiler = CypressCompiler::new(CompilerOptions {
//!     machine: machine.clone(),
//!     ..Default::default()
//! });
//! let compiled = compiler.compile(&registry, &mapping, "gemm", &args)?;
//! assert!(compiled.kernel.has_dma_warp());
//!
//! // The same logical description at every other valid mapping.
//! let shape = Shape::of(&[256, 256, 128]);
//! for cfg in GemmSpace.candidates(&machine, &shape) {
//!     assert!(GemmSpace.estimate(&machine, &shape, &cfg).is_some());
//!     let (registry, mapping, args) = GemmSpace.build(&shape, &cfg)?;
//!     compiler.compile(&registry, &mapping, GemmSpace.entry(), &args)?;
//! }
//! # Ok::<(), cypress_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
// `pub` is for what another crate may name: an item that is `pub` but
// unreachable from the crate root must say `pub(crate)`.
#![deny(unreachable_pub)]

mod codegen;
pub mod compile;
mod error;
pub mod fingerprint;
pub mod front;
pub mod ir;
pub mod kernels;
pub mod passes;

pub use compile::{Compiled, CompilerOptions, CypressCompiler, Front};
pub use error::CompileError;
pub use fingerprint::fingerprint;
pub use front::{
    ArgExpr, LeafFn, MappingSpec, MemLevel, ParamSig, Privilege, ProcLevel, SExpr, Stmt,
    TaskMapping, TaskRegistry, TaskVariant, VariantKind,
};
pub use kernels::cost::{CostEstimate, COST_MODEL_VERSION};
pub use kernels::footprint::Footprint;
pub use kernels::space::{Grid, MappingConfig, MappingSpace, Shape};
pub use passes::depan::EntryArg;
