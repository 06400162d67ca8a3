//! Dense tensor substrate for the Cypress reproduction.
//!
//! This crate provides everything the Cypress programming model (see
//! `cypress-core`) and the GPU simulator (see `cypress-sim`) need to talk
//! about data:
//!
//! - [`DType`] and software-emulated `f16`/[`bf16`] element types, so that
//!   functional simulation reproduces Tensor Core numerics (FP16 operands,
//!   FP32 accumulation) without hardware support,
//! - [`Layout`]: shape/stride layouts with the shared-memory swizzles used to
//!   avoid bank conflicts on real hardware,
//! - [`Tensor`]: an owned dense tensor with host-side reference operations
//!   (matmul, softmax, reductions) used as oracles by the test suite,
//! - [`TensorView`] and [`IndexMap`]: logically non-contiguous sub-tensors
//!   with compacted origin-based coordinates (paper §3.2),
//! - [`partition`]: the paper's two partitioning operators, `blocks` (tiling)
//!   and `mma` (the Hopper WGMMA operand/accumulator swizzles of Fig. 4).
//!
//! # Example
//!
//! ```
//! use cypress_tensor::{Tensor, DType, partition::blocks};
//!
//! let a = Tensor::zeros(DType::F16, &[128, 64]);
//! let p = blocks(a.shape(), &[64, 64]).expect("tile shape divides tensor");
//! assert_eq!(p.num_pieces(), 2);
//! ```

// The only `unsafe` in this crate is the guarded call of a
// `#[target_feature]` function; each one says why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod dtype;
pub mod error;
pub mod layout;
pub mod partition;
pub mod tensor;
pub mod view;

pub use dtype::{bf16, f16, DType};
pub use error::TensorError;
pub use layout::{Layout, Swizzle};
pub use partition::{blocks, check_mma_shape, mma, MmaInstr, MmaOperand, Partition};
pub use tensor::Tensor;
pub use view::{IndexMap, TensorView};

/// Convenience alias used throughout the workspace.
pub type Shape = Vec<usize>;
