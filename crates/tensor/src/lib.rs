//! Dense tensor substrate for the Cypress reproduction.
//!
//! This crate provides everything the Cypress programming model (see
//! `cypress-core`) and the GPU simulator (see `cypress-sim`) need to talk
//! about data:
//!
//! - [`DType`] and software-emulated `f16`/[`bf16`] element types, so that
//!   functional simulation reproduces Tensor Core numerics (FP16 operands,
//!   FP32 accumulation) without hardware support,
//! - [`Tensor`]: an owned dense row-major tensor with host-side reference
//!   operations (matmul, softmax, reductions) used as oracles by the test
//!   suite,
//! - [`partition`]: the shape rules of the paper's `mma` partitioning
//!   operator (§3.2, Fig. 4) — the WGMMA instruction shape and
//!   [`check_mma_shape`]. The partitioning operators themselves are IR
//!   statements in `cypress-core` (`Stmt::blocks` / `Stmt::mma`), which
//!   its dependence analysis checks with these rules.
//!
//! # Example
//!
//! ```
//! use cypress_tensor::partition::{MmaLevel, MmaOperand};
//! use cypress_tensor::{check_mma_shape, DType, MmaInstr, Tensor};
//!
//! let acc = Tensor::zeros(DType::F32, &[64, 256]);
//! let instr = MmaInstr::wgmma_64x256x16();
//! assert!(check_mma_shape(acc.shape(), instr, MmaLevel::Warp, MmaOperand::C).is_ok());
//! assert!(check_mma_shape(&[63, 256], instr, MmaLevel::Warp, MmaOperand::C).is_err());
//! ```

// The only `unsafe` in this crate is the guarded call of a
// `#[target_feature]` function; each one says why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
// `pub` is for what another crate may name: an item that is `pub` but
// unreachable from the crate root must say `pub(crate)`.
#![deny(unreachable_pub)]

mod dtype;
mod error;
pub mod partition;
pub mod tensor;

pub use dtype::{bf16, f16, DType};
pub use error::TensorError;
pub use partition::{check_mma_shape, MmaInstr, MmaOperand};
pub use tensor::Tensor;
