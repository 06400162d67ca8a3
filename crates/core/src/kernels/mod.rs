//! The evaluation kernels of the paper, written in the Cypress model:
//! GEMM (Fig. 13a), batched GEMM (13b), Dual-GEMM (13c), GEMM+Reduction
//! (13d), and FlashAttention-2/3 (Fig. 14).

pub mod attention;
pub mod batched;
pub mod chain;
pub mod comm;
pub(crate) mod common;
pub mod cost;
pub mod dual_gemm;
pub mod footprint;
pub mod gemm;
pub mod gemm_reduction;
pub mod reduction;
pub mod space;
