//! Compiler passes, in the order of the paper's Fig. 6: dependence
//! analysis, vectorization, copy elimination, and warp specialization
//! (with pipelining). There is no resource-allocation pass (§4.2.4):
//! see [`crate::compile`] for where shared memory is checked.

pub mod copyelim;
pub mod depan;
pub mod vectorize;
pub mod warpspec;
