//! Final code generation artifacts: the device kernel (produced by
//! [`crate::passes::warpspec`]) and a pseudo-CUDA rendering for inspection.

pub(crate) mod cuda;
