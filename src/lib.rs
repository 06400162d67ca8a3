//! Facade crate re-exporting the Cypress workspace.
//!
//! Layering (each crate depends only on those above it):
//! [`tensor`] → [`sim`] → [`core`] → [`runtime`] → bench/[`baselines`].
//!
//! Highlights per layer: [`sim`] simulates single kernels functionally
//! and in timing mode, plus concurrent batches under a shared-machine
//! contention model (`sim::concurrent`); [`core`] compiles the paper's
//! task trees; [`runtime`] schedules task graphs over the simulator with
//! kernel caching, buffer pooling, and a per-session
//! [`runtime::SchedulePolicy`] choosing serial or multi-stream concurrent
//! execution (see `examples/graph_overlap.rs`).

#![forbid(unsafe_code)]

pub use cypress_baselines as baselines;
pub use cypress_core as core;
pub use cypress_runtime as runtime;
pub use cypress_sim as sim;
pub use cypress_tensor as tensor;
