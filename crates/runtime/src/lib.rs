//! `cypress-runtime`: a task-graph runtime above the Cypress compiler.
//!
//! The paper's programming model is task-based, and real workloads —
//! transformer layers, serving pipelines — are *graphs* of kernels, not
//! single launches. This crate adds the runtime layer the compiler and
//! simulator don't provide (the role Taskflow-style DAG executors and
//! Hidet's driver layer play in related systems):
//!
//! - [`Program`]: one compilable unit — task registry, mapping
//!   specification, entry name, and entry argument descriptors — as an
//!   immutable handle whose clones share storage and which hashes its
//!   own identity once;
//! - [`TaskGraph`]: a DAG of kernel launches whose edges are explicit
//!   tensor buffers ([`Binding::Output`] wires a producer's parameter
//!   buffer into a consumer's parameter slot);
//! - [`Session`]: the long-lived object owning a **compiled-kernel
//!   cache** keyed by the stable fingerprint of
//!   `(tasks, mapping, entry args, machine)` — a repeated launch
//!   skips the Fig. 6 pass pipeline entirely — plus a buffer pool that
//!   recycles intermediate tensors across launches;
//! - an executor that schedules the graph over
//!   [`cypress_sim::Simulator`] into a whole-graph [`GraphReport`] with
//!   a per-node stream timeline — what every launch reports — and, in
//!   functional mode, then threads output tensors of one launch into the
//!   inputs of the next;
//! - a [`SchedulePolicy`] on the session setting the stream count of
//!   the one ready-queue scheduler: one stream per device (the default
//!   [`SchedulePolicy::Serial`] — on one device the makespan is the sum
//!   of the launches) or **multi-stream concurrent scheduling**, where
//!   independent nodes are assigned to simulated streams, co-resident
//!   launches contend for SMs/L2/HBM under the
//!   [`cypress_sim::concurrent`] model, and dependents are released as
//!   upstream launches retire. Every schedule satisfies
//!   `critical_path <= makespan <= serial_sum` (see [`GraphReport`]),
//!   and functional results are policy-independent;
//! - a [`MappingPolicy`] on the session choosing between every node's
//!   hand-tuned mapping ([`MappingPolicy::Default`], bit-identical to
//!   the plain builders) and **simulator-driven mapping autotuning**
//!   ([`MappingPolicy::Autotune`]): nodes built from a
//!   [`cypress_core::MappingSpace`] via [`Program::from_space`] launch
//!   the fastest candidate of their space (see [`Session::autotune`] and
//!   the [`tuner`] docs), with winners persisted in a [`TuningTable`]
//!   that serializes across sessions;
//! - a [`FusionPolicy`] on the session enabling **automatic graph-level
//!   kernel fusion** ([`FusionPolicy::Auto`]): producer→consumer
//!   patterns — a GEMM feeding a GEMM, a GEMM next to a row-reduction
//!   of the same tensor — are rewritten into the paper's fused kernels
//!   (chained dual-GEMM, GEMM+Reduction) whenever the simulator
//!   confirms the fused launch beats the launches it replaces. Results
//!   are bitwise identical to [`FusionPolicy::Off`]; only launch count
//!   and timeline change, and every fused launch's
//!   [`NodeTiming::replaced`] names the original nodes.
//! - a [`PlacementPolicy`] on the session enabling **multi-device
//!   sharded execution** ([`PlacementPolicy::Sharded`]): the graph is
//!   partitioned across N simulated devices connected by NVLink-class
//!   links (see [`cypress_sim::Topology`]), every cross-device edge
//!   becomes a link launch priced by the link model (no copy kernel),
//!   and the scheduler overlaps communication with compute. Tensors
//!   are bitwise identical across placement policies and device counts,
//!   and `Sharded { devices: 1 }` is exactly
//!   [`PlacementPolicy::SingleDevice`], timeline included;
//! - **host-side parallelism** on the session
//!   ([`Session::with_parallelism`], default = available cores): the
//!   functional executor runs each ready wave of nodes on a scoped
//!   worker pool, and `Session::autotune` compiles and times space
//!   candidates in parallel. Tensors, reports, and tuning winners are
//!   bit-identical at every worker count (`1` is byte-for-byte the
//!   serial path); only wall time changes.
//! - **deterministic observability** ([`telemetry`]): attach a
//!   [`TraceLog`] with [`Session::with_recorder`] to trace the whole
//!   execution path — graph submissions, fusion decisions with their
//!   sim-confirmed margins, cache and pool traffic, autotune sweeps,
//!   wave scheduling, per-node spans in sim cycles — read one unified
//!   [`MetricsSnapshot`] from [`Session::metrics`], and export any
//!   [`GraphReport`] timeline to Perfetto-loadable Chrome-trace JSON
//!   with [`TraceSink::chrome_json`]. With no log attached (the
//!   default) no event is constructed and every result is
//!   byte-identical to a session without the telemetry layer.
//! - **fault-tolerant execution** ([`FaultPolicy`]): attach a seeded
//!   deterministic [`FaultPlan`] ([`Session::with_fault_plan`]) injecting
//!   transient kernel faults and permanent device losses into the
//!   simulated machine. Under the default [`FaultPolicy::FailFast`] any
//!   fault surfaces as a typed [`RuntimeError`] carrying a partial
//!   [`GraphReport`]; under [`FaultPolicy::Retry`] transient faults
//!   re-execute the node (with optional backoff) and a permanent device
//!   loss triggers **degraded re-sharding**: the
//!   unexecuted frontier is re-planned onto the surviving devices,
//!   recovery transfers re-route stranded buffers, and the run completes
//!   with tensors bitwise identical to the fault-free run. Every
//!   recovery action is visible in [`GraphReport::recovery`], the
//!   timeline (`retry:`/`reshard:`/`xfer:recover:` spans), and the
//!   telemetry counters.
//!
//! # Example: GEMM → GEMM as one graph
//!
//! ```
//! use cypress_runtime::{Binding, Program, Session, TaskGraph};
//! use cypress_core::kernels::gemm;
//! use cypress_sim::MachineConfig;
//! use cypress_tensor::{DType, Tensor};
//! use std::collections::HashMap;
//!
//! let machine = MachineConfig::test_gpu();
//! let program = Program::from_parts(gemm::build(64, 64, 64, &machine)?, "gemm");
//!
//! let mut graph = TaskGraph::new();
//! // C1 = A @ B
//! let first = graph.add_node("first", program.clone(), vec![
//!     Binding::Zeros,
//!     Binding::external("A"),
//!     Binding::external("B"),
//! ])?;
//! // C2 = C1 @ B — the tensor-buffer edge wires first's C into A's slot.
//! let second = graph.add_node("second", program, vec![
//!     Binding::Zeros,
//!     Binding::output(first, 0),
//!     Binding::external("B"),
//! ])?;
//!
//! let mut session = Session::new(machine);
//! let inputs = HashMap::from([
//!     ("A".to_string(), Tensor::full(DType::F16, &[64, 64], 0.25)),
//!     ("B".to_string(), Tensor::full(DType::F16, &[64, 64], 0.5)),
//! ]);
//! let run = session.launch_functional(&graph, &inputs)?;
//! assert!(run.tensor(second, 0).is_some());
//! // Both nodes share one compiled kernel: one miss, one hit.
//! let cache = session.metrics().cache;
//! assert_eq!((cache.misses, cache.hits), (1, 1));
//! # Ok::<(), cypress_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
// `pub` is for what another crate may name: an item that is `pub` but
// unreachable from the crate root must say `pub(crate)`.
#![deny(unreachable_pub)]

mod cache;
mod error;
mod executor;
mod fuse;
mod graph;
pub mod json;
mod pool;
mod program;
mod report;
mod session;
mod shard;
pub mod telemetry;
pub mod tuner;

pub use cache::CacheStats;
pub use cypress_sim::{ApplyBytes, Fault, FaultPlan};
pub use error::RuntimeError;
pub use executor::GraphRun;
pub use fuse::FusionPolicy;
pub use graph::{Binding, Node, NodeId, TaskGraph};
pub use pool::PoolStats;
pub use program::{Program, ProgramParts, SpaceBinding};
pub use report::{GraphReport, NodeTiming, Recovery};
pub use session::{CompiledGraph, FaultPolicy, MappingPolicy, SchedulePolicy, Session};
pub use shard::PlacementPolicy;
pub use telemetry::{
    ChromeSpan, ChromeTrace, Event, EventClass, MetricsSnapshot, TraceLog, TraceSink,
};
pub use tuner::{TunedMapping, TunerBudget, TunerStats, TuningKey, TuningTable};
