//! Graph execution over the simulator: the functional wave executor and
//! the ready-queue timing schedule.
//!
//! The executor launches each node's compiled kernel on
//! [`cypress_sim::Simulator`]. In **functional** mode (`functional.rs`)
//! it threads real tensors along the graph's tensor-buffer edges — the
//! output buffers of one launch become the input buffers of the next —
//! recycling dead intermediates through the [`crate::BufferPool`]. There
//! is one executor: each ready wave of nodes runs on
//! [`cypress_sim::par`]'s scoped pool (inline when there is one worker
//! or one node), with inputs materialized, results joined and drained
//! producers recycled serially in ascending node order. Data movement,
//! pool traffic and recorded events are therefore functions of the graph
//! alone — bit-identical across schedule policies and worker counts; the
//! worker count changes wall time only.
//!
//! In **timing** mode no data moves; per-node
//! [`cypress_sim::TimingReport`]s are assembled into a
//! [`crate::GraphReport`] by one ready-queue scheduler (`schedule.rs`)
//! that assigns independent nodes to the simulated streams of their
//! device. Co-resident launches contend for SMs, L2, and HBM through
//! [`cypress_sim::concurrent::ConcurrentEngine`]; dependents are released
//! as upstream launches retire. Ready nodes and free streams are taken
//! lowest-id-first, so schedules stay deterministic. The session's
//! [`crate::SchedulePolicy`] only sets the stream count:
//!
//! - **Serial**: one stream per device. On one device nodes run
//!   back-to-back in the topological schedule and the makespan is the
//!   sum of the launches; on a sharded topology each device runs its own
//!   launches back to back and devices overlap.
//! - **Concurrent**: `streams` streams per device, so independent nodes
//!   on one device overlap too.
//!
//! The same scheduler absorbs injected faults (`recovery.rs` holds the
//! device-loss half), so attaching a fault plan never changes which
//! scheduler runs.

mod functional;
mod recovery;
mod schedule;

pub use functional::GraphRun;
pub(crate) use functional::{remap_run, run_functional};
pub(crate) use schedule::run_timing;

use crate::session::FaultPolicy;
use cypress_core::Compiled;
use cypress_sim::{FaultPlan, MachineConfig, TimingReport, Topology};
use std::sync::Arc;

/// The fault-handling settings one graph launch runs under: the
/// session's injected [`FaultPlan`], its [`FaultPolicy`], and the
/// optional per-node / whole-graph deadlines. An inactive context (an
/// empty plan, no deadlines — the default) leaves every schedule
/// bit-identical to the pre-fault runtime.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultContext {
    /// Faults to inject into the concurrent engine (an empty plan
    /// injects nothing).
    pub plan: FaultPlan,
    /// How the scheduler reacts to injected faults.
    pub policy: FaultPolicy,
    /// Max cycles from a node's first launch to its successful
    /// retirement before the schedule aborts with
    /// [`crate::RuntimeError::DeadlineExceeded`].
    pub node_deadline: Option<f64>,
    /// Max makespan in cycles before the schedule aborts.
    pub graph_deadline: Option<f64>,
}

/// One node's compiled kernel plus the mapping annotation the session
/// chose for it (the label and its solo speedup over the default
/// mapping), threaded into the [`crate::NodeTiming`] entries of the report.
#[derive(Debug, Clone)]
pub(crate) struct NodeLaunch {
    /// The compiled kernel to launch.
    pub compiled: Arc<Compiled>,
    /// Mapping label (`"default"` or the tuned candidate's label).
    pub mapping: String,
    /// Solo-cycle speedup over the default mapping (1.0 untuned).
    pub tuned_speedup: f64,
    /// Original node names this launch replaced when it came from the
    /// fusion rewriter (empty for ordinary nodes).
    pub replaced: Vec<String>,
    /// Device this launch runs on (0 unless the graph was sharded).
    pub device: usize,
    /// The link transfer this launch performs when it is a
    /// sharder-inserted communication node (`None` for compute nodes).
    pub comm: Option<CommLaunch>,
}

/// A communication launch's link accounting: the scheduler
/// charges it to this link's bandwidth instead of any device's SMs, and
/// both launch modes price it with [`cypress_sim::Link::transfer_cycles`]
/// so functional and timing reports agree on its cost.
#[derive(Debug, Clone)]
pub(crate) struct CommLaunch {
    /// Index into the topology's links.
    pub link: usize,
    /// Bytes moved across the link.
    pub bytes: f64,
}

/// The link-derived [`TimingReport`] of a communication launch: a
/// transfer is priced by its link (launch overhead + latency + bytes at
/// link bandwidth), not by simulating the copy kernel on an SM — the
/// copy kernel still runs for real in functional mode, this report only
/// feeds the timeline.
fn comm_report(
    kernel: &str,
    comm: &CommLaunch,
    topology: &Topology,
    machine: &MachineConfig,
) -> TimingReport {
    let cycles = match topology.links.get(comm.link) {
        Some(link) => link.transfer_cycles(comm.bytes, machine),
        // No links in the topology (a degenerate sharded launch on one
        // device): the transfer collapses to its launch overhead.
        None => machine.kernel_launch_cycles,
    };
    off_sm_report(kernel, cycles, comm.bytes, 1, machine)
}

/// The [`TimingReport`] of a timeline span that occupies no SM: a link
/// transfer moving `bytes` in `cycles`, or (all zeros) a schedule
/// marker.
fn off_sm_report(
    kernel: &str,
    cycles: f64,
    bytes: f64,
    events: u64,
    machine: &MachineConfig,
) -> TimingReport {
    TimingReport {
        kernel: kernel.to_string(),
        cycles,
        seconds: machine.cycles_to_seconds(cycles),
        tc_flops: 0.0,
        simt_flops: 0.0,
        achieved_tflops: 0.0,
        tc_utilization: 0.0,
        tma_utilization: 0.0,
        simt_utilization: 0.0,
        ctas: 0,
        simulated_ctas: 0,
        active_sms: 0,
        ctas_per_sm: 0,
        load_bytes: bytes,
        store_bytes: bytes,
        l2_hit: 0.0,
        events,
    }
}
