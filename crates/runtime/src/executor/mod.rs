//! Graph execution over the simulator: the ready-queue timing schedule
//! and the functional wave executor.
//!
//! Every graph launch is timed one way. `timeline` is the one walk of a
//! graph's bindings: it builds one launch per node, reading its
//! producers' launches, and hands them to [`crate::shard`], which places
//! them on the topology's devices and numbers a link launch for every
//! cross-device transfer just before its first consumer. Every transfer
//! launch — those and the `xfer:recover:` drains a device loss inserts —
//! comes from one constructor, `Launch::transfer`. A transfer runs no
//! kernel: its `Transfer` report comes from the link model.
//!
//! `run_timing` (`schedule.rs`) assembles each kernel's solo
//! [`cypress_sim::TimingReport`] (from the session's memo) into a
//! [`crate::GraphReport`] with one ready-queue scheduler that assigns
//! independent launches to the simulated streams of their device.
//! Co-resident launches contend for SMs, L2, and HBM through
//! [`cypress_sim::concurrent::ConcurrentEngine`], transfers for their
//! link; dependents are released as upstream launches retire. Ready
//! launches and free streams are taken lowest-id-first, so schedules stay
//! deterministic. The session's [`crate::SchedulePolicy`] only sets the
//! stream count:
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
//!
//! A **functional** launch is that timing report plus data: the session
//! schedules the graph first, then `run_functional` (`functional.rs`)
//! launches each node's compiled kernel on [`cypress_sim::Simulator`]
//! and threads real tensors along the graph's tensor-buffer edges — the
//! output buffers of one launch become the input buffers of the next —
//! recycling dead intermediates through the [`crate::BufferPool`]. A
//! consumer on another device reads its producer's buffer directly.
//! Each ready wave of nodes runs on [`cypress_sim::par`]'s scoped pool
//! (inline when there is one worker or one node), with inputs
//! materialized, results joined and drained producers recycled serially
//! in ascending node order. Data movement, pool traffic and recorded
//! events are therefore functions of the graph alone — bit-identical
//! across schedule policies and worker counts; the worker count changes
//! wall time only.

#![deny(clippy::too_many_lines)]

mod functional;
mod recovery;
mod schedule;

pub use functional::GraphRun;
pub(crate) use functional::{remap_run, run_functional};
pub(crate) use schedule::{run_timing, solo_report};

use crate::error::RuntimeError;
use crate::graph::{Binding, TaskGraph};
use crate::session::FaultPolicy;
use crate::shard;
use cypress_core::Compiled;
use cypress_sim::{FaultPlan, MachineConfig, TimingReport, Topology};
use std::sync::Arc;

/// The fault-handling settings one graph launch runs under: the
/// session's injected [`FaultPlan`] and its [`FaultPolicy`]. An inactive
/// context (an empty plan — the default) leaves every schedule
/// bit-identical to the pre-fault runtime.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultContext {
    /// Faults to inject into the concurrent engine (an empty plan
    /// injects nothing).
    pub plan: FaultPlan,
    /// How the scheduler reacts to injected faults.
    pub policy: FaultPolicy,
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
}

/// The `kernel` of a shard transfer's report.
const TRANSFER_KERNEL: &str = "xfer";

/// A buffer moving between devices, priced by its link: the scheduler
/// charges it to the link's bandwidth instead of any device's SMs. Shard
/// transfers and device-loss recovery transfers alike.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    /// Index into the topology's links.
    pub link: usize,
    /// The fluid bandwidth demand: the rate a solo transfer sustains, so
    /// an uncontended link reproduces the report's cycles exactly.
    pub demand: f64,
    /// The link-derived report: launch overhead + latency + bytes at
    /// link bandwidth.
    pub report: TimingReport,
}

impl Transfer {
    /// Move `bytes` from device `src` to device `dst`, reported under
    /// `kernel`: over the connecting link when one exists, collapsing to
    /// the launch overhead (and no link demand) when the endpoints are
    /// co-located or unlinked.
    fn new(kernel: &str, bytes: f64, (src, dst): (usize, usize), topology: &Topology) -> Self {
        let machine = topology.machine();
        let link = topology.link_between(src, dst).filter(|_| src != dst);
        let cycles = match link.and_then(|l| topology.links.get(l)) {
            Some(l) => l.transfer_cycles(bytes, machine),
            None => machine.kernel_launch_cycles,
        };
        Transfer {
            link: link.unwrap_or(0),
            demand: link.map_or(0.0, |_| bytes / cycles.max(1.0)),
            report: off_sm_report(kernel, cycles, bytes, 1, machine),
        }
    }
}

/// A tensor-buffer edge into a launch: parameter `param` of launch
/// `launch`, `bytes` long.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub launch: usize,
    pub param: usize,
    pub bytes: f64,
}

/// What a launch does.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// Run the kernel of node `i` of the graph.
    Node(usize),
    /// Move a buffer over a link.
    Transfer(Transfer),
}

/// One launch of a graph's timing schedule.
#[derive(Debug, Clone)]
pub(crate) struct Launch {
    /// Its span name: the node's, or a transfer's
    /// `xfer:{producer}.{param}->d{dst}` (`xfer:recover:…` for a drain).
    pub name: String,
    /// The device it runs on (a transfer's destination).
    pub device: usize,
    /// The edges it reads, in binding order.
    pub inputs: Vec<Edge>,
    /// Bytes of all its parameter buffers: its placement load.
    pub bytes: f64,
    pub work: Work,
}

impl Launch {
    /// The link launch that moves `edge`'s buffer — parameter
    /// `edge.param` of `producer` — onto device `dst`: a shard transfer
    /// (`xfer:`, report kernel `xfer`) or, with `recover`, the
    /// `xfer:recover:` drain a device loss inserts (report kernel: its
    /// name).
    pub(crate) fn transfer(
        producer: &Launch,
        edge: Edge,
        dst: usize,
        recover: bool,
        topology: &Topology,
    ) -> Launch {
        let kind = if recover { "recover:" } else { "" };
        let name = format!("xfer:{kind}{}.{}->d{dst}", producer.name, edge.param);
        let kernel = if recover { &name } else { TRANSFER_KERNEL };
        let transfer = Transfer::new(kernel, edge.bytes, (producer.device, dst), topology);
        Launch {
            name,
            device: dst,
            inputs: vec![edge],
            // Placement load: the buffer at both ends of the link.
            bytes: 2.0 * edge.bytes,
            work: Work::Transfer(transfer),
        }
    }

    /// The launches it depends on (deduplicated, ascending).
    fn dependencies(&self) -> Vec<usize> {
        let mut deps: Vec<usize> = self.inputs.iter().map(|e| e.launch).collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Its solo report: its node's entry of `reports` (indexed by graph
    /// node), or its transfer's.
    fn report<'a>(&'a self, reports: &'a [TimingReport]) -> &'a TimingReport {
        match &self.work {
            Work::Node(i) => &reports[*i],
            Work::Transfer(t) => &t.report,
        }
    }
}

/// Number `graph`'s launches as the scheduler runs them — the one walk
/// of its bindings: one device-0 launch per node in id order, reading
/// its producers' launches, placed on `topology`'s devices by
/// [`shard::place`] (which errors on a bad topology).
pub(crate) fn timeline(
    graph: &TaskGraph,
    topology: &Topology,
) -> Result<Vec<Launch>, RuntimeError> {
    let mut launches = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let mut launch = Launch {
            name: node.name.clone(),
            device: 0,
            inputs: Vec::new(),
            bytes: 0.0,
            work: Work::Node(i),
        };
        for (b, arg) in node.bindings.iter().zip(&node.program.args) {
            let bytes = arg.rows as f64 * arg.cols as f64 * arg.dtype.size_bytes() as f64;
            launch.bytes += bytes;
            if let Binding::Output { node, param } = *b {
                launch.inputs.push(Edge {
                    launch: node.index(),
                    param,
                    bytes,
                });
            }
        }
        launches.push(launch);
    }
    shard::place(launches, topology)
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
