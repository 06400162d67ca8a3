//! The timing schedule and report assembly: one ready-queue scheduler
//! over [`ConcurrentEngine`] turns per-node solo reports into a
//! [`GraphReport`], absorbing injected faults on the way.

use super::recovery::LossRecovery;
use super::{comm_report, FaultContext, NodeLaunch};
use crate::error::RuntimeError;
use crate::graph::TaskGraph;
use crate::report::{GraphReport, NodeTiming, Recovery};
use crate::session::{FaultPolicy, SchedulePolicy};
use crate::telemetry::{Event, Recorder};
use cypress_core::Compiled;
use cypress_sim::concurrent::{
    Completion, ConcurrentEngine, EngineStep, KernelProfile, LaunchOutcome,
};
use cypress_sim::{MachineConfig, Simulator, TimingReport, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// `launches` is indexed by `NodeId::index()` (one entry per graph node).
pub(crate) fn run_timing(
    simulator: &Simulator,
    topology: &Topology,
    graph: &TaskGraph,
    launches: &[NodeLaunch],
    policy: SchedulePolicy,
    fault: &FaultContext,
    recorder: &mut dyn Recorder,
) -> Result<GraphReport, RuntimeError> {
    // Solo-time each node once per distinct compiled kernel: graphs that
    // repeat a program (the cache hands back the identical `Arc`) pay for
    // one simulation, not one per node. Communication launches skip the
    // simulator entirely — their cost is link-derived.
    let mut by_kernel: HashMap<*const Compiled, TimingReport> = HashMap::new();
    let mut reports = Vec::with_capacity(graph.len());
    for launch in launches {
        if let Some(comm) = &launch.comm {
            reports.push(comm_report(
                &launch.compiled.kernel.name,
                comm,
                topology,
                simulator.machine(),
            ));
            continue;
        }
        let key = Arc::as_ptr(&launch.compiled);
        let report = match by_kernel.get(&key) {
            Some(r) => r.clone(),
            None => {
                let r = simulator
                    .run_timing_lowered(&launch.compiled.kernel, &launch.compiled.lowered)?;
                by_kernel.insert(key, r.clone());
                r
            }
        };
        reports.push(report);
    }
    assemble_report(
        simulator.machine(),
        topology,
        graph,
        launches,
        &reports,
        policy,
        fault,
        recorder,
    )
}

/// Assemble the whole-graph report from per-node solo reports (indexed by
/// `NodeId::index()`) on `policy.streams()` streams per device, injecting
/// and recovering from the fault context's plan, and emit the run's
/// events. A schedule that ended early — a fail-fast fault, an exhausted
/// retry budget, a device loss with no survivor, a blown deadline — comes
/// back as the matching typed [`RuntimeError`] carrying the partial
/// report.
#[allow(clippy::too_many_arguments)]
pub(super) fn assemble_report(
    machine: &MachineConfig,
    topology: &Topology,
    graph: &TaskGraph,
    launches: &[NodeLaunch],
    reports: &[TimingReport],
    policy: SchedulePolicy,
    fault: &FaultContext,
    recorder: &mut dyn Recorder,
) -> Result<GraphReport, RuntimeError> {
    let streams = policy.streams();
    let sched = Scheduler::new(topology, graph, launches, reports, streams, fault).run()?;
    if recorder.enabled() {
        for ev in sched.events {
            recorder.record(ev);
        }
    }
    let report = GraphReport {
        nodes: sched.nodes,
        makespan: sched.makespan,
        seconds: machine.cycles_to_seconds(sched.makespan),
        critical_path: critical_path(graph, reports),
        streams,
        devices: topology.device_count(),
        recovery: sched.recovery,
    };
    if let Some(abort) = sched.abort {
        return Err(abort(Box::new(report)));
    }
    // The policy-invariant `NodeExecuted` stream in ascending node-id
    // (insertion) order, then the schedule's `NodeSpan` timeline in
    // completion order. `reports` is indexed by node id, so the emitted
    // stream is independent of how the nodes actually ran.
    if recorder.enabled() {
        for (i, node) in graph.nodes().iter().enumerate() {
            recorder.record(Event::NodeExecuted {
                node: node.name.clone(),
                kernel: launches[i].compiled.kernel.name.clone(),
                cycles: reports[i].cycles,
            });
        }
        for ev in report.trace_events() {
            recorder.record(ev);
        }
    }
    Ok(report)
}

/// The longest dependency chain of solo node makespans: the lower bound
/// no schedule can beat.
fn critical_path(graph: &TaskGraph, reports: &[TimingReport]) -> f64 {
    let mut longest = vec![0.0f64; graph.len()];
    let mut best = 0.0f64;
    for id in graph.schedule() {
        let mut upstream = 0.0f64;
        for dep in graph.dependencies(id) {
            upstream = upstream.max(longest[dep.0]);
        }
        longest[id.index()] = upstream + reports[id.index()].cycles;
        best = best.max(longest[id.index()]);
    }
    best
}

/// Name prefix of a failed attempt's span: a transient fault, or a launch
/// a device loss killed in flight.
const RETRY: &str = "retry:";

/// Turns the partial report of a schedule that ended early into its
/// typed [`RuntimeError`].
type Abort = Box<dyn FnOnce(Box<GraphReport>) -> RuntimeError>;

/// What one schedule produced.
#[derive(Default)]
pub(super) struct Sched {
    /// Timeline spans in completion order.
    pub(super) nodes: Vec<NodeTiming>,
    pub(super) makespan: f64,
    pub(super) recovery: Recovery,
    pub(super) events: Vec<Event>,
    /// Set when the schedule ended early.
    pub(super) abort: Option<Abort>,
}

/// The timeline span of one launch; `launch` is `None` for the spans the
/// fault layer synthesizes (recovery transfers, re-shard markers).
pub(super) fn span(
    node: String,
    (device, stream): (usize, usize),
    (start, end): (f64, f64),
    launch: Option<&NodeLaunch>,
    report: TimingReport,
) -> NodeTiming {
    NodeTiming {
        node,
        device,
        stream,
        start,
        end,
        mapping: launch.map_or_else(|| "default".to_string(), |l| l.mapping.clone()),
        tuned_speedup: launch.map_or(1.0, |l| l.tuned_speedup),
        replaced: launch.map_or_else(Vec::new, |l| l.replaced.clone()),
        report,
    }
}

/// Ready-queue scheduling onto `streams` simulated streams *per device*:
/// independent nodes launch as soon as a stream on their device is free,
/// co-resident launches contend for their own device's SMs/L2/HBM
/// through the fluid [`ConcurrentEngine`] (kernels on different devices
/// only meet on links), and communication launches draw on their link's
/// bandwidth instead. Dependents are released as upstream launches
/// retire. Ready nodes and free streams are both taken lowest-id-first;
/// at one stream on one device this is the back-to-back topological
/// walk, bit for bit.
///
/// With an active [`FaultContext`] the same loop also absorbs injected
/// faults: transient launch failures show up as `retry:`-prefixed spans
/// and re-execute under [`FaultPolicy::Retry`] (after an optional
/// backoff window); a permanent device loss evicts the device and
/// re-shards onto the survivors (see [`Scheduler::evict`]). With an
/// inactive context every step reduces to the fault-free scheduler, bit
/// for bit.
///
/// Launch ids `0..graph.len()` are the graph's nodes; recovery transfers
/// a device loss inserts are appended behind them, and every per-launch
/// vector below grows with them.
pub(super) struct Scheduler<'a> {
    pub(super) topology: &'a Topology,
    pub(super) graph: &'a TaskGraph,
    pub(super) launches: &'a [NodeLaunch],
    reports: &'a [TimingReport],
    pub(super) fault: &'a FaultContext,
    profiles: Vec<KernelProfile>,
    engine: ConcurrentEngine,
    /// Unretired dependencies per launch.
    pub(super) indegree: Vec<usize>,
    /// Launches each launch releases when it retires.
    pub(super) consumers: Vec<Vec<usize>>,
    pub(super) ready: Vec<usize>,
    /// Free stream ids per device, ascending.
    free: Vec<Vec<usize>>,
    pub(super) stream_of: Vec<usize>,
    /// Where each launch runs *now* — starts at the shard plan's
    /// placement, rewritten by degraded re-sharding after a device loss.
    pub(super) device_of: Vec<usize>,
    /// Device each launch actually went to: streams are freed on the
    /// launch device even if the node was re-planned while in flight.
    pub(super) launched_on: Vec<usize>,
    pub(super) completed: Vec<bool>,
    /// Completed graph nodes (recovery transfers not counted).
    completed_nodes: usize,
    attempts: Vec<u32>,
    /// Cycle of each node's first attempt (node deadlines run from it).
    first_start: Vec<f64>,
    /// Nodes whose relaunch is held back by a retry backoff window.
    deferred: HashMap<usize, f64>,
    /// Transfers re-routed or inserted by device losses.
    pub(super) loss: LossRecovery,
    pub(super) out: Sched,
}

impl<'a> Scheduler<'a> {
    fn new(
        topology: &'a Topology,
        graph: &'a TaskGraph,
        launches: &'a [NodeLaunch],
        reports: &'a [TimingReport],
        streams: usize,
        fault: &'a FaultContext,
    ) -> Self {
        let n = graph.len();
        let (indegree, consumers) = graph.dependency_edges();
        let device_of: Vec<usize> = launches.iter().map(|l| l.device).collect();
        let mut engine = ConcurrentEngine::with_topology(topology);
        if let Some(plan) = fault.plan.as_ref().filter(|p| !p.is_empty()) {
            engine = engine.with_fault_plan(plan.clone());
        }
        Scheduler {
            topology,
            graph,
            launches,
            reports,
            fault,
            profiles: reports
                .iter()
                .map(|r| KernelProfile::from_report(r, topology.machine()))
                .collect(),
            engine,
            ready: (0..n).filter(|&i| indegree[i] == 0).collect(),
            indegree,
            consumers,
            free: vec![(0..streams).collect(); topology.device_count()],
            stream_of: vec![0; n],
            launched_on: device_of.clone(),
            device_of,
            completed: vec![false; n],
            completed_nodes: 0,
            attempts: vec![0; n],
            first_start: vec![0.0; n],
            deferred: HashMap::new(),
            loss: LossRecovery::default(),
            out: Sched::default(),
        }
    }

    /// Run the schedule to completion or to its abort.
    fn run(mut self) -> Result<Sched, RuntimeError> {
        while self.completed_nodes < self.graph.len() && self.out.abort.is_none() {
            self.launch_ready();
            match self.engine.step() {
                Some(EngineStep::Retired {
                    completion,
                    outcome,
                }) => self.retire(&completion, outcome)?,
                Some(EngineStep::DeviceEvicted { device, at }) => self.evict(device, at),
                // Idle engine with work left: a retry backoff may be
                // holding everything back — skip the clock to its
                // release. Anything else is a scheduler bug, surfaced
                // typed instead of panicking.
                None => {
                    let release = self
                        .ready
                        .iter()
                        .filter_map(|i| self.deferred.get(i).copied())
                        .min_by(f64::total_cmp)
                        .ok_or_else(|| RuntimeError::Internal {
                            what: "concurrent scheduler stalled: engine idle with incomplete \
                                   nodes and nothing ready to launch"
                                .into(),
                        })?;
                    self.engine.skip_to(release);
                }
            }
        }
        Ok(self.out)
    }

    /// Launch every ready node with a free stream on its device and no
    /// pending backoff, lowest id first.
    fn launch_ready(&mut self) {
        let n = self.graph.len();
        while let Some(next) = self
            .ready
            .iter()
            .copied()
            .filter(|&i| {
                !self.free[self.device_of[i]].is_empty()
                    && self
                        .deferred
                        .get(&i)
                        .is_none_or(|&t| self.engine.now() >= t)
            })
            .min()
        {
            self.ready.retain(|&x| x != next);
            self.deferred.remove(&next);
            let device = self.device_of[next];
            self.stream_of[next] = self.free[device].remove(0);
            self.launched_on[next] = device;
            if next < n {
                if self.attempts[next] == 0 {
                    self.first_start[next] = self.engine.now();
                }
                self.attempts[next] += 1;
            }
            let comm = self.launches.get(next).and_then(|l| l.comm.as_ref());
            match (self.loss.route(next, n), comm) {
                (Some(r), _) => {
                    self.engine
                        .launch_transfer(next, r.link, r.report.cycles, r.demand);
                }
                (None, Some(comm)) => {
                    // The link-derived solo cycles were already folded
                    // into this node's report; the demand is the rate a
                    // solo transfer sustains, so an uncontended link
                    // reproduces them exactly.
                    let cycles = self.reports[next].cycles;
                    let demand = comm.bytes / cycles.max(1.0);
                    self.engine.launch_transfer(next, comm.link, cycles, demand);
                }
                (None, None) => self.engine.launch_on(next, device, &self.profiles[next]),
            }
        }
    }

    /// Put launch `done.id`'s interval on the timeline, a graph node's
    /// name behind `prefix`. A failed attempt ([`RETRY`]) and a recovery
    /// transfer are recovery work: their spans add to
    /// [`Recovery::overhead_cycles`].
    fn push_span(&mut self, prefix: &str, done: &Completion) {
        let n = self.graph.len();
        if prefix == RETRY || done.id >= n {
            self.out.recovery.overhead_cycles += done.end - done.start;
        }
        let route = self.loss.route(done.id, n);
        let name = match route {
            // A recovery transfer's report carries its span name.
            Some(r) if done.id >= n => r.report.kernel.clone(),
            _ => format!("{prefix}{}", self.graph.nodes()[done.id].name),
        };
        let report = route.map_or_else(|| self.reports[done.id].clone(), |r| r.report.clone());
        self.out.nodes.push(span(
            name,
            (self.launched_on[done.id], self.stream_of[done.id]),
            (done.start, done.end),
            self.launches.get(done.id),
            report,
        ));
    }

    /// A launch left the engine: free its stream, then release its
    /// dependents (completion) or hand it to [`Scheduler::fault`].
    fn retire(&mut self, done: &Completion, outcome: LaunchOutcome) -> Result<(), RuntimeError> {
        let n = self.graph.len();
        let (device, stream) = (self.launched_on[done.id], self.stream_of[done.id]);
        let idx = self.free[device].partition_point(|&s| s < stream);
        self.free[device].insert(idx, stream);
        // `ConcurrentEngine::step` completions are time-ordered (the
        // engine only moves forward); the makespan still folds with
        // `max` so a violation could never silently shrink it.
        debug_assert!(
            done.end >= self.out.makespan,
            "concurrent completions regressed in time: {} after {}",
            done.end,
            self.out.makespan
        );
        self.out.makespan = self.out.makespan.max(done.end);
        if outcome == LaunchOutcome::Completed {
            self.push_span("", done);
            self.completed[done.id] = true;
            for &c in &self.consumers[done.id] {
                self.indegree[c] -= 1;
                if self.indegree[c] == 0 {
                    self.ready.push(c);
                }
            }
            if done.id < n {
                self.completed_nodes += 1;
                if let Some(deadline) = self.fault.node_deadline {
                    if done.end - self.first_start[done.id] > deadline {
                        self.abort_on_deadline(&self.graph.nodes()[done.id].name, deadline, done);
                    }
                }
            }
        } else {
            self.fault(done, outcome)?;
        }
        if let Some(deadline) = self.fault.graph_deadline {
            if self.out.abort.is_none() && done.end > deadline {
                self.abort_on_deadline("graph", deadline, done);
            }
        }
        Ok(())
    }

    /// End the schedule: `what` (a node, or `"graph"`) blew `deadline`
    /// when `done` retired.
    fn abort_on_deadline(&mut self, what: &str, deadline: f64, done: &Completion) {
        let (what, at) = (what.to_string(), done.end);
        self.out.abort = Some(Box::new(move |report| RuntimeError::DeadlineExceeded {
            what,
            deadline,
            at,
            report,
        }));
    }

    /// A launch faulted (transiently, or as the casualty of a device
    /// loss): abort under [`FaultPolicy::FailFast`] or an exhausted retry
    /// budget, otherwise queue the node for re-execution.
    fn fault(&mut self, done: &Completion, outcome: LaunchOutcome) -> Result<(), RuntimeError> {
        let id = done.id;
        if id >= self.graph.len() {
            return Err(RuntimeError::Internal {
                what: "a recovery transfer reported a fault outcome".into(),
            });
        }
        let node = self.graph.nodes()[id].name.clone();
        let (device, attempts, cycle) = (self.launched_on[id], self.attempts[id], done.end);
        self.push_span(RETRY, done);
        let transient = outcome == LaunchOutcome::TransientFault;
        if transient {
            self.out.recovery.faults += 1;
            self.out.events.push(Event::FaultInjected {
                node: node.clone(),
                device,
                kind: "transient",
                at: cycle,
            });
        }
        let (give_up, backoff) = match self.fault.policy {
            FaultPolicy::FailFast => (true, 0.0),
            FaultPolicy::Retry {
                max_attempts,
                backoff,
            } => (transient && attempts >= max_attempts.max(1), backoff),
        };
        if give_up {
            self.out.abort = Some(if transient {
                Box::new(move |report| RuntimeError::NodeFailed {
                    node,
                    device,
                    attempts,
                    report,
                })
            } else {
                Box::new(move |report| RuntimeError::DeviceLost {
                    device,
                    cycle,
                    report,
                })
            });
            return Ok(());
        }
        self.out.recovery.retries += 1;
        self.out.events.push(Event::NodeRetried {
            node,
            device: self.device_of[id],
            attempt: attempts + 1,
        });
        if transient && backoff > 0.0 {
            self.deferred.insert(id, cycle + backoff);
        }
        if self.indegree[id] == 0 {
            self.ready.push(id);
        }
        Ok(())
    }
}
