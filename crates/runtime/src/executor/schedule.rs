//! The timing schedule and report assembly: one ready-queue scheduler
//! over [`ConcurrentEngine`] turns per-node solo reports and link
//! transfers into a [`GraphReport`], absorbing injected faults on the
//! way.

use super::recovery::LossRecovery;
use super::{FaultContext, Launch, NodeLaunch, Work};
use crate::error::RuntimeError;
use crate::report::{GraphReport, NodeTiming, Recovery};
use crate::session::{FaultPolicy, Prepared, SchedulePolicy};
use crate::telemetry::{Event, TraceLog};
use cypress_core::Compiled;
use cypress_sim::concurrent::{
    Completion, ConcurrentEngine, EngineStep, KernelProfile, LaunchOutcome,
};
use cypress_sim::{SimError, Simulator, TimingReport, Topology};
use std::borrow::Cow;
use std::collections::HashMap;

/// The whole-graph report of `prepared`'s timeline on `policy.streams()`
/// streams per device, from each kernel's solo report read through
/// `solo` (see [`solo_report`]: a warm launch re-simulates nothing),
/// injecting and recovering from the fault context's plan, and emit the
/// run's events. A schedule that ended early — a fail-fast fault, an
/// exhausted retry budget, a device loss with no survivor — comes back
/// as the matching typed [`RuntimeError`] carrying the partial report.
pub(crate) fn run_timing(
    simulator: &Simulator,
    solo: &mut HashMap<u64, Option<TimingReport>>,
    prepared: &Prepared,
    policy: SchedulePolicy,
    fault: &FaultContext,
    recorder: Option<&TraceLog>,
) -> Result<GraphReport, RuntimeError> {
    let Prepared {
        topology,
        nodes,
        timeline,
        ..
    } = prepared;
    let reports = nodes
        .iter()
        .map(|node| solo_report(simulator, solo, &node.compiled))
        .collect::<Result<Vec<_>, _>>()?;
    let streams = policy.streams();
    let critical_path = critical_path(timeline, &reports);
    // The policy-invariant `NodeExecuted` stream in ascending launch-id
    // order, independent of how the launches actually ran (and of what a
    // device loss re-routes).
    let mut executed = Vec::new();
    if recorder.is_some() {
        for launch in timeline {
            let report = launch.report(&reports);
            executed.push(Event::NodeExecuted {
                node: launch.name.clone(),
                kernel: report.kernel.clone(),
                cycles: report.cycles,
            });
        }
    }
    let sched = Scheduler::new(topology, timeline, nodes, &reports, streams, fault).run()?;
    if let Some(log) = recorder {
        for ev in sched.events {
            log.record(ev);
        }
    }
    let report = GraphReport {
        nodes: sched.nodes,
        makespan: sched.makespan,
        seconds: topology.machine().cycles_to_seconds(sched.makespan),
        critical_path,
        streams,
        devices: topology.device_count(),
        recovery: sched.recovery,
    };
    if let Some(abort) = sched.abort {
        return Err(abort(Box::new(report)));
    }
    // Then the schedule's `NodeSpan` timeline in completion order.
    if let Some(log) = recorder {
        for ev in executed.into_iter().chain(report.trace_events()) {
            log.record(ev);
        }
    }
    Ok(report)
}

/// `compiled`'s solo timing report from `solo`, a session's memo keyed
/// by compiled-kernel fingerprint, or simulated and memoized. A `None`
/// entry (a kernel the fusion gate could not time) is simulated again,
/// so the caller gets the typed error it would get without the memo.
pub(crate) fn solo_report(
    simulator: &Simulator,
    solo: &mut HashMap<u64, Option<TimingReport>>,
    compiled: &Compiled,
) -> Result<TimingReport, SimError> {
    if let Some(Some(report)) = solo.get(&compiled.fingerprint) {
        return Ok(report.clone());
    }
    let report = simulator.run_timing_lowered(&compiled.kernel, &compiled.lowered)?;
    solo.insert(compiled.fingerprint, Some(report.clone()));
    Ok(report)
}

/// The longest dependency chain of solo launch makespans: the lower
/// bound no schedule can beat. Every launch depends only on launches
/// before it, so one pass in id order suffices.
fn critical_path(timeline: &[Launch], reports: &[TimingReport]) -> f64 {
    let mut longest = Vec::with_capacity(timeline.len());
    let mut best = 0.0f64;
    for launch in timeline {
        let upstream = launch
            .inputs
            .iter()
            .map(|e| longest[e.launch])
            .fold(0.0f64, f64::max);
        let chain = upstream + launch.report(reports).cycles;
        longest.push(chain);
        best = best.max(chain);
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
/// independent launches start as soon as a stream on their device is
/// free, co-resident kernels contend for their own device's SMs/L2/HBM
/// through the fluid [`ConcurrentEngine`] (kernels on different devices
/// only meet on links), and transfers draw on their link's bandwidth
/// instead. Dependents are released as upstream launches retire. Ready
/// launches and free streams are both taken lowest-id-first; at one
/// stream on one device this is the back-to-back topological walk, bit
/// for bit.
///
/// With an active [`FaultContext`] the same loop also absorbs injected
/// faults: transient launch failures show up as `retry:`-prefixed spans
/// and re-execute under [`FaultPolicy::Retry`] (after an optional
/// backoff window); a permanent device loss evicts the device and
/// re-shards onto the survivors (see [`Scheduler::evict`]). With an
/// inactive context every step reduces to the fault-free scheduler, bit
/// for bit.
///
/// Launch ids `0..planned` are the timeline's; recovery transfers a
/// device loss inserts are appended behind them, and every per-launch
/// vector below grows with them.
pub(super) struct Scheduler<'a> {
    pub(super) topology: &'a Topology,
    /// Every launch: the prepared timeline, borrowed until a device loss
    /// copies it to rewrite devices and transfers and append drains.
    pub(super) launches: Cow<'a, [Launch]>,
    /// The timeline's length: its compute launches and shard transfers.
    pub(super) planned: usize,
    /// Kernel, solo report and profile per graph node.
    nodes: &'a [NodeLaunch],
    reports: &'a [TimingReport],
    profiles: Vec<KernelProfile>,
    pub(super) fault: &'a FaultContext,
    engine: ConcurrentEngine,
    /// Unretired dependencies per launch.
    pub(super) indegree: Vec<usize>,
    /// Launches each launch releases when it retires.
    pub(super) consumers: Vec<Vec<usize>>,
    pub(super) ready: Vec<usize>,
    /// Free stream ids per device, ascending.
    free: Vec<Vec<usize>>,
    pub(super) stream_of: Vec<usize>,
    /// Device each launch actually went to: streams are freed on the
    /// launch device even if the launch was re-planned while in flight.
    pub(super) launched_on: Vec<usize>,
    pub(super) completed: Vec<bool>,
    /// Completed planned launches (recovery transfers not counted).
    completed_planned: usize,
    attempts: Vec<u32>,
    /// Launches whose relaunch is held back by a retry backoff window.
    deferred: HashMap<usize, f64>,
    /// Recovery transfers inserted by device losses.
    pub(super) loss: LossRecovery,
    pub(super) out: Sched,
}

impl<'a> Scheduler<'a> {
    fn new(
        topology: &'a Topology,
        launches: &'a [Launch],
        nodes: &'a [NodeLaunch],
        reports: &'a [TimingReport],
        streams: usize,
        fault: &'a FaultContext,
    ) -> Self {
        let n = launches.len();
        let mut indegree = vec![0usize; n];
        let mut consumers = vec![Vec::new(); n];
        for (i, launch) in launches.iter().enumerate() {
            for dep in launch.dependencies() {
                indegree[i] += 1;
                consumers[dep].push(i);
            }
        }
        let engine = ConcurrentEngine::with_topology(topology).with_fault_plan(fault.plan.clone());
        Scheduler {
            topology,
            launched_on: launches.iter().map(|l| l.device).collect(),
            launches: Cow::Borrowed(launches),
            planned: n,
            nodes,
            reports,
            profiles: reports
                .iter()
                .map(|r| KernelProfile::from_report(r, topology.machine()))
                .collect(),
            fault,
            engine,
            ready: (0..n).filter(|&i| indegree[i] == 0).collect(),
            indegree,
            consumers,
            free: vec![(0..streams).collect(); topology.device_count()],
            stream_of: vec![0; n],
            completed: vec![false; n],
            completed_planned: 0,
            attempts: vec![0; n],
            deferred: HashMap::new(),
            loss: LossRecovery::default(),
            out: Sched::default(),
        }
    }

    /// Run the schedule to completion or to its abort.
    fn run(mut self) -> Result<Sched, RuntimeError> {
        while self.completed_planned < self.planned && self.out.abort.is_none() {
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

    /// Start every ready launch with a free stream on its device and no
    /// pending backoff, lowest id first.
    fn launch_ready(&mut self) {
        while let Some(next) = self
            .ready
            .iter()
            .copied()
            .filter(|&i| {
                !self.free[self.launches[i].device].is_empty()
                    && self
                        .deferred
                        .get(&i)
                        .is_none_or(|&t| self.engine.now() >= t)
            })
            .min()
        {
            self.ready.retain(|&x| x != next);
            self.deferred.remove(&next);
            let device = self.launches[next].device;
            self.stream_of[next] = self.free[device].remove(0);
            self.launched_on[next] = device;
            if next < self.planned {
                self.attempts[next] += 1;
            }
            match &self.launches[next].work {
                Work::Transfer(t) => {
                    self.engine
                        .launch_transfer(next, t.link, t.report.cycles, t.demand);
                }
                Work::Node(i) => self.engine.launch_on(next, device, &self.profiles[*i]),
            }
        }
    }

    /// Put launch `done.id`'s interval on the timeline, its name behind
    /// `prefix`. A failed attempt ([`RETRY`]) and a recovery transfer are
    /// recovery work: their spans add to [`Recovery::overhead_cycles`].
    fn push_span(&mut self, prefix: &str, done: &Completion) {
        if prefix == RETRY || done.id >= self.planned {
            self.out.recovery.overhead_cycles += done.end - done.start;
        }
        let launch = &self.launches[done.id];
        let (node, report) = match &launch.work {
            Work::Node(i) => (Some(&self.nodes[*i]), self.reports[*i].clone()),
            Work::Transfer(t) => (None, t.report.clone()),
        };
        self.out.nodes.push(span(
            format!("{prefix}{}", launch.name),
            (self.launched_on[done.id], self.stream_of[done.id]),
            (done.start, done.end),
            node,
            report,
        ));
    }

    /// A launch left the engine: free its stream, then release its
    /// dependents (completion) or hand it to [`Scheduler::fault`].
    fn retire(&mut self, done: &Completion, outcome: LaunchOutcome) -> Result<(), RuntimeError> {
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
            if done.id < self.planned {
                self.completed_planned += 1;
            }
            Ok(())
        } else {
            self.fault(done, outcome)
        }
    }

    /// A launch faulted (transiently, or as the casualty of a device
    /// loss): abort under [`FaultPolicy::FailFast`] or an exhausted retry
    /// budget, otherwise queue the launch for re-execution.
    fn fault(&mut self, done: &Completion, outcome: LaunchOutcome) -> Result<(), RuntimeError> {
        let id = done.id;
        if id >= self.planned {
            return Err(RuntimeError::Internal {
                what: "a recovery transfer reported a fault outcome".into(),
            });
        }
        let node = self.launches[id].name.clone();
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
            device: self.launches[id].device,
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
