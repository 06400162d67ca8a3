//! Multi-kernel concurrent timing: co-resident kernels contending for
//! SMs, L2, and HBM bandwidth.
//!
//! A single [`crate::Simulator::run_timing`] call models one kernel with
//! the whole device to itself. Real workloads — batched-tensor pipelines
//! in particular — launch many small independent kernels whose speedup
//! comes entirely from *overlap*: each kernel occupies only part of the
//! machine, so several can make progress at once, throttled by whichever
//! shared resource saturates first.
//!
//! This module models that overlap with a *fluid* multi-resource sharing
//! model layered on top of solo timing runs:
//!
//! 1. Each kernel's solo [`TimingReport`] is distilled into a
//!    [`KernelProfile`]: how long it runs alone, how many SMs it can
//!    occupy, and how many bytes per cycle it pulls through L2 and HBM
//!    while running.
//! 2. [`ConcurrentEngine`] advances a set of co-resident kernels through
//!    completion events. At any instant, each active kernel progresses at
//!    a rate equal to the *minimum* of its fair shares: SMs are split in
//!    proportion to demand when oversubscribed, and L2/HBM bandwidth is
//!    split in proportion to each kernel's solo consumption rate. A
//!    kernel running alone always progresses at rate 1, so a one-kernel
//!    (or one-stream) schedule reproduces the solo numbers exactly.
//!
//! The model guarantees the scheduling invariants the runtime's tests
//! lock down: each kernel's concurrent duration is at least its solo
//! duration (rates never exceed 1), and the aggregate progress rate of
//! the active set is at least one solo-kernel-equivalent per cycle (each
//! of `k` co-resident kernels gets at least a `1/k` share of every
//! resource), so the concurrent makespan never exceeds the serial sum.

use crate::fault::FaultPlan;
use crate::machine::MachineConfig;
use crate::report::TimingReport;
use crate::topology::Topology;
use std::collections::VecDeque;

/// Resource demands of one kernel, derived from its solo timing run.
///
/// The profile is what the contention model needs to know about a kernel:
/// its solo makespan (launch overhead included), the SMs it occupies, and
/// the average device-wide bytes per cycle it moves through L2 and HBM
/// while running. Demands are clamped to the machine's capacities so that
/// a kernel running alone is never throttled.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name (for reports).
    pub name: String,
    /// Solo makespan in cycles, launch overheads included.
    pub cycles: f64,
    /// SMs the kernel occupies when it has the device to itself.
    pub sm_demand: f64,
    /// Average HBM bytes per cycle while running solo (post-L2 traffic).
    pub hbm_demand: f64,
    /// Average L2 bytes per cycle while running solo.
    pub l2_demand: f64,
}

impl KernelProfile {
    /// Distill a solo timing report into a contention profile.
    #[must_use]
    pub fn from_report(report: &TimingReport, machine: &MachineConfig) -> Self {
        let cycles = report.cycles.max(1.0);
        let hbm_bytes = report.load_bytes * (1.0 - report.l2_hit) + report.store_bytes;
        let l2_bytes = report.load_bytes + report.store_bytes;
        KernelProfile {
            name: report.kernel.clone(),
            cycles: report.cycles,
            sm_demand: (report.active_sms as f64).max(1.0),
            hbm_demand: (hbm_bytes / cycles).min(machine.hbm_bytes_per_cycle),
            l2_demand: (l2_bytes / cycles).min(machine.l2_bytes_per_cycle),
        }
    }
}

/// A kernel's completed interval on the shared device.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The id the kernel was launched under.
    pub id: usize,
    /// Cycle at which the kernel was launched.
    pub start: f64,
    /// Cycle at which it retired.
    pub end: f64,
}

/// How a launch left the engine (see [`ConcurrentEngine::step`]).
/// Without a [`FaultPlan`] every launch completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// The launch ran to completion.
    Completed,
    /// The launch was scheduled to fault once
    /// ([`crate::Fault::Transient`]): it consumed its full duration and
    /// then failed. A re-execution is a later launch index and succeeds.
    TransientFault,
    /// The launch's device failed permanently underneath it
    /// ([`crate::Fault::DeviceLoss`]); its interval ends at the loss
    /// cycle.
    DeviceLost,
}

/// One observable event from [`ConcurrentEngine::step`]: either a
/// launch retiring (with its [`LaunchOutcome`]) or a device dying.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineStep {
    /// A launch left the engine.
    Retired {
        /// The launch's interval.
        completion: Completion,
        /// How it ended.
        outcome: LaunchOutcome,
    },
    /// A [`crate::Fault::DeviceLoss`] fired. Emitted once per dead
    /// device, *before* the casualty `Retired` events of the launches
    /// it killed, so a scheduler can re-plan at the exact loss cycle.
    DeviceEvicted {
        /// The device that died.
        device: usize,
        /// The cycle it died at.
        at: f64,
    },
}

#[derive(Debug, Clone)]
struct Active {
    id: usize,
    start: f64,
    /// Remaining solo-equivalent cycles of work.
    remaining: f64,
    /// Device the kernel computes on (compute kernels), or the device
    /// that issued the transfer (link kernels — it pays no compute
    /// resources there, the field only documents provenance).
    device: usize,
    /// `Some(link)` for a communication kernel: it draws only on that
    /// link's bandwidth, never on any device's SM/HBM/L2.
    link: Option<usize>,
    /// Bytes per cycle the kernel pulls on its link (communication
    /// kernels only).
    link_demand: f64,
    sm: f64,
    hbm: f64,
    l2: f64,
    /// Scheduled to fault once when it retires (see
    /// [`crate::Fault::Transient`]).
    transient: bool,
}

/// One device's resource capacities (every device of a topology is the
/// same machine).
#[derive(Debug, Clone)]
struct DeviceCaps {
    sms: f64,
    hbm: f64,
    l2: f64,
}

impl DeviceCaps {
    fn of(machine: &MachineConfig) -> Self {
        DeviceCaps {
            sms: machine.sms as f64,
            hbm: machine.hbm_bytes_per_cycle,
            l2: machine.l2_bytes_per_cycle,
        }
    }
}

/// Fluid timing model of kernels sharing one device — or, built with
/// [`ConcurrentEngine::with_topology`], several devices behind shared
/// links. Compute kernels on different devices contend only for their
/// own device's SMs/HBM/L2; communication kernels
/// ([`ConcurrentEngine::launch_transfer`]) draw only on their link's
/// bandwidth, split proportionally when several transfers share it.
///
/// Drive it by launching kernels ([`ConcurrentEngine::launch_on`]; each
/// launch starts at the engine's current time) and calling
/// [`ConcurrentEngine::step`] to reach the next completion. The
/// runtime's stream scheduler interleaves launches and completions to
/// model dependency-gated streams.
#[derive(Debug)]
pub struct ConcurrentEngine {
    caps: DeviceCaps,
    /// Number of devices.
    devices: usize,
    /// Bandwidth capacity per link, bytes per cycle.
    links: Vec<f64>,
    now: f64,
    active: Vec<Active>,
    /// Injected faults; `None` (the default) is bit-identical to the
    /// pre-fault engine.
    fault_plan: Option<FaultPlan>,
    /// Compute launches admitted so far, per device (transient-fault
    /// matching).
    launch_counts: Vec<u64>,
    /// Loss cycle of each device that already died.
    lost: Vec<Option<f64>>,
    /// Steps produced but not yet handed out (eviction markers and
    /// their casualties).
    pending: VecDeque<EngineStep>,
}

impl ConcurrentEngine {
    /// An idle machine of one or more devices at cycle 0.
    #[must_use]
    pub fn with_topology(topology: &Topology) -> Self {
        let n = topology.devices;
        ConcurrentEngine {
            caps: DeviceCaps::of(&topology.machine),
            devices: n,
            links: topology.links.iter().map(|l| l.bytes_per_cycle).collect(),
            now: 0.0,
            active: Vec::new(),
            fault_plan: None,
            launch_counts: vec![0; n],
            lost: vec![None; n],
            pending: VecDeque::new(),
        }
    }

    /// Attach a [`FaultPlan`]. An empty plan leaves every completion
    /// bit-identical to an engine without one; a non-empty plan makes
    /// [`ConcurrentEngine::step`] surface faults as typed outcomes.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Current simulated time in cycles.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance the clock to `t` while the engine is idle (no active
    /// launches) — how a scheduler models waiting out a retry backoff.
    /// Device losses whose cycle the skip crosses still fire (their
    /// [`EngineStep::DeviceEvicted`] markers surface on the next
    /// [`ConcurrentEngine::step`]). A no-op when launches are in flight
    /// or `t` is in the past.
    pub fn skip_to(&mut self, t: f64) {
        if self.active.is_empty() && t > self.now {
            self.now = t;
            self.process_due_losses();
        }
    }

    /// Admit a compute kernel on `device` at the current time; `id` is
    /// echoed back in its [`Completion`] (out of
    /// range clamps to the last device — callers validate their topology
    /// before launching). A launch onto a lost device, or onto an engine
    /// without devices, retires at once as [`LaunchOutcome::DeviceLost`].
    pub fn launch_on(&mut self, id: usize, device: usize, profile: &KernelProfile) {
        let device = device.min(self.devices.saturating_sub(1));
        if self.lost.get(device).is_none_or(Option::is_some) {
            // Launching onto a dead device — or onto an engine with no
            // devices at all — fails immediately: a zero-length interval
            // with a typed outcome, never a panic.
            self.pending.push_back(EngineStep::Retired {
                completion: Completion {
                    id,
                    start: self.now,
                    end: self.now,
                },
                outcome: LaunchOutcome::DeviceLost,
            });
            return;
        }
        let launch_index = self.launch_counts[device];
        self.launch_counts[device] += 1;
        let transient = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.transient_hits(device, launch_index));
        self.active.push(Active {
            id,
            start: self.now,
            remaining: profile.cycles,
            device,
            link: None,
            link_demand: 0.0,
            sm: profile.sm_demand,
            hbm: profile.hbm_demand,
            l2: profile.l2_demand,
            transient,
        });
    }

    /// Admit a communication kernel on `link` at the current time:
    /// `cycles` of solo transfer time drawing `demand` bytes per cycle
    /// on the link (and nothing on any device). Out-of-range links clamp
    /// like [`ConcurrentEngine::launch_on`]; an engine with no links
    /// runs the transfer unthrottled (solo time only).
    pub fn launch_transfer(&mut self, id: usize, link: usize, cycles: f64, demand: f64) {
        let link = if self.links.is_empty() {
            None
        } else {
            Some(link.min(self.links.len() - 1))
        };
        self.active.push(Active {
            id,
            start: self.now,
            remaining: cycles,
            device: 0,
            link,
            link_demand: demand,
            sm: 0.0,
            hbm: 0.0,
            l2: 0.0,
            transient: false,
        });
    }

    /// Per-kernel progress rates (solo-cycles per wall-cycle) for the
    /// current active set: the minimum of the kernel's proportional
    /// shares of its own device's SMs, HBM, and L2 — or, for a
    /// communication kernel, its proportional share of its link's
    /// bandwidth. Kernels with no demand on a resource are not throttled
    /// by it; kernels on different devices never throttle each other.
    fn rates(&self) -> Vec<f64> {
        let nd = self.devices;
        let mut sm_sum = vec![0.0f64; nd];
        let mut hbm_sum = vec![0.0f64; nd];
        let mut l2_sum = vec![0.0f64; nd];
        let mut link_sum = vec![0.0f64; self.links.len()];
        // Accumulate in insertion order, exactly the order the
        // single-device `sum()` used — sums stay bit-identical.
        for a in &self.active {
            match a.link {
                Some(l) => link_sum[l] += a.link_demand,
                None => {
                    sm_sum[a.device] += a.sm;
                    hbm_sum[a.device] += a.hbm;
                    l2_sum[a.device] += a.l2;
                }
            }
        }
        let caps = &self.caps;
        let sm_scale: Vec<f64> = sm_sum.iter().map(|&s| (caps.sms / s).min(1.0)).collect();
        let hbm_scale: Vec<f64> = hbm_sum
            .iter()
            .map(|&s| if s > caps.hbm { caps.hbm / s } else { 1.0 })
            .collect();
        let l2_scale: Vec<f64> = l2_sum
            .iter()
            .map(|&s| if s > caps.l2 { caps.l2 / s } else { 1.0 })
            .collect();
        let link_scale: Vec<f64> = self
            .links
            .iter()
            .enumerate()
            .map(|(l, &cap)| {
                if link_sum[l] > cap {
                    cap / link_sum[l]
                } else {
                    1.0
                }
            })
            .collect();
        self.active
            .iter()
            .map(|a| match a.link {
                Some(l) => link_scale[l],
                None => {
                    let d = a.device;
                    let mut r = sm_scale[d];
                    if a.hbm > 0.0 {
                        r = r.min(hbm_scale[d]);
                    }
                    if a.l2 > 0.0 {
                        r = r.min(l2_scale[d]);
                    }
                    r
                }
            })
            .collect()
    }

    /// Fire every [`crate::Fault::DeviceLoss`] whose cycle has been
    /// reached: queue an eviction marker, then kill the launches in
    /// flight on the dead device (their intervals end at the current
    /// cycle). Returns `true` when anything fired.
    fn process_due_losses(&mut self) -> bool {
        let Some(plan) = self.fault_plan.clone() else {
            return false;
        };
        let mut fired = false;
        for device in 0..self.devices {
            if self.lost[device].is_some() {
                continue;
            }
            let Some(at) = plan.device_loss_at(device) else {
                continue;
            };
            if at > self.now {
                continue;
            }
            self.lost[device] = Some(at);
            fired = true;
            self.pending
                .push_back(EngineStep::DeviceEvicted { device, at });
            let mut survivors = Vec::with_capacity(self.active.len());
            for a in self.active.drain(..) {
                if a.link.is_none() && a.device == device {
                    self.pending.push_back(EngineStep::Retired {
                        completion: Completion {
                            id: a.id,
                            start: a.start,
                            end: self.now,
                        },
                        outcome: LaunchOutcome::DeviceLost,
                    });
                } else {
                    survivors.push(a);
                }
            }
            self.active = survivors;
        }
        fired
    }

    /// Advance to the next observable event: a launch retiring (with
    /// its [`LaunchOutcome`]) or a device dying. Returns `None` when
    /// nothing is active or queued. Ties complete lowest-id-first, one
    /// per call, so completion order is deterministic. Without a fault
    /// plan every step is an [`EngineStep::Retired`] with
    /// [`LaunchOutcome::Completed`].
    pub fn step(&mut self) -> Option<EngineStep> {
        if let Some(s) = self.pending.pop_front() {
            return Some(s);
        }
        loop {
            if self.process_due_losses() {
                if let Some(s) = self.pending.pop_front() {
                    return Some(s);
                }
            }
            if self.active.is_empty() {
                return None;
            }
            let rates = self.rates();
            let mut win = 0;
            let mut win_dt = self.active[0].remaining / rates[0];
            for (i, (a, r)) in self.active.iter().zip(&rates).enumerate().skip(1) {
                let dt = a.remaining / r;
                if dt < win_dt || (dt == win_dt && a.id < self.active[win].id) {
                    win = i;
                    win_dt = dt;
                }
            }
            // Clip the fluid window at the next device loss so it fires
            // at its exact cycle. No plan, no boundaries — and the
            // legacy arithmetic below runs unchanged.
            if let Some(boundary) = self
                .fault_plan
                .as_ref()
                .and_then(|p| p.next_boundary(self.now))
            {
                if self.now + win_dt > boundary {
                    let dt = boundary - self.now;
                    self.now = boundary;
                    for (a, r) in self.active.iter_mut().zip(&rates) {
                        a.remaining = (a.remaining - dt * r).max(0.0);
                    }
                    continue;
                }
            }
            self.now += win_dt;
            for (a, r) in self.active.iter_mut().zip(&rates) {
                a.remaining = (a.remaining - win_dt * r).max(0.0);
            }
            let done = self.active.remove(win);
            let outcome = if done.transient {
                LaunchOutcome::TransientFault
            } else {
                LaunchOutcome::Completed
            };
            return Some(EngineStep::Retired {
                completion: Completion {
                    id: done.id,
                    start: done.start,
                    end: self.now,
                },
                outcome,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(id: &str, cycles: f64, sm: f64, hbm: f64) -> KernelProfile {
        KernelProfile {
            name: id.into(),
            cycles,
            sm_demand: sm,
            hbm_demand: hbm,
            l2_demand: 0.0,
        }
    }

    fn machine4() -> MachineConfig {
        MachineConfig::test_gpu() // 4 SMs, 64 B/cycle HBM
    }

    /// An idle one-device engine.
    fn engine() -> ConcurrentEngine {
        ConcurrentEngine::with_topology(&Topology::single(machine4()))
    }

    /// Step to the next completion, whatever its outcome, skipping
    /// eviction markers.
    fn advance(e: &mut ConcurrentEngine) -> Option<Completion> {
        loop {
            match e.step()? {
                EngineStep::Retired { completion, .. } => return Some(completion),
                EngineStep::DeviceEvicted { .. } => {}
            }
        }
    }

    #[test]
    fn lone_kernel_runs_at_full_rate() {
        let mut e = engine();
        e.launch_on(0, 0, &profile("a", 1000.0, 2.0, 10.0));
        let c = advance(&mut e).unwrap();
        assert_eq!((c.start, c.end), (0.0, 1000.0));
        assert!(advance(&mut e).is_none());
    }

    #[test]
    fn small_kernels_overlap_fully() {
        // Two 1-SM kernels on a 4-SM machine: no contention at all.
        let mut e = engine();
        e.launch_on(0, 0, &profile("a", 1000.0, 1.0, 1.0));
        e.launch_on(1, 0, &profile("b", 600.0, 1.0, 1.0));
        let first = advance(&mut e).unwrap();
        let second = advance(&mut e).unwrap();
        assert_eq!((first.id, first.end), (1, 600.0));
        assert_eq!((second.id, second.end), (0, 1000.0));
    }

    #[test]
    fn full_device_kernels_serialize() {
        // Two full-device kernels: proportional SM sharing halves both
        // rates, so the pair costs exactly the serial sum.
        let mut e = engine();
        e.launch_on(0, 0, &profile("a", 1000.0, 4.0, 0.0));
        e.launch_on(1, 0, &profile("b", 1000.0, 4.0, 0.0));
        let first = advance(&mut e).unwrap();
        let second = advance(&mut e).unwrap();
        assert_eq!(first.id, 0, "ties retire lowest id first");
        assert!((second.end - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn devices_do_not_contend_with_each_other() {
        // Two full-device kernels serialize on one device but overlap
        // perfectly when placed on different devices of a 2-GPU topology.
        let topo = Topology::nvlink(&machine4(), 2);
        let mut e = ConcurrentEngine::with_topology(&topo);
        assert_eq!(e.devices, 2);
        e.launch_on(0, 0, &profile("a", 1000.0, 4.0, 0.0));
        e.launch_on(1, 1, &profile("b", 1000.0, 4.0, 0.0));
        let first = advance(&mut e).unwrap();
        let second = advance(&mut e).unwrap();
        assert_eq!((first.id, first.end), (0, 1000.0));
        assert_eq!((second.id, second.end), (1, 1000.0));
    }

    #[test]
    fn transfers_share_link_bandwidth_proportionally() {
        let topo = Topology::nvlink(&machine4(), 2);
        let cap = topo.links[0].bytes_per_cycle;
        let mut e = ConcurrentEngine::with_topology(&topo);
        // Two transfers each demanding the full link: both stretch 2x.
        e.launch_transfer(0, 0, 1000.0, cap);
        e.launch_transfer(1, 0, 1000.0, cap);
        // A compute kernel is untouched by the link fight.
        e.launch_on(2, 0, &profile("alu", 1000.0, 1.0, 0.0));
        let first = advance(&mut e).unwrap();
        assert_eq!((first.id, first.end), (2, 1000.0));
        let second = advance(&mut e).unwrap();
        assert_eq!(second.id, 0, "ties retire lowest id first");
        assert!((second.end - 2000.0).abs() < 1e-9, "end {}", second.end);
        let third = advance(&mut e).unwrap();
        assert!((third.end - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_on_distinct_links_do_not_contend() {
        let topo = Topology::nvlink(&machine4(), 4);
        let cap = topo.links[0].bytes_per_cycle;
        let mut e = ConcurrentEngine::with_topology(&topo);
        let l01 = topo.link_between(0, 1).unwrap();
        let l23 = topo.link_between(2, 3).unwrap();
        e.launch_transfer(0, l01, 1000.0, cap);
        e.launch_transfer(1, l23, 1000.0, cap);
        let first = advance(&mut e).unwrap();
        let second = advance(&mut e).unwrap();
        assert_eq!(first.end, 1000.0);
        assert_eq!(second.end, 1000.0);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let mut plain = engine();
        let mut faulted = engine().with_fault_plan(FaultPlan::new());
        for e in [&mut plain, &mut faulted] {
            e.launch_on(0, 0, &profile("a", 1000.0, 4.0, 64.0));
            e.launch_on(1, 0, &profile("b", 700.0, 2.0, 32.0));
            e.launch_on(2, 0, &profile("c", 300.0, 1.0, 8.0));
        }
        loop {
            let (a, b) = (advance(&mut plain), advance(&mut faulted));
            assert_eq!(a, b, "bit-identical completions");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn transient_faults_surface_as_typed_outcomes() {
        let plan = FaultPlan::new().with_transient(0, 1);
        let mut e = engine().with_fault_plan(plan);
        e.launch_on(0, 0, &profile("a", 300.0, 1.0, 0.0)); // launch 0: clean
        e.launch_on(1, 0, &profile("b", 600.0, 1.0, 0.0)); // launch 1: faults once
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (0, LaunchOutcome::Completed));
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (1, LaunchOutcome::TransientFault));
                assert_eq!(completion.end, 600.0, "a transient burns its full duration");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The retry is launch index 2 on device 0: it succeeds.
        e.launch_on(2, 0, &profile("b'", 600.0, 1.0, 0.0));
        match e.step().unwrap() {
            EngineStep::Retired { outcome, .. } => assert_eq!(outcome, LaunchOutcome::Completed),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn device_loss_kills_in_flight_launches_at_the_loss_cycle() {
        let topo = Topology::nvlink(&machine4(), 2);
        let plan = FaultPlan::new().with_device_loss(1, 400.0);
        let mut e = ConcurrentEngine::with_topology(&topo).with_fault_plan(plan);
        e.launch_on(0, 0, &profile("safe", 1000.0, 1.0, 0.0));
        e.launch_on(1, 1, &profile("doomed", 1000.0, 1.0, 0.0));
        match e.step().unwrap() {
            EngineStep::DeviceEvicted { device, at } => assert_eq!((device, at), (1, 400.0)),
            other => panic!("the eviction marker comes first, got {other:?}"),
        }
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (1, LaunchOutcome::DeviceLost));
                assert_eq!(completion.end, 400.0, "killed at the loss cycle");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The surviving kernel still completes on time.
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (0, LaunchOutcome::Completed));
                assert_eq!(completion.end, 1000.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Launching onto the dead device fails immediately, typed.
        e.launch_on(9, 1, &profile("late", 100.0, 1.0, 0.0));
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (9, LaunchOutcome::DeviceLost));
                assert_eq!(completion.start, completion.end);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launching_on_an_engine_without_devices_is_a_device_loss() {
        let mut e = ConcurrentEngine::with_topology(&Topology {
            machine: machine4(),
            devices: 0,
            links: vec![],
        });
        e.launch_on(0, 0, &profile("orphan", 100.0, 1.0, 0.0));
        match e.step().unwrap() {
            EngineStep::Retired {
                completion,
                outcome,
            } => {
                assert_eq!((completion.id, outcome), (0, LaunchOutcome::DeviceLost));
                assert_eq!((completion.start, completion.end), (0.0, 0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.step().is_none(), "nothing else is in flight");
    }

    #[test]
    fn bandwidth_contention_throttles_only_consumers() {
        // One HBM-saturating kernel and one compute-only kernel: the
        // compute kernel is not throttled by the bandwidth fight.
        let mut e = engine();
        e.launch_on(0, 0, &profile("mem", 1000.0, 1.0, 64.0));
        e.launch_on(1, 0, &profile("mem2", 1000.0, 1.0, 64.0));
        e.launch_on(2, 0, &profile("alu", 1000.0, 1.0, 0.0));
        let first = advance(&mut e).unwrap();
        assert_eq!(first.id, 2, "compute kernel finishes first");
        assert_eq!(first.end, 1000.0);
        // The two memory kernels split HBM: both stretch to ~2x.
        let second = advance(&mut e).unwrap();
        assert!((second.end - 2000.0).abs() < 1e-6, "end {}", second.end);
    }
}
