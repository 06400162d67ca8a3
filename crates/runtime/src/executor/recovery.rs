//! Device-loss recovery: when the engine evicts a device mid-schedule,
//! re-place its unexecuted nodes onto the survivors, re-route pending
//! transfers, and drain stranded buffers over the links.

use super::schedule::{span, Scheduler};
use super::{comm_report, off_sm_report, CommLaunch};
use crate::error::RuntimeError;
use crate::graph::{Binding, TaskGraph};
use crate::session::FaultPolicy;
use crate::telemetry::Event;
use cypress_core::kernels::comm;
use cypress_sim::{MachineConfig, TimingReport, Topology};
use std::collections::{HashMap, HashSet};

/// A transfer priced against the post-loss placement: the link to
/// charge, the fluid demand, and the link-derived [`TimingReport`]
/// (whose `kernel` names the transfer).
pub(super) struct Route {
    pub(super) link: usize,
    pub(super) demand: f64,
    pub(super) report: TimingReport,
}

/// The transfers device losses changed during one schedule.
#[derive(Default)]
pub(super) struct LossRecovery {
    /// Synthetic `xfer:recover:` transfers draining stranded buffers onto
    /// a surviving device; transfer `x` has launch id `graph.len() + x`.
    xfers: Vec<Route>,
    /// The recovery transfer covering each `(producer, param, dst)`.
    xfer_by_key: HashMap<(usize, usize, usize), usize>,
    /// `(recovery transfer, consumer)` dependencies already added.
    xfer_links: HashSet<(usize, usize)>,
    /// Communication nodes re-routed by a re-shard, by node id.
    comm_route: HashMap<usize, Route>,
}

impl LossRecovery {
    /// The route of launch `id` if a device loss made or changed it:
    /// recovery transfers (ids from `n` up) and re-routed communication
    /// nodes.
    pub(super) fn route(&self, id: usize, n: usize) -> Option<&Route> {
        match id.checked_sub(n) {
            Some(x) => self.xfers.get(x),
            None => self.comm_route.get(&id),
        }
    }
}

/// Price a transfer from `src` to `dst`: over the connecting link when
/// one exists, collapsing to launch overhead (and zero link demand) when
/// the endpoints are co-located or unlinked.
fn route_transfer(
    kernel: &str,
    bytes: f64,
    src: usize,
    dst: usize,
    topology: &Topology,
    machine: &MachineConfig,
) -> Route {
    // Co-located after a re-shard glue (or no link): no link index
    // resolves, so the copy collapses to its launch overhead and draws
    // no link bandwidth.
    let link = topology.link_between(src, dst).filter(|_| src != dst);
    let comm = CommLaunch {
        link: link.unwrap_or(usize::MAX),
        bytes,
    };
    let report = comm_report(kernel, &comm, topology, machine);
    Route {
        link: link.unwrap_or(0),
        demand: link.map_or(0.0, |_| bytes / report.cycles.max(1.0)),
        report,
    }
}

/// The producing node behind a communication launch (its single
/// `Output` binding), if any.
fn producer_of(graph: &TaskGraph, node: usize) -> Option<usize> {
    graph.nodes()[node].bindings.iter().find_map(|b| match b {
        Binding::Output { node: src, .. } => Some(src.index()),
        _ => None,
    })
}

impl Scheduler<'_> {
    /// The engine evicted `dead` at cycle `at`: abort under
    /// [`FaultPolicy::FailFast`] or with no survivor, otherwise re-plan
    /// the device's unexecuted nodes onto the survivors
    /// (see [`crate::shard::replan`]), re-route pending transfers, and
    /// insert synthetic `xfer:recover:` transfers that drain stranded
    /// buffers over the links.
    pub(super) fn evict(&mut self, dead: usize, at: f64) {
        let (graph, launches, n) = (self.graph, self.launches, self.graph.len());
        let machine = self.topology.machine();
        let out = &mut self.out;
        out.makespan = out.makespan.max(at);
        out.recovery.faults += 1;
        out.recovery.evicted_devices.push(dead);
        out.events.push(Event::FaultInjected {
            node: "device".to_string(),
            device: dead,
            kind: "device_loss",
            at,
        });
        out.events.push(Event::DeviceEvicted { device: dead, at });
        let survivors: Vec<usize> = (0..self.topology.device_count())
            .filter(|d| !out.recovery.evicted_devices.contains(d))
            .collect();
        if matches!(self.fault.policy, FaultPolicy::FailFast) || survivors.is_empty() {
            out.abort = Some(Box::new(move |report| RuntimeError::DeviceLost {
                device: dead,
                cycle: at,
                report,
            }));
            return;
        }
        // Zero-length marker span: where the timeline re-shards.
        let marker = format!("reshard:d{dead}");
        let report = off_sm_report(&marker, 0.0, 0.0, 0, machine);
        out.nodes
            .push(span(marker, (dead, 0), (at, at), None, report));
        // 1. Re-place stranded compute nodes onto the survivors.
        let moved: Vec<usize> = (0..n)
            .filter(|&i| {
                !self.completed[i] && self.device_of[i] == dead && launches[i].comm.is_none()
            })
            .collect();
        let mut moved_names = crate::shard::replan(
            graph,
            &mut self.device_of,
            &moved,
            &survivors,
            self.topology.device_count(),
        );
        // 2. Stranded communication nodes glue to their first incomplete
        //    consumer's device; every pending transfer's route is then
        //    recomputed against the new placement.
        for (i, launch) in launches.iter().enumerate() {
            let Some(comm) = launch.comm.as_ref().filter(|_| !self.completed[i]) else {
                continue;
            };
            if self.device_of[i] == dead {
                let follow = self.consumers[i]
                    .iter()
                    .copied()
                    .filter(|&c| c < n && !self.completed[c])
                    .min();
                self.device_of[i] = follow.map_or(survivors[0], |c| self.device_of[c]);
                moved_names.push(graph.nodes()[i].name.clone());
            }
            let dst = self.device_of[i];
            let src = producer_of(graph, i).map_or(dst, |p| self.device_of[p]);
            let name = &launch.compiled.kernel.name;
            let route = route_transfer(name, comm.bytes, src, dst, self.topology, machine);
            self.loss.comm_route.insert(i, route);
        }
        // 3. Cover every now-cross-device edge into an incomplete compute
        //    node with a recovery transfer that drains the producer's
        //    buffer onto the consumer's device. Idempotent across
        //    evictions: one transfer per (producer, param, destination),
        //    one extra dependency per covered consumer.
        let before = self.loss.xfers.len();
        for (c, (node, launch)) in graph.nodes().iter().zip(launches).enumerate() {
            if self.completed[c] || launch.comm.is_some() {
                continue;
            }
            for b in &node.bindings {
                let Binding::Output { node: src, param } = b else {
                    continue;
                };
                let (p, param, dst) = (src.index(), *param, self.device_of[c]);
                if self.device_of[p] == dst {
                    continue;
                }
                let xid = match self.loss.xfer_by_key.get(&(p, param, dst)) {
                    Some(&x) => x,
                    None => self.add_recovery_transfer(p, param, dst),
                };
                if self.completed[xid] {
                    continue; // buffer already drained to `dst`
                }
                if self.loss.xfer_links.insert((xid, c)) {
                    self.indegree[c] += 1;
                    self.ready.retain(|&r| r != c);
                    self.consumers[xid].push(c);
                }
            }
        }
        self.out
            .recovery
            .resharded_nodes
            .extend(moved_names.iter().cloned());
        self.out.events.push(Event::Resharded {
            device: dead,
            nodes: moved_names,
            recovery_transfers: self.loss.xfers.len() - before,
        });
    }

    /// Append the recovery transfer that drains parameter `param` of
    /// producer `p` onto device `dst`, gated on `p`'s completion; returns
    /// its launch id.
    fn add_recovery_transfer(&mut self, p: usize, param: usize, dst: usize) -> usize {
        let xid = self.graph.len() + self.loss.xfers.len();
        let producer = &self.graph.nodes()[p];
        let name = format!("xfer:recover:{}.{param}->d{dst}", producer.name);
        let arg = &producer.program.args[param];
        self.loss.xfers.push(route_transfer(
            &name,
            comm::tensor_bytes(arg.rows, arg.cols),
            self.device_of[p],
            dst,
            self.topology,
            self.topology.machine(),
        ));
        self.device_of.push(dst);
        self.launched_on.push(dst);
        self.stream_of.push(0);
        self.completed.push(false);
        self.consumers.push(Vec::new());
        self.indegree.push(usize::from(!self.completed[p]));
        if self.completed[p] {
            self.ready.push(xid);
        } else {
            self.consumers[p].push(xid);
        }
        self.loss.xfer_by_key.insert((p, param, dst), xid);
        xid
    }
}
