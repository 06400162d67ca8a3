//! Device-loss recovery: when the engine evicts a device mid-schedule,
//! re-place its unexecuted nodes onto the survivors, re-route pending
//! transfers, and drain stranded buffers over the links.

use super::schedule::{span, Scheduler};
use super::{off_sm_report, Edge, Launch, Transfer, Work};
use crate::error::RuntimeError;
use crate::session::FaultPolicy;
use crate::shard;
use crate::telemetry::Event;
use std::collections::{HashMap, HashSet};

/// The recovery transfers device losses inserted during one schedule.
#[derive(Default)]
pub(super) struct LossRecovery {
    /// The recovery transfer covering each `(producer, param, dst)`.
    by_key: HashMap<(usize, usize, usize), usize>,
    /// `(recovery transfer, consumer)` dependencies already added.
    released: HashSet<(usize, usize)>,
}

impl Scheduler<'_> {
    /// The engine evicted `dead` at cycle `at`: abort under
    /// [`FaultPolicy::FailFast`] or with no survivor, otherwise re-plan
    /// the device's unexecuted nodes onto the survivors
    /// (see [`Scheduler::replan`]), re-route pending transfers, and
    /// insert `xfer:recover:` transfers that drain stranded buffers over
    /// the links.
    pub(super) fn evict(&mut self, dead: usize, at: f64) {
        let n = self.planned;
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
        let report = off_sm_report(&marker, 0.0, 0.0, 0, self.topology.machine());
        out.nodes
            .push(span(marker, (dead, 0), (at, at), None, report));
        let pending = |s: &Self, i: usize, transfer: bool| {
            !s.completed[i] && matches!(s.launches[i].work, Work::Transfer(_)) == transfer
        };
        // 1. Re-place stranded compute nodes onto the survivors.
        let moved: Vec<usize> = (0..n)
            .filter(|&i| pending(self, i, false) && self.launches[i].device == dead)
            .collect();
        let mut moved_names = self.replan(&moved, &survivors);
        // 2. Stranded transfers glue to their first incomplete consumer's
        //    device; every pending transfer is then re-routed against the
        //    new placement.
        for i in 0..n {
            if !pending(self, i, true) {
                continue;
            }
            if self.launches[i].device == dead {
                let follow = self.consumers[i]
                    .iter()
                    .copied()
                    .filter(|&c| c < n && !self.completed[c])
                    .min();
                let device = follow.map_or(survivors[0], |c| self.launches[c].device);
                self.launches.to_mut()[i].device = device;
                moved_names.push(self.launches[i].name.clone());
            }
            let launch = &self.launches[i];
            let (Some(edge), Work::Transfer(t)) = (launch.inputs.first(), &launch.work) else {
                continue;
            };
            let ends = (self.launches[edge.launch].device, launch.device);
            let rerouted = Transfer::new(&t.report.kernel, edge.bytes, ends, self.topology);
            self.launches.to_mut()[i].work = Work::Transfer(rerouted);
        }
        // 3. Cover every now-cross-device edge into an incomplete compute
        //    node with a recovery transfer that drains the producer's
        //    buffer onto the consumer's device. Idempotent across
        //    evictions: one transfer per (producer, param, destination),
        //    one extra dependency per covered consumer.
        let before = self.launches.len();
        for c in 0..n {
            if !pending(self, c, false) {
                continue;
            }
            for k in 0..self.launches[c].inputs.len() {
                let edge = self.launches[c].inputs[k];
                let dst = self.launches[c].device;
                if self.launches[edge.launch].device == dst {
                    continue;
                }
                let xid = match self.loss.by_key.get(&(edge.launch, edge.param, dst)) {
                    Some(&x) => x,
                    None => self.add_recovery_transfer(edge, dst),
                };
                if self.completed[xid] {
                    continue; // buffer already drained to `dst`
                }
                if self.loss.released.insert((xid, c)) {
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
            recovery_transfers: self.launches.len() - before,
        });
    }

    /// Re-place `moved` — incomplete nodes stranded on a lost device —
    /// onto the `survivors` with the sharder's rule
    /// ([`shard::heaviest_input`] over [`shard::input_bytes`]) against
    /// the *current* placement. Nodes are re-placed in id order; load is
    /// tracked per physical device over the planned launches. Returns
    /// the moved nodes' names in re-plan order.
    fn replan(&mut self, moved: &[usize], survivors: &[usize]) -> Vec<String> {
        let devices = self.topology.device_count();
        let mut load = vec![0.0f64; devices];
        for launch in &self.launches[..self.planned] {
            if let Some(slot) = load.get_mut(launch.device) {
                *slot += launch.bytes;
            }
        }
        let mut names = Vec::with_capacity(moved.len());
        for &i in moved {
            let in_bytes = shard::input_bytes(&self.launches, &self.launches[i], devices);
            let dev = shard::heaviest_input(&in_bytes, &load, survivors.iter().copied());
            let launch = &mut self.launches.to_mut()[i];
            launch.device = dev;
            load[dev] += launch.bytes;
            names.push(launch.name.clone());
        }
        names
    }

    /// Append the recovery transfer that drains `edge`'s buffer onto
    /// device `dst`, gated on its producer's completion; returns its
    /// launch id.
    fn add_recovery_transfer(&mut self, edge: Edge, dst: usize) -> usize {
        let (xid, p) = (self.launches.len(), edge.launch);
        let transfer = Launch::transfer(&self.launches[p], edge, dst, true, self.topology);
        self.launches.to_mut().push(transfer);
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
        self.loss.by_key.insert((p, edge.param, dst), xid);
        xid
    }
}
