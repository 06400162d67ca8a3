//! Graph sharding across the devices of a [`Topology`].
//!
//! Under [`PlacementPolicy::Sharded`] the session partitions a
//! [`TaskGraph`] across `N` simulated devices before launching it: every
//! node is assigned a device, and every tensor-buffer edge that crosses
//! a device boundary becomes a *transfer* — a link launch the scheduler
//! charges to the link connecting the two devices, priced by the link
//! model ([`cypress_sim::Link::transfer_cycles`]), with no copy kernel.
//! Device-loss recovery drains stranded buffers with the same kind of
//! launch.
//!
//! The crate-internal `plan` entry point returns a `ShardPlan`: the
//! placement and the deduplicated `(producer, param, destination)`
//! transfers. The graph itself is not rewritten. A functional launch
//! runs it as written, every consumer reading its producer's buffer
//! directly (a copy would be a bitwise identity), so tensors are bitwise
//! identical across placement policies and device counts; only the
//! timeline changes, where the executor numbers each transfer just
//! before its first consumer.
//!
//! Placement is deterministic and cheap, in node-id order (which is the
//! graph's schedule order — producers have lower ids):
//!
//! - *root* nodes (no tensor-buffer inputs) round-robin across devices,
//!   so independent fan-out work spreads immediately;
//! - every other node follows its *heaviest input*
//!   (`heaviest_input`): the device holding the most producer bytes
//!   wins (fewest bytes crossing a link), ties broken toward the
//!   least-loaded device, then the lowest id.

use crate::error::RuntimeError;
use crate::graph::{Binding, TaskGraph};
use cypress_core::kernels::comm;
use cypress_sim::Topology;
use std::collections::HashSet;

/// How a [`crate::Session`] places a graph's nodes onto simulated
/// devices (mirrors [`crate::SchedulePolicy`] and
/// [`crate::MappingPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Everything runs on one device — bit-for-bit identical to a
    /// session without a placement layer.
    #[default]
    SingleDevice,
    /// Partition the graph across `devices` simulated devices connected
    /// by NVLink-class links, with a link transfer on every
    /// cross-device edge. `Sharded { devices: 1 }` is exactly
    /// [`PlacementPolicy::SingleDevice`], timeline included. Functional
    /// results are bitwise identical at every device count.
    Sharded {
        /// Number of simulated devices (clamped to at least 1).
        devices: usize,
    },
}

impl PlacementPolicy {
    /// The device count this policy schedules over.
    #[must_use]
    pub fn devices(self) -> usize {
        match self {
            PlacementPolicy::SingleDevice => 1,
            PlacementPolicy::Sharded { devices } => devices.max(1),
        }
    }
}

/// One cross-device transfer: parameter `param` of node `producer`
/// moved from the producer's device to a consumer's device.
#[derive(Debug, Clone)]
pub(crate) struct ShardTransfer {
    /// The producing node.
    pub producer: usize,
    /// The producer parameter whose buffer moves.
    pub param: usize,
    /// The first node that reads it there: the transfer launches just
    /// before it.
    pub consumer: usize,
    /// Producer's device.
    pub src: usize,
    /// Consumer's device.
    pub dst: usize,
    /// Index into [`Topology::links`] of the link it travels.
    pub link: usize,
    /// Bytes moved across the link.
    pub bytes: f64,
}

/// The result of sharding a graph: where every node runs, and which
/// buffers cross a link to reach their consumers.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Device of every graph node.
    pub device_of: Vec<usize>,
    /// One transfer per distinct `(producer, param, destination
    /// device)`, in the order of their first consumers.
    pub transfers: Vec<ShardTransfer>,
}

/// Bytes of one node's parameter buffers — the placement load metric.
pub(crate) fn node_bytes(graph: &TaskGraph, node: usize) -> f64 {
    graph.nodes()[node]
        .program
        .args
        .iter()
        .map(|a| comm::tensor_bytes(a.rows, a.cols))
        .sum()
}

/// The device among `candidates` a node with `in_bytes` of input per
/// device should run on: the most input bytes, ties broken toward the
/// least `load`, then the lowest id (0 without candidates). With no
/// input bytes anywhere this is the least-loaded candidate.
pub(crate) fn heaviest_input(
    in_bytes: &[f64],
    load: &[f64],
    candidates: impl Iterator<Item = usize>,
) -> usize {
    candidates
        .max_by(|&a, &b| {
            in_bytes[a]
                .total_cmp(&in_bytes[b])
                .then(load[b].total_cmp(&load[a]))
                .then(b.cmp(&a))
        })
        .unwrap_or(0)
}

/// Assign every node a device: roots round-robin, everything else
/// follows its heaviest input. Deterministic in node-id order.
fn place(graph: &TaskGraph, devices: usize) -> Vec<usize> {
    let mut device = vec![0usize; graph.len()];
    let mut load = vec![0.0f64; devices];
    let mut roots_seen = 0usize;
    for (i, node) in graph.nodes().iter().enumerate() {
        let mut in_bytes = vec![0.0f64; devices];
        let mut has_edge = false;
        for b in &node.bindings {
            if let Binding::Output { node: src, param } = b {
                has_edge = true;
                let arg = &graph.nodes()[src.index()].program.args[*param];
                in_bytes[device[src.index()]] += comm::tensor_bytes(arg.rows, arg.cols);
            }
        }
        let dev = if has_edge {
            heaviest_input(&in_bytes, &load, 0..devices)
        } else {
            let d = roots_seen % devices;
            roots_seen += 1;
            d
        };
        device[i] = dev;
        load[dev] += node_bytes(graph, i);
    }
    device
}

/// Shard `graph` across the devices of `topology`: place every node,
/// then list one transfer per distinct `(producer, param, destination
/// device)` a cross-device edge needs — a buffer consumed twice on the
/// same remote device crosses the link once.
///
/// # Errors
///
/// Returns [`RuntimeError::BadTopology`] when the topology fails its
/// own validation or lacks a link between two devices an edge connects.
pub(crate) fn plan(graph: &TaskGraph, topology: &Topology) -> Result<ShardPlan, RuntimeError> {
    topology
        .validate()
        .map_err(|what| RuntimeError::BadTopology { what })?;
    let device_of = place(graph, topology.device_count());
    let mut transfers = Vec::new();
    let mut moved = HashSet::new();
    for (consumer, node) in graph.nodes().iter().enumerate() {
        let dst = device_of[consumer];
        for b in &node.bindings {
            let Binding::Output { node: src, param } = b else {
                continue;
            };
            let (producer, param) = (src.index(), *param);
            let src = device_of[producer];
            if src == dst || !moved.insert((producer, param, dst)) {
                continue;
            }
            let link = topology.link_between(src, dst).ok_or_else(|| {
                let producer = &graph.nodes()[producer].name;
                RuntimeError::BadTopology {
                    what: format!(
                        "edge `{producer}`.{param} -> `{}` needs a link between device {src} \
                         and device {dst}, but the topology has none",
                        node.name
                    ),
                }
            })?;
            let arg = &graph.nodes()[producer].program.args[param];
            transfers.push(ShardTransfer {
                producer,
                param,
                consumer,
                src,
                dst,
                link,
                bytes: comm::tensor_bytes(arg.rows, arg.cols),
            });
        }
    }
    Ok(ShardPlan {
        device_of,
        transfers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use crate::program::Program;
    use cypress_core::kernels::gemm;
    use cypress_sim::MachineConfig;

    fn gemm_program(d: usize) -> Program {
        Program::from_parts(
            gemm::build(d, d, d, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        )
    }

    fn root(graph: &mut TaskGraph, name: &str, d: usize) -> NodeId {
        graph
            .add_node(
                name,
                gemm_program(d),
                vec![
                    Binding::Zeros,
                    Binding::external(&format!("{name}A")),
                    Binding::external(&format!("{name}B")),
                ],
            )
            .unwrap()
    }

    #[test]
    fn roots_round_robin_without_transfers() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        for i in 0..4 {
            root(&mut g, &format!("g{i}"), 64);
        }
        let plan = plan(&g, &Topology::nvlink(&machine, 2)).unwrap();
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.device_of, vec![0, 1, 0, 1]);
    }

    #[test]
    fn consumers_follow_their_heaviest_input() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        let a = root(&mut g, "a", 64);
        g.add_node(
            "b",
            gemm_program(64),
            vec![
                Binding::Zeros,
                Binding::output(a, 0),
                Binding::external("B"),
            ],
        )
        .unwrap();
        let plan = plan(&g, &Topology::nvlink(&machine, 2)).unwrap();
        // b sits with its producer: no bytes cross a link.
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.device_of, vec![0, 0]);
    }

    #[test]
    fn cross_device_edges_get_transfers() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        let a = root(&mut g, "a", 64);
        let b = root(&mut g, "b", 64);
        // c reads both roots; the loser's buffer must cross the link.
        g.add_node(
            "c",
            gemm_program(64),
            vec![Binding::Zeros, Binding::output(a, 0), Binding::output(b, 0)],
        )
        .unwrap();
        let topology = Topology::nvlink(&machine, 2);
        let plan = plan(&g, &topology).unwrap();
        assert_eq!(plan.device_of, vec![0, 1, 0]);
        assert_eq!(plan.transfers.len(), 1);
        let t = &plan.transfers[0];
        assert_eq!((t.producer, t.param, t.consumer), (1, 0, 2));
        assert_eq!((t.src, t.dst), (1, 0), "b's buffer moves to c's device");
        assert_eq!(Some(t.link), topology.link_between(1, 0));
        assert_eq!(t.bytes, comm::tensor_bytes(64, 64));
    }

    #[test]
    fn transfers_are_distinct_and_listed_by_first_consumer() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        // Four roots round-robin over four devices; each consumer reads
        // two of them, so at least one 64x64 buffer per consumer crosses
        // a link.
        let roots: Vec<NodeId> = (0..4).map(|i| root(&mut g, &format!("r{i}"), 64)).collect();
        for i in 0..4 {
            g.add_node(
                &format!("c{i}"),
                gemm_program(64),
                vec![
                    Binding::Zeros,
                    Binding::output(roots[i], 0),
                    Binding::output(roots[(i + 1) % 4], 0),
                ],
            )
            .unwrap();
        }
        let plan = plan(&g, &Topology::nvlink(&machine, 4)).unwrap();
        let t = &plan.transfers;
        assert!(t.len() >= 2, "{} transfers", t.len());
        assert!(t.windows(2).all(|w| w[0].consumer <= w[1].consumer));
        for (i, x) in t.iter().enumerate() {
            assert_ne!(x.src, x.dst);
            assert_eq!(x.src, plan.device_of[x.producer]);
            assert_eq!(x.dst, plan.device_of[x.consumer]);
            let key = |y: &ShardTransfer| (y.producer, y.param, y.dst);
            assert!(t[..i].iter().all(|y| key(y) != key(x)), "{x:?} repeats");
        }
    }

    #[test]
    fn shared_remote_buffer_crosses_the_link_once() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        // a's output (128x128) outweighs b's (128x64), so both
        // consumers follow a to device 0 and read b's buffer remotely.
        let a = g
            .add_node(
                "a",
                Program::from_parts(gemm::build(128, 128, 128, &machine).unwrap(), "gemm"),
                vec![
                    Binding::Zeros,
                    Binding::external("aA"),
                    Binding::external("aB"),
                ],
            )
            .unwrap();
        let b = g
            .add_node(
                "b",
                Program::from_parts(gemm::build(128, 64, 64, &machine).unwrap(), "gemm"),
                vec![
                    Binding::Zeros,
                    Binding::external("bA"),
                    Binding::external("bB"),
                ],
            )
            .unwrap();
        for name in ["c", "d"] {
            g.add_node(
                name,
                Program::from_parts(gemm::build(128, 64, 128, &machine).unwrap(), "gemm"),
                vec![Binding::Zeros, Binding::output(a, 0), Binding::output(b, 0)],
            )
            .unwrap();
        }
        let plan = plan(&g, &Topology::nvlink(&machine, 2)).unwrap();
        // One transfer of b's buffer serves both consumers.
        assert_eq!(plan.transfers.len(), 1);
        assert_eq!(plan.transfers[0].consumer, 2);
        assert_eq!(plan.transfers[0].bytes, comm::tensor_bytes(128, 64));
    }

    #[test]
    fn single_device_is_the_identity_layout() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        let a = root(&mut g, "a", 64);
        g.add_node(
            "b",
            gemm_program(64),
            vec![
                Binding::Zeros,
                Binding::output(a, 0),
                Binding::external("B"),
            ],
        )
        .unwrap();
        let plan = plan(&g, &Topology::single(machine)).unwrap();
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.device_of, vec![0, 0]);
    }

    #[test]
    fn invalid_topology_is_a_typed_error() {
        let g = TaskGraph::new();
        let empty = Topology {
            devices: Vec::new(),
            links: Vec::new(),
        };
        let err = plan(&g, &empty).unwrap_err();
        assert!(matches!(err, RuntimeError::BadTopology { .. }), "{err}");

        // Kernels are profiled and transfers priced against one machine:
        // a mixed topology is refused, not scheduled with device 0's numbers.
        let mut mixed = Topology::nvlink(&MachineConfig::test_gpu(), 2);
        mixed.devices[1] = MachineConfig::h100_sxm5();
        let err = plan(&g, &mixed).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BadTopology { what } if what.contains("homogeneous")),
            "{err}"
        );
    }

    #[test]
    fn policy_device_counts() {
        assert_eq!(PlacementPolicy::SingleDevice.devices(), 1);
        assert_eq!(PlacementPolicy::Sharded { devices: 4 }.devices(), 4);
        assert_eq!(PlacementPolicy::Sharded { devices: 0 }.devices(), 1);
    }
}
