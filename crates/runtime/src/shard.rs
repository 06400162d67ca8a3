//! Graph sharding across the devices of a [`Topology`].
//!
//! Under [`PlacementPolicy::Sharded`] the session partitions a
//! [`TaskGraph`] across `N` simulated devices before launching it: every
//! node is assigned a device, and every tensor-buffer edge that crosses
//! a device boundary is replaced by an explicit *transfer node* — a
//! first-class communication kernel (see
//! [`cypress_core::kernels::comm`]) that the scheduler charges to the
//! link connecting the two devices instead of to any device's SMs.
//!
//! The sharder mirrors the fusion planner's shape (see [`crate::fuse`]):
//! the crate-internal `plan` entry point returns a `ShardPlan`
//! holding the rewritten graph plus the
//! bookkeeping to map results back to the original addressing, and the
//! session re-addresses launch results through it exactly like it does
//! through a `FusionPlan`. Because transfer kernels are
//! bitwise copies and the all-reduce combine is tiling-independent,
//! functional results are bitwise identical across placement policies
//! and device counts; only the timeline changes.
//!
//! Placement is deterministic and cheap, in node-id order (which is the
//! graph's schedule order — producers have lower ids):
//!
//! - *root* nodes (no tensor-buffer inputs) round-robin across devices,
//!   so independent fan-out work spreads immediately;
//! - every other node follows its *heaviest input*: the device holding
//!   the most producer bytes wins (fewest bytes crossing a link), ties
//!   broken toward the least-loaded device, then the lowest id.

use crate::error::RuntimeError;
use crate::graph::{Binding, NodeId, TaskGraph};
use crate::program::Program;
use cypress_core::kernels::comm;
use cypress_core::Shape;
use cypress_sim::Topology;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// by NVLink-class links, inserting explicit transfer kernels on
    /// every cross-device edge. `Sharded { devices: 1 }` is exactly
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

/// One transfer node the sharder inserted on a cross-device edge.
#[derive(Debug, Clone)]
pub(crate) struct ShardTransfer {
    /// The transfer node in the sharded graph.
    pub node: NodeId,
    /// Index into [`Topology::links`] of the link it travels.
    pub link: usize,
    /// Producer's device.
    pub src: usize,
    /// Consumer's device.
    pub dst: usize,
    /// Bytes moved across the link.
    pub bytes: f64,
}

/// The result of sharding a graph: the rewritten graph plus the
/// bookkeeping to map results back to the original addressing (the
/// placement analogue of [`crate::fuse::FusionPlan`]).
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// The sharded graph, with transfer nodes inserted before their
    /// consumers.
    pub graph: TaskGraph,
    /// Device of every sharded-graph node (transfer nodes live on their
    /// destination device; their launch is charged to the link).
    device_of: Vec<usize>,
    /// For every sharded-graph node, the original node it came from
    /// (`None` for inserted transfer nodes).
    origin: Vec<Option<usize>>,
    /// Per original node, per parameter: where that parameter's buffer
    /// lives in the sharded graph (always `Some` — sharding never drops
    /// a node).
    param_map: Vec<Vec<Option<(usize, usize)>>>,
    /// Every inserted transfer, in insertion order.
    pub transfers: Vec<ShardTransfer>,
}

impl ShardPlan {
    /// Where original `(node, param)` lives in the sharded graph.
    #[must_use]
    pub fn target(&self, node: usize, param: usize) -> Option<(usize, usize)> {
        *self.param_map.get(node)?.get(param)?
    }

    /// Device of sharded-graph node `node`.
    #[must_use]
    pub fn device(&self, node: usize) -> usize {
        self.device_of.get(node).copied().unwrap_or(0)
    }

    /// The original node behind sharded-graph node `node` (`None` for
    /// inserted transfer nodes).
    #[must_use]
    pub fn origin(&self, node: usize) -> Option<usize> {
        self.origin.get(node).copied().flatten()
    }

    /// The transfer riding sharded-graph node `node`, if it is one.
    #[must_use]
    pub fn transfer_of(&self, node: usize) -> Option<&ShardTransfer> {
        self.transfers.iter().find(|t| t.node.index() == node)
    }
}

/// Bytes of one node's parameter buffers — the placement load metric.
fn node_bytes(graph: &TaskGraph, node: usize) -> f64 {
    graph.nodes()[node]
        .program
        .args
        .iter()
        .map(|a| comm::tensor_bytes(a.rows, a.cols))
        .sum()
}

/// Assign every original node a device: roots round-robin, everything
/// else follows its heaviest input (ties: least-loaded, then lowest
/// device id). Deterministic in node-id order.
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
            (0..devices)
                .max_by(|&a, &b| {
                    in_bytes[a]
                        .total_cmp(&in_bytes[b])
                        .then(load[b].total_cmp(&load[a]))
                        .then(b.cmp(&a))
                })
                .unwrap_or(0)
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

/// Re-place `moved` — incomplete nodes stranded on a lost device — onto
/// the `survivors`, mirroring [`place`]'s heaviest-input heuristic
/// against the *current* assignment in `device_of` (which the fault
/// layer rewrites in place). Nodes are re-placed in id order: each
/// follows the survivor holding the most of its producer bytes, ties
/// broken toward the least-loaded survivor, then the lowest device id;
/// nodes with no surviving-producer bytes go to the least-loaded
/// survivor. `devices` is the topology's device count (dead ones
/// included), so load is tracked per physical device. Returns the moved
/// nodes' names in re-plan order. Deterministic: same inputs, same
/// placement.
pub(crate) fn replan(
    graph: &TaskGraph,
    device_of: &mut [usize],
    moved: &[usize],
    survivors: &[usize],
    devices: usize,
) -> Vec<String> {
    let mut load = vec![0.0f64; devices];
    for i in 0..graph.len() {
        if let Some(&d) = device_of.get(i) {
            if let Some(slot) = load.get_mut(d) {
                *slot += node_bytes(graph, i);
            }
        }
    }
    let mut names = Vec::with_capacity(moved.len());
    for &i in moved {
        let node = &graph.nodes()[i];
        let mut in_bytes = vec![0.0f64; devices];
        let mut has_edge = false;
        for b in &node.bindings {
            if let Binding::Output { node: src, param } = b {
                let sdev = device_of[src.index()];
                if survivors.contains(&sdev) {
                    has_edge = true;
                    let arg = &graph.nodes()[src.index()].program.args[*param];
                    in_bytes[sdev] += comm::tensor_bytes(arg.rows, arg.cols);
                }
            }
        }
        let dev = if has_edge {
            survivors
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    in_bytes[a]
                        .total_cmp(&in_bytes[b])
                        .then(load[b].total_cmp(&load[a]))
                        .then(b.cmp(&a))
                })
                .unwrap_or(0)
        } else {
            survivors
                .iter()
                .copied()
                .max_by(|&a, &b| load[b].total_cmp(&load[a]).then(b.cmp(&a)))
                .unwrap_or(0)
        };
        device_of[i] = dev;
        load[dev] += node_bytes(graph, i);
        names.push(node.name.clone());
    }
    names
}

/// Shard `graph` across the devices of `topology`: place every node,
/// then rebuild the graph with an explicit transfer node on every
/// cross-device tensor-buffer edge (one per distinct
/// `(producer, param, destination device)` — a buffer consumed twice on
/// the same remote device crosses the link once). Original nodes share
/// their [`Program`] with `graph`'s; transfers of one tensor shape share
/// one transfer program.
///
/// # Errors
///
/// Returns [`RuntimeError::BadTopology`] when the topology fails its
/// own validation or lacks a link between two devices an edge connects,
/// and propagates compile/graph errors from building the transfer
/// programs.
pub(crate) fn plan(graph: &TaskGraph, topology: &Topology) -> Result<ShardPlan, RuntimeError> {
    topology
        .validate()
        .map_err(|what| RuntimeError::BadTopology { what })?;
    let devices = topology.device_count();
    let device = place(graph, devices);

    let mut sharded = TaskGraph::new();
    let mut device_of = Vec::new();
    let mut origin = Vec::new();
    let mut param_map: Vec<Vec<Option<(usize, usize)>>> = Vec::with_capacity(graph.len());
    let mut transfers = Vec::new();
    let mut new_id: Vec<NodeId> = Vec::with_capacity(graph.len());
    // (producer, param, destination device) -> inserted transfer node.
    let mut xfer_cache: HashMap<(usize, usize, usize), NodeId> = HashMap::new();
    // (rows, cols) -> the transfer program of that shape: every transfer
    // of one shape launches a handle to the same program (a validated
    // topology is homogeneous, so the destination does not enter).
    let mut xfer_programs: HashMap<(usize, usize), Program> = HashMap::new();

    for (i, node) in graph.nodes().iter().enumerate() {
        let dev = device[i];
        let mut bindings = Vec::with_capacity(node.bindings.len());
        for b in &node.bindings {
            let Binding::Output { node: src, param } = b else {
                bindings.push(b.clone());
                continue;
            };
            let (src_idx, param) = (src.index(), *param);
            let sdev = device[src_idx];
            if sdev == dev {
                bindings.push(Binding::output(new_id[src_idx], param));
                continue;
            }
            let xfer = match xfer_cache.get(&(src_idx, param, dev)) {
                Some(&id) => id,
                None => {
                    let producer = &graph.nodes()[src_idx];
                    let arg = &producer.program.args[param];
                    let link = topology.link_between(sdev, dev).ok_or_else(|| {
                        RuntimeError::BadTopology {
                            what: format!(
                                "edge `{}`.{param} -> `{}` needs a link between device {sdev} \
                                 and device {dev}, but the topology has none",
                                producer.name, node.name
                            ),
                        }
                    })?;
                    let program = match xfer_programs.entry((arg.rows, arg.cols)) {
                        Entry::Occupied(built) => built.get().clone(),
                        Entry::Vacant(slot) => {
                            let shape = Shape::of(&[arg.rows, arg.cols]);
                            let space = Arc::new(comm::TransferSpace);
                            slot.insert(Program::fitted(space, shape, topology.machine())?)
                                .clone()
                        }
                    };
                    let id = sharded.add_node(
                        &format!("xfer:{}.{param}->d{dev}", producer.name),
                        program,
                        vec![Binding::Zeros, Binding::output(new_id[src_idx], param)],
                    )?;
                    device_of.push(dev);
                    origin.push(None);
                    transfers.push(ShardTransfer {
                        node: id,
                        link,
                        src: sdev,
                        dst: dev,
                        bytes: comm::tensor_bytes(arg.rows, arg.cols),
                    });
                    xfer_cache.insert((src_idx, param, dev), id);
                    id
                }
            };
            bindings.push(Binding::output(xfer, 0));
        }
        let id = sharded.add_node(&node.name, node.program.clone(), bindings)?;
        if node.retain {
            sharded.retain(id)?;
        }
        device_of.push(dev);
        origin.push(Some(i));
        param_map.push(
            (0..node.program.args.len())
                .map(|p| Some((id.index(), p)))
                .collect(),
        );
        new_id.push(id);
    }

    Ok(ShardPlan {
        graph: sharded,
        device_of,
        origin,
        param_map,
        transfers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(plan.graph.len(), 4);
        assert_eq!(
            (0..4).map(|i| plan.device(i)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
        for i in 0..4 {
            assert_eq!(plan.origin(i), Some(i));
            assert_eq!(plan.target(i, 0), Some((i, 0)));
        }
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
        assert_eq!(plan.device(0), 0);
        assert_eq!(plan.device(1), 0);
    }

    #[test]
    fn cross_device_edges_get_transfer_nodes() {
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
        let plan = plan(&g, &Topology::nvlink(&machine, 2)).unwrap();
        assert_eq!(plan.graph.len(), 4, "one transfer node inserted");
        assert_eq!(plan.transfers.len(), 1);
        let t = &plan.transfers[0];
        assert_eq!((t.src, t.dst), (1, 0), "b's buffer moves to c's device");
        assert_eq!(t.bytes, comm::tensor_bytes(64, 64));
        let xfer = &plan.graph.nodes()[t.node.index()];
        assert_eq!(xfer.name, "xfer:b.0->d0");
        assert_eq!(plan.origin(t.node.index()), None);
        assert_eq!(plan.device(t.node.index()), 0);
        assert!(plan.transfer_of(t.node.index()).is_some());
        // Originals survive with full re-addressing.
        for (orig, n) in [(0usize, "a"), (1, "b"), (2, "c")] {
            let (idx, _) = plan.target(orig, 0).unwrap();
            assert_eq!(plan.graph.nodes()[idx].name, n);
        }
    }

    #[test]
    fn rebuilt_nodes_share_programs_and_transfers_share_per_shape() {
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
        assert!(
            plan.transfers.len() >= 2,
            "{} transfers",
            plan.transfers.len()
        );
        for (i, node) in plan.graph.nodes().iter().enumerate() {
            match plan.origin(i) {
                Some(orig) => assert!(
                    node.program.shares_parts_with(&g.nodes()[orig].program),
                    "`{}` was copied, not shared",
                    node.name
                ),
                None => assert!(
                    node.program.shares_parts_with(
                        &plan.graph.nodes()[plan.transfers[0].node.index()].program
                    ),
                    "`{}` built its own 64x64 transfer program",
                    node.name
                ),
            }
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
        assert_eq!(plan.graph.len(), 5);
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
        assert_eq!(plan.graph.len(), g.len());
        assert!((0..g.len()).all(|i| plan.device(i) == 0));
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
