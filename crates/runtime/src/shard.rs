//! Graph sharding across the devices of a [`Topology`].
//!
//! Under [`PlacementPolicy::Sharded`] the session partitions a
//! [`crate::TaskGraph`] across `N` simulated devices before launching
//! it: every node is assigned a device, and every tensor-buffer edge
//! that crosses a device boundary becomes a *transfer* — a link launch
//! the scheduler charges to the link connecting the two devices, priced
//! by the link model ([`cypress_sim::Link::transfer_cycles`]), with no
//! copy kernel. Device-loss recovery drains stranded buffers with the
//! same kind of launch.
//!
//! The sharder places *launches*, not graph nodes: the crate-internal
//! `place` takes the timeline `executor::timeline` builds (one device-0
//! launch per node, each reading its producers' launches) and returns it
//! placed, with one transfer per distinct `(producer, param,
//! destination)` numbered just before its first consumer, which then
//! reads the transfer. The graph itself is not rewritten. A functional
//! launch runs it as written, every consumer reading its producer's
//! buffer directly (a copy would be a bitwise identity), so tensors are
//! bitwise identical across placement policies and device counts; only
//! the timeline changes.
//!
//! Placement is deterministic and cheap, in launch order (which is the
//! graph's node-id order — producers have lower ids):
//!
//! - *root* launches (no tensor-buffer inputs) round-robin across
//!   devices, so independent fan-out work spreads immediately;
//! - every other launch follows its *heaviest input*
//!   (`heaviest_input` over `input_bytes`): the device holding the most
//!   producer bytes wins (fewest bytes crossing a link), ties broken
//!   toward the least-loaded device, then the lowest id. Device-loss
//!   recovery re-places stranded launches onto the survivors with the
//!   same two functions.

#![deny(clippy::too_many_lines)]

use crate::error::RuntimeError;
use crate::executor::Launch;
use cypress_sim::{MachineConfig, Topology};
use std::collections::hash_map::{Entry, HashMap};

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
        /// Number of simulated devices (clamped to at least 1). A launch
        /// over more than 16 fails with [`RuntimeError::BadTopology`].
        devices: usize,
    },
}

/// The most devices a sharded launch places over: the mesh is all-pairs
/// and [`Topology::validate`], run on every launch, is quadratic in its
/// links, so its cost grows as `n^4` — 16 devices (120 links) stay
/// cheap, and an unbounded count builds a mesh no memory holds.
const MAX_DEVICES: usize = 16;

impl PlacementPolicy {
    /// The device count this policy schedules over.
    #[must_use]
    pub(crate) fn devices(self) -> usize {
        match self {
            PlacementPolicy::SingleDevice => 1,
            PlacementPolicy::Sharded { devices } => devices.max(1),
        }
    }

    /// The all-pairs NVLink mesh this policy schedules over: at one
    /// device, the single-device topology, which keeps `Sharded {
    /// devices: 1 }` bit-identical to [`PlacementPolicy::SingleDevice`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadTopology`] past 16 devices, before any mesh is
    /// built.
    pub(crate) fn topology(self, machine: &MachineConfig) -> Result<Topology, RuntimeError> {
        match self.devices() {
            n if n > MAX_DEVICES => Err(RuntimeError::BadTopology {
                what: format!(
                    "{n} devices requested, but a launch places over at most {MAX_DEVICES}"
                ),
            }),
            n => Ok(Topology::nvlink(machine, n)),
        }
    }
}

/// Bytes of `launch`'s inputs per device of their producers among
/// `launches` — what [`heaviest_input`] weighs, at initial placement and
/// when a device loss re-places stranded launches.
pub(crate) fn input_bytes(launches: &[Launch], launch: &Launch, devices: usize) -> Vec<f64> {
    let mut in_bytes = vec![0.0f64; devices];
    for edge in &launch.inputs {
        in_bytes[launches[edge.launch].device] += edge.bytes;
    }
    in_bytes
}

/// The device among `candidates` a launch with `in_bytes` of input per
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

/// Place `launches` — one device-0 launch per graph node, in id order,
/// as [`crate::executor::timeline`] builds them — across the devices of
/// `topology`: roots round-robin, everything else follows its heaviest
/// input. Then number one transfer per distinct `(producer, param,
/// destination device)` just before its first consumer, which reads the
/// transfer instead of the remote producer — a buffer consumed twice on
/// the same remote device crosses the link once.
///
/// # Errors
///
/// Returns [`RuntimeError::BadTopology`] when the topology fails its
/// own validation or lacks a link between two devices an edge connects.
pub(crate) fn place(
    mut launches: Vec<Launch>,
    topology: &Topology,
) -> Result<Vec<Launch>, RuntimeError> {
    topology
        .validate()
        .map_err(|what| RuntimeError::BadTopology { what })?;
    let devices = topology.device_count();
    let mut load = vec![0.0f64; devices];
    let mut roots_seen = 0usize;
    for i in 0..launches.len() {
        let dev = if launches[i].inputs.is_empty() {
            let d = roots_seen % devices;
            roots_seen += 1;
            d
        } else {
            let in_bytes = input_bytes(&launches, &launches[i], devices);
            heaviest_input(&in_bytes, &load, 0..devices)
        };
        launches[i].device = dev;
        load[dev] += launches[i].bytes;
    }
    let mut timeline: Vec<Launch> = Vec::with_capacity(launches.len());
    // Node launch -> its timeline id; (producer, param, destination
    // device) -> its transfer's timeline id.
    let mut launch_of: Vec<usize> = Vec::with_capacity(launches.len());
    let mut moved = HashMap::new();
    for mut launch in launches {
        let dst = launch.device;
        for edge in &mut launch.inputs {
            edge.launch = launch_of[edge.launch];
            let producer = &timeline[edge.launch];
            if producer.device == dst {
                continue;
            }
            let key = (edge.launch, edge.param, dst);
            if let Entry::Vacant(slot) = moved.entry(key) {
                if topology.link_between(producer.device, dst).is_none() {
                    let what = format!(
                        "edge `{}`.{} -> `{}` needs a link between device {} and device \
                         {dst}, but the topology has none",
                        producer.name, edge.param, launch.name, producer.device
                    );
                    return Err(RuntimeError::BadTopology { what });
                }
                slot.insert(timeline.len());
                timeline.push(Launch::transfer(producer, *edge, dst, false, topology));
            }
            (edge.launch, edge.param) = (moved[&key], 0);
        }
        launch_of.push(timeline.len());
        timeline.push(launch);
    }
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{timeline, Work};
    use crate::graph::{Binding, NodeId, TaskGraph};
    use crate::program::Program;
    use cypress_core::kernels::{comm, gemm};

    /// A transfer launch of a placed timeline, keyed back to graph nodes.
    #[derive(Debug)]
    struct Moved {
        producer: usize,
        param: usize,
        /// The node launched next: the transfer's first consumer.
        consumer: usize,
        src: usize,
        dst: usize,
        link: usize,
        bytes: f64,
    }

    /// What `graph`'s timeline on `topology` places: every node's
    /// device, and its transfers in timeline order.
    #[derive(Debug)]
    struct Sharded {
        device_of: Vec<usize>,
        transfers: Vec<Moved>,
    }

    fn shard(graph: &TaskGraph, topology: &Topology) -> Result<Sharded, RuntimeError> {
        let timeline = timeline(graph, topology)?;
        let node = |launch: &Launch| match launch.work {
            Work::Node(i) => Some(i),
            Work::Transfer(_) => None,
        };
        let mut sharded = Sharded {
            device_of: Vec::new(),
            transfers: Vec::new(),
        };
        for (id, launch) in timeline.iter().enumerate() {
            let Work::Transfer(t) = &launch.work else {
                sharded.device_of.push(launch.device);
                continue;
            };
            let edge = launch.inputs[0];
            sharded.transfers.push(Moved {
                producer: node(&timeline[edge.launch]).unwrap(),
                param: edge.param,
                consumer: timeline[id..].iter().find_map(node).unwrap(),
                src: timeline[edge.launch].device,
                dst: launch.device,
                link: t.link,
                bytes: edge.bytes,
            });
        }
        Ok(sharded)
    }

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
        let plan = shard(&g, &Topology::nvlink(&machine, 2)).unwrap();
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
        let plan = shard(&g, &Topology::nvlink(&machine, 2)).unwrap();
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
        let plan = shard(&g, &topology).unwrap();
        assert_eq!(plan.device_of, vec![0, 1, 0]);
        assert_eq!(plan.transfers.len(), 1);
        let t = &plan.transfers[0];
        assert_eq!((t.producer, t.param, t.consumer), (1, 0, 2));
        assert_eq!((t.src, t.dst), (1, 0), "b's buffer moves to c's device");
        assert_eq!(Some(t.link), topology.link_between(1, 0));
        assert_eq!(t.bytes, comm::tensor_bytes(64, 64));
    }

    #[test]
    fn an_edge_is_sized_by_its_dtype() {
        use cypress_tensor::DType;
        let machine = MachineConfig::test_gpu();
        let program = |m: usize, f32_param: Option<usize>| {
            let (registry, mapping, mut args) = gemm::build(m, 64, 64, &machine).unwrap();
            if let Some(p) = f32_param {
                args[p].dtype = DType::F32;
            }
            Program::new(registry, mapping, "gemm", args)
        };
        let operands = || {
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ]
        };
        let mut g = TaskGraph::new();
        // a's 64x64 F32 output (16 KiB) is lighter than b's 256x64 F16
        // one (32 KiB), so c follows b and a's buffer crosses the link.
        let a = g.add_node("a", program(64, Some(0)), operands()).unwrap();
        let b = g.add_node("b", program(256, None), operands()).unwrap();
        g.add_node(
            "c",
            program(256, Some(2)),
            vec![Binding::Zeros, Binding::output(b, 0), Binding::output(a, 0)],
        )
        .unwrap();
        let plan = shard(&g, &Topology::nvlink(&machine, 2)).unwrap();
        assert_eq!(plan.device_of, vec![0, 1, 1]);
        assert_eq!(plan.transfers.len(), 1);
        assert_eq!(plan.transfers[0].producer, 0);
        assert_eq!(plan.transfers[0].bytes, (64 * 64 * 4) as f64);
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
        let plan = shard(&g, &Topology::nvlink(&machine, 4)).unwrap();
        let t = &plan.transfers;
        assert!(t.len() >= 2, "{} transfers", t.len());
        assert!(t.windows(2).all(|w| w[0].consumer <= w[1].consumer));
        for (i, x) in t.iter().enumerate() {
            assert_ne!(x.src, x.dst);
            assert_eq!(x.src, plan.device_of[x.producer]);
            assert_eq!(x.dst, plan.device_of[x.consumer]);
            let key = |y: &Moved| (y.producer, y.param, y.dst);
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
        let plan = shard(&g, &Topology::nvlink(&machine, 2)).unwrap();
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
        let plan = shard(&g, &Topology::single(machine)).unwrap();
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.device_of, vec![0, 0]);
    }

    #[test]
    fn invalid_topology_is_a_typed_error() {
        let g = TaskGraph::new();
        let empty = Topology {
            machine: MachineConfig::test_gpu(),
            devices: 0,
            links: Vec::new(),
        };
        let err = shard(&g, &empty).unwrap_err();
        assert!(matches!(err, RuntimeError::BadTopology { .. }), "{err}");
    }

    #[test]
    fn policy_device_counts() {
        assert_eq!(PlacementPolicy::SingleDevice.devices(), 1);
        assert_eq!(PlacementPolicy::Sharded { devices: 4 }.devices(), 4);
        assert_eq!(PlacementPolicy::Sharded { devices: 0 }.devices(), 1);
    }
}
