//! Differential tests of multi-device sharded execution.
//!
//! The standing invariant of [`cypress_runtime::PlacementPolicy`]:
//! tensors are **bitwise identical** across placement policies and
//! device counts, for every schedule policy and host worker count — and
//! `Sharded { devices: 1 }` reproduces `SingleDevice` exactly, timeline
//! included. Random DAGs over the paper kernels exercise the sharder's
//! placement, transfer insertion, and result re-addressing; the
//! deterministic tests below pin down the observability surface
//! (device-qualified reports, Chrome traces, comm counters) and the
//! whole point of the exercise: two devices beat one on fan-out work.

use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::{MappingConfig, MappingSpace, Shape};
use cypress_runtime::telemetry::{Event, TraceLog, TraceSink};
use cypress_runtime::{
    Binding, FusionPolicy, NodeId, PlacementPolicy, Program, SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::MachineConfig;
use cypress_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Uniform problem size: every consumable tensor is `D x D`, so any
/// node's primary output can feed any compatible input slot.
const D: usize = 64;

/// One of the five paper kernels at the uniform size.
fn paper_program(kind: usize, machine: &MachineConfig) -> Program {
    match kind % 5 {
        0 => Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm"),
        1 => Program::from_parts(batched::build(1, D, D, D, machine).unwrap(), "bgemm"),
        2 => Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual"),
        3 => Program::from_parts(gemm_reduction::build(D, D, D, machine).unwrap(), "gr"),
        _ => Program::from_parts(
            attention::AttentionSpace {
                algorithm: attention::Algorithm::Fa2,
            }
            .build(
                &Shape::of(&[1, D, D]),
                &MappingConfig::Attention(attention::AttentionConfig {
                    br: 64,
                    bc: 64,
                    wgs: 1,
                    pipeline: 1,
                }),
            )
            .expect("64-row attention is well-formed"),
            "fa",
        ),
    }
}

/// A random DAG over the paper kernels (same construction as
/// `property_graph.rs`): random fan-out/fan-in plus random retain flags.
fn random_graph(
    seed: u64,
    max_nodes: usize,
    machine: &MachineConfig,
) -> (TaskGraph, Vec<NodeId>, Vec<Program>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..max_nodes.max(2) + 1);
    let mut graph = TaskGraph::new();
    let mut ids: Vec<NodeId> = Vec::new();
    let mut programs: Vec<Program> = Vec::new();
    for i in 0..n {
        let prog = paper_program(rng.gen_range(0usize..5), machine);
        let outputs = prog.output_indices();
        let mut bindings = Vec::with_capacity(prog.args.len());
        for (pi, arg) in prog.args.iter().enumerate() {
            if outputs.contains(&pi) {
                bindings.push(Binding::Zeros);
                continue;
            }
            let candidates: Vec<usize> = (0..i)
                .filter(|&j| {
                    let src = &programs[j].args[0];
                    (src.rows, src.cols, src.dtype) == (arg.rows, arg.cols, arg.dtype)
                })
                .collect();
            if !candidates.is_empty() && rng.gen_range(0u32..100) < 60 {
                let j = candidates[rng.gen_range(0..candidates.len())];
                bindings.push(Binding::output(ids[j], 0));
            } else {
                bindings.push(Binding::External(format!("x{i}_{pi}")));
            }
        }
        let id = graph
            .add_node(&format!("n{i}"), prog.clone(), bindings)
            .expect("generated bindings are compatible by construction");
        if rng.gen_range(0u32..2) == 0 {
            graph.retain(id).unwrap();
        }
        ids.push(id);
        programs.push(prog);
    }
    (graph, ids, programs)
}

/// Random external inputs matching every `External` binding's parameter.
fn random_inputs(graph: &TaskGraph, seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
    let mut inputs = HashMap::new();
    for node in graph.nodes() {
        for (pi, binding) in node.bindings.iter().enumerate() {
            if let Binding::External(name) = binding {
                let arg = &node.program.args[pi];
                inputs.insert(
                    name.clone(),
                    Tensor::random(arg.dtype, &[arg.rows, arg.cols], &mut rng, -0.5, 0.5),
                );
            }
        }
    }
    inputs
}

/// Assert two runs retained bitwise-identical tensor sets for the
/// original graph's every `(node, param)`; returns how many tensors
/// were compared.
fn assert_runs_match(
    a: &cypress_runtime::GraphRun,
    b: &cypress_runtime::GraphRun,
    ids: &[NodeId],
    programs: &[Program],
    label: &str,
) -> usize {
    let mut compared = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        for pi in 0..programs[i].args.len() {
            match (a.tensor(id, pi), b.tensor(id, pi)) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.data(), y.data(), "node {i} param {pi} diverged ({label})");
                    compared += 1;
                }
                (None, None) => {}
                _ => panic!("retained tensor sets differ ({label})"),
            }
        }
    }
    compared
}

proptest! {
    /// Sharding is functionally invisible: random DAGs launched under
    /// `Sharded {1, 2, 4}` produce tensors bitwise identical to the
    /// `SingleDevice` run, across schedule policies and host worker
    /// counts.
    #[test]
    fn sharded_tensors_match_single_device(seed in 0u64..1_000_000) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 4, &machine);
        let inputs = random_inputs(&graph, seed);
        let mut session = Session::new(machine.clone());
        let baseline = session.launch_functional(&graph, &inputs).unwrap();
        for devices in [1usize, 2, 4] {
            for policy in [SchedulePolicy::Serial, SchedulePolicy::Concurrent { streams: 8 }] {
                for parallelism in [1usize, 8] {
                    session.set_placement_policy(PlacementPolicy::Sharded { devices });
                    session.set_policy(policy);
                    session.set_parallelism(parallelism);
                    let sharded = session.launch_functional(&graph, &inputs).unwrap();
                    let label = format!(
                        "seed {seed}, devices {devices}, policy {policy:?}, parallelism {parallelism}"
                    );
                    let compared =
                        assert_runs_match(&baseline, &sharded, &ids, &programs, &label);
                    prop_assert!(compared > 0, "every graph retains at least its sinks");
                }
            }
        }
    }

    /// `Sharded { devices: 1 }` *is* `SingleDevice`: the timing report —
    /// makespan, critical path, every node's `(device, stream, start,
    /// end)` — matches bit for bit at every stream count.
    #[test]
    fn one_device_sharded_matches_single_device_timing(
        seed in 0u64..1_000_000,
        streams in 1usize..5,
    ) {
        let machine = MachineConfig::test_gpu();
        let (graph, _, _) = random_graph(seed, 5, &machine);
        let mut session =
            Session::new(machine.clone()).with_policy(SchedulePolicy::Concurrent { streams });
        let single = session.launch_timing(&graph).unwrap();
        session.set_placement_policy(PlacementPolicy::Sharded { devices: 1 });
        let sharded = session.launch_timing(&graph).unwrap();
        prop_assert_eq!(single.makespan.to_bits(), sharded.makespan.to_bits());
        prop_assert_eq!(single.critical_path.to_bits(), sharded.critical_path.to_bits());
        prop_assert_eq!(single.streams, sharded.streams);
        prop_assert_eq!(single.devices, sharded.devices);
        prop_assert_eq!(single.nodes.len(), sharded.nodes.len());
        for (a, b) in single.nodes.iter().zip(sharded.nodes.iter()) {
            prop_assert_eq!(&a.node, &b.node);
            prop_assert_eq!(a.device, b.device);
            prop_assert_eq!(a.stream, b.stream);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
        }
    }

    /// Sharding composes with fusion: `FusionPolicy::Auto` under
    /// `Sharded { devices: 2 }` matches the fusion-only single-device
    /// run bit for bit — same retained tensor set (fusion may
    /// internalize intermediates; sharding must not change which), same
    /// bytes.
    #[test]
    fn sharding_composes_with_fusion(seed in 0u64..1_000_000) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 4, &machine);
        let inputs = random_inputs(&graph, seed);
        let mut session = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
        let fused_only = session.launch_functional(&graph, &inputs).unwrap();
        session.set_placement_policy(PlacementPolicy::Sharded { devices: 2 });
        session.set_policy(SchedulePolicy::Concurrent { streams: 4 });
        let both = session.launch_functional(&graph, &inputs).unwrap();
        let label = format!("seed {seed}, fusion+sharding");
        assert_runs_match(&fused_only, &both, &ids, &programs, &label);
    }
}

/// Two roots land on two devices; their consumer forces one buffer
/// across the link as an explicit transfer node that shows up in the
/// report with its destination device and in the comm counters.
fn diamond(machine: &MachineConfig) -> (TaskGraph, NodeId) {
    let program = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let a = graph
        .add_node(
            "a",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("aA"),
                Binding::external("aB"),
            ],
        )
        .unwrap();
    let b = graph
        .add_node(
            "b",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("bA"),
                Binding::external("bB"),
            ],
        )
        .unwrap();
    let c = graph
        .add_node(
            "c",
            program,
            vec![Binding::Zeros, Binding::output(a, 0), Binding::output(b, 0)],
        )
        .unwrap();
    (graph, c)
}

/// The sharded timeline carries the transfer node, the comm counters
/// count it, and the telemetry stream names every placement decision.
#[test]
fn transfers_hit_the_report_counters_and_events() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = diamond(&machine);
    let log = TraceLog::new();
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 })
        .with_recorder(log.clone());
    let report = session.launch_timing(&graph).unwrap();

    assert_eq!(report.devices, 2);
    assert_eq!(report.nodes.len(), 4, "three originals plus one transfer");
    let xfer = report
        .nodes
        .iter()
        .find(|n| n.node.starts_with("xfer:"))
        .expect("the cross-device edge becomes a transfer node");
    assert_eq!(xfer.device, 0, "transfers run on their destination device");
    assert!(report.nodes.iter().any(|n| n.device == 1));
    assert!(
        report.breakdown().contains(&format!("d{}/s", xfer.device)),
        "breakdown labels are device-qualified:\n{}",
        report.breakdown()
    );
    let csv = report.breakdown_csv();
    assert!(
        csv.starts_with("node,device,stream,"),
        "CSV carries the device column: {csv}"
    );

    let m = session.metrics();
    assert_eq!(m.comm_launches, 1, "{m}");
    assert_eq!(m.link_bytes, (D * D * 2) as u64, "{m}");
    let rendered = m.to_string();
    assert!(rendered.contains("comm    launches 1"), "{rendered}");

    let events = log.events();
    let assigned: Vec<(String, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ShardAssigned { node, device } => Some((node.clone(), *device)),
            _ => None,
        })
        .collect();
    assert_eq!(assigned.len(), 4, "one assignment per sharded-graph node");
    assert!(assigned.iter().any(|(n, d)| n == "a" && *d == 0));
    assert!(assigned.iter().any(|(n, d)| n == "b" && *d == 1));
    let transfers: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::LinkTransfer { .. }))
        .collect();
    match transfers.as_slice() {
        [Event::LinkTransfer {
            src, dst, bytes, ..
        }] => {
            assert_eq!((*src, *dst), (1, 0));
            assert_eq!(*bytes, (D * D * 2) as f64);
        }
        other => panic!("expected exactly one LinkTransfer, got {other:?}"),
    }
}

/// An attention output is `[seq, 128]`, and the H100's hand-tuned copy
/// tile (`V = 256`) does not divide 128 columns: the sharder moves it
/// with the first mapping the transfer space enumerates for the shape
/// instead of failing the launch. The heavier weight operand pins the
/// projection to device 0, so the attention output (device 1) is the
/// edge that crosses — and the run stays bitwise identical to one
/// device.
#[test]
fn attention_output_crosses_a_device_boundary() {
    let machine = MachineConfig::h100_sxm5();
    let (seq, d, n) = (256, 128, 512);
    let mut graph = TaskGraph::new();
    let weights = graph
        .add_node(
            "weights",
            Program::from_parts(gemm::build(d, n, 64, &machine).unwrap(), "gemm"),
            vec![
                Binding::Zeros,
                Binding::external("wA"),
                Binding::external("wB"),
            ],
        )
        .unwrap();
    let attn = graph
        .add_node(
            "attention",
            Program::from_parts(
                attention::build(attention::Algorithm::Fa2, 1, seq, d, &machine).unwrap(),
                "fa",
            ),
            vec![
                Binding::Zeros,
                Binding::external("Q"),
                Binding::external("K"),
                Binding::external("V"),
            ],
        )
        .unwrap();
    let proj = graph
        .add_node(
            "projection",
            Program::from_parts(gemm::build(seq, n, d, &machine).unwrap(), "gemm"),
            vec![
                Binding::Zeros,
                Binding::output(attn, 0),
                Binding::output(weights, 0),
            ],
        )
        .unwrap();
    let ins = random_inputs(&graph, 77);

    let single = Session::new(machine.clone())
        .launch_functional(&graph, &ins)
        .unwrap();
    let mut session =
        Session::new(machine).with_placement_policy(PlacementPolicy::Sharded { devices: 2 });
    let sharded = session.launch_functional(&graph, &ins).unwrap();

    assert_eq!(
        single.tensor(proj, 0).unwrap().data(),
        sharded.tensor(proj, 0).unwrap().data(),
        "the sharded projection diverged from the single-device run"
    );
    let xfers: Vec<&str> = sharded
        .report
        .nodes
        .iter()
        .filter(|n| n.node.starts_with("xfer:"))
        .map(|n| n.node.as_str())
        .collect();
    assert_eq!(
        xfers,
        ["xfer:attention.0->d0"],
        "{}",
        sharded.report.breakdown()
    );
    assert_eq!(session.metrics().link_bytes, (seq * d * 2) as u64);
}

/// The Chrome trace declares the device count and packs each device's
/// streams into a contiguous `tid` band.
#[test]
fn chrome_trace_is_device_qualified() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = diamond(&machine);
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let report = session.launch_timing(&graph).unwrap();
    let json = TraceSink::chrome_json(&report);
    let trace = TraceSink::parse_chrome_json(&json).unwrap();
    assert_eq!(trace.devices, Some(2));
    assert_eq!(trace.streams, Some(2));
    assert_eq!(trace.spans.len(), report.nodes.len());
    for span in &trace.spans {
        let node = report
            .nodes
            .iter()
            .find(|n| n.node == span.name)
            .expect("span maps to a report node");
        assert_eq!(span.tid, node.device * report.streams + node.stream);
    }
    assert!(
        trace.spans.iter().any(|s| s.tid >= report.streams),
        "device 1's spans land in the second tid band"
    );
}

/// The acceptance claim: on the 8-wide fan-out graph under concurrent
/// scheduling, two sharded devices strictly beat one device's makespan
/// (and tensors never change).
#[test]
fn two_devices_beat_one_on_fanout() {
    let machine = MachineConfig::test_gpu();
    let size = 256;
    let program = Program::from_parts(gemm::build(size, size, size, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    for i in 0..8 {
        graph
            .add_node(
                &format!("g{i}"),
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::External(format!("A{i}")),
                    Binding::External(format!("B{i}")),
                ],
            )
            .unwrap();
    }
    let mut session = Session::new(machine).with_policy(SchedulePolicy::Concurrent { streams: 8 });
    let single = session.launch_timing(&graph).unwrap();
    session.set_placement_policy(PlacementPolicy::Sharded { devices: 2 });
    let sharded = session.launch_timing(&graph).unwrap();
    assert_eq!(sharded.devices, 2);
    assert!(
        sharded.makespan < single.makespan,
        "2-device makespan {} must beat 1-device {}",
        sharded.makespan,
        single.makespan
    );
}
