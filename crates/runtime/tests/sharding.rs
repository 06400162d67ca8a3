//! Multi-device sharded execution on fixed graphs.
//!
//! The standing invariant of [`cypress_runtime::PlacementPolicy`] —
//! tensors bitwise identical across placement policies and device
//! counts, `Sharded { devices: 1 }` exactly `SingleDevice` — is a
//! property of `policy_product.rs`, over random DAGs and every other
//! policy axis, and `schedule_golden.rs` pins sharded timelines bit for
//! bit. The tests here pin down the observability surface
//! (device-qualified reports, Chrome traces, comm counters), that a
//! transfer is a link launch and no kernel work, a transfer of a shape
//! no hand-tuned tile anticipated, and the whole point of the exercise:
//! two devices beat one on fan-out work.

mod common;

use common::{diamond, gemm_fanout, gemm_node, graph_inputs, D};
use cypress_core::kernels::{attention, gemm};
use cypress_core::Shape;
use cypress_runtime::telemetry::{Event, TraceLog, TraceSink};
use cypress_runtime::{
    Binding, MappingPolicy, PlacementPolicy, Program, RuntimeError, SchedulePolicy, Session,
    TaskGraph,
};
use cypress_sim::MachineConfig;
use std::sync::Arc;

/// On the diamond the sharded timeline carries the transfer node — on
/// its destination device — the comm counters count it, and the
/// telemetry stream names every placement decision.
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
    assert_eq!(
        assigned.len(),
        4,
        "one assignment per launch, the transfer included"
    );
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

/// A sharded launch does no kernel work its single-device twin skips: a
/// cross-device edge is a link launch, so on a cold session the kernel
/// cache, the tuner and the functional data path see the same work on
/// two devices as on one, and the transfer span reads as the untuned
/// link it is.
#[test]
fn transfers_compile_tune_and_run_no_kernel() {
    let machine = MachineConfig::test_gpu();
    let shape = Shape::of(&[D, D, D]);
    let program = Program::from_space(Arc::new(gemm::GemmSpace), shape, &machine).unwrap();
    let mut graph = TaskGraph::new();
    let roots = ["a", "b"].map(|name| {
        let [x, y] = [format!("{name}A"), format!("{name}B")].map(Binding::External);
        gemm_node(&mut graph, name, &program, x, y)
    });
    let [x, y] = roots.map(|root| Binding::output(root, 0));
    gemm_node(&mut graph, "c", &program, x, y);
    let inputs = graph_inputs(&graph, 5);
    for mapping in [MappingPolicy::Default, MappingPolicy::Autotune] {
        let work = |placement| {
            let mut session = Session::new(machine.clone())
                .with_mapping_policy(mapping)
                .with_placement_policy(placement);
            let run = session.launch_functional(&graph, &inputs).unwrap();
            let m = session.metrics();
            let counts = [m.cache.misses, m.tuner.sweeps, m.tuner.candidates_timed];
            (run, counts)
        };
        let (single, single_counts) = work(PlacementPolicy::SingleDevice);
        let (sharded, sharded_counts) = work(PlacementPolicy::Sharded { devices: 2 });
        assert_eq!(sharded_counts, single_counts, "{mapping:?}");
        assert_eq!(sharded.apply_bytes, single.apply_bytes, "{mapping:?}");
        let xfers: Vec<_> = sharded
            .report
            .nodes
            .iter()
            .filter(|n| n.node.starts_with("xfer:"))
            .collect();
        assert_eq!(xfers.len(), 1, "{mapping:?}");
        for xfer in xfers {
            assert_eq!(xfer.mapping, "default", "{mapping:?}");
            assert_eq!(xfer.tuned_speedup, 1.0, "{mapping:?}");
        }
    }
}

/// An attention output is `[seq, 128]`, a column count the H100's
/// hand-tuned tiles (`V = 256`) do not divide; a link moves it all the
/// same. The heavier weight operand pins the projection to device 0, so
/// the attention output (device 1) is the edge that crosses — and the
/// run stays bitwise identical to one device.
#[test]
fn attention_output_crosses_a_device_boundary() {
    let machine = MachineConfig::h100_sxm5();
    let (seq, d, n) = (256, 128, 512);
    let gemm_at = |m, n, k| Program::from_parts(gemm::build(m, n, k, &machine).unwrap(), "gemm");
    let fa = attention::build(attention::Algorithm::Fa2, 1, seq, d, &machine).unwrap();
    let mut graph = TaskGraph::new();
    let [wa, wb] = ["wA", "wB"].map(Binding::external);
    let weights = gemm_node(&mut graph, "weights", &gemm_at(d, n, 64), wa, wb);
    let mut qkv = vec![Binding::Zeros];
    qkv.extend(["Q", "K", "V"].map(Binding::external));
    let attn = graph
        .add_node("attention", Program::from_parts(fa, "fa"), qkv)
        .unwrap();
    let [x, w] = [attn, weights].map(|src| Binding::output(src, 0));
    let proj = gemm_node(&mut graph, "projection", &gemm_at(seq, n, d), x, w);
    let ins = graph_inputs(&graph, 77);

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
    let graph = gemm_fanout(&machine, 256);
    let mut session = Session::new(machine).with_policy(SchedulePolicy::Concurrent { streams: 8 });
    let single = session.launch_timing(&graph).unwrap();
    session = session.with_placement_policy(PlacementPolicy::Sharded { devices: 2 });
    let sharded = session.launch_timing(&graph).unwrap();
    assert_eq!(sharded.devices, 2);
    assert!(
        sharded.makespan < single.makespan,
        "2-device makespan {} must beat 1-device {}",
        sharded.makespan,
        single.makespan
    );
}

/// A sharded launch places over at most 16 devices: past the bound every
/// launch path fails with a typed error before it builds the all-pairs
/// mesh (which at `usize::MAX` devices no memory holds), and at the
/// bound a launch still runs.
#[test]
fn device_count_past_the_bound_is_a_typed_error() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = diamond(&machine);
    let inputs = graph_inputs(&graph, 7);
    let on = |devices| {
        Session::new(machine.clone()).with_placement_policy(PlacementPolicy::Sharded { devices })
    };
    for devices in [17, 100_000, usize::MAX] {
        let mut session = on(devices);
        let errors = [
            session.launch_timing(&graph).err(),
            session.launch_functional(&graph, &inputs).err(),
            session.compile_graph(&graph).err(),
        ];
        for err in errors {
            assert!(
                matches!(err, Some(RuntimeError::BadTopology { .. })),
                "{devices} devices: {err:?}"
            );
        }
    }
    assert_eq!(on(16).launch_timing(&graph).unwrap().devices, 16);
}
