//! Tensor-parallel transformer MLP layer sharded across two simulated
//! devices: the up-projection is column-split (`H0 = X·W0`,
//! `H1 = X·W1`), each half feeds its own down-projection
//! (`P0 = H0·V0`, `P1 = H1·V1`), and an explicit all-reduce
//! communication kernel (`cypress::core::kernels::comm`) sums the
//! partial outputs — the classic Megatron-style split where the only
//! cross-device traffic is the final reduction.
//!
//! Under `PlacementPolicy::Sharded { devices: 2 }` the graph sharder
//! round-robins the two column halves onto different devices, keeps
//! each down-projection co-located with its producer, and launches one
//! `xfer:` transfer on the link for the partial that must cross into the
//! all-reduce — a link launch priced by the link model, with no copy
//! kernel. Functional results are bitwise identical to the single-device
//! run — placement only moves work, never changes arithmetic.
//!
//! The 2-device concurrent timeline is exported as Chrome-trace JSON
//! with device-banded lanes (`tid = device * streams + stream`) — load
//! it at <https://ui.perfetto.dev> to see both devices.
//!
//! Run with `cargo run --release --example multi_gpu [trace.json]`
//! (the trace defaults to `target/multi_gpu_trace.json`).

use cypress::core::kernels::{comm, gemm};
use cypress::runtime::telemetry::TraceLog;
use cypress::runtime::{
    Binding, PlacementPolicy, Program, SchedulePolicy, Session, TaskGraph, TraceSink,
};
use cypress::sim::MachineConfig;
use cypress::tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::test_gpu();
    let d = 64usize;

    let gemm_p = Program::from_parts(gemm::build(d, d, d, &machine)?, "gemm");
    let allred_p = Program::from_parts(comm::build_all_reduce(2, d, d, &machine)?, "allred");

    // --- The layer: two column-parallel branches + one all-reduce ------
    let mut graph = TaskGraph::new();
    let mut downs = Vec::new();
    for half in 0..2 {
        let up = graph.add_node(
            &format!("up{half}"),
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::External(format!("W{half}")),
            ],
        )?;
        downs.push(graph.add_node(
            &format!("down{half}"),
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::output(up, 0),
                Binding::External(format!("V{half}")),
            ],
        )?);
    }
    let sum = graph.add_node(
        "allreduce",
        allred_p,
        vec![
            Binding::Zeros,
            Binding::output(downs[0], 0),
            Binding::output(downs[1], 0),
        ],
    )?;

    // --- Inputs --------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(9);
    let mut t = |s: f32| Tensor::random(DType::F16, &[d, d], &mut rng, -s, s);
    let mut inputs = HashMap::from([("X".to_string(), t(0.5))]);
    for half in 0..2 {
        inputs.insert(format!("W{half}"), t(0.5));
        inputs.insert(format!("V{half}"), t(0.5));
    }

    // --- Single-device baseline ----------------------------------------
    let mut single = Session::new(machine.clone());
    let base = single.launch_functional(&graph, &inputs)?;
    let y_base = base.tensor(sum, 0).expect("layer output kept");

    // --- 2-way shard: same bits, two devices ---------------------------
    let log = TraceLog::new();
    let mut session = Session::new(machine.clone())
        .with_recorder(log.clone())
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let run = session.launch_functional(&graph, &inputs)?;
    let y_sharded = run.tensor(sum, 0).expect("layer output kept");
    assert_eq!(
        y_base.data(),
        y_sharded.data(),
        "sharded layer must be bit-identical to the single-device run"
    );
    println!("2-way shard: output bit-identical to single device");

    // --- The sharded timeline: both devices + the explicit transfer ----
    let report = session.launch_timing(&graph)?;
    assert_eq!(report.devices, 2, "shard must report both devices");
    let xfers = report
        .nodes
        .iter()
        .filter(|n| n.node.starts_with("xfer:"))
        .count();
    assert_eq!(xfers, 1, "one partial crosses the link into the all-reduce");
    println!(
        "sharded timeline (2 devices x {} streams):\n{}",
        report.streams,
        report.breakdown()
    );

    // --- Chrome-trace export with device-banded lanes ------------------
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/multi_gpu_trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json = TraceSink::chrome_json(&report);
    std::fs::write(&out, &json)?;
    let trace = TraceSink::parse_chrome_json(&json)?;
    assert_eq!(trace.devices, Some(report.devices));
    assert_eq!(trace.streams, Some(report.streams));
    assert_eq!(trace.spans.len(), report.nodes.len());
    for span in &trace.spans {
        let node = report
            .timeline(&span.name)
            .expect("span names a report node");
        assert_eq!(
            span.tid,
            node.device * report.streams + node.stream,
            "{}: lane mismatch",
            span.name
        );
    }
    assert!(
        trace.spans.iter().any(|s| s.tid >= report.streams),
        "some span must land on the second device's lane band"
    );
    println!(
        "chrome trace: {out} ({} spans on 2 device bands — open at \
         https://ui.perfetto.dev)",
        trace.spans.len()
    );

    // --- Metrics: the comm counters ------------------------------------
    let m = session.metrics();
    assert_eq!(
        m.comm_launches, 2,
        "one transfer per launch (func + timing)"
    );
    assert_eq!(
        m.link_bytes,
        2 * comm::tensor_bytes(d, d) as u64,
        "each launch moves one d x d fp16 partial across the link"
    );
    println!("\nsession metrics:\n{m}");
    println!(
        "recorded {} events (shard assignments + link transfers included)",
        log.len()
    );
    Ok(())
}
