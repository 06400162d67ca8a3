//! The tensor-parallel transformer MLP from `multi_gpu.rs` surviving
//! faults mid-run: a transient kernel fault on one device and a
//! permanent device loss on the other, both injected from a
//! deterministic [`FaultPlan`](cypress::runtime::FaultPlan).
//!
//! Under `FaultPolicy::Retry` the scheduler re-executes the transient
//! casualty (a `retry:` span marks the failed attempt), evicts the lost
//! device, re-plans its pending work onto the survivor (`reshard:dN`
//! boundary marker), and re-routes any stranded producer buffers with
//! `xfer:recover:` transfers. Because Cypress computes tensors in the
//! functional domain before the timing schedule runs, the recovered
//! output is **bitwise identical** to the fault-free single-device run
//! — faults cost cycles, never bits.
//!
//! The recovered 2-device timeline is exported as Chrome-trace JSON
//! with device-banded lanes; the `retry:`/`reshard:` spans are visible
//! at <https://ui.perfetto.dev> and validated in CI by `check_trace`.
//!
//! Run with `cargo run --release --example fault_recovery [trace.json]`
//! (the trace defaults to `target/fault_recovery_trace.json`).

use cypress::core::kernels::{comm, gemm};
use cypress::runtime::telemetry::TraceLog;
use cypress::runtime::{
    Binding, FaultPlan, FaultPolicy, PlacementPolicy, Program, SchedulePolicy, Session, TaskGraph,
    TraceSink,
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

    // --- Fault-free oracles --------------------------------------------
    let mut single = Session::new(machine.clone());
    let base = single.launch_functional(&graph, &inputs)?;
    let y_base = base.tensor(sum, 0).expect("layer output kept");

    let mut clean_session = Session::new(machine.clone())
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let clean = clean_session.launch_timing(&graph)?;
    println!("clean 2-device makespan: {:.0} cycles", clean.makespan);

    // --- The fault plan, aimed with the clean timeline -----------------
    // Kill the device that owns `down1` while that kernel is in flight
    // (so its work must be re-planned onto the survivor), and hit the
    // survivor's first compute launch with a one-shot transient.
    let down1 = clean.timeline("down1").expect("down1 scheduled");
    let victim = down1.device;
    let survivor = 1 - victim;
    let loss_at = 0.5 * (down1.start + down1.end);
    let plan = FaultPlan::new()
        .with_transient(survivor, 0)
        .with_device_loss(victim, loss_at);

    let log = TraceLog::new();
    let mut session = Session::new(machine.clone())
        .with_recorder(log.clone())
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 })
        .with_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        })
        .with_fault_plan(plan);

    // --- Recovery never changes bits -----------------------------------
    let run = session.launch_functional(&graph, &inputs)?;
    let y_faulted = run.tensor(sum, 0).expect("layer output kept");
    assert_eq!(
        y_base.data(),
        y_faulted.data(),
        "recovered run must be bit-identical to the fault-free baseline"
    );
    println!(
        "device {victim} lost at cycle {loss_at:.0}: output bit-identical to \
         the single-device run"
    );

    // --- The recovered timeline -----------------------------------------
    let report = session.launch_timing(&graph)?;
    let rec = &report.recovery;
    assert_eq!(rec.faults, 2, "one transient + one device loss observed");
    assert!(rec.retries >= 1, "the transient forces a re-execution");
    assert_eq!(rec.evicted_devices, vec![victim], "the victim is evicted");
    assert!(
        !rec.resharded_nodes.is_empty(),
        "in-flight work moves to the survivor"
    );
    assert!(
        rec.overhead_cycles > 0.0,
        "the failed attempts and recovery transfers cost cycles"
    );
    let retries = report
        .nodes
        .iter()
        .filter(|n| n.node.starts_with("retry:"))
        .count();
    assert!(retries >= 1, "failed attempts stay on the timeline");
    assert!(
        report.timeline(&format!("reshard:d{victim}")).is_some(),
        "the eviction leaves a re-shard boundary marker"
    );
    println!(
        "recovered on device {survivor}: {} resharded node(s), {} retry \
         span(s), {:.0} cycles of recovery work, makespan {:.2}x clean",
        rec.resharded_nodes.len(),
        retries,
        rec.overhead_cycles,
        report.makespan / clean.makespan
    );

    // --- Chrome-trace export with the recovery spans --------------------
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/fault_recovery_trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json = TraceSink::chrome_json(&report);
    std::fs::write(&out, &json)?;
    let trace = TraceSink::parse_chrome_json(&json)?;
    assert_eq!(trace.devices, Some(2), "both devices stay in the metadata");
    assert_eq!(trace.spans.len(), report.nodes.len());
    let recovery_spans = trace
        .spans
        .iter()
        .filter(|s| {
            s.name.starts_with("retry:")
                || s.name.starts_with("reshard:")
                || s.name.starts_with("xfer:recover:")
        })
        .count();
    assert!(recovery_spans >= 2, "retry + reshard spans are exported");
    println!(
        "chrome trace: {out} ({} spans, {recovery_spans} recovery — open at \
         https://ui.perfetto.dev)",
        trace.spans.len()
    );

    // --- Metrics: the fault counters ------------------------------------
    let m = session.metrics();
    assert!(m.faults_injected >= 2, "both faults hit the counters");
    assert!(m.devices_evicted >= 1, "the eviction hits the counters");
    println!("\nsession metrics:\n{m}");
    println!(
        "recorded {} events (fault + recovery events included)",
        log.len()
    );
    Ok(())
}
