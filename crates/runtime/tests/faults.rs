//! Fault-tolerant execution on fixed graphs.
//!
//! The standing invariant of [`cypress_runtime::FaultPolicy`]: faults
//! change the *timeline*, never the *tensors*. Seeded transient plans
//! under `Retry` and `FailFast`, and inert plans, are drawn by the
//! property in `policy_product.rs` beside every other policy axis. The
//! tests here place what a random draw cannot: a permanent device loss
//! at a chosen cycle (mid-run, draining a stranded buffer, shortening
//! the schedule), an exhausted retry budget, deadlines, and slowdown
//! windows — each completing bitwise identical to the fault-free run or
//! surfacing as a typed [`cypress_runtime::RuntimeError`] carrying the
//! partial [`cypress_runtime::GraphReport`].

mod common;

use common::{assert_overhead_is_recovery_work, assert_runs_match, diamond, gemm_fanout};
use common::{gemm_node, gemm_program, graph_inputs, D};
use cypress_runtime::{
    Binding, FaultPlan, FaultPolicy, PlacementPolicy, RuntimeError, SchedulePolicy, Session,
    TaskGraph,
};
use cypress_sim::MachineConfig;

/// The acceptance claim: on the 8-wide GEMM fan-out — enough queued
/// work per device that a mid-run loss always strands unexecuted nodes
/// — a permanent device loss mid-run at 2 and at 4 devices completes
/// under `Retry` with tensors bitwise identical to the fault-free run,
/// the victim on the eviction record, stranded nodes re-planned, and the
/// re-shard boundary on the timeline.
#[test]
fn device_loss_mid_run_completes_bitwise() {
    let machine = MachineConfig::test_gpu();
    let graph = gemm_fanout(&machine, 128);
    let inputs = graph_inputs(&graph, 11);
    let mut oracle = Session::new(machine.clone());
    let baseline = oracle.launch_functional(&graph, &inputs).unwrap();
    for devices in [2usize, 4] {
        let mut session = Session::new(machine.clone())
            .with_placement_policy(PlacementPolicy::Sharded { devices })
            .with_policy(SchedulePolicy::Concurrent { streams: 2 });
        let clean = session.launch_timing(&graph).unwrap();
        let victim = devices - 1;
        session = session
            .with_fault_policy(FaultPolicy::Retry {
                max_attempts: 3,
                backoff: 0.0,
            })
            .with_fault_plan(FaultPlan::new().with_device_loss(victim, clean.makespan * 0.5));
        let run = session.launch_functional(&graph, &inputs).unwrap();
        let label = format!("device loss at {devices} devices");
        assert_runs_match(&baseline, &run, &graph, &label);
        let recovery = &run.report.recovery;
        assert_eq!(recovery.evicted_devices, vec![victim], "{label}");
        assert_eq!(recovery.faults, 1, "{label}");
        assert!(
            !recovery.resharded_nodes.is_empty(),
            "mid-run loss strands queued nodes ({label})"
        );
        assert_overhead_is_recovery_work(&run.report, &label);
        assert!(
            run.report
                .nodes
                .iter()
                .any(|n| n.node == format!("reshard:d{victim}")),
            "the re-shard boundary lands on the timeline ({label})"
        );
        assert!(
            run.report
                .nodes
                .iter()
                .filter(|n| !n.node.starts_with("retry:")
                    && !n.node.starts_with("reshard:")
                    && !n.node.starts_with("xfer:"))
                .all(|n| n.device != victim || n.end <= clean.makespan * 0.5),
            "no successful compute span runs on the dead device after the loss ({label})"
        );
    }
}

/// A completed producer stranded on the dead device is drained over
/// the link: the recovery transfer shows up on the timeline and in the
/// recovery summary, and the consumer's tensor is still bit-identical.
#[test]
fn device_loss_drains_stranded_buffers_with_recovery_transfers() {
    let machine = MachineConfig::test_gpu();
    let program = gemm_program(&machine, D);
    let mut graph = TaskGraph::new();
    let mut producers = Vec::new();
    for i in 0..4 {
        let [a, b] = [format!("A{i}"), format!("B{i}")].map(Binding::External);
        producers.push(gemm_node(&mut graph, &format!("p{i}"), &program, a, b));
    }
    for (i, p) in producers.into_iter().enumerate() {
        let c = Binding::External(format!("C{i}"));
        gemm_node(
            &mut graph,
            &format!("c{i}"),
            &program,
            Binding::output(p, 0),
            c,
        );
    }
    let inputs = graph_inputs(&graph, 23);
    let mut oracle = Session::new(machine.clone());
    let baseline = oracle.launch_functional(&graph, &inputs).unwrap();

    let mut session = Session::new(machine.clone())
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 1 });
    let clean = session.launch_timing(&graph).unwrap();
    // Kill device 1 the instant its first producer retires: the buffer
    // is complete (memory drains under fail-stop) but its consumer is
    // not, so recovery must move it across the link.
    let first_end = clean
        .nodes
        .iter()
        .filter(|n| n.device == 1 && n.node.starts_with('p'))
        .map(|n| n.end)
        .fold(f64::INFINITY, f64::min);
    assert!(first_end.is_finite(), "device 1 runs at least one producer");
    session = session
        .with_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        })
        .with_fault_plan(FaultPlan::new().with_device_loss(1, first_end + 1.0));
    let run = session.launch_functional(&graph, &inputs).unwrap();
    assert_runs_match(&baseline, &run, &graph, "stranded-buffer drain");
    assert!(
        run.report
            .nodes
            .iter()
            .any(|n| n.node.starts_with("xfer:recover:")),
        "a recovery transfer lands on the timeline:\n{}",
        run.report.breakdown()
    );
    assert_eq!(run.report.recovery.evicted_devices, vec![1]);
    assert_overhead_is_recovery_work(&run.report, "stranded-buffer drain");
}

/// Losing a device can *shorten* a schedule: here the casualty re-plans
/// onto the device its consumer already sits on, so the cross-device
/// transfer between them collapses to a launch. The overhead is still
/// the recovery work — the killed attempt — and not the (negative)
/// difference to the clean makespan.
#[test]
fn a_device_loss_that_shortens_the_schedule_still_costs_its_recovery_work() {
    let machine = MachineConfig::test_gpu();
    // Roots round-robin over the two devices; `c` follows `a` to device
    // 0, so `b`'s output crosses the link.
    let (graph, [_, _, c]) = diamond(&machine);
    let inputs = graph_inputs(&graph, 41);
    let mut oracle = Session::new(machine.clone());
    let baseline = oracle.launch_functional(&graph, &inputs).unwrap();

    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 })
        .with_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        });
    let clean = session.launch_timing(&graph).unwrap();
    let b = clean.timeline("b").unwrap();
    assert_eq!(b.device, 1, "`b` runs on the device that will be lost");
    let transfer = clean.timeline("xfer:b.0->d0").unwrap();
    // Kill device 1 early in `b`'s run.
    let loss_at = b.start + 0.025 * (b.end - b.start);
    session = session.with_fault_plan(FaultPlan::new().with_device_loss(1, loss_at));
    let run = session.launch_functional(&graph, &inputs).unwrap();
    let label = "device loss that drops a transfer";
    assert_eq!(
        run.tensor(c, 0).unwrap().data(),
        baseline.tensor(c, 0).unwrap().data(),
        "{label}"
    );
    let report = &run.report;
    assert_eq!(report.recovery.evicted_devices, vec![1], "{label}");
    assert!(
        report.timeline("retry:b").is_some(),
        "`b` was killed in flight"
    );
    let moved = report.timeline("xfer:b.0->d0").unwrap();
    assert!(
        moved.end - moved.start < transfer.end - transfer.start,
        "the re-planned transfer no longer crosses the link"
    );
    assert!(
        report.makespan < clean.makespan,
        "the loss shortened the schedule: {} vs {}",
        report.makespan,
        clean.makespan
    );
    assert!(
        report.recovery.overhead_cycles > 0.0,
        "overhead {} ({label})",
        report.recovery.overhead_cycles
    );
    assert_overhead_is_recovery_work(report, label);
}

/// A fault never changes which scheduler runs: under every schedule
/// policy and device count, a run with one transient is never shorter
/// than the clean run of the same session, and reports the failed
/// attempt as its overhead. Serially on one device nothing overlaps the
/// failed attempt, so there the faulted makespan is the clean one plus
/// that overhead.
#[test]
fn a_transient_costs_exactly_its_reported_overhead() {
    let machine = MachineConfig::test_gpu();
    let graph = gemm_fanout(&machine, 128);
    for policy in [
        SchedulePolicy::Serial,
        SchedulePolicy::Concurrent { streams: 2 },
    ] {
        for devices in [1usize, 2, 4] {
            let mut session = Session::new(machine.clone())
                .with_policy(policy)
                .with_placement_policy(PlacementPolicy::Sharded { devices })
                .with_fault_policy(FaultPolicy::Retry {
                    max_attempts: 3,
                    backoff: 0.0,
                });
            let clean = session.launch_timing(&graph).unwrap();
            session = session.with_fault_plan(FaultPlan::new().with_transient(0, 0));
            let faulted = session.launch_timing(&graph).unwrap();
            let label = format!("{policy:?}, {devices} devices");
            assert_eq!(faulted.recovery.faults, 1, "{label}");
            assert_overhead_is_recovery_work(&faulted, &label);
            assert!(faulted.recovery.overhead_cycles > 0.0, "{label}");
            if (policy, devices) == (SchedulePolicy::Serial, 1) {
                let paid = faulted.makespan - faulted.recovery.overhead_cycles;
                assert!(
                    (paid - clean.makespan).abs() <= 1e-9 * clean.makespan,
                    "faulted makespan {} - overhead {} != clean makespan {} ({label})",
                    faulted.makespan,
                    faulted.recovery.overhead_cycles,
                    clean.makespan
                );
            }
            assert!(
                faulted.makespan >= clean.makespan,
                "a fault shortened the schedule: {} < {} ({label})",
                faulted.makespan,
                clean.makespan
            );
        }
    }
}

/// Exhausting the retry budget is a typed error, not a hang: a plan
/// that faults the same node on both of its allowed attempts returns
/// `NodeFailed` with the attempt count and the partial report.
#[test]
fn exhausted_retry_budget_returns_node_failed() {
    let machine = MachineConfig::test_gpu();
    let mut graph = TaskGraph::new();
    let [a, b] = ["A", "B"].map(Binding::external);
    gemm_node(&mut graph, "only", &gemm_program(&machine, D), a, b);
    let mut session = Session::new(machine)
        .with_fault_policy(FaultPolicy::Retry {
            max_attempts: 2,
            backoff: 8.0,
        })
        .with_fault_plan(FaultPlan::new().with_transient(0, 0).with_transient(0, 1));
    match session.launch_timing(&graph) {
        Err(RuntimeError::NodeFailed {
            node,
            attempts,
            report,
            ..
        }) => {
            assert_eq!(node, "only");
            assert_eq!(attempts, 2, "both allowed attempts were consumed");
            assert_eq!(report.recovery.faults, 2);
            assert_eq!(
                report.recovery.retries, 1,
                "one retry before the budget ran out"
            );
            assert_eq!(
                report
                    .nodes
                    .iter()
                    .filter(|n| n.node == "retry:only")
                    .count(),
                2,
                "both failed attempts are on the timeline"
            );
        }
        other => panic!("expected NodeFailed, got {other:?}"),
    }
}

/// `FailFast` with a device-loss plan surfaces `DeviceLost` with the
/// victim and cycle on the error.
#[test]
fn failfast_device_loss_is_typed() {
    let machine = MachineConfig::test_gpu();
    let graph = gemm_fanout(&machine, 128);
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let clean = session.launch_timing(&graph).unwrap();
    session = session.with_fault_plan(FaultPlan::new().with_device_loss(1, clean.makespan * 0.5));
    match session.launch_timing(&graph) {
        Err(RuntimeError::DeviceLost {
            device,
            cycle,
            report,
        }) => {
            assert_eq!(device, 1);
            assert!(cycle >= clean.makespan * 0.5);
            assert_eq!(report.recovery.evicted_devices, vec![1]);
        }
        other => panic!("expected DeviceLost, got {other:?}"),
    }
}
