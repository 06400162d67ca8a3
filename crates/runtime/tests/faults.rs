//! Differential tests of fault-tolerant execution.
//!
//! The standing invariant of [`cypress_runtime::FaultPolicy`]: faults
//! change the *timeline*, never the *tensors*. Under `Retry`, a run
//! with seeded transient faults — or a permanent mid-run device loss —
//! retains tensors bitwise identical to the fault-free single-device
//! oracle; under the default `FailFast` every fault surfaces as a typed
//! [`cypress_runtime::RuntimeError`] (never a panic) carrying the
//! partial [`cypress_runtime::GraphReport`]. A zero-fault plan is
//! inert: attaching it under `Retry` reproduces `FailFast` bit for
//! bit, timeline included.

use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::{MappingConfig, MappingSpace, Shape};
use cypress_runtime::{
    Binding, FaultPlan, FaultPolicy, GraphReport, NodeId, PlacementPolicy, Program, RuntimeError,
    SchedulePolicy, Session, TaskGraph,
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
/// `sharding.rs`): random fan-out/fan-in plus random retain flags.
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

/// A recovered report's overhead is its recovery work: the summed
/// duration of its `retry:` and `xfer:recover:` spans, in timeline
/// order, bit for bit — so never negative.
fn assert_overhead_is_recovery_work(report: &GraphReport, label: &str) {
    let work = report
        .nodes
        .iter()
        .filter(|n| n.node.starts_with("retry:") || n.node.starts_with("xfer:recover:"))
        .fold(0.0, |sum, n| sum + (n.end - n.start));
    let overhead = report.recovery.overhead_cycles;
    assert_eq!(
        overhead.to_bits(),
        work.to_bits(),
        "overhead {overhead} != recovery spans {work} ({label})"
    );
    assert!(overhead >= 0.0, "negative overhead {overhead} ({label})");
}

proptest! {
    /// Faults are functionally invisible under `Retry`: random DAGs
    /// launched against seeded transient fault plans at 2 and 4 devices
    /// retain tensors bitwise identical to the fault-free
    /// single-device run, and every injected fault is matched by a
    /// retry in the recovery summary.
    #[test]
    fn retry_matches_the_fault_free_oracle(
        seed in 0u64..1_000_000,
        faults in 1usize..4,
    ) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 4, &machine);
        let inputs = random_inputs(&graph, seed);
        let mut oracle = Session::new(machine.clone());
        let baseline = oracle.launch_functional(&graph, &inputs).unwrap();
        for devices in [2usize, 4] {
            let plan = FaultPlan::seeded(seed, devices, faults);
            let mut session = Session::new(machine.clone())
                .with_placement_policy(PlacementPolicy::Sharded { devices })
                .with_policy(SchedulePolicy::Concurrent { streams: 4 })
                .with_fault_policy(FaultPolicy::Retry { max_attempts: 8, backoff: 0.0 })
                .with_fault_plan(plan);
            let run = session.launch_functional(&graph, &inputs).unwrap();
            let label = format!("seed {seed}, devices {devices}, {faults} seeded faults");
            let compared = assert_runs_match(&baseline, &run, &ids, &programs, &label);
            prop_assert!(compared > 0, "every graph retains at least its sinks");
            let recovery = &run.report.recovery;
            prop_assert_eq!(
                recovery.retries, recovery.faults,
                "transient-only plans retry every injected fault ({})", label
            );
            assert_overhead_is_recovery_work(&run.report, &label);
        }
    }

    /// `FailFast` never panics: the same seeded plans either miss (the
    /// run succeeds) or surface as a typed `NodeFailed` carrying the
    /// partial report with the fault on record.
    #[test]
    fn failfast_surfaces_typed_errors(
        seed in 0u64..1_000_000,
        faults in 1usize..4,
    ) {
        let machine = MachineConfig::test_gpu();
        let (graph, _, _) = random_graph(seed, 4, &machine);
        let inputs = random_inputs(&graph, seed);
        let plan = FaultPlan::seeded(seed, 2, faults);
        let mut session = Session::new(machine)
            .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
            .with_policy(SchedulePolicy::Concurrent { streams: 4 })
            .with_fault_plan(plan);
        match session.launch_functional(&graph, &inputs) {
            Ok(run) => prop_assert_eq!(
                run.report.recovery.faults, 0,
                "a successful FailFast run saw no faults"
            ),
            Err(RuntimeError::NodeFailed { node, attempts, report, .. }) => {
                prop_assert_eq!(attempts, 1, "FailFast aborts on the first attempt");
                prop_assert!(report.recovery.faults >= 1);
                prop_assert_eq!(report.recovery.retries, 0);
                prop_assert!(!node.is_empty());
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// A zero-fault plan under `Retry` is inert: makespan, critical
    /// path, and every node's `(device, stream, start, end)` match the
    /// plain `FailFast` run bit for bit — and so does a plan whose
    /// transient index is never reached.
    #[test]
    fn zero_fault_retry_is_bit_identical_to_failfast(
        seed in 0u64..1_000_000,
        streams in 1usize..5,
    ) {
        let machine = MachineConfig::test_gpu();
        let (graph, _, _) = random_graph(seed, 5, &machine);
        let mut session =
            Session::new(machine.clone()).with_policy(SchedulePolicy::Concurrent { streams });
        let baseline = session.launch_timing(&graph).unwrap();
        let empty = FaultPlan::new();
        let unreached = FaultPlan::new().with_transient(0, 1_000_000);
        for plan in [empty, unreached] {
            let mut faulty = Session::new(machine.clone())
                .with_policy(SchedulePolicy::Concurrent { streams })
                .with_fault_policy(FaultPolicy::Retry { max_attempts: 3, backoff: 16.0 })
                .with_fault_plan(plan);
            let report = faulty.launch_timing(&graph).unwrap();
            prop_assert_eq!(baseline.makespan.to_bits(), report.makespan.to_bits());
            prop_assert_eq!(
                baseline.critical_path.to_bits(),
                report.critical_path.to_bits()
            );
            prop_assert_eq!(baseline.nodes.len(), report.nodes.len());
            prop_assert_eq!(&report.recovery, &cypress_runtime::Recovery::default());
            for (a, b) in baseline.nodes.iter().zip(report.nodes.iter()) {
                prop_assert_eq!(&a.node, &b.node);
                prop_assert_eq!(a.device, b.device);
                prop_assert_eq!(a.stream, b.stream);
                prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
                prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
            }
        }
    }
}

/// An 8-wide fan-out of independent GEMMs — enough queued work per
/// device that a mid-run device loss always strands unexecuted nodes.
fn fanout(machine: &MachineConfig, size: usize) -> (TaskGraph, Vec<NodeId>, Vec<Program>) {
    let program = Program::from_parts(gemm::build(size, size, size, machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let mut ids = Vec::new();
    let mut programs = Vec::new();
    for i in 0..8 {
        let id = graph
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
        graph.retain(id).unwrap();
        ids.push(id);
        programs.push(program.clone());
    }
    (graph, ids, programs)
}

/// The acceptance claim: a seeded permanent device loss mid-run at 2
/// and at 4 devices completes under `Retry` with tensors bitwise
/// identical to the fault-free run, the victim on the eviction record,
/// stranded nodes re-planned, and the re-shard boundary on the
/// timeline.
#[test]
fn device_loss_mid_run_completes_bitwise() {
    let machine = MachineConfig::test_gpu();
    let (graph, ids, programs) = fanout(&machine, 128);
    let inputs = random_inputs(&graph, 11);
    let mut oracle = Session::new(machine.clone());
    let baseline = oracle.launch_functional(&graph, &inputs).unwrap();
    for devices in [2usize, 4] {
        let mut session = Session::new(machine.clone())
            .with_placement_policy(PlacementPolicy::Sharded { devices })
            .with_policy(SchedulePolicy::Concurrent { streams: 2 });
        let clean = session.launch_timing(&graph).unwrap();
        let victim = devices - 1;
        session.set_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        });
        session.set_fault_plan(Some(
            FaultPlan::new().with_device_loss(victim, clean.makespan * 0.5),
        ));
        let run = session.launch_functional(&graph, &inputs).unwrap();
        let label = format!("device loss at {devices} devices");
        assert_runs_match(&baseline, &run, &ids, &programs, &label);
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
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let mut stage1 = Vec::new();
    for i in 0..4 {
        stage1.push(
            graph
                .add_node(
                    &format!("p{i}"),
                    program.clone(),
                    vec![
                        Binding::Zeros,
                        Binding::External(format!("A{i}")),
                        Binding::External(format!("B{i}")),
                    ],
                )
                .unwrap(),
        );
    }
    let mut ids = stage1.clone();
    let mut programs = vec![program.clone(); 4];
    for (i, &p) in stage1.iter().enumerate() {
        let id = graph
            .add_node(
                &format!("c{i}"),
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::output(p, 0),
                    Binding::External(format!("C{i}")),
                ],
            )
            .unwrap();
        graph.retain(id).unwrap();
        ids.push(id);
        programs.push(program.clone());
    }
    let inputs = random_inputs(&graph, 23);
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
    session.set_fault_policy(FaultPolicy::Retry {
        max_attempts: 3,
        backoff: 0.0,
    });
    session.set_fault_plan(Some(FaultPlan::new().with_device_loss(1, first_end + 1.0)));
    let run = session.launch_functional(&graph, &inputs).unwrap();
    assert_runs_match(&baseline, &run, &ids, &programs, "stranded-buffer drain");
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
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let mut roots = Vec::new();
    for name in ["a", "b"] {
        let root = graph
            .add_node(
                name,
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::External(format!("{name}A")),
                    Binding::External(format!("{name}B")),
                ],
            )
            .unwrap();
        roots.push(root);
    }
    // Roots round-robin over the two devices; `c` follows `a` to device
    // 0, so `b`'s output crosses the link.
    let c = graph
        .add_node(
            "c",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::output(roots[0], 0),
                Binding::output(roots[1], 0),
            ],
        )
        .unwrap();
    graph.retain(c).unwrap();
    let inputs = random_inputs(&graph, 41);
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
    session.set_fault_plan(Some(FaultPlan::new().with_device_loss(1, loss_at)));
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
    let (graph, _, _) = fanout(&machine, 128);
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
            session.set_fault_plan(Some(FaultPlan::new().with_transient(0, 0)));
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
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    graph
        .add_node(
            "only",
            program,
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
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

/// Deadlines are typed errors with partial reports — and generous
/// deadlines never fire, at one stream or several.
#[test]
fn deadlines_return_typed_errors_with_partial_reports() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fanout(&machine, 128);
    for policy in [
        SchedulePolicy::Serial,
        SchedulePolicy::Concurrent { streams: 4 },
    ] {
        let mut session = Session::new(machine.clone()).with_policy(policy);
        let clean = session.launch_timing(&graph).unwrap();

        session.set_graph_deadline(Some(clean.makespan * 0.5));
        match session.launch_timing(&graph) {
            Err(RuntimeError::DeadlineExceeded {
                what,
                deadline,
                at,
                report,
            }) => {
                assert_eq!(what, "graph", "{policy:?}");
                assert!(at > deadline, "{policy:?}");
                assert!(
                    !report.nodes.is_empty() && report.nodes.len() < clean.nodes.len(),
                    "the partial report stops mid-graph ({policy:?})"
                );
            }
            other => panic!("expected DeadlineExceeded under {policy:?}, got {other:?}"),
        }
        session.set_graph_deadline(Some(clean.makespan * 2.0));
        session
            .launch_timing(&graph)
            .expect("a generous graph deadline never fires");
        session.set_graph_deadline(None);

        session.set_node_deadline(Some(1.0));
        match session.launch_timing(&graph) {
            Err(RuntimeError::DeadlineExceeded { what, .. }) => {
                assert!(
                    what.starts_with('g'),
                    "node deadlines name the offender, got {what:?} ({policy:?})"
                );
            }
            other => panic!("expected node DeadlineExceeded under {policy:?}, got {other:?}"),
        }
        session.set_node_deadline(Some(clean.makespan * 2.0));
        session
            .launch_timing(&graph)
            .expect("a generous node deadline never fires");
    }
}

/// `FailFast` with a device-loss plan surfaces `DeviceLost` with the
/// victim and cycle on the error.
#[test]
fn failfast_device_loss_is_typed() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fanout(&machine, 128);
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let clean = session.launch_timing(&graph).unwrap();
    session.set_fault_plan(Some(
        FaultPlan::new().with_device_loss(1, clean.makespan * 0.5),
    ));
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

/// Slowdown and link-degradation windows stretch the clock without
/// touching tensors: the degraded run completes under either policy
/// with a makespan no shorter than the clean run.
#[test]
fn slow_windows_stretch_the_clock_not_the_tensors() {
    let machine = MachineConfig::test_gpu();
    let (graph, ids, programs) = fanout(&machine, 128);
    let inputs = random_inputs(&graph, 37);
    let mut oracle = Session::new(machine.clone());
    let baseline = oracle.launch_functional(&graph, &inputs).unwrap();
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let clean = session.launch_timing(&graph).unwrap();
    session.set_fault_plan(Some(
        FaultPlan::new()
            .with_slowdown(0, 0.0, clean.makespan, 0.5)
            .with_link_degraded(0, 0.0, clean.makespan, 0.25),
    ));
    let run = session.launch_functional(&graph, &inputs).unwrap();
    assert_runs_match(&baseline, &run, &ids, &programs, "slow windows");
    assert!(
        run.report.makespan >= clean.makespan,
        "a half-speed device cannot finish earlier: {} < {}",
        run.report.makespan,
        clean.makespan
    );
    assert_eq!(run.report.recovery.faults, 0, "windows are not faults");
}
