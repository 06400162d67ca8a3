//! Determinism and stream-count regression tests for concurrent graph
//! scheduling: the same graph scheduled concurrently twice produces
//! identical reports and tensors, one stream reproduces the serial
//! numbers exactly, and a fan-out graph demonstrably overlaps.
//!
//! The telemetry event stream rides the same contract (see the
//! determinism table in `cypress_runtime::telemetry`): recorded streams
//! are bit-identical across repeat runs and worker counts (as are the
//! session's metrics), and schedule policies agree on all
//! [`EventClass::Flow`] events.

use cypress_core::kernels::space::Shape;
use cypress_core::kernels::{dual_gemm, gemm, gemm_reduction};
use cypress_runtime::telemetry::TraceLog;
use cypress_runtime::{
    Binding, Event, EventClass, GraphReport, NodeId, Program, SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::MachineConfig;
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const D: usize = 64;

/// The acceptance fan-out graph: four independent GEMMs feeding a
/// two-level reduction (two dual-GEMM combiners, then a GEMM+Reduction
/// sink). Width 4, depth 3 — plenty of exposed parallelism.
fn fan_out_graph(machine: &MachineConfig) -> (TaskGraph, Vec<NodeId>, NodeId) {
    let gemm_p = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let dual_p = Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual");
    let gr_p = Program::from_parts(gemm_reduction::build(D, D, D, machine).unwrap(), "gr");

    let mut graph = TaskGraph::new();
    let gemms: Vec<NodeId> = (0..4)
        .map(|i| {
            graph
                .add_node(
                    &format!("gemm{i}"),
                    gemm_p.clone(),
                    vec![
                        Binding::Zeros,
                        Binding::External(format!("A{i}")),
                        Binding::External(format!("B{i}")),
                    ],
                )
                .unwrap()
        })
        .collect();
    let comb0 = graph
        .add_node(
            "combine01",
            dual_p.clone(),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::output(gemms[0], 0),
                Binding::output(gemms[1], 0),
            ],
        )
        .unwrap();
    let comb1 = graph
        .add_node(
            "combine23",
            dual_p,
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::output(gemms[2], 0),
                Binding::output(gemms[3], 0),
            ],
        )
        .unwrap();
    let sink = graph
        .add_node(
            "reduce",
            gr_p,
            vec![
                Binding::Zeros,
                Binding::Zeros,
                Binding::output(comb0, 0),
                Binding::output(comb1, 0),
            ],
        )
        .unwrap();
    (graph, gemms, sink)
}

fn inputs(seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = HashMap::new();
    for name in ["A0", "B0", "A1", "B1", "A2", "B2", "A3", "B3", "X"] {
        m.insert(
            name.to_string(),
            Tensor::random(DType::F16, &[D, D], &mut rng, -0.5, 0.5),
        );
    }
    m
}

fn assert_reports_identical(a: &GraphReport, b: &GraphReport) {
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.critical_path.to_bits(), b.critical_path.to_bits());
    assert_eq!(a.nodes.len(), b.nodes.len());
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.node, y.node);
        assert_eq!(x.stream, y.stream);
        assert_eq!(x.start.to_bits(), y.start.to_bits());
        assert_eq!(x.end.to_bits(), y.end.to_bits());
        assert_eq!(x.report.cycles.to_bits(), y.report.cycles.to_bits());
    }
}

/// The acceptance criterion: a fan-out graph overlaps under the
/// concurrent policy — `critical_path <= makespan < serial_sum` — and
/// four streams actually use more than one stream.
#[test]
fn fan_out_overlaps_under_concurrent_policy() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fan_out_graph(&machine);
    let mut session = Session::new(machine);

    let serial = session.launch_timing(&graph).unwrap();
    assert_eq!(serial.makespan, serial.serial_sum());
    assert_eq!(serial.streams, 1);
    assert!(serial.nodes.iter().all(|n| n.stream == 0));

    session.set_policy(SchedulePolicy::Concurrent { streams: 4 });
    let conc = session.launch_timing(&graph).unwrap();
    assert!(
        conc.makespan < serial.serial_sum(),
        "fan-out must overlap: makespan {} vs serial sum {}",
        conc.makespan,
        serial.serial_sum()
    );
    assert!(
        conc.makespan >= conc.critical_path,
        "no schedule beats the critical path: {} < {}",
        conc.makespan,
        conc.critical_path
    );
    assert!(
        conc.nodes.iter().any(|n| n.stream > 0),
        "four streams must actually be used"
    );
    assert!(conc.overlap_speedup() > 1.0);
    // The four independent GEMMs all start at cycle 0.
    for i in 0..4 {
        let t = conc.timeline(&format!("gemm{i}")).unwrap();
        assert_eq!(t.start, 0.0, "gemm{i} is ready at launch");
    }
}

/// The same graph scheduled concurrently twice — and from a fresh
/// session — produces bit-identical reports and tensors.
#[test]
fn concurrent_scheduling_is_deterministic() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, sink) = fan_out_graph(&machine);
    let ins = inputs(11);

    let mut s1 =
        Session::new(machine.clone()).with_policy(SchedulePolicy::Concurrent { streams: 3 });
    let t1 = s1.launch_timing(&graph).unwrap();
    let t2 = s1.launch_timing(&graph).unwrap();
    assert_reports_identical(&t1, &t2);

    let mut s2 = Session::new(machine).with_policy(SchedulePolicy::Concurrent { streams: 3 });
    let t3 = s2.launch_timing(&graph).unwrap();
    assert_reports_identical(&t1, &t3);

    let f1 = s1.launch_functional(&graph, &ins).unwrap();
    let f2 = s2.launch_functional(&graph, &ins).unwrap();
    assert_reports_identical(&f1.report, &f2.report);
    assert_eq!(
        f1.tensor(sink, 0).unwrap().data(),
        f2.tensor(sink, 0).unwrap().data(),
        "functional results are bit-identical across sessions"
    );
}

/// Functional tensors do not depend on the schedule policy: data always
/// moves in the deterministic topological order.
#[test]
fn functional_results_are_policy_independent() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, sink) = fan_out_graph(&machine);
    let ins = inputs(13);

    let mut serial = Session::new(machine.clone());
    let rs = serial.launch_functional(&graph, &ins).unwrap();
    let mut conc = Session::new(machine).with_policy(SchedulePolicy::Concurrent { streams: 4 });
    let rc = conc.launch_functional(&graph, &ins).unwrap();

    assert_eq!(
        rs.tensor(sink, 0).unwrap().data(),
        rc.tensor(sink, 0).unwrap().data()
    );
    assert_eq!(
        rs.tensor(sink, 1).unwrap().data(),
        rc.tensor(sink, 1).unwrap().data()
    );
    // The concurrent run's report still shows overlap.
    assert!(rc.report.makespan < rc.report.serial_sum());
    assert_eq!(rs.report.makespan, rs.report.serial_sum());
}

/// Host-side executor parallelism never changes results: the same graph
/// run at `parallelism ∈ {1, 2, 8}` — across repeated launches and
/// across fresh sessions — produces bit-identical tensors and reports.
#[test]
fn functional_results_are_parallelism_independent() {
    let machine = MachineConfig::test_gpu();
    let (graph, gemms, sink) = fan_out_graph(&machine);
    let ins = inputs(17);

    let mut baseline = Session::new(machine.clone()).with_parallelism(1);
    let base = baseline.launch_functional(&graph, &ins).unwrap();

    for parallelism in [1, 2, 8] {
        let mut session = Session::new(machine.clone()).with_parallelism(parallelism);
        assert_eq!(session.parallelism(), parallelism);
        let first = session.launch_functional(&graph, &ins).unwrap();
        // Same session again: pool-recycled buffers must not leak state.
        let second = session.launch_functional(&graph, &ins).unwrap();
        for run in [&first, &second] {
            assert_reports_identical(&base.report, &run.report);
            for param in 0..2 {
                assert_eq!(
                    base.tensor(sink, param).unwrap().data(),
                    run.tensor(sink, param).unwrap().data(),
                    "sink param {param} must be bit-identical at parallelism {parallelism}"
                );
            }
        }
        // Interior fan-out nodes were recycled identically in every mode.
        for &g in &gemms {
            assert_eq!(base.tensor(g, 0).is_some(), first.tensor(g, 0).is_some());
        }
    }
}

/// Parallel execution composes with the concurrent schedule policy: the
/// timing timeline comes from the policy, the tensors from the
/// deterministic executor, and neither depends on the worker count.
#[test]
fn parallelism_composes_with_concurrent_policy() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, sink) = fan_out_graph(&machine);
    let ins = inputs(19);

    let mut serial = Session::new(machine.clone()).with_parallelism(1);
    let rs = serial.launch_functional(&graph, &ins).unwrap();
    let mut parallel = Session::new(machine)
        .with_parallelism(4)
        .with_policy(SchedulePolicy::Concurrent { streams: 4 });
    let rp = parallel.launch_functional(&graph, &ins).unwrap();

    assert_eq!(
        rs.tensor(sink, 0).unwrap().data(),
        rp.tensor(sink, 0).unwrap().data()
    );
    assert!(rp.report.makespan < rp.report.serial_sum());
    assert_eq!(rp.report.streams, 4);
}

/// Stream count 1 reproduces today's serial numbers exactly — same node
/// order, same per-node cycles, same makespan, bit for bit.
#[test]
fn one_stream_reproduces_serial_exactly() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fan_out_graph(&machine);
    let mut session = Session::new(machine);

    let serial = session.launch_timing(&graph).unwrap();
    session.set_policy(SchedulePolicy::Concurrent { streams: 1 });
    let one = session.launch_timing(&graph).unwrap();

    assert_eq!(one.makespan.to_bits(), serial.makespan.to_bits());
    assert_eq!(one.nodes.len(), serial.nodes.len());
    for (a, b) in one.nodes.iter().zip(&serial.nodes) {
        assert_eq!(a.node, b.node, "one stream keeps the serial order");
        assert_eq!(a.start.to_bits(), b.start.to_bits());
        assert_eq!(a.end.to_bits(), b.end.to_bits());
        assert_eq!(a.stream, 0);
    }
}

/// Timing invariants hold at every stream count, and adding streams
/// never hurts this fan-out graph.
#[test]
fn invariants_across_stream_counts() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fan_out_graph(&machine);
    let mut session = Session::new(machine);
    let serial = session.launch_timing(&graph).unwrap();

    let mut prev = f64::INFINITY;
    for streams in 1..=6 {
        session.set_policy(SchedulePolicy::Concurrent { streams });
        let r = session.launch_timing(&graph).unwrap();
        let eps = 1e-9 * serial.makespan;
        assert!(r.critical_path <= r.makespan + eps, "streams {streams}");
        assert!(r.makespan <= r.serial_sum() + eps, "streams {streams}");
        assert!(
            r.makespan <= prev + eps,
            "more streams never hurt this graph (streams {streams})"
        );
        assert_eq!(r.streams, streams);
        prev = r.makespan;
    }
    // Beyond the graph's width, extra streams change nothing.
    session.set_policy(SchedulePolicy::Concurrent { streams: 4 });
    let four = session.launch_timing(&graph).unwrap();
    session.set_policy(SchedulePolicy::Concurrent { streams: 16 });
    let sixteen = session.launch_timing(&graph).unwrap();
    assert_eq!(four.makespan.to_bits(), sixteen.makespan.to_bits());
}

/// Launch the fan-out graph functionally in a *fresh* session — so
/// cache, pool, and tuner state are identical for every configuration —
/// and return the recorded event stream (host events filtered by the
/// default [`TraceLog`]).
fn recorded_stream(parallelism: usize, policy: SchedulePolicy) -> Vec<Event> {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fan_out_graph(&machine);
    let ins = inputs(23);
    let log = TraceLog::new();
    let mut session = Session::new(machine)
        .with_parallelism(parallelism)
        .with_policy(policy)
        .with_recorder(log.clone());
    session.launch_functional(&graph, &ins).unwrap();
    log.events()
}

/// The events of `stream` whose class is in `keep`, in emission order.
fn filtered(stream: &[Event], keep: &[EventClass]) -> Vec<Event> {
    stream
        .iter()
        .filter(|e| keep.contains(&e.class()))
        .cloned()
        .collect()
}

/// Repeat-run row of the telemetry determinism table: at fixed settings
/// the full recorded stream is bit-identical across runs, and it covers
/// the graph — one submission, one execution and one span per node.
#[test]
fn event_stream_is_identical_across_repeat_runs() {
    for (parallelism, policy) in [
        (1, SchedulePolicy::Serial),
        (4, SchedulePolicy::Concurrent { streams: 3 }),
    ] {
        let a = recorded_stream(parallelism, policy);
        let b = recorded_stream(parallelism, policy);
        assert!(!a.is_empty(), "parallelism {parallelism}");
        assert_eq!(a, b, "parallelism {parallelism}: repeat runs diverged");

        let count = |pred: fn(&&Event) -> bool| a.iter().filter(pred).count();
        assert_eq!(count(|e| matches!(e, Event::GraphSubmitted { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::NodeExecuted { .. })), 7);
        assert_eq!(count(|e| matches!(e, Event::NodeSpan { .. })), 7);
        assert_eq!(count(|e| matches!(e, Event::CacheLookup { .. })), 7);
    }
}

/// Worker-count row: there is one functional executor, so the *whole*
/// recorded stream — ready waves and buffer-pool traffic included — is
/// identical event for event at parallelism 1, 2 and 8.
#[test]
fn event_stream_is_identical_across_worker_counts() {
    let policy = SchedulePolicy::Concurrent { streams: 4 };
    let p1 = recorded_stream(1, policy);
    for parallelism in [2, 8] {
        assert_eq!(
            p1,
            recorded_stream(parallelism, policy),
            "worker count {parallelism} leaked into the event stream"
        );
    }
    assert!(
        p1.iter().any(|e| matches!(e, Event::WaveScheduled { .. })),
        "the wave executor must record its waves"
    );
    assert!(
        p1.iter().any(|e| matches!(e, Event::PoolAcquire { .. })),
        "and its pool traffic"
    );
}

/// `Session::metrics()` is a function of the launch sequence alone: after
/// three fan-out launches (cold pool, then warm) and one autotune sweep,
/// every counter — pool reuse and occupancy, cache traffic, tuner stats,
/// apply bytes — is equal at parallelism 1, 2 and 8.
#[test]
fn metrics_are_identical_across_worker_counts() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = fan_out_graph(&machine);
    let ins = inputs(29);
    let tuned = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[128, 128, 64]),
        &machine,
    )
    .unwrap();
    let metrics_at = |parallelism: usize| {
        let mut session = Session::new(machine.clone()).with_parallelism(parallelism);
        for _ in 0..3 {
            session.launch_functional(&graph, &ins).unwrap();
        }
        session.autotune(&tuned).unwrap();
        session.metrics()
    };
    let want = metrics_at(1);
    assert!(
        want.pool.reused > 0 && want.tuner.candidates_timed > 1,
        "{want}"
    );
    for parallelism in [2, 8] {
        assert_eq!(
            want,
            metrics_at(parallelism),
            "worker count {parallelism} leaked into the session metrics"
        );
    }
}

/// Policy row: [`EventClass::Flow`] events are schedule-policy
/// independent; only the [`EventClass::Schedule`] spans — the policy's
/// actual output — differ, and for this overlapping fan-out they must.
#[test]
fn flow_events_are_policy_independent() {
    let serial = recorded_stream(2, SchedulePolicy::Serial);
    let conc = recorded_stream(2, SchedulePolicy::Concurrent { streams: 4 });
    assert_eq!(
        filtered(&serial, &[EventClass::Flow]),
        filtered(&conc, &[EventClass::Flow]),
        "dataflow decisions leaked the schedule policy"
    );
    assert_ne!(
        filtered(&serial, &[EventClass::Schedule]),
        filtered(&conc, &[EventClass::Schedule]),
        "the fan-out graph overlaps, so the span timelines must differ"
    );
}
