//! Buffer-pool edge cases under graph execution: diamond-shaped sharing
//! (two consumers of one producer), retained nodes never recycling,
//! reuse counters across repeated `Session` launches, and a serving loop
//! whose pool stays flat.
//!
//! The pool only ever takes back what it handed out: a `Zeros` buffer —
//! wherever its last-use moves carried it — returns when the node holding
//! it drains; clones of external inputs and of shared upstream buffers
//! are dropped.

use cypress_core::kernels::{dual_gemm, gemm, gemm_reduction};
use cypress_runtime::{Binding, NodeId, Program, Session, TaskGraph};
use cypress_sim::MachineConfig;
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const D: usize = 64;

/// A diamond: one producer feeding two consumers, whose outputs meet in
/// a dual-GEMM sink.
///
/// ```text
///        P
///       / \
///      C1  C2
///       \ /
///        S
/// ```
fn diamond(machine: &MachineConfig, retain_producer: bool) -> (TaskGraph, NodeId, NodeId) {
    let gemm_p = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let dual_p = Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual");
    let mut g = TaskGraph::new();
    let p = g
        .add_node(
            "producer",
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
    let c1 = g
        .add_node(
            "left",
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::output(p, 0),
                Binding::external("B1"),
            ],
        )
        .unwrap();
    let c2 = g
        .add_node(
            "right",
            gemm_p,
            vec![
                Binding::Zeros,
                Binding::output(p, 0),
                Binding::external("B2"),
            ],
        )
        .unwrap();
    let s = g
        .add_node(
            "sink",
            dual_p,
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::output(c1, 0),
                Binding::output(c2, 0),
            ],
        )
        .unwrap();
    if retain_producer {
        g.retain(p).unwrap();
    }
    (g, p, s)
}

fn inputs(seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    ["A", "B", "B1", "B2", "X"]
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                Tensor::random(DType::F16, &[D, D], &mut rng, -0.5, 0.5),
            )
        })
        .collect()
}

/// Diamond sharing: the producer's buffer is cloned for the first
/// consumer, moved into the second (its last use), and recycles exactly
/// once — when `right`, the node it was moved into, drains.
#[test]
fn diamond_recycles_the_producer_once_after_both_consumers() {
    let machine = MachineConfig::test_gpu();
    let (graph, p, s) = diamond(&machine, false);
    let mut session = Session::new(machine);
    let run = session.launch_functional(&graph, &inputs(3)).unwrap();

    // The producer was drained: its tensors are gone from the result.
    assert!(run.tensor(p, 0).is_none(), "drained producer is recycled");
    // The sink survives with all four parameters.
    for pi in 0..4 {
        assert!(run.tensor(s, pi).is_some(), "sink param {pi} kept");
    }
    // One `Zeros` acquisition per node, none of them served by reuse on
    // a cold session: the only pool buffer that dies within the launch
    // is the producer's output, and `right` holds it until the sink ran.
    let stats = session.metrics().pool;
    assert_eq!(stats.acquired, 4, "one Zeros binding per node");
    assert_eq!(
        stats.reused, 0,
        "nothing is parked before the sink acquires"
    );
    // Parked afterward: the producer's output (via `right`). The cloned
    // externals {A, B, B1, B2} and `left`'s clone of the producer's
    // output never came from the pool and are dropped; the consumers'
    // own outputs left with the sink.
    assert_eq!(stats.free, 1, "only the pool's own dead buffer is parked");
}

/// A retained producer is never recycled, even with two consumers: its
/// tensors stay in the result and out of the pool, and consumers clone
/// instead of moving its buffer.
#[test]
fn retained_producer_is_never_recycled() {
    let machine = MachineConfig::test_gpu();
    let (graph, p, _) = diamond(&machine, true);
    let mut session = Session::new(machine);
    let ins = inputs(4);
    let run = session.launch_functional(&graph, &ins).unwrap();

    // All three producer params survive: the freshly computed output and
    // the cloned externals.
    for pi in 0..3 {
        assert!(run.tensor(p, pi).is_some(), "retained param {pi} kept");
    }
    assert_eq!(
        run.tensor(p, 1).unwrap().data(),
        ins["A"].data(),
        "retained input param is the external tensor"
    );
    // Both consumers cloned: the producer's buffers never reached the
    // pool, and the consumers' dead params are clones the pool never
    // handed out — nothing is parked.
    assert_eq!(session.metrics().pool.free, 0);

    // The retained output is actually the product, not zeros.
    assert!(run.tensor(p, 0).unwrap().data().iter().any(|&v| v != 0.0));
}

/// Retaining a sink is a no-op for recycling: sinks are always kept.
#[test]
fn retained_sink_matches_plain_sink() {
    let machine = MachineConfig::test_gpu();
    let (graph_plain, _, s1) = diamond(&machine, false);
    let (mut graph_retained, _, s2) = diamond(&machine, false);
    graph_retained.retain(s2).unwrap();

    let mut a = Session::new(machine.clone());
    let ra = a.launch_functional(&graph_plain, &inputs(5)).unwrap();
    let mut b = Session::new(machine);
    let rb = b.launch_functional(&graph_retained, &inputs(5)).unwrap();

    assert_eq!(
        ra.tensor(s1, 0).unwrap().data(),
        rb.tensor(s2, 0).unwrap().data()
    );
    assert_eq!(a.metrics().pool, b.metrics().pool, "identical pool traffic");
}

/// Reuse counters across repeated launches: every warm launch takes back
/// the one buffer a launch parks (the other three `Zeros` buffers leave
/// with the sink), and the counters advance by exactly one launch's
/// worth each time.
#[test]
fn pool_reuse_is_counted_across_repeated_launches() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, _) = diamond(&machine, false);
    let mut session = Session::new(machine);
    let ins = inputs(6);

    session.launch_functional(&graph, &ins).unwrap();
    let cold = session.metrics().pool;
    assert_eq!((cold.acquired, cold.reused, cold.free), (4, 0, 1));

    for launch in 1..=3u64 {
        session.launch_functional(&graph, &ins).unwrap();
        let warm = session.metrics().pool;
        assert_eq!(warm.acquired, 4 * (launch + 1));
        assert_eq!(
            warm.reused, launch,
            "warm launch {launch} reuses the buffer the previous launch parked"
        );
        assert_eq!(warm.free, 1, "and parks its own in exchange");
    }

    // Clearing the pool drops parked buffers but keeps counters.
    let before = session.metrics().pool;
    session.clear();
    let after = session.metrics().pool;
    assert_eq!(after.free, 0);
    assert_eq!(after.acquired, before.acquired);
    assert_eq!(after.reused, before.reused);
}

/// A failed launch moves no data: under `FailFast` a firing fault plan
/// returns its typed error from the schedule, before the pool hands out
/// a buffer or a kernel runs, so the next launch runs as the first
/// launch of a clean session would.
#[test]
fn failed_launch_moves_no_data() {
    use cypress_runtime::{FaultPlan, RuntimeError};
    let machine = MachineConfig::test_gpu();
    let (graph, _, s) = diamond(&machine, false);
    let ins = inputs(7);

    let mut clean = Session::new(machine.clone());
    let want = clean.launch_functional(&graph, &ins).unwrap();
    let ok = clean.metrics();

    let mut session = Session::new(machine).with_fault_plan(FaultPlan::new().with_transient(0, 0));
    let err = session.launch_functional(&graph, &ins).unwrap_err();
    assert!(matches!(err, RuntimeError::NodeFailed { .. }), "{err}");
    let failed = session.metrics();
    assert_eq!(
        failed.pool,
        Default::default(),
        "the pool handed out nothing"
    );
    assert_eq!(failed.apply_bytes, Default::default(), "no kernel ran");

    session = session.with_fault_plan(FaultPlan::new());
    let run = session.launch_functional(&graph, &ins).unwrap();
    let warm = session.metrics();
    assert_eq!(warm.pool, ok.pool);
    assert_eq!(warm.apply_bytes, ok.apply_bytes);
    assert_eq!(
        run.tensor(s, 0).unwrap().data(),
        want.tensor(s, 0).unwrap().data()
    );
}

/// Four independent GEMMs feeding two dual-GEMM combiners feeding a
/// GEMM+Reduction sink: eight `Zeros` acquisitions per launch.
fn fan_out(machine: &MachineConfig) -> TaskGraph {
    let gemm_p = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let dual_p = Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual");
    let gr_p = Program::from_parts(gemm_reduction::build(D, D, D, machine).unwrap(), "gr");
    let mut g = TaskGraph::new();
    let gemms: Vec<NodeId> = (0..4)
        .map(|i| {
            g.add_node(
                &format!("gemm{i}"),
                gemm_p.clone(),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap()
        })
        .collect();
    let combiners: Vec<NodeId> = gemms
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            g.add_node(
                &format!("combine{i}"),
                dual_p.clone(),
                vec![
                    Binding::Zeros,
                    Binding::external("X"),
                    Binding::output(pair[0], 0),
                    Binding::output(pair[1], 0),
                ],
            )
            .unwrap()
        })
        .collect();
    g.add_node(
        "reduce",
        gr_p,
        vec![
            Binding::Zeros,
            Binding::Zeros,
            Binding::output(combiners[0], 0),
            Binding::output(combiners[1], 0),
        ],
    )
    .unwrap();
    g
}

/// A serving loop on the default (unbounded) pool stays flat: the pool
/// parks exactly what a launch hands back — the four GEMM outputs, once
/// the combiners that consumed them drain — and the next launch takes
/// all of it back, so occupancy after launch 50 is what it was after
/// launch 2. (The other four buffers of a launch leave with the sink in
/// the `GraphRun`, so four of its eight acquisitions are fresh by
/// construction.) Before the fix every drained external clone was parked
/// too and `free` grew with the launch count.
#[test]
fn serving_loop_keeps_the_unbounded_pool_flat() {
    let machine = MachineConfig::test_gpu();
    let graph = fan_out(&machine);
    let ins = inputs(8);
    let mut session = Session::new(machine);

    session.launch_functional(&graph, &ins).unwrap();
    let mut prev = session.metrics().pool;
    assert_eq!((prev.acquired, prev.reused), (8, 0));
    assert_eq!(prev.free, 4, "the four drained GEMM outputs are parked");
    let steady = prev.free;
    for launch in 2..=50 {
        session.launch_functional(&graph, &ins).unwrap();
        let now = session.metrics().pool;
        assert_eq!(now.acquired - prev.acquired, 8);
        assert_eq!(
            now.reused - prev.reused,
            prev.free as u64,
            "launch {launch} takes back everything the pool had parked"
        );
        assert_eq!(now.free, steady, "launch {launch}: occupancy is flat");
        prev = now;
    }
    assert_eq!(prev.evicted, 0);
}

#[test]
fn bounded_pool_never_exceeds_its_cap_across_a_randomized_sweep() {
    use rand::Rng;
    // A shape-diverse serving sweep: random three-gemm chains at varying
    // sizes park one buffer per launch (the head's output, once the
    // middle node drains) in a `(dtype, element count)` class of their
    // size. A bounded pool must hold `free <= cap` after every launch;
    // the unbounded pool keeps one parked buffer per class it has seen.
    let machine = MachineConfig::test_gpu();
    let cap = 2usize;
    let mut bounded = Session::new(machine.clone()).with_pool_capacity(cap);
    let mut unbounded = Session::new(machine.clone());
    let mut rng = StdRng::seed_from_u64(41);
    let mut unbounded_peak = 0usize;
    for round in 0..16 {
        let size = 64 * rng.gen_range(1usize..4);
        let program = Program::from_parts(gemm::build(size, size, size, &machine).unwrap(), "gemm");
        let mut g = TaskGraph::new();
        let a = g
            .add_node(
                "a",
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        let b = g
            .add_node(
                "b",
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::output(a, 0),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        g.add_node(
            "c",
            program,
            vec![
                Binding::Zeros,
                Binding::output(b, 0),
                Binding::external("B"),
            ],
        )
        .unwrap();
        let mut rng_t = StdRng::seed_from_u64(round);
        let ins = HashMap::from([
            (
                "A".to_string(),
                Tensor::random(DType::F16, &[size, size], &mut rng_t, -0.5, 0.5),
            ),
            (
                "B".to_string(),
                Tensor::random(DType::F16, &[size, size], &mut rng_t, -0.5, 0.5),
            ),
        ]);
        bounded.launch_functional(&g, &ins).unwrap();
        unbounded.launch_functional(&g, &ins).unwrap();
        let stats = bounded.metrics().pool;
        assert!(
            stats.free <= cap,
            "round {round}: bounded pool parked {} > cap {cap}",
            stats.free
        );
        unbounded_peak = unbounded_peak.max(unbounded.metrics().pool.free);
    }
    let stats = bounded.metrics().pool;
    assert_eq!(stats.capacity, Some(cap));
    assert!(
        stats.evicted > 0,
        "the sweep must actually trigger eviction"
    );
    assert!(
        unbounded_peak > cap,
        "the sweep parks more than the cap when unbounded (peak {unbounded_peak})"
    );
}
