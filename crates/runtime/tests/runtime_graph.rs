//! Integration tests of the task-graph runtime: caching semantics,
//! deterministic execution, and equivalence of graph execution with
//! hand-composed `run_functional` calls.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::gemm;
use cypress_runtime::{Binding, Program, Session, TaskGraph};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

fn gemm_program(m: usize, n: usize, k: usize, machine: &MachineConfig) -> Program {
    Program::from_parts(gemm::build(m, n, k, machine).unwrap(), "gemm")
}

/// A second launch of the same `(tasks, mapping, args, machine)` returns
/// the *identical* compiled kernel — shared storage, no pass re-run.
#[test]
fn cache_hit_returns_identical_kernel() {
    let machine = MachineConfig::test_gpu();
    let mut session = Session::new(machine.clone());
    let program = gemm_program(64, 64, 64, &machine);

    let first = session.compile(&program).unwrap();
    assert_eq!(session.metrics().cache.misses, 1);

    // Rebuilding the program from scratch still hits: the fingerprint is
    // structural, not identity-based.
    let rebuilt = gemm_program(64, 64, 64, &machine);
    let second = session.compile(&rebuilt).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "hit must return the identical kernel"
    );
    let stats = session.metrics().cache;
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // A different problem size is a different kernel.
    let other = session
        .compile(&gemm_program(128, 64, 64, &machine))
        .unwrap();
    assert!(!Arc::ptr_eq(&first, &other));
    assert_eq!(session.metrics().cache.misses, 2);
}

/// The compiled fingerprint matches what the compiler reports, and a
/// direct compile produces the same kernel the session caches.
#[test]
fn session_kernel_matches_direct_compilation() {
    let machine = MachineConfig::test_gpu();
    let program = gemm_program(64, 64, 64, &machine);
    let mut session = Session::new(machine.clone());
    let cached = session.compile(&program).unwrap();

    let compiler = CypressCompiler::new(CompilerOptions {
        machine,
        ..Default::default()
    });
    let direct = compiler
        .compile(&program.registry, &program.mapping, "gemm", &program.args)
        .unwrap();
    assert_eq!(cached.fingerprint, direct.fingerprint);
    assert_eq!(cached.cuda, direct.cuda);
}

fn two_gemm_graph(machine: &MachineConfig) -> (TaskGraph, cypress_runtime::NodeId) {
    // C1 = A @ B1 (64x64), C2 = C1 @ B2 (64x64).
    let mut graph = TaskGraph::new();
    let first = graph
        .add_node(
            "first",
            gemm_program(64, 64, 64, machine),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B1"),
            ],
        )
        .unwrap();
    let second = graph
        .add_node(
            "second",
            gemm_program(64, 64, 64, machine),
            vec![
                Binding::Zeros,
                Binding::output(first, 0),
                Binding::external("B2"),
            ],
        )
        .unwrap();
    (graph, second)
}

fn test_inputs(seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    HashMap::from([
        (
            "A".to_string(),
            Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7),
        ),
        (
            "B1".to_string(),
            Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7),
        ),
        (
            "B2".to_string(),
            Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7),
        ),
    ])
}

/// Graph execution is a pure function of (graph, inputs): bitwise-equal
/// tensors and identical schedules across runs and across sessions.
#[test]
fn graph_execution_is_deterministic() {
    let machine = MachineConfig::test_gpu();
    let (graph, sink) = two_gemm_graph(&machine);
    let inputs = test_inputs(5);

    let mut s1 = Session::new(machine.clone());
    let r1 = s1.launch_functional(&graph, &inputs).unwrap();
    let r2 = s1.launch_functional(&graph, &inputs).unwrap();
    let mut s2 = Session::new(machine);
    let r3 = s2.launch_functional(&graph, &inputs).unwrap();

    let t1 = r1.tensor(sink, 0).unwrap();
    assert_eq!(
        t1.data(),
        r2.tensor(sink, 0).unwrap().data(),
        "same session, same bits"
    );
    assert_eq!(
        t1.data(),
        r3.tensor(sink, 0).unwrap().data(),
        "fresh session, same bits"
    );
    assert_eq!(r1.report.cycles(), r2.report.cycles());
    assert_eq!(r1.report.events(), r3.report.events());
}

/// A linear GEMM → GEMM graph produces exactly what composing the two
/// `Simulator::run_functional` calls by hand produces.
#[test]
fn linear_graph_matches_hand_composition() {
    let machine = MachineConfig::test_gpu();
    let (graph, sink) = two_gemm_graph(&machine);
    let inputs = test_inputs(6);

    let mut session = Session::new(machine.clone());
    let run = session.launch_functional(&graph, &inputs).unwrap();
    let got = run.tensor(sink, 0).unwrap();

    // Hand composition: compile once, launch twice, thread C1 into A.
    let program = gemm_program(64, 64, 64, &machine);
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let compiled = compiler
        .compile(&program.registry, &program.mapping, "gemm", &program.args)
        .unwrap();
    let sim = Simulator::new(machine);
    let first = sim
        .run_functional(
            &compiled.kernel,
            vec![
                Tensor::zeros(DType::F16, &[64, 64]),
                inputs["A"].clone(),
                inputs["B1"].clone(),
            ],
        )
        .unwrap();
    let c1 = first.params[0].clone();
    let second = sim
        .run_functional(
            &compiled.kernel,
            vec![
                Tensor::zeros(DType::F16, &[64, 64]),
                c1,
                inputs["B2"].clone(),
            ],
        )
        .unwrap();
    assert_eq!(
        got.data(),
        second.params[0].data(),
        "graph == hand composition, bitwise"
    );
}

/// A node that stores to a parameter bound to an external input writes
/// its own copy: the caller's tensor keeps its bits. A parameter the
/// node only reads is passed without a copy.
#[test]
fn writing_an_external_parameter_leaves_the_callers_tensor_intact() {
    let machine = MachineConfig::test_gpu();
    let one_gemm = |c: Binding| {
        let mut graph = TaskGraph::new();
        let args = vec![c, Binding::external("A"), Binding::external("B1")];
        let node = graph
            .add_node("gemm", gemm_program(64, 64, 64, &machine), args)
            .unwrap();
        (graph, node)
    };
    let (graph, node) = one_gemm(Binding::external("C"));
    let mut inputs = test_inputs(8);
    let mut rng = StdRng::seed_from_u64(9);
    let c = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    inputs.insert("C".to_string(), c.clone());
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let mut session = Session::new(machine.clone());
    let run = session.launch_functional(&graph, &inputs).unwrap();
    let written = run.tensor(node, 0).unwrap();
    assert_ne!(bits(written), bits(&c), "the node stores to C");
    assert_eq!(bits(&inputs["C"]), bits(&c), "the caller's C is untouched");
    assert_eq!(
        run.tensor(node, 1).unwrap().data().as_ptr(),
        inputs["A"].data().as_ptr(),
        "a read-only input is not copied"
    );

    // What the node wrote is the product alone, as from a zeroed C.
    let (zeroed, node) = one_gemm(Binding::Zeros);
    let zeroed_run = session.launch_functional(&zeroed, &inputs).unwrap();
    assert_eq!(bits(written), bits(zeroed_run.tensor(node, 0).unwrap()));
}

/// Timing mode accumulates one report per node and sums the makespans.
#[test]
fn timing_mode_reports_per_node_breakdown() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = two_gemm_graph(&machine);
    let mut session = Session::new(machine);
    let report = session.launch_timing(&graph).unwrap();
    assert_eq!(report.nodes.len(), 2);
    assert_eq!(report.nodes[0].node, "first");
    assert_eq!(report.nodes[1].node, "second");
    assert!(report.nodes.iter().all(|n| n.report.cycles > 0.0));
    let sum: f64 = report.nodes.iter().map(|n| n.report.cycles).sum();
    assert_eq!(report.cycles(), sum);
    // Two identical single-kernel launches: one compile, one hit.
    let stats = session.metrics().cache;
    assert_eq!((stats.misses, stats.hits), (1, 1));
}

/// Pool buffers of drained intermediates return to the pool and are
/// reused by later launches: in a three-node chain the head's output is
/// moved into the middle node, and goes back once the tail drained it
/// (a two-node chain parks nothing — everything leaves with its sink).
#[test]
fn intermediate_buffers_recycle_through_the_pool() {
    let machine = MachineConfig::test_gpu();
    let (mut graph, second) = two_gemm_graph(&machine);
    graph
        .add_node(
            "third",
            gemm_program(64, 64, 64, &machine),
            vec![
                Binding::Zeros,
                Binding::output(second, 0),
                Binding::external("B2"),
            ],
        )
        .unwrap();
    let inputs = test_inputs(7);
    let mut session = Session::new(machine);
    session.launch_functional(&graph, &inputs).unwrap();
    let cold = session.metrics().pool;
    session.launch_functional(&graph, &inputs).unwrap();
    let warm = session.metrics().pool;
    assert!(
        warm.reused > cold.reused,
        "second launch reuses pooled buffers (cold {cold:?}, warm {warm:?})"
    );
}

/// Missing external inputs fail with a named error, not a panic.
#[test]
fn missing_input_is_reported() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = two_gemm_graph(&machine);
    let mut session = Session::new(machine);
    let err = session
        .launch_functional(&graph, &HashMap::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("missing external input"), "{msg}");
}

/// External inputs must match the parameter's shape and dtype exactly —
/// an equal element count with a different shape or element type is
/// rejected, not silently reinterpreted.
#[test]
fn mis_shaped_and_mis_typed_inputs_are_rejected() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = two_gemm_graph(&machine);
    let mut session = Session::new(machine);

    // 32x128 has the right element count for a 64x64 parameter.
    let mut inputs = test_inputs(8);
    inputs.insert("A".to_string(), Tensor::zeros(DType::F16, &[32, 128]));
    let err = session.launch_functional(&graph, &inputs).unwrap_err();
    assert!(err.to_string().contains("has shape"), "{err}");

    // Right shape, wrong dtype.
    let mut inputs = test_inputs(8);
    inputs.insert("A".to_string(), Tensor::zeros(DType::F32, &[64, 64]));
    let err = session.launch_functional(&graph, &inputs).unwrap_err();
    assert!(err.to_string().contains("has dtype"), "{err}");
}
