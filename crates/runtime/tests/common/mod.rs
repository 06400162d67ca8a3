//! What the runtime's differential suites share: small graph builders,
//! seeded inputs for a graph's external bindings, and the comparisons
//! they make between two runs of one graph.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use cypress_core::kernels::gemm;
use cypress_runtime::{Binding, GraphReport, GraphRun, NodeId, Program, TaskGraph};
use cypress_sim::MachineConfig;
use cypress_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Uniform problem size: every tensor of the small graphs is `D x D`,
/// so any node's primary output can feed any input slot.
pub const D: usize = 64;

/// The library GEMM of `size x size` operands.
pub fn gemm_program(machine: &MachineConfig, size: usize) -> Program {
    Program::from_parts(gemm::build(size, size, size, machine).unwrap(), "gemm")
}

/// Add a node launching `program`, a `(C, A, B)` kernel, on `a` and `b`
/// into a fresh `C`.
pub fn gemm_node(
    graph: &mut TaskGraph,
    name: &str,
    program: &Program,
    a: Binding,
    b: Binding,
) -> NodeId {
    let bindings = vec![Binding::Zeros, a, b];
    graph.add_node(name, program.clone(), bindings).unwrap()
}

/// `up = X·W1` feeding `down = up·W2`, with `up` consumed: the GEMM→GEMM
/// chain the fusion rewriter collapses into one launch.
pub fn gemm_chain(machine: &MachineConfig) -> (TaskGraph, NodeId, NodeId) {
    let program = gemm_program(machine, D);
    let mut graph = TaskGraph::new();
    let [x, w1, w2] = ["X", "W1", "W2"].map(Binding::external);
    let up = gemm_node(&mut graph, "up", &program, x, w1);
    let down = gemm_node(&mut graph, "down", &program, Binding::output(up, 0), w2);
    (graph, up, down)
}

/// Eight independent GEMMs `g{i} = A{i}·B{i}` of `size x size`
/// operands.
pub fn gemm_fanout(machine: &MachineConfig, size: usize) -> TaskGraph {
    let program = gemm_program(machine, size);
    let mut graph = TaskGraph::new();
    for i in 0..8 {
        let [a, b] = [format!("A{i}"), format!("B{i}")].map(Binding::External);
        gemm_node(&mut graph, &format!("g{i}"), &program, a, b);
    }
    graph
}

/// Two independent GEMMs `a` and `b` feeding a third, `c = a·b`: the
/// roots land on two devices under sharding, so one of them crosses the
/// link.
pub fn diamond(machine: &MachineConfig) -> (TaskGraph, [NodeId; 3]) {
    let program = gemm_program(machine, D);
    let mut graph = TaskGraph::new();
    let [a, b] = ["a", "b"].map(|name| {
        let [x, y] = [format!("{name}A"), format!("{name}B")].map(Binding::External);
        gemm_node(&mut graph, name, &program, x, y)
    });
    let [x, y] = [a, b].map(|root| Binding::output(root, 0));
    let c = gemm_node(&mut graph, "c", &program, x, y);
    (graph, [a, b, c])
}

/// Seeded random tensors for every `External` binding of `graph`, each
/// shaped like the first parameter that reads it.
pub fn graph_inputs(graph: &TaskGraph, seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
    let mut inputs = HashMap::new();
    for node in graph.nodes() {
        for (binding, arg) in node.bindings.iter().zip(&node.program.args) {
            if let Binding::External(name) = binding {
                inputs.entry(name.clone()).or_insert_with(|| {
                    Tensor::random(arg.dtype, &[arg.rows, arg.cols], &mut rng, -0.5, 0.5)
                });
            }
        }
    }
    inputs
}

/// Assert `a` and `b` retained the same tensors of `graph`, bit for bit:
/// every parameter of every node is in both runs or in neither.
pub fn assert_runs_match(a: &GraphRun, b: &GraphRun, graph: &TaskGraph, label: &str) {
    for node in graph.nodes() {
        for pi in 0..node.program.args.len() {
            let [x, y] = [a, b].map(|run| run.tensor_of(&node.name, pi).map(Tensor::data));
            assert_eq!(x, y, "{} param {pi} diverged ({label})", node.name);
        }
    }
}

/// A report's recovery overhead is its recovery work: the summed
/// duration of its `retry:` and `xfer:recover:` spans, in timeline
/// order, bit for bit — so never negative.
pub fn assert_overhead_is_recovery_work(report: &GraphReport, label: &str) {
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
