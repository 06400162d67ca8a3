//! The graph-level fusion rewriter on fixed graphs.
//!
//! On random DAGs, `policy_product.rs` holds [`FusionPolicy::Auto`] to
//! the single-kernel oracle bit for bit, bounds the fused makespan by
//! the unfused serial sum, accounts for every replaced node, and counts
//! both rules firing. The tests here lock down what a random draw does
//! not reach: degenerate graphs both policies must treat identically —
//! empty, a single node, a pair that fuses down to a single launch —
//! library look-alikes that must stay unfused, and fusion under
//! autotuning.

mod common;

use common::{gemm_chain, gemm_node, gemm_program, graph_inputs, D};
use cypress_core::kernels::{gemm, reduction};
use cypress_core::{EntryArg, LeafFn, MappingSpec, Stmt, TaskRegistry};
use cypress_runtime::{
    Binding, FusionPolicy, MappingPolicy, Program, SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::MachineConfig;
use cypress_tensor::Tensor;
use std::collections::HashMap;
// ---------------------------------------------------------------------------
// Degenerate graphs both policies must handle identically.
// ---------------------------------------------------------------------------

fn sessions() -> [(&'static str, Session); 2] {
    let machine = MachineConfig::test_gpu();
    [
        ("off", Session::new(machine.clone())),
        (
            "auto",
            Session::new(machine).with_fusion_policy(FusionPolicy::Auto),
        ),
    ]
}

#[test]
fn empty_graph_is_a_no_op_under_both_policies() {
    let graph = TaskGraph::new();
    for (label, mut session) in sessions() {
        let run = session.launch_functional(&graph, &HashMap::new()).unwrap();
        assert_eq!(run.report.nodes.len(), 0, "{label}");
        assert_eq!(run.report.makespan, 0.0, "{label}");
        let timing = session.launch_timing(&graph).unwrap();
        assert_eq!(timing.makespan, 0.0, "{label}");
        assert_eq!(timing.critical_path, 0.0, "{label}");
        session = session.with_policy(SchedulePolicy::Concurrent { streams: 4 });
        let conc = session.launch_timing(&graph).unwrap();
        assert_eq!(conc.makespan, 0.0, "{label}");
    }
}

#[test]
fn single_node_is_identical_under_both_policies() {
    let program = gemm_program(&MachineConfig::test_gpu(), D);
    let mut graph = TaskGraph::new();
    let [a, b] = ["A", "B"].map(Binding::external);
    let id = gemm_node(&mut graph, "only", &program, a, b);
    let inputs = graph_inputs(&graph, 99);
    let mut runs = Vec::new();
    for (_, mut session) in sessions() {
        let run = session.launch_functional(&graph, &inputs).unwrap();
        assert!(run.report.nodes.iter().all(|n| n.replaced.is_empty()));
        runs.push(run);
    }
    let want = runs[0].tensor(id, 0).unwrap();
    assert_eq!(runs[1].tensor(id, 0).unwrap().data(), want.data());
}

#[test]
fn chain_pair_fuses_to_a_single_launch() {
    let machine = MachineConfig::test_gpu();
    let (graph, up, down) = gemm_chain(&machine);
    let inputs = graph_inputs(&graph, 7);

    let mut off = Session::new(machine.clone());
    let off_run = off.launch_functional(&graph, &inputs).unwrap();
    let off_timing = off.launch_timing(&graph).unwrap();

    let mut auto = Session::new(machine).with_fusion_policy(FusionPolicy::Auto);
    let auto_run = auto.launch_functional(&graph, &inputs).unwrap();
    let auto_timing = auto.launch_timing(&graph).unwrap();

    // One launch, annotated with both original nodes, faster than the
    // two-launch chain, bitwise-identical output.
    assert_eq!(auto_timing.nodes.len(), 1);
    assert_eq!(auto_timing.nodes[0].replaced, vec!["up", "down"]);
    assert!(auto_timing.makespan < off_timing.makespan);
    assert_eq!(
        auto_run.tensor(down, 0).unwrap().data(),
        off_run.tensor(down, 0).unwrap().data()
    );
    // The dead intermediate is gone under fusion.
    assert!(auto_run.tensor(up, 0).is_none());
    assert!(off_run.tensor(up, 0).is_none(), "consumed in both runs");
    // The consumer is a kept sink, so its surviving operands come back
    // under fusion too (the W2 operand lives on as the fused node's B2).
    assert_eq!(
        auto_run.tensor(down, 2).unwrap().data(),
        off_run.tensor(down, 2).unwrap().data(),
        "a retained node's operand parameters survive fusion"
    );

    // A second launch serves the fused kernel from the cache.
    let before = auto.metrics().cache;
    auto.launch_functional(&graph, &inputs).unwrap();
    let after = auto.metrics().cache;
    assert_eq!(before.misses, after.misses, "fused fingerprints are stable");
}

/// `parts` with every zero-fill replaced by a one-fill: a GEMM that
/// computes `A·B + 1` (a reduction that computes `Σ + 1`) under the
/// library kernel's entry name, arity, shapes and mapping.
fn biased(
    (registry, mapping, args): (TaskRegistry, MappingSpec, Vec<EntryArg>),
) -> (TaskRegistry, MappingSpec, Vec<EntryArg>) {
    let mut look_alike = TaskRegistry::new();
    for variant in registry.iter() {
        let mut variant = variant.clone();
        for stmt in &mut variant.body {
            if let Stmt::CallExternal { f, .. } = stmt {
                if *f == LeafFn::Fill(0.0) {
                    *f = LeafFn::Fill(1.0);
                }
            }
        }
        look_alike.register(variant).unwrap();
    }
    (look_alike, mapping, args)
}

/// The rewriter knows a library kernel by its definition, not its entry
/// name: a member that only looks like a GEMM or a row-reduction stays
/// unfused, in either position of either rule, and `Auto` returns
/// `Off`'s tensors bit for bit — on a fresh session, and on one that
/// already fused the genuine pairs at the same shapes, so a memo of the
/// classification or of the fused programs keyed by anything the
/// look-alikes share (entry name, arity, shape) fuses them and fails.
#[test]
fn look_alikes_of_library_kernels_are_not_fused() {
    let machine = MachineConfig::test_gpu();
    let gemm_parts = || gemm::build(D, D, D, &machine).unwrap();
    let reduce_parts = || reduction::build(D, D, &machine).unwrap();
    let operands = |a: Binding, b: &str| vec![Binding::Zeros, a, Binding::external(b)];

    let mut warm = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
    let (mut genuine, _, _) = gemm_chain(&machine);
    let [y, w3] = ["Y", "W3"].map(Binding::external);
    gemm_node(&mut genuine, "proj", &gemm_program(&machine, D), y, w3);
    let stat = vec![Binding::Zeros, Binding::external("Y")];
    let reduce = Program::from_parts(reduce_parts(), "reduce");
    genuine.add_node("stat", reduce, stat).unwrap();
    warm.launch_functional(&genuine, &graph_inputs(&genuine, 3))
        .unwrap();
    let fused = warm.launch_timing(&genuine).unwrap();
    let replaced: Vec<_> = fused.nodes.iter().map(|n| n.replaced.clone()).collect();
    assert!(replaced.contains(&vec!["up".to_string(), "down".to_string()]));
    assert!(replaced.contains(&vec!["proj".to_string(), "stat".to_string()]));

    let cases = [
        ("chain producer", biased(gemm_parts()), gemm_parts(), true),
        ("chain consumer", gemm_parts(), biased(gemm_parts()), true),
        ("reduced gemm", biased(gemm_parts()), reduce_parts(), false),
        ("reduction", gemm_parts(), biased(reduce_parts()), false),
    ];
    for (what, first, second, chained) in cases {
        let mut graph = TaskGraph::new();
        let first = Program::from_parts(first, "gemm");
        let up = graph
            .add_node("first", first, operands(Binding::external("X"), "W1"))
            .unwrap();
        let down = if chained {
            let second = Program::from_parts(second, "gemm");
            let bindings = operands(Binding::output(up, 0), "W2");
            graph.add_node("second", second, bindings).unwrap()
        } else {
            let second = Program::from_parts(second, "reduce");
            let bindings = vec![Binding::Zeros, Binding::external("X")];
            graph.add_node("second", second, bindings).unwrap()
        };
        let inputs = graph_inputs(&graph, 11);

        let mut off = Session::new(machine.clone());
        let off_run = off.launch_functional(&graph, &inputs).unwrap();
        let mut fresh = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
        for (session, which) in [(&mut fresh, "fresh"), (&mut warm, "warm")] {
            let auto_run = session.launch_functional(&graph, &inputs).unwrap();
            let auto_timing = session.launch_timing(&graph).unwrap();

            let what = format!("{what} on a {which} session");
            assert_eq!(auto_timing.nodes.len(), 2, "{what}: both launches remain");
            assert!(auto_timing.nodes.iter().all(|n| n.replaced.is_empty()));
            for node in [up, down] {
                assert_eq!(
                    auto_run.tensor(node, 0).map(Tensor::data),
                    off_run.tensor(node, 0).map(Tensor::data),
                    "{what}: output diverged under fusion"
                );
            }
        }
    }
}

#[test]
fn fusion_composes_with_autotuning() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, down) = gemm_chain(&machine);
    let inputs = graph_inputs(&graph, 11);

    let mut off = Session::new(machine.clone());
    let want = off.launch_functional(&graph, &inputs).unwrap();

    let mut tuned = Session::new(machine)
        .with_fusion_policy(FusionPolicy::Auto)
        .with_mapping_policy(MappingPolicy::Autotune);
    let got = tuned.launch_functional(&graph, &inputs).unwrap();
    assert_eq!(
        got.tensor(down, 0).unwrap().data(),
        want.tensor(down, 0).unwrap().data(),
        "fused + autotuned still matches the unfused default bitwise"
    );
    let report = tuned.launch_timing(&graph).unwrap();
    assert_eq!(report.nodes.len(), 1, "the fused node autotunes as one");
    assert!(report.nodes[0].tuned_speedup >= 1.0);
}
