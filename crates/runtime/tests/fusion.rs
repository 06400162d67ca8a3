//! Property suite for the graph-level fusion rewriter.
//!
//! Random DAGs over the paper kernels (plus the standalone
//! row-reduction) are launched twice — [`FusionPolicy::Off`] and
//! [`FusionPolicy::Auto`] — and checked three ways:
//!
//! 1. **Functional differential**: every output tensor the unfused run
//!    retains must be *bitwise identical* under `Auto` (fusion never
//!    changes results, only launch count).
//! 2. **Makespan**: the fused graph's makespan never exceeds the
//!    unfused serial sum — structural, because the session's simulator
//!    gate only applies rewrites that win.
//! 3. **Coverage**: across the generated corpus at least one rewrite of
//!    each rule fires (otherwise the suite would vacuously pass).
//!
//! Degenerate shapes both policies must treat identically — the empty
//! graph, a single node, and a graph that fuses down to a single node —
//! are locked down alongside.

use cypress_core::kernels::{batched, dual_gemm, gemm, gemm_reduction, reduction};
use cypress_core::{EntryArg, LeafFn, MappingSpec, Stmt, TaskRegistry};
use cypress_runtime::{Binding, FusionPolicy, NodeId, Program, SchedulePolicy, Session, TaskGraph};
use cypress_sim::MachineConfig;
use cypress_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Uniform problem size: every consumable tensor is `D x D`.
const D: usize = 64;

/// One of the paper kernels (or the standalone reduction) at the
/// uniform size.
fn node_program(kind: usize, machine: &MachineConfig) -> Program {
    match kind % 6 {
        0 | 5 => Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm"),
        1 => Program::from_parts(batched::build(1, D, D, D, machine).unwrap(), "bgemm"),
        2 => Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual"),
        3 => Program::from_parts(gemm_reduction::build(D, D, D, machine).unwrap(), "gr"),
        _ => Program::from_parts(reduction::build(D, D, machine).unwrap(), "reduce"),
    }
}

/// A random DAG mixing the six node kinds; GEMM is weighted up so
/// GEMM→GEMM chains and GEMM+reduction pairs occur regularly.
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
        let prog = node_program(rng.gen_range(0usize..6), machine);
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

/// Random external inputs matching every `External` binding.
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

proptest! {
    /// Off vs Auto on random DAGs: bitwise-identical retained outputs,
    /// fused makespan never above the unfused serial sum, and the
    /// fusion annotations account exactly for the replaced nodes.
    #[test]
    fn auto_matches_off_bitwise(seed in 0u64..1_000_000) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 5, &machine);
        let inputs = random_inputs(&graph, seed);

        let mut off = Session::new(machine.clone());
        let off_run = off.launch_functional(&graph, &inputs).unwrap();
        let off_timing = off.launch_timing(&graph).unwrap();

        let mut auto = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
        let auto_run = auto.launch_functional(&graph, &inputs).unwrap();

        // Every output tensor the unfused run kept must exist and match
        // bitwise under fusion.
        let mut compared = 0usize;
        for (i, prog) in programs.iter().enumerate() {
            for pi in prog.output_indices() {
                if let Some(want) = off_run.tensor(ids[i], pi) {
                    let got = auto_run.tensor(ids[i], pi).unwrap_or_else(|| {
                        panic!("node {i} param {pi} vanished under fusion (seed {seed})")
                    });
                    prop_assert_eq!(
                        got.data(),
                        want.data(),
                        "node {} param {} diverged under fusion (seed {})",
                        i, pi, seed
                    );
                    compared += 1;
                }
            }
        }
        prop_assert!(compared > 0, "every graph retains at least its sinks");

        // Beyond outputs: wherever both runs expose a parameter tensor
        // (operands of retained nodes included), the bits must match.
        for (i, prog) in programs.iter().enumerate() {
            for pi in 0..prog.args.len() {
                if let (Some(want), Some(got)) =
                    (off_run.tensor(ids[i], pi), auto_run.tensor(ids[i], pi))
                {
                    prop_assert_eq!(
                        got.data(),
                        want.data(),
                        "node {} param {} operand diverged under fusion (seed {})",
                        i, pi, seed
                    );
                }
            }
        }

        // Makespan: the fused serial schedule never loses to unfused.
        let auto_timing = auto.launch_timing(&graph).unwrap();
        let eps = 1e-9 * off_timing.serial_sum().max(1.0);
        prop_assert!(
            auto_timing.makespan <= off_timing.serial_sum() + eps,
            "fused makespan {} > unfused serial sum {} (seed {seed})",
            auto_timing.makespan, off_timing.serial_sum()
        );

        // Fused launches annotate exactly the nodes they replaced, and
        // launch count shrinks by the number of replaced-away nodes.
        let replaced: usize = auto_timing.nodes.iter().map(|n| n.replaced.len()).sum();
        let fused_launches = auto_timing.nodes.iter().filter(|n| !n.replaced.is_empty()).count();
        prop_assert_eq!(auto_timing.nodes.len(), graph.len() - replaced + fused_launches);
        for node in &auto_timing.nodes {
            prop_assert!(
                node.replaced.is_empty() || node.replaced.len() == 2,
                "a rewrite replaced {} nodes", node.replaced.len()
            );
        }

        // Under the concurrent policy the fused graph still satisfies
        // the scheduling invariants.
        auto.set_policy(SchedulePolicy::Concurrent { streams: 3 });
        let conc = auto.launch_timing(&graph).unwrap();
        prop_assert!(conc.critical_path <= conc.makespan + eps);
        prop_assert!(conc.makespan <= auto_timing.makespan + eps);
        let conc_run = auto.launch_functional(&graph, &inputs).unwrap();
        for (i, prog) in programs.iter().enumerate() {
            for pi in prog.output_indices() {
                if let Some(want) = off_run.tensor(ids[i], pi) {
                    prop_assert_eq!(
                        conc_run.tensor(ids[i], pi).unwrap().data(),
                        want.data(),
                        "concurrent fused run diverged (seed {})", seed
                    );
                }
            }
        }
    }
}

/// The rules must actually fire across the generated corpus — run after
/// the property (cargo runs tests in one process, order-independent by
/// generating a dedicated corpus here).
#[test]
fn both_rules_fire_on_the_corpus() {
    let machine = MachineConfig::test_gpu();
    let mut chain = 0usize;
    let mut gr = 0usize;
    for seed in 0..200u64 {
        let (graph, _, _) = random_graph(seed, 5, &machine);
        let mut auto = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
        let report = auto.launch_timing(&graph).unwrap();
        for node in &report.nodes {
            if !node.replaced.is_empty() {
                match graph_rule_of(&graph, &node.replaced) {
                    Rule::Chain => chain += 1,
                    Rule::Gr => gr += 1,
                }
            }
        }
    }
    assert!(chain > 0, "no GEMM->GEMM chain fused in 200 random graphs");
    assert!(gr > 0, "no GEMM+reduction pair fused in 200 random graphs");
}

enum Rule {
    Chain,
    Gr,
}

/// Which rule a fused launch came from, judged by the replaced nodes'
/// programs in the original graph.
fn graph_rule_of(graph: &TaskGraph, replaced: &[String]) -> Rule {
    let any_reduce = replaced.iter().any(|name| {
        graph
            .nodes()
            .iter()
            .any(|n| &n.name == name && n.program.entry == "reduce")
    });
    if any_reduce {
        Rule::Gr
    } else {
        Rule::Chain
    }
}

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
        session.set_policy(SchedulePolicy::Concurrent { streams: 4 });
        let conc = session.launch_timing(&graph).unwrap();
        assert_eq!(conc.makespan, 0.0, "{label}");
    }
}

#[test]
fn single_node_is_identical_under_both_policies() {
    let machine = MachineConfig::test_gpu();
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let id = graph
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
    let inputs = random_inputs(&graph, 99);
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
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let up = graph
        .add_node(
            "up",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::external("W1"),
            ],
        )
        .unwrap();
    let down = graph
        .add_node(
            "down",
            program,
            vec![
                Binding::Zeros,
                Binding::output(up, 0),
                Binding::external("W2"),
            ],
        )
        .unwrap();
    let inputs = random_inputs(&graph, 7);

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
    let before = auto.cache_stats();
    auto.launch_functional(&graph, &inputs).unwrap();
    let after = auto.cache_stats();
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
    let mut genuine = TaskGraph::new();
    let up = genuine
        .add_node(
            "up",
            Program::from_parts(gemm_parts(), "gemm"),
            operands(Binding::external("X"), "W1"),
        )
        .unwrap();
    genuine
        .add_node(
            "down",
            Program::from_parts(gemm_parts(), "gemm"),
            operands(Binding::output(up, 0), "W2"),
        )
        .unwrap();
    genuine
        .add_node(
            "proj",
            Program::from_parts(gemm_parts(), "gemm"),
            operands(Binding::external("Y"), "W3"),
        )
        .unwrap();
    genuine
        .add_node(
            "stat",
            Program::from_parts(reduce_parts(), "reduce"),
            vec![Binding::Zeros, Binding::external("Y")],
        )
        .unwrap();
    warm.launch_functional(&genuine, &random_inputs(&genuine, 3))
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
        let inputs = random_inputs(&graph, 11);

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
    use cypress_runtime::MappingPolicy;
    let machine = MachineConfig::test_gpu();
    let program = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let up = graph
        .add_node(
            "up",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::external("W1"),
            ],
        )
        .unwrap();
    let down = graph
        .add_node(
            "down",
            program,
            vec![
                Binding::Zeros,
                Binding::output(up, 0),
                Binding::external("W2"),
            ],
        )
        .unwrap();
    let inputs = random_inputs(&graph, 11);

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
