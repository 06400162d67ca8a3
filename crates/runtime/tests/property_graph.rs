//! Property-based differential tests of the task-graph runtime.
//!
//! Random DAGs over the five paper kernels (GEMM, batched-GEMM,
//! dual-GEMM, GEMM+Reduction, FlashAttention-2) with random
//! fan-out/fan-in and retain flags are checked two ways:
//!
//! 1. **Functional differential**: the graph run must be
//!    *tensor-identical* (bitwise) to an oracle that hand-composes the
//!    same schedule out of single-kernel `Simulator::run_functional`
//!    calls, threading buffers by hand.
//! 2. **Timing invariants**: under every policy and stream count,
//!    `critical_path <= makespan <= serial_sum`; the serial policy is the
//!    back-to-back topological walk (checked against a prefix-sum oracle
//!    that never touches the engine), and one stream reproduces it
//!    exactly.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::{MappingConfig, MappingSpace, Shape};
use cypress_runtime::{Binding, NodeId, Program, SchedulePolicy, Session, TaskGraph};
use cypress_sim::{MachineConfig, Simulator};
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
                // One 64-row warpgroup so the uniform D x D size tiles.
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

/// A random DAG over the paper kernels: each non-output parameter either
/// takes a tensor-buffer edge from a random compatible earlier node
/// (fan-out and fan-in arise naturally) or an external input; each node
/// is retained with probability one half.
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
            // Candidate producers whose primary output fits this slot.
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

/// Hand-composed oracle: walk the deterministic schedule and launch each
/// node as its own `Simulator::run_functional` call, threading buffers
/// manually. Returns every node's final parameter tensors.
fn oracle_run(
    graph: &TaskGraph,
    machine: &MachineConfig,
    inputs: &HashMap<String, Tensor>,
) -> Vec<Vec<Tensor>> {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut results: Vec<Option<Vec<Tensor>>> = vec![None; graph.len()];
    for &id in &graph.schedule() {
        let node = &graph.nodes()[id.index()];
        let p = &node.program;
        let compiled = compiler
            .compile(&p.registry, &p.mapping, &p.entry, &p.args)
            .expect("paper kernels compile");
        let params: Vec<Tensor> = node
            .bindings
            .iter()
            .enumerate()
            .map(|(pi, b)| match b {
                Binding::External(name) => inputs[name].clone(),
                Binding::Output { node: src, param } => results[src.index()]
                    .as_ref()
                    .expect("schedule is topological")[*param]
                    .clone(),
                Binding::Zeros => {
                    let arg = &p.args[pi];
                    Tensor::zeros(arg.dtype, &[arg.rows, arg.cols])
                }
            })
            .collect();
        let run = sim
            .run_functional(&compiled.kernel, params)
            .expect("oracle launch succeeds");
        results[id.index()] = Some(run.params);
    }
    results.into_iter().map(|r| r.expect("node ran")).collect()
}

proptest! {
    /// The graph run is tensor-identical to the hand-composed oracle for
    /// every retained or sink node's every parameter.
    #[test]
    fn functional_graph_matches_single_kernel_oracle(seed in 0u64..1_000_000) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 4, &machine);
        let inputs = random_inputs(&graph, seed);
        let mut session = Session::new(machine.clone());
        let run = session.launch_functional(&graph, &inputs).unwrap();
        let oracle = oracle_run(&graph, &machine, &inputs);
        let mut compared = 0usize;
        for (i, &id) in ids.iter().enumerate() {
            for (pi, want) in oracle[i].iter().enumerate().take(programs[i].args.len()) {
                if let Some(t) = run.tensor(id, pi) {
                    prop_assert_eq!(
                        t.data(),
                        want.data(),
                        "node {} param {} diverged from the oracle (seed {})",
                        i, pi, seed
                    );
                    compared += 1;
                }
            }
        }
        prop_assert!(compared > 0, "every graph retains at least its sinks");
    }

    /// Timing invariants for every generated DAG and stream count:
    /// `critical_path <= makespan <= serial_sum`, one stream reproduces
    /// the serial policy bit for bit, and concurrent scheduling never
    /// loses to serial.
    #[test]
    fn concurrent_timing_invariants(seed in 0u64..1_000_000, streams in 1usize..5) {
        let machine = MachineConfig::test_gpu();
        let (graph, _, _) = random_graph(seed, 6, &machine);
        let mut session = Session::new(machine.clone());
        let serial = session.launch_timing(&graph).unwrap();
        prop_assert_eq!(serial.makespan, serial.serial_sum(),
            "serial makespan is the serial sum by definition");
        // The back-to-back walk, recomputed without the engine: nodes in
        // `graph.schedule()` order, each starting at the running sum of
        // the solo cycles before it.
        let schedule = graph.schedule();
        prop_assert_eq!(serial.nodes.len(), schedule.len());
        let mut cursor = 0.0f64;
        for (timing, id) in serial.nodes.iter().zip(&schedule) {
            prop_assert_eq!(&timing.node, &graph.nodes()[id.index()].name,
                "serial order is the topological schedule (seed {})", seed);
            prop_assert_eq!(timing.start.to_bits(), cursor.to_bits(),
                "{} starts at the prefix sum (seed {})", timing.node, seed);
            cursor += timing.report.cycles;
            prop_assert_eq!(timing.end.to_bits(), cursor.to_bits(),
                "{} ends one solo launch later (seed {})", timing.node, seed);
            prop_assert_eq!((timing.device, timing.stream), (0, 0));
        }

        session.set_policy(SchedulePolicy::Concurrent { streams });
        let conc = session.launch_timing(&graph).unwrap();
        let eps = 1e-9 * serial.makespan.max(1.0);
        prop_assert!(conc.critical_path <= conc.makespan + eps,
            "critical path {} > makespan {} (seed {seed}, streams {streams})",
            conc.critical_path, conc.makespan);
        prop_assert!(conc.makespan <= conc.serial_sum() + eps,
            "makespan {} > serial sum {} (seed {seed}, streams {streams})",
            conc.makespan, conc.serial_sum());
        prop_assert!(conc.makespan <= serial.makespan + eps,
            "concurrent lost to serial (seed {seed}, streams {streams})");
        prop_assert!((conc.serial_sum() - serial.serial_sum()).abs() <= eps,
            "solo node costs must not depend on the policy");
        if streams == 1 {
            prop_assert_eq!(conc.makespan, serial.makespan,
                "one stream reproduces serial numbers exactly");
        }

        // Completions pop in nondecreasing end order (the engine only
        // moves forward), and the makespan is their maximum — the
        // scheduler folds with `max` so neither property can silently
        // break the other.
        let mut last_end = 0.0f64;
        for n in &conc.nodes {
            prop_assert!(n.end >= last_end,
                "completion order regressed in time (seed {seed}, streams {streams})");
            last_end = n.end;
        }
        prop_assert_eq!(conc.makespan, last_end.max(0.0),
            "makespan is the latest completion");

        // Same graph, same policy, scheduled twice: identical reports.
        let again = session.launch_timing(&graph).unwrap();
        prop_assert_eq!(conc.makespan, again.makespan);
        for (a, b) in conc.nodes.iter().zip(again.nodes.iter()) {
            prop_assert_eq!(&a.node, &b.node);
            prop_assert_eq!(a.stream, b.stream);
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
        }
    }

    /// Re-binding fresh inputs against a [`CompiledGraph`] handle is
    /// bitwise identical to a fresh `launch_functional` of the same
    /// graph, across schedule policies and host worker counts — the
    /// compile-once/launch-many path never drifts from the
    /// compile-every-time path.
    #[test]
    fn compiled_graph_rebind_matches_fresh_launch(seed in 0u64..1_000_000) {
        let machine = MachineConfig::test_gpu();
        let (graph, ids, programs) = random_graph(seed, 4, &machine);
        let mut session = Session::new(machine.clone());
        let compiled = session.compile_graph(&graph).unwrap();
        prop_assert_eq!(compiled.launch_count(), graph.len());
        prop_assert!(!compiled.is_fused(), "fusion is off by default");
        for policy in [SchedulePolicy::Serial, SchedulePolicy::Concurrent { streams: 2 }] {
            for parallelism in [1usize, 8] {
                session.set_policy(policy);
                session.set_parallelism(parallelism);
                // Two rounds of fresh inputs per configuration: the
                // handle must be reusable, not single-shot.
                for round in 0..2u64 {
                    let inputs = random_inputs(&graph, seed ^ (round + 1));
                    let rebind = session.launch_compiled(&compiled, &inputs).unwrap();
                    let fresh = session.launch_functional(&graph, &inputs).unwrap();
                    let mut compared = 0usize;
                    for (i, &id) in ids.iter().enumerate() {
                        for pi in 0..programs[i].args.len() {
                            match (rebind.tensor(id, pi), fresh.tensor(id, pi)) {
                                (Some(a), Some(b)) => {
                                    prop_assert_eq!(a.data(), b.data(),
                                        "node {} param {} diverged on re-bind (seed {seed})",
                                        i, pi);
                                    compared += 1;
                                }
                                (None, None) => {}
                                _ => prop_assert!(false,
                                    "re-bind retained a different tensor set (seed {seed})"),
                            }
                        }
                    }
                    prop_assert!(compared > 0, "every graph retains at least its sinks");
                }
            }
        }
    }
}

/// The compiled-graph handle freezes the fusion rewrite and keeps its
/// kernels alive independently of the session cache: re-binding after
/// [`Session::clear`] still launches, and fused results still come back
/// addressed by the original graph's node ids.
#[test]
fn compiled_graph_rebind_survives_fusion_and_cache_clear() {
    use cypress_runtime::FusionPolicy;
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

    let mut session = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
    let compiled = session.compile_graph(&graph).unwrap();
    assert!(compiled.is_fused(), "the GEMM chain fuses on this machine");
    assert_eq!(compiled.launch_count(), 1);
    assert_eq!(compiled.graph().len(), 2);

    for round in 0..2u64 {
        let inputs = random_inputs(&graph, 1000 + round);
        if round == 1 {
            // Evicting every cached kernel must not invalidate the
            // handle: it owns its compiled launches.
            session.clear();
        }
        let rebind = session.launch_compiled(&compiled, &inputs).unwrap();
        let fresh = session.launch_functional(&graph, &inputs).unwrap();
        let a = rebind.tensor(down, 0).expect("sink tensor retained");
        let b = fresh.tensor(down, 0).expect("sink tensor retained");
        assert_eq!(a.data(), b.data(), "fused re-bind diverged (round {round})");
    }
}
