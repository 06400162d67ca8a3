//! The mapping-space / autotuner contract.
//!
//! 1. **Space soundness (property)**: for seeded random shapes over all
//!    five paper kernels, *every* candidate the kernel's `MappingSpace`
//!    emits compiles, and its functional output through the runtime's
//!    `Session` is bitwise identical to the default mapping's —
//!    autotuning can never change results. (The workspace's
//!    `tests/cross_crate.rs` checks the same over all ten families at the
//!    compiler level.)
//! 2. **Determinism**: two fresh sessions autotuning the same program
//!    pick the same winner with the same cycle counts.
//! 3. **Persistence**: tuning tables round-trip through their text
//!    serialization, and an imported table serves autotune calls without
//!    re-timing.
//! 4. **Transparency**: `MappingPolicy::Autotune` graph launches return
//!    tensors bit-identical to `MappingPolicy::Default`, never report a
//!    per-node `tuned_speedup` below 1.0, and never lose to the default
//!    on the serial makespan.
//! 5. **Sweep fingerprints**: a sweep compiles the program it is given,
//!    adding only each candidate's mapping, and still caches every
//!    candidate under the fingerprint a solo compile of its full build
//!    computes.

use cypress_core::kernels::space::{MappingConfig, MappingSpace, Shape};
use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::{CompilerOptions, CypressCompiler};
use cypress_runtime::telemetry::{Event, TraceLog};
use cypress_runtime::{Binding, MappingPolicy, Program, RuntimeError, Session, TuningTable};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

#[allow(dead_code)]
#[path = "../../core/tests/golden/shared.rs"]
mod shared;

/// The five paper kernels' spaces (attention once per algorithm).
fn paper_spaces() -> Vec<Arc<dyn MappingSpace>> {
    vec![
        Arc::new(gemm::GemmSpace),
        Arc::new(batched::BatchedGemmSpace),
        Arc::new(dual_gemm::DualGemmSpace),
        Arc::new(gemm_reduction::GemmReductionSpace),
        Arc::new(attention::AttentionSpace {
            algorithm: attention::Algorithm::Fa2,
        }),
        Arc::new(attention::AttentionSpace {
            algorithm: attention::Algorithm::Fa3,
        }),
    ]
}

/// The extents [`random_shape`] draws from: GEMM-like extents are
/// multiples of the test machine's 64-wide tiles, attention sequences of
/// its Br=128 row bands (Bc=64, FA3 eats two per iteration; head_dim
/// 64), so the default mapping always applies.
const MNK: [usize; 3] = [64, 128, 192];
const BATCHES: [usize; 2] = [1, 2];
const FA_ROWS: [usize; 2] = [128, 256];

/// A random valid shape for `space`, one of [`every_shape`]'s.
fn random_shape(space: &dyn MappingSpace, rng: &mut StdRng) -> Shape {
    let mut pick = |extents: &[usize]| extents[rng.gen_range(0..extents.len())];
    match space.entry() {
        "bgemm" => Shape::of(&[pick(&BATCHES), pick(&MNK), pick(&MNK), pick(&MNK)]),
        "fa" => Shape::of(&[pick(&BATCHES), pick(&FA_ROWS), 64]),
        _ => Shape::of(&[pick(&MNK), pick(&MNK), pick(&MNK)]),
    }
}

/// Every shape [`random_shape`] can draw for `space`.
fn every_shape(space: &dyn MappingSpace) -> Vec<Shape> {
    let product = |axes: &[&[usize]]| {
        axes.iter()
            .fold(vec![Vec::new()], |dims: Vec<Vec<usize>>, axis| {
                dims.iter()
                    .flat_map(|d| axis.iter().map(move |&x| [d.as_slice(), &[x]].concat()))
                    .collect()
            })
    };
    let dims = match space.entry() {
        "bgemm" => product(&[&BATCHES, &MNK, &MNK, &MNK]),
        "fa" => product(&[&BATCHES, &FA_ROWS, &[64]]),
        _ => product(&[&MNK, &MNK, &MNK]),
    };
    dims.iter().map(|d| Shape::of(d)).collect()
}

/// Random inputs for every entry parameter of `program`.
fn random_params(program: &Program, rng: &mut StdRng) -> Vec<Tensor> {
    program
        .args
        .iter()
        .map(|a| Tensor::random(DType::F16, &[a.rows, a.cols], rng, -0.5, 0.5))
        .collect()
}

#[test]
fn every_candidate_compiles_and_matches_the_default_bitwise() {
    let machine = MachineConfig::test_gpu();
    let mut rng = StdRng::seed_from_u64(0x5AC3);
    for space in paper_spaces() {
        for case in 0..3 {
            let shape = random_shape(space.as_ref(), &mut rng);
            let program = Program::from_space(Arc::clone(&space), shape.clone(), &machine)
                .unwrap_or_else(|e| panic!("{} {shape}: default build failed: {e}", space.entry()));
            let mut session = Session::new(machine.clone());
            let inputs = random_params(&program, &mut rng);
            let want = session
                .run_functional(&program, inputs.clone())
                .unwrap_or_else(|e| panic!("{} {shape}: default run failed: {e}", space.entry()));

            let candidates = space.candidates(&machine, &shape);
            assert!(
                candidates.contains(&space.default_for(&machine)),
                "{} {shape}: candidate list must include the default",
                space.entry()
            );
            for cfg in &candidates {
                let parts = space.build(&shape, cfg).unwrap_or_else(|e| {
                    panic!(
                        "{} {shape} {}: emitted candidate failed to build: {e}",
                        space.entry(),
                        cfg.label()
                    )
                });
                let candidate = Program::from_parts(parts, space.entry());
                let got = session
                    .run_functional(&candidate, inputs.clone())
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} {shape} {}: emitted candidate failed to compile/run: {e}",
                            space.entry(),
                            cfg.label()
                        )
                    });
                for (pi, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(
                        g.data(),
                        w.data(),
                        "{} {shape} case {case} {}: param {pi} diverged from the default mapping",
                        space.entry(),
                        cfg.label()
                    );
                }
            }
        }
    }
}

#[test]
fn autotuning_is_deterministic_across_sessions() {
    let machine = MachineConfig::test_gpu();
    for space in paper_spaces() {
        let shape = match space.entry() {
            "bgemm" => Shape::of(&[2, 128, 128, 64]),
            "fa" => Shape::of(&[1, 256, 64]),
            _ => Shape::of(&[128, 128, 64]),
        };
        let program = Program::from_space(Arc::clone(&space), shape, &machine).unwrap();
        let a = Session::new(machine.clone()).autotune(&program).unwrap();
        let b = Session::new(machine.clone()).autotune(&program).unwrap();
        assert_eq!(a, b, "{}: sessions disagree on the winner", space.entry());
        assert!(
            a.tuned_cycles <= a.default_cycles,
            "{}: tuned {} cycles lost to the default {}",
            space.entry(),
            a.tuned_cycles,
            a.default_cycles
        );
        assert!(a.speedup() >= 1.0);
        assert!(a.candidates >= 1);
    }
}

#[test]
fn autotune_results_are_cached_in_the_table() {
    let machine = MachineConfig::test_gpu();
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[128, 128, 128]),
        &machine,
    )
    .unwrap();
    let mut session = Session::new(machine);
    let first = session.autotune(&program).unwrap();
    let misses = session.metrics().cache.misses;
    assert_eq!(
        misses as usize, first.candidates,
        "one compile per candidate"
    );
    // Second call is served from the table: no new compiles, same answer.
    let second = session.autotune(&program).unwrap();
    assert_eq!(first, second);
    assert_eq!(session.metrics().cache.misses, misses);
    assert_eq!(session.tuning_table().len(), 1);
}

/// A sweep compiles the program it is given, which its space built at
/// the swept shape, and adds only each candidate's mapping, hashed from
/// the program's computation hash. So for every paper space at a small
/// shape and every `families()` space at both pinned shapes on the test
/// GPU, after a cold sweep of the space's default program and one of a
/// program built at another candidate, `Session::compile` of every
/// candidate's full `build` is a kernel-cache hit, of a kernel with that
/// build's parameters.
#[test]
fn every_swept_candidate_compiles_from_the_cache() {
    use cypress_runtime::TunerBudget;
    let machine = MachineConfig::test_gpu();
    let mut cases: Vec<(Arc<dyn MappingSpace>, Shape)> = paper_spaces()
        .into_iter()
        .map(|space| {
            let shape = match space.entry() {
                "bgemm" => Shape::of(&[2, 128, 128, 64]),
                "fa" => Shape::of(&[1, 256, 64]),
                _ => Shape::of(&[128, 128, 64]),
            };
            (space, shape)
        })
        .collect();
    for (_, space, shapes) in shared::families() {
        let space: Arc<dyn MappingSpace> = Arc::from(space);
        cases.extend(shapes.into_iter().map(|shape| (Arc::clone(&space), shape)));
    }
    let mut hits = 0;
    for (space, shape) in cases {
        let candidates = space.candidates(&machine, &shape);
        if candidates.is_empty() {
            continue;
        }
        let default = space.default_for(&machine);
        let what = format!("{} {shape}", space.entry());
        // A default that does not fit here (the pinned-V GEMM+Reduction
        // on the test GPU) has no `from_space` program.
        let mut programs: Vec<_> = Program::from_space(Arc::clone(&space), shape.clone(), &machine)
            .into_iter()
            .collect();
        if let Some(other) = candidates.iter().rev().find(|cfg| **cfg != default) {
            programs.push(
                Program::from_space_at(Arc::clone(&space), shape.clone(), other, &machine)
                    .unwrap_or_else(|e| panic!("{what} {}: {e}", other.label())),
            );
        }
        for program in programs {
            let mut session = Session::new(machine.clone());
            session
                .autotune_with(&program, TunerBudget::Exhaustive)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            for cfg in &candidates {
                let what = format!("{what} {}", cfg.label());
                let candidate =
                    Program::from_parts(space.build(&shape, cfg).unwrap(), space.entry());
                let misses = session.metrics().cache.misses;
                let compiled = session
                    .compile(&candidate)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(
                    session.metrics().cache.misses,
                    misses,
                    "{what}: the sweep cached it under another fingerprint"
                );
                let params: Vec<_> = compiled
                    .kernel
                    .params
                    .iter()
                    .map(|p| (&p.name, p.rows, p.cols))
                    .collect();
                let args: Vec<_> = candidate
                    .args
                    .iter()
                    .map(|a| (&a.name, a.rows, a.cols))
                    .collect();
                assert_eq!(params, args, "{what}: the sweep compiled other arguments");
                hits += 1;
            }
        }
    }
    assert!(hits > 0, "some space sweeps on the test GPU");
}

/// What an exhaustive sweep must compute, spelled out without a
/// session: enumerate, build, compile, solo-time every candidate in a
/// plain loop; the first strict minimum wins. Candidates the builder or
/// the compiler rejects are skipped. Returns the winner, its cycles, the
/// default's cycles, the candidates enumerated and every compiled
/// candidate's cycles by label.
fn oracle_sweep(
    space: &dyn MappingSpace,
    shape: &Shape,
    machine: &MachineConfig,
) -> (MappingConfig, f64, f64, usize, HashMap<String, f64>) {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let simulator = Simulator::new(machine.clone());
    let default_cfg = space.default_for(machine);
    let candidates = space.candidates(machine, shape);
    let mut default_cycles = None;
    let mut best: Option<(f64, MappingConfig)> = None;
    let mut timed = HashMap::new();
    for cfg in &candidates {
        let Ok((registry, mapping, args)) = space.build(shape, cfg) else {
            continue;
        };
        let Ok(compiled) = compiler.compile(&registry, &mapping, space.entry(), &args) else {
            continue;
        };
        let cycles = simulator.run_timing(&compiled.kernel).unwrap().cycles;
        timed.insert(cfg.label(), cycles);
        if *cfg == default_cfg {
            default_cycles = Some(cycles);
        }
        if best.as_ref().is_none_or(|(c, _)| cycles < *c) {
            best = Some((cycles, *cfg));
        }
    }
    let (tuned_cycles, config) = best.expect("a paper space has a candidate that compiles");
    (
        config,
        tuned_cycles,
        default_cycles.unwrap_or(tuned_cycles),
        candidates.len(),
        timed,
    )
}

/// The sweep is what the session-free oracle says it is, at every worker
/// count: for every paper kernel on the test GPU, and for H100 FA3 at
/// 16×2048×128 (where the floors rule out two of the four candidates),
/// sessions tuning on 1, 2 and 8 workers pick the oracle's winner with
/// the oracle's cycle counts — though they skip the candidates their
/// floors rule out and cut the runs proven slower than the default —
/// and leave identical kernel-cache counters, timed, cut and bounded
/// counts and `TunerCandidate` streams behind: the workers only change
/// wall time.
#[test]
fn sweep_matches_a_session_free_oracle_at_every_worker_count() {
    let test_gpu = MachineConfig::test_gpu();
    let mut rng = StdRng::seed_from_u64(31);
    let mut cases: Vec<_> = paper_spaces()
        .into_iter()
        .map(|space| {
            let shape = random_shape(space.as_ref(), &mut rng);
            (test_gpu.clone(), space, shape)
        })
        .collect();
    cases.push((
        MachineConfig::h100_sxm5(),
        paper_spaces().pop().expect("FA3 is the last paper space"),
        Shape::of(&[16, 2048, 128]),
    ));
    let (mut bounded, mut cut) = (0, 0);
    for (machine, space, shape) in cases {
        let Ok(program) = Program::from_space(Arc::clone(&space), shape.clone(), &machine) else {
            continue;
        };
        let (config, tuned_cycles, default_cycles, candidates, oracle) =
            oracle_sweep(space.as_ref(), &shape, &machine);
        let mut cache_stats = None;
        let mut sweep_record = None;
        for parallelism in [1, 2, 8] {
            let log = TraceLog::new();
            let mut session = Session::new(machine.clone())
                .with_parallelism(parallelism)
                .with_recorder(log.clone());
            let got = session.autotune(&program).unwrap();
            let label = format!(
                "{} {} {shape} at parallelism {parallelism}",
                machine.name,
                space.entry()
            );
            assert_eq!(got.config, config, "{label}");
            assert_eq!(
                got.tuned_cycles.to_bits(),
                tuned_cycles.to_bits(),
                "{label}"
            );
            assert_eq!(
                got.default_cycles.to_bits(),
                default_cycles.to_bits(),
                "{label}"
            );
            assert_eq!(got.candidates, candidates, "{label}");
            let stats = session.metrics().cache;
            assert_eq!(
                *cache_stats.get_or_insert(stats),
                stats,
                "cache counters depend on the worker count ({label})"
            );
            let tuner = session.metrics().tuner;
            let streamed: Vec<(String, Option<f64>, Option<f64>, f64)> = log
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::TunerCandidate {
                        config,
                        cycles,
                        cut,
                        floor,
                        ..
                    } => Some((config, cycles, cut, floor)),
                    _ => None,
                })
                .collect();
            // The default seeds every sweep here. A candidate is timed
            // exactly when its floor is below the default's cycles, or
            // equal to them and earlier in enumeration order; a timed
            // one runs whole exactly when the oracle's cycles are at or
            // below the default's, and is cut otherwise, at a bound
            // between the two.
            let default_label = space.default_for(&machine).label();
            let seed = streamed
                .iter()
                .position(|(config, ..)| *config == default_label)
                .expect("the default compiles");
            for (i, (config, cycles, cut, floor)) in streamed.iter().enumerate() {
                let timed =
                    i == seed || *floor < default_cycles || (*floor == default_cycles && i < seed);
                let want = oracle[config];
                let whole = timed && want <= default_cycles;
                let why = format!(
                    "{label}: {config} has floor {floor} and {want} cycles, \
                     the default {default_cycles}"
                );
                assert_eq!(
                    cycles.map(f64::to_bits),
                    whole.then_some(want.to_bits()),
                    "{why}"
                );
                assert_eq!(cut.is_some(), timed && !whole, "{why}");
                assert!(
                    cut.is_none_or(|b| default_cycles < b && b <= want),
                    "{why}: cut at {cut:?}"
                );
            }
            let record = (tuner.candidates_timed, tuner.cut, tuner.bounded, streamed);
            assert_eq!(
                *sweep_record.get_or_insert_with(|| record.clone()),
                record,
                "timed / cut / bounded candidates depend on the worker count ({label})"
            );
            bounded += tuner.bounded;
            cut += tuner.cut;
        }
    }
    assert!(bounded > 0, "no case ruled a candidate out");
    assert!(cut > 0, "no case cut a run");
}

#[test]
fn tuning_tables_persist_across_sessions() {
    let machine = MachineConfig::test_gpu();
    let program = Program::from_space(
        Arc::new(dual_gemm::DualGemmSpace),
        Shape::of(&[128, 128, 64]),
        &machine,
    )
    .unwrap();
    let mut tuned_session = Session::new(machine.clone());
    let tuned = tuned_session.autotune(&program).unwrap();

    // Round-trip the table through its canonical text.
    let text = tuned_session.tuning_table().to_text();
    let restored = TuningTable::from_text(&text).unwrap();
    assert_eq!(&restored, tuned_session.tuning_table());

    // And through a file.
    let path = std::env::temp_dir().join(format!("cypress-tuning-{}.txt", std::process::id()));
    tuned_session.tuning_table().save(&path).unwrap();
    let loaded = TuningTable::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(&loaded, tuned_session.tuning_table());

    // A fresh session with the imported table answers without timing a
    // single candidate (no compiles at all).
    let mut fresh = Session::new(machine);
    fresh.import_tuning(loaded);
    let answer = fresh.autotune(&program).unwrap();
    assert_eq!(answer, tuned);
    assert_eq!(fresh.metrics().cache.misses, 0, "served from the table");
}

#[test]
fn autotuned_graphs_match_default_graphs_bitwise() {
    let machine = MachineConfig::test_gpu();
    let d = 128usize;
    let gemm_p =
        Program::from_space(Arc::new(gemm::GemmSpace), Shape::of(&[d, d, d]), &machine).unwrap();
    let gr_p = Program::from_space(
        Arc::new(gemm_reduction::GemmReductionSpace),
        Shape::of(&[d, d, d]),
        &machine,
    )
    .unwrap();

    // x = A @ B; y/gr = (x @ B, rowsum(x)).
    let build_graph = || {
        let mut graph = cypress_runtime::TaskGraph::new();
        let first = graph
            .add_node(
                "first",
                gemm_p.clone(),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        graph
            .add_node(
                "second",
                gr_p.clone(),
                vec![
                    Binding::Zeros,
                    Binding::Zeros,
                    Binding::output(first, 0),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        graph
    };
    let graph = build_graph();
    let mut rng = StdRng::seed_from_u64(77);
    let inputs = HashMap::from([
        (
            "A".to_string(),
            Tensor::random(DType::F16, &[d, d], &mut rng, -0.5, 0.5),
        ),
        (
            "B".to_string(),
            Tensor::random(DType::F16, &[d, d], &mut rng, -0.5, 0.5),
        ),
    ]);

    let mut default_session = Session::new(machine.clone());
    let default_run = default_session.launch_functional(&graph, &inputs).unwrap();
    let mut tuned_session =
        Session::new(machine.clone()).with_mapping_policy(MappingPolicy::Autotune);
    let tuned_run = tuned_session.launch_functional(&graph, &inputs).unwrap();

    for node in ["first", "second"] {
        for pi in 0..2 {
            match (
                default_run.tensor_of(node, pi),
                tuned_run.tensor_of(node, pi),
            ) {
                (Some(a), Some(b)) => assert_eq!(
                    a.data(),
                    b.data(),
                    "{node} param {pi}: autotuned tensors diverged"
                ),
                (None, None) => {}
                _ => panic!("{node} param {pi}: retention differs across policies"),
            }
        }
    }

    // The tuned timeline annotates every node and never loses serially.
    let default_report = default_session.launch_timing(&graph).unwrap();
    let tuned_report = tuned_session.launch_timing(&graph).unwrap();
    for n in &default_report.nodes {
        assert_eq!(n.mapping, "default");
        assert_eq!(n.tuned_speedup, 1.0);
    }
    for n in &tuned_report.nodes {
        assert!(!n.mapping.is_empty());
        assert!(
            n.tuned_speedup >= 1.0,
            "{}: tuned mapping lost to the default",
            n.node
        );
    }
    assert!(
        tuned_report.makespan <= default_report.makespan,
        "autotuned serial makespan {} lost to default {}",
        tuned_report.makespan,
        default_report.makespan
    );
}

#[test]
fn autotune_without_a_space_is_a_typed_error() {
    let machine = MachineConfig::test_gpu();
    let plain = Program::from_parts(gemm::build(64, 64, 64, &machine).unwrap(), "gemm");
    let mut session = Session::new(machine);
    let err = session.autotune(&plain);
    assert!(
        matches!(err, Err(RuntimeError::NoMappingSpace { ref entry }) if entry == "gemm"),
        "{err:?}"
    );
    // But an Autotune-policy launch of an unbound program just runs the
    // default mapping.
    let report = session
        .with_mapping_policy(MappingPolicy::Autotune)
        .run_timing(&plain)
        .unwrap();
    assert!(report.cycles > 0.0);
}

#[test]
fn cross_machine_programs_fall_back_to_their_own_mapping() {
    // Built for the test GPU (64-row tiles), launched on an H100 session
    // whose default pins 128-row tiles: no candidate in the space is
    // valid at 64^3, so Autotune launches must fall back to the
    // program's own mapping instead of erroring.
    let test_gpu = MachineConfig::test_gpu();
    let h100 = MachineConfig::h100_sxm5();
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[64, 64, 64]),
        &test_gpu,
    )
    .unwrap();
    assert!(
        gemm::GemmSpace
            .candidates(&h100, &Shape::of(&[64, 64, 64]))
            .is_empty(),
        "precondition: the H100 space has no valid point at 64^3"
    );

    // Direct autotune surfaces a typed error naming the program...
    let mut session = Session::new(h100.clone());
    assert!(
        matches!(
            session.autotune(&program),
            Err(RuntimeError::Untunable { ref entry, .. }) if entry == "gemm"
        ),
        "autotune of an untunable program is a typed error"
    );
    // ...but policy-driven launches transparently run the default.
    let default_report = session.run_timing(&program).unwrap();
    session = session.with_mapping_policy(MappingPolicy::Autotune);
    let tuned_report = session.run_timing(&program).unwrap();
    assert_eq!(default_report.cycles, tuned_report.cycles);
    let mut graph = cypress_runtime::TaskGraph::new();
    graph
        .add_node(
            "g",
            program,
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
    let report = session.launch_timing(&graph).unwrap();
    assert_eq!(report.nodes[0].mapping, "default");
    assert_eq!(report.nodes[0].tuned_speedup, 1.0);
}

#[test]
fn warm_autotuned_launches_skip_the_compiler_entirely() {
    let machine = MachineConfig::test_gpu();
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[128, 128, 128]),
        &machine,
    )
    .unwrap();
    let mut session = Session::new(machine).with_mapping_policy(MappingPolicy::Autotune);
    let first = session.run_timing(&program).unwrap();
    let warm_stats = session.metrics().cache;
    // Memoized tuned launch: no cache traffic at all on later launches.
    let second = session.run_timing(&program).unwrap();
    let third = session.run_timing(&program).unwrap();
    assert_eq!(session.metrics().cache, warm_stats);
    assert_eq!(first.cycles, second.cycles);
    assert_eq!(first.cycles, third.cycles);
    // `clear` drops the memo; the relaunch recompiles through the cache.
    session.clear();
    session.run_timing(&program).unwrap();
    assert!(session.metrics().cache.misses > warm_stats.misses);
}

/// A session memoizes solo timing reports by *compiled kernel*: under
/// `Autotune` a node runs another kernel than the one its program was
/// written with, so one warm session launching a graph under `Default`,
/// `Autotune`, then `Default` again must report each time what a fresh
/// session reports under that policy — and the cycles the tuner timed
/// for the kernel that ran. A memo keyed by the node's program would
/// hand the tuned launch the default kernel's report.
#[test]
fn warm_launches_across_mapping_policies_time_the_kernel_that_runs() {
    let machine = MachineConfig::test_gpu();
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[128, 128, 128]),
        &machine,
    )
    .unwrap();
    let mut graph = cypress_runtime::TaskGraph::new();
    graph
        .add_node(
            "gemm",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
    let tuned = Session::new(machine.clone()).autotune(&program).unwrap();
    assert!(
        tuned.tuned_cycles < tuned.default_cycles,
        "the tuned winner must not be the default at this shape"
    );
    let mut session = Session::new(machine.clone());
    for policy in [
        MappingPolicy::Default,
        MappingPolicy::Autotune,
        MappingPolicy::Default,
    ] {
        session = session.with_mapping_policy(policy);
        let warm = session.launch_timing(&graph).unwrap();
        let fresh = Session::new(machine.clone())
            .with_mapping_policy(policy)
            .launch_timing(&graph)
            .unwrap();
        let cycles = match policy {
            MappingPolicy::Default => tuned.default_cycles,
            _ => tuned.tuned_cycles,
        };
        for (w, f) in warm.nodes.iter().zip(&fresh.nodes) {
            assert_eq!(w.mapping, f.mapping, "{policy:?}");
            assert_eq!(w.tuned_speedup.to_bits(), f.tuned_speedup.to_bits());
            assert_eq!(w.report.cycles.to_bits(), f.report.cycles.to_bits());
            assert_eq!(w.report.cycles.to_bits(), cycles.to_bits(), "{policy:?}");
        }
        assert_eq!(warm.makespan.to_bits(), fresh.makespan.to_bits());
    }
}

#[test]
fn import_tuning_invalidates_memoized_launches() {
    let machine = MachineConfig::test_gpu();
    let shape = Shape::of(&[128, 128, 128]);
    let program = Program::from_space(Arc::new(gemm::GemmSpace), shape.clone(), &machine).unwrap();
    let mut session = Session::new(machine.clone()).with_mapping_policy(MappingPolicy::Autotune);

    // Warm the memo with the session's own winner.
    let mut graph = cypress_runtime::TaskGraph::new();
    graph
        .add_node(
            "g",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
    let before = session.launch_timing(&graph).unwrap();

    // Import a table that pins the *default* config as the winner for
    // the same key; later launches must honor it (and, since the winner
    // is the hand-tuned default, read as "default" in the report).
    let (key, own) = {
        let (k, t) = session.tuning_table().iter().next().unwrap();
        (k.clone(), t.clone())
    };
    let default_cfg = {
        let cypress_core::MappingConfig::Gemm(c) = gemm::GemmSpace.default_for(&machine) else {
            unreachable!()
        };
        cypress_core::MappingConfig::Gemm(c)
    };
    assert_ne!(
        own.config, default_cfg,
        "precondition: the session's winner differs from the default"
    );
    let mut table = TuningTable::new();
    table.insert(
        key,
        cypress_runtime::TunedMapping {
            entry: own.entry.clone(),
            config: default_cfg,
            default_cycles: own.default_cycles,
            tuned_cycles: own.default_cycles,
            predicted_cycles: 0.0,
            candidates: own.candidates,
            model_version: 0,
        },
    );
    session.import_tuning(table);
    let after = session.launch_timing(&graph).unwrap();
    assert_ne!(
        before.nodes[0].mapping, after.nodes[0].mapping,
        "imported winner must replace the memoized launch"
    );
    assert_eq!(
        after.nodes[0].mapping, "default",
        "a winner equal to the hand-tuned default reads as default"
    );
    assert_eq!(after.nodes[0].tuned_speedup, 1.0);
}

#[test]
fn untunable_fallback_is_memoized_across_launches() {
    // Cross-machine program: the H100 space has no valid point at 64^3,
    // so launches fall back — and after the first launch the fallback
    // costs exactly one cache hit, like the Default policy.
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[64, 64, 64]),
        &MachineConfig::test_gpu(),
    )
    .unwrap();
    let mut session =
        Session::new(MachineConfig::h100_sxm5()).with_mapping_policy(MappingPolicy::Autotune);
    session.run_timing(&program).unwrap();
    let warm = session.metrics().cache;
    session.run_timing(&program).unwrap();
    let next = session.metrics().cache;
    assert_eq!(next.misses, warm.misses, "fallback never recompiles");
    assert_eq!(next.hits, warm.hits + 1, "one cache hit per warm launch");
}

#[test]
fn corrupted_table_entries_are_revalidated_and_retuned() {
    use cypress_core::kernels::gemm::GemmConfig;
    let machine = MachineConfig::test_gpu();
    let shape = Shape::of(&[128, 128, 128]);
    let program = Program::from_space(Arc::new(gemm::GemmSpace), shape, &machine).unwrap();

    // Tune once to learn the key, then forge tables whose winner is
    // parseable but wrong: a non-dividing V tile (hand-edited), and the
    // honest winner at a pipeline depth whose staged bytes overflow
    // `usize` (what `MappingConfig::decode` makes of `pipe=<2^64-1>`).
    let mut donor = Session::new(machine.clone());
    let honest = donor.autotune(&program).unwrap();
    let key = donor.tuning_table().iter().next().unwrap().0.clone();
    let cypress_core::MappingConfig::Gemm(winner) = honest.config else {
        panic!("a GEMM space tunes to a GEMM mapping");
    };
    let forgeries = [
        GemmConfig {
            v: 100, // does not divide N=128
            ..GemmConfig::test()
        },
        GemmConfig {
            pipeline: usize::MAX,
            ..winner
        },
    ];
    for forgery in forgeries {
        let mut forged = TuningTable::new();
        forged.insert(
            key.clone(),
            cypress_runtime::TunedMapping {
                entry: "gemm".into(),
                config: cypress_core::MappingConfig::Gemm(forgery),
                default_cycles: 1.0,
                tuned_cycles: 1.0,
                predicted_cycles: 0.0,
                candidates: 1,
                model_version: 0,
            },
        );

        let mut session =
            Session::new(machine.clone()).with_mapping_policy(MappingPolicy::Autotune);
        session.import_tuning(forged);
        // The invalid stored winner is rejected and the space re-tuned
        // instead of building a non-dividing mapping blind.
        let retuned = session.autotune(&program).unwrap();
        assert_eq!(retuned, honest, "re-tune must reproduce the honest winner");
        let report = session.run_timing(&program).unwrap();
        assert!((report.cycles - honest.tuned_cycles).abs() < 1e-9);
    }
}

/// One guided-vs-exhaustive comparison: returns (exhaustive result,
/// exhaustive cache stats, exhaustive `(candidates_timed, bounded)`)
/// from a fresh serial session.
fn tune_exhaustive(
    machine: &MachineConfig,
    program: &Program,
) -> (
    cypress_runtime::TunedMapping,
    cypress_runtime::CacheStats,
    (u64, u64),
) {
    let mut session = Session::new(machine.clone());
    let tuned = session.autotune(program).unwrap();
    let stats = session.metrics().tuner;
    (
        tuned,
        session.metrics().cache,
        (stats.candidates_timed, stats.bounded),
    )
}

/// The half-budget guided gate, at every shape [`random_shape`] can
/// draw for the five paper kernels on the test GPU: a guided sweep that
/// keeps half the candidates times at most that half (fresh sessions
/// have no transfer seed), accounts for every candidate as pruned,
/// bounded or timed, and picks a winner whose measured cycles are within
/// 5% of the exhaustive winner's. Prints the worst ratio, the gate's
/// headroom.
#[test]
fn guided_half_budget_sweeps_stay_near_the_best_at_every_drawable_shape() {
    use cypress_runtime::TunerBudget;
    use std::io::Write as _;
    let machine = MachineConfig::test_gpu();
    let (mut shapes, mut worst, mut misses) = (0, 0.0_f64, Vec::new());
    for space in paper_spaces() {
        for shape in every_shape(space.as_ref()) {
            let Ok(program) = Program::from_space(Arc::clone(&space), shape.clone(), &machine)
            else {
                continue; // default invalid at this shape: nothing to tune against
            };
            let total = space.candidates(&machine, &shape).len();
            if total == 0 {
                continue;
            }
            let (exhaustive, ..) = tune_exhaustive(&machine, &program);
            let half = total.div_ceil(2);
            let mut guided = Session::new(machine.clone());
            let winner = guided
                .autotune_with(&program, TunerBudget::TopK(half))
                .unwrap();
            let stats = guided.tuning_table().stats();
            let what = format!("{} {shape}", space.entry());
            assert!(
                stats.candidates_timed as usize <= half,
                "{what}: guided timed {} of {total} candidates (budget {half})",
                stats.candidates_timed
            );
            assert_eq!(
                (stats.pruned + stats.bounded + stats.candidates_timed) as usize,
                total,
                "{what}"
            );
            let ratio = winner.tuned_cycles / exhaustive.tuned_cycles;
            if ratio > 1.05 {
                misses.push(format!("{what}: ratio {ratio:.4}"));
            }
            worst = worst.max(ratio);
            shapes += 1;
        }
    }
    // Written past the test harness's capture, so a CI log keeps it.
    writeln!(
        std::io::stderr(),
        "\nguided half-budget worst ratio {worst:.4} over {shapes} shapes"
    )
    .unwrap();
    assert!(
        misses.is_empty(),
        "guided winners past 1.05x the exhaustive winner:\n{}",
        misses.join("\n")
    );
}

proptest::proptest! {
    /// The guided-tuning contract, over all five paper kernels at
    /// seeded random shapes:
    ///
    /// 1. a guided sweep with `top_k >= candidates.len()` is
    ///    bit-identical to the exhaustive sweep — same `TunedMapping`
    ///    (prediction fields included) and same kernel-cache traffic;
    /// 2. (the half-budget gate is checked at every drawable shape, by
    ///    `guided_half_budget_sweeps_stay_near_the_best_at_every_drawable_shape`);
    /// 3. cost ranking is deterministic: two sessions running the same
    ///    half-budget guided sweep agree on the result and on every
    ///    tuner counter.
    #[test]
    fn guided_sweeps_track_exhaustive_sweeps(seed in 0u64..1_000_000) {
        use cypress_runtime::TunerBudget;
        let machine = MachineConfig::test_gpu();
        let mut rng = StdRng::seed_from_u64(seed);
        let spaces = paper_spaces();
        let space = &spaces[(seed % spaces.len() as u64) as usize];
        let shape = random_shape(space.as_ref(), &mut rng);
        let Ok(program) = Program::from_space(Arc::clone(space), shape.clone(), &machine) else {
            return; // default invalid at this shape: nothing to tune against
        };
        let total = space.candidates(&machine, &shape).len();
        if total == 0 {
            return;
        }
        let (exhaustive, exhaustive_cache, exhaustive_timing) = tune_exhaustive(&machine, &program);

        // (1) full-budget guided == exhaustive, bit for bit.
        let mut full = Session::new(machine.clone());
        let got = full.autotune_with(&program, TunerBudget::TopK(total)).unwrap();
        proptest::prop_assert_eq!(&got, &exhaustive, "{} {}: full-budget guided diverged", space.entry(), &shape);
        proptest::prop_assert_eq!(
            full.metrics().cache,
            exhaustive_cache,
            "{} {}: full-budget guided cache traffic diverged",
            space.entry(),
            &shape
        );
        let stats = full.tuning_table().stats();
        proptest::prop_assert_eq!(stats.ranked as usize, total);
        proptest::prop_assert_eq!(stats.pruned, 0, "a covering budget must prune nothing");
        proptest::prop_assert_eq!(
            (stats.candidates_timed, stats.bounded),
            exhaustive_timing,
            "{} {}: full-budget guided timed or bounded other candidates",
            space.entry(),
            &shape
        );

        // (3) ranking determinism across sessions, at half the budget.
        let half = total.div_ceil(2);
        let mut guided = Session::new(machine.clone());
        let winner = guided.autotune_with(&program, TunerBudget::TopK(half)).unwrap();
        let mut again = Session::new(machine.clone());
        let rewinner = again.autotune_with(&program, TunerBudget::TopK(half)).unwrap();
        proptest::prop_assert_eq!(&rewinner, &winner, "{} {}: guided sweep is nondeterministic", space.entry(), &shape);
        proptest::prop_assert_eq!(again.tuning_table().stats(), guided.tuning_table().stats());
    }
}

#[test]
fn transfer_tuning_seeds_neighboring_shapes() {
    use cypress_runtime::TunerBudget;
    let machine = MachineConfig::test_gpu();
    let tuned_at = Shape::of(&[128, 128, 128]);
    let untuned = Shape::of(&[192, 192, 192]);
    let donor = Program::from_space(Arc::new(gemm::GemmSpace), tuned_at, &machine).unwrap();
    let target = Program::from_space(Arc::new(gemm::GemmSpace), untuned.clone(), &machine).unwrap();

    // Tune the donor shape exhaustively, then ask for the neighbor under
    // a zero budget: the sweep must time exactly one candidate — the
    // transferred winner — and count the transfer.
    let mut session = Session::new(machine.clone());
    let donor_win = session.autotune(&donor).unwrap();
    let timed_before = session.tuning_table().stats().candidates_timed;
    let transferred = session
        .autotune_with(&target, TunerBudget::TopK(0))
        .unwrap();
    let stats = session.tuning_table().stats();
    assert_eq!(
        stats.candidates_timed - timed_before,
        1,
        "zero-budget transfer must time exactly the seeded winner"
    );
    assert_eq!(stats.transferred, 1);
    assert_eq!(
        transferred.config, donor_win.config,
        "the neighbor's winner is the only candidate in a zero-budget sweep"
    );

    // Without a neighbor, a zero budget still times one candidate (the
    // best-predicted), and no transfer is counted.
    let mut cold = Session::new(machine);
    let lone = cold.autotune_with(&target, TunerBudget::TopK(0)).unwrap();
    let cold_stats = cold.tuning_table().stats();
    assert_eq!(cold_stats.candidates_timed, 1);
    assert_eq!(cold_stats.transferred, 0);
    assert!(
        target
            .space
            .as_ref()
            .map(|b| b
                .space
                .candidates(&cold.machine().clone(), &untuned)
                .contains(&lone.config))
            .unwrap_or(false),
        "the zero-budget winner must be an enumerated candidate"
    );
}

/// A guided set that leaves out the hand-tuned default seeds the sweep
/// from the best-predicted candidate. On the test GPU at 128×384×128, a
/// `TopK(2)` budget whose second slot goes to a transferred `V = 128`
/// tile keeps the best-predicted `V = 64` tile and that one, not the
/// default. The sweep times the `V = 64` tile and bounds the transferred
/// tile, whose floor is above the `V = 64` tile's cycles.
#[test]
fn a_guided_set_without_the_default_seeds_from_the_best_predicted_candidate() {
    use cypress_runtime::tuner::machine_fingerprint;
    use cypress_runtime::{TunedMapping, TunerBudget, TuningKey};
    let machine = MachineConfig::test_gpu();
    let space = Arc::new(gemm::GemmSpace);
    let shape = Shape::of(&[128, 384, 128]);
    let program = Program::from_space(space.clone(), shape.clone(), &machine).unwrap();
    let candidates = space.candidates(&machine, &shape);
    let predicted = |c: &MappingConfig| space.estimate(&machine, &shape, c).unwrap().cycles;
    let best_predicted = *candidates
        .iter()
        .min_by(|a, b| {
            predicted(a)
                .total_cmp(&predicted(b))
                .then_with(|| a.encode().cmp(&b.encode()))
        })
        .unwrap();
    let default = space.default_for(&machine);
    let transferred = *candidates
        .iter()
        .find(|c| matches!(c, MappingConfig::Gemm(g) if g.v == 128))
        .unwrap();
    assert!(best_predicted != default && transferred != default);

    let mut neighbor = TuningTable::new();
    neighbor.insert(
        TuningKey {
            computation: 0,
            shape: vec![128, 256, 128],
            machine: machine_fingerprint(&machine),
        },
        TunedMapping {
            entry: "gemm".into(),
            config: transferred,
            default_cycles: 1.0,
            tuned_cycles: 1.0,
            predicted_cycles: 0.0,
            candidates: 1,
            model_version: 0,
        },
    );
    let log = TraceLog::new();
    let mut session = Session::new(machine).with_recorder(log.clone());
    session.import_tuning(neighbor);
    let tuned = session
        .autotune_with(&program, TunerBudget::TopK(2))
        .unwrap();
    let stats = session.metrics().tuner;
    assert_eq!(
        (stats.transferred, stats.candidates_timed, stats.bounded),
        (1, 1, 1),
        "{stats:?}"
    );
    assert_eq!(tuned.config, best_predicted);
    let swept: HashMap<String, (Option<f64>, f64)> = log
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::TunerCandidate {
                config,
                cycles,
                floor,
                ..
            } => Some((config, (cycles, floor))),
            _ => None,
        })
        .collect();
    let (seed_cycles, _) = swept[&best_predicted.label()];
    let (skipped, floor) = swept[&transferred.label()];
    assert_eq!(skipped, None);
    assert!(floor > seed_cycles.unwrap(), "{swept:?}");
}

/// The all-reduce's footprint counts one staged tile per input, so the
/// points a guided sweep ranks first are ones that compile: on the H100
/// a four-way fold at 2048² tunes to `V = 128` under a budget of one,
/// and an eight-way fold at 1024² to `V = 64` under a budget of two.
#[test]
fn guided_all_reduce_sweeps_time_points_that_compile() {
    use cypress_core::kernels::comm::AllReduceSpace;
    use cypress_runtime::TunerBudget;
    let machine = MachineConfig::h100_sxm5();
    for ([ways, m, n], k, want_v) in [([4, 2048, 2048], 1, 128), ([8, 1024, 1024], 2, 64)] {
        let (space, shape) = (Arc::new(AllReduceSpace), Shape::of(&[ways, m, n]));
        let cfg = space.default_or_first_candidate(&machine, &shape).unwrap();
        let program = Program::from_space_at(space, shape, &cfg, &machine).unwrap();
        let mut session = Session::new(machine.clone());
        let tuned = session
            .autotune_with(&program, TunerBudget::TopK(k))
            .unwrap_or_else(|e| panic!("{ways}x{m}x{n} TopK({k}): {e}"));
        match tuned.config {
            MappingConfig::Gemm(c) => assert_eq!(c.v, want_v, "{ways}x{m}x{n} TopK({k})"),
            other => panic!("an all-reduce tuned to {other:?}"),
        }
    }
}

#[test]
fn guided_policy_tensors_match_default_and_autotune_bitwise() {
    let machine = MachineConfig::test_gpu();
    let mut rng = StdRng::seed_from_u64(0x6D1D);
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[128, 128, 128]),
        &machine,
    )
    .unwrap();
    let mut graph = cypress_runtime::TaskGraph::new();
    graph
        .add_node(
            "g",
            program,
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
    let inputs: HashMap<String, Tensor> = [
        (
            "A".to_string(),
            Tensor::random(DType::F16, &[128, 128], &mut rng, -0.5, 0.5),
        ),
        (
            "B".to_string(),
            Tensor::random(DType::F16, &[128, 128], &mut rng, -0.5, 0.5),
        ),
    ]
    .into();
    let mut results = Vec::new();
    for policy in [
        MappingPolicy::Default,
        MappingPolicy::Autotune,
        MappingPolicy::Guided { top_k: 3 },
    ] {
        let mut session = Session::new(machine.clone()).with_mapping_policy(policy);
        let run = session.launch_functional(&graph, &inputs).unwrap();
        results.push(run);
    }
    let want = results[0].tensor_of("g", 0).unwrap();
    for (i, got) in results.iter().enumerate().skip(1) {
        let g = got.tensor_of("g", 0).unwrap();
        assert_eq!(
            g.data(),
            want.data(),
            "policy #{i} diverged from Default bitwise"
        );
    }
}
