//! Workspace-level integration tests: every mapping of every kernel
//! family compiles to what the default computes, bit for bit on every
//! functional path; the Cypress compiler's output and the hand-scheduled
//! baselines must agree functionally (they share the simulator, so any
//! disagreement is a scheduling bug in one of them); and the whole stack
//! must behave deterministically.

use cypress::baselines::hand::{gemm_kernel, GemmSchedule};
use cypress::core::compile::{CompilerOptions, CypressCompiler};
use cypress::core::front::mapping::MappingSpec;
use cypress::core::front::task::TaskRegistry;
use cypress::core::kernels::{
    attention, batched, chain, dual_gemm, gemm, gemm_reduction, reduction,
};
use cypress::core::passes::depan::EntryArg;
use cypress::core::{CompileError, MappingConfig, MappingSpace, Shape};
use cypress::sim::{MachineConfig, SimError, Simulator};
use cypress::tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[allow(dead_code)] // the golden suites' helpers
#[path = "../crates/core/tests/golden/shared.rs"]
mod shared;
use shared::families;

#[test]
fn cypress_and_hand_written_gemm_agree() {
    let machine = MachineConfig::test_gpu();
    let (m, n, k) = (128, 64, 96);
    let mut rng = StdRng::seed_from_u64(99);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[k, n], &mut rng, -1.0, 1.0);
    let sim = Simulator::new(machine.clone());

    // Compiled Cypress kernel.
    let (reg, mapping, args) = gemm::build(m, n, k, &machine).unwrap();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let cy = compiler.compile(&reg, &mapping, "gemm", &args).unwrap();
    let cy_out = sim
        .run_functional(
            &cy.kernel,
            vec![Tensor::zeros(DType::F16, &[m, n]), a.clone(), b.clone()],
        )
        .unwrap();

    // Hand-scheduled expert kernel.
    let s = GemmSchedule {
        tm: 64,
        tn: 64,
        tk: 32,
        wgs: 1,
        pipe: 2,
        warpspec: true,
        dual: false,
        serialize_dual: false,
        reduction: false,
        smem_reduction: false,
    };
    let hk = gemm_kernel("hand", 1, m, n, k, s);
    let hand_out = sim
        .run_functional(&hk, vec![Tensor::zeros(DType::F16, &[m, n]), a, b])
        .unwrap();

    let diff = cy_out.params[0].max_abs_diff(&hand_out.params[0]).unwrap();
    assert!(
        diff < 1e-3,
        "compiled and hand-written kernels disagree by {diff}"
    );
}

/// The fast resolved-view functional data path must be **bitwise**
/// identical to the retained scalar reference interpreter on whole
/// compiled kernels — GEMM (the blocked WGMMA microkernel plus TMA
/// copies) and attention (the SIMT softmax path: map/zip/row ops).
/// Timing must be identical too: the data-path rewrite only changes how
/// data moves on the host, never the simulated schedule.
#[test]
fn fast_functional_path_matches_scalar_oracle_on_compiled_kernels() {
    let machine = MachineConfig::test_gpu();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut rng = StdRng::seed_from_u64(4242);

    // GEMM 128x64x96 in f16.
    let (m, n, k) = (128, 64, 96);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[k, n], &mut rng, -1.0, 1.0);
    let (reg, mapping, args) = gemm::build(m, n, k, &machine).unwrap();
    let kernel = compiler.compile(&reg, &mapping, "gemm", &args).unwrap();
    let params = vec![Tensor::zeros(DType::F16, &[m, n]), a, b];
    let fast = sim.run_functional(&kernel.kernel, params.clone()).unwrap();
    let oracle = sim.run_functional_scalar(&kernel.kernel, params).unwrap();
    assert_bitwise("gemm", &fast.params, &oracle.params);
    assert_eq!(fast.report.cycles.to_bits(), oracle.report.cycles.to_bits());

    // Attention (FA2) over 2 heads, seq 128, head dim 64.
    let (heads, seq, dim) = (2, 128, 64);
    let mk = |rng: &mut StdRng| Tensor::random(DType::F16, &[heads * seq, dim], rng, -1.0, 1.0);
    let (q, kx, v) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
    let (reg, mapping, args) =
        attention::build(attention::Algorithm::Fa2, heads, seq, dim, &machine).unwrap();
    let kernel = compiler.compile(&reg, &mapping, "fa", &args).unwrap();
    let params = vec![Tensor::zeros(DType::F16, &[heads * seq, dim]), q, kx, v];
    let fast = sim.run_functional(&kernel.kernel, params.clone()).unwrap();
    let oracle = sim.run_functional_scalar(&kernel.kernel, params).unwrap();
    assert_bitwise("attention", &fast.params[..1], &oracle.params[..1]);
}

/// Compile and run one kernel through all three functional paths — fast
/// bytecode, scalar reference interpreter, and a replay of the
/// compiler's own pre-lowered `Compiled::lowered` (what the runtime
/// replays on every launch) — and require bit-identical tensors and
/// cycles.
fn assert_three_way(
    name: &str,
    built: (TaskRegistry, MappingSpec, Vec<EntryArg>),
    machine: &MachineConfig,
    seed: u64,
) {
    let (reg, mapping, args) = built;
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let compiled = compiler.compile(&reg, &mapping, name, &args).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let params = random_params(&args, &mut rng);

    let sim = Simulator::new(machine.clone());
    let fast = sim
        .run_functional(&compiled.kernel, params.clone())
        .unwrap();
    let scalar = sim
        .run_functional_scalar(&compiled.kernel, params.clone())
        .unwrap();
    let cached = sim
        .run_functional_lowered(&compiled.kernel, &compiled.lowered, params)
        .unwrap();

    for (which, other) in [("scalar", &scalar), ("cached", &cached)] {
        assert_eq!(
            fast.report.cycles.to_bits(),
            other.report.cycles.to_bits(),
            "{name}: fast vs {which} cycles diverge"
        );
        assert_bitwise(
            &format!("{name}: fast vs {which}"),
            &fast.params,
            &other.params,
        );
    }
}

/// Fast bytecode, scalar oracle and pre-lowered replay agree bitwise on
/// all five paper kernels plus the fused chained-GEMM and
/// GEMM+Reduction kernels.
#[test]
fn three_paths_agree_bitwise_on_paper_kernels() {
    let machine = MachineConfig::test_gpu();
    let (m, n, k) = (128, 64, 96);
    assert_three_way("gemm", gemm::build(m, n, k, &machine).unwrap(), &machine, 1);
    assert_three_way(
        "dual",
        dual_gemm::build(64, 64, 64, &machine).unwrap(),
        &machine,
        2,
    );
    assert_three_way(
        "batched",
        batched::build(2, 64, 64, 64, &machine).unwrap(),
        &machine,
        3,
    );
    assert_three_way(
        "reduce",
        reduction::build(128, 96, &machine).unwrap(),
        &machine,
        4,
    );
    assert_three_way(
        "fa",
        attention::build(attention::Algorithm::Fa2, 2, 128, 64, &machine).unwrap(),
        &machine,
        5,
    );
    assert_three_way(
        "chain",
        chain::build(64, 64, 64, 64, &machine).unwrap(),
        &machine,
        6,
    );
    assert_three_way(
        "gr",
        gemm_reduction::build(64, 64, 64, &machine).unwrap(),
        &machine,
        7,
    );
}

/// Random data for every entry parameter, in its declared dtype and
/// shape.
fn random_params(args: &[EntryArg], rng: &mut StdRng) -> Vec<Tensor> {
    args.iter()
        .map(|a| Tensor::random(a.dtype, &[a.rows, a.cols], rng, -1.0, 1.0))
        .collect()
}

/// A small shape of `family` on the test GPU: extents are multiples of
/// its 64-wide tiles, except where a family pins one (the pinned
/// GEMM+Reduction's `V = 256` columns; attention's 128-row bands and
/// head dimension 64).
fn small_shape(family: &str, rng: &mut StdRng) -> Shape {
    let t = |rng: &mut StdRng| 64 * rng.gen_range(1usize..3);
    Shape(match family {
        "batched" => vec![rng.gen_range(1..3), t(rng), t(rng), t(rng)],
        "gemm_reduction_pinned" => vec![t(rng), 256, t(rng)],
        "chain" => vec![t(rng), t(rng), t(rng), t(rng)],
        "reduction" => vec![t(rng), t(rng)],
        "comm_all_reduce" => vec![rng.gen_range(2..4), t(rng), t(rng)],
        "fa2" | "fa3" => vec![rng.gen_range(1..3), 128, 64],
        _ => vec![t(rng), t(rng), t(rng)],
    })
}

/// `cfg` with one field at a time forged to 0, 1, one past its value
/// (off every tile grid) and 2^20, the way a tuning-table file could
/// carry it.
fn forged(cfg: MappingConfig) -> Vec<MappingConfig> {
    let token = cfg.encode();
    let (kind, fields) = token.split_once(':').unwrap();
    let fields: Vec<&str> = fields.split(',').collect();
    let mut out = Vec::new();
    for (i, field) in fields.iter().enumerate() {
        let (key, value) = field.split_once('=').unwrap();
        let value: usize = value.parse().unwrap();
        for forged in [0, 1, value + 1, 1 << 20] {
            let mut fields = fields.iter().map(|f| f.to_string()).collect::<Vec<_>>();
            fields[i] = format!("{key}={forged}");
            out.push(MappingConfig::decode(&format!("{kind}:{}", fields.join(","))).unwrap());
        }
    }
    out
}

/// Bit-for-bit equality of two functional runs' tensors.
fn assert_bitwise(what: &str, got: &[Tensor], want: &[Tensor]) {
    assert_eq!(got.len(), want.len(), "{what}: parameter count");
    for (p, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.shape(), w.shape(), "{what}: param {p} shape");
        let diverged = g
            .data()
            .iter()
            .zip(w.data())
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(diverged, None, "{what}: param {p} diverges at that element");
    }
}

/// The compile pipeline's contract over every kernel family, on the
/// test GPU at a small random shape each: a mapping changes where tasks
/// run, never what they compute.
///
/// - The default mapping (or, where the hand-tuned one does not fit the
///   small machine, the space's first candidate) compiles. Its fast
///   functional run equals, bit for bit, the scalar oracle's and the run
///   of the compiler's own pre-lowered `Compiled::lowered`, cycles
///   included.
/// - Every `candidates()` point compiles, takes the same entry
///   arguments and computes the default's tensors bit for bit.
/// - The default with one field forged (see [`forged`]) ends in a typed
///   `CompileError` or in a run that does not fail with
///   `SimError::Internal`; nothing panics.
#[test]
fn every_mapping_compiles_to_what_the_default_computes() {
    let machine = MachineConfig::test_gpu();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut rng = StdRng::seed_from_u64(0x5AC3);
    for (family, space, _) in families() {
        let shape = small_shape(family, &mut rng);
        let compile = |cfg: &MappingConfig| -> Result<_, CompileError> {
            let (reg, mapping, args) = space.build(&shape, cfg)?;
            Ok((
                compiler.compile(&reg, &mapping, space.entry(), &args)?,
                args,
            ))
        };
        let default = space
            .default_or_first_candidate(&machine, &shape)
            .unwrap_or_else(|e| panic!("{family} {shape}: no mapping fits: {e}"));
        let what = format!("{family} {shape} {}", default.encode());
        let (compiled, args) = compile(&default).unwrap_or_else(|e| panic!("{what}: {e}"));
        let params = random_params(&args, &mut rng);
        let fast = sim
            .run_functional(&compiled.kernel, params.clone())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let scalar = sim
            .run_functional_scalar(&compiled.kernel, params.clone())
            .unwrap();
        let lowered = sim
            .run_functional_lowered(&compiled.kernel, &compiled.lowered, params.clone())
            .unwrap();
        for (path, other) in [("scalar oracle", &scalar), ("pre-lowered", &lowered)] {
            let what = format!("{what}: fast path vs {path}");
            assert_bitwise(&what, &other.params, &fast.params);
            assert_eq!(
                other.report.cycles.to_bits(),
                fast.report.cycles.to_bits(),
                "{what}: cycles"
            );
        }

        let candidates = space.candidates(&machine, &shape);
        assert!(candidates.contains(&default), "{what}: not a candidate");
        for cfg in candidates.into_iter().filter(|cfg| *cfg != default) {
            let what = format!("{family} {shape} {}", cfg.encode());
            let (compiled, cfg_args) = compile(&cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(cfg_args, args, "{what}: entry arguments");
            let run = sim
                .run_functional(&compiled.kernel, params.clone())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_bitwise(&what, &run.params, &fast.params);
        }

        for cfg in forged(default) {
            let Ok((compiled, args)) = compile(&cfg) else {
                continue;
            };
            let params = random_params(&args, &mut rng);
            let run = sim.run_functional(&compiled.kernel, params);
            assert!(
                !matches!(run, Err(SimError::Internal { .. })),
                "{family} {shape} {}: {run:?}",
                cfg.encode()
            );
        }
    }
}

/// Eight machines that each stretch one class of cost on the test GPU
/// by two orders of magnitude or more: a schedule-dependent tensor
/// shows up under at least one of them.
fn perturbed_machines() -> Vec<(&'static str, MachineConfig)> {
    let perturb = |what, change: fn(&mut MachineConfig)| {
        let mut machine = MachineConfig::test_gpu();
        change(&mut machine);
        (what, machine)
    };
    vec![
        perturb("TMA latency x200", |m| m.tma_latency *= 200.0),
        perturb("WGMMA latency x200", |m| m.wgmma_latency *= 200.0),
        perturb("TC rate /300", |m| m.tc_flops_per_cycle_per_sm /= 300.0),
        perturb("TMA and cp.async rates /300", |m| {
            m.tma_bytes_per_cycle_per_sm /= 300.0;
            m.cp_async_bytes_per_cycle_per_sm /= 300.0;
        }),
        perturb("SIMT and SFU rates /300", |m| {
            m.simt_flops_per_cycle_per_sm /= 300.0;
            m.sfu_ops_per_cycle_per_sm /= 300.0;
        }),
        perturb("HBM and smem rates /300", |m| {
            m.hbm_bytes_per_cycle /= 300.0;
            m.smem_bytes_per_cycle_per_sm /= 300.0;
        }),
        perturb("barrier cost x500", |m| m.barrier_cycles *= 500.0),
        perturb("issue costs x300", |m| {
            m.tma_issue_cycles *= 300.0;
            m.wgmma_issue_cycles *= 300.0;
            m.simt_issue_cycles *= 300.0;
        }),
    ]
}

/// A race-free kernel computes the same tensors whatever speed each
/// unit runs at. Every candidate of every family, compiled for the test
/// GPU at a small random shape, runs on each of [`perturbed_machines`],
/// and every run equals the run on the unperturbed machine bit for bit.
/// A missing barrier wait shows up here even in a family with one
/// candidate, which has no second mapping to be compared against.
#[test]
fn every_candidate_computes_the_same_tensors_at_every_unit_speed() {
    let machine = MachineConfig::test_gpu();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let perturbed: Vec<(&str, Simulator)> = perturbed_machines()
        .into_iter()
        .map(|(what, m)| (what, Simulator::new(m)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x7A1E);
    for (family, space, _) in families() {
        let shape = small_shape(family, &mut rng);
        for cfg in space.candidates(&machine, &shape) {
            let what = format!("{family} {shape} {}", cfg.encode());
            let (reg, mapping, args) = space
                .build(&shape, &cfg)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let compiled = compiler
                .compile(&reg, &mapping, space.entry(), &args)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let params = random_params(&args, &mut rng);
            let run = |sim: &Simulator| {
                sim.run_functional_lowered(&compiled.kernel, &compiled.lowered, params.clone())
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                    .params
            };
            let want = run(&sim);
            for (machine, sim) in &perturbed {
                assert_bitwise(&format!("{what} under {machine}"), &run(sim), &want);
            }
        }
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let machine = MachineConfig::h100_sxm5();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let run = || {
        let (reg, mapping, args) = gemm::build(4096, 4096, 4096, &machine).unwrap();
        let c = compiler.compile(&reg, &mapping, "gemm", &args).unwrap();
        sim.run_timing(&c.kernel).unwrap().cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn fa3_overlaps_more_than_fa2() {
    // The FA3 restructuring exists to overlap softmax with Tensor Core
    // work; the schedule must show it (higher TC utilization).
    let machine = MachineConfig::h100_sxm5();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut cycles = Vec::new();
    for alg in [attention::Algorithm::Fa2, attention::Algorithm::Fa3] {
        let (reg, mapping, args) = attention::build(alg, 16, 4096, 128, &machine).unwrap();
        let c = compiler.compile(&reg, &mapping, "fa", &args).unwrap();
        cycles.push(sim.run_timing(&c.kernel).unwrap().cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "FA3 {} should beat FA2 {}",
        cycles[1],
        cycles[0]
    );
}

#[test]
fn pipeline_depth_ablation_shows_latency_hiding() {
    let machine = MachineConfig::h100_sxm5();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut prev = f64::INFINITY;
    for pipe in [1usize, 3] {
        let cfg = gemm::GemmConfig {
            pipeline: pipe,
            ..gemm::GemmConfig::h100()
        };
        let (reg, mapping, args) = gemm::GemmSpace
            .build(&Shape::of(&[4096; 3]), &MappingConfig::Gemm(cfg))
            .unwrap();
        let c = compiler.compile(&reg, &mapping, "gemm", &args).unwrap();
        let cycles = sim.run_timing(&c.kernel).unwrap().cycles;
        assert!(cycles < prev, "deeper pipeline must not be slower");
        prev = cycles;
    }
}
