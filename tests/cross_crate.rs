//! Workspace-level integration tests: the Cypress compiler's output and the
//! hand-scheduled baselines must agree functionally (they share the
//! simulator, so any disagreement is a scheduling bug in one of them), and
//! the whole stack must behave deterministically.

use cypress::baselines::hand::{gemm_kernel, GemmSchedule};
use cypress::core::compile::{CompilerOptions, CypressCompiler};
use cypress::core::front::mapping::MappingSpec;
use cypress::core::front::task::TaskRegistry;
use cypress::core::kernels::{
    attention, batched, chain, dual_gemm, gemm, gemm_reduction, reduction,
};
use cypress::core::passes::depan::EntryArg;
use cypress::core::{MappingConfig, MappingSpace, Shape};
use cypress::sim::{MachineConfig, Simulator};
use cypress::tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    for (p, (x, y)) in fast.params.iter().zip(&oracle.params).enumerate() {
        assert_eq!(x.shape(), y.shape());
        for (i, (a, b)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "gemm param {p} elem {i}");
        }
    }
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
    for (i, (a, b)) in fast.params[0]
        .data()
        .iter()
        .zip(oracle.params[0].data())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "attention out elem {i}");
    }
}

/// Build every entry parameter from its [`EntryArg`] descriptor: random
/// data in the declared dtype/shape, seeded per kernel so the three
/// paths see identical bits.
fn random_params(args: &[EntryArg], rng: &mut StdRng) -> Vec<Tensor> {
    args.iter()
        .map(|a| Tensor::random(a.dtype, &[a.rows, a.cols], rng, -1.0, 1.0))
        .collect()
}

/// Compile and run one kernel through all three functional paths —
/// scalar reference interpreter, fast-apply tree walk, bytecode VM —
/// and require bit-identical tensors and cycles.
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
    let byte = sim
        .run_functional(&compiled.kernel, params.clone())
        .unwrap();
    let walk = sim
        .run_functional_walk(&compiled.kernel, params.clone())
        .unwrap();
    let scalar = sim
        .run_functional_scalar(&compiled.kernel, params.clone())
        .unwrap();
    // The compiler's own cached lowering (what the runtime replays on
    // every launch) must agree with the internal lowering too.
    let cached = sim
        .run_functional_lowered(&compiled.kernel, &compiled.lowered, params)
        .unwrap();

    for (which, other) in [("walk", &walk), ("scalar", &scalar), ("cached", &cached)] {
        assert_eq!(
            byte.report.cycles.to_bits(),
            other.report.cycles.to_bits(),
            "{name}: bytecode vs {which} cycles diverge"
        );
        for (p, (x, y)) in byte.params.iter().zip(&other.params).enumerate() {
            assert_eq!(x.shape(), y.shape());
            for (i, (a, b)) in x.data().iter().zip(y.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: bytecode vs {which}, param {p} elem {i}"
                );
            }
        }
    }
}

/// Scalar oracle, fast-apply tree walk, and bytecode VM agree bitwise on
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
