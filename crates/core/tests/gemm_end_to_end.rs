//! End-to-end test of the whole Cypress stack: the Fig. 5 GEMM task tree
//! is compiled through every pass and executed functionally on the
//! simulator, then checked against the host reference.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::gemm;
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compiler(machine: &MachineConfig) -> CypressCompiler {
    CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        dump_ir: true,
    })
}

#[test]
fn gemm_compiles_to_warp_specialized_kernel() {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(128, 128, 64, &machine).unwrap();
    let compiled = compiler(&machine)
        .compile(&reg, &mapping, "gemm", &args)
        .unwrap();
    let k = &compiled.kernel;
    assert!(
        k.has_dma_warp(),
        "warp specialization requested by the mapping"
    );
    assert_eq!(k.num_compute_warpgroups(), 1);
    assert_eq!(k.grid, [2, 2, 1]);
    assert_eq!(k.params.len(), 3);
    // The pseudo-CUDA must show the Fig. 1b structure.
    assert!(
        compiled.cuda.contains("TMA_load"),
        "cuda:\n{}",
        compiled.cuda
    );
    assert!(compiled.cuda.contains("wgmma"), "cuda:\n{}", compiled.cuda);
    assert!(
        compiled.cuda.contains("TMA_store"),
        "cuda:\n{}",
        compiled.cuda
    );
    // Copy elimination must have removed the vast majority of copies.
    assert!(compiled.copyelim_stats.removed_copies > 10);
}

#[test]
fn gemm_functional_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(128, 128, 64, &machine).unwrap();
    let compiled = compiler(&machine)
        .compile(&reg, &mapping, "gemm", &args)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    let a = Tensor::random(DType::F16, &[128, 64], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[64, 128], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[128, 128]);
    let want = reference::matmul(&a, &b, DType::F16).unwrap();

    let sim = Simulator::new(machine);
    let run = sim.run_functional(&compiled.kernel, vec![c, a, b]).unwrap();
    let err = run.params[0].relative_error(&want).unwrap();
    assert!(err < 1e-2, "relative error {err}\ncuda:\n{}", compiled.cuda);
}

#[test]
fn gemm_multi_k_iterations() {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(64, 64, 256, &machine).unwrap();
    let compiled = compiler(&machine)
        .compile(&reg, &mapping, "gemm", &args)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(12);
    let a = Tensor::random(DType::F16, &[64, 256], &mut rng, -0.5, 0.5);
    let b = Tensor::random(DType::F16, &[256, 64], &mut rng, -0.5, 0.5);
    let c = Tensor::zeros(DType::F16, &[64, 64]);
    let want = reference::matmul(&a, &b, DType::F16).unwrap();

    let sim = Simulator::new(machine);
    let run = sim.run_functional(&compiled.kernel, vec![c, a, b]).unwrap();
    let err = run.params[0].relative_error(&want).unwrap();
    assert!(err < 2e-2, "relative error {err}");
}

#[test]
fn gemm_h100_mapping_compiles_and_times() {
    let machine = MachineConfig::h100_sxm5();
    let (reg, mapping, args) = gemm::build(4096, 4096, 4096, &machine).unwrap();
    let compiled = compiler(&machine)
        .compile(&reg, &mapping, "gemm", &args)
        .unwrap();
    assert_eq!(compiled.kernel.grid, [32, 16, 1]);
    assert_eq!(compiled.kernel.num_compute_warpgroups(), 2);

    let sim = Simulator::new(machine);
    let report = sim.run_timing(&compiled.kernel).unwrap();
    let tflops = report.tflops_for(gemm::flops(4096, 4096, 4096));
    // The paper's Fig. 13a: Cypress reaches within ~0.88-1.06x of cuBLAS
    // (~700-800 TFLOP/s); the model must land in a plausible band.
    assert!(
        tflops > 400.0 && tflops < 1000.0,
        "implausible {tflops} TFLOP/s\n{report}"
    );
    assert!(
        report.tc_utilization > 0.5,
        "tensor core underutilized\n{report}"
    );
}
