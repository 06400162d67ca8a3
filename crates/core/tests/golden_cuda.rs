//! Golden checks on the generated pseudo-CUDA: the compiled GEMM must have
//! the structure of the paper's Fig. 1b — a DMA warp running ahead with
//! TMA loads guarded by consumer barriers, compute warpgroups issuing
//! `wgmma` with group waits, and a staged TMA store-out.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::gemm::{GemmConfig, GemmSpace};
use cypress_core::{MappingConfig, MappingSpace, Shape};
use cypress_sim::MachineConfig;

fn compile(cfg: GemmConfig) -> cypress_core::Compiled {
    let machine = MachineConfig::h100_sxm5();
    let (reg, mapping, args) = GemmSpace
        .build(&Shape::of(&[4096; 3]), &MappingConfig::Gemm(cfg))
        .unwrap();
    CypressCompiler::new(CompilerOptions {
        machine,
        ..Default::default()
    })
    .compile(&reg, &mapping, "gemm", &args)
    .unwrap()
}

#[test]
fn generated_gemm_has_fig1b_structure() {
    let compiled = compile(GemmConfig::h100());
    let cuda = &compiled.cuda;

    // Warp specialization: a DMA warp section and two compute warpgroups.
    assert!(cuda.contains("// DMA warp"), "{cuda}");
    assert!(cuda.contains("// compute warpgroup 0"), "{cuda}");
    assert!(cuda.contains("// compute warpgroup 1"), "{cuda}");

    // The DMA warp waits for the consumer from iteration PIPE onward
    // (Fig. 1b line 9-10) and issues TMA loads.
    let dma = cuda
        .split("// DMA warp")
        .nth(1)
        .unwrap()
        .split("// compute")
        .next()
        .unwrap();
    assert!(dma.contains(">= 3"), "pipeline guard missing:\n{dma}");
    assert!(
        dma.matches("TMA_load").count() >= 2,
        "A and B loads:\n{dma}"
    );
    assert!(dma.contains("TMA_store"), "{dma}");
    assert!(dma.contains("tma_store_wait"), "{dma}");

    // Compute warpgroups wait on producer barriers, run wgmma, group-wait,
    // and release buffers (Fig. 1b lines 23-29).
    let wg = cuda.split("// compute warpgroup 0").nth(1).unwrap();
    let wg0 = wg.split("// compute warpgroup 1").next().unwrap();
    assert!(wg0.contains("wgmma("), "{wg0}");
    assert!(wg0.contains("warpgroup_wait<0>"), "{wg0}");
    assert!(
        wg0.matches("wait(bar").count() >= 2,
        "producer waits:\n{wg0}"
    );
    assert!(
        wg0.matches("arrive(bar").count() >= 2,
        "consumer arrivals:\n{wg0}"
    );

    // Pipelined buffers are stage-indexed modulo the pipeline depth.
    assert!(cuda.contains("% 3"), "stage indexing:\n{cuda}");

    // Shared memory declarations carry the pipeline dimension.
    assert!(cuda.contains("[3]["), "3-stage buffers:\n{cuda}");
}

#[test]
fn warpgroup_count_follows_the_mapping() {
    // One warpgroup needs 64-row block tiles (the WGMMA instruction's m);
    // the mapping controls both, with no change to the task tree.
    let one = compile(GemmConfig {
        wgs: 1,
        u: 64,
        ..GemmConfig::h100()
    });
    assert_eq!(one.kernel.num_compute_warpgroups(), 1);
    assert_eq!(one.kernel.grid, [64, 16, 1]);
    let two = compile(GemmConfig::h100());
    assert_eq!(two.kernel.num_compute_warpgroups(), 2);
    assert_eq!(two.kernel.grid, [32, 16, 1]);
    // Both materialize one 64-row accumulator fragment per warpgroup.
    assert_eq!(one.kernel.frags[0].rows, 64);
    assert_eq!(two.kernel.frags[0].rows, 64);
}

#[test]
fn illegal_single_warpgroup_tile_is_rejected() {
    // wgs=1 with 128-row tiles would need a 128-row warp-level MMA
    // partition; the architecture mandates 64 (Fig. 4), and the partition
    // operator reports it.
    let machine = MachineConfig::h100_sxm5();
    let cfg = GemmConfig {
        wgs: 1,
        ..GemmConfig::h100()
    };
    let (reg, mapping, args) = GemmSpace
        .build(&Shape::of(&[4096; 3]), &MappingConfig::Gemm(cfg))
        .unwrap();
    let err = CypressCompiler::new(CompilerOptions {
        machine,
        ..Default::default()
    })
    .compile(&reg, &mapping, "gemm", &args);
    assert!(
        matches!(err, Err(cypress_core::CompileError::Partition(_))),
        "{err:?}"
    );
}

#[test]
fn register_accounting_respects_the_hopper_limit() {
    let compiled = compile(GemmConfig::h100());
    // 64x256 f32 accumulator = 128 registers per thread + base, under 255.
    let regs = compiled.kernel.regs_per_thread();
    assert!(regs <= 255, "regs {regs}");
    assert!(
        regs >= 128,
        "accumulator must live in registers, got {regs}"
    );
}

#[test]
fn smem_footprint_matches_hand_count() {
    let compiled = compile(GemmConfig::h100());
    // sA 128x64x2B x3 + sB 64x256x2B x3 + sC 128x256x2B = 48K + 96K + 64K.
    assert_eq!(compiled.smem_bytes, 48 * 1024 + 96 * 1024 + 64 * 1024);
}
