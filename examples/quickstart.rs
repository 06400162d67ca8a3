//! Quickstart: compile the paper's GEMM task tree (Fig. 5), inspect the
//! generated warp-specialized pseudo-CUDA, and run it functionally on the
//! simulated GPU against a host reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cypress::core::compile::{CompilerOptions, CypressCompiler};
use cypress::core::kernels::gemm;
use cypress::sim::{MachineConfig, Simulator};
use cypress::tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small machine so the functional run is instant.
    let machine = MachineConfig::test_gpu();
    let (m, n, k) = (128, 128, 256);

    // 1. The Cypress program: logical description + mapping specification.
    let (registry, mapping, args) = gemm::build(m, n, k, &machine)?;

    // 2. Compile: dependence analysis -> vectorization -> copy elimination
    //    -> warp specialization -> codegen.
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let compiled = compiler.compile(&registry, &mapping, "gemm", &args)?;
    println!("generated warp-specialized kernel:\n{}", compiled.cuda);
    println!(
        "copy elimination removed {} copies in {} rounds; {} B shared memory per CTA",
        compiled.copyelim_stats.removed_copies, compiled.copyelim_stats.rounds, compiled.smem_bytes
    );

    // 3. Run functionally and check against the host oracle.
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[k, n], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[m, n]);
    let want = reference::matmul(&a, &b, DType::F16)?;

    let sim = Simulator::new(machine);
    let run = sim.run_functional(&compiled.kernel, vec![c, a, b])?;
    let err = run.params[0].relative_error(&want)?;
    println!("relative error vs reference: {err:.2e}");
    println!("{}", run.report);
    assert!(err < 1e-2);
    println!("OK");
    Ok(())
}
