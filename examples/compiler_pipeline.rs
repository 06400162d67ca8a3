//! Watch the compiler work: print the event IR after dependence analysis,
//! vectorization, and copy elimination (mirroring the paper's Fig. 8/9),
//! then the final warp-specialized pseudo-CUDA (mirroring Fig. 1b).
//!
//! ```sh
//! cargo run --release --example compiler_pipeline
//! ```

use cypress::core::compile::{CompilerOptions, CypressCompiler};
use cypress::core::kernels::gemm;
use cypress::sim::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(128, 128, 64, &machine)?;
    let compiler = CypressCompiler::new(CompilerOptions {
        machine,
        dump_ir: true,
    });
    let compiled = compiler.compile(&reg, &mapping, "gemm", &args)?;
    for (pass, dump) in &compiled.ir_dumps {
        println!("==================== after {pass} ====================");
        // The depan dump is large (the full instantiated task tree); show
        // the head and tail.
        let lines: Vec<&str> = dump.lines().collect();
        if lines.len() > 60 {
            for l in &lines[..30] {
                println!("{l}");
            }
            println!("... ({} lines elided) ...", lines.len() - 60);
            for l in &lines[lines.len() - 30..] {
                println!("{l}");
            }
        } else {
            println!("{dump}");
        }
    }
    println!("==================== generated kernel ====================");
    println!("{}", compiled.cuda);
    Ok(())
}
