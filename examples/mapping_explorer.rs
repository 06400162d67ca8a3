//! Mapping exploration (paper §5.4): sweep performance-sensitive mapping
//! decisions — pipeline depth, warpgroup count, warp specialization —
//! with *no change to the logical description*, and print the simulated
//! throughput landscape. Then let the runtime's autotuner do the same
//! search automatically: `Session::autotune` walks the kernel's
//! `MappingSpace`, times every candidate, and records the winner in a
//! tuning table that persists across sessions.
//!
//! ```sh
//! cargo run --release --example mapping_explorer
//! ```

use cypress::core::compile::{CompilerOptions, CypressCompiler};
use cypress::core::kernels::gemm::{self, GemmConfig, GemmSpace};
use cypress::core::{MappingConfig, MappingSpace, Shape};
use cypress::runtime::{MappingPolicy, Program, Session};
use cypress::sim::{MachineConfig, Simulator};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::h100_sxm5();
    let sim = Simulator::new(machine.clone());
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let size = 4096;
    let fl = gemm::flops(size, size, size);

    println!("GEMM {size}^3 mapping landscape (simulated H100):");
    println!(
        "{:>6} {:>5} {:>10} {:>12} {:>8}",
        "pipe", "wgs", "warpspec", "TFLOP/s", "tc busy"
    );
    for warpspecialize in [true, false] {
        for pipeline in 1..=3usize {
            for wgs in [1usize, 2] {
                // One warpgroup requires 64-row block tiles (wgmma m = 64).
                let u = if wgs == 1 { 64 } else { 128 };
                let cfg = GemmConfig {
                    pipeline,
                    wgs,
                    u,
                    warpspecialize,
                    ..GemmConfig::h100()
                };
                let built = GemmSpace.build(&Shape::of(&[size; 3]), &MappingConfig::Gemm(cfg));
                let Ok((reg, mapping, args)) = built else {
                    continue;
                };
                let compiled = match compiler.compile(&reg, &mapping, "gemm", &args) {
                    Ok(c) => c,
                    Err(e) => {
                        println!(
                            "{pipeline:>6} {wgs:>5} {warpspecialize:>10} {:>12}",
                            format!("-- {e}")
                        );
                        continue;
                    }
                };
                let t = sim.run_timing(&compiled.kernel)?;
                println!(
                    "{pipeline:>6} {wgs:>5} {warpspecialize:>10} {:>12.0} {:>7.0}%",
                    t.tflops_for(fl),
                    t.tc_utilization * 100.0
                );
            }
        }
    }
    println!("\nEvery row is the same logical description; only the mapping changed.");

    // The same search, automated: Session::autotune walks the kernel's
    // MappingSpace (candidates are validated against the machine and
    // shape, compiled through the kernel cache, and timed), then the
    // session transparently launches the winner under
    // MappingPolicy::Autotune. At a small size the hand-tuned H100
    // tiles underfill the device and the tuner finds a better point.
    let mut session = Session::new(machine.clone()).with_mapping_policy(MappingPolicy::Autotune);
    println!("\nAutotuned GEMM mappings (simulated H100):");
    for s in [512usize, 1024, size] {
        let program = Program::from_space(Arc::new(GemmSpace), Shape::of(&[s, s, s]), &machine)?;
        let tuned = session.autotune(&program)?;
        println!(
            "  {s:>5}^3: {} -> {:.2}x over hand-tuned ({} candidates)",
            tuned.config.label(),
            tuned.speedup(),
            tuned.candidates
        );
    }
    println!(
        "tuning table: {} entries; TuningTable::save/load persists them across sessions",
        session.tuning_table().len()
    );
    Ok(())
}
