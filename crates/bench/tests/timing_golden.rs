//! Golden digests of what the timing engine reports.
//!
//! `tests/golden/timing.digests` pins — for every kernel family × every
//! `MappingSpace::candidates` point at two shapes, and for every
//! `cypress-baselines` hand kernel at the Fig. 13/14 sizes — an FNV-64
//! of the timing report's `cycles` bits, `events`, and the bits of the
//! three utilization fields. The file was generated by the engine it
//! guards against (the parent of the payload-free event queue), so a
//! change to the event path that reorders one pop anywhere shows up as
//! a diff here, naming the kernel.
//!
//! After an *intentional* change to the machine model, regenerate with
//!
//! ```sh
//! cargo test --release -p cypress-bench --test timing_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

use cypress_baselines::{cublas, cudnn, fa3, thunderkittens, triton};
use cypress_bench::{GEMM_SIZES, HEADS, HEAD_DIM, SEQ_LENS};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::fingerprint::Fnv64;
use cypress_sim::{Kernel, MachineConfig, Simulator};
use std::fmt::Write as _;

#[path = "../../core/tests/golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families};

const GOLDEN: &str = include_str!("golden/timing.digests");

/// Time `kernel` and append its digest (or its typed error) to `out`.
fn digest_line(out: &mut String, sim: &Simulator, kernel: &Kernel) {
    match sim.run_timing(kernel) {
        Ok(r) => {
            let mut h = Fnv64::new();
            h.write(&r.cycles.to_bits().to_le_bytes());
            h.write(&r.events.to_le_bytes());
            for u in [r.tc_utilization, r.tma_utilization, r.simt_utilization] {
                h.write(&u.to_bits().to_le_bytes());
            }
            let _ = writeln!(out, "{:016x} events={}", h.finish(), r.events);
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

/// One line per family × shape × candidate, then one per hand kernel.
fn digests() -> String {
    let machine = MachineConfig::h100_sxm5();
    let sim = Simulator::new(machine.clone());
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let mut out = String::new();
    for (family, space, shapes) in families() {
        for shape in &shapes {
            let candidates = space.candidates(&machine, shape);
            assert!(!candidates.is_empty(), "{family} {shape}: empty space");
            for cfg in candidates {
                let (reg, mapping, args) = space.build(shape, &cfg).expect("candidates build");
                let _ = write!(out, "{family} {shape} {} ", cfg.encode());
                match compiler.compile(&reg, &mapping, space.entry(), &args) {
                    Ok(compiled) => digest_line(&mut out, &sim, &compiled.kernel),
                    Err(e) => {
                        let _ = writeln!(out, "compile error: {e}");
                    }
                }
            }
        }
    }
    for s in GEMM_SIZES {
        let hand = [
            cublas::gemm_with(s, s, s, &sim),
            cublas::batched_gemm(4, s, s, s),
            triton::gemm(s, s, s),
            triton::batched_gemm(4, s, s, s),
            triton::dual_gemm(s, s, s),
            triton::gemm_reduction(s, s, s),
        ];
        for kernel in &hand {
            let _ = write!(out, "hand {} {s} ", kernel.name);
            digest_line(&mut out, &sim, kernel);
        }
    }
    for seq in SEQ_LENS {
        let hand = [
            triton::attention(HEADS, seq, HEAD_DIM, machine.sms),
            thunderkittens::attention(HEADS, seq, HEAD_DIM, machine.sms),
            fa3::attention(HEADS, seq, HEAD_DIM, machine.sms),
            cudnn::attention_with(HEADS, seq, HEAD_DIM, &sim),
        ];
        for kernel in &hand {
            let _ = write!(out, "hand {} {seq} ", kernel.name);
            digest_line(&mut out, &sim, kernel);
        }
    }
    out
}

#[test]
fn timing_reports_match_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "the timing engine no longer reproduces tests/golden/timing.digests",
    );
}

/// Rewrites the golden file from the current engine (see the module
/// header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/timing.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing.digests");
    std::fs::write(path, digests()).expect("write golden file");
}
