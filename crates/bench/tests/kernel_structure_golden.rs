//! Golden digests of the device programs the two kernel emitters build.
//!
//! `tests/golden/kernel_structure.digests` pins one FNV-64 of
//! `format!("{kernel:?}")` — the full rendering, independent of how the
//! simulator's own shape check hashes a kernel — per case: every
//! `cypress-baselines` hand schedule (each autotune *candidate*, not
//! just the winner, so nothing is simulated) at the Fig. 13/14 sizes
//! and at the sizes the functional tests run, the full flag product of
//! both schedule structs at a small size, and `Compiled.kernel` for
//! every kernel family × every `MappingSpace::candidates` point at two
//! shapes, compiled through one shared compiler front per group of
//! schedule siblings. "The same `Kernel`" is therefore checked
//! structurally, instruction for instruction, where `timing.digests`
//! could only infer it from equal cycles.
//!
//! The file was generated by the generators it guards against (the
//! parent of the `Instr`-constructor rewrite of `baselines/hand.rs` and
//! `passes/warpspec.rs`). After an *intentional* change to what either
//! emitter produces, regenerate with
//!
//! ```sh
//! cargo test --release -p cypress-bench --test kernel_structure_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

use cypress_baselines::hand::{attention_kernel, gemm_kernel, AttentionSchedule, GemmSchedule};
use cypress_baselines::{cublas, fa3, thunderkittens, triton};
use cypress_bench::{GEMM_SIZES, HEADS, HEAD_DIM, SEQ_LENS};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::fingerprint::Fnv64;
use cypress_sim::{Kernel, MachineConfig};
use std::fmt::Write as _;

#[path = "../../core/tests/golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families, schedule_siblings};

const GOLDEN: &str = include_str!("golden/kernel_structure.digests");

/// Append `label` and the structural digest of `kernel` to `out`.
fn digest_line(out: &mut String, label: std::fmt::Arguments<'_>, kernel: &Kernel) {
    let mut h = Fnv64::new();
    let _ = write!(h, "{kernel:?}");
    let _ = writeln!(out, "{label} {:016x}", h.finish());
}

/// The tile candidates `cublas::gemm_with` sweeps at `m x n`.
fn cublas_candidates(m: usize, n: usize, k: usize) -> Vec<Kernel> {
    [
        (128, 256, 2),
        (256, 128, 2),
        (128, 128, 2),
        (128, 128, 1),
        (64, 256, 1),
    ]
    .into_iter()
    .filter(|(tm, tn, _)| m.is_multiple_of(*tm) && n.is_multiple_of(*tn))
    .map(|(tm, tn, wgs)| {
        let s = GemmSchedule {
            tm,
            tn,
            wgs,
            ..GemmSchedule::expert()
        };
        gemm_kernel("cublas_gemm", 1, m, n, k, s)
    })
    .collect()
}

/// The candidates `cudnn::attention_with` sweeps at `seq`.
fn cudnn_candidates(seq: usize, sms: usize) -> Vec<Kernel> {
    [(64, true), (128, true), (128, false)]
        .into_iter()
        .filter(|(bc, _)| seq.is_multiple_of(2 * bc))
        .map(|(bc, pingpong)| {
            let s = AttentionSchedule {
                br: 128,
                bc,
                wgs: 2,
                pipe: 2,
                pingpong,
                persistent: true,
                bulk_sync: false,
            };
            attention_kernel("cudnn_attn", HEADS, seq, HEAD_DIM, sms, s)
        })
        .collect()
}

/// The schedule of `baselines_functional.rs` / `cross_crate.rs`.
fn small_gemm_schedule(warpspec: bool) -> GemmSchedule {
    GemmSchedule {
        tm: 64,
        tn: 64,
        tk: 32,
        wgs: 1,
        pipe: 2,
        warpspec,
        dual: false,
        serialize_dual: !warpspec,
        reduction: false,
        smem_reduction: !warpspec,
    }
}

/// Every hand schedule built anywhere in the workspace, at the size it
/// is built at.
fn hand_presets(out: &mut String, machine: &MachineConfig) {
    for s in GEMM_SIZES {
        for (i, kernel) in cublas_candidates(s, s, s).iter().enumerate() {
            digest_line(
                out,
                format_args!("hand {} {s} cand{i}", kernel.name),
                kernel,
            );
        }
        for kernel in [
            cublas::batched_gemm(4, s, s, s),
            triton::gemm(s, s, s),
            triton::batched_gemm(4, s, s, s),
            triton::dual_gemm(s, s, s),
            triton::gemm_reduction(s, s, s),
        ] {
            digest_line(out, format_args!("hand {} {s}", kernel.name), &kernel);
        }
    }
    for seq in SEQ_LENS {
        for kernel in [
            triton::attention(HEADS, seq, HEAD_DIM, machine.sms),
            thunderkittens::attention(HEADS, seq, HEAD_DIM, machine.sms),
            fa3::attention(HEADS, seq, HEAD_DIM, machine.sms),
        ] {
            digest_line(out, format_args!("hand {} {seq}", kernel.name), &kernel);
        }
        for (i, kernel) in cudnn_candidates(seq, machine.sms).iter().enumerate() {
            digest_line(
                out,
                format_args!("hand {} {seq} cand{i}", kernel.name),
                kernel,
            );
        }
    }

    // The test-sized schedules: `baselines_functional.rs`,
    // `cross_crate.rs`, `autotune_smoke.rs`.
    let dual = GemmSchedule {
        dual: true,
        ..small_gemm_schedule(true)
    };
    let reduction = GemmSchedule {
        reduction: true,
        ..small_gemm_schedule(true)
    };
    let cross = GemmSchedule {
        serialize_dual: false,
        smem_reduction: false,
        ..small_gemm_schedule(true)
    };
    for (label, (m, n, k), s) in [
        ("expert", (128, 64, 96), small_gemm_schedule(true)),
        ("bulk_sync", (64, 64, 128), small_gemm_schedule(false)),
        ("dual", (64, 64, 64), dual),
        ("reduction", (64, 64, 64), reduction),
        ("cross_crate", (128, 64, 96), cross),
    ] {
        let kernel = gemm_kernel("t", 1, m, n, k, s);
        digest_line(out, format_args!("test gemm {label} {m}x{n}x{k}"), &kernel);
    }
    for (i, kernel) in cublas_candidates(512, 512, 512).iter().enumerate() {
        digest_line(
            out,
            format_args!("test gemm autotune_smoke cand{i}"),
            kernel,
        );
    }
    let sms = MachineConfig::test_gpu().sms;
    for (pingpong, persistent, bulk_sync, heads) in [
        (false, false, false, 1),
        (true, false, false, 1),
        (true, true, false, 2),
        (false, false, true, 1),
        (true, false, true, 1),
    ] {
        let s = AttentionSchedule {
            br: 128,
            bc: 64,
            wgs: 2,
            pipe: 1,
            pingpong,
            persistent,
            bulk_sync,
        };
        let kernel = attention_kernel("t", heads, 256, 64, sms, s);
        digest_line(
            out,
            format_args!(
                "test attention pp={pingpong} pers={persistent} bulk={bulk_sync} heads={heads}"
            ),
            &kernel,
        );
    }
}

/// The full flag product of both schedule structs at one small size and
/// three pipeline depths — the combinations no preset sets, which the
/// generators nevertheless accept.
fn hand_flag_product(out: &mut String) {
    let bit = |bits: usize, i: usize| bits >> i & 1 == 1;
    for bits in 0..32 {
        for (pipe, wgs, batch) in [(1, 1, 1), (2, 2, 1), (3, 2, 2)] {
            let s = GemmSchedule {
                tm: 64,
                tn: 64,
                tk: 32,
                wgs,
                pipe,
                warpspec: bit(bits, 0),
                dual: bit(bits, 1),
                serialize_dual: bit(bits, 2),
                reduction: bit(bits, 3),
                smem_reduction: bit(bits, 4),
            };
            let kernel = gemm_kernel("flags", batch, 128, 128, 128, s);
            digest_line(
                out,
                format_args!("flags gemm {bits:05b} pipe={pipe} wgs={wgs} batch={batch}"),
                &kernel,
            );
        }
    }
    for bits in 0..8 {
        // `pipe: 0` is accepted (clamped to one K/V stage).
        for (pipe, wgs, heads, sms) in [(0, 1, 1, 4), (1, 2, 3, 4), (2, 2, 5, 132)] {
            let s = AttentionSchedule {
                br: 128,
                bc: 64,
                wgs,
                pipe,
                pingpong: bit(bits, 0),
                persistent: bit(bits, 1),
                bulk_sync: bit(bits, 2),
            };
            let kernel = attention_kernel("flags", heads, 256, 64, sms, s);
            digest_line(
                out,
                format_args!(
                    "flags attention {bits:03b} pipe={pipe} wgs={wgs} heads={heads} sms={sms}"
                ),
                &kernel,
            );
        }
    }
}

/// `Compiled.kernel` per family × shape × candidate, each group of
/// schedule siblings finished from the one `Front` its first member
/// builds — the way `Session::sweep` compiles — so the digests also pin
/// that a shared front changes no kernel.
fn compiled(out: &mut String, machine: &MachineConfig) {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    for (family, space, shapes) in families() {
        for shape in &shapes {
            let candidates = space.candidates(machine, shape);
            assert!(!candidates.is_empty(), "{family} {shape}: empty space");
            let mut lines = vec![String::new(); candidates.len()];
            for group in schedule_siblings(&candidates) {
                let built: Vec<_> = group
                    .iter()
                    .map(|&i| {
                        space
                            .build(shape, &candidates[i])
                            .expect("candidates build")
                    })
                    .collect();
                let (reg, mapping, args) = &built[0];
                let mut front = compiler.front(reg, mapping, space.entry(), args);
                for (&i, (reg, mapping, args)) in group.iter().zip(&built) {
                    let label = format!("{family} {shape} {}", candidates[i].encode());
                    let fp = compiler.fingerprint(reg, mapping, space.entry(), args);
                    match front
                        .as_mut()
                        .map_err(|e| e.clone())
                        .and_then(|front| front.finish(mapping, fp))
                    {
                        Ok(c) => digest_line(&mut lines[i], format_args!("{label}"), &c.kernel),
                        Err(e) => {
                            let _ = writeln!(lines[i], "{label} compile error: {e}");
                        }
                    }
                }
            }
            out.extend(lines);
        }
    }
}

fn digests() -> String {
    let machine = MachineConfig::h100_sxm5();
    let mut out = String::new();
    hand_presets(&mut out, &machine);
    hand_flag_product(&mut out);
    compiled(&mut out, &machine);
    out
}

#[test]
fn emitted_kernels_match_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "an emitter no longer reproduces tests/golden/kernel_structure.digests",
    );
}

/// Rewrites the golden file from the current emitters (see the module
/// header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/kernel_structure.digests"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/kernel_structure.digests"
    );
    std::fs::write(path, digests()).expect("write golden file");
}
