//! Baseline comparators for the Cypress evaluation (paper §5).
//!
//! - [`cublas`]: expert hand-scheduled GEMM/batched-GEMM with tile
//!   autotuning, standing in for the closed-source vendor library;
//! - [`cudnn`]: expert fused attention (persistent, pingpong, autotuned);
//! - [`triton`]: a heuristic tile-level schedule with the behaviours the
//!   paper observed in Triton — `cp.async` instead of TMA, bulk-synchronous
//!   barriers, no load/compute overlap in fused bodies, shared-memory
//!   reduction accumulators;
//! - [`thunderkittens`]: hand-written warp-specialized FlashAttention-2;
//! - [`fa3`]: the reference FlashAttention-3 (pingpong + persistent).
//!
//! Every baseline produces a [`cypress_sim::Kernel`] executed by the same
//! simulator, on the same machine model, as the Cypress compiler's
//! output, so comparisons isolate *scheduling structure*.

#![forbid(unsafe_code)]
#![deny(clippy::too_many_lines)]

pub mod hand;

use cypress_sim::{Kernel, MachineConfig, Simulator};

/// Pick the fastest kernel among `candidates` by timing simulation —
/// the stand-in for a vendor library's autotuner.
///
/// Constructs one [`Simulator`] for the whole sweep; callers timing
/// many shapes should build the simulator once themselves and use
/// [`autotune_with`].
#[must_use]
pub fn autotune(machine: &MachineConfig, candidates: Vec<Kernel>) -> Kernel {
    autotune_with(&Simulator::new(machine.clone()), candidates)
}

/// [`autotune`] over a caller-owned [`Simulator`]: every candidate is
/// timed through the same simulator instance, so a sweep over many
/// shapes (or a bench loop) pays for simulator setup exactly once.
/// Ties in simulated cycles keep the earliest candidate, making the
/// winner deterministic in candidate order.
#[must_use]
pub fn autotune_with(sim: &Simulator, candidates: Vec<Kernel>) -> Kernel {
    candidates
        .into_iter()
        .filter_map(|k| {
            let t = sim.run_timing(&k).ok()?.cycles;
            Some((k, t))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one candidate must validate")
        .0
}

/// cuBLAS-class GEMM baselines.
pub mod cublas {
    use super::hand::{gemm_kernel, GemmSchedule};
    use cypress_sim::{Kernel, Simulator};

    /// Autotuned FP16 GEMM, timed through a caller-owned simulator — a
    /// loop over many GEMM shapes shares one [`Simulator`] across all
    /// its autotuning sweeps.
    #[must_use]
    pub fn gemm_with(m: usize, n: usize, k: usize, sim: &Simulator) -> Kernel {
        let mut cands = Vec::new();
        for (tm, tn, wgs) in [
            (128, 256, 2),
            (256, 128, 2),
            (128, 128, 2),
            (128, 128, 1),
            (64, 256, 1),
        ] {
            if !m.is_multiple_of(tm) || !n.is_multiple_of(tn) {
                continue;
            }
            let s = GemmSchedule {
                tm,
                tn,
                wgs,
                ..GemmSchedule::expert()
            };
            cands.push(gemm_kernel("cublas_gemm", 1, m, n, k, s));
        }
        super::autotune_with(sim, cands)
    }

    /// Batched GEMM (fixed heuristic tile — the library covers many batch
    /// shapes with one kernel, which is why Cypress edges it out at the
    /// largest size in Fig. 13b).
    #[must_use]
    pub fn batched_gemm(l: usize, m: usize, n: usize, k: usize) -> Kernel {
        let s = GemmSchedule {
            tm: 128,
            tn: 128,
            ..GemmSchedule::expert()
        };
        gemm_kernel("cublas_batched", l, m, n, k, s)
    }
}

/// Triton-class baselines (§5.2's observed heuristics).
pub mod triton {
    use super::hand::{attention_kernel, gemm_kernel, AttentionSchedule, GemmSchedule};
    use cypress_sim::Kernel;

    /// Plain GEMM: bulk-synchronous, `cp.async`, `num_stages = 4`.
    #[must_use]
    pub fn gemm(m: usize, n: usize, k: usize) -> Kernel {
        gemm_kernel("triton_gemm", 1, m, n, k, GemmSchedule::triton())
    }

    /// Batched GEMM.
    #[must_use]
    pub fn batched_gemm(l: usize, m: usize, n: usize, k: usize) -> Kernel {
        gemm_kernel("triton_batched", l, m, n, k, GemmSchedule::triton())
    }

    /// Dual-GEMM: the B2 load is not overlapped with the first GEMM.
    #[must_use]
    pub fn dual_gemm(m: usize, n: usize, k: usize) -> Kernel {
        let s = GemmSchedule {
            dual: true,
            serialize_dual: true,
            pipe: 2,
            ..GemmSchedule::triton()
        };
        gemm_kernel("triton_dual", 1, m, n, k, s)
    }

    /// GEMM+Reduction: waits on the Tensor Core before reducing, keeps the
    /// accumulator in shared memory, and — the dominant cost — loses its
    /// software pipelining to the fused reduction (the loop-carried
    /// shared-memory accumulator defeats the `num_stages` pipeliner), so
    /// loads are exposed every iteration.
    #[must_use]
    pub fn gemm_reduction(m: usize, n: usize, k: usize) -> Kernel {
        let s = GemmSchedule {
            reduction: true,
            smem_reduction: true,
            pipe: 1,
            ..GemmSchedule::triton()
        };
        gemm_kernel("triton_gemm_red", 1, m, n, k, s)
    }

    /// FlashAttention-2, bulk-synchronous.
    #[must_use]
    pub fn attention(heads: usize, seq: usize, d: usize, sms: usize) -> Kernel {
        let s = AttentionSchedule {
            br: 128,
            bc: 128,
            wgs: 2,
            pipe: 2,
            pingpong: false,
            persistent: false,
            bulk_sync: true,
        };
        attention_kernel("triton_fa2", heads, seq, d, sms, s)
    }
}

/// ThunderKittens-class FlashAttention-2 (warp-specialized, hand-tuned).
pub mod thunderkittens {
    use super::hand::{attention_kernel, AttentionSchedule};
    use cypress_sim::Kernel;

    /// Warp-specialized FA2.
    #[must_use]
    pub fn attention(heads: usize, seq: usize, d: usize, sms: usize) -> Kernel {
        let s = AttentionSchedule {
            br: 128,
            bc: 128,
            wgs: 2,
            pipe: 2,
            pingpong: false,
            persistent: false,
            bulk_sync: false,
        };
        attention_kernel("tk_fa2", heads, seq, d, sms, s)
    }
}

/// Reference FlashAttention-3 (pingpong scheduling, persistent kernels).
pub mod fa3 {
    use super::hand::{attention_kernel, AttentionSchedule};
    use cypress_sim::Kernel;

    /// The reference FA3 kernel.
    #[must_use]
    pub fn attention(heads: usize, seq: usize, d: usize, sms: usize) -> Kernel {
        let s = AttentionSchedule {
            br: 128,
            bc: 64,
            wgs: 2,
            pipe: 2,
            pingpong: true,
            persistent: true,
            bulk_sync: false,
        };
        attention_kernel("fa3_ref", heads, seq, d, sms, s)
    }
}

/// cuDNN-class fused attention (autotuned expert kernel).
pub mod cudnn {
    use super::hand::{attention_kernel, AttentionSchedule};
    use cypress_sim::{Kernel, Simulator};

    /// Autotuned fused attention, timed through a caller-owned simulator
    /// — shares one [`Simulator`] across a sweep of attention shapes.
    #[must_use]
    pub fn attention_with(heads: usize, seq: usize, d: usize, sim: &Simulator) -> Kernel {
        let machine = sim.machine();
        let mut cands = Vec::new();
        for (bc, pingpong) in [(64, true), (128, true), (128, false)] {
            if !seq.is_multiple_of(2 * bc) {
                continue;
            }
            let s = AttentionSchedule {
                br: 128,
                bc,
                wgs: 2,
                pipe: 2,
                pingpong,
                persistent: true,
                bulk_sync: false,
            };
            cands.push(attention_kernel(
                "cudnn_attn",
                heads,
                seq,
                d,
                machine.sms,
                s,
            ));
        }
        super::autotune_with(sim, cands)
    }
}
