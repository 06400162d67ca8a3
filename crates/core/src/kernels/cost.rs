//! Analytical mapping-cost model: predict relative candidate cycles
//! without compiling.
//!
//! The autotuner's exhaustive sweep compiles and simulates every point
//! of a [`MappingSpace`] — correct, but linear in the candidate count.
//! This module prices a candidate *analytically*: the launch its
//! space's [`Footprint`](crate::kernels::footprint) measures in checked
//! tile math — the same one `validate` holds against the machine, so no
//! kernel family is named here — combined with the machine's rates:
//! CTA occupancy from the shared-memory and warp budgets, waves per SM,
//! HBM bytes moved (with the simulator's own L2-reuse discount), WGMMA
//! FLOPs, and a pipeline-stage overlap factor.
//!
//! Predictions are *relative*, not absolute: the guided tuner
//! (`cypress-runtime`) ranks candidates by [`CostEstimate::cycles`],
//! pays the simulator only for the top-k, and records both the
//! predicted and the measured cycles. Two or three machine constants
//! ([`CostConstants`], stored next to [`MachineConfig`]) absorb what
//! the closed form cannot see; [`calibrate`] re-fits them against
//! simulator measurements and a test locks the stored literals.
//!
//! Everything here is pure `f64`/`usize` arithmetic — no host clocks,
//! no randomness, no transcendental functions — so a ranking computed
//! on one machine or in one session is bit-identical on any other.

use crate::kernels::space::{MappingConfig, MappingSpace, Shape};
use cypress_sim::{CostConstants, MachineConfig};
use std::sync::Arc;

/// Version of the analytical model. Persisted per entry in the tuning
/// table (`cypress-runtime`) so stale predictions are detectable; bump
/// whenever a formula or calibrated constant changes meaning.
pub const COST_MODEL_VERSION: u32 = 1;

/// The analytical price of one mapping candidate.
///
/// Produced by [`MappingSpace::estimate`]; [`CostEstimate::cycles`] is
/// the rankable summary, the other fields expose the terms it was built
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// CTAs in the launch grid.
    pub ctas: usize,
    /// CTAs resident per SM, from the shared-memory / warp / scheduler
    /// budgets (registers are not modeled; the compiled kernel's
    /// validation remains the authority, as in the exhaustive sweep).
    pub occupancy: usize,
    /// Serial CTA depth per active SM: `ceil(ctas / min(ctas, sms))`.
    pub waves: usize,
    /// Estimated HBM bytes moved after the L2-reuse discount.
    pub hbm_bytes: f64,
    /// Total WGMMA (tensor-core) FLOPs of the launch.
    pub wgmma_flops: f64,
    /// Fraction of the shorter of compute/memory time the software
    /// pipeline and resident CTAs together hide, in `[0, 1)`:
    /// `1 - 1/((pipeline + ws) · min(occupancy, waves))`.
    pub overlap: f64,
    /// Predicted solo launch cycles — the deterministic ranking key.
    pub cycles: f64,
}

/// What one point of a mapping space launches: what `validate` holds
/// against the machine's budgets, and the constants-free half of a price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Launch {
    /// CTAs in the launch grid.
    pub ctas: usize,
    /// Shared-memory bytes one CTA stages: the compiled kernel's
    /// `smem_bytes` for every family but the chain, whose arm is an
    /// estimate.
    pub smem_bytes: usize,
    /// Registers per thread the mapping pins up front; 0 where the
    /// compiled kernel's validation is the only check.
    pub regs_per_thread: usize,
    /// What the CTAs move and compute; `None` for the families the
    /// model does not price.
    pub work: Option<Work>,
}

/// The two kernel shapes the model prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Work {
    /// A Tensor Core kernel with a software-pipelined main loop.
    Pipelined(Pipeline),
    /// A bandwidth-bound elementwise pass: no reuse, so every one of
    /// `hbm_bytes` is an HBM byte, and no Tensor Core term.
    Streamed { hbm_bytes: f64 },
}

/// Per-CTA raw quantities the closed form [`combine`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pipeline {
    pub warps_per_cta: usize,
    pub tc_flops_per_cta: f64,
    pub load_bytes_per_cta: f64,
    pub store_bytes_per_cta: f64,
    pub simt_flops_per_cta: f64,
    pub sfu_ops_per_cta: f64,
    /// Distinct HBM bytes the whole launch reads (the L2-hit estimate
    /// mirrors the engine: `1 - unique / total_loads`).
    pub unique_load_bytes: f64,
    /// Inner pipelined iterations per CTA (`K/W`, or the K/V loop).
    pub iters: f64,
    pub pipeline: usize,
    /// Counts like an extra pipeline stage: a producer warpgroup keeps
    /// loads in flight during consumer compute.
    pub warpspecialize: bool,
}

/// Price `launch` under `machine`'s physical rates and the calibrated
/// `constants`; `None` when the launch carries no [`Work`].
pub(crate) fn price(
    launch: &Launch,
    machine: &MachineConfig,
    constants: &CostConstants,
) -> Option<CostEstimate> {
    Some(match launch.work.as_ref()? {
        Work::Pipelined(p) => combine(launch, p, machine, constants),
        Work::Streamed { hbm_bytes } => {
            let ctas = launch.ctas.max(1);
            let waves = ctas.div_ceil(ctas.min(machine.sms).max(1));
            // Per-CTA launch overhead amortized over waves.
            let mem = hbm_bytes / (machine.hbm_bytes_per_cycle * constants.mem_efficiency);
            let serial = waves as f64 * (machine.cta_launch_cycles + constants.cta_overhead_cycles);
            CostEstimate {
                ctas,
                occupancy: 1,
                waves,
                hbm_bytes: *hbm_bytes,
                wgmma_flops: 0.0,
                overlap: 0.0,
                cycles: machine.kernel_launch_cycles + mem + serial,
            }
        }
    })
}

/// Fold a pipelined launch into a [`CostEstimate`] under `machine`'s
/// physical rates and the calibrated `constants`.
fn combine(
    launch: &Launch,
    p: &Pipeline,
    machine: &MachineConfig,
    constants: &CostConstants,
) -> CostEstimate {
    let ctas = launch.ctas.max(1);
    let active_sms = ctas.min(machine.sms).max(1);
    let occupancy = occupancy(launch.smem_bytes, p.warps_per_cta, machine);
    let waves = ctas.div_ceil(active_sms);

    // Pipeline overlap: `pipeline` staged buffers (plus a producer
    // warpgroup, which keeps one more load in flight) hide all but
    // `1/(depth)` of the shorter of compute/memory time. Resident CTAs
    // multiply the depth: the engine runs `occupancy` CTAs concurrently
    // on each SM timeline, so one CTA's compute hides another's loads
    // even at pipeline depth 1 — a shallow pipeline with high occupancy
    // overlaps as well as a deep pipeline that crowds out its
    // neighbors.
    let resident = occupancy.min(waves).max(1);
    let stages = p.pipeline as f64 + f64::from(u8::from(p.warpspecialize));
    let depth = stages * resident as f64;
    let overlap = 1.0 - 1.0 / depth;

    // Device-level throughput times (cycles), each resource at its
    // calibrated sustained rate.
    let active = active_sms as f64;
    let n = ctas as f64;
    let total_loads = p.load_bytes_per_cta * n;
    let total_stores = p.store_bytes_per_cta * n;
    // The engine's L2 model: reuse across CTAs turns repeated reads of
    // the same panels into L2 hits.
    let l2_hit = (1.0 - p.unique_load_bytes / total_loads.max(1.0)).clamp(0.0, 0.995);
    let hbm_bytes = total_loads * (1.0 - l2_hit) + total_stores;

    let tc_rate = machine.tc_flops_per_cycle_per_sm * constants.tc_efficiency;
    let tc = p.tc_flops_per_cta * n / (active * tc_rate);
    let tma = (total_loads + total_stores) / (active * machine.tma_bytes_per_cycle_per_sm);
    let hbm = hbm_bytes / (machine.hbm_bytes_per_cycle * constants.mem_efficiency);
    let l2 = (total_loads + total_stores) / machine.l2_bytes_per_cycle;
    let simt = p.simt_flops_per_cta * n / (active * machine.simt_flops_per_cycle_per_sm);
    let sfu = p.sfu_ops_per_cta * n / (active * machine.sfu_ops_per_cycle_per_sm);

    let mem = tma.max(hbm).max(l2);
    let comp = tc + (1.0 - overlap) * (simt + sfu);
    let span = comp.max(mem) + (1.0 - overlap) * comp.min(mem);

    // Latency the pipeline cannot hide, amortized over resident CTAs:
    // per-CTA launch + fixed overhead, plus the exposed slice of each
    // iteration's TMA round trip.
    let exposed_iter = p.iters * (1.0 - overlap) * (machine.tma_latency + machine.barrier_cycles);
    let serial = (waves as f64 / occupancy as f64)
        * (machine.cta_launch_cycles + constants.cta_overhead_cycles + exposed_iter);

    CostEstimate {
        ctas,
        occupancy,
        waves,
        hbm_bytes,
        wgmma_flops: p.tc_flops_per_cta * n,
        overlap,
        cycles: machine.kernel_launch_cycles + span + serial,
    }
}

/// Analytical occupancy: the engine's limiter mirror (shared memory,
/// resident warps, scheduler slots), minus the register file, which the
/// closed form cannot see without compiling.
fn occupancy(smem_bytes: usize, warps_per_cta: usize, machine: &MachineConfig) -> usize {
    let by_smem = machine
        .smem_per_sm
        .checked_div(smem_bytes)
        .unwrap_or(machine.max_ctas_per_sm);
    let by_warps = machine.max_warps_per_sm / warps_per_cta.max(1);
    machine.max_ctas_per_sm.min(by_smem).min(by_warps).max(1)
}

/// One measured point for [`calibrate`]: a space/shape/config triple
/// plus the simulator's solo cycles for it.
#[derive(Debug, Clone)]
pub struct CalibrationSample {
    /// The space the mapping is a point of (its footprint is what the
    /// model prices).
    pub space: Arc<dyn MappingSpace>,
    /// Problem shape the sample was measured at.
    pub shape: Shape,
    /// The mapping that was simulated.
    pub config: MappingConfig,
    /// The simulator's solo cycles.
    pub measured_cycles: f64,
}

/// Fit [`CostConstants`] for `machine` from simulator measurements: a
/// deterministic coarse-to-fine grid search minimizing the sum of
/// squared relative errors `(predicted/measured - 1)²`. Samples the
/// model cannot price are skipped; with no usable sample the neutral
/// constants are returned.
///
/// This is how the literals in [`CostConstants::for_machine`] were
/// produced (once, against the five paper kernels); a test re-runs the
/// fit to keep the stored values honest.
#[must_use]
pub fn calibrate(machine: &MachineConfig, samples: &[CalibrationSample]) -> CostConstants {
    // A sample's launch does not depend on the constants being fitted:
    // measure that half once and keep it with the measurement.
    let usable: Vec<(Launch, f64)> = samples
        .iter()
        .filter(|s| s.measured_cycles > 0.0)
        .filter_map(|s| {
            let footprint = s.space.footprint();
            let launch = footprint.measure(s.space.entry(), &s.shape, &s.config);
            let launch = launch.ok().filter(|l| l.work.is_some())?;
            Some((launch, s.measured_cycles))
        })
        .collect();
    if usable.is_empty() {
        return CostConstants {
            tc_efficiency: 1.0,
            mem_efficiency: 1.0,
            cta_overhead_cycles: 0.0,
        };
    }
    let error = |c: &CostConstants| -> f64 {
        usable
            .iter()
            .filter_map(|(launch, measured)| {
                let r = price(launch, machine, c)?.cycles / measured - 1.0;
                Some(r * r)
            })
            .sum()
    };
    let mut best = CostConstants {
        tc_efficiency: 1.0,
        mem_efficiency: 1.0,
        cta_overhead_cycles: 0.0,
    };
    let mut best_err = f64::INFINITY;
    for tc_step in 0..=18 {
        for mem_step in 0..=18 {
            for ovh_step in 0..=16 {
                let c = CostConstants {
                    tc_efficiency: f64::from(10 + 5 * tc_step) / 100.0,
                    mem_efficiency: f64::from(10 + 5 * mem_step) / 100.0,
                    cta_overhead_cycles: 500.0 * f64::from(ovh_step),
                };
                let e = error(&c);
                // Strict `<`: ties keep the earliest grid point, so the
                // fit is deterministic.
                if e < best_err {
                    best_err = e;
                    best = c;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::attention::{Algorithm, AttentionConfig, AttentionSpace};
    use crate::kernels::batched::BatchedGemmSpace;
    use crate::kernels::gemm::{GemmConfig, GemmSpace};

    fn h100() -> MachineConfig {
        MachineConfig::h100_sxm5()
    }

    #[test]
    fn estimates_are_deterministic_and_finite() {
        let machine = h100();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let cfg = MappingConfig::Gemm(GemmConfig::h100());
        let a = GemmSpace.estimate(&machine, &shape, &cfg).unwrap();
        let b = GemmSpace.estimate(&machine, &shape, &cfg).unwrap();
        assert_eq!(a, b, "pure arithmetic: same inputs, same estimate");
        assert!(a.cycles.is_finite() && a.cycles > 0.0);
        assert!(a.hbm_bytes > 0.0 && a.wgmma_flops > 0.0);
        assert_eq!(a.ctas, (4096 / 128) * (4096 / 256));
    }

    #[test]
    fn mismatched_configs_and_shapes_are_none() {
        let machine = h100();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let gemm = MappingConfig::Gemm(GemmConfig::h100());
        let fa2 = AttentionSpace {
            algorithm: Algorithm::Fa2,
        };
        assert!(fa2.estimate(&machine, &shape, &gemm).is_none());
        let attn = MappingConfig::Attention(AttentionConfig::fa2_h100());
        assert!(GemmSpace.estimate(&machine, &shape, &attn).is_none());
        // Tiles that do not divide the shape are unpriceable, not wrong.
        let odd = Shape::of(&[100, 100, 100]);
        assert!(GemmSpace.estimate(&machine, &odd, &gemm).is_none());
        // Wrong rank.
        let flat = Shape::of(&[4096, 4096]);
        assert!(GemmSpace.estimate(&machine, &flat, &gemm).is_none());
        assert!(BatchedGemmSpace.estimate(&machine, &shape, &gemm).is_none());
    }

    #[test]
    fn deeper_pipelines_and_ws_overlap_more() {
        let machine = h100();
        // 512^3 launches fewer CTAs than the machine has SMs, so a
        // single wave runs per SM and overlap is driven purely by the
        // software pipeline.
        let shape = Shape::of(&[512, 512, 512]);
        let base = GemmConfig::h100();
        let price = |pipeline, ws| {
            let cfg = MappingConfig::Gemm(GemmConfig {
                pipeline,
                warpspecialize: ws,
                ..base
            });
            GemmSpace.estimate(&machine, &shape, &cfg).unwrap()
        };
        assert!(price(1, false).overlap < price(2, false).overlap);
        assert!(price(2, false).overlap < price(2, true).overlap);
        assert!(
            price(1, false).cycles > price(3, true).cycles,
            "an unpipelined mapping must price slower than the deep pipeline"
        );
        // On an oversubscribed launch, resident CTAs hide latency even
        // at pipeline depth 1: the engine co-schedules `occupancy` CTAs
        // per SM timeline, and the model prices that in.
        let big = Shape::of(&[4096, 4096, 4096]);
        let shallow = MappingConfig::Gemm(GemmConfig {
            pipeline: 1,
            warpspecialize: false,
            ..base
        });
        let est = GemmSpace.estimate(&machine, &big, &shallow).unwrap();
        assert!(est.occupancy > 1);
        assert!(est.overlap > 0.0);
    }

    #[test]
    fn occupancy_respects_the_smem_budget() {
        let machine = h100();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let small = MappingConfig::Gemm(GemmConfig {
            v: 64,
            pipeline: 1,
            ..GemmConfig::h100()
        });
        let big = MappingConfig::Gemm(GemmConfig {
            v: 256,
            pipeline: 3,
            ..GemmConfig::h100()
        });
        let occupancy = |cfg| GemmSpace.estimate(&machine, &shape, cfg).unwrap().occupancy;
        let (occ_small, occ_big) = (occupancy(&small), occupancy(&big));
        assert!(
            occ_small > occ_big,
            "smaller staging must fit more CTAs ({occ_small} vs {occ_big})"
        );
    }

    #[test]
    fn fa3_footprint_differs_from_fa2() {
        let machine = h100();
        let shape = Shape::of(&[16, 4096, 128]);
        let cfg = MappingConfig::Attention(AttentionConfig::fa3_h100());
        let price = |algorithm| {
            let space = AttentionSpace { algorithm };
            space.estimate(&machine, &shape, &cfg).unwrap()
        };
        let (fa2, fa3) = (price(Algorithm::Fa2), price(Algorithm::Fa3));
        // Twice the staged K/V bytes can only lower occupancy; half the
        // iterations can only lower the exposed latency.
        assert!(fa3.occupancy <= fa2.occupancy);
        assert_ne!(fa2.cycles, fa3.cycles);
    }

    #[test]
    fn calibrate_with_no_samples_is_neutral() {
        let c = calibrate(&h100(), &[]);
        assert_eq!(
            (c.tc_efficiency, c.mem_efficiency, c.cta_overhead_cycles),
            (1.0, 1.0, 0.0)
        );
    }
}
