//! Analytical mapping-cost model: predict relative candidate cycles
//! without compiling.
//!
//! The autotuner's exhaustive sweep compiles and simulates every point
//! of a [`MappingSpace`](crate::MappingSpace) — correct, but linear in
//! the candidate count. This module prices a candidate *analytically*,
//! straight from its [`MappingConfig`] + [`Shape`] + [`MachineConfig`]:
//! CTA occupancy from the shared-memory and warp budgets, waves per SM,
//! HBM bytes moved (with the simulator's own L2-reuse discount), WGMMA
//! FLOPs, and a pipeline-stage overlap factor. The byte/FLOP arithmetic
//! is the same checked-`usize` tile math the bytecode lowering bakes
//! into kernel metadata — overflow returns `None` instead of wrapping —
//! so the model prices exactly the working set the engine charges for.
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

use crate::kernels::space::{MappingConfig, Shape};
use cypress_sim::{CostConstants, MachineConfig};

/// Version of the analytical model. Persisted per entry in the tuning
/// table (`cypress-runtime`) so stale predictions are detectable; bump
/// whenever a formula or calibrated constant changes meaning.
pub const COST_MODEL_VERSION: u32 = 1;

/// f16 element size in bytes (every staged operand tile is f16).
const ELEM: usize = 2;

/// The analytical price of one mapping candidate.
///
/// Produced by [`estimate`] (or a space's
/// [`MappingSpace::estimate`](crate::MappingSpace::estimate) override);
/// [`CostEstimate::cycles`] is the rankable summary, the other fields
/// expose the terms it was built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// CTAs in the launch grid.
    pub ctas: usize,
    /// CTAs resident per SM, from the shared-memory / warp / scheduler
    /// budgets (registers are not modeled; the compiler's allocator
    /// remains the authority, as in the exhaustive sweep).
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

/// Per-kernel raw quantities the closed form combines. All derived with
/// checked arithmetic from the tile math.
struct Profile {
    ctas: usize,
    smem_bytes: usize,
    warps_per_cta: usize,
    tc_flops_per_cta: f64,
    load_bytes_per_cta: f64,
    store_bytes_per_cta: f64,
    simt_flops_per_cta: f64,
    sfu_ops_per_cta: f64,
    /// Distinct HBM bytes the whole launch reads (the L2-hit estimate
    /// mirrors the engine: `1 - unique / total_loads`).
    unique_load_bytes: f64,
    /// Inner pipelined iterations per CTA (`K/W`, or the K/V loop).
    iters: f64,
    pipeline: usize,
    /// Counts like an extra pipeline stage: a producer warpgroup keeps
    /// loads in flight during consumer compute.
    warpspecialize: bool,
}

/// Predict the cost of `cfg` for the paper kernel named `entry`
/// (`"gemm"`, `"bgemm"`, `"dual"`, `"gr"`, `"fa"`), using the
/// calibrated [`CostConstants`] for `machine`.
///
/// Returns `None` for unknown entries, mismatched config/shape kinds,
/// tiles that do not divide the problem, or tile math that overflows —
/// callers fall back to the exhaustive sweep. `"fa"` is priced with the
/// FlashAttention-2 footprint; [`AttentionSpace`] overrides
/// [`MappingSpace::estimate`](crate::MappingSpace::estimate) to pass
/// the FA3 flag, which is the accurate path.
///
/// [`AttentionSpace`]: crate::kernels::attention::AttentionSpace
#[must_use]
pub fn estimate(
    entry: &str,
    shape: &Shape,
    cfg: &MappingConfig,
    machine: &MachineConfig,
) -> Option<CostEstimate> {
    estimate_with(
        entry,
        shape,
        cfg,
        machine,
        &CostConstants::for_machine(machine),
    )
}

/// [`estimate`] with explicit constants — what [`calibrate`] sweeps.
///
/// Returns `None` under the same conditions as [`estimate`].
#[must_use]
pub fn estimate_with(
    entry: &str,
    shape: &Shape,
    cfg: &MappingConfig,
    machine: &MachineConfig,
    constants: &CostConstants,
) -> Option<CostEstimate> {
    Some(combine(&profile(entry, shape, cfg)?, machine, constants))
}

/// The constants-free half of a price: what `entry` moves and computes
/// at `cfg`, or `None` where [`estimate`] returns `None`.
fn profile(entry: &str, shape: &Shape, cfg: &MappingConfig) -> Option<Profile> {
    Some(match entry {
        "gemm" => gemm_profile(shape, cfg, 1, 1, 0)?,
        "bgemm" => {
            let [l, m, n, k] = *shape.dims().first_chunk::<4>()?;
            if shape.dims().len() != 4 {
                return None;
            }
            let mut p = gemm_profile(&Shape(vec![m, n, k]), cfg, 1, 1, 0)?;
            p.ctas = p.ctas.checked_mul(l)?;
            p.unique_load_bytes *= l as f64;
            p
        }
        // Dual-GEMM stages two B tiles per pipeline stage and issues two
        // WGMMAs per iteration.
        "dual" => gemm_profile(shape, cfg, 2, 2, 0)?,
        // GEMM+Reduction stages the partial-sum vector outside the loop.
        "gr" => {
            let u = match cfg {
                MappingConfig::Gemm(c) => c.u,
                MappingConfig::Attention(_) => return None,
            };
            gemm_profile(shape, cfg, 1, 1, u.checked_mul(ELEM)?)?
        }
        "fa" => attention_profile(shape, cfg, false)?,
        _ => return None,
    })
}

/// Price an attention candidate, with the algorithm made explicit:
/// FA3 (`fa3 = true`) keeps two K/V pairs in flight (twice the staged
/// bytes, half the loop iterations) — exactly the footprint its space
/// validates against.
///
/// Returns `None` for non-attention configs, malformed shapes, or tiles
/// that do not divide the problem.
#[must_use]
pub fn estimate_attention(
    shape: &Shape,
    cfg: &MappingConfig,
    machine: &MachineConfig,
    fa3: bool,
) -> Option<CostEstimate> {
    let profile = attention_profile(shape, cfg, fa3)?;
    Some(combine(
        &profile,
        machine,
        &CostConstants::for_machine(machine),
    ))
}

/// Exact checked division: `None` unless `b` divides `a`.
fn div_exact(a: usize, b: usize) -> Option<usize> {
    if b == 0 || !a.is_multiple_of(b) {
        return None;
    }
    Some(a / b)
}

/// GEMM-family profile. `b_tiles` = B-shaped operand tiles staged per
/// pipeline stage, `wgmmas` = tensor-core ops per staged tile pair
/// (dual-GEMM: 2), `extra_smem` = fixed bytes outside the loop.
fn gemm_profile(
    shape: &Shape,
    cfg: &MappingConfig,
    b_tiles: usize,
    wgmmas: usize,
    extra_smem: usize,
) -> Option<Profile> {
    let [m, n, k] = *shape.dims().first_chunk::<3>()?;
    if shape.dims().len() != 3 {
        return None;
    }
    let c = match cfg {
        MappingConfig::Gemm(c) => *c,
        MappingConfig::Attention(_) => return None,
    };
    if c.u == 0 || c.v == 0 || c.w == 0 || c.pipeline == 0 {
        return None;
    }
    let ctas = div_exact(m, c.u)?.checked_mul(div_exact(n, c.v)?)?;
    // Staged working set: the same formula the space validators bound.
    let staged = c
        .pipeline
        .checked_mul(
            c.u.checked_mul(c.w)?
                .checked_add(b_tiles.checked_mul(c.w)?.checked_mul(c.v)?)?,
        )?
        .checked_mul(ELEM)?;
    let smem_bytes = staged
        .checked_add(c.u.checked_mul(c.v)?.checked_mul(ELEM)?)?
        .checked_add(extra_smem)?;
    // Per-CTA traffic and FLOPs from the tile math: the A panel (u x k)
    // plus `b_tiles` B panels (k x v) stream in, the C tile streams out.
    let loads =
        c.u.checked_add(b_tiles.checked_mul(c.v)?)?
            .checked_mul(k)?
            .checked_mul(ELEM)?;
    let stores = c.u.checked_mul(c.v)?.checked_mul(ELEM)?;
    let tc = 2.0 * wgmmas as f64 * (c.u as f64) * (c.v as f64) * k as f64;
    // Distinct bytes: A once, each B panel once per batch.
    let unique = m
        .checked_mul(k)?
        .checked_add(b_tiles.checked_mul(k)?.checked_mul(n)?)?
        .checked_mul(ELEM)?;
    Some(Profile {
        ctas,
        smem_bytes,
        warps_per_cta: 4 * (c.wgs + usize::from(c.warpspecialize)),
        tc_flops_per_cta: tc,
        load_bytes_per_cta: loads as f64,
        store_bytes_per_cta: stores as f64,
        // Epilogue clear + accumulate of the C tile.
        simt_flops_per_cta: (c.u * c.v * wgmmas) as f64,
        sfu_ops_per_cta: 0.0,
        unique_load_bytes: unique as f64,
        iters: div_exact(k, c.w)? as f64,
        pipeline: c.pipeline,
        warpspecialize: c.warpspecialize,
    })
}

/// FlashAttention profile; `fa3` selects the two-pairs-in-flight
/// footprint (and the doubled K/V step) of the FA3 schedule.
fn attention_profile(shape: &Shape, cfg: &MappingConfig, fa3: bool) -> Option<Profile> {
    let [heads, seq, head_dim] = *shape.dims().first_chunk::<3>()?;
    if shape.dims().len() != 3 {
        return None;
    }
    let c = match cfg {
        MappingConfig::Attention(c) => *c,
        MappingConfig::Gemm(_) => return None,
    };
    if c.br == 0 || c.bc == 0 || c.pipeline == 0 {
        return None;
    }
    let ctas = heads.checked_mul(div_exact(seq, c.br)?)?;
    let in_flight: usize = if fa3 { 4 } else { 2 };
    let kv_step = if fa3 { 2 * c.bc } else { c.bc };
    let smem_bytes = c
        .pipeline
        .checked_mul(in_flight.checked_mul(c.bc)?.checked_add(c.br)?)?
        .checked_add(c.br)?
        .checked_mul(head_dim)?
        .checked_mul(ELEM)?;
    // QK^T and PV: two u x seq x d contractions per row band.
    let tc = 4.0 * (c.br as f64) * seq as f64 * head_dim as f64;
    // Q tile once, the full K and V streams per CTA; O tile out.
    let loads =
        c.br.checked_add(2usize.checked_mul(seq)?)?
            .checked_mul(head_dim)?
            .checked_mul(ELEM)?;
    let stores = c.br.checked_mul(head_dim)?.checked_mul(ELEM)?;
    let unique = 3usize
        .checked_mul(heads)?
        .checked_mul(seq)?
        .checked_mul(head_dim)?
        .checked_mul(ELEM)?;
    // Online softmax: row-max, exp, two rescales over the br x seq score
    // matrix (SIMT), one exp per score (SFU).
    let scores = (c.br as f64) * seq as f64;
    Some(Profile {
        ctas,
        smem_bytes,
        // The FA kernels always run a producer warpgroup.
        warps_per_cta: 4 * (c.wgs + 1),
        tc_flops_per_cta: tc,
        load_bytes_per_cta: loads as f64,
        store_bytes_per_cta: stores as f64,
        simt_flops_per_cta: 6.0 * scores,
        sfu_ops_per_cta: scores,
        unique_load_bytes: unique as f64,
        iters: div_exact(seq, kv_step)? as f64,
        pipeline: c.pipeline,
        warpspecialize: true,
    })
}

/// Fold a kernel profile into a [`CostEstimate`] under `machine`'s
/// physical rates and the calibrated `constants`.
fn combine(p: &Profile, machine: &MachineConfig, constants: &CostConstants) -> CostEstimate {
    let ctas = p.ctas.max(1);
    let active_sms = ctas.min(machine.sms).max(1);
    let occupancy = occupancy(p, machine);
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
    let depth = ((p.pipeline + usize::from(p.warpspecialize)) * resident) as f64;
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
fn occupancy(p: &Profile, machine: &MachineConfig) -> usize {
    let by_smem = machine
        .smem_per_sm
        .checked_div(p.smem_bytes)
        .unwrap_or(machine.max_ctas_per_sm);
    let by_warps = machine.max_warps_per_sm / p.warps_per_cta.max(1);
    machine.max_ctas_per_sm.min(by_smem).min(by_warps).max(1)
}

/// One measured point for [`calibrate`]: a kernel/shape/config triple
/// plus the simulator's solo cycles for it.
#[derive(Debug, Clone)]
pub struct CalibrationSample {
    /// Entry task name (`"gemm"`, `"bgemm"`, `"dual"`, `"gr"`, `"fa"`).
    pub entry: String,
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
    // A sample's profile does not depend on the constants being fitted:
    // price that half once and keep it with the measurement.
    let usable: Vec<(Profile, f64)> = samples
        .iter()
        .filter(|s| s.measured_cycles > 0.0)
        .filter_map(|s| Some((profile(&s.entry, &s.shape, &s.config)?, s.measured_cycles)))
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
            .map(|(p, measured)| {
                let r = combine(p, machine, c).cycles / measured - 1.0;
                r * r
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
    use crate::kernels::attention::AttentionConfig;
    use crate::kernels::gemm::GemmConfig;

    fn h100() -> MachineConfig {
        MachineConfig::h100_sxm5()
    }

    #[test]
    fn estimates_are_deterministic_and_finite() {
        let machine = h100();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let cfg = MappingConfig::Gemm(GemmConfig::h100());
        let a = estimate("gemm", &shape, &cfg, &machine).unwrap();
        let b = estimate("gemm", &shape, &cfg, &machine).unwrap();
        assert_eq!(a, b, "pure arithmetic: same inputs, same estimate");
        assert!(a.cycles.is_finite() && a.cycles > 0.0);
        assert!(a.hbm_bytes > 0.0 && a.wgmma_flops > 0.0);
        assert_eq!(a.ctas, (4096 / 128) * (4096 / 256));
    }

    #[test]
    fn unknown_entries_and_mismatched_configs_are_none() {
        let machine = h100();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let gemm = MappingConfig::Gemm(GemmConfig::h100());
        assert!(estimate("mystery", &shape, &gemm, &machine).is_none());
        assert!(estimate("fa", &shape, &gemm, &machine).is_none());
        let attn = MappingConfig::Attention(AttentionConfig::fa2_h100());
        assert!(estimate("gemm", &shape, &attn, &machine).is_none());
        // Tiles that do not divide the shape are unpriceable, not wrong.
        assert!(estimate("gemm", &Shape::of(&[100, 100, 100]), &gemm, &machine).is_none());
        // Wrong rank.
        assert!(estimate("gemm", &Shape::of(&[4096, 4096]), &gemm, &machine).is_none());
        assert!(estimate("bgemm", &shape, &gemm, &machine).is_none());
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
            estimate("gemm", &shape, &cfg, &machine).unwrap()
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
        let est = estimate("gemm", &big, &shallow, &machine).unwrap();
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
        let occ_small = estimate("gemm", &shape, &small, &machine)
            .unwrap()
            .occupancy;
        let occ_big = estimate("gemm", &shape, &big, &machine).unwrap().occupancy;
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
        let fa2 = estimate_attention(&shape, &cfg, &machine, false).unwrap();
        let fa3 = estimate_attention(&shape, &cfg, &machine, true).unwrap();
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
