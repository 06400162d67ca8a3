//! Calibration of the analytical cost model against the simulator on
//! the five paper kernels (see `cypress_core::kernels::cost`).
//!
//! The stored [`CostConstants`] literals were produced by running
//! [`cost::calibrate`] over exactly the sweep below; these tests re-run
//! the fit and check (a) the stored constants still match it, and
//! (b) the model's *ranking* is good enough for a guided tuner: on
//! every space, a candidate within 5% of the measured best ranks in
//! the predicted top half.

use cypress_core::kernels::cost::{self, CalibrationSample};
use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::{CompilerOptions, CypressCompiler, MappingConfig, MappingSpace, Shape};
use cypress_sim::{CostConstants, MachineConfig, Simulator};
use std::sync::Arc;

/// The five paper kernels (attention contributes both algorithms).
fn paper_spaces() -> Vec<Arc<dyn MappingSpace>> {
    vec![
        Arc::new(gemm::GemmSpace),
        Arc::new(batched::BatchedGemmSpace),
        Arc::new(dual_gemm::DualGemmSpace),
        Arc::new(gemm_reduction::GemmReductionSpace),
        Arc::new(attention::AttentionSpace {
            algorithm: attention::Algorithm::Fa2,
        }),
        Arc::new(attention::AttentionSpace {
            algorithm: attention::Algorithm::Fa3,
        }),
    ]
}

fn shape_for(entry: &str, size: usize) -> Shape {
    match entry {
        "bgemm" => Shape::of(&[4, size, size, size]),
        "fa" => Shape::of(&[8, size, 128]),
        _ => Shape::of(&[size, size, size]),
    }
}

/// The calibration sweep: compile + simulate every candidate of every
/// paper space at `sizes`, alongside its prediction under the stored
/// constants.
#[allow(clippy::type_complexity)]
fn measure(
    machine: &MachineConfig,
    sizes: &[usize],
) -> Vec<(
    Arc<dyn MappingSpace>,
    Shape,
    Vec<(MappingConfig, Option<f64>, f64)>,
)> {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut out = Vec::new();
    for space in paper_spaces() {
        for &size in sizes {
            let shape = shape_for(space.entry(), size);
            let candidates = space.candidates(machine, &shape);
            if candidates.is_empty() {
                continue;
            }
            let mut rows = Vec::new();
            for cfg in candidates {
                let Ok((registry, mapping, args)) = space.build(&shape, &cfg) else {
                    continue;
                };
                let Ok(compiled) = compiler.compile(&registry, &mapping, space.entry(), &args)
                else {
                    continue;
                };
                let measured = sim
                    .run_timing_lowered(&compiled.kernel, &compiled.lowered)
                    .expect("paper kernels simulate")
                    .cycles;
                let predicted = space.estimate(machine, &shape, &cfg).map(|e| e.cycles);
                rows.push((cfg, predicted, measured));
            }
            out.push((Arc::clone(&space), shape, rows));
        }
    }
    out
}

/// The shapes each machine is calibrated on: the paper's benchmark
/// sizes for H100, small shapes for the unit-test machine.
fn calibration_sizes(machine: &MachineConfig) -> Vec<usize> {
    if machine.name == "H100-SXM5" {
        vec![512, 4096]
    } else {
        vec![128, 256]
    }
}

/// Every valid candidate of every paper space must be priceable — the
/// guided tuner only falls back to exhaustive sweeps for kernels the
/// model does not know.
#[test]
fn every_paper_candidate_is_priceable() {
    for machine in [MachineConfig::test_gpu(), MachineConfig::h100_sxm5()] {
        for space in paper_spaces() {
            for &size in &calibration_sizes(&machine) {
                let shape = shape_for(space.entry(), size);
                for cfg in space.candidates(&machine, &shape) {
                    assert!(
                        space.estimate(&machine, &shape, &cfg).is_some(),
                        "{} candidate {} must price on {}",
                        space.entry(),
                        cfg.label(),
                        machine.name
                    );
                }
            }
        }
    }
}

/// Lock the stored [`CostConstants`]: re-running [`cost::calibrate`]
/// over the calibration sweep must reproduce the literals stored next
/// to [`MachineConfig`]. If a simulator or model change shifts the fit,
/// this test names the new constants to store.
#[test]
fn stored_constants_match_the_calibration_fit() {
    for machine in [MachineConfig::test_gpu(), MachineConfig::h100_sxm5()] {
        let mut samples = Vec::new();
        for (space, shape, rows) in measure(&machine, &calibration_sizes(&machine)) {
            for (cfg, _, measured) in rows {
                samples.push(CalibrationSample {
                    space: Arc::clone(&space),
                    shape: shape.clone(),
                    config: cfg,
                    measured_cycles: measured,
                });
            }
        }
        let fit = cost::calibrate(&machine, &samples);
        let stored = CostConstants::for_machine(&machine);
        assert_eq!(
            fit, stored,
            "stored CostConstants for {} are stale: refit produced {fit:?}",
            machine.name
        );
    }
}

/// The ranking-quality contract the guided tuner relies on: for every
/// paper space and calibration shape, the predicted top half of the
/// candidate list contains a candidate whose measured cycles are within
/// 5% of the measured best. (On the current fit the top half contains
/// the exact best everywhere; 5% is the gated slack.)
#[test]
fn predicted_top_half_contains_a_near_best_candidate() {
    for machine in [MachineConfig::test_gpu(), MachineConfig::h100_sxm5()] {
        for (space, shape, rows) in measure(&machine, &calibration_sizes(&machine)) {
            let best = rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
            let mut ranked: Vec<_> = rows.iter().collect();
            ranked.sort_by(|a, b| {
                a.1.unwrap_or(f64::INFINITY)
                    .total_cmp(&b.1.unwrap_or(f64::INFINITY))
            });
            let half = ranked.len().div_ceil(2).max(1);
            let top_half_best = ranked[..half]
                .iter()
                .map(|r| r.2)
                .fold(f64::INFINITY, f64::min);
            assert!(
                top_half_best <= best * 1.05,
                "{space:?} {shape} on {}: top-half best {top_half_best} vs best {best}",
                machine.name
            );
        }
    }
}
