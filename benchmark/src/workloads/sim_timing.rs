//! `sim_timing` — the discrete-event timing engine does the work, the
//! compiler none.
//!
//! Set-up builds the kernel set of Fig. 13/14 once — the Cypress
//! kernels at their hand-tuned mappings plus the cuBLAS / Triton /
//! cuDNN / FA3 / ThunderKittens baselines at the paper's sizes — and
//! lowers each to bytecode. Op = one `Simulator::run_timing_lowered`.
//! This is what regenerating the paper's figures costs.
//!
//! `sim_cycles` sums the **Cypress** kernels only, so a change to a
//! competitor's model cannot look like a win; baseline cycles are
//! reported by the `baselines.*` layer metrics.

use super::{digest_of, seeded_order, Checks, OpResult, Workload};
use crate::adapter::{self, Baseline, Family, KernelSpec, Launchable, Sim, Timed};

const GEMM_SIZES: [usize; 3] = [4096, 6144, 8192];
const SEQ_LENS: [usize; 4] = [2048, 4096, 8192, 16384];
/// Times every kernel runs per pass: one pass is then ~1 s of engine
/// work on the reference box.
const REPEATS: usize = 3;

/// One kernel of the figure set.
pub struct FigureKernel {
    /// `None` for a Cypress kernel.
    pub system: Option<Baseline>,
    pub spec: KernelSpec,
    pub kernel: Launchable,
    /// What the warm-up run reported; every later run must match it.
    pub reference: Timed,
}

impl FigureKernel {
    pub fn label(&self) -> String {
        match self.system {
            None => format!("Cypress {}", self.spec.label()),
            Some(b) => format!("{b:?} {}", self.spec.label()),
        }
    }
}

/// The paper's evaluation shapes.
pub fn figure_specs() -> Vec<KernelSpec> {
    let mut specs = Vec::new();
    for s in GEMM_SIZES {
        specs.push(KernelSpec::new(Family::Gemm, &[s, s, s]));
        specs.push(KernelSpec::new(Family::Batched, &[4, s, s, s]));
        specs.push(KernelSpec::new(Family::Dual, &[s, s, s]));
        specs.push(KernelSpec::new(Family::GemmReduction, &[s, s, s]));
    }
    for seq in SEQ_LENS {
        specs.push(KernelSpec::new(Family::Fa2, &[16, seq, 128]));
        specs.push(KernelSpec::new(Family::Fa3, &[16, seq, 128]));
    }
    specs
}

/// Compile, build, lower and warm every kernel of Fig. 13/14.
pub fn figure_kernels(sim: &Sim) -> Result<Vec<FigureKernel>, String> {
    let mut kernels = Vec::new();
    for spec in figure_specs() {
        let kernel = adapter::compile(&adapter::build_default(&spec)?)?.launchable();
        let reference = adapter::time(sim, &kernel)?;
        kernels.push(FigureKernel {
            system: None,
            spec: spec.clone(),
            kernel,
            reference,
        });
        for system in [
            Baseline::Cublas,
            Baseline::Triton,
            Baseline::ThunderKittens,
            Baseline::Fa3,
            Baseline::Cudnn,
        ] {
            let Some(hand) = adapter::baseline(sim, system, spec.family, &spec.dims) else {
                continue;
            };
            let kernel = adapter::lower(hand)?;
            let reference = adapter::time(sim, &kernel)?;
            kernels.push(FigureKernel {
                system: Some(system),
                spec: spec.clone(),
                kernel,
                reference,
            });
        }
    }
    Ok(kernels)
}

pub struct SimTiming {
    sim: Sim,
    kernels: Vec<FigureKernel>,
    /// Indices into `kernels`.
    ops: Vec<usize>,
}

impl SimTiming {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let sim = adapter::simulator();
        let kernels = figure_kernels(&sim)?;
        let ops = (0..REPEATS).flat_map(|_| 0..kernels.len()).collect();
        Ok(SimTiming {
            sim,
            kernels,
            ops: seeded_order(ops, seed, quick),
        })
    }
}

impl Workload for SimTiming {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, i: usize) -> String {
        self.kernels[self.ops[i]].label()
    }

    fn run_op(&mut self, i: usize) -> Result<OpResult, String> {
        let k = &self.kernels[self.ops[i]];
        let timed = adapter::time(&self.sim, &k.kernel)?;
        Ok(OpResult {
            sim_cycles: if k.system.is_none() {
                timed.cycles
            } else {
                0.0
            },
            digest: digest_of(&[timed.events], &[timed.cycles]),
        })
    }

    /// Cycles and event counts of every kernel are bit-identical to
    /// the warm-up pass.
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        for k in &self.kernels {
            let Some(again) = checks.step(&k.label(), adapter::time(&self.sim, &k.kernel)) else {
                continue;
            };
            checks.expect(
                again.cycles.to_bits() == k.reference.cycles.to_bits()
                    && again.events == k.reference.events,
                || {
                    format!(
                        "{}: {} cycles / {} events, then {} / {}",
                        k.label(),
                        k.reference.cycles,
                        k.reference.events,
                        again.cycles,
                        again.events
                    )
                },
            );
        }
        checks
    }
}
