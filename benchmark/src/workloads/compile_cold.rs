//! `compile_cold` — the compiler does the work, the simulator little.
//!
//! Op = build one Cypress program at one point of its mapping space
//! (`MappingSpace::build`), run a fresh, uncached Fig. 6 pipeline
//! (`CypressCompiler::compile`), and time the kernel once
//! (`Simulator::run_timing_lowered`). This is the first thing a kernel
//! author waits for. The op list spans every kernel family at the
//! paper's sizes and several points of each mapping space, so program
//! shape varies.
//!
//! `sim_cycles` is the sum of the cycles of every kernel compiled.

use super::{digest_of, oracle_check, seeded_order, spread, Checks, OpResult, Workload};
use crate::adapter::{self, Family, KernelSpec, Mapping, Sim};

/// Fig. 13 sizes.
const GEMM_SIZES: [usize; 3] = [4096, 6144, 8192];
/// Fig. 14 sequence lengths (16 heads of dimension 128).
const SEQ_LENS: [usize; 4] = [2048, 4096, 8192, 16384];
/// The chained dual-GEMM only has mappings where its row band fits in
/// shared memory.
const CHAIN_SIZES: [usize; 3] = [512, 1024, 2048];

struct Op {
    spec: KernelSpec,
    mapping: Mapping,
}

pub struct CompileCold {
    ops: Vec<Op>,
    sim: Sim,
    seed: u64,
}

/// The shape a family is checked against the host oracle at: small
/// enough to run functionally, large enough for every tile to divide.
fn oracle_spec(family: Family) -> KernelSpec {
    let dims: &[usize] = match family {
        Family::Gemm | Family::Dual | Family::GemmReduction => &[256, 256, 256],
        Family::Batched => &[2, 256, 256, 256],
        Family::Chain => &[256, 256, 256, 256],
        Family::Fa2 | Family::Fa3 => &[1, 256, 128],
    };
    KernelSpec::new(family, dims)
}

/// Every `(kernel, mapping-space points to compile)` of the op list.
/// GEMM-family spaces give three points spread over their candidate
/// list; the attention spaces have four points each and compile ~20x
/// longer, so every sequence length takes one of FA2's and two of
/// FA3's (the paper's headline kernel), different ones each.
fn specs() -> Vec<(KernelSpec, Vec<usize>)> {
    let mut specs = Vec::new();
    let mut spread_over = |spec: KernelSpec| {
        let points = spread(adapter::candidates(&spec).len(), 3);
        specs.push((spec, points));
    };
    for s in GEMM_SIZES {
        for family in [Family::Gemm, Family::Dual, Family::GemmReduction] {
            spread_over(KernelSpec::new(family, &[s, s, s]));
        }
        spread_over(KernelSpec::new(Family::Batched, &[4, s, s, s]));
    }
    for s in CHAIN_SIZES {
        spread_over(KernelSpec::new(Family::Chain, &[s, s, s, s]));
    }
    for (i, seq) in SEQ_LENS.into_iter().enumerate() {
        specs.push((KernelSpec::new(Family::Fa2, &[16, seq, 128]), vec![i]));
        specs.push((
            KernelSpec::new(Family::Fa3, &[16, seq, 128]),
            vec![i, i + 2],
        ));
    }
    specs
}

impl CompileCold {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let mut ops = Vec::new();
        for (spec, points) in specs() {
            let all = adapter::candidates(&spec);
            for i in points {
                ops.push(Op {
                    spec: spec.clone(),
                    mapping: all[i % all.len()],
                });
            }
        }
        let sim = adapter::simulator();
        // Page the compiler in with the first op of every family in
        // list order — before the shuffle, so set-up does the same
        // work for every seed. (The compile cache this workload is cold
        // for does not exist on this path.)
        let mut seen = Vec::new();
        for op in &ops {
            if !seen.contains(&op.spec.family) {
                seen.push(op.spec.family);
                compile_and_time(&sim, op)?;
            }
        }
        Ok(CompileCold {
            ops: seeded_order(ops, seed, quick),
            sim,
            seed,
        })
    }
}

fn compile_and_time(sim: &Sim, op: &Op) -> Result<OpResult, String> {
    let source = adapter::build(&op.spec, &op.mapping)?;
    let binary = adapter::compile(&source)?;
    let timed = adapter::time(sim, &binary.launchable())?;
    Ok(OpResult {
        sim_cycles: timed.cycles,
        digest: digest_of(
            &[
                binary.fingerprint(),
                timed.events,
                binary.smem_bytes() as u64,
                binary.cuda_bytes() as u64,
                binary.removed_copies() as u64,
            ],
            &[timed.cycles],
        ),
    })
}

impl Workload for CompileCold {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, i: usize) -> String {
        let op = &self.ops[i];
        format!("{} @ {}", op.spec.label(), op.mapping.label())
    }

    fn run_op(&mut self, i: usize) -> Result<OpResult, String> {
        compile_and_time(&self.sim, &self.ops[i])
    }

    /// Every mapping the op list uses, compiled at its family's oracle
    /// shape and run functionally against the host reference.
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        let mut rng = adapter::rng(self.seed ^ 0x0c01d);
        let mut done: Vec<(Family, String)> = Vec::new();
        for op in &self.ops {
            let key = (op.spec.family, op.mapping.label());
            if done.contains(&key) {
                continue;
            }
            done.push(key);
            let spec = oracle_spec(op.spec.family);
            let what = format!("{} @ {}", spec.label(), op.mapping.label());
            let result = adapter::build(&spec, &op.mapping).and_then(|source| {
                let kernel = adapter::compile(&source)?.launchable();
                oracle_check(&self.sim, &spec, &source, &kernel, &mut rng)
            });
            checks.step(&what, result);
        }
        checks
    }
}
