//! Dual-GEMM (paper Fig. 13c): `C = A·B1 + A·B2` in one kernel, the core
//! of Gated Linear Units. The A tile is loaded once per iteration and the
//! two accumulating GEMMs share it; the compiler overlaps the `B2` load
//! with the first GEMM because only sequential semantics constrain it —
//! the behaviour Triton misses (§5.2).

use crate::error::CompileError;
use crate::front::mapping::MappingSpec;
use crate::front::task::TaskRegistry;
use crate::kernels::footprint::Footprint;
use crate::kernels::gemm::{Family, GemmConfig};
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;

/// Algorithmic FLOPs: two GEMMs.
#[must_use]
pub fn flops(m: usize, n: usize, k: usize) -> f64 {
    4.0 * m as f64 * n as f64 * k as f64
}

/// The Dual-GEMM mapping space: shape `[m, n, k]`. Each pipeline stage
/// carries three operand tiles (`A`, `B1`, `B2`), which the family's
/// footprint accounts for — on the H100 budget that caps the pipeline at
/// depth 2, exactly the hand-tuned clamp the builder used to hard-code.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualGemmSpace;

impl MappingSpace for DualGemmSpace {
    fn entry(&self) -> &'static str {
        "dual"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        let mut cfg = GemmConfig::for_machine(machine);
        // Three operand buffers per stage: depth 2 is the deepest pipeline
        // that fits shared memory.
        cfg.pipeline = cfg.pipeline.min(2);
        MappingConfig::Gemm(cfg)
    }

    fn footprint(&self) -> Footprint {
        FAMILY.footprint(false)
    }

    fn grid(&self) -> Grid {
        // `W` is structural here: it interleaves the B1/B2 accumulations,
        // so re-tiling K would change rounding, not just time.
        Grid {
            w: &[],
            ..Grid::GEMM
        }
    }

    fn mapping(&self, _: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        FAMILY.mapping(&cfg.as_gemm("dual")?)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let dims = shape.expect_dims("dual")?;
        FAMILY.program(dims, &cfg.as_gemm("dual")?, self.mapping(shape, cfg)?)
    }
}

/// Build the Dual-GEMM program with the default mapping for `machine`.
///
/// # Errors
///
/// Returns [`CompileError`] when the default mapping is invalid for this
/// machine/shape combination.
pub fn build(
    m: usize,
    n: usize,
    k: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_default(&DualGemmSpace, &[m, n, k], machine)
}

/// Fig. 5a with two column operands: each warpgroup issues the two GEMMs
/// back-to-back against the shared A tile.
const FAMILY: Family = Family {
    task: "dual",
    accs: &["C"],
    vec_accs: &[],
    rows: &["A"],
    cols: &["B1", "B2"],
    wg: &[("gemm", &["C", "A", "B1"]), ("gemm", &["C", "A", "B2"])],
    wg_calls: &["gemm_wgmma"],
};
