//! GEMM+Reduction (paper Fig. 13d): `C = A·B` fused with
//! `y(i) = Σ_k A(i,k)` in one kernel. The row-sum runs on the SIMT units
//! while the Tensor Core computes asynchronously; Cypress overlaps them
//! because no event orders them — the behaviour Triton misses by waiting
//! on the Tensor Core and by placing the accumulator in shared memory
//! (§5.2).
//!
//! The reduction output is materialized as per-block-column partials
//! `Y[M, N/V]` (each CTA column writes its own partial sum), preserving
//! the prange no-aliasing rule; a negligible final pass would combine the
//! `N/V` columns.

use crate::error::CompileError;
use crate::front::ast::{LeafFn, Privilege};
use crate::front::machine::MemLevel;
use crate::front::mapping::MappingSpec;
use crate::front::task::TaskRegistry;
use crate::kernels::common::{self, p};
use crate::kernels::footprint::Footprint;
use crate::kernels::gemm::{Family, GemmConfig};
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;

/// Algorithmic FLOPs (the figure reports GEMM FLOPs; the reduction is
/// O(MK) and not counted, as in the paper).
#[must_use]
pub fn flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// The GEMM+Reduction mapping space: shape `[m, n, k]`. The `V` tile is
/// *structural* here — the partial-sum output `Y` has `N / V` columns —
/// so the space pins it to the machine default and enumerates only the
/// functionally transparent dimensions (wgs/`U`, `W`, pipeline, warp
/// specialization).
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmReductionSpace;

impl MappingSpace for GemmReductionSpace {
    fn entry(&self) -> &'static str {
        "gr"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        FAMILY.footprint(false)
    }

    fn grid(&self) -> Grid {
        Grid {
            v: &[],
            ..Grid::GEMM
        }
    }

    fn mapping(&self, _: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let mut instances = FAMILY.instances(&cfg.as_gemm("gr")?, None);
        let rsum_mems = vec![MemLevel::Register, MemLevel::Shared];
        instances.push(common::leaf_mapping("rsum", rsum_mems));
        MappingSpec::new(instances)
    }

    /// The family's tree plus the `rsum` leaf its warpgroup body
    /// launches.
    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [m, n, k] = shape.expect_dims("gr")?;
        let gemm = cfg.as_gemm("gr")?;
        let mut reg = FAMILY.registry()?;
        let rsum_params = vec![p("Y", Privilege::ReadWrite), p("A", Privilege::Read)];
        common::register_leaf(
            &mut reg,
            "rsum",
            rsum_params,
            LeafFn::RowSumAccum,
            &["A", "Y"],
        )?;
        let args = FAMILY.entry_args(m, n, k, &gemm)?;
        Ok((reg, self.mapping(shape, cfg)?, args))
    }
}

/// The GEMM+Reduction mapping space with `V` pinned to an explicit
/// value instead of the machine default.
///
/// `V` is structural for this kernel — the partial-sum output is
/// `Y[M, N/V]` — so a graph-level rewrite that must preserve a specific
/// `Y` shape (the fusion rewriter fuses a GEMM with a standalone
/// row-reduction whose output is `M x 1`, forcing `V = N`) tunes over a
/// space whose every candidate keeps that `V`. The enumerated
/// dimensions (`W`, pipeline depth, warp specialization) remain
/// functionally transparent.
#[derive(Debug, Clone, Copy)]
pub struct PinnedVSpace {
    /// The pinned `V` tile (the fused kernel's output-column tile).
    pub v: usize,
}

impl MappingSpace for PinnedVSpace {
    fn entry(&self) -> &'static str {
        "gr"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        let mut cfg = GemmConfig::for_machine(machine);
        cfg.v = self.v;
        MappingConfig::Gemm(cfg)
    }

    fn footprint(&self) -> Footprint {
        FAMILY.footprint(false)
    }

    fn grid(&self) -> Grid {
        // The default already carries the pinned `v`.
        GemmReductionSpace.grid()
    }

    fn validate(
        &self,
        machine: &MachineConfig,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(), CompileError> {
        let c = cfg.as_gemm("gr")?;
        if c.v != self.v {
            return Err(CompileError::Unsupported(format!(
                "`gr` V={} is structural here and pinned to {}",
                c.v, self.v
            )));
        }
        GemmReductionSpace.validate(machine, shape, cfg)
    }

    fn mapping(&self, shape: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        GemmReductionSpace.mapping(shape, cfg)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        GemmReductionSpace.build(shape, cfg)
    }
}

/// Build the fused GEMM+Reduction program.
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
    build_default(&GemmReductionSpace, &[m, n, k], machine)
}

/// Fig. 5a with a row-vector accumulator beside `C`. Per warpgroup: the
/// Tensor Core GEMM and the SIMT row-sum, unordered with respect to each
/// other (they only read A).
const FAMILY: Family = Family {
    task: "gr",
    accs: &["C"],
    vec_accs: &["Y"],
    rows: &["A"],
    cols: &["B"],
    wg: &[("gemm", &["C", "A", "B"]), ("rsum", &["Y", "A"])],
    wg_calls: &["gemm_wgmma", "rsum_leaf"],
};
