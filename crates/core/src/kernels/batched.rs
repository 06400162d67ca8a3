//! Batched GEMM (paper Fig. 13b): `L` independent GEMMs in one launch.
//!
//! Batch dimensions are folded into rows (tensors are rank-2 in this
//! reproduction); the host level peels the batch with a `blocks` partition
//! and a BLOCK-level `prange`, which the scheduler maps onto the third
//! grid dimension.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::TaskRegistry;
use crate::kernels::common::{self, p};
use crate::kernels::footprint::{self, Footprint};
use crate::kernels::gemm::{self, GemmConfig};
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;

/// Algorithmic FLOPs (Fig. 13b reports `L` GEMMs).
#[must_use]
pub fn flops(l: usize, m: usize, n: usize, k: usize) -> f64 {
    2.0 * l as f64 * m as f64 * n as f64 * k as f64
}

/// The batched-GEMM mapping space: shape `[l, m, n, k]`. The batch is
/// peeled at the grid level, so the per-matrix space is exactly the GEMM
/// one.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchedGemmSpace;

impl MappingSpace for BatchedGemmSpace {
    fn entry(&self) -> &'static str {
        "bgemm"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        gemm::FAMILY.footprint(true)
    }

    fn grid(&self) -> Grid {
        Grid::GEMM
    }

    /// The GEMM family's instances under a host level that peels the
    /// batch.
    fn mapping(&self, shape: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let [batch, ..] = shape.expect_dims::<4>("bgemm")?;
        let cfg = cfg.as_gemm("bgemm")?;
        let global = vec![MemLevel::Global; 3];
        let mut instances = vec![
            TaskMapping::for_variant("bgemm_host", ProcLevel::Host, global)
                .tunable("L", batch as i64)
                .calls(&["gemm_grid"])
                .entrypoint(),
        ];
        // The per-matrix grid reuses the `gemm_host` *variant* at BLOCK
        // level — the same logical description bound to a different
        // machine point, the reuse §3.2 promises.
        let grid = Some(("gemm_grid", ProcLevel::Block));
        instances.extend(gemm::FAMILY.instances(&cfg, grid));
        MappingSpec::new(instances)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [batch, m, n, k] = shape.expect_dims("bgemm")?;
        let reg = registry()?;
        let mapping = self.mapping(shape, cfg)?;
        let rows = |extent| footprint::folded_rows("bgemm", batch, extent);
        let args = vec![
            EntryArg::f16("C", rows(m)?, n),
            EntryArg::f16("A", rows(m)?, k),
            EntryArg::f16("B", rows(k)?, n),
        ];
        Ok((reg, mapping, args))
    }
}

/// Build the batched GEMM program: `C[l] = A[l] @ B[l]` for `l < batch`.
///
/// # Errors
///
/// Returns [`CompileError`] when the default mapping is invalid for this
/// machine/shape combination.
pub fn build(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_default(&BatchedGemmSpace, &[batch, m, n, k], machine)
}

/// The GEMM family's tree under a host level that peels the batch.
fn registry() -> Result<TaskRegistry, CompileError> {
    // The per-matrix levels are exactly the plain GEMM tree.
    let mut reg = gemm::FAMILY.registry()?;

    // Host level: peel the batch.
    let params = vec![
        p("C", Privilege::ReadWrite),
        p("A", Privilege::Read),
        p("B", Privilege::Read),
    ];
    let matrix = |part: &str| ArgExpr::piece(part, vec![SExpr::var("l"), SExpr::lit(0)]);
    let per_matrix = Stmt::launch("gemm", vec![matrix("Cb"), matrix("Ab"), matrix("Bb")]);
    let host = vec![
        Stmt::tunable("L"),
        Stmt::let_("M", SExpr::shape("C", 0) / SExpr::var("L")),
        Stmt::let_("N", SExpr::shape("C", 1)),
        Stmt::let_("K", SExpr::shape("A", 1)),
        Stmt::let_("KL", SExpr::shape("B", 0) / SExpr::var("L")),
        Stmt::blocks("Cb", "C", SExpr::var("M"), SExpr::var("N")),
        Stmt::blocks("Ab", "A", SExpr::var("M"), SExpr::var("K")),
        Stmt::blocks("Bb", "B", SExpr::var("KL"), SExpr::var("N")),
        Stmt::prange(&["l"], vec![SExpr::var("L")], vec![per_matrix]),
    ];
    common::register_inner(&mut reg, "bgemm", "bgemm_host", params, host)?;
    Ok(reg)
}
