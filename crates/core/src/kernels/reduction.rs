//! Standalone row-reduction kernel: `Y[i, 0] = Σ_k A[i, k]` — the
//! reduction half of the Fig. 13d GEMM+Reduction kernel as its own
//! launch.
//!
//! A task graph that wants the row statistic of a tensor without the
//! fused kernel expresses it with this primitive next to a plain GEMM;
//! the runtime's fusion rewriter (`cypress-runtime::fuse`) recognizes a
//! GEMM and a row-reduction reading the *same* `A` and collapses the
//! pair back into the fused `gr` kernel. The accumulation walks each
//! row's `k` dimension in ascending order in unrounded f32 register
//! fragments — exactly the order the fused kernel uses — so the fused
//! and unfused row sums are bitwise identical.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::TaskRegistry;
use crate::kernels::common::{self, p, tiled};
use crate::kernels::footprint::Footprint;
use crate::kernels::gemm::GemmConfig;
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

/// Algorithmic FLOPs: one add per element.
#[must_use]
pub fn flops(m: usize, k: usize) -> f64 {
    m as f64 * k as f64
}

/// The row-reduction mapping space: shape `[m, k]` for
/// `Y[m,1] = Σ_k A[m,k]`. Only `U`/`wgs`, `W`, pipeline depth, and warp
/// specialization are enumerated; all are functionally transparent
/// because each row's sum is accumulated in ascending `k` order in f32
/// fragments regardless of the tiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionSpace;

impl MappingSpace for ReductionSpace {
    fn entry(&self) -> &'static str {
        "reduce"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        Footprint::RowReduce
    }

    fn grid(&self) -> Grid {
        Grid {
            v: &[],
            ..Grid::GEMM
        }
    }

    fn mapping(&self, _: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let cfg = cfg.as_gemm("reduce")?;
        let global = vec![MemLevel::Global; 2];
        let staged = [MemLevel::Register, MemLevel::Shared];
        let block_calls = ["vclear_tile", "rstep_tile", "vstore_tile"];
        let mut instances = vec![
            TaskMapping::for_variant("red_host", ProcLevel::Host, global.clone())
                .tunable("U", cfg.u as i64)
                .calls(&["red_block"])
                .entrypoint(),
            common::accumulate_block_instance("red_block", global, &cfg, &block_calls),
            common::row_split_instance("rstep_tile", "rstep_tile", cfg.wgs, &staged, "rsum_leaf"),
            common::leaf_mapping("rsum", staged.to_vec()),
        ];
        instances.extend(common::vec_clear_mappings("vclear", cfg.wgs));
        instances.extend(common::vec_store_mappings("vstore", cfg.wgs));
        MappingSpec::new(instances)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [m, k] = shape.expect_dims("reduce")?;
        let args = vec![EntryArg::f16("Y", m, 1), EntryArg::f16("A", m, k)];
        Ok((registry()?, self.mapping(shape, cfg)?, args))
    }
}

/// Build the row-reduction program with the default mapping for
/// `machine`: `Y[m,1] = Σ_k A[m,k]`.
///
/// # Errors
///
/// Returns [`CompileError`] when the default mapping is invalid for this
/// machine/shape combination.
pub fn build(
    m: usize,
    k: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_default(&ReductionSpace, &[m, k], machine)
}

/// Host bands, a block-level fold over `W`-wide slices, and the
/// warpgroup row split down to the `rsum` leaf.
fn registry() -> Result<TaskRegistry, CompileError> {
    let mut reg = TaskRegistry::new();
    common::register_vec_clear(&mut reg, "vclear", 0.0)?;
    common::register_vec_store(&mut reg, "vstore")?;
    let params = vec![p("Y", Privilege::ReadWrite), p("A", Privilege::Read)];
    common::register_leaf(
        &mut reg,
        "rsum",
        params.clone(),
        LeafFn::RowSumAccum,
        &["A", "Y"],
    )?;

    // Host: one CTA per `U`-row band of `A` and `Y`.
    let [u, kk, i] = ["U", "K", "i"].map(SExpr::var);
    let (zero, one) = (SExpr::lit(0), SExpr::lit(1));
    let mut host = vec![
        Stmt::tunable("U"),
        Stmt::let_("M", SExpr::shape("A", 0)),
        Stmt::let_("K", SExpr::shape("A", 1)),
    ];
    let mut bands = Vec::new();
    tiled(&["Y"], [&u, &one], [&i, &zero], &mut host, &mut bands);
    tiled(&["A"], [&u, &kk], [&i, &zero], &mut host, &mut bands);
    let launch = Stmt::launch("reduce", bands);
    host.push(Stmt::prange(
        &["i"],
        vec![SExpr::var("M") / u],
        vec![launch],
    ));
    common::register_inner(&mut reg, "reduce", "red_host", params.clone(), host)?;

    // Block: running sums in registers, folded over `W`-wide slices of K.
    let slice = ArgExpr::piece("Ap", vec![SExpr::lit(0), SExpr::var("k")]);
    let block = vec![
        Stmt::tunable("W"),
        Stmt::let_("M", SExpr::shape("A", 0)),
        Stmt::let_("K", SExpr::shape("A", 1)),
        Stmt::blocks("Ap", "A", SExpr::var("M"), SExpr::var("W")),
        Stmt::make_tensor("Yacc", SExpr::var("M"), SExpr::lit(1), DType::F16),
        Stmt::launch_whole("vclear", &["Yacc"]),
        Stmt::srange(
            "k",
            SExpr::cdiv(kk, SExpr::var("W")),
            vec![Stmt::launch("rstep", vec![ArgExpr::tensor("Yacc"), slice])],
        ),
        Stmt::launch_whole("vstore", &["Yacc", "Y"]),
    ];
    common::register_inner(&mut reg, "reduce", "red_block", params.clone(), block)?;

    // Tile level: split rows across warpgroups; each warpgroup folds its
    // band of the A tile into its band of the running sums.
    let split = [("Y", one), ("A", SExpr::var("W"))];
    let tile = common::row_split(("M", "A"), &[("W", "A", 1)], &split, &[], "rsum");
    common::register_inner(&mut reg, "rstep", "rstep_tile", params, tile)?;
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_has_two_params() {
        let (reg, mapping, args) = build(128, 64, &MachineConfig::test_gpu()).unwrap();
        assert!(reg.variant("red_host").is_ok());
        assert_eq!(mapping.entry().instance, "red_host");
        assert_eq!(args.len(), 2);
        assert_eq!(flops(4, 8), 32.0);
    }

    #[test]
    fn indivisible_shapes_are_typed_errors() {
        let err = build(100, 64, &MachineConfig::test_gpu());
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }
}
