//! The all-reduce kernel: `Y = X0 + X1 + … + X{w-1}`, the per-device
//! combine step of a w-way reduction, placed in a graph like any compute
//! node ([`AllReduceSpace`], entry `allred`). Inputs accumulate in
//! ascending order in unrounded f32 register fragments, so the sum is
//! bitwise identical at every tiling — the same transparency argument as
//! the paper kernels' spaces. The space enumerates only that
//! functionally transparent dimension (the `V` column tile) and states
//! the [`Footprint::Fold`] footprint, which the cost model prices as a
//! bandwidth-bound stream (no tensor-core term) and `validate` bounds
//! with typed errors.
//!
//! Moving a tensor between devices needs no kernel: the runtime's
//! sharder launches a cross-device edge on its link, priced by the link
//! model (`cypress_sim::topology::Link::transfer_cycles`). What this
//! module keeps for it is [`tensor_bytes`], the size of the tensor a
//! link moves.

use crate::error::CompileError;
use crate::front::ast::{LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::TaskRegistry;
use crate::kernels::common::{self, p, tiled};
use crate::kernels::footprint::{self, Footprint};
use crate::kernels::gemm::GemmConfig;
use crate::kernels::space::{build_fitted, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

/// f16 element size in bytes: every staged operand tile and every
/// tensor the kernel library moves is f16.
pub(crate) const ELEM: usize = 2;

/// Bytes one `[rows, cols]` f16 tensor occupies — what a transfer of it
/// moves across a link.
#[must_use]
pub fn tensor_bytes(rows: usize, cols: usize) -> f64 {
    rows as f64 * cols as f64 * ELEM as f64
}

/// Register the `radd` accumulate tree: `T += X` per block tile, rows
/// split across warpgroups, `X` staged through shared memory. The
/// elementwise analogue of the reduction kernel's `rstep`.
fn register_accumulate(reg: &mut TaskRegistry, task: &str) -> Result<(), CompileError> {
    let params = vec![p("T", Privilege::ReadWrite), p("X", Privilege::Read)];
    common::register_band_tile(reg, task, params.clone(), "T", &["T", "X"])?;
    common::register_leaf(reg, task, params, LeafFn::AddExt, &["T", "X", "T"])
}

/// The all-reduce's task tree for `ways` inputs.
fn registry(ways: usize) -> Result<TaskRegistry, CompileError> {
    footprint::fold_inputs("allred", ways)?;
    let tensors = tensors(ways);
    let (first, rest) = (&tensors[1], &tensors[2..]);
    let mut reg = TaskRegistry::new();
    // Inbound X → T copy and outbound T → Y copy share the vec-store
    // task shape; only the mapping's memory placement differs.
    common::register_vec_store(&mut reg, "xin")?;
    common::register_vec_store(&mut reg, "xout")?;
    register_accumulate(&mut reg, "radd")?;

    let mut params = vec![p("Y", Privilege::Write)];
    params.extend(tensors[1..].iter().map(|x| p(x, Privilege::Read)));

    let [u, v, i, j] = ["U", "V", "i", "j"].map(SExpr::var);
    let extents = [
        Stmt::let_("M", SExpr::shape("Y", 0)),
        Stmt::let_("N", SExpr::shape("Y", 1)),
    ];
    let mut host = vec![Stmt::tunable("U"), Stmt::tunable("V")];
    host.extend(extents.clone());
    let mut tiles = Vec::new();
    let names: Vec<&str> = tensors.iter().map(String::as_str).collect();
    tiled(&names, [&u, &v], [&i, &j], &mut host, &mut tiles);
    let grid = vec![SExpr::var("M") / u, SExpr::var("N") / v];
    let launch = Stmt::launch("allred", tiles);
    host.push(Stmt::prange(&["i", "j"], grid, vec![launch]));
    common::register_inner(&mut reg, "allred", "allred_host", params.clone(), host)?;

    // Block level: seed the accumulator from the first input, fold the
    // remaining inputs in ascending order, stage the result out. The
    // fixed fold order makes the sum independent of the tiling.
    let mut block = extents.to_vec();
    let (rows, cols) = (SExpr::var("M"), SExpr::var("N"));
    block.push(Stmt::make_tensor("T", rows, cols, DType::F16));
    block.push(Stmt::launch_whole("xin", &[first, "T"]));
    block.extend(rest.iter().map(|x| Stmt::launch_whole("radd", &["T", x])));
    block.push(Stmt::launch_whole("xout", &["T", "Y"]));
    common::register_inner(&mut reg, "allred", "allred_block", params, block)?;
    Ok(reg)
}

/// The kernel's tensors: the output `Y`, then the inputs `X0 … X{ways-1}`.
fn tensors(ways: usize) -> Vec<String> {
    let inputs = (0..ways).map(|i| format!("X{i}"));
    std::iter::once("Y".to_string()).chain(inputs).collect()
}

/// The all-reduce mapping space: shape `[ways, m, n]` for
/// `Y[m,n] = X0 + X1 + … + X{ways-1}`, the combine step of a `ways`-way
/// reduction. Inputs accumulate in ascending index order per element in
/// unrounded f32 register fragments, so every candidate tiling computes
/// bitwise-identical sums.
///
/// It maps with the machine's hand-tuned GEMM point (its `U`/`V`/`WGS`
/// are exactly the tile/warpgroup split the fold trees need) and walks
/// one dimension of it: the column tile `V` is the one functionally
/// transparent dimension worth enumerating (rows are pinned to the
/// warpgroup split, and the fold has no K loop, so pipeline depth and
/// warp specialization change nothing).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllReduceSpace;

impl MappingSpace for AllReduceSpace {
    fn entry(&self) -> &'static str {
        "allred"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        Footprint::Fold
    }

    fn grid(&self) -> Grid {
        Grid {
            wgs: &[],
            v: &[64, 128, 256],
            w: &[],
            pipeline: &[],
            warpspecialize: false,
        }
    }

    fn mapping(&self, shape: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let [ways, ..] = shape.expect_dims::<3>("allred")?;
        footprint::fold_inputs("allred", ways)?;
        let cfg = cfg.as_gemm("allred")?;
        let global = vec![MemLevel::Global; ways + 1];
        let mut instances = vec![
            TaskMapping::for_variant("allred_host", ProcLevel::Host, global.clone())
                .tunable("U", cfg.u as i64)
                .tunable("V", cfg.v as i64)
                .calls(&["allred_block"])
                .entrypoint(),
            TaskMapping::for_variant("allred_block", ProcLevel::Block, global).calls(&[
                "xin_tile",
                "radd_tile",
                "xout_tile",
            ]),
        ];
        // The inbound copy is the vec-store task shape with the memory
        // placement reversed: the *source* is staged through shared
        // memory and the destination lands in register fragments.
        let inbound = [MemLevel::Shared, MemLevel::Register];
        instances.extend(common::band_mappings("xin", cfg.wgs, &inbound));
        // `X` staged in shared memory, `T` held in register fragments.
        instances.extend(common::vec_store_mappings("radd", cfg.wgs));
        instances.extend(common::vec_store_mappings("xout", cfg.wgs));
        MappingSpec::new(instances)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [ways, m, n] = shape.expect_dims("allred")?;
        let reg = registry(ways)?;
        let args = tensors(ways)
            .iter()
            .map(|t| EntryArg::f16(t, m, n))
            .collect();
        Ok((reg, self.mapping(shape, cfg)?, args))
    }
}

/// Build the all-reduce program `Y = X0 + … + X{ways-1}` with the
/// default mapping for `machine`, or — when the default does not fit the
/// shape — the first candidate [`AllReduceSpace`] enumerates for it.
///
/// # Errors
///
/// Returns [`CompileError`] when `ways` is outside `2..=1024`, or the
/// default mapping's error when no mapping of the space is valid for
/// this machine/shape combination.
pub fn build_all_reduce(
    ways: usize,
    m: usize,
    n: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_fitted(&AllReduceSpace, &[ways, m, n], machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_builds_for_two_and_four_ways() {
        let machine = MachineConfig::test_gpu();
        for ways in [2usize, 4] {
            let (reg, mapping, args) = build_all_reduce(ways, 128, 128, &machine).unwrap();
            assert!(reg.variant("allred_host").is_ok());
            assert_eq!(mapping.entry().instance, "allred_host");
            assert_eq!(args.len(), ways + 1);
        }
        assert!(matches!(
            build_all_reduce(1, 128, 128, &machine),
            Err(CompileError::Unsupported(_))
        ));
    }

    /// The H100 default (`V = 256`) does not divide a 128-column tensor;
    /// the builder falls back to the first enumerated candidate.
    #[test]
    fn builders_fall_back_to_the_first_candidate() {
        let machine = MachineConfig::h100_sxm5();
        let space = AllReduceSpace;
        let shape = Shape::of(&[2, 256, 128]);
        assert!(space
            .validate(&machine, &shape, &space.default_for(&machine))
            .is_err());
        let first = space.candidates(&machine, &shape)[0]
            .as_gemm("allred")
            .unwrap();
        let (_, mapping, _) = build_all_reduce(2, 256, 128, &machine).unwrap();
        assert_eq!(mapping.entry().tunables["V"], first.v as i64);
        // No `V` rescues a row count the fixed `U` does not divide.
        let err = build_all_reduce(2, 100, 128, &machine);
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }

    #[test]
    fn spaces_enumerate_deterministic_valid_candidates() {
        let machine = MachineConfig::h100_sxm5();
        let shape = Shape::of(&[2, 1024, 1024]);
        let cands = AllReduceSpace.candidates(&machine, &shape);
        assert!(!cands.is_empty());
        assert_eq!(cands, AllReduceSpace.candidates(&machine, &shape));
        for c in &cands {
            assert!(AllReduceSpace.validate(&machine, &shape, c).is_ok());
        }
        let default = AllReduceSpace.default_for(&machine);
        assert!(AllReduceSpace.validate(&machine, &shape, &default).is_ok());
    }

    #[test]
    fn comm_estimates_are_finite_and_bandwidth_bound() {
        let machine = MachineConfig::h100_sxm5();
        let cfg = AllReduceSpace.default_for(&machine);
        let estimate = |ways| {
            let shape = Shape::of(&[ways, 1024, 1024]);
            AllReduceSpace.estimate(&machine, &shape, &cfg).unwrap()
        };
        let two = estimate(2);
        assert!(two.cycles.is_finite() && two.cycles > 0.0);
        assert_eq!(two.wgmma_flops, 0.0);
        assert!((two.hbm_bytes - 3.0 * tensor_bytes(1024, 1024)).abs() < 1e-9);
        // Every further input streams in once more.
        assert!(estimate(4).hbm_bytes > two.hbm_bytes);
    }

    /// The footprint stages one tile per folded input: three ways at the
    /// H100 default (`V = 256`) need four 64 KiB tiles, past the H100's
    /// shared memory, so the builder falls back to a mapping that
    /// compiles.
    #[test]
    fn three_way_all_reduce_builds_a_program_that_compiles() {
        use crate::compile::{CompilerOptions, CypressCompiler};
        let machine = MachineConfig::h100_sxm5();
        let (reg, mapping, args) = build_all_reduce(3, 512, 512, &machine).unwrap();
        let compiler = CypressCompiler::new(CompilerOptions {
            machine,
            ..Default::default()
        });
        let compiled = compiler.compile(&reg, &mapping, "allred", &args);
        assert!(compiled.is_ok(), "{:?}", compiled.err());
    }

    #[test]
    fn all_reduce_smem_budget_is_typed() {
        // A tile too large for the test GPU's 64 KiB shared memory.
        let machine = MachineConfig::test_gpu();
        let cfg = MappingConfig::Gemm(GemmConfig {
            u: 256,
            v: 256,
            ..GemmConfig::test()
        });
        let err = AllReduceSpace.validate(&machine, &Shape::of(&[2, 256, 256]), &cfg);
        assert!(
            matches!(err, Err(CompileError::OutOfSharedMemory { .. })),
            "{err:?}"
        );
    }
}
