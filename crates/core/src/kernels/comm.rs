//! Communication kernels: tensor transfer (exchange), halo exchange,
//! and all-reduce — first-class Cypress kernels for multi-device
//! execution.
//!
//! A sharded task graph (see `cypress-runtime`'s placement policy) moves
//! tensors between devices with explicit graph nodes, and those nodes
//! compile, cache, tune, and execute like any paper kernel:
//!
//! - [`TransferSpace`] (`xfer`): `Y[m,n] = X[m,n]`, a tiled
//!   global→shared→register→shared→global copy. This is the kernel the
//!   runtime's graph sharder inserts on every cross-device edge; on the
//!   timing side its solo cost is replaced by the link-derived transfer
//!   time (`cypress_sim::topology::Link::transfer_cycles`), while the
//!   functional side runs the compiled copy so tensors stay bitwise
//!   identical to an unsharded run.
//! - [`HaloSpace`] (`halo`): the same copy under its own entry name,
//!   sized to a boundary band (`[halo_rows, n]`). Stencil-style sharding
//!   exchanges only the halo rows instead of whole operands.
//! - [`AllReduceSpace`] (`allred`): `Y = X0 + X1 + … + X{w-1}`, the
//!   per-device combine step of a w-way reduction. Inputs accumulate in
//!   ascending order in unrounded f32 register fragments, so the sum is
//!   bitwise identical at every tiling — the same transparency argument
//!   as the paper kernels' spaces.
//!
//! Each space enumerates only functionally transparent dimensions (the
//! `V` column tile) and states the [`Footprint::Fold`] footprint, which
//! the cost model prices as a bandwidth-bound stream (no tensor-core
//! term) and `validate` bounds with typed errors.

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

// ---------------------------------------------------------------------------
// Shared program construction.
// ---------------------------------------------------------------------------

/// Register the `radd` accumulate tree: `T += X` per block tile, rows
/// split across warpgroups, `X` staged through shared memory. The
/// elementwise analogue of the reduction kernel's `rstep`.
fn register_accumulate(reg: &mut TaskRegistry, task: &str) -> Result<(), CompileError> {
    let params = vec![p("T", Privilege::ReadWrite), p("X", Privilege::Read)];
    common::register_band_tile(reg, task, params.clone(), "T", &["T", "X"])?;
    common::register_leaf(reg, task, params, LeafFn::AddExt, &["T", "X", "T"])
}

/// Build `Y[m,n] = X0 + X1 + …` over `ways` inputs under the entry task
/// name `task`: the transfer copy (`"xfer"`, `"halo"`) of the one input
/// `X`, the all-reduce of `X0`…`X{ways-1}`.
fn build_fold(
    task: &str,
    ways: usize,
    m: usize,
    n: usize,
    cfg: &GemmConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    let inputs: Vec<String> = match ways {
        1 => vec!["X".into()],
        _ => (0..ways).map(|i| format!("X{i}")).collect(),
    };
    let Some((first, rest)) = inputs.split_first() else {
        return Err(CompileError::Unsupported(format!(
            "`{task}` needs at least one input"
        )));
    };
    let mut reg = TaskRegistry::new();
    // Inbound X → T copy and outbound T → Y copy share the vec-store
    // task shape; only the mapping's memory placement differs.
    common::register_vec_store(&mut reg, "xin")?;
    common::register_vec_store(&mut reg, "xout")?;
    if !rest.is_empty() {
        register_accumulate(&mut reg, "radd")?;
    }

    let (host_name, block_name) = (format!("{task}_host"), format!("{task}_block"));
    let tensors: Vec<&str> = std::iter::once("Y")
        .chain(inputs.iter().map(String::as_str))
        .collect();
    let mut params = vec![p("Y", Privilege::Write)];
    params.extend(inputs.iter().map(|x| p(x, Privilege::Read)));

    let [u, v, i, j] = ["U", "V", "i", "j"].map(SExpr::var);
    let extents = [
        Stmt::let_("M", SExpr::shape("Y", 0)),
        Stmt::let_("N", SExpr::shape("Y", 1)),
    ];
    let mut host = vec![Stmt::tunable("U"), Stmt::tunable("V")];
    host.extend(extents.clone());
    let mut tiles = Vec::new();
    tiled(&tensors, [&u, &v], [&i, &j], &mut host, &mut tiles);
    let grid = vec![SExpr::var("M") / u, SExpr::var("N") / v];
    let launch = Stmt::launch(task, tiles);
    host.push(Stmt::prange(&["i", "j"], grid, vec![launch]));
    common::register_inner(&mut reg, task, &host_name, params.clone(), host)?;

    // Block level: seed the accumulator from the first input, fold the
    // remaining inputs in ascending order, stage the result out. The
    // fixed fold order makes the sum independent of the tiling.
    let mut block = extents.to_vec();
    let (rows, cols) = (SExpr::var("M"), SExpr::var("N"));
    block.push(Stmt::make_tensor("T", rows, cols, DType::F16));
    block.push(Stmt::launch_whole("xin", &[first, "T"]));
    block.extend(rest.iter().map(|x| Stmt::launch_whole("radd", &["T", x])));
    block.push(Stmt::launch_whole("xout", &["T", "Y"]));
    common::register_inner(&mut reg, task, &block_name, params, block)?;

    let global = vec![MemLevel::Global; tensors.len()];
    let block_calls: &[&str] = if rest.is_empty() {
        &["xin_tile", "xout_tile"]
    } else {
        &["xin_tile", "radd_tile", "xout_tile"]
    };
    let mut instances = vec![
        TaskMapping::for_variant(&host_name, ProcLevel::Host, global.clone())
            .tunable("U", cfg.u as i64)
            .tunable("V", cfg.v as i64)
            .calls(&[&block_name])
            .entrypoint(),
        TaskMapping::for_variant(&block_name, ProcLevel::Block, global).calls(block_calls),
    ];
    // The inbound copy is the vec-store task shape with the memory
    // placement reversed: the *source* is staged through shared memory
    // and the destination lands in register fragments.
    let inbound = [MemLevel::Shared, MemLevel::Register];
    instances.extend(common::band_mappings("xin", cfg.wgs, &inbound));
    if !rest.is_empty() {
        // `X` staged in shared memory, `T` held in register fragments.
        instances.extend(common::vec_store_mappings("radd", cfg.wgs));
    }
    instances.extend(common::vec_store_mappings("xout", cfg.wgs));

    let args = tensors.iter().map(|t| EntryArg::f16(*t, m, n)).collect();
    Ok((reg, MappingSpec::new(instances)?, args))
}

/// The copy family maps with the machine's hand-tuned GEMM point (its
/// `U`/`V`/`WGS` are exactly the tile/warpgroup split the copy trees
/// need) and walks one dimension of it: the column tile `V` is the one
/// functionally transparent dimension worth enumerating (rows are
/// pinned to the warpgroup split, and the copy has no K loop, so
/// pipeline depth and warp specialization change nothing).
const COPY_GRID: Grid = Grid {
    wgs: &[],
    v: &[64, 128, 256],
    w: &[],
    pipeline: &[],
    warpspecialize: false,
};

// ---------------------------------------------------------------------------
// Transfer (tensor exchange).
// ---------------------------------------------------------------------------

/// The transfer mapping space: shape `[m, n]` for `Y[m,n] = X[m,n]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferSpace;

impl MappingSpace for TransferSpace {
    fn entry(&self) -> &'static str {
        "xfer"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        Footprint::Fold { reduce: false }
    }

    fn grid(&self) -> Grid {
        COPY_GRID
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [m, n] = shape.expect_dims("xfer")?;
        build_fold("xfer", 1, m, n, &cfg.as_gemm("xfer")?)
    }
}

/// Build the transfer program `Y[m,n] = X[m,n]` with the default
/// mapping for `machine`, or — when the default does not fit the shape —
/// the first candidate [`TransferSpace`] enumerates for it.
///
/// # Errors
///
/// Returns the default mapping's [`CompileError`] when no mapping of
/// the space is valid for this machine/shape combination.
pub fn build_transfer(
    m: usize,
    n: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_fitted(&TransferSpace, &[m, n], machine)
}

// ---------------------------------------------------------------------------
// Halo exchange.
// ---------------------------------------------------------------------------

/// The halo-exchange mapping space: shape `[halo_rows, n]`, the
/// boundary band one stencil shard sends a neighbor. The program is the
/// transfer copy under its own entry name, so halo nodes cache and
/// report separately from bulk tensor exchanges.
#[derive(Debug, Clone, Copy, Default)]
pub struct HaloSpace;

impl MappingSpace for HaloSpace {
    fn entry(&self) -> &'static str {
        "halo"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        // Halo bands are a handful of rows: one warpgroup-row tile keeps
        // `U` dividing even a single-block-row band.
        let c = GemmConfig::for_machine(machine);
        MappingConfig::Gemm(GemmConfig {
            u: 64.min(c.u),
            wgs: 1,
            ..c
        })
    }

    fn footprint(&self) -> Footprint {
        Footprint::Fold { reduce: false }
    }

    fn grid(&self) -> Grid {
        COPY_GRID
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [m, n] = shape.expect_dims("halo")?;
        build_fold("halo", 1, m, n, &cfg.as_gemm("halo")?)
    }
}

/// Build the halo-exchange program for a `[halo_rows, n]` boundary band
/// with the default mapping for `machine`, or — when the default does
/// not fit the shape — the first candidate [`HaloSpace`] enumerates.
///
/// # Errors
///
/// Returns the default mapping's [`CompileError`] when no mapping of
/// the space is valid for this machine/shape combination.
pub fn build_halo(
    halo_rows: usize,
    n: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_fitted(&HaloSpace, &[halo_rows, n], machine)
}

// ---------------------------------------------------------------------------
// All-reduce.
// ---------------------------------------------------------------------------

/// The all-reduce mapping space: shape `[ways, m, n]` for
/// `Y[m,n] = X0 + X1 + … + X{ways-1}`, the combine step of a `ways`-way
/// reduction. Inputs accumulate in ascending index order per element in
/// unrounded f32 register fragments, so every candidate tiling computes
/// bitwise-identical sums.
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
        Footprint::Fold { reduce: true }
    }

    fn grid(&self) -> Grid {
        COPY_GRID
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [ways, m, n] = shape.expect_dims("allred")?;
        footprint::fold_inputs("allred", ways, 2)?;
        build_fold("allred", ways, m, n, &cfg.as_gemm("allred")?)
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
    fn transfer_builds_and_validates() {
        let machine = MachineConfig::test_gpu();
        let (reg, mapping, args) = build_transfer(128, 128, &machine).unwrap();
        assert!(reg.variant("xfer_host").is_ok());
        assert_eq!(mapping.entry().instance, "xfer_host");
        assert_eq!(args.len(), 2);
        let err = build_transfer(100, 128, &machine);
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }

    /// The H100 default (`V = 256`) does not divide a 128-column tensor
    /// — the shape of every attention output; the builders fall back to
    /// the first enumerated candidate, and keep the default's typed
    /// error when the grid is empty.
    #[test]
    fn builders_fall_back_to_the_first_candidate() {
        let machine = MachineConfig::h100_sxm5();
        let default = TransferSpace.default_for(&machine);
        let shape = Shape::of(&[256, 128]);
        assert!(TransferSpace.validate(&machine, &shape, &default).is_err());
        let first = TransferSpace.candidates(&machine, &shape)[0]
            .as_gemm("xfer")
            .unwrap();
        let (_, mapping, args) = build_transfer(256, 128, &machine).unwrap();
        assert_eq!(mapping.entry().tunables["V"], first.v as i64);
        assert_eq!((args[0].rows, args[0].cols), (256, 128));
        assert!(build_halo(64, 128, &machine).is_ok());
        assert!(build_all_reduce(2, 256, 128, &machine).is_ok());
        // No `V` rescues a row count the fixed `U` does not divide.
        let err = build_transfer(100, 128, &machine);
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }

    #[test]
    fn halo_handles_thin_bands() {
        let machine = MachineConfig::test_gpu();
        let (reg, mapping, args) = build_halo(64, 256, &machine).unwrap();
        assert!(reg.variant("halo_host").is_ok());
        assert_eq!(mapping.entry().instance, "halo_host");
        assert_eq!(args[0].rows, 64);
        assert_eq!(args[0].cols, 256);
    }

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

    #[test]
    fn spaces_enumerate_deterministic_valid_candidates() {
        let machine = MachineConfig::h100_sxm5();
        for (space, shape) in [
            (
                &TransferSpace as &dyn MappingSpace,
                Shape::of(&[1024, 1024]),
            ),
            (&HaloSpace as &dyn MappingSpace, Shape::of(&[64, 1024])),
            (
                &AllReduceSpace as &dyn MappingSpace,
                Shape::of(&[2, 1024, 1024]),
            ),
        ] {
            let cands = space.candidates(&machine, &shape);
            assert!(!cands.is_empty(), "{} has candidates", space.entry());
            assert_eq!(cands, space.candidates(&machine, &shape));
            for c in &cands {
                assert!(space.validate(&machine, &shape, c).is_ok());
            }
            let default = space.default_for(&machine);
            assert!(space.validate(&machine, &shape, &default).is_ok());
        }
    }

    #[test]
    fn comm_estimates_are_finite_and_bandwidth_bound() {
        let machine = MachineConfig::h100_sxm5();
        let shape = Shape::of(&[1024, 1024]);
        let cfg = TransferSpace.default_for(&machine);
        let est = TransferSpace.estimate(&machine, &shape, &cfg).unwrap();
        assert!(est.cycles.is_finite() && est.cycles > 0.0);
        assert_eq!(est.wgmma_flops, 0.0);
        assert!((est.hbm_bytes - 2.0 * tensor_bytes(1024, 1024)).abs() < 1e-9);
        // A 4-way all-reduce moves more bytes than a transfer.
        let ar = AllReduceSpace
            .estimate(&machine, &Shape::of(&[4, 1024, 1024]), &cfg)
            .unwrap();
        assert!(ar.hbm_bytes > est.hbm_bytes);
    }

    #[test]
    fn transfer_mapping_space_smem_budget_is_typed() {
        // A tile too large for the test GPU's 64 KiB shared memory.
        let machine = MachineConfig::test_gpu();
        let cfg = MappingConfig::Gemm(GemmConfig {
            u: 256,
            v: 256,
            ..GemmConfig::test()
        });
        let err = TransferSpace.validate(&machine, &Shape::of(&[256, 256]), &cfg);
        assert!(
            matches!(err, Err(CompileError::OutOfSharedMemory { .. })),
            "{err:?}"
        );
    }
}
