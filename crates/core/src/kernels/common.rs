//! The task-tree shapes every evaluation kernel shares, each written
//! once: the warpgroup row split ([`row_split`]), the `clear` tree
//! (zero-initialize an accumulator down to per-thread register
//! fragments), the `store` tree (stage an accumulator through shared
//! memory and out to global memory), their column-vector analogues, and
//! the warpgroup → warp → thread `mma` descent. All follow the Fig. 5
//! pattern: block-level decomposition across warpgroups, then the
//! Tensor-Core-mandated `mma` partitions at warp and thread level.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::TaskMapping;
use crate::front::task::{ParamSig, TaskRegistry, TaskVariant, VariantKind};
use crate::kernels::gemm::GemmConfig;
use cypress_sim::MachineConfig;
use cypress_tensor::partition::{MmaLevel, MmaOperand};
use cypress_tensor::DType;

/// Whether `machine` is an H100-class part (>= 200 KiB shared memory
/// per SM) — the one predicate every kernel's hand-tuned dispatch keys
/// on.
pub(crate) fn is_h100_class(machine: &MachineConfig) -> bool {
    machine.smem_per_sm >= 200 * 1024
}

/// The BLOCK-level accumulate instance every GEMM-family kernel uses:
/// binds the K tile `W`, the pipeline depth, and warp specialization
/// from `cfg`.
pub(crate) fn accumulate_block_instance(
    variant: &str,
    mems: Vec<MemLevel>,
    cfg: &GemmConfig,
    calls: &[&str],
) -> TaskMapping {
    let mut m = TaskMapping::for_variant(variant, ProcLevel::Block, mems)
        .tunable("W", cfg.w as i64)
        .calls(calls)
        .pipeline(cfg.pipeline);
    if cfg.warpspecialize {
        m = m.warpspecialize();
    }
    m
}

/// Shorthand: tensor parameter signature.
pub(crate) fn p(name: &str, privilege: Privilege) -> ParamSig {
    ParamSig {
        name: name.to_string(),
        dtype: DType::F16,
        privilege,
    }
}

/// Register an inner variant `name` of `task`.
pub(crate) fn register_inner(
    reg: &mut TaskRegistry,
    task: &str,
    name: &str,
    params: Vec<ParamSig>,
    body: Vec<Stmt>,
) -> Result<(), CompileError> {
    reg.register(TaskVariant {
        task: task.into(),
        name: name.into(),
        kind: VariantKind::Inner,
        params,
        body,
    })
}

/// Register a one-leaf task: `{task}_leaf` with the given parameter
/// privileges and a single `call-external`. Argument order for the call
/// is given by `arg_names` (destination last).
pub(crate) fn register_leaf(
    reg: &mut TaskRegistry,
    task: &str,
    params: Vec<ParamSig>,
    f: LeafFn,
    arg_names: &[&str],
) -> Result<(), CompileError> {
    reg.register(TaskVariant {
        task: task.into(),
        name: format!("{task}_leaf"),
        kind: VariantKind::Leaf,
        params,
        body: vec![Stmt::call_external(f, arg_names)],
    })
}

/// Mapping instance for a warpgroup-level leaf task.
pub(crate) fn leaf_mapping(task: &str, mems: Vec<MemLevel>) -> TaskMapping {
    TaskMapping::for_variant(&format!("{task}_leaf"), ProcLevel::Warpgroup, mems)
}

/// Partition each of `tensors` into `tile`-sized blocks named `{t}p` and
/// address the piece at `idx` of each: the partition statements go to
/// `body`, the piece arguments to `args`.
pub(crate) fn tiled(
    tensors: &[&str],
    tile: [&SExpr; 2],
    idx: [&SExpr; 2],
    body: &mut Vec<Stmt>,
    args: &mut Vec<ArgExpr>,
) {
    for t in tensors {
        let part = format!("{t}p");
        body.push(Stmt::blocks(&part, *t, tile[0].clone(), tile[1].clone()));
        args.push(ArgExpr::piece(part, idx.map(SExpr::clone).to_vec()));
    }
}

/// The body of a BLOCK-level variant that splits rows across warpgroups
/// (Fig. 5a `gemm_tile`): bind `WGS`, the row extent `rows.0 =
/// rows.1.shape[0]` and the further `dims` (`name = tensor.shape[dim]`),
/// cut each `split` tensor into `WGS` row bands of its given width, and
/// launch `callee` once per warpgroup on band `w` of every split tensor
/// followed by the `whole` tensors.
pub(crate) fn row_split(
    rows: (&str, &str),
    dims: &[(&str, &str, usize)],
    split: &[(&str, SExpr)],
    whole: &[&str],
    callee: &str,
) -> Vec<Stmt> {
    let (wgs, w, zero) = (SExpr::var("WGS"), SExpr::var("w"), SExpr::lit(0));
    let band = SExpr::var(rows.0) / wgs.clone();
    let mut body = vec![
        Stmt::tunable("WGS"),
        Stmt::let_(rows.0, SExpr::shape(rows.1, 0)),
    ];
    for &(name, tensor, dim) in dims {
        body.push(Stmt::let_(name, SExpr::shape(tensor, dim)));
    }
    let mut args = Vec::new();
    for (tensor, cols) in split {
        tiled(&[tensor], [&band, cols], [&w, &zero], &mut body, &mut args);
    }
    args.extend(whole.iter().map(|t| ArgExpr::tensor(*t)));
    let launch = Stmt::launch(callee, args);
    body.push(Stmt::prange(&["w"], vec![wgs], vec![launch]));
    body
}

/// The mapping instance of a [`row_split`] variant dispatching to
/// `callee`, whose parameters live in `wg_mems`: what a warpgroup holds
/// in registers has no single home at BLOCK level (`None`), everything
/// else stays where it is.
pub(crate) fn row_split_instance(
    instance: &str,
    variant: &str,
    wgs: usize,
    wg_mems: &[MemLevel],
    callee: &str,
) -> TaskMapping {
    let mems = wg_mems.iter().map(|&m| match m {
        MemLevel::Register => MemLevel::None,
        other => other,
    });
    TaskMapping::new(instance, variant, ProcLevel::Block, mems.collect())
        .tunable("WGS", wgs as i64)
        .calls(&[callee])
}

/// Register `{task}_tile`, the [`row_split`] of full-width `tensors`
/// whose extents are those of `lead`.
pub(crate) fn register_band_tile(
    reg: &mut TaskRegistry,
    task: &str,
    params: Vec<ParamSig>,
    lead: &str,
    tensors: &[&str],
) -> Result<(), CompileError> {
    let split: Vec<_> = tensors.iter().map(|t| (*t, SExpr::var("N"))).collect();
    let body = row_split(("M", lead), &[("N", lead, 1)], &split, &[], task);
    register_inner(reg, task, &format!("{task}_tile"), params, body)
}

/// Register `{task}_{wg}` and `{task}_warp`, the warpgroup → warp →
/// thread descent the Tensor Core mandates (Fig. 5a `gemm_inner`): each
/// level `mma`-partitions every parameter by its operand `roles` entry
/// and relaunches `task` on the pieces.
fn register_mma_levels(
    reg: &mut TaskRegistry,
    task: &str,
    wg: &str,
    params: &[ParamSig],
    roles: &[MmaOperand],
) -> Result<(), CompileError> {
    for (level, mma_level, var, lanes) in [
        (wg, MmaLevel::Warp, "q", 4),
        ("warp", MmaLevel::Thread, "l", 32),
    ] {
        let part = |p: &ParamSig| format!("{}p", p.name);
        let mut body: Vec<Stmt> = params
            .iter()
            .zip(roles)
            .map(|(p, &role)| Stmt::mma(part(p), &p.name, mma_level, role))
            .collect();
        let pieces = params
            .iter()
            .map(|p| ArgExpr::piece(part(p), vec![SExpr::var(var)]));
        let launch = Stmt::launch(task, pieces.collect());
        body.push(Stmt::prange(&[var], vec![SExpr::lit(lanes)], vec![launch]));
        register_inner(reg, task, &format!("{task}_{level}"), params.to_vec(), body)?;
    }
    Ok(())
}

/// The instances of a tree named `{task}_{level}` for each of `levels`,
/// all holding `mems`, each dispatching to the next. With `wgs`, the
/// tree is rooted at a `{task}_tile` row split above the first level.
fn tree_mappings(
    task: &str,
    wgs: Option<usize>,
    levels: &[(&str, ProcLevel)],
    mems: &[MemLevel],
) -> Vec<TaskMapping> {
    let name = |level: &str| format!("{task}_{level}");
    let mut out: Vec<TaskMapping> = levels
        .iter()
        .map(|&(level, proc)| TaskMapping::for_variant(&name(level), proc, mems.to_vec()))
        .collect();
    for i in 1..out.len() {
        out[i - 1].calls = vec![out[i].instance.clone()];
    }
    if let (Some(wgs), Some(&(first, _))) = (wgs, levels.first()) {
        let tile = name("tile");
        out.insert(0, row_split_instance(&tile, &tile, wgs, mems, &name(first)));
    }
    out
}

/// The levels of a tree that finishes on the Tensor Core's fragment
/// layout, its warpgroup level named `wg`.
fn mma_levels(wg: &str) -> [(&str, ProcLevel); 3] {
    [
        (wg, ProcLevel::Warpgroup),
        ("warp", ProcLevel::Warp),
        ("leaf", ProcLevel::Thread),
    ]
}

/// Register a column-vector clear tree (`fill` down to per-warpgroup
/// register pieces, no Tensor Core partitioning): used for row statistics
/// and the GEMM+Reduction partial sums.
pub(crate) fn register_vec_clear(
    reg: &mut TaskRegistry,
    task: &str,
    value: f32,
) -> Result<(), CompileError> {
    let params = vec![p("C", Privilege::Write)];
    register_band_tile(reg, task, params.clone(), "C", &["C"])?;
    register_leaf(reg, task, params, LeafFn::Fill(value), &["C"])
}

/// Register the `clear` task tree (prefix allows several independent trees
/// in one program, e.g. clearing both an accumulator and a row-statistic):
/// the vector tree's row split and zero-fill leaf, with the `mma` descent
/// between them.
pub(crate) fn register_clear(reg: &mut TaskRegistry, task: &str) -> Result<(), CompileError> {
    register_vec_clear(reg, task, 0.0)?;
    let params = [p("C", Privilege::Write)];
    register_mma_levels(reg, task, "wg", &params, &[MmaOperand::C])
}

/// Register a column-vector store tree (register pieces → shared staging →
/// global).
pub(crate) fn register_vec_store(reg: &mut TaskRegistry, task: &str) -> Result<(), CompileError> {
    let params = vec![p("S", Privilege::Read), p("D", Privilege::Write)];
    register_band_tile(reg, task, params.clone(), "S", &["S", "D"])?;
    register_leaf(reg, task, params, LeafFn::CopyExt, &["S", "D"])
}

/// Register the `store` task tree: accumulator → shared staging → global.
/// The vector tree's row split and copy leaf, with the `mma` descent
/// between them.
pub(crate) fn register_store(reg: &mut TaskRegistry, task: &str) -> Result<(), CompileError> {
    register_vec_store(reg, task)?;
    let params = [p("S", Privilege::Read), p("D", Privilege::Write)];
    register_mma_levels(reg, task, "wg", &params, &[MmaOperand::C; 2])
}

/// Register the warpgroup→warp→thread `mma` decomposition of a GEMM-like
/// task named `task` (paper Fig. 5a `gemm_inner`/`gemm_thread`), with the
/// given leaf function (plain MMA or transposed-B for attention).
pub(crate) fn register_mma_chain(
    reg: &mut TaskRegistry,
    task: &str,
    leaf: LeafFn,
) -> Result<(), CompileError> {
    let params = vec![
        p("C", Privilege::ReadWrite),
        p("A", Privilege::Read),
        p("B", Privilege::Read),
    ];
    let roles = [MmaOperand::C, MmaOperand::A, MmaOperand::B];
    register_mma_levels(reg, task, "wgmma", &params, &roles)?;
    register_leaf(reg, task, params, leaf, &["A", "B", "C"])
}

/// Mapping instances for a `clear` tree rooted at the BLOCK level.
pub(crate) fn clear_mappings(task: &str, wgs: usize) -> Vec<TaskMapping> {
    tree_mappings(task, Some(wgs), &mma_levels("wg"), &[MemLevel::Register])
}

/// Mapping instances for a `store` tree rooted at the BLOCK level. The
/// destination is staged through shared memory, which the compiler's
/// copy-out turns into a TMA store.
pub(crate) fn store_mappings(task: &str, wgs: usize) -> Vec<TaskMapping> {
    let mems = [MemLevel::Register, MemLevel::Shared];
    tree_mappings(task, Some(wgs), &mma_levels("wg"), &mems)
}

/// Mapping instances for a vector-clear tree.
pub(crate) fn vec_clear_mappings(task: &str, wgs: usize) -> Vec<TaskMapping> {
    band_mappings(task, wgs, &[MemLevel::Register])
}

/// Mapping instances for a vector-store tree: register pieces staged
/// through shared memory.
pub(crate) fn vec_store_mappings(task: &str, wgs: usize) -> Vec<TaskMapping> {
    band_mappings(task, wgs, &[MemLevel::Register, MemLevel::Shared])
}

/// Mapping instances for a per-warpgroup tree (a row split straight to a
/// warpgroup-level leaf) whose leaf holds `mems`.
pub(crate) fn band_mappings(task: &str, wgs: usize, mems: &[MemLevel]) -> Vec<TaskMapping> {
    tree_mappings(task, Some(wgs), &[("leaf", ProcLevel::Warpgroup)], mems)
}

/// Mapping instances for an `mma` chain rooted at the WARPGROUP level.
/// `a_mem` lets attention place the left operand in registers (the `P`
/// matrix lives in fragments).
pub(crate) fn mma_chain_mappings(task: &str, a_mem: MemLevel) -> Vec<TaskMapping> {
    let mems = [MemLevel::Register, a_mem, MemLevel::Shared];
    tree_mappings(task, None, &mma_levels("wgmma"), &mems)
}
