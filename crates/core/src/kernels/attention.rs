//! FlashAttention-2 and FlashAttention-3 (paper §5.3, Fig. 14) in the
//! Cypress model.
//!
//! FA2: per K/V tile, one `Q Kᵀ` GEMM, an online-softmax update, and a
//! `P V` GEMM — the Tensor Core serializes against the SIMT softmax within
//! a warpgroup, and throughput comes from interleaving multiple consumer
//! warpgroups (the paper's observation that FA2 with extra warpgroups
//! rivals FA3).
//!
//! FA3: the main loop is rewritten (as §5.3 describes) to process two K/V
//! tiles per iteration with two score buffers, issuing the second `Q Kᵀ`
//! *before* the first softmax; the compiler's hazard analysis then only
//! group-waits the first GEMM, overlapping softmax with Tensor Core work.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::{ParamSig, TaskRegistry};
use crate::kernels::common::{self, p};
use crate::kernels::footprint::{self, Footprint};
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

/// Which attention algorithm to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// FlashAttention-2.
    Fa2,
    /// FlashAttention-3 (two-tile software pipelining).
    Fa3,
}

/// Mapping configuration for attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionConfig {
    /// Row tile (`Br`); `wgs` warpgroups of 64 rows each.
    pub br: usize,
    /// Column (K/V) tile (`Bc`).
    pub bc: usize,
    /// Consumer warpgroups.
    pub wgs: usize,
    /// Pipeline depth for K/V loads.
    pub pipeline: usize,
}

impl AttentionConfig {
    /// H100 FA2 mapping (two consumer warpgroups, 128-row tiles).
    #[must_use]
    pub fn fa2_h100() -> Self {
        AttentionConfig {
            br: 128,
            bc: 128,
            wgs: 2,
            pipeline: 2,
        }
    }

    /// H100 FA3 mapping (smaller K/V tiles, two in flight).
    #[must_use]
    pub(crate) fn fa3_h100() -> Self {
        AttentionConfig {
            br: 128,
            bc: 64,
            wgs: 2,
            pipeline: 2,
        }
    }

    /// Small mapping for the unit-test machine.
    #[must_use]
    pub fn test() -> Self {
        AttentionConfig {
            br: 128,
            bc: 64,
            wgs: 2,
            pipeline: 1,
        }
    }

    /// The hand-tuned mapping for `algorithm` on `machine` (H100-class
    /// parts get the paper's FA2/FA3 mappings, the test machine the small
    /// one).
    #[must_use]
    pub fn for_machine(algorithm: Algorithm, machine: &MachineConfig) -> Self {
        if common::is_h100_class(machine) {
            match algorithm {
                Algorithm::Fa2 => AttentionConfig::fa2_h100(),
                Algorithm::Fa3 => AttentionConfig::fa3_h100(),
            }
        } else {
            AttentionConfig::test()
        }
    }
}

/// The attention mapping space: shape `[heads, seq, head_dim]`. The K/V
/// column tile `Bc` is *structural* — it fixes the online-softmax rescale
/// grouping, so different `Bc` values round differently — and is pinned
/// to the algorithm's default; the space enumerates the warpgroup count
/// (row tile `Br = 64·wgs`) and the K/V pipeline depth.
#[derive(Debug, Clone, Copy)]
pub struct AttentionSpace {
    /// Which attention algorithm the space builds.
    pub algorithm: Algorithm,
}

impl MappingSpace for AttentionSpace {
    fn entry(&self) -> &'static str {
        "fa"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Attention(AttentionConfig::for_machine(self.algorithm, machine))
    }

    fn footprint(&self) -> Footprint {
        Footprint::Attention(self.algorithm)
    }

    fn grid(&self) -> Grid {
        Grid {
            wgs: &[1, 2],
            pipeline: &[1, 2, 3],
            ..Grid::default()
        }
    }

    fn mapping(&self, shape: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let [heads, ..] = shape.expect_dims::<3>("fa")?;
        mapping(self.algorithm, heads, &cfg.as_attention("fa")?)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let attention = cfg.as_attention("fa")?;
        let [heads, seq, head_dim] = shape.expect_dims("fa")?;
        let reg = registry(self.algorithm, head_dim, &attention)?;
        let rows = footprint::folded_rows("fa", heads, seq)?;
        let args = ["O", "Q", "K", "V"].map(|t| EntryArg::f16(t, rows, head_dim));
        Ok((reg, self.mapping(shape, cfg)?, args.to_vec()))
    }
}

/// Algorithmic FLOPs of forward attention (Fig. 14's convention):
/// `4 · heads · seq² · head_dim`.
#[must_use]
pub fn flops(heads: usize, seq: usize, head_dim: usize) -> f64 {
    4.0 * heads as f64 * seq as f64 * seq as f64 * head_dim as f64
}

/// Build attention with the default mapping for `machine`.
///
/// # Errors
///
/// Returns [`CompileError`] when the default mapping is invalid for this
/// machine/shape combination.
pub fn build(
    algorithm: Algorithm,
    heads: usize,
    seq: usize,
    head_dim: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_default(
        &AttentionSpace { algorithm },
        &[heads, seq, head_dim],
        machine,
    )
}

/// The task tree of `algorithm` at `cfg`, over heads of `head_dim`.
fn registry(
    algorithm: Algorithm,
    head_dim: usize,
    cfg: &AttentionConfig,
) -> Result<TaskRegistry, CompileError> {
    let mut reg = TaskRegistry::new();
    common::register_clear(&mut reg, "clear")?;
    common::register_store(&mut reg, "store")?;
    common::register_vec_clear(&mut reg, "vclear", 0.0)?;
    common::register_vec_clear(&mut reg, "nclear", -30000.0)?;
    register_leaves(&mut reg, 1.0 / (head_dim as f64).sqrt() as f32)?;
    // FA2 steps over one K/V tile, FA3 over two.
    let fa2 = [("Sc", "K", "V")];
    let fa3 = [("S0", "K0", "V0"), ("S1", "K1", "V1")];
    register_step(&mut reg, cfg.bc, "fstep", ("ftile", "ftile_fa2"), &fa2)?;
    register_step(&mut reg, cfg.bc, "fstep3", ("ftile3", "ftile_fa3"), &fa3)?;
    register_levels(&mut reg, algorithm)?;
    Ok(reg)
}

/// The warpgroup-level leaves of a step with the memories their
/// parameters are mapped to: `P` and the statistics live in register
/// fragments, `Q`/`K`/`V` tiles in shared memory.
const STEP_LEAVES: [(&str, &[MemLevel]); 10] = {
    const R: MemLevel = MemLevel::Register;
    const SH: MemLevel = MemLevel::Shared;
    [
        ("szero", &[R]),
        ("qk", &[R, SH, SH]),
        ("sscale", &[R]),
        ("vcopy", &[R, R]),
        ("rmax", &[R, R]),
        ("vsub", &[R, R]),
        ("vexp", &[R]),
        ("vmul", &[R, R]),
        ("rsum", &[R, R]),
        ("pv", &[R, R, SH]),
    ]
};

/// Elementwise leaf tasks of the online softmax, the two Tensor Core
/// leaves around it, and the final normalization.
fn register_leaves(reg: &mut TaskRegistry, scale: f32) -> Result<(), CompileError> {
    use Privilege::{Read as R, ReadWrite as RW, Write as W};
    let mut leaf = |task: &str, params: &[(&str, Privilege)], f: LeafFn, args: &[&str]| {
        let params = params.iter().map(|&(name, privilege)| p(name, privilege));
        common::register_leaf(reg, task, params.collect(), f, args)
    };
    // In place on `X`, alone or against a broadcast column `R`.
    let (unary, by_row) = ([("X", RW)], [("X", RW), ("R", R)]);
    leaf("szero", &[("X", W)], LeafFn::Fill(0.0), &["X"])?;
    leaf("sscale", &unary, LeafFn::Scale(scale), &["X", "X"])?;
    leaf("vexp", &unary, LeafFn::Exp, &["X", "X"])?;
    leaf("vsub", &by_row, LeafFn::SubRow, &["X", "R", "X"])?;
    leaf("vmul", &by_row, LeafFn::MulRow, &["X", "R", "X"])?;
    leaf("vcopy", &[("S", R), ("D", W)], LeafFn::CopyExt, &["S", "D"])?;
    let (rmax, rsum) = ([("M", RW), ("S", R)], [("Y", RW), ("A", R)]);
    leaf("rmax", &rmax, LeafFn::RowMaxAccum, &["S", "M"])?;
    leaf("rsum", &rsum, LeafFn::RowSumAccum, &["A", "Y"])?;
    let qk = [("S", RW), ("Q", R), ("K", R)];
    leaf("qk", &qk, LeafFn::MmaAccumBT, &["Q", "K", "S"])?;
    let pv = [("O", RW), ("P", R), ("V", R)];
    leaf("pv", &pv, LeafFn::MmaAccum, &["P", "V", "O"])?;
    let fin = [("O", RW), ("L", R)];
    leaf("fin", &fin, LeafFn::DivRow, &["O", "L", "O"])?;
    // finish tree: divide O by the softmax denominator, per warpgroup row
    // band.
    let split = [("O", SExpr::var("D")), ("L", SExpr::lit(1))];
    let finish = common::row_split(("M", "O"), &[("D", "O", 1)], &split, &[], "fin");
    let params = vec![p("O", RW), p("L", R)];
    common::register_inner(reg, "finish", "finish_tile", params, finish)
}

/// The online-softmax update of one score tile `s` against the running
/// max `m`, denominator `l` and output `O`.
fn softmax(s: &str) -> [Stmt; 10] {
    [
        // Scale the scores, save the old max, fold in the tile max.
        Stmt::launch_whole("sscale", &[s]),
        Stmt::launch_whole("vcopy", &["m", "tm"]),
        Stmt::launch_whole("rmax", &["m", s]),
        // alpha = exp(m_old - m_new), stored in tm.
        Stmt::launch_whole("vsub", &["tm", "m"]),
        Stmt::launch_whole("vexp", &["tm"]),
        // Rescale running denominator and output.
        Stmt::launch_whole("vmul", &["l", "tm"]),
        Stmt::launch_whole("vmul", &["O", "tm"]),
        // P = exp(S - m), fold into l.
        Stmt::launch_whole("vsub", &[s, "m"]),
        Stmt::launch_whole("vexp", &[s]),
        Stmt::launch_whole("rsum", &["l", s]),
    ]
}

/// One step of the K/V loop over `tiles`, each `(scores, K, V)`:
/// `{step}_wg`, what a warpgroup does with its 64-row band, and the
/// BLOCK-level variant `tile.1` of task `tile.0` that splits rows across
/// warpgroups (its K/V parameters are `K0`/`V0`… for uniformity).
fn register_step(
    reg: &mut TaskRegistry,
    bc: usize,
    step: &str,
    tile: (&str, &str),
    tiles: &[(&str, &str, &str)],
) -> Result<(), CompileError> {
    let params = |kv: &[String]| -> Vec<ParamSig> {
        let state = ["O", "m", "l"].map(|t| p(t, Privilege::ReadWrite));
        let operands = std::iter::once("Q").chain(kv.iter().map(String::as_str));
        state
            .into_iter()
            .chain(operands.map(|t| p(t, Privilege::Read)))
            .collect()
    };
    let wg_kv: Vec<String> = tiles
        .iter()
        .flat_map(|&(_, k, v)| [k.to_string(), v.to_string()])
        .collect();
    let tile_kv: Vec<String> = (0..tiles.len())
        .flat_map(|i| [format!("K{i}"), format!("V{i}")])
        .collect();

    let fragment = |name: &str, cols: i64| {
        Stmt::make_tensor(name, SExpr::lit(64), SExpr::lit(cols), DType::F16)
    };
    let mut body: Vec<Stmt> = tiles
        .iter()
        .map(|&(s, ..)| fragment(s, bc as i64))
        .collect();
    body.push(fragment("tm", 1));
    // Every QK^T GEMM issues before the first softmax: the compiler's
    // group-wait analysis retires only the first when its scores are
    // read, leaving the second in flight (FA3's overlap).
    for &(s, k, _) in tiles {
        body.push(Stmt::launch_whole("szero", &[s]));
        body.push(Stmt::launch_whole("qk", &[s, "Q", k]));
    }
    for &(s, _, v) in tiles {
        body.extend(softmax(s));
        body.push(Stmt::launch_whole("pv", &["O", s, v]));
    }
    common::register_inner(reg, step, &format!("{step}_wg"), params(&wg_kv), body)?;

    // BLOCK-level step: split rows across warpgroups.
    let one = SExpr::lit(1);
    let split = [
        ("O", SExpr::var("D")),
        ("m", one.clone()),
        ("l", one),
        ("Q", SExpr::var("D")),
    ];
    let whole: Vec<&str> = tile_kv.iter().map(String::as_str).collect();
    let body = common::row_split(("BR", "O"), &[("D", "O", 1)], &split, &whole, step);
    common::register_inner(reg, tile.0, tile.1, params(&tile_kv), body)
}

/// The `fa` task's three levels: host (one band of rows per head), head
/// (row bands of Q/O), and the BLOCK-level K/V loop of `algorithm`.
fn register_levels(reg: &mut TaskRegistry, algorithm: Algorithm) -> Result<(), CompileError> {
    let params = vec![
        p("O", Privilege::ReadWrite),
        p("Q", Privilege::Read),
        p("K", Privilege::Read),
        p("V", Privilege::Read),
    ];
    let piece = |part: &str, row: SExpr| ArgExpr::piece(part, vec![row, SExpr::lit(0)]);

    // BLOCK-level attention over one Q row-band.
    let kv = |row: SExpr| [piece("Kp", row.clone()), piece("Vp", row)];
    let (step, extent, tiles) = match algorithm {
        Algorithm::Fa2 => (
            "ftile",
            SExpr::var("SEQ") / SExpr::var("BC"),
            vec![SExpr::var("j")],
        ),
        Algorithm::Fa3 => (
            "ftile3",
            SExpr::var("SEQ") / (SExpr::var("BC") * SExpr::lit(2)),
            vec![
                SExpr::var("j") * SExpr::lit(2),
                SExpr::var("j") * SExpr::lit(2) + SExpr::lit(1),
            ],
        ),
    };
    let mut step_args: Vec<ArgExpr> = ["Oa", "m", "l", "Q"].map(ArgExpr::tensor).to_vec();
    step_args.extend(tiles.into_iter().flat_map(kv));
    let block = vec![
        Stmt::tunable("BC"),
        Stmt::let_("BR", SExpr::shape("Q", 0)),
        Stmt::let_("D", SExpr::shape("Q", 1)),
        Stmt::let_("SEQ", SExpr::shape("K", 0)),
        Stmt::blocks("Kp", "K", SExpr::var("BC"), SExpr::var("D")),
        Stmt::blocks("Vp", "V", SExpr::var("BC"), SExpr::var("D")),
        Stmt::make_tensor("m", SExpr::var("BR"), SExpr::lit(1), DType::F16),
        Stmt::make_tensor("l", SExpr::var("BR"), SExpr::lit(1), DType::F16),
        Stmt::make_tensor("Oa", SExpr::var("BR"), SExpr::var("D"), DType::F16),
        Stmt::launch_whole("nclear", &["m"]),
        Stmt::launch_whole("vclear", &["l"]),
        Stmt::launch_whole("clear", &["Oa"]),
        Stmt::srange("j", extent, vec![Stmt::launch(step, step_args)]),
        Stmt::launch_whole("finish", &["Oa", "l"]),
        Stmt::launch_whole("store", &["Oa", "O"]),
    ];
    common::register_inner(reg, "fa", "fa_block", params.clone(), block)?;

    // Head level: row bands of Q/O.
    let band = vec![
        piece("Op", SExpr::var("i")),
        piece("Qp", SExpr::var("i")),
        ArgExpr::tensor("K"),
        ArgExpr::tensor("V"),
    ];
    let head = vec![
        Stmt::tunable("BR"),
        Stmt::let_("SEQ", SExpr::shape("Q", 0)),
        Stmt::let_("D", SExpr::shape("Q", 1)),
        Stmt::blocks("Qp", "Q", SExpr::var("BR"), SExpr::var("D")),
        Stmt::blocks("Op", "O", SExpr::var("BR"), SExpr::var("D")),
        Stmt::prange(
            &["i"],
            vec![SExpr::var("SEQ") / SExpr::var("BR")],
            vec![Stmt::launch("fa", band)],
        ),
    ];
    common::register_inner(reg, "fa", "fa_head", params.clone(), head)?;

    // Host level: one band of rows per head.
    let per_head = ["Oh", "Qh", "Kh", "Vh"].map(|part| piece(part, SExpr::var("h")));
    let host = vec![
        Stmt::tunable("H"),
        Stmt::let_("SEQ", SExpr::shape("Q", 0) / SExpr::var("H")),
        Stmt::let_("D", SExpr::shape("Q", 1)),
        Stmt::blocks("Qh", "Q", SExpr::var("SEQ"), SExpr::var("D")),
        Stmt::blocks("Oh", "O", SExpr::var("SEQ"), SExpr::var("D")),
        Stmt::blocks("Kh", "K", SExpr::var("SEQ"), SExpr::var("D")),
        Stmt::blocks("Vh", "V", SExpr::var("SEQ"), SExpr::var("D")),
        Stmt::prange(
            &["h"],
            vec![SExpr::var("H")],
            vec![Stmt::launch("fa", per_head.to_vec())],
        ),
    ];
    common::register_inner(reg, "fa", "fa_host", params, host)
}

/// The mapping: host → head → block → step tile → step warpgroup →
/// leaves, plus the shared clear/store trees.
fn mapping(
    algorithm: Algorithm,
    heads: usize,
    cfg: &AttentionConfig,
) -> Result<MappingSpec, CompileError> {
    let (tile_task, tile_variant, step, kv) = match algorithm {
        Algorithm::Fa2 => ("ftile", "ftile_fa2", "fstep", 1usize),
        Algorithm::Fa3 => ("ftile3", "ftile_fa3", "fstep3", 2usize),
    };
    let (tile, step_wg) = (format!("{tile_task}_tile"), format!("{step}_wg"));
    let global = vec![MemLevel::Global; 4];
    let registers = [MemLevel::Register; 2];
    // O, m, l in fragments; Q and the K/V tiles staged in shared memory.
    let step_mems = [
        vec![MemLevel::Register; 3],
        vec![MemLevel::Shared; 1 + 2 * kv],
    ]
    .concat();
    let block_calls = [
        "nclear_tile",
        "vclear_tile",
        "clear_tile",
        &tile,
        "finish_tile",
        "store_tile",
    ];
    let step_calls = STEP_LEAVES.iter().map(|(leaf, _)| format!("{leaf}_leaf"));
    let mut instances = vec![
        TaskMapping::for_variant("fa_host", ProcLevel::Host, global.clone())
            .tunable("H", heads as i64)
            .calls(&["fa_head"])
            .entrypoint(),
        TaskMapping::for_variant("fa_head", ProcLevel::Block, global.clone())
            .tunable("BR", cfg.br as i64)
            .calls(&["fa_block"]),
        TaskMapping::for_variant("fa_block", ProcLevel::Block, global)
            .tunable("BC", cfg.bc as i64)
            .calls(&block_calls)
            .warpspecialize()
            .pipeline(cfg.pipeline),
        common::row_split_instance(&tile, tile_variant, cfg.wgs, &step_mems, &step_wg),
        TaskMapping {
            calls: step_calls.collect(),
            ..TaskMapping::for_variant(&step_wg, ProcLevel::Warpgroup, step_mems)
        },
        common::row_split_instance(
            "finish_tile",
            "finish_tile",
            cfg.wgs,
            &registers,
            "fin_leaf",
        ),
        common::leaf_mapping("fin", registers.to_vec()),
    ];
    instances.extend(STEP_LEAVES.map(|(leaf, mems)| common::leaf_mapping(leaf, mems.to_vec())));
    instances.extend(common::clear_mappings("clear", cfg.wgs));
    instances.extend(common::store_mappings("store", cfg.wgs));
    instances.extend(common::vec_clear_mappings("vclear", cfg.wgs));
    instances.extend(common::vec_clear_mappings("nclear", cfg.wgs));
    MappingSpec::new(instances)
}
