//! The Hopper GEMM of paper Fig. 5, written in the Cypress programming
//! model: hierarchical blocking HOST → BLOCK → WARPGROUP → WARP → THREAD,
//! with the mapping specification carrying tile sizes, memory placement,
//! warp specialization and pipeline depth.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::{ParamSig, TaskRegistry};
use crate::kernels::common::{self, p, register_inner, row_split, tiled};
use crate::kernels::footprint::Footprint;
use crate::kernels::space::{build_default, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

/// Tunable configuration of the GEMM mapping (Fig. 5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Block tile rows (`U`).
    pub u: usize,
    /// Block tile columns (`V`).
    pub v: usize,
    /// K-reduction tile width (`W`).
    pub w: usize,
    /// Consumer warpgroups per block (`WGS`).
    pub wgs: usize,
    /// Software pipeline depth.
    pub pipeline: usize,
    /// Warp-specialize the block-level task.
    pub warpspecialize: bool,
}

impl GemmConfig {
    /// The paper's hand-tuned H100 mapping.
    #[must_use]
    pub fn h100() -> Self {
        GemmConfig {
            u: 128,
            v: 256,
            w: 64,
            wgs: 2,
            pipeline: 3,
            warpspecialize: true,
        }
    }

    /// A small mapping that fits the unit-test machine.
    #[must_use]
    pub fn test() -> Self {
        GemmConfig {
            u: 64,
            v: 64,
            w: 32,
            wgs: 1,
            pipeline: 2,
            warpspecialize: true,
        }
    }

    /// The one machine dispatch every GEMM-family kernel shares: the
    /// paper's hand-tuned H100 mapping on H100-class parts, the small
    /// unit-test mapping elsewhere.
    #[must_use]
    pub(crate) fn for_machine(machine: &MachineConfig) -> Self {
        if common::is_h100_class(machine) {
            GemmConfig::h100()
        } else {
            GemmConfig::test()
        }
    }
}

/// The GEMM mapping space: shape `[m, n, k]`, enumerating the `V`/`W`
/// tiles, the pipeline depth, and warp specialization (the warpgroup
/// count and the tied row tile `U = 64·wgs` stay at the hand-tuned
/// default).
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmSpace;

impl MappingSpace for GemmSpace {
    fn entry(&self) -> &'static str {
        "gemm"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        MappingConfig::Gemm(GemmConfig::for_machine(machine))
    }

    fn footprint(&self) -> Footprint {
        FAMILY.footprint(false)
    }

    fn grid(&self) -> Grid {
        Grid::GEMM
    }

    fn mapping(&self, _: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        FAMILY.mapping(&cfg.as_gemm("gemm")?)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let dims = shape.expect_dims("gemm")?;
        FAMILY.program(dims, &cfg.as_gemm("gemm")?, self.mapping(shape, cfg)?)
    }
}

/// Algorithmic FLOPs of a GEMM (what Fig. 13 reports).
#[must_use]
pub fn flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Build the GEMM program for `C[m,n] = A[m,k] @ B[k,n]` with the default
/// mapping for `machine`.
///
/// # Errors
///
/// Returns [`CompileError`] when the default mapping is invalid for this
/// machine/shape combination (tiles that do not divide the problem, or a
/// working set beyond the machine's shared memory).
pub fn build(
    m: usize,
    n: usize,
    k: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_default(&GemmSpace, &[m, n, k], machine)
}

/// Fig. 5a itself: one accumulator, one operand of each kind, and a
/// warpgroup's band goes straight to the Tensor Core.
pub(crate) const FAMILY: Family = Family {
    task: "gemm",
    accs: &["C"],
    vec_accs: &[],
    rows: &["A"],
    cols: &["B"],
    wg: &[],
    wg_calls: &[],
};

/// The task tree of Fig. 5a over an operand list — what GEMM, Dual-GEMM
/// and GEMM+Reduction share. A kernel of the family computes `[M, N]`
/// accumulators (and `[M, N/V]` row-vector partials) from row operands
/// `[M, K]` and column operands `[K, N]`; its task takes them in that
/// order. [`Family::host`] tiles the outputs into `U x V` blocks,
/// [`Family::block`] accumulates over `W`-wide slices of `K`,
/// [`Family::tile`] splits a block's rows across warpgroups, and `wg`
/// says what one warpgroup does with its band.
pub(crate) struct Family {
    /// The task; its variants are `{task}_host`, `_block`, `_tile`, `_wg`.
    pub task: &'static str,
    /// Matrix accumulators `[M, N]`, cleared and stored by the `clear` /
    /// `store` trees.
    pub accs: &'static [&'static str],
    /// Row-vector accumulators (one column per block column), cleared and
    /// stored by `vclear` / `vstore`.
    pub vec_accs: &'static [&'static str],
    /// Row operands `[M, K]`: tiled with the rows of the output.
    pub rows: &'static [&'static str],
    /// Column operands `[K, N]`: tiled with the columns of the output.
    pub cols: &'static [&'static str],
    /// The per-warpgroup body: `(task, whole-tensor arguments)` launches
    /// in program order. Empty when the band is the `gemm` task's own.
    pub wg: &'static [(&'static str, &'static [&'static str])],
    /// The instances the `wg` launches dispatch to.
    pub wg_calls: &'static [&'static str],
}

impl Family {
    /// Accumulators read-write, then the operands read-only.
    fn params(&self) -> Vec<ParamSig> {
        let accs = self.accs.iter().chain(self.vec_accs);
        let operands = self.rows.iter().chain(self.cols);
        accs.map(|a| p(a, Privilege::ReadWrite))
            .chain(operands.map(|o| p(o, Privilege::Read)))
            .collect()
    }

    /// What a point of the family's space stages and launches, read off
    /// the operand lists: one `B`-shaped tile per column operand, one
    /// Tensor Core op per `gemm` launch of the warpgroup body (the band
    /// itself when there is no body), one staged vector per row-vector
    /// accumulator.
    pub(crate) fn footprint(&self, batched: bool) -> Footprint {
        let wgmmas = self.wg.iter().filter(|(task, _)| *task == "gemm").count();
        Footprint::Gemm {
            b_tiles: self.cols.len(),
            wgmmas: wgmmas.max(1),
            vec_accs: self.vec_accs.len(),
            batched,
        }
    }

    /// The tensors the extents are read from: `M x N` is the first
    /// accumulator's shape, `K` the first row operand's width.
    fn lead(&self) -> Result<(&'static str, &'static str), CompileError> {
        match (self.accs.first(), self.rows.first()) {
            (Some(c), Some(a)) => Ok((c, a)),
            _ => Err(CompileError::Unsupported(format!(
                "`{}` needs a matrix accumulator and a row operand",
                self.task
            ))),
        }
    }

    /// `M, N, K = C.shape[0], C.shape[1], A.shape[1]`.
    fn extents((c, a): (&str, &str)) -> [Stmt; 3] {
        [
            Stmt::let_("M", SExpr::shape(c, 0)),
            Stmt::let_("N", SExpr::shape(c, 1)),
            Stmt::let_("K", SExpr::shape(a, 1)),
        ]
    }

    /// Fig. 5a `gemm_host`: tile the outputs into `U x V` blocks and
    /// launch a parallel grid, each block taking its row band of the row
    /// operands and its column band of the column operands.
    fn host(&self, lead: (&str, &str)) -> Vec<Stmt> {
        let [u, v, m, n, k, i, j] = ["U", "V", "M", "N", "K", "i", "j"].map(SExpr::var);
        let (zero, one) = (SExpr::lit(0), SExpr::lit(1));
        let mut body = vec![Stmt::tunable("U"), Stmt::tunable("V")];
        body.extend(Self::extents(lead));
        let mut args = Vec::new();
        tiled(self.accs, [&u, &v], [&i, &j], &mut body, &mut args);
        tiled(self.vec_accs, [&u, &one], [&i, &j], &mut body, &mut args);
        tiled(self.rows, [&u, &k], [&i, &zero], &mut body, &mut args);
        tiled(self.cols, [&k, &v], [&zero, &j], &mut body, &mut args);
        let launch = Stmt::launch(self.task, args);
        body.push(Stmt::prange(&["i", "j"], vec![m / u, n / v], vec![launch]));
        body
    }

    /// Fig. 5a `gemm_block`: one accumulator per output, cleared, updated
    /// by a sequential walk over `W`-wide slices of `K`, and stored.
    fn block(&self, lead: (&str, &str)) -> Vec<Stmt> {
        let [m, n, k, w, step] = ["M", "N", "K", "W", "k"].map(SExpr::var);
        let (zero, one) = (SExpr::lit(0), SExpr::lit(1));
        let mut body = vec![Stmt::tunable("W")];
        body.extend(Self::extents(lead));
        let mut slices = Vec::new();
        tiled(self.rows, [&m, &w], [&zero, &step], &mut body, &mut slices);
        tiled(self.cols, [&w, &n], [&step, &zero], &mut body, &mut slices);
        let (mut clears, mut args, mut stores) = (Vec::new(), Vec::new(), Vec::new());
        let matrices = self.accs.iter().map(|c| (c, &n, "clear", "store"));
        let vectors = self.vec_accs.iter().map(|y| (y, &one, "vclear", "vstore"));
        for (out, cols, clear, store) in matrices.chain(vectors) {
            let acc = format!("{out}acc");
            body.push(Stmt::make_tensor(&acc, m.clone(), cols.clone(), DType::F16));
            clears.push(Stmt::launch_whole(clear, &[&acc]));
            stores.push(Stmt::launch_whole(store, &[&acc, out]));
            args.push(ArgExpr::tensor(acc));
        }
        args.extend(slices);
        body.extend(clears);
        let launch = Stmt::launch(self.task, args);
        body.push(Stmt::srange("k", SExpr::cdiv(k, w), vec![launch]));
        body.extend(stores);
        body
    }

    /// Fig. 5a `gemm_tile`: split rows across warpgroups; the column
    /// operands are shared by all of them.
    fn tile(&self, (c, a): (&str, &str)) -> Vec<Stmt> {
        let cols = |tensors: &'static [&'static str], width: SExpr| {
            tensors.iter().map(move |t| (*t, width.clone()))
        };
        let split: Vec<_> = cols(self.accs, SExpr::var("N"))
            .chain(cols(self.vec_accs, SExpr::lit(1)))
            .chain(cols(self.rows, SExpr::var("K")))
            .collect();
        let dims = [("N", c, 1), ("K", a, 1)];
        row_split(("M", c), &dims, &split, self.cols, self.task)
    }

    /// The family's registry: its own levels plus the shared `clear` /
    /// `store` trees and the `gemm` mma chain below the warpgroup.
    pub(crate) fn registry(&self) -> Result<TaskRegistry, CompileError> {
        let lead = self.lead()?;
        let mut reg = TaskRegistry::new();
        let name = |level: &str| format!("{}_{level}", self.task);
        for (level, body) in [
            ("host", self.host(lead)),
            ("block", self.block(lead)),
            ("tile", self.tile(lead)),
        ] {
            register_inner(&mut reg, self.task, &name(level), self.params(), body)?;
        }
        if !self.wg.is_empty() {
            let launches = self.wg.iter().map(|(t, args)| Stmt::launch_whole(*t, args));
            let (wg, params) = (name("wg"), self.params());
            register_inner(&mut reg, self.task, &wg, params, launches.collect())?;
        }
        common::register_clear(&mut reg, "clear")?;
        common::register_store(&mut reg, "store")?;
        if !self.vec_accs.is_empty() {
            common::register_vec_clear(&mut reg, "vclear", 0.0)?;
            common::register_vec_store(&mut reg, "vstore")?;
        }
        common::register_mma_chain(&mut reg, "gemm", LeafFn::MmaAccum)?;
        Ok(reg)
    }

    /// The family's mapping instances (Fig. 5b), host first: grid → block
    /// → tile (→ wg) plus the shared mma/clear/store trees. With `root`
    /// the host variant is not the entrypoint but bound under that
    /// instance name and processor by a caller that peels an outer
    /// dimension first (batched GEMM: the §3.2 reuse).
    pub(crate) fn instances(
        &self,
        cfg: &GemmConfig,
        root: Option<(&str, ProcLevel)>,
    ) -> Vec<TaskMapping> {
        let name = |level: &str| format!("{}_{level}", self.task);
        let (host, block, tile, wg) = (name("host"), name("block"), name("tile"), name("wg"));
        let n_accs = self.accs.len() + self.vec_accs.len();
        let n_tensors = n_accs + self.rows.len() + self.cols.len();
        let global = vec![MemLevel::Global; n_tensors];
        // A warpgroup accumulates in registers from operand tiles staged
        // in shared memory.
        let mut wg_mems = vec![MemLevel::Register; n_accs];
        wg_mems.resize(n_tensors, MemLevel::Shared);
        let grid = match root {
            None => TaskMapping::for_variant(&host, ProcLevel::Host, global.clone()).entrypoint(),
            Some((instance, proc)) => TaskMapping::new(instance, &host, proc, global.clone()),
        };
        let vectors = !self.vec_accs.is_empty();
        let mut block_calls = vec!["clear_tile", &tile, "store_tile"];
        if vectors {
            block_calls.insert(1, "vclear_tile");
            block_calls.push("vstore_tile");
        }
        let below = if self.wg.is_empty() {
            "gemm_wgmma"
        } else {
            &wg
        };
        let mut out = vec![
            grid.tunable("U", cfg.u as i64)
                .tunable("V", cfg.v as i64)
                .calls(&[&block]),
            common::accumulate_block_instance(&block, global, cfg, &block_calls),
            common::row_split_instance(&tile, &tile, cfg.wgs, &wg_mems, below),
        ];
        if !self.wg.is_empty() {
            let per_wg = TaskMapping::for_variant(&wg, ProcLevel::Warpgroup, wg_mems);
            out.push(per_wg.calls(self.wg_calls));
        }
        out.extend(common::mma_chain_mappings("gemm", MemLevel::Shared));
        out.extend(common::clear_mappings("clear", cfg.wgs));
        out.extend(common::store_mappings("store", cfg.wgs));
        if vectors {
            out.extend(common::vec_clear_mappings("vclear", cfg.wgs));
            out.extend(common::vec_store_mappings("vstore", cfg.wgs));
        }
        out
    }

    /// The entry tensors for an `m x n x k` problem.
    ///
    /// # Errors
    ///
    /// [`CompileError::Partition`] when the family has row-vector
    /// accumulators, which hold one partial sum per `V`-wide block
    /// column, and `V` is 0.
    pub(crate) fn entry_args(
        &self,
        m: usize,
        n: usize,
        k: usize,
        cfg: &GemmConfig,
    ) -> Result<Vec<EntryArg>, CompileError> {
        if cfg.v == 0 && !self.vec_accs.is_empty() {
            return Err(CompileError::Partition(format!(
                "`{}` tile V=0 leaves no partial-sum columns of N={n}",
                self.task
            )));
        }
        let accs = self.accs.iter().map(|c| EntryArg::f16(*c, m, n));
        let partials = self.vec_accs.iter();
        let vecs = partials.map(|y| EntryArg::f16(*y, m, n / cfg.v));
        let rows = self.rows.iter().map(|a| EntryArg::f16(*a, m, k));
        let cols = self.cols.iter().map(|b| EntryArg::f16(*b, k, n));
        Ok(accs.chain(vecs).chain(rows).chain(cols).collect())
    }

    /// The family's mapping specification at `cfg`.
    pub(crate) fn mapping(&self, cfg: &GemmConfig) -> Result<MappingSpec, CompileError> {
        MappingSpec::new(self.instances(cfg, None))
    }

    /// Registry and entry arguments around `mapping`, the family's
    /// mapping at `cfg`.
    pub(crate) fn program(
        &self,
        [m, n, k]: [usize; 3],
        cfg: &GemmConfig,
        mapping: MappingSpec,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        Ok((self.registry()?, mapping, self.entry_args(m, n, k, cfg)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert_eq!(GemmConfig::h100().wgs, 2);
        assert_eq!(
            GemmConfig::for_machine(&MachineConfig::h100_sxm5()),
            GemmConfig::h100()
        );
        assert_eq!(
            GemmConfig::for_machine(&MachineConfig::test_gpu()),
            GemmConfig::test()
        );
    }

    #[test]
    fn builds_registry_and_mapping() {
        let (reg, mapping, args) = build(128, 128, 64, &MachineConfig::test_gpu()).unwrap();
        assert!(reg.variant("gemm_host").is_ok());
        assert!(reg.variant("gemm_wgmma").is_ok());
        assert_eq!(mapping.entry().instance, "gemm_host");
        assert_eq!(args.len(), 3);
        assert_eq!(flops(2, 3, 4), 48.0);
    }

    #[test]
    fn a_family_without_an_accumulator_or_a_row_operand_is_unsupported() {
        for family in [
            Family {
                accs: &[],
                ..FAMILY
            },
            Family {
                rows: &[],
                ..FAMILY
            },
        ] {
            let err = family.registry().err();
            assert!(
                matches!(&err, Some(CompileError::Unsupported(m)) if m.contains("needs a matrix accumulator")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn invalid_shape_is_a_typed_error_not_a_panic() {
        // 100 is not divisible by the default 64-row tile.
        let err = build(100, 128, 64, &MachineConfig::test_gpu());
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }

    #[test]
    fn space_default_matches_for_machine() {
        for machine in [MachineConfig::test_gpu(), MachineConfig::h100_sxm5()] {
            assert_eq!(
                GemmSpace.default_for(&machine),
                MappingConfig::Gemm(GemmConfig::for_machine(&machine))
            );
        }
    }

    #[test]
    fn candidates_include_the_default_and_are_deterministic() {
        let machine = MachineConfig::h100_sxm5();
        let shape = Shape::of(&[4096, 4096, 4096]);
        let cands = GemmSpace.candidates(&machine, &shape);
        assert!(cands.contains(&GemmSpace.default_for(&machine)));
        assert_eq!(cands, GemmSpace.candidates(&machine, &shape));
        for c in &cands {
            assert!(GemmSpace.validate(&machine, &shape, c).is_ok());
        }
    }
}
