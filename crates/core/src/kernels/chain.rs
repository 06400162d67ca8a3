//! The chained dual-GEMM kernel: `C = (A·B1)·B2` in ONE launch — the
//! fused form of a producer→consumer GEMM→GEMM chain in a task graph.
//!
//! This is the graph-level sibling of the Fig. 13c Dual-GEMM: where
//! Fig. 13c fuses two GEMMs that *share* an `A` operand, this kernel
//! fuses two GEMMs *chained* through an intermediate (`T = A·B1`, then
//! `C = T·B2`), the shape a `TaskGraph` produces when one GEMM node's
//! `C` output feeds the next node's `A` slot. Each CTA owns one
//! `U x V` output chunk: it computes its whole row band of the
//! intermediate into **shared memory** (walking `V`-wide column chunks
//! so register accumulators stay bounded), then immediately consumes
//! the band for the second GEMM — the intermediate never makes the HBM
//! round trip and the second kernel launch disappears. Row bands are
//! recomputed once per output-column CTA; in the small/medium regime
//! where fusion pays (kernels that underfill the device and are
//! launch-bound), those SMs were idle anyway, and the runtime's fusion
//! rewriter only applies the rewrite when the simulator confirms the
//! fused kernel wins.
//!
//! Bitwise-equality argument (what `FusionPolicy::Auto` relies on): the
//! functional simulator accumulates GEMMs in unrounded f32 register
//! fragments and every mapping walks each output element's `k`
//! dimension in ascending order, so a GEMM's result is independent of
//! its tiling; the only rounding points are f16 materializations. The
//! chain kernel materializes each intermediate chunk exactly once —
//! after its complete first-GEMM sum, through an f16 shared-memory
//! store, the same single rounding the standalone GEMM performs on its
//! `C` — and the second phase reads those f16 values back, exactly like
//! the consumer kernel of the unfused chain. The runtime's
//! policy-product property (`cypress-runtime/tests/policy_product.rs`)
//! holds fused launches to a single-kernel oracle bit for bit.

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::TaskRegistry;
use crate::kernels::common::{self, p, tiled};
use crate::kernels::footprint::Footprint;
use crate::kernels::gemm::{self, GemmConfig};
use crate::kernels::space::{build_fitted, Grid, MappingConfig, MappingSpace, Shape};
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

/// Algorithmic FLOPs of the chain: both GEMMs (redundant row-band
/// recomputation is not algorithmic work, as in the paper's convention).
#[must_use]
pub fn flops(m: usize, n: usize, k: usize, mid: usize) -> f64 {
    2.0 * m as f64 * mid as f64 * k as f64 + 2.0 * m as f64 * n as f64 * mid as f64
}

/// The chained dual-GEMM mapping space: shape `[m, n, k, mid]` for
/// `C[m,n] = (A[m,k]·B1[k,mid])·B2[mid,n]`.
///
/// `U` fixes the row band (64 per warpgroup), `V` the output-column
/// chunk per CTA, and `W` tiles both reduction dimensions. Every
/// enumerated dimension is functionally transparent: each intermediate
/// chunk is rounded to f16 exactly once after its complete first-GEMM
/// sum regardless of `V`, `W`, pipeline depth, or warp specialization.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainSpace;

impl MappingSpace for ChainSpace {
    fn entry(&self) -> &'static str {
        "chain"
    }

    fn default_for(&self, machine: &MachineConfig) -> MappingConfig {
        let mut cfg = GemmConfig::for_machine(machine);
        // A single 64-row warpgroup with chunks at most 128 wide keeps
        // both phases' register accumulators within budget.
        cfg.wgs = 1;
        cfg.u = 64;
        cfg.v = cfg.v.min(128);
        MappingConfig::Gemm(cfg)
    }

    fn footprint(&self) -> Footprint {
        Footprint::Chain
    }

    fn grid(&self) -> Grid {
        // The footprint's register budget filters the chunk widths the
        // shared grid proposes beyond 128.
        Grid::GEMM
    }

    /// Two phases of the plain GEMM under the chain's own host and
    /// block levels.
    fn mapping(&self, _: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError> {
        let cfg = cfg.as_gemm("chain")?;
        let global = vec![MemLevel::Global; 4];
        let block_calls = ["clear_tile", "gemm_tile", "store_tile"];
        let mut instances = vec![
            TaskMapping::for_variant("chain_host", ProcLevel::Host, global.clone())
                .tunable("U", cfg.u as i64)
                .tunable("V", cfg.v as i64)
                .calls(&["chain_block"])
                .entrypoint(),
            common::accumulate_block_instance("chain_block", global, &cfg, &block_calls)
                .tunable("V", cfg.v as i64),
        ];
        // Both phases are the plain GEMM from its tile level down (the
        // family lists its host and block instances first).
        instances.extend(gemm::FAMILY.instances(&cfg, None).into_iter().skip(2));
        MappingSpec::new(instances)
    }

    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
        let [m, n, k, mid] = shape.expect_dims("chain")?;
        let reg = registry()?;
        let args = vec![
            EntryArg::f16("C", m, n),
            EntryArg::f16("A", m, k),
            EntryArg::f16("B1", k, mid),
            EntryArg::f16("B2", mid, n),
        ];
        Ok((reg, self.mapping(shape, cfg)?, args))
    }
}

/// Build the chained dual-GEMM program for `machine`:
/// `C[m,n] = (A[m,k] · B1[k,mid]) · B2[mid,n]`, falling back from the
/// hand-tuned default to the first valid candidate when the default
/// does not fit the shape.
///
/// # Errors
///
/// Returns the default mapping's [`CompileError`] when no mapping in
/// the space is valid for this machine/shape combination (indivisible
/// tiles, or an intermediate band beyond shared memory) — the fusion
/// rewriter then simply leaves the chain unfused.
pub fn build(
    m: usize,
    n: usize,
    k: usize,
    mid: usize,
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    build_fitted(&ChainSpace, &[m, n, k, mid], machine)
}

/// The plain GEMM's tree plus the chain's own host and block levels.
fn registry() -> Result<TaskRegistry, CompileError> {
    let mut reg = gemm::FAMILY.registry()?;
    let params = vec![
        p("C", Privilege::ReadWrite),
        p("A", Privilege::Read),
        p("B1", Privilege::Read),
        p("B2", Privilege::Read),
    ];
    common::register_inner(&mut reg, "chain", "chain_host", params.clone(), host_body())?;
    common::register_inner(&mut reg, "chain", "chain_block", params, block_body())?;
    Ok(reg)
}

/// Host: one CTA per (row band, output-column chunk). Each CTA reads
/// its A band and the full B1, and the B2 columns of its chunk.
fn host_body() -> Vec<Stmt> {
    let [u, v, m, n, k, mid, i, j] = ["U", "V", "M", "N", "K", "P", "i", "j"].map(SExpr::var);
    let zero = SExpr::lit(0);
    let mut body = vec![
        Stmt::tunable("U"),
        Stmt::tunable("V"),
        Stmt::let_("M", SExpr::shape("C", 0)),
        Stmt::let_("N", SExpr::shape("C", 1)),
        Stmt::let_("K", SExpr::shape("A", 1)),
        Stmt::let_("P", SExpr::shape("B1", 1)),
    ];
    let mut args = Vec::new();
    tiled(&["C"], [&u, &v], [&i, &j], &mut body, &mut args);
    tiled(&["A"], [&u, &k], [&i, &zero], &mut body, &mut args);
    args.push(ArgExpr::tensor("B1"));
    tiled(&["B2"], [&mid, &v], [&zero, &j], &mut body, &mut args);
    let launch = Stmt::launch("chain", args);
    body.push(Stmt::prange(&["i", "j"], vec![m / u, n / v], vec![launch]));
    body
}

/// Block: phase 1 walks the intermediate band's column chunks — each
/// chunk accumulates `Ts[:, jt] = A · B1[:, jt]` in registers and
/// materializes into the shared-memory band (the bitwise f16
/// rounding point). Phase 2 consumes the band as the A operand of
/// `C = Ts · B2`, reduction-tiled by `W`.
fn block_body() -> Vec<Stmt> {
    vec![
        Stmt::tunable("W"),
        Stmt::tunable("V"),
        Stmt::let_("M", SExpr::shape("C", 0)),
        Stmt::let_("K", SExpr::shape("A", 1)),
        Stmt::let_("P", SExpr::shape("B1", 1)),
        // Phase 1: the intermediate band, one V-wide chunk at a time.
        Stmt::blocks("A1p", "A", SExpr::var("M"), SExpr::var("W")),
        Stmt::blocks("B1p", "B1", SExpr::var("W"), SExpr::var("V")),
        Stmt::make_tensor("Ts", SExpr::var("M"), SExpr::var("P"), DType::F16),
        Stmt::blocks("Tsw", "Ts", SExpr::var("M"), SExpr::var("V")),
        Stmt::make_tensor("Tacc", SExpr::var("M"), SExpr::var("V"), DType::F16),
        Stmt::srange(
            "jt",
            SExpr::cdiv(SExpr::var("P"), SExpr::var("V")),
            vec![
                Stmt::launch_whole("clear", &["Tacc"]),
                Stmt::srange(
                    "k",
                    SExpr::cdiv(SExpr::var("K"), SExpr::var("W")),
                    vec![Stmt::launch(
                        "gemm",
                        vec![
                            ArgExpr::tensor("Tacc"),
                            ArgExpr::piece("A1p", vec![SExpr::lit(0), SExpr::var("k")]),
                            ArgExpr::piece("B1p", vec![SExpr::var("k"), SExpr::var("jt")]),
                        ],
                    )],
                ),
                Stmt::launch(
                    "store",
                    vec![
                        ArgExpr::tensor("Tacc"),
                        ArgExpr::piece("Tsw", vec![SExpr::lit(0), SExpr::var("jt")]),
                    ],
                ),
            ],
        ),
        // Phase 2: C = Ts · B2, straight from shared memory.
        Stmt::blocks("T2p", "Ts", SExpr::var("M"), SExpr::var("W")),
        Stmt::blocks("B2q", "B2", SExpr::var("W"), SExpr::var("V")),
        Stmt::make_tensor("Cacc", SExpr::var("M"), SExpr::var("V"), DType::F16),
        Stmt::launch_whole("clear", &["Cacc"]),
        Stmt::srange(
            "q",
            SExpr::cdiv(SExpr::var("P"), SExpr::var("W")),
            vec![Stmt::launch(
                "gemm",
                vec![
                    ArgExpr::tensor("Cacc"),
                    ArgExpr::piece("T2p", vec![SExpr::lit(0), SExpr::var("q")]),
                    ArgExpr::piece("B2q", vec![SExpr::var("q"), SExpr::lit(0)]),
                ],
            )],
        ),
        Stmt::launch_whole("store", &["Cacc", "C"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_has_four_params() {
        let (reg, mapping, args) = build(128, 64, 64, 64, &MachineConfig::test_gpu()).unwrap();
        assert!(reg.variant("chain_host").is_ok());
        assert_eq!(mapping.entry().instance, "chain_host");
        assert_eq!(args.len(), 4);
        assert_eq!(
            flops(2, 3, 4, 5),
            2.0 * 2.0 * 5.0 * 4.0 + 2.0 * 2.0 * 3.0 * 5.0
        );
    }

    #[test]
    fn candidates_validate_and_are_deterministic() {
        let machine = MachineConfig::test_gpu();
        let shape = Shape::of(&[128, 64, 64, 64]);
        let cands = ChainSpace.candidates(&machine, &shape);
        assert!(!cands.is_empty());
        assert_eq!(cands, ChainSpace.candidates(&machine, &shape));
        for c in &cands {
            assert!(ChainSpace.validate(&machine, &shape, c).is_ok());
        }
    }

    #[test]
    fn indivisible_shapes_are_typed_errors() {
        let err = build(100, 64, 64, 64, &MachineConfig::test_gpu());
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }
}
