//! Enumerable, validated mapping spaces (the paper's §3.3 separation,
//! made searchable).
//!
//! The paper's core thesis is that the *logical description* of a kernel
//! is fixed while its *mapping specification* — tile sizes, warpgroup
//! counts, pipeline depth, warp specialization — can be swapped freely.
//! [`MappingSpace`] is the machinery that exploits the separation: each
//! evaluation kernel exposes one space whose points are [`MappingConfig`]
//! values, with
//!
//! - [`MappingSpace::default_for`] — the hand-tuned mapping (what the
//!   fixed `for_machine` pickers used to return, bit for bit);
//! - [`MappingSpace::candidates`] — every valid point for a machine and
//!   problem shape. Points that blow the shared-memory budget or do not
//!   divide the problem are filtered through [`MappingSpace::validate`],
//!   which reports a typed [`CompileError`] rather than panicking;
//! - [`MappingSpace::build`] — the program at a given point, and
//!   [`MappingSpace::mapping`] — its mapping specification alone.
//!
//! Spaces only enumerate *functionally transparent* dimensions: every
//! candidate a space emits computes bitwise-identical outputs to the
//! default mapping (the functional simulator accumulates in unrounded
//! f32 register fragments, so re-tiling a parallel dimension preserves
//! each element's addition order). Parameters that change the
//! computation's structure are pinned to the hand-tuned default:
//! GEMM+Reduction's `V` (which fixes the partial-sum output shape),
//! Dual-GEMM's `W` (which fixes the `B1`/`B2` accumulation
//! interleaving), attention's `Bc` (which fixes the online-softmax
//! rescale grouping), and the GEMM family's warpgroup count. A search
//! over a space (see `cypress-runtime`'s tuner) therefore never changes
//! results, only time.

use crate::error::CompileError;
use crate::front::mapping::MappingSpec;
use crate::front::task::TaskRegistry;
use crate::kernels::attention::AttentionConfig;
use crate::kernels::cost::{self, CostEstimate};
use crate::kernels::footprint::Footprint;
use crate::kernels::gemm::GemmConfig;
use crate::passes::depan::EntryArg;
use cypress_sim::{CostConstants, MachineConfig};
use std::fmt;

/// A problem shape: flat extents whose meaning is per kernel
/// (GEMM/Dual-GEMM/GEMM+Reduction: `[m, n, k]`; batched GEMM:
/// `[l, m, n, k]`; attention: `[heads, seq, head_dim]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Shorthand constructor.
    #[must_use]
    pub fn of(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The extents.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extract exactly `N` dims, or a typed error naming the kernel.
    pub(crate) fn expect_dims<const N: usize>(
        &self,
        kernel: &str,
    ) -> Result<[usize; N], CompileError> {
        <[usize; N]>::try_from(self.0.as_slice()).map_err(|_| {
            CompileError::Unsupported(format!(
                "`{kernel}` shape needs {N} extents, got {:?}",
                self.0
            ))
        })
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// One point in a kernel's mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingConfig {
    /// A GEMM-family point (GEMM, batched, dual, GEMM+Reduction).
    Gemm(GemmConfig),
    /// An attention point.
    Attention(AttentionConfig),
}

impl MappingConfig {
    /// Compact human-readable label, e.g. `u128 v256 w64 wgs2 p3 ws`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MappingConfig::Gemm(c) => format!(
                "u{} v{} w{} wgs{} p{}{}",
                c.u,
                c.v,
                c.w,
                c.wgs,
                c.pipeline,
                if c.warpspecialize { " ws" } else { "" }
            ),
            MappingConfig::Attention(c) => {
                format!("br{} bc{} wgs{} p{}", c.br, c.bc, c.wgs, c.pipeline)
            }
        }
    }

    /// Canonical single-token encoding, inverse of [`MappingConfig::decode`].
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            MappingConfig::Gemm(c) => format!(
                "gemm:u={},v={},w={},wgs={},pipe={},ws={}",
                c.u,
                c.v,
                c.w,
                c.wgs,
                c.pipeline,
                u8::from(c.warpspecialize)
            ),
            MappingConfig::Attention(c) => format!(
                "attn:br={},bc={},wgs={},pipe={}",
                c.br, c.bc, c.wgs, c.pipeline
            ),
        }
    }

    /// Parse a token produced by [`MappingConfig::encode`].
    #[must_use]
    pub fn decode(s: &str) -> Option<Self> {
        let (kind, fields) = s.split_once(':')?;
        let get = |key: &str| -> Option<usize> {
            fields.split(',').find_map(|f| {
                let (k, v) = f.split_once('=')?;
                (k == key).then(|| v.parse().ok())?
            })
        };
        match kind {
            "gemm" => Some(MappingConfig::Gemm(GemmConfig {
                u: get("u")?,
                v: get("v")?,
                w: get("w")?,
                wgs: get("wgs")?,
                pipeline: get("pipe")?,
                warpspecialize: get("ws")? != 0,
            })),
            "attn" => Some(MappingConfig::Attention(AttentionConfig {
                br: get("br")?,
                bc: get("bc")?,
                wgs: get("wgs")?,
                pipeline: get("pipe")?,
            })),
            _ => None,
        }
    }

    /// This point with its schedule fields — pipeline depth and warp
    /// specialization — cleared. Only warp specialization (§4.2.5) reads
    /// them, so points with equal keys are schedule siblings: their
    /// programs share one [`crate::compile::Front`].
    #[must_use]
    pub fn front_key(&self) -> MappingConfig {
        match *self {
            MappingConfig::Gemm(c) => MappingConfig::Gemm(GemmConfig {
                pipeline: 0,
                warpspecialize: false,
                ..c
            }),
            MappingConfig::Attention(c) => {
                MappingConfig::Attention(AttentionConfig { pipeline: 0, ..c })
            }
        }
    }

    /// The GEMM-family payload, or a typed error.
    pub(crate) fn as_gemm(&self, kernel: &str) -> Result<GemmConfig, CompileError> {
        match self {
            MappingConfig::Gemm(c) => Ok(*c),
            MappingConfig::Attention(_) => Err(CompileError::Unsupported(format!(
                "`{kernel}` needs a GEMM-family mapping config, got an attention config"
            ))),
        }
    }

    /// The attention payload, or a typed error.
    pub(crate) fn as_attention(&self, kernel: &str) -> Result<AttentionConfig, CompileError> {
        match self {
            MappingConfig::Attention(c) => Ok(*c),
            MappingConfig::Gemm(_) => Err(CompileError::Unsupported(format!(
                "`{kernel}` needs an attention mapping config, got a GEMM-family config"
            ))),
        }
    }
}

/// The mapping dimensions a space's [`MappingSpace::candidates`] walks,
/// each with the values it tries (the default's own joins a list that
/// lacks it); an empty list — the `Default` — pins the dimension. A
/// listed dimension is claimed functionally transparent for the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Grid {
    /// Warpgroup counts; the row tile follows as `64 x wgs`.
    pub wgs: &'static [usize],
    /// Column tiles `V` (attention: the K/V tile `Bc`).
    pub v: &'static [usize],
    /// Reduction tiles `W`.
    pub w: &'static [usize],
    /// Software pipeline depths.
    pub pipeline: &'static [usize],
    /// Whether warp specialization is tried both on and off.
    pub warpspecialize: bool,
}

impl Grid {
    /// What the GEMM family walks: the `V`/`W` tiles, the pipeline
    /// depth, and warp specialization. The warpgroup count (and with it
    /// the row tile `U`) stays at the hand-tuned default — re-splitting
    /// rows across warpgroups interacts with warp specialization in ways
    /// the functional guarantee does not cover. A kernel for which a
    /// tile is structural pins it: `Grid { w: &[], ..Grid::GEMM }`.
    pub(crate) const GEMM: Grid = Grid {
        wgs: &[],
        v: &[64, 128, 256],
        w: &[32, 64],
        pipeline: &[1, 2, 3],
        warpspecialize: true,
    };
}

/// An enumerable, validated mapping space for one kernel.
///
/// An implementor states the six facts that differ between kernels —
/// [`entry`](MappingSpace::entry), [`default_for`](MappingSpace::default_for),
/// [`footprint`](MappingSpace::footprint), [`grid`](MappingSpace::grid),
/// [`mapping`](MappingSpace::mapping) and [`build`](MappingSpace::build)
/// — and gets `validate`, `candidates` and `estimate` from them.
///
/// The trait is object-safe so a runtime can carry `Arc<dyn MappingSpace>`
/// next to a compiled program; `candidates` therefore returns a `Vec`
/// rather than an opaque iterator. The candidate list is deterministic:
/// the grid is walked in a fixed order, so two processes enumerating the
/// same `(machine, shape)` see the same list — the property a
/// deterministic autotuner needs.
pub trait MappingSpace: fmt::Debug + Send + Sync {
    /// The entry task name of programs this space builds (`"gemm"`,
    /// `"bgemm"`, `"dual"`, `"gr"`, `"chain"`, `"reduce"`, `"allred"`,
    /// `"fa"`).
    fn entry(&self) -> &'static str;

    /// The hand-tuned default mapping for `machine` — exactly what the
    /// kernel's `build` uses, so `build(shape, &default_for(machine))`
    /// reproduces the pre-space programs bit for bit.
    fn default_for(&self, machine: &MachineConfig) -> MappingConfig;

    /// What one point of this space stages and launches: the single
    /// description `validate` bounds and `estimate` prices.
    fn footprint(&self) -> Footprint;

    /// The functionally transparent dimensions `candidates` enumerates.
    fn grid(&self) -> Grid;

    /// Check one point against `machine` and `shape`: tile divisibility
    /// and the shared-memory budget.
    ///
    /// # Errors
    ///
    /// [`CompileError::Partition`] for tiles that do not divide the
    /// problem, [`CompileError::OutOfSharedMemory`] for points whose
    /// staged working set exceeds the machine, and
    /// [`CompileError::Unsupported`] for malformed shapes or configs,
    /// including ones whose byte counts overflow `usize`.
    fn validate(
        &self,
        machine: &MachineConfig,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(), CompileError> {
        let kernel = self.entry();
        let launch = self.footprint().measure(kernel, shape, cfg)?;
        if launch.regs_per_thread > machine.max_regs_per_thread {
            return Err(CompileError::Unsupported(format!(
                "`{kernel}` accumulators need ~{} registers per thread, machine allows {}",
                launch.regs_per_thread, machine.max_regs_per_thread
            )));
        }
        if launch.smem_bytes > machine.smem_per_sm {
            return Err(CompileError::OutOfSharedMemory {
                required: launch.smem_bytes,
                limit: machine.smem_per_sm,
            });
        }
        Ok(())
    }

    /// Every valid point for `(machine, shape)`, in a deterministic
    /// order: the [`grid`](MappingSpace::grid) around the default,
    /// walked `wgs`, `V`, `W`, pipeline depth, warp specialization
    /// (outermost first) and filtered through `validate`. All returned
    /// points compile, and all compute bitwise the same function as
    /// [`MappingSpace::default_for`]'s point.
    fn candidates(&self, machine: &MachineConfig, shape: &Shape) -> Vec<MappingConfig> {
        let (default, grid) = (self.default_for(machine), self.grid());
        let (wgs, v, w, pipeline, ws) = match default {
            MappingConfig::Gemm(c) => (c.wgs, c.v, c.w, c.pipeline, c.warpspecialize),
            MappingConfig::Attention(c) => (c.wgs, c.bc, 0, c.pipeline, true),
        };
        let axis = |tried: &[usize], default: usize| {
            let mut values = tried.to_vec();
            if !values.contains(&default) {
                values.push(default);
            }
            values
        };
        let [wgs, v, w, pipeline] = [
            axis(grid.wgs, wgs),
            axis(grid.v, v),
            axis(grid.w, w),
            axis(grid.pipeline, pipeline),
        ];
        let ws = if grid.warpspecialize {
            vec![true, false]
        } else {
            vec![ws]
        };
        let mut out = Vec::new();
        for &wgs in &wgs {
            // A varied warpgroup count takes the row tile with it.
            let rows = (!grid.wgs.is_empty()).then_some(64 * wgs);
            for &v in &v {
                for &w in &w {
                    for &pipeline in &pipeline {
                        for &warpspecialize in &ws {
                            let cfg = match default {
                                MappingConfig::Gemm(c) => MappingConfig::Gemm(GemmConfig {
                                    u: rows.unwrap_or(c.u),
                                    v,
                                    w,
                                    wgs,
                                    pipeline,
                                    warpspecialize,
                                }),
                                MappingConfig::Attention(c) => {
                                    MappingConfig::Attention(AttentionConfig {
                                        br: rows.unwrap_or(c.br),
                                        bc: v,
                                        wgs,
                                        pipeline,
                                    })
                                }
                            };
                            if self.validate(machine, shape, &cfg).is_ok() {
                                out.push(cfg);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The mapping specification of the kernel's program at `cfg`:
    /// exactly the [`MappingSpec`] that [`build`](MappingSpace::build)
    /// returns there, which calls this, so each space writes its mapping
    /// once.
    ///
    /// The contract an autotune sweep relies on, in two parts:
    ///
    /// - every point of [`candidates`](MappingSpace::candidates) builds
    ///   one task registry and one entry-argument list, and builds
    ///   exactly when this returns `Ok`: the registry reads the shape,
    ///   never a config field. A sweep compiles the program it is
    ///   given, which this space built at the swept shape, and asks
    ///   every candidate for its mapping alone (`kernels_golden.rs`'s
    ///   `every_candidate_builds_one_program` holds every family to
    ///   this);
    /// - points with one [`MappingConfig::front_key`] — *schedule
    ///   siblings* — differ only in their mapping's schedule fields, so
    ///   they compile through one [`crate::compile::Front`]
    ///   (`schedule_siblings_differ_only_in_their_schedule`).
    ///
    /// # Errors
    ///
    /// [`CompileError`] for a malformed shape or config, or a mapping
    /// [`MappingSpec::new`] rejects.
    fn mapping(&self, shape: &Shape, cfg: &MappingConfig) -> Result<MappingSpec, CompileError>;

    /// Build the kernel's program at `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from validation or registration.
    fn build(
        &self,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError>;

    /// Analytically predict the cost of one candidate (see
    /// [`crate::kernels::cost`]): what a guided tuner ranks by before
    /// paying the simulator. The price is of the launch
    /// [`footprint`](MappingSpace::footprint) measures, so it sees
    /// exactly what `validate` bounds. `None` means the point is
    /// unpriceable — malformed, overflowing, or of a family the model
    /// does not cover — and a guided sweep falls back to the exhaustive
    /// one.
    fn estimate(
        &self,
        machine: &MachineConfig,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Option<CostEstimate> {
        let launch = self.footprint().measure(self.entry(), shape, cfg).ok()?;
        cost::price(&launch, machine, &CostConstants::for_machine(machine))
    }

    /// The hand-tuned default when it validates for `(machine, shape)`,
    /// otherwise the first valid candidate of the deterministic
    /// enumeration — the shape-adaptive fallback the fused and
    /// communication kernels use, since their defaults cannot anticipate
    /// every width (the hand-tuned `V = 256` of an H100 does not divide
    /// a 128-column attention output; `V = 64` does).
    ///
    /// # Errors
    ///
    /// The default's own typed validation error when the grid is empty.
    fn default_or_first_candidate(
        &self,
        machine: &MachineConfig,
        shape: &Shape,
    ) -> Result<MappingConfig, CompileError> {
        let cfg = self.default_for(machine);
        match self.validate(machine, shape, &cfg) {
            Ok(()) => Ok(cfg),
            Err(e) => self.candidates(machine, shape).into_iter().next().ok_or(e),
        }
    }
}

/// `space`'s program at its default mapping, which must fit `dims`.
pub(crate) fn build_default(
    space: &dyn MappingSpace,
    dims: &[usize],
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    let (shape, cfg) = (Shape::of(dims), space.default_for(machine));
    space.validate(machine, &shape, &cfg)?;
    space.build(&shape, &cfg)
}

/// `space`'s program at the mapping its
/// [`default_or_first_candidate`](MappingSpace::default_or_first_candidate)
/// picks for `dims`.
pub(crate) fn build_fitted(
    space: &dyn MappingSpace,
    dims: &[usize],
    machine: &MachineConfig,
) -> Result<(TaskRegistry, MappingSpec, Vec<EntryArg>), CompileError> {
    let shape = Shape::of(dims);
    space.build(&shape, &space.default_or_first_candidate(machine, &shape)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::GemmSpace;

    #[test]
    fn shape_displays_and_extracts() {
        let s = Shape::of(&[4096, 4096, 64]);
        assert_eq!(s.to_string(), "4096x4096x64");
        assert_eq!(s.expect_dims::<3>("gemm").unwrap(), [4096, 4096, 64]);
        assert!(matches!(
            s.expect_dims::<4>("bgemm"),
            Err(CompileError::Unsupported(_))
        ));
    }

    #[test]
    fn config_encoding_round_trips() {
        let g = MappingConfig::Gemm(GemmConfig::h100());
        assert_eq!(MappingConfig::decode(&g.encode()), Some(g));
        let a = MappingConfig::Attention(AttentionConfig::fa3_h100());
        assert_eq!(MappingConfig::decode(&a.encode()), Some(a));
        assert_eq!(MappingConfig::decode("nope"), None);
        assert_eq!(MappingConfig::decode("gemm:u=1"), None);
    }

    #[test]
    fn gemm_family_validation_is_typed() {
        let machine = MachineConfig::test_gpu();
        let validate = |dims: &[usize], cfg| {
            GemmSpace.validate(&machine, &Shape::of(dims), &MappingConfig::Gemm(cfg))
        };
        let ok = GemmConfig::test();
        assert!(validate(&[128, 128, 64], ok).is_ok());
        // Indivisible N.
        let err = validate(&[128, 100, 64], ok);
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
        // H100 mapping blows the test GPU's shared memory.
        let err = validate(&[128, 256, 64], GemmConfig::h100());
        assert!(
            matches!(err, Err(CompileError::OutOfSharedMemory { .. })),
            "{err:?}"
        );
        // Row tile must match the warpgroup split.
        let bad = GemmConfig {
            u: 128,
            wgs: 1,
            ..GemmConfig::test()
        };
        let err = validate(&[128, 128, 64], bad);
        assert!(matches!(err, Err(CompileError::Partition(_))), "{err:?}");
    }
}
