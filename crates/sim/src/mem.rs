//! Memory objects and slices of the device-program representation.
//!
//! A kernel names three kinds of memory objects, mirroring the paper's
//! machine model (Fig. 2):
//!
//! - [`ParamDecl`]: global-memory tensors bound at launch,
//! - [`SmemDecl`]: per-CTA shared-memory regions, optionally multi-stage
//!   (the `PIPE` dimension of Fig. 1b),
//! - [`FragDecl`]: per-warpgroup register-file fragments (accumulators).
//!
//! All objects are logically 2-D matrices; batched tensors are bound with
//! their batch dimension folded into rows, and kernels compute batch offsets
//! in row expressions. A [`Slice`] is a rectangular window of one object
//! with expression-valued origin, which is how instructions address data.

use crate::expr::Expr;
use cypress_tensor::DType;

/// Global-memory kernel parameter.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ParamDecl {
    /// Name for diagnostics and pretty-printing.
    pub name: String,
    /// Logical rows (batch dims folded in).
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// Element type in device memory.
    pub dtype: DType,
}

impl ParamDecl {
    /// Bytes occupied in global memory. Saturates on overflow so a
    /// hostile declaration reads as "too big" at validation instead of
    /// wrapping to a small number in release builds.
    #[must_use]
    pub(crate) fn size_bytes(&self) -> usize {
        self.rows
            .saturating_mul(self.cols)
            .saturating_mul(self.dtype.size_bytes())
    }
}

/// Per-CTA shared-memory region.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SmemDecl {
    /// Name for diagnostics.
    pub name: String,
    /// Rows of one stage.
    pub rows: usize,
    /// Columns of one stage.
    pub cols: usize,
    /// Element type.
    pub dtype: DType,
    /// Pipeline stages (1 for unpipelined buffers). Stage `s` of the region
    /// is an independent buffer; slices select a stage with an expression,
    /// typically `k % PIPE`.
    pub stages: usize,
}

impl SmemDecl {
    /// Total bytes across all stages. Saturates on overflow so a
    /// hostile declaration fails the shared-memory budget check instead
    /// of wrapping past it in release builds.
    #[must_use]
    pub(crate) fn size_bytes(&self) -> usize {
        self.rows
            .saturating_mul(self.cols)
            .saturating_mul(self.dtype.size_bytes())
            .saturating_mul(self.stages)
    }
}

/// Per-warpgroup register fragment (always FP32, like WGMMA accumulators).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FragDecl {
    /// Name for diagnostics.
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

impl FragDecl {
    /// 32-bit registers required per thread of the owning warpgroup.
    /// Saturates on overflow so oversized fragments fail the register
    /// budget check instead of wrapping under it in release builds.
    #[must_use]
    pub(crate) fn regs_per_thread(&self) -> usize {
        self.rows.saturating_mul(self.cols).div_ceil(128)
    }
}

/// Which memory object a slice refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRef {
    /// Global parameter by declaration index.
    Param(usize),
    /// Shared region by declaration index.
    Smem(usize),
    /// Register fragment by declaration index (owned by the executing
    /// warpgroup; each compute warpgroup has its own instance).
    Frag(usize),
}

impl MemRef {
    /// The address space this reference lives in.
    #[must_use]
    pub(crate) fn space(self) -> Space {
        match self {
            MemRef::Param(_) => Space::Global,
            MemRef::Smem(_) => Space::Shared,
            MemRef::Frag(_) => Space::Register,
        }
    }
}

/// Address spaces of the machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device global memory (HBM behind L2).
    Global,
    /// Per-CTA shared memory.
    Shared,
    /// Per-warpgroup register file.
    Register,
}

/// A rectangular window of a memory object with expression-valued origin.
///
/// # Example
///
/// ```
/// use cypress_sim::mem::Slice;
/// use cypress_sim::expr::Expr;
///
/// // tile (blockIdx.x, k) of a global matrix, 128x64 elements
/// let s = Slice::param(0)
///     .at(Expr::block_x() * 128, Expr::var(0) * 64)
///     .extent(128, 64);
/// assert_eq!(s.rows, 128);
/// ```
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Slice {
    /// Target object.
    pub mem: MemRef,
    /// Pipeline stage (shared regions only; must evaluate within stages).
    pub stage: Expr,
    /// Row origin.
    pub row0: Expr,
    /// Column origin.
    pub col0: Expr,
    /// Row extent (static).
    pub rows: usize,
    /// Column extent (static).
    pub cols: usize,
}

impl Slice {
    /// Slice of global parameter `idx`, origin (0,0), extent 0 (call
    /// [`Slice::extent`]).
    #[must_use]
    pub fn param(idx: usize) -> Self {
        Slice::new(MemRef::Param(idx))
    }

    /// Slice of shared region `idx`.
    #[must_use]
    pub fn smem(idx: usize) -> Self {
        Slice::new(MemRef::Smem(idx))
    }

    /// Slice of register fragment `idx` of the executing warpgroup.
    #[must_use]
    pub fn frag(idx: usize) -> Self {
        Slice::new(MemRef::Frag(idx))
    }

    fn new(mem: MemRef) -> Self {
        Slice {
            mem,
            stage: Expr::lit(0),
            row0: Expr::lit(0),
            col0: Expr::lit(0),
            rows: 0,
            cols: 0,
        }
    }

    /// Set the origin.
    #[must_use]
    pub fn at(mut self, row0: impl Into<Expr>, col0: impl Into<Expr>) -> Self {
        self.row0 = row0.into();
        self.col0 = col0.into();
        self
    }

    /// Set the extent.
    #[must_use]
    pub fn extent(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Select a pipeline stage (shared regions only).
    #[must_use]
    pub fn stage(mut self, stage: impl Into<Expr>) -> Self {
        self.stage = stage.into();
        self
    }

    /// Number of elements covered.
    #[must_use]
    pub(crate) fn num_elements(&self) -> usize {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;

    #[test]
    fn param_sizes() {
        let p = ParamDecl {
            name: "A".into(),
            rows: 64,
            cols: 32,
            dtype: DType::F16,
        };
        assert_eq!(p.size_bytes(), 64 * 32 * 2);
    }

    #[test]
    fn smem_stages_multiply_footprint() {
        let s = SmemDecl {
            name: "sA".into(),
            rows: 128,
            cols: 64,
            dtype: DType::F16,
            stages: 3,
        };
        assert_eq!(s.size_bytes(), 128 * 64 * 2 * 3);
    }

    #[test]
    fn frag_register_accounting() {
        // 64x256 f32 accumulator = 16384 elements over 128 threads = 128 regs.
        let f = FragDecl {
            name: "acc".into(),
            rows: 64,
            cols: 256,
        };
        assert_eq!(f.regs_per_thread(), 128);
        let tiny = FragDecl {
            name: "m".into(),
            rows: 64,
            cols: 1,
        };
        assert_eq!(tiny.regs_per_thread(), 1);
    }

    #[test]
    fn overflow_sized_declarations_saturate_instead_of_wrapping() {
        // rows * cols overflows usize; the sizes must clamp to usize::MAX so
        // budget checks in `Kernel::validate` reject rather than accept a
        // wrapped-around small number.
        let p = ParamDecl {
            name: "huge".into(),
            rows: usize::MAX / 2,
            cols: 3,
            dtype: DType::F32,
        };
        assert_eq!(p.size_bytes(), usize::MAX);
        let s = SmemDecl {
            name: "huge".into(),
            rows: usize::MAX / 2,
            cols: 3,
            dtype: DType::F16,
            stages: 2,
        };
        assert_eq!(s.size_bytes(), usize::MAX);
        let f = FragDecl {
            name: "huge".into(),
            rows: usize::MAX / 2,
            cols: 4,
        };
        assert_eq!(f.regs_per_thread(), usize::MAX.div_ceil(128));
    }

    #[test]
    fn slice_builder_evaluates() {
        let s = Slice::smem(2)
            .stage(Expr::var(0) % 3)
            .at(0, 16)
            .extent(16, 16);
        let mut env = Env::default();
        env.bind(0, 7);
        assert_eq!(s.stage.eval(&env).unwrap(), 1);
        assert_eq!(s.num_elements(), 256);
        assert_eq!(s.mem.space(), Space::Shared);
        assert_eq!(Slice::param(0).mem.space(), Space::Global);
        assert_eq!(Slice::frag(0).mem.space(), Space::Register);
    }
}
