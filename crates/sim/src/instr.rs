//! The device-program instruction set.
//!
//! This is the target language of the Cypress compiler's code generation
//! (§4.2.6) and the source language of the simulator engine. It models the
//! Hopper primitives the paper's generated CUDA relies on: TMA bulk copies
//! completing on mbarriers, asynchronous `wgmma` with group waits,
//! `cp.async` fallback loads, named barriers, `__syncthreads`, and bulk
//! SIMT math executed by whole warpgroups.

use crate::expr::{Cond, Expr};
use crate::mem::Slice;
use std::hash::{Hash, Hasher};

/// One device instruction, executed by a role's instruction stream.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Instr {
    /// Asynchronous TMA copy global→shared. On completion the TMA unit
    /// arrives mbarrier `bar` once.
    TmaLoad {
        /// Global source.
        src: Slice,
        /// Shared destination.
        dst: Slice,
        /// mbarrier index arrived on completion.
        bar: usize,
    },
    /// Asynchronous TMA copy shared→global. Tracked by [`Instr::TmaStoreWait`].
    TmaStore {
        /// Shared source.
        src: Slice,
        /// Global destination.
        dst: Slice,
    },
    /// Block until all TMA stores issued by this role have completed.
    TmaStoreWait,
    /// Ampere-style asynchronous copy global→shared issued by SIMT threads
    /// (`cp.async`). Slower than TMA and occupies the issuing role longer;
    /// this is the default data path of the Triton baseline (§5.2). Arrives
    /// mbarrier `bar` on completion.
    CpAsyncLoad {
        /// Global source.
        src: Slice,
        /// Shared destination.
        dst: Slice,
        /// mbarrier index arrived on completion.
        bar: usize,
    },
    /// Arrive mbarrier `bar` once.
    MbarArrive {
        /// mbarrier index.
        bar: usize,
    },
    /// Wait for the next phase of mbarrier `bar` to complete. Each waiter
    /// tracks its own phase token, matching Hopper's phased mbarriers.
    MbarWait {
        /// mbarrier index.
        bar: usize,
    },
    /// Asynchronous Tensor Core matrix-multiply-accumulate:
    /// `acc (+)= a @ b` (or `a @ bᵀ`). Completion is observed with
    /// [`Instr::WgmmaWait`].
    Wgmma {
        /// Left operand (shared or register).
        a: Slice,
        /// Right operand (shared).
        b: Slice,
        /// Accumulator fragment (register).
        acc: Slice,
        /// `false` overwrites the accumulator, `true` accumulates.
        accumulate: bool,
        /// Multiply by `bᵀ` instead of `b` (used by attention's `Q Kᵀ`).
        transpose_b: bool,
    },
    /// Block until at most `pending` WGMMA operations issued by this role
    /// remain outstanding (`wgmma.wait_group.sync.aligned N`).
    WgmmaWait {
        /// Maximum outstanding operations after the wait.
        pending: usize,
    },
    /// Bulk SIMT operation executed synchronously by the role.
    Simt(SimtOp),
    /// Named-barrier arrive-and-wait across `parties` roles of the CTA
    /// (`bar.sync id, count` in PTX).
    NamedBarrier {
        /// Barrier name.
        id: usize,
        /// Number of participating roles.
        parties: usize,
    },
    /// CTA-wide barrier across every role (`__syncthreads`).
    Syncthreads,
    /// Counted loop binding variable `var` to `0..count`.
    Loop {
        /// Loop-variable id, unique within the kernel.
        var: usize,
        /// Trip count; must be launch-constant (no loop variables).
        count: Expr,
        /// Loop body.
        body: Vec<Instr>,
    },
    /// Two-way branch on a launch/loop-constant condition.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken when `cond` holds.
        then_: Vec<Instr>,
        /// Taken otherwise.
        else_: Vec<Instr>,
    },
}

/// Constructors for the variants the kernel emitters build (the Cypress
/// code generator and the hand-scheduled baselines), so a device program
/// reads as a list of operations rather than of struct literals. Each
/// builds exactly the variant it is named after; anything rarer — an
/// overwriting `wgmma`, a two-armed branch, a loop with a computed trip
/// count — is still written as the variant itself.
impl Instr {
    /// [`Instr::TmaLoad`] of `src` into `dst`, arriving mbarrier `bar`.
    #[must_use]
    pub fn tma_load(src: Slice, dst: Slice, bar: usize) -> Self {
        Instr::TmaLoad { src, dst, bar }
    }

    /// [`Instr::CpAsyncLoad`] of `src` into `dst`, arriving mbarrier `bar`.
    #[must_use]
    pub fn cp_async_load(src: Slice, dst: Slice, bar: usize) -> Self {
        Instr::CpAsyncLoad { src, dst, bar }
    }

    /// [`Instr::TmaStore`] of `src` into `dst`.
    #[must_use]
    pub fn tma_store(src: Slice, dst: Slice) -> Self {
        Instr::TmaStore { src, dst }
    }

    /// [`Instr::MbarArrive`] on `bar`.
    #[must_use]
    pub fn mbar_arrive(bar: usize) -> Self {
        Instr::MbarArrive { bar }
    }

    /// [`Instr::MbarWait`] on `bar`.
    #[must_use]
    pub fn mbar_wait(bar: usize) -> Self {
        Instr::MbarWait { bar }
    }

    /// Accumulating [`Instr::Wgmma`]: `acc += a @ b`.
    #[must_use]
    pub fn wgmma(a: Slice, b: Slice, acc: Slice) -> Self {
        Instr::Wgmma {
            a,
            b,
            acc,
            accumulate: true,
            transpose_b: false,
        }
    }

    /// Accumulating [`Instr::Wgmma`] against the transpose: `acc += a @ bᵀ`.
    #[must_use]
    pub fn wgmma_bt(a: Slice, b: Slice, acc: Slice) -> Self {
        Instr::Wgmma {
            a,
            b,
            acc,
            accumulate: true,
            transpose_b: true,
        }
    }

    /// One-armed [`Instr::If`]: run `then` when `cond` holds.
    #[must_use]
    pub fn when(cond: Cond, then: Vec<Instr>) -> Self {
        Instr::If {
            cond,
            then_: then,
            else_: vec![],
        }
    }

    /// [`Instr::Loop`] running `body` with `var` bound to `0..trips`.
    #[must_use]
    pub fn repeat(var: usize, trips: i64, body: Vec<Instr>) -> Self {
        Instr::Loop {
            var,
            count: Expr::lit(trips),
            body,
        }
    }

    /// [`SimtOp::Fill`]: `dst = value`.
    #[must_use]
    pub fn fill(dst: Slice, value: f32) -> Self {
        Instr::Simt(SimtOp::Fill { dst, value })
    }

    /// [`SimtOp::Copy`]: `dst = src`.
    #[must_use]
    pub fn copy(src: Slice, dst: Slice) -> Self {
        Instr::Simt(SimtOp::Copy { src, dst })
    }

    /// [`SimtOp::Map`]: `dst = op(src)`.
    #[must_use]
    pub fn map(op: UnOp, src: Slice, dst: Slice) -> Self {
        Instr::Simt(SimtOp::Map { op, src, dst })
    }

    /// [`SimtOp::Zip`]: `dst = op(a, b)`.
    #[must_use]
    pub fn zip(op: BinOp, a: Slice, b: Slice, dst: Slice) -> Self {
        Instr::Simt(SimtOp::Zip { op, a, b, dst })
    }

    /// [`SimtOp::RowZip`]: `dst = op(src, row)` with the column vector
    /// `row` broadcast across `src`'s columns.
    #[must_use]
    pub fn row_zip(op: BinOp, src: Slice, row: Slice, dst: Slice) -> Self {
        Instr::Simt(SimtOp::RowZip { op, src, row, dst })
    }

    /// Running [`SimtOp::RowReduce`]: fold each row of `src` *and* the old
    /// `dst` into `dst`.
    #[must_use]
    pub fn row_reduce(op: RedOp, src: Slice, dst: Slice) -> Self {
        Instr::Simt(SimtOp::RowReduce {
            op,
            src,
            dst,
            include_dst: true,
        })
    }
}

/// Bulk SIMT math on slices, executed by a whole warpgroup.
///
/// Operations are expressed at fragment granularity: the functional
/// simulator computes on whole warpgroup fragments, never per thread, so
/// one operation stands for what all 128 threads of the warpgroup do. Row
/// vectors for broadcast/reduce operands have extent `rows × 1`.
#[derive(Debug, Clone, PartialEq)]
pub enum SimtOp {
    /// `dst[i,j] = value`.
    Fill {
        /// Destination.
        dst: Slice,
        /// Fill value.
        value: f32,
    },
    /// `dst = src`, element-wise between any two spaces.
    Copy {
        /// Source.
        src: Slice,
        /// Destination.
        dst: Slice,
    },
    /// `dst[i,j] = op(src[i,j])`.
    Map {
        /// Point-wise operator.
        op: UnOp,
        /// Source.
        src: Slice,
        /// Destination.
        dst: Slice,
    },
    /// `dst[i,j] = op(a[i,j], b[i,j])`.
    Zip {
        /// Point-wise operator.
        op: BinOp,
        /// Left operand.
        a: Slice,
        /// Right operand.
        b: Slice,
        /// Destination.
        dst: Slice,
    },
    /// `dst[i,0] = reduce(op, src[i,:])`, optionally folding the previous
    /// `dst` into the reduction (running row statistics in attention).
    RowReduce {
        /// Reduction operator.
        op: RedOp,
        /// Source matrix.
        src: Slice,
        /// Destination column vector (`rows × 1`).
        dst: Slice,
        /// Include the old `dst` as an additional reduction input.
        include_dst: bool,
    },
    /// `dst[i,j] = op(src[i,j], row[i,0])` — broadcast a column vector
    /// across the rows of a matrix.
    RowZip {
        /// Point-wise operator.
        op: BinOp,
        /// Source matrix.
        src: Slice,
        /// Broadcast column vector (`rows × 1`).
        row: Slice,
        /// Destination.
        dst: Slice,
    },
}

/// Structural: the fill value hashes by its bits.
impl Hash for SimtOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            SimtOp::Fill { dst, value } => (dst, value.to_bits()).hash(state),
            SimtOp::Copy { src, dst } => (src, dst).hash(state),
            SimtOp::Map { op, src, dst } => (op, src, dst).hash(state),
            SimtOp::Zip { op, a, b, dst } => (op, a, b, dst).hash(state),
            SimtOp::RowReduce {
                op,
                src,
                dst,
                include_dst,
            } => (op, src, dst, include_dst).hash(state),
            SimtOp::RowZip { op, src, row, dst } => (op, src, row, dst).hash(state),
        }
    }
}

impl SimtOp {
    /// Destination slice of the operation.
    #[must_use]
    pub(crate) fn dst(&self) -> &Slice {
        match self {
            SimtOp::Fill { dst, .. }
            | SimtOp::Copy { dst, .. }
            | SimtOp::Map { dst, .. }
            | SimtOp::Zip { dst, .. }
            | SimtOp::RowReduce { dst, .. }
            | SimtOp::RowZip { dst, .. } => dst,
        }
    }

    /// All slices the operation reads.
    #[must_use]
    pub(crate) fn sources(&self) -> Vec<&Slice> {
        match self {
            SimtOp::Fill { .. } => vec![],
            SimtOp::Copy { src, .. } | SimtOp::Map { src, .. } => vec![src],
            SimtOp::Zip { a, b, .. } => vec![a, b],
            SimtOp::RowReduce { src, .. } => vec![src],
            SimtOp::RowZip { src, row, .. } => vec![src, row],
        }
    }

    /// `true` if the operation uses the special-function units (exp).
    #[must_use]
    pub(crate) fn uses_sfu(&self) -> bool {
        matches!(
            self,
            SimtOp::Map {
                op: UnOp::Exp | UnOp::Recip,
                ..
            }
        )
    }
}

/// Point-wise unary operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnOp {
    /// `exp(x)` (SFU).
    Exp,
    /// `1/x` (SFU).
    Recip,
    /// `x * c`.
    Scale(f32),
    /// `-x`.
    Neg,
}

/// Structural: the scale factor hashes by its bits.
impl Hash for UnOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        if let UnOp::Scale(c) = self {
            c.to_bits().hash(state);
        }
    }
}

impl UnOp {
    /// Apply to one element.
    #[must_use]
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            UnOp::Exp => x.exp(),
            UnOp::Recip => 1.0 / x,
            UnOp::Scale(c) => x * c,
            UnOp::Neg => -x,
        }
    }
}

/// Point-wise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Sum.
    Add,
    /// Difference.
    Sub,
    /// Product.
    Mul,
    /// Quotient.
    Div,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Apply to one pair of elements.
    #[must_use]
    pub(crate) fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => a.max(b),
        }
    }
}

/// Row-reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// Sum of the row.
    Sum,
    /// Maximum of the row.
    Max,
}

impl RedOp {
    /// Identity element of the reduction.
    #[must_use]
    pub(crate) fn identity(self) -> f32 {
        match self {
            RedOp::Sum => 0.0,
            RedOp::Max => f32::NEG_INFINITY,
        }
    }

    /// Combine two partial results.
    #[must_use]
    pub(crate) fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            RedOp::Sum => a + b,
            RedOp::Max => a.max(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_apply() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Mul.apply(3.0, 2.0), 6.0);
        assert_eq!(UnOp::Scale(2.0).apply(4.0), 8.0);
        assert_eq!(UnOp::Neg.apply(4.0), -4.0);
        assert!((UnOp::Exp.apply(0.0) - 1.0).abs() < 1e-6);
        assert_eq!(UnOp::Recip.apply(4.0), 0.25);
        assert_eq!(RedOp::Sum.identity(), 0.0);
        assert_eq!(RedOp::Max.identity(), f32::NEG_INFINITY);
        assert_eq!(RedOp::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(RedOp::Sum.apply(1.0, 2.0), 3.0);
    }

    #[test]
    fn simt_op_slices() {
        let op = SimtOp::Zip {
            op: BinOp::Add,
            a: Slice::frag(0).extent(4, 4),
            b: Slice::frag(1).extent(4, 4),
            dst: Slice::frag(2).extent(4, 4),
        };
        assert_eq!(op.sources().len(), 2);
        assert_eq!((op.dst().rows, op.dst().cols), (4, 4));
        assert!(!op.uses_sfu());
        let e = SimtOp::Map {
            op: UnOp::Exp,
            src: Slice::frag(0).extent(1, 1),
            dst: Slice::frag(0).extent(1, 1),
        };
        assert!(e.uses_sfu());
    }
}
