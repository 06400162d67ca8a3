//! The shape rules of the paper's `mma` partitioning operator (§3.2,
//! Fig. 4): which operand shapes the Hopper Tensor Core accepts when a
//! warpgroup's warps (16-row groups) or a warp's lanes (the per-lane
//! swizzle of Fig. 4) split `A` and the accumulator `C`, while the
//! shared-memory `B` operand is accessed collectively. The operators
//! themselves are IR statements of `cypress-core` (`Stmt::blocks` /
//! `Stmt::mma`); its dependence analysis records an MMA partition by its
//! piece shape and checks it with [`check_mma_shape`], the one definition
//! of these rules.

use crate::error::TensorError;
use std::fmt;

/// A Hopper warpgroup MMA instruction shape (`wgmma.mma_async.m64nNk16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MmaInstr {
    m: usize,
    n: usize,
    k: usize,
}

impl MmaInstr {
    /// The `m64n256k16` instruction used throughout the paper's GEMM (Fig. 5).
    #[must_use]
    pub fn wgmma_64x256x16() -> Self {
        MmaInstr {
            m: 64,
            n: 256,
            k: 16,
        }
    }

    /// Rows of the accumulator.
    #[must_use]
    pub(crate) fn m(self) -> usize {
        self.m
    }

    /// Reduction depth of one instruction.
    #[must_use]
    pub(crate) fn k(self) -> usize {
        self.k
    }
}

impl fmt::Display for MmaInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wgmma.m{}n{}k{}", self.m, self.n, self.k)
    }
}

/// Which MMA operand a tensor plays (`"A"`, `"B"`, `"C"` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmaOperand {
    /// Left operand (rows distributed like the accumulator).
    A,
    /// Right operand (shared-memory resident, accessed collectively).
    B,
    /// Accumulator / output.
    C,
}

/// Processor level an MMA partition targets (`PROC` tunable in Fig. 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmaLevel {
    /// Distribute across the 4 warps of a warpgroup (16-row groups).
    Warp,
    /// Distribute across the 32 threads of a warp (Fig. 4 swizzle).
    Thread,
}

/// The shape rules of `partition_by_mma`: `Ok` exactly when an operand of
/// `shape` can be partitioned for `instr` at `level`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `shape` is
/// two-dimensional, and [`TensorError::UnsupportedMmaShape`] if it is not
/// compatible with the instruction: warp-level `A`/`C` rows must equal the
/// instruction's `m`, thread-level `A`/`C` must be the 16-row warp group
/// with a multiple of 8 columns, and `B` rows must be a multiple of the
/// instruction's `k`.
pub fn check_mma_shape(
    shape: &[usize],
    instr: MmaInstr,
    level: MmaLevel,
    operand: MmaOperand,
) -> Result<(), TensorError> {
    let &[rows, cols] = shape else {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: shape.len(),
        });
    };
    let requirement = match (level, operand) {
        (MmaLevel::Warp, MmaOperand::A | MmaOperand::C) if rows != instr.m() => {
            "warp-level A/C rows must equal the instruction m (64)"
        }
        (MmaLevel::Thread, MmaOperand::A | MmaOperand::C) if rows != 16 => {
            "thread-level A/C rows must equal the 16-row warp group"
        }
        (MmaLevel::Thread, MmaOperand::A | MmaOperand::C) if cols % 8 != 0 => {
            "thread-level A/C columns must be a multiple of 8"
        }
        (_, MmaOperand::B) if rows % instr.k() != 0 => {
            "B rows must be a multiple of the instruction k (16)"
        }
        _ => return Ok(()),
    };
    Err(TensorError::UnsupportedMmaShape {
        shape: shape.to_vec(),
        requirement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mma_shape_validation() {
        use MmaLevel::{Thread, Warp};
        use MmaOperand::{A, B, C};
        let instr = MmaInstr::wgmma_64x256x16();
        let ok =
            |shape: &[usize], level, operand| check_mma_shape(shape, instr, level, operand).is_ok();
        // Each rule, on both sides of its boundary.
        assert!(ok(&[64, 256], Warp, C) && ok(&[64, 8], Warp, A));
        assert!(!ok(&[63, 256], Warp, C) && !ok(&[16, 256], Warp, A));
        assert!(ok(&[16, 256], Thread, C) && ok(&[16, 8], Thread, A));
        assert!(!ok(&[17, 8], Thread, C) && !ok(&[16, 9], Thread, C));
        assert!(ok(&[16, 3], Warp, B) && ok(&[256, 256], Thread, B));
        assert!(!ok(&[15, 8], Warp, B) && !ok(&[24, 8], Thread, B));
        // Warp-level columns and B columns are unconstrained.
        assert!(ok(&[64, 1], Warp, C) && ok(&[64, 7], Warp, B));
        // Rank is checked before any rule, with the typed error.
        for shape in [&[][..], &[64], &[64, 64, 64]] {
            for (level, operand) in [(Warp, A), (Warp, B), (Thread, C)] {
                assert!(matches!(
                    check_mma_shape(shape, instr, level, operand),
                    Err(TensorError::RankMismatch { expected: 2, .. })
                ));
            }
        }
        // A rule violation names its requirement.
        match check_mma_shape(&[16, 33], instr, Thread, A) {
            Err(TensorError::UnsupportedMmaShape { shape, requirement }) => {
                assert_eq!(shape, vec![16, 33]);
                assert!(requirement.contains("multiple of 8"), "{requirement}");
            }
            other => panic!("expected UnsupportedMmaShape, got {other:?}"),
        }
    }

    #[test]
    fn wgmma_instruction_family() {
        let i = MmaInstr::wgmma_64x256x16();
        assert_eq!((i.m, i.n, i.k), (64, 256, 16));
        assert_eq!(i.to_string(), "wgmma.m64n256k16");
    }
}
