//! The paper's two partitioning operators: `blocks` and `mma` (§3.2, Fig. 4).
//!
//! Both produce a [`Partition`]: an indexed family of [`TensorView`]s over a
//! parent tensor. `blocks` tiles a tensor into equally-sized boxes. `mma`
//! reproduces the data distributions the Hopper Tensor Core mandates for its
//! operands — 16-row groups per warp and the per-thread column swizzle of
//! Fig. 4 for the accumulator, and collective (replicated) access for the
//! shared-memory `B` operand.

use crate::error::TensorError;
use crate::view::TensorView;
use std::fmt;

/// An indexed family of sub-tensor views produced by a partitioning operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    grid: Vec<usize>,
    pieces: Vec<TensorView>,
    parent_shape: Vec<usize>,
    kind: PartitionKind,
}

/// Which operator produced a partition (paper Fig. 3: `pk ::= blocks | mma`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Tiling partition.
    Blocks,
    /// Tensor-Core-mandated partition.
    Mma,
}

impl Partition {
    /// The partition's index-space extents (e.g. `[4, 2]` for a 4×2 tiling).
    #[must_use]
    pub fn grid(&self) -> &[usize] {
        &self.grid
    }

    /// Shape of the partitioned parent tensor.
    #[must_use]
    pub fn parent_shape(&self) -> &[usize] {
        &self.parent_shape
    }

    /// The operator that created this partition.
    #[must_use]
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }

    /// Total number of pieces.
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// The piece at a multi-dimensional partition index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for indices outside the
    /// grid and [`TensorError::RankMismatch`] on rank disagreement.
    pub fn piece(&self, index: &[usize]) -> Result<&TensorView, TensorError> {
        if index.len() != self.grid.len() {
            return Err(TensorError::RankMismatch {
                expected: self.grid.len(),
                actual: index.len(),
            });
        }
        let mut lin = 0usize;
        for (i, g) in index.iter().zip(self.grid.iter()) {
            if i >= g {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    bounds: self.grid.clone(),
                });
            }
            lin = lin * g + i;
        }
        Ok(&self.pieces[lin])
    }

    /// The piece at a linearized (row-major) partition index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` exceeds
    /// [`Partition::num_pieces`].
    pub fn piece_linear(&self, index: usize) -> Result<&TensorView, TensorError> {
        self.pieces
            .get(index)
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: vec![index],
                bounds: vec![self.pieces.len()],
            })
    }

    /// Iterate over the pieces in linearized order.
    pub fn iter(&self) -> impl Iterator<Item = &TensorView> {
        self.pieces.iter()
    }

    /// `true` if every parent element is covered by at most one piece
    /// (writes through this partition cannot race). Replicated `B`-operand
    /// MMA partitions are *not* disjoint — they are read-only by contract.
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        let total: usize = self.parent_shape.iter().product();
        let mut seen = vec![false; total];
        for p in &self.pieces {
            for (_, pc) in p.iter_coords() {
                let mut lin = 0usize;
                for (c, s) in pc.iter().zip(self.parent_shape.iter()) {
                    lin = lin * s + c;
                }
                if seen[lin] {
                    return false;
                }
                seen[lin] = true;
            }
        }
        true
    }

    /// `true` if every parent element is covered by at least one piece.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        let total: usize = self.parent_shape.iter().product();
        let mut seen = vec![false; total];
        for p in &self.pieces {
            for (_, pc) in p.iter_coords() {
                let mut lin = 0usize;
                for (c, s) in pc.iter().zip(self.parent_shape.iter()) {
                    lin = lin * s + c;
                }
                seen[lin] = true;
            }
        }
        seen.iter().all(|&b| b)
    }
}

/// Tile `shape` into boxes of `tile` (`partition_by_blocks` in the paper).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] when ranks differ and
/// [`TensorError::IndivisibleTiling`] when a tile extent does not divide the
/// corresponding tensor extent. The paper's kernels use `cdiv` and divisible
/// problem sizes; partial tiles are intentionally rejected rather than
/// silently padded.
///
/// # Example
///
/// ```
/// use cypress_tensor::partition::blocks;
///
/// let p = blocks(&[128, 256], &[64, 64])?;
/// assert_eq!(p.grid(), &[2, 4]);
/// assert_eq!(p.piece(&[1, 3])?.to_parent(&[0, 0])?, vec![64, 192]);
/// # Ok::<(), cypress_tensor::TensorError>(())
/// ```
pub fn blocks(shape: &[usize], tile: &[usize]) -> Result<Partition, TensorError> {
    if shape.len() != tile.len() {
        return Err(TensorError::RankMismatch {
            expected: shape.len(),
            actual: tile.len(),
        });
    }
    if tile.contains(&0) {
        return Err(TensorError::InvalidShape {
            shape: tile.to_vec(),
        });
    }
    for (s, t) in shape.iter().zip(tile.iter()) {
        if s % t != 0 {
            return Err(TensorError::IndivisibleTiling {
                shape: shape.to_vec(),
                tile: tile.to_vec(),
            });
        }
    }
    let grid: Vec<usize> = shape.iter().zip(tile.iter()).map(|(s, t)| s / t).collect();
    let mut pieces = Vec::with_capacity(grid.iter().product());
    let mut idx = vec![0usize; grid.len()];
    loop {
        let offset: Vec<usize> = idx.iter().zip(tile.iter()).map(|(i, t)| i * t).collect();
        pieces.push(TensorView::affine(tile.to_vec(), offset));
        // Odometer advance.
        let mut d = grid.len();
        loop {
            if d == 0 {
                return Ok(Partition {
                    grid,
                    pieces,
                    parent_shape: shape.to_vec(),
                    kind: PartitionKind::Blocks,
                });
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < grid[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// A Hopper warpgroup MMA instruction shape (`wgmma.mma_async.m64nNk16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MmaInstr {
    m: usize,
    n: usize,
    k: usize,
}

impl MmaInstr {
    /// The `m64nNk16` WGMMA family; `n` must be a multiple of 8 up to 256
    /// (the PTX-architected set).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnsupportedMmaShape`] for unsupported `n`.
    pub fn wgmma(n: usize) -> Result<Self, TensorError> {
        if n == 0 || !n.is_multiple_of(8) || n > 256 {
            return Err(TensorError::UnsupportedMmaShape {
                shape: vec![64, n, 16],
                requirement: "wgmma n must be a positive multiple of 8, at most 256",
            });
        }
        Ok(MmaInstr { m: 64, n, k: 16 })
    }

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
    pub fn m(self) -> usize {
        self.m
    }

    /// Columns of the accumulator.
    #[must_use]
    pub fn n(self) -> usize {
        self.n
    }

    /// Reduction depth of one instruction.
    #[must_use]
    pub fn k(self) -> usize {
        self.k
    }

    /// FLOPs performed by one instruction (2·m·n·k).
    #[must_use]
    pub fn flops(self) -> usize {
        2 * self.m * self.n * self.k
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

/// The shape rules of `partition_by_mma`, without building the
/// partition: succeeds exactly when [`mma`] would, and fails with the
/// error [`mma`] would return. This is the one definition of the rules —
/// [`mma`] calls it first — for callers that only need the verdict (the
/// compiler's dependence analysis records an MMA partition by its piece
/// shape and never looks at the per-lane gather tables).
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

/// `partition_by_mma`: the Tensor-Core-mandated partition of an operand.
///
/// For operands `A` and `C` at [`MmaLevel::Warp`], rows are split into four
/// 16-row groups (the colouring of Fig. 4). At [`MmaLevel::Thread`], each of
/// the 32 lanes receives the swizzled gather of Fig. 4: for lane `l`, rows
/// `{l/4, l/4 + 8}` of the 16-row group and column pairs `2·(l mod 4) + 8k`
/// for every group `k` of 8 columns, replicated across the instruction's
/// column extent. Operand `B` lives in shared memory and is accessed
/// collectively by the whole warpgroup, so its "partition" is replication.
///
/// # Errors
///
/// Whatever [`check_mma_shape`] rejects (e.g. `A`/`C` rows not equal to
/// 16·pieces at warp level, columns not a multiple of 8 at thread level).
pub fn mma(
    shape: &[usize],
    instr: MmaInstr,
    level: MmaLevel,
    operand: MmaOperand,
) -> Result<Partition, TensorError> {
    check_mma_shape(shape, instr, level, operand)?;
    let cols = shape[1];
    let (grid, pieces) = match (level, operand) {
        (MmaLevel::Warp, MmaOperand::A | MmaOperand::C) => {
            // Four 16-row groups per 64-row instruction block.
            let group = instr.m() / 4;
            let pieces = (0..4)
                .map(|w| TensorView::affine(vec![group, cols], vec![w * group, 0]))
                .collect();
            (4, pieces)
        }
        (MmaLevel::Thread, MmaOperand::A | MmaOperand::C) => {
            // Fig. 4: lane l of the warp holds rows {l/4, l/4+8} and columns
            // {2(l%4)+8k, 2(l%4)+8k+1} for k in 0..cols/8. Compacted shape is
            // [2, cols/4]: (row-group, column) in thread-local order.
            let mut pieces = Vec::with_capacity(32);
            for lane in 0..32usize {
                let r0 = lane / 4;
                let cbase = 2 * (lane % 4);
                let mut table = Vec::with_capacity(2 * cols / 4);
                for rg in 0..2usize {
                    for k in 0..cols / 8 {
                        for j in 0..2usize {
                            table.push(vec![r0 + 8 * rg, cbase + 8 * k + j]);
                        }
                    }
                }
                pieces.push(TensorView::gather(vec![2, cols / 4], table));
            }
            (32, pieces)
        }
        (level, MmaOperand::B) => {
            // B stays in shared memory; every warp (or lane) sees all of it.
            let n = match level {
                MmaLevel::Warp => 4,
                MmaLevel::Thread => 32,
            };
            let pieces = (0..n)
                .map(|_| TensorView::identity(shape.to_vec()))
                .collect();
            (n, pieces)
        }
    };
    Ok(Partition {
        grid: vec![grid],
        pieces,
        parent_shape: shape.to_vec(),
        kind: PartitionKind::Mma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_grid_and_offsets() {
        let p = blocks(&[128, 256], &[64, 64]).unwrap();
        assert_eq!(p.grid(), &[2, 4]);
        assert_eq!(p.num_pieces(), 8);
        assert_eq!(
            p.piece(&[1, 3]).unwrap().to_parent(&[0, 0]).unwrap(),
            vec![64, 192]
        );
        assert!(p.is_disjoint());
        assert!(p.is_complete());
    }

    #[test]
    fn blocks_rejects_indivisible() {
        assert!(matches!(
            blocks(&[100, 100], &[64, 64]),
            Err(TensorError::IndivisibleTiling { .. })
        ));
        assert!(blocks(&[4], &[2, 2]).is_err());
        assert!(blocks(&[4], &[0]).is_err());
    }

    #[test]
    fn blocks_piece_bounds_checked() {
        let p = blocks(&[4, 4], &[2, 2]).unwrap();
        assert!(p.piece(&[2, 0]).is_err());
        assert!(p.piece(&[0]).is_err());
        assert!(p.piece_linear(4).is_err());
    }

    #[test]
    fn warp_level_c_is_16_row_groups() {
        let instr = MmaInstr::wgmma_64x256x16();
        let p = mma(&[64, 256], instr, MmaLevel::Warp, MmaOperand::C).unwrap();
        assert_eq!(p.num_pieces(), 4);
        assert_eq!(
            p.piece(&[2]).unwrap().to_parent(&[0, 0]).unwrap(),
            vec![32, 0]
        );
        assert!(p.is_disjoint());
        assert!(p.is_complete());
    }

    #[test]
    fn thread_level_swizzle_matches_figure_4() {
        // Fig. 4 (first warp, rows 0..8 block): thread 0 holds (0,0),(0,1);
        // thread 1 holds (0,2),(0,3); thread 3 holds (0,6),(0,7); thread 4
        // holds (1,0),(1,1); thread 28 holds (7,0),(7,1). The pattern
        // repeats at column 8 and at row 8.
        let instr = MmaInstr::wgmma(8).unwrap();
        let p = mma(&[16, 8], instr, MmaLevel::Thread, MmaOperand::C).unwrap();
        assert_eq!(p.num_pieces(), 32);
        let t0 = p.piece(&[0]).unwrap();
        assert_eq!(t0.to_parent(&[0, 0]).unwrap(), vec![0, 0]);
        assert_eq!(t0.to_parent(&[0, 1]).unwrap(), vec![0, 1]);
        assert_eq!(t0.to_parent(&[1, 0]).unwrap(), vec![8, 0]);
        let t1 = p.piece(&[1]).unwrap();
        assert_eq!(t1.to_parent(&[0, 0]).unwrap(), vec![0, 2]);
        let t28 = p.piece(&[28]).unwrap();
        assert_eq!(t28.to_parent(&[0, 0]).unwrap(), vec![7, 0]);
        assert!(p.is_disjoint());
        assert!(p.is_complete());
    }

    #[test]
    fn thread_level_swizzle_wide_accumulator() {
        // With n=256 each lane holds 2*64 = 128 elements — exactly the
        // register budget the paper describes for a 64x256 f32 accumulator.
        let instr = MmaInstr::wgmma_64x256x16();
        let p = mma(&[16, 256], instr, MmaLevel::Thread, MmaOperand::C).unwrap();
        for lane in 0..32 {
            assert_eq!(p.piece(&[lane]).unwrap().num_elements(), 128);
        }
        assert!(p.is_disjoint());
        assert!(p.is_complete());
    }

    #[test]
    fn b_operand_is_replicated() {
        let instr = MmaInstr::wgmma_64x256x16();
        let p = mma(&[64, 256], instr, MmaLevel::Warp, MmaOperand::B).unwrap();
        assert_eq!(p.num_pieces(), 4);
        assert!(!p.is_disjoint());
        assert!(p.is_complete());
        for piece in p.iter() {
            assert_eq!(piece.shape(), &[64, 256]);
        }
    }

    #[test]
    fn mma_shape_validation() {
        let instr = MmaInstr::wgmma_64x256x16();
        assert!(mma(&[63, 256], instr, MmaLevel::Warp, MmaOperand::C).is_err());
        assert!(mma(&[64], instr, MmaLevel::Warp, MmaOperand::C).is_err());
        assert!(mma(&[17, 8], instr, MmaLevel::Thread, MmaOperand::C).is_err());
        assert!(mma(&[16, 9], instr, MmaLevel::Thread, MmaOperand::C).is_err());
        assert!(mma(&[15, 8], instr, MmaLevel::Warp, MmaOperand::B).is_err());
    }

    #[test]
    fn shape_check_agrees_with_mma_on_every_verdict() {
        let levels = [MmaLevel::Warp, MmaLevel::Thread];
        let operands = [MmaOperand::A, MmaOperand::B, MmaOperand::C];
        for instr in [MmaInstr::wgmma(8).unwrap(), MmaInstr::wgmma_64x256x16()] {
            for (level, operand) in levels.iter().flat_map(|l| operands.map(|o| (*l, o))) {
                let agree = |shape: &[usize]| {
                    assert_eq!(
                        check_mma_shape(shape, instr, level, operand),
                        mma(shape, instr, level, operand).map(drop),
                        "{shape:?} {instr} {level:?} {operand:?}"
                    );
                };
                for rows in 0..=66 {
                    for cols in 0..=33 {
                        agree(&[rows, cols]);
                    }
                }
                agree(&[64, 256]);
                agree(&[16, 256]);
                agree(&[]);
                agree(&[64]);
                agree(&[64, 64, 64]);
            }
        }
        // Both verdicts occur, so the comparison above is not vacuous.
        let instr = MmaInstr::wgmma_64x256x16();
        assert!(check_mma_shape(&[16, 32], instr, MmaLevel::Thread, MmaOperand::A).is_ok());
        assert!(check_mma_shape(&[16, 33], instr, MmaLevel::Thread, MmaOperand::A).is_err());
    }

    #[test]
    fn wgmma_instruction_family() {
        assert!(MmaInstr::wgmma(0).is_err());
        assert!(MmaInstr::wgmma(12).is_err());
        assert!(MmaInstr::wgmma(264).is_err());
        let i = MmaInstr::wgmma(128).unwrap();
        assert_eq!(i.flops(), 2 * 64 * 128 * 16);
        assert_eq!(MmaInstr::wgmma_64x256x16().to_string(), "wgmma.m64n256k16");
    }
}
