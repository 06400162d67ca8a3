//! Property-based tests of the emulated `f16` conversions, of the
//! row-major layout `Tensor` addresses its data with, and of the MMA shape
//! rules.

use cypress_tensor::partition::{MmaLevel, MmaOperand};
use cypress_tensor::{check_mma_shape, f16, DType, MmaInstr, Tensor, TensorError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Shapes of rank 1–4 with extents 1–5.
struct Shapes;

impl Strategy for Shapes {
    type Value = Vec<usize>;
    fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let rank = rng.gen_range(1..5);
        (0..rank).map(|_| rng.gen_range(1..6)).collect()
    }
}

/// Every coordinate of `shape`, in row-major order.
fn row_major_coords(shape: &[usize]) -> Vec<Vec<usize>> {
    let n: usize = shape.iter().product();
    let mut coord = vec![0; shape.len()];
    let mut coords = Vec::with_capacity(n);
    for _ in 0..n {
        coords.push(coord.clone());
        // Odometer step to the next row-major coordinate.
        for d in (0..shape.len()).rev() {
            coord[d] = (coord[d] + 1) % shape[d];
            if coord[d] != 0 {
                break;
            }
        }
    }
    coords
}

/// A tensor of `shape` whose element `i` (row-major) holds `i`.
fn iota(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_data(DType::F32, shape, (0..n).map(|i| i as f32).collect()).unwrap()
}

proptest! {
    /// Every f32 that is exactly a half value round-trips bit-exactly.
    #[test]
    fn f16_round_trip_is_identity_on_halfs(bits in 0u16..0x7C00u16) {
        let h = f16::from_bits(bits);
        let back = f16::from_f32(h.to_f32());
        prop_assert_eq!(back.to_bits(), bits);
    }

    /// Conversion is monotone on positive finite values.
    #[test]
    fn f16_conversion_is_monotone(a in 0.0f32..60000.0, b in 0.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f16::from_f32(lo).to_f32() <= f16::from_f32(hi).to_f32());
    }

    /// Rounding error is within half a ULP of the binary16 format.
    #[test]
    fn f16_error_is_bounded(x in -60000.0f32..60000.0) {
        let h = f16::from_f32(x).to_f32();
        prop_assert!((h - x).abs() <= x.abs() * 0.001 + 6e-8, "{} -> {}", x, h);
    }

    /// `get` over every coordinate of a matrix reads every element of its
    /// data exactly once.
    #[test]
    fn layout_is_bijective(r in 1usize..12, c in 1usize..12) {
        let t = iota(&[r, c]);
        let mut seen = vec![false; r * c];
        for i in 0..r {
            for j in 0..c {
                let o = t.get(&[i, j]).unwrap() as usize;
                prop_assert!(!seen[o]);
                seen[o] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The `i`-th coordinate in row-major order reads element `i`.
    #[test]
    fn iter_coords_row_major(shape in Shapes) {
        let t = iota(&shape);
        for (i, coord) in row_major_coords(&shape).iter().enumerate() {
            prop_assert_eq!(t.get(coord), Ok(i as f32), "{:?}", coord);
        }
    }

    /// `set` at every coordinate touches every element exactly once.
    #[test]
    fn offsets_cover_dense_range_exactly_once(shape in Shapes) {
        let mut t = Tensor::zeros(DType::F32, &shape);
        for coord in row_major_coords(&shape) {
            let seen = t.get(&coord).unwrap();
            t.set(&coord, seen + 1.0).unwrap();
        }
        prop_assert!(t.data().iter().all(|&x| x == 1.0));
    }

    /// Past the end of any dimension, or of the wrong rank: a typed error,
    /// and nothing written.
    #[test]
    fn out_of_bounds_is_error(shape in Shapes) {
        let rank = shape.len();
        let mut t = iota(&shape);
        for d in 0..rank {
            let mut past = vec![0; rank];
            past[d] = shape[d];
            let (index, bounds) = (past.clone(), shape.clone());
            let oob = Err(TensorError::IndexOutOfBounds { index, bounds });
            prop_assert_eq!(t.get(&past), oob.clone());
            prop_assert_eq!(t.set(&past, -1.0), oob.map(drop));
        }
        for actual in [rank - 1, rank + 1] {
            let wrong = Err(TensorError::RankMismatch { expected: rank, actual });
            prop_assert_eq!(t.get(&vec![0; actual]), wrong.clone());
            prop_assert_eq!(t.set(&vec![0; actual], -1.0), wrong.map(drop));
        }
        prop_assert_eq!(t, iota(&shape), "a failed write wrote");
    }
}

#[test]
fn row_major_strides() {
    let t = iota(&[2, 3, 4]);
    assert_eq!(t.num_elements(), 24);
    for i in 0..2 {
        for j in 0..3 {
            for k in 0..4 {
                let off = 12 * i + 4 * j + k;
                assert_eq!(t.get(&[i, j, k]), Ok(off as f32), "{i} {j} {k}");
            }
        }
    }
}

#[test]
fn check_mma_shape_matches_its_stated_rules_on_every_verdict() {
    use MmaLevel::{Thread, Warp};
    use MmaOperand::{A, B, C};
    let instr = MmaInstr::wgmma_64x256x16();
    // The rules as `check_mma_shape`'s rustdoc states them.
    let stated = |rows: usize, cols: usize, level, operand| match (level, operand) {
        (Warp, A | C) => rows == 64,
        (Thread, A | C) => rows == 16 && cols.is_multiple_of(8),
        (_, B) => rows.is_multiple_of(16),
    };
    let mut verdicts = [0usize; 2];
    for level in [Warp, Thread] {
        for operand in [A, B, C] {
            for rows in 0..=66 {
                for cols in 0..=33 {
                    let ok = check_mma_shape(&[rows, cols], instr, level, operand).is_ok();
                    let want = stated(rows, cols, level, operand);
                    assert_eq!(ok, want, "{rows}x{cols} {level:?} {operand:?}");
                    verdicts[usize::from(ok)] += 1;
                }
            }
        }
    }
    // Both verdicts occur, so the comparison above is not vacuous.
    assert!(verdicts.iter().all(|&v| v > 0), "{verdicts:?}");
}
