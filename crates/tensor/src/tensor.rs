//! Owned dense tensors and host-side reference operations.
//!
//! Storage is always `f32`; writes are quantized through the tensor's
//! [`DType`], which reproduces the numerics of a GPU kernel that stores
//! half-precision results (FP16 operands, FP32 accumulators). The reference
//! operations here (matmul, softmax, attention) are the *oracles* the test
//! suite checks simulated kernels against.

use crate::dtype::DType;
use crate::error::TensorError;
use rand::Rng;
use std::sync::Arc;

/// An owned dense tensor, stored row-major.
///
/// Storage is shared and copy-on-write: [`Clone`] is O(1) (it bumps a
/// reference count), and the first write to a tensor whose storage is
/// shared — through [`Tensor::set`] or [`Tensor::data_mut`] — copies it
/// once, so no clone ever observes another's writes.
///
/// # Example
///
/// ```
/// use cypress_tensor::{Tensor, DType};
///
/// let mut t = Tensor::zeros(DType::F32, &[2, 2]);
/// t.set(&[0, 1], 3.5)?;
/// assert_eq!(t.get(&[0, 1])?, 3.5);
/// # Ok::<(), cypress_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    dtype: DType,
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// A zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or has a zero extent; tensors are always
    /// non-degenerate in Cypress programs.
    #[must_use]
    pub fn zeros(dtype: DType, shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.iter().all(|&s| s > 0),
            "degenerate shape {shape:?}"
        );
        Tensor {
            dtype,
            shape: shape.to_vec(),
            data: Arc::new(vec![0.0; shape.iter().product()]),
        }
    }

    /// A tensor filled with `value` (quantized to `dtype`).
    #[must_use]
    pub fn full(dtype: DType, shape: &[usize], value: f32) -> Self {
        let mut t = Tensor::zeros(dtype, shape);
        let q = dtype.quantize(value);
        t.data_mut().fill(q);
        t
    }

    /// A tensor with i.i.d. uniform values in `[lo, hi)`, quantized.
    ///
    /// The evaluation draws operands "from the same random distribution ...
    /// across systems to normalize the effects of power throttling" (§5.1);
    /// benchmarks use this constructor with a fixed seed.
    #[must_use]
    pub fn random<R: Rng>(dtype: DType, shape: &[usize], rng: &mut R, lo: f32, hi: f32) -> Self {
        let mut t = Tensor::zeros(dtype, shape);
        for v in t.data_mut() {
            *v = dtype.quantize(rng.gen_range(lo..hi));
        }
        t
    }

    /// Build from explicit data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from the
    /// number of elements `shape` implies.
    pub fn from_data(dtype: DType, shape: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.iter().product::<usize>() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                actual: vec![data.len()],
            });
        }
        let data = data.into_iter().map(|x| dtype.quantize(x)).collect();
        Ok(Tensor {
            dtype,
            shape: shape.to_vec(),
            data: Arc::new(data),
        })
    }

    /// Consume the tensor, yielding its row-major storage. The inverse of
    /// [`Tensor::from_data`]; lets buffer pools recycle storage without a
    /// copy when the storage is unshared. A tensor whose storage a clone
    /// still shares yields a copy, and the clone is left intact.
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// The element type.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The logical shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Size in (simulated) device memory.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.num_elements() * self.dtype.size_bytes()
    }

    /// Read one element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `coord` has the wrong rank
    /// and [`TensorError::IndexOutOfBounds`] if a coordinate exceeds its
    /// extent.
    pub fn get(&self, coord: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.offset(coord)?])
    }

    /// Write one element (quantized).
    ///
    /// # Errors
    ///
    /// As [`Tensor::get`].
    pub fn set(&mut self, coord: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.offset(coord)?;
        let q = self.dtype.quantize(value);
        self.data_mut()[off] = q;
        Ok(())
    }

    /// Row-major element offset of `coord`.
    fn offset(&self, coord: &[usize]) -> Result<usize, TensorError> {
        if coord.len() != self.shape.len() {
            return Err(TensorError::RankMismatch {
                expected: self.shape.len(),
                actual: coord.len(),
            });
        }
        let mut off = 0;
        for (&c, &s) in coord.iter().zip(&self.shape) {
            if c >= s {
                return Err(TensorError::IndexOutOfBounds {
                    index: coord.to_vec(),
                    bounds: self.shape.clone(),
                });
            }
            off = off * s + c;
        }
        Ok(off)
    }

    /// Raw row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data. Callers are responsible for quantizing
    /// writes if they bypass [`Tensor::set`]; the simulator does so at its
    /// store boundaries. Storage a clone shares is copied here first (once:
    /// the copy is this tensor's own), so the clone keeps its values.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Maximum absolute element-wise difference against `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().to_vec(),
                actual: other.shape().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Relative error versus `other` in the infinity norm, with an absolute
    /// floor to keep near-zero references stable.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn relative_error(&self, other: &Tensor) -> Result<f32, TensorError> {
        let diff = self.max_abs_diff(other)?;
        let scale = other
            .data
            .iter()
            .map(|x| x.abs())
            .fold(0.0f32, f32::max)
            .max(1e-6);
        Ok(diff / scale)
    }
}

/// Reference (host, FP32-accumulate) operations used as test oracles.
pub mod reference {
    use super::*;

    /// `C = A @ B` with FP32 accumulation; operands quantized per their dtype
    /// and the result quantized per `out_dtype`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for incompatible operand shapes
    /// or [`TensorError::RankMismatch`] for non-matrix operands.
    pub fn matmul(a: &Tensor, b: &Tensor, out_dtype: DType) -> Result<Tensor, TensorError> {
        if a.shape().len() != 2 || b.shape().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: a.shape().len().max(b.shape().len()),
            });
        }
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k, n],
                actual: vec![k2, n],
            });
        }
        let mut c = Tensor::zeros(out_dtype, &[m, n]);
        let (a, b, out) = (a.data(), b.data(), c.data_mut());
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = out_dtype.quantize(acc);
            }
        }
        Ok(c)
    }

    /// Row-wise softmax of a matrix, numerically stabilized.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix input.
    pub(super) fn softmax_rows(x: &Tensor, out_dtype: DType) -> Result<Tensor, TensorError> {
        if x.shape().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: x.shape().len(),
            });
        }
        let (m, n) = (x.shape()[0], x.shape()[1]);
        let mut out = Tensor::zeros(out_dtype, &[m, n]);
        let dst = out.data_mut();
        for i in 0..m {
            let row = &x.data()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - mx).exp();
            }
            for (j, &v) in row.iter().enumerate() {
                dst[i * n + j] = out_dtype.quantize((v - mx).exp() / denom);
            }
        }
        Ok(out)
    }

    /// Scaled-dot-product attention `softmax(Q Kᵀ / sqrt(d)) V` for one head.
    ///
    /// Shapes: `q`: `[s, d]`, `k`: `[s, d]`, `v`: `[s, d]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent operations.
    pub fn attention(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        out_dtype: DType,
    ) -> Result<Tensor, TensorError> {
        let d = q.shape()[1];
        let kt = transpose(k)?;
        let mut s = matmul(q, &kt, DType::F32)?;
        let scale = 1.0 / (d as f32).sqrt();
        for x in s.data_mut() {
            *x *= scale;
        }
        let p = softmax_rows(&s, DType::F32)?;
        matmul(&p, v, out_dtype)
    }

    /// Matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix input.
    pub fn transpose(x: &Tensor) -> Result<Tensor, TensorError> {
        if x.shape().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: x.shape().len(),
            });
        }
        let (m, n) = (x.shape()[0], x.shape()[1]);
        let mut out = Tensor::zeros(x.dtype(), &[n, m]);
        let (src, dst) = (x.data(), out.data_mut());
        for i in 0..m {
            for j in 0..n {
                dst[j * m + i] = src[i * n + j];
            }
        }
        Ok(out)
    }

    /// Row-wise sum `y(i) = Σ_k x(i, k)`, the reduction fused into the
    /// GEMM+Reduction kernel of Fig. 13d.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix input.
    pub fn row_sum(x: &Tensor, out_dtype: DType) -> Result<Tensor, TensorError> {
        if x.shape().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: x.shape().len(),
            });
        }
        let (m, n) = (x.shape()[0], x.shape()[1]);
        let mut out = Tensor::zeros(out_dtype, &[m, 1]);
        let (src, dst) = (x.data(), out.data_mut());
        for i in 0..m {
            let mut acc = 0.0f32;
            for j in 0..n {
                acc += src[i * n + j];
            }
            dst[i] = out_dtype.quantize(acc);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::reference;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(DType::F16, &[3, 3]);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(DType::F16, &[2, 2], 1.5);
        assert!(f.data().iter().all(|&x| x == 1.5));
    }

    #[test]
    fn set_quantizes_to_dtype() {
        let mut t = Tensor::zeros(DType::F16, &[1, 1]);
        t.set(&[0, 0], 1.0 + 2.0f32.powi(-13)).unwrap();
        // f16 cannot represent 1 + 2^-13; rounds to 1.0.
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
    }

    #[test]
    fn from_data_validates_length() {
        assert!(Tensor::from_data(DType::F32, &[2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_data(DType::F32, &[2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn size_bytes_accounts_for_dtype() {
        assert_eq!(Tensor::zeros(DType::F16, &[4, 4]).size_bytes(), 32);
        assert_eq!(Tensor::zeros(DType::F32, &[4, 4]).size_bytes(), 64);
    }

    #[test]
    fn matmul_identity() {
        let mut i2 = Tensor::zeros(DType::F32, &[2, 2]);
        i2.set(&[0, 0], 1.0).unwrap();
        i2.set(&[1, 1], 1.0).unwrap();
        let a = Tensor::from_data(DType::F32, &[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = reference::matmul(&a, &i2, DType::F32).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(DType::F32, &[2, 3]);
        let b = Tensor::zeros(DType::F32, &[4, 2]);
        assert!(reference::matmul(&a, &b, DType::F32).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::random(DType::F32, &[5, 9], &mut rng, -3.0, 3.0);
        let p = reference::softmax_rows(&x, DType::F32).unwrap();
        for i in 0..5 {
            let s: f32 = p.data()[i * 9..(i + 1) * 9].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::random(DType::F32, &[3, 7], &mut rng, -1.0, 1.0);
        let tt = reference::transpose(&reference::transpose(&x).unwrap()).unwrap();
        assert_eq!(x, tt);
    }

    #[test]
    fn row_sum_matches_manual() {
        let x = Tensor::from_data(DType::F32, &[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let y = reference::row_sum(&x, DType::F32).unwrap();
        assert_eq!(y.data(), &[6.0, 15.0]);
    }

    #[test]
    fn attention_rows_are_convex_combos() {
        // With V = ones, attention output must be all ones regardless of Q, K.
        let mut rng = StdRng::seed_from_u64(3);
        let q = Tensor::random(DType::F32, &[4, 8], &mut rng, -1.0, 1.0);
        let k = Tensor::random(DType::F32, &[4, 8], &mut rng, -1.0, 1.0);
        let v = Tensor::full(DType::F32, &[4, 8], 1.0);
        let o = reference::attention(&q, &k, &v, DType::F32).unwrap();
        for &x in o.data() {
            assert!((x - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn relative_error_detects_difference() {
        let a = Tensor::full(DType::F32, &[2, 2], 1.0);
        let b = Tensor::full(DType::F32, &[2, 2], 1.1);
        assert!(a.relative_error(&b).unwrap() > 0.05);
        assert_eq!(a.relative_error(&a).unwrap(), 0.0);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn clone_shares_storage_until_either_side_writes() {
        let mut rng = StdRng::seed_from_u64(11);
        let original = Tensor::random(DType::F16, &[4, 6], &mut rng, -2.0, 2.0);
        let want = bits(&original);

        // A write through `set` copies the clone's storage, once.
        let mut a = original.clone();
        assert_eq!(a.data().as_ptr(), original.data().as_ptr());
        a.set(&[1, 2], 9.0).unwrap();
        assert_ne!(a.data().as_ptr(), original.data().as_ptr());
        let copied = a.data().as_ptr();
        a.set(&[3, 5], -9.0).unwrap();
        assert_eq!(a.data().as_ptr(), copied, "an unshared tensor copied again");
        assert_eq!(bits(&original), want);
        assert_eq!(
            (a.get(&[1, 2]).unwrap(), a.get(&[3, 5]).unwrap()),
            (9.0, -9.0)
        );

        // A write through `data_mut` on the original leaves the clone intact.
        let mut b = original.clone();
        let clone = original.clone();
        b.data_mut().fill(0.5);
        assert!(b.data().iter().all(|&x| x == 0.5));
        assert_eq!(bits(&clone), want);
        assert_eq!(bits(&original), want);
    }

    #[test]
    fn into_data_copies_only_shared_storage() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = Tensor::random(DType::BF16, &[3, 5], &mut rng, -1.0, 1.0);
        let want = bits(&t);
        let keep = t.clone();
        let data = t.into_data();
        assert_ne!(data.as_ptr(), keep.data().as_ptr());
        assert_eq!(data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        assert_eq!(bits(&keep), want);

        let ptr = keep.data().as_ptr();
        let unshared = keep.into_data();
        assert_eq!(unshared.as_ptr(), ptr, "an unshared tensor was copied");
    }

    #[test]
    #[should_panic(expected = "degenerate shape")]
    fn zero_extent_panics() {
        let _ = Tensor::zeros(DType::F32, &[2, 0]);
    }
}
