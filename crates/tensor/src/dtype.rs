//! Element types and software half-precision emulation.
//!
//! The Cypress evaluation runs entirely in FP16 with FP32 accumulation (the
//! Tensor Core contract). We have no hardware half support in this
//! environment, so `f16` and [`bf16`] are implemented bit-exactly in
//! software: values round-trip through the IEEE binary16 / bfloat16 bit
//! patterns, including subnormals, infinities and NaN.

use std::fmt;

/// Element type of a tensor.
///
/// Storage in [`crate::Tensor`] is always `f32`; the dtype controls the
/// rounding applied when values are stored, mirroring how a GPU kernel would
/// write half-precision results to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// IEEE 754 binary16.
    #[default]
    F16,
    /// bfloat16 (truncated binary32).
    BF16,
    /// IEEE 754 binary32.
    F32,
}

impl DType {
    /// Size of one element in bytes, as laid out in (simulated) device memory.
    #[must_use]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F16 | DType::BF16 => 2,
            DType::F32 => 4,
        }
    }

    /// Quantize `x` to this dtype's precision (round-to-nearest-even).
    #[must_use]
    pub fn quantize(self, x: f32) -> f32 {
        match self {
            DType::F16 => f16::from_f32(x).to_f32(),
            DType::BF16 => bf16::from_f32(x).to_f32(),
            DType::F32 => x,
        }
    }

    /// Quantize every element of `row` in place — the bulk form of
    /// [`DType::quantize`], bit-for-bit equal to it on every `f32` bit
    /// pattern (the `exhaustive` test walks all 2^32). One dtype dispatch
    /// covers the whole row and `F32` is a no-op. The half types do not
    /// call the scalar conversions: they compute the `f32 → half → f32`
    /// round trip directly on the `f32` bits with selects instead of
    /// branches, so the loop autovectorizes — 16 lanes wide where the
    /// host has AVX-512F, 8 where it has AVX2, 4 otherwise, the same
    /// integer operations per lane.
    pub fn quantize_slice(self, row: &mut [f32]) {
        quantize_slice_upto(WIDEST, self, row);
    }

    /// Copy `src` into `dst`, quantizing each element to this dtype —
    /// the bulk form of a quantized store, with the same branch-free
    /// round trip (and the same bit-for-bit contract) as
    /// [`DType::quantize_slice`]. `F32` degenerates to a plain
    /// `copy_from_slice`. Every element is quantized even when the source
    /// already has this dtype: [`crate::Tensor::data_mut`] lets callers
    /// store unquantized values behind a half dtype.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (same contract as
    /// [`slice::copy_from_slice`]).
    pub fn quantize_copy(self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "quantize_copy length mismatch");
        quantize_copy_upto(WIDEST, self, src, dst);
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F32 => "f32",
        };
        f.write_str(s)
    }
}

/// The `lanes` cap [`DType::quantize_slice`] and [`DType::quantize_copy`]
/// pass: none.
const WIDEST: usize = usize::MAX;

/// [`quantize_slice_lanes`] in the widest instantiation the running CPU
/// executes with vectors of at most `lanes` `f32` lanes — AVX-512F, else
/// AVX2, else portable. The public entry passes [`WIDEST`]; the tests
/// pass 4, 8 and 16 to run every instantiation the CPU has.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn quantize_slice_upto(lanes: usize, dtype: DType, row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each wrapper is entered right after detecting its one
    // requirement on the running CPU: `avx512f` for
    // `quantize_slice_avx512`, `avx2` for `quantize_slice_avx2`.
    unsafe {
        if lanes >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            return quantize_slice_avx512(dtype, row);
        }
        if lanes >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            return quantize_slice_avx2(dtype, row);
        }
    }
    quantize_slice_lanes(dtype, row);
}

/// [`quantize_copy_lanes`] dispatched like [`quantize_slice_upto`]
/// (equal lengths already checked).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn quantize_copy_upto(lanes: usize, dtype: DType, src: &[f32], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each wrapper is entered right after detecting its one
    // requirement on the running CPU: `avx512f` for
    // `quantize_copy_avx512`, `avx2` for `quantize_copy_avx2`.
    unsafe {
        if lanes >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            return quantize_copy_avx512(dtype, src, dst);
        }
        if lanes >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            return quantize_copy_avx2(dtype, src, dst);
        }
    }
    quantize_copy_lanes(dtype, src, dst);
}

/// The body of [`DType::quantize_slice`], inlined into each caller so it
/// is compiled at that caller's vector width: once portable, once inside
/// [`quantize_slice_avx2`], once inside [`quantize_slice_avx512`].
#[inline(always)]
fn quantize_slice_lanes(dtype: DType, row: &mut [f32]) {
    match dtype {
        DType::F16 => {
            for v in row {
                *v = f16_round_trip(*v);
            }
        }
        DType::BF16 => {
            for v in row {
                *v = bf16_round_trip(*v);
            }
        }
        DType::F32 => {}
    }
}

/// The body of [`DType::quantize_copy`] (equal lengths already checked),
/// inlined into each caller like [`quantize_slice_lanes`].
#[inline(always)]
fn quantize_copy_lanes(dtype: DType, src: &[f32], dst: &mut [f32]) {
    match dtype {
        DType::F16 => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = f16_round_trip(*s);
            }
        }
        DType::BF16 => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = bf16_round_trip(*s);
            }
        }
        DType::F32 => dst.copy_from_slice(src),
    }
}

/// [`quantize_slice_lanes`] compiled with AVX-512F enabled: 16-lane
/// integer vectors, the compares writing mask registers and the selects
/// blending through them. `avx512f` implies `fma`, but the one float
/// operation of the round trips is an add followed by a subtract, and
/// rustc never sets LLVM's `contract` flag, so nothing fuses; the
/// operations per element are the portable ones, so the bits are too.
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_slice_avx512(dtype: DType, row: &mut [f32]) {
    quantize_slice_lanes(dtype, row);
}

/// [`quantize_copy_lanes`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_copy_avx512(dtype: DType, src: &[f32], dst: &mut [f32]) {
    quantize_copy_lanes(dtype, src, dst);
}

/// [`quantize_slice_lanes`] compiled with AVX2 enabled: 8-lane integer
/// vectors, and the unsigned compares and selects of the round trips are
/// single instructions instead of SSE2 emulations. The operations per
/// element are the portable ones, so the bits are too.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(dtype: DType, row: &mut [f32]) {
    quantize_slice_lanes(dtype, row);
}

/// [`quantize_copy_lanes`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_copy_avx2(dtype: DType, src: &[f32], dst: &mut [f32]) {
    quantize_copy_lanes(dtype, src, dst);
}

/// `f16::from_f32(x).to_f32()` without a branch: the round trip computed
/// on the `f32` bit pattern, every range evaluated and one selected.
///
/// - `|x| ≥ 2^-14` (normal halves, ∞): add-and-mask round-to-nearest-even
///   of the 23-bit mantissa to 10 bits — the carry walks into the exponent
///   by itself — and anything that reaches `2^16` becomes ∞.
/// - `2^-24 ≤ |x| < 2^-14` (subnormal halves): `(|x| + 0.5) - 0.5`. In
///   `[0.5, 1)` an `f32` ulp is `2^-24`, the subnormal half spacing, so
///   the hardware add performs exactly the rounding (ties to even
///   included) and the subtraction is exact.
/// - `|x| < 2^-24` flushes to signed zero and NaN becomes the quiet NaN
///   `0x7FC0_0000 | sign`, both as [`f16::from_f32`] defines them.
#[inline(always)]
fn f16_round_trip(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7FFF_FFFF;
    let rounded = (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF;
    let normal = if rounded >= 0x4780_0000 {
        0x7F80_0000
    } else {
        rounded
    };
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let finite = if abs >= 0x3880_0000 {
        normal
    } else if abs >= 0x3380_0000 {
        subnormal
    } else {
        0
    };
    let magnitude = if abs > 0x7F80_0000 {
        0x7FC0_0000
    } else {
        finite
    };
    f32::from_bits(sign | magnitude)
}

/// `bf16::from_f32(x).to_f32()` without a branch: add-and-mask
/// round-to-nearest-even of the low 16 bits, or the quieted truncation
/// when `x` is NaN.
#[inline(always)]
fn bf16_round_trip(x: f32) -> f32 {
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    let quieted = (bits & 0xFFFF_0000) | 0x0040_0000;
    f32::from_bits(if bits & 0x7FFF_FFFF > 0x7F80_0000 {
        quieted
    } else {
        rounded
    })
}

/// Software IEEE 754 binary16.
///
/// The lowercase name mirrors Rust's primitive float naming (`f32`, `f64`);
/// this is a deliberate, documented deviation from UpperCamelCase since the
/// type plays the role of a primitive.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct f16(u16);

impl f16 {
    /// Construct from raw IEEE binary16 bits.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// The raw IEEE binary16 bits.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even for every input of
    /// magnitude at least `2^-24` (the smallest subnormal half): overflow
    /// goes to infinity, `[2^-24, 2^-14)` rounds onto the subnormal halves,
    /// and a NaN keeps its sign and becomes the quiet NaN `0x7E00`.
    ///
    /// Below `2^-24` the conversion **flushes to signed zero**. That is
    /// round-to-nearest-even for `|x| ≤ 2^-25` but not for the open
    /// interval `(2^-25, 2^-24)`, where IEEE rounding gives `2^-24`. The
    /// simulator's tensors are defined by this behaviour (test
    /// `half_subnormal_underflow_flushes_below_two_pow_minus_24`), so
    /// changing it is a change to the functional model.
    #[must_use]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve a quiet NaN payload bit.
            let nan = if mant != 0 { 0x0200 } else { 0 };
            return f16(sign | 0x7C00 | nan);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return f16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Round the 23-bit mantissa to 10 bits, RNE.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shift = 13;
            let lsb = (mant >> shift) & 1;
            let round_bit = (mant >> (shift - 1)) & 1;
            let sticky = (mant & ((1 << (shift - 1)) - 1)) != 0;
            let mut half_mant = (mant >> shift) as u16;
            if round_bit == 1 && (sticky || lsb == 1) {
                half_mant += 1;
            }
            // Mantissa carry may bump the exponent (and can overflow to inf).
            let magnitude = (half_exp + (half_mant & 0x0400)) | (half_mant & 0x03FF);
            if half_mant & 0x0400 != 0 {
                return f16(sign | (half_exp + 0x0400));
            }
            return f16(sign | magnitude);
        }
        if unbiased >= -24 {
            // Subnormal half. Implicit leading one becomes explicit.
            let full = mant | 0x0080_0000;
            let shift = (-unbiased - 14 + 13) as u32;
            let shifted = full >> shift;
            let rem_mask = (1u32 << shift) - 1;
            let rem = full & rem_mask;
            let halfway = 1u32 << (shift - 1);
            let mut half_mant = shifted as u16;
            if rem > halfway || (rem == halfway && (half_mant & 1) == 1) {
                half_mant += 1;
            }
            return f16(sign | half_mant);
        }
        // Underflow to signed zero.
        f16(sign)
    }

    /// Convert to `f32` exactly (every binary16 value is representable).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 >> 15) << 31;
        let exp = u32::from((self.0 >> 10) & 0x1F);
        let mant = u32::from(self.0 & 0x03FF);

        let bits = if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalize. The value is mant * 2^-24; after
                // shifting the leading one up to bit 10 in s steps, the f32
                // exponent field is 113 - s.
                let mut e = 0i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                let exp32 = ((113 + e) as u32) << 23;
                sign | exp32 | ((m & 0x03FF) << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }
}

impl From<f16> for f32 {
    fn from(x: f16) -> f32 {
        x.to_f32()
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Software bfloat16 (truncated IEEE binary32 with round-to-nearest-even).
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct bf16(u16);

impl bf16 {
    /// Convert from `f32` with round-to-nearest-even.
    #[must_use]
    pub(crate) fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Quiet the NaN; keep it a NaN after truncation.
            return bf16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = (bits >> 15) & 1;
        let sticky = bits & 0x7FFF;
        let lsb = (bits >> 16) & 1;
        let mut hi = (bits >> 16) as u16;
        if round_bit == 1 && (sticky != 0 || lsb == 1) {
            hi = hi.wrapping_add(1);
        }
        bf16(hi)
    }

    /// Convert to `f32` exactly.
    #[must_use]
    pub(crate) fn to_f32(self) -> f32 {
        f32::from_bits(u32::from(self.0) << 16)
    }
}

impl From<bf16> for f32 {
    fn from(x: bf16) -> f32 {
        x.to_f32()
    }
}

impl fmt::Display for bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_exact_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.099976] {
            let h = f16::from_f32(x);
            let back = h.to_f32();
            assert!((back - x).abs() <= x.abs() * 1e-3 + 1e-7, "{x} -> {back}");
        }
    }

    #[test]
    fn f16_one_has_canonical_bits() {
        assert_eq!(f16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(f16::from_bits(0x3C00).to_f32(), 1.0);
    }

    #[test]
    fn f16_overflow_is_infinity() {
        assert_eq!(f16::from_f32(70000.0).to_bits(), 0x7C00);
        assert_eq!(f16::from_f32(-70000.0).to_bits(), 0xFC00);
    }

    #[test]
    fn f16_max_is_65504() {
        assert_eq!(f16::from_bits(0x7BFF).to_f32(), 65504.0);
    }

    #[test]
    fn f16_nan_propagates() {
        assert!(f16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        // Smallest positive subnormal half is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(tiny).to_bits(), 1);
        assert_eq!(f16::from_bits(1).to_f32(), tiny);
        // Below half of the smallest subnormal underflows to zero.
        assert_eq!(f16::from_f32(2.0f32.powi(-26)).to_bits(), 0);
    }

    #[test]
    fn f16_rne_ties_to_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half value;
        // round-to-nearest-even keeps 1.0 (even mantissa).
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(x).to_bits(), 0x3C00);
        // 1.0 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(y).to_bits(), 0x3C02);
    }

    #[test]
    fn f16_signed_zero() {
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(f16::from_f32(0.0).to_bits(), 0x0000);
    }

    #[test]
    fn bf16_round_trips() {
        for x in [0.0f32, 1.0, -2.5, 3.0e38, 1.0e-38] {
            let b = bf16::from_f32(x);
            let back = b.to_f32();
            assert!((back - x).abs() <= x.abs() * 1e-2 + 1e-40, "{x} -> {back}");
        }
    }

    #[test]
    fn bf16_nan_stays_nan() {
        assert!(bf16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
    }

    #[test]
    fn quantize_slice_matches_scalar_quantize() {
        let values: Vec<f32> = (0..257)
            .map(|i| (i as f32 - 128.0) * 0.3711 + 1.0 / (i as f32 + 1.0))
            .collect();
        for dt in [DType::F16, DType::BF16, DType::F32] {
            assert_bulk_matches_scalar(dt, &values);
        }
    }

    /// The `lanes` caps of the dispatch that select the portable, AVX2 and
    /// AVX-512 instantiations; a cap the CPU lacks the feature for falls
    /// back to the next narrower one.
    const LANES: [usize; 3] = [4, 8, 16];

    /// Both bulk quantizers of `dt` agree with the scalar definition
    /// `dt.quantize` on every value, bit for bit — through the public
    /// entry points and through each instantiation the host has, called
    /// directly (a wider host would otherwise never execute the narrower
    /// ones). Each copy writes over the complement of the expected bits,
    /// so an element it leaves unwritten fails.
    fn assert_bulk_matches_scalar(dt: DType, values: &[f32]) {
        let expect: Vec<u32> = values.iter().map(|&v| dt.quantize(v).to_bits()).collect();
        let check = |got: &[f32], what: &str| {
            for ((v, got), expect) in values.iter().zip(got).zip(&expect) {
                let bits = v.to_bits();
                assert_eq!(got.to_bits(), *expect, "{dt} {what} of {bits:#010x}");
            }
        };
        let poison: Vec<f32> = expect.iter().map(|&e| f32::from_bits(!e)).collect();
        let mut sliced = values.to_vec();
        dt.quantize_slice(&mut sliced);
        check(&sliced, "slice");
        let mut copied = poison.clone();
        dt.quantize_copy(values, &mut copied);
        check(&copied, "copy");
        for lanes in LANES {
            sliced.copy_from_slice(values);
            quantize_slice_upto(lanes, dt, &mut sliced);
            check(&sliced, &format!("{lanes}-lane slice"));
            copied.copy_from_slice(&poison);
            quantize_copy_upto(lanes, dt, values, &mut copied);
            check(&copied, &format!("{lanes}-lane copy"));
        }
    }

    /// Mantissas that sit on and next to every rounding decision of both
    /// half types at any exponent — zero, all-ones, each single bit and
    /// its neighbours (the halfway points of the normal, subnormal and
    /// bfloat16 roundings, with the kept lsb clear and set) — followed by
    /// 4096 pseudo-random ones.
    fn stratified_mantissas() -> Vec<u32> {
        let mut mants = vec![0, 0x007F_FFFF];
        for s in 0..23 {
            let bit = 1u32 << s;
            for m in [
                bit - 1,
                bit,
                bit + 1,
                3 * bit,
                3 * bit + 1,
                0x007F_FFFF - bit,
            ] {
                mants.push(m & 0x007F_FFFF);
            }
        }
        let mut state = 0x2545_F491u32;
        for _ in 0..4096 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            mants.push(state >> 9);
        }
        mants
    }

    #[test]
    fn bulk_quantizers_match_scalar_on_stratified_bit_patterns() {
        let mantissas = stratified_mantissas();
        let mut values = Vec::new();
        for sign in [0u32, 0x8000_0000] {
            for exp in 0..=0xFFu32 {
                for &mant in &mantissas {
                    values.push(f32::from_bits(sign | (exp << 23) | mant));
                }
            }
        }
        // ±0, ±∞, quiet and signalling NaN payloads, the f16 overflow
        // edge (65504 is MAX, 65520 the first value that rounds to ∞) and
        // the 2^-14 / 2^-24 / 2^-25 range edges, each with its neighbours.
        for bits in [
            0x0000_0000u32,
            0x7F80_0000,
            0x7FC0_0000,
            0x7FC0_0001,
            0x7F80_0001,
            0x7FBF_FFFF,
            0x7FFF_FFFF,
            0x477F_E000,
            0x477F_EFFF,
            0x477F_F000,
            0x477F_F001,
            0x3880_0000,
            0x387F_FFFF,
            0x3380_0000,
            0x337F_FFFF,
            0x3300_0000,
            0x3300_0001,
            0x32FF_FFFF,
        ] {
            values.push(f32::from_bits(bits));
            values.push(f32::from_bits(bits | 0x8000_0000));
        }
        for dt in [DType::F16, DType::BF16, DType::F32] {
            // Chunk lengths cycle through sizes below, at and above the
            // vector widths, so bodies and remainders both run.
            let lengths = [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100];
            let mut rest = values.as_slice();
            for len in lengths.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((*len).min(rest.len()));
                assert_bulk_matches_scalar(dt, chunk);
                rest = tail;
            }
        }
    }

    /// All 2^32 `f32` bit patterns through both bulk quantizers of both
    /// half types. Run in release:
    /// `cargo test --release -p cypress-tensor -- --ignored exhaustive`.
    #[test]
    #[ignore = "walks all 2^32 bit patterns; run in release"]
    fn exhaustive_bulk_quantizers_match_scalar_on_every_bit_pattern() {
        const CHUNK: u32 = 1 << 16;
        let mut values = vec![0.0f32; CHUNK as usize];
        for hi in 0..=u32::MAX / CHUNK {
            for (lo, v) in (0..CHUNK).zip(values.iter_mut()) {
                *v = f32::from_bits(hi * CHUNK + lo);
            }
            assert_bulk_matches_scalar(DType::F16, &values);
            assert_bulk_matches_scalar(DType::BF16, &values);
        }
    }

    #[test]
    fn half_subnormal_underflow_flushes_below_two_pow_minus_24() {
        let two_pow_m24 = 0x3380_0000u32;
        let two_pow_m25 = 0x3300_0000u32;
        // 2^-24 is the smallest subnormal half and survives.
        assert_eq!(f16::from_f32(f32::from_bits(two_pow_m24)).to_bits(), 1);
        // Everything in (2^-25, 2^-24) flushes to signed zero, although
        // round-to-nearest-even would give 2^-24 ...
        for bits in [two_pow_m24 - 1, two_pow_m25 + 0x0040_0000, two_pow_m25 + 1] {
            assert_eq!(f16::from_f32(f32::from_bits(bits)).to_bits(), 0x0000);
            let negative = f32::from_bits(bits | 0x8000_0000);
            assert_eq!(f16::from_f32(negative).to_bits(), 0x8000);
            assert_eq!(DType::F16.quantize(negative).to_bits(), 0x8000_0000);
        }
        // ... while 2^-25 itself is a tie that goes to (even) zero anyway.
        assert_eq!(f16::from_f32(f32::from_bits(two_pow_m25)).to_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn quantize_copy_rejects_length_mismatch() {
        DType::F16.quantize_copy(&[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    fn dtype_quantize_is_idempotent() {
        for dt in [DType::F16, DType::BF16, DType::F32] {
            let q = dt.quantize(std::f32::consts::PI);
            assert_eq!(dt.quantize(q), q);
        }
    }
}
