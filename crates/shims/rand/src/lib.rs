//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the small subset of the `rand` API the repo actually uses: a seedable
//! deterministic generator ([`rngs::StdRng`]) and [`Rng::gen_range`] over
//! half-open numeric ranges. The generator is xoshiro256** seeded via
//! SplitMix64 — deterministic across runs and platforms, which is exactly
//! what reproducible tests and the runtime's determinism guarantees need.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core randomness source: a stream of `u64`s.
pub trait RngCore {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling helpers (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample uniformly from the half-open range `lo..hi`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// Sample a value of type `T` (only `f32`/`f64` in `[0,1)` supported).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Construction from seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a `Range`.
pub trait SampleUniform: Sized {
    /// Uniform sample from `range` using `rng`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Types that can be sampled from the "standard" distribution.
pub trait Standard: Sized {
    /// Sample from the standard distribution (`[0,1)` for floats).
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 high bits -> uniform double in [0,1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + (unit_f64(rng) as f32) * (range.end - range.start)
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + unit_f64(rng) * (range.end - range.start)
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (range.start as i128 + v) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng) as f32
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (stands in for `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the real rand crate does.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0i64..1_000_000), b.gen_range(0i64..1_000_000));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.gen_range(5usize..9);
            assert!((5..9).contains(&i));
        }
    }
}
