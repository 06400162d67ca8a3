//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset the repo's property tests use: the `proptest!`
//! macro over functions whose arguments are drawn from half-open numeric
//! ranges, plus `prop_assert!` / `prop_assert_eq!`. Each property runs a
//! fixed number of deterministic cases (no shrinking); failures panic with
//! the offending inputs via the assertion message.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

/// Cases run per property.
pub const NUM_CASES: usize = 128;

/// A source of values for one property argument.
pub trait Strategy {
    /// The type of values produced.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: rand::SampleUniform + Copy> Strategy for std::ops::Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        use rand::Rng;
        rng.gen_range(self.start..self.end)
    }
}

/// A strategy that always yields the same value (subset of `proptest::strategy::Just`).
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, Just, Strategy};
}

#[macro_export]
macro_rules! proptest {
    ($( $(#[$attr:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                use rand::SeedableRng;
                let mut prop_rng = rand::rngs::StdRng::seed_from_u64(0xC1_9E55u64);
                for _case in 0..$crate::NUM_CASES {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut prop_rng);)+
                    $body
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use crate::prelude::*;

    proptest! {
        /// Ranges produce in-bounds values for every case.
        #[test]
        fn range_strategy_in_bounds(x in 3usize..17, f in -1.0f32..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "{} out of range", f);
        }
    }

    #[test]
    fn runs_all_cases() {
        range_strategy_in_bounds();
    }
}
