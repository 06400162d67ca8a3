//! The workspace's one structural hash: 64-bit FNV-1a.
//!
//! It lives here because this is the lowest crate that hashes anything
//! (`bytecode::kernel_shape_hash` ties a lowered program to its
//! kernel); `cypress_core::fingerprint` re-exports it for the compile
//! fingerprints and the golden-digest suites. The accumulator is a
//! [`std::fmt::Write`] sink, so a `Debug`/`Display` rendering is hashed
//! as the formatter produces it — no intermediate `String`.

use std::fmt;

/// A 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh accumulator at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Fold `bytes` into the accumulator.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a string (with a terminator so `"ab","c"` != `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
    }

    /// Fold a formatted record and its terminator: the same bytes as
    /// `write_str(&format!(..))`, streamed instead of allocated.
    pub fn write_args(&mut self, args: fmt::Arguments<'_>) {
        // The sink never fails, so neither does the formatter.
        let _ = fmt::Write::write_fmt(self, args);
        self.write(&[0xFF]);
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Raw streaming: `write!(h, ..)` folds exactly the rendered bytes, with
/// no terminator (the inherent [`Fnv64::write_str`] adds one).
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_records_hash_like_formatted_strings() {
        let value = vec![(1u32, "a"), (2, "b")];
        let mut formatted = Fnv64::new();
        formatted.write_str(&format!("rec {value:?} {}", 7));
        let mut streamed = Fnv64::new();
        streamed.write_args(format_args!("rec {value:?} {}", 7));
        assert_eq!(formatted.finish(), streamed.finish());
    }
}
