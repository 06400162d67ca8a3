//! The workspace's one structural hash: 64-bit FNV-1a.
//!
//! It lives here because this is the lowest crate that hashes anything
//! (`bytecode::kernel_shape_hash` ties a lowered program to its
//! kernel); `cypress_core::fingerprint` re-exports it for the compile
//! fingerprints and the golden-digest suites. The accumulator is a
//! [`std::fmt::Write`] sink, so a `Debug`/`Display` rendering is hashed
//! as the formatter produces it — no intermediate `String` — and a
//! [`std::hash::Hasher`], so a derived `Hash` streams in directly.

use std::fmt;
use std::hash::Hasher;

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

    /// An accumulator that continues the stream whose
    /// [`finish`](Fnv64::finish) was `state`: FNV-1a has no finalizer,
    /// so a hash *is* its stream state, and writing more records after
    /// `resume(h.finish())` ends where writing them to `h` would.
    #[must_use]
    pub fn resume(state: u64) -> Self {
        Fnv64(state)
    }

    /// Fold `bytes` into the accumulator.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    /// One FNV-1a step.
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
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

/// Derived hashing: `value.hash(&mut h)` streams a value's fields with
/// no formatter in between. The integers a derived `Hash` writes —
/// `usize`/`isize` lengths and discriminants, `i64`/`u64` values, `u32`
/// float bits — fold in as one word each (FNV-1a's xor-multiply step at
/// 64-bit width, up to eight times fewer steps than byte by byte), so
/// this form serves in-process structural checks, not digests that must
/// match across platforms.
impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    fn write_i64(&mut self, x: i64) {
        self.fold(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.fold(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
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

    #[test]
    fn a_resumed_stream_ends_where_the_whole_stream_does() {
        let mut whole = Fnv64::new();
        whole.write_str("head");
        let mut resumed = Fnv64::resume(whole.finish());
        whole.write_str("tail");
        resumed.write_str("tail");
        assert_eq!(resumed.finish(), whole.finish());
    }
}
