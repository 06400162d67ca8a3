//! The digest exact outputs are compared by.

/// FNV-1a over 64-bit words: the digest exact outputs are compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(self, f: f64) -> Self {
        self.word(f.to_bits())
    }

    pub fn text(self, s: &str) -> Self {
        s.bytes()
            .fold(self.word(s.len() as u64), |d, b| d.word(u64::from(b)))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
