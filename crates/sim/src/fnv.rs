//! The workspace's one FNV-1a loop.
//!
//! Run and snapshot fingerprints (`vgprs-load`) fold bytes through this
//! accumulator, so "the same bytes in the same order" means the same
//! value everywhere. (Hash *tables* use `crate::IdHasher`.)

/// A 64-bit FNV-1a accumulator. Values are fed little-endian, `f64`s by
/// their bit pattern, so a fingerprint never depends on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// An accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds raw bytes in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a `u64` in, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` in by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
