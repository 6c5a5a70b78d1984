//! A small, deterministic FNV-1a hasher.
//!
//! Digests that must be stable across runs, builds and thread counts
//! cannot use `std::collections::hash_map::DefaultHasher`, which makes no
//! such guarantee. This fixed-parameter FNV-1a over an explicit byte
//! encoding does; the benchmark harness uses it to fingerprint result
//! sets. A 64-bit digest can collide, so use it to detect change, not to
//! prove equality.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use mgx_trace::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.write_u64(7);
/// let mut b = Fnv64::new();
/// b.write_u64(7);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` in one mixing round.
    ///
    /// Byte-at-a-time FNV is a chain of eight dependent multiplies per
    /// word. A word is instead folded with a single xor-multiply-xor
    /// round (splitmix64's finalizer core, see [`mix64`]): same
    /// determinism and full-width diffusion, so the result is a stable
    /// fingerprint rather than a spec-compliant FNV stream.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0, v);
    }

    /// Absorbs an `Option<u64>` with an explicit presence tag, so
    /// `Some(0)` and `None` hash differently.
    #[inline]
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
        }
    }

    /// Final digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One word-mixing round as a pure function: the xor-multiply-xor core
/// behind [`Fnv64::write_u64`].
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut x = (a ^ b).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x.wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// Convenience: hash a sequence of `u64` words in one call.
pub fn fnv64_words(words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
        // FNV-1a of "a" (0x61) is a fixed published value.
        let mut h = Fnv64::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn option_tagging_distinguishes_none_from_zero() {
        let mut a = Fnv64::new();
        a.write_opt_u64(None);
        let mut b = Fnv64::new();
        b.write_opt_u64(Some(0));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn words_helper_matches_incremental() {
        let mut h = Fnv64::new();
        h.write_u64(1);
        h.write_u64(2);
        assert_eq!(fnv64_words(&[1, 2]), h.finish());
    }
}
