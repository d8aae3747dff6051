//! Random generation: an HMAC-DRBG (NIST SP 800-90A) and entropy sources.
//!
//! Components that need reproducible randomness (the SGX model's per-CPU
//! fuse keys, deterministic tests, benchmarks) instantiate [`HmacDrbg`] from
//! a seed; production-path callers use [`SystemEntropy`], which draws from
//! the OS via the `rand` crate.

use crate::hmac::{hmac_sha256, HmacSha256};
use rand::RngCore;

/// A source of cryptographically secure random bytes.
pub trait SecureRandom: Send {
    fn fill(&mut self, out: &mut [u8]);

    fn gen_array<const N: usize>(&mut self) -> [u8; N]
    where
        Self: Sized,
    {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }
}

/// OS-backed entropy.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemEntropy;

impl SecureRandom for SystemEntropy {
    fn fill(&mut self, out: &mut [u8]) {
        rand::rngs::OsRng.fill_bytes(out);
    }
}

/// Deterministic HMAC-DRBG over SHA-256.
///
/// Reseeding is the caller's responsibility; the generate limit of SP
/// 800-90A (2⁴⁸ requests) is far beyond anything this workspace produces.
#[derive(Clone)]
pub struct HmacDrbg {
    key: [u8; 32],
    value: [u8; 32],
}

impl HmacDrbg {
    /// Instantiate from seed material (entropy || nonce || personalization).
    pub fn new(seed: &[u8]) -> HmacDrbg {
        let mut drbg = HmacDrbg {
            key: [0u8; 32],
            value: [1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Mix additional entropy into the state.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.update(Some(entropy));
    }

    /// SP 800-90A's HMAC_DRBG_Update: K = HMAC(K, V ‖ 0x00 ‖ provided) and
    /// V = HMAC(K, V), then again with 0x01 when input was provided.
    fn update(&mut self, provided: Option<&[u8]>) {
        let separators: &[u8] = if provided.is_some() {
            &[0x00, 0x01]
        } else {
            &[0x00]
        };
        for &separator in separators {
            let mut mac = HmacSha256::new(&self.key);
            mac.update(&self.value)
                .update(&[separator])
                .update(provided.unwrap_or_default());
            self.key = mac.finalize();
            self.value = hmac_sha256(&self.key, &self.value);
        }
    }
}

impl SecureRandom for HmacDrbg {
    fn fill(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            self.value = hmac_sha256(&self.key, &self.value);
            let take = (out.len() - filled).min(32);
            out[filled..filled + take].copy_from_slice(&self.value[..take]);
            filled += take;
        }
        self.update(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::new(b"seed material");
        assert_eq!(a.gen_array::<64>(), b.gen_array::<64>());
        // Streams stay in lockstep.
        assert_eq!(a.gen_array::<16>(), b.gen_array::<16>());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed 1");
        let mut b = HmacDrbg::new(b"seed 2");
        assert_ne!(a.gen_array::<32>(), b.gen_array::<32>());
    }

    #[test]
    fn sequential_outputs_differ() {
        let mut drbg = HmacDrbg::new(b"x");
        let first = drbg.gen_array::<32>();
        let second = drbg.gen_array::<32>();
        assert_ne!(first, second);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"s");
        let mut b = HmacDrbg::new(b"s");
        b.reseed(b"extra entropy");
        assert_ne!(a.gen_array::<32>(), b.gen_array::<32>());
    }

    #[test]
    fn fill_spans_block_boundaries() {
        let mut drbg = HmacDrbg::new(b"s");
        let mut buf = vec![0u8; 100];
        drbg.fill(&mut buf);
        // Not all zero (probability ~2^-800 if working).
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn system_entropy_produces_output() {
        let mut sys = SystemEntropy;
        let a = sys.gen_array::<32>();
        let b = sys.gen_array::<32>();
        assert_ne!(a, b, "OS entropy returned identical blocks");
    }
}
