//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the record-protection AEAD for the TLS channel and for sealed
//! SGX blobs. GHASH works over GF(2¹²⁸) with the standard bit-reflected
//! reduction polynomial. Where the key's [`Aes`] runs on AES-NI (an x86-64
//! CPU reporting AES-NI, PCLMULQDQ and SSSE3), GHASH multiplies with
//! PCLMULQDQ: `AesGcm::new` computes H, H², H³ and H⁴, so four blocks
//! share one reduction (module `hw`). That path is constant-time.
//! Elsewhere GHASH goes four bits at a time (Shoup's method): each key
//! carries the 16 products n·H of a 4-bit polynomial n with the hash key H,
//! built from three multiplications by x, so a block costs 32 lookups and
//! shifts instead of 128 bit steps, and `AesGcm::new` stays cheap enough
//! to run on every seal. Those lookups are indexed by secret nibbles, so
//! that path is not hardened against cache timing (see the crate docs).
//! The test module keeps the bit-serial multiplier as a differential
//! oracle of both.

use crate::aes::{ctr_apply, Aes, BLOCK};
use crate::ct::ct_eq;
use crate::hw::Hardware;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Nonce length in bytes (the 96-bit fast path of GCM).
pub const NONCE_LEN: usize = 12;

/// Failure to authenticate during [`AesGcm::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

/// The bit-reflected reduction constant R = 11100001 || 0^120.
const R: u128 = 0xe1 << 120;

/// Multiply by x: one bit to the right, reducing the bit that falls off.
const fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ if v & 1 == 1 { R } else { 0 }
}

/// `REDUCE4[n]` is what the four low bits n of a value contribute after a
/// multiplication by x⁴ shifts them out: v·x⁴ = (v >> 4) ^ REDUCE4[v & 15].
const REDUCE4: [u128; 16] = {
    let mut table = [0u128; 16];
    let mut n = 0;
    while n < 16 {
        table[n] = mul_x(mul_x(mul_x(mul_x(n as u128))));
        n += 1;
    }
    table
};

/// Per-key GHASH multiplier: `products[n]` = N(x)·H for the 4-bit value n
/// read as the polynomial N whose x⁰ coefficient is n's top bit.
#[derive(Clone)]
struct GhashKey {
    products: [u128; 16],
}

impl GhashKey {
    fn new(h: u128) -> GhashKey {
        let mut products = [0u128; 16];
        products[8] = h;
        products[4] = mul_x(h);
        products[2] = mul_x(products[4]);
        products[1] = mul_x(products[2]);
        // The rest by linearity, each from two smaller entries.
        for n in (1..16usize).filter(|n| !n.is_power_of_two()) {
            let low = n & n.wrapping_neg(); // lowest set bit
            products[n] = products[low] ^ products[n ^ low];
        }
        GhashKey { products }
    }

    /// y·H, Horner over the 32 nibbles of y from the highest-degree one
    /// (the low bits of the u128) down.
    fn mul(&self, y: u128) -> u128 {
        let mut z = 0u128;
        for i in 0..32 {
            z = (z >> 4) ^ REDUCE4[(z & 15) as usize];
            z ^= self.products[((y >> (4 * i)) & 15) as usize];
        }
        z
    }
}

fn block_to_u128(block: &[u8]) -> u128 {
    let mut padded = [0u8; BLOCK];
    padded[..block.len()].copy_from_slice(block);
    u128::from_be_bytes(padded)
}

/// A GHASH key on the path its AES key runs on.
#[derive(Clone)]
enum Ghash {
    Table(GhashKey),
    /// H, H², H³, H⁴ for PCLMULQDQ.
    Clmul(Hardware, [u128; 4]),
}

impl Ghash {
    /// The hash key H = E_K(0¹²⁸), on `aes`'s path.
    fn new(aes: &Aes) -> Ghash {
        let h = u128::from_be_bytes(aes.encrypt(&[0u8; BLOCK]));
        match aes.hardware() {
            Some(hw) => Ghash::Clmul(hw, hw.ghash_powers(h)),
            None => Ghash::Table(GhashKey::new(h)),
        }
    }

    /// Fold `data`, zero-padded to whole blocks, into the state `y`.
    fn update(&self, y: u128, data: &[u8]) -> u128 {
        match self {
            Ghash::Table(key) => data
                .chunks(BLOCK)
                .fold(y, |y, chunk| key.mul(y ^ block_to_u128(chunk))),
            Ghash::Clmul(hw, powers) => hw.ghash_update(powers, y, data),
        }
    }

    /// GHASH over `aad` then `ciphertext`, with the standard length block.
    fn digest(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let y = self.update(self.update(0, aad), ciphertext);
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        self.update(y, &lengths.to_be_bytes())
    }
}

/// An AES-GCM key (AES-128 or AES-256 depending on key length).
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    ghash: Ghash,
}

impl AesGcm {
    /// Create from a 16- or 32-byte key.
    pub fn new(key: &[u8]) -> AesGcm {
        AesGcm::with(Aes::new(key))
    }

    fn with(aes: Aes) -> AesGcm {
        AesGcm {
            ghash: Ghash::new(&aes),
            aes,
        }
    }

    /// The key on the table paths whatever the CPU.
    #[cfg(test)]
    fn table_only(key: &[u8]) -> AesGcm {
        AesGcm::with(Aes::table_only(key))
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut j0 = [0u8; BLOCK];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK - 1] = 1;
        let e_j0 = self.aes.encrypt(&j0);
        let s = self.ghash.digest(aad, ciphertext);
        let tag = s ^ u128::from_be_bytes(e_j0);
        tag.to_be_bytes()
    }

    /// Encrypt `plaintext` in place and return the authentication tag.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        ctr_apply(&self.aes, nonce, 2, data);
        self.tag(nonce, aad, data)
    }

    /// Encrypt, returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verify the tag and decrypt in place. On failure the data is left
    /// encrypted and an error is returned.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), AeadError> {
        let expected = self.tag(nonce, aad, data);
        if !ct_eq(&expected, tag) {
            return Err(AeadError);
        }
        ctr_apply(&self.aes, nonce, 2, data);
        Ok(())
    }

    /// Decrypt `ciphertext || tag` produced by [`AesGcm::seal`].
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        if sealed.len() < TAG_LEN {
            return Err(AeadError);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut out = ciphertext.to_vec();
        self.open_in_place(nonce, aad, &mut out, tag)?;
        Ok(out)
    }
}

/// Bit-serial GHASH, and an AES-GCM seal built from it and the
/// byte-oriented AES: the differential oracles of the table paths.
#[cfg(test)]
mod oracle {
    use super::*;

    /// GF(2^128) multiplication, treating blocks as bit-reflected
    /// polynomials per the GCM specification.
    pub fn ghash_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = y;
        // Process x from the most significant bit (bit 0 of the GCM ordering).
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                // R = 11100001 || 0^120
                v ^= 0xe1u128 << 120;
            }
        }
        z
    }

    /// `ciphertext || tag` for a 96-bit nonce.
    pub fn seal(key: &[u8], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let encrypt = |block: &[u8; BLOCK]| crate::aes::oracle::encrypt(key, block);
        let mut out = crate::aes::oracle::ctr(key, nonce, 2, plaintext);
        let h = u128::from_be_bytes(encrypt(&[0u8; BLOCK]));
        let mut y = 0u128;
        for chunk in aad.chunks(BLOCK).chain(out.chunks(BLOCK)) {
            y = ghash_mul(y ^ block_to_u128(chunk), h);
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
        let s = ghash_mul(y ^ lengths, h);
        let mut j0 = [0u8; BLOCK];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK - 1] = 1;
        let tag = s ^ u128::from_be_bytes(encrypt(&j0));
        out.extend_from_slice(&tag.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::ghash_mul;
    use proptest::prelude::*;

    /// The key on the table paths, then as dispatched (AES-NI and
    /// PCLMULQDQ where the CPU has them): every test runs both.
    fn both(key: &[u8]) -> [AesGcm; 2] {
        [AesGcm::table_only(key), AesGcm::new(key)]
    }

    /// Y ← (Y ⊕ X)·H over `data`'s zero-padded blocks, bit-serially.
    fn bit_serial_fold(h: u128, y: u128, data: &[u8]) -> u128 {
        data.chunks(BLOCK)
            .fold(y, |y, chunk| ghash_mul(y ^ block_to_u128(chunk), h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_table_ghash_matches_bit_serial(h in any::<u128>(), y in any::<u128>()) {
            prop_assert_eq!(GhashKey::new(h).mul(y), ghash_mul(y, h));
        }

        /// One block, whole four-block groups and the blocks after them.
        #[test]
        fn prop_clmul_ghash_matches_bit_serial(
            h in any::<u128>(),
            y in any::<u128>(),
            data in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            if let Some(hw) = Hardware::detect() {
                let powers = hw.ghash_powers(h);
                prop_assert_eq!(hw.ghash_update(&powers, 0, &y.to_be_bytes()), ghash_mul(y, h));
                prop_assert_eq!(hw.ghash_update(&powers, y, &data), bit_serial_fold(h, y, &data));
            }
        }

        #[test]
        fn prop_seal_and_open_match_oracle(
            key in prop_oneof![
                proptest::collection::vec(any::<u8>(), 16..17),
                proptest::collection::vec(any::<u8>(), 32..33),
            ],
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            plaintext in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let expected = oracle::seal(&key, &nonce, &aad, &plaintext);
            for gcm in both(&key) {
                let sealed = gcm.seal(&nonce, &aad, &plaintext);
                prop_assert_eq!(&sealed, &expected);
                prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext.clone());
            }
        }
    }

    #[test]
    fn table_ghash_edges_match_bit_serial() {
        // Single bits of H and y exercise every table entry and every
        // reduction nibble.
        let edges: Vec<u128> = (0..128).map(|i| 1u128 << i).chain([0, u128::MAX]).collect();
        for &h in &edges {
            let key = GhashKey::new(h);
            for &y in &edges {
                assert_eq!(key.mul(y), ghash_mul(y, h));
            }
        }
    }

    /// Single bits of H and y through PCLMULQDQ: every bit of the 256-bit
    /// product and of both reduction phases; then H's powers.
    #[test]
    fn clmul_ghash_edges_match_bit_serial() {
        let Some(hw) = Hardware::detect() else {
            return;
        };
        let edges: Vec<u128> = (0..128).map(|i| 1u128 << i).chain([0, u128::MAX]).collect();
        for &h in &edges {
            let powers = hw.ghash_powers(h);
            let mut power = h;
            for (i, &p) in powers.iter().enumerate() {
                assert_eq!(p, power, "H^{} of {h:#x}", i + 1);
                power = ghash_mul(power, h);
            }
            for &y in &edges {
                assert_eq!(
                    hw.ghash_update(&powers, 0, &y.to_be_bytes()),
                    ghash_mul(y, h)
                );
            }
        }
    }

    /// AES-128 and AES-256, with and without AAD, at lengths around the
    /// block, the four-block GHASH group and the eight-block CTR group, up
    /// to 4 KiB.
    #[test]
    fn seal_matches_the_oracle_at_every_edge_length() {
        let lengths = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096];
        let nonce = [0x5au8; 12];
        for key in [&[0x42u8; 16][..], &[0x24u8; 32][..]] {
            for aad in [&b""[..], &[0xa5u8; 20][..], &[0x5au8; 64][..]] {
                for len in lengths {
                    let plaintext: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                    let expected = oracle::seal(key, &nonce, aad, &plaintext);
                    for gcm in both(key) {
                        let sealed = gcm.seal(&nonce, aad, &plaintext);
                        let case = format!(
                            "{}-byte key, {}-byte aad, {len} bytes",
                            key.len(),
                            aad.len()
                        );
                        assert_eq!(sealed, expected, "{case}");
                        assert_eq!(gcm.open(&nonce, aad, &sealed).unwrap(), plaintext, "{case}");
                    }
                }
            }
        }
    }

    /// A CPU reporting AES-NI, PCLMULQDQ and SSSE3 runs AES on AES-NI and
    /// GHASH on PCLMULQDQ: a detection bug must not fall back to the table
    /// paths, about ten times slower, unseen.
    #[test]
    fn a_cpu_with_aes_pclmulqdq_and_ssse3_dispatches_to_hardware() {
        #[cfg(target_arch = "x86_64")]
        let capable = std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3");
        #[cfg(not(target_arch = "x86_64"))]
        let capable = false;
        assert_eq!(Hardware::detect().is_some(), capable);
        let clmul = |gcm: &AesGcm| matches!(gcm.ghash, Ghash::Clmul(..));
        for key in [&[1u8; 16][..], &[2u8; 32][..]] {
            assert_eq!(Aes::new(key).hardware().is_some(), capable);
            assert_eq!(clmul(&AesGcm::new(key)), capable);
            assert_eq!(Aes::table_only(key).hardware(), None);
            assert!(!clmul(&AesGcm::table_only(key)));
        }
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST GCM test case 1: zero key, zero nonce, empty everything.
    #[test]
    fn nist_case1_empty() {
        for gcm in both(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], &[], &[]);
            assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
        }
    }

    // NIST GCM test case 2: zero key/nonce, 16 zero bytes of plaintext.
    #[test]
    fn nist_case2_one_block() {
        for gcm in both(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], &[], &[0u8; 16]);
            assert_eq!(
                hex(&sealed),
                "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
            );
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        let nonce = [5u8; 12];
        for gcm in both(&[3u8; 32]) {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let sealed = gcm.seal(&nonce, b"aad", &pt);
                assert_eq!(sealed.len(), len + TAG_LEN);
                assert_eq!(gcm.open(&nonce, b"aad", &sealed).unwrap(), pt, "len {len}");
            }
        }
    }

    #[test]
    fn tamper_detection() {
        let nonce = [0u8; 12];
        // 102 bytes: a four-block GHASH group, two blocks and a partial one.
        let plaintext = b"secret credential".repeat(6);
        for gcm in both(&[1u8; 16]) {
            let sealed = gcm.seal(&nonce, b"header", &plaintext);
            // Flip each byte in turn: every position must break authentication.
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0x80;
                assert!(gcm.open(&nonce, b"header", &bad).is_err(), "byte {i}");
            }
            // And every bit of the tag.
            for bit in 0..8 * TAG_LEN {
                let mut bad = sealed.clone();
                bad[plaintext.len() + bit / 8] ^= 1 << (bit % 8);
                assert!(gcm.open(&nonce, b"header", &bad).is_err(), "tag bit {bit}");
            }
            // Wrong AAD.
            assert!(gcm.open(&nonce, b"Header", &sealed).is_err());
            // Wrong nonce.
            assert!(gcm.open(&[1u8; 12], b"header", &sealed).is_err());
            // Truncated.
            assert!(gcm.open(&nonce, b"header", &sealed[..TAG_LEN - 1]).is_err());
        }
    }

    #[test]
    fn open_in_place_leaves_data_on_failure() {
        let nonce = [0u8; 12];
        for gcm in both(&[1u8; 16]) {
            let mut data = b"some plaintext bytes".to_vec();
            let tag = gcm.seal_in_place(&nonce, &[], &mut data);
            let ciphertext_copy = data.clone();
            let mut bad_tag = tag;
            bad_tag[0] ^= 1;
            assert!(gcm.open_in_place(&nonce, &[], &mut data, &bad_tag).is_err());
            assert_eq!(data, ciphertext_copy, "failed open must not decrypt");
            gcm.open_in_place(&nonce, &[], &mut data, &tag).unwrap();
            assert_eq!(data, b"some plaintext bytes");
        }
    }

    #[test]
    fn ghash_mul_algebra() {
        // Commutativity and the identity element (x^0 reflected = MSB-first 1).
        let one = 1u128 << 127;
        for (a, b) in [(3u128, 7u128), (u128::MAX, 12345), (1 << 127, 1)] {
            assert_eq!(ghash_mul(a, b), ghash_mul(b, a));
            assert_eq!(ghash_mul(a, one), a);
        }
        assert_eq!(ghash_mul(0, 12345), 0);
    }

    #[test]
    fn aes256_gcm_roundtrip() {
        for gcm in both(&[9u8; 32]) {
            let sealed = gcm.seal(&[1u8; 12], &[], b"top secret");
            assert_eq!(gcm.open(&[1u8; 12], &[], &sealed).unwrap(), b"top secret");
        }
    }
}
