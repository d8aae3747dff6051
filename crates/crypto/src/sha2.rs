//! SHA-256 and SHA-512 (FIPS 180-4).
//!
//! The round constants and initial hash values are *derived at first use*
//! from their definition — the fractional parts of the square and cube roots
//! of the first primes — using exact integer arithmetic ([`crate::mpint`]),
//! instead of being transcribed from the standard. The published test
//! vectors in the test module pin the derivation to the real constants.
//!
//! Where CPUID reports the SHA extensions, SSSE3 and SSE4.1, SHA-256's
//! compression runs SHA256RNDS2, SHA256MSG1 and SHA256MSG2 (the private
//! `hw` module), about five times faster per block; every other CPU runs
//! the portable compression below, which the tests keep as the hardware
//! path's oracle. SHA-512 has no such instructions here.

use crate::hw::ShaExtensions;
use crate::mpint::MpInt;
use std::sync::OnceLock;

/// Digest size of SHA-256 in bytes.
pub const SHA256_LEN: usize = 32;
/// Digest size of SHA-512 in bytes.
pub const SHA512_LEN: usize = 64;
/// Block (chunk) size of SHA-256 in bytes.
pub const SHA256_BLOCK: usize = 64;
/// Block (chunk) size of SHA-512 in bytes.
pub const SHA512_BLOCK: usize = 128;

fn primes(n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while out.len() < n {
        if out.iter().all(|&p| !candidate.is_multiple_of(p)) {
            out.push(candidate);
        }
        candidate += 1;
    }
    out
}

/// First `frac_bits` bits of the fractional part of sqrt(p).
fn sqrt_frac(p: u64, frac_bits: usize) -> u64 {
    // floor(sqrt(p * 2^(2*frac_bits))) = floor(sqrt(p) * 2^frac_bits);
    // the low `frac_bits` bits are the fractional part.
    let scaled = MpInt::from_u64(p).shl(2 * frac_bits);
    let root = scaled.isqrt();
    let mask_bits = root.rem(&MpInt::from_u64(1).shl(frac_bits).clone());
    mask_bits.low_u64()
}

/// First `frac_bits` bits of the fractional part of cbrt(p).
fn cbrt_frac(p: u64, frac_bits: usize) -> u64 {
    let scaled = MpInt::from_u64(p).shl(3 * frac_bits);
    let root = scaled.icbrt();
    let mask_bits = root.rem(&MpInt::from_u64(1).shl(frac_bits).clone());
    mask_bits.low_u64()
}

struct Consts256 {
    h: [u32; 8],
    k: [u32; 64],
}

struct Consts512 {
    h: [u64; 8],
    k: [u64; 80],
}

fn consts256() -> &'static Consts256 {
    static CONSTS: OnceLock<Consts256> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let ps = primes(64);
        let mut h = [0u32; 8];
        for i in 0..8 {
            h[i] = sqrt_frac(ps[i], 32) as u32;
        }
        let mut k = [0u32; 64];
        for i in 0..64 {
            k[i] = cbrt_frac(ps[i], 32) as u32;
        }
        Consts256 { h, k }
    })
}

fn consts512() -> &'static Consts512 {
    static CONSTS: OnceLock<Consts512> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let ps = primes(80);
        let mut h = [0u64; 8];
        for i in 0..8 {
            h[i] = sqrt_frac(ps[i], 64);
        }
        let mut k = [0u64; 80];
        for i in 0..80 {
            k[i] = cbrt_frac(ps[i], 64);
        }
        Consts512 { h, k }
    })
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; SHA256_BLOCK],
    buffered: usize,
    total_len: u64,
    /// `Some` when the CPU has the SHA extensions: every block then goes
    /// through them.
    sha_ni: Option<ShaExtensions>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Sha256 {
        Sha256 {
            state: consts256().h,
            buffer: [0; SHA256_BLOCK],
            buffered: 0,
            total_len: 0,
            sha_ni: ShaExtensions::detect(),
        }
    }

    /// A hasher on the portable compression whatever the CPU: the tests'
    /// handle on the path other CPUs run.
    #[cfg(test)]
    fn portable() -> Sha256 {
        Sha256 {
            sha_ni: None,
            ..Sha256::new()
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (SHA256_BLOCK - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == SHA256_BLOCK {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        let whole = data.len() - data.len() % SHA256_BLOCK;
        self.compress(&data[..whole]);
        data = &data[whole..];
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; SHA256_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding, written at once: 0x80, zeros up to 8 bytes short of a
        // block's end, and the 64-bit length; one block, or two when fewer
        // than 9 bytes are left in the buffered one.
        let mut tail = [0u8; 2 * SHA256_BLOCK];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let len = if self.buffered < SHA256_BLOCK - 8 {
            SHA256_BLOCK
        } else {
            2 * SHA256_BLOCK
        };
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&tail[..len]);
        self.digest()
    }

    fn digest(&self) -> [u8; SHA256_LEN] {
        let mut out = [0u8; SHA256_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Run the compression function over whole blocks, on the SHA
    /// extensions when the CPU has them.
    fn compress(&mut self, blocks: &[u8]) {
        match self.sha_ni {
            Some(hw) => hw.sha256_compress(&mut self.state, &consts256().k, blocks),
            None => {
                for block in blocks.chunks_exact(SHA256_BLOCK) {
                    compress256(&mut self.state, block.try_into().expect("a whole block"));
                }
            }
        }
    }
}

/// SHA-256's compression function, portably.
fn compress256(state: &mut [u32; 8], block: &[u8; SHA256_BLOCK]) {
    let k = &consts256().k;
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; SHA256_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Incremental SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; SHA512_BLOCK],
    buffered: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    pub fn new() -> Sha512 {
        Sha512 {
            state: consts512().h,
            buffer: [0; SHA512_BLOCK],
            buffered: 0,
            total_len: 0,
        }
    }

    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buffered > 0 {
            let take = (SHA512_BLOCK - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == SHA512_BLOCK {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= SHA512_BLOCK {
            let block: [u8; SHA512_BLOCK] = data[..SHA512_BLOCK].try_into().expect("block");
            self.compress(&block);
            data = &data[SHA512_BLOCK..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
        self
    }

    pub fn finalize(mut self) -> [u8; SHA512_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding as `Sha256::finalize` writes it, with a 128-bit length.
        let mut tail = [0u8; 2 * SHA512_BLOCK];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let len = if self.buffered < SHA512_BLOCK - 16 {
            SHA512_BLOCK
        } else {
            2 * SHA512_BLOCK
        };
        tail[len - 16..len].copy_from_slice(&bit_len.to_be_bytes());
        for block in tail[..len].chunks_exact(SHA512_BLOCK) {
            self.compress(block.try_into().expect("a whole block"));
        }
        self.digest()
    }

    fn digest(&self) -> [u8; SHA512_LEN] {
        let mut out = [0u8; SHA512_LEN];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; SHA512_BLOCK]) {
        let k = &consts512().k;
        let mut w = [0u64; 80];
        for i in 0..16 {
            w[i] = u64::from_be_bytes(block[i * 8..i * 8 + 8].try_into().expect("word"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-512.
pub fn sha512(data: &[u8]) -> [u8; SHA512_LEN] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A hasher on each compression this CPU can run: the portable one,
    /// and the SHA extensions where CPUID reports them.
    fn both() -> Vec<Sha256> {
        let mut paths = vec![Sha256::portable()];
        if let Some(hw) = ShaExtensions::detect() {
            paths.push(Sha256 {
                sha_ni: Some(hw),
                ..Sha256::new()
            });
        }
        paths
    }

    /// SHA-256 of `data` on every path; they must agree.
    fn sha256_hex(data: &[u8]) -> String {
        let digests: Vec<_> = both()
            .into_iter()
            .map(|mut h| {
                h.update(data);
                h.finalize()
            })
            .collect();
        assert!(digests.iter().all(|d| *d == digests[0]));
        assert_eq!(sha256(data), digests[0]);
        hex(&digests[0])
    }

    /// The padding `finalize` wrote before it wrote it at once: 0x80, then
    /// zeros one `update` at a time, then the length written by hand.
    fn bytewise_finalize256(mut h: Sha256) -> [u8; SHA256_LEN] {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffered != SHA256_BLOCK - 8 {
            h.update(&[0]);
        }
        h.buffer[SHA256_BLOCK - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buffer;
        h.compress(&block);
        h.digest()
    }

    /// As [`bytewise_finalize256`], with SHA-512's 128-bit length.
    fn bytewise_finalize512(mut h: Sha512) -> [u8; SHA512_LEN] {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffered != SHA512_BLOCK - 16 {
            h.update(&[0]);
        }
        h.buffer[SHA512_BLOCK - 16..].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buffer;
        h.compress(&block);
        h.digest()
    }

    #[test]
    fn one_step_padding_matches_bytewise_padding_at_every_length_and_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            for hasher in both() {
                let mut whole = hasher.clone();
                whole.update(input);
                let expected = bytewise_finalize256(whole);
                for split in 0..=len {
                    let mut h = hasher.clone();
                    h.update(&input[..split]).update(&input[split..]);
                    assert_eq!(
                        h.finalize(),
                        expected,
                        "SHA-256, {len} bytes split at {split}"
                    );
                }
            }
            let mut whole = Sha512::new();
            whole.update(input);
            let expected = bytewise_finalize512(whole);
            for split in 0..=len {
                let mut h = Sha512::new();
                h.update(&input[..split]).update(&input[split..]);
                assert_eq!(
                    h.finalize(),
                    expected,
                    "SHA-512, {len} bytes split at {split}"
                );
            }
        }
    }

    /// A CPU reporting SHA, SSSE3 and SSE4.1 runs SHA-256 on the SHA
    /// extensions: a detection bug must not fall back to the portable
    /// compression, about five times slower, unseen.
    #[test]
    fn a_cpu_with_sha_dispatches_to_hardware() {
        #[cfg(target_arch = "x86_64")]
        let capable = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let capable = false;
        assert_eq!(ShaExtensions::detect().is_some(), capable);
        assert_eq!(Sha256::new().sha_ni.is_some(), capable);
        assert_eq!(Sha256::default().sha_ni.is_some(), capable);
        assert_eq!(Sha256::portable().sha_ni, None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_sha_ni_matches_the_portable_compression(
            state in any::<[u32; 8]>(),
            bytes in proptest::collection::vec(any::<u8>(), SHA256_BLOCK..=4 * SHA256_BLOCK),
        ) {
            // Random states and one to four random blocks.
            if let Some(hw) = ShaExtensions::detect() {
                let bytes = &bytes[..bytes.len() - bytes.len() % SHA256_BLOCK];
                let mut expected = state;
                for block in bytes.chunks_exact(SHA256_BLOCK) {
                    compress256(&mut expected, block.try_into().unwrap());
                }
                let mut actual = state;
                hw.sha256_compress(&mut actual, &consts256().k, bytes);
                prop_assert_eq!(actual, expected);
            }
        }

        #[test]
        fn prop_split_updates_match_on_both_paths(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            // The input fed in pieces cut at arbitrary points, on each path,
            // against the portable one-shot digest.
            let mut expected = Sha256::portable();
            expected.update(&data);
            let expected = expected.finalize();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort();
            for mut h in both() {
                let mut start = 0;
                for &cut in cuts.iter().chain([data.len()].iter()) {
                    h.update(&data[start..cut]);
                    start = cut;
                }
                prop_assert_eq!(h.finalize(), expected);
            }
        }
    }

    // FIPS 180-4 / NIST CAVP published vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
                .as_str()
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
                .as_str()
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127, 128, 129, 500] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");

            let mut h = Sha512::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), sha512(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Hash inputs around the padding boundary (55/56/64 bytes for SHA-256).
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Just ensure distinct lengths give distinct digests and one-shot
            // matches incremental; the KATs above pin correctness.
            assert_eq!(h.finalize(), sha256(&data));
        }
    }

    #[test]
    fn derived_constants_match_fips() {
        // Spot-check the first derived constants against FIPS 180-4 values.
        let c = consts256();
        assert_eq!(c.h[0], 0x6a09e667);
        assert_eq!(c.h[7], 0x5be0cd19);
        assert_eq!(c.k[0], 0x428a2f98);
        assert_eq!(c.k[63], 0xc67178f2);
        let c = consts512();
        assert_eq!(c.h[0], 0x6a09e667f3bcc908);
        assert_eq!(c.k[0], 0x428a2f98d728ae22);
        assert_eq!(c.k[79], 0x6c44198c4a475817);
    }
}
