//! The x86-64 hardware paths of [`crate::aes`], [`crate::gcm`] and
//! [`crate::sha2`]: AES-NI rounds over the table path's key schedule,
//! eight counter blocks in flight; GHASH on PCLMULQDQ, four blocks to one
//! reduction; and SHA-256's compression on the SHA extensions.
//!
//! A [`Hardware`] value is the proof that CPUID reported AES-NI,
//! PCLMULQDQ and SSSE3, and a [`ShaExtensions`] value the proof that it
//! reported SHA, SSSE3 and SSE4.1: only their `detect` makes one, and
//! every method that runs the instructions takes one. `Aes`, `AesGcm` and
//! `Sha256` hold one when the CPU has the instructions and run the
//! portable paths otherwise; there is no switch. The crate's intrinsics,
//! and all their `unsafe`, sit in this module, next to those checks; the
//! crate denies `unsafe_code` everywhere else but the volatile wipe in
//! [`crate::ct`].
//!
//! Unlike the table paths, these are constant-time: AESENC, PCLMULQDQ and
//! SHA256RNDS2 take no secret-dependent memory index or branch.

use crate::aes::BLOCK;

/// CPUID reported AES-NI, PCLMULQDQ and SSSE3 (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hardware(());

impl Hardware {
    /// `Some` exactly when CPUID reports `aes`, `pclmulqdq` and `ssse3`.
    pub(crate) fn detect() -> Option<Hardware> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            return Some(Hardware(()));
        }
        None
    }

    /// Encrypt one block under the expanded key `round_keys` (big-endian
    /// schedule words, as `Aes` keeps them) of `rounds` rounds.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn encrypt_block(
        self,
        round_keys: &[u32; 60],
        rounds: usize,
        block: &mut [u8; BLOCK],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` saw `aes` in CPUID,
            // the one feature `ni::encrypt_block` enables.
            unsafe { ni::encrypt_block(round_keys, rounds, block) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("{self:?} is only ever made on x86-64")
        }
    }

    /// XOR `data` with the CTR keystream of `nonce` from
    /// `initial_counter`, the counter wrapping in its 32 bits.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn ctr_apply(
        self,
        round_keys: &[u32; 60],
        rounds: usize,
        nonce: &[u8; 12],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` saw `aes` in CPUID,
            // the one feature `ni::ctr_apply` enables.
            unsafe { ni::ctr_apply(round_keys, rounds, nonce, initial_counter, data) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("{self:?} is only ever made on x86-64")
        }
    }

    /// H, H², H³ and H⁴ for [`ghash_update`](Self::ghash_update), as GCM's
    /// bit-reflected `u128`s (`u128::from_be_bytes` of the block).
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn ghash_powers(self, h: u128) -> [u128; 4] {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` saw `pclmulqdq` and
            // `ssse3` in CPUID, the features `clmul::powers` enables.
            unsafe { clmul::powers(h) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("{self:?} is only ever made on x86-64")
        }
    }

    /// Fold `data`, zero-padded to whole blocks, into the GHASH state `y`
    /// under the key whose powers are `powers`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn ghash_update(self, powers: &[u128; 4], y: u128, data: &[u8]) -> u128 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` saw `pclmulqdq` and
            // `ssse3` in CPUID, the features `clmul::update` enables.
            unsafe { clmul::update(powers, y, data) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("{self:?} is only ever made on x86-64")
        }
    }
}

/// CPUID reported the SHA extensions, SSSE3 and SSE4.1 (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShaExtensions(());

impl ShaExtensions {
    /// `Some` exactly when CPUID reports `sha`, `ssse3` and `sse4.1`.
    pub(crate) fn detect() -> Option<ShaExtensions> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(ShaExtensions(()));
        }
        None
    }

    /// Run SHA-256's compression function on `state` over each 64-byte
    /// block of `blocks` in turn, with the round constants `k`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn sha256_compress(self, state: &mut [u32; 8], k: &[u32; 64], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64), "whole blocks only");
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` saw `sha`, `ssse3`
            // and `sse4.1` in CPUID, the features `sha_ni::compress` enables.
            unsafe { sha_ni::compress(state, k, blocks) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("{self:?} is only ever made on x86-64")
        }
    }
}

/// Unaligned 16-byte loads and stores. SSE2 is part of x86-64, so these
/// need no CPUID check.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::BLOCK;
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_storeu_si128};

    pub(super) fn load(bytes: &[u8; BLOCK]) -> __m128i {
        // SAFETY: SSE2 is baseline on x86-64 (no CPUID check needed);
        // `bytes` is 16 readable bytes and the load takes any alignment.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    pub(super) fn store(bytes: &mut [u8; BLOCK], value: __m128i) {
        // SAFETY: SSE2 is baseline on x86-64 (no CPUID check needed);
        // `bytes` is 16 writable bytes and the store takes any alignment.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), value) }
    }

    /// The register whose 128-bit little-endian value is `v`.
    pub(super) fn from_u128(v: u128) -> __m128i {
        load(&v.to_le_bytes())
    }

    pub(super) fn to_u128(value: __m128i) -> u128 {
        let mut bytes = [0u8; BLOCK];
        store(&mut bytes, value);
        u128::from_le_bytes(bytes)
    }
}

/// AES-NI.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::sse2::{load, store};
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// Counter blocks in flight: AESENC's latency is several times its
    /// issue interval, so independent blocks fill the pipeline.
    const LANES: usize = 8;

    /// The schedule as round-key registers: round r is the bytes of words
    /// 4r..4r+4, big-endian, in order.
    #[target_feature(enable = "sse2")]
    fn keys(round_keys: &[u32; 60]) -> [__m128i; 15] {
        let mut keys = [_mm_setzero_si128(); 15];
        for (key, words) in keys.iter_mut().zip(round_keys.chunks_exact(4)) {
            let word = |c: usize| words[c].swap_bytes() as i32;
            *key = _mm_set_epi32(word(3), word(2), word(1), word(0));
        }
        keys
    }

    /// Encrypt every block of `blocks` at once, round by round.
    #[target_feature(enable = "aes")]
    fn encrypt<const N: usize>(keys: &[__m128i; 15], rounds: usize, blocks: &mut [__m128i; N]) {
        for block in blocks.iter_mut() {
            *block = _mm_xor_si128(*block, keys[0]);
        }
        for key in &keys[1..rounds] {
            for block in blocks.iter_mut() {
                *block = _mm_aesenc_si128(*block, *key);
            }
        }
        for block in blocks.iter_mut() {
            *block = _mm_aesenclast_si128(*block, keys[rounds]);
        }
    }

    #[target_feature(enable = "aes")]
    pub(super) fn encrypt_block(round_keys: &[u32; 60], rounds: usize, block: &mut [u8; BLOCK]) {
        let mut blocks = [load(block)];
        encrypt(&keys(round_keys), rounds, &mut blocks);
        store(block, blocks[0]);
    }

    #[target_feature(enable = "aes")]
    pub(super) fn ctr_apply(
        round_keys: &[u32; 60],
        rounds: usize,
        nonce: &[u8; 12],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        let keys = keys(round_keys);
        let word = |i: usize| i32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("word"));
        let (n0, n1, n2) = (word(0), word(1), word(2));
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(LANES * BLOCK) {
            let mut blocks = [_mm_setzero_si128(); LANES];
            for block in blocks.iter_mut() {
                // Bytes 12..16 hold the counter big-endian.
                *block = _mm_set_epi32(counter.swap_bytes() as i32, n2, n1, n0);
                counter = counter.wrapping_add(1);
            }
            encrypt(&keys, rounds, &mut blocks);
            if chunk.len() == LANES * BLOCK {
                for (bytes, keystream) in chunk.chunks_exact_mut(BLOCK).zip(blocks) {
                    let bytes: &mut [u8; BLOCK] = bytes.try_into().expect("a whole block");
                    store(bytes, _mm_xor_si128(load(bytes), keystream));
                }
            } else {
                // The last, short chunk: the keystream past its end is
                // never used.
                let mut keystream = [0u8; LANES * BLOCK];
                for (bytes, block) in keystream.chunks_exact_mut(BLOCK).zip(blocks) {
                    store(bytes.try_into().expect("a whole block"), block);
                }
                for (b, k) in chunk.iter_mut().zip(keystream) {
                    *b ^= k;
                }
            }
        }
    }
}

/// GHASH on PCLMULQDQ. A register holds a block byte-reversed, so that its
/// 128-bit value is GCM's bit-reflected `u128` (`from_be_bytes`); the
/// product of two such values comes out one bit short, which
/// [`reduce`] shifts back before folding the high half in (Gueron and
/// Kounavis, *Intel Carry-Less Multiplication Instruction and its Usage
/// for Computing the GCM Mode*).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::sse2::{from_u128, load, to_u128};
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// The 256-bit carry-less product of `a` and `b` as (low, high).
    #[target_feature(enable = "pclmulqdq")]
    fn product(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
        let low = _mm_clmulepi64_si128(a, b, 0x00);
        let high = _mm_clmulepi64_si128(a, b, 0x11);
        let middle = _mm_xor_si128(
            _mm_clmulepi64_si128(a, b, 0x01),
            _mm_clmulepi64_si128(a, b, 0x10),
        );
        (
            _mm_xor_si128(low, _mm_slli_si128(middle, 8)),
            _mm_xor_si128(high, _mm_srli_si128(middle, 8)),
        )
    }

    /// Reduce a 256-bit product (or the XOR of several) modulo
    /// x¹²⁸ + x⁷ + x² + x + 1, in the reflected representation.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(low: __m128i, high: __m128i) -> __m128i {
        // Shift the 256 bits left by one.
        let low_carry = _mm_srli_epi32(low, 31);
        let high_carry = _mm_srli_epi32(high, 31);
        let low = _mm_or_si128(_mm_slli_epi32(low, 1), _mm_slli_si128(low_carry, 4));
        let high = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi32(high, 1), _mm_slli_si128(high_carry, 4)),
            _mm_srli_si128(low_carry, 12),
        );
        // Fold the low half into the high in two phases; the shifts by
        // 31, 30, 25 and then 1, 2, 7 are the x, x² and x⁷ terms.
        let folded = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi32(low, 31), _mm_slli_epi32(low, 30)),
            _mm_slli_epi32(low, 25),
        );
        let spill = _mm_srli_si128(folded, 4);
        let low = _mm_xor_si128(low, _mm_slli_si128(folded, 12));
        let shifted = _mm_xor_si128(
            _mm_xor_si128(_mm_srli_epi32(low, 1), _mm_srli_epi32(low, 2)),
            _mm_srli_epi32(low, 7),
        );
        let low = _mm_xor_si128(low, _mm_xor_si128(shifted, spill));
        _mm_xor_si128(high, low)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn mul(a: __m128i, b: __m128i) -> __m128i {
        let (low, high) = product(a, b);
        reduce(low, high)
    }

    /// A block as its reflected register (the bytes reversed).
    #[target_feature(enable = "ssse3")]
    fn reflect(block: &[u8; BLOCK]) -> __m128i {
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        _mm_shuffle_epi8(load(block), reverse)
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) fn powers(h: u128) -> [u128; 4] {
        let h1 = from_u128(h);
        let h2 = mul(h1, h1);
        let h3 = mul(h2, h1);
        let h4 = mul(h3, h1);
        [h1, h2, h3, h4].map(to_u128)
    }

    /// Y ← (…((Y ⊕ X₁)·H ⊕ X₂)·H …)·H over the blocks X of `data`. Four
    /// blocks at a time this is (Y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕ X₄·H: four
    /// products XORed unreduced, then one reduction.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) fn update(powers: &[u128; 4], y: u128, data: &[u8]) -> u128 {
        let h = powers.map(from_u128);
        let mut y = from_u128(y);
        let mut groups = data.chunks_exact(4 * BLOCK);
        for group in &mut groups {
            let (mut low, mut high) = (_mm_setzero_si128(), _mm_setzero_si128());
            for (i, block) in group.chunks_exact(BLOCK).enumerate() {
                let mut x = reflect(block.try_into().expect("a whole block"));
                if i == 0 {
                    x = _mm_xor_si128(x, y);
                }
                let (l, hi) = product(x, h[3 - i]);
                low = _mm_xor_si128(low, l);
                high = _mm_xor_si128(high, hi);
            }
            y = reduce(low, high);
        }
        for chunk in groups.remainder().chunks(BLOCK) {
            let mut block = [0u8; BLOCK];
            block[..chunk.len()].copy_from_slice(chunk);
            y = mul(_mm_xor_si128(y, reflect(&block)), h[0]);
        }
        to_u128(y)
    }
}

/// SHA-256 on the SHA extensions (Gulley et al., *Intel SHA Extensions*,
/// 2013). The state sits in two registers as ABEF and CDGH; SHA256RNDS2
/// runs two rounds on the low two words of message plus constant, and
/// SHA256MSG1 and SHA256MSG2 extend the message schedule four words at a
/// time: with Mⱼ = W[4j..4j+4],
/// Mⱼ = MSG2(MSG1(Mⱼ₋₄, Mⱼ₋₃) + (Mⱼ₋₂[1..4], Mⱼ₋₁[0]), Mⱼ₋₁).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::sse2::{load, store};
    use std::arch::x86_64::*;

    /// Four words, the first in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn words(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], k: &[u32; 64], blocks: &[u8]) {
        // DCBA and HGFE (A in the lowest lane) into ABEF and CDGH.
        let cdab = _mm_shuffle_epi32(words(&state[..4]), 0xb1);
        let efgh = _mm_shuffle_epi32(words(&state[4..]), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        // Message words are big-endian.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // m[j % 4] holds Mⱼ for the latest j.
            let mut m = [_mm_setzero_si128(); 4];
            for j in 0..16 {
                m[j % 4] = if j < 4 {
                    let bytes = block[16 * j..16 * j + 16].try_into().expect("16 bytes");
                    _mm_shuffle_epi8(load(bytes), byte_swap)
                } else {
                    let [m4, m3, m2, m1] = [0, 1, 2, 3].map(|i| m[(j + i) % 4]);
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(m4, m3), _mm_alignr_epi8(m1, m2, 4));
                    _mm_sha256msg2_epu32(sum, m1)
                };
                let wk = _mm_add_epi32(m[j % 4], words(&k[4 * j..]));
                // Two rounds make the new ABEF; the old ABEF becomes CDGH.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        // ABEF and CDGH back into DCBA and HGFE.
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        for (half, register) in [
            (0, _mm_blend_epi16(feba, dchg, 0xf0)),
            (4, _mm_alignr_epi8(dchg, feba, 8)),
        ] {
            let mut bytes = [0u8; 16];
            store(&mut bytes, register);
            for (word, le) in state[half..half + 4].iter_mut().zip(bytes.chunks_exact(4)) {
                *word = u32::from_le_bytes(le.try_into().expect("4 bytes"));
            }
        }
    }
}
