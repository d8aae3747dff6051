//! AES-128 / AES-256 block encryption and CTR mode (FIPS 197, SP 800-38A).
//!
//! Only the *encryption* direction of the block cipher is implemented: both
//! CTR and GCM use the forward permutation exclusively. The S-box is derived
//! from its algebraic definition (multiplicative inverse in GF(2⁸) followed
//! by the affine transform) rather than transcribed, and pinned by the FIPS
//! 197 known-answer vectors in the tests.
//!
//! The state is four big-endian column words. Each full round is 16 lookups
//! in one 32-bit T-table, derived from the S-box at first use, that fuses
//! SubBytes and MixColumns (rotations of the entry serve the other three
//! rows); ShiftRows is the choice of source column. The test module keeps
//! a byte-oriented key schedule and round (SubBytes, ShiftRows,
//! MixColumns as separate steps) as a differential oracle.
//!
//! On an x86-64 CPU whose CPUID reports AES-NI, PCLMULQDQ and SSSE3,
//! every block instead runs on AES-NI over the same key schedule, eight
//! CTR blocks in flight (module `hw`); the choice is made once per key,
//! at run time, with no switch. That path is constant-time. The T-table
//! path is the only one on other CPUs and the reference the tests compare
//! the hardware against; it indexes tables by secret bytes, so it is not
//! hardened against cache-timing side channels (see the crate docs).

use crate::hw::Hardware;
use std::sync::OnceLock;

/// AES block size in bytes.
pub const BLOCK: usize = 16;

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b; // x^8 = x^4 + x^3 + x + 1 (mod the AES polynomial)
        }
        b >>= 1;
    }
    acc
}

fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(2^8 - 2) = a^254 in GF(2^8).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn sbox() -> &'static [u8; 256] {
    static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
    SBOX.get_or_init(|| {
        let mut table = [0u8; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let b = gf_inv(i as u8);
            *slot = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
        }
        table
    })
}

/// T[x] = the MixColumns column (2·s, s, s, 3·s) of s = S[x] as a
/// big-endian word: what a row-0 input byte x contributes to its output
/// column. Rotating right by 8, 16 and 24 bits gives rows 1, 2 and 3.
fn t_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let s = sbox();
        std::array::from_fn(|x| {
            let v = s[x];
            u32::from_be_bytes([gf_mul(v, 2), v, v, gf_mul(v, 3)])
        })
    })
}

/// Key size variants supported by [`Aes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesKeySize {
    Aes128,
    Aes256,
}

/// An expanded AES encryption key.
#[derive(Clone)]
pub struct Aes {
    /// Big-endian key-schedule words; the first 4·(rounds + 1) are used.
    round_keys: [u32; 60],
    rounds: usize,
    /// `Some` when the CPU runs AES-NI: every block then goes through it.
    hardware: Option<Hardware>,
}

impl Aes {
    /// Expand a 16-byte key (AES-128).
    pub fn new_128(key: &[u8; 16]) -> Aes {
        Aes::expand(key, 4, 10)
    }

    /// Expand a 32-byte key (AES-256).
    pub fn new_256(key: &[u8; 32]) -> Aes {
        Aes::expand(key, 8, 14)
    }

    /// Expand a key of either supported length; panics on other lengths
    /// (callers own key sizing).
    pub fn new(key: &[u8]) -> Aes {
        match key.len() {
            16 => Aes::new_128(key.try_into().expect("16-byte key")),
            32 => Aes::new_256(key.try_into().expect("32-byte key")),
            n => panic!("unsupported AES key length {n}"),
        }
    }

    fn expand(key: &[u8], nk: usize, nr: usize) -> Aes {
        let s = sbox();
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| s[b as usize]));
        let mut w = [0u32; 60];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("word"));
        }
        let mut rcon = 1u8;
        for i in nk..4 * (nr + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Aes {
            round_keys: w,
            rounds: nr,
            hardware: Hardware::detect(),
        }
    }

    /// The key on the T-table path whatever the CPU: the tests' handle on
    /// the path other CPUs run.
    #[cfg(test)]
    pub(crate) fn table_only(key: &[u8]) -> Aes {
        Aes {
            hardware: None,
            ..Aes::new(key)
        }
    }

    /// The hardware this key runs on, if any.
    pub(crate) fn hardware(&self) -> Option<Hardware> {
        self.hardware
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK]) {
        match self.hardware {
            Some(hw) => hw.encrypt_block(&self.round_keys, self.rounds, block),
            None => self.encrypt_block_table(block),
        }
    }

    fn encrypt_block_table(&self, block: &mut [u8; BLOCK]) {
        let (t, s) = (t_table(), sbox());
        let rk = &self.round_keys;
        let byte = |word: u32, row: usize| ((word >> (24 - 8 * row)) & 0xff) as usize;
        let mut st: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("word")) ^ rk[c]
        });
        for round in 1..self.rounds {
            // Output column c, row r reads input column c + r (ShiftRows).
            st = std::array::from_fn(|c| {
                t[byte(st[c], 0)]
                    ^ t[byte(st[(c + 1) % 4], 1)].rotate_right(8)
                    ^ t[byte(st[(c + 2) % 4], 2)].rotate_right(16)
                    ^ t[byte(st[(c + 3) % 4], 3)].rotate_right(24)
                    ^ rk[4 * round + c]
            });
        }
        // The last round has no MixColumns.
        for c in 0..4 {
            let word = u32::from_be_bytes(std::array::from_fn(|r| s[byte(st[(c + r) % 4], r)]))
                ^ rk[4 * self.rounds + c];
            block[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Encrypt and return a copy of the block.
    pub fn encrypt(&self, block: &[u8; BLOCK]) -> [u8; BLOCK] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// AES-CTR keystream application (encrypt == decrypt).
///
/// The 16-byte initial counter block is split as 12-byte nonce + 4-byte
/// big-endian counter, matching the GCM convention.
pub fn ctr_apply(aes: &Aes, nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
    if let Some(hw) = aes.hardware {
        return hw.ctr_apply(&aes.round_keys, aes.rounds, nonce, initial_counter, data);
    }
    let mut counter_block = [0u8; BLOCK];
    counter_block[..12].copy_from_slice(nonce);
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(BLOCK) {
        counter_block[12..].copy_from_slice(&counter.to_be_bytes());
        let keystream = aes.encrypt(&counter_block);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// The byte-oriented key schedule and round, the differential oracle of the
/// T-table path.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    fn expand(key: &[u8], nk: usize, nr: usize) -> Vec<[u8; BLOCK]> {
        let s = sbox();
        let total_words = 4 * (nr + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push(key[i * 4..i * 4 + 4].try_into().expect("word"));
        }
        let mut rcon = 1u8;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = [
                    s[temp[1] as usize],
                    s[temp[2] as usize],
                    s[temp[3] as usize],
                    s[temp[0] as usize],
                ];
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = [
                    s[temp[0] as usize],
                    s[temp[1] as usize],
                    s[temp[2] as usize],
                    s[temp[3] as usize],
                ];
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        w.chunks_exact(4)
            .map(|chunk| {
                let mut rk = [0u8; BLOCK];
                for (i, word) in chunk.iter().enumerate() {
                    rk[i * 4..i * 4 + 4].copy_from_slice(word);
                }
                rk
            })
            .collect()
    }

    /// Encrypt one block under `key` (16 or 32 bytes).
    pub fn encrypt(key: &[u8], block: &[u8; BLOCK]) -> [u8; BLOCK] {
        let round_keys = match key.len() {
            16 => expand(key, 4, 10),
            _ => expand(key, 8, 14),
        };
        let s = sbox();
        let mut block = *block;
        let rounds = round_keys.len() - 1;
        xor_block(&mut block, &round_keys[0]);
        for round_key in &round_keys[1..rounds] {
            sub_bytes(&mut block, s);
            shift_rows(&mut block);
            mix_columns(&mut block);
            xor_block(&mut block, round_key);
        }
        sub_bytes(&mut block, s);
        shift_rows(&mut block);
        xor_block(&mut block, &round_keys[rounds]);
        block
    }

    /// CTR one block at a time: the keystream block for counter c is the
    /// byte-oriented encryption of `nonce || c`.
    pub fn ctr(key: &[u8], nonce: &[u8; 12], initial_counter: u32, data: &[u8]) -> Vec<u8> {
        data.chunks(BLOCK)
            .zip(0u32..)
            .flat_map(|(chunk, i)| {
                let mut counter_block = [0u8; BLOCK];
                counter_block[..12].copy_from_slice(nonce);
                counter_block[12..].copy_from_slice(&initial_counter.wrapping_add(i).to_be_bytes());
                let keystream = encrypt(key, &counter_block);
                chunk
                    .iter()
                    .zip(keystream)
                    .map(|(b, k)| b ^ k)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn xor_block(block: &mut [u8; BLOCK], key: &[u8; BLOCK]) {
        for i in 0..BLOCK {
            block[i] ^= key[i];
        }
    }

    fn sub_bytes(block: &mut [u8; BLOCK], s: &[u8; 256]) {
        for b in block.iter_mut() {
            *b = s[*b as usize];
        }
    }

    // State is column-major: byte index = 4*col + row.
    fn shift_rows(block: &mut [u8; BLOCK]) {
        let orig = *block;
        for row in 1..4 {
            for col in 0..4 {
                block[4 * col + row] = orig[4 * ((col + row) % 4) + row];
            }
        }
    }

    fn mix_columns(block: &mut [u8; BLOCK]) {
        for col in 0..4 {
            let c = &mut block[4 * col..4 * col + 4];
            let [a0, a1, a2, a3] = [c[0], c[1], c[2], c[3]];
            c[0] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
            c[1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
            c[2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
            c[3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The key on the table path, then as dispatched (AES-NI where the
    /// CPU has it): every test runs both.
    fn both(key: &[u8]) -> [Aes; 2] {
        [Aes::table_only(key), Aes::new(key)]
    }

    /// Lengths around the block and the eight-block group, up to 4 KiB.
    const LENGTHS: [usize; 13] = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_aes128_matches_bytewise_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            for aes in both(&key) {
                prop_assert_eq!(aes.encrypt(&block), oracle::encrypt(&key, &block));
            }
        }

        #[test]
        fn prop_aes256_matches_bytewise_oracle(key in any::<[u8; 32]>(), block in any::<[u8; 16]>()) {
            for aes in both(&key) {
                prop_assert_eq!(aes.encrypt(&block), oracle::encrypt(&key, &block));
            }
        }

        #[test]
        fn prop_ctr_matches_blockwise_oracle(
            key in prop_oneof![
                proptest::collection::vec(any::<u8>(), 16..17),
                proptest::collection::vec(any::<u8>(), 32..33),
            ],
            nonce in any::<[u8; 12]>(),
            counter in any::<u32>(),
            data in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let expected = oracle::ctr(&key, &nonce, counter, &data);
            for aes in both(&key) {
                let mut out = data.clone();
                ctr_apply(&aes, &nonce, counter, &mut out);
                prop_assert_eq!(&out, &expected);
            }
        }
    }

    #[test]
    fn t_table_matches_bytewise_round_on_every_byte() {
        // Each byte value in each position, through both key sizes.
        for key in [&[0x5au8; 16][..], &[0xa5u8; 32][..]] {
            for aes in both(key) {
                for v in 0..=255u8 {
                    for pos in 0..BLOCK {
                        let mut block = [0u8; BLOCK];
                        block[pos] = v;
                        assert_eq!(aes.encrypt(&block), oracle::encrypt(key, &block));
                    }
                }
            }
        }
    }

    #[test]
    fn ctr_matches_the_oracle_at_every_edge_length() {
        for key in [&[0x3cu8; 16][..], &[0xc3u8; 32][..]] {
            for len in LENGTHS {
                let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let expected = oracle::ctr(key, &[4u8; 12], 2, &data);
                for aes in both(key) {
                    let mut out = data.clone();
                    ctr_apply(&aes, &[4u8; 12], 2, &mut out);
                    assert_eq!(out, expected, "{}-byte key, {len} bytes", key.len());
                }
            }
        }
    }

    /// From 0xFFFF_FFFE the counter wraps to 0 and 1 inside the first
    /// eight-block group, and the nonce part stays as it is.
    #[test]
    fn ctr_counter_wraps_inside_one_group() {
        let nonce = [0xeeu8; 12];
        for key in [&[0x11u8; 16][..], &[0x22u8; 32][..]] {
            let data: Vec<u8> = (0..8 * BLOCK + 5).map(|i| i as u8).collect();
            let expected = oracle::ctr(key, &nonce, 0xFFFF_FFFE, &data);
            for aes in both(key) {
                let mut out = data.clone();
                ctr_apply(&aes, &nonce, 0xFFFF_FFFE, &mut out);
                assert_eq!(out, expected);
                let mut third = data[2 * BLOCK..3 * BLOCK].to_vec();
                ctr_apply(&aes, &nonce, 0, &mut third);
                assert_eq!(third, out[2 * BLOCK..3 * BLOCK], "block 2 is counter 0");
            }
        }
    }

    #[test]
    fn sbox_known_entries() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7c);
        assert_eq!(s[0x53], 0xed);
        assert_eq!(s[0xff], 0x16);
    }

    #[test]
    fn sbox_is_permutation() {
        let s = sbox();
        let mut seen = [false; 256];
        for &v in s.iter() {
            assert!(!seen[v as usize], "duplicate s-box value {v:#x}");
            seen[v as usize] = true;
        }
    }

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_aes128_vector() {
        let key: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        for aes in both(&key) {
            assert_eq!(hex(&aes.encrypt(&pt)), "69c4e0d86a7b0430d8cdb78070b4c55a");
        }
    }

    // FIPS 197 Appendix C.3.
    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        for aes in both(&key) {
            assert_eq!(hex(&aes.encrypt(&pt)), "8ea2b7ca516745bfeafc49904b496089");
        }
    }

    #[test]
    fn ctr_roundtrip_and_offsets() {
        let nonce = [9u8; 12];
        let original: Vec<u8> = (0..100u8).collect();
        for aes in both(&[7u8; 16]) {
            let mut data = original.clone();
            ctr_apply(&aes, &nonce, 1, &mut data);
            assert_ne!(data, original);
            ctr_apply(&aes, &nonce, 1, &mut data);
            assert_eq!(data, original);
        }
    }

    #[test]
    fn ctr_counter_independence() {
        // Encrypting block N alone must match block N of a longer stream.
        let nonce = [2u8; 12];
        for aes in both(&[1u8; 16]) {
            let mut long = vec![0u8; 48];
            ctr_apply(&aes, &nonce, 1, &mut long);
            let mut third = vec![0u8; 16];
            ctr_apply(&aes, &nonce, 3, &mut third);
            assert_eq!(&long[32..48], &third[..]);
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let pt = [0u8; 16];
        for (a, b) in both(&[1u8; 16]).into_iter().zip(both(&[2u8; 16])) {
            assert_ne!(a.encrypt(&pt), b.encrypt(&pt));
        }
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn rejects_bad_key_length() {
        let _ = Aes::new(&[0u8; 24]);
    }

    #[test]
    fn gf_mul_properties() {
        // x * 1 = x; distributivity spot checks.
        for x in 0..=255u8 {
            assert_eq!(gf_mul(x, 1), x);
            assert_eq!(gf_mul(x, 0), 0);
        }
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
    }

    #[test]
    fn gf_inv_is_inverse() {
        for x in 1..=255u8 {
            assert_eq!(gf_mul(x, gf_inv(x)), 1, "inverse of {x:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }
}
