//! ChaCha20-Poly1305 AEAD (RFC 8439).
//!
//! Provided as the second cipher suite of the TLS channel, so the handshake
//! has a real negotiation to perform (and so E4 can compare suite costs).

use crate::ct::ct_eq;
use crate::gcm::AeadError;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 block function: 64 bytes of keystream for (key, counter, nonce).
fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("word"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("word"));
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Apply the ChaCha20 keystream (encrypt == decrypt).
pub fn chacha20_apply(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let keystream = chacha20_block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

/// Poly1305 one-time authenticator over `msg` with a 32-byte key.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; TAG_LEN] {
    // r is clamped; arithmetic is done in radix-2^26 on u64 limbs with u128
    // accumulation, modulo 2^130 - 5.
    let mut r_bytes = [0u8; 16];
    r_bytes.copy_from_slice(&key[..16]);
    r_bytes[3] &= 15;
    r_bytes[7] &= 15;
    r_bytes[11] &= 15;
    r_bytes[15] &= 15;
    r_bytes[4] &= 252;
    r_bytes[8] &= 252;
    r_bytes[12] &= 252;

    let r = u128::from_le_bytes(r_bytes);
    let r0 = (r & 0x3ffffff) as u64;
    let r1 = ((r >> 26) & 0x3ffffff) as u64;
    let r2 = ((r >> 52) & 0x3ffffff) as u64;
    let r3 = ((r >> 78) & 0x3ffffff) as u64;
    let r4 = ((r >> 104) & 0x3ffffff) as u64;
    // Precomputed 5*r for the reduction.
    let s1 = r1 * 5;
    let s2 = r2 * 5;
    let s3 = r3 * 5;
    let s4 = r4 * 5;

    let mut h = [0u64; 5];
    for chunk in msg.chunks(16) {
        let mut block = [0u8; 17];
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()] = 1; // The "high bit" pad.
        let lo = u128::from_le_bytes(block[..16].try_into().expect("16"));
        let hi = block[16] as u64;
        // h += block
        h[0] += (lo & 0x3ffffff) as u64;
        h[1] += ((lo >> 26) & 0x3ffffff) as u64;
        h[2] += ((lo >> 52) & 0x3ffffff) as u64;
        h[3] += ((lo >> 78) & 0x3ffffff) as u64;
        h[4] += ((lo >> 104) & 0x3ffffff) as u64 + (hi << 24);

        // h *= r (mod 2^130 - 5)
        let d0 = h[0] as u128 * r0 as u128
            + h[1] as u128 * s4 as u128
            + h[2] as u128 * s3 as u128
            + h[3] as u128 * s2 as u128
            + h[4] as u128 * s1 as u128;
        let d1 = h[0] as u128 * r1 as u128
            + h[1] as u128 * r0 as u128
            + h[2] as u128 * s4 as u128
            + h[3] as u128 * s3 as u128
            + h[4] as u128 * s2 as u128;
        let d2 = h[0] as u128 * r2 as u128
            + h[1] as u128 * r1 as u128
            + h[2] as u128 * r0 as u128
            + h[3] as u128 * s4 as u128
            + h[4] as u128 * s3 as u128;
        let d3 = h[0] as u128 * r3 as u128
            + h[1] as u128 * r2 as u128
            + h[2] as u128 * r1 as u128
            + h[3] as u128 * r0 as u128
            + h[4] as u128 * s4 as u128;
        let d4 = h[0] as u128 * r4 as u128
            + h[1] as u128 * r3 as u128
            + h[2] as u128 * r2 as u128
            + h[3] as u128 * r1 as u128
            + h[4] as u128 * r0 as u128;

        // Carry propagation.
        let mut c;
        let mut d1 = d1;
        let mut d2 = d2;
        let mut d3 = d3;
        let mut d4 = d4;
        c = (d0 >> 26) as u64;
        h[0] = (d0 & 0x3ffffff) as u64;
        d1 += c as u128;
        c = (d1 >> 26) as u64;
        h[1] = (d1 & 0x3ffffff) as u64;
        d2 += c as u128;
        c = (d2 >> 26) as u64;
        h[2] = (d2 & 0x3ffffff) as u64;
        d3 += c as u128;
        c = (d3 >> 26) as u64;
        h[3] = (d3 & 0x3ffffff) as u64;
        d4 += c as u128;
        c = (d4 >> 26) as u64;
        h[4] = (d4 & 0x3ffffff) as u64;
        h[0] += c * 5;
        c = h[0] >> 26;
        h[0] &= 0x3ffffff;
        h[1] += c;
    }

    // Full reduction: h mod 2^130 - 5.
    let mut c = h[1] >> 26;
    h[1] &= 0x3ffffff;
    h[2] += c;
    c = h[2] >> 26;
    h[2] &= 0x3ffffff;
    h[3] += c;
    c = h[3] >> 26;
    h[3] &= 0x3ffffff;
    h[4] += c;
    c = h[4] >> 26;
    h[4] &= 0x3ffffff;
    h[0] += c * 5;
    c = h[0] >> 26;
    h[0] &= 0x3ffffff;
    h[1] += c;

    // Compute h + -p = h - (2^130 - 5); select it if non-negative.
    let mut g = [0u64; 5];
    g[0] = h[0].wrapping_add(5);
    c = g[0] >> 26;
    g[0] &= 0x3ffffff;
    g[1] = h[1].wrapping_add(c);
    c = g[1] >> 26;
    g[1] &= 0x3ffffff;
    g[2] = h[2].wrapping_add(c);
    c = g[2] >> 26;
    g[2] &= 0x3ffffff;
    g[3] = h[3].wrapping_add(c);
    c = g[3] >> 26;
    g[3] &= 0x3ffffff;
    g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);
    let use_g = (g[4] >> 63) == 0; // No borrow => h >= p.
    let mask = if use_g { u64::MAX } else { 0 };
    for i in 0..5 {
        h[i] = (g[i] & mask) | (h[i] & !mask);
    }
    h[4] &= 0x3ffffff;

    let h_full = h[0] as u128
        | (h[1] as u128) << 26
        | (h[2] as u128) << 52
        | (h[3] as u128) << 78
        | (h[4] as u128) << 104;
    let s = u128::from_le_bytes(key[16..32].try_into().expect("16"));
    let tag = h_full.wrapping_add(s);
    tag.to_le_bytes()
}

/// ChaCha20-Poly1305 AEAD key.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

impl ChaCha20Poly1305 {
    pub fn new(key: &[u8; KEY_LEN]) -> ChaCha20Poly1305 {
        ChaCha20Poly1305 { key: *key }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let block = chacha20_block(&self.key, 0, nonce);
        let otk: [u8; 32] = block[..32].try_into().expect("32");
        let mut mac_data = Vec::with_capacity(aad.len() + ciphertext.len() + 32);
        mac_data.extend_from_slice(aad);
        mac_data.resize(aad.len().div_ceil(16) * 16, 0);
        mac_data.extend_from_slice(ciphertext);
        mac_data.resize(mac_data.len().div_ceil(16) * 16, 0);
        mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        poly1305(&otk, &mac_data)
    }

    /// Encrypt, returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        chacha20_apply(&self.key, nonce, 1, &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt `ciphertext || tag`.
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
        let expected = self.tag(nonce, aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(AeadError);
        }
        let mut out = ciphertext.to_vec();
        chacha20_apply(&self.key, nonce, 1, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(hex(&block[..16]), "10f1e7e4d13b5915500fdd1fa32071c4");
        assert_eq!(hex(&block[48..64]), "b5129cd1de164eb9cbd083e8a2503c4e");
    }

    // RFC 8439 §2.5.2 Poly1305 test vector.
    #[test]
    fn rfc8439_poly1305_vector() {
        let key: [u8; 32] = <[u8; 32]>::try_from(
            &[
                0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
                0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
                0x41, 0x49, 0xf5, 0x1b,
            ][..],
        )
        .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex(&poly1305(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = (0x80..0xa0u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: Vec<u8> = vec![
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(hex(&ct[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let aead = ChaCha20Poly1305::new(&[7u8; 32]);
        let nonce = [1u8; 12];
        for len in [0usize, 1, 63, 64, 65, 130, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let sealed = aead.seal(&nonce, b"ad", &pt);
            assert_eq!(aead.open(&nonce, b"ad", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tamper_detection() {
        let aead = ChaCha20Poly1305::new(&[2u8; 32]);
        let nonce = [3u8; 12];
        let sealed = aead.seal(&nonce, b"a", b"message");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(aead.open(&nonce, b"a", &bad).is_err(), "byte {i}");
        }
        assert!(aead.open(&nonce, b"b", &sealed).is_err());
        assert!(aead.open(&[4u8; 12], b"a", &sealed).is_err());
    }

    #[test]
    fn keystream_position_independence() {
        let key = [9u8; 32];
        let nonce = [8u8; 12];
        let mut long = vec![0u8; 128];
        chacha20_apply(&key, &nonce, 1, &mut long);
        let mut second = vec![0u8; 64];
        chacha20_apply(&key, &nonce, 2, &mut second);
        assert_eq!(&long[64..], &second[..]);
    }
}
