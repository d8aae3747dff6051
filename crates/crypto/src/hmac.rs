//! HMAC (RFC 2104) over SHA-256 and SHA-512.
//!
//! Used for the Verification Manager's HMAC keys (the paper's §2: the VM
//! "generates the HMAC key and nonces"), for HKDF, and for the HMAC-DRBG.

use crate::ct::ct_eq;
use crate::sha2::{
    sha256, sha512, Sha256, Sha512, SHA256_BLOCK, SHA256_LEN, SHA512_BLOCK, SHA512_LEN,
};

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; SHA256_BLOCK],
}

impl HmacSha256 {
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut block_key = [0u8; SHA256_BLOCK];
        if key.len() > SHA256_BLOCK {
            block_key[..SHA256_LEN].copy_from_slice(&sha256(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; SHA256_BLOCK];
        let mut opad = [0x5cu8; SHA256_BLOCK];
        for i in 0..SHA256_BLOCK {
            ipad[i] ^= block_key[i];
            opad[i] ^= block_key[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    pub fn finalize(self) -> [u8; SHA256_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; SHA256_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Constant-time verification of an HMAC-SHA-256 tag.
pub fn verify_hmac_sha256(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
    ct_eq(&hmac_sha256(key, data), tag)
}

/// Incremental HMAC-SHA-512.
#[derive(Clone)]
pub struct HmacSha512 {
    inner: Sha512,
    opad_key: [u8; SHA512_BLOCK],
}

impl HmacSha512 {
    pub fn new(key: &[u8]) -> HmacSha512 {
        let mut block_key = [0u8; SHA512_BLOCK];
        if key.len() > SHA512_BLOCK {
            block_key[..SHA512_LEN].copy_from_slice(&sha512(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; SHA512_BLOCK];
        let mut opad = [0x5cu8; SHA512_BLOCK];
        for i in 0..SHA512_BLOCK {
            ipad[i] ^= block_key[i];
            opad[i] ^= block_key[i];
        }
        let mut inner = Sha512::new();
        inner.update(&ipad);
        HmacSha512 {
            inner,
            opad_key: opad,
        }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    pub fn finalize(self) -> [u8; SHA512_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha512::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-512.
pub fn hmac_sha512(key: &[u8], data: &[u8]) -> [u8; SHA512_LEN] {
    let mut mac = HmacSha512::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac_sha512(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
                .replace(char::is_whitespace, "")
                .as_str()
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"secret key";
        let data: Vec<u8> = (0..500u16).map(|i| i as u8).collect();
        let mut mac = HmacSha256::new(key);
        for part in data.chunks(7) {
            mac.update(part);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &data));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"msg");
        assert!(verify_hmac_sha256(b"k", b"msg", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_hmac_sha256(b"k", b"msg", &bad));
        assert!(!verify_hmac_sha256(b"k", b"msg", &tag[..31]));
        assert!(!verify_hmac_sha256(b"k2", b"msg", &tag));
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
