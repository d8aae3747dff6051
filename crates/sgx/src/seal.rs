//! Sealed storage: AEAD blobs under `EGETKEY`-derived keys.
//!
//! The VNF credential enclave seals provisioned keys so they survive
//! restarts without ever existing in host-readable plaintext. Blobs are
//! bound to the sealing policy (exact enclave vs. same author), the SVN at
//! sealing time (rollback protection) and the platform fuse key.

use crate::SgxError;
use vnfguard_crypto::gcm::AesGcm;
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_POLICY: u8 = 0x60;
const TAG_SVN: u8 = 0x61;
const TAG_PROD_ID: u8 = 0x62;
const TAG_KEY_ID: u8 = 0x63;
const TAG_NONCE: u8 = 0x64;
const TAG_CIPHERTEXT: u8 = 0x65;

/// Which identity the sealing key binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealPolicy {
    /// Bound to the exact enclave measurement: only the identical enclave
    /// can unseal.
    MrEnclave,
    /// Bound to the enclave author: any enclave from the same signer with
    /// the same product id (and SVN ≥ sealing SVN) can unseal — this is the
    /// upgrade/migration path.
    MrSigner,
}

impl SealPolicy {
    fn to_u8(self) -> u8 {
        match self {
            SealPolicy::MrEnclave => 1,
            SealPolicy::MrSigner => 2,
        }
    }

    fn from_u8(v: u8) -> Result<SealPolicy, SgxError> {
        match v {
            1 => Ok(SealPolicy::MrEnclave),
            2 => Ok(SealPolicy::MrSigner),
            other => Err(SgxError::Encoding(format!("bad seal policy {other}"))),
        }
    }
}

/// An encrypted, integrity-protected blob sealed to an enclave identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    pub policy: SealPolicy,
    /// ISV SVN at sealing time (the unsealing enclave must be ≥ this).
    pub svn: u16,
    pub isv_prod_id: u16,
    /// Key-derivation diversifier.
    pub key_id: [u8; 16],
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
}

impl SealedBlob {
    /// Seal plaintext under a derived key. Internal: use
    /// [`crate::enclave::EnclaveContext::seal`] from enclave code.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn seal(
        key: &[u8; 32],
        policy: SealPolicy,
        svn: u16,
        isv_prod_id: u16,
        key_id: [u8; 16],
        nonce: [u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<SealedBlob, SgxError> {
        let gcm = AesGcm::new(key);
        let mut bound_aad = aad.to_vec();
        bound_aad.push(policy.to_u8());
        bound_aad.extend_from_slice(&svn.to_be_bytes());
        bound_aad.extend_from_slice(&isv_prod_id.to_be_bytes());
        let ciphertext = gcm.seal(&nonce, &bound_aad, plaintext);
        Ok(SealedBlob {
            policy,
            svn,
            isv_prod_id,
            key_id,
            nonce,
            ciphertext,
        })
    }

    /// Decrypt with the given (re-derived) key.
    pub(crate) fn unseal(&self, key: &[u8; 32], aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        let gcm = AesGcm::new(key);
        let mut bound_aad = aad.to_vec();
        bound_aad.push(self.policy.to_u8());
        bound_aad.extend_from_slice(&self.svn.to_be_bytes());
        bound_aad.extend_from_slice(&self.isv_prod_id.to_be_bytes());
        gcm.open(&self.nonce, &bound_aad, &self.ciphertext)
            .map_err(|_| SgxError::UnsealFailed("authentication failed".into()))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u8(TAG_POLICY, self.policy.to_u8())
            .u32(TAG_SVN, self.svn as u32)
            .u32(TAG_PROD_ID, self.isv_prod_id as u32)
            .bytes(TAG_KEY_ID, &self.key_id)
            .bytes(TAG_NONCE, &self.nonce)
            .bytes(TAG_CIPHERTEXT, &self.ciphertext);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<SealedBlob, SgxError> {
        let mut r = TlvReader::new(bytes);
        let policy = SealPolicy::from_u8(r.expect_u8(TAG_POLICY)?)?;
        let svn = r.expect_u32(TAG_SVN)? as u16;
        let isv_prod_id = r.expect_u32(TAG_PROD_ID)? as u16;
        let key_id = r.expect_array::<16>(TAG_KEY_ID)?;
        let nonce = r.expect_array::<12>(TAG_NONCE)?;
        let ciphertext = r.expect(TAG_CIPHERTEXT)?.to_vec();
        r.finish()?;
        Ok(SealedBlob {
            policy,
            svn,
            isv_prod_id,
            key_id,
            nonce,
            ciphertext,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(aad: &[u8], pt: &[u8]) -> ([u8; 32], SealedBlob) {
        let key = [0x11; 32];
        let blob =
            SealedBlob::seal(&key, SealPolicy::MrEnclave, 3, 7, [1; 16], [2; 12], aad, pt).unwrap();
        (key, blob)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let (key, blob) = blob(b"aad", b"credential bytes");
        assert_eq!(blob.unseal(&key, b"aad").unwrap(), b"credential bytes");
    }

    #[test]
    fn wrong_key_rejected() {
        let (_, blob) = blob(b"aad", b"pt");
        assert!(blob.unseal(&[0x22; 32], b"aad").is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let (key, blob) = blob(b"aad", b"pt");
        assert!(blob.unseal(&key, b"other").is_err());
    }

    #[test]
    fn metadata_is_authenticated() {
        let (key, blob) = blob(b"aad", b"pt");
        // Tampering the SVN breaks the bound AAD even with the right key.
        let mut forged = blob.clone();
        forged.svn = 1;
        assert!(forged.unseal(&key, b"aad").is_err());
        let mut forged = blob.clone();
        forged.policy = SealPolicy::MrSigner;
        assert!(forged.unseal(&key, b"aad").is_err());
        let mut forged = blob;
        forged.isv_prod_id = 9;
        assert!(forged.unseal(&key, b"aad").is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (key, blob) = blob(b"a", b"secret");
        let decoded = SealedBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(decoded.unseal(&key, b"a").unwrap(), b"secret");
    }

    #[test]
    fn decode_rejects_bad_policy() {
        let (_, blob) = blob(b"a", b"s");
        let mut bytes = blob.encode();
        // First record is the policy byte: set to an invalid value.
        bytes[5] = 99;
        assert!(SealedBlob::decode(&bytes).is_err());
    }

    #[test]
    fn ciphertext_tamper_rejected() {
        let (key, blob) = blob(b"a", b"s");
        let mut bytes = blob.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let forged = SealedBlob::decode(&bytes).unwrap();
        assert!(forged.unseal(&key, b"a").is_err());
    }
}
