//! Sealed storage: AEAD blobs under `EGETKEY`-derived keys.
//!
//! The VNF credential enclave seals provisioned keys so they survive
//! restarts without ever existing in host-readable plaintext. Blobs are
//! bound to the sealing policy (exact enclave vs. same author), the SVN at
//! sealing time (rollback protection) and the platform fuse key.

use crate::SgxError;
use vnfguard_crypto::gcm::{AesGcm, TAG_LEN};
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

/// Bytes an encoded blob holds beside its plaintext: six record headers,
/// the policy, SVN, product id, key id and nonce values, and the tag.
const ENCODING_OVERHEAD: usize = 6 * 5 + 1 + 4 + 4 + 16 + 12 + TAG_LEN;

/// An encoded sealed blob's fields: its ciphertext stays in the encoding,
/// borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SealedBlob<'a> {
    pub policy: SealPolicy,
    /// ISV SVN at sealing time (the unsealing enclave must be ≥ this).
    pub svn: u16,
    pub isv_prod_id: u16,
    /// Key-derivation diversifier.
    pub key_id: [u8; 16],
    nonce: [u8; 12],
    /// `ciphertext || tag`.
    sealed: &'a [u8],
}

/// The AAD a blob's tag covers: the caller's, then the blob's policy, SVN
/// and product id, so none of them can be altered.
fn bound_aad(aad: &[u8], policy: SealPolicy, svn: u16, isv_prod_id: u16) -> Vec<u8> {
    let mut bound = aad.to_vec();
    bound.push(policy.to_u8());
    bound.extend_from_slice(&svn.to_be_bytes());
    bound.extend_from_slice(&isv_prod_id.to_be_bytes());
    bound
}

impl<'a> SealedBlob<'a> {
    /// Seal plaintext under a derived key and return the blob's encoding.
    /// The plaintext is copied once, into the ciphertext record that ends
    /// the encoding, and encrypted there in place. Internal: use
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
    ) -> Vec<u8> {
        let mut w = TlvWriter::with_capacity(ENCODING_OVERHEAD + plaintext.len());
        w.u8(TAG_POLICY, policy.to_u8())
            .u32(TAG_SVN, svn as u32)
            .u32(TAG_PROD_ID, isv_prod_id as u32)
            .bytes(TAG_KEY_ID, &key_id)
            .bytes(TAG_NONCE, &nonce)
            .joined(TAG_CIPHERTEXT, &[plaintext, &[0; TAG_LEN]]);
        let mut out = w.finish();
        debug_assert_eq!(out.len(), ENCODING_OVERHEAD + plaintext.len());
        let value = out.len() - plaintext.len() - TAG_LEN;
        let (data, tag) = out[value..].split_at_mut(plaintext.len());
        let aad = bound_aad(aad, policy, svn, isv_prod_id);
        tag.copy_from_slice(&AesGcm::new(key).seal_in_place(&nonce, &aad, data));
        out
    }

    /// Decrypt with the given (re-derived) key.
    pub(crate) fn unseal(&self, key: &[u8; 32], aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        let aad = bound_aad(aad, self.policy, self.svn, self.isv_prod_id);
        AesGcm::new(key)
            .open(&self.nonce, &aad, self.sealed)
            .map_err(|_| SgxError::UnsealFailed("authentication failed".into()))
    }

    pub(crate) fn decode(bytes: &'a [u8]) -> Result<SealedBlob<'a>, SgxError> {
        let mut r = TlvReader::new(bytes);
        let policy = SealPolicy::from_u8(r.expect_u8(TAG_POLICY)?)?;
        let svn = r.expect_u32(TAG_SVN)? as u16;
        let isv_prod_id = r.expect_u32(TAG_PROD_ID)? as u16;
        let key_id = r.expect_array::<16>(TAG_KEY_ID)?;
        let nonce = r.expect_array::<12>(TAG_NONCE)?;
        let sealed = r.expect(TAG_CIPHERTEXT)?;
        r.finish()?;
        Ok(SealedBlob {
            policy,
            svn,
            isv_prod_id,
            key_id,
            nonce,
            sealed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [0x11; 32];

    /// `pt` sealed under `KEY` with fixed metadata, encoded.
    fn sealed(aad: &[u8], pt: &[u8]) -> Vec<u8> {
        SealedBlob::seal(&KEY, SealPolicy::MrEnclave, 3, 7, [1; 16], [2; 12], aad, pt)
    }

    fn unseal(bytes: &[u8], key: &[u8; 32], aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        SealedBlob::decode(bytes)?.unseal(key, aad)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let bytes = sealed(b"aad", b"credential bytes");
        assert_eq!(unseal(&bytes, &KEY, b"aad").unwrap(), b"credential bytes");
    }

    #[test]
    fn wrong_key_rejected() {
        assert!(unseal(&sealed(b"aad", b"pt"), &[0x22; 32], b"aad").is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        assert!(unseal(&sealed(b"aad", b"pt"), &KEY, b"other").is_err());
    }

    #[test]
    fn metadata_is_authenticated() {
        let bytes = sealed(b"aad", b"pt");
        let blob = SealedBlob::decode(&bytes).unwrap();
        // Tampering the SVN breaks the bound AAD even with the right key.
        let mut forged = blob;
        forged.svn = 1;
        assert!(forged.unseal(&KEY, b"aad").is_err());
        let mut forged = blob;
        forged.policy = SealPolicy::MrSigner;
        assert!(forged.unseal(&KEY, b"aad").is_err());
        let mut forged = blob;
        forged.isv_prod_id = 9;
        assert!(forged.unseal(&KEY, b"aad").is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let bytes = sealed(b"a", b"secret");
        let decoded = SealedBlob::decode(&bytes).unwrap();
        assert_eq!(
            (decoded.policy, decoded.svn, decoded.isv_prod_id),
            (SealPolicy::MrEnclave, 3, 7)
        );
        assert_eq!((decoded.key_id, decoded.nonce), ([1; 16], [2; 12]));
        assert_eq!(decoded.unseal(&KEY, b"a").unwrap(), b"secret");
    }

    /// Sealing in place writes the bytes that sealing into a copy and
    /// encoding the ciphertext wrote, so media sealed either way replays.
    #[test]
    fn sealing_in_place_encodes_what_sealing_a_copy_did() {
        for len in [0, 1, 15, 16, 17, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let aad = bound_aad(b"aad", SealPolicy::MrEnclave, 3, 7);
            let mut w = TlvWriter::new();
            w.u8(TAG_POLICY, SealPolicy::MrEnclave.to_u8())
                .u32(TAG_SVN, 3)
                .u32(TAG_PROD_ID, 7)
                .bytes(TAG_KEY_ID, &[1; 16])
                .bytes(TAG_NONCE, &[2; 12])
                .bytes(TAG_CIPHERTEXT, &AesGcm::new(&KEY).seal(&[2; 12], &aad, &pt));
            assert_eq!(sealed(b"aad", &pt), w.finish(), "{len} bytes");
        }
    }

    #[test]
    fn decode_rejects_bad_policy() {
        let mut bytes = sealed(b"a", b"s");
        // First record is the policy byte: set to an invalid value.
        bytes[5] = 99;
        assert!(SealedBlob::decode(&bytes).is_err());
    }

    #[test]
    fn ciphertext_tamper_rejected() {
        let mut bytes = sealed(b"a", b"s");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(SealedBlob::decode(&bytes).is_ok());
        assert!(unseal(&bytes, &KEY, b"a").is_err());
    }
}
