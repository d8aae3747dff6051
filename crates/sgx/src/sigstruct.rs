//! SIGSTRUCT: the enclave author's signature over the enclave identity.
//!
//! Launch control verifies this structure before `EINIT` completes. The
//! signed fields are the expected MRENCLAVE, the product id and the
//! security version number (ISV SVN); MRSIGNER is derived from the author's
//! public key.

use crate::measurement::{mrsigner, Measurement};
use crate::SgxError;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_BODY: u8 = 0x40;
const TAG_MRENCLAVE: u8 = 0x41;
const TAG_PROD_ID: u8 = 0x42;
const TAG_SVN: u8 = 0x43;
const TAG_DEBUG: u8 = 0x44;
const TAG_AUTHOR_KEY: u8 = 0x45;
const TAG_SIGNATURE: u8 = 0x46;

/// An enclave author (ISV) identity that signs enclaves for launch.
pub struct EnclaveAuthor {
    key: SigningKey,
}

impl EnclaveAuthor {
    pub fn from_seed(seed: &[u8; 32]) -> EnclaveAuthor {
        EnclaveAuthor {
            key: SigningKey::from_seed(seed),
        }
    }

    pub fn public_key(&self) -> VerifyingKey {
        self.key.public_key()
    }

    /// The MRSIGNER value enclaves signed by this author will carry.
    pub fn mrsigner(&self) -> Measurement {
        mrsigner(self.key.public_key().as_bytes())
    }

    /// Produce the SIGSTRUCT for an enclave build.
    pub fn sign_enclave(
        &self,
        mrenclave: Measurement,
        isv_prod_id: u16,
        isv_svn: u16,
        debug: bool,
    ) -> SignedEnclave {
        let body = SignedEnclave::body_bytes(&mrenclave, isv_prod_id, isv_svn, debug);
        SignedEnclave {
            mrenclave,
            isv_prod_id,
            isv_svn,
            debug,
            author_key: self.key.public_key(),
            signature: self.key.sign(&body).to_vec(),
        }
    }
}

impl std::fmt::Debug for EnclaveAuthor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveAuthor")
            .field("mrsigner", &self.mrsigner())
            .finish_non_exhaustive()
    }
}

/// The signed enclave identity presented at launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedEnclave {
    pub mrenclave: Measurement,
    pub isv_prod_id: u16,
    pub isv_svn: u16,
    pub debug: bool,
    pub author_key: VerifyingKey,
    signature: Vec<u8>,
}

impl SignedEnclave {
    fn body_bytes(mrenclave: &Measurement, isv_prod_id: u16, isv_svn: u16, debug: bool) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.bytes(TAG_MRENCLAVE, mrenclave.as_bytes())
            .u32(TAG_PROD_ID, isv_prod_id as u32)
            .u32(TAG_SVN, isv_svn as u32)
            .u8(TAG_DEBUG, debug as u8);
        w.finish()
    }

    /// Verify the author signature; returns the MRSIGNER on success.
    pub fn verify(&self) -> Result<Measurement, SgxError> {
        let body = Self::body_bytes(&self.mrenclave, self.isv_prod_id, self.isv_svn, self.debug);
        self.author_key
            .verify(&body, &self.signature)
            .map_err(|_| SgxError::LaunchFailed("SIGSTRUCT signature invalid".into()))?;
        Ok(mrsigner(self.author_key.as_bytes()))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.nested(TAG_BODY, |inner| {
            inner
                .bytes(TAG_MRENCLAVE, self.mrenclave.as_bytes())
                .u32(TAG_PROD_ID, self.isv_prod_id as u32)
                .u32(TAG_SVN, self.isv_svn as u32)
                .u8(TAG_DEBUG, self.debug as u8)
                .bytes(TAG_AUTHOR_KEY, self.author_key.as_bytes());
        })
        .bytes(TAG_SIGNATURE, &self.signature);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<SignedEnclave, SgxError> {
        let mut r = TlvReader::new(bytes);
        let mut body = r.expect_nested(TAG_BODY)?;
        let mrenclave = Measurement(body.expect_array::<32>(TAG_MRENCLAVE)?);
        let isv_prod_id = body.expect_u32(TAG_PROD_ID)? as u16;
        let isv_svn = body.expect_u32(TAG_SVN)? as u16;
        let debug = body.expect_u8(TAG_DEBUG)? != 0;
        let author_key = VerifyingKey::from_bytes(&body.expect_array::<32>(TAG_AUTHOR_KEY)?);
        body.finish()?;
        let signature = r.expect(TAG_SIGNATURE)?.to_vec();
        r.finish()?;
        Ok(SignedEnclave {
            mrenclave,
            isv_prod_id,
            isv_svn,
            debug,
            author_key,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mre(b: u8) -> Measurement {
        Measurement([b; 32])
    }

    #[test]
    fn sign_and_verify() {
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = author.sign_enclave(mre(7), 10, 2, false);
        assert_eq!(signed.verify().unwrap(), author.mrsigner());
    }

    #[test]
    fn tamper_rejected() {
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = author.sign_enclave(mre(7), 10, 2, false);

        let mut bad = signed.clone();
        bad.mrenclave = mre(8);
        assert!(bad.verify().is_err());

        let mut bad = signed.clone();
        bad.isv_svn = 3;
        assert!(bad.verify().is_err());

        let mut bad = signed.clone();
        bad.debug = true;
        assert!(bad.verify().is_err());

        // Key substitution: verify succeeds under the new key only if the
        // signature matches, which it cannot.
        let other = EnclaveAuthor::from_seed(&[2; 32]);
        let mut bad = signed;
        bad.author_key = other.public_key();
        assert!(bad.verify().is_err());
    }

    #[test]
    fn roundtrip() {
        let author = EnclaveAuthor::from_seed(&[3; 32]);
        let signed = author.sign_enclave(mre(1), 1, 1, true);
        let decoded = SignedEnclave::decode(&signed.encode()).unwrap();
        assert_eq!(decoded, signed);
        decoded.verify().unwrap();
    }

    #[test]
    fn mrsigner_tracks_author() {
        let a = EnclaveAuthor::from_seed(&[1; 32]);
        let b = EnclaveAuthor::from_seed(&[2; 32]);
        assert_ne!(a.mrsigner(), b.mrsigner());
        // Same enclave, different author => different MRSIGNER, same MRENCLAVE.
        let sa = a.sign_enclave(mre(5), 1, 1, false);
        let sb = b.sign_enclave(mre(5), 1, 1, false);
        assert_eq!(sa.mrenclave, sb.mrenclave);
        assert_ne!(sa.verify().unwrap(), sb.verify().unwrap());
    }
}
