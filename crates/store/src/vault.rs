//! The state-vault enclave: seals WAL frames and snapshots.
//!
//! Everything the manager journals crosses this enclave before touching
//! [`Media`](crate::wal::Media): records and snapshots are sealed with the
//! `MrEnclave` policy, so only the *identical* vault enclave on the *same*
//! platform derives the unsealing key (`EGETKEY` is deterministic per
//! platform × measurement × policy × SVN × key id). That is exactly the
//! recovery trust model the paper implies for manager state: a restarted
//! VM on its own platform reloads the vault image, re-derives the keys and
//! replays; a copied log on another machine — or under a tampered vault
//! build — is so much ciphertext.

use crate::StoreError;
use vnfguard_sgx::enclave::{Enclave, EnclaveCode, EnclaveContext};
use vnfguard_sgx::measurement::Measurement;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::seal::SealPolicy;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::SgxError;

/// The vault's measured code pages.
const VAULT_IMAGE: &[u8] = b"vnfguard state vault enclave v1";
/// EPC footprint of the vault.
const VAULT_SIZE: usize = 16 * 1024;
const VAULT_PROD_ID: u16 = 7;
const VAULT_SVN: u16 = 1;

const OP_SEAL: u8 = 1;
const OP_UNSEAL: u8 = 2;

/// Payload-kind discriminator, bound into the AAD so a record blob can
/// never be replayed as a snapshot or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    Record,
    Snapshot,
}

impl PayloadKind {
    fn code(self) -> u8 {
        match self {
            PayloadKind::Record => 1,
            PayloadKind::Snapshot => 2,
        }
    }

    fn aad(self) -> &'static [u8] {
        match self {
            PayloadKind::Record => b"vnfguard-wal-record",
            PayloadKind::Snapshot => b"vnfguard-state-snapshot",
        }
    }

    fn from_code(code: u8) -> Result<PayloadKind, SgxError> {
        match code {
            1 => Ok(PayloadKind::Record),
            2 => Ok(PayloadKind::Snapshot),
            other => Err(SgxError::App(format!("bad vault payload kind {other}"))),
        }
    }
}

/// The enclave code: two ecalls, seal and unseal. The opcode carries the
/// payload kind in its high byte and the operation in its low byte, so the
/// payload crosses as the caller's own slice, with no prefix to copy it
/// behind.
struct VaultCode;

impl EnclaveCode for VaultCode {
    fn image(&self) -> Vec<u8> {
        VAULT_IMAGE.to_vec()
    }

    fn on_call(
        &mut self,
        ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let [kind, op] = opcode.to_be_bytes();
        let kind = PayloadKind::from_code(kind)?;
        match op {
            OP_SEAL => ctx.seal(SealPolicy::MrEnclave, kind.aad(), input),
            OP_UNSEAL => ctx.unseal(input, kind.aad()),
            _ => Err(SgxError::BadCall(opcode)),
        }
    }
}

/// Handle to a loaded vault enclave.
pub struct StateVault {
    enclave: Enclave,
}

impl StateVault {
    /// Load (or, after a crash, *re*-load) the vault on `platform`. The
    /// same platform and author always yield the same measurement and
    /// therefore the same seal keys.
    pub fn load(platform: &SgxPlatform, author: &EnclaveAuthor) -> Result<StateVault, StoreError> {
        let signed = author.sign_enclave(
            SgxPlatform::measure_image(VAULT_IMAGE, VAULT_SIZE),
            VAULT_PROD_ID,
            VAULT_SVN,
            false,
        );
        let enclave = platform.load_enclave(&signed, VAULT_SIZE, Box::new(VaultCode))?;
        Ok(StateVault { enclave })
    }

    /// The vault's expected measurement (for whitelisting or audit).
    pub fn expected_measurement() -> Measurement {
        SgxPlatform::measure_image(VAULT_IMAGE, VAULT_SIZE)
    }

    fn call(&self, op: u8, kind: PayloadKind, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
        let opcode = u16::from_be_bytes([kind.code(), op]);
        self.enclave
            .ecall(opcode, payload)
            .map_err(StoreError::from)
    }

    /// Seal `plaintext` as `kind`; returns the encoded blob for the media.
    pub fn seal(&self, kind: PayloadKind, plaintext: &[u8]) -> Result<Vec<u8>, StoreError> {
        self.call(OP_SEAL, kind, plaintext)
    }

    /// Unseal an encoded blob previously sealed as `kind`.
    pub fn unseal(&self, kind: PayloadKind, blob: &[u8]) -> Result<Vec<u8>, StoreError> {
        self.call(OP_UNSEAL, kind, blob)
    }
}

impl std::fmt::Debug for StateVault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateVault")
            .field("mrenclave", &self.enclave.mrenclave())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn author() -> EnclaveAuthor {
        EnclaveAuthor::from_seed(&[3; 32])
    }

    #[test]
    fn reloaded_vault_unseals_predecessor_blobs() {
        let platform = SgxPlatform::new(b"vm platform");
        let vault = StateVault::load(&platform, &author()).unwrap();
        let blob = vault.seal(PayloadKind::Record, b"journal entry").unwrap();
        drop(vault); // the crash
        let revived = StateVault::load(&platform, &author()).unwrap();
        assert_eq!(
            revived.unseal(PayloadKind::Record, &blob).unwrap(),
            b"journal entry"
        );
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let vault = StateVault::load(&SgxPlatform::new(b"vm"), &author()).unwrap();
        let blob = vault.seal(PayloadKind::Snapshot, b"state").unwrap();
        let foreign = StateVault::load(&SgxPlatform::new(b"attacker"), &author()).unwrap();
        assert!(foreign.unseal(PayloadKind::Snapshot, &blob).is_err());
    }

    #[test]
    fn kind_is_bound_into_the_blob() {
        let platform = SgxPlatform::new(b"vm");
        let vault = StateVault::load(&platform, &author()).unwrap();
        let blob = vault.seal(PayloadKind::Record, b"entry").unwrap();
        assert!(
            vault.unseal(PayloadKind::Snapshot, &blob).is_err(),
            "a record blob must not decode as a snapshot"
        );
    }
}
