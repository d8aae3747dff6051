//! What the relying party trusts (Figure 1, steps 2–4), held once per
//! deployment under two locks: the trust inputs (which measurements each
//! attestation backend may present, the known-good host files), and the
//! host table (each host's last verdict and its registered TPM AIK). The
//! [`VmService`](crate::service::VmService) owns one [`Trust`] and lends
//! it to every shard, so every shard reads one verdict per host, and every
//! recovered or promoted incarnation reads the same entries with nothing
//! replayed, but for the verdicts it forgets: hosts re-attest to it.

use crate::manager::HostRecord;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::sync::Arc;
use vnfguard_attest::{BackendKind, Measurement};
use vnfguard_crypto::ed25519::VerifyingKey;
use vnfguard_ima::appraisal::ReferenceDatabase;

/// Measurements with their labels, keyed by the backend that may present
/// them: equal bytes presented through a different TEE match nothing.
type Whitelist = BTreeMap<(BackendKind, Measurement), String>;

/// Cloneable handle over one deployment's trust; clones share it.
#[derive(Clone, Default)]
pub struct Trust {
    inputs: Arc<RwLock<TrustInputs>>,
    hosts: Arc<RwLock<HostTable>>,
}

#[derive(Default)]
pub(crate) struct TrustInputs {
    /// Workload measurements: MRENCLAVE under SGX, the normalized CVM
    /// launch measurement under SNP.
    pub(crate) enclaves: Whitelist,
    /// Host integrity-attestation measurements.
    pub(crate) integrity_enclaves: Whitelist,
    /// Known-good host file digests.
    pub(crate) reference_db: ReferenceDatabase,
}

#[derive(Debug, Default)]
pub(crate) struct HostTable {
    pub(crate) verdicts: BTreeMap<String, HostRecord>,
    /// TPM AIKs by host (§4 extension).
    pub(crate) aiks: BTreeMap<String, VerifyingKey>,
}

impl Trust {
    /// The evidence workflows read only once the evidence is appraised, so
    /// no reader holds the lock across a verifier round trip.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, TrustInputs> {
        self.inputs.read()
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, TrustInputs> {
        self.inputs.write()
    }

    /// Never held across a round trip either.
    pub(crate) fn hosts(&self) -> RwLockReadGuard<'_, HostTable> {
        self.hosts.read()
    }

    pub(crate) fn hosts_mut(&self) -> RwLockWriteGuard<'_, HostTable> {
        self.hosts.write()
    }

    /// Forget every verdict and keep the AIKs: a new authority
    /// incarnation trusts no host until it re-attests.
    pub(crate) fn forget_verdicts(&self) {
        self.hosts.write().verdicts.clear();
    }
}
