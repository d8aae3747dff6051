//! The relying party's trust inputs (Figure 1, steps 2 and 4): which
//! measurements each attestation backend may present, and the known-good
//! host files a measurement list is appraised against. They are operator
//! input, not journaled state, so a deployment holds them once: the
//! [`VmService`](crate::service::VmService) owns one [`Trust`] and lends it
//! to every shard's evidence workflows, so every recovered or promoted
//! incarnation reads the same entries and nothing replays them.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::sync::Arc;
use vnfguard_attest::{BackendKind, Measurement};
use vnfguard_ima::appraisal::ReferenceDatabase;

/// Measurements with their labels, keyed by the backend that may present
/// them: equal bytes presented through a different TEE match nothing.
type Whitelist = BTreeMap<(BackendKind, Measurement), String>;

/// Cloneable handle over one set of trust inputs; clones share it.
#[derive(Clone, Default)]
pub struct Trust(Arc<RwLock<TrustInputs>>);

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

impl Trust {
    /// The evidence workflows read only once the evidence is appraised, so
    /// no reader holds the lock across a verifier round trip.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, TrustInputs> {
        self.0.read()
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, TrustInputs> {
        self.0.write()
    }
}
