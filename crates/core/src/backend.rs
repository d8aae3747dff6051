//! The evidence dispatcher a mixed SGX + SNP fleet appraises through.
//!
//! Every evidence-carrying workflow (`VmService::{complete_host_attestation,
//! prepare_vnf_enrollment, complete_vnf_enrollment}`, and
//! `remote::{remote_attest_host, remote_enroll_vnf}`) takes one
//! `&mut dyn AttestationBackend`. An IAS handle is one already: every
//! `QuoteVerifier` is the SGX EPID backend through `vnfguard-attest`'s
//! blanket impl. So an `AttestationService`, a `RemoteIas`, an
//! [`SnpVerifier`] or a [`MultiBackend`] enters each workflow the same way.
//!
//! [`MultiBackend`] is the dispatcher `serve_vm_api` routes through. SNP
//! evidence bundles self-describe with the [`SNP_EVIDENCE_MAGIC`] prefix;
//! everything else is treated as an SGX quote and sent through the wrapped
//! IAS handle. One API endpoint serves a mixed SGX + SNP fleet.
//!
//! Cross-backend rejection is structural, not advisory: SNP evidence
//! reaching the SGX path fails quote decoding inside IAS, an SGX quote
//! reaching the SNP appraiser fails [`SnpEvidence`] decoding, and even a
//! confused appraisal cannot enroll because measurement whitelists are
//! keyed by `(BackendKind, Measurement)`.
//!
//! [`SnpEvidence`]: vnfguard_attest::snp::SnpEvidence

use parking_lot::Mutex;
use std::sync::Arc;
use vnfguard_attest::snp::{SnpVerifier, SNP_EVIDENCE_MAGIC};
use vnfguard_attest::{
    AttestError, AttestationBackend, Availability, BackendKind, EvidenceAppraisal,
};
// backend-opt-out: this module IS the SGX/IAS dispatcher — the only place
// in vnfguard-core allowed to name QuoteVerifier outside the IAS transport.
use vnfguard_ias::QuoteVerifier;

/// The deployment convention for a VNF workload's SEV-SNP launch
/// measurement: each VNF is modeled as its own CVM whose launch
/// measurement derives deterministically from the VNF name. The host
/// agent attests with this measurement and the testbed whitelists its
/// normalized form under [`BackendKind::SevSnp`], so both sides agree
/// without shipping image bytes around.
pub fn snp_vnf_measurement(vnf_name: &str) -> [u8; 48] {
    vnfguard_attest::snp::launch_measurement(format!("snp-cvm:{vnf_name}").as_bytes())
}

/// Evidence-sniffing dispatcher over the two production backends: SGX
/// EPID quotes verified through the (possibly remote) IAS handle, and
/// SEV-SNP reports appraised offline by a local [`SnpVerifier`].
///
/// Dispatch keys on the evidence bytes themselves — SNP bundles start
/// with [`SNP_EVIDENCE_MAGIC`], SGX quotes never do — so one dispatcher
/// instance serves a mixed fleet without per-request configuration.
/// [`AttestationBackend::kind`] reports the backend of the *last*
/// appraisal (SGX before any), which is what the service layer uses to
/// label latency after a call completes.
pub struct MultiBackend {
    ias: Arc<Mutex<dyn QuoteVerifier + Send>>,
    snp: Option<SnpVerifier>,
    last: BackendKind,
}

impl MultiBackend {
    /// Without an SNP verifier, SNP evidence is rejected (fail closed),
    /// never misrouted into the SGX path.
    pub fn new(
        ias: Arc<Mutex<dyn QuoteVerifier + Send>>,
        snp: Option<SnpVerifier>,
    ) -> MultiBackend {
        MultiBackend {
            ias,
            snp,
            last: BackendKind::SgxEpid,
        }
    }
}

impl AttestationBackend for MultiBackend {
    fn kind(&self) -> BackendKind {
        self.last
    }

    fn appraise(
        &mut self,
        evidence: &[u8],
        nonce: &[u8],
    ) -> Result<EvidenceAppraisal, AttestError> {
        if evidence.starts_with(SNP_EVIDENCE_MAGIC) {
            self.last = BackendKind::SevSnp;
            match &mut self.snp {
                Some(verifier) => verifier.appraise(evidence, nonce),
                None => Err(AttestError::Rejected(
                    "SNP evidence presented but no SNP verifier configured".into(),
                )),
            }
        } else {
            self.last = BackendKind::SgxEpid;
            self.ias.lock().appraise(evidence, nonce)
        }
    }

    /// The SNP appraiser is offline and always available; availability
    /// therefore reflects the IAS handle alone. A mixed dispatcher with
    /// IAS's circuit open reports `Unavailable` — conservative for SNP
    /// hosts, which deployments that care route through a dedicated
    /// [`SnpVerifier`] instead.
    fn availability(&self) -> Availability {
        QuoteVerifier::availability(&*self.ias.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_attest::snp::{launch_measurement, AmdRoot, SnpPlatform};
    use vnfguard_controller::SimClock;
    use vnfguard_ias::AttestationService;

    fn ias_handle() -> Arc<Mutex<dyn QuoteVerifier + Send>> {
        Arc::new(Mutex::new(AttestationService::new(b"multi test ias")))
    }

    #[test]
    fn snp_evidence_without_verifier_fails_closed() {
        let root = AmdRoot::new(b"multi amd");
        let platform = SnpPlatform::provision(&root, b"chip-m", launch_measurement(b"cvm"), 3);
        let mut multi = MultiBackend::new(ias_handle(), None);
        let err = multi
            .appraise(&platform.attest_self([0; 64]), b"n")
            .unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
        assert_eq!(multi.kind(), BackendKind::SevSnp);
    }

    #[test]
    fn snp_evidence_routes_to_snp_verifier() {
        let root = AmdRoot::new(b"multi amd 2");
        let platform = SnpPlatform::provision(&root, b"chip-m2", launch_measurement(b"cvm"), 3);
        let verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
        let mut multi = MultiBackend::new(ias_handle(), Some(verifier));
        let appraisal = multi
            .appraise(&platform.attest_self([5; 64]), b"n")
            .unwrap();
        assert_eq!(appraisal.backend, BackendKind::SevSnp);
        assert_eq!(multi.kind(), BackendKind::SevSnp);
    }

    #[test]
    fn non_snp_bytes_route_to_ias() {
        let mut multi = MultiBackend::new(ias_handle(), None);
        // Garbage is not SNP-magic-prefixed, so it must go to IAS and come
        // back as an SGX-path rejection, proving the dispatch direction.
        let err = multi.appraise(b"not a quote", b"n").unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
        assert_eq!(multi.kind(), BackendKind::SgxEpid);
    }
}
