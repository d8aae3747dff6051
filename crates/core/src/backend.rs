//! The attestation-backend adapter layer: everything in `vnfguard-core`
//! that still speaks SGX/IAS vocabulary lives here, behind the generic
//! [`AttestationBackend`] seam the manager and service are written
//! against.
//!
//! Three things live in this module:
//!
//! - **Compat wrappers.** The original SGX-era entry points
//!   ([`VmService::complete_host_attestation`],
//!   [`VmService::complete_vnf_enrollment`],
//!   [`VmService::prepare_vnf_enrollment`], [`remote_attest_host`],
//!   [`remote_enroll_vnf`] and their traced forms) keep their
//!   `&mut dyn QuoteVerifier` signatures; each one wraps the verifier in
//!   an [`SgxEpidBackend`] adapter and forwards to the generic
//!   `*_backend` method. Existing callers compile and behave unchanged.
//! - **[`MultiBackend`]** — the evidence-sniffing dispatcher
//!   `serve_vm_api` routes through. SNP evidence bundles self-describe
//!   with the [`SNP_EVIDENCE_MAGIC`] prefix; everything else is treated
//!   as an SGX quote and sent through the wrapped IAS handle. One API
//!   endpoint serves a mixed SGX + SNP fleet.
//!
//! Cross-backend rejection is structural, not advisory: SNP evidence
//! reaching the SGX path fails quote decoding inside IAS, an SGX quote
//! reaching the SNP appraiser fails [`SnpEvidence`] decoding, and even a
//! confused appraisal cannot enroll because measurement whitelists are
//! keyed by `(BackendKind, Measurement)`.
//!
//! [`SnpEvidence`]: vnfguard_attest::snp::SnpEvidence

use crate::attestation::HostEvidence;
use crate::service::VmService;
use crate::CoreError;
use parking_lot::Mutex;
use std::sync::Arc;
use vnfguard_attest::snp::{SnpVerifier, SNP_EVIDENCE_MAGIC};
use vnfguard_attest::{
    AttestError, AttestationBackend, Availability, BackendKind, EvidenceAppraisal, SgxEpidBackend,
};
// backend-opt-out: this module IS the SGX/IAS adapter — the only place in
// vnfguard-core allowed to name QuoteVerifier outside the IAS transport.
use vnfguard_ias::QuoteVerifier;
use vnfguard_ima::appraisal::Verdict;
use vnfguard_net::Network;
use vnfguard_pki::cert::Certificate;

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
    pub fn new(ias: Arc<Mutex<dyn QuoteVerifier + Send>>) -> MultiBackend {
        MultiBackend {
            ias,
            snp: None,
            last: BackendKind::SgxEpid,
        }
    }

    /// Enable SNP dispatch. Without a verifier, SNP evidence is rejected
    /// (fail closed), never misrouted into the SGX path.
    pub fn with_snp(mut self, verifier: SnpVerifier) -> MultiBackend {
        self.snp = Some(verifier);
        self
    }

    pub fn from_parts(
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
            SgxEpidBackend::new(&mut *self.ias.lock()).appraise(evidence, nonce)
        }
    }

    /// The SNP appraiser is offline and always available; availability
    /// therefore reflects the IAS handle alone. A mixed dispatcher with
    /// IAS's circuit open reports `Unavailable` — conservative for SNP
    /// hosts, which deployments that care route through a dedicated
    /// [`SnpVerifier`] instead.
    fn availability(&self) -> Availability {
        self.ias.lock().availability()
    }
}

// ---------------------------------------------------------------------------
// SGX-era compat surface
// ---------------------------------------------------------------------------

impl VmService {
    /// Step 2 with an explicit IAS handle — the SGX-era signature, kept
    /// verbatim for existing harnesses. Wraps the verifier in
    /// [`SgxEpidBackend`] and forwards to
    /// [`complete_host_attestation_backend`](Self::complete_host_attestation_backend).
    pub fn complete_host_attestation(
        &self,
        ias: &mut dyn QuoteVerifier,
        challenge_id: u64,
        evidence: &HostEvidence,
    ) -> Result<Verdict, CoreError> {
        let mut backend = SgxEpidBackend::new(ias);
        self.complete_host_attestation_backend(&mut backend, challenge_id, evidence)
    }

    /// Steps 4–5 in one shot with an explicit IAS handle (SGX-era
    /// signature; see
    /// [`complete_vnf_enrollment_backend`](Self::complete_vnf_enrollment_backend)).
    pub fn complete_vnf_enrollment(
        &self,
        ias: &mut dyn QuoteVerifier,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(Vec<u8>, Certificate), CoreError> {
        let mut backend = SgxEpidBackend::new(ias);
        self.complete_vnf_enrollment_backend(
            &mut backend,
            challenge_id,
            quote_bytes,
            provisioning_key,
            controller_cn,
        )
    }

    /// Phase one of two-phase enrollment with an explicit IAS handle
    /// (SGX-era signature; see
    /// [`prepare_vnf_enrollment_backend`](Self::prepare_vnf_enrollment_backend)).
    pub fn prepare_vnf_enrollment(
        &self,
        ias: &mut dyn QuoteVerifier,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(u64, Vec<u8>, Certificate), CoreError> {
        let mut backend = SgxEpidBackend::new(ias);
        self.prepare_vnf_enrollment_backend(
            &mut backend,
            challenge_id,
            quote_bytes,
            provisioning_key,
            controller_cn,
        )
    }
}

/// Drive the full host attestation (steps 1–2) against a remote agent
/// with an explicit IAS handle — the SGX-era signature. See
/// [`remote_attest_host_backend`](crate::remote::remote_attest_host_backend)
/// for the generic form.
pub fn remote_attest_host(
    vm: &VmService,
    ias: &mut dyn QuoteVerifier,
    network: &Network,
    host_id: &str,
) -> Result<Verdict, CoreError> {
    let mut backend = SgxEpidBackend::new(ias);
    crate::remote::remote_attest_host_backend(vm, &mut backend, network, host_id)
}

/// Drive VNF enrollment (steps 3–5) against a remote agent with an
/// explicit IAS handle — the SGX-era signature. See
/// [`remote_enroll_vnf_backend`](crate::remote::remote_enroll_vnf_backend)
/// for the generic form.
pub fn remote_enroll_vnf(
    vm: &VmService,
    ias: &mut dyn QuoteVerifier,
    network: &Network,
    host_id: &str,
    vnf_name: &str,
    controller_cn: &str,
) -> Result<Certificate, CoreError> {
    let mut backend = SgxEpidBackend::new(ias);
    crate::remote::remote_enroll_vnf_backend(
        vm,
        &mut backend,
        network,
        host_id,
        vnf_name,
        controller_cn,
    )
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
        let platform =
            SnpPlatform::provision(&root, b"chip-m", launch_measurement(b"cvm"), 3);
        let mut multi = MultiBackend::new(ias_handle());
        let err = multi
            .appraise(&platform.attest_self([0; 64]), b"n")
            .unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
        assert_eq!(multi.kind(), BackendKind::SevSnp);
    }

    #[test]
    fn snp_evidence_routes_to_snp_verifier() {
        let root = AmdRoot::new(b"multi amd 2");
        let platform =
            SnpPlatform::provision(&root, b"chip-m2", launch_measurement(b"cvm"), 3);
        let verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
        let mut multi = MultiBackend::new(ias_handle()).with_snp(verifier);
        let appraisal = multi.appraise(&platform.attest_self([5; 64]), b"n").unwrap();
        assert_eq!(appraisal.backend, BackendKind::SevSnp);
        assert_eq!(multi.kind(), BackendKind::SevSnp);
    }

    #[test]
    fn non_snp_bytes_route_to_ias() {
        let mut multi = MultiBackend::new(ias_handle());
        // Garbage is not SNP-magic-prefixed, so it must go to IAS and come
        // back as an SGX-path rejection, proving the dispatch direction.
        let err = multi.appraise(b"not a quote", b"n").unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
        assert_eq!(multi.kind(), BackendKind::SgxEpid);
    }
}
