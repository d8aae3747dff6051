//! SGX EPID appraisal: the paper's quote → IAS → signed-report path,
//! behind [`AttestationBackend`].
//!
//! Every [`QuoteVerifier`] (the in-process IAS simulation, a remote client
//! handle, or a `&mut` to either) *is* an SGX backend through the one
//! blanket impl below. The quote bytes travel to the verifier, the
//! returned report's service signature is checked, and the report's
//! verdict is distilled into the normalized [`EvidenceAppraisal`]
//! vocabulary. Appraisal fails closed: an
//! unverifiable report signature, a missing quote body, or a nonce echo
//! that does not match the challenge are all rejections.

use crate::{AttestError, AttestationBackend, BackendKind, EvidenceAppraisal, TcbStatus};
use vnfguard_ias::{Availability, QuoteStatus, QuoteVerifier};

fn tcb_from_status(status: QuoteStatus) -> TcbStatus {
    match status {
        QuoteStatus::Ok => TcbStatus::UpToDate,
        QuoteStatus::GroupOutOfDate => TcbStatus::OutOfDate,
        QuoteStatus::ConfigurationNeeded => TcbStatus::ConfigurationNeeded,
        QuoteStatus::GroupRevoked | QuoteStatus::SignatureRevoked | QuoteStatus::KeyRevoked => {
            TcbStatus::Revoked
        }
        QuoteStatus::SignatureInvalid
        | QuoteStatus::UnknownGroup
        | QuoteStatus::VersionUnsupported => TcbStatus::Invalid,
    }
}

impl<V: QuoteVerifier + ?Sized> AttestationBackend for V {
    fn kind(&self) -> BackendKind {
        BackendKind::SgxEpid
    }

    fn appraise(
        &mut self,
        evidence: &[u8],
        nonce: &[u8],
    ) -> Result<EvidenceAppraisal, AttestError> {
        let report = self.verify_quote(evidence, nonce);
        report
            .verify(&self.report_signing_key())
            .map_err(|e| AttestError::Rejected(e.to_string()))?;
        if report.nonce != nonce {
            return Err(AttestError::Rejected("IAS report nonce mismatch".into()));
        }
        let tcb = tcb_from_status(report.status);
        if tcb == TcbStatus::Invalid {
            // SignatureInvalid / UnknownGroup / VersionUnsupported: the EPID
            // signature over the quote was never verified, so nothing in the
            // body can be trusted — reject instead of appraising.
            return Err(AttestError::Rejected(format!(
                "IAS status {}",
                report.status
            )));
        }
        let body = report
            .quote_body
            .as_ref()
            .ok_or_else(|| AttestError::Rejected(format!("IAS status {}", report.status)))?;
        Ok(EvidenceAppraisal {
            backend: BackendKind::SgxEpid,
            measurement: body.mrenclave.0,
            report_data: body.report_data,
            debug: body.is_debug(),
            tcb,
            advisories: report.advisories.clone(),
            native_status: report.status.to_string(),
        })
    }

    fn availability(&self) -> Availability {
        QuoteVerifier::availability(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppraisalPolicy;
    use vnfguard_ias::AttestationService;
    use vnfguard_sgx::enclave::{EnclaveCode, EnclaveContext};
    use vnfguard_sgx::measurement::Measurement;
    use vnfguard_sgx::platform::{PlatformConfig, SgxPlatform};
    use vnfguard_sgx::sigstruct::EnclaveAuthor;
    use vnfguard_sgx::transition::TransitionModel;
    use vnfguard_sgx::SgxError;

    struct Null(Vec<u8>);
    impl EnclaveCode for Null {
        fn image(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn on_call(
            &mut self,
            _ctx: &mut EnclaveContext,
            op: u16,
            _i: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Err(SgxError::BadCall(op))
        }
    }

    fn quoted(
        seed: &[u8],
        debug: bool,
        report_data: [u8; 64],
    ) -> (SgxPlatform, Measurement, Vec<u8>) {
        let config = PlatformConfig {
            allow_debug: debug,
            ..PlatformConfig::default()
        };
        let platform = SgxPlatform::with_config(seed, config, TransitionModel::free());
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let image = b"attested app";
        let mrenclave = SgxPlatform::measure_image(image, 4096);
        let signed = author.sign_enclave(mrenclave, 1, 1, debug);
        let enclave = platform
            .load_enclave(&signed, 4096, Box::new(Null(image.to_vec())))
            .unwrap();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), report_data);
        let quote = qe.quote(&report, [1; 32]).unwrap();
        (platform, mrenclave, quote.encode())
    }

    fn service_for(platform: &SgxPlatform) -> AttestationService {
        let mut ias = AttestationService::new(b"attest test ias");
        ias.register_member(platform.epid_group_id(), platform.attestation_public_key());
        ias
    }

    #[test]
    fn valid_quote_appraises_up_to_date() {
        let report_data = [7u8; 64];
        let (platform, mrenclave, quote) = quoted(b"sgx-backend", false, report_data);
        let mut ias = service_for(&platform);
        let appraisal = ias.appraise(&quote, b"nonce-1").unwrap();
        assert_eq!(appraisal.backend, BackendKind::SgxEpid);
        assert_eq!(appraisal.tcb, TcbStatus::UpToDate);
        assert_eq!(appraisal.measurement, mrenclave.0);
        assert_eq!(appraisal.report_data, report_data);
        assert!(!appraisal.debug);
        assert!(AppraisalPolicy::strict().check(&appraisal).is_ok());
    }

    #[test]
    fn debug_enclave_surfaces_in_appraisal() {
        let (platform, _mr, quote) = quoted(b"sgx-dbg", true, [0u8; 64]);
        let mut ias = service_for(&platform);
        let appraisal = ias.appraise(&quote, b"n").unwrap();
        assert!(appraisal.debug);
        assert!(AppraisalPolicy::strict().check(&appraisal).is_err());
    }

    #[test]
    fn unknown_group_is_rejected_not_appraised() {
        let (_platform, _mr, quote) = quoted(b"sgx-unknown", false, [0u8; 64]);
        // Fresh service that never registered the platform's EPID group.
        let mut ias = AttestationService::new(b"empty ias");
        let err = ias.appraise(&quote, b"n").unwrap_err();
        match err {
            AttestError::Rejected(msg) => assert!(msg.contains("EPID_GROUP_UNKNOWN"), "{msg}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn garbage_quote_is_rejected_not_appraised() {
        let mut ias = AttestationService::new(b"attest test ias");
        let err = ias.appraise(b"not a quote", b"n").unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
    }
}
