//! The attestation service proper: group registry, SigRLs, TCB policy and
//! quote verification.

use crate::report::{AttestationReport, QuoteStatus};
use std::collections::{BTreeMap, BTreeSet};
use vnfguard_crypto::ed25519::{PreparedVerifyingKey, SigningKey, VerifyingKey};
use vnfguard_crypto::hkdf;
use vnfguard_sgx::quote::{Quote, QUOTE_VERSION};
use vnfguard_telemetry::{Counter, Telemetry};

/// Administrative status of an EPID group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStatus {
    /// Group is in good standing.
    Ok,
    /// Entire group revoked (e.g. class-break of the platform model).
    Revoked,
    /// Group TCB is below the current baseline: quotes verify but are
    /// reported as `GROUP_OUT_OF_DATE` with advisories.
    OutOfDate,
}

#[derive(Debug)]
struct Group {
    status: GroupStatus,
    /// Registered attestation member keys, by pseudonymous member id,
    /// prepared at registration; `None` for a key no signature verifies
    /// under (every quote under it reads `SignatureInvalid`).
    members: BTreeMap<[u8; 32], Option<PreparedVerifyingKey>>,
    /// Signature revocation list: revoked member ids.
    sigrl: BTreeSet<[u8; 32]>,
    /// Minimum quoting-enclave SVN considered current.
    min_qe_svn: u16,
    advisories: Vec<String>,
}

/// The simulated Intel Attestation Service.
///
/// Holds the EPID group secrets (here: member public keys), evaluates
/// submitted quotes and returns signed [`AttestationReport`]s.
pub struct AttestationService {
    report_key: SigningKey,
    /// The report key's public half, prepared for relying parties that
    /// verify through this service (see [`crate::QuoteVerifier`]).
    report_verifier: PreparedVerifyingKey,
    groups: BTreeMap<u32, Group>,
    next_report_id: u64,
    clock: u64,
    requests_served: u64,
    requests_counter: Counter,
    non_ok_counter: Counter,
    telemetry: Option<Telemetry>,
}

impl AttestationService {
    /// Create a service with a deterministic report-signing key.
    pub fn new(seed: &[u8]) -> AttestationService {
        let key_seed: [u8; 32] = hkdf::derive(b"ias", seed, b"report signing key", 32)
            .try_into()
            .expect("32");
        let report_key = SigningKey::from_seed(&key_seed);
        AttestationService {
            report_verifier: PreparedVerifyingKey::new(report_key.public_key())
                .expect("a signing key's public key is a point of large order"),
            report_key,
            groups: BTreeMap::new(),
            next_report_id: 1,
            clock: 1_500_000_000,
            requests_served: 0,
            requests_counter: Counter::detached(),
            non_ok_counter: Counter::detached(),
            telemetry: None,
        }
    }

    /// Attach telemetry: verification requests and non-OK verdicts land in
    /// `vnfguard_ias_*` counters, and the bundle is kept so the REST front
    /// end (`core::remote::serve_ias`) can record server-side trace spans.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let ias = telemetry.namespace("ias");
        self.requests_counter = ias.counter("requests_total", &[]);
        self.non_ok_counter = ias.counter("non_ok_verdicts_total", &[]);
        self.telemetry = Some(telemetry.clone());
    }

    /// The telemetry bundle attached via [`AttestationService::set_telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The public key relying parties use to verify report signatures —
    /// the analog of Intel's published report-signing certificate.
    pub fn report_signing_key(&self) -> VerifyingKey {
        self.report_key.public_key()
    }

    /// [`report_signing_key`](Self::report_signing_key), prepared.
    pub(crate) fn report_verifier(&self) -> &PreparedVerifyingKey {
        &self.report_verifier
    }

    /// The service clock's current position (unix seconds).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Register an EPID group.
    pub fn register_group(&mut self, group_id: u32, min_qe_svn: u16) {
        self.groups.entry(group_id).or_insert(Group {
            status: GroupStatus::Ok,
            members: BTreeMap::new(),
            sigrl: BTreeSet::new(),
            min_qe_svn,
            advisories: Vec::new(),
        });
    }

    /// Register a platform's attestation key as a member of `group_id`
    /// (the provisioning step real platforms perform against Intel). The
    /// key is prepared here, once, for every quote it will sign.
    pub fn register_member(&mut self, group_id: u32, member_key: VerifyingKey) {
        self.register_group(group_id, 0);
        let member_id = vnfguard_crypto::sha2::sha256(member_key.as_bytes());
        self.groups
            .get_mut(&group_id)
            .expect("registered above")
            .members
            .insert(member_id, PreparedVerifyingKey::new(member_key).ok());
    }

    /// Put a member on the group's signature revocation list.
    pub fn revoke_member(&mut self, group_id: u32, member_id: [u8; 32]) {
        if let Some(group) = self.groups.get_mut(&group_id) {
            group.sigrl.insert(member_id);
        }
    }

    /// Change a group's administrative status.
    pub fn set_group_status(&mut self, group_id: u32, status: GroupStatus) {
        if let Some(group) = self.groups.get_mut(&group_id) {
            group.status = status;
        }
    }

    /// Attach a security advisory to a group (reported on out-of-date TCB).
    pub fn add_advisory(&mut self, group_id: u32, advisory: &str) {
        if let Some(group) = self.groups.get_mut(&group_id) {
            group.advisories.push(advisory.to_string());
        }
    }

    /// Raise the TCB baseline: quotes from QEs below `min_qe_svn` will be
    /// reported `GROUP_OUT_OF_DATE`.
    pub fn set_tcb_baseline(&mut self, group_id: u32, min_qe_svn: u16) {
        if let Some(group) = self.groups.get_mut(&group_id) {
            group.min_qe_svn = min_qe_svn;
        }
    }

    /// Current SigRL size for a group (0 if unknown).
    pub fn sigrl_len(&self, group_id: u32) -> usize {
        self.groups.get(&group_id).map_or(0, |g| g.sigrl.len())
    }

    /// Total verification requests served (for E1/E2 accounting).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Verify an encoded quote and return a signed verification report.
    ///
    /// This is the `/attestation/v4/report`-style endpoint: it never fails
    /// outright — malformed or invalid quotes yield a signed report with the
    /// corresponding non-OK status, exactly as the paper's Verification
    /// Manager expects to consume.
    pub fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport {
        self.requests_served += 1;
        self.requests_counter.inc();
        let id = self.next_report_id;
        self.next_report_id += 1;

        let (status, quote_body, advisories) = self.evaluate(quote_bytes);
        if status != QuoteStatus::Ok {
            self.non_ok_counter.inc();
        }
        AttestationReport::create(
            id,
            self.clock,
            status,
            nonce,
            quote_body,
            advisories,
            &self.report_key,
        )
    }

    fn evaluate(
        &self,
        quote_bytes: &[u8],
    ) -> (
        QuoteStatus,
        Option<vnfguard_sgx::report::ReportBody>,
        Vec<String>,
    ) {
        let quote = match Quote::decode(quote_bytes) {
            Ok(q) => q,
            Err(_) => return (QuoteStatus::SignatureInvalid, None, Vec::new()),
        };
        if quote.version != QUOTE_VERSION {
            return (
                QuoteStatus::VersionUnsupported,
                Some(quote.report_body),
                Vec::new(),
            );
        }
        let Some(group) = self.groups.get(&quote.epid_group_id) else {
            return (
                QuoteStatus::UnknownGroup,
                Some(quote.report_body),
                Vec::new(),
            );
        };
        if group.status == GroupStatus::Revoked {
            return (
                QuoteStatus::GroupRevoked,
                Some(quote.report_body),
                Vec::new(),
            );
        }
        // Member key lookup and EPID signature check.
        let Some(member_key) = group.members.get(&quote.member_id) else {
            return (QuoteStatus::KeyRevoked, Some(quote.report_body), Vec::new());
        };
        if member_key
            .as_ref()
            .is_none_or(|key| quote.verify_with_member_key(key).is_err())
        {
            return (
                QuoteStatus::SignatureInvalid,
                Some(quote.report_body),
                Vec::new(),
            );
        }
        // SigRL check: a revoked member key.
        if group.sigrl.contains(&quote.member_id) {
            return (
                QuoteStatus::SignatureRevoked,
                Some(quote.report_body),
                Vec::new(),
            );
        }
        // TCB currency.
        if group.status == GroupStatus::OutOfDate || quote.qe_svn < group.min_qe_svn {
            return (
                QuoteStatus::GroupOutOfDate,
                Some(quote.report_body),
                group.advisories.clone(),
            );
        }
        (QuoteStatus::Ok, Some(quote.report_body), Vec::new())
    }
}

impl std::fmt::Debug for AttestationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttestationService")
            .field("groups", &self.groups.len())
            .field("requests_served", &self.requests_served)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_sgx::enclave::{EnclaveCode, EnclaveContext};
    use vnfguard_sgx::platform::SgxPlatform;
    use vnfguard_sgx::sigstruct::EnclaveAuthor;
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

    fn quoted_platform(seed: &[u8]) -> (SgxPlatform, Vec<u8>) {
        let platform = SgxPlatform::new(seed);
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let image = b"attested app";
        let signed = author.sign_enclave(SgxPlatform::measure_image(image, 4096), 1, 1, false);
        let enclave = platform
            .load_enclave(&signed, 4096, Box::new(Null(image.to_vec())))
            .unwrap();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [7; 64]);
        let quote = qe.quote(&report, [1; 32]).unwrap();
        (platform, quote.encode())
    }

    fn service_with(platform: &SgxPlatform) -> AttestationService {
        let mut ias = AttestationService::new(b"test ias");
        ias.register_member(platform.epid_group_id(), platform.attestation_public_key());
        ias
    }

    #[test]
    fn valid_quote_reports_ok() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let report = ias.verify_quote(&quote, b"nonce-1");
        assert_eq!(report.status, QuoteStatus::Ok);
        assert_eq!(report.nonce, b"nonce-1");
        report.verify(&ias.report_verifier).unwrap();
        let body = report.quote_body.unwrap();
        assert_eq!(body.report_data, [7; 64]);
        assert_eq!(ias.requests_served(), 1);
    }

    #[test]
    fn unknown_group() {
        let (_platform, quote) = quoted_platform(b"p");
        let mut ias = AttestationService::new(b"empty ias");
        let report = ias.verify_quote(&quote, b"");
        assert_eq!(report.status, QuoteStatus::UnknownGroup);
    }

    #[test]
    fn unknown_member_key_is_key_revoked() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = AttestationService::new(b"ias");
        // Group exists but this platform's member key was never registered.
        ias.register_group(platform.epid_group_id(), 0);
        let report = ias.verify_quote(&quote, b"");
        assert_eq!(report.status, QuoteStatus::KeyRevoked);
    }

    #[test]
    fn sigrl_revocation() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let member_id = platform.quoting_enclave().member_id();
        ias.revoke_member(platform.epid_group_id(), member_id);
        assert_eq!(ias.sigrl_len(platform.epid_group_id()), 1);
        let report = ias.verify_quote(&quote, b"");
        assert_eq!(report.status, QuoteStatus::SignatureRevoked);
    }

    #[test]
    fn group_revocation() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        ias.set_group_status(platform.epid_group_id(), GroupStatus::Revoked);
        let report = ias.verify_quote(&quote, b"");
        assert_eq!(report.status, QuoteStatus::GroupRevoked);
    }

    #[test]
    fn tcb_out_of_date_with_advisories() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        // Default platform qe_svn is 2; raise the baseline above it.
        ias.set_tcb_baseline(platform.epid_group_id(), 5);
        ias.add_advisory(platform.epid_group_id(), "INTEL-SA-00233");
        let report = ias.verify_quote(&quote, b"");
        assert_eq!(report.status, QuoteStatus::GroupOutOfDate);
        assert_eq!(report.advisories, vec!["INTEL-SA-00233".to_string()]);
        assert!(report.status.is_ok_lenient());
        assert!(!report.status.is_ok_strict());
    }

    #[test]
    fn forged_quote_signature_invalid() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let mut forged = quote.clone();
        // Flip a byte in the signature region (tail of the encoding).
        let last = forged.len() - 1;
        forged[last] ^= 1;
        let report = ias.verify_quote(&forged, b"");
        assert_eq!(report.status, QuoteStatus::SignatureInvalid);
    }

    #[test]
    fn garbage_quote_signature_invalid() {
        let (platform, _quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let report = ias.verify_quote(b"not a quote", b"n");
        assert_eq!(report.status, QuoteStatus::SignatureInvalid);
        assert_eq!(report.quote_body, None);
        // Even failure reports are signed.
        report.verify(&ias.report_verifier).unwrap();
    }

    #[test]
    fn cross_platform_quote_rejected() {
        // Quote from platform B submitted under platform A's registration:
        // same group id but unregistered member key.
        let (platform_a, _) = quoted_platform(b"a");
        let (_platform_b, quote_b) = quoted_platform(b"b");
        let mut ias = service_with(&platform_a);
        let report = ias.verify_quote(&quote_b, b"");
        assert_eq!(report.status, QuoteStatus::KeyRevoked);
    }

    #[test]
    fn telemetry_counts_requests_and_non_ok_verdicts() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let telemetry = Telemetry::new();
        ias.set_telemetry(&telemetry);
        ias.verify_quote(&quote, b"n1");
        ias.verify_quote(b"garbage", b"n2");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_ias_requests_total"),
            Some(2)
        );
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_ias_non_ok_verdicts_total"),
            Some(1)
        );
    }

    #[test]
    fn report_ids_are_monotonic() {
        let (platform, quote) = quoted_platform(b"p");
        let mut ias = service_with(&platform);
        let r1 = ias.verify_quote(&quote, b"");
        let r2 = ias.verify_quote(&quote, b"");
        assert!(r2.id > r1.id);
    }
}
