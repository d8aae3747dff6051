//! Property tests for the attestation backends — the cross-backend and
//! forged-evidence invariants the multi-TEE trust story rests on.
//!
//! The properties are all refusal-shaped: across arbitrary seeds,
//! measurements and mutations, evidence that is forged, stale, truncated,
//! bit-flipped, or presented to the wrong backend's appraiser can never
//! yield a `Verified`-grade appraisal. The positive path (a healthy
//! platform appraising cleanly) rides along in each property as the
//! control arm, so a vacuous rejection (e.g. a verifier that rejects
//! everything) fails the test too.

use proptest::collection::vec;
use proptest::prelude::*;
use vnfguard::attest::snp::{
    launch_measurement, normalize_measurement, AmdRoot, SnpFault, SnpPlatform, SnpVerifier,
};
use vnfguard::attest::{AppraisalPolicy, AttestError, AttestationBackend, BackendKind, TcbStatus};
use vnfguard::controller::clock::SimClock;
use vnfguard::crypto::ed25519::{Point, VerifyingKey};
use vnfguard::crypto::sha256;
use vnfguard::ias::{AttestationReport, AttestationService, QuoteStatus, QuoteVerifier};
use vnfguard::sgx::enclave::{EnclaveCode, EnclaveContext};
use vnfguard::sgx::platform::{PlatformConfig, SgxPlatform};
use vnfguard::sgx::quote::Quote;
use vnfguard::sgx::sigstruct::EnclaveAuthor;
use vnfguard::sgx::transition::TransitionModel;
use vnfguard::sgx::SgxError;

struct Null(Vec<u8>);
impl EnclaveCode for Null {
    fn image(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn on_call(
        &mut self,
        _ctx: &mut EnclaveContext,
        op: u16,
        _input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        Err(SgxError::BadCall(op))
    }
}

/// A real SGX quote from a platform seeded with `seed`, plus the IAS that
/// trusts it — the genuine article for cross-backend presentation.
fn sgx_quote(seed: &[u8]) -> (Vec<u8>, AttestationService) {
    let platform =
        SgxPlatform::with_config(seed, PlatformConfig::default(), TransitionModel::free());
    let author = EnclaveAuthor::from_seed(&[7; 32]);
    let image = b"cross-backend app";
    let mrenclave = SgxPlatform::measure_image(image, 4096);
    let signed = author.sign_enclave(mrenclave, 1, 1, false);
    let enclave = platform
        .load_enclave(&signed, 4096, Box::new(Null(image.to_vec())))
        .unwrap();
    let qe = platform.quoting_enclave();
    let report = enclave.create_report(&qe.target_info(), [0u8; 64]);
    let quote = qe.quote(&report, [1; 32]).unwrap().encode();
    let mut ias = AttestationService::new(b"attest-props ias");
    ias.register_member(platform.epid_group_id(), platform.attestation_public_key());
    (quote, ias)
}

fn snp_fixture(seed: u64, image: &[u8]) -> (SnpPlatform, SnpVerifier) {
    let root = AmdRoot::new(&seed.to_be_bytes());
    let platform = SnpPlatform::provision(
        &root,
        &[&seed.to_be_bytes()[..], b".chip"].concat(),
        launch_measurement(image),
        7,
    );
    let verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
    (platform, verifier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A forged report signature — signed by a key the VCEK chain does not
    /// endorse — is rejected for every platform seed, while the same
    /// platform without the fault appraises cleanly.
    #[test]
    fn forged_snp_signature_never_verifies(seed in any::<u64>(), rd in any::<u8>()) {
        let (platform, mut verifier) = snp_fixture(seed, b"forged-prop cvm");
        let report_data = [rd; 64];
        prop_assert!(verifier.appraise(&platform.attest_self(report_data), b"").is_ok());
        let forged = platform.with_fault(SnpFault::ForgedSignature);
        let err = verifier.appraise(&forged.attest_self(report_data), b"");
        prop_assert!(matches!(err, Err(AttestError::Rejected(_))), "{err:?}");
    }

    /// A stale VCEK endorsement fails closed once the deployment clock has
    /// passed its expiry, no matter the seed.
    #[test]
    fn stale_vcek_never_verifies(seed in any::<u64>(), now in 2u64..u64::MAX) {
        let root = AmdRoot::new(&seed.to_be_bytes());
        let platform = SnpPlatform::provision(
            &root,
            &seed.to_be_bytes(),
            launch_measurement(b"stale-prop cvm"),
            7,
        )
        .with_fault(SnpFault::StaleVcek);
        // The fault hook's stale VCEK expired at t=1; any later clock refuses.
        let mut verifier = SnpVerifier::new(root.ark_public(), SimClock::at(now));
        match verifier.appraise(&platform.attest_self([0; 64]), b"") {
            Err(AttestError::Rejected(msg)) => prop_assert!(msg.contains("expired"), "{msg}"),
            other => prop_assert!(false, "stale VCEK accepted: {other:?}"),
        }
    }

    /// Severing the evidence bundle at any point — which truncates the
    /// VCEK chain, the report, or the signatures — never appraises Ok.
    #[test]
    fn truncated_evidence_never_verifies(seed in any::<u64>(), cut in any::<u64>()) {
        let (platform, mut verifier) = snp_fixture(seed, b"truncate-prop cvm");
        let evidence = platform.attest_self([3; 64]);
        prop_assert!(verifier.appraise(&evidence, b"").is_ok());
        let len = (cut as usize) % evidence.len(); // strictly shorter than the full bundle
        prop_assert!(verifier.appraise(&evidence[..len], b"").is_err());
    }

    /// Flipping any single bit of a valid bundle lands in structure, a
    /// signed field, or a signature — none of which can still verify.
    #[test]
    fn bitflipped_evidence_never_verifies(seed in any::<u64>(), pos in any::<u64>(), bit in 0u8..8) {
        let (platform, mut verifier) = snp_fixture(seed, b"bitflip-prop cvm");
        let mut evidence = platform.attest_self([5; 64]);
        let i = (pos as usize) % evidence.len();
        evidence[i] ^= 1 << bit;
        prop_assert!(verifier.appraise(&evidence, b"").is_err());
    }

    /// Evidence for one CVM image never satisfies a relying party pinned
    /// to a different image's launch measurement: the normalized registers
    /// differ, so whitelist matching cannot cross images.
    #[test]
    fn mismatched_launch_measurement_never_matches(
        seed in any::<u64>(),
        img_a in vec(any::<u8>(), 1..48),
        img_b in vec(any::<u8>(), 1..48),
    ) {
        prop_assume!(img_a != img_b);
        let (platform, mut verifier) = snp_fixture(seed, &img_a);
        let appraisal = verifier.appraise(&platform.attest_self([0; 64]), b"").unwrap();
        let pinned = normalize_measurement(&launch_measurement(&img_b));
        prop_assert_ne!(appraisal.measurement, pinned);
        prop_assert_eq!(
            appraisal.measurement,
            normalize_measurement(&launch_measurement(&img_a))
        );
    }

    /// Arbitrary non-SNP bytes die as structural decode errors before any
    /// cryptography runs.
    #[test]
    fn arbitrary_bytes_are_encoding_errors(seed in any::<u64>(), bytes in vec(any::<u8>(), 0..200)) {
        prop_assume!(!bytes.starts_with(b"SNPE"));
        let (_platform, mut verifier) = snp_fixture(seed, b"garbage-prop cvm");
        let err = verifier.appraise(&bytes, b"");
        prop_assert!(matches!(err, Err(AttestError::Encoding(_))), "{err:?}");
    }

    /// Flipping any single bit of a genuine SGX quote never yields an
    /// appraisal a policy accepts: the flip lands in structure (refused as
    /// `SIGNATURE_INVALID`), in the group or member id (unknown group,
    /// unregistered key), or in a field the member key signed, whose
    /// signature no longer verifies under the IAS's prepared member key.
    #[test]
    fn bitflipped_sgx_quote_never_appraises(seed in any::<u64>(), pos in any::<u64>(), bit in 0u8..8) {
        let (mut quote, mut ias) = sgx_quote(&seed.to_be_bytes());
        prop_assert!(ias.appraise(&quote, b"n").is_ok());
        let i = (pos as usize) % quote.len();
        quote[i] ^= 1 << bit;
        match ias.appraise(&quote, b"n") {
            Err(_) => {}
            Ok(appraisal) => prop_assert!(
                AppraisalPolicy::lenient().check(&appraisal).is_err(),
                "flipped bit {i}.{bit} appraised as {appraisal:?}"
            ),
        }
    }

    /// Flipping any single bit of a genuine IAS report's encoding never
    /// yields a report that verifies under the prepared report key the
    /// relying party holds.
    #[test]
    fn bitflipped_ias_report_never_verifies(seed in any::<u64>(), pos in any::<u64>(), bit in 0u8..8) {
        let (quote, mut ias) = sgx_quote(&seed.to_be_bytes());
        let mut encoded = ias.verify_quote(&quote, &seed.to_be_bytes()).encode();
        let key = ias.report_key().expect("the service's own key").clone();
        prop_assert!(AttestationReport::decode(&encoded).unwrap().verify(&key).is_ok());
        let i = (pos as usize) % encoded.len();
        encoded[i] ^= 1 << bit;
        if let Ok(report) = AttestationReport::decode(&encoded) {
            prop_assert!(report.verify(&key).is_err(), "flipped bit {i}.{bit} verified");
        }
    }

    /// Debug-policy evidence appraises (the fact is surfaced) but both the
    /// strict and lenient policies refuse it — the debug bit is never
    /// waivable by TCB leniency.
    #[test]
    fn debug_policy_always_refused(seed in any::<u64>()) {
        let (platform, mut verifier) = snp_fixture(seed, b"debug-prop cvm");
        let platform = platform.with_fault(SnpFault::DebugPolicy);
        let appraisal = verifier.appraise(&platform.attest_self([0; 64]), b"").unwrap();
        prop_assert!(appraisal.debug);
        prop_assert_eq!(appraisal.tcb, TcbStatus::UpToDate);
        prop_assert!(AppraisalPolicy::strict().check(&appraisal).is_err());
        prop_assert!(AppraisalPolicy::lenient().check(&appraisal).is_err());
    }
}

/// Under a small-order member key the cofactorless equation admits a
/// forgery anyone can make: under the identity, R = [r]B with S = r
/// verifies over every message. The IAS cannot prepare such a key, and
/// reads every quote under it `SIGNATURE_INVALID`, this forgery included.
#[test]
fn quotes_under_a_small_order_member_key_are_signature_invalid() {
    let mut r = [0u8; 32];
    r[0] = 5;
    let forged_signature = [Point::base().scalar_mul(&r).compress(), r].concat();
    let mut identity = [0u8; 32];
    identity[0] = 1;
    let minus_one: [u8; 32] = std::array::from_fn(|i| match i {
        0 => 0xec,
        31 => 0x7f,
        _ => 0xff,
    });
    let (zero_y, mut zero_y_negative) = ([0u8; 32], [0u8; 32]);
    zero_y_negative[31] = 0x80;
    let mut eight = [0u8; 32];
    eight[0] = 8;
    for small in [identity, minus_one, zero_y, zero_y_negative] {
        let point = Point::decompress(&small).unwrap();
        assert!(point.scalar_mul(&eight).equals(&Point::identity()));
        let (genuine, mut ias) = sgx_quote(&small);
        let mut quote = Quote::decode(&genuine).unwrap();
        quote.member_id = sha256(&small);
        ias.register_member(quote.epid_group_id, VerifyingKey::from_bytes(&small));
        let mut forged = quote.encode();
        let signature_at = forged.len() - forged_signature.len();
        forged[signature_at..].copy_from_slice(&forged_signature);
        for evidence in [&forged, &quote.encode()] {
            let report = ias.verify_quote(evidence, b"n");
            assert_eq!(report.status, QuoteStatus::SignatureInvalid);
            assert!(ias.appraise(evidence, b"n").is_err());
        }
    }
}

/// A genuine SGX quote presented to the SNP appraiser is refused
/// structurally (no SNP magic), and genuine SNP evidence presented to the
/// SGX/EPID appraiser is refused by IAS — cross-backend confusion fails
/// closed in both directions, while each backend accepts its own evidence.
#[test]
fn cross_backend_evidence_always_refused() {
    for seed in 0u64..16 {
        let (quote, mut ias) = sgx_quote(&seed.to_be_bytes());
        let (snp_platform, mut snp_verifier) = snp_fixture(seed, b"cross-prop cvm");
        let snp_evidence = snp_platform.attest_self([0; 64]);

        // Control arms: each backend accepts its own evidence.
        assert_eq!(
            ias.appraise(&quote, b"n").unwrap().backend,
            BackendKind::SgxEpid
        );
        assert_eq!(
            snp_verifier.appraise(&snp_evidence, b"").unwrap().backend,
            BackendKind::SevSnp
        );

        // SGX quote → SNP appraiser: structural refusal, pre-crypto.
        assert!(matches!(
            snp_verifier.appraise(&quote, b""),
            Err(AttestError::Encoding(_))
        ));

        // SNP evidence → SGX appraiser: IAS can't parse it as a quote and
        // the appraisal refuses rather than appraising.
        assert!(ias.appraise(&snp_evidence, b"n").is_err());
    }
}
