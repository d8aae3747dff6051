//! E18 — attestation backends: SEV-SNP offline appraisal against the
//! SGX/EPID → IAS path, plus the forged-evidence refusal matrix.
//!
//! This is a custom harness, not a criterion bench: it *enforces* the
//! acceptance bars.
//!
//! - **Latency bar.** A single SNP appraisal (decode + ARK→ASK→VCEK→report
//!   chain walk, all local) must be at least as fast as one SGX/EPID
//!   appraisal through the attestation service as deployed — a
//!   [`RemoteIas`] round-trip over the fabric, the way every manager
//!   reaches IAS in production. The in-process IAS time is also reported
//!   (informational) to separate crypto cost from transport cost.
//!   Batches run as adjacent pairs with alternating order and the median
//!   per-pair ratio is compared, so scheduler drift hits both sides
//!   equally; [`SLACK`] absorbs measurement noise on a loaded machine.
//! - **Refusal matrix.** Across [`MATRIX_SEEDS`] independent seeds, every
//!   forged / stale / debug / truncated / cross-backend presentation must
//!   be refused — a single acceptance fails the run.

use std::hint::black_box;
use std::time::{Duration, Instant};
use vnfguard_attest::snp::{launch_measurement, AmdRoot, SnpFault, SnpPlatform, SnpVerifier};
use vnfguard_attest::{AppraisalPolicy, AttestationBackend};
use vnfguard_bench::median;
use vnfguard_controller::SimClock;
use vnfguard_core::remote::{serve_ias, RemoteIas};
use vnfguard_ias::AttestationService;
use vnfguard_net::Network;
use vnfguard_sgx::enclave::{Enclave, EnclaveCode, EnclaveContext};
use vnfguard_sgx::platform::{PlatformConfig, SgxPlatform};
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::transition::TransitionModel;
use vnfguard_sgx::SgxError;

/// Appraisals per timed batch.
const BATCH_SIZE: u32 = 200;
/// Paired batches; the median per-pair ratio is compared.
const BATCHES: usize = 9;
/// SNP may be at most this factor of the SGX/IAS time (1.0 = "at least
/// as fast"; the margin absorbs timer noise, not a real regression).
const SLACK: f64 = 1.05;
/// Noisy-machine retries before the latency bar is declared failed.
const ATTEMPTS: usize = 3;
/// Independent seeds for the forged-evidence refusal matrix.
const MATRIX_SEEDS: u64 = 12;

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

struct SgxWorld {
    ias: AttestationService,
    platform: SgxPlatform,
    enclave: Enclave,
}

impl SgxWorld {
    fn new(seed: &[u8]) -> SgxWorld {
        let platform =
            SgxPlatform::with_config(seed, PlatformConfig::default(), TransitionModel::free());
        let author = EnclaveAuthor::from_seed(&[2; 32]);
        let image = b"e18 benched app";
        let mrenclave = SgxPlatform::measure_image(image, 4096);
        let signed = author.sign_enclave(mrenclave, 1, 1, false);
        let enclave = platform
            .load_enclave(&signed, 4096, Box::new(Null(image.to_vec())))
            .unwrap();
        let mut ias = AttestationService::new(&[b"e18 ias ", seed].concat());
        ias.register_member(platform.epid_group_id(), platform.attestation_public_key());
        SgxWorld {
            ias,
            platform,
            enclave,
        }
    }

    fn quote(&self) -> Vec<u8> {
        let qe = self.platform.quoting_enclave();
        let report = self.enclave.create_report(&qe.target_info(), [0u8; 64]);
        qe.quote(&report, [1; 32]).unwrap().encode()
    }
}

fn snp_world(seed: &[u8]) -> (SnpPlatform, SnpVerifier) {
    let root = AmdRoot::new(seed);
    let platform = SnpPlatform::provision(
        &root,
        &[seed, b".chip"].concat(),
        launch_measurement(b"e18 cvm image"),
        7,
    );
    let verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
    (platform, verifier)
}

fn timed_batch(backend: &mut dyn AttestationBackend, evidence: &[u8], nonce: &[u8]) -> Duration {
    let start = Instant::now();
    for _ in 0..BATCH_SIZE {
        black_box(backend.appraise(black_box(evidence), nonce).unwrap());
    }
    start.elapsed()
}

/// One full latency measurement. Returns
/// `(snp_us, sgx_remote_us, sgx_local_us, ratio)` per appraisal, ratio =
/// median per-pair snp/sgx-remote.
fn measure(attempt: usize) -> (f64, f64, f64, f64) {
    let seed = format!("e18 latency {attempt}");
    let sgx = SgxWorld::new(seed.as_bytes());
    let quote = sgx.quote();
    // Split the world: the service moves behind the fabric (the deployed
    // shape), while a second in-process handle isolates the crypto cost.
    let mut local = sgx.ias;
    let report_key = local.report_signing_key();
    let network = Network::new();
    let ias_for_serving = {
        let mut ias = AttestationService::new(&[b"e18 ias ", seed.as_bytes()].concat());
        ias.register_member(
            sgx.platform.epid_group_id(),
            sgx.platform.attestation_public_key(),
        );
        ias
    };
    let (_handle, _shared) = serve_ias(&network, "ias:443", ias_for_serving).unwrap();
    let mut remote = RemoteIas::new(&network, "ias:443", report_key);
    let (snp_platform, mut snp_verifier) = snp_world(seed.as_bytes());
    let snp_evidence = snp_platform.attest_self([0u8; 64]);
    // Warm all three paths before timing.
    for _ in 0..2 {
        timed_batch(&mut local, &quote, b"n");
        timed_batch(&mut remote, &quote, b"n");
        timed_batch(&mut snp_verifier, &snp_evidence, b"n");
    }
    let per_iter = |d: Duration| d.as_micros() as f64 / BATCH_SIZE as f64;
    let mut snp_us = Vec::with_capacity(BATCHES);
    let mut sgx_us = Vec::with_capacity(BATCHES);
    let mut sgx_local_us = Vec::with_capacity(BATCHES);
    for pair in 0..BATCHES {
        // Alternate which side goes first so ordering bias cancels too.
        if pair % 2 == 0 {
            snp_us.push(per_iter(timed_batch(
                &mut snp_verifier,
                &snp_evidence,
                b"n",
            )));
            sgx_us.push(per_iter(timed_batch(&mut remote, &quote, b"n")));
        } else {
            sgx_us.push(per_iter(timed_batch(&mut remote, &quote, b"n")));
            snp_us.push(per_iter(timed_batch(
                &mut snp_verifier,
                &snp_evidence,
                b"n",
            )));
        }
        sgx_local_us.push(per_iter(timed_batch(&mut local, &quote, b"n")));
    }
    let ratios: Vec<f64> = snp_us.iter().zip(&sgx_us).map(|(a, b)| a / b).collect();
    (
        median(snp_us),
        median(sgx_us),
        median(sgx_local_us),
        median(ratios),
    )
}

/// Count forged-evidence acceptances across the seed matrix. Anything
/// other than zero is a broken refusal path.
fn refusal_matrix() -> (u64, u64) {
    let mut presented = 0u64;
    let mut accepted = 0u64;
    let strict = AppraisalPolicy::strict();
    for seed in 0..MATRIX_SEEDS {
        let seed_bytes = [b"e18 matrix ".as_slice(), &seed.to_be_bytes()].concat();
        let sgx = SgxWorld::new(&seed_bytes);
        let quote = sgx.quote();
        let mut sgx_backend = sgx.ias;
        let root = AmdRoot::new(&seed_bytes);
        let chip_seed = [&seed_bytes[..], b".chip"].concat();
        let provision =
            || SnpPlatform::provision(&root, &chip_seed, launch_measurement(b"e18 cvm image"), 7);
        let mut snp_verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
        let good = provision().attest_self([0u8; 64]);

        // Control arms: the genuine article must appraise on its own
        // backend, or the matrix is vacuous.
        assert!(snp_verifier.appraise(&good, b"n").is_ok(), "seed {seed}");
        assert!(sgx_backend.appraise(&quote, b"n").is_ok(), "seed {seed}");

        let mut present_snp = |verifier: &mut SnpVerifier, evidence: &[u8]| {
            presented += 1;
            if let Ok(appraisal) = verifier.appraise(evidence, b"n") {
                if strict.check(&appraisal).is_ok() {
                    accepted += 1;
                }
            }
        };
        // Seeded fault hooks: forged report signature, stale VCEK, debug
        // guest policy.
        for fault in [
            SnpFault::ForgedSignature,
            SnpFault::StaleVcek,
            SnpFault::DebugPolicy,
        ] {
            let forged = provision().with_fault(fault).attest_self([0u8; 64]);
            present_snp(&mut snp_verifier, &forged);
        }
        // Truncations sever the VCEK chain / report / signatures.
        for cut in [1usize, good.len() / 4, good.len() / 2, good.len() - 1] {
            present_snp(&mut snp_verifier, &good[..cut]);
        }
        // Cross-backend presentations, both directions.
        present_snp(&mut snp_verifier, &quote);
        presented += 1;
        if let Ok(appraisal) = sgx_backend.appraise(&good, b"n") {
            if strict.check(&appraisal).is_ok() {
                accepted += 1;
            }
        }
    }
    (presented, accepted)
}

fn main() {
    println!("e18_backends: SNP offline appraisal vs SGX/EPID+IAS, plus refusal matrix");

    let (presented, accepted) = refusal_matrix();
    println!(
        "e18_backends/refusal_matrix        {presented:>10} forged/cross presentations over {MATRIX_SEEDS} seeds, {accepted} accepted (bar: 0)"
    );
    if accepted != 0 {
        eprintln!("e18_backends: FAIL — {accepted} forged or cross-backend presentations accepted");
        std::process::exit(1);
    }

    let mut last = (0.0, 0.0, 0.0);
    for attempt in 0..ATTEMPTS {
        let (snp, sgx, sgx_local, ratio) = measure(attempt);
        println!(
            "e18_backends/snp_offline_appraisal {snp:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e18_backends/sgx_ias_appraisal     {sgx:>10.1} µs/iter (remote IAS, median of {BATCHES} batches)"
        );
        println!(
            "e18_backends/sgx_ias_inprocess     {sgx_local:>10.1} µs/iter (crypto only, informational)"
        );
        println!(
            "e18_backends/ratio                 {ratio:>10.2} x (median pair ratio, bar {SLACK:.2} x)"
        );
        if ratio <= SLACK {
            println!("e18_backends: PASS");
            return;
        }
        last = (snp, sgx, ratio);
        println!(
            "e18_backends: attempt {} over the bar, retrying",
            attempt + 1
        );
    }
    eprintln!(
        "e18_backends: FAIL — SNP {:.1} µs vs SGX/IAS {:.1} µs ({:.2} x > {:.2} x)",
        last.0, last.1, last.2, SLACK
    );
    std::process::exit(1);
}
