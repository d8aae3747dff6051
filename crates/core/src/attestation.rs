//! Attestation evidence and the integrity attestation enclave.

use crate::backend::snp_vnf_measurement;
use crate::CoreError;
use vnfguard_attest::snp::SnpPlatform;
use vnfguard_crypto::sha2::sha256;
use vnfguard_encoding::{TlvReader, TlvWriter};
use vnfguard_ima::list::MeasurementList;
use vnfguard_ima::tpm::PcrQuote;
// backend-opt-out: the integrity attestation enclave is itself an SGX
// enclave running on the host agent — platform-side plumbing, not
// relying-party appraisal (which goes through vnfguard-attest backends).
use vnfguard_sgx::enclave::{Enclave, EnclaveCode, EnclaveContext};
use vnfguard_sgx::measurement::Measurement;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::report::TargetInfo;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::SgxError;
use vnfguard_vnf::credential_enclave::provisioning_report_data;
use vnfguard_vnf::VnfGuard;

const TAG_QUOTE: u8 = 0xc0;
const TAG_IML: u8 = 0xc1;
const TAG_TPM_QUOTE: u8 = 0xc2;
const TAG_TARGET: u8 = 0xc3;
const TAG_NONCE: u8 = 0xc4;

/// Evidence the container host returns for steps 1–2 of Figure 1: a quote
/// from the integrity attestation enclave whose report data binds the
/// transmitted measurement list, plus the list itself (and, with the §4
/// future-work extension, a TPM quote over the aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct HostEvidence {
    pub quote: Vec<u8>,
    pub iml: Vec<u8>,
    pub tpm_quote: Option<Vec<u8>>,
}

impl HostEvidence {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.bytes(TAG_QUOTE, &self.quote).bytes(TAG_IML, &self.iml);
        if let Some(tpm) = &self.tpm_quote {
            w.bytes(TAG_TPM_QUOTE, tpm);
        }
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<HostEvidence, CoreError> {
        let mut r = TlvReader::new(bytes);
        let quote = r.expect(TAG_QUOTE)?.to_vec();
        let iml = r.expect(TAG_IML)?.to_vec();
        let tpm_quote = if !r.is_empty() {
            Some(r.expect(TAG_TPM_QUOTE)?.to_vec())
        } else {
            None
        };
        r.finish()?;
        Ok(HostEvidence {
            quote,
            iml,
            tpm_quote,
        })
    }

    /// Parse the embedded measurement list.
    pub fn measurement_list(&self) -> Result<MeasurementList, CoreError> {
        MeasurementList::decode(&self.iml).map_err(|e| CoreError::Encoding(e.to_string()))
    }

    /// Parse the embedded TPM quote, if present.
    pub fn parsed_tpm_quote(&self) -> Result<Option<PcrQuote>, CoreError> {
        match &self.tpm_quote {
            None => Ok(None),
            Some(bytes) => Ok(Some(
                PcrQuote::decode(bytes).map_err(|e| CoreError::Encoding(e.to_string()))?,
            )),
        }
    }
}

/// Report data an honest integrity attestation enclave embeds in its quote:
/// hash of the transmitted IML, then the verifier nonce.
pub fn host_report_data(iml_bytes: &[u8], nonce: &[u8; 32]) -> [u8; 64] {
    let mut data = [0u8; 64];
    data[..32].copy_from_slice(&sha256(iml_bytes));
    data[32..].copy_from_slice(nonce);
    data
}

/// The integrity attestation enclave of Figure 1: it receives the host's
/// measurement list, checks its internal consistency, and quotes a digest
/// of it together with the verifier's nonce.
pub struct IntegrityAttestationEnclave {
    image: Vec<u8>,
    iml: Option<Vec<u8>>,
}

/// Ecall opcodes of the integrity attestation enclave.
pub mod op {
    /// input: raw IML bytes → ().
    pub const SET_IML: u16 = 1;
    /// input: TLV{target, nonce} → report bytes.
    pub const ATTEST: u16 = 2;
}

impl IntegrityAttestationEnclave {
    pub fn new(image: &[u8]) -> IntegrityAttestationEnclave {
        IntegrityAttestationEnclave {
            image: image.to_vec(),
            iml: None,
        }
    }

    /// Canonical image bytes of the integrity attestation enclave.
    pub fn image(version: u32) -> Vec<u8> {
        format!("vnfguard integrity attestation enclave v{version}").into_bytes()
    }

    /// Expected MRENCLAVE for a version (whitelisted by the VM).
    pub fn expected_measurement(version: u32) -> Measurement {
        SgxPlatform::measure_image(&Self::image(version), Self::SIZE)
    }

    /// Enclave size used at load.
    pub const SIZE: usize = 128 * 1024;

    /// Load onto a platform under `author`.
    pub fn load(
        platform: &SgxPlatform,
        author: &EnclaveAuthor,
        version: u32,
    ) -> Result<Enclave, SgxError> {
        let image = Self::image(version);
        let signed = author.sign_enclave(
            SgxPlatform::measure_image(&image, Self::SIZE),
            3,
            version as u16,
            false,
        );
        platform.load_enclave(&signed, Self::SIZE, Box::new(Self::new(&image)))
    }
}

impl EnclaveCode for IntegrityAttestationEnclave {
    fn image(&self) -> Vec<u8> {
        self.image.clone()
    }

    fn on_call(
        &mut self,
        ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            op::SET_IML => {
                // The enclave refuses internally inconsistent lists: an
                // adversary cannot have it quote a list that does not chain.
                let list = MeasurementList::decode(input)
                    .map_err(|e| SgxError::App(format!("bad IML: {e}")))?;
                if !list.verify_consistency() {
                    return Err(SgxError::App("inconsistent measurement list".into()));
                }
                self.iml = Some(input.to_vec());
                Ok(Vec::new())
            }
            op::ATTEST => {
                let mut r = TlvReader::new(input);
                let target = TargetInfo {
                    mrenclave: Measurement(r.expect_array::<32>(TAG_TARGET)?),
                };
                let nonce = r.expect_array::<32>(TAG_NONCE)?;
                r.finish()?;
                let iml = self
                    .iml
                    .as_ref()
                    .ok_or_else(|| SgxError::App("no IML loaded".into()))?;
                let report = ctx.create_report(&target, host_report_data(iml, &nonce));
                Ok(report.encode())
            }
            other => Err(SgxError::BadCall(other)),
        }
    }
}

/// Encode the ATTEST input for the integrity enclave.
pub fn encode_integrity_attest(target: &TargetInfo, nonce: &[u8; 32]) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.bytes(TAG_TARGET, target.mrenclave.as_bytes())
        .bytes(TAG_NONCE, nonce);
    w.finish()
}

/// Host-side helper producing the full [`HostEvidence`] for a challenge:
/// feeds the IML to the integrity enclave, obtains the report, quotes it.
pub fn host_evidence(
    platform: &SgxPlatform,
    integrity_enclave: &Enclave,
    iml_bytes: &[u8],
    nonce: &[u8; 32],
    tpm_quote: Option<Vec<u8>>,
) -> Result<HostEvidence, CoreError> {
    integrity_enclave.ecall(op::SET_IML, iml_bytes)?;
    let qe = platform.quoting_enclave();
    let report_bytes = integrity_enclave.ecall(
        op::ATTEST,
        &encode_integrity_attest(&qe.target_info(), nonce),
    )?;
    // backend-opt-out: decoding the enclave's local report to hand it to
    // the quoting enclave — still agent-side evidence *production*.
    let report = vnfguard_sgx::report::Report::decode(&report_bytes)?;
    let quote = qe.quote(&report, *nonce)?;
    Ok(HostEvidence {
        quote: quote.encode(),
        iml: iml_bytes.to_vec(),
        tpm_quote,
    })
}

/// A host's evidence for a challenge, from whichever TEE it runs: an SNP
/// confidential-VM host's attestation report, else the SGX integrity
/// enclave's quote ([`host_evidence`]). Both bind the same report data
/// (the IML hash, then the nonce); the IML and TPM quote travel alongside.
pub fn host_tee_evidence(
    platform: &SgxPlatform,
    snp: Option<&SnpPlatform>,
    integrity_enclave: &Enclave,
    iml: Vec<u8>,
    nonce: &[u8; 32],
    tpm_quote: Option<Vec<u8>>,
) -> Result<HostEvidence, CoreError> {
    match snp {
        Some(snp) => Ok(HostEvidence {
            quote: snp.attest_self(host_report_data(&iml, nonce)),
            iml,
            tpm_quote,
        }),
        None => host_evidence(platform, integrity_enclave, &iml, nonce, tpm_quote),
    }
}

/// A VNF's enrollment evidence, from whichever TEE its host runs: on an
/// SNP host the workload CVM's report, else the guard's SGX quote under
/// `basename`. Both bind the same report data: the provisioning key's
/// hash, then the nonce. SNP reports have no basename.
pub fn vnf_tee_evidence(
    platform: &SgxPlatform,
    snp: Option<&SnpPlatform>,
    guard: &VnfGuard,
    provisioning_key: &[u8; 32],
    nonce: &[u8; 32],
    basename: [u8; 32],
) -> Result<Vec<u8>, CoreError> {
    match snp {
        Some(snp) => Ok(snp.attest(
            snp_vnf_measurement(&guard.name),
            provisioning_report_data(provisioning_key, nonce),
        )),
        None => Ok(guard.quote(platform, nonce, basename)?.encode()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::ed25519::PreparedVerifyingKey;

    fn iml_bytes() -> Vec<u8> {
        let mut list = MeasurementList::new(b"boot");
        list.measure_file("/usr/bin/dockerd", b"dockerd");
        list.encode()
    }

    #[test]
    fn evidence_roundtrip() {
        let evidence = HostEvidence {
            quote: vec![1, 2, 3],
            iml: iml_bytes(),
            tpm_quote: Some(vec![4, 5]),
        };
        assert_eq!(HostEvidence::decode(&evidence.encode()).unwrap(), evidence);
        let no_tpm = HostEvidence {
            tpm_quote: None,
            ..evidence
        };
        assert_eq!(HostEvidence::decode(&no_tpm.encode()).unwrap(), no_tpm);
    }

    #[test]
    fn report_data_binds_iml_and_nonce() {
        let a = host_report_data(b"iml-1", &[1; 32]);
        assert_ne!(a, host_report_data(b"iml-2", &[1; 32]));
        assert_ne!(a, host_report_data(b"iml-1", &[2; 32]));
    }

    #[test]
    fn integrity_enclave_quotes_loaded_iml() {
        let platform = SgxPlatform::new(b"host");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let enclave = IntegrityAttestationEnclave::load(&platform, &author, 1).unwrap();
        assert_eq!(
            enclave.mrenclave(),
            IntegrityAttestationEnclave::expected_measurement(1)
        );
        let iml = iml_bytes();
        let nonce = [9u8; 32];
        let evidence = host_evidence(&platform, &enclave, &iml, &nonce, None).unwrap();
        let quote = vnfguard_sgx::quote::Quote::decode(&evidence.quote).unwrap();
        assert_eq!(
            quote.report_body.report_data.to_vec(),
            host_report_data(&iml, &nonce).to_vec()
        );
        quote
            .verify_with_member_key(
                &PreparedVerifyingKey::new(platform.attestation_public_key()).unwrap(),
            )
            .unwrap();
    }

    #[test]
    fn integrity_enclave_refuses_inconsistent_iml() {
        let platform = SgxPlatform::new(b"host");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let enclave = IntegrityAttestationEnclave::load(&platform, &author, 1).unwrap();
        let mut bytes = iml_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        // Either the list fails to decode or fails consistency — both are
        // refusals.
        assert!(enclave.ecall(op::SET_IML, &bytes).is_err());
        // Attesting without a loaded IML also fails.
        let qe = platform.quoting_enclave();
        assert!(enclave
            .ecall(
                op::ATTEST,
                &encode_integrity_attest(&qe.target_info(), &[0; 32])
            )
            .is_err());
    }

    #[test]
    fn versions_have_distinct_measurements() {
        assert_ne!(
            IntegrityAttestationEnclave::expected_measurement(1),
            IntegrityAttestationEnclave::expected_measurement(2)
        );
    }
}
