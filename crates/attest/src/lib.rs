//! # vnfguard-attest
//!
//! Multi-TEE attestation backends behind one appraisal contract.
//!
//! The paper hard-codes SGX EPID attestation: an enclave quote travels to
//! the Intel Attestation Service and comes back as a signed report the
//! Verification Manager appraises. This crate extracts the part of that
//! flow the manager actually depends on — *some* evidence format, *some*
//! measurement register, *some* trust-status vocabulary — into the
//! [`AttestationBackend`] trait, so heterogeneous fleets can mix TEE
//! technologies behind one enrollment protocol:
//!
//! - every [`QuoteVerifier`](vnfguard_ias::QuoteVerifier) (the in-process
//!   IAS simulation or a remote client handle) is an SGX EPID backend
//!   through one blanket impl in [`sgx_epid`], which sends the quote to
//!   the verifier and appraises the signed report it returns;
//! - [`snp::SnpVerifier`] appraises AMD SEV-SNP attestation reports
//!   **offline**: launch measurement, guest policy, REPORT_DATA binding and
//!   a VCEK-style certificate chain to a model AMD root — no service
//!   round-trip at all.
//!
//! Every backend reduces its native evidence to one normalized
//! [`EvidenceAppraisal`]; the relying party then applies an
//! [`AppraisalPolicy`] plus its own whitelist and REPORT_DATA binding
//! checks. Cross-backend confusion fails closed:
//! an SGX quote handed to the SNP appraiser (or vice versa) is a structural
//! decode error, never a `Verified` verdict.

pub mod sgx_epid;
pub mod snp;

// Re-exported so relying parties (vnfguard-core) can speak about backend
// reachability and SGX measurement registers without importing the
// backend-specific crates directly.
pub use vnfguard_ias::Availability;
pub use vnfguard_sgx::measurement::Measurement;

/// Which TEE technology produced a piece of evidence. Stable `u8` codes
/// are part of the WAL record format — never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Intel SGX with EPID group signatures, verified via IAS.
    SgxEpid,
    /// AMD SEV-SNP confidential VMs, verified offline against the VCEK
    /// certificate chain.
    SevSnp,
}

impl BackendKind {
    pub fn as_u8(self) -> u8 {
        match self {
            BackendKind::SgxEpid => 0,
            BackendKind::SevSnp => 1,
        }
    }

    pub fn from_u8(code: u8) -> Option<BackendKind> {
        match code {
            0 => Some(BackendKind::SgxEpid),
            1 => Some(BackendKind::SevSnp),
            _ => None,
        }
    }

    /// Short label used on metrics series and in operator surfaces.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::SgxEpid => "sgx",
            BackendKind::SevSnp => "snp",
        }
    }

    /// Both kinds, for registries and fleet breakdowns.
    pub const ALL: [BackendKind; 2] = [BackendKind::SgxEpid, BackendKind::SevSnp];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Normalized TCB (trusted computing base) status across backends. SGX
/// report statuses and SNP TCB versions both map into this vocabulary, so
/// one [`AppraisalPolicy`] can govern either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcbStatus {
    /// Fully patched platform.
    UpToDate,
    /// Valid evidence from a platform running outdated firmware/microcode.
    OutOfDate,
    /// Valid evidence, but the platform configuration needs attention
    /// (e.g. hyperthreading exposure advisories).
    ConfigurationNeeded,
    /// The signing group or key has been revoked.
    Revoked,
    /// The evidence did not verify at all.
    Invalid,
}

impl TcbStatus {
    /// Canonical uppercase names, matching the wire vocabulary relying
    /// parties already grep for in IAS verdicts (`GROUP_OUT_OF_DATE` →
    /// `OUT_OF_DATE`).
    pub fn as_str(self) -> &'static str {
        match self {
            TcbStatus::UpToDate => "UP_TO_DATE",
            TcbStatus::OutOfDate => "OUT_OF_DATE",
            TcbStatus::ConfigurationNeeded => "CONFIGURATION_NEEDED",
            TcbStatus::Revoked => "REVOKED",
            TcbStatus::Invalid => "INVALID",
        }
    }
}

/// What a backend distills out of verified evidence: the facts a relying
/// party appraises, with every backend-specific encoding stripped away.
///
/// `measurement` is the backend's code-identity register normalized to 32
/// bytes: MRENCLAVE for SGX, the domain-separated digest of the 48-byte
/// launch measurement for SNP (see [`snp::normalize_measurement`]).
/// Whitelists key on `(BackendKind, measurement)`, so equal bytes from
/// different TEEs can never satisfy each other's entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceAppraisal {
    pub backend: BackendKind,
    pub measurement: [u8; 32],
    /// The 64-byte user-data register the workload bound into its
    /// evidence (REPORT_DATA on both SGX and SNP). Relying parties check
    /// their nonce/key binding against it.
    pub report_data: [u8; 64],
    /// The workload is debuggable (SGX DEBUG attribute, SNP guest-policy
    /// debug bit) — production policy refuses it.
    pub debug: bool,
    pub tcb: TcbStatus,
    /// Backend-specific advisory identifiers, verbatim.
    pub advisories: Vec<String>,
    /// The backend's native verdict string, verbatim (an IAS quote status
    /// like `SIGRL_VERSION_MISMATCH`, an SNP TCB comparison) — carried so
    /// policy refusals and audit records keep the operator-grade detail
    /// the normalized [`TcbStatus`] abstracts away.
    pub native_status: String,
}

/// Why evidence could not be reduced to an [`EvidenceAppraisal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// The evidence bytes are not this backend's format at all.
    Encoding(String),
    /// The evidence is structurally this backend's format but failed
    /// verification (bad signature, broken cert chain, stale VCEK, …).
    Rejected(String),
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestError::Encoding(msg) => write!(f, "evidence encoding: {msg}"),
            AttestError::Rejected(msg) => write!(f, "evidence rejected: {msg}"),
        }
    }
}

impl std::error::Error for AttestError {}

/// One TEE technology's verifier, as seen by a relying party.
///
/// Implementations verify evidence *cryptographically* (signatures, cert
/// chains, freshness of verification collateral) and report the distilled
/// facts; they do **not** make trust decisions — whitelisting, REPORT_DATA
/// binding and TCB acceptance belong to the relying party's
/// [`AppraisalPolicy`] so policy stays in one place per deployment.
pub trait AttestationBackend {
    /// Which evidence format this backend appraises.
    fn kind(&self) -> BackendKind;

    /// Verify `evidence` (with the challenge `nonce` available to backends
    /// whose verification protocol consumes it, like IAS) and distill the
    /// appraisal. Fails closed: any structural or cryptographic doubt is an
    /// error, never a degraded appraisal.
    fn appraise(&mut self, evidence: &[u8], nonce: &[u8])
        -> Result<EvidenceAppraisal, AttestError>;

    /// Whether the backend is currently worth calling (a remote verifier
    /// may report `Unavailable` while its circuit breaker is open; offline
    /// verifiers are always available).
    fn availability(&self) -> Availability {
        Availability::Available
    }
}

/// A relying party's acceptance rules for one backend's appraisals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppraisalPolicy {
    /// Accept [`TcbStatus::OutOfDate`] evidence (lenient deployments).
    pub allow_outdated_tcb: bool,
    /// Accept [`TcbStatus::ConfigurationNeeded`] evidence.
    pub allow_configuration_needed: bool,
    /// Accept debuggable workloads. Never set in production; exists so
    /// the refusal path is testable.
    pub allow_debug: bool,
}

impl AppraisalPolicy {
    /// Only fully patched, non-debug platforms.
    pub fn strict() -> AppraisalPolicy {
        AppraisalPolicy {
            allow_outdated_tcb: false,
            allow_configuration_needed: false,
            allow_debug: false,
        }
    }

    /// Tolerate outdated-but-valid TCB and configuration advisories
    /// (still refuses revoked, invalid and debug).
    pub fn lenient() -> AppraisalPolicy {
        AppraisalPolicy {
            allow_outdated_tcb: true,
            allow_configuration_needed: true,
            allow_debug: false,
        }
    }

    pub fn accepts_tcb(&self, tcb: TcbStatus) -> bool {
        match tcb {
            TcbStatus::UpToDate => true,
            TcbStatus::OutOfDate => self.allow_outdated_tcb,
            TcbStatus::ConfigurationNeeded => self.allow_configuration_needed,
            TcbStatus::Revoked | TcbStatus::Invalid => false,
        }
    }

    /// Apply the policy to an appraisal; the error text names the first
    /// violated rule.
    pub fn check(&self, appraisal: &EvidenceAppraisal) -> Result<(), String> {
        if !self.accepts_tcb(appraisal.tcb) {
            return Err(format!(
                "{} evidence with TCB status {} ({}) refused by policy",
                appraisal.backend,
                appraisal.tcb.as_str(),
                appraisal.native_status,
            ));
        }
        if appraisal.debug && !self.allow_debug {
            return Err(format!(
                "{} evidence reports a debuggable workload",
                appraisal.backend
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_codes_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(BackendKind::from_u8(7), None);
        assert_eq!(BackendKind::SgxEpid.label(), "sgx");
        assert_eq!(BackendKind::SevSnp.label(), "snp");
    }

    #[test]
    fn strict_policy_rejects_everything_but_up_to_date() {
        let policy = AppraisalPolicy::strict();
        assert!(policy.accepts_tcb(TcbStatus::UpToDate));
        for tcb in [
            TcbStatus::OutOfDate,
            TcbStatus::ConfigurationNeeded,
            TcbStatus::Revoked,
            TcbStatus::Invalid,
        ] {
            assert!(!policy.accepts_tcb(tcb), "{tcb:?}");
        }
    }

    #[test]
    fn lenient_policy_still_refuses_revoked_and_debug() {
        let policy = AppraisalPolicy::lenient();
        assert!(policy.accepts_tcb(TcbStatus::OutOfDate));
        assert!(policy.accepts_tcb(TcbStatus::ConfigurationNeeded));
        assert!(!policy.accepts_tcb(TcbStatus::Revoked));
        assert!(!policy.accepts_tcb(TcbStatus::Invalid));
        let appraisal = EvidenceAppraisal {
            backend: BackendKind::SevSnp,
            measurement: [0; 32],
            report_data: [0; 64],
            debug: true,
            tcb: TcbStatus::UpToDate,
            advisories: Vec::new(),
            native_status: "OK".to_string(),
        };
        assert!(policy.check(&appraisal).is_err());
    }
}
