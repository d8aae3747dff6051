//! Credential lifecycle: renewal scheduling, CA rotation handover, and
//! controller-side distribution of roots and CRLs.
//!
//! The enrollment workflow (Figure 1) establishes credentials once; this
//! module keeps them alive afterwards. Three flows share it:
//!
//! - **Renewal** — [`RenewalDue`] describes a credential inside its
//!   renewal window (produced by
//!   [`VerificationManager::certs_expiring`](crate::manager::VerificationManager::certs_expiring)),
//!   and the lightweight re-issue path
//!   ([`renew_vnf_credential`](crate::manager::VerificationManager::renew_vnf_credential))
//!   skips the six-step protocol when the hosting platform still holds a
//!   fresh trusted verdict.
//! - **CA rotation** — [`CaRotation`] is the durable outcome of
//!   [`rotate_ca`](crate::manager::VerificationManager::rotate_ca):
//!   a new root plus a cross-signed handover certificate endorsed by the
//!   outgoing key. [`verify_handover`] is the relying-party check that
//!   gates adoption of the new root.
//! - **CRL distribution** — [`LifecycleMonitor`] is the controller-side
//!   poller that fetches `/vm/ca` and `/vm/crl`, adopts rotated roots
//!   after verifying the handover, installs CRLs into the controller's
//!   live [`TrustStore`], and retires drained anchors.
//!
//! The monitor issues HTTP requests over the fabric and joins the
//! deployment's distributed traces: each poll carries the calling thread's
//! current trace context (an open span or request scope), like every other
//! client request.

use crate::CoreError;
use parking_lot::RwLock;
use std::sync::Arc;
use vnfguard_controller::clock::SimClock;
use vnfguard_encoding::{base64, Json};
use vnfguard_net::fabric::Network;
use vnfguard_net::http::Request;
use vnfguard_net::server::HttpClient;
use vnfguard_pki::cert::Certificate;
use vnfguard_pki::crl::Crl;
use vnfguard_pki::{PkiError, TrustStore};
use vnfguard_telemetry::{Counter, Gauge, Telemetry};

/// A credential inside its renewal window (or already past `not_after`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenewalDue {
    pub serial: u64,
    pub vnf_name: String,
    pub host_id: String,
    /// When the credential stops validating.
    pub not_after: u64,
    /// Already expired at the sweep instant (renewal is overdue, not just
    /// due).
    pub expired: bool,
}

/// Point-in-time lifecycle posture of the manager's credential estate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleStatus {
    /// The sweep instant.
    pub at: u64,
    /// Unrevoked enrollments whose certificates are still valid.
    pub active: usize,
    /// Unrevoked enrollments inside the renewal window (incl. expired).
    pub expiring: usize,
    /// Seconds since the last signed CRL was issued (`None` before the
    /// first issuance).
    pub crl_age_secs: Option<u64>,
    /// CA key epoch (0 = original key, +1 per rotation).
    pub epoch: u64,
    /// Monotonic number of the most recently issued CRL.
    pub crl_number: u64,
    /// Deadline after which the previous root may be retired (`None`
    /// outside a dual-trust window).
    pub drain_deadline: Option<u64>,
}

/// The durable outcome of one CA rotation.
#[derive(Debug, Clone)]
pub struct CaRotation {
    /// Epoch the rotation moved the CA to.
    pub epoch: u64,
    /// The new self-signed root.
    pub new_root: Certificate,
    /// The new root's key endorsed by the *outgoing* key — the handover
    /// evidence relying parties verify before adopting `new_root`.
    pub cross_signed: Certificate,
    /// The root being drained.
    pub previous_root: Certificate,
    pub rotated_at: u64,
    /// Until this instant relying parties keep both roots (dual trust);
    /// after it the previous root should be removed.
    pub drain_deadline: u64,
}

/// Relying-party check before adopting a rotated root: the cross-signed
/// certificate must carry exactly the new root's key and subject, the new
/// root must be well-formed (self-signed), and the cross signature must
/// verify under an anchor the store *already trusts* — that chain is what
/// makes the handover an endorsement by the old key rather than an
/// attacker-supplied root.
pub fn verify_handover(
    store: &TrustStore,
    new_root: &Certificate,
    cross: &Certificate,
) -> Result<(), PkiError> {
    if cross.tbs.public_key != new_root.tbs.public_key {
        return Err(PkiError::ConstraintViolated(
            "cross-signed certificate does not carry the new root's key".into(),
        ));
    }
    if cross.subject_cn() != new_root.subject_cn() {
        return Err(PkiError::ConstraintViolated(
            "cross-signed certificate names a different subject".into(),
        ));
    }
    if !new_root.is_self_signed() {
        return Err(PkiError::ConstraintViolated(
            "offered root is not self-signed".into(),
        ));
    }
    // The cross cert's issuer DN equals its subject DN (same CA name
    // across epochs), so match anchors by name and try each key: exactly
    // one epoch's key signed it.
    let issuer = cross.tbs.issuer.common_name.clone();
    let mut saw_issuer = false;
    for anchor in store.anchors() {
        if anchor.subject_cn() != issuer {
            continue;
        }
        saw_issuer = true;
        if cross.verify_signature(&anchor.tbs.public_key).is_ok() {
            return Ok(());
        }
    }
    if saw_issuer {
        Err(PkiError::BadSignature)
    } else {
        Err(PkiError::UnknownIssuer(issuer))
    }
}

/// An anchor scheduled for removal once the dual-trust window drains.
#[derive(Debug, Clone)]
struct RetiringAnchor {
    fingerprint: [u8; 32],
    subject: String,
    deadline: u64,
}

/// What one [`LifecycleMonitor::tick`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleTick {
    /// A new CA epoch was verified and adopted this pass.
    pub adopted_epoch: Option<u64>,
    /// Number of the CRL installed this pass, if any.
    pub crl_installed: Option<u64>,
    /// Drained anchors removed from the trust store this pass.
    pub anchors_retired: usize,
}

/// Controller-side lifecycle poller: keeps a live [`TrustStore`] (shared
/// with the TLS validator) synchronized with the Verification Manager's
/// published roots and CRLs.
///
/// The monitor is deliberately *pull-based* — the controller polls
/// `GET /vm/ca` and `GET /vm/crl` on its own schedule, so a partitioned
/// VM degrades the controller's revocation freshness (visible through
/// `vnfguard_core_controller_crl_age_seconds`) instead of wedging its
/// data path. Whether stale revocation data fails open or closed is the
/// trust store's [`RevocationPolicy`](vnfguard_pki::RevocationPolicy).
pub struct LifecycleMonitor {
    network: Network,
    clock: SimClock,
    vm_addr: String,
    origin: String,
    trust: Arc<RwLock<TrustStore>>,
    telemetry: Telemetry,
    /// CA subject the monitor manages anchors for.
    issuer_cn: String,
    /// Highest CA epoch verified and adopted so far.
    known_epoch: u64,
    retiring: Vec<RetiringAnchor>,
    /// Issuance instant of the newest installed CRL.
    last_crl_issued_at: Option<u64>,
    ca_polls: Counter,
    crl_polls: Counter,
    rotations_adopted: Counter,
    crl_age: Gauge,
}

impl LifecycleMonitor {
    /// A monitor polling `vm_addr` on behalf of `origin` (the fabric
    /// endpoint name the connections originate from), maintaining anchors
    /// whose subject is `issuer_cn` inside `trust`.
    pub fn new(
        network: Network,
        clock: SimClock,
        vm_addr: &str,
        origin: &str,
        trust: Arc<RwLock<TrustStore>>,
        telemetry: Telemetry,
        issuer_cn: &str,
    ) -> LifecycleMonitor {
        let core = telemetry.namespace("core");
        let ca_polls = core.counter("controller_ca_polls_total", &[]);
        let crl_polls = core.counter("controller_crl_polls_total", &[]);
        let rotations_adopted = core.counter("controller_rotations_adopted_total", &[]);
        let crl_age = core.gauge("controller_crl_age_seconds", &[]);
        LifecycleMonitor {
            network,
            clock,
            vm_addr: vm_addr.to_string(),
            origin: origin.to_string(),
            trust,
            telemetry,
            issuer_cn: issuer_cn.to_string(),
            known_epoch: 0,
            retiring: Vec::new(),
            last_crl_issued_at: None,
            ca_polls,
            crl_polls,
            rotations_adopted,
            crl_age,
        }
    }

    /// The shared trust store this monitor maintains.
    pub fn trust_store(&self) -> Arc<RwLock<TrustStore>> {
        self.trust.clone()
    }

    /// Highest CA epoch verified and adopted so far.
    pub fn known_epoch(&self) -> u64 {
        self.known_epoch
    }

    /// Anchors awaiting retirement and the deadline of the current drain
    /// window, if one is open.
    pub fn drain_deadline(&self) -> Option<u64> {
        self.retiring.iter().map(|r| r.deadline).max()
    }

    fn fetch(&self, path: &str) -> Result<Json, CoreError> {
        let stream = self
            .network
            .connect_from(&self.origin, &self.vm_addr)
            .map_err(|e| CoreError::ServiceUnavailable(format!("{}: {e}", self.vm_addr)))?;
        let mut client = HttpClient::new(stream);
        let response = client
            .request(&Request::get(path))
            .map_err(|e| CoreError::ServiceUnavailable(format!("{path}: {e}")))?;
        if !response.status.is_success() {
            return Err(CoreError::ServiceUnavailable(format!(
                "{path}: status {}",
                response.status.code()
            )));
        }
        response
            .parse_json()
            .map_err(|e| CoreError::Encoding(format!("{path}: {e}")))
    }

    fn b64_cert(doc: &Json, field: &str) -> Result<Certificate, CoreError> {
        let text = doc
            .get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| CoreError::Encoding(format!("missing field {field:?}")))?;
        let bytes = base64::decode(text)
            .map_err(|e| CoreError::Encoding(format!("bad base64 in {field:?}: {e}")))?;
        Ok(Certificate::decode(&bytes)?)
    }

    /// Poll `GET /vm/ca`. When the VM reports a higher key epoch the
    /// monitor verifies the cross-signed handover against its currently
    /// trusted anchors, installs the new root alongside the old one
    /// (dual-trust window), and schedules the displaced anchors for
    /// retirement at the VM's drain deadline. A monitor that missed
    /// intermediate rotations walks the response's `chain` — one
    /// `{epoch, root, cross_signed}` entry per rotation — adopting each
    /// skipped epoch in order, so every handover still verifies against an
    /// anchor adopted one step earlier. Returns the epoch adopted this
    /// call, if any.
    pub fn poll_ca(&mut self) -> Result<Option<u64>, CoreError> {
        let now = self.clock.now();
        self.ca_polls.inc();
        let doc = self.fetch("/vm/ca")?;
        let epoch = doc.get("epoch").and_then(Json::as_i64).unwrap_or(0) as u64;
        if epoch <= self.known_epoch {
            return Ok(None);
        }
        let deadline = doc
            .get("drain_deadline")
            .and_then(Json::as_i64)
            .map(|d| d as u64)
            .unwrap_or(now);
        // Handovers not yet adopted, oldest first. A VM that serves no
        // chain degrades to the single latest cross cert — correct as long
        // as the monitor never falls more than one epoch behind.
        let mut handovers: Vec<(u64, Certificate, Certificate)> = Vec::new();
        match doc.get("chain").and_then(Json::as_array) {
            Some(entries) => {
                for entry in entries {
                    let entry_epoch = entry.get("epoch").and_then(Json::as_i64).unwrap_or(0) as u64;
                    if entry_epoch <= self.known_epoch {
                        continue;
                    }
                    handovers.push((
                        entry_epoch,
                        Self::b64_cert(entry, "root")?,
                        Self::b64_cert(entry, "cross_signed")?,
                    ));
                }
                handovers.sort_by_key(|(e, _, _)| *e);
            }
            None => handovers.push((
                epoch,
                Self::b64_cert(&doc, "certificate")?,
                Self::b64_cert(&doc, "cross_signed")?,
            )),
        }
        let mut trust = self.trust.write();
        let mut adopted: Option<(u64, [u8; 32])> = None;
        for (entry_epoch, root, cross) in handovers {
            verify_handover(&trust, &root, &cross)?;
            let fingerprint = root.fingerprint();
            trust.add_anchor(root)?;
            adopted = Some((entry_epoch, fingerprint));
        }
        let Some((adopted_epoch, new_fp)) = adopted else {
            return Ok(None);
        };
        let displaced: Vec<RetiringAnchor> = trust
            .anchors()
            .filter(|a| a.subject_cn() == self.issuer_cn && a.fingerprint() != new_fp)
            .map(|a| RetiringAnchor {
                fingerprint: a.fingerprint(),
                subject: a.subject_cn().to_string(),
                deadline,
            })
            .collect();
        drop(trust);
        self.retiring.extend(displaced);
        self.known_epoch = adopted_epoch;
        self.rotations_adopted.inc();
        self.telemetry.event(
            now,
            "ca_rotation_adopted",
            &format!(
                "{}: epoch {adopted_epoch}, dual trust until {deadline}",
                self.issuer_cn
            ),
        );
        Ok(Some(adopted_epoch))
    }

    /// Poll `GET /vm/crl` and install the signed CRL into the shared trust
    /// store. Lower-numbered (replayed) CRLs are rejected by the store;
    /// an equal number re-installs harmlessly. Returns the CRL number.
    pub fn poll_crl(&mut self) -> Result<u64, CoreError> {
        let now = self.clock.now();
        self.crl_polls.inc();
        let doc = self.fetch("/vm/crl")?;
        let text = doc
            .get("crl")
            .and_then(Json::as_str)
            .ok_or_else(|| CoreError::Encoding("missing field \"crl\"".into()))?;
        let bytes = base64::decode(text)
            .map_err(|e| CoreError::Encoding(format!("bad base64 in \"crl\": {e}")))?;
        let crl = Crl::decode(&bytes)?;
        let number = crl.crl_number;
        let issued_at = crl.issued_at;
        self.trust.write().install_crl(crl)?;
        self.last_crl_issued_at = Some(issued_at);
        self.crl_age.set(now.saturating_sub(issued_at) as i64);
        Ok(number)
    }

    /// Age of the newest installed CRL (`None` before the first
    /// successful poll). Also refreshes the age gauge, so periodic status
    /// checks keep the metric honest between polls.
    pub fn crl_age(&self) -> Option<u64> {
        let now = self.clock.now();
        let age = self
            .last_crl_issued_at
            .map(|issued| now.saturating_sub(issued));
        if let Some(age) = age {
            self.crl_age.set(age as i64);
        }
        age
    }

    /// Remove anchors whose dual-trust window has drained. Returns how
    /// many were retired.
    pub fn enforce_drain(&mut self) -> usize {
        let now = self.clock.now();
        let (due, keep): (Vec<RetiringAnchor>, Vec<RetiringAnchor>) =
            self.retiring.drain(..).partition(|r| now > r.deadline);
        self.retiring = keep;
        let mut retired = 0;
        let mut trust = self.trust.write();
        for anchor in due {
            if trust.remove_anchor(&anchor.fingerprint) {
                retired += 1;
                self.telemetry.event(
                    now,
                    "ca_anchor_retired",
                    &format!("{}: drain window closed", anchor.subject),
                );
            }
        }
        retired
    }

    /// One full maintenance pass: poll the CA, poll the CRL, retire
    /// drained anchors. The phases are independent — a failed CA poll must
    /// not stop CRL installation or anchor retirement (revocation data
    /// would go stale behind an unverifiable rotation). Every phase runs;
    /// the first failure is then reported, CA poll first. The caller
    /// decides whether a missed poll is tolerable (the trust store's
    /// revocation policy governs what stale data means in the meantime).
    pub fn tick(&mut self) -> Result<LifecycleTick, CoreError> {
        let ca_result = self.poll_ca();
        let crl_result = self.poll_crl();
        let anchors_retired = self.enforce_drain();
        Ok(LifecycleTick {
            adopted_epoch: ca_result?,
            crl_installed: Some(crl_result?),
            anchors_retired,
        })
    }
}

impl std::fmt::Debug for LifecycleMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifecycleMonitor")
            .field("vm_addr", &self.vm_addr)
            .field("issuer_cn", &self.issuer_cn)
            .field("known_epoch", &self.known_epoch)
            .field("retiring", &self.retiring.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::SigningKey;
    use vnfguard_pki::ca::CertificateAuthority;
    use vnfguard_pki::cert::{DistinguishedName, Validity};

    fn test_ca() -> CertificateAuthority {
        let mut rng = HmacDrbg::new(b"lifecycle tests");
        CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        )
    }

    #[test]
    fn handover_accepts_genuine_rotation() {
        let mut ca = test_ca();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let (root, cross) = ca.rotate_to(
            SigningKey::from_seed(&[7; 32]),
            Validity::new(0, u64::MAX / 2),
        );
        verify_handover(&store, &root, &cross).unwrap();
    }

    #[test]
    fn handover_rejects_root_with_foreign_key() {
        let mut ca = test_ca();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let (_, cross) = ca.rotate_to(
            SigningKey::from_seed(&[7; 32]),
            Validity::new(0, u64::MAX / 2),
        );
        // An attacker swaps in a root carrying their own key, keeping the
        // legitimate cross cert: the key-match check must catch it.
        let mut mallory = test_ca();
        let (evil_root, _) = mallory.rotate_to(
            SigningKey::from_seed(&[9; 32]),
            Validity::new(0, u64::MAX / 2),
        );
        let err = verify_handover(&store, &evil_root, &cross).unwrap_err();
        assert!(matches!(err, PkiError::ConstraintViolated(_)));
    }

    #[test]
    fn handover_rejects_cross_signed_by_unknown_key() {
        let mut ca = test_ca();
        // Store trusts nothing from this CA's lineage.
        let mut other = HmacDrbg::new(b"other");
        let stranger = CertificateAuthority::new(
            DistinguishedName::new("other-ca"),
            Validity::new(0, u64::MAX / 2),
            &mut other,
        );
        let mut store = TrustStore::new();
        store.add_anchor(stranger.certificate().clone()).unwrap();
        let (root, cross) = ca.rotate_to(
            SigningKey::from_seed(&[7; 32]),
            Validity::new(0, u64::MAX / 2),
        );
        let err = verify_handover(&store, &root, &cross).unwrap_err();
        assert!(matches!(err, PkiError::UnknownIssuer(_)));
    }

    #[test]
    fn handover_rejects_wrong_epoch_signature() {
        // Store trusts an anchor with the right *name* but a key from a
        // different lineage: signature verification must fail rather than
        // fall through to UnknownIssuer.
        let mut ca = test_ca();
        let mut other = HmacDrbg::new(b"same name, other key");
        let impostor = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, u64::MAX / 2),
            &mut other,
        );
        let mut store = TrustStore::new();
        store.add_anchor(impostor.certificate().clone()).unwrap();
        let (root, cross) = ca.rotate_to(
            SigningKey::from_seed(&[7; 32]),
            Validity::new(0, u64::MAX / 2),
        );
        let err = verify_handover(&store, &root, &cross).unwrap_err();
        assert!(matches!(err, PkiError::BadSignature));
    }
}
