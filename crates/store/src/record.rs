//! Write-ahead-log records and the aggregate state they replay into.
//!
//! Each [`WalRecord`] is one manager state transition, journaled *before*
//! the manager acknowledges the operation (WAL-before-response). Replaying
//! the records in order through [`ManagerState::apply`] reconstructs the
//! manager's authority state: issued serials, committed enrollments,
//! prepared-but-uncommitted enrollments, revocations, and undelivered
//! revocation notices. [`ManagerState`] doubles as the snapshot payload a
//! compaction seals in place of the log prefix it folds.

use crate::StoreError;
use std::collections::BTreeMap;
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_KIND: u8 = 0x01;
const TAG_SERIAL: u8 = 0x02;
const TAG_NAME: u8 = 0x03;
const TAG_HOST: u8 = 0x04;
const TAG_MRENCLAVE: u8 = 0x05;
const TAG_AT: u8 = 0x06;
const TAG_REASON_CODE: u8 = 0x07;
const TAG_REASON_TEXT: u8 = 0x08;
const TAG_TAG: u8 = 0x09;
const TAG_GENERATION: u8 = 0x0a;
const TAG_NUMBER: u8 = 0x0b;
const TAG_CROSS_SERIAL: u8 = 0x0c;
const TAG_OLD_SERIAL: u8 = 0x0d;
const TAG_PROV_KEY_HASH: u8 = 0x0e;
const TAG_BACKEND: u8 = 0x0f;

const TAG_ENROLLMENT: u8 = 0x20;
const TAG_PENDING: u8 = 0x21;
const TAG_REVOKED: u8 = 0x22;
const TAG_NOTICE: u8 = 0x23;
const TAG_MAX_SERIAL: u8 = 0x24;
const TAG_ISSUED: u8 = 0x25;
const TAG_DEGRADED: u8 = 0x26;
const TAG_SNAP_GENERATION: u8 = 0x27;
const TAG_REVOKED_FLAG: u8 = 0x28;
const TAG_CRL_NUMBER: u8 = 0x29;
const TAG_CA_EPOCH: u8 = 0x2a;
const TAG_PENDING_ROTATION: u8 = 0x2b;
const TAG_ROTATION: u8 = 0x2c;

const KIND_CERT_ISSUED: u8 = 1;
const KIND_PREPARED: u8 = 2;
const KIND_COMMITTED: u8 = 3;
const KIND_ABORTED: u8 = 4;
const KIND_REVOKED: u8 = 5;
const KIND_NOTICE_QUEUED: u8 = 6;
const KIND_NOTICE_DELIVERED: u8 = 7;
const KIND_DEGRADED: u8 = 8;
const KIND_RECOVERED: u8 = 9;
const KIND_CRL_ISSUED: u8 = 10;
const KIND_ROTATION_PREPARED: u8 = 11;
const KIND_ROTATION_COMMITTED: u8 = 12;
const KIND_RENEWED: u8 = 13;

/// The `RevocationReason` code recorded for an aborted preparation
/// (cessation of operation — mirrors `vnfguard_pki`'s encoding).
pub const REASON_CESSATION: u8 = 3;

/// One journaled manager state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A certificate left the CA (enrollment, operator or server issuance).
    /// Journaled for serial continuity: recovery must never re-mint a
    /// serial its predecessor already signed.
    CertIssued {
        serial: u64,
        subject: String,
        at: u64,
    },
    /// Phase one of enrollment: credential issued and wrapped, delivery
    /// outcome unknown. `provisioning_key_hash` is the digest of the
    /// enclave's quote-bound provisioning public key — the renewal path
    /// checks new wrap requests against it, so it must survive recovery.
    EnrollmentPrepared {
        serial: u64,
        vnf_name: String,
        host_id: String,
        mrenclave: [u8; 32],
        provisioning_key_hash: [u8; 32],
        /// Attestation backend code (`BackendKind::as_u8`) the enrollment
        /// was appraised under; recovery re-binds to the same backend.
        backend: u8,
        at: u64,
    },
    /// Phase two: the wrapped bundle reached the enclave.
    EnrollmentCommitted { serial: u64, at: u64 },
    /// Rollback of a prepared enrollment; implies revocation of the serial.
    EnrollmentAborted {
        serial: u64,
        reason: String,
        at: u64,
    },
    /// Explicit revocation of a committed credential.
    CredentialRevoked {
        serial: u64,
        reason_code: u8,
        at: u64,
    },
    /// A revocation notice could not be delivered and entered the
    /// store-and-forward queue.
    RevocationQueued {
        host_id: String,
        serial: u64,
        tag: [u8; 32],
        at: u64,
    },
    /// A (queued or immediate) revocation notice reached its agent.
    RevocationDelivered {
        host_id: String,
        serial: u64,
        at: u64,
    },
    /// A degraded (cached) trust verdict was handed out.
    DegradedVerdictGranted { host_id: String, at: u64 },
    /// A recovery pass completed; `generation` counts manager incarnations.
    RecoveryCompleted { generation: u64, at: u64 },
    /// A numbered CRL was published. Journaled *before* the CA bumps its
    /// counter so `crl_number` stays strictly monotonic across recovery.
    CrlIssued { number: u64, at: u64 },
    /// Phase one of a CA rotation: the successor epoch was announced but
    /// its certificates are not durable yet. A crash here rolls back.
    CaRotationPrepared { epoch: u64, at: u64 },
    /// Phase two: the rotation's new self-signed root and cross-signed
    /// handover certificate (identified by their journaled serials) are
    /// authoritative. A crash after this record resumes the rotation.
    CaRotationCommitted {
        epoch: u64,
        root_serial: u64,
        cross_serial: u64,
        at: u64,
    },
    /// A lightweight renewal re-issued a live enrollment under a new
    /// serial without a fresh attestation round (verdict still cached).
    CredentialRenewed {
        old_serial: u64,
        new_serial: u64,
        vnf_name: String,
        host_id: String,
        mrenclave: [u8; 32],
        provisioning_key_hash: [u8; 32],
        /// Attestation backend code the renewed enrollment stays bound to.
        backend: u8,
        at: u64,
    },
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        match self {
            WalRecord::CertIssued {
                serial,
                subject,
                at,
            } => {
                w.u8(TAG_KIND, KIND_CERT_ISSUED)
                    .u64(TAG_SERIAL, *serial)
                    .string(TAG_NAME, subject)
                    .u64(TAG_AT, *at);
            }
            WalRecord::EnrollmentPrepared {
                serial,
                vnf_name,
                host_id,
                mrenclave,
                provisioning_key_hash,
                backend,
                at,
            } => {
                w.u8(TAG_KIND, KIND_PREPARED)
                    .u64(TAG_SERIAL, *serial)
                    .string(TAG_NAME, vnf_name)
                    .string(TAG_HOST, host_id)
                    .bytes(TAG_MRENCLAVE, mrenclave)
                    .bytes(TAG_PROV_KEY_HASH, provisioning_key_hash)
                    .u8(TAG_BACKEND, *backend)
                    .u64(TAG_AT, *at);
            }
            WalRecord::EnrollmentCommitted { serial, at } => {
                w.u8(TAG_KIND, KIND_COMMITTED)
                    .u64(TAG_SERIAL, *serial)
                    .u64(TAG_AT, *at);
            }
            WalRecord::EnrollmentAborted { serial, reason, at } => {
                w.u8(TAG_KIND, KIND_ABORTED)
                    .u64(TAG_SERIAL, *serial)
                    .string(TAG_REASON_TEXT, reason)
                    .u64(TAG_AT, *at);
            }
            WalRecord::CredentialRevoked {
                serial,
                reason_code,
                at,
            } => {
                w.u8(TAG_KIND, KIND_REVOKED)
                    .u64(TAG_SERIAL, *serial)
                    .u8(TAG_REASON_CODE, *reason_code)
                    .u64(TAG_AT, *at);
            }
            WalRecord::RevocationQueued {
                host_id,
                serial,
                tag,
                at,
            } => {
                w.u8(TAG_KIND, KIND_NOTICE_QUEUED)
                    .string(TAG_HOST, host_id)
                    .u64(TAG_SERIAL, *serial)
                    .bytes(TAG_TAG, tag)
                    .u64(TAG_AT, *at);
            }
            WalRecord::RevocationDelivered {
                host_id,
                serial,
                at,
            } => {
                w.u8(TAG_KIND, KIND_NOTICE_DELIVERED)
                    .string(TAG_HOST, host_id)
                    .u64(TAG_SERIAL, *serial)
                    .u64(TAG_AT, *at);
            }
            WalRecord::DegradedVerdictGranted { host_id, at } => {
                w.u8(TAG_KIND, KIND_DEGRADED)
                    .string(TAG_HOST, host_id)
                    .u64(TAG_AT, *at);
            }
            WalRecord::RecoveryCompleted { generation, at } => {
                w.u8(TAG_KIND, KIND_RECOVERED)
                    .u64(TAG_GENERATION, *generation)
                    .u64(TAG_AT, *at);
            }
            WalRecord::CrlIssued { number, at } => {
                w.u8(TAG_KIND, KIND_CRL_ISSUED)
                    .u64(TAG_NUMBER, *number)
                    .u64(TAG_AT, *at);
            }
            WalRecord::CaRotationPrepared { epoch, at } => {
                w.u8(TAG_KIND, KIND_ROTATION_PREPARED)
                    .u64(TAG_GENERATION, *epoch)
                    .u64(TAG_AT, *at);
            }
            WalRecord::CaRotationCommitted {
                epoch,
                root_serial,
                cross_serial,
                at,
            } => {
                w.u8(TAG_KIND, KIND_ROTATION_COMMITTED)
                    .u64(TAG_GENERATION, *epoch)
                    .u64(TAG_SERIAL, *root_serial)
                    .u64(TAG_CROSS_SERIAL, *cross_serial)
                    .u64(TAG_AT, *at);
            }
            WalRecord::CredentialRenewed {
                old_serial,
                new_serial,
                vnf_name,
                host_id,
                mrenclave,
                provisioning_key_hash,
                backend,
                at,
            } => {
                w.u8(TAG_KIND, KIND_RENEWED)
                    .u64(TAG_OLD_SERIAL, *old_serial)
                    .u64(TAG_SERIAL, *new_serial)
                    .string(TAG_NAME, vnf_name)
                    .string(TAG_HOST, host_id)
                    .bytes(TAG_MRENCLAVE, mrenclave)
                    .bytes(TAG_PROV_KEY_HASH, provisioning_key_hash)
                    .u8(TAG_BACKEND, *backend)
                    .u64(TAG_AT, *at);
            }
        }
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<WalRecord, StoreError> {
        let mut r = TlvReader::new(bytes);
        let kind = r.expect_u8(TAG_KIND)?;
        let record = match kind {
            KIND_CERT_ISSUED => WalRecord::CertIssued {
                serial: r.expect_u64(TAG_SERIAL)?,
                subject: r.expect_string(TAG_NAME)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_PREPARED => WalRecord::EnrollmentPrepared {
                serial: r.expect_u64(TAG_SERIAL)?,
                vnf_name: r.expect_string(TAG_NAME)?,
                host_id: r.expect_string(TAG_HOST)?,
                mrenclave: r.expect_array::<32>(TAG_MRENCLAVE)?,
                provisioning_key_hash: r.expect_array::<32>(TAG_PROV_KEY_HASH)?,
                backend: r.expect_u8(TAG_BACKEND)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_COMMITTED => WalRecord::EnrollmentCommitted {
                serial: r.expect_u64(TAG_SERIAL)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_ABORTED => WalRecord::EnrollmentAborted {
                serial: r.expect_u64(TAG_SERIAL)?,
                reason: r.expect_string(TAG_REASON_TEXT)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_REVOKED => WalRecord::CredentialRevoked {
                serial: r.expect_u64(TAG_SERIAL)?,
                reason_code: r.expect_u8(TAG_REASON_CODE)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_NOTICE_QUEUED => WalRecord::RevocationQueued {
                host_id: r.expect_string(TAG_HOST)?,
                serial: r.expect_u64(TAG_SERIAL)?,
                tag: r.expect_array::<32>(TAG_TAG)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_NOTICE_DELIVERED => WalRecord::RevocationDelivered {
                host_id: r.expect_string(TAG_HOST)?,
                serial: r.expect_u64(TAG_SERIAL)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_DEGRADED => WalRecord::DegradedVerdictGranted {
                host_id: r.expect_string(TAG_HOST)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_RECOVERED => WalRecord::RecoveryCompleted {
                generation: r.expect_u64(TAG_GENERATION)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_CRL_ISSUED => WalRecord::CrlIssued {
                number: r.expect_u64(TAG_NUMBER)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_ROTATION_PREPARED => WalRecord::CaRotationPrepared {
                epoch: r.expect_u64(TAG_GENERATION)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_ROTATION_COMMITTED => WalRecord::CaRotationCommitted {
                epoch: r.expect_u64(TAG_GENERATION)?,
                root_serial: r.expect_u64(TAG_SERIAL)?,
                cross_serial: r.expect_u64(TAG_CROSS_SERIAL)?,
                at: r.expect_u64(TAG_AT)?,
            },
            KIND_RENEWED => WalRecord::CredentialRenewed {
                old_serial: r.expect_u64(TAG_OLD_SERIAL)?,
                new_serial: r.expect_u64(TAG_SERIAL)?,
                vnf_name: r.expect_string(TAG_NAME)?,
                host_id: r.expect_string(TAG_HOST)?,
                mrenclave: r.expect_array::<32>(TAG_MRENCLAVE)?,
                provisioning_key_hash: r.expect_array::<32>(TAG_PROV_KEY_HASH)?,
                backend: r.expect_u8(TAG_BACKEND)?,
                at: r.expect_u64(TAG_AT)?,
            },
            other => return Err(StoreError::Corrupt(format!("unknown record kind {other}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

/// A committed enrollment as carried by the WAL/snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrollmentEntry {
    pub serial: u64,
    pub vnf_name: String,
    pub host_id: String,
    pub mrenclave: [u8; 32],
    /// Digest of the enclave's quote-bound provisioning public key;
    /// renewals must wrap to this key and nothing else.
    pub provisioning_key_hash: [u8; 32],
    /// Attestation backend code (`BackendKind::as_u8`) the enrollment was
    /// appraised under.
    pub backend: u8,
    pub issued_at: u64,
    pub revoked: bool,
}

/// A prepared-but-uncommitted enrollment as carried by the WAL/snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEntry {
    pub serial: u64,
    pub vnf_name: String,
    pub host_id: String,
    pub mrenclave: [u8; 32],
    /// Digest of the enclave's quote-bound provisioning public key.
    pub provisioning_key_hash: [u8; 32],
    /// Attestation backend code the prepare was appraised under.
    pub backend: u8,
    pub prepared_at: u64,
}

/// An undelivered revocation notice as carried by the WAL/snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoticeEntry {
    pub host_id: String,
    pub serial: u64,
    pub tag: [u8; 32],
    pub queued_at: u64,
}

/// One committed CA rotation as carried by the WAL/snapshot. The signing
/// key itself is never journaled — recovery re-derives it from the sealed
/// deployment seed and the epoch — but the serials and timestamp pin the
/// exact certificates the pre-crash incarnation served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationEntry {
    pub epoch: u64,
    pub root_serial: u64,
    pub cross_serial: u64,
    pub at: u64,
}

/// The manager's authority state as reconstructed from snapshot + log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManagerState {
    /// Committed enrollments by serial.
    pub enrollments: BTreeMap<u64, EnrollmentEntry>,
    /// Prepared-but-uncommitted enrollments by serial.
    pub pending: BTreeMap<u64, PendingEntry>,
    /// Revoked serials → (reason code, revoked-at).
    pub revoked: BTreeMap<u64, (u8, u64)>,
    /// Revocation notices journaled as queued and never delivered.
    pub notices: Vec<NoticeEntry>,
    /// Highest serial any `CertIssued` record named.
    pub max_serial: u64,
    /// Certificates issued (the CA's `issued_count`).
    pub issued: u64,
    /// Degraded verdicts handed out across all incarnations.
    pub degraded_grants: u64,
    /// Completed recovery passes (manager incarnations − 1).
    pub generation: u64,
    /// Highest CRL number journaled as issued.
    pub crl_number: u64,
    /// Current CA key epoch (0 = the original deployment key).
    pub ca_epoch: u64,
    /// A rotation journaled as prepared but never committed; recovery
    /// rolls it back. `None` when no rotation is in flight.
    pub pending_rotation: Option<u64>,
    /// Committed rotations in epoch order.
    pub rotations: Vec<RotationEntry>,
}

impl ManagerState {
    /// Fold one record into the aggregate. Application is idempotent where
    /// the protocol allows retries (a second commit of the same serial, a
    /// delivery for a notice that was never queued) — replay must not be
    /// stricter than the live manager was.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::CertIssued { serial, .. } => {
                self.max_serial = self.max_serial.max(*serial);
                self.issued += 1;
            }
            WalRecord::EnrollmentPrepared {
                serial,
                vnf_name,
                host_id,
                mrenclave,
                provisioning_key_hash,
                backend,
                at,
            } => {
                self.pending.insert(
                    *serial,
                    PendingEntry {
                        serial: *serial,
                        vnf_name: vnf_name.clone(),
                        host_id: host_id.clone(),
                        mrenclave: *mrenclave,
                        provisioning_key_hash: *provisioning_key_hash,
                        backend: *backend,
                        prepared_at: *at,
                    },
                );
            }
            WalRecord::EnrollmentCommitted { serial, at } => {
                if let Some(pending) = self.pending.remove(serial) {
                    self.enrollments.insert(
                        *serial,
                        EnrollmentEntry {
                            serial: *serial,
                            vnf_name: pending.vnf_name,
                            host_id: pending.host_id,
                            mrenclave: pending.mrenclave,
                            provisioning_key_hash: pending.provisioning_key_hash,
                            backend: pending.backend,
                            issued_at: *at,
                            revoked: self.revoked.contains_key(serial),
                        },
                    );
                }
            }
            WalRecord::EnrollmentAborted { serial, at, .. } => {
                self.pending.remove(serial);
                self.revoked
                    .entry(*serial)
                    .or_insert((REASON_CESSATION, *at));
            }
            WalRecord::CredentialRevoked {
                serial,
                reason_code,
                at,
            } => {
                self.revoked.entry(*serial).or_insert((*reason_code, *at));
                if let Some(enrollment) = self.enrollments.get_mut(serial) {
                    enrollment.revoked = true;
                }
            }
            WalRecord::RevocationQueued {
                host_id,
                serial,
                tag,
                at,
            } => {
                if !self
                    .notices
                    .iter()
                    .any(|n| n.host_id == *host_id && n.serial == *serial)
                {
                    self.notices.push(NoticeEntry {
                        host_id: host_id.clone(),
                        serial: *serial,
                        tag: *tag,
                        queued_at: *at,
                    });
                }
            }
            WalRecord::RevocationDelivered {
                host_id, serial, ..
            } => {
                self.notices
                    .retain(|n| !(n.host_id == *host_id && n.serial == *serial));
            }
            WalRecord::DegradedVerdictGranted { .. } => {
                self.degraded_grants += 1;
            }
            WalRecord::RecoveryCompleted { generation, .. } => {
                self.generation = self.generation.max(*generation);
            }
            WalRecord::CrlIssued { number, .. } => {
                self.crl_number = self.crl_number.max(*number);
            }
            WalRecord::CaRotationPrepared { epoch, .. } => {
                if *epoch > self.ca_epoch {
                    self.pending_rotation = Some(*epoch);
                }
            }
            WalRecord::CaRotationCommitted {
                epoch,
                root_serial,
                cross_serial,
                at,
            } => {
                if *epoch > self.ca_epoch {
                    self.rotations.push(RotationEntry {
                        epoch: *epoch,
                        root_serial: *root_serial,
                        cross_serial: *cross_serial,
                        at: *at,
                    });
                    self.ca_epoch = *epoch;
                }
                if self.pending_rotation == Some(*epoch) {
                    self.pending_rotation = None;
                }
            }
            WalRecord::CredentialRenewed {
                old_serial: _,
                new_serial,
                vnf_name,
                host_id,
                mrenclave,
                provisioning_key_hash,
                backend,
                at,
            } => {
                // The old enrollment stays live until its certificate
                // expires; renewal only adds the successor credential.
                self.enrollments.insert(
                    *new_serial,
                    EnrollmentEntry {
                        serial: *new_serial,
                        vnf_name: vnf_name.clone(),
                        host_id: host_id.clone(),
                        mrenclave: *mrenclave,
                        provisioning_key_hash: *provisioning_key_hash,
                        backend: *backend,
                        issued_at: *at,
                        revoked: self.revoked.contains_key(new_serial),
                    },
                );
            }
        }
    }

    /// Encode as a snapshot payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u64(TAG_MAX_SERIAL, self.max_serial)
            .u64(TAG_ISSUED, self.issued)
            .u64(TAG_DEGRADED, self.degraded_grants)
            .u64(TAG_SNAP_GENERATION, self.generation)
            .u64(TAG_CRL_NUMBER, self.crl_number)
            .u64(TAG_CA_EPOCH, self.ca_epoch)
            // Epochs start at 1, so 0 encodes "no rotation in flight".
            .u64(TAG_PENDING_ROTATION, self.pending_rotation.unwrap_or(0));
        for rotation in &self.rotations {
            w.nested(TAG_ROTATION, |inner| {
                inner
                    .u64(TAG_GENERATION, rotation.epoch)
                    .u64(TAG_SERIAL, rotation.root_serial)
                    .u64(TAG_CROSS_SERIAL, rotation.cross_serial)
                    .u64(TAG_AT, rotation.at);
            });
        }
        for e in self.enrollments.values() {
            w.nested(TAG_ENROLLMENT, |inner| {
                inner
                    .u64(TAG_SERIAL, e.serial)
                    .string(TAG_NAME, &e.vnf_name)
                    .string(TAG_HOST, &e.host_id)
                    .bytes(TAG_MRENCLAVE, &e.mrenclave)
                    .bytes(TAG_PROV_KEY_HASH, &e.provisioning_key_hash)
                    .u8(TAG_BACKEND, e.backend)
                    .u64(TAG_AT, e.issued_at)
                    .u8(TAG_REVOKED_FLAG, e.revoked as u8);
            });
        }
        for p in self.pending.values() {
            w.nested(TAG_PENDING, |inner| {
                inner
                    .u64(TAG_SERIAL, p.serial)
                    .string(TAG_NAME, &p.vnf_name)
                    .string(TAG_HOST, &p.host_id)
                    .bytes(TAG_MRENCLAVE, &p.mrenclave)
                    .bytes(TAG_PROV_KEY_HASH, &p.provisioning_key_hash)
                    .u8(TAG_BACKEND, p.backend)
                    .u64(TAG_AT, p.prepared_at);
            });
        }
        for (serial, (reason, at)) in &self.revoked {
            w.nested(TAG_REVOKED, |inner| {
                inner
                    .u64(TAG_SERIAL, *serial)
                    .u8(TAG_REASON_CODE, *reason)
                    .u64(TAG_AT, *at);
            });
        }
        for n in &self.notices {
            w.nested(TAG_NOTICE, |inner| {
                inner
                    .string(TAG_HOST, &n.host_id)
                    .u64(TAG_SERIAL, n.serial)
                    .bytes(TAG_TAG, &n.tag)
                    .u64(TAG_AT, n.queued_at);
            });
        }
        w.finish()
    }

    /// Decode a snapshot payload.
    pub fn decode(bytes: &[u8]) -> Result<ManagerState, StoreError> {
        let mut r = TlvReader::new(bytes);
        let mut state = ManagerState {
            max_serial: r.expect_u64(TAG_MAX_SERIAL)?,
            issued: r.expect_u64(TAG_ISSUED)?,
            degraded_grants: r.expect_u64(TAG_DEGRADED)?,
            generation: r.expect_u64(TAG_SNAP_GENERATION)?,
            crl_number: r.expect_u64(TAG_CRL_NUMBER)?,
            ca_epoch: r.expect_u64(TAG_CA_EPOCH)?,
            ..ManagerState::default()
        };
        state.pending_rotation = match r.expect_u64(TAG_PENDING_ROTATION)? {
            0 => None,
            epoch => Some(epoch),
        };
        while !r.is_empty() {
            let (tag, value) = r.next()?;
            let mut inner = TlvReader::new(value);
            match tag {
                TAG_ENROLLMENT => {
                    let serial = inner.expect_u64(TAG_SERIAL)?;
                    state.enrollments.insert(
                        serial,
                        EnrollmentEntry {
                            serial,
                            vnf_name: inner.expect_string(TAG_NAME)?,
                            host_id: inner.expect_string(TAG_HOST)?,
                            mrenclave: inner.expect_array::<32>(TAG_MRENCLAVE)?,
                            provisioning_key_hash: inner.expect_array::<32>(TAG_PROV_KEY_HASH)?,
                            backend: inner.expect_u8(TAG_BACKEND)?,
                            issued_at: inner.expect_u64(TAG_AT)?,
                            revoked: inner.expect_u8(TAG_REVOKED_FLAG)? != 0,
                        },
                    );
                }
                TAG_PENDING => {
                    let serial = inner.expect_u64(TAG_SERIAL)?;
                    state.pending.insert(
                        serial,
                        PendingEntry {
                            serial,
                            vnf_name: inner.expect_string(TAG_NAME)?,
                            host_id: inner.expect_string(TAG_HOST)?,
                            mrenclave: inner.expect_array::<32>(TAG_MRENCLAVE)?,
                            provisioning_key_hash: inner.expect_array::<32>(TAG_PROV_KEY_HASH)?,
                            backend: inner.expect_u8(TAG_BACKEND)?,
                            prepared_at: inner.expect_u64(TAG_AT)?,
                        },
                    );
                }
                TAG_REVOKED => {
                    let serial = inner.expect_u64(TAG_SERIAL)?;
                    let reason = inner.expect_u8(TAG_REASON_CODE)?;
                    let at = inner.expect_u64(TAG_AT)?;
                    state.revoked.insert(serial, (reason, at));
                }
                TAG_NOTICE => {
                    state.notices.push(NoticeEntry {
                        host_id: inner.expect_string(TAG_HOST)?,
                        serial: inner.expect_u64(TAG_SERIAL)?,
                        tag: inner.expect_array::<32>(TAG_TAG)?,
                        queued_at: inner.expect_u64(TAG_AT)?,
                    });
                }
                TAG_ROTATION => {
                    state.rotations.push(RotationEntry {
                        epoch: inner.expect_u64(TAG_GENERATION)?,
                        root_serial: inner.expect_u64(TAG_SERIAL)?,
                        cross_serial: inner.expect_u64(TAG_CROSS_SERIAL)?,
                        at: inner.expect_u64(TAG_AT)?,
                    });
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "unknown snapshot section 0x{other:02x}"
                    )))
                }
            }
            inner.finish()?;
        }
        Ok(state)
    }

    /// Check the crash-consistency invariants the recovery contract
    /// promises. Returns the first violation as text.
    pub fn check_invariants(&self) -> Result<(), String> {
        for serial in self.pending.keys() {
            if self.enrollments.contains_key(serial) {
                return Err(format!("serial {serial} is both pending and committed"));
            }
            if self.revoked.contains_key(serial) {
                return Err(format!("serial {serial} is both pending and revoked"));
            }
        }
        for (serial, e) in &self.enrollments {
            if e.revoked != self.revoked.contains_key(serial) {
                return Err(format!(
                    "serial {serial}: enrollment revoked flag ({}) disagrees with \
                     the revocation registry ({})",
                    e.revoked,
                    self.revoked.contains_key(serial)
                ));
            }
        }
        for serial in self
            .enrollments
            .keys()
            .chain(self.pending.keys())
            .chain(self.revoked.keys())
        {
            if *serial > self.max_serial {
                return Err(format!(
                    "serial {serial} exceeds recorded max serial {}",
                    self.max_serial
                ));
            }
        }
        let mut expected_epoch = 0;
        for rotation in &self.rotations {
            expected_epoch += 1;
            if rotation.epoch != expected_epoch {
                return Err(format!(
                    "rotation epochs out of order: found {} where {} was expected",
                    rotation.epoch, expected_epoch
                ));
            }
            if rotation.root_serial > self.max_serial || rotation.cross_serial > self.max_serial {
                return Err(format!(
                    "rotation {} names serials ({}, {}) beyond max serial {}",
                    rotation.epoch, rotation.root_serial, rotation.cross_serial, self.max_serial
                ));
            }
        }
        if expected_epoch != self.ca_epoch {
            return Err(format!(
                "CA epoch {} disagrees with {} committed rotations",
                self.ca_epoch, expected_epoch
            ));
        }
        if let Some(pending) = self.pending_rotation {
            if pending != self.ca_epoch + 1 {
                return Err(format!(
                    "pending rotation epoch {pending} is not the successor of CA epoch {}",
                    self.ca_epoch
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CertIssued {
                serial: 2,
                subject: "vnf-a".into(),
                at: 100,
            },
            WalRecord::EnrollmentPrepared {
                serial: 2,
                vnf_name: "vnf-a".into(),
                host_id: "host-0".into(),
                mrenclave: [7; 32],
                provisioning_key_hash: [21; 32],
                backend: 0,
                at: 100,
            },
            WalRecord::EnrollmentCommitted { serial: 2, at: 101 },
            WalRecord::CertIssued {
                serial: 3,
                subject: "vnf-b".into(),
                at: 110,
            },
            WalRecord::EnrollmentPrepared {
                serial: 3,
                vnf_name: "vnf-b".into(),
                host_id: "host-0".into(),
                mrenclave: [8; 32],
                provisioning_key_hash: [22; 32],
                backend: 0,
                at: 110,
            },
            WalRecord::EnrollmentAborted {
                serial: 3,
                reason: "delivery failed".into(),
                at: 111,
            },
            WalRecord::CredentialRevoked {
                serial: 2,
                reason_code: 1,
                at: 120,
            },
            WalRecord::RevocationQueued {
                host_id: "host-0".into(),
                serial: 2,
                tag: [9; 32],
                at: 120,
            },
            WalRecord::DegradedVerdictGranted {
                host_id: "host-0".into(),
                at: 130,
            },
            WalRecord::RecoveryCompleted {
                generation: 1,
                at: 140,
            },
            WalRecord::CrlIssued { number: 1, at: 145 },
            WalRecord::CertIssued {
                serial: 4,
                subject: "vm-ca".into(),
                at: 150,
            },
            WalRecord::CertIssued {
                serial: 5,
                subject: "vm-ca".into(),
                at: 150,
            },
            WalRecord::CaRotationPrepared { epoch: 1, at: 150 },
            WalRecord::CaRotationCommitted {
                epoch: 1,
                root_serial: 4,
                cross_serial: 5,
                at: 150,
            },
            WalRecord::CertIssued {
                serial: 6,
                subject: "vnf-a".into(),
                at: 160,
            },
            WalRecord::CredentialRenewed {
                old_serial: 2,
                new_serial: 6,
                vnf_name: "vnf-a".into(),
                host_id: "host-0".into(),
                mrenclave: [7; 32],
                provisioning_key_hash: [21; 32],
                backend: 1,
                at: 160,
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for record in sample_records() {
            let decoded = WalRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut w = TlvWriter::new();
        w.u8(TAG_KIND, 200);
        assert!(WalRecord::decode(&w.finish()).is_err());
    }

    #[test]
    fn replay_builds_consistent_state() {
        let mut state = ManagerState::default();
        for record in sample_records() {
            state.apply(&record);
        }
        assert_eq!(state.max_serial, 6);
        assert_eq!(state.issued, 5);
        assert!(state.enrollments[&2].revoked);
        assert!(state.pending.is_empty());
        assert!(state.revoked.contains_key(&3), "aborted prepare is revoked");
        assert_eq!(state.notices.len(), 1);
        assert_eq!(state.degraded_grants, 1);
        assert_eq!(state.generation, 1);
        assert_eq!(state.crl_number, 1);
        assert_eq!(state.ca_epoch, 1);
        assert_eq!(state.pending_rotation, None);
        assert_eq!(
            state.rotations,
            vec![RotationEntry {
                epoch: 1,
                root_serial: 4,
                cross_serial: 5,
                at: 150,
            }]
        );
        let renewed = &state.enrollments[&6];
        assert_eq!(renewed.vnf_name, "vnf-a");
        assert!(!renewed.revoked);
        assert_eq!(renewed.provisioning_key_hash, [21; 32]);
        assert_eq!(state.enrollments[&2].provisioning_key_hash, [21; 32]);
        state.check_invariants().unwrap();
    }

    #[test]
    fn prepared_rotation_without_commit_stays_pending() {
        let mut state = ManagerState::default();
        state.apply(&WalRecord::CaRotationPrepared { epoch: 1, at: 10 });
        assert_eq!(state.pending_rotation, Some(1));
        assert_eq!(state.ca_epoch, 0);
        state.check_invariants().unwrap();
        // A replayed commit resolves the in-flight rotation.
        state.apply(&WalRecord::CertIssued {
            serial: 2,
            subject: "vm-ca".into(),
            at: 11,
        });
        state.apply(&WalRecord::CertIssued {
            serial: 3,
            subject: "vm-ca".into(),
            at: 11,
        });
        state.apply(&WalRecord::CaRotationCommitted {
            epoch: 1,
            root_serial: 2,
            cross_serial: 3,
            at: 11,
        });
        assert_eq!(state.pending_rotation, None);
        assert_eq!(state.ca_epoch, 1);
        state.check_invariants().unwrap();
    }

    #[test]
    fn crl_number_replay_is_monotonic() {
        let mut state = ManagerState::default();
        state.apply(&WalRecord::CrlIssued { number: 3, at: 1 });
        state.apply(&WalRecord::CrlIssued { number: 2, at: 2 });
        assert_eq!(state.crl_number, 3);
    }

    #[test]
    fn invariants_catch_rotation_epoch_gap() {
        let mut state = ManagerState {
            max_serial: 10,
            ..ManagerState::default()
        };
        state.rotations.push(RotationEntry {
            epoch: 2,
            root_serial: 4,
            cross_serial: 5,
            at: 1,
        });
        state.ca_epoch = 2;
        assert!(state.check_invariants().is_err());
        // A pending rotation must be the successor epoch.
        let state = ManagerState {
            pending_rotation: Some(3),
            ..ManagerState::default()
        };
        assert!(state.check_invariants().is_err());
    }

    #[test]
    fn delivery_clears_queued_notice() {
        let mut state = ManagerState::default();
        state.apply(&WalRecord::RevocationQueued {
            host_id: "h".into(),
            serial: 5,
            tag: [0; 32],
            at: 10,
        });
        state.apply(&WalRecord::RevocationDelivered {
            host_id: "h".into(),
            serial: 5,
            at: 12,
        });
        assert!(state.notices.is_empty());
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut state = ManagerState::default();
        for record in sample_records() {
            state.apply(&record);
        }
        let decoded = ManagerState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn invariants_catch_flag_divergence() {
        let mut state = ManagerState::default();
        state.apply(&WalRecord::CertIssued {
            serial: 2,
            subject: "x".into(),
            at: 0,
        });
        state.apply(&WalRecord::EnrollmentPrepared {
            serial: 2,
            vnf_name: "x".into(),
            host_id: "h".into(),
            mrenclave: [0; 32],
            provisioning_key_hash: [0; 32],
            backend: 0,
            at: 0,
        });
        state.apply(&WalRecord::EnrollmentCommitted { serial: 2, at: 1 });
        state.check_invariants().unwrap();
        state.enrollments.get_mut(&2).unwrap().revoked = true;
        assert!(state.check_invariants().is_err());
    }
}
