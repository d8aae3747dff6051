//! Store-and-forward revocation notification.
//!
//! When the Verification Manager revokes a credential it notifies the
//! hosting agent so the host can evict the VNF's session material without
//! waiting for the next CRL pull. A host that is partitioned away must not
//! make revocation fail: the notice is queued and re-delivered by
//! [`RevocationNotifier::drain`] once the host is reachable again.
//! Notices are authenticated with the VM's HMAC key (the key the paper has
//! the manager generate), so an agent only honors VM-originated notices.

use std::time::Duration;
use vnfguard_encoding::{base64, Json};
use vnfguard_net::fabric::Network;
use vnfguard_net::http::Request;
use vnfguard_store::{StateStore, WalRecord};
use vnfguard_telemetry::Telemetry;

/// Read deadline for a notification round-trip to an agent.
const NOTIFY_READ_TIMEOUT: Duration = Duration::from_millis(750);

/// The canonical byte string an agent authenticates for a revocation.
pub fn revocation_message(host_id: &str, serial: u64) -> Vec<u8> {
    format!("revoke:{host_id}:{serial}").into_bytes()
}

/// A revocation notice that could not be delivered yet.
#[derive(Debug, Clone)]
pub struct PendingNotice {
    pub host_id: String,
    pub serial: u64,
    pub tag: [u8; 32],
    pub attempts: u32,
}

/// Delivers revocation notices to host agents, queueing any that fail.
pub struct RevocationNotifier {
    network: Network,
    origin: String,
    queue: Vec<PendingNotice>,
    /// Journal queue/delivery transitions so recovery can resume
    /// store-and-forward where the dead incarnation left it.
    store: Option<StateStore>,
    telemetry: Telemetry,
}

impl RevocationNotifier {
    pub fn new(network: &Network) -> RevocationNotifier {
        RevocationNotifier {
            network: network.clone(),
            origin: "vm".to_string(),
            queue: Vec::new(),
            store: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Journal notice transitions into the manager's sealed WAL.
    pub fn with_store(mut self, store: StateStore) -> RevocationNotifier {
        self.store = Some(store);
        self
    }

    /// Emit delivery events into the deployment's telemetry journal.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> RevocationNotifier {
        self.telemetry = telemetry.clone();
        self
    }

    /// Best-effort WAL append: a notifier journaling failure must not turn
    /// a successful delivery into an error (the agent already acted on it).
    fn journal(&self, record: &WalRecord) {
        if let Some(store) = &self.store {
            let _ = store.append(record);
        }
    }

    fn deliver_once(&self, host_id: &str, serial: u64, tag: &[u8; 32]) -> Result<(), String> {
        let mut stream = self
            .network
            .connect_from(&self.origin, &format!("agent:{host_id}"))
            .map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(NOTIFY_READ_TIMEOUT));
        let mut client = vnfguard_net::server::HttpClient::new(stream);
        let response = client
            .request(
                &Request::post("/agent/revocations").with_json(
                    &Json::object()
                        .with("serial", serial as i64)
                        .with("tag", base64::encode(tag)),
                ),
            )
            .map_err(|e| e.to_string())?;
        if response.status.is_success() {
            Ok(())
        } else {
            Err(format!("agent returned {}", response.status.code()))
        }
    }

    /// Try to deliver a notice now; on failure it is queued for
    /// [`drain`](Self::drain). Returns `true` if delivered immediately.
    pub fn notify(&mut self, host_id: &str, serial: u64, tag: [u8; 32], at: u64) -> bool {
        match self.deliver_once(host_id, serial, &tag) {
            Ok(()) => {
                self.journal(&WalRecord::RevocationDelivered {
                    host_id: host_id.to_string(),
                    serial,
                    at,
                });
                self.telemetry.event(
                    at,
                    "revocation_delivered",
                    &format!("{host_id} serial {serial} (immediate)"),
                );
                true
            }
            Err(_) => {
                self.journal(&WalRecord::RevocationQueued {
                    host_id: host_id.to_string(),
                    serial,
                    tag,
                    at,
                });
                self.telemetry.event(
                    at,
                    "revocation_queued",
                    &format!("{host_id} serial {serial}"),
                );
                self.queue.push(PendingNotice {
                    host_id: host_id.to_string(),
                    serial,
                    tag,
                    attempts: 1,
                });
                false
            }
        }
    }

    /// Retry every queued notice at time `at`; delivered ones leave the
    /// queue, their delivery journaled and logged as a
    /// `revocation_delivered` event. Returns the number delivered in this
    /// pass.
    pub fn drain(&mut self, at: u64) -> usize {
        let mut remaining = Vec::new();
        let mut delivered = 0;
        for mut notice in std::mem::take(&mut self.queue) {
            match self.deliver_once(&notice.host_id, notice.serial, &notice.tag) {
                Ok(()) => {
                    self.journal(&WalRecord::RevocationDelivered {
                        host_id: notice.host_id.clone(),
                        serial: notice.serial,
                        at,
                    });
                    self.telemetry.event(
                        at,
                        "revocation_delivered",
                        &format!(
                            "{} serial {} after {} attempts",
                            notice.host_id,
                            notice.serial,
                            notice.attempts + 1
                        ),
                    );
                    delivered += 1;
                }
                Err(_) => {
                    notice.attempts += 1;
                    remaining.push(notice);
                }
            }
        }
        self.queue = remaining;
        delivered
    }

    /// Re-enter recovered notices into the store-and-forward queue,
    /// skipping any (host, serial) pair already queued.
    pub fn restore(&mut self, notices: impl IntoIterator<Item = PendingNotice>) {
        for notice in notices {
            if !self
                .queue
                .iter()
                .any(|n| n.host_id == notice.host_id && n.serial == notice.serial)
            {
                self.queue.push(notice);
            }
        }
    }

    /// Notices still awaiting delivery.
    pub fn pending(&self) -> &[PendingNotice] {
        &self.queue
    }
}

impl std::fmt::Debug for RevocationNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevocationNotifier")
            .field("pending", &self.queue.len())
            .finish()
    }
}
