//! Property tests for the sealed store's replay semantics — the invariant
//! the replication standby apply path relies on.
//!
//! A standby never applies a frame twice (duplicates are skipped by
//! sequence number) and may be promoted at any point in the stream, so
//! two properties carry the whole failover design:
//!
//! - **replay idempotence**: replaying the same log is a pure read —
//!   doing it twice (before or after compaction, or through a snapshot
//!   round-trip) yields the same `ManagerState`;
//! - **prefix consistency**: every strict prefix of a valid WAL replays
//!   to a valid *earlier* manager state — `check_invariants` passes and
//!   the monotone counters (serials, issuance, CRL number, CA epoch)
//!   never run backwards along the prefix chain.
//!
//! The commit path (`enqueue` under the caller's lock, `sync` with one
//! leader flushing every queued record as one frame) adds three more:
//! concurrent appenders replay exactly as their records applied in LSN
//! order, a tear anywhere drops only whole trailing batches, and
//! compaction from the in-memory replay mirror seals the same state a full
//! replay would.

use proptest::collection::vec;
use proptest::prelude::*;
use vnfguard::sgx::platform::SgxPlatform;
use vnfguard::sgx::sigstruct::EnclaveAuthor;
use vnfguard::store::{ManagerState, Media, StateStore, StateVault, WalRecord};

/// Model of what the live manager would journal: tracks enough state to
/// only ever emit record sequences a real deployment could produce (the
/// prefix-consistency property is about valid logs, not arbitrary ones).
#[derive(Default)]
struct ScriptModel {
    next_serial: u64,
    pending: Vec<u64>,
    committed: Vec<u64>,
    revoked: Vec<u64>,
    queued_notices: Vec<u64>,
    ca_epoch: u64,
    rotation_prepared: bool,
    crl_number: u64,
    generation: u64,
}

impl ScriptModel {
    fn issue(&mut self, at: u64) -> WalRecord {
        self.next_serial += 1;
        WalRecord::CertIssued {
            serial: self.next_serial,
            subject: format!("cn-{}", self.next_serial),
            at,
        }
    }
}

/// Deterministically expand opcode bytes into a valid journal script. Each
/// opcode picks the next action *admissible in the current model state*;
/// inadmissible picks fall through to a plain issuance so every byte
/// produces at least one record.
fn script(ops: &[u8]) -> Vec<WalRecord> {
    let mut model = ScriptModel::default();
    let mut records = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let at = 1_000 + i as u64;
        match op % 10 {
            // Two-phase enrollment: issue + prepare (serials must exist
            // before any record names them).
            0 | 1 => {
                records.push(model.issue(at));
                let serial = model.next_serial;
                records.push(WalRecord::EnrollmentPrepared {
                    serial,
                    vnf_name: format!("vnf-{serial}"),
                    host_id: format!("host-{}", serial % 3),
                    mrenclave: [serial as u8; 32],
                    provisioning_key_hash: [!(serial as u8); 32],
                    backend: (serial % 2) as u8,
                    at,
                });
                model.pending.push(serial);
            }
            2 | 3 if !model.pending.is_empty() => {
                let serial = model.pending.remove((*op as usize) % model.pending.len());
                records.push(WalRecord::EnrollmentCommitted { serial, at });
                model.committed.push(serial);
            }
            4 if !model.pending.is_empty() => {
                let serial = model.pending.remove((*op as usize) % model.pending.len());
                records.push(WalRecord::EnrollmentAborted {
                    serial,
                    reason: "provisioning rolled back".into(),
                    at,
                });
                model.revoked.push(serial);
            }
            5 if !model.committed.is_empty() => {
                let serial = model
                    .committed
                    .remove((*op as usize) % model.committed.len());
                records.push(WalRecord::CredentialRevoked {
                    serial,
                    reason_code: 1,
                    at,
                });
                records.push(WalRecord::RevocationQueued {
                    host_id: format!("host-{}", serial % 3),
                    serial,
                    tag: [serial as u8; 32],
                    at,
                });
                model.revoked.push(serial);
                model.queued_notices.push(serial);
            }
            6 if !model.queued_notices.is_empty() => {
                let serial = model
                    .queued_notices
                    .remove((*op as usize) % model.queued_notices.len());
                records.push(WalRecord::RevocationDelivered {
                    host_id: format!("host-{}", serial % 3),
                    serial,
                    at,
                });
            }
            7 => {
                model.crl_number += 1;
                records.push(WalRecord::CrlIssued {
                    number: model.crl_number,
                    at,
                });
            }
            // CA rotation: prepare, then commit naming freshly issued
            // root + cross serials (epochs stay contiguous).
            8 => {
                if model.rotation_prepared {
                    records.push(model.issue(at));
                    let root_serial = model.next_serial;
                    records.push(model.issue(at));
                    let cross_serial = model.next_serial;
                    model.ca_epoch += 1;
                    model.rotation_prepared = false;
                    records.push(WalRecord::CaRotationCommitted {
                        epoch: model.ca_epoch,
                        root_serial,
                        cross_serial,
                        at,
                    });
                } else {
                    model.rotation_prepared = true;
                    records.push(WalRecord::CaRotationPrepared {
                        epoch: model.ca_epoch + 1,
                        at,
                    });
                }
            }
            9 if !model.committed.is_empty() => {
                let old = model.committed[(*op as usize) % model.committed.len()];
                records.push(model.issue(at));
                let serial = model.next_serial;
                records.push(WalRecord::CredentialRenewed {
                    old_serial: old,
                    new_serial: serial,
                    vnf_name: format!("vnf-{old}"),
                    host_id: format!("host-{}", old % 3),
                    mrenclave: [old as u8; 32],
                    provisioning_key_hash: [!(old as u8); 32],
                    backend: (old % 2) as u8,
                    at,
                });
                model.committed.push(serial);
            }
            _ => {
                model.generation += 1;
                records.push(WalRecord::RecoveryCompleted {
                    generation: model.generation,
                    at,
                });
            }
        }
    }
    records
}

fn fresh_store(compaction: u64) -> StateStore {
    store_over(Media::new()).with_compaction(compaction)
}

fn store_over(media: Media) -> StateStore {
    let platform = SgxPlatform::new(b"store props vm");
    let author = EnclaveAuthor::from_seed(&[7; 32]);
    let vault = StateVault::load(&platform, &author).expect("vault loads");
    StateStore::new(media, vault)
}

/// A new handle over `store`'s medium, as a recovered incarnation opens it.
fn reopen(store: &StateStore) -> StateStore {
    store_over(store.media().clone())
}

/// Fold a record slice directly (the reference replay, no sealing).
fn fold(records: &[WalRecord]) -> ManagerState {
    let mut state = ManagerState::default();
    for record in records {
        state.apply(record);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying the same log twice is a no-op: `replay` is a pure read,
    /// before and after compaction, and a snapshot round-trip through
    /// `install_state` reproduces the same state byte-for-byte.
    #[test]
    fn replay_is_idempotent(ops in vec(any::<u8>(), 1..60), compaction in 0u64..20) {
        let records = script(&ops);
        let store = fresh_store(compaction);
        for record in &records {
            store.append(record).unwrap();
        }
        let first = store.replay().unwrap().state;
        let second = store.replay().unwrap().state;
        prop_assert_eq!(&first, &second, "replay mutated the log");
        prop_assert_eq!(&first, &fold(&records), "sealed replay diverged from direct fold");

        // Forced compaction folds the log into a sealed snapshot; the
        // replayed state must not change.
        store.compact().unwrap();
        let compacted = store.replay().unwrap().state;
        prop_assert_eq!(&first, &compacted, "compaction changed the replayed state");

        // Snapshot round-trip (the standby catch-up path).
        let catch_up = fresh_store(0);
        catch_up.install_state(&first).unwrap();
        prop_assert_eq!(&first, &catch_up.replay().unwrap().state, "install_state round-trip diverged");
    }

    /// Every strict prefix of a valid WAL replays to a valid earlier
    /// state: invariants hold and the monotone counters never regress as
    /// the prefix grows — which is why a standby frozen at any ack
    /// boundary is a legal promotion candidate.
    #[test]
    fn prefixes_replay_to_valid_earlier_states(ops in vec(any::<u8>(), 1..40)) {
        let records = script(&ops);
        let mut state = ManagerState::default();
        let mut prev = state.clone();
        for (i, record) in records.iter().enumerate() {
            state.apply(record);
            state
                .check_invariants()
                .unwrap_or_else(|e| panic!("prefix {}: {e}", i + 1));
            prop_assert!(state.max_serial >= prev.max_serial, "max_serial regressed");
            prop_assert!(state.issued >= prev.issued, "issued regressed");
            prop_assert!(state.crl_number >= prev.crl_number, "crl_number regressed");
            prop_assert!(state.ca_epoch >= prev.ca_epoch, "ca_epoch regressed");
            prop_assert!(state.generation >= prev.generation, "generation regressed");
            prop_assert!(
                state.rotations.len() >= prev.rotations.len(),
                "committed rotations regressed"
            );
            // A serial that reached the committed-or-revoked frontier
            // never leaves it (enrollments stay, revocations are final).
            for serial in prev.revoked.keys() {
                prop_assert!(state.revoked.contains_key(serial), "revocation forgotten");
            }
            for serial in prev.enrollments.keys() {
                prop_assert!(
                    state.enrollments.contains_key(serial),
                    "committed enrollment vanished"
                );
            }
            prev = state.clone();
        }
    }

    /// A torn tail replays to exactly the state of some strict prefix —
    /// never a mixture, never garbage (the rule that lets a standby treat
    /// its own torn log as merely "behind" at promotion time).
    #[test]
    fn torn_tail_replays_to_a_prefix_state(ops in vec(any::<u8>(), 2..30), tear in 1usize..64) {
        let records = script(&ops);
        let store = fresh_store(0);
        for record in &records {
            store.append(record).unwrap();
        }
        store.media().tear_tail(tear);
        let replayed = store.replay().unwrap().state;
        let mut prefix_states = Vec::with_capacity(records.len() + 1);
        let mut state = ManagerState::default();
        prefix_states.push(state.clone());
        for record in &records {
            state.apply(record);
            prefix_states.push(state.clone());
        }
        prop_assert!(
            prefix_states.contains(&replayed),
            "torn-tail replay is not any prefix state"
        );
    }

    /// A coalesced flush is byte-equivalent to sequential appends on
    /// replay: the same record sequence pushed through `append_group` in
    /// arbitrary chunkings replays to the same state (and the same frame
    /// accounting) as one-record-per-flush appends, with one flush per
    /// chunk. Batching changes *when* the medium is flushed, never *what*
    /// the log means.
    #[test]
    fn group_commit_replay_matches_sequential(
        ops in vec(any::<u8>(), 1..50),
        chunk_sizes in vec(1usize..6, 1..50),
    ) {
        let records = script(&ops);
        let sequential = fresh_store(0);
        for record in &records {
            sequential.append(record).unwrap();
        }
        let grouped = fresh_store(0);
        let chunks = chunked(&records, &chunk_sizes);
        for chunk in &chunks {
            grouped.append_group(chunk).unwrap();
        }
        prop_assert_eq!(grouped.media().flushes(), chunks.len() as u64);
        prop_assert_eq!(sequential.media().flushes(), records.len() as u64);
        let grouped_state = grouped.replay().unwrap().state;
        let sequential_state = sequential.replay().unwrap().state;
        prop_assert_eq!(&grouped_state, &sequential_state, "group-commit replay diverged");
        prop_assert_eq!(&grouped_state, &fold(&records), "group-commit replay diverged from fold");
        // Frame accounting counts group members individually, so the two
        // logs agree on how many records they hold.
        prop_assert_eq!(
            grouped.stats().log_frames,
            sequential.stats().log_frames,
            "group frames not counted per member"
        );
    }

    /// A tear inside a group frame truncates to the last *whole group*:
    /// the replayed state always sits on a group-commit boundary, never in
    /// the middle of a coalesced batch. Each group is atomic — all of its
    /// records survive or none do — which is what lets a workflow coalesce
    /// its journal entries into one flush without weakening
    /// WAL-before-response.
    #[test]
    fn torn_group_truncates_to_whole_group_boundary(
        ops in vec(any::<u8>(), 2..40),
        chunk_sizes in vec(1usize..6, 1..40),
        tear in 1usize..96,
    ) {
        let records = script(&ops);
        let store = fresh_store(0);
        let mut boundary_states = vec![ManagerState::default()];
        let mut cursor = 0;
        for chunk in chunked(&records, &chunk_sizes) {
            store.append_group(chunk).unwrap();
            cursor += chunk.len();
            boundary_states.push(fold(&records[..cursor]));
        }
        store.media().tear_tail(tear);
        let replayed = store.replay().unwrap().state;
        prop_assert!(
            boundary_states.contains(&replayed),
            "torn group frame replayed to a non-boundary state (partial group applied)"
        );
    }
}

/// A thread's journal stream: `count` enrollments on serials no other
/// thread uses, each queueing a revocation notice. The notice list keeps
/// journal order, so the replayed state shows the order records applied in.
fn thread_script(thread: usize, count: usize) -> Vec<WalRecord> {
    let mut records = Vec::new();
    for i in 0..count {
        let serial = (thread as u64 + 1) * 1_000 + i as u64;
        records.push(WalRecord::CertIssued {
            serial,
            subject: format!("cn-{serial}"),
            at: serial,
        });
        records.push(WalRecord::EnrollmentPrepared {
            serial,
            vnf_name: format!("vnf-{serial}"),
            host_id: format!("host-{thread}"),
            mrenclave: [thread as u8; 32],
            provisioning_key_hash: [i as u8; 32],
            backend: 0,
            at: serial,
        });
        records.push(WalRecord::EnrollmentCommitted { serial, at: serial });
        records.push(WalRecord::RevocationQueued {
            host_id: format!("host-{thread}"),
            serial,
            tag: [i as u8; 32],
            at: serial,
        });
    }
    records
}

/// Split `records` into consecutive chunks, sized by cycling `sizes`.
fn chunked<'a>(records: &'a [WalRecord], sizes: &[usize]) -> Vec<&'a [WalRecord]> {
    let mut chunks = Vec::new();
    let mut cursor = 0;
    let mut sizes = sizes.iter().cycle();
    while cursor < records.len() {
        let take = (*sizes.next().unwrap()).min(records.len() - cursor);
        chunks.push(&records[cursor..cursor + take]);
        cursor += take;
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent appenders, each enqueueing random-sized chunks and
    /// waiting for them, replay to exactly the state of their records
    /// applied in LSN order — with or without mirror compaction running in
    /// the leaders, with instant writes or slow enough ones that two
    /// batches' writes overlap — and every acknowledged record is in it.
    #[test]
    fn concurrent_appenders_replay_in_lsn_order(
        threads in 4usize..=8,
        per_thread in 1usize..5,
        sizes in vec(1usize..7, 1..8),
        compaction in prop_oneof![Just(0u64), 3u64..16],
        write_micros in prop_oneof![Just(0u64), Just(100), Just(2000)],
    ) {
        let store = fresh_store(compaction);
        store.media().set_write_latency(std::time::Duration::from_micros(write_micros));
        let scripts: Vec<Vec<WalRecord>> =
            (0..threads).map(|t| thread_script(t, per_thread)).collect();
        let mut acknowledged: Vec<(u64, Vec<WalRecord>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let (store, sizes) = (store.clone(), &sizes);
                    scope.spawn(move || {
                        chunked(script, sizes)
                            .into_iter()
                            .map(|chunk| {
                                let lsn = store.enqueue(chunk).unwrap();
                                store.sync(lsn).unwrap();
                                (lsn, chunk.to_vec())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        acknowledged.sort_by_key(|(lsn, _)| *lsn);
        let in_lsn_order: Vec<WalRecord> =
            acknowledged.into_iter().flat_map(|(_, chunk)| chunk).collect();
        prop_assert_eq!(in_lsn_order.len(), threads * per_thread * 4);
        prop_assert_eq!(store.appended_lsn(), in_lsn_order.len() as u64);
        let replayed = store.replay().unwrap().state;
        prop_assert_eq!(&replayed, &fold(&in_lsn_order), "replay is not LSN-order application");
        prop_assert_eq!(replayed.notices.len(), in_lsn_order.len() / 4, "an acknowledged record is missing");
    }

    /// Batches that hold several callers' records: a tear at any byte
    /// replays to the state after some whole batch (one frame per batch) —
    /// never part of a batch, never a record past the tear.
    #[test]
    fn tear_anywhere_drops_only_whole_trailing_batches(
        ops in vec(any::<u8>(), 2..40),
        sizes in vec(1usize..5, 1..12),
        callers in vec(1usize..4, 1..12),
        tear in 1usize..100_000,
    ) {
        let records = script(&ops);
        let store = fresh_store(0);
        let chunks = chunked(&records, &sizes);
        let mut boundaries = vec![ManagerState::default()];
        let mut applied = 0;
        let mut pending = chunks.iter().peekable();
        let mut per_batch = callers.iter().cycle();
        while pending.peek().is_some() {
            // Several callers enqueue, then one sync leads them all.
            let mut lsn = 0;
            for chunk in pending.by_ref().take(*per_batch.next().unwrap()) {
                lsn = store.enqueue(chunk).unwrap();
                applied += chunk.len();
            }
            let commit = store.sync(lsn).unwrap();
            prop_assert!(commit.leader);
            boundaries.push(fold(&records[..applied]));
        }
        let log_bytes = store.stats().log_bytes;
        store.media().tear_tail(1 + tear % log_bytes);
        let replayed = store.replay().unwrap().state;
        prop_assert!(boundaries.contains(&replayed), "tear replayed to a state inside a batch");
    }

    /// Threshold compaction seals the leaders' in-memory replay mirror;
    /// compacting a store that never built one seals a fresh full replay.
    /// Both, and a store that never compacts, replay to the same state —
    /// also after `install_state` resets the mirror mid-stream.
    #[test]
    fn mirror_compaction_replays_like_replay_compaction(
        ops in vec(any::<u8>(), 1..60),
        sizes in vec(1usize..6, 1..10),
        compaction in 2u64..12,
        install_at in 0usize..60,
    ) {
        let records = script(&ops);
        let mirrored = fresh_store(compaction);
        let plain = fresh_store(0);
        let chunks = chunked(&records, &sizes);
        let install_at = install_at % chunks.len();
        for (i, chunk) in chunks.iter().enumerate() {
            if i == install_at {
                // A standby catch-up: install the state so far on both.
                let so_far = plain.replay().unwrap().state;
                mirrored.install_state(&so_far).unwrap();
                plain.install_state(&so_far).unwrap();
            }
            mirrored.append_group(chunk).unwrap();
            plain.append_group(chunk).unwrap();
        }
        let expected = fold(&records);
        prop_assert_eq!(&mirrored.replay().unwrap().state, &expected, "mirror compaction diverged");
        mirrored.compact().unwrap();
        prop_assert_eq!(&mirrored.replay().unwrap().state, &expected, "forced mirror compaction diverged");
        // A fresh handle has no mirror: its compaction starts from replay().
        let reopened = reopen(&plain);
        reopened.compact().unwrap();
        prop_assert_eq!(&reopened.replay().unwrap().state, &expected, "replay-built compaction diverged");
        prop_assert_eq!(&plain.replay().unwrap().state, &expected);
    }
}

/// Eight parallel clients against a four-shard service handle: every
/// enrollment succeeds, every serial is unique, and each serial lands in
/// the serial span owned by the shard that the VNF's identity routes to —
/// the store-level guarantee (disjoint per-shard sequence spaces) that
/// makes sharded WALs mergeable without coordination.
#[test]
fn concurrent_enrollments_issue_unique_serials_across_shards() {
    use std::sync::Arc;
    use vnfguard::core::deployment::TestbedBuilder;
    use vnfguard::core::service::shard_of_vnf;

    const CLIENTS: usize = 8;
    const SHARDS: usize = 4;
    const SHARD_SERIAL_SPAN: u64 = 1 << 40;

    let mut tb = TestbedBuilder::new(b"store-props-shards")
        .shards(SHARDS)
        .build();
    tb.attest_host(0).expect("host attestation");
    let mut guards = Vec::new();
    for i in 0..CLIENTS {
        guards.push(
            tb.deploy_guard(0, &format!("vnf-conc-{i}"), 1)
                .expect("guard"),
        );
    }
    let vm = tb.vm_service();
    let ias = Arc::new(parking_lot::Mutex::new(std::mem::replace(
        &mut tb.ias,
        vnfguard::ias::AttestationService::new(b"placeholder"),
    )));
    let platform = &tb.hosts[0].platform;
    let serials: Vec<(String, u64)> = std::thread::scope(|scope| {
        guards
            .iter()
            .map(|guard| {
                let vm = vm.clone();
                let ias = ias.clone();
                scope.spawn(move || {
                    let challenge = vm.begin_vnf_attestation("host-0", &guard.name).unwrap();
                    let key = guard.provisioning_key().unwrap();
                    let quote = guard
                        .quote(platform, &challenge.nonce, challenge.nonce)
                        .unwrap();
                    let (_, certificate) = vm
                        .complete_vnf_enrollment(
                            &mut *ias.lock(),
                            challenge.id,
                            &quote.encode(),
                            &key,
                            "controller",
                        )
                        .unwrap();
                    (guard.name.clone(), certificate.serial())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });

    let mut seen = std::collections::HashSet::new();
    for (name, serial) in &serials {
        assert!(seen.insert(*serial), "serial {serial} issued twice");
        let shard = (serial / SHARD_SERIAL_SPAN) as usize;
        assert_eq!(
            shard,
            shard_of_vnf(name, SHARDS),
            "serial {serial} for {name} landed outside its shard's span"
        );
    }
    assert_eq!(
        seen.len(),
        CLIENTS,
        "expected one distinct serial per client"
    );
}
