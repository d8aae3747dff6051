//! The Verification Manager's journaled state, and the one way to change
//! it.
//!
//! A manager's enrollments, pending enrollments and revocations, with the
//! counters and the rotation history its write-ahead log carries, are one
//! [`ManagerState`]: the fold of every record the manager journaled,
//! through the same [`ManagerState::apply`] that replay and the store's
//! replay mirror run. [`JournaledState::record`] is the only mutator. It
//! enqueues the records on the attached store, if there is one, and folds
//! them only once the enqueue succeeded. A state change without its record
//! therefore cannot be written, and the live state cannot drift from what
//! recovery rebuilds. A volatile manager, with no store, still folds.

use std::time::Instant;
use vnfguard_store::{ManagerState, StateStore, StoreError, WalRecord};

/// A [`ManagerState`] that changes only by journaling records.
pub(crate) struct JournaledState {
    state: ManagerState,
    /// The sealed write-ahead log; `None` runs the manager volatile (the
    /// paper's original posture).
    store: Option<StateStore>,
    /// When the current call first journaled, and how many records it
    /// journaled: the start of the caller's WAL wait and its own share of
    /// the batch, taken with its commit ticket.
    journaled: Option<(Instant, usize)>,
}

impl JournaledState {
    /// Start from `state` (empty, or the replay of `store`'s snapshot and
    /// log), journaling to `store` when one is given.
    pub(crate) fn new(state: ManagerState, store: Option<StateStore>) -> JournaledState {
        JournaledState {
            state,
            store,
            journaled: None,
        }
    }

    pub(crate) fn get(&self) -> &ManagerState {
        &self.state
    }

    pub(crate) fn store(&self) -> Option<&StateStore> {
        self.store.as_ref()
    }

    /// Seal `records` and queue them behind everything journaled before,
    /// then fold them into the state. They land in one frame on the store,
    /// so a torn tail drops all of them or none.
    /// A failed enqueue changes nothing.
    pub(crate) fn record(&mut self, records: &[WalRecord]) -> Result<(), StoreError> {
        if let Some(store) = &self.store {
            let (_, count) = self.journaled.get_or_insert_with(|| (Instant::now(), 0));
            store.enqueue(records)?;
            *count += records.len();
        }
        for record in records {
            self.state.apply(record);
        }
        Ok(())
    }

    /// When the current call first journaled and how many records it
    /// journaled, if it did; resets for the next call.
    pub(crate) fn take_journaled(&mut self) -> Option<(Instant, usize)> {
        self.journaled.take()
    }
}
