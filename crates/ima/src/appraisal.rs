//! Appraisal of measurement lists against reference values.
//!
//! This is the Verification Manager's side of host integrity: it holds a
//! database of known-good file digests and "appraises the trustworthiness
//! of the container host based on the obtained quote" (paper §2).

use crate::list::{ImaEntry, MeasurementList};
use std::collections::{BTreeMap, BTreeSet};

/// The appraisal verdict for a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every entry matches a known-good reference.
    Trusted,
    /// At least one measured file has an unexpected digest.
    Mismatch,
    /// The list contains entries for files outside the reference database.
    UnknownComponents,
    /// The list records measurement violations (files changed while open).
    Violations,
    /// The list's internal hash chain is inconsistent (tampering).
    InconsistentList,
}

impl Verdict {
    /// Only `Trusted` hosts may proceed in the enrollment workflow.
    pub fn is_trusted(self) -> bool {
        self == Verdict::Trusted
    }
}

/// Detailed appraisal output.
#[derive(Debug, Clone)]
pub struct AppraisalResult {
    pub verdict: Verdict,
    /// Paths whose digest did not match any reference value.
    pub mismatched: Vec<String>,
    /// Paths not present in the reference database.
    pub unknown: Vec<String>,
    /// Paths with recorded violations.
    pub violations: Vec<String>,
    /// Total entries appraised.
    pub entries: usize,
}

/// Policy knobs for appraisal.
#[derive(Debug, Clone, Default)]
pub struct AppraisalPolicy {
    /// Whether files absent from the reference database are acceptable
    /// (lenient mode for hosts running unrelated software).
    pub allow_unknown: bool,
}

/// Known-good digests per path. Multiple digests per path support
/// co-existing versions during rollout.
#[derive(Debug, Clone, Default)]
pub struct ReferenceDatabase {
    good: BTreeMap<String, BTreeSet<[u8; 32]>>,
}

impl ReferenceDatabase {
    pub fn new() -> ReferenceDatabase {
        ReferenceDatabase::default()
    }

    /// Record `digest` as a known-good value for `path`.
    pub fn allow(&mut self, path: &str, digest: [u8; 32]) -> &mut Self {
        self.good
            .entry(path.to_string())
            .or_default()
            .insert(digest);
        self
    }

    /// Record a file's content as known-good.
    pub fn allow_content(&mut self, path: &str, content: &[u8]) -> &mut Self {
        self.allow(path, vnfguard_crypto::sha2::sha256(content))
    }

    /// Remove all allowed digests for a path (e.g. a recalled release).
    pub fn forbid(&mut self, path: &str) -> &mut Self {
        self.good.remove(path);
        self
    }

    pub fn len(&self) -> usize {
        self.good.len()
    }

    pub fn is_empty(&self) -> bool {
        self.good.is_empty()
    }

    fn check(&self, entry: &ImaEntry) -> EntryStatus {
        match self.good.get(&entry.path) {
            None => EntryStatus::Unknown,
            Some(digests) if digests.contains(&entry.filedata_hash) => EntryStatus::Good,
            Some(_) => EntryStatus::Mismatch,
        }
    }

    /// Appraise a full measurement list.
    pub fn appraise(&self, list: &MeasurementList, policy: &AppraisalPolicy) -> AppraisalResult {
        if !list.verify_consistency() {
            return AppraisalResult {
                verdict: Verdict::InconsistentList,
                mismatched: Vec::new(),
                unknown: Vec::new(),
                violations: Vec::new(),
                entries: list.len(),
            };
        }
        let mut mismatched = Vec::new();
        let mut unknown = Vec::new();
        let mut violations = Vec::new();
        for entry in list.entries() {
            if entry.path == "boot_aggregate" {
                continue; // appraised separately via the TPM extension
            }
            if entry.is_violation() {
                violations.push(entry.path.clone());
                continue;
            }
            match self.check(entry) {
                EntryStatus::Good => {}
                EntryStatus::Mismatch => mismatched.push(entry.path.clone()),
                EntryStatus::Unknown => unknown.push(entry.path.clone()),
            }
        }
        let verdict = if !violations.is_empty() {
            Verdict::Violations
        } else if !mismatched.is_empty() {
            Verdict::Mismatch
        } else if !unknown.is_empty() && !policy.allow_unknown {
            Verdict::UnknownComponents
        } else {
            Verdict::Trusted
        };
        AppraisalResult {
            verdict,
            mismatched,
            unknown,
            violations,
            entries: list.len(),
        }
    }
}

enum EntryStatus {
    Good,
    Mismatch,
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::MeasurementList;

    fn reference() -> ReferenceDatabase {
        let mut db = ReferenceDatabase::new();
        db.allow_content("/usr/bin/dockerd", b"dockerd v1.12.2");
        db.allow_content("/usr/bin/vnf", b"vnf v1");
        db
    }

    fn clean_list() -> MeasurementList {
        let mut list = MeasurementList::new(b"boot");
        list.measure_file("/usr/bin/dockerd", b"dockerd v1.12.2");
        list.measure_file("/usr/bin/vnf", b"vnf v1");
        list
    }

    #[test]
    fn clean_host_is_trusted() {
        let result = reference().appraise(&clean_list(), &AppraisalPolicy::default());
        assert_eq!(result.verdict, Verdict::Trusted);
        assert!(result.verdict.is_trusted());
        assert_eq!(result.entries, 3);
    }

    #[test]
    fn tampered_binary_detected() {
        let mut list = MeasurementList::new(b"boot");
        list.measure_file("/usr/bin/dockerd", b"dockerd v1.12.2");
        list.measure_file("/usr/bin/vnf", b"vnf v1 WITH BACKDOOR");
        let result = reference().appraise(&list, &AppraisalPolicy::default());
        assert_eq!(result.verdict, Verdict::Mismatch);
        assert_eq!(result.mismatched, vec!["/usr/bin/vnf".to_string()]);
    }

    #[test]
    fn unknown_component_policy() {
        let mut list = clean_list();
        list.measure_file("/usr/bin/cryptominer", b"???");
        let strict = reference().appraise(&list, &AppraisalPolicy::default());
        assert_eq!(strict.verdict, Verdict::UnknownComponents);
        assert_eq!(strict.unknown, vec!["/usr/bin/cryptominer".to_string()]);
        let lenient = reference().appraise(
            &list,
            &AppraisalPolicy {
                allow_unknown: true,
            },
        );
        assert_eq!(lenient.verdict, Verdict::Trusted);
    }

    #[test]
    fn violations_dominate() {
        let mut list = clean_list();
        list.record_violation("/usr/bin/vnf");
        let result = reference().appraise(
            &list,
            &AppraisalPolicy {
                allow_unknown: true,
            },
        );
        assert_eq!(result.verdict, Verdict::Violations);
        assert_eq!(result.violations, vec!["/usr/bin/vnf".to_string()]);
    }

    #[test]
    fn inconsistent_list_detected_before_content() {
        let list = clean_list();
        let mut bytes = list.encode();
        // Corrupt one byte of a recorded digest region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        if let Ok(corrupted) = MeasurementList::decode(&bytes) {
            // Decoding recomputes the aggregate, so verify_consistency can
            // only fail via the per-entry template hash check.
            let result = reference().appraise(&corrupted, &AppraisalPolicy::default());
            assert_ne!(result.verdict, Verdict::Trusted);
        }
    }

    #[test]
    fn multiple_versions_allowed() {
        let mut db = reference();
        db.allow_content("/usr/bin/vnf", b"vnf v2");
        let mut list = MeasurementList::new(b"boot");
        list.measure_file("/usr/bin/dockerd", b"dockerd v1.12.2");
        list.measure_file("/usr/bin/vnf", b"vnf v2");
        assert_eq!(
            db.appraise(&list, &AppraisalPolicy::default()).verdict,
            Verdict::Trusted
        );
    }

    #[test]
    fn forbid_removes_trust() {
        let mut db = reference();
        db.forbid("/usr/bin/vnf");
        let result = db.appraise(&clean_list(), &AppraisalPolicy::default());
        assert_eq!(result.verdict, Verdict::UnknownComponents);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn reexecution_of_upgraded_binary() {
        // v1 then v2 measured: only trusted if both digests are referenced.
        let mut list = clean_list();
        list.measure_file("/usr/bin/vnf", b"vnf v2");
        let mut db = reference();
        assert_eq!(
            db.appraise(&list, &AppraisalPolicy::default()).verdict,
            Verdict::Mismatch
        );
        db.allow_content("/usr/bin/vnf", b"vnf v2");
        assert_eq!(
            db.appraise(&list, &AppraisalPolicy::default()).verdict,
            Verdict::Trusted
        );
    }
}
