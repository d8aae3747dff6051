//! Enclave measurement (MRENCLAVE) computation.
//!
//! Real SGX builds MRENCLAVE by hashing a log of `ECREATE`, `EADD` and
//! `EEXTEND` operations. The model reproduces that chaining: the
//! measurement is a running SHA-256 over tagged operation records, so it
//! depends on the enclave's size, every added page's content and
//! permissions, and the order of operations — any single-byte change to the
//! enclave code changes the measurement.

use vnfguard_crypto::sha2::Sha256;

/// Page size used for measurement accounting.
pub const PAGE_SIZE: usize = 4096;

/// Page permissions (subset of SECINFO flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePerm {
    /// Read-only data.
    R,
    /// Read-write data.
    Rw,
    /// Read-execute code.
    Rx,
}

impl PagePerm {
    fn tag(self) -> u8 {
        match self {
            PagePerm::R => 1,
            PagePerm::Rw => 2,
            PagePerm::Rx => 3,
        }
    }
}

/// A 256-bit enclave (or signer) measurement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Measurement({}…)", &self.to_hex()[..16])
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental MRENCLAVE builder mirroring the ECREATE/EADD/EEXTEND log.
pub struct MeasurementBuilder {
    hasher: Sha256,
    pages: usize,
}

impl MeasurementBuilder {
    /// ECREATE: start a measurement for an enclave of `size_bytes`.
    pub fn ecreate(size_bytes: usize) -> MeasurementBuilder {
        let mut hasher = Sha256::new();
        hasher.update(b"ECREATE");
        hasher.update(&(size_bytes as u64).to_le_bytes());
        MeasurementBuilder { hasher, pages: 0 }
    }

    /// EADD + EEXTEND: measure one page of content with its permissions.
    /// Content shorter than a page is zero-padded, as a loader would.
    pub fn add_page(&mut self, offset: usize, perm: PagePerm, content: &[u8]) -> &mut Self {
        assert!(
            content.len() <= PAGE_SIZE,
            "page content exceeds {PAGE_SIZE} bytes"
        );
        self.hasher.update(b"EADD");
        self.hasher.update(&(offset as u64).to_le_bytes());
        self.hasher.update(&[perm.tag()]);
        let mut page = [0u8; PAGE_SIZE];
        page[..content.len()].copy_from_slice(content);
        self.hasher.update(b"EEXTEND");
        self.hasher.update(&page);
        self.pages += 1;
        self
    }

    /// Measure a byte blob as consecutive pages starting at `base_offset`.
    pub fn add_blob(&mut self, base_offset: usize, perm: PagePerm, blob: &[u8]) -> &mut Self {
        if blob.is_empty() {
            self.add_page(base_offset, perm, &[]);
            return self;
        }
        for (i, chunk) in blob.chunks(PAGE_SIZE).enumerate() {
            self.add_page(base_offset + i * PAGE_SIZE, perm, chunk);
        }
        self
    }

    /// Number of pages measured so far.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// EINIT: finalize the measurement.
    pub fn einit(self) -> Measurement {
        let mut hasher = self.hasher;
        hasher.update(b"EINIT");
        Measurement(hasher.finalize())
    }
}

/// Compute the MRSIGNER value for an author public key (SGX defines it as
/// the hash of the signer's key modulus; here, of the Ed25519 public key).
pub fn mrsigner(author_public_key: &[u8; 32]) -> Measurement {
    let mut hasher = Sha256::new();
    hasher.update(b"MRSIGNER");
    hasher.update(author_public_key);
    Measurement(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(code: &[u8], data: &[u8]) -> Measurement {
        let mut b = MeasurementBuilder::ecreate(1 << 20);
        b.add_blob(0, PagePerm::Rx, code);
        b.add_blob(1 << 19, PagePerm::Rw, data);
        b.einit()
    }

    #[test]
    fn deterministic() {
        assert_eq!(measure(b"code", b"data"), measure(b"code", b"data"));
    }

    #[test]
    fn content_sensitivity() {
        let base = measure(b"code", b"data");
        assert_ne!(measure(b"c0de", b"data"), base, "code byte flip");
        assert_ne!(measure(b"code", b"dat4"), base, "data byte flip");
    }

    #[test]
    fn size_sensitivity() {
        let a = MeasurementBuilder::ecreate(1 << 20).einit();
        let b = MeasurementBuilder::ecreate(1 << 21).einit();
        assert_ne!(a, b);
    }

    #[test]
    fn permission_sensitivity() {
        let mut a = MeasurementBuilder::ecreate(4096);
        a.add_page(0, PagePerm::Rx, b"x");
        let mut b = MeasurementBuilder::ecreate(4096);
        b.add_page(0, PagePerm::Rw, b"x");
        assert_ne!(a.einit(), b.einit());
    }

    #[test]
    fn offset_sensitivity() {
        let mut a = MeasurementBuilder::ecreate(8192);
        a.add_page(0, PagePerm::R, b"x");
        let mut b = MeasurementBuilder::ecreate(8192);
        b.add_page(4096, PagePerm::R, b"x");
        assert_ne!(a.einit(), b.einit());
    }

    #[test]
    fn order_sensitivity() {
        let mut a = MeasurementBuilder::ecreate(8192);
        a.add_page(0, PagePerm::R, b"x")
            .add_page(4096, PagePerm::R, b"y");
        let mut b = MeasurementBuilder::ecreate(8192);
        b.add_page(4096, PagePerm::R, b"y")
            .add_page(0, PagePerm::R, b"x");
        assert_ne!(a.einit(), b.einit());
    }

    #[test]
    fn padding_is_explicit() {
        // A short page and the same content explicitly zero-padded measure
        // identically (loader semantics).
        let mut a = MeasurementBuilder::ecreate(4096);
        a.add_page(0, PagePerm::R, b"abc");
        let mut padded = [0u8; PAGE_SIZE];
        padded[..3].copy_from_slice(b"abc");
        let mut b = MeasurementBuilder::ecreate(4096);
        b.add_page(0, PagePerm::R, &padded);
        assert_eq!(a.einit(), b.einit());
    }

    #[test]
    fn blob_pagination() {
        let blob = vec![7u8; PAGE_SIZE * 2 + 100];
        let mut b = MeasurementBuilder::ecreate(1 << 20);
        b.add_blob(0, PagePerm::Rx, &blob);
        assert_eq!(b.page_count(), 3);
        // Empty blob still contributes one (zero) page.
        let mut e = MeasurementBuilder::ecreate(1 << 20);
        e.add_blob(0, PagePerm::Rw, &[]);
        assert_eq!(e.page_count(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_page_panics() {
        let mut b = MeasurementBuilder::ecreate(4096);
        b.add_page(0, PagePerm::R, &vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn mrsigner_distinct_per_key() {
        assert_ne!(mrsigner(&[1; 32]), mrsigner(&[2; 32]));
        assert_eq!(mrsigner(&[1; 32]), mrsigner(&[1; 32]));
    }

    #[test]
    fn display_and_debug() {
        let m = measure(b"c", b"d");
        assert_eq!(m.to_hex().len(), 64);
        assert!(format!("{m:?}").starts_with("Measurement("));
    }
}
