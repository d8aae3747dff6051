//! Property tests over sealed-storage and measurement invariants.

use proptest::prelude::*;
use vnfguard_sgx::enclave::{EnclaveCode, EnclaveContext};
use vnfguard_sgx::measurement::{MeasurementBuilder, PagePerm};
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::seal::SealPolicy;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::SgxError;

/// Minimal enclave that seals/unseals caller data.
struct SealEcho(Vec<u8>);

impl EnclaveCode for SealEcho {
    fn image(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn on_call(
        &mut self,
        ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            1 => ctx.seal(SealPolicy::MrEnclave, b"prop", input),
            2 => ctx.unseal(input, b"prop"),
            3 => ctx.seal(SealPolicy::MrSigner, b"prop", input),
            other => Err(SgxError::BadCall(other)),
        }
    }
}

fn enclave(platform: &SgxPlatform, image: &[u8]) -> vnfguard_sgx::enclave::Enclave {
    let author = EnclaveAuthor::from_seed(&[1; 32]);
    let signed = author.sign_enclave(SgxPlatform::measure_image(image, 8192), 1, 1, false);
    platform
        .load_enclave(&signed, 8192, Box::new(SealEcho(image.to_vec())))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn seal_unseal_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let platform = SgxPlatform::new(b"prop seal");
        let e = enclave(&platform, b"seal echo v1");
        let blob = e.ecall(1, &data).unwrap();
        prop_assert_eq!(e.ecall(2, &blob).unwrap(), data);
    }

    #[test]
    fn sealed_blob_corruption_detected(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        position_seed in any::<usize>(),
        flip in 1u8..=255
    ) {
        let platform = SgxPlatform::new(b"prop corrupt");
        let e = enclave(&platform, b"seal echo v1");
        let mut blob = e.ecall(1, &data).unwrap();
        let position = position_seed % blob.len();
        blob[position] ^= flip;
        // Every single-byte corruption must fail decode or unseal — never
        // return different plaintext.
        match e.ecall(2, &blob) {
            Err(_) => {}
            Ok(plain) => prop_assert_eq!(plain, data, "corruption changed plaintext silently"),
        }
    }

    #[test]
    fn mrsigner_blobs_migrate_between_same_author_images(
        data in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let platform = SgxPlatform::new(b"prop migrate");
        let v1 = enclave(&platform, b"image v1");
        let v2 = enclave(&platform, b"image v2");
        // MRSIGNER-policy blob from v1 opens in v2 (same author & prod id).
        let blob = v1.ecall(3, &data).unwrap();
        prop_assert_eq!(v2.ecall(2, &blob).unwrap(), data.clone());
        // MRENCLAVE-policy blob does not.
        let strict = v1.ecall(1, &data).unwrap();
        prop_assert!(v2.ecall(2, &strict).is_err());
    }

    #[test]
    fn measurement_is_injective_on_content(a in proptest::collection::vec(any::<u8>(), 0..256),
                                           b in proptest::collection::vec(any::<u8>(), 0..256)) {
        let ma = SgxPlatform::measure_image(&a, 8192);
        let mb = SgxPlatform::measure_image(&b, 8192);
        prop_assert_eq!(a == b, ma == mb);
    }

    #[test]
    fn page_order_changes_measurement(
        pages in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 2..5)
    ) {
        let mut forward = MeasurementBuilder::ecreate(1 << 20);
        for (i, page) in pages.iter().enumerate() {
            forward.add_page(i * 4096, PagePerm::Rx, page);
        }
        let mut reversed = MeasurementBuilder::ecreate(1 << 20);
        for (i, page) in pages.iter().rev().enumerate() {
            reversed.add_page(i * 4096, PagePerm::Rx, page);
        }
        let same_content = pages.iter().rev().eq(pages.iter());
        prop_assert_eq!(forward.einit() == reversed.einit(), same_content);
    }
}
