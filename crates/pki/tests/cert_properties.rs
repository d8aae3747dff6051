//! Property tests over certificate encoding and validation invariants.

use proptest::prelude::*;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_pki::cert::{Certificate, DistinguishedName, KeyUsage, TbsCertificate, Validity};

fn arb_dn() -> impl Strategy<Value = DistinguishedName> {
    (
        "[a-zA-Z0-9 ._-]{1,24}",
        "[a-zA-Z0-9 ]{0,12}",
        "[a-zA-Z0-9 ]{0,12}",
    )
        .prop_map(|(cn, org, unit)| DistinguishedName {
            common_name: cn,
            organization: org,
            unit,
        })
}

fn arb_tbs() -> impl Strategy<Value = TbsCertificate> {
    (
        any::<u64>(),
        arb_dn(),
        arb_dn(),
        any::<u64>(),
        any::<u64>(),
        any::<[u8; 32]>(),
        any::<u8>(),
        any::<bool>(),
        proptest::option::of(any::<[u8; 32]>()),
    )
        .prop_map(
            |(serial, subject, issuer, nb, na, seed, usage, is_ca, binding)| TbsCertificate {
                serial,
                subject,
                issuer,
                validity: Validity::new(nb.min(na), nb.max(na)),
                public_key: SigningKey::from_seed(&seed).public_key(),
                key_usage: KeyUsage(usage),
                is_ca,
                enclave_binding: binding,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_roundtrip(tbs in arb_tbs(), signer_seed in any::<[u8; 32]>()) {
        let signer = SigningKey::from_seed(&signer_seed);
        let cert = Certificate::sign(tbs, &signer);
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        prop_assert_eq!(&decoded, &cert);
        decoded.verify_signature(&signer.public_key()).unwrap();
    }

    #[test]
    fn any_single_byte_corruption_is_detected(
        tbs in arb_tbs(),
        signer_seed in any::<[u8; 32]>(),
        position_seed in any::<usize>(),
        flip in 1u8..=255
    ) {
        let signer = SigningKey::from_seed(&signer_seed);
        let cert = Certificate::sign(tbs, &signer);
        let mut bytes = cert.encode();
        let position = position_seed % bytes.len();
        bytes[position] ^= flip;
        // Either the structure no longer parses, or the signature fails,
        // or (for corruption inside the signature field that still parses)
        // verification fails. No corrupted certificate may verify.
        if let Ok(decoded) = Certificate::decode(&bytes) {
            prop_assert!(
                decoded.verify_signature(&signer.public_key()).is_err(),
                "corrupted certificate verified (byte {position})"
            );
        }
    }

    #[test]
    fn validity_contains_is_interval(nb in any::<u64>(), na in any::<u64>(), probe in any::<u64>()) {
        let validity = Validity::new(nb.min(na), nb.max(na));
        prop_assert_eq!(
            validity.contains(probe),
            probe >= validity.not_before && probe <= validity.not_after
        );
    }

    #[test]
    fn key_usage_union_permits_both(a in any::<u8>(), b in any::<u8>()) {
        let u = KeyUsage(a).union(KeyUsage(b));
        prop_assert!(u.permits(KeyUsage(a)));
        prop_assert!(u.permits(KeyUsage(b)));
    }
}
