//! X25519 Diffie–Hellman (RFC 7748).
//!
//! The ECDHE key exchange of the TLS channel and the SGX local-attestation
//! key agreement both run on this function.
//!
//! A shared secret runs the Montgomery ladder on the peer's u-coordinate.
//! A public key is a multiple of the fixed base point, so it reads the
//! Ed25519 fixed-base table instead and maps the Edwards point to its
//! u-coordinate; the ladder on u = 9 stays in the tests as its oracle.

use crate::ed25519::Point;
use crate::field25519::Fe;

/// Length of scalars, coordinates and shared secrets.
pub const KEY_LEN: usize = 32;

/// Clamp a 32-byte scalar per RFC 7748 §5.
pub fn clamp(scalar: &mut [u8; KEY_LEN]) {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
}

/// The X25519 function: multiply the point with u-coordinate `u` by the
/// (clamped) `scalar`, returning the resulting u-coordinate.
pub fn x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let mut k = *scalar;
    clamp(&mut k);
    let x1 = Fe::from_bytes(u);

    // Montgomery ladder, on the field's lazy `add` and `sub`: every `sub`
    // subtracts a product (a reduced element), and no multiplication
    // operand counts more than 3 against the field's bound of 7.
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        if swap != k_t {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(A24)));
    }
    if swap {
        std::mem::swap(&mut x2, &mut x3);
        std::mem::swap(&mut z2, &mut z3);
    }
    x2.mul(&z2.invert()).to_bytes()
}

/// (A − 2)/4 for Curve25519's A = 486662.
const A24: u32 = 121_665;

/// The canonical base point (u = 9).
pub fn base_point() -> [u8; KEY_LEN] {
    let mut bp = [0u8; KEY_LEN];
    bp[0] = 9;
    bp
}

/// Derive the public key for a secret scalar: X25519 of the clamped
/// scalar and u = 9, computed as `[k]B` on edwards25519 (B maps to u = 9).
/// Clamping leaves k below 2²⁵⁵, as the fixed-base table needs.
pub fn public_key(secret: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let mut k = *secret;
    clamp(&mut k);
    Point::mul_base(&k).montgomery_u()
}

/// An ephemeral X25519 key pair.
#[derive(Clone)]
pub struct EphemeralKeyPair {
    pub secret: [u8; KEY_LEN],
    pub public: [u8; KEY_LEN],
}

impl EphemeralKeyPair {
    /// Generate from caller-provided randomness.
    pub fn from_seed(seed: [u8; KEY_LEN]) -> EphemeralKeyPair {
        let mut secret = seed;
        clamp(&mut secret);
        let public = public_key(&secret);
        EphemeralKeyPair { secret, public }
    }

    /// Complete the key agreement with a peer's public key.
    pub fn agree(&self, peer_public: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
        x25519(&self.secret, peer_public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field25519::oracle::{add, sub};
    use proptest::prelude::*;

    /// The ladder on carried field operations, with a24 as a full
    /// multiplication: the lazy ladder's oracle.
    fn carried_x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
        let mut k = *scalar;
        clamp(&mut k);
        let x1 = Fe::from_bytes(u);
        let (mut x2, mut z2, mut x3, mut z3) = (Fe::ONE, Fe::ZERO, x1, Fe::ONE);
        let mut swap = false;
        let a24 = Fe::from_u64(A24 as u64);
        for t in (0..255).rev() {
            let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
            if swap != k_t {
                std::mem::swap(&mut x2, &mut x3);
                std::mem::swap(&mut z2, &mut z3);
            }
            swap = k_t;
            let a = add(&x2, &z2);
            let aa = a.square();
            let b = sub(&x2, &z2);
            let bb = b.square();
            let e = sub(&aa, &bb);
            let da = sub(&x3, &z3).mul(&a);
            let cb = add(&x3, &z3).mul(&b);
            x3 = add(&da, &cb).square();
            z3 = x1.mul(&sub(&da, &cb).square());
            x2 = aa.mul(&bb);
            z2 = e.mul(&add(&aa, &a24.mul(&e)));
        }
        if swap {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
        x2.mul(&z2.invert()).to_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ladder equals the carried ladder on any scalar and any u,
        /// canonical or not, on the curve or its twist.
        #[test]
        fn prop_ladder_matches_the_carried_ladder(
            scalar in proptest::array::uniform32(any::<u8>()),
            u in proptest::array::uniform32(any::<u8>()),
        ) {
            prop_assert_eq!(x25519(&scalar, &u), carried_x25519(&scalar, &u));
        }

        /// The fixed-base public key equals the ladder on u = 9, for any
        /// seed, clamped or not.
        #[test]
        fn prop_public_key_matches_the_ladder(seed in proptest::array::uniform32(any::<u8>())) {
            prop_assert_eq!(public_key(&seed), x25519(&seed, &base_point()));
        }
    }

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    fn to_hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            to_hex(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman test.
    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv = hex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = hex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            to_hex(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            to_hex(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&alice_priv, &bob_pub);
        let shared_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            to_hex(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn keypair_agreement_symmetry() {
        let a = EphemeralKeyPair::from_seed([1u8; 32]);
        let b = EphemeralKeyPair::from_seed([2u8; 32]);
        assert_eq!(a.agree(&b.public), b.agree(&a.public));
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn clamping_is_idempotent_and_applied() {
        let mut s = [0xffu8; 32];
        clamp(&mut s);
        let once = s;
        clamp(&mut s);
        assert_eq!(s, once);
        assert_eq!(s[0] & 7, 0);
        assert_eq!(s[31] & 0x80, 0);
        assert_eq!(s[31] & 0x40, 0x40);
        // Unclamped vs clamped scalars give the same result (x25519 clamps).
        let u = base_point();
        assert_eq!(x25519(&[0xff; 32], &u), x25519(&once, &u));
    }

    #[test]
    fn zero_point_yields_zero_shared_secret() {
        // The all-zero u-coordinate is a low-order point: output is zero.
        // Callers must reject this (the TLS layer does).
        let out = x25519(&[5u8; 32], &[0u8; 32]);
        assert_eq!(out, [0u8; 32]);
    }

    #[test]
    fn iterated_x25519_one_round() {
        // RFC 7748 §5.2: after 1 iteration of k = X25519(k, u), with
        // k = u = base point, the expected value is published.
        let mut k = base_point();
        let mut u = base_point();
        let result = x25519(&k, &u);
        u = k;
        k = result;
        let _ = (k, u);
        assert_eq!(
            to_hex(&result),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }
}
