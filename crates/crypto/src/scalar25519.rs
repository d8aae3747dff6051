//! Arithmetic modulo the Ed25519 group order
//! L = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! Scalars are 32 little-endian bytes at the API and four `u64` limbs
//! inside. A wide value — a 64-byte hash, or a·b + c — is reduced with
//! Barrett's method in base 2⁶⁴ (Handbook of Applied Cryptography, 14.42):
//! one 5×5-limb product with μ = ⌊2⁵¹²/L⌋, one truncated 5×4-limb product
//! with L and one final conditional subtraction. The tests check every
//! result against the [`crate::mpint`] reference.

/// L as little-endian limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// Barrett's constant μ = ⌊2⁵¹² / L⌋ (pinned against `MpInt` in the tests).
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0xf,
];

fn load<const N: usize>(bytes: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8")))
}

fn store(limbs: &[u64]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// `out = a·b mod 2^(64·out.len())`, schoolbook.
fn mul_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate().take(out.len().saturating_sub(i)) {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        if let Some(top) = out.get_mut(i + b.len()) {
            *top = carry as u64;
        }
    }
}

/// `r -= b` over `r.len()` limbs (missing limbs of `b` are zero); returns
/// the final borrow, i.e. whether `r < b`.
fn sub_assign(r: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (i, limb) in r.iter_mut().enumerate() {
        let (d1, o1) = limb.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d2, o2) = d1.overflowing_sub(borrow as u64);
        *limb = d2;
        borrow = o1 | o2;
    }
    borrow
}

/// x mod L for any x < 2⁵¹².
fn barrett(x: &[u64; 8]) -> [u8; 32] {
    // q = ⌊⌊x / 2¹⁹²⌋·μ / 2³²⁰⌋ falls short of ⌊x / L⌋ by less than
    // 1 + frac(2⁵¹²/L) + 2¹⁹²/L, and frac(2⁵¹²/L) ≈ 0.22 (pinned in the
    // tests), so by at most 1: Barrett's general bound of 2 does not arise.
    let mut q1_mu = [0u64; 10];
    mul_into(&x[3..], &MU, &mut q1_mu);
    // r = (x − q·L) mod 2³²⁰, which lies in [0, 2L).
    let mut ql = [0u64; 5];
    mul_into(&q1_mu[5..], &L, &mut ql);
    let mut r: [u64; 5] = x[..5].try_into().expect("5 limbs");
    sub_assign(&mut r, &ql);
    let mut t = r;
    if !sub_assign(&mut t, &L) {
        r = t;
    }
    store(&r[..4])
}

/// Reduce a 64-byte little-endian value (a SHA-512 output) modulo L.
pub(crate) fn reduce_wide(bytes: &[u8; 64]) -> [u8; 32] {
    barrett(&load(bytes))
}

/// (a·b + c) mod L over little-endian 32-byte scalars (any 256-bit values).
pub(crate) fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let mut wide = [0u64; 8];
    mul_into(&load::<4>(a), &load::<4>(b), &mut wide);
    // a·b + c < (2²⁵⁶ − 1)² + 2²⁵⁶ < 2⁵¹², so the carry never leaves `wide`.
    let c = load::<4>(c);
    let mut carry = 0u128;
    for (i, limb) in wide.iter_mut().enumerate() {
        let t = *limb as u128 + c.get(i).copied().unwrap_or(0) as u128 + carry;
        *limb = t as u64;
        carry = t >> 64;
    }
    barrett(&wide)
}

/// Whether a 32-byte little-endian scalar is below L.
pub(crate) fn is_canonical(s: &[u8; 32]) -> bool {
    sub_assign(&mut load::<4>(s), &L)
}

/// `MpInt` scalar arithmetic: the differential oracle of the fixed-width
/// code, and the Ed25519 tests' source of L.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::mpint::MpInt;

    /// L = 2²⁵² + 27742317777372353535851937790883648493.
    pub fn order() -> MpInt {
        MpInt::from_u64(1).shl(252).add(&MpInt::from_be_bytes(&[
            0x14, 0xde, 0xf9, 0xde, 0xa2, 0xf7, 0x9c, 0xd6, 0x58, 0x12, 0x63, 0x1a, 0x5c, 0xf5,
            0xd3, 0xed,
        ]))
    }

    pub fn reduce_wide(bytes: &[u8; 64]) -> [u8; 32] {
        MpInt::from_le_bytes(bytes)
            .rem(&order())
            .to_le_bytes(32)
            .try_into()
            .expect("32 bytes")
    }

    pub fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
        MpInt::from_le_bytes(a)
            .mul(&MpInt::from_le_bytes(b))
            .add(&MpInt::from_le_bytes(c))
            .rem(&order())
            .to_le_bytes(32)
            .try_into()
            .expect("32 bytes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpint::MpInt;
    use proptest::prelude::*;

    fn wide_bytes(n: &MpInt) -> [u8; 64] {
        n.to_le_bytes(64).try_into().unwrap()
    }

    fn narrow_bytes(n: &MpInt) -> [u8; 32] {
        n.to_le_bytes(32).try_into().unwrap()
    }

    #[test]
    fn constants_match_reference() {
        let order = oracle::order();
        assert_eq!(store(&L), narrow_bytes(&order));
        let two_512 = MpInt::from_u64(1).shl(512);
        let mu = two_512.div_rem(&order).0;
        let mut mu_bytes = [0u8; 40];
        for (chunk, limb) in mu_bytes.chunks_exact_mut(8).zip(MU) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(mu.to_le_bytes(40), mu_bytes);
    }

    #[test]
    fn barrett_quotient_is_at_most_one_short() {
        // The single correction in `barrett` relies on
        // frac(2^512 / L) < 1 − 2^-60, i.e. (2^512 mod L)·2^60 < (2^60 − 1)·L.
        let order = oracle::order();
        let rem = MpInt::from_u64(1).shl(512).rem(&order);
        let bound = order.shl(60).sub(&order);
        assert_eq!(rem.shl(60).cmp_to(&bound), std::cmp::Ordering::Less);
    }

    #[test]
    fn reduce_wide_edges_match_reference() {
        let order = oracle::order();
        let one = MpInt::from_u64(1);
        let max = MpInt::from_u64(1).shl(512).sub(&one);
        let edges = [
            MpInt::zero(),
            order.sub(&one),
            order.clone(),
            order.add(&one),
            order.add(&order),
            order.add(&order).sub(&one),
            order.mul(&order),
            MpInt::from_u64(1).shl(256).sub(&one),
            max.sub(&max.rem(&order)), // the largest multiple of L
            max,
        ];
        for n in &edges {
            let bytes = wide_bytes(n);
            assert_eq!(reduce_wide(&bytes), oracle::reduce_wide(&bytes), "{n:?}");
        }
    }

    #[test]
    fn mul_add_edges_match_reference() {
        let order = oracle::order();
        let one = MpInt::from_u64(1);
        let values = [
            narrow_bytes(&MpInt::zero()),
            narrow_bytes(&one),
            narrow_bytes(&order.sub(&one)),
            narrow_bytes(&order),
            narrow_bytes(&order.add(&order)),
            [0xff; 32],
        ];
        for a in &values {
            for b in &values {
                for c in &values {
                    assert_eq!(mul_add(a, b, c), oracle::mul_add(a, b, c));
                }
            }
        }
    }

    #[test]
    fn canonical_means_below_order() {
        let order = oracle::order();
        let one = MpInt::from_u64(1);
        assert!(is_canonical(&[0; 32]));
        assert!(is_canonical(&narrow_bytes(&order.sub(&one))));
        assert!(!is_canonical(&narrow_bytes(&order)));
        assert!(!is_canonical(&narrow_bytes(&order.add(&one))));
        assert!(!is_canonical(&[0xff; 32]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_reduce_wide_matches_reference(bytes in any::<[u8; 64]>()) {
            prop_assert_eq!(reduce_wide(&bytes), oracle::reduce_wide(&bytes));
        }

        #[test]
        fn prop_reduce_wide_near_multiples_of_order(k in any::<[u8; 32]>(), delta in 0u64..4) {
            // k·L and its neighbours: the cases where Barrett's quotient
            // estimate is tightest.
            let n = MpInt::from_le_bytes(&k).mul(&oracle::order());
            let d = MpInt::from_u64(delta);
            let mut cases = vec![n.add(&d)];
            if n.cmp_to(&d) != std::cmp::Ordering::Less {
                cases.push(n.sub(&d));
            }
            for m in &cases {
                let bytes = wide_bytes(m);
                prop_assert_eq!(reduce_wide(&bytes), oracle::reduce_wide(&bytes));
            }
        }

        #[test]
        fn prop_mul_add_matches_reference(
            a in any::<[u8; 32]>(),
            b in any::<[u8; 32]>(),
            c in any::<[u8; 32]>(),
        ) {
            prop_assert_eq!(mul_add(&a, &b, &c), oracle::mul_add(&a, &b, &c));
        }

        #[test]
        fn prop_is_canonical_matches_reference(s in any::<[u8; 32]>(), top in 0u8..0x20) {
            // Clear the top bits so both sides of L turn up.
            let mut s = s;
            s[31] = top;
            let below = MpInt::from_le_bytes(&s).cmp_to(&oracle::order()) == std::cmp::Ordering::Less;
            prop_assert_eq!(is_canonical(&s), below);
        }
    }
}
