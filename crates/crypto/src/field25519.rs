//! Arithmetic in GF(2²⁵⁵ − 19), the base field of Curve25519 / edwards25519.
//!
//! Elements are held in radix-2⁵¹ with five `u64` limbs (the classic
//! "donna" representation): products fit in `u128` and carries are cheap.
//! Squaring has its own formula (15 limb products instead of 25), inversion
//! and the square-root exponent use the standard 254-squaring addition
//! chain, and √−1 is computed once. The test module cross-checks every
//! operation against the slow-but-obvious [`crate::mpint`] reference, and
//! `square`/`invert`/`pow_p58` against `mul` and the generic [`Fe::pow`],
//! with property tests, so the limb tricks cannot silently diverge from the
//! mathematics.

use crate::mpint::MpInt;
use std::sync::OnceLock;

const MASK: u64 = (1 << 51) - 1;
/// 2p in radix-2⁵¹, used as a bias so subtraction never underflows.
const TWO_P: [u64; 5] = [
    0x000f_ffff_ffff_ffda,
    0x000f_ffff_ffff_fffe,
    0x000f_ffff_ffff_fffe,
    0x000f_ffff_ffff_fffe,
    0x000f_ffff_ffff_fffe,
];

/// A field element of GF(2²⁵⁵ − 19).
#[derive(Debug, Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

// Equality must compare the *value*, not the limb representation: the same
// element can be held with different (still reduced-enough) limb splits.
impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}
impl Eq for Fe {}

impl Fe {
    pub const ZERO: Fe = Fe([0; 5]);
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Build from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        let mut fe = Fe([v & MASK, v >> 51, 0, 0, 0]);
        fe.carry();
        fe
    }

    /// Load 32 little-endian bytes; bit 255 is ignored (per the curve25519
    /// convention). Non-canonical values (≥ p) are accepted and reduced.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |range: std::ops::Range<usize>| -> u64 {
            let mut limb = 0u64;
            for (i, &b) in bytes[range].iter().enumerate() {
                limb |= (b as u64) << (8 * i);
            }
            limb
        };
        let f0 = load(0..7) & MASK; // bits 0..51 (needs 51 of 56 bits)
        let f1 = (load(6..13) >> 3) & MASK; // bits 51..102
        let f2 = (load(12..20) >> 6) & MASK; // bits 102..153
        let f3 = (load(19..26) >> 1) & MASK; // bits 153..204
        let f4 = (load(25..32) >> 4) & MASK & ((1 << 51) - 1); // bits 204..255
        Fe([f0, f1, f2, f3, f4])
    }

    /// Serialize to the canonical (fully reduced) 32-byte little-endian form.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut t = *self;
        t.carry();
        t.carry();
        // Determine whether t >= p by propagating the carry of t + 19.
        let mut q = (t.0[0].wrapping_add(19)) >> 51;
        q = (t.0[1].wrapping_add(q)) >> 51;
        q = (t.0[2].wrapping_add(q)) >> 51;
        q = (t.0[3].wrapping_add(q)) >> 51;
        q = (t.0[4].wrapping_add(q)) >> 51;
        // Add 19·q then drop bit 255, i.e. subtract q·p.
        t.0[0] += 19 * q;
        t.0[1] += t.0[0] >> 51;
        t.0[0] &= MASK;
        t.0[2] += t.0[1] >> 51;
        t.0[1] &= MASK;
        t.0[3] += t.0[2] >> 51;
        t.0[2] &= MASK;
        t.0[4] += t.0[3] >> 51;
        t.0[3] &= MASK;
        t.0[4] &= MASK;

        let mut out = [0u8; 32];
        let limbs = t.0;
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0;
        for &limb in &limbs {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        out
    }

    fn carry(&mut self) {
        let f = &mut self.0;
        for i in 0..4 {
            let c = f[i] >> 51;
            f[i] &= MASK;
            f[i + 1] += c;
        }
        let c = f[4] >> 51;
        f[4] &= MASK;
        f[0] += 19 * c;
        let c = f[0] >> 51;
        f[0] &= MASK;
        f[1] += c;
    }

    pub fn add(&self, other: &Fe) -> Fe {
        let mut r = Fe([
            self.0[0] + other.0[0],
            self.0[1] + other.0[1],
            self.0[2] + other.0[2],
            self.0[3] + other.0[3],
            self.0[4] + other.0[4],
        ]);
        r.carry();
        r
    }

    pub fn sub(&self, other: &Fe) -> Fe {
        let mut r = Fe([
            self.0[0] + TWO_P[0] - other.0[0],
            self.0[1] + TWO_P[1] - other.0[1],
            self.0[2] + TWO_P[2] - other.0[2],
            self.0[3] + TWO_P[3] - other.0[3],
            self.0[4] + TWO_P[4] - other.0[4],
        ]);
        r.carry();
        r
    }

    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    pub fn mul(&self, other: &Fe) -> Fe {
        let a = &self.0;
        let b = &other.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let r0 = m(a[0], b[0])
            + 19 * (m(a[1], b[4]) + m(a[2], b[3]) + m(a[3], b[2]) + m(a[4], b[1]));
        let r1 = m(a[0], b[1])
            + m(a[1], b[0])
            + 19 * (m(a[2], b[4]) + m(a[3], b[3]) + m(a[4], b[2]));
        let r2 = m(a[0], b[2])
            + m(a[1], b[1])
            + m(a[2], b[0])
            + 19 * (m(a[3], b[4]) + m(a[4], b[3]));
        let r3 =
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + 19 * m(a[4], b[4]);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Carry 128-bit limb accumulators down to 51-bit limbs.
    fn carry_wide([r0, r1, r2, r3, r4]: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut c: u128;
        c = r0 >> 51;
        out[0] = (r0 as u64) & MASK;
        let r1 = r1 + c;
        c = r1 >> 51;
        out[1] = (r1 as u64) & MASK;
        let r2 = r2 + c;
        c = r2 >> 51;
        out[2] = (r2 as u64) & MASK;
        let r3 = r3 + c;
        c = r3 >> 51;
        out[3] = (r3 as u64) & MASK;
        let r4 = r4 + c;
        c = r4 >> 51;
        out[4] = (r4 as u64) & MASK;
        out[0] += 19 * c as u64;
        let c2 = out[0] >> 51;
        out[0] &= MASK;
        out[1] += c2;
        Fe(out)
    }

    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (a0_2, a1_2) = (2 * a[0], 2 * a[1]);
        let (a1_38, a2_38, a3_38) = (38 * a[1], 38 * a[2], 38 * a[3]);
        let (a3_19, a4_19) = (19 * a[3], 19 * a[4]);
        let r0 = m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]);
        let r1 = m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]);
        let r2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]);
        let r3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]);
        let r4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// k repeated squarings, a^(2^k).
    fn pow2k(&self, k: u32) -> Fe {
        let mut r = *self;
        for _ in 0..k {
            r = r.square();
        }
        r
    }

    /// Exponentiation by a little-endian byte exponent (not constant-time;
    /// see the crate documentation for the simulation threat model).
    pub fn pow(&self, exponent_le: &[u8]) -> Fe {
        let mut result = Fe::ONE;
        for i in (0..exponent_le.len() * 8).rev() {
            result = result.square();
            if (exponent_le[i / 8] >> (i % 8)) & 1 == 1 {
                result = result.mul(self);
            }
        }
        result
    }

    /// a^(2^250 − 1) and a^11, the shared prefix of the `invert` and
    /// `pow_p58` addition chains (254 squarings and 11 multiplications in
    /// total for either).
    fn pow22501(&self) -> (Fe, Fe) {
        let t2 = self.square(); // 2
        let t9 = t2.pow2k(2).mul(self); // 9
        let t11 = t9.mul(&t2); // 11
        let t_5_0 = t11.square().mul(&t9); // 2^5 − 1
        let t_10_0 = t_5_0.pow2k(5).mul(&t_5_0); // 2^10 − 1
        let t_20_0 = t_10_0.pow2k(10).mul(&t_10_0); // 2^20 − 1
        let t_40_0 = t_20_0.pow2k(20).mul(&t_20_0); // 2^40 − 1
        let t_50_0 = t_40_0.pow2k(10).mul(&t_10_0); // 2^50 − 1
        let t_100_0 = t_50_0.pow2k(50).mul(&t_50_0); // 2^100 − 1
        let t_200_0 = t_100_0.pow2k(100).mul(&t_100_0); // 2^200 − 1
        let t_250_0 = t_200_0.pow2k(50).mul(&t_50_0); // 2^250 − 1
        (t_250_0, t11)
    }

    /// Multiplicative inverse via Fermat: a^(p−2) = a^(2^255 − 21). Inverse
    /// of zero is zero.
    pub fn invert(&self) -> Fe {
        let (t_250_0, t11) = self.pow22501();
        t_250_0.pow2k(5).mul(&t11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3), the core of the square-root-of-ratio
    /// computation.
    pub fn pow_p58(&self) -> Fe {
        let (t_250_0, _) = self.pow22501();
        t_250_0.pow2k(2).mul(self)
    }

    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Parity of the canonical representation (bit 0), used as the x-coordinate
    /// sign in point compression.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// √−1 mod p (one of the two roots), computed on first use.
    pub fn sqrt_m1() -> Fe {
        static SQRT_M1: OnceLock<Fe> = OnceLock::new();
        *SQRT_M1.get_or_init(|| {
            // 2^((p-1)/4): (p-1)/4 = (2^255 - 20)/4 = 2^253 - 5,
            // little-endian bytes: fb ff .. ff 1f
            let mut exp = [0xffu8; 32];
            exp[0] = 0xfb;
            exp[31] = 0x1f;
            Fe::from_u64(2).pow(&exp)
        })
    }

    /// Compute √(u/v) if it exists.
    ///
    /// Returns `Some(r)` with `v·r² = u`, choosing the non-negative root.
    pub fn sqrt_ratio(u: &Fe, v: &Fe) -> Option<Fe> {
        // Candidate root r = u·v³·(u·v⁷)^((p−5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());
        let r = if check == *u {
            r
        } else if check == u.neg() {
            r.mul(&Fe::sqrt_m1())
        } else {
            return None;
        };
        // Normalize to the non-negative root.
        if r.is_negative() {
            Some(r.neg())
        } else {
            Some(r)
        }
    }

    /// Convert to the reference bignum representation (tests, encoding).
    pub fn to_mpint(&self) -> MpInt {
        MpInt::from_le_bytes(&self.to_bytes())
    }
}

/// The field prime p = 2²⁵⁵ − 19 as a bignum (for tests and scalar code).
pub fn prime() -> MpInt {
    MpInt::from_u64(1).shl(255).sub(&MpInt::from_u64(19))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe_from_mpint(n: &MpInt) -> Fe {
        let reduced = n.rem(&prime());
        let bytes: [u8; 32] = reduced.to_le_bytes(32).try_into().unwrap();
        Fe::from_bytes(&bytes)
    }

    fn random_fe_strategy() -> impl Strategy<Value = [u8; 32]> {
        proptest::array::uniform32(any::<u8>())
    }

    // Generic-`pow` exponentiations: the differential oracle of the
    // addition chains.
    fn invert_by_pow(a: &Fe) -> Fe {
        // p - 2 = 2^255 - 21, little-endian bytes: eb ff .. ff 7f
        let mut exp = [0xffu8; 32];
        exp[0] = 0xeb;
        exp[31] = 0x7f;
        a.pow(&exp)
    }

    fn pow_p58_by_pow(a: &Fe) -> Fe {
        // (p - 5) / 8 = 2^252 - 3, little-endian bytes: fd ff .. ff 0f
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfd;
        exp[31] = 0x0f;
        a.pow(&exp)
    }

    /// Field elements at the edges of the limb representation: 0, 1, p − 1,
    /// the non-canonical p and 2^255 − 1, and all-ones limbs.
    fn edge_elements() -> Vec<Fe> {
        let mut out = vec![Fe::ZERO, Fe::ONE, Fe::ONE.neg(), Fe([MASK; 5])];
        let p: [u8; 32] = prime().to_le_bytes(32).try_into().unwrap();
        out.push(Fe::from_bytes(&p));
        out.push(Fe::from_bytes(&[0xff; 32]));
        out
    }

    #[test]
    fn fast_paths_match_oracle_on_edges() {
        for a in edge_elements() {
            assert_eq!(a.square().to_bytes(), a.mul(&a).to_bytes());
            assert_eq!(a.invert().to_bytes(), invert_by_pow(&a).to_bytes());
            assert_eq!(a.pow_p58().to_bytes(), pow_p58_by_pow(&a).to_bytes());
        }
    }

    #[test]
    fn zero_one_roundtrip() {
        assert_eq!(Fe::ZERO.to_bytes(), [0u8; 32]);
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(Fe::ONE.to_bytes(), one);
        assert_eq!(Fe::from_bytes(&one), Fe::ONE);
    }

    #[test]
    fn canonicalizes_p_to_zero() {
        // p itself must encode as zero.
        let p_bytes: [u8; 32] = prime().to_le_bytes(32).try_into().unwrap();
        assert_eq!(Fe::from_bytes(&p_bytes).to_bytes(), [0u8; 32]);
        // p + 1 encodes as one.
        let p1: [u8; 32] = prime()
            .add(&MpInt::from_u64(1))
            .to_le_bytes(32)
            .try_into()
            .unwrap();
        assert_eq!(Fe::from_bytes(&p1), Fe::ONE);
    }

    #[test]
    fn bit_255_is_ignored() {
        let mut bytes = [0u8; 32];
        bytes[0] = 7;
        let plain = Fe::from_bytes(&bytes);
        bytes[31] |= 0x80;
        assert_eq!(Fe::from_bytes(&bytes), plain);
    }

    #[test]
    fn small_arithmetic() {
        let a = Fe::from_u64(1000);
        let b = Fe::from_u64(77);
        assert_eq!(a.add(&b), Fe::from_u64(1077));
        assert_eq!(a.sub(&b), Fe::from_u64(923));
        assert_eq!(a.mul(&b), Fe::from_u64(77000));
        assert_eq!(a.square(), Fe::from_u64(1_000_000));
    }

    #[test]
    fn negation() {
        let a = Fe::from_u64(5);
        assert_eq!(a.add(&a.neg()).to_bytes(), [0u8; 32]);
        assert_eq!(Fe::ZERO.neg().to_bytes(), [0u8; 32]);
    }

    #[test]
    fn inversion() {
        for v in [1u64, 2, 5, 121665, 121666] {
            let a = Fe::from_u64(v);
            assert_eq!(a.mul(&a.invert()), Fe::ONE, "inverse of {v}");
        }
        // Inverse of zero is defined as zero (standard convention).
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square().to_bytes(), Fe::ONE.neg().to_bytes());
    }

    #[test]
    fn sqrt_ratio_perfect_squares() {
        // 4/1 -> 2 (non-negative root).
        let r = Fe::sqrt_ratio(&Fe::from_u64(4), &Fe::ONE).unwrap();
        assert_eq!(r.square(), Fe::from_u64(4));
        assert!(!r.is_negative());
        // 9/4 -> r with 4 r^2 = 9.
        let r = Fe::sqrt_ratio(&Fe::from_u64(9), &Fe::from_u64(4)).unwrap();
        assert_eq!(Fe::from_u64(4).mul(&r.square()), Fe::from_u64(9));
    }

    #[test]
    fn sqrt_ratio_non_square_fails() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8). 2/1 has no square root.
        assert!(Fe::sqrt_ratio(&Fe::from_u64(2), &Fe::ONE).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_add_matches_reference(a in random_fe_strategy(), b in random_fe_strategy()) {
            let (fa, fb) = (Fe::from_bytes(&a), Fe::from_bytes(&b));
            let expected = fa.to_mpint().add(&fb.to_mpint()).rem(&prime());
            prop_assert_eq!(fa.add(&fb).to_mpint(), expected);
        }

        #[test]
        fn prop_sub_matches_reference(a in random_fe_strategy(), b in random_fe_strategy()) {
            let (fa, fb) = (Fe::from_bytes(&a), Fe::from_bytes(&b));
            let expected = fa.to_mpint().add(&prime()).sub(&fb.to_mpint()).rem(&prime());
            prop_assert_eq!(fa.sub(&fb).to_mpint(), expected);
        }

        #[test]
        fn prop_mul_matches_reference(a in random_fe_strategy(), b in random_fe_strategy()) {
            let (fa, fb) = (Fe::from_bytes(&a), Fe::from_bytes(&b));
            let expected = fa.to_mpint().mul(&fb.to_mpint()).rem(&prime());
            prop_assert_eq!(fa.mul(&fb).to_mpint(), expected);
        }

        #[test]
        fn prop_square_matches_mul(a in random_fe_strategy(), b in random_fe_strategy()) {
            // Also square a product, whose limbs are looser than a load's.
            for x in [Fe::from_bytes(&a), Fe::from_bytes(&a).mul(&Fe::from_bytes(&b))] {
                prop_assert_eq!(x.square().to_bytes(), x.mul(&x).to_bytes());
            }
        }

        #[test]
        fn prop_invert_and_pow_p58_match_pow(a in random_fe_strategy()) {
            let fa = Fe::from_bytes(&a);
            prop_assert_eq!(fa.invert().to_bytes(), invert_by_pow(&fa).to_bytes());
            prop_assert_eq!(fa.pow_p58().to_bytes(), pow_p58_by_pow(&fa).to_bytes());
        }

        #[test]
        fn prop_invert_is_inverse(a in random_fe_strategy()) {
            let fa = Fe::from_bytes(&a);
            prop_assume!(!fa.is_zero());
            prop_assert_eq!(fa.mul(&fa.invert()), Fe::ONE);
        }

        #[test]
        fn prop_roundtrip_canonical(a in random_fe_strategy()) {
            let fa = Fe::from_bytes(&a);
            let bytes = fa.to_bytes();
            prop_assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
            // Canonical: value < p.
            prop_assert!(MpInt::from_le_bytes(&bytes).cmp_to(&prime()) == std::cmp::Ordering::Less);
        }

        #[test]
        fn prop_sqrt_of_square_exists(a in random_fe_strategy()) {
            let fa = Fe::from_bytes(&a);
            let sq = fa.square();
            let r = Fe::sqrt_ratio(&sq, &Fe::ONE).expect("square must have a root");
            prop_assert_eq!(r.square(), sq);
        }

        #[test]
        fn prop_from_mpint_consistent(a in random_fe_strategy()) {
            let fa = Fe::from_bytes(&a);
            prop_assert_eq!(fe_from_mpint(&fa.to_mpint()), Fe::from_bytes(&fa.to_bytes()));
        }
    }
}
