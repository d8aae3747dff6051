//! Minimal arbitrary-precision unsigned integers.
//!
//! Two consumers in this crate need more than `u128`:
//!
//! 1. deriving the SHA-2 round constants (cube/square roots of primes at
//!    192-bit precision), so that no constant table is transcribed by hand;
//! 2. the tests of the Curve25519 field and of the Ed25519 scalars modulo
//!    the group order `L`, which check the fixed-width limb code against
//!    this obvious reference.
//!
//! The representation is a little-endian `Vec<u64>` with no trailing zero
//! limbs. Operations are schoolbook (O(n²)); all operands in this crate are
//! at most 16 limbs, and none sits on a hot path. None of these operations
//! are constant-time; see the crate docs for the threat model of the
//! simulation.

use std::cmp::Ordering;

/// Arbitrary-precision unsigned integer (little-endian u64 limbs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MpInt {
    limbs: Vec<u64>,
}

impl MpInt {
    pub fn zero() -> MpInt {
        MpInt { limbs: Vec::new() }
    }

    pub fn from_u64(v: u64) -> MpInt {
        if v == 0 {
            MpInt::zero()
        } else {
            MpInt { limbs: vec![v] }
        }
    }

    pub fn from_u128(v: u128) -> MpInt {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = MpInt {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Parse big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> MpInt {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    /// Parse little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8]) -> MpInt {
        let mut rev = bytes.to_vec();
        rev.reverse();
        MpInt::from_be_bytes(&rev)
    }

    /// Serialize to exactly `len` little-endian bytes; panics if the value
    /// does not fit (programming error).
    pub fn to_le_bytes(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (i, &limb) in self.limbs.iter().enumerate() {
            for j in 0..8 {
                let idx = i * 8 + j;
                let byte = (limb >> (8 * j)) as u8;
                if idx < len {
                    out[idx] = byte;
                } else {
                    assert_eq!(byte, 0, "MpInt does not fit in {len} bytes");
                }
            }
        }
        out
    }

    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    pub fn cmp_to(&self, other: &MpInt) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    pub fn add(&self, other: &MpInt) -> MpInt {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = *self.limbs.get(i).unwrap_or(&0) as u128;
            let b = *other.limbs.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            limbs.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            limbs.push(carry);
        }
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    /// Subtraction; panics if `other > self` (callers guarantee ordering).
    pub fn sub(&self, other: &MpInt) -> MpInt {
        assert!(
            self.cmp_to(other) != Ordering::Less,
            "MpInt::sub underflow"
        );
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u64);
        }
        assert_eq!(borrow, 0);
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    pub fn mul(&self, other: &MpInt) -> MpInt {
        if self.is_zero() || other.is_zero() {
            return MpInt::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u128 + a as u128 * b as u128 + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    pub fn shl(&self, bits: usize) -> MpInt {
        if self.is_zero() {
            return MpInt::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                limbs.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    pub fn shr(&self, bits: usize) -> MpInt {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return MpInt::zero();
        }
        let bit_shift = bits % 64;
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..limbs.len() {
                let hi = if i + 1 < limbs.len() {
                    limbs[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                limbs[i] = (limbs[i] >> bit_shift) | hi;
            }
        }
        let mut n = MpInt { limbs };
        n.normalize();
        n
    }

    /// Binary long division: returns `(quotient, remainder)`.
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &MpInt) -> (MpInt, MpInt) {
        assert!(!divisor.is_zero(), "MpInt division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (MpInt::zero(), self.clone());
        }
        let shift = self.bit_length() - divisor.bit_length();
        let mut remainder = self.clone();
        let mut quotient = MpInt::zero();
        for i in (0..=shift).rev() {
            let shifted = divisor.shl(i);
            if remainder.cmp_to(&shifted) != Ordering::Less {
                remainder = remainder.sub(&shifted);
                quotient = quotient.add(&MpInt::from_u64(1).shl(i));
            }
        }
        (quotient, remainder)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &MpInt) -> MpInt {
        self.div_rem(m).1
    }

    /// Floor of the integer square root, via Newton's method on bit-halved
    /// initial estimate.
    pub fn isqrt(&self) -> MpInt {
        if self.is_zero() {
            return MpInt::zero();
        }
        // Initial estimate: 2^(ceil(bits/2)) >= sqrt(self).
        let mut x = MpInt::from_u64(1).shl(self.bit_length().div_ceil(2));
        loop {
            // x_{k+1} = (x_k + self / x_k) / 2
            let (q, _) = self.div_rem(&x);
            let next = x.add(&q).shr(1);
            if next.cmp_to(&x) != Ordering::Less {
                break;
            }
            x = next;
        }
        // x is now floor(sqrt(self)) (Newton for isqrt converges from above).
        debug_assert!(x.mul(&x).cmp_to(self) != Ordering::Greater);
        x
    }

    /// Floor of the integer cube root, via binary search.
    pub fn icbrt(&self) -> MpInt {
        if self.is_zero() {
            return MpInt::zero();
        }
        let mut lo = MpInt::zero();
        // hi = 2^(ceil(bits/3)+1) > cbrt(self)
        let mut hi = MpInt::from_u64(1).shl(self.bit_length() / 3 + 2);
        // Invariant: lo^3 <= self < hi^3.
        while hi.sub(&lo).cmp_to(&MpInt::from_u64(1)) == Ordering::Greater {
            let mid = lo.add(&hi).shr(1);
            let cube = mid.mul(&mid).mul(&mid);
            if cube.cmp_to(self) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }

    /// Low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        *self.limbs.first().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mp(v: u128) -> MpInt {
        MpInt::from_u128(v)
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(mp(5).add(&mp(7)), mp(12));
        assert_eq!(mp(12).sub(&mp(7)), mp(5));
        assert_eq!(mp(0).add(&mp(0)), MpInt::zero());
    }

    #[test]
    fn carries_across_limbs() {
        let a = mp(u64::MAX as u128);
        assert_eq!(a.add(&mp(1)), mp(1u128 << 64));
        assert_eq!(mp(1u128 << 64).sub(&mp(1)), a);
    }

    #[test]
    fn mul_small() {
        assert_eq!(mp(6).mul(&mp(7)), mp(42));
        assert_eq!(
            mp(u64::MAX as u128).mul(&mp(u64::MAX as u128)),
            mp((u64::MAX as u128) * (u64::MAX as u128))
        );
        assert_eq!(mp(123).mul(&MpInt::zero()), MpInt::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(mp(1).shl(100).shr(100), mp(1));
        assert_eq!(mp(0b1011).shl(3), mp(0b1011000));
        assert_eq!(mp(0b1011000).shr(3), mp(0b1011));
        assert_eq!(mp(1).shr(1), MpInt::zero());
    }

    #[test]
    fn division_small() {
        let (q, r) = mp(100).div_rem(&mp(7));
        assert_eq!((q, r), (mp(14), mp(2)));
        let (q, r) = mp(5).div_rem(&mp(10));
        assert_eq!((q, r), (MpInt::zero(), mp(5)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = mp(1).div_rem(&MpInt::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = mp(1).sub(&mp(2));
    }

    #[test]
    fn byte_roundtrips() {
        let n = MpInt::from_be_bytes(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n, mp(0x010203040506070809));
        let le = n.to_le_bytes(9);
        assert_eq!(MpInt::from_le_bytes(&le), n);
        // Leading zeros are normalized away.
        assert_eq!(MpInt::from_be_bytes(&[0, 0, 0, 5]), mp(5));
        assert_eq!(MpInt::from_be_bytes(&[]), MpInt::zero());
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(mp(0).isqrt(), mp(0));
        assert_eq!(mp(1).isqrt(), mp(1));
        assert_eq!(mp(144).isqrt(), mp(12));
        assert_eq!(mp(145).isqrt(), mp(12));
        assert_eq!(mp(168).isqrt(), mp(12));
        assert_eq!(mp(169).isqrt(), mp(13));
        let big = mp(u128::MAX);
        let r = big.isqrt();
        assert!(r.mul(&r).cmp_to(&big) != Ordering::Greater);
        let r1 = r.add(&mp(1));
        assert!(r1.mul(&r1).cmp_to(&big) == Ordering::Greater);
    }

    #[test]
    fn icbrt_exact_and_floor() {
        assert_eq!(mp(0).icbrt(), mp(0));
        assert_eq!(mp(1).icbrt(), mp(1));
        assert_eq!(mp(27).icbrt(), mp(3));
        assert_eq!(mp(26).icbrt(), mp(2));
        assert_eq!(mp(63).icbrt(), mp(3));
        assert_eq!(mp(64).icbrt(), mp(4));
    }

    #[test]
    fn bit_accessors() {
        let n = mp(0b101);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(2));
        assert!(!n.bit(200));
        assert_eq!(n.bit_length(), 3);
        assert_eq!(MpInt::zero().bit_length(), 0);
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let sum = mp(a).add(&mp(b));
            prop_assert_eq!(sum.sub(&mp(b)), mp(a));
        }

        #[test]
        fn prop_div_rem_identity(a in any::<u128>(), b in 1..=u128::MAX) {
            let (q, r) = mp(a).div_rem(&mp(b));
            prop_assert!(r.cmp_to(&mp(b)) == Ordering::Less);
            prop_assert_eq!(q.mul(&mp(b)).add(&r), mp(a));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(
                mp(a as u128).mul(&mp(b as u128)),
                mp(a as u128 * b as u128)
            );
        }

        #[test]
        fn prop_shl_is_mul_by_power(a in any::<u64>(), s in 0usize..40) {
            prop_assert_eq!(
                mp(a as u128).shl(s),
                mp(a as u128).mul(&mp(1u128 << s))
            );
        }

        #[test]
        fn prop_isqrt_bounds(a in any::<u128>()) {
            let n = mp(a);
            let r = n.isqrt();
            prop_assert!(r.mul(&r).cmp_to(&n) != Ordering::Greater);
            let r1 = r.add(&mp(1));
            prop_assert!(r1.mul(&r1).cmp_to(&n) == Ordering::Greater);
        }

        #[test]
        fn prop_icbrt_bounds(a in any::<u128>()) {
            let n = mp(a);
            let r = n.icbrt();
            prop_assert!(r.mul(&r).mul(&r).cmp_to(&n) != Ordering::Greater);
            let r1 = r.add(&mp(1));
            prop_assert!(r1.mul(&r1).mul(&r1).cmp_to(&n) == Ordering::Greater);
        }

        #[test]
        fn prop_be_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let n = MpInt::from_be_bytes(&bytes);
            let le = n.to_le_bytes(bytes.len().max(1));
            prop_assert_eq!(MpInt::from_le_bytes(&le), n);
        }
    }
}
