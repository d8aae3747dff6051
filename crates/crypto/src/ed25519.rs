//! Ed25519 signatures (RFC 8032).
//!
//! Every signature in the workspace — certificate signatures from the
//! Verification Manager's CA, SGX quote signatures from the quoting enclave,
//! IAS report signatures, TLS CertificateVerify — is Ed25519.
//!
//! Points use extended twisted-Edwards coordinates. Addition is the unified
//! law (complete for a = −1), taken against a cached form of its second
//! operand; doubling has its own formula (4 squarings, 4 multiplications).
//! Multiples of the base point B — key generation, signing, the `[S]B`
//! half of verification and X25519 public keys — read a signed radix-16
//! table of j·16²ⁱ·B (j = 1..8, i = 0..31) derived at first use, so each
//! costs 64 additions and 4 doublings. Any other point is multiplied with a width-5 sliding
//! window over its odd multiples P, 3P, …, 15P. Scalars modulo the group
//! order L are four 64-bit limbs with Barrett reduction.
//!
//! Verification rejects S ≥ L, encodings with y ≥ p, and an A or R of small
//! order (`[8]P` = identity): under the identity key, R = `[r]B` with S = r
//! would verify over every message without any secret.
//!
//! The test module keeps bit-serial double-and-add over the unified law and
//! bignum scalars as a differential oracle: keys and signatures must match
//! it bit for bit.

use crate::field25519::Fe;
use crate::scalar25519;
use crate::sha2::{sha512, Sha512};
use std::sync::OnceLock;

/// Length of public keys and seeds.
pub const KEY_LEN: usize = 32;
/// Length of signatures.
pub const SIG_LEN: usize = 64;

/// Signature verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ed25519 signature verification failed")
    }
}

impl std::error::Error for SignatureError {}

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the second operand of an addition:
/// (Y + X, Y − X, 2Z, 2d·T).
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

impl Cached {
    /// −P = (−X : Y : Z : −T): swap Y ± X and negate T.
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z2: self.z2,
            t2d: self.t2d.neg(),
        }
    }
}

struct Curve {
    d: Fe,
    d2: Fe,
    base: Point,
}

fn curve() -> &'static Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE.get_or_init(|| {
        // d = -121665/121666 mod p.
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(&Fe::from_u64(121_666).invert());
        let d2 = d.add(&d);
        // Base point: y = 4/5, x chosen non-negative (sign bit 0).
        let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
        let mut enc = y.to_bytes();
        enc[31] &= 0x7f; // sign bit 0
        let base = decompress_with_d(&enc, &d).expect("base point decompression");
        Curve { d, d2, base }
    })
}

/// Row i holds `[j·16²ⁱ]B` for j = 1..8, derived on first use.
fn base_table() -> &'static [[Cached; 8]] {
    static TABLE: OnceLock<Vec<[Cached; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut row_base = Point::base();
        (0..32)
            .map(|_| {
                let row_cached = row_base.cached();
                let mut multiple = row_base;
                let row = std::array::from_fn(|_| {
                    let entry = multiple.cached();
                    multiple = multiple.add_cached(&row_cached);
                    entry
                });
                for _ in 0..8 {
                    row_base = row_base.double();
                }
                row
            })
            .collect()
    })
}

/// Signed radix-16 digits of a scalar below 2²⁵⁵: a = Σ eᵢ·16ⁱ with
/// eᵢ ∈ [−8, 8) and the top digit in [0, 8].
fn radix16(a: &[u8; 32]) -> [i8; 64] {
    debug_assert!(a[31] <= 127, "radix16 needs a scalar below 2^255");
    let mut e = [0i8; 64];
    for (i, &byte) in a.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

/// Width-5 sliding-window digits of a 256-bit scalar: a = Σ rᵢ·2ⁱ with
/// every nonzero rᵢ odd in [−15, 15] (one extra position takes the carry
/// out of bit 255).
fn slide(a: &[u8; 32]) -> [i8; 257] {
    let mut r = [0i8; 257];
    for (i, bit) in r.iter_mut().take(256).enumerate() {
        *bit = ((a[i / 8] >> (i % 8)) & 1) as i8;
    }
    for i in 0..257 {
        if r[i] == 0 {
            continue;
        }
        for b in 1..=6.min(256 - i) {
            if r[i + b] == 0 {
                continue;
            }
            let step = r[i + b] << b;
            if r[i] + step <= 15 {
                r[i] += step;
                r[i + b] = 0;
            } else if r[i] - step >= -15 {
                r[i] -= step;
                // Carry 2^(i+b) into the next zero position.
                for carry in r[i + b..].iter_mut() {
                    if *carry == 0 {
                        *carry = 1;
                        break;
                    }
                    *carry = 0;
                }
            } else {
                break;
            }
        }
    }
    r
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B.
    pub fn base() -> Point {
        curve().base
    }

    fn cached(&self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.add(&self.z),
            t2d: self.t.mul(&curve().d2),
        }
    }

    /// The unified addition law (complete for a = −1 twisted Edwards
    /// curves) against a cached second operand.
    fn add_cached(&self, other: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let d = self.z.mul(&other.z2);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// `self + [digit]·P`, where `multiples` caches P, (1 + step)·P,
    /// (1 + 2·step)·P, … (step 1 for the fixed-base rows, 2 for the odd
    /// multiples of the sliding window).
    fn add_digit(&self, multiples: &[Cached; 8], digit: i8, step: usize) -> Point {
        if digit == 0 {
            return *self;
        }
        let entry = &multiples[(digit.unsigned_abs() as usize - 1) / step];
        if digit > 0 {
            self.add_cached(entry)
        } else {
            self.add_cached(&entry.neg())
        }
    }

    /// Unified point addition (complete for a = −1 twisted Edwards curves,
    /// so it also serves as doubling).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.cached())
    }

    /// Point doubling (a = −1 extended coordinates: 4 squarings, 4
    /// multiplications), complete for every point on the curve.
    fn double(&self) -> Point {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let e = self.x.add(&self.y).square().sub(&xx).sub(&yy); // 2XY
        let g = yy.sub(&xx); // Y² − X²
        let h = yy.add(&xx); // Y² + X²
        let f = zz.add(&zz).sub(&g); // 2Z² − Y² + X²
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Scalar multiplication by a 32-byte little-endian scalar (width-5
    /// sliding window; not constant-time, see crate docs).
    pub fn scalar_mul(&self, scalar_le: &[u8; 32]) -> Point {
        let p2 = self.double().cached();
        let mut odd = *self;
        let odd_multiples: [Cached; 8] = std::array::from_fn(|_| {
            let entry = odd.cached();
            odd = odd.add_cached(&p2);
            entry
        });
        let digits = slide(scalar_le);
        let mut acc = Point::identity();
        for &digit in digits.iter().rev().skip_while(|&&d| d == 0) {
            acc = acc.double();
            acc = acc.add_digit(&odd_multiples, digit, 2);
        }
        acc
    }

    /// `[a]B` for a scalar below 2²⁵⁵, from the fixed-base table: with
    /// a = Σ eᵢ·16ⁱ, the odd-indexed digits are summed, multiplied by 16,
    /// and the even-indexed ones added.
    pub(crate) fn mul_base(scalar_le: &[u8; 32]) -> Point {
        let digits = radix16(scalar_le);
        let table = base_table();
        let mut acc = Point::identity();
        for i in (1..64).step_by(2) {
            acc = acc.add_digit(&table[i / 2], digits[i], 1);
        }
        acc = acc.double().double().double().double();
        for i in (0..64).step_by(2) {
            acc = acc.add_digit(&table[i / 2], digits[i], 1);
        }
        acc
    }

    /// Whether `[8]P` is the identity, i.e. P lies in the 8-torsion subgroup.
    fn is_small_order(&self) -> bool {
        self.double().double().double().equals(&Point::identity())
    }

    /// Compress to the 32-byte encoding: y with the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let z_inv = self.z.invert();
        let x = self.x.mul(&z_inv);
        let y = self.y.mul(&z_inv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// The u-coordinate of this point's image on Curve25519 under the
    /// birational map u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y), which sends B
    /// to the X25519 base point u = 9 (RFC 7748 §4.1).
    pub(crate) fn montgomery_u(&self) -> [u8; 32] {
        self.z
            .add(&self.y)
            .mul(&self.z.sub(&self.y).invert())
            .to_bytes()
    }

    /// Decompress a 32-byte encoding; `None` if it is not a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        decompress_with_d(bytes, &curve().d)
    }

    /// Point equality in the projective sense (x1 z2 == x2 z1 etc.).
    pub fn equals(&self, other: &Point) -> bool {
        self.x.mul(&other.z) == other.x.mul(&self.z)
            && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

fn decompress_with_d(bytes: &[u8; 32], d: &Fe) -> Option<Point> {
    let sign = bytes[31] >> 7;
    let y = Fe::from_bytes(bytes); // from_bytes masks bit 255
    // Reject non-canonical y (>= p) to keep encodings unique.
    let mut canonical = y.to_bytes();
    canonical[31] |= sign << 7;
    if &canonical != bytes {
        return None;
    }
    // x^2 = (y^2 - 1) / (d y^2 + 1)
    let y2 = y.square();
    let u = y2.sub(&Fe::ONE);
    let v = d.mul(&y2).add(&Fe::ONE);
    let x = Fe::sqrt_ratio(&u, &v)?;
    // sqrt_ratio returns the non-negative root; apply the sign bit.
    if x.is_zero() && sign == 1 {
        return None; // -0 is not a valid encoding
    }
    let x = if (x.is_negative() as u8) != sign {
        x.neg()
    } else {
        x
    };
    Some(Point {
        x,
        y,
        z: Fe::ONE,
        t: x.mul(&y),
    })
}

fn clamp_scalar(mut a: [u8; 32]) -> [u8; 32] {
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    a
}

/// An Ed25519 signing key (the 32-byte RFC 8032 seed plus caches).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; KEY_LEN],
    scalar: [u8; 32],
    prefix: [u8; 32],
    public: [u8; KEY_LEN],
}

impl SigningKey {
    /// Derive the key pair from a 32-byte seed.
    pub fn from_seed(seed: &[u8; KEY_LEN]) -> SigningKey {
        let h = sha512(seed);
        let scalar = clamp_scalar(h[..32].try_into().expect("32"));
        let prefix: [u8; 32] = h[32..].try_into().expect("32");
        let public = Point::mul_base(&scalar).compress();
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            public,
        }
    }

    pub fn seed(&self) -> &[u8; KEY_LEN] {
        &self.seed
    }

    pub fn public_key(&self) -> VerifyingKey {
        VerifyingKey { bytes: self.public }
    }

    /// Produce a deterministic RFC 8032 signature over `message`.
    pub fn sign(&self, message: &[u8]) -> [u8; SIG_LEN] {
        let mut h = Sha512::new();
        h.update(&self.prefix).update(message);
        let r_scalar = scalar25519::reduce_wide(&h.finalize());
        let r_point = Point::mul_base(&r_scalar).compress();

        let mut h = Sha512::new();
        h.update(&r_point).update(&self.public).update(message);
        let k = scalar25519::reduce_wide(&h.finalize());
        let s = scalar25519::mul_add(&k, &self.scalar, &r_scalar);

        let mut sig = [0u8; SIG_LEN];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s);
        sig
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the seed.
        f.debug_struct("SigningKey")
            .field("public", &crate::util::fingerprint_hex(&self.public))
            .finish_non_exhaustive()
    }
}

/// An Ed25519 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey {
    bytes: [u8; KEY_LEN],
}

impl VerifyingKey {
    pub fn from_bytes(bytes: &[u8; KEY_LEN]) -> VerifyingKey {
        VerifyingKey { bytes: *bytes }
    }

    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }

    /// Verify a signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), SignatureError> {
        if signature.len() != SIG_LEN {
            return Err(SignatureError);
        }
        let r_bytes: [u8; 32] = signature[..32].try_into().expect("32");
        let s_bytes: [u8; 32] = signature[32..].try_into().expect("32");
        // Reject S >= L (signature malleability).
        if !scalar25519::is_canonical(&s_bytes) {
            return Err(SignatureError);
        }
        let a = Point::decompress(&self.bytes).ok_or(SignatureError)?;
        let r = Point::decompress(&r_bytes).ok_or(SignatureError)?;
        // Reject small-order A and R: under the identity key, R = [r]B with
        // S = r satisfies the equation below for every message.
        if a.is_small_order() || r.is_small_order() {
            return Err(SignatureError);
        }

        let mut h = Sha512::new();
        h.update(&r_bytes).update(&self.bytes).update(message);
        let k = scalar25519::reduce_wide(&h.finalize());

        // Check [S]B == R + [k]A.
        let lhs = Point::mul_base(&s_bytes);
        let rhs = r.add(&a.scalar_mul(&k));
        if lhs.equals(&rhs) {
            Ok(())
        } else {
            Err(SignatureError)
        }
    }
}

/// Bit-serial double-and-add over the unified law and `MpInt` scalars: the
/// differential oracle of the table and window paths. Its `verify` has no
/// small-order check, so it shows which forgeries that check stops.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::mpint::MpInt;
    use crate::scalar25519::oracle::{mul_add, order, reduce_wide};

    pub fn scalar_mul(p: &Point, scalar_le: &[u8; 32]) -> Point {
        let mut acc = Point::identity();
        for bit in (0..256).rev() {
            acc = acc.add(&acc);
            if (scalar_le[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = acc.add(p);
            }
        }
        acc
    }

    fn expand(seed: &[u8; 32]) -> ([u8; 32], [u8; 32], [u8; 32]) {
        let h = sha512(seed);
        let scalar = clamp_scalar(h[..32].try_into().unwrap());
        let public = scalar_mul(&Point::base(), &scalar).compress();
        (scalar, h[32..].try_into().unwrap(), public)
    }

    pub fn public_key(seed: &[u8; 32]) -> [u8; 32] {
        expand(seed).2
    }

    pub fn sign(seed: &[u8; 32], message: &[u8]) -> [u8; 64] {
        let (scalar, prefix, public) = expand(seed);
        let mut h = Sha512::new();
        h.update(&prefix).update(message);
        let r_scalar = reduce_wide(&h.finalize());
        let r_point = scalar_mul(&Point::base(), &r_scalar).compress();
        let mut h = Sha512::new();
        h.update(&r_point).update(&public).update(message);
        let k = reduce_wide(&h.finalize());
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&mul_add(&k, &scalar, &r_scalar));
        sig
    }

    pub fn verify(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
        let r_bytes: [u8; 32] = signature[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = signature[32..].try_into().unwrap();
        if MpInt::from_le_bytes(&s_bytes).cmp_to(&order()) != std::cmp::Ordering::Less {
            return false;
        }
        let (Some(a), Some(r)) = (Point::decompress(public), Point::decompress(&r_bytes)) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&r_bytes).update(public).update(message);
        let k = reduce_wide(&h.finalize());
        scalar_mul(&Point::base(), &s_bytes).equals(&r.add(&scalar_mul(&a, &k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpint::MpInt;
    use crate::scalar25519::oracle::order;
    use proptest::prelude::*;

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

    // RFC 8032 §7.1 TEST 1: verify the published signature over the empty
    // message under the published public key (external interoperability KAT
    // for the verification path; TEST 2 below covers the signing path).
    #[test]
    fn rfc8032_test1_verify() {
        let public = hex32("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
        let mut sig = [0u8; 64];
        let sig_hex = "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b";
        for i in 0..64 {
            sig[i] = u8::from_str_radix(&sig_hex[i * 2..i * 2 + 2], 16).unwrap();
        }
        let key = VerifyingKey::from_bytes(&public);
        key.verify(b"", &sig).unwrap();
        // Same signature over a different message must fail.
        assert!(key.verify(b"x", &sig).is_err());
    }

    // RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
    #[test]
    fn rfc8032_test2() {
        let seed = hex32("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            to_hex(key.public_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            to_hex(&sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        key.public_key().verify(&[0x72], &sig).unwrap();
    }

    #[test]
    fn sign_verify_roundtrip_various_messages() {
        let key = SigningKey::from_seed(&[42u8; 32]);
        for len in [0usize, 1, 32, 100, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let sig = key.sign(&msg);
            key.public_key().verify(&msg, &sig).unwrap();
        }
    }

    #[test]
    fn verification_rejects_tampering() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"authentic message");
        // Wrong message.
        assert!(key.public_key().verify(b"forged message", &sig).is_err());
        // Flipped signature bytes.
        for i in [0usize, 31, 32, 63] {
            let mut bad = sig;
            bad[i] ^= 1;
            assert!(key.public_key().verify(b"authentic message", &bad).is_err());
        }
        // Wrong key.
        let other = SigningKey::from_seed(&[8u8; 32]);
        assert!(other.public_key().verify(b"authentic message", &sig).is_err());
        // Truncated signature.
        assert!(key.public_key().verify(b"authentic message", &sig[..63]).is_err());
    }

    #[test]
    fn rejects_high_s_malleability() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let mut sig = key.sign(b"msg");
        // Add L to S: an equivalent but non-canonical signature. S < L, so
        // S + L < 2^254 always fits the 32-byte field.
        let high_s = MpInt::from_le_bytes(&sig[32..]).add(&order());
        sig[32..].copy_from_slice(&high_s.to_le_bytes(32));
        assert!(key.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_s_equal_to_order() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let mut sig = key.sign(b"msg");
        sig[32..].copy_from_slice(&order().to_le_bytes(32));
        assert!(key.public_key().verify(b"msg", &sig).is_err());
    }

    /// A curve point with y < 19 that is not of small order, and the
    /// non-canonical encoding of its y + p (which still fits in 255 bits).
    fn point_with_non_canonical_twin() -> ([u8; 32], [u8; 32]) {
        for y in 2u8..19 {
            let mut canonical = [0u8; 32];
            canonical[0] = y;
            let Some(p) = Point::decompress(&canonical) else {
                continue;
            };
            if p.is_small_order() {
                continue;
            }
            let twin: [u8; 32] = MpInt::from_u64(y as u64)
                .add(&crate::field25519::prime())
                .to_le_bytes(32)
                .try_into()
                .unwrap();
            return (canonical, twin);
        }
        panic!("no curve point with a small y");
    }

    #[test]
    fn rejects_non_canonical_a_and_r() {
        let (canonical, twin) = point_with_non_canonical_twin();
        assert!(Point::decompress(&canonical).is_some());
        assert!(Point::decompress(&twin).is_none());
        let key = SigningKey::from_seed(&[4u8; 32]);
        let sig = key.sign(b"msg");
        // As A.
        assert!(VerifyingKey::from_bytes(&twin)
            .verify(b"msg", &sig)
            .is_err());
        // As R.
        let mut bad = sig;
        bad[..32].copy_from_slice(&twin);
        assert!(key.public_key().verify(b"msg", &bad).is_err());
    }

    /// The eight encodings of the points of order dividing 8, derived as the
    /// multiples of `[L]P` for a point P with an order-8 component.
    fn small_order_encodings() -> Vec<[u8; 32]> {
        let l: [u8; 32] = order().to_le_bytes(32).try_into().unwrap();
        for y in 2u8..=255 {
            let mut enc = [0u8; 32];
            enc[0] = y;
            let Some(p) = Point::decompress(&enc) else {
                continue;
            };
            let t = p.scalar_mul(&l);
            if t.double().double().equals(&Point::identity()) {
                continue; // order divides 4
            }
            let mut out = Vec::new();
            let mut multiple = Point::identity();
            for _ in 0..8 {
                out.push(multiple.compress());
                multiple = multiple.add(&t);
            }
            out.sort();
            out.dedup();
            assert_eq!(out.len(), 8);
            return out;
        }
        panic!("no point with an order-8 component");
    }

    #[test]
    fn small_order_points_are_detected() {
        let encodings = small_order_encodings();
        assert!(encodings.contains(&{
            let mut identity = [0u8; 32];
            identity[0] = 1;
            identity
        }));
        for enc in &encodings {
            assert!(Point::decompress(enc).unwrap().is_small_order());
        }
        assert!(!Point::base().is_small_order());
    }

    #[test]
    fn rejects_small_order_public_keys() {
        // Under a small-order A, pick r until [k]A is the identity (one try
        // in at most eight); then R = [r]B, S = r satisfies [S]B = R + [k]A
        // with no secret at all. The previous verifier accepted these.
        for a_bytes in small_order_encodings() {
            let a = Point::decompress(&a_bytes).unwrap();
            let forged = (1u8..=255)
                .find_map(|r| {
                    let mut r_scalar = [0u8; 32];
                    r_scalar[0] = r;
                    let r_point = Point::mul_base(&r_scalar).compress();
                    let mut h = Sha512::new();
                    h.update(&r_point).update(&a_bytes).update(b"any message");
                    let k = scalar25519::reduce_wide(&h.finalize());
                    a.scalar_mul(&k).equals(&Point::identity()).then(|| {
                        let mut sig = [0u8; 64];
                        sig[..32].copy_from_slice(&r_point);
                        sig[32..].copy_from_slice(&r_scalar);
                        sig
                    })
                })
                .expect("a forgeable r");
            assert!(oracle::verify(&a_bytes, b"any message", &forged));
            let key = VerifyingKey::from_bytes(&a_bytes);
            assert!(key.verify(b"any message", &forged).is_err());
        }
    }

    #[test]
    fn rejects_small_order_r() {
        // With R of small order the signer can still solve for S when
        // R is the identity: S = k·a. Every small-order R is refused.
        let key = SigningKey::from_seed(&[6u8; 32]);
        for r_bytes in small_order_encodings() {
            let mut h = Sha512::new();
            h.update(&r_bytes)
                .update(key.public_key().as_bytes())
                .update(b"m");
            let k = scalar25519::reduce_wide(&h.finalize());
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&r_bytes);
            sig[32..].copy_from_slice(&scalar25519::mul_add(&k, &key.scalar, &[0; 32]));
            if r_bytes[0] == 1 && r_bytes[1..] == [0; 31] {
                assert!(oracle::verify(key.public_key().as_bytes(), b"m", &sig));
            }
            assert!(key.public_key().verify(b"m", &sig).is_err());
        }
    }

    #[test]
    fn point_algebra() {
        let b = Point::base();
        // B + identity = B.
        assert!(b.add(&Point::identity()).equals(&b));
        // 2B + B == 3B via scalar mul.
        let two_b = b.add(&b);
        let three_b = two_b.add(&b);
        let mut three = [0u8; 32];
        three[0] = 3;
        assert!(b.scalar_mul(&three).equals(&three_b));
        // Compression roundtrip.
        let enc = three_b.compress();
        let dec = Point::decompress(&enc).unwrap();
        assert!(dec.equals(&three_b));
    }

    #[test]
    fn order_times_base_is_identity() {
        let l: [u8; 32] = order().to_le_bytes(32).try_into().unwrap();
        let lb = Point::base().scalar_mul(&l);
        assert!(lb.equals(&Point::identity()));
    }

    #[test]
    fn doubling_matches_unified_addition() {
        let mut p = Point::base();
        for _ in 0..16 {
            assert!(p.double().equals(&p.add(&p)));
            p = p.add(&Point::base());
        }
        assert!(Point::identity().double().equals(&Point::identity()));
    }

    #[test]
    fn fixed_base_edges_match_oracle() {
        // Digits at the limits of the signed radix-16 recoding: all 8s, all
        // 7s, all 15s (every digit carries), the largest scalar below 2^255,
        // L − 1 and a lone top digit.
        let one = MpInt::from_u64(1);
        let mut cases = vec![[0u8; 32], [0x88; 32], [0x77; 32], [0xff; 32], [0x80; 32]];
        for case in cases.iter_mut() {
            case[31] &= 0x7f;
        }
        cases.push(order().sub(&one).to_le_bytes(32).try_into().unwrap());
        let mut top = [0u8; 32];
        top[31] = 0x70;
        cases.push(top);
        for scalar in &cases {
            let expected = oracle::scalar_mul(&Point::base(), scalar).compress();
            assert_eq!(
                Point::mul_base(scalar).compress(),
                expected,
                "{scalar:02x?}"
            );
        }
    }

    #[test]
    fn variable_base_edges_match_oracle() {
        // The sliding window's carry reaches the 257th digit for scalars
        // with bit 255 set.
        let p = Point::base().double().add(&Point::base());
        for scalar in [[0u8; 32], [0xff; 32], [0x80; 32], [0x55; 32], [0xaa; 32]] {
            let expected = oracle::scalar_mul(&p, &scalar).compress();
            assert_eq!(p.scalar_mul(&scalar).compress(), expected, "{scalar:02x?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_keygen_matches_oracle(seed in any::<[u8; 32]>()) {
            let key = SigningKey::from_seed(&seed);
            prop_assert_eq!(*key.public_key().as_bytes(), oracle::public_key(&seed));
        }

        #[test]
        fn prop_sign_matches_oracle(
            seed in any::<[u8; 32]>(),
            message in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            let sig = SigningKey::from_seed(&seed).sign(&message);
            prop_assert_eq!(sig.to_vec(), oracle::sign(&seed, &message).to_vec());
        }

        #[test]
        fn prop_verify_matches_oracle_under_bit_flips(
            seed in any::<[u8; 32]>(),
            message in proptest::collection::vec(any::<u8>(), 0..1024),
            flip in 0usize..(8 * (SIG_LEN + KEY_LEN) + 1),
        ) {
            // Flip one bit of the signature, of the public key, or (the last
            // position) nothing; both verifiers must agree.
            let key = SigningKey::from_seed(&seed);
            let mut sig = key.sign(&message);
            let mut public = *key.public_key().as_bytes();
            if flip < 8 * SIG_LEN {
                sig[flip / 8] ^= 1 << (flip % 8);
            } else if flip < 8 * (SIG_LEN + KEY_LEN) {
                let bit = flip - 8 * SIG_LEN;
                public[bit / 8] ^= 1 << (bit % 8);
            }
            let fast = VerifyingKey::from_bytes(&public).verify(&message, &sig).is_ok();
            prop_assert_eq!(fast, oracle::verify(&public, &message, &sig));
            prop_assert_eq!(fast, flip == 8 * (SIG_LEN + KEY_LEN));
        }

        #[test]
        fn prop_scalar_mul_matches_oracle(
            base_scalar in any::<[u8; 32]>(),
            scalar in any::<[u8; 32]>(),
            torsion in 0usize..8,
        ) {
            // Points inside and outside the prime-order subgroup, full
            // 256-bit scalars.
            let mut base_scalar = base_scalar;
            base_scalar[31] &= 0x7f;
            let mut p = Point::mul_base(&base_scalar);
            let t = small_order_encodings()[torsion];
            p = p.add(&Point::decompress(&t).unwrap());
            prop_assert_eq!(p.scalar_mul(&scalar).compress(), oracle::scalar_mul(&p, &scalar).compress());
            prop_assert_eq!(
                Point::mul_base(&base_scalar).compress(),
                oracle::scalar_mul(&Point::base(), &base_scalar).compress()
            );
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 gives x^2 = 3/(4d+1): test whether decompression is total.
        // All-0xff is >= p (non-canonical) and must be rejected.
        assert!(Point::decompress(&[0xffu8; 32]).is_none());
        // -0: y=0 encoding with sign bit 1... y=0 -> x^2 = -1/(0+1) = -1,
        // which has a root i; so craft a y that yields no root instead.
        let mut count_invalid = 0;
        for y in 0u8..16 {
            let mut enc = [0u8; 32];
            enc[0] = y;
            if Point::decompress(&enc).is_none() {
                count_invalid += 1;
            }
        }
        assert!(count_invalid > 0, "some small y must be off-curve");
    }

    #[test]
    fn deterministic_signatures() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
        assert_ne!(key.sign(b"m"), key.sign(b"n"));
    }

    #[test]
    fn debug_does_not_leak_seed() {
        let key = SigningKey::from_seed(&[0xaa; 32]);
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("aaaaaaaa"), "seed leaked in Debug: {dbg}");
    }
}
