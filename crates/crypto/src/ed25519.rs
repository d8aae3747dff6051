//! Ed25519 signatures (RFC 8032).
//!
//! Every signature in the workspace — certificate signatures from the
//! Verification Manager's CA, SGX quote signatures from the quoting enclave,
//! IAS report signatures, TLS CertificateVerify — is Ed25519.
//!
//! Points use extended twisted-Edwards coordinates. Addition is the unified
//! law (complete for a = −1), taken against a cached form of its second
//! operand; doubling has its own formula (4 squarings, 4 multiplications).
//! Both stop at a `Completed` point four products short of the result,
//! and a doubling that another doubling follows takes only the three that
//! give (X : Y : Z). The formulas run on the field's lazy `add` and `sub`
//! (see [`crate::field25519`]'s limb bounds): every coordinate is a
//! product or a negation, so it can be subtracted, and no multiplication
//! operand counts more than 5 against the field's bound of 7.
//!
//! Multiples of the base point B — key generation, signing and X25519
//! public keys — read a signed radix-16 table of j·16²ⁱ·B (j = 1..8,
//! i = 0..31) derived at first use, so each costs 64 additions and 4
//! doublings. A table's entries are held with Z = 1, normalized with one
//! inversion shared by all 256, so an addition against one takes 7
//! products instead of 8. Any other point is multiplied with a width-5
//! sliding window over its odd multiples P, 3P, …, 15P.
//! Scalars modulo the group order L are four 64-bit limbs with Barrett
//! reduction.
//!
//! Verification rejects S ≥ L, encodings with y ≥ p, and an A or R of small
//! order (`[8]P` = identity): under the identity key, R = `[r]B` with S = r
//! would verify over every message without any secret. It then checks the
//! cofactorless equation `[S]B` − `[k]A` = R. A key verifies on one of two
//! paths:
//!
//! - [`VerifyingKey::verify`], for a key seen once (a TLS peer, a CRL or
//!   SIGSTRUCT author, an SNP VCEK): it decompresses and checks A, then
//!   computes `[S]B` − `[k]A` in one pass, both scalars' sliding windows
//!   sharing one chain of ~250 doublings (Straus), B's odd multiples
//!   derived once like the fixed-base table.
//! - [`PreparedVerifyingKey::verify`], for a key that verifies for the life
//!   of a service (the IAS's member keys and report key, the SNP ARK and
//!   the last ASK it validated): A is checked once, when the key is
//!   prepared, and a radix-16 table of j·16²ⁱ·(−A) is built beside B's
//!   (~0.1 ms, about four verifications' savings). Both multiples are then
//!   read from the two tables on one chain, the odd digits, 4 doublings,
//!   then the even digits: at most 128 additions and 4 doublings.
//!
//! Both paths are variable-time: every input to a verification is public.
//!
//! The test module keeps bit-serial double-and-add over the unified law and
//! bignum scalars as a differential oracle: keys and signatures must match
//! it bit for bit. It keeps the two-multiplication verification, `[S]B` and
//! a separate `[k]A`, as the oracle of both verification paths, and the
//! one-shot path is the prepared one's oracle too.

use crate::field25519::Fe;
use crate::scalar25519;
use crate::sha2::{sha512, Sha512};
use std::sync::{Arc, OnceLock};

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

/// A point with Z = 1 prepared as the second operand of an addition:
/// (y + x, y − x, 2d·xy). The fixed-base tables hold their entries so,
/// and an addition against one takes 7 products instead of 8.
#[derive(Clone, Copy)]
struct AffineCached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

/// −P = (−X : Y : Z : −T): swap Y ± X and negate T.
trait Negate: Copy {
    fn neg(&self) -> Self;
}

impl Negate for Cached {
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z2: self.z2,
            t2d: self.t2d.neg(),
        }
    }
}

impl Negate for AffineCached {
    fn neg(&self) -> AffineCached {
        AffineCached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
        }
    }
}

/// `[digit]·P` for a nonzero digit, where `multiples` caches P,
/// (1 + step)·P, (1 + 2·step)·P, … (step 1 for the fixed-base rows, 2 for
/// the odd multiples of the sliding window). Callers test the digit for
/// zero themselves: a zero digit adds nothing, and skipping the addition
/// in place keeps the accumulator out of a copy.
fn select<T: Negate>(multiples: &[T; 8], digit: i8, step: usize) -> T {
    let entry = &multiples[(digit.unsigned_abs() as usize - 1) / step];
    if digit > 0 {
        *entry
    } else {
        entry.neg()
    }
}

/// A point in projective coordinates (X : Y : Z), x = X/Z, y = Y/Z: all a
/// doubling reads.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A sum or a doubling four products short of its result, the point
/// (E·F : G·H : F·G : E·H) in extended coordinates.
#[derive(Clone, Copy)]
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Completed {
    /// The neutral element: (0 : 1 : 1 : 0).
    const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    /// All four products, for a point that is added to.
    fn extended(&self) -> Point {
        Point {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }

    /// Three products, for a point that is only doubled or compared.
    fn projective(&self) -> Projective {
        Projective {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
        }
    }
}

impl Projective {
    /// Point doubling (a = −1: 4 squarings here, 3 or 4 multiplications
    /// in [`Completed`]), complete for every point on the curve.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        Completed {
            e: self.x.add(&self.y).square().sub(&xx).sub(&yy), // 2XY
            f: zz.add(&zz).add(&xx).sub(&yy),                  // 2Z² − Y² + X²
            g: yy.sub(&xx),                                    // Y² − X²
            h: yy.add(&xx),                                    // Y² + X²
        }
    }

    /// Equality in the projective sense (X₁Z₂ = X₂Z₁ and Y₁Z₂ = Y₂Z₁).
    fn equals(&self, other: &Projective) -> bool {
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
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

/// A signed radix-16 table of P: row i holds `[j·16²ⁱ]P` for j = 1..8,
/// each entry with Z = 1 after one inversion shared by all 256
/// (Montgomery's trick).
fn fixed_base_table(p: Point) -> Vec<[AffineCached; 8]> {
    let mut entries = Vec::with_capacity(256);
    let mut row_base = p;
    for _ in 0..32 {
        let row_cached = row_base.cached();
        let mut multiple = row_base;
        for _ in 0..8 {
            entries.push(multiple);
            multiple = multiple.add_cached(&row_cached).extended();
        }
        for _ in 0..8 {
            row_base = row_base.double();
        }
    }
    // Prefix products of the Zs, one inversion, and back down: each
    // entry's 1/Z for three products.
    let mut prefix = Vec::with_capacity(entries.len());
    let mut product = Fe::ONE;
    for entry in &entries {
        prefix.push(product);
        product = product.mul(&entry.z);
    }
    let mut inverse = product.invert();
    let mut affine: Vec<AffineCached> = entries
        .iter()
        .zip(prefix)
        .rev()
        .map(|(entry, below)| {
            let z_inv = inverse.mul(&below);
            inverse = inverse.mul(&entry.z);
            entry.affine_cached(&z_inv)
        })
        .collect();
    affine.reverse();
    affine
        .chunks_exact(8)
        .map(|row| row.try_into().expect("8 entries a row"))
        .collect()
}

/// B's radix-16 table, derived on first use.
fn base_table() -> &'static [[AffineCached; 8]] {
    static TABLE: OnceLock<Vec<[AffineCached; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| fixed_base_table(Point::base()))
}

/// B, 3B, 5B, …, 15B, the sliding window's odd multiples of the base
/// point, derived on first use.
fn base_odd_multiples() -> &'static [Cached; 8] {
    static ODD: OnceLock<[Cached; 8]> = OnceLock::new();
    ODD.get_or_init(|| Point::base().odd_multiples())
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

    /// The Z = 1 form of this point, given 1/Z.
    fn affine_cached(&self, z_inv: &Fe) -> AffineCached {
        let x = self.x.mul(z_inv);
        let y = self.y.mul(z_inv);
        AffineCached {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            t2d: x.mul(&y).mul(&curve().d2),
        }
    }

    fn projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// The unified addition law (complete for a = −1 twisted Edwards
    /// curves) against a cached second operand.
    fn add_cached(&self, other: &Cached) -> Completed {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let d = self.z.mul(&other.z2);
        Completed {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// [`add_cached`](Self::add_cached) against a Z = 1 operand, whose
    /// 2Z·Z₂ is 2Z.
    fn add_affine(&self, other: &AffineCached) -> Completed {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let d = self.z.add(&self.z);
        Completed {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// Unified point addition (complete for a = −1 twisted Edwards curves,
    /// so it also serves as doubling).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.cached()).extended()
    }

    /// Point doubling (4 squarings, 4 multiplications).
    fn double(&self) -> Point {
        self.projective().double().extended()
    }

    /// P, 3P, 5P, …, 15P, cached for the sliding window.
    fn odd_multiples(&self) -> [Cached; 8] {
        let p2 = self.double().cached();
        let mut odd = *self;
        std::array::from_fn(|_| {
            let entry = odd.cached();
            odd = odd.add_cached(&p2).extended();
            entry
        })
    }

    /// Scalar multiplication by a 32-byte little-endian scalar (width-5
    /// sliding window; not constant-time, see crate docs).
    pub fn scalar_mul(&self, scalar_le: &[u8; 32]) -> Point {
        sum_of_multiples(&[(&slide(scalar_le), &self.odd_multiples())]).extended()
    }

    /// `[a]B` for a scalar below 2²⁵⁵, from the fixed-base table.
    pub(crate) fn mul_base(scalar_le: &[u8; 32]) -> Point {
        sum_of_table_multiples(&[(&radix16(scalar_le), base_table())]).extended()
    }

    /// Whether `[8]P` is the identity, i.e. P lies in the 8-torsion subgroup.
    fn is_small_order(&self) -> bool {
        let mut acc = self.projective();
        for _ in 0..3 {
            acc = acc.double().projective();
        }
        acc.equals(&Point::identity().projective())
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
        self.projective().equals(&other.projective())
    }
}

/// Σ [aᵢ]Pᵢ for sliding-window digits aᵢ (see [`slide`]) over the odd
/// multiples of each Pᵢ, on one shared chain of doublings (Straus): each
/// position doubles once and adds each nonzero digit's multiple. A
/// doubling with no addition after it stays projective.
fn sum_of_multiples(terms: &[(&[i8; 257], &[Cached; 8])]) -> Completed {
    let top = (0..257)
        .rev()
        .find(|&i| terms.iter().any(|(digits, _)| digits[i] != 0));
    let mut acc = Completed::IDENTITY;
    for i in (0..top.map_or(0, |top| top + 1)).rev() {
        acc = acc.projective().double();
        for (digits, multiples) in terms {
            if digits[i] != 0 {
                acc = acc.extended().add_cached(&select(multiples, digits[i], 2));
            }
        }
    }
    acc
}

/// Σ [aᵢ]Pᵢ for radix-16 digits aᵢ (see [`radix16`]) over each Pᵢ's
/// fixed-base table (see [`fixed_base_table`]), on one chain: with
/// aᵢ = Σ eⱼ·16ʲ, the odd-indexed digits of every term are summed,
/// multiplied by 16, and the even-indexed ones added.
fn sum_of_table_multiples(terms: &[(&[i8; 64], &[[AffineCached; 8]])]) -> Completed {
    let add_digits = |acc: Completed, j: usize| {
        terms.iter().fold(acc, |acc, (digits, table)| {
            if digits[j] == 0 {
                acc
            } else {
                acc.extended()
                    .add_affine(&select(&table[j / 2], digits[j], 1))
            }
        })
    };
    let mut acc = (1..64).step_by(2).fold(Completed::IDENTITY, add_digits);
    for _ in 0..4 {
        acc = acc.projective().double();
    }
    (0..64).step_by(2).fold(acc, add_digits)
}

/// `[s]B` − `[k]A` in one pass of [`sum_of_multiples`], for verification.
fn base_mul_minus(s: &[u8; 32], k: &[u8; 32], a: &Point) -> Completed {
    let minus_k = slide(k).map(|digit| -digit);
    sum_of_multiples(&[
        (&slide(s), base_odd_multiples()),
        (&minus_k, &a.odd_multiples()),
    ])
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

    /// A as a point, refused if the encoding is not canonical, is not a
    /// curve point, or is of small order: under a small-order A, R = `[r]B`
    /// with S = r satisfies the verification equation for every message.
    fn point(&self) -> Result<Point, SignatureError> {
        Point::decompress(&self.bytes)
            .filter(|a| !a.is_small_order())
            .ok_or(SignatureError)
    }

    /// Verify a signature over `message`, decompressing and checking A on
    /// the way (see [`PreparedVerifyingKey`] for a key that verifies often).
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), SignatureError> {
        let a = self.point()?;
        let (r, s, k) = signature_parts(&self.bytes, message, signature)?;
        equation_holds(base_mul_minus(&s, &k, &a), &r)
    }
}

/// The checks of a signature that do not involve A, and its challenge:
/// the length, S < L (no malleability) and R a canonical encoding of a
/// point not of small order. Returns R, S and k = H(R ‖ A ‖ M) mod L.
fn signature_parts(
    public: &[u8; KEY_LEN],
    message: &[u8],
    signature: &[u8],
) -> Result<(Point, [u8; 32], [u8; 32]), SignatureError> {
    if signature.len() != SIG_LEN {
        return Err(SignatureError);
    }
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("32");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("32");
    if !scalar25519::is_canonical(&s_bytes) {
        return Err(SignatureError);
    }
    // A small-order R lets a signer who knows a solve for S when R is the
    // identity (S = k·a), so every one is refused.
    let r = Point::decompress(&r_bytes)
        .filter(|r| !r.is_small_order())
        .ok_or(SignatureError)?;
    let mut h = Sha512::new();
    h.update(&r_bytes).update(public).update(message);
    Ok((r, s_bytes, scalar25519::reduce_wide(&h.finalize())))
}

/// The cofactorless check `[S]B` − `[k]A` = R, that is `[S]B` = R + `[k]A`.
fn equation_holds(s_b_minus_k_a: Completed, r: &Point) -> Result<(), SignatureError> {
    if s_b_minus_k_a.projective().equals(&r.projective()) {
        Ok(())
    } else {
        Err(SignatureError)
    }
}

/// A verifying key prepared once for the many verifications of a key that
/// lives as long as a service: A is checked when it is prepared, and a
/// radix-16 table of −A stands beside B's, so [`verify`](Self::verify)
/// reads `[S]B` − `[k]A` from two tables on one chain of 4 doublings
/// instead of ~250. Preparing costs about four verifications' savings;
/// the table sits behind an `Arc`, so a clone is cheap.
#[derive(Clone)]
pub struct PreparedVerifyingKey {
    key: VerifyingKey,
    /// Row i holds `[j·16²ⁱ](−A)` for j = 1..8.
    minus_a: Arc<[[AffineCached; 8]]>,
}

impl PreparedVerifyingKey {
    /// Prepare `key`. Refused where [`VerifyingKey::verify`] refuses every
    /// signature: a non-canonical encoding, a point off the curve, a point
    /// of small order.
    pub fn new(key: VerifyingKey) -> Result<PreparedVerifyingKey, SignatureError> {
        let minus_a = fixed_base_table(key.point()?)
            .iter()
            .map(|row| row.map(|entry| entry.neg()))
            .collect();
        Ok(PreparedVerifyingKey { key, minus_a })
    }

    /// The key this was prepared from.
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Verify a signature over `message`. Accepts and refuses exactly what
    /// [`VerifyingKey::verify`] does under the same key.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), SignatureError> {
        let (r, s, k) = signature_parts(&self.key.bytes, message, signature)?;
        let sum =
            sum_of_table_multiples(&[(&radix16(&s), base_table()), (&radix16(&k), &self.minus_a)]);
        equation_holds(sum, &r)
    }
}

impl std::fmt::Debug for PreparedVerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PreparedVerifyingKey")
            .field(&self.key)
            .finish()
    }
}

/// Bit-serial double-and-add over the unified law and `MpInt` scalars: the
/// differential oracle of the table and window paths. Its `verify` has no
/// small-order check, so it shows which forgeries that check stops; its
/// `two_multiplication_verify` is the one-pass verification's oracle.
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

    /// The verification that the one-pass one replaced: the same checks,
    /// then `[S]B` from the fixed-base table and a separate `[k]A`.
    pub fn two_multiplication_verify(
        public: &[u8; 32],
        message: &[u8],
        signature: &[u8; 64],
    ) -> bool {
        let r_bytes: [u8; 32] = signature[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = signature[32..].try_into().unwrap();
        if !scalar25519::is_canonical(&s_bytes) {
            return false;
        }
        let (Some(a), Some(r)) = (Point::decompress(public), Point::decompress(&r_bytes)) else {
            return false;
        };
        if a.is_small_order() || r.is_small_order() {
            return false;
        }
        let mut h = Sha512::new();
        h.update(&r_bytes).update(public).update(message);
        let k = scalar25519::reduce_wide(&h.finalize());
        Point::mul_base(&s_bytes).equals(&r.add(&a.scalar_mul(&k)))
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
        let prepared = PreparedVerifyingKey::new(key).unwrap();
        prepared.verify(b"", &sig).unwrap();
        assert!(prepared.verify(b"x", &sig).is_err());
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
        PreparedVerifyingKey::new(key.public_key())
            .unwrap()
            .verify(&[0x72], &sig)
            .unwrap();
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
        assert!(other
            .public_key()
            .verify(b"authentic message", &sig)
            .is_err());
        // Truncated signature.
        assert!(key
            .public_key()
            .verify(b"authentic message", &sig[..63])
            .is_err());
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
        assert!(PreparedVerifyingKey::new(VerifyingKey::from_bytes(&twin)).is_err());
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
            assert!(PreparedVerifyingKey::new(key).is_err());
        }
    }

    #[test]
    fn preparation_refuses_the_keys_that_verify_nothing() {
        // Every small y: off the curve, small order, or a key that verifies.
        // Plus the non-canonical twin of a curve point and the encoding of
        // −0 (x = 0 with the sign bit set).
        let mut encodings: Vec<[u8; 32]> = (0u8..32)
            .map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                enc
            })
            .collect();
        encodings.push(point_with_non_canonical_twin().1);
        let mut minus_zero = [0u8; 32];
        minus_zero[0] = 1;
        minus_zero[31] = 0x80;
        encodings.push(minus_zero);
        encodings.extend(small_order_encodings());
        let mut refused = 0;
        for enc in &encodings {
            let usable = Point::decompress(enc).is_some_and(|a| !a.is_small_order());
            let key = VerifyingKey::from_bytes(enc);
            assert_eq!(PreparedVerifyingKey::new(key).is_ok(), usable, "{enc:02x?}");
            assert_eq!(key.point().is_ok(), usable, "{enc:02x?}");
            refused += usize::from(!usable);
        }
        assert!(refused > small_order_encodings().len());
    }

    /// A key A = `[a]`B + T, with T of order dividing 8 (`torsion` indexes
    /// [`small_order_encodings`]), and a signature made with a: its
    /// cofactorless equation holds exactly when `[k]`T is the identity.
    fn signed_under_torsion_key(
        a: &[u8; 32],
        torsion: usize,
        nonce: &[u8; 32],
        message: &[u8],
    ) -> ([u8; 32], [u8; 64], bool) {
        let mut a = *a;
        a[31] &= 0x7f;
        let t = Point::decompress(&small_order_encodings()[torsion]).unwrap();
        let public = Point::mul_base(&a).add(&t).compress();
        let r = scalar25519::reduce_wide(&sha512(nonce));
        let r_point = Point::mul_base(&r).compress();
        let mut h = Sha512::new();
        h.update(&r_point).update(&public).update(message);
        let k = scalar25519::reduce_wide(&h.finalize());
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&scalar25519::mul_add(&k, &a, &r));
        let holds = t.scalar_mul(&k).equals(&Point::identity());
        (public, sig, holds)
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
            prop_assert_eq!(fast, oracle::two_multiplication_verify(&public, &message, &sig));
            prop_assert_eq!(fast, flip == 8 * (SIG_LEN + KEY_LEN));
        }

        #[test]
        fn prop_prepared_matches_one_shot_and_two_multiplications(
            a in any::<[u8; 32]>(),
            torsion in 0usize..8,
            nonce in any::<[u8; 32]>(),
            message in proptest::collection::vec(any::<u8>(), 0..256),
            mutation in 0usize..7,
            bit in 0usize..256,
        ) {
            // Keys inside and outside the prime-order subgroup, honest
            // signatures (whose equation holds iff [k]T is the identity) and
            // five ways to break one: a bit of the message, of R or of S;
            // S + L; a small-order R with the S that balances it when R is
            // the identity; a non-canonical R.
            let (public, mut sig, holds) = signed_under_torsion_key(&a, torsion, &nonce, &message);
            let mut message = message;
            match mutation {
                0 => {}
                1 => match message.get_mut(bit / 8) {
                    Some(byte) => *byte ^= 1 << (bit % 8),
                    None => message.push(bit as u8),
                },
                2 => sig[bit / 8] ^= 1 << (bit % 8),
                3 => sig[32 + bit / 8] ^= 1 << (bit % 8),
                4 => {
                    let high_s = MpInt::from_le_bytes(&sig[32..]).add(&order());
                    sig[32..].copy_from_slice(&high_s.to_le_bytes(32));
                }
                5 => {
                    let r_bytes = small_order_encodings()[bit % 8];
                    let mut h = Sha512::new();
                    h.update(&r_bytes).update(&public).update(&message);
                    let k = scalar25519::reduce_wide(&h.finalize());
                    let mut a = a;
                    a[31] &= 0x7f;
                    sig[..32].copy_from_slice(&r_bytes);
                    sig[32..].copy_from_slice(&scalar25519::mul_add(&k, &a, &[0; 32]));
                }
                _ => sig[..32].copy_from_slice(&point_with_non_canonical_twin().1),
            }
            let key = VerifyingKey::from_bytes(&public);
            let one_shot = key.verify(&message, &sig).is_ok();
            prop_assert_eq!(one_shot, oracle::two_multiplication_verify(&public, &message, &sig));
            match PreparedVerifyingKey::new(key) {
                Ok(prepared) => prop_assert_eq!(prepared.verify(&message, &sig).is_ok(), one_shot),
                Err(_) => prop_assert!(!one_shot),
            }
            if mutation == 0 {
                prop_assert_eq!(one_shot, holds);
            } else if mutation >= 4 {
                prop_assert!(!one_shot);
            }
        }

        #[test]
        fn prop_preparation_refuses_exactly_the_unusable_encodings(enc in any::<[u8; 32]>()) {
            // Random encodings: about half are off the curve or non-canonical.
            let usable = Point::decompress(&enc).is_some_and(|a| !a.is_small_order());
            prop_assert_eq!(PreparedVerifyingKey::new(VerifyingKey::from_bytes(&enc)).is_ok(), usable);
        }

        #[test]
        fn prop_one_pass_matches_two_multiplications(
            s in any::<[u8; 32]>(),
            k in any::<[u8; 32]>(),
            base_scalar in any::<[u8; 32]>(),
            torsion in 0usize..8,
        ) {
            // Full 256-bit scalars (the windows' carry into a 257th digit),
            // and points inside and outside the prime-order subgroup:
            // [s]B − [k]A, plus [k]A, is [s]B.
            let mut base_scalar = base_scalar;
            base_scalar[31] &= 0x7f;
            let t = Point::decompress(&small_order_encodings()[torsion]).unwrap();
            let a = Point::mul_base(&base_scalar).add(&t);
            let one_pass = base_mul_minus(&s, &k, &a).extended();
            prop_assert_eq!(
                one_pass.add(&a.scalar_mul(&k)).compress(),
                Point::base().scalar_mul(&s).compress()
            );
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
