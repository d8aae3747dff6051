//! # vnfguard-crypto
//!
//! From-scratch cryptographic primitives for the vnfguard workspace:
//!
//! - [`sha2`] — SHA-256 / SHA-512 (constants derived, not transcribed)
//! - [`hmac`] — HMAC over both hashes
//! - [`hkdf`] — HKDF and the TLS-style labeled expansion
//! - [`aes`] / [`gcm`] — AES-128/256 in CTR and GCM modes, on AES-NI and
//!   PCLMULQDQ where the CPU has them and on tables elsewhere
//! - [`chacha`] — ChaCha20-Poly1305
//! - [`x25519`] — Diffie–Hellman key agreement
//! - [`ed25519`] — signatures (fixed-base table for B, sliding window for
//!   other points, fixed-width scalars mod L)
//! - [`drbg`] — HMAC-DRBG and OS entropy
//! - [`ct`] — constant-time comparison and wiping
//! - [`mpint`] — the bignum helper that derives the SHA-2 constants and
//!   serves the tests as the reference for field and scalar arithmetic
//!
//! Every primitive is pinned by the published test vectors of its RFC/NIST
//! specification. The fast paths — AES-NI and PCLMULQDQ, T-table AES, 4-bit
//! GHASH, the Ed25519 tables and windows, Barrett scalars, the field's
//! squaring and addition chains — are additionally property-tested against
//! straightforward implementations that the test modules keep as oracles
//! (bit-serial double-and-add, bignum scalars, the byte-oriented AES round,
//! bit-serial GHASH, generic-exponent inversion). The AES and GCM tests run
//! the table path explicitly as well as the one the CPU dispatches to.
//!
//! ## Which AES-GCM runs where
//!
//! An x86-64 CPU whose CPUID reports AES-NI, PCLMULQDQ and SSSE3 runs AES
//! on AES-NI, eight CTR blocks in flight, and GHASH on PCLMULQDQ, four
//! blocks to one reduction. Every other CPU runs T-table AES and 4-bit
//! GHASH. The choice is made at run time, once per key, and there is no
//! switch: both paths give the same bytes. The SGX SDK's own sealing is
//! AES-GCM on AES-NI too.
//!
//! ## Threat model of the simulation
//!
//! This crate exists so the reproduction of *Safeguarding VNF Credentials
//! with Intel SGX* is fully self-contained. It provides **functional**
//! correctness (interoperable algorithms, correct rejection of invalid
//! inputs, constant-time tag/key comparison) but does **not** claim
//! side-channel resistance in general: variable-time scalar multiplication
//! is acceptable in a simulator whose adversary is modeled at the protocol
//! layer, not the microarchitectural layer. AES-GCM's hardware path is
//! constant-time: AESENC and PCLMULQDQ take no secret-dependent memory
//! index or branch. Its table fallback is not: T-table AES and 4-bit
//! GHASH index tables by key- and data-dependent bytes, which leaks
//! through cache timing. A production deployment would swap this crate for
//! a vetted implementation behind the same API.

pub mod aes;
pub mod chacha;
pub mod ct;
pub mod drbg;
pub mod ed25519;
pub mod field25519;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
mod hw;
pub mod mpint;
mod scalar25519;
pub mod sha2;
pub mod util;
pub mod x25519;

pub use ct::ct_eq;
pub use drbg::{HmacDrbg, SecureRandom, SystemEntropy};
pub use ed25519::{SigningKey, VerifyingKey};
pub use gcm::{AeadError, AesGcm};
pub use sha2::{sha256, sha512, Sha256, Sha512};
