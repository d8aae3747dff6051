//! # vnfguard-crypto
//!
//! From-scratch cryptographic primitives for the vnfguard workspace:
//!
//! - [`sha2`] — SHA-256 / SHA-512 (constants derived, not transcribed),
//!   SHA-256 on the SHA extensions where the CPU has them
//! - [`hmac`] — HMAC over both hashes
//! - [`hkdf`] — HKDF and the TLS-style labeled expansion
//! - [`aes`] / [`gcm`] — AES-128/256 in CTR and GCM modes, on AES-NI and
//!   PCLMULQDQ where the CPU has them and on tables elsewhere
//! - [`chacha`] — ChaCha20-Poly1305
//! - [`field25519`] — GF(2²⁵⁵ − 19) with lazy addition and subtraction
//! - [`x25519`] — Diffie–Hellman key agreement
//! - [`ed25519`] — signatures (fixed-base table for B, sliding window for
//!   other points, one-pass verification, fixed-width scalars mod L)
//! - [`drbg`] — HMAC-DRBG and OS entropy
//! - [`ct`] — constant-time comparison and wiping
//! - [`mpint`] — the bignum helper that derives the SHA-2 constants and
//!   serves the tests as the reference for field and scalar arithmetic
//!
//! Every primitive is pinned by the published test vectors of its RFC/NIST
//! specification. The fast paths — AES-NI and PCLMULQDQ, the SHA
//! extensions, T-table AES, 4-bit GHASH, the lazily reduced field, the
//! Ed25519 tables, windows and one-pass verification, Barrett scalars, the
//! field's squaring and addition chains — are additionally property-tested
//! against straightforward implementations that the test modules keep as
//! oracles (bit-serial double-and-add, bignum scalars, the byte-oriented
//! AES round, bit-serial GHASH, the portable SHA-256 compression, the
//! carried field operations and X25519 ladder, the two-multiplication
//! verification, generic-exponent inversion). The AES, GCM and SHA-256
//! tests run the portable path explicitly as well as the one the CPU
//! dispatches to.
//!
//! ## Which code runs where
//!
//! An x86-64 CPU whose CPUID reports AES-NI, PCLMULQDQ and SSSE3 runs AES
//! on AES-NI, eight CTR blocks in flight, and GHASH on PCLMULQDQ, four
//! blocks to one reduction. One whose CPUID reports SHA, SSSE3 and SSE4.1
//! runs SHA-256's compression on SHA256RNDS2, SHA256MSG1 and SHA256MSG2.
//! Every other CPU runs T-table AES, 4-bit GHASH and the portable SHA-256
//! compression; SHA-512, ChaCha20 and the curve arithmetic run the same
//! code everywhere. The choice is made at run time, once per key or
//! hasher, and there is no switch: every path gives the same bytes. The
//! SGX SDK's own sealing is AES-GCM on AES-NI too. The intrinsics, and
//! their `unsafe`, sit in the private `hw` module; the crate denies
//! `unsafe_code` everywhere else but the volatile wipe in [`ct`].
//!
//! ## Threat model of the simulation
//!
//! This crate exists so the reproduction of *Safeguarding VNF Credentials
//! with Intel SGX* is fully self-contained. It provides **functional**
//! correctness (interoperable algorithms, correct rejection of invalid
//! inputs, constant-time tag/key comparison) but does **not** claim
//! side-channel resistance in general: variable-time scalar multiplication
//! is acceptable in a simulator whose adversary is modeled at the protocol
//! layer, not the microarchitectural layer. The hardware paths are
//! constant-time: AESENC, PCLMULQDQ and SHA256RNDS2 take no
//! secret-dependent memory index or branch. AES-GCM's table fallback is
//! not: T-table AES and 4-bit
//! GHASH index tables by key- and data-dependent bytes, which leaks
//! through cache timing. A production deployment would swap this crate for
//! a vetted implementation behind the same API.

#![deny(unsafe_code)]

pub mod aes;
pub mod chacha;
pub mod ct;
pub mod drbg;
pub mod ed25519;
pub mod field25519;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
#[allow(unsafe_code)]
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
