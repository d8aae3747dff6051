//! The record layer: framing and AEAD protection.
//!
//! Wire format per record: `content_type (1) || length (u32 BE) || payload`.
//! Plaintext records carry handshake messages before keys exist; protected
//! records carry `AEAD(inner_type || data)` with the header as AAD.

use crate::keyschedule::{record_nonce, TrafficKeys};
use crate::{CipherSuite, TlsError};
use std::io::{Read, Write};
use vnfguard_crypto::chacha::ChaCha20Poly1305;
use vnfguard_crypto::gcm::AesGcm;

/// Content types.
pub const CT_HANDSHAKE: u8 = 22;
pub const CT_PROTECTED: u8 = 23;

/// Inner content types inside protected records.
pub const INNER_HANDSHAKE: u8 = 22;
pub const INNER_APPLICATION: u8 = 23;

/// Maximum plaintext fragment per record.
pub const MAX_FRAGMENT: usize = 16 * 1024;
/// Maximum record payload on the wire (fragment + tag).
pub const MAX_RECORD: usize = MAX_FRAGMENT + 64;

/// AEAD abstraction over the two negotiated suites. The AES-GCM state
/// (T-table round keys and the GHASH table, ~0.5 KiB) is boxed so the enum
/// stays the size of the ChaCha variant.
#[derive(Clone)]
pub enum RecordCipher {
    Aes(Box<AesGcm>),
    ChaCha(ChaCha20Poly1305),
}

impl RecordCipher {
    pub fn new(suite: CipherSuite, keys: &TrafficKeys) -> RecordCipher {
        match suite {
            CipherSuite::Aes128Gcm => RecordCipher::Aes(Box::new(AesGcm::new(&keys.key))),
            CipherSuite::ChaCha20Poly1305 => {
                let key: [u8; 32] = keys.key.as_slice().try_into().expect("32-byte key");
                RecordCipher::ChaCha(ChaCha20Poly1305::new(&key))
            }
        }
    }

    fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        match self {
            RecordCipher::Aes(gcm) => gcm.seal(nonce, aad, plaintext),
            RecordCipher::ChaCha(aead) => aead.seal(nonce, aad, plaintext),
        }
    }

    fn open(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, TlsError> {
        match self {
            RecordCipher::Aes(gcm) => gcm
                .open(nonce, aad, sealed)
                .map_err(|_| TlsError::BadRecord),
            RecordCipher::ChaCha(aead) => aead
                .open(nonce, aad, sealed)
                .map_err(|_| TlsError::BadRecord),
        }
    }
}

/// One protection direction: cipher, IV and sequence counter.
pub struct SealState {
    cipher: RecordCipher,
    iv: [u8; 12],
    seq: u64,
}

impl SealState {
    pub fn new(suite: CipherSuite, keys: &TrafficKeys) -> SealState {
        SealState {
            cipher: RecordCipher::new(suite, keys),
            iv: keys.iv,
            seq: 0,
        }
    }

    fn next_nonce(&mut self) -> [u8; 12] {
        let nonce = record_nonce(&self.iv, self.seq);
        self.seq += 1;
        nonce
    }
}

fn write_record_raw(
    stream: &mut impl Write,
    content_type: u8,
    payload: &[u8],
) -> Result<(), TlsError> {
    let mut header = [0u8; 5];
    header[0] = content_type;
    header[1..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    stream.write_all(&header)?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(())
}

fn read_record_raw(stream: &mut impl Read) -> Result<(u8, Vec<u8>), TlsError> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).map_err(TlsError::Io)?;
    let content_type = header[0];
    let length = u32::from_be_bytes(header[1..].try_into().expect("4")) as usize;
    if length > MAX_RECORD {
        return Err(TlsError::Protocol(format!(
            "record of {length} bytes too large"
        )));
    }
    let mut payload = vec![0u8; length];
    stream.read_exact(&mut payload).map_err(TlsError::Io)?;
    Ok((content_type, payload))
}

/// Write an unprotected handshake record (hellos only).
pub fn write_plaintext(stream: &mut impl Write, message: &[u8]) -> Result<(), TlsError> {
    write_record_raw(stream, CT_HANDSHAKE, message)
}

/// Read an unprotected handshake record.
pub fn read_plaintext(stream: &mut impl Read) -> Result<Vec<u8>, TlsError> {
    let (content_type, payload) = read_record_raw(stream)?;
    if content_type != CT_HANDSHAKE {
        return Err(TlsError::Protocol(format!(
            "expected plaintext handshake record, got type {content_type}"
        )));
    }
    Ok(payload)
}

/// Write a protected record carrying `inner_type || data`.
pub fn write_protected(
    stream: &mut impl Write,
    seal: &mut SealState,
    inner_type: u8,
    data: &[u8],
) -> Result<(), TlsError> {
    debug_assert!(data.len() <= MAX_FRAGMENT);
    let mut inner = Vec::with_capacity(data.len() + 1);
    inner.push(inner_type);
    inner.extend_from_slice(data);
    let nonce = seal.next_nonce();
    // AAD: the outer header the receiver will observe.
    let sealed_len = inner.len() + 16;
    let mut aad = [0u8; 5];
    aad[0] = CT_PROTECTED;
    aad[1..].copy_from_slice(&(sealed_len as u32).to_be_bytes());
    let sealed = seal.cipher.seal(&nonce, &aad, &inner);
    write_record_raw(stream, CT_PROTECTED, &sealed)
}

/// Read a protected record; returns `(inner_type, data)`.
pub fn read_protected(
    stream: &mut impl Read,
    seal: &mut SealState,
) -> Result<(u8, Vec<u8>), TlsError> {
    let (content_type, payload) = read_record_raw(stream)?;
    if content_type != CT_PROTECTED {
        return Err(TlsError::Protocol(format!(
            "expected protected record, got type {content_type}"
        )));
    }
    let mut aad = [0u8; 5];
    aad[0] = CT_PROTECTED;
    aad[1..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    let nonce = seal.next_nonce();
    let mut inner = seal.cipher.open(&nonce, &aad, &payload)?;
    if inner.is_empty() {
        return Err(TlsError::Protocol("empty inner record".into()));
    }
    let inner_type = inner.remove(0);
    Ok((inner_type, inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyschedule::traffic_keys;
    use vnfguard_net::stream::Duplex;

    fn seal_pair(suite: CipherSuite) -> (SealState, SealState) {
        let keys = traffic_keys(&[7; 32], suite);
        (SealState::new(suite, &keys), SealState::new(suite, &keys))
    }

    #[test]
    fn plaintext_records_roundtrip() {
        let (mut a, mut b) = Duplex::pipe();
        write_plaintext(&mut a, b"client hello bytes").unwrap();
        assert_eq!(read_plaintext(&mut b).unwrap(), b"client hello bytes");
    }

    #[test]
    fn protected_records_roundtrip_both_suites() {
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::ChaCha20Poly1305] {
            let (mut a, mut b) = Duplex::pipe();
            let (mut seal, mut open) = seal_pair(suite);
            write_protected(&mut a, &mut seal, INNER_APPLICATION, b"secret payload").unwrap();
            write_protected(&mut a, &mut seal, INNER_HANDSHAKE, b"finished msg").unwrap();
            let (t1, d1) = read_protected(&mut b, &mut open).unwrap();
            let (t2, d2) = read_protected(&mut b, &mut open).unwrap();
            assert_eq!(
                (t1, d1.as_slice()),
                (INNER_APPLICATION, &b"secret payload"[..])
            );
            assert_eq!((t2, d2.as_slice()), (INNER_HANDSHAKE, &b"finished msg"[..]));
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let tap = vnfguard_net::stream::TapHandle::new();
        let (mut a, mut b) = Duplex::pair(std::time::Duration::ZERO, Some(&tap));
        let (mut seal, mut open) = seal_pair(CipherSuite::Aes128Gcm);
        write_protected(&mut a, &mut seal, INNER_APPLICATION, b"password=hunter2").unwrap();
        let (_, data) = read_protected(&mut b, &mut open).unwrap();
        assert_eq!(data, b"password=hunter2");
        assert!(!tap.contains(b"hunter2"), "plaintext leaked to the wire");
    }

    #[test]
    fn sequence_mismatch_detected() {
        let (mut a, mut b) = Duplex::pipe();
        let (mut seal, mut open) = seal_pair(CipherSuite::Aes128Gcm);
        write_protected(&mut a, &mut seal, INNER_APPLICATION, b"one").unwrap();
        write_protected(&mut a, &mut seal, INNER_APPLICATION, b"two").unwrap();
        // Receiver skips a record (simulating deletion by an attacker):
        // reading record 2 with nonce 1 fails.
        let (_, first) = read_protected(&mut b, &mut open).unwrap();
        assert_eq!(first, b"one");
        let mut open_skipped = {
            let keys = traffic_keys(&[7; 32], CipherSuite::Aes128Gcm);
            let mut s = SealState::new(CipherSuite::Aes128Gcm, &keys);
            s.seq = 5; // wrong sequence
            s
        };
        assert!(matches!(
            read_protected(&mut b, &mut open_skipped),
            Err(TlsError::BadRecord)
        ));
    }

    #[test]
    fn tampered_record_detected() {
        let (mut a, mut b) = Duplex::pipe();
        let (mut seal, _) = seal_pair(CipherSuite::ChaCha20Poly1305);
        write_protected(&mut a, &mut seal, INNER_APPLICATION, b"data").unwrap();
        // Intercept, flip a ciphertext byte, re-frame.
        let (ct, mut payload) = {
            use std::io::Read as _;
            let mut header = [0u8; 5];
            b.read_exact(&mut header).unwrap();
            let len = u32::from_be_bytes(header[1..].try_into().unwrap()) as usize;
            let mut payload = vec![0u8; len];
            b.read_exact(&mut payload).unwrap();
            (header[0], payload)
        };
        payload[0] ^= 1;
        let (mut c, mut d) = Duplex::pipe();
        write_record_raw(&mut c, ct, &payload).unwrap();
        let keys = traffic_keys(&[7; 32], CipherSuite::ChaCha20Poly1305);
        let mut open = SealState::new(CipherSuite::ChaCha20Poly1305, &keys);
        assert!(matches!(
            read_protected(&mut d, &mut open),
            Err(TlsError::BadRecord)
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let (mut a, mut b) = Duplex::pipe();
        let mut header = [0u8; 5];
        header[0] = CT_PROTECTED;
        header[1..].copy_from_slice(&((MAX_RECORD + 1) as u32).to_be_bytes());
        use std::io::Write as _;
        a.write_all(&header).unwrap();
        let keys = traffic_keys(&[7; 32], CipherSuite::Aes128Gcm);
        let mut open = SealState::new(CipherSuite::Aes128Gcm, &keys);
        assert!(matches!(
            read_protected(&mut b, &mut open),
            Err(TlsError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_content_type_rejected() {
        let (mut a, mut b) = Duplex::pipe();
        write_plaintext(&mut a, b"hello").unwrap();
        let keys = traffic_keys(&[7; 32], CipherSuite::Aes128Gcm);
        let mut open = SealState::new(CipherSuite::Aes128Gcm, &keys);
        assert!(read_protected(&mut b, &mut open).is_err());
    }
}
