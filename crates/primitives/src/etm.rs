//! Authenticated encryption: AES-128-CTR + HMAC-SHA-256, encrypt-then-MAC.
//!
//! This is the concrete `E_km` used to protect data items `M_i` before they
//! are shipped to the honest-but-curious server, and the `E_k` used to mask
//! posting-list generations in Scheme 2. The paper only requires IND-CPA
//! ("pseudo-random permutation") security from `E`; we add integrity because
//! any real deployment of the scheme would, and it costs nothing in the
//! reproduced measurements.
//!
//! Wire format: `IV (12 bytes) || ciphertext || tag (32 bytes)`.

use crate::ctr::{AesCtr, IV_LEN};
use crate::error::{CryptoError, Result};
use crate::hmac::{hmac_sha256, HmacSha256};
use crate::kdf::derive_subkeys;

/// Tag length in bytes.
pub const TAG_LEN: usize = 32;
/// Minimum valid ciphertext length (empty plaintext).
pub const MIN_CT_LEN: usize = IV_LEN + TAG_LEN;

/// An authenticated-encryption key: a 32-byte master secret from which the
/// CTR key and MAC key are derived by domain separation.
#[derive(Clone)]
pub struct EtmKey {
    enc_key: [u8; 16],
    mac_key: [u8; 32],
}

impl EtmKey {
    /// Derive the encryption and MAC subkeys from a 32-byte master key.
    #[must_use]
    pub fn new(master: &[u8; 32]) -> Self {
        let (enc, mac) = derive_subkeys(master);
        EtmKey {
            enc_key: enc,
            mac_key: mac,
        }
    }

    /// Encrypt `plaintext` with a caller-supplied IV (must be unique per
    /// message under this key). Prefer [`EtmKey::seal`] which draws the IV
    /// from OS entropy.
    #[must_use]
    pub fn seal_with_iv(&self, iv: &[u8; IV_LEN], plaintext: &[u8]) -> Vec<u8> {
        // Encrypt in place in the output buffer, then MAC `IV || body`.
        let mut out = Vec::with_capacity(Self::ciphertext_len(plaintext.len()));
        out.extend_from_slice(iv);
        out.extend_from_slice(plaintext);
        AesCtr::new(&self.enc_key, iv).apply(&mut out[IV_LEN..]);
        let tag = hmac_sha256(&self.mac_key, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Encrypt `plaintext` under a fresh random IV.
    #[must_use]
    pub fn seal(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; IV_LEN];
        crate::os_random(&mut iv);
        self.seal_with_iv(&iv, plaintext)
    }

    /// Verify and decrypt a ciphertext produced by [`EtmKey::seal`].
    ///
    /// # Errors
    /// [`CryptoError::CiphertextTooShort`] if framing is impossible, and
    /// [`CryptoError::TagMismatch`] if authentication fails.
    pub fn open(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() < MIN_CT_LEN {
            return Err(CryptoError::CiphertextTooShort {
                min: MIN_CT_LEN,
                got: ciphertext.len(),
            });
        }
        let (iv, rest) = ciphertext.split_at(IV_LEN);
        let (body, tag) = rest.split_at(rest.len() - TAG_LEN);

        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(iv);
        mac.update(body);
        if !mac.verify(tag) {
            return Err(CryptoError::TagMismatch);
        }

        let iv_arr: [u8; IV_LEN] = iv.try_into().expect("split_at gives exact length");
        let mut plaintext = body.to_vec();
        AesCtr::new(&self.enc_key, &iv_arr).apply(&mut plaintext);
        Ok(plaintext)
    }

    /// Ciphertext length for a plaintext of `len` bytes.
    #[must_use]
    pub const fn ciphertext_len(len: usize) -> usize {
        IV_LEN + len + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EtmKey {
        EtmKey::new(&[0x42u8; 32])
    }

    #[test]
    fn seal_open_round_trip() {
        let k = key();
        for len in [0usize, 1, 16, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = k.seal(&pt);
            assert_eq!(ct.len(), EtmKey::ciphertext_len(len));
            assert_eq!(k.open(&ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_body_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        ct[IV_LEN] ^= 0x01;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn tampered_iv_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        ct[0] ^= 0x01;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        let last = ct.len() - 1;
        ct[last] ^= 0x80;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn truncated_ciphertext_rejected() {
        let k = key();
        let ct = k.seal(b"hello");
        assert!(matches!(
            k.open(&ct[..MIN_CT_LEN - 1]),
            Err(CryptoError::CiphertextTooShort { .. })
        ));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = key();
        let k2 = EtmKey::new(&[0x43u8; 32]);
        let ct = k1.seal(b"secret");
        assert_eq!(k2.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn random_ivs_randomize_ciphertexts() {
        let k = key();
        let c1 = k.seal(b"same plaintext");
        let c2 = k.seal(b"same plaintext");
        assert_ne!(c1, c2, "IND-CPA requires randomized encryption");
    }

    /// Pinned output: sealed bytes are part of the wire and on-disk
    /// formats, so they must not depend on which AES/SHA-256 code ran.
    #[test]
    fn seal_with_iv_known_answer() {
        let pt: Vec<u8> = (0..40u16).map(|i| (i * 7 % 251) as u8).collect();
        let ct = key().seal_with_iv(&[7u8; IV_LEN], &pt);
        let hex: String = ct.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "070707070707070707070707\
             9e6f1a6193aa750817e85bb93ddc51b30b776e33d1ca7bf132b72c08835768a00bd9d1f16ee42908\
             191f1139b859e8a813120e51f679a58d06aeae9d2ea5ca7cc3fefdca00c0ea30"
        );
        assert_eq!(key().open(&ct).unwrap(), pt);
    }

    #[test]
    fn deterministic_with_fixed_iv() {
        let k = key();
        let iv = [7u8; IV_LEN];
        assert_eq!(k.seal_with_iv(&iv, b"x"), k.seal_with_iv(&iv, b"x"));
    }
}
