//! AES-128 in counter (CTR) mode — NIST SP 800-38A.
//!
//! CTR turns the block cipher into a stream cipher: data items `M_i` of any
//! length are encrypted as `M XOR E_k(counter-blocks)`. The IV occupies the
//! first 12 bytes of the counter block; the last 4 bytes are a big-endian
//! block counter starting at 0 (messages are therefore limited to
//! 2^32 blocks = 64 GiB, far above anything in this workspace).

use crate::aes::{Aes128, BLOCK_LEN};

/// Length of the per-message IV in bytes.
pub const IV_LEN: usize = 12;

/// Keystream blocks produced per refill: one interleaved AES-NI batch.
const KS_BLOCKS: usize = 8;

/// AES-128-CTR keystream generator / cipher.
///
/// The keystream is one continuous stream across [`AesCtr::apply`] calls:
/// bytes of a keystream block left over by one call are used by the next,
/// so splitting a message anywhere gives the same ciphertext as one call.
pub struct AesCtr {
    aes: Aes128,
    iv: [u8; IV_LEN],
    next_block_index: u32,
    /// Keystream from the last refill; bytes `ks_used..ks_len` are unused.
    keystream: [[u8; BLOCK_LEN]; KS_BLOCKS],
    ks_len: usize,
    ks_used: usize,
}

impl AesCtr {
    /// Create a CTR instance for one message under `key` and `iv`.
    #[must_use]
    pub fn new(key: &[u8; 16], iv: &[u8; IV_LEN]) -> Self {
        AesCtr {
            aes: Aes128::new(key),
            iv: *iv,
            next_block_index: 0,
            keystream: [[0u8; BLOCK_LEN]; KS_BLOCKS],
            ks_len: 0,
            ks_used: 0,
        }
    }

    /// Start the keystream at block `index` instead of 0 (for published
    /// vectors whose initial counter block is not `IV || 0`).
    #[cfg(test)]
    pub(crate) fn starting_at_block(mut self, index: u32) -> Self {
        self.next_block_index = index;
        self
    }

    /// Replace the keystream with the next `blocks` (at most [`KS_BLOCKS`])
    /// counter blocks, encrypted in one batch.
    fn refill(&mut self, blocks: usize) {
        let batch = &mut self.keystream[..blocks];
        for block in batch.iter_mut() {
            block[..IV_LEN].copy_from_slice(&self.iv);
            block[IV_LEN..].copy_from_slice(&self.next_block_index.to_be_bytes());
            self.next_block_index = self
                .next_block_index
                .checked_add(1)
                .expect("CTR counter overflow: message too long");
        }
        self.aes.encrypt_blocks(batch);
        self.ks_len = blocks * BLOCK_LEN;
        self.ks_used = 0;
    }

    /// XOR the keystream into `data` (encrypts or decrypts).
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            if self.ks_used == self.ks_len {
                // Only as many blocks as the data still needs: a message
                // never pays for keystream past its end.
                self.refill(rest.len().div_ceil(BLOCK_LEN).min(KS_BLOCKS));
            }
            let ks = &self.keystream.as_flattened()[self.ks_used..self.ks_len];
            let take = ks.len().min(rest.len());
            let (head, tail) = core::mem::take(&mut rest).split_at_mut(take);
            for (d, k) in head.iter_mut().zip(ks) {
                *d ^= k;
            }
            self.ks_used += take;
            rest = tail;
        }
    }
}

/// Encrypt `plaintext` under (`key`, `iv`), returning a fresh ciphertext.
#[must_use]
pub fn ctr_encrypt(key: &[u8; 16], iv: &[u8; IV_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut data = plaintext.to_vec();
    AesCtr::new(key, iv).apply(&mut data);
    data
}

/// Decrypt is identical to encrypt in CTR mode; provided for readability.
#[must_use]
pub fn ctr_decrypt(key: &[u8; 16], iv: &[u8; IV_LEN], ciphertext: &[u8]) -> Vec<u8> {
    ctr_encrypt(key, iv, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// SP 800-38A F.5.1 CTR-AES128 vector, adapted: that vector uses a
    /// 16-byte initial counter `f0f1..ff`. We reproduce it by splitting the
    /// counter into IV = first 12 bytes and initial block counter
    /// 0xfcfdfeff, then checking only the first block (our block counter
    /// increments the low 32 bits just like the NIST one).
    #[test]
    fn sp800_38a_f51_first_block() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv: [u8; 12] = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
        ];
        let mut ctr = AesCtr::new(&key, &iv);
        ctr.next_block_index = 0xfcfd_feff;
        let mut block = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        ctr.apply(&mut block);
        assert_eq!(hex(&block), "874d6191b620e3261bef6864990db6ce");
    }

    #[test]
    fn round_trip_various_lengths() {
        let key = [0x11u8; 16];
        let iv = [0x22u8; 12];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = ctr_encrypt(&key, &iv, &pt);
            assert_eq!(ct.len(), pt.len());
            if len > 0 {
                assert_ne!(ct, pt, "length {len}");
            }
            assert_eq!(ctr_decrypt(&key, &iv, &ct), pt, "length {len}");
        }
    }

    #[test]
    fn distinct_ivs_give_distinct_ciphertexts() {
        let key = [0x33u8; 16];
        let pt = vec![0u8; 64];
        let c1 = ctr_encrypt(&key, &[0u8; 12], &pt);
        let c2 = ctr_encrypt(&key, &[1u8; 12], &pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [0x44u8; 16];
        let iv = [0x55u8; 12];
        let pt: Vec<u8> = (0..123u8).collect();
        let oneshot = ctr_encrypt(&key, &iv, &pt);
        // The keystream continues across calls, so every split point —
        // block-aligned or not — gives the one-shot ciphertext.
        for split in 0..=pt.len() {
            let mut data = pt.clone();
            let mut c = AesCtr::new(&key, &iv);
            let (a, b) = data.split_at_mut(split);
            c.apply(a);
            c.apply(b);
            assert_eq!(data, oneshot, "split at {split}");
        }
    }

    #[test]
    fn streaming_in_small_pieces_matches_oneshot() {
        // Many calls, each shorter than a block or straddling a refill.
        let key = [0x66u8; 16];
        let iv = [0x77u8; 12];
        let pt: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let oneshot = ctr_encrypt(&key, &iv, &pt);
        for piece in [1usize, 3, 15, 17, 127, 129] {
            let mut data = pt.clone();
            let mut c = AesCtr::new(&key, &iv);
            for chunk in data.chunks_mut(piece) {
                c.apply(chunk);
            }
            assert_eq!(data, oneshot, "pieces of {piece}");
        }
    }
}
