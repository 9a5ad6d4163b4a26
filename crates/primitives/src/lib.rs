//! # sse-primitives
//!
//! From-scratch cryptographic primitives backing the reproduction of
//! *Adaptively Secure Computationally Efficient Searchable Symmetric
//! Encryption* (Sedghi, van Liesdonk, Doumen, Hartel, Jonker — SDM@VLDB 2010).
//!
//! The paper's constructions are parameterised by five abstract primitives;
//! this crate provides a concrete, dependency-free instantiation of each:
//!
//! | Paper object | Instantiation here | Module |
//! |---|---|---|
//! | PRF `f`, `f'` | HMAC-SHA-256 | [`hmac`], [`prf`] |
//! | PRG `G` | ChaCha20 keystream | [`chacha20`], [`prg`] |
//! | PRP `E` (block cipher) | AES-128, plus AES-CTR + HMAC encrypt-then-MAC | [`aes`], [`ctr`], [`etm`] |
//! | IND-CPA trapdoor permutation `F` | ElGamal over RFC 3526 MODP groups | [`elgamal`], [`modp`], [`bignum`] |
//! | hash chain `h^l` (Lamport) | SHA-256 chain | [`hashchain`] |
//!
//! Supporting machinery: a deterministic HMAC-DRBG ([`drbg`]), an HKDF-style
//! key-derivation function ([`kdf`]) and constant-time helpers ([`ct`]).
//!
//! ## Security caveat
//!
//! These implementations follow the published algorithms (FIPS 180-4,
//! FIPS 197, RFC 2104, RFC 8439) and pass the official test vectors, but they
//! exist to reproduce a research paper's *cost model and functionality*, not
//! to protect production data. Use a vetted crypto library for real systems.
//!
//! In particular the portable AES indexes its S-box table with secret
//! bytes (key and state), so its memory access pattern — and thus its cache
//! timing — depends on the key. On x86_64 CPUs with AES-NI, block
//! encryption runs in hardware instead, which has no secret-dependent table
//! lookups; the portable key schedule and decryption are still table-based.
//!
//! The ElGamal arithmetic has the same kind of leak. The variable-base
//! ladder ([`bignum::Montgomery::pow`]) follows a regular schedule — four
//! squarings and one table multiply per 4-bit window, whatever the digit —
//! and each Montgomery product ends in a branch-free subtraction. But the
//! table entry it loads is indexed by the secret digit, and its window
//! count follows the exponent's bit length. The fixed-base tables
//! ([`bignum::FixedBase`]) index by digit too, and skip zero digits.
//!
//! ## Hardware kernels
//!
//! On x86_64, SHA-256 compression and AES-128 encryption run on SHA-NI and
//! AES-NI when the CPU has them, checked at run time; otherwise, and on
//! every other target, the portable code runs. Both compute the same
//! function, so outputs never depend on the CPU. The kernels live in the
//! private `accel` module, the only place the crate allows `unsafe`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The only `unsafe` in the crate: run-time-selected SHA-NI / AES-NI kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod accel;
pub mod aes;
pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod elgamal;
pub mod error;
pub mod etm;
pub mod hashchain;
pub mod hmac;
pub mod kdf;
pub mod modp;
pub mod prf;
pub mod prg;
pub mod sha256;

pub use error::{CryptoError, Result};

/// Number of bytes in the digest / PRF output used throughout the workspace.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte secret key, the unit of keying material in the paper
/// (`k_m`, `k_w` are each drawn from `{0,1}^s` with `s = 256`).
pub type Key256 = [u8; 32];

/// Fill a buffer with operating-system entropy.
///
/// This is the only place the crate touches an external randomness source;
/// everything else is deterministic given its inputs.
pub fn os_random(buf: &mut [u8]) {
    use rand::Rng;
    rand::rng().fill_bytes(buf);
}

/// Sample a fresh 32-byte key from OS entropy.
pub fn random_key() -> Key256 {
    let mut k = [0u8; 32];
    os_random(&mut k);
    k
}
