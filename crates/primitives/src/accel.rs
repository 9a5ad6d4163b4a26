//! x86_64 hardware kernels: SHA-NI compression and AES-NI encryption.
//!
//! This is the only module of the crate allowed to use `unsafe`. Each
//! kernel is reached through a zero-sized token — [`ShaNi`] or [`AesNi`] —
//! that only `detect` can construct, and `detect` returns one only after
//! `is_x86_feature_detected!` confirmed at run time every CPU feature the
//! kernel's `#[target_feature]` list enables. Holding a token is therefore
//! the proof each `unsafe` call site relies on. Nothing else selects a
//! kernel: a CPU without the features (or a non-x86_64 target, where this
//! module is not compiled) runs the portable code in `sha256.rs` and
//! `aes.rs`, which also serves as the test oracle for these kernels.
//!
//! Both kernels compute exactly the functions of their portable
//! counterparts (FIPS 180-4 compression, FIPS 197 encryption with the same
//! round keys), so digests, ciphertexts and tags do not depend on which
//! path produced them.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_alignr_epi8,
    _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::{RoundKeys, BLOCK_LEN as AES_BLOCK_LEN};
use crate::sha256::{BLOCK_LEN as SHA_BLOCK_LEN, K};

/// Number of blocks [`AesNi::encrypt_blocks`] keeps in flight at once:
/// `aesenc` has a latency of several cycles but a throughput of about one
/// per cycle, so eight independent blocks keep the unit busy.
const AES_LANES: usize = 8;

/// Proof that the CPU supports the SHA-NI kernel (`sha`, `sse2`, `ssse3`,
/// `sse4.1`).
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// The token, if this CPU has every feature the kernel needs.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        let ok = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        ok.then_some(ShaNi(()))
    }

    /// Run the SHA-256 compression function over every whole 64-byte
    /// block of `blocks`, in order, keeping the state in registers between
    /// blocks.
    #[inline]
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `self` exists only because `ShaNi::detect` found sha,
        // sse2, ssse3 and sse4.1 on this CPU — the kernel's whole
        // `target_feature` list.
        unsafe { sha256_blocks(state, blocks) }
    }
}

/// Proof that the CPU supports the AES-NI kernel (`aes`, `sse2`).
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    /// The token, if this CPU has every feature the kernel needs.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        let ok = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2");
        ok.then_some(AesNi(()))
    }

    /// Encrypt one block in place under the FIPS 197 round keys `rk`.
    #[inline]
    pub(crate) fn encrypt_block(self, rk: &RoundKeys, block: &mut [u8; AES_BLOCK_LEN]) {
        // SAFETY: `self` exists only because `AesNi::detect` found aes and
        // sse2 on this CPU, the kernel's whole `target_feature` list.
        unsafe { aes128_encrypt_block(rk, block) }
    }

    /// Encrypt independent blocks in place, [`AES_LANES`] at a time,
    /// interleaved so their round chains overlap in the pipeline.
    #[inline]
    pub(crate) fn encrypt_blocks(self, rk: &RoundKeys, blocks: &mut [[u8; AES_BLOCK_LEN]]) {
        // SAFETY: `self` exists only because `AesNi::detect` found aes and
        // sse2 on this CPU, the kernel's whole `target_feature` list.
        unsafe { aes128_encrypt_blocks(rk, blocks) }
    }
}

/// Byte shuffle turning four big-endian message words into little-endian
/// lanes.
const BSWAP32: (i64, i64) = (0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

/// SHA-NI SHA-256 compression over every whole 64-byte block of `blocks`.
///
/// # Safety
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let mask = _mm_set_epi64x(BSWAP32.0, BSWAP32.1);

    // The round instructions want the state as ABEF / CDGH lane pairs.
    let dcba = _mm_loadu_si128(state[0..4].as_ptr().cast::<__m128i>());
    let hgfe = _mm_loadu_si128(state[4..8].as_ptr().cast::<__m128i>());
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(SHA_BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

        // Four rounds of group `$j` on message words `$w` (W[4j..4j+4]).
        // Each `sha256rnds2` runs two rounds; after them the old ABEF is
        // the new CDGH, so the two registers swap roles and swap back.
        macro_rules! rounds4 {
            ($w:expr, $j:expr) => {{
                let k = _mm_loadu_si128(K[4 * $j..4 * $j + 4].as_ptr().cast::<__m128i>());
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // Message schedule: W[t..t+4] into `$w16` (which held W[t-16..]),
        // from W[t-16..], W[t-12..], W[t-8..] and W[t-4..]; then its rounds.
        macro_rules! schedule_rounds4 {
            ($w16:ident, $w12:ident, $w8:ident, $w4:ident, $j:expr) => {{
                let s = _mm_add_epi32(
                    _mm_sha256msg1_epu32($w16, $w12),
                    _mm_alignr_epi8::<4>($w4, $w8),
                );
                $w16 = _mm_sha256msg2_epu32(s, $w4);
                rounds4!($w16, $j);
            }};
        }

        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0, w1, w2, w3, 4);
        schedule_rounds4!(w1, w2, w3, w0, 5);
        schedule_rounds4!(w2, w3, w0, w1, 6);
        schedule_rounds4!(w3, w0, w1, w2, 7);
        schedule_rounds4!(w0, w1, w2, w3, 8);
        schedule_rounds4!(w1, w2, w3, w0, 9);
        schedule_rounds4!(w2, w3, w0, w1, 10);
        schedule_rounds4!(w3, w0, w1, w2, 11);
        schedule_rounds4!(w0, w1, w2, w3, 12);
        schedule_rounds4!(w1, w2, w3, w0, 13);
        schedule_rounds4!(w2, w3, w0, w1, 14);
        schedule_rounds4!(w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    _mm_storeu_si128(state[0..4].as_mut_ptr().cast::<__m128i>(), dcba);
    _mm_storeu_si128(state[4..8].as_mut_ptr().cast::<__m128i>(), hgfe);
}

/// Load the eleven AES-128 round keys. AES-NI takes them in the FIPS 197
/// byte order the portable key schedule already produces.
///
/// # Safety
/// The CPU must support `sse2`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load_round_keys(rk: &RoundKeys) -> [__m128i; 11] {
    core::array::from_fn(|r| _mm_loadu_si128(rk[r].as_ptr().cast::<__m128i>()))
}

/// AES-NI AES-128 encryption of one block.
///
/// # Safety
/// The CPU must support `aes` and `sse2`.
#[target_feature(enable = "aes,sse2")]
unsafe fn aes128_encrypt_block(rk: &RoundKeys, block: &mut [u8; AES_BLOCK_LEN]) {
    let k = load_round_keys(rk);
    let mut s = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast::<__m128i>()), k[0]);
    for key in &k[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    s = _mm_aesenclast_si128(s, k[10]);
    _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), s);
}

/// AES-NI AES-128 encryption of any number of blocks, [`AES_LANES`] at a
/// time, round by round across the group.
///
/// # Safety
/// The CPU must support `aes` and `sse2`.
#[target_feature(enable = "aes,sse2")]
unsafe fn aes128_encrypt_blocks(rk: &RoundKeys, blocks: &mut [[u8; AES_BLOCK_LEN]]) {
    let k = load_round_keys(rk);
    for group in blocks.chunks_mut(AES_LANES) {
        let mut s = [k[0]; AES_LANES];
        for (lane, block) in s.iter_mut().zip(group.iter()) {
            *lane = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast::<__m128i>()), k[0]);
        }
        // All lanes run even in a short last group: a fixed trip count lets
        // the compiler unroll the lanes into independent chains.
        for key in &k[1..10] {
            for lane in &mut s {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        for (lane, block) in s.iter().zip(group.iter_mut()) {
            let out = _mm_aesenclast_si128(*lane, k[10]);
            _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), out);
        }
    }
}

/// Hardware against portable: the portable code is the oracle, and on a
/// CPU with SHA-NI and AES-NI these tests are what still run it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{encrypt_block_portable, Aes128};
    use crate::ctr::{ctr_encrypt, AesCtr, IV_LEN};
    use crate::sha256::{compress_blocks_portable, sha256, Sha256, DIGEST_LEN, H0};
    use proptest::prelude::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// FIPS 180-4 padding of `msg`, as whole blocks.
    fn padded(msg: &[u8]) -> Vec<u8> {
        let mut m = msg.to_vec();
        m.push(0x80);
        while m.len() % SHA_BLOCK_LEN != SHA_BLOCK_LEN - 8 {
            m.push(0);
        }
        m.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        m
    }

    fn digest_with(compress: impl Fn(&mut [u32; 8], &[u8]), msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut state = H0;
        compress(&mut state, &padded(msg));
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn sha256_portable(msg: &[u8]) -> [u8; DIGEST_LEN] {
        digest_with(compress_blocks_portable, msg)
    }

    /// The SHA-NI kernel called directly, bypassing dispatch.
    fn sha256_hw(ni: ShaNi, msg: &[u8]) -> [u8; DIGEST_LEN] {
        digest_with(|s, b| ni.compress_blocks(s, b), msg)
    }

    /// Round keys of `key`, from the portable key schedule both paths share.
    fn round_keys(key: &[u8; 16]) -> RoundKeys {
        *Aes128::new(key).round_keys()
    }

    fn aes_portable(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        encrypt_block_portable(&round_keys(key), &mut b);
        b
    }

    /// CTR from single portable block encryptions: the oracle for the
    /// batched, streaming `AesCtr`.
    fn ctr_portable(key: &[u8; 16], iv: &[u8; IV_LEN], first: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        for (i, chunk) in out.chunks_mut(16).enumerate() {
            let mut counter = [0u8; 16];
            counter[..IV_LEN].copy_from_slice(iv);
            counter[IV_LEN..].copy_from_slice(&(first + i as u32).to_be_bytes());
            for (d, k) in chunk.iter_mut().zip(aes_portable(key, &counter)) {
                *d ^= k;
            }
        }
        out
    }

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
    const SP800_38A_PLAINTEXT: [&str; 4] = [
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ];

    /// FIPS 180-4 example messages and their digests.
    #[test]
    fn fips180_4_vectors_on_both_paths() {
        let million_a = vec![b'a'; 1_000_000];
        let cases: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in cases {
            assert_eq!(hex(&sha256_portable(msg)), want, "portable");
            assert_eq!(hex(&sha256(msg)), want, "dispatch");
            if let Some(ni) = ShaNi::detect() {
                assert_eq!(hex(&sha256_hw(ni, msg)), want, "SHA-NI");
            }
        }
    }

    /// FIPS 197 Appendix B and C.1, and the SP 800-38A F.1.1 ECB blocks.
    #[test]
    fn fips197_and_sp800_38a_ecb_vectors_on_both_paths() {
        let mut cases = vec![
            (
                unhex::<16>(SP800_38A_KEY),
                unhex::<16>("3243f6a8885a308d313198a2e0370734"),
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                unhex::<16>("000102030405060708090a0b0c0d0e0f"),
                unhex::<16>("00112233445566778899aabbccddeeff"),
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ];
        let ecb = [
            "3ad77bb40d7a3660a89ecaf32466ef97",
            "f5d3d58503b9699de785895a96fdbaaf",
            "43b1cd7f598ece23881b00e3ed030688",
            "7b0c785e27e8ad3f8223207104725dd4",
        ];
        for (pt, ct) in SP800_38A_PLAINTEXT.iter().zip(ecb) {
            cases.push((unhex(SP800_38A_KEY), unhex(pt), ct));
        }
        for (key, pt, want) in &cases {
            assert_eq!(hex(&aes_portable(key, pt)), *want, "portable");
            assert_eq!(hex(&Aes128::new(key).encrypt(pt)), *want, "dispatch");
            if let Some(ni) = AesNi::detect() {
                let mut b = *pt;
                ni.encrypt_block(&round_keys(key), &mut b);
                assert_eq!(hex(&b), *want, "AES-NI");
            }
        }
        // The four ECB blocks as one interleaved batch.
        if let Some(ni) = AesNi::detect() {
            let mut blocks: Vec<[u8; 16]> = SP800_38A_PLAINTEXT.iter().map(|p| unhex(p)).collect();
            ni.encrypt_blocks(&round_keys(&unhex(SP800_38A_KEY)), &mut blocks);
            let got: Vec<String> = blocks.iter().map(|b| hex(b)).collect();
            assert_eq!(got, ecb, "AES-NI batch");
        }
    }

    /// SP 800-38A F.5.1 CTR-AES128: initial counter block
    /// `f0f1..fcfdfeff`, i.e. IV `f0..fb` and block counter `0xfcfdfeff`.
    #[test]
    fn sp800_38a_ctr_vector_on_both_paths() {
        let key = unhex::<16>(SP800_38A_KEY);
        let iv = unhex::<IV_LEN>("f0f1f2f3f4f5f6f7f8f9fafb");
        let pt: Vec<u8> = SP800_38A_PLAINTEXT
            .iter()
            .flat_map(|p| unhex::<16>(p))
            .collect();
        let want = "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee";
        assert_eq!(
            hex(&ctr_portable(&key, &iv, 0xfcfd_feff, &pt)),
            want,
            "portable"
        );
        let mut data = pt.clone();
        AesCtr::new(&key, &iv)
            .starting_at_block(0xfcfd_feff)
            .apply(&mut data);
        assert_eq!(hex(&data), want, "dispatch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sha256_update_at_random_splits_matches_portable(
            msg in prop::collection::vec(any::<u8>(), 0..=300),
            cuts in prop::collection::vec(0usize..=300, 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(msg.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([msg.len()]) {
                h.update(&msg[at..cut]);
                at = cut;
            }
            let want = sha256_portable(&msg);
            prop_assert_eq!(h.finalize(), want);
            if let Some(ni) = ShaNi::detect() {
                prop_assert_eq!(sha256_hw(ni, &msg), want);
            }
        }

        #[test]
        fn aes_block_matches_portable(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let want = aes_portable(&key, &block);
            prop_assert_eq!(Aes128::new(&key).encrypt(&block), want);
        }

        #[test]
        fn aes_batch_matches_portable(
            key in any::<[u8; 16]>(),
            blocks in prop::collection::vec(any::<[u8; 16]>(), 0..=20),
        ) {
            let want: Vec<[u8; 16]> = blocks.iter().map(|b| aes_portable(&key, b)).collect();
            let mut got = blocks.clone();
            Aes128::new(&key).encrypt_blocks(&mut got);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn ctr_matches_portable_at_any_length_and_split(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 12]>(),
            pt in prop::collection::vec(any::<u8>(), 0..600),
            cut in 0usize..600,
        ) {
            let want = ctr_portable(&key, &iv, 0, &pt);
            prop_assert_eq!(&ctr_encrypt(&key, &iv, &pt), &want);
            let mut data = pt.clone();
            let (a, b) = data.split_at_mut(cut.min(pt.len()));
            let mut ctr = AesCtr::new(&key, &iv);
            ctr.apply(a);
            ctr.apply(b);
            prop_assert_eq!(data, want);
        }
    }
}
