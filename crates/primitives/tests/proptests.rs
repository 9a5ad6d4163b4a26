//! Property-based tests for the cryptographic primitives: algebraic laws
//! for the big-integer arithmetic, round-trip laws for every cipher layer,
//! and structural invariants of the chain/KDF machinery.

use proptest::prelude::*;
use sse_primitives::aes::Aes128;
use sse_primitives::bignum::{BigUint, FixedBase, Montgomery};
use sse_primitives::chacha20::prg_expand;
use sse_primitives::ct;
use sse_primitives::ctr::{ctr_decrypt, ctr_encrypt};
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::{ElGamal, ElGamalCiphertext};
use sse_primitives::error::CryptoError;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::HashChain;
use sse_primitives::hmac::hmac_sha256;
use sse_primitives::modp::ModpGroup;
use sse_primitives::sha256::{sha256, Sha256};

fn biguint(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..=max_bytes)
        .prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- big integers ------------------------------------------------------

    #[test]
    fn bytes_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, back);
    }

    #[test]
    fn addition_is_commutative_and_associative(
        a in biguint(48), b in biguint(48), c in biguint(48)
    ) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn subtraction_inverts_addition(a in biguint(48), b in biguint(48)) {
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.add(&b).sub(&a), b);
    }

    #[test]
    fn multiplication_laws(a in biguint(32), b in biguint(32), c in biguint(32)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        // Distributivity: a*(b+c) = a*b + a*c.
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.mul(&BigUint::one()), a.clone());
        prop_assert!(a.mul(&BigUint::zero()).is_zero());
    }

    #[test]
    fn division_reconstructs(a in biguint(48), b in biguint(24)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_big(&b) == std::cmp::Ordering::Less);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two(a in biguint(32), s in 0usize..100) {
        let shifted = a.shl(s);
        prop_assert_eq!(shifted.shr(s), a.clone());
        // shl by s multiplies by 2^s.
        let two_s = BigUint::one().shl(s);
        prop_assert_eq!(shifted, a.mul(&two_s));
    }

    #[test]
    fn mod_pow_respects_exponent_addition(
        base in biguint(16), e1 in 0u64..300, e2 in 0u64..300, m in biguint(16)
    ) {
        prop_assume!(m.bit_len() >= 2);
        // base^(e1+e2) = base^e1 * base^e2 (mod m)
        let lhs = base.mod_pow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = base
            .mod_pow(&BigUint::from_u64(e1), &m)
            .mod_mul(&base.mod_pow(&BigUint::from_u64(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint(24), seed in 0u64..1000) {
        // Work modulo a fixed odd prime (2^89 - 1 is prime).
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        let _ = seed;
        let a = a.rem(&p);
        prop_assume!(!a.is_zero());
        let inv = a.mod_inverse(&p).unwrap();
        prop_assert!(a.mod_mul(&inv, &p).is_one());
    }

    #[test]
    fn montgomery_and_plain_modmul_agree(
        a in biguint(32), b in biguint(32), m in biguint(32)
    ) {
        prop_assume!(m.bit_len() >= 2 && !m.is_even());
        // mod_pow with exponent 1 exercises the Montgomery path; multiply
        // manually for the reference.
        let prod_ref = a.rem(&m).mod_mul(&b.rem(&m), &m);
        // (a*b)^1 mod m via mod_pow:
        let prod_mont = a.mul(&b).mod_pow(&BigUint::from_u64(1), &m);
        prop_assert_eq!(prod_ref, prod_mont);
    }

    // ---- hashing -----------------------------------------------------------

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        split in 0usize..2048
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        k1 in prop::collection::vec(any::<u8>(), 1..64),
        k2 in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    // ---- ciphers -----------------------------------------------------------

    #[test]
    fn aes_decrypt_inverts_encrypt(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt(&aes.encrypt(&block)), block);
    }

    #[test]
    fn ctr_round_trip(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 12]>(),
        pt in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(ctr_decrypt(&key, &iv, &ctr_encrypt(&key, &iv, &pt)), pt);
    }

    #[test]
    fn etm_round_trip_and_tamper_detection(
        master in any::<[u8; 32]>(),
        pt in prop::collection::vec(any::<u8>(), 0..256),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let k = EtmKey::new(&master);
        let ct = k.seal(&pt);
        prop_assert_eq!(k.open(&ct).unwrap(), pt);
        // Any single bit flip anywhere must be rejected.
        let mut tampered = ct.clone();
        let pos = flip_byte % tampered.len();
        tampered[pos] ^= 1 << flip_bit;
        prop_assert!(k.open(&tampered).is_err());
    }

    #[test]
    fn prg_mask_is_involutive(
        seed in any::<[u8; 32]>(),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mask = prg_expand(&seed, data.len());
        let once = ct::xor(&data, &mask);
        let twice = ct::xor(&once, &mask);
        prop_assert_eq!(twice, data);
    }

    // ---- constant-time helpers ---------------------------------------------

    #[test]
    fn ct_eq_agrees_with_slice_eq(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct::ct_eq(&a, &b), a == b);
    }

    // ---- hash chains -------------------------------------------------------

    #[test]
    fn chain_checkpointing_is_transparent(
        material in prop::collection::vec(any::<u8>(), 1..32),
        length in 1usize..200,
        ctr in 0u64..200,
    ) {
        let ctr = ctr.min(length as u64);
        let plain = HashChain::new(&[&material], length);
        let pebbled = HashChain::with_checkpoints(&[&material], length);
        prop_assert_eq!(
            plain.key_for_counter(ctr).unwrap(),
            pebbled.key_for_counter(ctr).unwrap()
        );
    }

    // ---- DRBG --------------------------------------------------------------

    #[test]
    fn drbg_streams_are_deterministic_and_seed_separated(s1 in any::<u64>(), s2 in any::<u64>()) {
        let mut a1 = HmacDrbg::from_u64(s1);
        let mut a2 = HmacDrbg::from_u64(s1);
        prop_assert_eq!(a1.gen_key(), a2.gen_key());
        if s1 != s2 {
            let mut b = HmacDrbg::from_u64(s2);
            let mut fresh = HmacDrbg::from_u64(s1);
            prop_assert_ne!(fresh.gen_key(), b.gen_key());
        }
    }
}

/// A random odd modulus of exactly `limbs` 64-bit limbs. The top limb has
/// a random bit length, so single-limb moduli reach down to 3 — or, one
/// time in four, is all ones like the RFC 3526 primes, which drives the
/// Montgomery product into its carry limb.
fn odd_modulus(limbs: usize, drbg: &mut HmacDrbg) -> BigUint {
    let mut bytes = vec![0u8; limbs * 8];
    drbg.fill(&mut bytes);
    let top_bits = 2 + drbg.gen_range(63) as u32;
    let top = u64::from_be_bytes(bytes[..8].try_into().unwrap());
    let top = if drbg.gen_range(4) == 0 {
        u64::MAX
    } else {
        (top & (u64::MAX >> (64 - top_bits))) | (1 << (top_bits - 1))
    };
    bytes[..8].copy_from_slice(&top.to_be_bytes());
    *bytes.last_mut().unwrap() |= 1;
    BigUint::from_bytes_be(&bytes)
}

/// A uniformly random value of up to `bits` bits.
fn random_bits(bits: usize, drbg: &mut HmacDrbg) -> BigUint {
    BigUint::random_below(drbg, &BigUint::one().shl(bits))
}

/// `2^bits - 1`.
fn all_ones(bits: usize) -> BigUint {
    BigUint::one().shl(bits).sub(&BigUint::one())
}

/// `mod_pow` and `Montgomery::{pow, mul}` against the division-based
/// oracle, over edge and random bases (reduced or not) and exponents.
fn check_pow_against_oracle(m: &BigUint, drbg: &mut HmacDrbg) {
    let bits = m.bit_len();
    let bases = [
        BigUint::zero(),
        BigUint::one(),
        m.sub(&BigUint::one()),
        BigUint::random_below(drbg, m),
        // Unreduced: in [m, 2m) and twice the modulus's width.
        m.add(&BigUint::random_below(drbg, m)),
        random_bits(2 * bits, drbg),
    ];
    let exponents = [
        BigUint::zero(),
        BigUint::one(),
        all_ones(1 + drbg.gen_range(130) as usize),
        random_bits(1 + drbg.gen_range(130) as usize, drbg),
    ];
    let ctx = Montgomery::new(m);
    for base in &bases {
        for exp in &exponents {
            let want = base.mod_pow_plain(exp, m);
            assert_eq!(base.mod_pow(exp, m), want, "{base:?}^{exp:?} mod {m:?}");
            assert_eq!(ctx.pow(base, exp), want, "{base:?}^{exp:?} mod {m:?}");
        }
        assert_eq!(ctx.mul(base, &bases[3]), base.mod_mul(&bases[3], m));
    }
}

// Differential tests of the Montgomery kernel against the division-based
// `mod_pow_plain` oracle. Fewer cases than above: the oracle is slow on
// wide moduli in debug builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn montgomery_pow_matches_plain_oracle(limbs in 1usize..=33, seed in any::<u64>()) {
        let mut drbg = HmacDrbg::from_u64(seed);
        // Every case also covers 4 limbs, the width with its own kernel.
        for limbs in [limbs, 4] {
            check_pow_against_oracle(&odd_modulus(limbs, &mut drbg), &mut drbg);
        }
    }

    #[test]
    fn montgomery_pow_takes_exponents_longer_than_the_modulus(
        limbs in 1usize..=3, extra in 1usize..=130, seed in any::<u64>()
    ) {
        let mut drbg = HmacDrbg::from_u64(seed);
        let m = odd_modulus(limbs, &mut drbg);
        let base = BigUint::random_below(&mut drbg, &m);
        for exp in [
            random_bits(m.bit_len() + extra, &mut drbg),
            all_ones(m.bit_len() + extra),
        ] {
            prop_assert_eq!(base.mod_pow(&exp, &m), base.mod_pow_plain(&exp, &m));
        }
    }

    #[test]
    fn fixed_base_matches_oracle_within_and_past_its_table(
        limbs in 1usize..=8, table_bits in 1usize..=96, seed in any::<u64>()
    ) {
        let mut drbg = HmacDrbg::from_u64(seed);
        let m = odd_modulus(limbs, &mut drbg);
        // The table reduces an unreduced base itself.
        let base = random_bits(m.bit_len() + 8, &mut drbg);
        let fb = FixedBase::new(&base, &m, table_bits);
        let covered = table_bits.div_ceil(4) * 4;
        for exp in [
            BigUint::zero(),
            BigUint::one(),
            all_ones(covered),
            random_bits(covered, &mut drbg),
            // Past the table: the generic ladder takes over.
            all_ones(covered + 1),
            random_bits(covered + 1 + drbg.gen_range(70) as usize, &mut drbg),
        ] {
            prop_assert_eq!(fb.pow(&exp), base.mod_pow_plain(&exp, &m));
        }
    }

    #[test]
    fn elgamal_decryption_matches_the_inverse_oracle(key_seed in any::<u64>(), seed in any::<u64>()) {
        let group = ModpGroup::modp_256();
        let p = group.p.clone();
        let eg = ElGamal::keygen(group.clone(), &mut HmacDrbg::from_u64(key_seed));
        // keygen's first draw is the secret exponent: replay it.
        let x = group.random_exponent(&mut HmacDrbg::from_u64(key_seed));
        prop_assert_eq!(group.g.mod_pow_plain(&x, &p), eg.public().clone());

        let mut drbg = HmacDrbg::from_u64(seed);
        let one = BigUint::one();
        let c1 = BigUint::random_range(&mut drbg, &one, &p);
        let c2 = BigUint::random_range(&mut drbg, &one, &p);
        let s_inv = c1.mod_pow_plain(&x, &p).mod_inverse(&p).unwrap();
        let want = c2.mod_mul(&s_inv, &p);
        let ct = ElGamalCiphertext { c1: c1.clone(), c2: c2.clone() };
        prop_assert_eq!(eg.decrypt_element(&ct).unwrap(), want);

        // Components outside [1, p) are still rejected, either side.
        let above = p.add(&BigUint::random_below(&mut drbg, &p));
        for (c1, c2) in [
            (BigUint::zero(), c2.clone()),
            (above.clone(), c2.clone()),
            (p.clone(), c2.clone()),
            (c1.clone(), BigUint::zero()),
            (c1, above),
        ] {
            prop_assert_eq!(
                eg.decrypt_element(&ElGamalCiphertext { c1, c2 }),
                Err(CryptoError::OutOfRange("ciphertext component"))
            );
        }
    }
}
