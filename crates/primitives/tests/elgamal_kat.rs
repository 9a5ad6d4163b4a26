//! Known-answer tests for the ElGamal trapdoor `F` on all three groups.
//!
//! Each case seeds an `HmacDrbg`, derives a key pair, encrypts a few fixed
//! nonces and pins every observable output: the public key, the
//! ciphertext bytes, the recovered PRG seeds and the DRBG's next output
//! after the run (so a change that draws more or less randomness — or
//! draws it in another order — fails here even if it round-trips). Each
//! case also decrypts a stored ciphertext produced by an earlier build, so
//! decryption is checked independently of the encryption path.
//!
//! Long values are pinned by their SHA-256 digest to keep the file
//! readable; seeds and the stored ciphertexts are pinned in full.

use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::{ElGamal, ElGamalCiphertext};
use sse_primitives::modp::ModpGroup;
use sse_primitives::sha256::sha256;

/// The nonces every case encrypts, in order. `0xff..` overflows the
/// 256-bit group, so it also covers the fast profile's reducing embed.
const NONCES: [[u8; 32]; 3] = [[0x00; 32], [0x5a; 32], [0xff; 32]];

struct Case {
    group: fn() -> ModpGroup,
    drbg_seed: u64,
    /// SHA-256 of the public key `y`, big-endian, padded to `element_len`.
    public_sha256: &'static str,
    /// Per nonce: SHA-256 of the serialized ciphertext, and the seed.
    encryptions: [(&'static str, &'static str); 3],
    /// The DRBG's next 32-byte output once keygen and all encryptions ran.
    drbg_after: &'static str,
    /// A ciphertext (hex) produced by an earlier build under this key,
    /// and the seed it decrypts to.
    stored: (&'static str, &'static str),
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn check(case: &Case) {
    let mut drbg = HmacDrbg::from_u64(case.drbg_seed);
    let eg = ElGamal::keygen((case.group)(), &mut drbg);
    let group = eg.group();
    let name = group.name;
    let public = eg
        .public()
        .to_bytes_be_padded(group.element_len)
        .expect("public key is a group element");
    assert_eq!(
        hex(&sha256(&public)),
        case.public_sha256,
        "{name}: public key"
    );

    for (nonce, (ct_sha256, seed)) in NONCES.iter().zip(case.encryptions) {
        let ct = eg.encrypt_nonce(nonce, &mut drbg);
        let bytes = ct.to_bytes(group);
        assert_eq!(hex(&sha256(&bytes)), ct_sha256, "{name}: ciphertext");
        assert_eq!(
            hex(&eg.decrypt_to_seed(&ct).expect("own ciphertext")),
            seed,
            "{name}: seed"
        );
    }
    assert_eq!(
        hex(&drbg.gen_key()),
        case.drbg_after,
        "{name}: DRBG draws changed"
    );

    let (stored_ct, stored_seed) = case.stored;
    let ct = ElGamalCiphertext::from_bytes(group, &unhex(stored_ct)).expect("stored ciphertext");
    assert_eq!(
        hex(&eg.decrypt_to_seed(&ct).expect("stored ciphertext decrypts")),
        stored_seed,
        "{name}: stored ciphertext"
    );
}

#[test]
fn modp_256_known_answers() {
    check(&Case {
        group: ModpGroup::modp_256,
        drbg_seed: 1401,
        public_sha256: "d2898b873ac01eabeb96c8be3e457c67c07acc36dcfe8eee91ea0c6ad30c001a",
        encryptions: [
            (
                "a7ae84141bcf0b104a6314f360dc75871761b9db93211ae361a1b47aa4a627b8",
                "386e71746377916c44d877cb6f9f8e3deca6aa438c95761210150cb9b428e95b",
            ),
            (
                "6c35e8c48b184f3a5bf1f295f7c83f2fa679a5da3fa66c2fda9d3fad8fe27e01",
                "3b9406f06a71289d7185566a38d005262c7073378321be22bc9d8239a88cdf6a",
            ),
            (
                "cf45b8807e24b46a94f200c849b051247238388c710f17dd11203578de7c3e90",
                "be536096d3eda51f3b538e7b735577bba83d652423dac3c6cd834e05614ce47b",
            ),
        ],
        drbg_after: "4e84a4dfea700e2e0339e1b8e5f9744c72121d4944ef248cba0c31f06a4d184a",
        stored: (
            "199905e5c7db5e27fecffd427a00d501a6e58fc1fc8c49aaf92d28857ee031b7\
             84577166b23998e855df386c37cfc1dc75d17645a9d4cc1caeff7c57a9c05a80",
            "bdad4e5f0e570f4b9ebcbbfbfe7f5a1ec044f82f432f62e6aa72c37ca56aaa99",
        ),
    });
}

#[test]
fn modp_1536_known_answers() {
    check(&Case {
        group: ModpGroup::modp_1536,
        drbg_seed: 1402,
        public_sha256: "4799d90527cbf86ef8146c6e8f8726e9025b26e5bbda052e3f1185abf4ff746a",
        encryptions: [
            (
                "a5ac56545f523ec44bae21119a84dfe023fa1e1b0e248e300fc2fc4754ce3f44",
                "82f359175216ac9f3c9ba79c7cffa8ce5cebcbc58f1cb9c8d5ebef504159110f",
            ),
            (
                "381eb568f45507837e018a1773157f97c36db57e8c958604133be7e3dcae545c",
                "b5ba7755b514613d7e2bbe388ca9f8003607871bfd0212889018214da2851175",
            ),
            (
                "3e0bf1afa5c70c5027075f231291fedfe773ee841258ac2a66da691db69e3f3a",
                "e2ebb991c448d4ec833f4c222af6b7f66b4a4524ac694f0dbe7ff849e9446e55",
            ),
        ],
        drbg_after: "1f08be9ff83ed0435522c5381e3d24f00db1b552c23b9f33551e9aacc8b8401f",
        stored: (
            "df1bee4e93bb49b06ac79561c3af859b95ba0bd54a993375a28fd613e9055586\
             3276738c5f706800b2b3de4d20eff549c287b2dad325a5ad1b5c71fd0e32a25e\
             814bb95c1a137731ea9aecddd29273824d4d26ce60abea7c1cd830f11bb7a83e\
             fd1093b0612d8b924262c231b3ff00f276f8478e8084424c9ba68eb4c0889d7d\
             7ee6665ed5dd770f568ec5b3cbe1a423987951592926d838629bda1e8b35ac78\
             d9aa64b7da03516cad26dbd178c87d2b8655150bbf1b849042ffd39e111f0995\
             7337c10ca52f64c6653f76383451eaa725ab8bfc18bd0b5d81cd5e6a85727960\
             f20fb7f35843c048f935f1398e80e12a6d3bf9be2ca94153bc4b2275e67b646b\
             42c280147b712dbdfec8383a7e2a42d8c072bec99fb5eb61cefac53fd3b51d14\
             7b008525b15fa947f7b310c6b7c00b3edcfb737c24008bc559165d4fac1e2292\
             e43f3d9ab65ee3c742c907a98823ed36b78bfc707dadb047fc2a5402563ca931\
             3c5a79d6c72829fc8678d2e2a709adf28a3a9a692fe2ca3e883b6604cd065b1e",
            "8c952ad24f6275cb0503fbfcbcef5061e77346b79a43d77bcbd7125e46645c03",
        ),
    });
}

#[test]
fn modp_2048_known_answers() {
    check(&Case {
        group: ModpGroup::modp_2048,
        drbg_seed: 1403,
        public_sha256: "36a26bb940d9fda43fe96a99205569584cc1b9fbf9459f1210ece06b083fee1d",
        encryptions: [
            (
                "8c2c7081f5444fe80c6e040a9af44dd98127375e92b7c15ce377b56b022bff22",
                "0b174fd26604bca28c332514a9ac13e13a7534dffb9b82d75afff1080e94fb47",
            ),
            (
                "44302012cb4dfc5d0980bd460542b2f7c44e66826fcbae498fdab3e0b80910bf",
                "ec346ab9d86b8b593f3c7f3e6b04794e3c2fa5b0d25c14616595a49825f3993b",
            ),
            (
                "cacfac383e94110cd831f1552d8e8221fd59d0928bf4e2bea89a1044fea8b7c5",
                "3ef4e48526f799ff69ec95bb3049ab2a7b49bc9dcf1ebeb27214dd82339d1d69",
            ),
        ],
        drbg_after: "c0d3f73feb9f99c7f9e4071979c272eb4cd1887acb4e7c7d27ce9f7b072098f0",
        stored: (
            "04893ed2871d19772e048f1a841e325cfa3002f9d697b0e1f6127e3d3828f4c5\
             533809077fbd1281732e4c909cfbfa5291250e864b9b3e152946cb5b579c02bd\
             bcec38594f7fe4cbfb284e239c84c399d86854a723a5a0ec92e2bbce99cb6512\
             4c9de16ce6ab79ff774a9166f4ee0141cc1d63e8b7e10b8bdc60021efd5ce1e5\
             d424adb2cb24ab38da08f5b5b87f3200a31cd39ff6042016a2cdacc017cf48bb\
             bf589bb390f9d05287c45776734963d25874cdab59a257696c1a516fdc1c0953\
             8578c264101d489cea61cd4f2991d713551b6b55e126b0cf23374fb5c35f72e9\
             ba809645536f62d36908ad315e3221e0ab40d15b4463662850b52e238340306b\
             3acf1633e09fe6139e40ac5c789c6c0bcb78fbd9e87bb0d885c7189a5f5678ce\
             106d1698a08a5331857c4833060fe7f89141280eccdfcad2ec09fc46473628e1\
             378e23c478fbf984663f1a87e7616f7e83be0f4101a4432c1181aaac16c98f40\
             d88b58b59aaccebee28fa602ee10a5a84285f668ef4acc489872a28099e05a5a\
             9c713660c7a95f588db56ebdc575200a0a64c344542ff87ac900521a5769df10\
             75053e6f95af806e52d867cb04a584939d0b53421720c6d28af99a36850e0871\
             1e4f4c93045520ec5d8fe337d584be355f93dbc738906d19d033528e4a6bbdf9\
             dae5964b17d3bdc8f2930c8c8c4a0cec7181b4cb2ce404670a510e4243f89751",
            "3e656912457911f22e24f886e5d7d622b77cb2348b12985e8d08b2129cc816c8",
        ),
    });
}
