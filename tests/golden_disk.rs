//! On-disk golden test: the exact bytes both scheme servers write.
//!
//! For each scheme × storage backend, a fixed mutation script (single
//! updates, a cross-shard `UPDATE_MANY` batch, a checkpoint, an index
//! replacement or reset, a document removal) runs against a 2-shard
//! durable tenant through [`TenantDb::handle_shared`] and
//! [`TenantDb::apply_batch`]. The SHA-256 of every file in the tenant
//! directory is pinned twice: once with live journal records on disk, and
//! once after a final checkpoint. The directory is then reopened and
//! searched, so the pinned bytes are also proven readable.
//!
//! Every input is deterministic (fixed tags, seeds, IVs and blobs), so
//! the file bytes are a pure function of the storage formats: any change
//! to a snapshot, keyword-map run, journal, WAL or manifest encoding fails
//! this test. Each script runs twice first to prove it is deterministic.

use sse_repro::core::proto_common::{decode_ack, decode_result};
use sse_repro::core::scheme1::protocol as p1;
use sse_repro::core::scheme1::protocol::UpdateEntry;
use sse_repro::core::scheme2::key_commitment;
use sse_repro::core::scheme2::protocol as p2;
use sse_repro::core::scheme2::protocol::GenerationEntry;
use sse_repro::index::bitset::DocBitSet;
use sse_repro::net::wire::WireWriter;
use sse_repro::primitives::etm::EtmKey;
use sse_repro::primitives::hashchain::HashChain;
use sse_repro::primitives::prg::Prg;
use sse_repro::primitives::sha256::sha256;
use sse_repro::server::tenant::{TenantDb, TenantParams, TenantRegistry};
use sse_repro::server::SchemeId;
use sse_repro::storage::{BackendKind, RealVfs};
use std::path::{Path, PathBuf};

const CAPACITY: u64 = 64;
const CHAIN: u64 = 64;
const TENANT: &str = "golden";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry(root: &Path, backend: BackendKind) -> TenantRegistry {
    let params = TenantParams {
        scheme1_capacity: CAPACITY,
        scheme2_chain_length: CHAIN,
        shards: 2,
        group_commit: true,
        backend,
    };
    TenantRegistry::durable(params, root.to_path_buf(), RealVfs::arc())
}

/// A tag routed to shard `tag[1] % 2` of a 2-shard index.
fn tag(i: u8) -> [u8; 32] {
    let mut t = [0u8; 32];
    t[0] = 0xA0;
    t[1] = i;
    t[2] = i.wrapping_mul(17);
    t
}

fn blob(id: u64) -> Vec<u8> {
    format!("golden blob {id}").into_bytes()
}

fn ack(resp: &[u8]) {
    decode_ack(resp).expect("scheme server acknowledged");
}

/// Every file under `root`, as sorted `relative/path sha256` lines.
fn listing(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut out = String::new();
    for path in files {
        let digest = sha256(&std::fs::read(&path).unwrap());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        let rel = path.strip_prefix(root).unwrap().display().to_string();
        out.push_str(&format!("{rel} {hex}\n"));
    }
    out
}

fn open(reg: &TenantRegistry, scheme: SchemeId) -> std::sync::Arc<TenantDb> {
    reg.get_or_create(TENANT, scheme).expect("tenant opens")
}

// ---- Scheme 1 ---------------------------------------------------------------

fn masked(seed: &[u8; 32], ids: &[u64]) -> Vec<u8> {
    Prg::mask(seed, DocBitSet::from_ids(CAPACITY as usize, ids).as_bytes())
}

fn update(t: u8, seed: &[u8; 32], ids: &[u64]) -> UpdateEntry {
    UpdateEntry {
        tag: tag(t),
        delta: masked(seed, ids),
        f_r: vec![t, 0xF0],
    }
}

/// Final posting set per tag after [`scheme1_script`], searched with
/// `SEED_B`.
const S1_EXPECT: &[(u8, &[u64])] = &[
    (0, &[0, 1, 6]),
    (1, &[2]),
    (2, &[3, 4]),
    (3, &[7]),
    (4, &[5]),
];
const SEED_A: [u8; 32] = [0x11; 32];
const SEED_B: [u8; 32] = [0x22; 32];

/// Run the Scheme 1 script; returns the listing with live journals and
/// the listing after the final checkpoint.
fn scheme1_script(root: &Path, backend: BackendKind) -> (String, String) {
    let reg = registry(root, backend);
    let db = open(&reg, SchemeId::Scheme1);
    let docs: Vec<(u64, Vec<u8>)> = (0..6).map(|id| (id, blob(id))).collect();
    ack(&db.handle_shared(&p1::encode_put_docs(&docs)));
    // Tags 0 and 1 land on different shards.
    ack(&db.handle_shared(&p1::encode_apply_updates(&[
        update(0, &SEED_A, &[0, 1]),
        update(1, &SEED_A, &[2]),
    ])));
    // Cross-shard batch: new docs, two fresh tags, and a toggle on tag 0
    // (an XOR delta under the same seed flips doc 6 in).
    let batch_docs = p1::encode_put_docs(&[(6, blob(6)), (7, blob(7))]);
    let batch_updates = p1::encode_apply_updates(&[
        update(2, &SEED_A, &[3, 4]),
        update(3, &SEED_A, &[7]),
        UpdateEntry {
            tag: tag(0),
            delta: DocBitSet::from_ids(CAPACITY as usize, &[6])
                .as_bytes()
                .to_vec(),
            f_r: vec![0, 0xF1],
        },
    ]);
    ack(&db.apply_batch(&[&batch_docs, &batch_updates]));
    db.checkpoint_home().unwrap();
    // Re-mask every tag under a new seed at the same capacity.
    let replacement: Vec<UpdateEntry> = S1_EXPECT[..4]
        .iter()
        .map(|(t, ids)| update(*t, &SEED_B, ids))
        .collect();
    ack(&db.handle_shared(&p1::encode_replace_index(CAPACITY, &replacement)));
    ack(&db.handle_shared(&p1::encode_apply_updates(&[update(4, &SEED_B, &[5])])));
    let live = listing(root);
    db.checkpoint_home().unwrap();
    let checkpointed = listing(root);
    (live, checkpointed)
}

fn scheme1_verify_reopen(root: &Path, backend: BackendKind) {
    let reg = registry(root, backend);
    let db = open(&reg, SchemeId::Scheme1);
    for (t, ids) in S1_EXPECT {
        let resp = db.handle_shared(&p1::encode_search_reveal(&tag(*t), &SEED_B));
        let want: Vec<(u64, Vec<u8>)> = ids.iter().map(|&id| (id, blob(id))).collect();
        assert_eq!(decode_result(&resp).unwrap(), want, "tag {t}");
    }
}

// ---- Scheme 2 ---------------------------------------------------------------

fn chain() -> HashChain {
    HashChain::new(&[b"golden", b"chain"], CHAIN as usize)
}

fn generation(t: u8, ctr: u64, adds: &[u64], dels: &[u64]) -> GenerationEntry {
    let key = chain().key_for_counter(ctr).unwrap();
    let mut w = WireWriter::new();
    w.put_u64_vec(adds);
    w.put_u64_vec(dels);
    let iv = [t ^ (ctr as u8); 12];
    GenerationEntry {
        tag: tag(t),
        sealed_ids: EtmKey::new(&key).seal_with_iv(&iv, &w.finish()),
        commitment: key_commitment(&key),
    }
}

/// Final posting set per tag after [`scheme2_script`]: the reset wiped
/// every earlier generation, so only counter-3 appends remain.
const S2_EXPECT: &[(u8, &[u64])] = &[(0, &[1, 3]), (1, &[4]), (2, &[]), (5, &[6])];

fn scheme2_script(root: &Path, backend: BackendKind) -> (String, String) {
    let reg = registry(root, backend);
    let db = open(&reg, SchemeId::Scheme2);
    let docs: Vec<(u64, Vec<u8>)> = (1..6).map(|id| (id, blob(id))).collect();
    ack(&db.handle_shared(&p2::encode_put_docs(&docs)));
    ack(&db.handle_shared(&p2::encode_append_generations(&[
        generation(0, 1, &[1, 2], &[]),
        generation(1, 1, &[3], &[]),
    ])));
    let batch_docs = p2::encode_put_docs(&[(6, blob(6))]);
    let batch_gens = p2::encode_append_generations(&[
        generation(0, 2, &[6], &[2]),
        generation(2, 2, &[4], &[]),
        generation(3, 2, &[5], &[]),
    ]);
    ack(&db.apply_batch(&[&batch_docs, &batch_gens]));
    db.checkpoint_home().unwrap();
    ack(&db.handle_shared(&p2::encode_remove_docs(&[2, 5])));
    ack(&db.handle_shared(&p2::encode_reset_index()));
    ack(&db.handle_shared(&p2::encode_append_generations(&[
        generation(0, 3, &[1, 3], &[]),
        generation(1, 3, &[4], &[]),
        generation(5, 3, &[6], &[]),
    ])));
    let live = listing(root);
    db.checkpoint_home().unwrap();
    let checkpointed = listing(root);
    (live, checkpointed)
}

fn scheme2_verify_reopen(root: &Path, backend: BackendKind) {
    let reg = registry(root, backend);
    let db = open(&reg, SchemeId::Scheme2);
    let trapdoor = chain().key_for_counter(4).unwrap();
    for (t, ids) in S2_EXPECT {
        let resp = db.handle_shared(&p2::encode_search(&tag(*t), &trapdoor));
        let want: Vec<(u64, Vec<u8>)> = ids.iter().map(|&id| (id, blob(id))).collect();
        assert_eq!(decode_result(&resp).unwrap(), want, "tag {t}");
    }
    assert_eq!(
        reg.get_or_create(TENANT, SchemeId::Scheme2)
            .unwrap()
            .recovery()
            .index_ops_replayed,
        0
    );
}

// ---- the pinned bytes -------------------------------------------------------

fn check(
    name: &str,
    script: fn(&Path, BackendKind) -> (String, String),
    verify: fn(&Path, BackendKind),
    backend: BackendKind,
    want_live: &str,
    want_checkpointed: &str,
) {
    let first = temp_dir(&format!("{name}-a"));
    let second = temp_dir(&format!("{name}-b"));
    let a = script(&first, backend);
    let b = script(&second, backend);
    assert_eq!(a, b, "{name}: two runs of the script wrote different bytes");
    assert_eq!(a.0, want_live, "{name}: live-journal bytes changed");
    assert_eq!(a.1, want_checkpointed, "{name}: checkpointed bytes changed");
    verify(&first, backend);
    let _ = std::fs::remove_dir_all(&first);
    let _ = std::fs::remove_dir_all(&second);
}

#[test]
fn scheme1_btree_bytes_are_pinned() {
    check(
        "s1-btree",
        scheme1_script,
        scheme1_verify_reopen,
        BackendKind::Btree,
        concat!(
            "golden/s1/backend.meta 37ae56f7c3e69b1b7627f7fd6b906b8a5c02782bebdff3e8329b83c004b2bb27\n",
            "golden/s1/scheme1.1.index 5db9b7f3eb924764b6be560fb363428c27e5497f3f95aae9d347d2bc554f711c\n",
            "golden/s1/scheme1.1.wal 16d5e6253631b984a23d8b46a88bcc94e713a74ae90597d7cfb5a293eb16fbe8\n",
            "golden/s1/scheme1.index cd2904565e089a0b82c9261f736f8c4220dd0a26974e4c0048b21697f5f8ad56\n",
            "golden/s1/scheme1.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s1/scheme1.wal 4e875f6ecab76c030444cfced112d78fcc78f5c998a3ede993922f340204d5d9\n",
            "golden/s1/store.snapshot 2904528a4ec09e3a4343138cd649fdfdf7594b642bf4e6fb334b7b93d262e54b\n",
            "golden/s1/store.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        ),
        concat!(
            "golden/s1/backend.meta 37ae56f7c3e69b1b7627f7fd6b906b8a5c02782bebdff3e8329b83c004b2bb27\n",
            "golden/s1/scheme1.1.index eb385633d98c5b032de865a420ca2f5c38dd81f083b638dc7dcf7218f1df472d\n",
            "golden/s1/scheme1.1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s1/scheme1.index d96724a06e531d990ceb112f3d785aa84ba967e4719de9f027c62b00d570b9c0\n",
            "golden/s1/scheme1.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s1/scheme1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s1/store.snapshot 2904528a4ec09e3a4343138cd649fdfdf7594b642bf4e6fb334b7b93d262e54b\n",
            "golden/s1/store.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        ),
    );
}

#[test]
fn scheme1_lsm_bytes_are_pinned() {
    check(
        "s1-lsm",
        scheme1_script,
        scheme1_verify_reopen,
        BackendKind::Lsm,
        concat!(
            "golden/s1/backend.meta 060a5168a44d5b0a4840928e0ae626c88acdaaaec03cb1032500263991572b4f\n",
            "golden/s1/doc-00000001.run 8456efb06ce5218cb379a21746d2aa13f1a529bcf30844a4c1a591a74d49a0e6\n",
            "golden/s1/doc.manifest 0699caef088d6a232f318edd2edccef1b3b370e8842b977bbb689122dcca386f\n",
            "golden/s1/doc.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s1/scheme1.1.wal 16d5e6253631b984a23d8b46a88bcc94e713a74ae90597d7cfb5a293eb16fbe8\n",
            "golden/s1/scheme1.kw0-00000001.run 8f684d39a56c466f38edf87730fc9b15626fbc69bbe4a1da23e6e26951958b7c\n",
            "golden/s1/scheme1.kw0.manifest 2f78426fc42a9a60b4501209ea7350896a23d7cb044a7022d589dd30b89804d5\n",
            "golden/s1/scheme1.kw1-00000001.run dab040f7962aeb00bf2f83557ede528829b3a8f0796ec5f705529ed0c5184d66\n",
            "golden/s1/scheme1.kw1.manifest 2f78426fc42a9a60b4501209ea7350896a23d7cb044a7022d589dd30b89804d5\n",
            "golden/s1/scheme1.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s1/scheme1.wal 4e875f6ecab76c030444cfced112d78fcc78f5c998a3ede993922f340204d5d9\n",
        ),
        concat!(
            "golden/s1/backend.meta 060a5168a44d5b0a4840928e0ae626c88acdaaaec03cb1032500263991572b4f\n",
            "golden/s1/doc-00000001.run 8456efb06ce5218cb379a21746d2aa13f1a529bcf30844a4c1a591a74d49a0e6\n",
            "golden/s1/doc.manifest 0699caef088d6a232f318edd2edccef1b3b370e8842b977bbb689122dcca386f\n",
            "golden/s1/doc.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s1/scheme1.1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s1/scheme1.kw0-00000002.run fb0131fa5469d4a605ab472db83b784774b5c5c83c8f6f14dccdc47cb1effc43\n",
            "golden/s1/scheme1.kw0.manifest 490f0fa1493960bd53769af976ff1e47601a7b6ae9f0a96afef21fa44a863be5\n",
            "golden/s1/scheme1.kw1-00000002.run e0db5c32c05ec562a15bd72ab92b1d4089e517d350fe5278c44f90fa56f5d9cb\n",
            "golden/s1/scheme1.kw1.manifest 9d943cccf08b052ecdfe829b948fb8a12bec84594c04b85828d9c4f6bd408298\n",
            "golden/s1/scheme1.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s1/scheme1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        ),
    );
}

#[test]
fn scheme2_btree_bytes_are_pinned() {
    check(
        "s2-btree",
        scheme2_script,
        scheme2_verify_reopen,
        BackendKind::Btree,
        concat!(
            "golden/s2/backend.meta 37ae56f7c3e69b1b7627f7fd6b906b8a5c02782bebdff3e8329b83c004b2bb27\n",
            "golden/s2/scheme2.1.index d47969d086a6f497e6d3f277086777ba4f49def74cf8a590a7dbfdd093d39934\n",
            "golden/s2/scheme2.1.wal 616db9914a02c6e989b78d4312f64c79cb2910a9085e10f7a10807a314f009eb\n",
            "golden/s2/scheme2.index b5fba4fbeac0fa4b05a8c06f3a6386ac7c6c928aff63ed465fc72a99d106ecce\n",
            "golden/s2/scheme2.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s2/scheme2.wal 77b93072ab606dfd5dec5bd31cf6dcec9e956f0fe6575eb4b1ff7c29f1ef5bfb\n",
            "golden/s2/store.snapshot 93fb5e2caa87b97f73e90f9a8804b3d6e8c18a1d2808ed6f778e64549482d26c\n",
            "golden/s2/store.wal 0d2bbe16b0de99f4bfa885c64dfad23b19f3d1e9d52e79106f6aab212fee18a4\n",
        ),
        concat!(
            "golden/s2/backend.meta 37ae56f7c3e69b1b7627f7fd6b906b8a5c02782bebdff3e8329b83c004b2bb27\n",
            "golden/s2/scheme2.1.index ce27d750785a16b00baaba4ccb94b4bd0705d6ae57f783ab2f53825a4a4a3f2f\n",
            "golden/s2/scheme2.1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s2/scheme2.index b6f28b3474108743892aa3c98bf6585875a81ce51b9046ada0175ca598febfa9\n",
            "golden/s2/scheme2.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s2/scheme2.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s2/store.snapshot 6b0219f169cbc0c69c8073710b2ec66e75395d926e7ad74cc84053c5ed23b736\n",
            "golden/s2/store.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        ),
    );
}

#[test]
fn scheme2_lsm_bytes_are_pinned() {
    check(
        "s2-lsm",
        scheme2_script,
        scheme2_verify_reopen,
        BackendKind::Lsm,
        concat!(
            "golden/s2/backend.meta 060a5168a44d5b0a4840928e0ae626c88acdaaaec03cb1032500263991572b4f\n",
            "golden/s2/doc-00000001.run f12fadac87fe196803434dfd03a50d0a2e0c9647c9a1c513a714b86836e983aa\n",
            "golden/s2/doc.manifest 0699caef088d6a232f318edd2edccef1b3b370e8842b977bbb689122dcca386f\n",
            "golden/s2/doc.wal 0d2bbe16b0de99f4bfa885c64dfad23b19f3d1e9d52e79106f6aab212fee18a4\n",
            "golden/s2/scheme2.1.wal 616db9914a02c6e989b78d4312f64c79cb2910a9085e10f7a10807a314f009eb\n",
            "golden/s2/scheme2.kw0-00000001.run d588473d8f4eebd8b199352b4f6e7dc2fd071e31e329e63543ec9f6ba88e91b7\n",
            "golden/s2/scheme2.kw0.manifest fe1a60689cfea7df9de330950d73e3d45369406de6a0fb88bb84173668d4c9b1\n",
            "golden/s2/scheme2.kw1-00000001.run 8dff145a173ceaa7afa79eaf7b179b45b09c75345cff1073dde92965dcbce766\n",
            "golden/s2/scheme2.kw1.manifest fe1a60689cfea7df9de330950d73e3d45369406de6a0fb88bb84173668d4c9b1\n",
            "golden/s2/scheme2.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s2/scheme2.wal 77b93072ab606dfd5dec5bd31cf6dcec9e956f0fe6575eb4b1ff7c29f1ef5bfb\n",
        ),
        concat!(
            "golden/s2/backend.meta 060a5168a44d5b0a4840928e0ae626c88acdaaaec03cb1032500263991572b4f\n",
            "golden/s2/doc-00000001.run f12fadac87fe196803434dfd03a50d0a2e0c9647c9a1c513a714b86836e983aa\n",
            "golden/s2/doc-00000002.run 15b24af6a9a91410b63fc4804212bae6df1e20934f0a1516431dcc48b4066535\n",
            "golden/s2/doc.manifest 2f4e426b71455b504ee520e49c0588b117123986176da084d918fc0b6bd8d67e\n",
            "golden/s2/doc.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s2/scheme2.1.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
            "golden/s2/scheme2.kw0-00000002.run f1f56ded5415fe10520500d457d165bc0860c1dcf03baa75f0c8a8951c2ceffa\n",
            "golden/s2/scheme2.kw0.manifest 3adbc21c44a4f64032d3cec023956fde539eeb9d5d6808c9598fd97524d87c9b\n",
            "golden/s2/scheme2.kw1-00000002.run ca93a6acadd8961c4becfc8b0ab5658f255192bcc486f19c4140a575658423b4\n",
            "golden/s2/scheme2.kw1.manifest 3adbc21c44a4f64032d3cec023956fde539eeb9d5d6808c9598fd97524d87c9b\n",
            "golden/s2/scheme2.meta 93d5e3eef5a6eb70ea0ba48e05a3a023eccea7a6cf3d19a43c5b420e17589280\n",
            "golden/s2/scheme2.wal e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
        ),
    );
}
