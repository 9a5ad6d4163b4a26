//! Scheme 1 client.
//!
//! Holds the master key and runs the two-round protocols of Figures 1–2
//! against any [`Transport`]. The client is stateless between operations —
//! everything it needs is re-derivable from `K = (k_m, k_w)` — which is the
//! property that lets the paper's traveler use PHR+ "anywhere she prefers".

use super::protocol::{self, UpdateEntry};
use super::Scheme1Config;
use crate::error::{Result, SseError};
use crate::proto_common;
use crate::scheme::SseClientApi;
use crate::types::{Document, Keyword, MasterKey, SearchHits};
use sse_index::bitset::DocBitSet;
use sse_net::link::{MeteredLink, Transport};
use sse_net::meter::Meter;
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::{element_to_seed, ElGamal, ElGamalCiphertext};
use sse_primitives::etm::EtmKey;
use sse_primitives::prf::Prf;
use sse_primitives::prg::Prg;
use std::collections::BTreeMap;

/// The Scheme 1 client, generic over the transport to the server.
pub struct Scheme1Client<T: Transport> {
    link: T,
    config: Scheme1Config,
    /// Tag PRF `f` under a `k_w` subkey.
    prf: Prf,
    /// Data-item encryption `E_km`.
    etm: EtmKey,
    /// The trapdoor permutation `F` (keys derived from `k_w`).
    elgamal: ElGamal,
    /// Client-side randomness (nonces, ElGamal encryption coins).
    drbg: HmacDrbg,
}

/// Convenience alias: a client wired directly to an in-process server.
pub type InMemoryScheme1Client = Scheme1Client<MeteredLink<super::server::Scheme1Server>>;

impl InMemoryScheme1Client {
    /// Build client + in-memory server + metered link in one call.
    #[must_use]
    pub fn new_in_memory(key: MasterKey, config: Scheme1Config) -> Self {
        let server = super::server::Scheme1Server::new_in_memory(config.capacity_docs);
        let link = MeteredLink::new(server, Meter::new());
        Scheme1Client::new(link, key, config)
    }

    /// The traffic meter shared with the link.
    #[must_use]
    pub fn meter(&self) -> Meter {
        self.link.meter().clone()
    }

    /// Peek at the server (experiments read its counters).
    pub fn server_mut(&mut self) -> &mut super::server::Scheme1Server {
        self.link.service_mut()
    }
}

impl<T: Transport> Scheme1Client<T> {
    /// Construct a client over an established transport.
    #[must_use]
    pub fn new(link: T, key: MasterKey, config: Scheme1Config) -> Self {
        let prf = Prf::new(key.derive_w("scheme1/tag"));
        let etm = EtmKey::new(&key.derive_m("scheme1/data"));
        let elgamal =
            ElGamal::from_master_key(config.group.clone(), &key.derive_w("scheme1/trapdoor"));
        // Mix OS entropy with a key-derived personalization string.
        let mut seed_material = key.derive_w("scheme1/client-rng").to_vec();
        let mut os = [0u8; 32];
        sse_primitives::os_random(&mut os);
        seed_material.extend_from_slice(&os);
        let drbg = HmacDrbg::new(&seed_material);
        Scheme1Client {
            link,
            config,
            prf,
            etm,
            elgamal,
            drbg,
        }
    }

    /// Deterministic variant for tests and reproducible experiments.
    #[must_use]
    pub fn new_seeded(link: T, key: MasterKey, config: Scheme1Config, rng_seed: u64) -> Self {
        let mut c = Self::new(link, key, config);
        c.drbg = HmacDrbg::from_u64(rng_seed);
        c
    }

    /// The PRF tag `f_kw(w)` — also the `Trapdoor(w)` of Scheme 1.
    #[must_use]
    pub fn tag(&self, keyword: &Keyword) -> [u8; 32] {
        self.prf.eval(keyword.as_bytes()).0
    }

    /// `Storage` / update: upload documents and merge their keywords.
    ///
    /// # Errors
    /// Rejects ids beyond the configured capacity; propagates protocol and
    /// crypto failures.
    pub fn store(&mut self, docs: &[Document]) -> Result<()> {
        for d in docs {
            if d.id >= self.config.capacity_docs {
                return Err(SseError::DocIdOutOfRange {
                    id: d.id,
                    capacity: self.config.capacity_docs,
                });
            }
        }

        // DataStorage: ship E_km(M_i).
        if !docs.is_empty() {
            let blobs: Vec<(u64, Vec<u8>)> = docs
                .iter()
                .map(|d| (d.id, self.seal_blob(&d.data)))
                .collect();
            let resp = self.link.round_trip(&protocol::encode_put_docs(&blobs))?;
            proto_common::decode_ack(&resp)?;
        }

        // MetadataStorage: gather U(w) for each unique keyword.
        let mut updates: BTreeMap<[u8; 32], DocBitSet> = BTreeMap::new();
        for d in docs {
            for w in &d.keywords {
                updates
                    .entry(self.tag(w))
                    .or_insert_with(|| DocBitSet::new(self.config.capacity_docs as usize))
                    .toggle(d.id);
            }
        }
        if updates.is_empty() {
            return Ok(());
        }
        self.send_masked_updates(updates)
    }

    /// [`Scheme1Client::store`] with the final two mutations (`PutDocs`,
    /// `ApplyUpdates`) shipped through [`Transport::round_trip_batch`]: the
    /// nonce fetch stays its own round, but over a batching transport (the
    /// TCP `UPDATE_MANY` envelope) blobs and masked deltas land in one
    /// message the server applies atomically — a racing search sees either
    /// none or all of the update, and each index shard takes one journal
    /// append. On non-batching transports this degrades to exactly the
    /// message sequence of [`Scheme1Client::store`] with the `PutDocs`
    /// reordered after the nonce fetch.
    ///
    /// # Errors
    /// Same failure modes as [`Scheme1Client::store`].
    pub fn store_batch(&mut self, docs: &[Document]) -> Result<()> {
        for d in docs {
            if d.id >= self.config.capacity_docs {
                return Err(SseError::DocIdOutOfRange {
                    id: d.id,
                    capacity: self.config.capacity_docs,
                });
            }
        }
        let mut updates: BTreeMap<[u8; 32], DocBitSet> = BTreeMap::new();
        for d in docs {
            for w in &d.keywords {
                updates
                    .entry(self.tag(w))
                    .or_insert_with(|| DocBitSet::new(self.config.capacity_docs as usize))
                    .toggle(d.id);
            }
        }

        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(2);
        if !docs.is_empty() {
            let blobs: Vec<(u64, Vec<u8>)> = docs
                .iter()
                .map(|d| (d.id, self.seal_blob(&d.data)))
                .collect();
            parts.push(protocol::encode_put_docs(&blobs));
        }
        if !updates.is_empty() {
            // Round 1: fetch F(r) for every touched keyword.
            let tags: Vec<[u8; 32]> = updates.keys().copied().collect();
            let resp = self.link.round_trip(&protocol::encode_get_nonces(&tags))?;
            let nonces = protocol::decode_nonces(&resp)?;
            if nonces.len() != tags.len() {
                return Err(SseError::ProtocolViolation {
                    expected: "one nonce slot per requested tag",
                    got: format!("{} slots for {} tags", nonces.len(), tags.len()),
                });
            }
            let entries = self.build_masked_entries(updates, nonces)?;
            parts.push(protocol::encode_apply_updates(&entries));
        }
        if parts.is_empty() {
            return Ok(());
        }
        let responses = self.link.round_trip_batch(&parts)?;
        for resp in &responses {
            proto_common::decode_ack(resp)?;
        }
        Ok(())
    }

    /// The two-round masked-update exchange of Fig. 1 for pre-built
    /// `tag → U(w)` arrays. Shared by [`Scheme1Client::store`] and the
    /// leakage-hiding fake updates.
    fn send_masked_updates(&mut self, updates: BTreeMap<[u8; 32], DocBitSet>) -> Result<()> {
        let tags: Vec<[u8; 32]> = updates.keys().copied().collect();

        // Round 1: fetch F(r) for every touched keyword.
        let resp = self.link.round_trip(&protocol::encode_get_nonces(&tags))?;
        let nonces = protocol::decode_nonces(&resp)?;
        if nonces.len() != tags.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one nonce slot per requested tag",
                got: format!("{} slots for {} tags", nonces.len(), tags.len()),
            });
        }

        // Round 2: build and send the masked deltas.
        let entries = self.build_masked_entries(updates, nonces)?;
        let resp = self
            .link
            .round_trip(&protocol::encode_apply_updates(&entries))?;
        proto_common::decode_ack(&resp)
    }

    /// Turn `tag → U(w)` arrays plus their fetched `F(r)` slots into masked
    /// [`UpdateEntry`]s: strip the old mask where a nonce exists, apply a
    /// fresh `G(r')`.
    fn build_masked_entries(
        &mut self,
        updates: BTreeMap<[u8; 32], DocBitSet>,
        nonces: Vec<Option<Vec<u8>>>,
    ) -> Result<Vec<UpdateEntry>> {
        let mut entries = Vec::with_capacity(updates.len());
        for ((tag, u_w), stored_f_r) in updates.into_iter().zip(nonces) {
            let mut delta = u_w.as_bytes().to_vec();
            if let Some(f_r_bytes) = stored_f_r {
                // Existing keyword: recover r and strip the old mask.
                let ct = ElGamalCiphertext::from_bytes(self.elgamal.group(), &f_r_bytes)?;
                let old_seed = self.elgamal.decrypt_to_seed(&ct)?;
                Prg::mask_in_place(&old_seed, &mut delta);
            }
            // Apply the fresh mask G(r').
            let (new_seed, f_r_new) = self.fresh_nonce();
            Prg::mask_in_place(&new_seed, &mut delta);
            entries.push(UpdateEntry {
                tag,
                delta,
                f_r: f_r_new,
            });
        }
        Ok(entries)
    }

    /// `Trapdoor` + `Search` (Fig. 2, two rounds).
    ///
    /// # Errors
    /// Propagates protocol and crypto failures; an unknown keyword returns
    /// an empty hit list.
    pub fn search(&mut self, keyword: &Keyword) -> Result<SearchHits> {
        let tag = self.tag(keyword);

        // Round 1: T_w = f_kw(w); expect F(r).
        let resp = self.link.round_trip(&protocol::encode_search_find(&tag))?;
        let Some(f_r_bytes) = protocol::decode_found(&resp)? else {
            return Ok(Vec::new());
        };
        let ct = ElGamalCiphertext::from_bytes(self.elgamal.group(), &f_r_bytes)?;
        let seed = self.elgamal.decrypt_to_seed(&ct)?;

        // Round 2: reveal r; expect the matching encrypted documents.
        let resp = self
            .link
            .round_trip(&protocol::encode_search_reveal(&tag, &seed))?;
        let encrypted = proto_common::decode_result(&resp)?;
        let mut hits = Vec::with_capacity(encrypted.len());
        for (id, blob) in encrypted {
            hits.push((id, self.etm.open(&blob)?));
        }

        if self.config.remask_after_search {
            self.remask(tag, &seed)?;
        }
        Ok(hits)
    }

    /// Batched search (protocol extension): search `q` keywords in **two
    /// rounds total** instead of `2q` — round 1 fetches every `F(r)` (the
    /// same exchange `MetadataStorage` uses), round 2 reveals all seeds at
    /// once. Returns one hit list per keyword, position-aligned.
    ///
    /// # Errors
    /// Propagates protocol and crypto failures.
    pub fn search_many(&mut self, keywords: &[Keyword]) -> Result<Vec<SearchHits>> {
        if keywords.is_empty() {
            return Ok(Vec::new());
        }
        let tags: Vec<[u8; 32]> = keywords.iter().map(|w| self.tag(w)).collect();

        // Round 1: F(r) for every tag (unknown keywords come back absent).
        let resp = self.link.round_trip(&protocol::encode_get_nonces(&tags))?;
        let nonces = protocol::decode_nonces(&resp)?;
        if nonces.len() != tags.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one nonce slot per requested tag",
                got: format!("{} slots for {} tags", nonces.len(), tags.len()),
            });
        }

        // Recover seeds for the keywords that exist.
        let mut reveal: Vec<([u8; 32], [u8; 32])> = Vec::new();
        let mut reveal_pos: Vec<usize> = Vec::new();
        for (i, stored) in nonces.iter().enumerate() {
            if let Some(f_r_bytes) = stored {
                let ct = ElGamalCiphertext::from_bytes(self.elgamal.group(), f_r_bytes)?;
                let seed = self.elgamal.decrypt_to_seed(&ct)?;
                reveal.push((tags[i], seed));
                reveal_pos.push(i);
            }
        }
        let mut out: Vec<SearchHits> = vec![Vec::new(); keywords.len()];
        if reveal.is_empty() {
            return Ok(out);
        }

        // Round 2: reveal everything at once.
        let resp = self
            .link
            .round_trip(&protocol::encode_search_reveal_many(&reveal))?;
        let results = crate::proto_common::decode_result_many(&resp)?;
        if results.len() != reveal.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one result list per revealed tag",
                got: format!("{} lists for {} reveals", results.len(), reveal.len()),
            });
        }
        for (slot, encrypted) in reveal_pos.iter().zip(results) {
            let mut hits = Vec::with_capacity(encrypted.len());
            for (id, blob) in encrypted {
                hits.push((id, self.etm.open(&blob)?));
            }
            out[*slot] = hits;
        }

        if self.config.remask_after_search {
            // One extra round re-randomizes every revealed mask at once.
            let entries: Vec<UpdateEntry> = reveal
                .iter()
                .map(|(tag, seed)| {
                    let mut delta = vec![0u8; self.config.index_bytes()];
                    Prg::mask_in_place(seed, &mut delta);
                    let (new_seed, f_r_new) = self.fresh_nonce();
                    Prg::mask_in_place(&new_seed, &mut delta);
                    UpdateEntry {
                        tag: *tag,
                        delta,
                        f_r: f_r_new,
                    }
                })
                .collect();
            let resp = self
                .link
                .round_trip(&protocol::encode_apply_updates(&entries))?;
            proto_common::decode_ack(&resp)?;
        }
        Ok(out)
    }

    /// [`Scheme1Client::search_many`] with one scheme message per keyword
    /// in each round, shipped through
    /// [`Transport::round_trip_search_batch`]: over the TCP `SEARCH_MANY`
    /// envelope this is a batched `SearchFind` round followed by a batched
    /// `SearchReveal` round — **two rounds total**, with the daemon
    /// evaluating the per-keyword lookups and unmaskings concurrently
    /// across its shard snapshots. On non-batching transports this
    /// degrades to the per-keyword sequence of [`Scheme1Client::search`].
    /// Returns one hit list per keyword, position-aligned.
    ///
    /// # Errors
    /// Propagates protocol and crypto failures.
    pub fn search_batch(&mut self, keywords: &[Keyword]) -> Result<Vec<SearchHits>> {
        if keywords.is_empty() {
            return Ok(Vec::new());
        }
        let tags: Vec<[u8; 32]> = keywords.iter().map(|w| self.tag(w)).collect();

        // Round 1: one SearchFind part per tag, fanned out server-side.
        let find_parts: Vec<Vec<u8>> = tags.iter().map(protocol::encode_search_find).collect();
        let find_responses = self.link.round_trip_search_batch(&find_parts)?;
        if find_responses.len() != tags.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one find response per search part",
                got: format!(
                    "{} responses for {} parts",
                    find_responses.len(),
                    tags.len()
                ),
            });
        }

        // Recover seeds for the keywords that exist.
        let mut reveal: Vec<([u8; 32], [u8; 32])> = Vec::new();
        let mut reveal_pos: Vec<usize> = Vec::new();
        for (i, resp) in find_responses.iter().enumerate() {
            if let Some(f_r_bytes) = protocol::decode_found(resp)? {
                let ct = ElGamalCiphertext::from_bytes(self.elgamal.group(), &f_r_bytes)?;
                let seed = self.elgamal.decrypt_to_seed(&ct)?;
                reveal.push((tags[i], seed));
                reveal_pos.push(i);
            }
        }
        let mut out: Vec<SearchHits> = vec![Vec::new(); keywords.len()];
        if reveal.is_empty() {
            return Ok(out);
        }

        // Round 2: one SearchReveal part per present keyword.
        let reveal_parts: Vec<Vec<u8>> = reveal
            .iter()
            .map(|(tag, seed)| protocol::encode_search_reveal(tag, seed))
            .collect();
        let reveal_responses = self.link.round_trip_search_batch(&reveal_parts)?;
        if reveal_responses.len() != reveal.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one reveal response per revealed tag",
                got: format!(
                    "{} responses for {} reveals",
                    reveal_responses.len(),
                    reveal.len()
                ),
            });
        }
        for (slot, resp) in reveal_pos.iter().zip(&reveal_responses) {
            let encrypted = proto_common::decode_result(resp)?;
            let mut hits = Vec::with_capacity(encrypted.len());
            for (id, blob) in encrypted {
                hits.push((id, self.etm.open(&blob)?));
            }
            out[*slot] = hits;
        }

        if self.config.remask_after_search {
            // One extra round re-randomizes every revealed mask at once.
            let entries: Vec<UpdateEntry> = reveal
                .iter()
                .map(|(tag, seed)| {
                    let mut delta = vec![0u8; self.config.index_bytes()];
                    Prg::mask_in_place(seed, &mut delta);
                    let (new_seed, f_r_new) = self.fresh_nonce();
                    Prg::mask_in_place(&new_seed, &mut delta);
                    UpdateEntry {
                        tag: *tag,
                        delta,
                        f_r: f_r_new,
                    }
                })
                .collect();
            let resp = self
                .link
                .round_trip(&protocol::encode_apply_updates(&entries))?;
            proto_common::decode_ack(&resp)?;
        }
        Ok(out)
    }

    /// §5.7 *fake update*: run the full two-round update exchange with
    /// all-zero `U(w)` arrays. On the wire this is indistinguishable from a
    /// real update touching the same number of keywords, and it leaves every
    /// posting set unchanged (`I ⊕ 0 = I`) while refreshing the masks.
    ///
    /// # Errors
    /// Propagates protocol and crypto failures.
    pub fn fake_update(&mut self, keywords: &[Keyword]) -> Result<()> {
        let updates: BTreeMap<[u8; 32], DocBitSet> = keywords
            .iter()
            .map(|w| {
                (
                    self.tag(w),
                    DocBitSet::new(self.config.capacity_docs as usize),
                )
            })
            .collect();
        if updates.is_empty() {
            return Ok(());
        }
        self.send_masked_updates(updates)
    }

    /// Ask a durable server to checkpoint its document store and keyword
    /// index to disk (one round). Errors if the server is in-memory.
    ///
    /// # Errors
    /// Protocol failures, or a server-side error for in-memory servers.
    pub fn request_checkpoint(&mut self) -> Result<()> {
        let resp = self.link.round_trip(&protocol::encode_checkpoint())?;
        proto_common::decode_ack(&resp)
    }

    /// Capacity migration (extension; two rounds): grow the database's
    /// document capacity by downloading every searchable representation,
    /// unmasking it with the recovered nonce, re-masking at the new width
    /// under fresh nonces, and atomically replacing the server's index.
    ///
    /// The client never needs to know the keyword *strings* — tags carry
    /// through unchanged — so this works for the paper's stateless client.
    ///
    /// # Errors
    /// Rejects shrinking below the current capacity; propagates protocol
    /// and crypto failures.
    pub fn migrate_capacity(&mut self, new_capacity: u64) -> Result<()> {
        if new_capacity < self.config.capacity_docs {
            return Err(SseError::DocIdOutOfRange {
                id: new_capacity,
                capacity: self.config.capacity_docs,
            });
        }
        let old_width = self.config.index_bytes();
        let new_width = (new_capacity as usize).div_ceil(8);

        // Round 1: download the index.
        let resp = self.link.round_trip(&protocol::encode_export_index())?;
        let dump = protocol::decode_index_dump(&resp)?;

        // Re-mask every entry at the new width.
        let mut entries = Vec::with_capacity(dump.len());
        for (tag, masked, f_r_bytes) in dump {
            if masked.len() != old_width {
                return Err(SseError::ProtocolViolation {
                    expected: "index entries at the current width",
                    got: format!("width {}", masked.len()),
                });
            }
            let ct = ElGamalCiphertext::from_bytes(self.elgamal.group(), &f_r_bytes)?;
            let seed = self.elgamal.decrypt_to_seed(&ct)?;
            let mut plain = Prg::mask(&seed, &masked);
            plain.resize(new_width, 0);
            let (new_seed, f_r_new) = self.fresh_nonce();
            Prg::mask_in_place(&new_seed, &mut plain);
            entries.push(UpdateEntry {
                tag,
                delta: plain,
                f_r: f_r_new,
            });
        }

        // Round 2: atomic replace.
        let resp = self
            .link
            .round_trip(&protocol::encode_replace_index(new_capacity, &entries))?;
        proto_common::decode_ack(&resp)?;
        self.config.capacity_docs = new_capacity;
        Ok(())
    }

    /// Post-search re-masking (extension): replace the revealed mask `G(r)`
    /// with a fresh `G(r')` via a zero-delta update, without a nonce
    /// round-trip (the client just learned `r`).
    fn remask(&mut self, tag: [u8; 32], revealed_seed: &[u8; 32]) -> Result<()> {
        let mut delta = vec![0u8; self.config.index_bytes()];
        Prg::mask_in_place(revealed_seed, &mut delta);
        let (new_seed, f_r_new) = self.fresh_nonce();
        Prg::mask_in_place(&new_seed, &mut delta);
        let resp = self
            .link
            .round_trip(&protocol::encode_apply_updates(&[UpdateEntry {
                tag,
                delta,
                f_r: f_r_new,
            }]))?;
        proto_common::decode_ack(&resp)
    }

    /// Sample a fresh nonce `r'`, returning its PRG seed and serialized
    /// `F(r')`.
    fn fresh_nonce(&mut self) -> ([u8; 32], Vec<u8>) {
        let nonce = self.drbg.gen_key();
        let embedded = self.elgamal.embed_nonce(&nonce);
        let seed = element_to_seed(self.elgamal.group(), &embedded);
        let ct = self.elgamal.encrypt_element(&embedded, &mut self.drbg);
        (seed, ct.to_bytes(self.elgamal.group()))
    }

    fn seal_blob(&mut self, data: &[u8]) -> Vec<u8> {
        // Draw the IV from the client DRBG so runs are reproducible.
        let mut iv = [0u8; 12];
        self.drbg.fill(&mut iv);
        self.etm.seal_with_iv(&iv, data)
    }

    /// Access the underlying transport (benchmarks swap meters, examples
    /// read counters).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.link
    }
}

impl<T: Transport> SseClientApi for Scheme1Client<T> {
    fn add_documents(&mut self, docs: &[Document]) -> Result<()> {
        self.store(docs)
    }

    fn search(&mut self, keyword: &Keyword) -> Result<SearchHits> {
        Scheme1Client::search(self, keyword)
    }

    fn search_many(&mut self, keywords: &[Keyword]) -> Result<Vec<SearchHits>> {
        Scheme1Client::search_many(self, keywords)
    }

    fn scheme_name(&self) -> &'static str {
        "scheme1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Document;

    fn client(capacity: u64) -> InMemoryScheme1Client {
        let mut c = InMemoryScheme1Client::new_in_memory(
            MasterKey::from_seed(42),
            Scheme1Config::fast_profile(capacity),
        );
        c.drbg = HmacDrbg::from_u64(7);
        c
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new(0, b"doc zero".to_vec(), ["flu", "fever"]),
            Document::new(1, b"doc one".to_vec(), ["fever"]),
            Document::new(2, b"doc two".to_vec(), ["measles"]),
        ]
    }

    #[test]
    fn store_and_search_end_to_end() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        let hits = c.search(&Keyword::new("fever")).unwrap();
        assert_eq!(
            hits,
            vec![(0, b"doc zero".to_vec()), (1, b"doc one".to_vec())]
        );
        let hits = c.search(&Keyword::new("measles")).unwrap();
        assert_eq!(hits, vec![(2, b"doc two".to_vec())]);
    }

    #[test]
    fn unknown_keyword_finds_nothing() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        assert!(c.search(&Keyword::new("nonexistent")).unwrap().is_empty());
    }

    #[test]
    fn incremental_update_extends_results() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        // Later: a new document with an existing keyword.
        c.store(&[Document::new(5, b"doc five".to_vec(), ["fever", "new-kw"])])
            .unwrap();
        let hits = c.search(&Keyword::new("fever")).unwrap();
        let ids: Vec<u64> = hits.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 5]);
        assert_eq!(
            c.search(&Keyword::new("new-kw")).unwrap(),
            vec![(5, b"doc five".to_vec())]
        );
    }

    #[test]
    fn xor_update_removes_documents() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        // Re-sending id 1 under "fever" toggles it out of I(fever).
        c.store(&[Document::new(1, b"doc one".to_vec(), ["fever"])])
            .unwrap();
        let ids: Vec<u64> = c
            .search(&Keyword::new("fever"))
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn search_works_after_interleaved_updates_and_searches() {
        let mut c = client(128);
        c.store(&docs()).unwrap();
        for round in 0u64..5 {
            let id = 10 + round;
            c.store(&[Document::new(
                id,
                format!("gen {round}").into_bytes(),
                ["fever"],
            )])
            .unwrap();
            let hits = c.search(&Keyword::new("fever")).unwrap();
            assert_eq!(hits.len(), 2 + (round as usize) + 1);
        }
    }

    #[test]
    fn capacity_is_enforced_client_side() {
        let mut c = client(4);
        let err = c.store(&[Document::new(4, vec![], ["x"])]).unwrap_err();
        assert!(matches!(err, SseError::DocIdOutOfRange { id: 4, .. }));
    }

    #[test]
    fn round_counts_match_table_1() {
        let mut c = client(64);
        let meter = c.meter();

        // Storage: 1 (PutDocs) + 2 (update rounds).
        c.store(&docs()).unwrap();
        assert_eq!(meter.snapshot().rounds, 3);

        // Search: exactly 2 rounds.
        meter.reset();
        c.search(&Keyword::new("fever")).unwrap();
        assert_eq!(meter.snapshot().rounds, 2);

        // Metadata-only update (no new docs): exactly 2 rounds.
        meter.reset();
        c.fake_update(&[Keyword::new("fever")]).unwrap();
        assert_eq!(meter.snapshot().rounds, 2);
    }

    #[test]
    fn fake_update_preserves_results_and_changes_stored_bytes() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        let before = c.search(&Keyword::new("fever")).unwrap();
        c.fake_update(&[Keyword::new("fever"), Keyword::new("measles")])
            .unwrap();
        let after = c.search(&Keyword::new("fever")).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn remask_extension_keeps_correctness() {
        let mut c = InMemoryScheme1Client::new_in_memory(
            MasterKey::from_seed(42),
            Scheme1Config::fast_profile(64).with_remask(),
        );
        c.store(&docs()).unwrap();
        for _ in 0..3 {
            let hits = c.search(&Keyword::new("fever")).unwrap();
            assert_eq!(hits.len(), 2);
        }
    }

    #[test]
    fn wrong_master_key_cannot_read_results() {
        // Client B shares the transport-visible state but not the key:
        // simulate by storing with one key and searching with another.
        let mut c1 = client(64);
        c1.store(&docs()).unwrap();
        // Fresh client with a different key over the *same* server.
        let server = std::mem::replace(
            c1.server_mut(),
            super::super::server::Scheme1Server::new_in_memory(64),
        );
        let link = MeteredLink::new(server, Meter::new());
        let mut c2 = Scheme1Client::new_seeded(
            link,
            MasterKey::from_seed(999),
            Scheme1Config::fast_profile(64),
            1,
        );
        // Different k_w -> different tags -> nothing found.
        assert!(c2.search(&Keyword::new("fever")).unwrap().is_empty());
    }

    #[test]
    fn search_many_matches_individual_searches_in_two_rounds() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        let kws = [
            Keyword::new("fever"),
            Keyword::new("absent"),
            Keyword::new("measles"),
        ];
        let individual: Vec<_> = kws.iter().map(|w| c.search(w).unwrap()).collect();
        let meter = c.meter();
        meter.reset();
        let batched = c.search_many(&kws).unwrap();
        assert_eq!(
            meter.snapshot().rounds,
            2,
            "batched search is 2 rounds total"
        );
        assert_eq!(batched, individual);
    }

    #[test]
    fn search_many_empty_and_all_unknown() {
        let mut c = client(64);
        c.store(&docs()).unwrap();
        assert!(c.search_many(&[]).unwrap().is_empty());
        let r = c
            .search_many(&[Keyword::new("nope1"), Keyword::new("nope2")])
            .unwrap();
        assert_eq!(r, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn store_batch_matches_store_results() {
        let mut a = client(64);
        let mut b = client(64);
        a.store(&docs()).unwrap();
        b.store_batch(&docs()).unwrap();
        for w in ["flu", "fever", "measles", "absent"] {
            assert_eq!(
                a.search(&Keyword::new(w)).unwrap(),
                b.search(&Keyword::new(w)).unwrap(),
                "keyword {w}"
            );
        }
        // Batched updates toggle like plain ones.
        b.store_batch(&[Document::new(1, b"doc one".to_vec(), ["fever"])])
            .unwrap();
        let ids: Vec<u64> = b
            .search(&Keyword::new("fever"))
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn empty_store_call_is_a_noop() {
        let mut c = client(64);
        let meter = c.meter();
        c.store(&[]).unwrap();
        assert_eq!(meter.snapshot().rounds, 0);
    }

    #[test]
    fn documents_without_keywords_are_stored_but_unsearchable() {
        let mut c = client(64);
        c.store(&[Document::new(0, b"orphan".to_vec(), Vec::<&str>::new())])
            .unwrap();
        assert_eq!(c.server_mut().stored_docs(), 1);
        assert_eq!(c.server_mut().unique_keywords(), 0);
    }

    #[test]
    fn capacity_migration_preserves_postings_and_allows_growth() {
        let mut c = client(8);
        c.store(&[
            Document::new(0, b"zero".to_vec(), ["kw-a"]),
            Document::new(7, b"seven".to_vec(), ["kw-a", "kw-b"]),
        ])
        .unwrap();
        // Id 8 is out of range before migration.
        assert!(c.store(&[Document::new(8, vec![], ["kw-a"])]).is_err());

        c.migrate_capacity(64).unwrap();
        // Old postings intact.
        let ids: Vec<u64> = c
            .search(&Keyword::new("kw-a"))
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![0, 7]);
        // New ids fit now.
        c.store(&[Document::new(40, b"forty".to_vec(), ["kw-b"])])
            .unwrap();
        let ids: Vec<u64> = c
            .search(&Keyword::new("kw-b"))
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![7, 40]);
    }

    #[test]
    fn chained_migrations_and_batched_search() {
        let mut c = client(8);
        c.store(&[
            Document::new(0, b"a".to_vec(), ["k1"]),
            Document::new(1, b"b".to_vec(), ["k1", "k2"]),
        ])
        .unwrap();
        // Grow twice in a row; all state must carry through both hops.
        c.migrate_capacity(32).unwrap();
        c.migrate_capacity(512).unwrap();
        c.store(&[Document::new(400, b"c".to_vec(), ["k2"])])
            .unwrap();
        let results = c
            .search_many(&[Keyword::new("k1"), Keyword::new("k2")])
            .unwrap();
        let ids1: Vec<u64> = results[0].iter().map(|(id, _)| *id).collect();
        let ids2: Vec<u64> = results[1].iter().map(|(id, _)| *id).collect();
        assert_eq!(ids1, vec![0, 1]);
        assert_eq!(ids2, vec![1, 400]);
    }

    #[test]
    fn migration_of_empty_database_works() {
        let mut c = client(8);
        c.migrate_capacity(64).unwrap();
        c.store(&[Document::new(50, b"x".to_vec(), ["kw"])])
            .unwrap();
        assert_eq!(c.search(&Keyword::new("kw")).unwrap().len(), 1);
    }

    #[test]
    fn migration_rejects_shrinking() {
        let mut c = client(64);
        assert!(c.migrate_capacity(32).is_err());
    }

    #[test]
    fn migration_costs_two_rounds() {
        let mut c = client(8);
        c.store(&docs().into_iter().take(2).collect::<Vec<_>>())
            .unwrap();
        let meter = c.meter();
        meter.reset();
        c.migrate_capacity(128).unwrap();
        assert_eq!(meter.snapshot().rounds, 2);
    }

    #[test]
    fn update_bandwidth_scales_with_capacity_not_batch() {
        // Table-1 claim: Scheme 1 update ships Θ(capacity) bits per keyword.
        let mut small = client(64);
        let mut large = client(4096);
        let m_small = small.meter();
        let m_large = large.meter();
        let doc = vec![Document::new(1, b"d".to_vec(), ["kw"])];
        small.store(&doc).unwrap();
        large.store(&doc).unwrap();
        let up_small = m_small.snapshot().bytes_up;
        let up_large = m_large.snapshot().bytes_up;
        // 4096/8 - 64/8 = 504 extra delta bytes for the same single doc.
        assert!(
            up_large >= up_small + 500,
            "expected capacity-driven growth: {up_small} vs {up_large}"
        );
    }
}
